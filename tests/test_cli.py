import json
import random
import shlex
from pathlib import Path

import pytest

from zwords import cli
from zwords.cli import main
from zwords.ordinals import format_ordinal
from zwords.schreier import format_set
from zwords.words import format_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rat_encode(capsys):
    code, out, _ = run(capsys, "rat", "encode", "2")
    assert code == 0 and out == "2:2,3:1\n"


def test_rat_encode_bare_negative_value(capsys):
    for value in ("-3/7", "-2", "-0.5"):
        behind_dashes = run(capsys, "rat", "encode", "--", value)
        assert behind_dashes[0] == 0 and behind_dashes[1]
        assert run(capsys, "rat", "encode", value) == behind_dashes
        assert run(capsys, "--json", "rat", "encode", value) \
            == run(capsys, "--json", "rat", "encode", "--", value)
    assert run(capsys, "rat", "encode", "-3/7")[1] == "-6:-3,-5:-3,-4:-4,-3:-3,-2:-1,-1:-1\n"
    # flags stay flags: help, unknown options and a second value
    code, out, _ = run(capsys, "rat", "encode", "-h")
    assert code == 0 and out.startswith("usage:")
    for argv in (("rat", "encode", "-x"), ("rat", "encode", "--bogus", "1"),
                 ("rat", "encode", "-3/7", "-1/2"), ("rat", "encode", "1", "-3/7")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "usage:" in err
    # elsewhere a negative number after a flag stays that flag's value
    code, _, err = run(capsys, "word", "subst", "--p", "-1", "--q", "1", "--word", "-1:v,1:v")
    assert code == 1 and err.startswith("error: substitution pair")


def test_flag_followed_by_dashes_is_a_usage_error(capsys):
    # "--" ends the options; it is never a flag's value
    for argv in (("word", "check", "--word", "--"),
                 ("rat", "decode", "--word", "--"),
                 ("rat", "precedes", "--a", "1", "--b", "--"),
                 ("search", "fs", "--xs", "1,2", "--zs", "--")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(": expected one argument\n")


def test_rat_decode_and_json(capsys):
    code, out, _ = run(capsys, "--json", "rat", "decode", "--word", "2:2,3:1")
    assert code == 0 and json.loads(out) == {"value": "2"}


def test_rat_decode_rejects_variable_words(capsys):
    code, out, err = run(capsys, "rat", "decode", "--word", "-1:v,1:v")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_parser_reuse_matches_fresh_parser(capsys, monkeypatch):
    calls = [
        ("rat", "encode", "--", "-3/7"),
        ("nonsense",),
        ("--json", "rat", "decode", "--word", "2:2,3:1"),
        ("rat", "encode", "0"),
        ("word", "check", "--word", "-1:v,1:v"),
        ("schreier", "member", "--xi", "w"),
        ("--json", "schreier", "canon", "--xi", "2", "--set", "1,2,3,4,5"),
        ("rat", "decode", "--word", "-1:v,1:v"),
        ("word", "subst", "--p", "2", "--q", "1", "--word", "-2:v,1:v"),
        ("schreier", "enum", "--xi", "2", "--n", "3"),
        ("--json", "rat", "qxi", "--xi", "2", "--values", "1/2,143/24"),
        ("rat", "precedes", "--a", "1/2", "--b", "143/24"),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 1, 2}


def test_schreier_member(capsys):
    code, out, _ = run(capsys, "schreier", "member", "--xi", "w", "--set", "3,5,9")
    assert code == 0 and out == "true\n"


def test_word_subst_identity(capsys):
    code, out, _ = run(capsys, "word", "subst", "--p", "0", "--q", "0",
                       "--word", "-1:v,1:v")
    assert code == 0 and out == "-1:v,1:v\n"


def test_word_check(capsys):
    code, out, _ = run(capsys, "word", "check", "--word", "-1:v,1:v")
    assert code == 0 and out == "class=variable core=true length=2\n"


def test_ordinal_commands(capsys):
    code, out, _ = run(capsys, "ordinal", "cmp", "--a", "w^2", "--b", "w*7+3")
    assert code == 0 and out == "greater\n"
    code, out, _ = run(capsys, "ordinal", "fund", "--lambda", "w^2", "--n", "3")
    assert code == 0 and out == "w*3+1\n"
    code, out, _ = run(capsys, "ordinal", "pred", "--xi", "w+1", "--n", "5")
    assert code == 0 and out == "w\n"


def test_schreier_enum_and_canon(capsys):
    code, out, _ = run(capsys, "schreier", "enum", "--xi", "2", "--n", "3")
    assert code == 0 and out == "1,2\n1,3\n2,3\n"
    code, out, _ = run(capsys, "schreier", "canon", "--xi", "2", "--set", "1,2,3,4,5")
    assert code == 0 and out == "[1,2][3,4]|5\n"
    code, out, _ = run(capsys, "schreier", "check-restriction", "--xi", "w",
                       "--n", "2", "--max", "10")
    assert code == 0 and out == "true\n"


def test_family_commands(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    pool = tmp_path / "pool.txt"
    fam.write_text("-1:v,1:v;-3:v,3:v\n")
    pool.write_text("-1:v,1:v\n-3:v,3:v\n")
    code, out, _ = run(capsys, "family", "closure", "--op", "tree",
                       "--family", str(fam))
    assert code == 0
    assert out.splitlines() == ["", "-1:v,1:v", "-1:v,1:v;-3:v,3:v"]
    code, out, _ = run(capsys, "family", "closure", "--op", "hereditary",
                       "--family", str(fam), "--pool", str(pool))
    assert code == 0 and "-3:v,3:v" in out.splitlines()
    code, out, _ = run(capsys, "family", "cbindex", "--set-m", "2",
                       "--ground", "12", "--tau", "3")
    assert code == 0 and out == "3\n"


def test_family_cbindex_word_level(tmp_path, capsys):
    lines = []
    pool_words = []
    for g in (1, 2, 3):
        a, b = 2 * g, 2 * g - 1
        pool_words.append("-%d:v,-%d:v,%d:v,%d:v" % (a, b, b, a))
        pool_words.append("-%d:v,-%d:-1,%d:1,%d:v" % (a, b, b, a))
    pool = tmp_path / "pool.txt"
    pool.write_text("\n".join(pool_words) + "\n")
    fam = tmp_path / "family.txt"
    fam.write_text("\n".join([""] + pool_words) + "\n")
    code, out, _ = run(capsys, "family", "cbindex", "--family", str(fam),
                       "--pool", str(pool), "--tau", "3")
    assert code == 0 and out == "2\n"


def test_search_commands(capsys):
    code, out, err = run(capsys, "search", "hj", "--r", "1", "--seed", "1",
                         "--bounds", "1", "--n", "2", "--window", "2")
    assert code == 0
    assert out.startswith("witness: ")
    assert "time_ms:" in err
    code, out, _ = run(capsys, "search", "fs", "--xs", "1,10,100")
    assert code == 0 and out.split() == ["1", "10", "11", "100", "101", "110", "111"]
    code, out, _ = run(capsys, "search", "psi", "--word", "-1:-1,2:2")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "search", "xi", "--r", "1", "--seed", "1",
                       "--xi", "1", "--l", "1", "--n0", "2", "--window", "2")
    assert code == 0 and out.startswith("witness: ")


class CountingStdout:
    """Stands in for sys.stdout and keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_output_bytes_and_one_write_per_command(monkeypatch):
    powers = ",".join(str(2 ** k) for k in range(20))
    xi_argv = ("search", "xi", "--r", "2", "--seed", "7", "--xi", "w", "--l", "2",
               "--n0", "4", "--window", "3")
    cases = [
        (("search", "fs", "--xs", powers), "".join("%d\n" % v for v in range(1, 2 ** 20))),
        (("--json", "search", "fs", "--xs", "1,10,100"),
         '{"values": [1, 10, 11, 100, 101, 110, 111]}\n'),
        (("--json",) + xi_argv, '{"color": 1, "grid": 4, "nodes": 6, "vacuous": false, '
                                '"witness": "-1:v,2:v;-3:v,3:v"}\n'),
        (xi_argv, "witness: -1:v,2:v;-3:v,3:v\ncolor: 1\ngrid: 4\nnodes: 6\n"),
        (("--json", "schreier", "enum", "--xi", "1", "--n", "0"), '{"members": []}\n'),
        # the empty set is one empty line; no members is no output at all
        (("schreier", "enum", "--xi", "0", "--n", "3"), "\n"),
        (("schreier", "enum", "--xi", "1", "--n", "0"), ""),
    ]
    for argv, expected in cases:
        out = CountingStdout()
        monkeypatch.setattr("sys.stdout", out)
        assert main(list(argv)) == 0
        assert "".join(out.writes) == expected, argv
        assert len(out.writes) == (1 if expected else 0), argv


def test_unreadable_input_file_is_a_domain_error(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("-1:v,1:v\n")
    missing = str(tmp_path / "missing.txt")
    for argv in (("family", "closure", "--op", "tree", "--family", missing),
                 ("family", "closure", "--op", "tree", "--family", str(tmp_path)),
                 ("family", "closure", "--op", "hereditary", "--family", str(fam),
                  "--pool", missing),
                 ("search", "hj", "--r", "2", "--coloring", missing, "--bounds", "1",
                  "--n", "2", "--window", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno ") and err.count("\n") == 1


def test_search_with_coloring_file(tmp_path, capsys):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("seed:42:2\n")
    code, out, _ = run(capsys, "search", "hj", "--r", "2", "--coloring", str(coloring),
                       "--bounds", "2", "--n", "2", "--window", "3")
    assert code == 0 and out.startswith("witness: ")


def test_search_no_witness_report(capsys):
    code, out, _ = run(capsys, "search", "hj", "--r", "2", "--seed", "1",
                       "--bounds", "1,2", "--n", "6", "--window", "2")
    assert code == 0
    assert out.splitlines()[0] == "witness: none"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "rat", "encode", "0")
    assert code == 1 and "error:" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "word", "subst", "--p", "1", "--q", "0",
                     "--word", "-1:v,1:v")
    assert code == 1


def test_deep_ordinal_descent_is_a_domain_error(capsys):
    # A limit member with minimum n has at least n elements, so the parse
    # answers short sets at once however deep xi is.
    for argv, want in ((("member", "--xi", "w^(w^w)", "--set", "5,6"), "false\n"),
                       (("canon", "--xi", "w^(w^w)", "--set", "6,7,8"), "|6,7,8\n")):
        code, out, err = run(capsys, "schreier", *argv)
        assert (code, out, err) == (0, want, "")
    # Pins today's limit: enumeration recurses once per nested block.
    code, out, err = run(capsys, "schreier", "enum", "--xi", "w^(w^w)", "--n", "10")
    assert code == 1 and out == ""
    assert err == "error: ordinal descent exceeds the recursion limit\n"


def test_deep_ordinal_nesting_is_a_domain_error(capsys):
    deep = "w^(" * 400 + "1" + ")" * 400
    for argv in (("ordinal", "cmp", "--a", deep, "--b", "1"),
                 ("ordinal", "classify", "--xi", deep),
                 ("rat", "qxi", "--xi", deep, "--values", "1/2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: ordinal descent exceeds the recursion limit\n"


def test_search_rejects_empty_lengths(capsys):
    code, _, err = run(capsys, "search", "hj", "--r", "2", "--seed", "1", "--bounds", "2",
                       "--n", "0", "--window", "3")
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    code, _, err = run(capsys, "search", "xi", "--r", "2", "--seed", "1", "--xi", "2",
                       "--l", "0", "--n0", "2", "--window", "3")
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    # no nonempty slice has total 0, so such a search could find nothing
    code, out, err = run(capsys, "search", "xi", "--r", "2", "--seed", "1", "--xi", "w",
                         "--l", "1", "--n0", "0", "--window", "3")
    assert (code, out, err) == (1, "", "error: total length must be >= 1\n")


def test_zw_caps_env(capsys, monkeypatch):
    monkeypatch.setenv("ZW_CAPS", "25")
    code, out, _ = run(capsys, "schreier", "enum", "--xi", "1", "--n", "22")
    assert code == 0 and len(out.splitlines()) == 22
    monkeypatch.setenv("ZW_CAPS", "10")
    code, _, err = run(capsys, "schreier", "enum", "--xi", "1", "--n", "22")
    assert code == 1
    # only a positive integer is a cap, for enumeration and search alike
    for raw in ("0", "-3", "abc"):
        monkeypatch.setenv("ZW_CAPS", raw)
        for argv in (("schreier", "enum", "--xi", "1", "--n", "3"),
                     ("search", "hj", "--r", "2", "--seed", "7", "--bounds", "2",
                      "--n", "2", "--window", "4")):
            assert run(capsys, *argv) \
                == (1, "", "error: ZW_CAPS must be a positive integer: '%s'\n" % raw)


def test_readme_cli_examples(capsys):
    """Every `zwords ... # -> expected` line of the README holds: the
    command's stdout lines, joined with ' / ', are the expected text."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples = [line.partition("# ->") for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("zwords ") and "# ->" in line]
    assert len(examples) == 11
    for command, _, expected in examples:
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert (code, " / ".join(out.splitlines())) == (0, expected.strip()), command


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("-1:v,1:v\n"))
    code, out, _ = run(capsys, "family", "closure", "--op", "tree", "--family", "-")
    assert code == 0 and out.splitlines() == ["", "-1:v,1:v"]


def test_deterministic_output(capsys):
    first = run(capsys, "search", "hj", "--r", "2", "--seed", "9", "--bounds", "2",
                "--n", "2", "--window", "3")
    second = run(capsys, "search", "hj", "--r", "2", "--seed", "9", "--bounds", "2",
                 "--n", "2", "--window", "3")
    assert first[1] == second[1]


def test_grammar_round_trips_random():
    from test_ordinals import random_cnf
    from zwords.ordinals import parse_ordinal
    from zwords.schreier import parse_set
    from zwords.words import parse_word
    from zwords.rationals import parse_rational, format_rational
    from fractions import Fraction
    import test_words

    rng = random.Random(5150)
    for _ in range(1000):
        o = random_cnf(rng, depth=3)
        assert parse_ordinal(format_ordinal(o)) == o
        w = test_words.random_word(rng)
        assert parse_word(format_word(w)) == w
        s = tuple(sorted(rng.sample(range(1, 40), rng.randint(0, 6))))
        assert parse_set(format_set(s)) == s
        q = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        assert parse_rational(format_rational(q)) == q
