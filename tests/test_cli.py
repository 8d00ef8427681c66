import contextlib
import functools
import hashlib
import io
import json
import random
import re
import shlex
import time
from decimal import Decimal
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zwords import (FamilyError, OrdinalError, RationalCodecError, SchreierError,
                    SearchCapExceeded, SearchError, WordError, cli)
from zwords.cli import main
from zwords.ordinals import format_ordinal
from zwords.schreier import format_set
from zwords.words import format_word

from _oracles import build_parser, reference_main, reference_parse


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


def test_rat_decode_refuses_positions_below_the_codec_bound(capsys):
    for pos in (-10001, -1000000):
        start = time.perf_counter()
        assert run(capsys, "rat", "decode", "--word", "%d:-1" % pos) \
            == (1, "", "error: position %d is below -10000, the lowest a codec word "
                "reaches\n" % pos)
        assert time.perf_counter() - start < 0.5
    code, out, err = run(capsys, "rat", "decode", "--word", "-10000:-1")
    assert (code, err) == (0, "") and out == "1/%s\n" % Decimal(factorial(10001))


def test_rat_decode_refuses_positions_above_the_codec_bound(capsys):
    start = time.perf_counter()
    for pos in ("40001", "99999999999999999999"):
        assert run(capsys, "rat", "decode", "--word", "%s:1" % pos) \
            == (1, "", "error: position %s is above 40000, the highest a codec word "
                "reaches\n" % pos)
    assert time.perf_counter() - start < 0.5


def test_bad_rational_echo_is_bounded(capsys):
    from zwords.rationals import ECHO_LIMIT

    # an input up to the limit is quoted whole, as it always was
    for value in ("1/x", "1/0", "7/" + "x" * (ECHO_LIMIT - 2)):
        code, out, err = run(capsys, "rat", "encode", value)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad rational %r: " % value) and err.count("\n") == 1
    assert run(capsys, "rat", "encode", "1/x") \
        == (1, "", "error: bad rational '1/x': Invalid literal for Fraction: '1/x'\n")
    # a longer one by its first ECHO_LIMIT characters and its length; a
    # decimal of 35,660 digits is past Python's int-to-str limit, refused
    # whole with the codec's own reason, the same on every Python, and a
    # long bad literal keeps its reason short too
    for value, reason in (("0." + "7" * 35660, "Exceeds the limit (4300 digits) for integer "
                           "string conversion: value has 35660 digits\n"),
                          ("1/" + "x" * 50000, "Invalid literal for Fraction: '1/xxx")):
        for argv in (("rat", "encode", value), ("rat", "precedes", "--a", value, "--b", "1")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: bad rational %r... (%d characters): %s"
                                  % (value[:ECHO_LIMIT], len(value), reason))
            assert err.count("\n") == 1 and len(err) < 3 * ECHO_LIMIT
    # a plain a/b of that length is read, and the codec refuses it
    den = Decimal("7" * 35660)
    code, out, err = run(capsys, "rat", "encode", "1/%s" % den)
    assert (code, out) == (1, "")
    assert err == "error: denominator of %d bits too large\n" % int(den).bit_length()


def test_bad_set_ordinal_and_integer_list_echo_is_bounded(capsys):
    from zwords.ordinals import ECHO_LIMIT

    def quoted(text, show=repr):
        return "%s... (%d characters)" % (show(text[:ECHO_LIMIT]), len(text))

    # a set, an ordinal or an integer list past ECHO_LIMIT characters is
    # quoted by its first ECHO_LIMIT characters and its length, and so is
    # the set a refusal names; a long set text's reason is cut the same way
    bad = ",".join(map(str, range(1, 3000))) + ",x"
    falling = ",".join(map(str, range(3000, 0, -1)))
    named = "elements must be strictly increasing: " + quoted(repr(tuple(range(3000, 0, -1))), str)
    cases = [(("schreier", "member", "--xi", "w", "--set", bad),
              "bad set %s: invalid literal for int() with base 10: 'x'" % quoted(bad)),
             (("schreier", "member", "--xi", "w", "--set", falling),
              "bad set %s: %s" % (quoted(falling), quoted(named, str))),
             (("ordinal", "cmp", "--a", "w" * 10001, "--b", "1"),
              "trailing input at 1 in %s" % quoted("w" * 10001)),
             (("search", "fs", "--xs", bad),
              "bad --xs %s: expected integers separated by commas" % quoted(bad))]
    for argv, reason in cases:
        assert run(capsys, *argv) == (1, "", "error: %s\n" % reason), argv[:2]
        assert len(reason) < 3 * ECHO_LIMIT
    # a text of at most ECHO_LIMIT characters is quoted whole, as it always was
    text = ",".join(["7"] * (ECHO_LIMIT // 2)) + "x"
    assert len(text) == ECHO_LIMIT
    assert run(capsys, "search", "fs", "--xs", text) \
        == (1, "", "error: bad --xs %r: expected integers separated by commas\n" % text)
    assert run(capsys, "schreier", "member", "--xi", "w", "--set", text) \
        == (1, "", "error: bad set %r: invalid literal for int() with base 10: '7x'\n" % text)
    assert run(capsys, "ordinal", "cmp", "--a", "w^", "--b", "1") \
        == (1, "", "error: expected 'w' at 2 in 'w^'\n")


def test_bad_word_echo_is_bounded(capsys):
    from zwords.words import ECHO_LIMIT

    # a word text past ECHO_LIMIT characters is quoted in either refusal
    # by its first ECHO_LIMIT characters and its length, as a rational is,
    # and so is a long bad entry; 2,999 good entries and a bad last one
    # make one short error: line
    good = ",".join("%d:1" % p for p in range(1, 3000))
    long_entry = "y" * 5000
    cases = [(good + ",x", "bad entry 'x' in"),
             (good + ",1:1", "positions must be ascending in"),
             (good + "," + long_entry, "bad entry %r... (5000 characters) in"
              % long_entry[:ECHO_LIMIT])]
    for text, reason in cases:
        for command in (("rat", "decode"), ("word", "check")):
            code, out, err = run(capsys, *command, "--word", text)
            assert (code, out) == (1, "")
            assert err == "error: %s %r... (%d characters)\n" % (reason, text[:ECHO_LIMIT],
                                                                   len(text))
            assert len(err) < 3 * ECHO_LIMIT
    # a text of at most ECHO_LIMIT characters, and its bad entry, are
    # quoted whole, as they always were
    for size in (ECHO_LIMIT, ECHO_LIMIT + 1):
        text = "1:1," + "x" * (size - 4)
        head = "error: bad entry %r in " % text[4:]
        quoted = repr(text) if size <= ECHO_LIMIT else "%r... (%d characters)" % (
            text[:ECHO_LIMIT], size)
        assert run(capsys, "rat", "decode", "--word", text) == (1, "", head + quoted + "\n")


def _entries(positions, letter="v"):
    return ",".join("%d:%s" % (p, letter) for p in positions)


def test_every_refusal_bounds_its_echo(tmp_path, capsys, monkeypatch):
    import ast
    import errno
    import os

    from zwords.ordinals import ECHO_LIMIT

    def quoted(text, show=repr):
        if len(text) <= ECHO_LIMIT:
            return show(text)
        return "%s... (%d characters)" % (show(text[:ECHO_LIMIT]), len(text))

    def refusal(kind, value):
        """(argv, the environment, the error line) of a refusal that quotes
        value, the outside text of its kind."""
        pool, coloring = tmp_path / "pool.txt", tmp_path / "coloring.txt"
        pool.write_text("-1:v,1:v\n")
        hj = ("search", "hj", "--r", "2", "--coloring", str(coloring), "--bounds", "1",
              "--n", "2", "--window", "2")
        if kind == "family path":
            code = errno.ENOENT if len(value) <= ECHO_LIMIT else errno.ENAMETOOLONG
            return (("family", "closure", "--op", "tree", "--family", value), {},
                    "[Errno %d] %s: %s" % (code, os.strerror(code), quoted(value)))
        if kind == "increasing":
            return (("word", "ev", "--tuple", value + ";" + value), {},
                    "tuple not increasing: %s then %s" % (quoted(value, str), quoted(value, str)))
        if kind == "pool word":
            family = tmp_path / "family.txt"
            family.write_text(value + "\n")
            return (("family", "closure", "--op", "hereditary", "--family", str(family),
                     "--pool", str(pool)), {}, "pool is missing the word %s" % quoted(value, str))
        if kind == "domain":
            word = _entries(ast.literal_eval(value))
            return (("word", "concat", "--a", word, "--b", "-1:v,1:v"), {},
                    "overlapping domains %s and (-1, 1)" % quoted(value, str))
        if kind == "core":
            return (("word", "ev", "--tuple", value), {},
                    "%s is outside the core class" % quoted(value, str))
        if kind == "profile":
            return (("word", "check", "--word", "-1:v,1:v", "--profile", value), {},
                    "unknown profile %s" % quoted(value))
        if kind == "profile number":
            return (("word", "check", "--word", "-1:v,1:v", "--profile", value), {},
                    "bad number in profile %s" % quoted(value))
        if kind == "denominator":
            return (("rat", "precedes", "--a", "1/" + value, "--b", "1"), {},
                    "denominator %s too large" % quoted(value, str))
        if kind == "successor":
            return (("ordinal", "fund", "--lambda", value, "--n", "2"), {},
                    "fundamental sequence undefined for %s" % quoted(value, str))
        if kind == "coloring line":
            coloring.write_text(value + "\n")
            return hj, {}, "bad coloring line 1 %s: expected text<TAB>colour" % quoted(value)
        if kind == "coloring key":
            coloring.write_text(value + "\t7\n")
            return hj, {}, "color 7 out of range for %s" % quoted(value)
        assert kind == "ZW_CAPS"
        return (("schreier", "enum", "--xi", "1", "--n", "3"), {"ZW_CAPS": value},
                "ZW_CAPS must be a positive integer: %s" % quoted(value))

    # each refusal of a long value is one error: line under 3 * ECHO_LIMIT
    # bytes: a 55,600-character path, a 4,000-entry variable word, a
    # 6,000-entry one, a 4,000-entry domain, a 3,000-entry one-sided
    # constant word, a 5,000-character profile, one with a bad number, a
    # 3,002-digit denominator, a 3,005-character successor ordinal, and a
    # long coloring line, coloring key and ZW_CAPS
    var = _entries([*range(-2000, 0), *range(1, 2001)])
    long_values = {
        "family path": str(tmp_path / ("f" * 55600)),
        "increasing": var,
        "pool word": _entries([*range(-3000, 0), *range(1, 3001)]),
        "domain": repr((-1, 1, *range(2, 4000))),
        "core": _entries(range(1, 3001), "1"),
        "profile": "p" * 5000,
        "profile number": "abs+" + "x" * 4996,
        "denominator": "10007" + "0" * 2997,
        "successor": "w*1%s+1" % ("0" * 3000),
        "coloring line": "x" * 5000,
        "coloring key": var,
        "ZW_CAPS": "z" * 5000}
    # a value of ECHO_LIMIT characters is quoted whole
    path = str(tmp_path) + "/"
    short_values = {
        "family path": path + "f" * (ECHO_LIMIT - len(path)),
        "increasing": "-1:v,1%s:v" % ("0" * 152),
        "pool word": "-1:v,1%s:v" % ("0" * 152),
        "domain": "(-1, 1, 1%s)" % ("0" * 150),
        "core": "1:1,1%s:1" % ("0" * 153),
        "profile": "p" * ECHO_LIMIT,
        "profile number": "abs+" + "x" * (ECHO_LIMIT - 4),
        "denominator": "10007" + "0" * 155,
        "successor": "w*1%s+1" % ("0" * 155),
        "coloring line": "x" * ECHO_LIMIT,
        "coloring key": "k" * ECHO_LIMIT,
        "ZW_CAPS": "z" * ECHO_LIMIT}
    for values in (long_values, short_values):
        for kind, value in values.items():
            argv, env, reason = refusal(kind, value)
            with monkeypatch.context() as m:
                for name, setting in env.items():
                    m.setenv(name, setting)
                code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", "error: %s\n" % reason), kind
            if values is long_values:
                assert len(value) > ECHO_LIMIT and len(err.encode()) < 3 * ECHO_LIMIT, kind
            else:
                assert len(value) == ECHO_LIMIT, kind
    # a short profile with a bad number is quoted whole too
    for value in ("table:1=x", "abs+x", "const:", "table:1"):
        argv, _, reason = refusal("profile number", value)
        assert run(capsys, *argv) == (1, "", "error: %s\n" % reason), value


def test_family_and_pool_cannot_both_read_stdin(capsys, monkeypatch):
    import sys

    # both flags would read the one stdin, and the second would read it
    # empty; the pair is refused before either is read
    monkeypatch.setattr("sys.stdin", io.StringIO("-1:v,1:v\n"))
    for argv in (("family", "closure", "--op", "hereditary"), ("family", "cbindex", "--tau", "2")):
        assert run(capsys, *argv, "--family", "-", "--pool", "-") \
            == (1, "", "error: --family - and --pool - both read stdin; give one a file\n")
    assert sys.stdin.read() == "-1:v,1:v\n"


def test_rat_values_past_the_int_to_str_limit(capsys):
    # 1/1701! has 4,760 digits and 1/10001! 35,664, past Python's limit
    # of 4,300 on int-str conversion; Decimal writes them independently
    for word, den in (("-1700:-1", factorial(1701)), ("-10000:-1", factorial(10001))):
        text = "1/%s" % Decimal(den)
        assert run(capsys, "rat", "decode", "--word", word) == (0, text + "\n", "")
        code, out, _ = run(capsys, "--json", "rat", "decode", "--word", word)
        assert code == 0 and json.loads(out) == {"value": text}
        for value in (text, "  %s\n" % text, "+" + text):
            assert run(capsys, "rat", "encode", value) == (0, word + "\n", "")
        code, out, _ = run(capsys, "rat", "encode", "-" + text)
        assert code == 0 and run(capsys, "rat", "decode", "--word", out.strip()) \
            == (0, "-%s\n" % text, "")
    # a refusal names a short value as it always did, and a long one by
    # its first ECHO_LIMIT characters and its length
    from zwords.rationals import ECHO_LIMIT
    text = "1/%s" % Decimal(factorial(1701))
    quoted = "%s... (%d characters)" % (text[:ECHO_LIMIT], len(text))
    for value, name in (("1", "1"), (text, quoted)):
        assert run(capsys, "rat", "precedes", "--a", value, "--b", "1") \
            == (1, "", "error: %s is outside the two-sided range\n" % name)
    for value, name in (("1/6", "1/6"), (text, quoted)):
        assert run(capsys, "rat", "qxi", "--xi", "w", "--values", value) \
            == (1, "", "error: %s has no positive digits\n" % name)
    # a denominator over the cap keeps the refusal by bit length
    den = 10007 * factorial(10001)
    assert run(capsys, "rat", "encode", "1/%s" % Decimal(den)) \
        == (1, "", "error: denominator of %d bits too large\n" % den.bit_length())


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


def test_family_cbindex_set_family_answers_at_once(capsys, monkeypatch):
    # the index is M + 1 by the sizes alone: no set is built, so there is
    # no cap for ZW_CAPS to move
    start = time.perf_counter()
    assert run(capsys, "family", "cbindex", "--set-m", "2", "--ground", "100000",
               "--tau", "3") == (0, "3\n", "")
    assert time.perf_counter() - start < 1
    monkeypatch.setenv("ZW_CAPS", "1")
    assert run(capsys, "family", "cbindex", "--set-m", "2", "--ground", "12",
               "--tau", "3") == (0, "3\n", "")
    assert run(capsys, "family", "cbindex", "--set-m", "3", "--ground", "5",
               "--tau", "3") == (1, "", "error: ground set {1..5} is too small to certify "
                                        "m=3, tau=3\n")


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


# Every subcommand with its argument lists: (argv, exit code, text stdout,
# --json stdout, stderr with the time_ms value masked).  A refusal writes the
# same stderr and no stdout in both modes.  "-" reads the family
# -1:v,1:v;-3:v,3:v from stdin, and {tmp} is a folder holding it as
# family.txt, its two words as pool.txt, and two malformed coloring files,
# a seed line with a field too many as seed.txt and a table line with no
# tab as table.txt.
CLI_PINS = {
    ("word", "check"): [
        (("--word", "-1:v,1:v"), 0, "class=variable core=true length=2\n",
         '{"class": "variable", "core": true, "length": 2}\n', ""),
        (("--word", "1:1", "--profile", "const:2"), 0, "class=constant core=false length=1\n",
         '{"class": "constant", "core": false, "length": 1}\n', ""),
        (("--word", "-1:v,1:3"), 1, "", "", "error: letter 3 out of range 1..1 at 1\n"),
        # an empty flag value is read as given, not as the flag left out
        (("--word", "-1:v,1:v", "--profile", ""), 1, "", "", "error: unknown profile ''\n")],
    ("word", "concat"): [
        (("--a", "-1:v,1:v", "--b", "-3:v,3:v"), 0, "-3:v,-1:v,1:v,3:v\n",
         '{"word": "-3:v,-1:v,1:v,3:v"}\n', ""),
        (("--a", "-1:v,1:v", "--b", "1:1"), 1, "", "",
         "error: overlapping domains (-1, 1) and (1,)\n")],
    ("word", "subst"): [
        (("--word", "-1:v,2:v", "--p", "1", "--q", "2"), 0, "-1:-1,2:1\n",
         '{"word": "-1:-1,2:1"}\n', ""),
        (("--word", "-1:v,1:v", "--p", "1", "--q", "0"), 1, "", "",
         "error: substitution pair must be (0,0) or positive: (1,0)\n")],
    ("word", "merge"): [
        (("--a", "-1:v,1:v", "--b", "1:1"), 0, "-1:v,1:v\n", '{"word": "-1:v,1:v"}\n', ""),
        (("--a", "-1:v,1:v", "--b", "-1:-2"), 1, "", "",
         "error: letter -2 out of range -1..-1 at -1\n")],
    ("word", "ev"): [
        (("--tuple", "-1:v,1:v"), 0, "E\t-1:-1,1:1\nV\t-1:v,1:v\n",
         '{"constants": ["-1:-1,1:1"], "variables": ["-1:v,1:v"]}\n', ""),
        (("--tuple", "-1:v,1:v", "--indices", "1,2"), 1, "", "",
         "error: need one grid index per member\n"),
        (("--tuple", "-1:v,1:v;-2:v,2:v", "--indices", ""), 1, "", "",
         "error: bad --indices '': expected integers separated by commas\n")],
    ("schreier", "member"): [
        (("--xi", "w", "--set", "3,5,9"), 0, "true\n", '{"member": true}\n', ""),
        (("--xi", "w", "--set", "3,2"), 1, "", "",
         "error: bad set '3,2': elements must be strictly increasing: (3, 2)\n")],
    ("schreier", "enum"): [
        (("--xi", "2", "--n", "3"), 0, "1,2\n1,3\n2,3\n", '{"members": ["1,2", "1,3", "2,3"]}\n',
         ""),
        (("--xi", "2", "--n", "-1"), 0, "", '{"members": []}\n', ""),
        (("--xi", "q", "--n", "3"), 1, "", "", "error: expected 'w' at 0 in 'q'\n")],
    ("schreier", "canon"): [
        (("--xi", "2", "--set", "1,2,3,4,5"), 0, "[1,2][3,4]|5\n",
         '{"blocks": ["1,2", "3,4"], "remainder": "5"}\n', ""),
        (("--xi", "2", "--set", "1,2,3,4"), 0, "[1,2][3,4]\n",
         '{"blocks": ["1,2", "3,4"], "remainder": null}\n', ""),
        (("--xi", "2", "--set", "1,1"), 1, "", "",
         "error: bad set '1,1': elements must be strictly increasing: (1, 1)\n")],
    ("schreier", "check-restriction"): [
        (("--xi", "w", "--n", "2", "--max", "10"), 0, "true\n", '{"holds": true}\n', ""),
        (("--xi", "q", "--n", "2", "--max", "10"), 1, "", "",
         "error: expected 'w' at 0 in 'q'\n")],
    ("ordinal", "cmp"): [
        (("--a", "w^2", "--b", "w*7+3"), 0, "greater\n", '{"order": "greater"}\n', ""),
        (("--a", "w^", "--b", "1"), 1, "", "", "error: expected 'w' at 2 in 'w^'\n")],
    ("ordinal", "fund"): [
        (("--lambda", "w^2", "--n", "3"), 0, "w*3+1\n", '{"ordinal": "w*3+1"}\n', ""),
        (("--lambda", "w+1", "--n", "3"), 1, "", "",
         "error: fundamental sequence undefined for w+1\n"),
        (("--lambda", "w"), 2, "", "", "usage: zwords ordinal fund [-h] --lambda LAMBDA --n N\n"
         "zwords ordinal fund: error: the following arguments are required: --n\n")],
    ("ordinal", "pred"): [
        (("--xi", "w+1", "--n", "5"), 0, "w\n", '{"ordinal": "w"}\n', ""),
        (("--xi", "w", "--n", "0"), 1, "", "", "error: index must be >= 1\n")],
    ("ordinal", "classify"): [
        (("--xi", "w+1"), 0, "successor\n", '{"kind": "successor"}\n', ""),
        (("--xi", "("), 1, "", "", "error: expected 'w' at 0 in '('\n")],
    ("family", "closure"): [
        (("--op", "tree", "--family", "-"), 0, "\n-1:v,1:v\n-1:v,1:v;-3:v,3:v\n",
         '{"members": ["", "-1:v,1:v", "-1:v,1:v;-3:v,3:v"]}\n', ""),
        (("--op", "hereditary", "--family", "{tmp}/family.txt", "--pool", "{tmp}/pool.txt"), 0,
         "\n-3:v,3:v\n-1:v,1:v\n-1:v,1:v;-3:v,3:v\n",
         '{"members": ["", "-3:v,3:v", "-1:v,1:v", "-1:v,1:v;-3:v,3:v"]}\n', ""),
        (("--op", "largest", "--family", "{tmp}/family.txt", "--pool", "{tmp}/pool.txt"), 0,
         "\n", '{"members": [""]}\n', ""),
        (("--op", "hereditary", "--family", "-"), 1, "", "",
         "error: hereditary closure needs --pool\n"),
        (("--op", "largest", "--family", "-"), 1, "", "",
         "error: largest hereditary subfamily needs --pool\n"),
        (("--op", "tree", "--family", "-", "--pool", ""), 1, "", "",
         "error: [Errno 2] No such file or directory: ''\n")],
    ("family", "cbindex"): [
        (("--set-m", "2", "--ground", "12", "--tau", "3"), 0, "3\n", '{"index": 3}\n', ""),
        (("--tau", "3"), 1, "", "", "error: word-level index needs --family and --pool\n"),
        (("--family", "{tmp}/family.txt", "--pool", "{tmp}/pool.txt", "--tau", "3"), 1, "", "",
         "error: index needs a hereditary family\n")],
    ("rat", "encode"): [
        (("2",), 0, "2:2,3:1\n", '{"word": "2:2,3:1"}\n', ""),
        (("0",), 1, "", "", "error: 0 is outside the codec range\n")],
    ("rat", "decode"): [
        (("--word", "2:2,3:1"), 0, "2\n", '{"value": "2"}\n', ""),
        (("--word", "-1:v,1:v"), 1, "", "",
         "error: cannot decode a variable word: variable at -1\n")],
    ("rat", "precedes"): [
        (("--a", "1/2", "--b", "143/24"), 0, "true\n", '{"precedes": true}\n', ""),
        (("--a", "1", "--b", "2"), 1, "", "", "error: 1 is outside the two-sided range\n")],
    ("rat", "qxi"): [
        (("--xi", "2", "--values", "1/2,143/24"), 0, "true\n", '{"member": true}\n', ""),
        (("--xi", "w", "--values", "1/6"), 1, "", "", "error: 1/6 has no positive digits\n")],
    ("search", "hj"): [
        (("--r", "1", "--seed", "1", "--bounds", "1", "--n", "2", "--window", "2"), 0,
         "witness: -1:v,1:v\ncolor: 0\ngrid: 1\nnodes: 1\n",
         '{"color": 0, "grid": 1, "nodes": 1, "vacuous": false, "witness": "-1:v,1:v"}\n',
         "time_ms: *\n"),
        (("--r", "2", "--seed", "1", "--bounds", "1,2", "--n", "6", "--window", "2"), 0,
         "witness: none\ncandidates: 0\nnodes: 0\n",
         '{"candidates": 0, "nodes": 0, "witness": null}\n', "time_ms: *\n"),
        (("--r", "2", "--seed", "1", "--bounds", "2", "--n", "0", "--window", "3"), 1, "", "",
         "error: total length must be >= 1\n"),
        (("--r", "2", "--seed", "1", "--bounds", "1,x", "--n", "4", "--window", "3"), 1, "", "",
         "error: bad --bounds '1,x': expected integers separated by commas\n"),
        (("--r", "2", "--coloring", "{tmp}/seed.txt", "--bounds", "1", "--n", "2", "--window", "2"),
         1, "", "", "error: bad coloring line 1 'seed:1:2:3': expected seed:<u64>:<r>\n"),
        (("--r", "2", "--coloring", "{tmp}/table.txt", "--bounds", "1", "--n", "2", "--window",
          "2"), 1, "", "", "error: bad coloring line 1 'foo': expected text<TAB>colour\n"),
        (("--r", "2", "--seed", "1", "--bounds", "1", "--n", "2", "--window", "2", "--coloring",
          ""), 1, "", "", "error: [Errno 2] No such file or directory: ''\n")],
    ("search", "xi"): [
        (("--r", "2", "--seed", "7", "--xi", "w", "--l", "2", "--n0", "4", "--window", "3"), 0,
         "witness: -1:v,2:v;-3:v,3:v\ncolor: 1\ngrid: 4\nnodes: 6\n",
         '{"color": 1, "grid": 4, "nodes": 6, "vacuous": false, '
         '"witness": "-1:v,2:v;-3:v,3:v"}\n', "time_ms: *\n"),
        (("--r", "2", "--seed", "1", "--xi", "w", "--l", "1", "--n0", "0", "--window", "3"), 1,
         "", "", "error: total length must be >= 1\n")],
    ("search", "fs"): [
        (("--xs", "1,10,100"), 0, "1\n10\n11\n100\n101\n110\n111\n",
         '{"values": [1, 10, 11, 100, 101, 110, 111]}\n', ""),
        (("--xs", "1,2", "--zs", "10,20"), 0, "11\n22\n33\n", '{"values": [11, 22, 33]}\n', ""),
        (("--xs", "1,2", "--zs", "10"), 1, "", "", "error: sequences must have equal length\n"),
        (("--xs", "1,2", "--zs", ""), 1, "", "",
         "error: bad --zs '': expected integers separated by commas\n"),
        (("--xs", "1,,2"), 1, "", "",
         "error: bad --xs '1,,2': expected integers separated by commas\n")],
    ("search", "psi"): [
        (("--word", "-1:-1,2:2"), 0, "5\n", '{"value": 5}\n', ""),
        (("--word", "-1:v,2:2", "--semigroup", "strings"), 0, "y(0,-1)y(2,2)\n",
         '{"value": "y(0,-1)y(2,2)"}\n', ""),
        (("--word", "0:1"), 1, "", "", "error: position 0 is not allowed\n")],
}


def test_every_subcommand_pinned_in_text_and_json(tmp_path, monkeypatch):
    import io
    import re

    def choices(*argv):
        # the {a,b,...} of a help's usage line
        out = CountingStdout()
        monkeypatch.setattr("sys.stdout", out)
        assert main([*argv, "-h"]) == 0
        return re.search(r"\{([^}]*)\}", "".join(out.writes)).group(1).split(",")

    subcommands = {(group, name) for group in choices() for name in choices(group)}
    assert set(cli.COMMANDS) == subcommands == set(CLI_PINS) and len(subcommands) == 23
    (tmp_path / "family.txt").write_text("-1:v,1:v;-3:v,3:v\n")
    (tmp_path / "pool.txt").write_text("-1:v,1:v\n-3:v,3:v\n")
    (tmp_path / "seed.txt").write_text("seed:1:2:3\n")
    (tmp_path / "table.txt").write_text("foo\n")
    for command, cases in CLI_PINS.items():
        assert {case[1] for case in cases} >= {0, 1}, command
        for argv, code, text, as_json, err in cases:
            argv = command + tuple(a.replace("{tmp}", str(tmp_path)) for a in argv)
            for mode, want in (((), text), (("--json",), as_json)):
                out, errors = CountingStdout(), CountingStdout()
                monkeypatch.setattr("sys.stdout", out)
                monkeypatch.setattr("sys.stderr", errors)
                monkeypatch.setattr("sys.stdin", io.StringIO("-1:v,1:v;-3:v,3:v\n"))
                got = main(list(mode + argv))
                masked = re.sub(r"time_ms: [0-9.]+", "time_ms: *", "".join(errors.writes))
                assert (got, "".join(out.writes), masked) == (code, want, err), mode + argv
                assert len(out.writes) == (1 if want else 0), mode + argv


def _pinned_argvs(tmp_path):
    """Every CLI_PINS argv by its command, with {tmp} holding the family,
    pool and malformed coloring files."""
    (tmp_path / "family.txt").write_text("-1:v,1:v;-3:v,3:v\n")
    (tmp_path / "pool.txt").write_text("-1:v,1:v\n-3:v,3:v\n")
    (tmp_path / "seed.txt").write_text("seed:1:2:3\n")
    (tmp_path / "table.txt").write_text("foo\n")
    return {command: [command + tuple(a.replace("{tmp}", str(tmp_path)) for a in case[0])
                      for case in cases] for command, cases in CLI_PINS.items()}


def _answer(entry, argv, monkeypatch):
    """(exit code, stdout, stderr with the time_ms value masked) of one
    call, stdin holding the family -1:v,1:v;-3:v,3:v."""
    import io
    import re

    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    monkeypatch.setattr("sys.stdin", io.StringIO("-1:v,1:v;-3:v,3:v\n"))
    code = entry(list(argv))
    return code, out.getvalue(), re.sub(r"time_ms: [0-9.]+", "time_ms: *", err.getvalue())


TOP_USAGE = "usage: zwords [-h] [--json] {word,schreier,ordinal,family,rat,search} ...\n"
TOP_HELP = TOP_USAGE + """
  --json    emit JSON instead of plain text
  word      {check,concat,subst,merge,ev} ...
  schreier  {member,enum,canon,check-restriction} ...
  ordinal   {cmp,fund,pred,classify} ...
  family    {closure,cbindex} ...
  rat       {encode,decode,precedes,qxi} ...
  search    {hj,xi,fs,psi} ...
"""
RAT_USAGE = "usage: zwords rat [-h] {encode,decode,precedes,qxi} ...\n"
RAT_HELP = RAT_USAGE + """
  encode    value
  decode    --word WORD
  precedes  --a A --b B
  qxi       --xi XI --values VALUES
"""
DECODE_USAGE = "usage: zwords rat decode [-h] --word WORD\n"
DECODE_HELP = DECODE_USAGE + "\n  --word WORD  required\n"
FUND_HELP = """usage: zwords ordinal fund [-h] --lambda LAMBDA --n N

  --lambda LAMBDA  required
  --n N            required, an integer
"""
GROUPS = "(choose from word, schreier, ordinal, family, rat, search)"


def _refused(usage, reason):
    """A usage error: the usage line, then one error: line under the prog
    that the usage line names."""
    return 2, "", "%s%s: error: %s\n" % (usage, usage[7:usage.index(" [-h]")], reason)


# Command lines that run no command, and the few that read as the rest
# do, with (exit code, stdout, stderr): help at each level, usage errors,
# and --json anywhere but first.  Abbreviations and repeated flags are
# usage errors, and a --flag=-- reads "--" as the value, so the command
# refuses it, on every Python.
MALFORMED_ARGV = [
    (("-h",), 0, TOP_HELP, ""), (("--help",), 0, TOP_HELP, ""), (("rat", "-h"), 0, RAT_HELP, ""),
    (("rat", "decode", "-h"), 0, DECODE_HELP, ""), (("ordinal", "fund", "-h"), 0, FUND_HELP, ""),
    (("--json", "rat", "decode", "--help"), 0, DECODE_HELP, ""),
    ((), *_refused(TOP_USAGE, "the following arguments are required: command")),
    (("--json",), *_refused(TOP_USAGE, "the following arguments are required: command")),
    (("rat",), *_refused(RAT_USAGE, "the following arguments are required: subcommand")),
    (("nonsense",),
     *_refused(TOP_USAGE, "argument command: invalid choice: 'nonsense' " + GROUPS)),
    (("rat", "nonsense"), *_refused(RAT_USAGE, "argument subcommand: invalid choice: 'nonsense' "
                                               "(choose from encode, decode, precedes, qxi)")),
    (("rat", "decode"), *_refused(DECODE_USAGE, "the following arguments are required: --word")),
    (("--js", "rat", "decode", "--word", "1:1"),
     *_refused(TOP_USAGE, "argument command: invalid choice: '--js' " + GROUPS)),
    (("--jso", "rat", "decode", "--word", "1:1"),
     *_refused(TOP_USAGE, "argument command: invalid choice: '--jso' " + GROUPS)),
    (("--json", "--json", "rat", "decode", "--word", "1:1"),
     *_refused(TOP_USAGE, "argument command: invalid choice: '--json' " + GROUPS)),
    (("rat", "--json", "decode", "--word", "1:1"),
     *_refused(RAT_USAGE, "argument subcommand: invalid choice: '--json' "
                          "(choose from encode, decode, precedes, qxi)")),
    (("rat", "decode", "--json", "--word", "1:1"),
     *_refused(DECODE_USAGE, "unrecognized arguments: --json")),
    (("rat", "decode", "--word", "1:1", "--json"),
     *_refused(DECODE_USAGE, "unrecognized arguments: --json")),
    (("rat", "decode", "--word", "1:1", "extra"),
     *_refused(DECODE_USAGE, "unrecognized arguments: extra")),
    (("rat", "encode", "1", "-3/7"),
     *_refused("usage: zwords rat encode [-h] value\n", "unrecognized arguments: -3/7")),
    (("rat", "encode"),
     *_refused("usage: zwords rat encode [-h] value\n",
               "the following arguments are required: value")),
    (("rat", "encode", "-3/7"), 0, "-6:-3,-5:-3,-4:-4,-3:-3,-2:-1,-1:-1\n", ""),
    (("rat", "decode", "--word", "--"),
     *_refused(DECODE_USAGE, "argument --word: expected one argument")),
    (("rat", "decode", "--word=1:1"), 0, "1\n", ""),
    (("rat", "decode", "--wor", "1:1"), *_refused(DECODE_USAGE, "unrecognized arguments: --wor")),
    (("rat", "decode", "--word", "1:1", "--word", "2:2,3:1"),
     *_refused(DECODE_USAGE, "argument --word: given more than once")),
    (("rat", "decode", "--word", "1:1", "--", "x"),
     *_refused(DECODE_USAGE, "unrecognized arguments: x")),
    (("rat", "decode", "--word", "1:1", "--"),
     *_refused(DECODE_USAGE, "unrecognized arguments: --")),
    (("--", "rat", "decode", "--word", "1:1"),
     *_refused(TOP_USAGE, "argument command: invalid choice: '--' " + GROUPS)),
    (("schreier", "enum", "--xi", "2", "--n", "x"),
     *_refused("usage: zwords schreier enum [-h] --xi XI --n N\n",
               "argument --n: invalid int value: 'x'")),
    (("search", "psi", "--word", "1:1", "--semigroup", "bad"),
     *_refused("usage: zwords search psi [-h] --word WORD [--semigroup {int-linear,strings}] "
               "[--profile PROFILE]\n",
               "argument --semigroup: invalid choice: 'bad' (choose from int-linear, strings)")),
    (("family", "closure", "--op", "bad", "--family", "-"),
     *_refused("usage: zwords family closure [-h] --op {tree,hereditary,largest} --family FAMILY "
               "[--pool POOL] [--profile PROFILE]\n",
               "argument --op: invalid choice: 'bad' (choose from tree, hereditary, largest)")),
    # arguments are checked in the order of the usage line
    (("ordinal", "fund", "--n", "x"),
     *_refused("usage: zwords ordinal fund [-h] --lambda LAMBDA --n N\n",
               "the following arguments are required: --lambda")),
    (("ordinal", "fund", "--n", "x", "--lambda", "w"),
     *_refused("usage: zwords ordinal fund [-h] --lambda LAMBDA --n N\n",
               "argument --n: invalid int value: 'x'")),
    (("search", "fs"), *_refused("usage: zwords search fs [-h] --xs XS [--zs ZS]\n",
                                 "the following arguments are required: --xs")),
    (("schreier", "member"), *_refused("usage: zwords schreier member [-h] --xi XI --set SET\n",
                                       "the following arguments are required: --xi, --set")),
    (("word", "check", "--wor", "-1:v,1:v"),
     *_refused("usage: zwords word check [-h] --word WORD [--profile PROFILE]\n",
               "unrecognized arguments: --wor")),
    (("schreier", "member", "--xi", "w", "--set", "2,3", "--xi", "w"),
     *_refused("usage: zwords schreier member [-h] --xi XI --set SET\n",
               "argument --xi: given more than once")),
    (("rat", "decode", "-x"), *_refused(DECODE_USAGE, "unrecognized arguments: -x")),
    (("rat", "decode", "--word", "1:1", "-h"), 0, DECODE_HELP, ""),
    # --flag=-- gives the flag the value "--", which the command refuses
    (("rat", "decode", "--word=--"), 1, "", "error: bad entry '--' in '--'\n"),
    (("word", "check", "--word=--"), 1, "", "error: bad entry '--' in '--'\n"),
    (("schreier", "member", "--xi=--", "--set", "1"), 1, "", "error: expected 'w' at 0 in '--'\n"),
]


def test_main_matches_the_whole_tree_parse(tmp_path, monkeypatch):
    # every pinned command, usage error included, answers as the reference
    # parser tree does
    pinned = [mode + argv for argvs in _pinned_argvs(tmp_path).values() for argv in argvs
              for mode in ((), ("--json",))]
    codes = set()
    for argv in pinned:
        got = _answer(main, argv, monkeypatch)
        assert got == _answer(reference_main, argv, monkeypatch), argv
        codes.add(got[0])
    assert codes == {0, 1, 2}


def test_help_and_usage_errors_answer_their_pinned_bytes(monkeypatch):
    for argv, code, out, err in MALFORMED_ARGV:
        assert _answer(main, argv, monkeypatch) == (code, out, err), argv
    assert {case[1] for case in MALFORMED_ARGV} == {0, 1, 2}


def test_no_command_help_or_usage_error_imports_argparse(tmp_path):
    # pytest imports argparse itself, so a fresh process runs every pinned
    # command, every malformed command line and help at each level
    argvs = [mode + argv for argvs in _pinned_argvs(tmp_path).values() for argv in argvs
             for mode in ((), ("--json",))]
    argvs += [case[0] for case in MALFORMED_ARGV]
    argvs += [("-h",), ("search", "--help"), ("family", "cbindex", "-h")]
    probe = ("import contextlib, io, sys\n"
             "from zwords.cli import main\n"
             "codes = set()\n"
             "for argv in %r:\n"
             "    sys.stdin = io.StringIO('-1:v,1:v;-3:v,3:v\\n')\n"
             "    with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "        codes.add(main(list(argv)))\n"
             "print(sorted(codes), 'argparse' in sys.modules)\n" % (argvs,))
    assert _fresh(probe) == "[0, 1, 2] False\n"


# values a row's argument reads as given, by its keywords; strings
# include dash values, "-" and the empty string
_STRINGS = ("1:1", "-1:v,1:v", "-3/7", "-.5", ".5", "2", "w", "-", "", "a=b", "x y")
# tokens that are never a plain value, or never one of a row's flags
_STRAYS = ("extra", "-x", "-h", "--help", "--", "--json", "-3", "--bogus", "--bogus=1", "-", "")


def _good(keywords):
    if keywords.get("type") is int:
        return st.integers(-3, 30).map(str) | st.sampled_from((" 7", "+3", "1_0"))
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    return st.sampled_from(_STRINGS)


def _bad(keywords):
    if keywords.get("type") is int:
        return st.sampled_from(("x", "1.5", "", "-", "1e3", "-x"))
    if "choices" in keywords:
        return st.sampled_from(("bad", "", "-x"))
    return st.sampled_from(("--", "-x", "-h", "--word"))


def _tokens(flag, form, value):
    """A piece of a command line: a flag and its value in one of the
    forms, a positional value bare or after "--", or a stray token."""
    return {"split": [flag, value], "eq": ["%s=%s" % (flag, value)], "alone": [flag],
            "bare": [value], "dashes": ["--", value], "stray": [value]}[form]


@st.composite
def _command_lines(draw):
    """(command, argv after the command, clean): the row's required
    arguments and some of the others in any order, each in either form,
    and, unless clean, faults: help and stray tokens, abbreviated,
    repeated, dropped and valueless flags, and bad ints, choices and
    values."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    arguments = cli.COMMANDS[command][1]
    names = draw(st.permutations([name for name, keywords in arguments.items()
                                  if keywords.get("required", not name.startswith("-"))
                                  or draw(st.booleans())]))
    forms = {True: ("split", "eq"), False: ("bare", "dashes")}
    pieces = [[name, name, draw(st.sampled_from(forms[name.startswith("-")])),
               draw(_good(arguments[name]))] for name in names]
    faults = draw(st.lists(st.sampled_from(("stray", "trailing", "abbreviate", "repeat", "drop",
                                            "bad", "alone")), max_size=2))
    for fault in faults:
        if fault in ("stray", "trailing"):
            at = len(pieces) if fault == "trailing" else draw(st.integers(0, len(pieces)))
            pieces.insert(at, [None, None, "stray", draw(st.sampled_from(_STRAYS))])
            continue
        placed = [piece for piece in pieces if piece[0] is not None]
        if not placed:
            continue
        piece = draw(st.sampled_from(placed))
        name, flag, form, value = piece
        option = name.startswith("-")
        if fault == "abbreviate" and option:
            piece[1] = name[:draw(st.integers(2, len(name) - 1))]
        elif fault == "repeat":
            pieces.insert(draw(st.integers(0, len(pieces))),
                          [name, flag, draw(st.sampled_from(forms[option])),
                           draw(_good(arguments[name]) | _bad(arguments[name]))])
        elif fault == "drop":
            pieces.remove(piece)
        elif fault == "bad":
            piece[3] = draw(_bad(arguments[name]))
        elif fault == "alone" and option:
            piece[2] = "alone"
    argv = [token for _, flag, form, value in pieces for token in _tokens(flag, form, value)]
    return command, argv, not faults


_tree = functools.cache(build_parser)


@settings(database=None, derandomize=True, deadline=None, max_examples=1500)
@given(_command_lines())
@example((("family", "closure"), ["--op", "bad", "--family", "-"], False))
@example((("search", "psi"), ["--word", "1:1", "--semigroup=bad"], False))
@example((("schreier", "enum"), ["--n", "x", "--xi", "2", "--n", "3"], False))
@example((("rat", "decode"), ["--word=--"], False))
@example((("rat", "decode"), ["--word", "1:1", "--"], False))
@example((("rat", "encode"), ["--", "-3/7"], True))
def test_read_matches_the_whole_tree_parse(case):
    # the reader either refuses argv, as help or a usage error, or reads
    # what the reference parser tree reads; a clean argv it always reads
    command, argv, clean = case
    try:
        got = cli._read(command, argv)
    except cli.UsageError:
        assert not clean, (command, argv)
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        want = vars(reference_parse(_tree(), [*command, *argv]))
    for key in ("json", "command", "subcommand"):
        del want[key]
    assert vars(got) == want, (command, argv)


def test_ordinal_fund_usage_names_lambda_first(monkeypatch):
    out = CountingStdout()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["ordinal", "fund", "-h"]) == 0
    assert "".join(out.writes).startswith(
        "usage: zwords ordinal fund [-h] --lambda LAMBDA --n N\n\n")


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


def test_malformed_coloring_files_are_one_error_line(tmp_path, capsys):
    # a coloring file is one seed:<u64>:<r> line or text<TAB>colour lines;
    # a line of neither form is named by its number in one error: line,
    # quoted whole up to 160 characters (a longer one is in
    # test_every_refusal_bounds_its_echo), exit code 1 (CLI_PINS holds a
    # seed line with a field too many and a table line with no tab)
    cases = [("\n\nseed:x:2\n", "line 3 'seed:x:2': expected seed:<u64>:<r>"),
             ("seed:5\n", "line 1 'seed:5': expected seed:<u64>:<r>"),
             ("# table\n-1:v,1:v\t1\n-1:1,1:1\tx\n",
              "line 3 '-1:1,1:1\\tx': expected text<TAB>colour"),
             ("%s\n" % ("9" * 60), "line 1 '%s': expected text<TAB>colour" % ("9" * 60))]
    coloring = tmp_path / "coloring.txt"
    for text, message in cases:
        coloring.write_text(text)
        code, out, err = run(capsys, "search", "hj", "--r", "2", "--coloring", str(coloring),
                             "--bounds", "1", "--n", "2", "--window", "2")
        assert (code, out, err) == (1, "", "error: bad coloring %s\n" % message), text


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


def test_search_arguments_past_the_window_answer_at_once(capsys):
    # a total past the window has no candidates, so none of its splits is
    # visited, however large the total
    argv = ("search", "hj", "--r", "2", "--seed", "1", "--bounds", "1", "--window", "3", "--n")
    code, out, err = run(capsys, *argv, "100")
    assert (code, out) == (0, "witness: none\ncandidates: 0\nnodes: 0\n")
    for n in ("9223372036854775807", "9223372036854775808"):
        start = time.perf_counter()
        assert run(capsys, *argv, n)[:2] == (code, out), n
        assert time.perf_counter() - start < 1, n
    # the count table stops at the largest total, so a wide window is
    # refused at the cap without counting the sizes past it
    start = time.perf_counter()
    assert run(capsys, "search", "hj", "--r", "2", "--seed", "1", "--bounds", "1", "--n", "2",
               "--window", "4000") \
        == (1, "", "error: witness candidates exceed cap after 200001 tuples\n")
    assert time.perf_counter() - start < 3


def test_refusals_before_work(capsys):
    # a window whose least total's lower bound passes the cap is refused
    # before its bounds are counted, a table window names its least missing
    # bound from a lazy range, and an exponent past the codec range is
    # refused before Fraction builds its power
    search = ("search", "hj", "--r", "2", "--seed", "1", "--bounds", "1", "--n", "2")
    huge = "99999999999999999999"
    cap = "error: witness candidates exceed cap after 200001 tuples\n"
    for argv, err in (
            (("search", "xi", "--r", "2", "--seed", "1", "--xi", "w", "--l", "2", "--n0", "4",
              "--window", "1000"), cap),
            (search + ("--window", huge), cap),
            (search + ("--window", huge, "--profile", "table:-1=1,1=1"),
             "error: profile table has no bound at -%s\n" % huge),
            (("rat", "encode", "1e10000000"), "error: bad rational '1e10000000': exponent "
             "10000000 exceeds 166729 in size, outside the codec range\n"),
            (("rat", "encode", "1e-10000000"), "error: bad rational '1e-10000000': exponent "
             "-10000000 exceeds 166730 in size, outside the codec range\n"),
            (("rat", "encode", "1e553000"), "error: bad rational '1e553000': exponent "
             "553000 exceeds 166727 in size, outside the codec range\n"),
            (("rat", "encode", "1e200000"), "error: bad rational '1e200000': exponent "
             "200000 exceeds 166727 in size, outside the codec range\n")):
        start = time.perf_counter()
        assert run(capsys, *argv) == (1, "", err), argv
        assert time.perf_counter() - start < 0.5, argv


def test_search_past_a_huge_profile_bound_is_refused(capsys, monkeypatch):
    # a one-position side pool is its variable alone, whatever the bound,
    # and a side with more substitution texts than the cap is refused
    # before any is built, so a bound past an index-sized integer is one
    # error: line at once; at the cap the search answers as before
    argv = ("search", "hj", "--r", "2", "--seed", "1", "--bounds", "1", "--n", "2",
            "--window", "3", "--profile")
    start = time.perf_counter()
    assert run(capsys, *argv, "const:99999999999999999999") \
        == (1, "", "error: side substitution texts exceed cap after 200001 texts\n")
    assert time.perf_counter() - start < 1
    answer = ["witness: none", "candidates: 9", "nodes: 9"]
    code, out, _ = run(capsys, *argv, "const:10")
    assert (code, out.splitlines()[:3]) == (0, answer)
    monkeypatch.setenv("ZW_CAPS", "10")
    code, out, _ = run(capsys, *argv, "const:10")
    assert (code, out.splitlines()[:3]) == (0, answer)
    assert run(capsys, *argv, "const:11") \
        == (1, "", "error: side substitution texts exceed cap after 11 texts\n")


def test_runtime_errors_other_than_the_search_cap_propagate(capsys, monkeypatch):
    # the search cap's refusal is one error: line; any other RuntimeError,
    # RecursionError among them, is no refusal and is not swallowed
    from zwords import search

    for error in (search.SearchCapExceeded("witness candidates exceed cap after 9 tuples", 9),
                  RecursionError("maximum recursion depth exceeded"), RuntimeError("boom")):
        def fail(*args, error=error):
            raise error

        monkeypatch.setattr(cli.schreier, "is_member", fail)
        argv = ("schreier", "member", "--xi", "w", "--set", "2,3")
        if isinstance(error, search.SearchCapExceeded):
            assert run(capsys, *argv) == (1, "", "error: %s\n" % error)
        else:
            with pytest.raises(type(error)):
                main(list(argv))


def test_dash_values_are_a_dash_and_a_digit_or_point():
    import re

    for token in ("", "-", "--", "-1", "-.5", "-3/7", "-1:v,1:v", "-x", "-h", "1", ".5",
                  "-\u0663", "--1", "- 1", "-e1"):
        assert cli._dash_value(token) == bool(re.match(r"-[0-9.]", token)), token


def test_exit_codes(capsys):
    code, _, err = run(capsys, "rat", "encode", "0")
    assert code == 1 and "error:" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "word", "subst", "--p", "1", "--q", "0",
                     "--word", "-1:v,1:v")
    assert code == 1
    # the CLI catches ValueError for every module's domain error
    for error in (OrdinalError, SchreierError, WordError, FamilyError, RationalCodecError,
                  SearchError, SearchCapExceeded):
        assert issubclass(error, cli.DOMAIN_ERRORS), error


def test_deep_ordinal_descent_is_a_domain_error(capsys):
    # A limit member with minimum n has at least n elements, so the parse
    # answers short sets at once however deep xi is.
    for argv, want in ((("member", "--xi", "w^(w^w)", "--set", "5,6"), "false\n"),
                       (("canon", "--xi", "w^(w^w)", "--set", "6,7,8"), "|6,7,8\n")):
        code, out, err = run(capsys, "schreier", *argv)
        assert (code, out, err) == (0, want, "")
    # membership parses on one stack of runs, so a long set answers too
    code, out, err = run(capsys, "schreier", "member", "--xi", "w^(w^w)",
                         "--set", "5,6,7,8,9,10,11,12,13,14")
    assert (code, out, err) == (0, "false\n", "")
    # the predecessor sequence is one loop: w^(w^w) at n = 5 takes 4,064
    # steps, and the line is the recursive reference's (computed once
    # under a raised recursion limit)
    code, out, err = run(capsys, "ordinal", "pred", "--xi", "w^(w^w)", "--n", "5")
    assert code == 0 and err == "" and len(out) == 77249 + 1
    assert hashlib.sha256(out[:-1].encode()).hexdigest() \
        == "af3f3b51e1347827e8a71c821f68b316325dce49b87a87ff140206773c889a56"
    code, out, err = run(capsys, "schreier", "check-restriction", "--xi", "w^(w^w)", "--n", "5",
                         "--max", "12")
    assert (code, out, err) == (0, "true\n", "")
    # at n = 6 it would take 57,544 steps, past the cap
    for argv in (("ordinal", "pred", "--xi", "w^(w^w)", "--n", "6"),
                 ("schreier", "check-restriction", "--xi", "w^(w^w)", "--n", "6",
                  "--max", "12")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: predecessor sequence at n = 6 takes more than 10000 steps\n"
    # enumeration walks an explicit stack, so it answers up to the cap
    code, out, err = run(capsys, "schreier", "enum", "--xi", "w^(w^w)", "--n", "20")
    assert (code, out, err) == (0, "1\n", "")


def test_deep_ordinal_nesting_is_a_domain_error(capsys):
    deep = "w^(" * 400 + "1" + ")" * 400
    for argv in (("ordinal", "cmp", "--a", deep, "--b", "1"),
                 ("ordinal", "classify", "--xi", deep),
                 ("rat", "qxi", "--xi", deep, "--values", "1/2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: exponents nested more than 100 deep\n"


def test_every_ordinal_command_answers_at_the_nesting_cap(capsys):
    # 100 nested exponents is the deepest the parser reads; every command
    # that takes an ordinal answers or refuses it in one line, and quickly
    deep = "w^(" * 100 + "1" + ")" * 100
    window = ("--l", "2", "--n0", "2", "--window", "3", "--r", "2", "--seed", "1")
    for argv, want in (
            (("schreier", "member", "--xi", deep, "--set", "1"), "true\n"),
            (("schreier", "member", "--xi", deep, "--set", "2,3,4,5,6,7,8"), "false\n"),
            (("schreier", "enum", "--xi", deep, "--n", "12"), "1\n"),
            (("schreier", "canon", "--xi", deep, "--set", "1,2,3"), "[1]|2,3\n"),
            (("schreier", "check-restriction", "--xi", deep, "--n", "1", "--max", "8"), "true\n"),
            (("schreier", "check-restriction", "--xi", deep, "--n", "2", "--max", "8"), None),
            (("ordinal", "cmp", "--a", deep, "--b", deep), "equal\n"),
            (("ordinal", "fund", "--lambda", deep, "--n", "3"), "w^(w^(w^("),
            (("ordinal", "pred", "--xi", deep, "--n", "1"), "0\n"),
            (("ordinal", "pred", "--xi", deep, "--n", "3"), None),
            (("ordinal", "classify", "--xi", deep), "limit\n"),
            (("rat", "qxi", "--xi", deep, "--values", "1/2"), "true\n"),
            (("search", "xi", "--xi", deep) + window, "witness: -1:v,1:v;-2:v,2:v\n")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        if want is None:
            assert (code, out) == (1, "") and err.count("\n") == 1, argv
            assert err.endswith("takes more than 10000 steps\n"), argv
        else:
            assert code == 0 and out.startswith(want), argv


def test_word_ev_refuses_past_the_product_cap(capsys):
    # 3^n - 1 star products under const:1, counted before any is built;
    # under abs the 1,000-word tuple's grids hold about 3.3e8 pairs, and
    # its products are counted from the image ranges without listing them
    for n, profile in ((30, "const:1"), (1000, "const:1"), (1000, "abs")):
        tuple_text = ";".join("-%d:v,%d:v" % (i, i) for i in range(1, n + 1))
        start = time.perf_counter()
        code, out, err = run(capsys, "word", "ev", "--profile", profile, "--tuple", tuple_text)
        assert time.perf_counter() - start < 2, (n, profile)
        assert (code, out, err) == (1, "", "error: extraction would build more than 200000 "
                                           "star products\n")


def test_word_ev_images_stop_at_the_word_bounds(capsys):
    # the grid at 100000 has 10^10 pairs, but past k = 3 at the second
    # word's variable positions every index gives the image it gives at 3
    tuple_text = "-1:v,1:v;-3:v,3:v"
    start = time.perf_counter()
    far = run(capsys, "word", "ev", "--tuple", tuple_text, "--indices", "1,100000")
    assert time.perf_counter() - start < 2
    near = run(capsys, "word", "ev", "--tuple", tuple_text, "--indices", "1,3")
    assert far == near and near[0] == 0 and near[1].count("\n") == 32, near


def test_grid_indices_below_one_are_refused(capsys):
    # at -1 the grid would read k at 1 and at -1 swapped; at 0 it has no k
    for index in ("-1", "0"):
        for argv in (("search", "hj", "--r", "2", "--seed", "1", "--bounds", index,
                      "--n", "1", "--window", "3"),
                     ("word", "ev", "--tuple", "-1:v,1:v;-3:v,3:v", "--indices", "1," + index)):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", "error: grid index must be >= 1\n"), argv
    # the empty tuple takes no index
    code, out, err = run(capsys, "word", "ev", "--tuple", "", "--indices", "1,-5")
    assert (code, out, err) == (1, "", "error: need one grid index per member\n")


def test_profile_table_naming_a_position_twice_is_refused(capsys):
    code, out, err = run(capsys, "word", "check", "--word", "-1:v,1:3",
                         "--profile", "table:1=3,1=2,-1=1")
    assert (code, out, err) == (1, "", "error: profile table bounds position 1 twice\n")


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


def _fresh(probe: str) -> str:
    """The stdout of probe run in a fresh `python -S` process on this
    checkout's package, where no site hook has loaded anything."""
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-S", "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True).stdout


# modules a process pays for only once a command reads them: the upper
# layers, and what only they import
_UPPER = ("zwords.words", "zwords.families", "zwords.rationals", "zwords.search",
          "typing", "re", "fractions", "decimal", "heapq")


def test_cli_import_loads_no_heavy_modules():
    # every command is one process, so what `import zwords.cli` loads is
    # paid on each; dataclasses brings inspect, json only --json reads, and
    # the upper layers load in the commands that read them
    probe = ("import sys, zwords.cli; print(sorted(set(%r) & set(sys.modules)))"
             % (("argparse", "dataclasses", "inspect", "json") + _UPPER,))
    assert _fresh(probe) == "[]\n"


def test_package_import_loads_only_ordinals_and_schreier():
    probe = "import sys, zwords; print(sorted(m for m in sys.modules if m.startswith('zwords')))"
    assert _fresh(probe) == "['zwords', 'zwords.ordinals', 'zwords.schreier']\n"


def test_schreier_and_ordinal_commands_load_no_upper_layer():
    # every schreier and ordinal command, a domain error and a usage error
    # answer without the upper layers, typing or re; --json loads json,
    # which brings re, but still no upper layer
    plain = [["schreier", "member", "--xi", "w", "--set", "2,3"],
             ["schreier", "enum", "--xi", "w", "--n", "4"],
             ["schreier", "canon", "--xi", "w*2", "--set", "2,3,4,5,6"],
             ["schreier", "check-restriction", "--xi", "w^2", "--n", "2", "--max", "6"],
             ["ordinal", "cmp", "--a", "w^w", "--b", "w+1"],
             ["ordinal", "fund", "--lambda", "w^w", "--n", "3"],
             ["ordinal", "pred", "--xi", "w^2", "--n", "2"],
             ["ordinal", "classify", "--xi", "w*2"],
             ["schreier", "member", "--xi", "w^", "--set", "2"],
             ["ordinal", "cmp", "--a", "w", "--b", "1", "extra"]]
    other = [["--json", "schreier", "member", "--xi", "w", "--set", "2,3"]]
    probe = ("import contextlib, io, sys\n"
             "from zwords.cli import main\n"
             "for argvs, upper in ((%r, %r), (%r, %r)):\n"
             "    codes = []\n"
             "    for argv in argvs:\n"
             "        with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "            codes.append(main(argv))\n"
             "    print(codes, sorted(set(upper) & set(sys.modules)))\n"
             % (plain, _UPPER, other, _UPPER[:4]))
    assert _fresh(probe) == "[0, 0, 0, 0, 0, 0, 0, 0, 1, 2] []\n[0] []\n"


def test_word_family_and_search_commands_load_neither_typing_nor_re():
    # words, families, search and rationals import from collections, not
    # typing, and nothing the first three load brings re, so these commands
    # pay for neither; the rat commands are checked for typing alone, as
    # fractions brings re
    neither, no_typing = ("typing", "re"), ("typing",)
    commands = [(["word", "check", "--word", "-1:v,1:v"], neither),
                (["family", "cbindex", "--set-m", "2", "--tau", "1"], neither),
                (["search", "fs", "--xs", "1,2"], neither),
                (["search", "hj", "--r", "2", "--seed", "1", "--bounds", "1", "--n", "2",
                  "--window", "2"], neither),
                (["rat", "encode", "1/3"], no_typing),
                (["rat", "decode", "--word", "2:2,3:1"], no_typing)]
    probe = ("import contextlib, io, sys\n"
             "from zwords.cli import main\n"
             "for argv, unloaded in %r:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = main(argv)\n"
             "    print(argv[:2], code, sorted(set(unloaded) & set(sys.modules)))\n"
             % (commands,))
    assert _fresh(probe) == "".join("%r 0 []\n" % (argv[:2],) for argv, _ in commands)


# the names `zwords` bound by importing every layer at package import
PACKAGE_NAMES = {
    "ordinals": ("OMEGA", "ONE", "ZERO", "Ordinal", "OrdinalError", "classify", "compare",
                 "format_ordinal", "from_int", "fundamental_sequence", "omega_power",
                 "parse_ordinal", "predecessor_sequence"),
    "schreier": ("CanonicalDecomposition", "SchreierError", "canonical_decompose",
                 "enumerate_members", "is_member", "is_proper_initial", "restriction_check"),
    "words": ("ABS", "VARIABLE", "DominationProfile", "LocatedWord", "OrderlyTuple",
              "WordError", "concat", "extracted_sets", "format_word", "h_map", "is_extraction",
              "make_tuple", "make_word", "merge", "pair_enumeration", "parse_profile",
              "parse_word", "project_positive", "rel_r1", "rel_r2", "substitute",
              "substitute_nat"),
    "families": ("FamilyError", "WordFamily", "cb_derivative", "cb_index", "family_at",
                 "family_minus", "family_of", "hereditary_closure", "l_xi_member",
                 "largest_hereditary", "serialize_tuple", "set_family_cb_index",
                 "tree_closure"),
    "rationals": ("RationalCodecError", "decode", "encode", "evaluate",
                  "integer_alt_factorial", "q_xi_member", "rational_pattern",
                  "rational_precedes"),
    "search": ("Coloring", "INT_LINEAR", "SearchCapExceeded", "SearchError", "SearchReport",
               "SearchWindow", "SemigroupSpec", "fs_enumerate", "fs_two_sided",
               "hj_witness_search", "length_slice", "psi_map", "semigroup_pattern",
               "verify_witness", "verify_xi_witness", "word_length", "xi_witness_search",
               "z_fin_set_less"),
}


def test_every_package_name_resolves_lazily():
    # in a fresh process, `from zwords import *` binds every layer and
    # every name the package bound when it imported all layers, each the
    # layer's own object, and `dir` lists them; an unknown name is an
    # AttributeError
    probe = ("import importlib, zwords\n"
             "names = {}\n"
             "exec('from zwords import *', names)\n"
             "bad = []\n"
             "for layer, public in %r.items():\n"
             "    module = importlib.import_module('zwords.' + layer)\n"
             "    if names.pop(layer) is not module or getattr(zwords, layer) is not module:\n"
             "        bad.append(layer)\n"
             "    bad += [name for name in public if names.pop(name) is not "
             "getattr(module, name) or getattr(zwords, name) is not getattr(module, name)]\n"
             "names.pop('__builtins__')\n"
             "print(bad, sorted(names), set(dir(zwords)) >= set(zwords.__all__))\n"
             "try:\n"
             "    zwords.nonsense\n"
             "except AttributeError as exc:\n"
             "    print(exc)\n" % (PACKAGE_NAMES,))
    assert _fresh(probe) == ("[] [] True\n"
                             "module 'zwords' has no attribute 'nonsense'\n")


def test_help_and_usage_errors_in_a_fresh_process():
    # help and usage errors as a process writes them, whatever the width
    # of the terminal; an abbreviated flag is a usage error
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parent.parent / "src"

    def cli_run(*argv, columns=None):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("COLUMNS", None)
        if columns is not None:
            env["COLUMNS"] = columns
        done = subprocess.run([sys.executable, "-S", "-m", "zwords.cli", *argv],
                              env=env, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    for argv, want in ((("-h",), TOP_HELP), (("rat", "-h"), RAT_HELP),
                       (("rat", "decode", "-h"), DECODE_HELP)):
        assert cli_run(*argv) == cli_run(*argv, columns="20") == cli_run(*argv, columns="200") \
            == (0, want, ""), argv
    assert cli_run("rat", "decode", "--word", "1:1") == (0, "1\n", "")
    assert cli_run("rat", "decode", "--wor", "1:1") \
        == _refused(DECODE_USAGE, "unrecognized arguments: --wor")
    assert cli_run("rat", "decode", "--word", "1:1", "extra") \
        == _refused(DECODE_USAGE, "unrecognized arguments: extra")


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
    assert len(examples) == 19
    for command, _, expected in examples:
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert (code, " / ".join(out.splitlines())) == (0, expected.strip()), command


def test_every_ci_check_runs_in_one_workflow_step():
    """Every `python tests/ci_checks.py` line of the workflow names checks
    that the script has, and every check is run by exactly one step.  A
    check under a timeout starts no process, since a timeout stops the
    check's own process alone."""
    import inspect
    import ci_checks

    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"
    runs = [line.split() for line in re.findall(r"python tests/ci_checks\.py(.*)",
                                                workflow.read_text(encoding="utf-8"))]
    checks = sorted(ci_checks.CHECKS)
    assert all(runs) and sorted(name for names in runs for name in names) == checks
    for name in checks:
        source = inspect.getsource(getattr(ci_checks, name))
        assert ci_checks.CHECKS[name] is None or not re.search(r"\b(python|cli|refused)\(", source)


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
