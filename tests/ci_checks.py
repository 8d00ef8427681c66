"""The CI checks that tier-1 does not run: the package's import cost, deep
towers, the longest codec words, radius-4 to radius-8 witness searches and
the four- and five-word family pools, one function per check.

    python tests/ci_checks.py            # every check
    python tests/ci_checks.py NAME...    # the named checks

Each check runs in a fresh child process, since the peak-RSS gates, cold
caches, -X importtime and -S need one.  A check that runs code in that
process runs under its step's timeout and starts no process of its own,
so a timed-out check leaves nothing running; a check that starts
processes has no timeout of its own and bounds each command as its step
did.  One PASS or FAIL line is printed per check, and the exit code is 1
if any check failed, or 2 for an unknown name.  Only the standard library
is used, and files are written to a temporary directory alone.
"""

import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
CHECKS = {}  # name -> the timeout of its child process in seconds, or None


def check(timeout=None):
    """Register the decorated function as a check, run in a child process
    under timeout seconds."""
    def register(fn):
        CHECKS[fn.__name__] = timeout
        return fn
    return register


def python(*argv, timeout=None, code=0, env=None):
    """Run this interpreter on argv from the repository root under timeout
    seconds, check its exit code and return the finished process."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=dict(ENV, **(env or {})),
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == code, (" ".join(map(str, argv))[:400], done.returncode,
                                     done.stderr[-2000:])
    return done


def cli(argv, timeout, code=0, env=None):
    """Run python -m zwords.cli on argv, a list or words split at spaces, as
    python() does; print and return its stdout, or its stderr if code is
    not 0."""
    done = python("-m", "zwords.cli", *(argv.split() if isinstance(argv, str) else argv),
                  timeout=timeout, code=code, env=env)
    out = done.stderr if code else done.stdout
    print(out if len(out) < 2000 else "(%d bytes)\n" % len(out.encode()), end="")
    return out


def refused(argv, timeout):
    """Run a CLI command that must exit 1 with one error: line under 480
    bytes on stderr."""
    err = cli(argv, timeout, code=1)
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 480


def pinned(text, sha256):
    """Check the SHA-256 of text, as UTF-8 bytes."""
    import hashlib  # here, as loading it adds about 4 MB to the peak RSS a check reads
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == sha256, digest


def twice(write):
    """Call write twice in this process, each time on a fresh text buffer;
    check that both calls write the same text and return it."""
    first, again = io.StringIO(), io.StringIO()
    write(first)
    write(again)
    assert first.getvalue() == again.getvalue(), "the second pass wrote other text"
    return first.getvalue()


def sweep(seeds):
    """The colour sweep's searches of each seed, an hj then an xi search
    over one radius-4 window, as (name, seed, search) triples."""
    from functools import partial
    from zwords.ordinals import parse_ordinal
    from zwords.search import Coloring, SearchWindow, hj_witness_search, xi_witness_search
    w4, xi = SearchWindow(4), parse_ordinal("w")
    return [triple for seed in seeds for triple in (
        ("hj", seed, partial(hj_witness_search, Coloring(arity=3, seed=seed), 2, [1, 2], 5, w4)),
        ("xi", seed, partial(xi_witness_search, Coloring(arity=2, seed=seed), xi, 2, 4, w4)))]


def exhaustive(seed):
    """The radius-5 hj search that visits all its candidates."""
    from zwords.search import Coloring, SearchWindow, hj_witness_search
    return hj_witness_search(Coloring(arity=40, seed=seed), 2, [2, 2], 6, SearchWindow(5))


def tower_base(k):
    """The tuple of the first k of the words -2:v,-1:v,1:v,2:v, -4:v,-3:v,3:v,4:v, ..."""
    from zwords.words import VARIABLE, make_tuple, make_word
    return make_tuple([make_word({-b: VARIABLE, -a: VARIABLE, a: VARIABLE, b: VARIABLE})
                       for a, b in ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12))[:k]])


@check()
def import_cost():
    """each CLI command is one process and pays its imports; the zwords
    lines of -X importtime (microseconds: self, cumulative) show the
    CLI's and the package's per Python, with no bound.  No argparse
    line shows: the package never imports it, since help and usage
    errors are written from the command table, and it loads only
    ordinals and schreier.  One command of each group, a help and a
    usage error then list the zwords modules they loaded, also with
    no bound, and fail if argparse was loaded"""
    for module, shown in (("zwords.cli", "zwords|argparse"), ("zwords", "zwords")):
        times = python("-X", "importtime", "-c", "import " + module).stderr
        lines = [line for line in times.splitlines() if re.search(shown, line)]
        print(*lines, sep="\n")
        assert lines
    loaded = ('import sys; from zwords.cli import main; code = main(sys.argv[1:]); '
              'print(code, sorted(m for m in sys.modules if m.startswith("zwords"))); '
              'assert "argparse" not in sys.modules')
    for argv in ("word check --word -1:v,1:v", "schreier member --xi w --set 2,3",
                 "ordinal cmp --a w --b 3", "family cbindex --set-m 2 --tau 1",
                 "rat decode --word 2:2,3:1", "search fs --xs 1,2", "rat decode -h",
                 "schreier member --xi w --set 2,3 --xi w"):
        print(argv + ":")
        print(python("-S", "-c", loaded, *argv.split()).stdout, end="")


@check(timeout=60)
def colour_sweep():
    """100 seeded hj and 100 seeded xi searches over one radius-4 window,
    run twice in one process: the first pass lays each shell out, the
    second replays the kept visits with colour lookups alone.  Both
    passes print the same report lines, pinned by SHA-256 (the lines
    of the search that kept no visit)"""
    from zwords import search
    from zwords.words import serialize_tuple

    def write(out):
        for name, seed, run in sweep(range(100)):
            rep = run()
            witness = serialize_tuple(rep.witness) if rep.witness else "none"
            print(name, seed, witness, rep.color, rep.grid_size, rep.nodes_expanded,
                  rep.candidates, file=out)
    pinned(twice(write), "7ca99337d0f0b37d66dcb1fe0cde4046319a677ee861b520ffd2176c694c3595")
    print(search._shell_visit.cache_info())


@check(timeout=60)
def exhaustive_twice():
    """the radius-5 hj search visits all 31,360 candidates, and its
    visits of shells 3 to 5 fill their budget of kept texts; run again
    in the process, it replays the kept candidates and merges each
    shell's splits again past them, with the same report"""
    from zwords.words import serialize_tuple

    def write(out):
        rep = exhaustive(3)
        witness = serialize_tuple(rep.witness) if rep.witness else "none"
        print("witness: %s" % witness, "candidates: %d" % rep.candidates,
              "nodes: %d" % rep.nodes_expanded, sep="\n", file=out)
    report = twice(write)
    print(report, end="")
    assert "nodes: 31360" in report.splitlines()


@check(timeout=300)
def threaded_searches():
    """40 seeds each of the colour sweep's hj and xi searches and three
    seeds of the exhaustive radius-5 search, run one by one from
    cleared caches; then 20 trials, each from cleared caches, of the
    sweep and one exhaustive search shuffled over four threads, the
    interpreter switching threads every microsecond.  A visit is laid
    out once and never changed, so every report of every trial is the
    sequential one"""
    import random
    import threading
    from functools import partial
    from zwords import search

    def clear():
        for cache in (search._side_pool, search._xi_plans, search._window_counts,
                      search._shell_visit):
            cache.cache_clear()

    def fields(rep):
        return rep.witness, rep.color, rep.grid_size, rep.nodes_expanded, rep.candidates
    searches = [run for _, _, run in sweep(range(40))]
    exhaustives = [partial(exhaustive, seed) for seed in range(3)]
    clear()
    want = {run: fields(run()) for run in searches + exhaustives}
    wrong = []
    sys.setswitchinterval(1e-6)
    for trial in range(20):
        runs = searches + [exhaustives[trial % 3]]
        random.Random(trial).shuffle(runs)
        got = {}

        def work(chunk):
            for run in chunk:
                got[run] = fields(run())
        threads = [threading.Thread(target=work, args=(runs[k::4],)) for k in range(4)]
        clear()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wrong.append(sum(got.get(run) != want[run] for run in runs))
        print("trial %d: %d of %d reports differ" % (trial, wrong[-1], len(runs)))
    assert wrong == [0] * 20, wrong


@check()
def planless_xi_cli():
    """no split of this window has a block plan, so the search counts its
    275,427,216 candidates without building a word, in well under a second;
    with xi = w and n0 = 10 no split of totals 4 to 9 has a plan, and
    the witness, in shell 5 of total 10, reads its nodes from their counts."""
    for xi, n0, nodes in (("3", "4", "275427216"), ("w", "10", "48072922")):
        out = cli("search xi --xi %s --l 2 --n0 %s --window 6 --r 2 --seed 1" % (xi, n0), 60,
                  env={"ZW_CAPS": "300000000"})
        assert "nodes: " + nodes in out.splitlines()


@check(timeout=60)
def planless_xi():
    """At radius 8 the same plan-less search counts 5,975,795,367,936
    candidates, and its visits keep no split, so the process stays
    under 80 MB of peak RSS.  It reads only the 49 shells that hold
    its totals' domains, which all stay kept, so run again in the
    process it replays them and answers in under 0.1 s"""
    import resource
    import time
    from zwords.ordinals import from_int
    from zwords.search import Coloring, SearchWindow, xi_witness_search
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        rep = xi_witness_search(Coloring(arity=2, seed=1), from_int(3), 2, 4,
                                SearchWindow(8, max_candidates=10 ** 14))
        runs.append((rep.nodes_expanded, rep.candidates, time.perf_counter() - start))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for nodes, candidates, seconds in runs:
        print("nodes: %d" % nodes, "candidates: %d" % candidates,
              "time: %.3f s" % seconds, sep="\n")
    print("peak RSS: %.1f MB" % peak)
    assert runs[0][:2] == runs[1][:2] == (5975795367936, 5975795367936)
    assert runs[1][2] < 0.1, runs[1][2]
    assert peak <= 80, peak


@check()
def past_the_window():
    """a total with no candidates is never visited, and the count table
    stops at the largest total, so a total past the window answers
    "none" and a wide window is refused at the cap, both at once"""
    out = cli("search hj --r 2 --seed 1 --bounds 1 --n 9223372036854775808 --window 3", 10)
    assert "nodes: 0" in out.splitlines()
    refused("search hj --r 2 --seed 1 --bounds 1 --n 2 --window 4000", 10)


@check()
def refusals_before_work():
    """a window whose least total has more domains than the cap is refused
    before its bounds are read or counted, and an exponent past the
    codec range, counted in decimal digits, before its power is built;
    each is one error: line under 480 bytes, so a refusal that quotes
    a 4,000-entry word or a 5,000-character path or profile quotes its
    first 160 characters and its length"""
    long = ",".join("%d:v" % p for p in range(-2000, 2001) if p)
    for argv in ("search xi --r 2 --seed 1 --xi w --l 2 --n0 4 --window 1000",
                 "search hj --r 2 --seed 1 --bounds 1 --n 2 --window 99999999999999999999",
                 "rat encode 1e10000000", "rat encode 1e200000",
                 "word concat --a %s --b -1:v,1:v" % long,
                 "family closure --op tree --family " + "f" * 5000,
                 "word check --word -1:v,1:v --profile abs+" + "x" * 4996):
        refused(argv, 5)


@check()
def deep_towers():
    """membership and enumeration walk one stack of runs, so a deep tower
    answers long sets and the enumeration cap instead of exceeding the
    recursion limit; the predecessor sequence is one loop capped at
    10,000 steps (w^(w^w) takes 4,064 at n = 5, 57,544 at n = 6; the
    n = 5 output is pinned by its size and SHA-256), and the parser
    refuses exponents nested more than 100 deep"""
    pred5 = cli("ordinal pred --xi w^(w^w) --n 5", 10)
    assert len(pred5.encode()) == 77250
    pinned(pred5, "e97d6ccaf97a7c738a7e0df16e50023e31d50a29ee4661cf7e2969111256d8de")
    refused("ordinal pred --xi w^(w^w) --n 6", 10)
    assert cli("schreier check-restriction --xi w^(w^w) --n 5 --max 12", 10) == "true\n"
    refused("ordinal classify --xi " + "w^(" * 400 + "1" + ")" * 400, 10)
    assert cli("schreier member --xi w^(w^w) --set 5,6,7,8,9,10,11,12,13,14", 60) == "false\n"
    tower = "schreier member --xi w^(w^(w^w)) --set " + ",".join(map(str, range(2, 201)))
    assert cli(tower, 60) == "false\n"
    assert cli("schreier enum --xi w^(w^w) --n 20", 60) == "1\n"
    assert cli("schreier enum --xi w^2 --n 20", 60).count("\n") == 21181


@check()
def restriction_lock_step():
    """the check walks the members of both families side by side, so its
    cost follows the members, not the 2^(N - n) subsets of {n+1..N}"""
    for xi, n in (("w^w", 2), ("w^2", 3), ("w^(w+1)*2+w^3", 1)):
        print("%s at n = %d:" % (xi, n))
        assert cli("schreier check-restriction --xi %s --n %d --max 20" % (xi, n), 10) == "true\n"


@check(timeout=60)
def schreier_cold_warm():
    """membership, initial segment and decomposition of every subset of
    {1..12} under five ordinals, printed twice in one process: first
    with the expansion cache cold, then warm.  Both passes print the
    same 20,480 lines, pinned by their SHA-256 as printed when every
    exponent, finite ones too, still expanded through the cache"""
    from itertools import combinations
    from zwords.ordinals import parse_ordinal
    from zwords.schreier import _expand, canonical_decompose, is_member, is_proper_initial
    sets = [s for k in range(13) for s in combinations(range(1, 13), k)]

    def write(out):
        for text in ("w^2", "w^w", "w^(w+1)*2+w^3", "w^2+w", "w^(w^w)"):
            xi = parse_ordinal(text)
            for s in sets:
                print(text, ",".join(map(str, s)) or "-", is_member(s, xi),
                      is_proper_initial(s, xi), canonical_decompose(s, xi) if s else "-",
                      file=out)
    lines = twice(write)
    print(_expand.cache_info())
    assert lines.count("\n") == 20480
    pinned(lines, "36086ce4cb435c457f1f6784f6bb6e84b9845b0957ae831230f045ce52013fa7")


@check()
def extraction_counts():
    """a member's images come from two index ranges cut at the largest k
    of its variable positions, so the product cap refuses a 1,000-word
    abs tuple before any image or grid pair is made, and a far grid
    index reads no more than k = 3 does for a word bounded by 3"""
    refused("word ev --tuple " + ";".join("-%d:v,%d:v" % (i, i) for i in range(1, 1001)), 10)
    far = cli("word ev --tuple -1:v,1:v;-3:v,3:v --indices 1,100000", 10)
    assert far == cli("word ev --tuple -1:v,1:v;-3:v,3:v --indices 1,3", 10)


@check(timeout=10)
def six_word_base():
    """is_extraction reads each word against the members' domains and
    images, so it answers on the six-word base at once, while
    extracted_sets refuses to build its 3,656,663 star products"""
    from zwords.words import WordError, extracted_sets, is_extraction, make_tuple, parse_word
    base = tower_base(6)
    assert is_extraction(make_tuple(base[:1]), base)
    assert not is_extraction(make_tuple([parse_word("-3:v,-2:v,2:v,3:v")]), base)
    try:
        extracted_sets(base)
    except WordError as exc:
        print(exc)
        assert "more than 200000 star products" in str(exc)
    else:
        raise AssertionError("extracted_sets built the six-word base")


@check()
def longest_codec_word():
    """encode builds its word directly, parse_word reads canonical word
    text in a few C-level passes and evaluate joins the digits by one
    product tree, so the longest words, those of the largest accepted
    prime denominator, go out and back as whole processes in well under a
    second.  With a space after every colon, 124,440 characters (one
    argument holds 131,072 bytes), the word of 1/9973 is no canonical
    text, so parse_word reads it entry by entry at full length; both
    words have negative positions only, so a + spelling would not apply"""
    words = {}
    for value, length in (("1/9973", 114480), ("-5000/9973", 114478)):
        words[value] = cli(["rat", "encode", value], 10).rstrip("\n")
        assert len(words[value]) == length, len(words[value])
        assert cli(["rat", "decode", "--word", words[value]], 10) == value + "\n"
    spaced = words["1/9973"].replace(":", ": ")
    assert len(spaced) == 124440, len(spaced)
    assert cli(["rat", "decode", "--word", spaced], 10) == "1/9973\n"


@check()
def cli_routing():
    """main(None) reads sys.argv; one reader parses every argv from the
    command table, and writes help and usage errors from the same
    rows, so a stray token after a command is refused under that
    command's usage and prog; a position past the codec bound is one
    error: line"""
    cli("--help", 10)
    assert cli("rat decode -h", 10).startswith("usage: zwords rat decode")
    assert cli("--json rat decode --word 2:2,3:1", 10) == '{"value": "2"}\n'
    err = cli("rat decode --word 1:1 extra", 10, code=2)
    assert err.splitlines()[-1] == "zwords rat decode: error: unrecognized arguments: extra"
    refused("rat decode --word 99999999999999999999:1", 10)


@check(timeout=10)
def witness_instances():
    """a member's distinct images come from two index ranges, so the 10^8
    grid pairs of bounds 100, 100 are 9 instances to colour, and the
    instance count is read as prod(k_i * k_-i)"""
    from zwords.search import Coloring, verify_witness
    from zwords.words import parse_word
    ws = [parse_word("-1:v,1:v"), parse_word("-3:v,3:v")]
    report = verify_witness(ws, Coloring(arity=2, seed=1), [100, 100])
    print(report)
    assert report.instances == 100000000


@check(timeout=20)
def four_word_pool():
    """R1 successors are built per (span, domain) class, matches looked up
    by entries and kept per subtuple, and derivative verdicts kept per
    open set, so the four-word pool's closure, largest
    hereditary part and indices answer in under a second, where the
    pairwise kernels took about half a minute; the index straight
    after the closure starts from the closure's keys, kept on the
    compiled pool, and answers as the index on a cold pool does"""
    from zwords.families import (_compile, cb_index, family_of, hereditary_closure,
                                 largest_hereditary)
    from zwords.words import extracted_sets
    base = tower_base(4)
    pool = extracted_sets(base).variables
    closed = hereditary_closure(family_of([base]), pool)
    print(len(pool), len(closed))
    assert (len(pool), len(closed)) == (1864, 2540)
    warm = cb_index(closed, pool, 2)
    assert largest_hereditary(closed, pool) == closed
    _compile.cache_clear()
    assert cb_index(closed, pool, 2) == warm == 2
    assert cb_index(closed, pool, 3) == 3


@check(timeout=60)
def five_word_pool():
    """the heredity test walks only the keys no earlier walk marked, and
    starts with the last closure's keys marked, so the index straight
    after the closure walks nothing and a cold call walks the base
    alone, reading its five slots, since slots are built on first
    read; the pool, closure, warm index, cold largest hereditary part
    and cold index at tau 2 take 5.8-7.2 s over four runs on a 2-vCPU
    VM (6.2-7.5 s when extracted_sets joined its products pairwise
    with concat); when every member's chains were walked, the pool,
    closure, one largest hereditary part and one index took about 47 s.
    A cold index then runs again traced: with the caller's references
    dropped, the compiled pool it leaves keeps 9.8 MB traced beside the
    pool's words under 3.10-3.13 (18.7 MB when each walked member's
    extraction set and a second word index were kept), gated at 14 MB.
    The peak RSS before it, 91-97 MB (102-107 MB then), is printed
    with no gate: no figure leaves headroom on both sides"""
    import gc
    import resource
    import tracemalloc
    from zwords.families import (_compile, cb_index, family_of, hereditary_closure,
                                 largest_hereditary)
    from zwords.words import extracted_sets
    base = tower_base(5)
    pool = extracted_sets(base).variables
    closed = hereditary_closure(family_of([base]), pool)
    print(len(pool), len(closed))
    assert (len(pool), len(closed)) == (52028, 76802)
    warm = cb_index(closed, pool, 2)
    _compile.cache_clear()
    assert largest_hereditary(closed, pool) == closed
    _compile.cache_clear()
    assert cb_index(closed, pool, 2) == warm == 2
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _compile.cache_clear()
    tracemalloc.start()
    assert cb_index(closed, pool, 2) == 2
    del base, pool, closed
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0] / 2 ** 20
    print("peak RSS: %.1f MB" % peak, "kept: %.1f MB traced" % kept, sep="\n")
    assert kept <= 14, kept


@check()
def family_closure_cli():
    """the four-word pool is the V lines of word ev, whose whole output,
    constants (E lines) included, is pinned by SHA-256; its hereditary
    closure (2,540 members, pinned by SHA-256) is already a tree, so
    the tree closure of that output prints the same bytes"""
    base = "-2:v,-1:v,1:v,2:v;-4:v,-3:v,3:v,4:v;-6:v,-5:v,5:v,6:v;-8:v,-7:v,7:v,8:v"
    ev = cli("word ev --tuple " + base, 20)
    pinned(ev, "c4e3f9c6a201e60e9f4403d30ff452439ae4e7e1a1ce0b9ee35b729684d21c81")
    pool = "".join(line[2:] + "\n" for line in ev.splitlines() if line.startswith("V\t"))
    assert pool.count("\n") == 1864
    with tempfile.TemporaryDirectory() as tmp:
        base_txt, pool_txt, closed_txt = (Path(tmp, name) for name in ("base", "pool", "closed"))
        base_txt.write_text(base + "\n")
        pool_txt.write_text(pool)
        closed = cli(["family", "closure", "--op", "hereditary", "--family", base_txt, "--pool",
                      pool_txt], 20)
        assert closed.count("\n") == 2540
        pinned(closed, "980cb6ca7e4babaec95ac81b226d1c049f17931d088ad8796682123dba15c853")
        closed_txt.write_text(closed)
        assert cli(["family", "closure", "--op", "tree", "--family", closed_txt], 20) == closed
        cbindex = ["family", "cbindex", "--tau", "2", "--family", closed_txt, "--pool", pool_txt]
        assert cli(cbindex, 20) == "2\n"


def main(names):
    """Run the named checks, or all, one child process each, in order."""
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print("unknown check %s; the checks are:" % ", ".join(unknown), *CHECKS, sep="\n  ",
              file=sys.stderr)
        return 2
    failed = 0
    for name in names or CHECKS:
        try:
            run = "import ci_checks; ci_checks.%s()" % name
            code = subprocess.run([sys.executable, "-c", run], cwd=ROOT, env=ENV,
                                  timeout=CHECKS[name]).returncode
            failure = code and "exit code %d" % code
        except subprocess.TimeoutExpired:
            failure = "timed out after %d s" % CHECKS[name]
        print("FAIL %s (%s)" % (name, failure) if failure else "PASS " + name, flush=True)
        failed += bool(failure)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
