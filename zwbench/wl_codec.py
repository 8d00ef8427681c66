"""codec-cli: whole `zwords` commands through `cli.main(argv)` in process.

`cli` and `rationals` do the work.  Denominators come in two classes:
smooth ones (dividing 8!) give words of a few digits; a prime factor p
drawn from [1000, 1100) gives about p digits.  Decoding the prime class
is the latency tail: there are enough of them that the tail percentile
falls in the middle of the class, and their primes are stratified over
the range so the tail is the same on every seed.  No single command
dominates a pass.
Word commands use short words; a few malformed commands check the
`error:` exit path.  `rat encode` takes its value after `--`, since
argparse reads a bare `-3/7` as an option.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import oracles

COUNTS = {"enc_prime": 10, "dec_prime": 22, "enc": 30, "dec": 30, "precedes": 20,
          "qxi": 15, "check": 10, "subst": 10, "merge": 10}
PRIME_LO, PRIME_HI = 1000, 1100
SMOOTH = 40320  # 8!
QXI_ORDINALS = ("1", "2", "w", "w+1", "w^2")
MALFORMED = (
    ["word", "check", "--word", "1:5"],
    ["word", "subst", "--word", "-1:v,1:v", "--p", "0", "--q", "2"],
    ["rat", "encode", "0"],
    ["rat", "decode", "--word", "2:1,1:1"],
    ["rat", "precedes", "--a", "1", "--b", "1/2"],
)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _digits_word(rng: random.Random, lo: int, hi: int):
    """A two-sided digit word with nonzero digits at +-lo and random
    in-bound digits elsewhere on lo <= |pos| <= hi."""
    entries = []
    for p in range(lo, hi + 1):
        for sign in (-1, 1):
            d = rng.randint(1 if p == lo else 0, p)
            if d:
                entries.append((sign * p, sign * d))
    return tuple(sorted(entries))


def _smooth_rational(rng: random.Random) -> Fraction:
    den = rng.choice([d for d in range(2, 64) if SMOOTH % d == 0])
    return Fraction(rng.randrange(1, den), den) + rng.randint(-40, 40)


def generate(seed: int):
    rng = random.Random(seed)
    ops = []
    primes = [p for p in range(PRIME_LO, PRIME_HI) if _is_prime(p)]
    strata = COUNTS["enc_prime"] + COUNTS["dec_prime"]
    chosen = []
    for k in range(strata):
        lo, hi = len(primes) * k // strata, len(primes) * (k + 1) // strata
        chosen.append(primes[rng.randrange(lo, max(hi, lo + 1))])
    rng.shuffle(chosen)
    for k, p in enumerate(chosen):
        q = Fraction(rng.randrange(1, p), p) + rng.randint(-5, 5)
        if k < COUNTS["enc_prime"]:
            ops.append(["rat", "encode", "--", str(q)])
        else:
            ops.append(["rat", "decode", "--word", oracles.fmt_word(oracles.encode(q))])
    for _ in range(COUNTS["enc"]):
        ops.append(["rat", "encode", "--", str(_smooth_rational(rng))])
    for _ in range(COUNTS["dec"]):
        ops.append(["rat", "decode", "--word",
                    oracles.fmt_word(oracles.encode(_smooth_rational(rng)))])
    for k in range(COUNTS["precedes"]):
        a = _digits_word(rng, 1, rng.randint(1, 3))
        if k % 2:
            b = _digits_word(rng, a[-1][0] + 1, a[-1][0] + rng.randint(1, 2))
        else:
            b = _digits_word(rng, 1, rng.randint(1, 4))
        ops.append(["rat", "precedes", "--a", str(oracles.value_of(a)),
                    "--b", str(oracles.value_of(b))])
    for k in range(COUNTS["qxi"]):
        values, lo = [], rng.randint(1, 3)
        for _ in range(rng.randint(2, 4)):
            hi = lo + rng.randint(0, 1)
            values.append(str(oracles.value_of(_digits_word(rng, lo, hi))))
            lo = hi + 1
        ops.append(["rat", "qxi", "--xi", QXI_ORDINALS[k % len(QXI_ORDINALS)],
                    "--values", ",".join(values)])
    for kind in ("check", "subst", "merge"):
        for _ in range(COUNTS[kind]):
            w = _random_word(rng)
            if kind == "check":
                ops.append(["word", "check", "--word", oracles.fmt_word(w)])
            elif kind == "subst":
                p, q = (0, 0) if rng.random() < 0.2 else (rng.randint(1, 6), rng.randint(1, 6))
                ops.append(["word", "subst", "--word", oracles.fmt_word(w),
                            "--p", str(p), "--q", str(q)])
            else:
                ops.append(["word", "merge", "--a", oracles.fmt_word(w),
                            "--b", oracles.fmt_word(_random_word(rng))])
    ops.extend(list(argv) for argv in MALFORMED)
    rng.shuffle(ops)
    return {}, [{"argv": argv} for argv in ops]


def _random_word(rng: random.Random):
    positions = sorted(rng.sample([p for p in range(-6, 7) if p], rng.randint(1, 6)))
    return tuple((p, rng.choice([0, rng.randint(1, abs(p)) * (1 if p > 0 else -1)]))
                 for p in positions)


def build(spec):
    from zwords import cli

    return {"cli": cli}


def render(code: int, out: str, err: str) -> str:
    text = "rc=%d\n%s" % (code, out)
    if err:
        text += "stderr: error\n" if err.startswith("error:") else "stderr: %s" % err
    return text


def run(op, ctx) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx["cli"].main(op["argv"])
    return render(code, out.getvalue(), err.getvalue())


def expected(spec, op) -> str:
    from zwords.ordinals import parse_ordinal

    argv = op["argv"]
    if argv in [list(m) for m in MALFORMED]:
        return render(1, "", "error:")
    cmd = tuple(argv[:2])
    flags = dict(zip(argv[2::2], argv[3::2]))
    if cmd == ("rat", "encode"):
        line = oracles.fmt_word(oracles.encode(Fraction(argv[-1])))
    elif cmd == ("rat", "decode"):
        line = str(oracles.value_of(oracles.parse_word(flags["--word"])))
    elif cmd == ("rat", "precedes"):
        a = oracles.encode(Fraction(flags["--a"]))
        b = oracles.encode(Fraction(flags["--b"]))
        line = str(oracles.surrounds(a, b)).lower()
    elif cmd == ("rat", "qxi"):
        words = [oracles.encode(Fraction(v)) for v in flags["--values"].split(",")]
        anchors = tuple(min(p for p, _ in w if p > 0) for w in words)
        line = str(oracles.schreier_member(anchors, parse_ordinal(flags["--xi"]))).lower()
    elif cmd == ("word", "check"):
        w = oracles.parse_word(flags["--word"])
        line = "class=%s core=%s length=%d" % (
            "variable" if oracles.is_variable(w) else "constant",
            str(oracles.is_core(w)).lower(), len(w))
    elif cmd == ("word", "subst"):
        w = oracles.parse_word(flags["--word"])
        line = oracles.fmt_word(oracles.subst(w, int(flags["--p"]), int(flags["--q"])))
    elif cmd == ("word", "merge"):
        line = oracles.fmt_word(oracles.merge(oracles.parse_word(flags["--a"]),
                                              oracles.parse_word(flags["--b"])))
    else:
        raise ValueError("no oracle for %r" % argv)
    return render(0, line + "\n", "")
