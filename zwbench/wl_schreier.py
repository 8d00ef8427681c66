"""schreier-batch: membership, initial segments and canonical
decompositions on three ordinals, with some enumeration and restriction
checks.

`schreier` and `ordinals` do nearly all the work.  A batch operation runs
all three calls on SETS_PER_ORDINAL sets for each ordinal, so batches cost
about the same and the median falls among them.  Fresh sets have 14 to 20
elements, a minimum of 1 to 5 and gaps of 1 to 6, in proportions that
do not depend on the seed.  40% of the sets reuse a long suffix of a
recent fresh set behind a fresh short prefix, so a change to the Schreier
caches shows both its gain and any loss on repeated work.
"""

from __future__ import annotations

import random

import oracles

ORDINALS = ("w^2", "w^w", "w^(w+1)*2+w^3")
SETS_PER_ORDINAL = 2
BATCHES = 120
# One enumeration and one restriction check after every this many batches;
# their parameters cycle and do not depend on the seed, since their cost
# grows steeply with them.
SIDE_EVERY = 8
SHARED = (1, 3)  # set index mod 5 in SHARED: reuse a suffix (40%)
RECENT = 10  # shared sets reuse one of this many latest fresh sets


def _fresh_set(rng: random.Random, k: int) -> list[int]:
    """The k-th fresh set.  Its minimum, size and multiset of gaps cycle,
    so every seed gets the same mix of them; the seed orders the gaps."""
    gaps = [1 + j % 6 for j in range(13 + (k * 7) % 7)]
    rng.shuffle(gaps)
    out = [1 + k % 5]
    for gap in gaps:
        out.append(out[-1] + gap)
    return out


def _shared_set(rng: random.Random, recent: list[list[int]], k: int) -> list[int]:
    """The k-th shared set: a fresh short prefix in front of a long suffix
    of a recent fresh set."""
    base = rng.choice(recent)
    suffix = base[1 + k % (len(base) // 3):]
    head = rng.sample(range(1, suffix[0]), min(1 + k % 3, suffix[0] - 1))
    return sorted(head) + suffix


def generate(seed: int):
    rng = random.Random(seed)
    ops = []
    fresh: list[list[int]] = []
    n_sets = 0
    for k in range(BATCHES):
        batch = []
        for xi in ORDINALS:
            for _ in range(SETS_PER_ORDINAL):
                if n_sets % 5 in SHARED and fresh:
                    s = _shared_set(rng, fresh[-RECENT:], n_sets - len(fresh))
                else:
                    s = _fresh_set(rng, len(fresh))
                    fresh.append(s)
                n_sets += 1
                batch.append([xi, s])
        ops.append({"kind": "batch", "sets": batch})
        if k % SIDE_EVERY == SIDE_EVERY - 1:
            side = k // SIDE_EVERY
            ops.append({"kind": "enum", "xi": ORDINALS[side % 3], "n": 9 + side % 4})
            n = 1 + side % 3
            ops.append({"kind": "restriction", "xi": ORDINALS[(side + 1) % 3],
                        "n": n, "max": n + 8})
    return {"ordinals": list(ORDINALS)}, ops


def build(spec):
    import zwords

    return {"zw": zwords, "xi": {t: zwords.parse_ordinal(t) for t in spec["ordinals"]}}


def _set_line(member: bool, initial: bool, canon: str) -> str:
    return "member=%s initial=%s canon=%s" % (str(member).lower(), str(initial).lower(), canon)


def run(op, ctx) -> str:
    zw, ordinals = ctx["zw"], ctx["xi"]
    if op["kind"] == "enum":
        members = zw.enumerate_members(ordinals[op["xi"]], op["n"])
        return ";".join(",".join(map(str, s)) for s in members)
    if op["kind"] == "restriction":
        return str(zw.restriction_check(ordinals[op["xi"]], op["n"], op["max"])).lower()
    lines = []
    for text, s in op["sets"]:
        xi, s = ordinals[text], tuple(s)
        try:
            canon = str(zw.canonical_decompose(s, xi))
        except zw.SchreierError:
            canon = "error"
        lines.append(_set_line(zw.is_member(s, xi), zw.is_proper_initial(s, xi), canon))
    return "\n".join(lines)


def expected(spec, op) -> str:
    from zwords.ordinals import parse_ordinal

    if op["kind"] == "enum":
        xi = parse_ordinal(op["xi"])
        return ";".join(",".join(map(str, s)) for s in oracles.schreier_enum(xi, op["n"]))
    if op["kind"] == "restriction":
        xi = parse_ordinal(op["xi"])
        return str(oracles.schreier_restriction(xi, op["n"], op["max"])).lower()
    lines = []
    for text, s in op["sets"]:
        xi = parse_ordinal(text)
        orc = oracles.SchreierOracle(tuple(s))
        member = orc.member(xi)
        canon = oracles.schreier_canon(tuple(s), xi)
        lines.append(_set_line(member, orc.initial(0, xi) and not member,
                               "error" if canon is None else canon))
    return "\n".join(lines)
