"""witness-search: `hj_witness_search` and `xi_witness_search` under
seeded colorings.

`search` and `words` do the work.  Each class below has a fixed count, so
every seed gives the same mix; only the coloring seeds change.  Some
classes find their witness within the first few candidates of the
canonical order; the `exhaust` classes can hold no witness (an l-tuple
cannot carry an extracted chain longer than l), so they visit the whole
window whatever the coloring.  A search that streams candidates would
speed up the first kind and leave the second alone.  The counts put the
median inside `hj-early-small` and the tail percentile in the middle of
the twenty slowest searches (`hj-early-large` and `xi-exhaust-pair`).
`xi-early-pair` finds its witness anywhere from the first to about the
twentieth candidate, so its cost swings with the coloring seed; it is
kept few so that the total does not.
"""

from __future__ import annotations

import random

import oracles

# name: (search, count, arity, parameters)
CLASSES = {
    "hj-pair-small": ("hj", 24, 3, {"bounds": [1, 2], "n": 4, "window": 4}),
    "xi-early-pair": ("xi", 12, 2, {"xi": "w", "l": 2, "n0": 4, "window": 3}),
    "hj-early-small": ("hj", 36, 2, {"bounds": [2], "n": 3, "window": 4}),
    "hj-pair": ("hj", 8, 3, {"bounds": [1, 2], "n": 5, "window": 4}),
    "xi-early-one": ("xi", 8, 2, {"xi": "1", "l": 1, "n0": 2, "window": 3}),
    "hj-early-large": ("hj", 6, 3, {"bounds": [2], "n": 4, "window": 4}),
    "xi-exhaust-pair": ("xi", 14, 2, {"xi": "3", "l": 2, "n0": 4, "window": 3}),
}


def generate(seed: int):
    rng = random.Random(seed)
    ops = []
    for name, (kind, count, arity, params) in CLASSES.items():
        for _ in range(count):
            ops.append(dict(params, kind=kind, cls=name, arity=arity,
                            coloring=rng.getrandbits(63)))
    rng.shuffle(ops)
    return {"ordinals": sorted({c[3]["xi"] for c in CLASSES.values() if "xi" in c[3]})}, ops


def build(spec):
    import zwords

    return {"zw": zwords, "xi": {t: zwords.parse_ordinal(t) for t in spec["ordinals"]},
            "windows": {r: zwords.SearchWindow(r) for r in (3, 4)}}


def run(op, ctx) -> str:
    zw = ctx["zw"]
    coloring = zw.Coloring(arity=op["arity"], seed=op["coloring"])
    window = ctx["windows"][op["window"]]
    if op["kind"] == "hj":
        rep = zw.hj_witness_search(coloring, len(op["bounds"]), op["bounds"], op["n"], window)
    else:
        rep = zw.xi_witness_search(coloring, ctx["xi"][op["xi"]], op["l"], op["n0"], window)
    witness = ";".join(zw.format_word(w) for w in rep.witness) if rep.witness else None
    return oracles.render_search(witness, rep.color, rep.grid_size, rep.nodes_expanded,
                                 rep.candidates, rep.vacuous)


def expected(spec, op) -> str:
    from zwords.ordinals import parse_ordinal

    if op["kind"] == "hj":
        return oracles.hj_search(op["coloring"], op["arity"], op["bounds"], op["n"],
                                 op["window"])
    return oracles.xi_search(op["coloring"], op["arity"], parse_ordinal(op["xi"]), op["l"],
                             op["n0"], op["window"])
