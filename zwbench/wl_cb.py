"""cb-index: `hereditary_closure`, `largest_hereditary` and `cb_index`
over nested pools and extracted-variable pools.

`families` and `words` do the work; the `is_hereditary` precheck inside
`cb_index` is its largest part.  A nested pool has `groups` domain layers
(+-(2g-1), +-2g) with `variants` seeded letter patterns per layer; its
base family is a fixed share of the R1-increasing m-tuples of pool words.
An extracted-variable pool is the variable extraction set of a seeded
tuple of two or three words.  `cb_index` runs on every instance except the
three-word extractions, whose index takes seconds.  The fourteen
`nested-4x3-m2` indices are the slowest operations after the three-word
closures, so the tail percentile falls in the middle of them.
"""

from __future__ import annotations

import random

import oracles

# name: (count, pool kind, parameters)
INSTANCES = {
    "nested-3x3-m2": (6, "nested", {"groups": 3, "variants": 3, "m": 2, "tau": 3}),
    "nested-4x2-m2": (6, "nested", {"groups": 4, "variants": 2, "m": 2, "tau": 4}),
    "nested-4x3-m1": (8, "nested", {"groups": 4, "variants": 3, "m": 1, "tau": 4}),
    "nested-4x3-m2": (14, "nested", {"groups": 4, "variants": 3, "m": 2, "tau": 4}),
    "extracted-2": (10, "extracted", {"words": 2, "tau": 2}),
    "extracted-3": (2, "extracted", {"words": 3, "tau": None}),
}
BASE_SHARE = 0.7


def _nested_pool(rng: random.Random, groups: int, variants: int):
    pool = []
    for g in range(1, groups + 1):
        outer, inner = 2 * g, 2 * g - 1
        pairs = [(n, p) for n in [0] + list(range(-inner, 0)) for p in [0] + list(range(1, inner + 1))]
        for neg, pos in rng.sample(pairs, variants):
            pool.append(((-outer, 0), (-inner, neg), (inner, pos), (outer, 0)))
    return pool


def _chain_word(rng: random.Random, lo: int):
    """A two-sided variable word on lo <= |pos| <= lo + 1 with the
    variable at +-lo."""
    out = []
    for p in (lo, lo + 1):
        for sign in (-1, 1):
            if p == lo:
                out.append((sign * p, 0))
            elif rng.random() < 0.6:
                out.append((sign * p, rng.choice([0, sign * rng.randint(1, p)])))
    return tuple(sorted(out))


def generate(seed: int):
    rng = random.Random(seed)
    instances = []
    for name, (count, kind, params) in INSTANCES.items():
        for _ in range(count):
            inst = {"name": name, "kind": kind, "tau": params["tau"]}
            if kind == "nested":
                pool = _nested_pool(rng, params["groups"], params["variants"])
                full = sorted(oracles.chains(pool) - {()}, key=lambda bw: (len(bw), bw))
                full = [bw for bw in full if len(bw) == params["m"]]
                base = sorted(rng.sample(full, round(len(full) * BASE_SHARE)))
                inst.update(pool=pool, base=base,
                            extra=[bw for bw in full if bw not in base])
            else:
                words, lo = [], 1
                for _ in range(params["words"]):
                    words.append(_chain_word(rng, lo))
                    lo += 2
                inst.update(tuple=words, base=[tuple(words)], extra=[])
            instances.append(inst)
    order = list(range(len(instances)))
    rng.shuffle(order)
    ops = []
    for i in order:
        ops.append({"instance": i, "kind": "closure"})
        ops.append({"instance": i, "kind": "largest"})
        if instances[i]["tau"]:
            ops.append({"instance": i, "kind": "cb_index", "tau": instances[i]["tau"]})
    return {"instances": instances}, ops


def build(spec):
    import zwords

    def word(w):
        return zwords.make_word(w)

    built = []
    for inst in spec["instances"]:
        if inst["kind"] == "nested":
            pool = frozenset(word(w) for w in inst["pool"])
        else:
            pool = zwords.extracted_sets(zwords.make_tuple(word(w) for w in inst["tuple"])).variables
        base = zwords.family_of(zwords.make_tuple(word(w) for w in bw) for bw in inst["base"])
        extra = [zwords.make_tuple(word(w) for w in bw) for bw in inst["extra"]]
        built.append({"pool": pool, "base": base, "extra": extra})
    return {"zw": zwords, "instances": built}


def _render_family(members) -> str:
    return "\n".join(sorted(members))


def run(op, ctx) -> str:
    """Each instance runs closure, largest, cb_index in that order; the
    later two start from the closure's result."""
    zw = ctx["zw"]
    inst = ctx["instances"][op["instance"]]
    if op["kind"] == "closure":
        inst["closed"] = zw.hereditary_closure(inst["base"], inst["pool"])
        return _render_family(zw.serialize_tuple(bw) for bw in inst["closed"].members)
    if op["kind"] == "largest":
        mixed = zw.family_of(inst["closed"].members | set(inst["extra"]))
        kept = zw.largest_hereditary(mixed, inst["pool"])
        return _render_family(zw.serialize_tuple(bw) for bw in kept.members)
    try:
        return str(zw.cb_index(inst["closed"], inst["pool"], op["tau"]))
    except zw.FamilyError:
        return "error"


def expected(spec, op) -> str:
    inst = spec["instances"][op["instance"]]
    if inst["kind"] == "nested":
        pool = frozenset(tuple(map(tuple, w)) for w in inst["pool"])
    else:
        pool = frozenset(oracles.extracted(tuple(tuple(map(tuple, w)) for w in inst["tuple"]))[1])
    base = {tuple(tuple(map(tuple, w)) for w in bw) for bw in inst["base"]}
    closed = oracles.closure(base, pool)
    if op["kind"] == "closure":
        return _render_family(oracles.fmt_tuple(bw) for bw in closed)
    if op["kind"] == "largest":
        extra = {tuple(tuple(map(tuple, w)) for w in bw) for bw in inst["extra"]}
        return _render_family(oracles.fmt_tuple(bw) for bw in oracles.largest(closed | extra, pool))
    index = oracles.cb_index(closed, pool, op["tau"])
    return "error" if index is None else str(index)
