"""Acceptance gate: each criterion runs at its stated scale and prints
one pass/fail line.  Everything here is exact arithmetic; no tolerances
are needed beyond equality."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial

from zwords.ordinals import OMEGA, ONE, from_int, omega_power, parse_ordinal
from zwords.schreier import canonical_decompose, enumerate_members, is_member, restriction_check
from zwords.words import (
    VARIABLE,
    concat,
    make_tuple,
    make_word,
    merge,
    rel_r1,
    substitute,
    word_sort_key,
)
from zwords.families import cb_index, family_of, hereditary_closure, set_family_cb_index
from zwords.rationals import decode, encode, evaluate
from zwords.search import (
    Coloring,
    SearchWindow,
    SemigroupSpec,
    fs_enumerate,
    hj_witness_search,
    semigroup_pattern,
    verify_witness,
)
from _oracles import (
    brute_digit_words,
    powerset,
    reference_decompositions,
    reference_member,
    witness_candidates,
)


def report(number, name, passed):
    print("ACCEPTANCE %2d %-28s %s" % (number, name, "PASS" if passed else "FAIL"))
    assert passed, "acceptance criterion %d (%s) failed" % (number, name)


def test_criterion_1_codec_round_trip():
    from math import gcd
    ok = True
    cases = 0
    divisors = [d for d in range(1, 721) if 720 % d == 0]
    for den in divisors:
        for num in range(-200, 201):
            if num == 0 or gcd(abs(num), den) != 1:
                continue
            q = Fraction(num, den)
            ok = ok and decode(encode(q)) == q
            cases += 1
    report(1, "codec round trip (%d cases)" % cases, ok and cases > 4000)


def test_criterion_2_codec_uniqueness_oracle():
    table = {}
    for entries, value in brute_digit_words(4):
        table.setdefault(value, set()).add(entries)
    ok = True
    checked = 0
    for value, reps in table.items():
        if value == 0 or abs(value) > 5 or 24 % value.denominator:
            continue
        ok = ok and len(reps) == 1 and encode(value).entries == next(iter(reps))
        checked += 1
    report(2, "codec uniqueness (%d values)" % checked, ok and checked > 100)


def test_criterion_3_additivity():
    rng = random.Random(271828)
    ok = True
    for _ in range(1000):
        inner_dom = sorted(rng.sample([-2, -1, 1, 2], 2))
        while not (inner_dom[0] < 0 < inner_dom[-1]):
            inner_dom = sorted(rng.sample([-2, -1, 1, 2], 2))
        w1 = make_word({p: (rng.randint(1, abs(p)) if p > 0 else -rng.randint(1, abs(p)))
                        for p in inner_dom})
        outer_dom = sorted(rng.sample(range(-6, -2), rng.randint(1, 2))
                           + rng.sample(range(3, 7), rng.randint(1, 2)))
        w2 = make_word({p: (rng.randint(1, abs(p)) if p > 0 else -rng.randint(1, abs(p)))
                        for p in outer_dom})
        ok = ok and rel_r1(w1, w2)
        ok = ok and evaluate(concat(w1, w2)) == evaluate(w1) + evaluate(w2)
    report(3, "codec additivity (1000 pairs)", ok)


def test_criterion_4_schreier_oracle_equivalence():
    xis = [ONE, from_int(2), from_int(3), OMEGA, parse_ordinal("w+1"),
           parse_ordinal("w*2"), omega_power(from_int(2))]
    ok = True
    for xi in xis:
        members = set()
        for s in powerset(range(1, 13)):
            fast = is_member(s, xi)
            ok = ok and fast == reference_member(s, xi)
            if fast:
                members.add(s)
        for s in members:
            for cut in range(1, len(s)):
                ok = ok and s[:cut] not in members
    report(4, "schreier oracle + thinness", ok)


def test_criterion_5_restriction_identity():
    ok = True
    for xi in [from_int(2), from_int(3), OMEGA, parse_ordinal("w+1"),
               omega_power(from_int(2))]:
        for n in range(1, 7):
            ok = ok and restriction_check(xi, n, 12)
    report(5, "restriction identity", ok)


def test_criterion_6_canonical_representation():
    ok = True
    for xi in [from_int(2), from_int(3), OMEGA]:
        for size in range(1, 11):
            for s in combinations(range(1, 11), size):
                dec = canonical_decompose(s, xi)
                ok = ok and dec.rejoin() == s
                candidates = reference_decompositions(s, xi)
                ok = ok and candidates == [(dec.blocks, dec.remainder)]
    report(6, "canonical representation", ok)


def test_criterion_7_operator_identities():
    rng = random.Random(31415)
    ok = True

    def random_word(span=5):
        pool = [p for p in range(-span, span + 1) if p]
        dom = sorted(rng.sample(pool, rng.randint(1, 4)))
        entries = {}
        for p in dom:
            letter = rng.randint(0, abs(p))
            entries[p] = letter if p > 0 else -letter
        return make_word(entries)

    def random_surrounding(inner, span=9):
        lo, hi = inner.dom[0], inner.dom[-1]
        dom = sorted(rng.sample([p for p in range(-span, lo) if p], rng.randint(1, 2))
                     + rng.sample([p for p in range(hi + 1, span + 1) if p],
                                  rng.randint(1, 2)))
        entries = {}
        for p in dom:
            letter = rng.randint(0, abs(p))
            entries[p] = letter if p > 0 else -letter
        return make_word(entries)

    # identity, domain preservation, constant image
    for _ in range(500):
        w = random_word()
        ok = ok and substitute(w, 0, 0) == w
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        image = substitute(w, p, q)
        ok = ok and image.dom == w.dom and not image.is_variable_word

    # distribution over the star product, merge/concat agreement
    for _ in range(500):
        inner = random_word(span=3)
        outer = random_surrounding(inner)
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        ok = ok and substitute(concat(inner, outer), p, q) \
            == concat(substitute(inner, p, q), substitute(outer, p, q))
        ok = ok and merge(inner, outer) == concat(inner, outer)

    # merge associativity / idempotence
    for _ in range(500):
        a, b, c = random_word(), random_word(), random_word()
        ok = ok and merge(merge(a, b), c) == merge(a, merge(b, c))
        ok = ok and merge(a, a) == a

    # chain property, exhaustively on domains within the +-4 window
    positions = [p for p in range(-4, 5) if p]
    bit = {p: 1 << i for i, p in enumerate(positions)}
    domains = []
    negs = [p for p in positions if p < 0]
    poss = [p for p in positions if p > 0]
    for nn in range(1, 5):
        for neg in combinations(negs, nn):
            for pn in range(1, 5):
                for pos in combinations(poss, pn):
                    dom = neg + pos
                    mask = 0
                    for p in dom:
                        mask |= bit[p]
                    domains.append((mask, dom[0], dom[-1]))

    def span_mask(lo, hi):
        m = 0
        for p in positions:
            if lo <= p <= hi:
                m |= bit[p]
        return m

    def rel(a, b):
        return (b[0] & span_mask(a[1], a[2])) == 0 and b[1] < a[1] and b[2] > a[2]

    chain_checks = 0
    for w in domains:
        for y in domains:
            if not rel(w, y):
                continue
            m = (w[0] | y[0], min(w[1], y[1]), max(w[2], y[2]))
            for z in domains:
                if rel(m, z):
                    yz = (y[0] | z[0], min(y[1], z[1]), max(y[2], z[2]))
                    ok = ok and rel(w, yz)
                    chain_checks += 1
    report(7, "operator identities (%d chain)" % chain_checks, ok and chain_checks > 0)


def test_criterion_8_cb_indices():
    ok = True
    for m in (1, 2, 3):
        ok = ok and set_family_cb_index(m, 12, 3) == m + 1

    def nested_pool():
        words = []
        for g in range(1, 5):
            a, b = 2 * g, 2 * g - 1
            for neg, pos in [(VARIABLE, VARIABLE), (-1, 1), (-1, VARIABLE)]:
                words.append(make_word({-a: VARIABLE, -b: neg, b: pos, a: VARIABLE}))
        return frozenset(words)

    pool = nested_pool()
    ok = ok and len(pool) == 12

    def full_tuples(length):
        out = []

        def grow(prefix):
            if len(prefix) == length:
                out.append(make_tuple(prefix))
                return
            for w in sorted(pool, key=word_sort_key):
                if not prefix or rel_r1(prefix[-1], w):
                    grow(prefix + [w])

        grow([])
        return out

    for m in (1, 2, 3):
        fam = hereditary_closure(family_of(full_tuples(m)), pool)
        ok = ok and cb_index(fam, pool, 4) == m + 1
    report(8, "cantor-bendixson indices", ok)


def test_criterion_9_witness_soundness():
    window = SearchWindow(4)
    ok = True
    found = 0
    discriminating = 0
    for seed in range(100):
        coloring = Coloring(arity=2, seed=seed)
        result = hj_witness_search(coloring, 1, [2], 2, window)
        if result.found:
            found += 1
            ok = ok and verify_witness(result.witness, coloring, [2]).monochromatic
        candidates = witness_candidates(1, 2, window)
        verdicts = [verify_witness(ws, coloring, [2]).monochromatic
                    for ws in candidates]
        ok = ok and result.found == any(verdicts)
        if not all(verdicts):
            discriminating += 1
    # the coloring must actually reject candidates, not accept everything
    report(9, "witness soundness (%d found, %d discriminating)" % (found, discriminating),
           ok and found == 100 and discriminating > 50)


def test_criterion_10_fs_psi_layer():
    ok = True
    xs = [10 ** i for i in range(1, 7)]
    from zwords.search import INT_LINEAR
    values = fs_enumerate(xs, INT_LINEAR)
    ok = ok and len(values) == 2 ** 6 - 1
    ok = ok and fs_enumerate([1, 10, 100], INT_LINEAR) == {1, 10, 100, 11, 101, 110, 111}

    x = lambda n: Fraction(10) ** n
    spec = SemigroupSpec(op=lambda a, b: a + b, y=lambda l, n: abs(l) * x(n),
                         commutative=True)
    ws = [make_word({-s: VARIABLE, s: VARIABLE}) for s in range(1, 17)]
    for n in (1, 2, 3, 4):
        res0 = semigroup_pattern(ws, spec, n, 0, 0)
        a_n = res0.value
        b_n = sum((x(t) for t in res0.i_positions), Fraction(0))
        c_n = sum((x(t) for t in res0.j_positions), Fraction(0))
        for i in range(0, n + 1):
            for j in range(0, n + 1):
                if (i == 0) != (j == 0):
                    continue
                ok = ok and semigroup_pattern(ws, spec, n, i, j).value \
                    == a_n + i * b_n + j * c_n
        ok = ok and a_n in fs_enumerate([x(t) for t in res0.fixed_positions], spec)
        ok = ok and b_n in fs_enumerate([x(t) for t in res0.i_positions], spec)
        ok = ok and c_n in fs_enumerate([x(t) for t in res0.j_positions], spec)
    report(10, "fs/psi layer", ok)
