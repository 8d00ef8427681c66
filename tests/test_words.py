import random
import re
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from zwords import words
from zwords.words import (
    ABS,
    EMPTY_TUPLE,
    VARIABLE,
    DominationProfile,
    LocatedWord,
    OrderlyTuple,
    WordError,
    _image_entries,
    _image_ranges,
    _pair_rank,
    bound_pair_index,
    concat,
    extracted_sets,
    first_clamp,
    format_profile,
    format_word,
    h_map,
    is_extraction,
    make_tuple,
    make_word,
    merge,
    pair_enumeration,
    parse_profile,
    parse_word,
    project_positive,
    rel_r1,
    rel_r2,
    substitute,
    substitute_nat,
    word_sort_key,
)

CONST2 = DominationProfile("const", 2)


def random_word(rng, span=5, profile=ABS, force_variable=False, constant=False):
    pool = [p for p in range(-span, span + 1) if p]
    dom = sorted(rng.sample(pool, rng.randint(1, 4)))
    entries = {}
    for p in dom:
        k = profile.bound(p)
        if constant:
            entries[p] = rng.randint(1, k) if p > 0 else -rng.randint(1, k)
        else:
            letter = rng.randint(0, k)
            entries[p] = letter if p > 0 else -letter
    if force_variable and all(v != VARIABLE for v in entries.values()):
        entries[dom[0]] = VARIABLE
    return make_word(entries, profile)


def surrounding_word(rng, inner, span=9, constant=False):
    """A word whose domain splits strictly around the span of `inner`."""
    lo, hi = inner.dom[0], inner.dom[-1]
    profile = inner.profile
    left_pool = [p for p in range(-span, lo) if p]
    right_pool = [p for p in range(hi + 1, span + 1) if p]
    dom = sorted(rng.sample(left_pool, rng.randint(1, 2))
                 + rng.sample(right_pool, rng.randint(1, 2)))
    entries = {}
    for p in dom:
        k = profile.bound(p)
        if constant:
            entries[p] = rng.randint(1, k) if p > 0 else -rng.randint(1, k)
        else:
            letter = rng.randint(0, k)
            entries[p] = letter if p > 0 else -letter
    return make_word(entries, profile)


def test_make_word_classification():
    w = make_word({-1: VARIABLE, 1: VARIABLE})
    assert w.is_variable_word and w.is_core
    c = make_word({-2: -2, 3: 1})
    assert not c.is_variable_word and c.is_core
    assert not make_word({1: 1}).is_core
    assert not make_word({-1: VARIABLE, 1: 1}).is_core  # variable on one side only


def test_core_class_matches_reference():
    # one pass over the ascending entries answers as the two-sided reading
    # does, on words of either class, every profile kind and both sides
    from _oracles import reference_is_core
    from zwords.families import _is_core_variable

    rng = random.Random(41)
    profiles = (ABS, CONST2, parse_profile("table:-2=1,-1=2,1=2,3=1"))
    seen = set()
    for i in range(3000):
        profile = profiles[i % 3]
        if profile.kind == "table":
            entries = {p: rng.choice([VARIABLE, 1]) * (1 if p > 0 else -1)
                       for p in rng.sample((-2, -1, 1, 3), rng.randint(1, 4))}
            w = make_word(entries, profile)
        else:
            w = random_word(rng, profile=profile, force_variable=i % 4 == 0,
                            constant=i % 4 == 1)
        core = reference_is_core(w)
        assert w.is_core == core, w
        assert _is_core_variable(w) == (w.is_variable_word and core), w
        seen.add((w.is_variable_word, core))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_make_word_errors():
    with pytest.raises(WordError):
        make_word({})
    with pytest.raises(WordError):
        make_word({0: 1})
    with pytest.raises(WordError):
        make_word({1: 2})  # bound k_1 = 1
    with pytest.raises(WordError):
        make_word({1: -1})  # sign mismatch
    with pytest.raises(WordError):
        make_word({-2: 1})


def test_concat():
    assert concat(make_word({1: 1}), make_word({2: VARIABLE})) == make_word({1: 1, 2: VARIABLE})
    assert concat(make_word({-1: -1}), make_word({1: 1})) == make_word({-1: -1, 1: 1})
    with pytest.raises(WordError):
        concat(make_word({1: 1}), make_word({1: VARIABLE}))


def test_rel_r1():
    w = make_word({-1: VARIABLE, 1: VARIABLE})
    u = make_word({-3: VARIABLE, 3: VARIABLE})
    assert rel_r1(w, u)
    assert not rel_r1(u, w)
    assert not rel_r1(w, make_word({5: 1}))  # no two-part split


def test_rel_r2():
    assert rel_r2(make_word({1: 1, 3: VARIABLE}), make_word({5: 1}))
    assert not rel_r2(make_word({1: 1, 5: VARIABLE}), make_word({3: 1}))
    assert not rel_r2(make_word({2: 1}), make_word({2: 2, 3: 1}))
    with pytest.raises(WordError):
        rel_r2(make_word({-1: -1, 1: 1}), make_word({2: 1}))


def test_merge_rules():
    assert merge(make_word({1: 1}, CONST2), make_word({1: 2}, CONST2)) == make_word({1: 2}, CONST2)
    assert merge(make_word({-1: -1}, CONST2), make_word({-1: -2}, CONST2)) \
        == make_word({-1: -2}, CONST2)
    w = make_word({-1: VARIABLE, 1: 1}, CONST2)
    assert merge(w, w) == w
    assert merge(make_word({1: 1}, CONST2), make_word({1: VARIABLE}, CONST2)) \
        == make_word({1: VARIABLE}, CONST2)


def test_merge_random_properties():
    rng = random.Random(99)
    for _ in range(500):
        a = random_word(rng)
        b = random_word(rng)
        c = random_word(rng)
        assert merge(a, a) == a
        assert merge(merge(a, b), c) == merge(a, merge(b, c))
    for _ in range(500):
        inner = random_word(rng, span=3)
        outer = surrounding_word(rng, inner)
        assert rel_r1(inner, outer)
        assert merge(inner, outer) == concat(inner, outer)


def test_substitute():
    assert substitute(make_word({-2: VARIABLE, 1: VARIABLE}), 1, 2) == make_word({-2: -2, 1: 1})
    w = make_word({-1: VARIABLE, 1: VARIABLE})
    assert substitute(w, 0, 0) is w
    assert substitute(make_word({2: VARIABLE}), 5, 1) == make_word({2: 2})
    with pytest.raises(WordError):
        substitute(w, 1, 0)
    with pytest.raises(WordError):
        substitute(w, 0, 3)


def test_first_clamp():
    w = make_word({-3: VARIABLE, -1: -1, 2: VARIABLE, 5: VARIABLE})
    assert first_clamp(w, 2, 3) is None
    assert first_clamp(w, 3, 3) == (3, 2)
    assert first_clamp(w, 2, 4) == (4, -3)
    assert first_clamp(w, 6, 4) == (4, -3)
    assert first_clamp(make_word({-1: -1, 1: 1}), 9, 9) is None


def test_substitute_nat():
    assert substitute_nat(make_word({3: VARIABLE}), 2) == make_word({3: 2})
    w = make_word({1: VARIABLE, 4: 2})
    assert substitute_nat(w, 0) is w
    assert substitute_nat(make_word({1: VARIABLE}), 4) == make_word({1: 1})
    with pytest.raises(WordError):
        substitute_nat(make_word({-1: VARIABLE}), 1)


def test_substitution_preserves_domain_and_constants():
    rng = random.Random(4242)
    for _ in range(1000):
        w = random_word(rng)
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        image = substitute(w, p, q)
        assert image.dom == w.dom
        assert not image.is_variable_word
        if not w.is_variable_word:
            assert image == w


def test_substitute_distributes_over_concat():
    rng = random.Random(31337)
    for _ in range(500):
        inner = random_word(rng, span=3)
        outer = surrounding_word(rng, inner)
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        lhs = substitute(concat(inner, outer), p, q)
        rhs = concat(substitute(inner, p, q), substitute(outer, p, q))
        assert lhs == rhs


def _ltilde0_domains(span):
    """All domains over [-span..span] with both sides nonempty, as
    (bitmask, min, max) triples."""
    positions = [p for p in range(-span, span + 1) if p]
    bit = {p: 1 << i for i, p in enumerate(positions)}
    out = []
    negs = [p for p in positions if p < 0]
    poss = [p for p in positions if p > 0]
    for nn in range(1, len(negs) + 1):
        for neg in combinations(negs, nn):
            for pn in range(1, len(poss) + 1):
                for pos in combinations(poss, pn):
                    dom = neg + pos
                    mask = 0
                    for p in dom:
                        mask |= bit[p]
                    out.append((mask, dom[0], dom[-1], dom))
    return positions, bit, out


def test_chain_property_exhaustive_window_4():
    # if w <R1 y and (w+y) <R1 z then w <R1 (y+z), on all domain triples
    positions, bit, domains = _ltilde0_domains(4)

    def span_mask(lo, hi):
        m = 0
        for p in positions:
            if lo <= p <= hi:
                m |= bit[p]
        return m

    def rel(a, b):
        return (b[0] & span_mask(a[1], a[2])) == 0 and b[1] < a[1] and b[2] > a[2]

    # cross-check the mask relation against rel_r1 on actual words
    rng = random.Random(5)
    sample = rng.sample(domains, 30)
    for a in sample:
        for b in sample:
            wa = make_word({p: VARIABLE for p in a[3]})
            wb = make_word({p: VARIABLE for p in b[3]})
            assert rel(a, b) == rel_r1(wa, wb)

    checked = 0
    for w in domains:
        for y in domains:
            if not rel(w, y):
                continue
            m = (w[0] | y[0], min(w[1], y[1]), max(w[2], y[2]))
            for z in domains:
                if rel(m, z):
                    yz = (y[0] | z[0], min(y[1], z[1]), max(y[2], z[2]))
                    assert rel(w, yz)
                    checked += 1
    assert checked > 0


def test_extracted_sets_empty_tuple():
    es = extracted_sets(make_tuple([]))
    assert es.constants == frozenset() and es.variables == frozenset()


def test_extracted_sets_single_word():
    w = make_word({-1: VARIABLE, 1: VARIABLE})
    es = extracted_sets(make_tuple([w]))
    assert es.constants == frozenset({make_word({-1: -1, 1: 1})})
    assert es.variables == frozenset({w})


def test_extracted_sets_grid_sizes():
    # a single word at tuple position n has k_n * k_-n constant images
    for n in (1, 2, 3):
        w = make_word({-6: VARIABLE, 6: VARIABLE})
        es = extracted_sets(make_tuple([w]), indices=[n])
        assert len(es.constants) == n * n


def test_extracted_sets_contains_members_and_is_finite():
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, -2: -1, 2: 1, 3: VARIABLE})
    bw = make_tuple([w1, w2])
    es = extracted_sets(bw)
    assert w1 in es.variables and w2 in es.variables
    assert all(not v.is_variable_word for v in es.constants)
    assert all(v.is_variable_word for v in es.variables)
    with pytest.raises(WordError):
        extracted_sets(make_tuple([make_word({-1: -1, 1: 1})]))


def test_extracted_sets_product_cap(monkeypatch):
    # each member is left out, kept or one of its images: at index 1 the
    # grid has one pair, at index 2 four, so 3 * 6 - 1 = 17 products
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, -2: -1, 2: 1, 3: VARIABLE})
    bw = make_tuple([w1, w2])
    es = extracted_sets(bw)
    monkeypatch.setattr(words, "MAX_PRODUCTS", 17)
    assert extracted_sets(bw) == es
    monkeypatch.setattr(words, "MAX_PRODUCTS", 16)
    with pytest.raises(WordError, match="more than 16 star products"):
        extracted_sets(bw)


def test_extracted_sets_match_reference():
    from _oracles import reference_extracted, sampled_candidates

    checked = 0
    for radius in (1, 2, 3, 4):
        for ws in sampled_candidates(radius):
            assert extracted_sets(make_tuple(ws)) == reference_extracted(ws)
            checked += 1
    assert checked > 300


def test_extracted_sets_of_one_position_members():
    # a member on one position joins into a tuple of one entry, not into
    # the entry itself; make_tuple refuses such members as outside the
    # core class, so the tuples are built directly
    from _oracles import reference_extracted

    for profile in (ABS, parse_profile("abs+1"), CONST2):
        for text in ("1:v", "-1:v;-3:v,3:v"):
            ws = [parse_word(part, profile) for part in text.split(";")]
            got = extracted_sets(OrderlyTuple(tuple(ws)))
            assert got == reference_extracted(ws), (profile, text)


def test_images_match_the_whole_grid():
    # the two index ranges give the whole grid's distinct images in grid
    # order, list for list, for every word of the sampled candidates under
    # each profile whose bounds hold its letters; where the grid reads a
    # missing bound, both raise the same error
    from _oracles import CLAMPING_TABLE, reference_images, sampled_candidates

    entries = sorted({w.entries for radius in (1, 2, 3)
                      for ws in sampled_candidates(radius) for w in ws})
    checked = clipped = refused = 0
    for text in ("abs", "abs+1", "const:2", "const:10", CLAMPING_TABLE):
        profile = parse_profile(text)
        for e in entries:
            try:
                w = make_word(e, profile)
            except WordError:
                continue
            for index in (1, 2, 3, 4):
                try:
                    want = reference_images(w, index)
                except WordError as exc:
                    with pytest.raises(WordError, match="^%s$" % exc):
                        _image_ranges(w, index)
                    refused += 1
                    continue
                assert (_image_entries(w, _image_ranges(w, index))
                        == [u.entries for u in want]), (w, index)
                checked += 1
                clipped += len(want) < profile.bound(index) * profile.bound(-index)
    assert checked > 2000 and clipped > 500 and refused > 0, (checked, clipped, refused)


def test_is_extraction():
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, 3: VARIABLE})
    w3 = make_word({-5: VARIABLE, 5: VARIABLE})
    bw = make_tuple([w1, w2, w3])
    assert is_extraction(bw, bw)
    merged = concat(w1, w2)
    assert is_extraction(make_tuple([merged, w3]), bw)
    foreign = make_word({-9: VARIABLE, 9: VARIABLE})
    assert not is_extraction(make_tuple([foreign]), bw)


def test_ev_monotone_under_extraction():
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, 3: VARIABLE})
    bw = make_tuple([w1, w2])
    big = extracted_sets(bw).variables
    for u_words in [(w1,), (w2,), (concat(w1, w2),), (w1, w2)]:
        u = make_tuple(u_words)
        assert is_extraction(u, bw)
        assert extracted_sets(u).variables <= big


# sidedly monotone, bounded at every position of the four-word bases
MONOTONE_TABLE = "table:" + ",".join("%d=%d" % (-n, 1 + n // 3) for n in range(8, 0, -1)) \
    + "," + ",".join("%d=%d" % (n, 1 + n // 4) for n in range(1, 9))


def paired_base(count, profile=ABS):
    """The variable on +-{1,2}, +-{3,4}, ... for `count` members."""
    return make_tuple([make_word({-b: VARIABLE, -a: VARIABLE, a: VARIABLE, b: VARIABLE}, profile)
                       for a, b in ((2 * i - 1, 2 * i) for i in range(1, count + 1))])


def near_misses(u):
    """Words one step from u: each letter one further from 0, the domain
    moved one position outward, u under abs+1, and u less each position."""
    out = []
    for j, (pos, letter) in enumerate(u.entries):
        if letter != VARIABLE:
            bumped = letter + (1 if pos > 0 else -1)
            out.append(LocatedWord(u.entries[:j] + ((pos, bumped),) + u.entries[j + 1:],
                                   u.profile))
        if len(u.entries) > 1:
            out.append(LocatedWord(u.entries[:j] + u.entries[j + 1:], u.profile))
    out.append(LocatedWord(tuple((p + (1 if p > 0 else -1), l) for p, l in u.entries),
                           u.profile))
    out.append(LocatedWord(u.entries, parse_profile("abs+1")))
    return out


def assert_is_extraction_agrees(bw, misses):
    """The domain test answers as membership in extracted_sets(bw) on
    every product, and on every product's near misses when asked; returns
    how many words it answered True and False on."""
    es = extracted_sets(bw)
    words_ = set(es.constants | es.variables)
    if misses:
        for u in es.constants | es.variables:
            words_.update(near_misses(u))
    answers = {u: is_extraction(OrderlyTuple((u,)), bw) for u in words_}
    assert answers == {u: u in es.variables for u in words_}
    trues = sum(answers.values())
    return trues, len(answers) - trues


def test_is_extraction_agrees_with_extracted_sets():
    # every variable and constant product of the three- and four-word
    # bases under abs, const:1 and a sidedly monotone table, and the near
    # misses of the three-word bases' products
    counts = {}
    for text in ("abs", "const:1", MONOTONE_TABLE):
        for count in (3, 4):
            bw = paired_base(count, parse_profile(text))
            counts[text, count] = assert_is_extraction_agrees(bw, misses=count == 3)
    table = [counts[MONOTONE_TABLE, count] for count in (3, 4)]
    assert [counts["abs", 3], counts["abs", 4]] == [(98, 3841), (1864, 1699)], counts
    assert [counts["const:1", 3], counts["const:1", 4]] == [(19, 383), (65, 15)], counts
    assert table == [(24, 549), (156, 59)], counts


def test_is_extraction_near_misses():
    # the base on +-{1,2}, +-{3,4}, +-{5,6}: the images of its second
    # member, at grid index 2, read p = 1..2 at 3 and 4, though k_3 = 3
    bw = paired_base(3)
    hit = parse_word("-4:-1,-3:-1,-2:v,-1:v,1:v,2:v,3:2,4:2")
    assert is_extraction(make_tuple([hit]), bw)
    misses = [
        parse_word("-4:-1,-3:-1,-2:v,-1:v,1:v,2:v,3:3,4:3"),  # one past the image range
        parse_word("-3:v,-2:v,2:v,3:v"),  # the first member moved out by one
        parse_word("-2:v,-1:v,1:v,2:v", parse_profile("abs+1")),  # entries under abs+1
        parse_word("-4:v,-3:v,-2:v,-1:v,1:v,2:v,3:v"),  # two members less position 4
        parse_word("-6:v,-5:v,5:v,6:v,7:v"),  # a member and a position past it
    ]
    ev = extracted_sets(bw).variables
    for u in misses:
        assert u not in ev
        assert not is_extraction(make_tuple([u]), bw), u
    # one member that is no extraction is enough
    assert not is_extraction(make_tuple([bw[0], misses[4]]), bw)
    assert not is_extraction(make_tuple([bw[0]]), EMPTY_TUPLE)
    assert is_extraction(EMPTY_TUPLE, EMPTY_TUPLE)


def test_is_extraction_refuses_as_extracted_sets_does():
    constant = make_tuple([make_word({-1: -1, 1: 1})])
    unordered = parse_profile("table:-2=1,-1=2,1=1,2=1")
    falling = make_tuple([make_word({-1: VARIABLE, 1: VARIABLE}, unordered)])
    u = make_tuple([make_word({-1: VARIABLE, 1: VARIABLE})])
    for bw, text in ((constant, "^extraction needs variable words$"),
                     (falling, "^profile must be sidedly monotone$")):
        for call in (lambda: extracted_sets(bw), lambda: is_extraction(u, bw)):
            with pytest.raises(WordError, match=text):
                call()


def test_direct_tuples_without_star_products_are_refused_alike():
    # a directly built OrderlyTuple is not checked, so members that concat
    # refuses reach the extraction checks; extracted_sets and is_extraction
    # both name the first such pair, member by member against the earlier
    # ones in order, a profile mismatch before an overlap, with concat's
    # message for that pair
    inner = make_word({-1: VARIABLE, 1: VARIABLE})
    outer = make_word({-2: VARIABLE, -1: VARIABLE, 1: VARIABLE, 2: VARIABLE})
    far = make_word({-5: VARIABLE, 5: VARIABLE})
    both = make_word({-5: VARIABLE, -1: VARIABLE, 1: VARIABLE, 5: VARIABLE})
    other = LocatedWord(outer.entries, CONST2)
    cases = [((inner, outer), (inner, outer)),
             ((inner, far, outer), (inner, outer)),
             ((far, inner, both), (far, both)),
             ((inner, other), (inner, other)),
             ((inner, far, LocatedWord(both.entries, CONST2)),
              (inner, LocatedWord(both.entries, CONST2)))]
    u = make_tuple([inner])
    for members, (a, b) in cases:
        with pytest.raises(WordError) as refused:
            concat(a, b)
        message = "^%s$" % re.escape(str(refused.value))
        bw = OrderlyTuple(members)
        for call in (lambda: extracted_sets(bw), lambda: is_extraction(u, bw)):
            with pytest.raises(WordError, match=message):
                call()
    assert str(refused.value) == "profile mismatch: abs vs const:2"


def test_profile_mismatch_names_long_profiles_as_echo_bounds_them():
    # a table profile longer than ECHO_LIMIT characters is named by its
    # first ECHO_LIMIT characters and its length; a shorter one whole
    from zwords.words import ECHO_LIMIT

    def quoted(text):
        return text if len(text) <= ECHO_LIMIT else "%s... (%d characters)" % (
            text[:ECHO_LIMIT], len(text))

    for top in (2, 100):
        texts = ["table:" + ",".join("%d=%d" % (p, k) for p in range(-top, top + 1) if p)
                 for k in (1, 2)]
        w, u = (make_word({-1: VARIABLE, 1: VARIABLE}, parse_profile(t)) for t in texts)
        with pytest.raises(WordError) as refused:
            concat(w, u)
        assert str(refused.value) == "profile mismatch: %s vs %s" % tuple(map(quoted, texts))
        assert len(str(refused.value)) < 3 * ECHO_LIMIT


def test_is_extraction_builds_no_product(monkeypatch):
    # the tuple of test_extracted_sets_product_cap makes 17 products; under
    # a cap of 16 extracted_sets refuses and is_extraction still answers,
    # and it never reaches the join that builds products
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, -2: -1, 2: 1, 3: VARIABLE})
    bw = make_tuple([w1, w2])
    ev = extracted_sets(bw).variables
    monkeypatch.setattr(words, "MAX_PRODUCTS", 16)
    with pytest.raises(WordError, match="more than 16 star products"):
        extracted_sets(bw)

    def refuse(doms, options):
        raise AssertionError("star products built")

    monkeypatch.setattr(words, "_joins", refuse)
    for u in ev:
        assert is_extraction(make_tuple([u]), bw)
    assert is_extraction(bw, bw)
    assert not is_extraction(make_tuple([concat(substitute(w1, 1, 1), substitute(w2, 1, 1))]),
                             bw)


def test_is_extraction_on_five_and_six_word_bases():
    # extracted_sets refuses the six-word base (3,656,663 products); the
    # domain test reads the members alone
    for count in (5, 6):
        bw = paired_base(count)
        start = time.perf_counter()
        assert is_extraction(make_tuple([bw[0]]), bw)
        assert is_extraction(bw, bw)
        assert is_extraction(make_tuple([concat(bw[0], substitute(bw[-1], 2, 3))]), bw)
        assert not is_extraction(make_tuple([parse_word("-3:v,-2:v,2:v,3:v")]), bw)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(WordError, match="more than 200000 star products"):
        extracted_sets(paired_base(6))


def _pool_of(bw):
    return sorted(extracted_sets(bw).variables, key=word_sort_key)


EXTRACTION_BASES = [(bw, _pool_of(bw)) for bw in (
    paired_base(2), paired_base(3), paired_base(4), paired_base(3, parse_profile("const:1")),
    paired_base(4, parse_profile(MONOTONE_TABLE)))]


def draw_chain(data, pool):
    """An R1-chain of one to three words of the pool, drawn word by word."""
    chain = [data.draw(st.sampled_from(pool))]
    while len(chain) < 3 and data.draw(st.booleans()):
        nexts = [w for w in pool if rel_r1(chain[-1], w)]
        if not nexts:
            break
        chain.append(data.draw(st.sampled_from(nexts)))
    return make_tuple(chain)


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_extraction_is_transitive_in_word_form(data):
    # if U is extracted from V and V from W, U is extracted from W, by
    # the domain test; V is drawn as a chain over E(W), U over E(V)
    w, pool = data.draw(st.sampled_from(EXTRACTION_BASES))
    v = draw_chain(data, pool)
    u = draw_chain(data, _pool_of(v))
    assert is_extraction(v, w) and is_extraction(u, v)
    assert is_extraction(u, w), (u, v, w)


def test_project_positive():
    assert project_positive(make_word({-2: -1, 1: 1, 3: VARIABLE})) \
        == make_word({1: 1, 3: VARIABLE})
    w = make_word({1: 1, 3: VARIABLE})
    assert project_positive(w) == w
    with pytest.raises(WordError):
        project_positive(make_word({-1: VARIABLE}))


def test_commuting_square_with_projection():
    # one-sided substitution after projection equals projection of the
    # symmetric two-sided substitution
    rng = random.Random(2718)
    for _ in range(500):
        w = random_word(rng)
        p = rng.randint(0, 5)
        lhs = substitute_nat(project_positive(w), p) if w.dom_pos else None
        if lhs is None:
            continue
        rhs = project_positive(substitute(w, p, p) if p else w)
        assert lhs == rhs


def test_pair_enumeration():
    pairs = pair_enumeration(ABS, 100)
    assert pairs[0] == (1, 1)
    assert len(set(pairs)) == 100
    ranks = [bound_pair_index(ABS, n) for n in range(1, 9)]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
    with pytest.raises(WordError):
        pair_enumeration(DominationProfile("const", 3), 5)


def test_pair_ranks_by_closed_form():
    # every rank of the first pairs, read back from the closed form
    increasing = DominationProfile("table", 0, tuple((pos, 2 * abs(pos) + (pos < 0))
                                                     for pos in range(-40, 41) if pos))
    for profile, count in ((ABS, 3000), (parse_profile("abs+1"), 3000),
                           (parse_profile("abs+3"), 3000), (increasing, 2000)):
        pairs = pair_enumeration(profile, count)
        assert [_pair_rank(profile, p, q) for p, q in pairs] == list(range(1, count + 1))
        for n in range(1, 20):
            bound = (profile.bound(n), profile.bound(-n))
            rank = bound_pair_index(profile, n)
            assert pairs[rank - 1] == bound if rank <= count else bound not in pairs, n
    # ranks past 65,536 answer up to the cap, which a far n reaches at once
    assert bound_pair_index(ABS, 300) == 90_000
    assert bound_pair_index(ABS, 316) == 99_856
    for n in (317, 10**9):
        with pytest.raises(WordError, match="^bound pair for %d not within the first "
                                            "100000 pairs$" % n):
            bound_pair_index(ABS, n)
    with pytest.raises(WordError, match="^negative-side bounds must increase strictly$"):
        bound_pair_index(DominationProfile("const", 3), 1)


def test_pair_enumeration_matches_the_reference():
    from _oracles import reference_pair_enumeration

    def listed(enumerate_pairs, profile, count):
        try:
            return enumerate_pairs(profile, count)
        except WordError as exc:
            return str(exc)

    # the table bounds 40 positions a side, so its 40 blocks hold 40 * 81
    # pairs and a count past them reads the missing k_-41
    increasing = DominationProfile("table", 0, tuple((pos, 2 * abs(pos) + (pos < 0))
                                                     for pos in range(-40, 41) if pos))
    counts = list(range(-2, 120)) + [1000, 2999, 3000, 3239, 3240, 3241, 4000]
    for profile in (ABS, parse_profile("abs+1"), parse_profile("abs+3"), increasing,
                    DominationProfile("const", 3)):
        for count in counts:
            want = listed(reference_pair_enumeration, profile, count)
            assert listed(pair_enumeration, profile, count) == want, (profile, count)
    assert listed(pair_enumeration, increasing, 3241) == "profile table has no bound at -41"
    assert listed(pair_enumeration, DominationProfile("const", 3), 4) \
        == "negative-side bounds must increase strictly"


def test_pair_alphabet_stops_at_the_count():
    # the first block under these profiles holds 10^8 pairs; only the
    # pairs asked for are made
    start = time.perf_counter()
    for text in ("abs+100000000", "const:100000000"):
        assert pair_enumeration(parse_profile(text), 1) == [(1, 1)]
    # no letter past MAX_PAIR_RANK passes the bound check, so h_map asks
    # for no more pairs than that
    t = parse_word("1:50000000", parse_profile("const:100000000"))
    ws = [parse_word("-1:v,1:v"), parse_word("-3:v,3:v")]
    with pytest.raises(WordError, match="^letter 50000000 exceeds the alphabet bound at 1$"):
        h_map(t, ws)
    assert time.perf_counter() - start < 1


def test_h_map_identity_and_substitution():
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, 3: VARIABLE})
    ws = [w1, w2]
    assert h_map(make_word({1: VARIABLE}), ws) == w1
    assert h_map(make_word({1: 1}), ws) == substitute(w1, 1, 1)
    with pytest.raises(WordError):
        h_map(make_word({3: VARIABLE}), ws)


def test_h_map_injective_on_small_window():
    w1 = make_word({-2: VARIABLE, -1: -1, 1: 1, 2: VARIABLE})
    w2 = make_word({-3: VARIABLE, 3: VARIABLE})
    ws = [w1, w2]
    ranks = [bound_pair_index(ABS, n) for n in (1, 2)]
    lvec = DominationProfile("table", 0, ((1, ranks[0]), (2, ranks[1])))
    images = {}
    for dom in [(1,), (2,), (1, 2)]:
        for letters in product(*[range(0, ranks[p - 1] + 1) for p in dom]):
            t = make_word(dict(zip(dom, letters)), lvec)
            image = h_map(t, ws)
            assert image not in images.values(), (t, image)
            images[t] = image
    assert len(images) == (ranks[0] + 1) + (ranks[1] + 1) + (ranks[0] + 1) * (ranks[1] + 1)


def test_orderly_tuple_validation():
    w1 = make_word({-1: VARIABLE, 1: VARIABLE})
    w2 = make_word({-3: VARIABLE, 3: VARIABLE})
    w3 = make_word({-5: VARIABLE, 5: VARIABLE})
    w1_plus = make_word({-1: VARIABLE, 1: VARIABLE}, parse_profile("abs+1"))
    one_sided = make_word({1: VARIABLE})
    assert make_tuple([w1, w2]).words == (w1, w2)
    assert len(make_tuple([])) == 0
    refusals = [
        ([w2, w1], "tuple not increasing: -3:v,3:v then -1:v,1:v"),
        ([w1, w3, w2], "tuple not increasing: -5:v,5:v then -3:v,3:v"),
        ([w1_plus, w2], "profile mismatch inside tuple"),
        ([one_sided], "1:v is outside the core class"),
        ([w1, w2, one_sided], "tuple not increasing: -3:v,3:v then 1:v"),
        # the pairs come first: a mismatch before R1, both before the core
        ([w2, w1_plus], "profile mismatch inside tuple"),
        ([one_sided, w2, w1], "tuple not increasing: -3:v,3:v then -1:v,1:v"),
        ([w1, w2, w1_plus, one_sided], "profile mismatch inside tuple"),
    ]
    for ws, message in refusals:
        with pytest.raises(WordError) as info:
            make_tuple(ws)
        assert str(info.value) == message, ws
        # the same words go into the value as they are
        assert words.OrderlyTuple(tuple(ws)).words == tuple(ws)


def test_profile_text_round_trip():
    for text in ["abs", "abs+2", "const:3", "table:-2=2,-1=1,1=1,2=2"]:
        assert format_profile(parse_profile(text)) == text
    assert parse_profile("table:-1=5,1=1").sided_monotone
    assert not parse_profile("table:-2=1,-1=5,1=1,2=2").sided_monotone


def test_profile_hash_is_the_dataclass_hash():
    import copy
    import pickle

    # the hash is taken once, at construction, and is the dataclass's own:
    # equal profiles hash alike, the fields alone decide equality, and a
    # copy, which may live under another hash seed, hashes afresh
    for text in ["abs", "abs+2", "const:3", "table:-2=2,-1=1,1=1,2=2"]:
        profile = parse_profile(text)
        assert hash(profile) == hash((profile.kind, profile.param, profile.table))
        assert parse_profile(text) == profile and hash(parse_profile(text)) == hash(profile)
    assert DominationProfile("abs") == ABS and hash(DominationProfile("abs")) == hash(ABS)
    assert pickle.loads(pickle.dumps(CONST2)) == CONST2 and copy.copy(CONST2) == CONST2
    assert "_hash" not in pickle.dumps(CONST2).decode("latin-1")
    # monotonicity and a table's bounds are kept too, and not pickled
    table = parse_profile("table:-2=1,-1=5,1=1,2=2")
    assert "_bounds" not in pickle.dumps(table).decode("latin-1")
    assert not pickle.loads(pickle.dumps(table)).sided_monotone
    assert [table.bound(n) for n in (-2, -1, 1, 2)] == [1, 5, 1, 2]
    # equal profiles that are distinct objects still make equal words
    twin = DominationProfile("const", 2)
    assert twin is not CONST2
    assert LocatedWord(((-1, VARIABLE), (1, 2)), twin) == LocatedWord(((-1, VARIABLE), (1, 2)),
                                                                     CONST2)
    assert parse_profile("abs+1") != parse_profile("const:1")


def test_value_classes_keep_the_dataclass_protocol():
    import copy
    import pickle

    from zwords import ordinals, search
    from zwords.ordinals import Ordinal, parse_ordinal
    from zwords.schreier import CanonicalDecomposition, canonical_decompose

    w1, w3 = parse_word("-1:v,1:v"), parse_word("-3:v,3:v")
    # each frozen value with its fields in order, built twice, and the
    # text its repr has always printed
    frozen = [
        (lambda: parse_ordinal("w^2+3"), ("terms",), "Ordinal('w^2+3')"),
        (Ordinal, ("terms",), "Ordinal('0')"),
        (lambda: canonical_decompose([3, 4, 5, 6], parse_ordinal("w")), ("blocks", "remainder"),
         "CanonicalDecomposition(blocks=((3, 4, 5),), remainder=(6,))"),
        (lambda: CanonicalDecomposition(blocks=((1,),), remainder=None), ("blocks", "remainder"),
         "CanonicalDecomposition(blocks=((1,),), remainder=None)"),
        (lambda: DominationProfile("abs"), ("kind", "param", "table"),
         "DominationProfile(kind='abs', param=0, table=())"),
        (lambda: DominationProfile(kind="table", table=((-1, 2), (1, 3))),
         ("kind", "param", "table"),
         "DominationProfile(kind='table', param=0, table=((-1, 2), (1, 3)))"),
        (lambda: make_tuple([w1, w3]), ("words",),
         "OrderlyTuple(words=(LocatedWord('-1:v,1:v'), LocatedWord('-3:v,3:v')))"),
        (lambda: OrderlyTuple(()), ("words",), "OrderlyTuple(words=())"),
        (lambda: search.SearchWindow(3), ("radius", "profile", "max_candidates"),
         "SearchWindow(radius=3, profile=DominationProfile(kind='abs', param=0, table=()), "
         "max_candidates=200000)"),
        (lambda: search.SearchWindow(radius=2, profile=CONST2, max_candidates=10),
         ("radius", "profile", "max_candidates"),
         "SearchWindow(radius=2, profile=DominationProfile(kind='const', param=2, table=()), "
         "max_candidates=10)"),
    ]
    assert words.FrozenInstanceError is ordinals.FrozenInstanceError
    assert issubclass(ordinals.FrozenInstanceError, AttributeError)
    for build, names, text in frozen:
        x = build()
        assert repr(x) == text
        values = tuple(getattr(x, name) for name in names)
        assert hash(x) == hash(values)
        assert x == build() and hash(build()) == hash(x)
        assert x != values and x.__eq__(values) is NotImplemented
        assert type(x).__slots__ and not hasattr(x, "__dict__")
        for name in names + ("unknown",):
            with pytest.raises(ordinals.FrozenInstanceError, match="cannot assign to field"):
                setattr(x, name, None)
        for name in names:
            with pytest.raises(ordinals.FrozenInstanceError, match="cannot delete field"):
                delattr(x, name)
        assert tuple(getattr(x, name) for name in names) == values
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert twin == x and hash(twin) == hash(x) and repr(twin) == text
    # the cap default is a module constant, not a class attribute
    assert search.SearchWindow(1).max_candidates == search.MAX_CANDIDATES == 200_000

    witness = (w1,)
    mutable = [
        (lambda: search.Coloring(2, seed=1), "Coloring(arity=2, table=None, seed=1)"),
        (lambda: search.Coloring(arity=2, table={"a": 1}),
         "Coloring(arity=2, table={'a': 1}, seed=None)"),
        (lambda: search.SearchReport(witness, 0, 4, 5, 6, elapsed_ms=1.5, vacuous=True),
         "SearchReport(witness=(LocatedWord('-1:v,1:v'),), color=0, grid_size=4, "
         "nodes_expanded=5, candidates=6, elapsed_ms=1.5, vacuous=True)"),
        (lambda: search.SearchReport(None, None, 0, 0, 0),
         "SearchReport(witness=None, color=None, grid_size=0, nodes_expanded=0, candidates=0, "
         "elapsed_ms=0.0, vacuous=False)"),
        (lambda: search.VerifyReport(True, 3, color=0),
         "VerifyReport(monochromatic=True, instances=3, color=0)"),
        (lambda: search.PatternResult(5, (1,), (-1,), i_positions=(2,)),
         "PatternResult(value=5, fixed_positions=(1,), j_positions=(-1,), i_positions=(2,))"),
        (lambda: search.SemigroupSpec(max, min, commutative=True),
         "SemigroupSpec(op=<built-in function max>, y=<built-in function min>, "
         "commutative=True)"),
    ]
    for build, text in mutable:
        x = build()
        assert repr(x) == text
        assert x == build() and x != text and x.__eq__(text) is NotImplemented
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert twin == x and repr(twin) == text
    # a subclass of a coloring is named in its repr, as the dataclass named it
    class Parity(search.Coloring):
        pass

    assert repr(Parity(2, seed=1)).endswith(".<locals>.Parity(arity=2, table=None, seed=1)")
    assert Parity(2, seed=1) != search.Coloring(2, seed=1)
    # a mutable value takes new field values, and equality follows them
    report = search.SearchReport(None, None, 0, 0, 0)
    report.elapsed_ms = 2.0
    assert report != search.SearchReport(None, None, 0, 0, 0)
    # the checks run in __init__, in field order
    with pytest.raises(search.SearchError, match="^arity must be >= 1$"):
        search.Coloring(0)
    with pytest.raises(search.SearchError, match="^coloring needs a table or a seed$"):
        search.Coloring(2)
    with pytest.raises(search.SearchError, match="^window radius must be >= 1$"):
        search.SearchWindow(0)
    with pytest.raises(ordinals.OrdinalError, match="^exponents must be strictly decreasing$"):
        Ordinal(((ordinals.ZERO, 1), (ordinals.ONE, 1)))


# the only protocol methods a value class writes itself, each with why
PROTOCOL_OVERRIDES = {
    "Ordinal": {
        "__eq__": "schreier's kernels compare ordinals in their loops",
        "__hash__": "kept on first use, so nested terms are hashed once",
        "__repr__": "prints the ordinal's text, Ordinal('w^2+3')",
    },
    "DominationProfile": {
        "__eq__": "the family kernels compare profiles in their loops",
        "__hash__": "taken once at construction, as profiles key the pool caches",
    },
    "LocatedWord": {
        "__eq__": "words of one profile object skip comparing it",
        "__hash__": "kept on first use, as words key the family and search sets",
        "__repr__": "prints the word's text, LocatedWord('-1:v,1:v')",
    },
    "OrderlyTuple": {
        "__hash__": "hashes its one field directly in the family kernels' set lookups",
    },
}


def test_value_classes_take_the_protocol_from_the_base():
    from zwords import cli, families, ordinals, rationals, schreier, search  # noqa: F401

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    protocol = {"__eq__", "__hash__", "__repr__", "__reduce__", "_astuple"}
    found = {}
    for cls in walk(ordinals.Record):
        if cls is ordinals.Frozen or not cls.__module__.startswith("zwords."):
            continue  # the protocol itself, or a test's subclass
        assert cls._fields and "_fields" in vars(cls), cls
        if issubclass(cls, ordinals.Frozen):
            slots = {name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())}
            assert set(cls._fields) <= slots, cls
        found[cls.__name__] = protocol & set(vars(cls))
    assert found == {name: set(PROTOCOL_OVERRIDES.get(name, ()))
                     for name in ("Ordinal", "CanonicalDecomposition", "DominationProfile",
                                  "LocatedWord", "OrderlyTuple", "SearchWindow", "Coloring",
                                  "SearchReport", "VerifyReport", "SemigroupSpec",
                                  "PatternResult")}
    # the kept equalities and hashes answer as the base's would
    w1 = parse_word("-1:v,1:v")
    values = [ordinals.parse_ordinal("w^2+3"), ordinals.parse_ordinal("w^2+3"), ordinals.ONE,
              ABS, DominationProfile("abs"), CONST2, w1, LocatedWord(w1.entries, ABS),
              LocatedWord(w1.entries, CONST2), make_tuple([w1]), OrderlyTuple((w1,))]
    for x in values:
        assert hash(x) == ordinals.Frozen.__hash__(x)
        for y in values:
            if type(x) is type(y):
                assert (x == y) is ordinals.Record.__eq__(x, y)


def test_profile_table_naming_a_position_twice_is_refused():
    # bound would read whichever pair sorts first
    for text, pos in (("table:1=3,1=2,-1=1", "1"), ("table:-1=1,1=2,-1=1", "-1")):
        with pytest.raises(WordError, match="position %s twice" % pos):
            parse_profile(text)
    with pytest.raises(WordError, match="position 2 twice"):
        DominationProfile("table", 0, ((2, 1), (1, 1), (2, 1)))


def test_word_text_round_trip_random():
    rng = random.Random(11)
    for _ in range(1000):
        w = random_word(rng)
        assert parse_word(format_word(w)) == w


# entries for the word text sweep: every malformed shape, a trailing
# comma (the empty item after another), letters in and out of range on
# each side, the variable as v and as 0, and position 0
_TEXT_ITEMS = ("", "1", "1:", ":1", "1:2:3", "1:v5", "a:1", " 1:1", "+1:1", "1_0:1",
               "-3:-4", "-3:-3", "-2:v", "-2:0", "-1:1", "0:1", "0:v", "1:1", "1:v",
               "2:-1", "2:2", "3:4", "5:3", "5:4")
# the shapes a three-entry text combines: ascending, descending and
# duplicate positions, position 0 between them, and an item that is refused
_TEXT_CORE = ("-3:-4", "-2:v", "-1:1", "0:1", "1:1", "1:v", "2:2", "3:4", "5:4", "1:", " 1:1")
# abs, an offset, a constant bound, and a table with no bound past +-2
_TEXT_PROFILES = ("abs", "abs+2", "const:3", "table:-2=2,-1=1,1=1,2=2")


def _parsed(parse, text, profile):
    try:
        return parse(text, profile)
    except WordError as exc:
        return "error: %s" % exc


def test_parse_word_matches_reference_on_a_sweep():
    from _oracles import reference_parse_word

    texts = ([",".join(items) for n in (1, 2) for items in product(_TEXT_ITEMS, repeat=n)]
             + [",".join(items) for items in product(_TEXT_CORE, repeat=3)])
    words_read = errors = 0
    for profile in map(parse_profile, _TEXT_PROFILES):
        for text in texts:
            got = _parsed(parse_word, text, profile)
            assert got == _parsed(reference_parse_word, text, profile), (text, profile)
            if isinstance(got, str):
                errors += 1
            else:
                words_read += 1
                assert got.entries == tuple(sorted(got.entries))
    assert words_read > 200 and errors > 7000
    # texts and entries longer than the echo limit are quoted by their
    # first ECHO_LIMIT characters and their length
    good = ",".join("%d:1" % p for p in range(1, 100))
    for text in (good + ",x", good + ",1:1", "1:1," + "x" * 500, good + ",-1:" + "7" * 200):
        got = _parsed(parse_word, text, ABS)
        assert got == _parsed(reference_parse_word, text, ABS) and "characters)" in got, text


def test_parse_word_builds_in_range_text_without_make_word(monkeypatch):
    from _oracles import reference_parse_word
    from zwords.rationals import encode

    def refuse(*args):
        raise AssertionError("make_word called")

    cases = [(format_word(encode(Fraction(517, 1049) + 3)), ABS), ("-3:v,-1:-1,2:2,5:v", ABS),
             ("-1:-3,1:v,2:4", parse_profile("abs+2")), ("-2:-3,1:0,4:3", parse_profile("const:3"))]
    expected = [reference_parse_word(text, profile) for text, profile in cases]
    monkeypatch.setattr(words, "make_word", refuse)
    assert [parse_word(text, profile) for text, profile in cases] == expected


def test_words_from_every_builder_are_one_value():
    import copy
    import pickle

    from zwords.rationals import encode

    w = encode(Fraction(-5, 7) + 2)
    built = [w, make_word(dict(w.entries)), make_word(w.entries, ABS), parse_word(format_word(w)),
             words.LocatedWord(w.entries), words.LocatedWord(tuple(list(w.entries)), ABS),
             copy.copy(w), pickle.loads(pickle.dumps(w))]
    for u in built:
        assert u == w and hash(u) == hash(w) and str(u) == str(w) and repr(u) == repr(w)
    assert len(set(built)) == 1
    c = parse_word("-2:v,1:1", CONST2)
    assert c == make_word({-2: VARIABLE, 1: 1}, CONST2) == words.LocatedWord(c.entries, CONST2)
    assert c != words.LocatedWord(c.entries) and hash(c) == hash(words.LocatedWord(c.entries, CONST2))
    assert w != w.entries and w.entries != w


def test_word_dom_matches_its_entries():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, span=7)
        assert w.dom == tuple(pos for pos, _ in w.entries)
        assert w.dom is w.dom
        assert w.dom_neg + w.dom_pos == w.dom


def test_format_word_keeps_the_text():
    # the text is built on first use and kept, so a word shared by many
    # tuples is formatted once; copies format afresh to the same text
    import pickle

    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng, span=7)
        text = format_word(w)
        assert text == words._entries_text(w.entries) and format_word(w) is text
        assert str(w) is text and repr(w) == "LocatedWord(%r)" % text
        assert format_word(pickle.loads(pickle.dumps(w))) == text
    with pytest.raises(AttributeError):
        w._text = ""
    assert words.serialize_tuple([w, w]) == "%s;%s" % (text, text)


def test_words_refuse_attribute_assignment():
    w = parse_word("-1:v,1:1")
    for name in ("entries", "profile", "dom", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, ())
        with pytest.raises(AttributeError):
            delattr(w, name)
    hash(w)
    with pytest.raises(AttributeError):
        w._hash = 0
    assert w == make_word({-1: VARIABLE, 1: 1})
