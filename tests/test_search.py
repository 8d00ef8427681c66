import copy
import gc
import hashlib
import random
import sys
import threading
import time
import tracemalloc
from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb

import pytest

from zwords import search
from zwords.ordinals import ONE, from_int
from zwords.search import (
    Coloring,
    INT_LINEAR,
    STRING_CONCAT,
    SearchCapExceeded,
    SearchError,
    SearchWindow,
    SemigroupSpec,
    fs_enumerate,
    fs_two_sided,
    hj_witness_search,
    length_slice,
    psi_map,
    semigroup_pattern,
    verify_witness,
    verify_xi_witness,
    word_length,
    xi_witness_search,
    z_fin_set_less,
)
from zwords.ordinals import parse_ordinal
from zwords.search import (
    _candidate_counts,
    _instance_texts,
    _rank,
    _shell_candidates,
    _shell_splits,
    _side_slots,
    _side_texts,
    _slice_count,
    _slice_texts,
    _split_pools,
    _split_stream,
    _words,
    _xi_plans,
    _xi_slices,
)
from zwords.words import (
    ABS,
    VARIABLE,
    DominationProfile,
    WordError,
    concat_all,
    format_word,
    make_word,
    parse_profile,
    parse_word,
    serialize_tuple,
    substitute,
)

from _oracles import (
    CLAMPING_TABLE,
    _grid,
    _letters,
    reference_candidate_count,
    reference_candidates,
    reference_extracted,
    reference_fs_enumerate,
    reference_fs_two_sided,
    reference_hj_search,
    reference_images,
    reference_verify_witness,
    reference_xi_search,
    reference_xi_slices,
    sampled_candidates,
    witness_candidates,
)


class DomainParity(Coloring):
    """Colors a serialized word by the parity of its domain size."""

    def color_key(self, key):
        return key.count(":") % 2


class Recording(Coloring):
    """Colors every key 0 and keeps the keys it was asked for, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.texts = []

    def color_key(self, key):
        self.texts.append(key)
        return 0


def digit_sum_coloring(arity=2):
    def color(key):
        total = 0
        for entry in key.replace(";", ",").split(","):
            _, _, letter = entry.partition(":")
            if letter not in ("v", ""):
                total += abs(int(letter))
        return total % arity
    c = Coloring(arity=arity, seed=0)
    c.color_key = color
    return c


def test_window_positions():
    assert SearchWindow(2).positions() == [-2, -1, 1, 2]
    with pytest.raises(SearchError):
        SearchWindow(0)


def test_length_slice_examples():
    words = length_slice(1, SearchWindow(1))
    assert [format_word(w) for w in words] == ["-1:-1", "1:1"]
    assert length_slice(3, SearchWindow(1)) == []


def test_length_slice_counting_identity():
    from math import prod
    for radius in (2, 3):
        window = SearchWindow(radius)
        for n in (1, 2, 3):
            expected = sum(prod(abs(p) for p in dom)
                           for dom in combinations(window.positions(), n))
            assert len(length_slice(n, window)) == expected


def test_length_slice_counts_before_it_builds():
    # the count that guards the cap is the number of words listed
    profiles = [ABS, parse_profile("const:2"), parse_profile("table:-3=1,-2=3,-1=2,1=1,2=2,3=1")]
    for profile in profiles:
        for radius in (1, 2, 3):
            window = SearchWindow(radius, profile)
            bounds = [profile.bound(p) for p in window.positions()]
            for n in range(1, 2 * radius + 1):
                for variable in (False, True):
                    assert (_slice_count(n, bounds, variable)
                            == len(length_slice(n, window, variable))), (profile, n, variable)
    # one word past the cap is refused, with the count the cap gives
    window = SearchWindow(2, max_candidates=len(length_slice(2, SearchWindow(2))) - 1)
    with pytest.raises(SearchCapExceeded) as info:
        length_slice(2, window)
    assert info.value.candidates == window.max_candidates + 1
    start = time.perf_counter()
    with pytest.raises(SearchCapExceeded) as info:
        length_slice(3, SearchWindow(12))
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == "length slice exceeds cap after 200001 words"
    assert info.value.candidates == 200001
    # past the window's positions no bound is read
    assert length_slice(5, SearchWindow(2, parse_profile("table:1=1"))) == []
    # a table with words names its least missing bound, before the cap
    with pytest.raises(WordError, match="no bound at -2"):
        length_slice(2, SearchWindow(2, parse_profile("table:-1=1,1=1"), max_candidates=0))


def test_length_slice_variable_words():
    for w in length_slice(2, SearchWindow(2), variable=True):
        assert w.is_variable_word and word_length(w) == 2


def test_coloring_table_and_seed():
    table = Coloring(arity=2, table={"1:1": 1}, seed=5)
    assert table.color_key("1:1") == 1
    assert 0 <= table.color_key("2:2") < 2
    fixed = Coloring(arity=3, seed=17)
    assert fixed.color_key("abc") == fixed.color_key("abc")
    with pytest.raises(SearchError):
        Coloring(arity=2, table={"x": 5})
    only_table = Coloring(arity=2, table={"1:1": 0})
    with pytest.raises(SearchError):
        only_table.color_key("2:2")


def test_coloring_from_text():
    c = Coloring.from_text("seed:99:4")
    assert c.seed == 99 and c.arity == 4
    c2 = Coloring.from_text("1:1\t1\n-1:-1\t0\n")
    assert c2.color_key("1:1") == 1 and c2.color_key("-1:-1") == 0


def test_hj_trivial_single_color():
    coloring = Coloring(arity=1, seed=1)
    rep = hj_witness_search(coloring, 1, [1], 2, SearchWindow(2))
    assert rep.found and rep.color == 0
    assert rep.nodes_expanded == 1
    assert rep.witness == witness_candidates(1, 2, SearchWindow(2))[0]
    assert verify_witness(rep.witness, coloring, [1]).monochromatic


def test_one_color_search_reads_no_colors(monkeypatch):
    # a seeded coloring of arity 1 gives every text color 0, its table's
    # entries included, so the first candidate with an instance is the
    # witness, whatever the grid: 810,000 instances here
    calls = []
    color_key = Coloring.color_key
    monkeypatch.setattr(Coloring, "color_key",
                        lambda self, key: calls.append(key) or color_key(self, key))
    one = Coloring(arity=1, seed=1)
    rep = hj_witness_search(one, 2, [1, 1], 4, SearchWindow(3, parse_profile("const:30")))
    assert (serialize_tuple(rep.witness), rep.color, rep.grid_size, rep.nodes_expanded,
            rep.candidates, rep.vacuous) == ("-1:v,1:v;-2:v,2:v", 0, 810_000, 1, 9, False)
    rep = xi_witness_search(Coloring(arity=1, table={"-1:-1": 0}, seed=4), parse_ordinal("w"),
                            2, 4, SearchWindow(3))
    assert (serialize_tuple(rep.witness), rep.color, rep.grid_size, rep.nodes_expanded,
            rep.candidates) == ("-1:v,1:v;-2:v,2:v", 0, 4, 1, 169)
    # no candidate has an instance: no witness, as before
    rep = xi_witness_search(one, parse_ordinal("3"), 2, 50, SearchWindow(3))
    assert (rep.witness, rep.color, rep.nodes_expanded, rep.candidates) == (None, None, 169, 169)
    assert len(calls) <= 1
    # a table with no seed is still read, so a missing key is refused
    with pytest.raises(SearchError, match="^coloring is not total: no entry for '-1:-1,1:1'$"):
        hj_witness_search(Coloring(arity=1, table={}), 1, [1], 2, SearchWindow(2))


def test_hj_domain_parity_coloring():
    coloring = DomainParity(arity=2, seed=0)
    rep = hj_witness_search(coloring, 1, [2], 2, SearchWindow(3))
    # substitution preserves the domain, so any candidate works
    assert rep.found and rep.nodes_expanded == 1
    assert verify_witness(rep.witness, coloring, [2]).monochromatic


def test_hj_agrees_with_brute_force():
    window = SearchWindow(3)
    for seed in range(25):
        coloring = Coloring(arity=2, seed=seed)
        rep = hj_witness_search(coloring, 1, [2], 2, window)
        brute = [ws for ws in witness_candidates(1, 2, window)
                 if verify_witness(ws, coloring, [2]).monochromatic]
        assert rep.found == bool(brute)
        if rep.found:
            assert list(rep.witness) in [list(b) for b in brute]


def test_hj_digit_sum_coloring_sound():
    coloring = digit_sum_coloring()
    rep = hj_witness_search(coloring, 1, [1], 2, SearchWindow(3))
    if rep.found:
        assert verify_witness(rep.witness, coloring, [1]).monochromatic
    # bad witness detected: two instances of different digit sums
    w = make_word({-2: VARIABLE, 2: VARIABLE})
    assert not verify_witness([w], coloring, [2]).monochromatic


def test_hj_pair_witness():
    coloring = Coloring(arity=1, seed=0)
    rep = hj_witness_search(coloring, 2, [1, 2], 4, SearchWindow(3))
    assert rep.found
    w1, w2 = rep.witness
    from zwords.words import rel_r1
    assert rel_r1(w1, w2)
    assert verify_witness(rep.witness, coloring, [1, 2]).monochromatic


def _verify_outcome(verify, witness, coloring, bounds):
    try:
        return verify(witness, coloring, bounds)
    except (SearchError, WordError) as e:
        return type(e), str(e)


def test_verify_witness_matches_the_whole_grid():
    # random witnesses, some constant on a side and some invalid, against
    # the loop over every grid pair; a table coloring may miss instances
    rng = random.Random(24)
    profiles = [parse_profile(text) for text in ("abs", "abs+1", "const:2", CLAMPING_TABLE)]
    errors = 0
    for trial in range(700):
        profile = rng.choice(profiles)
        m = rng.randint(1, 3)
        positions = [p for p in range(-3, 4) if p]
        rng.shuffle(positions)
        doms = [sorted(positions[i::m]) for i in range(m)]
        if rng.random() < 0.1:
            doms[-1] = sorted(set(doms[-1]) | {doms[0][0]})
        witness = []
        for dom in doms:
            entries = {pos: VARIABLE if rng.random() < 0.5
                       else (1 if pos > 0 else -1) * rng.randint(1, profile.bound(pos))
                       for pos in dom}
            witness.append(make_word(entries, profile))
        mixed = m > 1 and rng.random() < 0.1
        if mixed:
            i = rng.randrange(m)
            witness[i] = make_word(dict(witness[i].entries), parse_profile("abs+2"))
        bounds = [rng.randint(1, 3 if m < 3 else 2) for _ in range(m)]
        coloring = rng.choice([Coloring(arity=rng.randint(1, 3), seed=rng.randrange(99)),
                               DomainParity(arity=2, seed=0), digit_sum_coloring()])
        if rng.random() < 0.2:
            seen = Recording(arity=1, seed=0)
            if not isinstance(_verify_outcome(reference_verify_witness, witness, seen,
                                              bounds), tuple):
                table = {text: rng.randrange(2) for text in seen.texts}
                for text in rng.sample(sorted(table), min(len(table), rng.randint(0, 2))):
                    del table[text]
                coloring = Coloring(arity=2, table=table)
        got = _verify_outcome(verify_witness, witness, coloring, bounds)
        want = _verify_outcome(reference_verify_witness, witness, coloring, bounds)
        if mixed:
            # a witness of two profiles is refused, in words of its own
            assert isinstance(want, tuple) and isinstance(got, tuple), (witness, want, got)
            assert got[0] is want[0] is WordError, (witness, want, got)
        else:
            assert got == want, (witness, bounds, coloring)
        errors += isinstance(want, tuple)
    assert 50 < errors < 350
    # a side with no variable has one text
    for witness in ([make_word({-1: -1, 1: VARIABLE})], [make_word({-2: VARIABLE, 2: 2})],
                    [make_word({-1: -1, 1: 1}), make_word({-3: VARIABLE, 3: VARIABLE})]):
        for seed in range(4):
            coloring = Coloring(arity=2, seed=seed)
            bounds = [2] * len(witness)
            assert (verify_witness(witness, coloring, bounds)
                    == reference_verify_witness(witness, coloring, bounds))


def test_verify_witness_of_a_one_position_member():
    # a member on one position joins into a tuple of one entry, not into
    # the entry itself
    for profile in (ABS, parse_profile("abs+1"), parse_profile("const:2")):
        witness = [parse_word("1:v", profile)]
        for seed in range(4):
            coloring = Coloring(arity=2, seed=seed)
            assert (verify_witness(witness, coloring, [2])
                    == reference_verify_witness(witness, coloring, [2])), (profile, seed)


def test_verify_witness_colors_distinct_instances_only():
    # 10^8 grid pairs at bounds 100, 100, but 9 distinct instances: the
    # same ones as at bounds 3, 3
    ws = [make_word({-1: VARIABLE, 1: VARIABLE}), make_word({-3: VARIABLE, 3: VARIABLE})]
    for seed in range(6):
        coloring = Coloring(arity=2, seed=seed)
        start = time.perf_counter()
        report = verify_witness(ws, coloring, [100, 100])
        assert time.perf_counter() - start < 2
        near = reference_verify_witness(ws, coloring, [3, 3])
        assert report.instances == 100_000_000 and near.instances == 81
        assert (report.monochromatic, report.color) == (near.monochromatic, near.color)


def test_searches_reject_empty_tuples_and_slices():
    # every annulus split needs a word, and every xi slice a position
    coloring = Coloring(arity=2, seed=0)
    with pytest.raises(SearchError, match="^tuple length must be >= 1$"):
        hj_witness_search(coloring, 0, [], 2, SearchWindow(2))
    with pytest.raises(SearchError, match="^total length must be >= 1$"):
        xi_witness_search(coloring, ONE, 1, 0, SearchWindow(3))


def test_hj_cap():
    tiny = SearchWindow(4, max_candidates=5)
    with pytest.raises(SearchCapExceeded) as exc:
        hj_witness_search(Coloring(arity=1, seed=0), 1, [1], 4, tiny)
    # the count jumps past the cap; the error names the sixth tuple, where
    # building the candidates one by one would stop
    assert str(exc.value) == "witness candidates exceed cap after 6 tuples"
    assert exc.value.candidates == 6


def test_side_texts_answer_at_their_cap_and_refuse_one_below():
    # a side has min(top, the largest bound at its variables) distinct
    # texts: under a cap of exactly that many they are built, and under a
    # cap one smaller the side is refused, naming the cap plus one
    cases = [("abs", ((-3, VARIABLE),), -1, 3, 3),
             ("abs", ((1, VARIABLE), (2, 1), (4, VARIABLE)), 1, 9, 4),
             ("const:5", ((-2, VARIABLE), (-1, -3)), -1, 2, 2),
             ("abs+9", ((2, VARIABLE),), 1, 20, 11),
             ("table:-2=1,-1=2,1=1,2=1", ((-2, VARIABLE), (-1, VARIABLE)), -1, 5, 2)]
    for text, entries, side, top, count in cases:
        profile = parse_profile(text)
        texts = _side_texts(entries, side, top, SearchWindow(2, profile))
        assert len(texts) == len(set(texts)) == count, (text, texts)
        assert _side_texts(entries, side, top, SearchWindow(2, profile, count)) == texts
        with pytest.raises(SearchCapExceeded) as exc:
            _side_texts(entries, side, top, SearchWindow(2, profile, count - 1))
        assert str(exc.value) == "side substitution texts exceed cap after %d texts" % count
        assert exc.value.candidates == count


def test_candidate_stream_and_count_match_reference():
    # every (profile, radius <= 4, m <= 3, total) cell, except the three
    # largest totals of abs+1 at radius 4 with m = 1 (206,224 of the 373,077
    # tuples), which would add about 4.5 s; and the two-digit letters of
    # const:10 and abs+9 at radius <= 3 and m <= 2, except their m = 1
    # totals over 4 at radius 3 (150,000 tuples or more each).  Where one
    # letter's text extends another's (2:1, 2:10), a pool sorted by bare
    # text on an inner annulus, or by text + ';' on the outermost, misorders
    # the candidates.
    cells = [(text, radius, m, total)
             for text in ("abs", "abs+1", "const:1") for radius in (1, 2, 3, 4)
             for m in (1, 2, 3) for total in range(1, 2 * radius + 1)
             if (text, radius, m) != ("abs+1", 4, 1) or total <= 5]
    cells += [(text, radius, m, total)
              for text in ("const:10", "abs+9") for radius in (1, 2, 3)
              for m in (1, 2) for total in range(1, 2 * radius + 1)
              if (radius, m) != (3, 1) or total <= 4]
    for text, radius, m, total in cells:
        window = SearchWindow(radius, parse_profile(text))
        reference = reference_candidates(m, total, window)
        assert witness_candidates(m, total, window) == reference, (text, radius, m, total)
        assert _candidate_counts(m, range(total, total + 1), window) == (len(reference),)


def test_ranks_count_the_preceding_candidates():
    # every candidate of a shell against every other split of the shell:
    # the rank is the number of that split's candidates serialized before it
    ranked = 0
    for text, radius, m in (("abs", 3, 2), ("abs+1", 3, 2), ("const:10", 2, 1), ("const:10", 3, 2),
                            ("abs+9", 2, 1), ("abs+9", 3, 2)):
        profile = parse_profile(text)
        for total in range(2 * m, 2 * radius + 1):
            for shell in range(1, radius + 1):
                pools = [_split_pools(layers, profile)
                         for layers in _shell_splits(m, total, shell)]
                texts = [[t for t, _, _ in _split_stream(split, None)] for split in pools]
                for split, own in zip(pools, texts):
                    assert own == sorted(own)
                    for other in texts:
                        if other is not own:
                            for t in other:
                                assert _rank(t, split) == bisect_left(own, t), (t, own)
                                ranked += 1
    assert ranked > 20000


def test_candidate_counts_match_the_enumeration():
    # the side-factored count against the per-domain, per-split count on
    # every cell with radius <= 5 and m <= 3, cap error included
    cells = 0
    for text in ("abs", "abs+1", "const:1", "const:2"):
        for radius in range(1, 6):
            window = SearchWindow(radius, parse_profile(text), max_candidates=10 ** 30)
            for m in (1, 2, 3):
                counts = _candidate_counts(m, range(1, 2 * radius + 1), window)
                for total, count in enumerate(counts, 1):
                    assert count == reference_candidate_count(m, total, window)[0]
                    cells += 1
                    if not count:
                        continue
                    tight = SearchWindow(radius, window.profile, max_candidates=count - 1)
                    with pytest.raises(SearchCapExceeded) as got:
                        _candidate_counts(m, range(total, total + 1), tight)
                    with pytest.raises(SearchCapExceeded) as want:
                        reference_candidate_count(m, total, tight)
                    assert (str(got.value), got.value.candidates) \
                        == (str(want.value), want.value.candidates) \
                        == ("witness candidates exceed cap after %d tuples" % count, count)
    assert cells == 360
    # xi with l = 2 counts every total from 4 to 2 * radius
    for radius, total in ((6, 275427216), (8, 5975795367936)):
        window = SearchWindow(radius, max_candidates=10 ** 30)
        assert sum(_candidate_counts(2, range(4, 2 * radius + 1), window)) == total


def test_candidate_lower_bound_holds():
    # every domain of a total t with t // 2 negative positions has a split
    # and a candidate, so comb(radius, t // 2) * comb(radius, t - t // 2)
    # is at most the count, and a cap below it is refused as the count is
    cells = 0
    for text in ("abs", "abs+2", "const:1", "const:3"):
        for radius in range(1, 7):
            window = SearchWindow(radius, parse_profile(text), max_candidates=10 ** 30)
            for m in (1, 2, 3):
                for total in range(2 * m, 2 * radius + 1):
                    bound = comb(radius, total // 2) * comb(radius, total - total // 2)
                    count = _candidate_counts(m, range(total, total + 1), window)[0]
                    assert bound <= count, (text, radius, m, total)
                    tight = SearchWindow(radius, window.profile, max_candidates=bound - 1)
                    with pytest.raises(SearchCapExceeded) as got:
                        _candidate_counts(m, range(total, total + 1), tight)
                    assert (str(got.value), got.value.candidates) \
                        == ("witness candidates exceed cap after %d tuples" % bound, bound)
                    cells += 1
    assert cells == 308


def test_lazy_shells_match_the_grouping():
    # each shell's splits, enumerated on their own, are the splits that
    # grouping every domain of the window by its outermost |position| gives
    for radius in range(1, 6):
        window = SearchWindow(radius, max_candidates=10 ** 30)
        for m in (1, 2, 3):
            for total in range(1, 2 * radius + 1):
                shells = reference_candidate_count(m, total, window)[1]
                for shell in range(1, radius + 1):
                    assert sorted(_shell_splits(m, total, shell)) \
                        == sorted(shells.get(shell, [])), (radius, m, total, shell)


def test_cap_boundary():
    for m, n, radius in ((1, 2, 2), (1, 4, 3), (2, 5, 3)):
        count = len(reference_candidates(m, n, SearchWindow(radius)))
        rep = hj_witness_search(Coloring(arity=2, seed=3), m, [1] * m, n,
                                SearchWindow(radius, max_candidates=count))
        assert rep.candidates == count
        with pytest.raises(SearchCapExceeded) as exc:
            hj_witness_search(Coloring(arity=2, seed=3), m, [1] * m, n,
                              SearchWindow(radius, max_candidates=count - 1))
        assert str(exc.value) == "witness candidates exceed cap after %d tuples" % count
        assert exc.value.candidates == count


def test_xi_cap_on_a_later_total_raises_before_any_candidate():
    # one color: the first candidate is a witness, yet the largest total
    # is over the cap, and every total is counted before the scan
    counts = [len(reference_candidates(1, total, SearchWindow(3))) for total in range(2, 7)]
    cap = max(counts)
    assert counts[0] < cap
    with pytest.raises(SearchCapExceeded) as exc:
        xi_witness_search(Coloring(arity=1, seed=0), ONE, 1, 2,
                          SearchWindow(3, max_candidates=cap - 1))
    assert exc.value.candidates == cap
    rep = xi_witness_search(Coloring(arity=1, seed=0), ONE, 1, 2,
                            SearchWindow(3, max_candidates=cap))
    assert rep.found and rep.nodes_expanded == 1 and rep.candidates == sum(counts)


def test_table_profiles_with_missing_bounds():
    coloring = Coloring(arity=2, seed=5)
    xi = parse_ordinal("w")

    def table(radius, missing):
        return parse_profile("table:" + ",".join("%d=%d" % (p, abs(p))
                                                 for p in range(-radius, radius + 1)
                                                 if p and p not in missing))

    # a window without candidates reads no bound: here only +-1 have one
    window = SearchWindow(3, parse_profile("table:-1=1,1=1"))
    rep = hj_witness_search(coloring, 2, [1, 1], 3, window)
    assert (rep.found, rep.nodes_expanded, rep.candidates, rep.grid_size) == (False, 0, 0, 1)
    rep = xi_witness_search(coloring, xi, 2, 2, SearchWindow(1, window.profile))
    assert (rep.found, rep.nodes_expanded, rep.candidates, rep.grid_size) == (False, 0, 0, 0)
    # one missing bound in the window is named, before any cap test
    for missing in (-3, 2):
        window = SearchWindow(3, table(3, {missing}), max_candidates=1)
        for search in (lambda: hj_witness_search(coloring, 1, [1], 2, window),
                       lambda: xi_witness_search(coloring, xi, 2, 4, window)):
            with pytest.raises(WordError, match="^profile table has no bound at %d$" % missing):
                search()
    # of several, the least missing position is named
    for missing, named in (({-2, -1, 3}, -2), ({1, 3}, 1), ({-3, 2}, -3)):
        window = SearchWindow(3, table(3, missing))
        for search in (lambda: hj_witness_search(coloring, 1, [1], 2, window),
                       lambda: xi_witness_search(coloring, xi, 1, 2, window)):
            with pytest.raises(WordError, match="^profile table has no bound at %d$" % named):
                search()


def test_xi_search_on_a_non_monotone_table():
    # the extraction checks run at the first candidate; with no candidate
    # there is nothing to check
    coloring = Coloring(arity=2, seed=0)
    falling = parse_profile("table:-2=1,-1=2,1=1,2=1")
    for radius, l in ((1, 1), (2, 1), (2, 2)):
        with pytest.raises(WordError, match="^profile must be sidedly monotone$"):
            xi_witness_search(coloring, ONE, l, 2, SearchWindow(radius, falling))
    rep = xi_witness_search(coloring, ONE, 2, 2, SearchWindow(1, falling))
    assert (rep.found, rep.nodes_expanded, rep.candidates) == (False, 0, 0)
    assert hj_witness_search(coloring, 1, [1], 2, SearchWindow(2, falling)).found


def test_verify_vacuous_flag():
    report = verify_witness([], Coloring(arity=2, seed=0), [])
    assert report.monochromatic and report.vacuous and report.instances == 0
    with pytest.raises(SearchError):
        verify_witness([make_word({-1: VARIABLE, 1: VARIABLE})],
                       Coloring(arity=2, seed=0), [])


def test_xi_search_reduces_to_hj_for_rank_one():
    window = SearchWindow(2)
    for seed in range(8):
        tuple_coloring = Coloring(arity=2, seed=seed)
        rep = xi_witness_search(tuple_coloring, ONE, 1, 2, window)
        word_coloring = Coloring(arity=2, seed=seed)
        hj = hj_witness_search(word_coloring, 1, [1], 2, window)
        # a singleton tuple over one word colors like the word itself
        assert (rep.witness, rep.color, rep.nodes_expanded) \
            == (hj.witness, hj.color, hj.nodes_expanded), seed
        if rep.found:
            assert verify_xi_witness(rep.witness, tuple_coloring, ONE, 2).monochromatic


def test_xi_search_rank_two():
    coloring = DomainParity(arity=2, seed=0)
    rep = xi_witness_search(coloring, from_int(2), 2, 4, SearchWindow(4))
    assert rep.found
    assert verify_xi_witness(rep.witness, coloring, from_int(2), 4).monochromatic
    assert rep.grid_size > 0


def test_xi_slices_match_reference():
    # sampled cells of every profile at radius <= 4 and l <= 3, fewer
    # tuples per radius-4 cell, under every xi and every n0 the radius allows
    xis = [parse_ordinal(text) for text in ("1", "2", "3", "w", "w+1", "w*2")]
    cases = slices = 0
    for radius, per_cell in ((1, 25), (2, 25), (3, 25), (4, 3)):
        for ws in sampled_candidates(radius, per_cell):
            constants = reference_extracted(ws)[0]
            for xi in xis:
                for n0 in range(2, 2 * radius + 1):
                    got = _xi_slices(ws, xi, n0)
                    want = reference_xi_slices(ws, xi, n0, constants)
                    assert len(got) == len(set(got)) == len(want), (ws, xi, n0)
                    assert set(got) == set(want), (ws, xi, n0)
                    cases += 1
                    slices += len(got)
    assert cases > 5000 and slices > 10000


def test_xi_search_matches_reference_search():
    # every report field on every cell with radius <= 3, l <= 2, xi in
    # {1, 2, 3, w} and every n0, under seeded colourings of arity 2 and 3
    memo = {}
    exhausted = found = 0
    for radius in (1, 2, 3):
        window = SearchWindow(radius)
        for l in (1, 2):
            for xi in map(parse_ordinal, ("1", "2", "3", "w")):
                for n0 in range(1, 2 * radius + 1):
                    for arity, seed in product((2, 3), range(2)):
                        coloring = Coloring(arity=arity, seed=1000 * radius + 10 * n0 + seed)
                        rep = xi_witness_search(coloring, xi, l, n0, window)
                        assert (rep.witness, rep.color, rep.grid_size, rep.nodes_expanded,
                                rep.candidates, rep.vacuous) \
                            == reference_xi_search(coloring, xi, l, n0, window, memo)
                        found += rep.found
                        exhausted += rep.candidates > 0 and rep.nodes_expanded == rep.candidates
    assert found > 100 and exhausted > 200


def test_verify_xi_checks_the_witness_when_no_plan_meets_n0():
    # no block plan of these one-word witnesses has 99 positions, yet the
    # extraction checks run before any plan is tested
    coloring = Coloring(arity=2, seed=0)
    with pytest.raises(WordError, match="^extraction needs variable words$"):
        verify_xi_witness([make_word({-1: -1, 1: 1})], coloring, ONE, 99)
    falling = parse_profile("table:-2=1,-1=2,1=1,2=1")
    with pytest.raises(WordError, match="^profile must be sidedly monotone$"):
        verify_xi_witness([make_word({-1: VARIABLE, 1: VARIABLE}, falling)], coloring, ONE, 99)
    short = parse_profile("table:-1=1,1=1")
    with pytest.raises(WordError, match="^profile table has no bound at -2$"):
        verify_xi_witness([make_word({-2: VARIABLE, -1: VARIABLE, 1: VARIABLE}, short)],
                          coloring, ONE, 99)
    report = verify_xi_witness([], coloring, ONE, 2)
    assert report.monochromatic and report.vacuous and report.color is None


def test_xi_grid_is_the_full_slice_count():
    coloring = DomainParity(arity=2, seed=0)
    for xi, l, n0 in ((ONE, 1, 2), (from_int(2), 2, 4), (parse_ordinal("w"), 2, 5)):
        rep = xi_witness_search(coloring, xi, l, n0, SearchWindow(4))
        assert rep.found, (xi, l, n0)
        assert rep.grid_size == len(reference_xi_slices(rep.witness, xi, n0)) > 0
        assert verify_xi_witness(rep.witness, coloring, xi, n0).instances == rep.grid_size


def test_xi_search_single_color_accepts_first_nonvacuous():
    rep = xi_witness_search(Coloring(arity=1, seed=0), ONE, 1, 2, SearchWindow(2))
    assert rep.found and rep.color == 0 and rep.grid_size >= 1


def test_xi_search_digit_parity_sound():
    coloring = digit_sum_coloring()
    rep = xi_witness_search(coloring, from_int(2), 2, 4, SearchWindow(4))
    if rep.found:
        assert verify_xi_witness(rep.witness, coloring, from_int(2), 4).monochromatic


def candidate_choices(m, total, window):
    # the side choices of witness_candidates' tuples, in its order
    for shell in range(1, window.radius + 1):
        splits = [(layers, None) for layers in _shell_splits(m, total, shell)]
        for _, combo, _ in _shell_candidates(splits, window.profile):
            yield combo


def candidate_sides(combo, slots, window):
    # the side texts of a candidate's side choices, one list per slot
    return [_side_texts(entries, side, top, window)
            for (_, entries), (side, top) in zip(combo, slots)]


def reference_plan_slice_texts(images, plans):
    # _plan_slices' order over the given per-member images: plan by plan,
    # one block per run, a block's constants in the product order of its
    # members' images
    for plan in plans:
        blocks = [[format_word(concat_all(combo)) for combo in product(*[images[i] for i in run])]
                  for run in plan]
        for texts in product(*blocks):
            yield ";".join(texts)


def test_instance_and_slice_texts_match_the_word_path():
    # every candidate of small windows: for every grid, the instance texts
    # are the distinct serializations of concat_all(substitute(...)) in grid
    # order, and for every xi plan the slice texts are color_tuple's keys
    # over the plan's slices of the members' whole-grid images, in order
    xis = [parse_ordinal(text) for text in ("1", "2", "w")]
    instances = slices = 0
    for text, radius, top in (("const:1", 3, 4), (CLAMPING_TABLE, 3, 4), ("const:10", 2, 3)):
        profile = parse_profile(text)
        window = SearchWindow(radius, profile)
        for m in (1, 2):
            cells = list(product(range(1, radius + 1), repeat=m))
            xi_slots = _side_slots(profile, range(1, m + 1))
            for total in range(2 * m, top + 1):
                for combo in candidate_choices(m, total, window):
                    ws = _words(combo, profile)
                    for bounds in cells:
                        sides = candidate_sides(combo, _side_slots(profile, bounds), window)
                        got = list(_instance_texts(sides, range(m)))
                        want = [format_word(concat_all([substitute(w, *pq)
                                                        for w, pq in zip(ws, pairs)]))
                                for pairs in product(*[_grid(profile, b) for b in bounds])]
                        assert got == list(dict.fromkeys(want)), (ws, bounds)
                        instances += len(want)
                    sides = candidate_sides(combo, xi_slots, window)
                    images = [reference_images(w, index) for index, w in enumerate(ws, 1)]
                    for xi in xis:
                        for n0 in range(2, total + 1):
                            plans = _xi_plans(tuple(len(w.entries) for w in ws),
                                              tuple(w.min_dom_pos for w in ws), xi, n0)
                            want = list(reference_plan_slice_texts(images, plans))
                            assert list(_slice_texts(sides, plans)) == want, (ws, xi, n0)
                            slices += len(want)
    assert instances > 20000 and slices > 10000


def test_side_pools_are_the_choices_with_the_variable():
    # a side pool is every letter choice of its positions that carries
    # the variable, as (text + suffix, entries) in text order; built from
    # each choice's first variable, it makes no choice without one
    checked = 0
    for text in ("abs", "const:1", "const:3", CLAMPING_TABLE):
        profile = parse_profile(text)
        for positions in ((-3,), (2,), (-3, -2), (-3, -2, -1), (1, 2), (1, 2, 3)):
            choices = product(*[[(p, l) for l in _letters(p, profile)] for p in positions])
            want = sorted((format_word(make_word(entries, profile)) + ";", entries)
                          for entries in choices if any(l == VARIABLE for _, l in entries))
            assert list(search._side_pool(positions, ";", profile)) == want, (text, positions)
            checked += len(want)
    assert checked > 200, checked


def test_a_planless_xi_search_builds_no_word(monkeypatch):
    # xi = 3 and n0 = 4: no split of an l = 2 window has a block plan, so
    # the search counts every candidate and builds no pool and no word, and
    # the visits it keeps hold no split, with or without a plan
    def refuse(*args):
        raise AssertionError("a word was built")

    monkeypatch.setattr(search, "_side_pool", refuse)
    monkeypatch.setattr(search, "LocatedWord", refuse)
    for radius, count in ((3, 169), (5, 2232036)):
        clear_search_caches()
        rep = xi_witness_search(Coloring(arity=2, seed=1), from_int(3), 2, 4,
                                SearchWindow(radius, max_candidates=count))
        assert (rep.found, rep.grid_size, rep.nodes_expanded, rep.candidates) \
            == (False, 0, count, count)
    # the cache's LRU list holds the kept visits, one per total and shell
    # that holds its domains: shells 2 to 5 of total 4, down to shell 5 of
    # total 10
    visits = [obj for obj in gc.get_referents(search._shell_visit)
              if isinstance(obj, search._Visit)]
    assert len(visits) == 16
    assert all(visit.planned == visit.planless == () for visit in visits)


def test_a_planless_search_run_again_reads_only_kept_visits():
    # the plan-less radius-7 xi search reads 36 shells, those that hold a
    # domain of one of its totals 4 to 14, so all its visits stay kept: the
    # same search run again in the process reads every shell from its kept
    # visit, lays none out, and reports the same
    window = SearchWindow(7, max_candidates=10 ** 14)
    clear_search_caches()
    first = xi_witness_search(Coloring(arity=2, seed=1), from_int(3), 2, 4, window)
    cold = search._shell_visit.cache_info()
    again = xi_witness_search(Coloring(arity=2, seed=1), from_int(3), 2, 4, window)
    warm = search._shell_visit.cache_info()
    assert report_fields(again) == report_fields(first) \
        == (None, None, 0, 38_099_916_864, 38_099_916_864, False)
    assert (cold.hits, cold.misses) == (0, 36)
    assert (warm.hits - cold.hits, warm.misses) == (cold.misses, cold.misses)


def test_an_early_hj_search_builds_only_what_it_visits(monkeypatch):
    # the split streams are merged, so a search stops after building its
    # visited candidates and what the layout of each visited shell builds:
    # its kept prefix, and for a shell laid out only in part, one more
    # candidate per split, and the prefix and a head per split again when
    # the search merges the splits past the prefix.  Each search starts
    # from cold caches, as a kept visit builds nothing
    split_stream = search._split_stream
    built = []

    def counted(pools, tag):
        for item in split_stream(pools, tag):
            built.append(item)
            yield item

    monkeypatch.setattr(search, "_split_stream", counted)
    found = 0
    for m, bounds, n in ((1, [2], 3), (2, [1, 2], 4), (2, [1, 2], 5)):
        for seed in range(10):
            clear_search_caches()
            built.clear()
            window = SearchWindow(4)
            rep = hj_witness_search(Coloring(arity=2, seed=seed), m, bounds, n, window)
            last = max(max(-w.dom[0], w.dom[-1]) for w in rep.witness) if rep.found else 4
            slots = tuple(_side_slots(window.profile, bounds))
            visits = [search._shell_visit(m, n, shell, window.profile, slots, None, n,
                                          window.max_candidates)
                      for shell in range((n + 1) // 2, last + 1)]
            layout = sum(len(v.kept) + (0 if v.complete else 2 * len(v.planned)) for v in visits)
            assert rep.nodes_expanded <= len(built) <= rep.nodes_expanded + layout
            found += rep.found
            if not rep.found:
                assert rep.nodes_expanded == rep.candidates
    assert found > 15


def test_nodes_is_the_witness_place_in_the_candidate_lists():
    # nodes_expanded, read from the counts, against its definition: the
    # witness's 1-based index in witness_candidates over the search's totals
    found = 0
    for text, radii in (("abs", (2, 3)), ("abs+1", (2, 3)), ("const:2", (2, 3)),
                        ("const:10", (2,))):
        for radius in radii:
            window = SearchWindow(radius, parse_profile(text))
            for m in (1, 2):
                totals = range(2 * m, 2 * radius + 1)
                lists = {total: witness_candidates(m, total, window) for total in totals}
                places = {total: {ws: i for i, ws in enumerate(lists[total], 1)}
                          for total in totals}
                # hj has the one total n, xi every total from 2m up
                before = {total: sum(len(lists[t]) for t in totals if t < total)
                          for total in totals}
                reports = [({n: 0}, hj_witness_search(Coloring(arity=2, seed=seed), m, bounds,
                                                      n, window))
                           for bounds in ([1] * m, [2] * m) for n in totals for seed in (0, 1)]
                reports += [(before, xi_witness_search(Coloring(arity=2, seed=seed),
                                                       parse_ordinal(xi), m, n0, window))
                            for xi in ("1", "2", "w") for n0 in range(2, 2 * radius + 1)
                            for seed in (0, 1)]
                for offsets, rep in reports:
                    if rep.found:
                        total = sum(map(word_length, rep.witness))
                        assert rep.nodes_expanded == offsets[total] + places[total][rep.witness]
                        found += 1
    assert found > 200


def test_a_witness_in_an_outer_shell_under_a_raised_cap():
    # no split of totals 4 to 9 has a plan for n0 = 10, so nodes adds their
    # counts, far over the default cap, to the candidates visited in shell 5
    # of total 10, where the witness lies
    rep = xi_witness_search(Coloring(arity=2, seed=1), parse_ordinal("w"), 2, 10,
                            SearchWindow(6, max_candidates=300_000_000))
    assert (rep.nodes_expanded, rep.color, rep.grid_size) == (48_072_922, 1, 4)
    assert max(max(-w.dom[0], w.dom[-1]) for w in rep.witness) == 5


SEARCH_CACHES = (search._side_pool, search._xi_plans, search._window_counts, search._shell_visit)


def clear_search_caches():
    for cache in SEARCH_CACHES:
        cache.cache_clear()


def sweep_digest(reverse=False):
    """The SHA-256 of the report sweep's lines, with the searches run in
    the sweep's order or in reverse; the lines are in the sweep's order.

    hj and xi reports on abs, abs+1, const:2 and const:10 under seeded
    colourings: witnesses early and late, xi witnesses found after splits
    with no plan, and exhausts."""
    cells = []
    for text, radii in (("abs", (2, 3)), ("abs+1", (2, 3)), ("const:2", (2, 3)),
                        ("const:10", (2,))):
        for radius in radii:
            window = SearchWindow(radius, parse_profile(text))
            for arity, seed in product((2, 3), range(2)):
                coloring = Coloring(arity=arity, seed=7919 * radius + 31 * arity + seed)
                cell = "%s r%d a%d s%d" % (text, radius, arity, seed)
                for bounds in ([1], [2], [1, 2]):
                    for n in range(2 * len(bounds), 2 * radius + 1):
                        cells.append(("hj %s b%s n%d" % (cell, bounds, n), partial(
                            hj_witness_search, coloring, len(bounds), bounds, n, window)))
                for xi, l in product(("1", "2", "3", "w"), (1, 2)):
                    for n0 in range(2, 2 * radius + 1):
                        cells.append(("xi %s %s l%d n%d" % (cell, xi, l, n0), partial(
                            xi_witness_search, coloring, parse_ordinal(xi), l, n0, window)))
    order = range(len(cells))
    reports = {i: cells[i][1]() for i in (reversed(order) if reverse else order)}
    lines = []
    for i in order:
        rep = reports[i]
        witness = ";".join(map(format_word, rep.witness)) if rep.witness else "none"
        lines.append("%s %s %s %d %d %d" % (cells[i][0], witness, rep.color, rep.grid_size,
                                            rep.nodes_expanded, rep.candidates))
    assert len(lines) == 1132
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# taken from the search that built and sorted every candidate of a shell and
# coloured instances as words; nodes_expanded pins the ranks of the splits
# skipped by shape
SWEEP_DIGEST = "9d218a6716057078beb0a76a7cfb7b0cfb3b007d7f9e918e0a02b5161dfb893a"


def test_report_sweep_digest():
    assert sweep_digest() == SWEEP_DIGEST


def test_warm_caches_change_no_report():
    # the sweep from cold caches, then again warm and in reverse, so its
    # last searches find their visits, pools, plans and counts kept: a kept
    # result that a caller changed, or a key that misses a parameter (the
    # profile of a pool, the xi or total of a plan, the grid tops of a
    # visit, the cap of a count), changes a report.  The pools, plans and
    # counts of the whole sweep fit their caches, so the warm sweep misses
    # none of them.  It takes more hits than the cold sweep from every
    # cache but the pools, which it reads about as often (10,348 hits
    # against 10,360), as a kept witness keeps its rank
    clear_search_caches()
    assert sweep_digest() == SWEEP_DIGEST
    cold = [cache.cache_info() for cache in SEARCH_CACHES]
    assert sweep_digest(reverse=True) == SWEEP_DIGEST
    for cache, before in zip(SEARCH_CACHES, cold):
        after = cache.cache_info()
        assert after.misses - before.misses < before.misses
        share = 0.99 if cache is search._side_pool else 1
        assert after.hits - before.hits > share * before.hits
        if cache is not search._shell_visit:
            assert after.misses == before.misses


def test_kept_counts_are_the_counts_worked_out_again(monkeypatch):
    # every count the report sweep asks for, by (m, totals) and the
    # window's fields, read warm from the memo and worked out again from a
    # cleared one, through the window the fields make
    kept, asked = search._window_counts, []

    def recording(*key):
        asked.append(key)
        return kept(*key)

    monkeypatch.setattr(search, "_window_counts", recording)
    clear_search_caches()
    assert sweep_digest() == SWEEP_DIGEST
    monkeypatch.undo()
    keys = sorted(set(asked), key=repr)
    windows = [(m, totals, SearchWindow(radius, profile, cap))
               for m, totals, radius, profile, cap in keys]
    assert len(keys) == kept.cache_info().misses == 77
    warm = [_candidate_counts(*window) for window in windows]
    assert kept.cache_info().misses == 77
    for window, counts in zip(windows, warm):
        kept.cache_clear()
        assert _candidate_counts(*window) == counts, window
        assert kept.cache_info().misses == 1
    assert sum(map(sum, warm)) > 0


def test_a_refused_count_is_refused_on_every_call():
    # no call that raised is kept, so a window over its cap is refused
    # every time, also after the same window under a larger cap was counted
    # and kept, and a table window with a missing bound likewise
    counts = _candidate_counts(1, range(2, 7), SearchWindow(3))
    tight = SearchWindow(3, max_candidates=max(counts) - 1)
    refusals = []
    for _ in range(2):
        with pytest.raises(SearchCapExceeded) as exc:
            _candidate_counts(1, range(2, 7), tight)
        refusals.append((str(exc.value), exc.value.candidates))
    assert refusals == [("witness candidates exceed cap after %d tuples" % max(counts),
                         max(counts))] * 2
    gap = SearchWindow(2, parse_profile("table:-2=2,-1=1,1=1"))
    for _ in range(2):
        with pytest.raises(WordError, match="profile table has no bound at 2"):
            _candidate_counts(1, range(2, 5), gap)
    assert _candidate_counts(1, range(2, 7), SearchWindow(3)) == counts


def test_search_caches_stay_within_their_sizes():
    # searches over more keys than each cache holds, each stopping at its
    # first candidate with a plan under a one-colour colouring: xi searches
    # of radius 6 for n0 = 8..12 read 1,586 plan shapes, and hj searches of
    # every total of the const:1 windows of radius up to 10 build 609 pools
    # and count 216 (m, total, window); together they lay out 144 shells
    # and count 222 times.  Every cache ends full, at its size
    clear_search_caches()
    one = Coloring(arity=1, seed=0)
    for n0 in range(8, 13):
        rep = xi_witness_search(one, parse_ordinal("w"), 2, n0,
                                SearchWindow(6, max_candidates=10 ** 12))
        assert rep.found
    for m in (1, 2):
        for radius in range(m, 11):
            window = SearchWindow(radius, parse_profile("const:1"), max_candidates=10 ** 12)
            for n in range(2 * m, 2 * radius + 1):
                rep = hj_witness_search(one, m, [1] * m, n, window)
                assert rep.nodes_expanded == 1
    for cache in SEARCH_CACHES:
        info = cache.cache_info()
        assert info.misses > info.maxsize == info.currsize, (cache, info)


def test_retained_search_state_stays_flat():
    # 40 distinct const:k windows, each with its own pools (8 per window),
    # pass through the pool cache twice over; what stays traced after the
    # last 20 windows is within 32 KB of what stayed after the first 20,
    # under half of what one search writes into its side texts and colours,
    # which stay in the call (an unbounded pool cache adds about 70 KB)
    def search_under(k):
        hj_witness_search(Coloring(arity=2, seed=k), 1, [1], 2,
                          SearchWindow(4, DominationProfile("const", k)))

    clear_search_caches()
    search_under(60)
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(61, 81):
            search_under(k)
        gc.collect()
        half = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for k in range(81, 101):
            search_under(k)
        gc.collect()
        full, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full - half < 32 * 1024, (half, full)
    assert peak - full > 2 * 32 * 1024, (peak, full)
    info = search._side_pool.cache_info()
    assert info.misses > 2 * info.maxsize


class Recolored(Coloring):
    """Colours a key one past its seeded colour: another colouring that
    reads the same texts, in the same order, as the seeded one."""

    def color_key(self, key):
        return (super().color_key(key) + 1) % self.arity


class Logged(Coloring):
    """Colours as its seed does and keeps the colour of each key read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = {}

    def color_key(self, key):
        color = self.seen[key] = super().color_key(key)
        return color


def report_fields(rep):
    return rep.witness, rep.color, rep.grid_size, rep.nodes_expanded, rep.candidates, rep.vacuous


def test_colour_sweeps_on_kept_visits_match_cold_searches():
    # 50 colourings (seeded ones, seeded ones recoloured, tables over a
    # seed and whole tables) swept over shared windows, hj and xi searches
    # taking turns, so each search replays visits that other colourings
    # laid out and streams past them.  Every warm report is the report
    # after every search cache is cleared, and on the radius-3 windows the
    # report of the search by definition
    specs = [("hj", 1, (2,), 3), ("hj", 2, (1, 2), 4), ("xi", "w", 2, 4), ("xi", "1", 1, 2)]

    def run(spec, coloring, window):
        if spec[0] == "hj":
            return hj_witness_search(coloring, spec[1], spec[2], spec[3], window)
        return xi_witness_search(coloring, parse_ordinal(spec[1]), spec[2], spec[3], window)

    def by_definition(spec, coloring, window, memo):
        if spec[0] == "hj":
            return reference_hj_search(coloring, *spec[1:], window)
        return reference_xi_search(coloring, parse_ordinal(spec[1]), spec[2], spec[3], window,
                                   memo)

    compared = found = 0
    for text, radius in (("abs", 3), ("abs", 4), ("const:2", 3)):
        window = SearchWindow(radius, parse_profile(text))
        memo = {}
        colorings = {spec: [Coloring(arity=2, seed=seed) for seed in range(20)]
                     + [Coloring(arity=3, seed=seed) for seed in range(10)]
                     + [Recolored(arity=2, seed=seed) for seed in range(10)]
                     + [Recolored(arity=3, seed=seed) for seed in range(5)] for spec in specs}
        for spec, sweep in colorings.items():
            for seed in (100, 101):
                # a whole table holds every key the searches read under it
                logged = Logged(arity=2, seed=seed)
                run(spec, logged, window)
                if radius == 3:
                    by_definition(spec, logged, window, memo)
                keys = list(logged.seen)
                sweep += [Coloring(arity=2, table=logged.seen),
                          Coloring(arity=2, table=dict.fromkeys(keys[:6], 0), seed=seed + 1)]
            sweep.append(Coloring(arity=3, table=dict.fromkeys(keys[::2], 1), seed=7))
            assert len(sweep) == 50
        clear_search_caches()
        warm = {spec: [] for spec in specs}
        for i in range(50):
            for spec in specs:
                warm[spec].append(report_fields(run(spec, colorings[spec][i], window)))
        assert search._shell_visit.cache_info().hits > 0
        for spec in specs:
            for coloring, got in zip(colorings[spec], warm[spec]):
                clear_search_caches()
                assert got == report_fields(run(spec, coloring, window)), (text, radius, spec)
                if radius == 3:
                    assert got == by_definition(spec, coloring, window, memo), (text, spec)
                compared += 1
                found += got[0] is not None
    assert compared == 600 and 200 < found < 600, found


def test_searches_change_no_visit_but_its_ranks():
    # visits are laid out once: 50 searches under other colourings, hj and
    # xi taking turns over the windows of the visits held, replay their
    # prefixes, stream past the incomplete ones and find witnesses, yet
    # every field of every visit but its rank memo is the object it was,
    # holding the values it held when the visit was made
    fields = ("kept", "memos", "complete", "planned", "plans", "planless", "inner")
    runs = [partial(hj_witness_search, m=2, bounds=[1, 2], n=5, window=SearchWindow(4)),
            partial(hj_witness_search, m=1, bounds=[2], n=3, window=SearchWindow(4)),
            partial(xi_witness_search, xi=parse_ordinal("w"), l=2, n0=4, window=SearchWindow(4))]
    clear_search_caches()
    for run in runs:
        run(Coloring(arity=2, seed=0))
    visits = [obj for obj in gc.get_referents(search._shell_visit)
              if isinstance(obj, search._Visit)]
    held = [[(getattr(visit, name), copy.deepcopy(getattr(visit, name))) for name in fields]
            for visit in visits]
    found = sum(runs[i % 3](Coloring(arity=(2, 3, 40)[i // 3 % 3], seed=100 + i)).found
                for i in range(50))
    assert 10 < found < 50 and any(not visit.complete for visit in visits)
    for visit, before in zip(visits, held):
        for name, (value, copied) in zip(fields, before):
            assert getattr(visit, name) is value and value == copied, name


def test_searches_from_four_threads_give_the_sequential_reports():
    # 40 seeds each of CI's colour-sweep hj and xi searches and three seeds
    # of the exhaustive radius-5 search, run one by one from cleared
    # caches.  Then six trials, each from cleared caches: the sweep and one
    # exhaustive search, shuffled over four threads with the interpreter
    # switching threads every microsecond, so threads lay out, replay and
    # stream past shared visits at once.  Every report is the sequential
    # one.  A race on shared visits shows in about half of single trials
    # of this size, so the test runs six
    w4, xi = SearchWindow(4), parse_ordinal("w")
    sweep = [partial(hj_witness_search, Coloring(arity=3, seed=seed), 2, [1, 2], 5, w4)
             for seed in range(40)]
    sweep += [partial(xi_witness_search, Coloring(arity=2, seed=seed), xi, 2, 4, w4)
              for seed in range(40)]
    exhaustive = [partial(hj_witness_search, Coloring(arity=40, seed=seed), 2, [2, 2], 6,
                          SearchWindow(5)) for seed in range(3)]
    clear_search_caches()
    want = {run: report_fields(run()) for run in sweep + exhaustive}
    assert sum(rep[0] is not None for rep in want.values()) > 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(6):
            runs = sweep + [exhaustive[trial % 3]]
            random.Random(trial).shuffle(runs)
            got, errors = {}, []

            def work(chunk):
                try:
                    for run in chunk:
                        got[run] = report_fields(run())
                except Exception as exc:  # a thread's failure is the test's
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(runs[k::4],)) for k in range(4)]
            clear_search_caches()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), trial
            assert not errors, (trial, errors)
            assert [run for run in runs if got[run] != want[run]] == [], trial
    finally:
        sys.setswitchinterval(interval)


def reference_prefix(m, total, shell, window, bounds, xi=None, n0=None):
    """The texts of the candidates a visit lays out, and whether they are
    all of the shell's, by the rule: the candidates of the shell with a
    block plan, in serialization order, while each one's new side texts
    and all its slice texts fit what VISIT_TEXTS leaves, and none of its
    sides passes the window's cap.  Built from the reference candidates."""
    slots = _side_slots(window.profile, bounds)
    room, seen, kept = search.VISIT_TEXTS, set(), []
    for ws in reference_candidates(m, total, window):
        if max(max(-w.dom[0], w.dom[-1]) for w in ws) != shell:
            continue
        plans = (((tuple(range(m)),),) if xi is None else _xi_plans(
            tuple(len(w.entries) for w in ws), tuple(w.min_dom_pos for w in ws), xi, n0))
        if not plans:
            continue
        sides = []
        for w in ws:
            cut = bisect_left(w.dom, 0)
            sides += [w.entries[:cut], w.entries[cut:]]
        try:
            texts = [_side_texts(entries, side, top, window)
                     for entries, (side, top) in zip(sides, slots)]
        except SearchCapExceeded:
            return kept, False
        new = set(enumerate(sides)) - seen
        need = sum(len(texts[i]) for i, _ in new) + len(list(_slice_texts(texts, plans)))
        if need > room:
            return kept, False
        seen |= new
        room -= need
        kept.append(serialize_tuple(ws))
    return kept, True


def test_visits_lay_out_the_reference_prefix():
    # every visit of hj and xi searches over radius-3 windows of four
    # profiles keeps the reference prefix: those that stop short of their
    # shell, those that stop exactly at VISIT_TEXTS, and, under a cap of
    # 10, one whose side of exactly 10 texts is laid out and one whose side
    # of 50 stops the layout
    table = "table:-3=3,-2=1,-1=2,1=1,2=3,3=2"
    cases = [(text, 10 ** 6, bounds, None, None)
             for text in ("abs", "const:2", table) for bounds in ([1], [2], [1, 2], [2, 1])]
    cases += [(text, 10 ** 6, [1, 2], parse_ordinal(xi), n0)
              for text in ("abs", table) for xi, n0 in (("w", 4), ("w", 5), ("2", 4), ("1", 3))]
    cases += [("table:-3=%d,-2=2,-1=2,1=2,2=2,3=2" % k, 10, [3], None, None) for k in (10, 50)]
    shells = {True: 0, False: 0}
    full = 0
    for text, cap, bounds, xi, n0 in cases:
        window = SearchWindow(3, parse_profile(text), max_candidates=cap)
        m = len(bounds)
        slots = tuple(_side_slots(window.profile, bounds))
        for total in range(2 * m, 7 if cap > 10 else 3):
            for shell in range((total + 1) // 2, 4):
                visit = search._shell_visit(m, total, shell, window.profile, slots, xi,
                                            n0 if xi else total, cap)
                kept, complete = reference_prefix(m, total, shell, window, bounds, xi, n0)
                assert ([c[0] for c in visit.kept], visit.complete) == (kept, complete), \
                    (text, bounds, xi, n0, total, shell)
                shells[complete] += 1
                full += sum(len(texts) for memo in visit.memos for texts in memo.values()) \
                    + sum(len(c[4]) for c in visit.kept) == search.VISIT_TEXTS
    at_cap = search._shell_visit(1, 2, 3, parse_profile(cases[-2][0]),
                                 tuple(_side_slots(parse_profile(cases[-2][0]), [3])), None, 2,
                                 10)
    assert at_cap.complete and len(at_cap.kept) == 5
    assert shells[True] > 20 and shells[False] > 20 and full > 5, (shells, full)


def test_a_search_past_a_prefix_builds_each_side_once(monkeypatch):
    # past an incomplete prefix a search builds a side's texts when it
    # first reads them in the shell, then reads them from the visit's
    # memos or its own: the exhaustive radius-5 search with grid tops 1
    # and 2, its visits laid out, builds no side twice in one shell (the
    # tops tell the members apart)
    side_texts, visit_candidates = search._side_texts, search._visit_candidates
    shells, built = [], []

    def counted(entries, side, top, window):
        built.append((len(shells), entries, side, top))
        return side_texts(entries, side, top, window)

    def visiting(visit, slots, window):
        shells.append(visit)
        return visit_candidates(visit, slots, window)

    run = partial(hj_witness_search, Coloring(arity=400, seed=3), 2, [1, 2], 6, SearchWindow(5))
    clear_search_caches()
    first = report_fields(run())
    monkeypatch.setattr(search, "_side_texts", counted)
    monkeypatch.setattr(search, "_visit_candidates", visiting)
    assert report_fields(run()) == first and first[0] is None
    assert len(built) == len(set(built)) > 100 and not all(v.complete for v in shells)


def test_the_last_kept_candidate_keeps_its_rank(monkeypatch):
    # the xi search's witness under this seed is the last candidate of its
    # shell's prefix, in a shell with splits without plans: the rank found
    # once is kept, so a search that finds it again builds no pool
    def refuse(*args):
        raise AssertionError("built again")

    run = partial(xi_witness_search, xi=parse_ordinal("w"), l=2, n0=4, window=SearchWindow(4))
    clear_search_caches()
    first = report_fields(run(Coloring(arity=2, seed=6)))
    shell = max(max(-w.dom[0], w.dom[-1]) for w in first[0])
    visit = search._shell_visit(2, sum(map(word_length, first[0])), shell, ABS,
                                tuple(_side_slots(ABS, [1, 2])), parse_ordinal("w"), 4,
                                search.MAX_CANDIDATES)
    assert visit.kept[-1][0] == serialize_tuple(first[0]) and visit.planless
    monkeypatch.setattr(search, "_split_pools", refuse)
    again = report_fields(run(Recolored(arity=2, seed=6)))
    assert again == first[:1] + ((first[1] + 1) % 2,) + first[2:]


def test_a_repeated_search_builds_nothing_for_its_kept_prefix(monkeypatch):
    # a search under another colouring that reads the same texts replays
    # the kept visits: no candidate, side text or slice text is built, and
    # a witness's rank over the splits without plans is read from its kept
    # candidate, with no split's pools
    def refuse(*args):
        raise AssertionError("built again")

    searches = [partial(hj_witness_search, m=1, bounds=[2], n=3, window=SearchWindow(4)),
                partial(hj_witness_search, m=2, bounds=[1, 2], n=4, window=SearchWindow(3)),
                partial(xi_witness_search, xi=parse_ordinal("w"), l=2, n0=4,
                        window=SearchWindow(3))]
    found = exhausted = 0
    for run in searches:
        for arity, seed in product((2, 3, 40), range(4)):
            clear_search_caches()
            first = report_fields(run(Coloring(arity=arity, seed=seed)))
            with monkeypatch.context() as patched:
                for name in ("_split_stream", "_split_pools", "_side_texts", "_slice_texts"):
                    patched.setattr(search, name, refuse)
                again = report_fields(run(Recolored(arity=arity, seed=seed)))
            if first[0] is None:
                assert again == first
                exhausted += 1
            else:
                assert again == first[:1] + ((first[1] + 1) % arity,) + first[2:]
                found += 1
    assert found > 10 and exhausted > 5, (found, exhausted)


def test_kept_visits_hold_no_iterator():
    # searches that stop at an early witness leave visits with kept
    # candidates short of the shell's last; each holds its splits,
    # candidates and texts as values, so no generator or other iterator is
    # reachable from a kept visit
    clear_search_caches()
    found = 0
    for seed in range(6):
        found += hj_witness_search(Coloring(arity=2, seed=seed), 2, [1, 2], 4,
                                   SearchWindow(4)).found
        found += xi_witness_search(Coloring(arity=2, seed=seed), parse_ordinal("w"), 2, 4,
                                   SearchWindow(3)).found
    # the cache's LRU list holds the kept visits
    visits = [obj for obj in gc.get_referents(search._shell_visit)
              if isinstance(obj, search._Visit)]
    assert found > 6 and sum(len(visit.kept) for visit in visits) > 10
    seen, todo = set(), list(visits)
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            assert not isinstance(obj, Iterator), type(obj)
            if isinstance(obj, (search._Visit, tuple, list, dict)):
                todo += gc.get_referents(obj)


def test_a_search_refused_partway_through_a_shell_is_refused_again():
    # the table gives -3 the bound 50 and every other position 2, so of the
    # 9 candidates of radius 3, under a cap of 10, those with -3 have a side
    # of 50 texts.  The visit of shell 3 lays out the two candidates before
    # the first of them and stops there, incomplete, as it counts a side's
    # texts before it builds them; the search replays the two and is
    # refused past them, and repeated in the process it is refused alike
    # from the same visit
    profile = parse_profile("table:-3=50,-2=2,-1=2,1=2,2=2,3=2")
    window = SearchWindow(3, profile, max_candidates=10)
    slots = tuple(_side_slots(profile, [3]))
    clear_search_caches()
    refusals = []
    for _ in range(3):
        with pytest.raises(SearchCapExceeded) as exc:
            hj_witness_search(Coloring(arity=40, seed=1), 1, [3], 2, window)
        visit = search._shell_visit(1, 2, 3, profile, slots, None, 2, 10)
        refusals.append((str(exc.value), [c[0] for c in visit.kept], visit.complete))
    assert refusals == [("side substitution texts exceed cap after 11 texts",
                         ["-1:v,3:v", "-2:v,3:v"], False)] * 3


def test_an_exhaustive_radius_5_search_keeps_visits_within_their_budget():
    # hj with bounds 2,2 and n = 6 under 40 colours visits all 31,360
    # candidates of radius 5.  Shells 1 and 2 hold no domain of 6 positions
    # and are never visited; shells 3, 4 and 5 (600 splits) lay out 19, 13
    # and 13 candidates, each with all its slice texts, and stop short of
    # the shell, so each visit keeps at most VISIT_TEXTS texts.  The visits
    # own the shells' 700 splits, traced alone (about 131 KB); what they
    # keep beyond them, traced with the lower caches warm (about 58 KB),
    # stays within 320 bytes a text.  The whole state a search from cold
    # caches retains (about 364 KB) is no
    # more than when a cache of their own kept the splits, as that design
    # read under each Python (3.13's figure on a later one).  Python 3.10
    # also allocates per-function state the first time a function runs
    # hot, which a fresh process traces here.  Warm or cold, the report is
    # the same
    def retained(run):
        gc.collect()
        tracemalloc.start()
        try:
            out = run()
            gc.collect()
            return out, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    coloring, window = Coloring(arity=40, seed=3), SearchWindow(5)
    slots = tuple(_side_slots(window.profile, [2, 2]))
    run = partial(hj_witness_search, coloring, 2, [2, 2], 6, window)
    clear_search_caches()
    cold, whole = retained(run)
    assert report_fields(cold) == (None, None, 16, 31_360, 31_360, False)
    search._shell_visit.cache_clear()
    again, kept = retained(run)
    splits, own = retained(lambda: [_shell_splits(2, 6, shell) for shell in range(3, 6)])
    assert sum(map(len, splits)) == 700
    hits = search._shell_visit.cache_info().hits
    visits = [search._shell_visit(2, 6, shell, window.profile, slots, None, 6,
                                  window.max_candidates) for shell in range(3, 6)]
    assert search._shell_visit.cache_info().hits == hits + 3
    for visit in visits:
        texts = sum(len(texts) for memo in visit.memos for texts in memo.values())
        texts += sum(len(c[4]) for c in visit.kept)
        assert texts <= search.VISIT_TEXTS and not visit.complete
    assert len(visits[2].planned) == 600 and visits[2].kept
    assert kept - own < len(visits) * search.VISIT_TEXTS * 320, (kept, own)
    split_cache = {(3, 10): 442_984, (3, 11): 412_089, (3, 12): 402_289, (3, 13): 402_361}
    assert whole <= split_cache.get(sys.version_info[:2], 402_361), whole
    assert report_fields(again) == report_fields(cold) == report_fields(run())


def test_psi_map():
    assert psi_map(make_word({-1: -1, 2: 2}), INT_LINEAR) == 5
    assert psi_map(make_word({-2: -1, 1: 1, 3: VARIABLE}), STRING_CONCAT) \
        == "y(-1,-2)y(1,1)y(0,3)"


def test_psi_morphism_over_concat():
    from zwords.words import concat
    rng = random.Random(777)
    for _ in range(200):
        pool = [p for p in range(-5, 6) if p]
        doms = rng.sample(pool, 4)
        left = make_word({p: (rng.randint(1, abs(p)) if p > 0 else -rng.randint(1, abs(p)))
                          for p in doms[:2]})
        right_dom = [p for p in doms[2:] if p not in left.dom]
        if not right_dom:
            continue
        right = make_word({p: (rng.randint(1, abs(p)) if p > 0 else -rng.randint(1, abs(p)))
                           for p in right_dom})
        assert psi_map(concat(left, right), INT_LINEAR) \
            == psi_map(left, INT_LINEAR) + psi_map(right, INT_LINEAR)


def test_fs_enumerate():
    assert fs_enumerate([1, 10, 100], INT_LINEAR) == {1, 10, 100, 11, 101, 110, 111}
    xs = [10 ** i for i in range(6)]
    values = fs_enumerate(xs, INT_LINEAR)
    assert len(values) == 2 ** 6 - 1  # digit-disjoint sums are distinct
    # 2^64 - 1 index subsets, 64 distinct sums
    assert fs_enumerate([1] * 64, INT_LINEAR) == set(range(1, 65))


def test_fs_two_sided():
    assert fs_two_sided(["a1", "a2"], ["b1", "b2"], STRING_CONCAT) \
        == {"a1b1", "a2b2", "a2a1b1b2"}
    assert fs_two_sided([1] * 64, [2] * 64, INT_LINEAR) == set(range(3, 3 * 64 + 1, 3))
    with pytest.raises(SearchError):
        fs_two_sided([1], [1, 2], INT_LINEAR)


LEFT_ZERO = SemigroupSpec(op=lambda a, b: a, y=lambda l, n: (l, n))


def _mat_mul_mod3(a, b):
    return ((a[0] * b[0] + a[1] * b[2]) % 3, (a[0] * b[1] + a[1] * b[3]) % 3,
            (a[2] * b[0] + a[3] * b[2]) % 3, (a[2] * b[1] + a[3] * b[3]) % 3)


MAT_MOD3 = SemigroupSpec(op=_mat_mul_mod3, y=lambda l, n: (l % 3, n % 3, 0, 1))


def test_fs_matches_the_subset_fold():
    rng = random.Random(4242)
    cases = []
    for _ in range(40):
        n = rng.randint(0, 12)
        cases.append((INT_LINEAR, [rng.randint(-4, 6) for _ in range(n)],
                      [rng.randint(-4, 6) for _ in range(n)]))
    for _ in range(30):
        n = rng.randint(0, 8)
        cases.append((STRING_CONCAT, [rng.choice("ab") * rng.randint(1, 2) for _ in range(n)],
                      [rng.choice(["", "b", "ba"]) for _ in range(n)]))
    def matrix():
        return tuple(rng.randrange(3) for _ in range(4))
    for spec in (LEFT_ZERO, MAT_MOD3):
        for _ in range(30):
            n = rng.randint(0, 10)
            cases.append((spec, [matrix() for _ in range(n)], [matrix() for _ in range(n)]))
    for spec, xs, zs in cases:
        assert fs_enumerate(xs, spec) == reference_fs_enumerate(xs, spec)
        assert fs_two_sided(xs, zs, spec) == reference_fs_two_sided(xs, zs, spec)
    # left zero: a sum is its first summand, read left to right
    xs, zs = [(0,), (1,), (0,)], [(2,), (3,), (4,)]
    assert fs_enumerate(xs, LEFT_ZERO) == {(0,), (1,)}
    assert fs_two_sided(xs, zs, LEFT_ZERO) == set(xs)


def test_semigroup_spot_check():
    INT_LINEAR.spot_check([1, 5, -2, 7], random.Random(1))
    bad = SemigroupSpec(op=lambda a, b: a - b, y=lambda l, n: l)
    with pytest.raises(SearchError):
        bad.spot_check([1, 2, 3], random.Random(1))


def quad_words(count=16):
    return [make_word({-s: VARIABLE, s: VARIABLE}) for s in range(1, count + 1)]


def test_semigroup_pattern_zero_pair():
    ws = quad_words()
    res = semigroup_pattern(ws, INT_LINEAR, 1, 0, 0)
    # outer factors substituted by (1,1): y(-1,-1)+y(1,1)+y(-1,-4)+y(1,4)
    assert res.value == 1 + 1 + 4 + 4
    assert res.j_positions == (-2,) and res.i_positions == (2,)
    assert set(res.fixed_positions) == {-4, -3, -1, 1, 3, 4}


def test_semigroup_pattern_affine():
    ws = quad_words()
    for n in (1, 2, 3):
        u11 = semigroup_pattern(ws, INT_LINEAR, n, 1, 1).value
        u21 = semigroup_pattern(ws, INT_LINEAR, n, min(2, n) if n > 1 else 1, 1).value
        if n > 1:
            u12 = semigroup_pattern(ws, INT_LINEAR, n, 1, 2).value
            u22 = semigroup_pattern(ws, INT_LINEAR, n, 2, 2).value
            assert u22 - u21 == u12 - u11
            assert u22 - u12 == u21 - u11


def test_semigroup_pattern_bounds():
    ws = quad_words()
    with pytest.raises(SearchError):
        semigroup_pattern(ws, INT_LINEAR, 1, 2, 1)  # above k_1
    with pytest.raises(SearchError):
        semigroup_pattern(ws[:3], INT_LINEAR, 1, 0, 0)
    # k_{+-1} = 3 admits i = 2, which the variable at 2 (k_2 = 1) would clamp
    table = DominationProfile("table", table=tuple((p, 3 if abs(p) == 1 else 1)
                                                   for p in range(-4, 5) if p))
    ws = [make_word({-s: VARIABLE, s: VARIABLE}, table) for s in range(1, 5)]
    with pytest.raises(SearchError, match="^index 2 clamps at position 2$"):
        semigroup_pattern(ws, INT_LINEAR, 1, 2, 1)


def test_cor_5_4_instantiation():
    # y(s, n) = |s| * x_n over (Q, +) with x_n = 10^n
    x = lambda n: Fraction(10) ** n
    spec = SemigroupSpec(op=lambda a, b: a + b, y=lambda l, n: abs(l) * x(n),
                         commutative=True)
    ws = quad_words()
    for n in (1, 2, 3, 4):
        res0 = semigroup_pattern(ws, spec, n, 0, 0)
        a_n = res0.value
        b_n = sum((x(t) for t in res0.i_positions), Fraction(0))
        c_n = sum((x(t) for t in res0.j_positions), Fraction(0))
        for i in range(0, n + 1):
            for j in range(0, n + 1):
                if (i == 0) != (j == 0):
                    continue
                got = semigroup_pattern(ws, spec, n, i, j).value
                assert got == a_n + i * b_n + j * c_n
        # membership in the prescribed finite-sum sets
        assert a_n in fs_enumerate([x(t) for t in res0.fixed_positions], spec)
        assert b_n in fs_enumerate([x(t) for t in res0.i_positions], spec)
        assert c_n in fs_enumerate([x(t) for t in res0.j_positions], spec)


def test_z_fin_set_less():
    assert z_fin_set_less({2, 5}, {7, 9})
    assert z_fin_set_less({-5, -2}, {-8, -7})
    assert z_fin_set_less({1}, {-3, 4})
    assert not z_fin_set_less({2, 5}, {4, 9})
    assert not z_fin_set_less({1, -1}, {2})
    with pytest.raises(SearchError):
        z_fin_set_less(set(), {1})


def test_z_fin_set_less_matches_rel_r1():
    # condition (3) mirrors the surrounding order on word domains
    from zwords.words import rel_r1
    positions = [p for p in range(-5, 6) if p]
    rng = random.Random(12)
    for _ in range(300):
        f = sorted(rng.sample(positions, rng.randint(1, 3)))
        g = sorted(rng.sample(positions, rng.randint(2, 4)))
        if set(f) & set(g):
            continue
        wf = make_word({p: VARIABLE for p in f})
        wg = make_word({p: VARIABLE for p in g})
        below = [p for p in g if p < f[0]]
        above = [p for p in g if p > f[-1]]
        cond3 = bool(below) and bool(above) and len(below) + len(above) == len(g)
        assert cond3 == rel_r1(wf, wg)
        if cond3:
            assert z_fin_set_less(f, g)
