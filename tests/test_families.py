import gc
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import zwords
import zwords.families
from _oracles import (
    reference_cb_derivative,
    reference_hereditary_closure,
    reference_hereditary_part,
    reference_images,
    reference_largest_hereditary,
    reference_matches,
    reference_pool_extractions,
    reference_r1_successors,
    reference_set_family_cb_index,
)
from zwords.ordinals import OMEGA, ONE, from_int
from zwords.families import (
    FamilyError,
    WordFamily,
    cb_derivative,
    cb_index,
    family_at,
    family_minus,
    family_of,
    format_family,
    hereditary_closure,
    l_xi_member,
    largest_hereditary,
    parse_family,
    serialize_tuple,
    set_family_cb_index,
    tree_closure,
    tuple_sort_key,
    _check_slots,
    _compile,
    _extraction_chains,
    _extractions,
    _hereditary_part,
    _is_core_variable,
    _matches,
    _pool_keys,
)
from zwords.words import (
    ABS,
    EMPTY_TUPLE,
    VARIABLE,
    LocatedWord,
    WordError,
    _image_entries,
    _image_ranges,
    _slot_entries,
    concat,
    extracted_sets,
    make_tuple,
    make_word,
    parse_profile,
    rel_r1,
    substitute,
    word_sort_key,
)

W1 = make_word({-1: VARIABLE, 1: VARIABLE})
W2 = make_word({-3: VARIABLE, 3: VARIABLE})
W3 = make_word({-5: VARIABLE, 5: VARIABLE})
CHAIN3 = frozenset([W1, W2, W3])


def nested_pool(groups=4, variants=3):
    """`groups` nested domain layers with `variants` words per layer;
    words inside a layer share a domain and are pairwise incomparable."""
    letter_choices = [(VARIABLE, VARIABLE), (-1, 1), (-1, VARIABLE)][:variants]
    words = []
    for g in range(1, groups + 1):
        outer, inner = 2 * g, 2 * g - 1
        for neg, pos in letter_choices:
            words.append(make_word({-outer: VARIABLE, -inner: neg,
                                    inner: pos, outer: VARIABLE}))
    return frozenset(words)


def all_tuples(pool, max_len):
    out = [EMPTY_TUPLE]

    def grow(prefix):
        if len(prefix) == max_len:
            return
        for w in sorted(pool, key=word_sort_key):
            if not prefix or rel_r1(prefix[-1], w):
                out.append(make_tuple(prefix + [w]))
                grow(prefix + [w])

    grow([])
    return out


def full_tuples(pool, length):
    return [bw for bw in all_tuples(pool, length) if len(bw) == length]


def test_l_xi_member():
    bw = make_tuple([W1, W2])
    assert l_xi_member(bw, from_int(2))
    assert not l_xi_member(make_tuple([W1]), from_int(2))
    assert l_xi_member(make_tuple([W1]), ONE)
    # n words whose first starts at n lie in the omega family
    start = make_word({-1: VARIABLE, 2: VARIABLE})
    second = make_word({-4: VARIABLE, 4: VARIABLE})
    assert l_xi_member(make_tuple([start, second]), OMEGA)
    assert l_xi_member(bw, from_int(2), side="negative")
    with pytest.raises(FamilyError):
        l_xi_member(EMPTY_TUPLE, ONE)


def test_tree_closure():
    fam = family_of([make_tuple([W1, W2])])
    closed = tree_closure(fam)
    assert closed.members == {EMPTY_TUPLE, make_tuple([W1]), make_tuple([W1, W2])}
    assert closed.is_tree
    assert tree_closure(closed) == closed  # idempotent
    assert fam.members <= closed.members  # extensive


def test_hereditary_closure_and_largest():
    pool = CHAIN3
    fam = family_of([make_tuple([W1, W2])])
    closed = hereditary_closure(fam, pool)
    assert closed.members == {EMPTY_TUPLE, make_tuple([W1]), make_tuple([W2]),
                              make_tuple([W1, W2])}
    assert hereditary_closure(closed, pool) == closed
    assert closed.is_hereditary(pool)
    assert largest_hereditary(closed, pool) == closed
    # largest hereditary subfamily is contained in the input and hereditary
    bigger = family_of(list(closed.members) + [make_tuple([W2, W3])])
    lh = largest_hereditary(bigger, pool)
    assert lh.members <= bigger.members | {EMPTY_TUPLE}
    assert lh.is_hereditary(pool)


def test_a_later_closure_leaves_the_kept_closure_unchanged():
    # the compiled pool keeps the last closure's keys as one set, replaced
    # by the next closure and never changed, so a heredity walk that holds
    # the earlier set (one running in another thread) reads one closure
    # throughout
    hereditary_closure(family_of([make_tuple([W1, W2])]), CHAIN3)
    snapshot = _compile(frozenset(CHAIN3)).closed
    before = set(snapshot)
    hereditary_closure(family_of([make_tuple([W2, W3])]), CHAIN3)
    assert snapshot == before
    assert _compile(frozenset(CHAIN3)).closed not in (before, snapshot)


def test_largest_hereditary_is_maximal():
    # every hereditary subfamily is contained in the largest one
    pool = CHAIN3
    tuples = all_tuples(pool, 2)
    base = family_of(tuples)
    lh = largest_hereditary(base, pool)
    import itertools
    universe = list(base.members)
    for size in range(0, 4):
        for combo in itertools.combinations(universe, size):
            cand = family_of(set(combo) | {EMPTY_TUPLE})
            if cand.is_hereditary(pool) and cand.members <= base.members:
                assert cand.members <= lh.members


def test_hereditary_closure_pool_check():
    with pytest.raises(FamilyError):
        hereditary_closure(family_of([make_tuple([W1])]), frozenset([W2]))


def test_family_at_and_minus():
    fam = family_of([make_tuple([W1]), make_tuple([W1, W2])])
    at = family_at(fam, W1)
    assert at.members == {EMPTY_TUPLE, make_tuple([W2])}
    assert family_at(family_of([EMPTY_TUPLE]), W1).members == set()
    minus = family_minus(tree_closure(fam), W2)
    assert EMPTY_TUPLE in minus
    assert make_tuple([W1]) not in minus.members
    minus2 = family_minus(tree_closure(fam), make_word({-1: VARIABLE, 1: VARIABLE,
                                                        2: VARIABLE}))
    assert make_tuple([W1]) not in minus2.members


def test_cb_derivative_examples():
    pool = CHAIN3
    just_empty = family_of([EMPTY_TUPLE])
    # the pool is a 3-chain, so A_empty = all pool words has a 3-chain
    assert cb_derivative(just_empty, pool, 3).members == set()
    assert cb_derivative(just_empty, pool, 4).members == {EMPTY_TUPLE}
    assert cb_index(just_empty, pool, 3) == 1
    # hereditary closure of all singletons derives to the empty tuple
    sing = hereditary_closure(family_of([make_tuple([w]) for w in pool]), pool)
    assert cb_derivative(sing, pool, 3).members == {EMPTY_TUPLE}
    with pytest.raises(FamilyError):
        cb_derivative(family_of([make_tuple([W1, W2])]), pool, 3)


def test_cb_derivative_monotone():
    pool = CHAIN3
    small = hereditary_closure(family_of([make_tuple([W1])]), pool)
    large = hereditary_closure(family_of([make_tuple([W1]), make_tuple([W2])]), pool)
    for tau in (1, 2, 3):
        d_small = cb_derivative(small, pool, tau)
        d_large = cb_derivative(large, pool, tau)
        assert d_small.members <= d_large.members


def chain3_sweep():
    """Every family of at most four CHAIN3 tuples plus the empty tuple."""
    tuples = all_tuples(CHAIN3, 3)
    for size in range(0, 5):
        for combo in combinations(tuples, size):
            yield family_of(set(combo) | {EMPTY_TUPLE})


def test_cb_derivative_of_hereditary_is_hereditary():
    pool = CHAIN3
    seen = 0
    for raw in chain3_sweep():
        fam = hereditary_closure(raw, pool)
        for tau in (2, 3):
            derived = cb_derivative(fam, pool, tau)
            if derived.members:
                assert derived.is_hereditary(pool), (raw, tau)
            seen += 1
    assert seen > 0


def test_cb_index_group_pool_matches_rank_plus_one():
    pool = nested_pool()
    assert len(pool) == 12
    for m, expected in [(1, 2), (2, 3), (3, 4)]:
        fam = hereditary_closure(family_of(full_tuples(pool, m)), pool)
        assert cb_index(fam, pool, 4) == expected


def test_cb_index_rejects_tau_beyond_pool_chains():
    # the 3-chain pool has no 4-chain, so nothing is ever dropped
    sing = hereditary_closure(family_of([make_tuple([w]) for w in CHAIN3]), CHAIN3)
    with pytest.raises(FamilyError):
        cb_index(sing, CHAIN3, 4)


def test_cb_index_monotone_in_family():
    pool = nested_pool(groups=3, variants=2)
    f1 = hereditary_closure(family_of(full_tuples(pool, 1)), pool)
    f2 = hereditary_closure(family_of(full_tuples(pool, 2)), pool)
    assert f1.members <= f2.members
    assert cb_index(f1, pool, 3) <= cb_index(f2, pool, 3)


def test_set_family_cb_index():
    assert set_family_cb_index(0, 10, 3) == 1
    assert set_family_cb_index(1, 10, 3) == 2
    assert set_family_cb_index(2, 12, 3) == 3
    assert set_family_cb_index(3, 12, 3) == 4
    with pytest.raises(FamilyError):
        set_family_cb_index(3, 5, 3)


def test_set_family_cb_index_matches_reference():
    # every cell with m <= 4, n <= 10 and tau <= 7, refusals included
    cells = 0
    for m in range(-1, 5):
        for n_max in range(11):
            for tau in range(8):
                assert (_outcome(set_family_cb_index, m, n_max, tau)
                        == _outcome(reference_set_family_cb_index, m, n_max, tau)), \
                    (m, n_max, tau)
                cells += isinstance(_outcome(set_family_cb_index, m, n_max, tau), int)
    assert cells == 175


def test_set_family_cb_index_needs_no_cap():
    # the index follows from the sizes, so no set is built at any scale
    assert set_family_cb_index(2, 100000, 3) == 3
    assert set_family_cb_index(50000, 100000, 3) == 50001
    assert set_family_cb_index(50, 10 ** 9, 7) == 51


def test_word_level_thinness_of_xi_slices():
    # tuples over a 10-word chain pool whose anchor sets are Schreier
    # members form thin families
    pool = [make_word({-(2 * i): VARIABLE, 2 * i - 1: VARIABLE,
                       -(2 * i - 1): VARIABLE, 2 * i: VARIABLE})
            for i in range(1, 11)]
    pool = [make_word(dict(w.entries)) for w in pool]
    for xi in (ONE, from_int(2), OMEGA):
        members = []
        for bw in all_tuples(frozenset(pool), 4):
            if len(bw) and l_xi_member(bw, xi):
                members.append(bw)
        fam = family_of(members)
        assert fam.is_thin


def test_canonical_representation_of_tuples():
    # every increasing tuple splits uniquely into xi-family blocks plus a
    # proper initial remainder, mirroring the set-level decomposition
    from zwords.schreier import canonical_decompose
    pool = sorted(nested_pool(groups=4, variants=1), key=lambda w: w.dom[-1])
    for xi in (ONE, from_int(2)):
        for length in range(1, 5):
            for bw in combinations(pool, length):
                bw = make_tuple(bw)
                anchors = tuple(w.min_dom_pos for w in bw)
                dec = canonical_decompose(anchors, xi)
                # map set blocks back to word blocks
                flat = dec.rejoin()
                assert flat == anchors
                sizes = [len(b) for b in dec.blocks]
                consumed = sum(sizes)
                remainder_len = len(anchors) - consumed
                if dec.remainder is None:
                    assert remainder_len == 0
                else:
                    assert remainder_len == len(dec.remainder)
                # block boundaries induce a unique word-level split
                idx = 0
                for size in sizes:
                    block = make_tuple(bw.words[idx:idx + size])
                    assert l_xi_member(block, xi)
                    idx += size


def ev_pool():
    from zwords.words import extracted_sets, parse_profile
    prof = parse_profile("const:1")
    base = make_tuple([make_word({-s: VARIABLE, s: VARIABLE}, prof)
                       for s in (1, 2, 3, 4)])
    return extracted_sets(base).variables


def three_word_base():
    """The variable on +-{1,2}, +-{3,4} and +-{5,6}."""
    return make_tuple([make_word({-b: VARIABLE, -a: VARIABLE, a: VARIABLE, b: VARIABLE})
                       for a, b in ((1, 2), (3, 4), (5, 6))])


def four_word_base():
    """three_word_base and the variable on +-{7,8}."""
    return make_tuple(three_word_base().words
                      + (make_word({-8: VARIABLE, -7: VARIABLE, 7: VARIABLE, 8: VARIABLE}),))


def shared_span_pool():
    """Words under two profiles whose domains share spans but differ
    inside them."""
    domains = [(-1, 1), (-3, 3), (-3, -1, 1, 3), (-3, -2, -1, 1, 2, 3), (-4, 5),
               (-5, 5), (-5, -4, 4, 5), (-5, -2, 2, 5), (-7, -6, 6, 7)]
    return frozenset(make_word(dict.fromkeys(dom, VARIABLE), prof)
                     for dom in domains for prof in (ABS, parse_profile("abs+1")))


def test_r1_successors_match_pairwise_reference():
    # successors are built once per (span, domain) class; they must be the
    # lists that testing every pair gives, list for list
    pools = [CHAIN3, nested_pool(), nested_pool(3, 2), nested_pool(4, 2), nested_pool(2, 1),
             ev_pool(), extracted_sets(three_word_base()).variables,
             extracted_sets(four_word_base()).variables, shared_span_pool()]
    for pool in pools:
        table = _compile(pool)
        assert table.succ == reference_r1_successors(table.words), len(pool)
    assert sum(map(len, _compile(shared_span_pool()).succ)) > 0


def test_extracted_variable_pools_are_extraction_closed():
    # extraction sets of tuples drawn from an extracted-variable pool
    # stay inside the pool, so pool-relative closures lose nothing
    from zwords.words import extracted_sets
    pool = ev_pool()
    assert len(pool) == 3 ** 4 - 2 ** 4
    ordered = sorted(pool, key=word_sort_key)
    pairs = [(a, b) for a in ordered for b in ordered if rel_r1(a, b)]
    assert pairs
    for words in [(w,) for w in ordered] + pairs:
        assert extracted_sets(make_tuple(words)).variables <= pool


def test_cb_index_over_extracted_variable_pool():
    pool = ev_pool()
    fam = hereditary_closure(family_of([make_tuple([w]) for w in pool]), pool)
    assert cb_index(fam, pool, 4) == 2


def test_cb_index_over_three_word_extracted_pool():
    base = three_word_base()
    pool = extracted_sets(base).variables
    fam = hereditary_closure(family_of([base]), pool)
    assert (len(pool), len(fam)) == (98, 123)
    assert cb_index(fam, pool, 2) == 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (FamilyError, WordError) as exc:
        return type(exc).__name__, str(exc)


def assert_matches_reference(fam, pool):
    """For tau 0 to 4: cb_derivative equals reference_cb_derivative along
    the reference's derivative sequence of the hereditary family fam, and
    cb_index equals that sequence's length, errors included."""
    for tau in range(5):
        family, steps, error = fam, 0, None
        while family.members and error is None:
            want = _outcome(reference_cb_derivative, family, pool, tau)
            assert _outcome(cb_derivative, family, pool, tau) == want, (family, tau)
            if not isinstance(want, WordFamily):
                error = want
            elif want == family:
                error = ("FamilyError", "derivative reached a fixed point; the pool "
                         "has no chain of length %d" % tau)
            else:
                family, steps = want, steps + 1
        assert _outcome(cb_index, fam, pool, tau) == (error or steps), (fam, tau)


def test_cb_derivative_matches_reference_on_chain3_sweep():
    closures = set()
    for raw in chain3_sweep():
        for tau in range(5):
            assert (_outcome(cb_derivative, raw, CHAIN3, tau)
                    == _outcome(reference_cb_derivative, raw, CHAIN3, tau)), (raw, tau)
        closures.add(hereditary_closure(raw, CHAIN3))
    for fam in closures:
        assert_matches_reference(fam, CHAIN3)


def test_cb_derivative_matches_reference_on_nested_pool():
    pool = nested_pool(3, 2)
    for m in (0, 1, 2):
        assert_matches_reference(hereditary_closure(family_of(full_tuples(pool, m)), pool), pool)


def test_cb_derivative_matches_reference_on_open_sets_of_one_size():
    # two 3-chains over nested_pool(3, 2) whose closure has keys with open
    # sets of one size but different verdicts at tau 3, so a verdict is
    # kept per open set, not per size
    pool = nested_pool(3, 2)
    raw = parse_family("-2:v,-1:-1,1:1,2:v;-4:v,-3:v,3:v,4:v;-6:v,-5:-1,5:1,6:v\n"
                       "-2:v,-1:v,1:v,2:v;-4:v,-3:v,3:v,4:v;-6:v,-5:v,5:v,6:v")
    closed = hereditary_closure(raw, pool)
    assert len(closed) == 14
    assert_matches_reference(closed, pool)


def test_cb_derivative_matches_reference_on_extracted_pool():
    pool = ev_pool()
    assert_matches_reference(hereditary_closure(family_of([make_tuple([w]) for w in pool]),
                                                pool), pool)


def assert_closures_match_reference(fam, pool):
    """hereditary_closure, largest_hereditary and is_hereditary agree with
    the references on fam, errors included."""
    closure = _outcome(reference_hereditary_closure, fam, pool)
    assert _outcome(hereditary_closure, fam, pool) == closure, fam
    assert (_outcome(largest_hereditary, fam, pool)
            == _outcome(reference_largest_hereditary, fam, pool)), fam
    want = closure == fam if isinstance(closure, WordFamily) else closure
    assert _outcome(fam.is_hereditary, pool) == want, fam


def test_closures_match_reference_on_chain3_sweep():
    # W1 with W2 substituted at (2, 2) is an extraction of (W1, W2); the
    # same word with the variable kept at +3 is none
    rich = CHAIN3 | {make_word({-3: -2, -1: VARIABLE, 1: VARIABLE, 3: 2}),
                     make_word({-3: -2, -1: VARIABLE, 1: VARIABLE, 3: VARIABLE})}
    for pool in (CHAIN3, rich):
        families = set()
        for raw in chain3_sweep():
            families |= {raw, family_of(raw.members - {EMPTY_TUPLE}),
                         hereditary_closure(raw, pool)}
        for fam in families:
            assert_closures_match_reference(fam, pool)
    # pool errors
    assert_closures_match_reference(family_of([make_tuple([W1])]), frozenset([W2]))
    assert_closures_match_reference(family_of([make_tuple([W1])]),
                                    CHAIN3 | {make_word({-7: -1, 7: VARIABLE})})


def test_closures_match_reference_on_nested_pool():
    pool = nested_pool(3, 2)
    for m in (0, 1, 2):
        raw = family_of(full_tuples(pool, m))
        closed = hereditary_closure(raw, pool)
        assert_closures_match_reference(raw, pool)
        # a hereditary family less one member keeps only what avoids it
        for bw in closed.members:
            assert_closures_match_reference(family_of(closed.members - {bw}), pool)


def test_closures_match_reference_on_extracted_pool():
    pool = ev_pool()
    ordered = sorted(pool, key=word_sort_key)
    pairs = family_of([make_tuple([a, b]) for a in ordered[:12] for b in ordered
                       if rel_r1(a, b)][:40])
    singles = hereditary_closure(family_of([make_tuple([w]) for w in pool]), pool)
    for fam in (pairs, singles, family_of(singles.members | pairs.members),
                hereditary_closure(pairs, pool)):
        assert_closures_match_reference(fam, pool)


def test_closures_match_reference_on_three_word_extracted_pool():
    base = three_word_base()
    pool = extracted_sets(base).variables
    closed = hereditary_closure(family_of([base]), pool)
    assert_closures_match_reference(family_of([base]), pool)
    assert_closures_match_reference(closed, pool)
    # every R1-chain over this pool is an extraction tuple of base, so
    # largest_hereditary is exercised by removing members instead
    pair = max((bw for bw in closed.members if len(bw) == 2), key=tuple_sort_key)
    for bw in (EMPTY_TUPLE, make_tuple([base[0]]), pair, base):
        assert_closures_match_reference(family_of(closed.members - {bw}), pool)


def test_closures_need_a_sidedly_monotone_profile():
    prof = parse_profile("table:-3=1,-1=2,1=2,3=1")
    pool = frozenset([make_word({-1: VARIABLE, 1: VARIABLE}, prof),
                      make_word({-3: VARIABLE, 3: VARIABLE}, prof)])
    fam = family_of([make_tuple([w]) for w in pool])
    with pytest.raises(WordError, match="^profile must be sidedly monotone$"):
        hereditary_closure(fam, pool)
    assert_closures_match_reference(fam, pool)


def test_extraction_compares_profiles():
    # W1's entries under another profile share W1's domain but are no
    # extraction of a tuple over the profile k_n = |n|
    pool = CHAIN3 | {LocatedWord(W1.entries, parse_profile("abs+1"))}
    raw = family_of([make_tuple([W1, W2])])
    closed = hereditary_closure(raw, pool)
    assert closed.members == {EMPTY_TUPLE, make_tuple([W1]), make_tuple([W2]),
                              make_tuple([W1, W2])}
    bigger = family_of(closed.members | {make_tuple([W2, W3])})
    assert largest_hereditary(bigger, pool) == closed
    assert [_outcome(cb_index, closed, pool, tau) for tau in (1, 2, 3)] == [1, 1, 2]
    for fam in (raw, closed, bigger):
        assert_closures_match_reference(fam, pool)
    assert_matches_reference(closed, pool)


def test_cb_derivative_errors():
    pool = CHAIN3
    raw = family_of([make_tuple([W1, W2])])
    with pytest.raises(FamilyError, match="^index needs a hereditary family$"):
        cb_index(raw, pool, 3)
    with pytest.raises(FamilyError, match="^pool is missing the word -5:v,5:v$"):
        cb_index(family_of([make_tuple([W3])]), frozenset([W1]), 3)
    for tau in (1, 5):
        assert cb_index(family_of([]), pool, tau) == 0
    # tau is checked first, as in cb_derivative
    for fam in (family_of([]), family_of([EMPTY_TUPLE])):
        for tau in (-1, 0):
            with pytest.raises(FamilyError, match="^tau must be >= 1$"):
                cb_index(fam, pool, tau)
    # a pool word of another profile that surrounds a member's last word
    other = make_word({-3: VARIABLE, 3: VARIABLE}, parse_profile("const:1"))
    mixed = frozenset([W1, other])
    fam = family_of([EMPTY_TUPLE, make_tuple([W1])])
    for fn in (cb_derivative, reference_cb_derivative):
        with pytest.raises(WordError, match="^profile mismatch inside tuple$"):
            fn(fam, mixed, 2)
    with pytest.raises(WordError, match="^profile mismatch inside tuple$"):
        cb_index(fam, mixed, 2)


_POOL_ERRORS = """
from zwords.families import FamilyError, family_of, hereditary_closure
from zwords.words import make_tuple, parse_word
singletons = family_of([make_tuple([parse_word(t)])
                        for t in ("-1:v,1:v", "-3:v,3:v", "-5:v,5:v")])
for pool in (["-7:v,7:v"], ["-1:-1,1:1", "-3:-1,3:1", "-5:-1,5:1"]):
    try:
        hereditary_closure(singletons, [parse_word(t) for t in pool])
    except FamilyError as exc:
        print(exc)
"""


def test_pool_errors_do_not_depend_on_the_hash_seed():
    # a frozenset iterates in hash order, which follows PYTHONHASHSEED;
    # the least offending word by word_sort_key is named instead
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zwords.__file__)))
    outputs = {subprocess.run([sys.executable, "-c", _POOL_ERRORS], capture_output=True,
                              text=True, check=True, timeout=60,
                              env=dict(env, PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "3")}
    assert outputs == {"pool is missing the word -5:v,5:v\n"
                       "pool word -5:-1,5:1 is not a two-sided variable word\n"}


def test_long_words_are_named_as_echo_bounds_them():
    # a refusal names a word, or an anchor projection, of more than
    # ECHO_LIMIT characters by its first ECHO_LIMIT and its length, and
    # the reference pool checks name it the same way
    from zwords.ordinals import ECHO_LIMIT
    from zwords.words import OrderlyTuple, format_word, parse_word

    def quoted(text):
        return "%s... (%d characters)" % (text[:ECHO_LIMIT], len(text))

    long_word = make_word({p: VARIABLE for p in range(-3000, 3001) if p})
    long_constant = make_word({p: 1 if p > 0 else -1 for p in range(-3000, 3001) if p})
    text = format_word(long_word)
    missing = family_of([make_tuple([long_word])])
    for fam, pool, reason in (
            (missing, CHAIN3, "pool is missing the word %s" % quoted(text)),
            (family_of([]), [long_constant], "pool word %s is not a two-sided variable word"
             % quoted(format_word(long_constant)))):
        assert _outcome(hereditary_closure, fam, pool) == ("FamilyError", reason)
        assert_closures_match_reference(fam, pool)
        assert len(reason) < 3 * ECHO_LIMIT
    flat = OrderlyTuple((parse_word("-1:v,1:v"),) * 300)
    anchors = repr((1,) * 300)
    with pytest.raises(FamilyError) as refused:
        l_xi_member(flat, OMEGA)
    assert str(refused.value) == "anchor projection %s is not strictly increasing" % quoted(
        anchors)


_TABLE_ERRORS = """
from zwords.families import cb_index, family_of, hereditary_closure, largest_hereditary
from zwords.words import WordError, make_tuple, parse_profile, parse_word
prof = parse_profile("table:-1=1,1=1")
pool = [parse_word("-%d:v,%d:v" % (n, n), prof) for n in (1, 3, 5, 7, 9)]
singletons = family_of([make_tuple([w]) for w in pool])
# only the slot of -1:v,1:v is checked, and it passes and is kept
hereditary_closure(family_of([make_tuple(pool[:1])]), pool)
for fn in (hereditary_closure, largest_hereditary, lambda f, p: cb_index(f, p, 2),
           lambda f, p: f.is_hereditary(p)):
    try:
        fn(singletons, pool)
    except WordError as exc:
        print(exc)
"""


def test_extraction_errors_do_not_depend_on_the_hash_seed():
    # every singleton's grid but -1:v,1:v's reads k at its variable
    # positions, which the table lacks; slots are checked least first by
    # grid index and word_sort_key, and kept only once they pass, so
    # -9:v,9:v is named under every hash seed and after a call that checked
    # another slot
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(zwords.__file__)))
    outputs = {subprocess.run([sys.executable, "-c", _TABLE_ERRORS], capture_output=True,
                              text=True, check=True, timeout=60,
                              env=dict(env, PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "3", "5")}
    assert outputs == {"profile table has no bound at -9\n" * 4}


def _memo_cases():
    nested = nested_pool(3, 2)
    ev = ev_pool()
    ordered = sorted(ev, key=word_sort_key)
    ev_pairs = [make_tuple([a, b]) for a in ordered[:12] for b in ordered if rel_r1(a, b)][:40]
    three = extracted_sets(three_word_base()).variables
    return [(nested, hereditary_closure(family_of(full_tuples(nested, 2)), nested)),
            (nested_pool(), hereditary_closure(family_of(full_tuples(nested_pool(), 2)),
                                               nested_pool())),
            (ev, family_of(ev_pairs + [make_tuple([w]) for w in ordered])),
            (three, hereditary_closure(family_of([three_word_base()]), three))]


def test_shared_memo_extractions_match_star_products():
    # one compiled pool serves every member of every call; whichever member
    # or call fills a slot or a subtuple first, each member's set is its own
    for pool, fam in _memo_cases():
        want = {bw: reference_pool_extractions(bw, pool) for bw in fam.members}
        members = sorted(fam.members, key=tuple_sort_key)
        for seed in (1, 2, 3):
            _compile.cache_clear()
            random.Random(seed).shuffle(members)
            keys, table = _pool_keys(fam, pool)
            # each member is keyed by its words' pool indices
            assert len(keys) == len(members)
            assert all(tuple(table.words[t] for t in key) == bw.words
                       for key, bw in keys.items())
            key_of = {bw: key for key, bw in keys.items()}
            # calls of a few members each share the table
            for start in range(0, len(members), 7):
                for key in (key_of[bw] for bw in members[start:start + 7]):
                    got = {table.words[t] for t in _extractions(key, table)}
                    assert got == want[keys[key]], (keys[key], seed)
            assert _pool_keys(fam, frozenset(pool))[1] is table
            assert table.matches
    # the kept matches go with the compiled pool, the last case's
    assert _pool_keys(fam, pool)[1].matches
    _compile.cache_clear()
    assert not _pool_keys(fam, pool)[1].matches


def _check_subtuple_matches(pool, fam):
    """_matches equals reference_matches on every subtuple of every
    member; returns how many subtuples with pool words on their union
    domain were looked up and scanned."""
    keys, table = _pool_keys(fam, pool)
    looked_up = scanned = 0
    for key in keys:
        slots = [(t, i) for i, t in enumerate(key, 1)]
        for size in range(1, len(slots) + 1):
            for chosen in combinations(slots, size):
                got = _matches(chosen, table)
                assert sorted(got) == reference_matches(chosen, table), chosen
                dom = (table.words[chosen[0][0]].profile,
                       tuple(sorted(p for t, _ in chosen for p in table.words[t].dom)))
                if dom not in table.by_dom:
                    continue
                if prod(len(table.allowed[slot]) for slot in chosen) <= len(table.by_dom[dom]):
                    looked_up += 1
                else:
                    scanned += 1
    return looked_up, scanned


def test_subtuple_matches_equal_the_scan():
    counts = [_check_subtuple_matches(pool, fam) for pool, fam in _memo_cases()]
    # both the entry lookup and the scan are exercised
    assert sum(c[0] for c in counts) > 0 and sum(c[1] for c in counts) > 0


def test_subtuple_matches_compare_profiles():
    # the same entries under abs and abs+1: a lookup finds both words, and
    # only the one of the slots' profile matches
    three = extracted_sets(three_word_base()).variables
    plus = parse_profile("abs+1")
    pool = three | {LocatedWord(w.entries, plus) for w in three}
    closed = hereditary_closure(family_of([three_word_base()]), three)
    fam = family_of(closed.members | {make_tuple(LocatedWord(w.entries, plus) for w in bw)
                                      for bw in closed.members})
    looked_up, _ = _check_subtuple_matches(pool, fam)
    assert looked_up > 0


def test_four_word_pool():
    # the variable on +-{1,2}, +-{3,4}, +-{5,6} and +-{7,8}: every answer
    # as the pairwise kernels give it, in well under the seconds they took
    start = time.perf_counter()
    base = four_word_base()
    pool = extracted_sets(base).variables
    closed = hereditary_closure(family_of([base]), pool)
    assert (len(pool), len(closed)) == (1864, 2540)
    assert largest_hereditary(closed, pool) == closed
    _compile.cache_clear()
    assert cb_index(closed, pool, 2) == 2
    assert cb_index(closed, pool, 3) == 3
    assert time.perf_counter() - start < 10


def thinned(fam, share, seed):
    """fam with a seeded sample of about `share` of its nonempty members
    dropped, at least one."""
    members = sorted(fam.members - {EMPTY_TUPLE}, key=tuple_sort_key)
    dropped = random.Random(seed).sample(members, max(1, round(len(members) * share)))
    return family_of(fam.members - set(dropped))


def walks(run):
    """The keys whose extraction sets run() builds, one _extractions call
    per key walked, and run()'s result."""
    walked = []
    extractions = zwords.families._extractions

    def counted(key, table):
        walked.append(key)
        return extractions(key, table)

    zwords.families._extractions = counted
    try:
        return walked, run()
    finally:
        zwords.families._extractions = extractions


def assert_marking_matches_reference(fam, pool):
    """On a cold pool, the marking walk keeps exactly the keys that the
    all-chains walk keeps; returns how many keys it walked, which is how
    many extraction sets it built, and how many it kept."""
    _compile.cache_clear()
    keys, table = _pool_keys(fam, pool)
    walked, got = walks(lambda: _hereditary_part(keys, table))
    assert got == reference_hereditary_part(keys, table), len(keys)
    return len(walked), len(got)


def test_marking_walk_on_the_four_word_closure():
    # the base's walk meets every member, so it is the one walk
    base = four_word_base()
    pool = extracted_sets(base).variables
    closed = hereditary_closure(family_of([base]), pool)
    assert assert_marking_matches_reference(closed, pool) == (1, 2540)
    # about 1% of the members dropped: the walks that meet a dropped
    # member mark nothing, and the keys they leave are walked themselves
    for seed in (1, 2, 3):
        walked, kept = assert_marking_matches_reference(thinned(closed, 0.01, seed), pool)
        assert 1 < walked < kept < 2540 - 25, (seed, walked, kept)


def test_walks_keep_nothing_per_member_visited():
    # the compiled pool keeps each slot's images and each subtuple's
    # matches, which members share, and nothing per member: with every
    # subtuple of a thinned four-word closure matched, its walks, which
    # visit hundreds of members, keep less than a twentieth of what their
    # extraction sets weigh; the interpreter's own state may take a little
    closed = hereditary_closure(family_of([four_word_base()]), FOUR_POOL)
    _compile.cache_clear()
    keys, table = _pool_keys(thinned(closed, 0.01, 1), FOUR_POOL)
    for key in keys:
        slots = [(t, i) for i, t in enumerate(key, 1)]
        for size in range(1, len(slots) + 1):
            for chosen in combinations(slots, size):
                if chosen not in table.matches:
                    table.matches[chosen] = _matches(chosen, table)
    gc.collect()
    tracemalloc.start()
    try:
        walked = walks(lambda: _hereditary_part(keys, table))[0]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - sys.getsizeof(walked)
    finally:
        tracemalloc.stop()
    sets = [sys.getsizeof(_extractions(key, table)) for key in walked]
    assert len(walked) > 100
    assert kept < sum(sets) / 20, (kept, len(walked), sum(sets))


def test_marking_walk_on_closures_over_sub_pools():
    # seeded sub-pools of the four-word pool that keep the base's words
    base = four_word_base()
    pool = extracted_sets(base).variables
    ordered = sorted(pool, key=word_sort_key)
    for seed, share in ((1, 0.1), (2, 0.3), (3, 0.6)):
        sub = frozenset(random.Random(seed).sample(ordered, round(len(ordered) * share)))
        sub |= frozenset(base)
        closed = hereditary_closure(family_of([base]), sub)
        assert assert_marking_matches_reference(closed, sub) == (1, len(closed))
        assert assert_marking_matches_reference(thinned(closed, 0.02, seed), sub)[1] > 1


def test_marking_walk_on_mixed_families():
    # families as the cb-index benchmark builds them: the closure of a
    # seeded share of the m-tuples of a nested pool, with the other
    # m-tuples added; an added member with a chain outside is dropped
    dropping = 0
    for pool in (nested_pool(), nested_pool(3, 2), nested_pool(4, 2), nested_pool(3, 3)):
        for m in (1, 2, 3):
            full = full_tuples(pool, m)
            for share, seed in product((0.1, 0.3, 0.7), (1, 2)):
                base = random.Random(seed).sample(full, round(len(full) * share))
                closed = hereditary_closure(family_of(base), pool)
                mixed = family_of(closed.members | set(full))
                dropping += assert_marking_matches_reference(mixed, pool)[1] < len(mixed)
    assert dropping > 10, dropping


def test_marking_never_spreads_a_verdict():
    # every hereditary family on small pools, less each member in turn:
    # the members above the dropped one lose their verdict, and no walk
    # marks them from another member's walk
    families = {hereditary_closure(raw, CHAIN3) for raw in chain3_sweep()}
    for fam in families:
        for bw in fam.members:
            assert_marking_matches_reference(family_of(fam.members - {bw}), CHAIN3)
    for pool in (nested_pool(3, 2), ev_pool()):
        for m in (1, 2):
            closed = hereditary_closure(family_of(full_tuples(pool, m)), pool)
            for bw in closed.members:
                assert_marking_matches_reference(family_of(closed.members - {bw}), pool)


def _transitivity_cases():
    pools = [nested_pool(), nested_pool(3, 2), nested_pool(4, 2), CHAIN3,
             extracted_sets(three_word_base()).variables]
    return [(pool, [bw for bw in all_tuples(pool, 3) if bw.words]) for pool in pools]


TRANSITIVITY_CASES = _transitivity_cases()


@settings(max_examples=200, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_extraction_is_transitive(data):
    # for a member K and every R1-chain c over K's pool extractions, c's
    # pool extractions lie among K's, by the kernels and by star products
    pool, tuples = data.draw(st.sampled_from(TRANSITIVITY_CASES))
    bw = data.draw(st.sampled_from(tuples))
    (key,), table = _pool_keys(family_of([bw]), pool)
    whole = _extractions(key, table)
    want = reference_pool_extractions(bw, pool)
    assert {table.words[i] for i in whole} == want
    chains = [chain for chain in _extraction_chains(key, table) if chain]
    _check_slots(chains, table)
    for chain in chains:
        assert _extractions(chain, table) <= whole, (bw, chain)
        c = make_tuple(table.words[i] for i in chain)
        assert reference_pool_extractions(c, pool) <= want, (bw, c)


def draw_family(data, tuples, most=6, least=0):
    """A family of `least` to `most` of the tuples."""
    return family_of(data.draw(st.lists(st.sampled_from(tuples), min_size=least,
                                        max_size=most)))


@settings(max_examples=100, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_hereditary_closure_is_idempotent_and_monotone(data):
    # F within G gives cl(F) within cl(G), and cl(cl(F)) = cl(F)
    pool, tuples = data.draw(st.sampled_from(TRANSITIVITY_CASES))
    f = draw_family(data, tuples)
    g = family_of(f.members | draw_family(data, tuples).members)
    closed = hereditary_closure(f, pool)
    assert f.members <= closed.members
    assert hereditary_closure(closed, pool) == closed
    assert closed.members <= hereditary_closure(g, pool).members


@settings(max_examples=100, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_largest_hereditary_is_the_family_exactly_when_hereditary(data):
    # closures, less a few members or with a few tuples added
    pool, tuples = data.draw(st.sampled_from(TRANSITIVITY_CASES))
    closed = hereditary_closure(draw_family(data, tuples), pool)
    members = sorted(closed.members, key=tuple_sort_key)
    dropped = data.draw(st.lists(st.sampled_from(members), max_size=2))
    fam = family_of((closed.members - set(dropped)) | draw_family(data, tuples, 2).members)
    assert (largest_hereditary(fam, pool) == fam) == fam.is_hereditary(pool), fam


@settings(max_examples=100, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_cb_index_is_monotone_under_inclusion(data):
    # hereditary F within G over one pool: each derivative of F lies in
    # G's, so F empties no later than G, whenever both answer
    pool, tuples = data.draw(st.sampled_from(TRANSITIVITY_CASES))
    f = hereditary_closure(draw_family(data, tuples), pool)
    g = hereditary_closure(family_of(f.members | draw_family(data, tuples, 3, 1).members), pool)
    tau = data.draw(st.integers(1, 4))
    small, big = _outcome(cb_index, f, pool, tau), _outcome(cb_index, g, pool, tau)
    if isinstance(small, int) and isinstance(big, int):
        assert small <= big, (f, g, tau)


FOUR_POOL = extracted_sets(four_word_base()).variables
FOUR_TUPLES = sorted(hereditary_closure(family_of([four_word_base()]), FOUR_POOL).members,
                     key=tuple_sort_key)


@settings(max_examples=100, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_kept_closure_marks_what_the_reference_keeps(data):
    # a closure kept on the four-word pool, less a few of its members and
    # with a few other tuples of the pool added: the walk that starts with
    # the kept keys marked keeps what the all-chains walk keeps
    short = [bw for bw in FOUR_TUPLES if len(bw) <= 2]
    closed = hereditary_closure(draw_family(data, short, 3, 1), FOUR_POOL)
    members = sorted(closed.members, key=tuple_sort_key)
    dropped = data.draw(st.lists(st.sampled_from(members), max_size=3))
    fam = family_of((closed.members - set(dropped)) | draw_family(data, FOUR_TUPLES, 5).members)
    keys, table = _pool_keys(fam, FOUR_POOL)
    assert table.closed == set(_pool_keys(closed, FOUR_POOL)[0])
    assert _hereditary_part(keys, table) == reference_hereditary_part(keys, table)


def test_calls_after_a_closure_walk_only_what_it_lacks():
    # the closure's keys stay on the compiled pool: the index of the
    # closure builds no extraction set, largest_hereditary of the closure
    # with one more member walks that member alone, and neither replaces
    # the kept keys; a member with a chain outside the family is still
    # refused by the index
    base = four_word_base()
    _compile.cache_clear()
    walked, three = walks(lambda: hereditary_closure(family_of([three_word_base()]),
                                                     FOUR_POOL))
    table = _compile(FOUR_POOL)
    kept = set(table.closed)
    assert len(kept) == len(three) and len(walked) == 1
    assert walks(lambda: cb_index(three, FOUR_POOL, 2)) == ([], 2)
    walked, same = walks(lambda: largest_hereditary(three, FOUR_POOL))
    assert same is three and not walked
    more = family_of(three.members | {base})
    walked, part = walks(lambda: largest_hereditary(more, FOUR_POOL))
    assert part == three
    assert [tuple(table.words[t] for t in key) for key in walked] == [base.words]
    with pytest.raises(FamilyError, match="^index needs a hereditary family$"):
        cb_index(more, FOUR_POOL, 2)
    assert table.closed == kept and _compile(FOUR_POOL) is table
    # the answers are those of a cold pool
    _compile.cache_clear()
    assert cb_index(three, FOUR_POOL, 2) == 2
    assert largest_hereditary(more, FOUR_POOL) == three
    assert not _compile(FOUR_POOL).closed


def test_slots_are_built_when_first_read():
    # no abs slot is checked up front: keying the 2,540 members of the
    # four-word closure builds no slot, and its one walk, the base's,
    # reads the base's four slots alone
    _compile.cache_clear()
    base = four_word_base()
    closed = hereditary_closure(family_of([base]), FOUR_POOL)
    _compile.cache_clear()
    keys, table = _pool_keys(closed, FOUR_POOL)
    assert len(keys) == 2540 and not table.allowed
    assert _hereditary_part(keys, table) == keys.keys()
    base_key = tuple(table.index[w.profile, w.entries] for w in base)
    assert set(table.allowed) == {(t, i) for i, t in enumerate(base_key, 1)}


def test_pool_words_are_checked_in_one_pass():
    # the one-pass check agrees with is_variable_word and is_core on the
    # words of the test pools and on words that fail either
    words = set(CHAIN3 | nested_pool() | ev_pool() | shared_span_pool() | FOUR_POOL)
    words |= {make_word(entries) for entries in (
        {-1: -1, 1: 1}, {-1: VARIABLE, 1: 1}, {-1: -1, 1: VARIABLE}, {1: VARIABLE, 2: VARIABLE},
        {-2: VARIABLE, -1: VARIABLE}, {-3: VARIABLE, -1: -1, 2: 1})}
    for w in words:
        assert _is_core_variable(w) == (w.is_variable_word and w.is_core), w
    assert sum(map(_is_core_variable, words)) == len(words) - 6


def test_side_built_images_equal_substitution():
    # a slot's images are joined from the variants of each side; they
    # are the substitutions over its two ranges, p-major, and the whole
    # grid's distinct images, under abs, abs+1 and const:1
    checked = clipped = 0
    for pool in (CHAIN3, nested_pool(), nested_pool(3, 2), nested_pool(2, 1), ev_pool(),
                 shared_span_pool()):
        for w in sorted(pool, key=word_sort_key):
            for index in (1, 2, 3, 4):
                a, b = _image_ranges(w, index)
                got = _image_entries(w, (a, b))
                assert got == [substitute(w, p, q).entries
                               for p in range(1, a + 1) for q in range(1, b + 1)], (w, index)
                assert got == [u.entries for u in reference_images(w, index)], (w, index)
                assert _slot_entries(w, index) == {w.entries, *got}
                checked += 1
                clipped += a * b < w.profile.bound(index) * w.profile.bound(-index)
    assert checked > 300 and clipped > 20, (checked, clipped)


def assert_members_pass_make_tuple(fam):
    """Every member equals, hash included, the tuple make_tuple checks
    and builds from its words."""
    for bw in fam.members:
        checked = make_tuple(bw.words)
        assert checked == bw and hash(checked) == hash(bw), bw


def assert_kernel_tuples_pass_make_tuple(raw, pool):
    """The members that hereditary_closure, tree_closure and family_at
    build directly, from raw over pool, are all checked tuples."""
    closed = hereditary_closure(raw, pool)
    assert_members_pass_make_tuple(closed)
    assert_members_pass_make_tuple(tree_closure(raw))
    for t in {bw[0] for bw in closed.members if len(bw) >= 2}:
        assert_members_pass_make_tuple(family_at(closed, t))


def test_kernel_built_tuples_pass_make_tuple():
    # OrderlyTuple trusts its words, so the kernels that build tuples
    # directly must build only tuples that make_tuple accepts; the two
    # profiles of shared_span_pool are R1-related, so a chain that left
    # its member's extractions could cross them
    for pool in (CHAIN3, nested_pool(), nested_pool(3, 2), nested_pool(2, 1), ev_pool(),
                 shared_span_pool()):
        singles = family_of([make_tuple([w]) for w in pool])
        assert_kernel_tuples_pass_make_tuple(singles, pool)
    for pool in (nested_pool(), nested_pool(3, 2)):
        assert_kernel_tuples_pass_make_tuple(family_of(full_tuples(pool, 3)), pool)
    for raw in chain3_sweep():
        assert_kernel_tuples_pass_make_tuple(raw, CHAIN3)
    for base in (three_word_base(), four_word_base()):
        pool = extracted_sets(base).variables
        assert_kernel_tuples_pass_make_tuple(family_of([base]), pool)
    assert len(hereditary_closure(family_of([base]), pool)) == 2540


def test_family_calls_on_one_pool_match_a_cold_cache():
    # the operations on a pool, run in shuffled orders on one compiled
    # pool, give what each gives on a freshly compiled pool
    nested = nested_pool(3, 2)
    three = extracted_sets(three_word_base()).variables
    for pool, raw, tau in [(nested, family_of(full_tuples(nested, 2)), 3),
                           (three, family_of([three_word_base()]), 2)]:
        closed = hereditary_closure(raw, pool)
        # one singleton less leaves every member above it unhereditary
        less = family_of(closed.members - {min(closed.members - {EMPTY_TUPLE},
                                                 key=tuple_sort_key)})
        calls = [(hereditary_closure, raw), (largest_hereditary, raw),
                 (largest_hereditary, less), (WordFamily.is_hereditary, less),
                 (cb_index, closed, tau), (cb_derivative, closed, tau),
                 (cb_index, less, tau), (cb_derivative, raw, tau)]
        cold = []
        for fn, *args in calls:
            _compile.cache_clear()
            cold.append(_outcome(fn, args[0], pool, *args[1:]))
        for seed in (1, 2):
            order = list(range(len(calls)))
            random.Random(seed).shuffle(order)
            _compile.cache_clear()
            for i in order:
                fn, *args = calls[i]
                assert _outcome(fn, args[0], pool, *args[1:]) == cold[i], (i, seed)
            assert _compile.cache_info().currsize == 1


def test_pool_cache_keeps_the_last_pool():
    _compile.cache_clear()
    empty = family_of([EMPTY_TUPLE])
    for n in range(1, 21):
        pool = [make_word({-n: VARIABLE, n: VARIABLE})]
        assert hereditary_closure(empty, pool) == empty
    info = _compile.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (20, 1, 1)
    # the last pool is read again, and only it
    hereditary_closure(empty, [make_word({-20: VARIABLE, 20: VARIABLE})])
    assert _compile.cache_info()[:2] == (1, 20)
    hereditary_closure(empty, [make_word({-1: VARIABLE, 1: VARIABLE})])
    assert _compile.cache_info()[:2] == (1, 21)


def _memo_sizes(table):
    return (len(table.allowed), len(table.matches), sum(map(len, table.matches.values())),
            len(table.closed))


def test_retained_state_is_the_last_pool_alone():
    # closure and largest hereditary part on several distinct pools leave
    # one compiled pool, holding what a cold run on the last pool builds
    def run(pool, base):
        def calls():
            closed = hereditary_closure(family_of([base]), pool)
            largest_hereditary(closed, pool)
        walked, _ = walks(calls)
        return walked, _compile(frozenset(pool))

    bases = [make_tuple([make_word({-b: VARIABLE, -a: VARIABLE, a: VARIABLE, b: VARIABLE})
                         for a, b in ((1 + s, 2 + s), (3 + s, 4 + s), (5 + s, 6 + s))])
             for s in range(4)]
    cases = [(extracted_sets(base).variables, base) for base in bases]
    _compile.cache_clear()
    for pool, base in cases:
        walked, table = run(pool, base)
        assert _compile.cache_info().currsize == 1
    _compile.cache_clear()
    cold_walked, cold = run(*cases[-1])
    assert cold is not table and _memo_sizes(cold) == _memo_sizes(table)
    assert cold_walked == walked and walked


def test_invalid_pool_is_never_kept():
    _compile.cache_clear()
    fam = family_of([make_tuple([W1])])
    bad = CHAIN3 | {make_word({-7: -1, 7: VARIABLE})}
    for _ in range(2):
        with pytest.raises(FamilyError, match="^pool word -7:-1,7:v is not a two-sided "
                                              "variable word$"):
            hereditary_closure(fam, bad)
    assert _compile.cache_info().currsize == 0
    # a valid pool is kept, and the family is checked against it each call
    for _ in range(2):
        with pytest.raises(FamilyError, match="^pool is missing the word -1:v,1:v$"):
            largest_hereditary(fam, frozenset([W2]))
    assert _compile.cache_info().currsize == 1


def test_is_thin():
    assert family_of([make_tuple([W1]), make_tuple([W2, W3])]).is_thin
    assert family_of([EMPTY_TUPLE]).is_thin
    assert family_of([]).is_thin
    # one member a proper initial segment of another
    assert not family_of([make_tuple([W1]), make_tuple([W1, W2, W3])]).is_thin
    assert not family_of([make_tuple([W1, W2]), make_tuple([W1, W2, W3])]).is_thin
    # the empty tuple is an initial segment of every nonempty member
    assert not family_of([EMPTY_TUPLE, make_tuple([W2])]).is_thin


def test_family_text_round_trip():
    fam = tree_closure(family_of([make_tuple([W1, W2])]))
    text = format_family(fam)
    again = parse_family(text)
    assert again == fam
    assert parse_family("# comment\n\n").members == {EMPTY_TUPLE}


def test_serialize_tuple():
    assert serialize_tuple(EMPTY_TUPLE) == ""
    assert serialize_tuple(make_tuple([W1])) == "-1:v,1:v"
