import inspect
import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from zwords.ordinals import (
    DESCENT_CAP,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    from_int,
    omega_power,
    parse_ordinal,
    predecessor_sequence,
)
from zwords import schreier
from zwords.schreier import (
    SchreierError,
    _expand,
    _same_restriction,
    as_finite_set,
    canonical_decompose,
    enumerate_members,
    format_set,
    is_member,
    is_proper_initial,
    parse_set,
    restriction_check,
)

from _oracles import (
    _reference_plan,
    powerset,
    reference_as_finite_set,
    reference_decompositions,
    reference_enumerate_members,
    reference_initial,
    reference_member,
    reference_restriction_check,
)

XI_SAMPLE = [ONE, from_int(2), from_int(3), OMEGA, parse_ordinal("w+1"),
             parse_ordinal("w*2"), omega_power(from_int(2))]
TOWER_AND_SUM = [parse_ordinal(t) for t in ("w^w", "w^3", "w^2+w", "w^(w+1)*2+w^3")]
DEEP_TOWERS = [parse_ordinal(t) for t in ("w^(w^w)", "w^(w^(w^w))")]


def test_membership_examples():
    assert is_member((7,), ONE)
    assert is_member((3, 5, 9), OMEGA)
    assert not is_member((2, 5, 7), OMEGA)


def test_membership_agrees_with_reference_on_small_ground():
    for xi in XI_SAMPLE + TOWER_AND_SUM + DEEP_TOWERS:
        reference = {s: reference_member(s, xi) for s in powerset(range(1, 11))}
        for s, member in reference.items():
            assert is_member(s, xi) == member, (s, xi)
            # a set with no member prefix is a proper initial segment
            no_member_prefix = not any(reference[s[:j]] for j in range(len(s) + 1))
            assert is_proper_initial(s, xi) == no_member_prefix, (s, xi)


def test_sets_shorter_than_their_minimum_are_open():
    # a limit member with minimum n has at least n elements; so has a
    # member of xi + m, whose limit part starts above n.  A finite xi = m
    # takes m elements whatever they are, so it has no such bound.
    infinite = [xi for xi in XI_SAMPLE + TOWER_AND_SUM + DEEP_TOWERS if not xi.is_finite]
    assert len(infinite) == 10
    for xi in infinite:
        for s in powerset(range(1, 11)):
            if not s or s[0] <= len(s):
                continue
            assert not is_member(s, xi) and not reference_member(s, xi), (s, xi)
            assert is_proper_initial(s, xi), (s, xi)
            dec = canonical_decompose(s, xi)
            assert dec.blocks == () and dec.remainder == s, (s, xi)
    # without the cut the parse recursed past limit 200000 here, for 33 s
    assert not is_member((3, 4), DEEP_TOWERS[1])
    # a long set runs out of elements before the runs it expands to
    ten = tuple(range(5, 15))
    assert str(canonical_decompose(ten, DEEP_TOWERS[0])) == "|5,6,7,8,9,10,11,12,13,14"
    assert not is_member(tuple(range(2, 201)), DEEP_TOWERS[1])


def test_large_elements_and_coefficients_cost_no_memory():
    # a minimum of 10**12 asks for 10**12 blocks, which are one run
    big = 10**12
    for xi in (parse_ordinal("w^2"), parse_ordinal("w^3"), parse_ordinal("w*%d" % big)):
        assert not is_member((big,), xi)
        assert is_proper_initial((big, big + 1), xi)
        assert str(canonical_decompose((big,), xi)) == "|%d" % big
    assert enumerate_members(parse_ordinal("w*%d" % big), 10) == []
    # more blocks than elements left: no descent into w^(w^w) beyond {1}
    assert enumerate_members(parse_ordinal("w^(w^w)"), 8) == [(1,)]


def test_finite_families_are_exactly_the_m_subsets():
    for m in range(0, 5):
        members = enumerate_members(from_int(m), 8)
        expected = sorted(combinations(range(1, 9), m))
        assert members == expected


def test_enumerate_examples():
    assert enumerate_members(ONE, 3) == [(1,), (2,), (3,)]
    assert enumerate_members(from_int(2), 3) == [(1, 2), (1, 3), (2, 3)]
    omega_members = enumerate_members(OMEGA, 4)
    assert omega_members == [(1,), (2, 3), (2, 4)]
    assert all(len(s) == s[0] for s in omega_members)


def test_enumerate_matches_membership_filter():
    for xi in XI_SAMPLE:
        members = set(enumerate_members(xi, 10))
        expected = {s for s in powerset(range(1, 11)) if is_member(s, xi)}
        assert members == expected


def test_enumerate_matches_recursive_reference_in_order():
    for xi in XI_SAMPLE + TOWER_AND_SUM:
        for n in range(0, 13):
            assert enumerate_members(xi, n) == reference_enumerate_members(xi, n), (xi, n)


def test_enumerate_deep_towers():
    # a minimum m >= 2 asks for more nested blocks than elements left, so
    # only {1} is a member; the walk finds that without recursing
    for xi in DEEP_TOWERS:
        for n in (9, 12, 20):
            assert enumerate_members(xi, n) == [(1,)], (xi, n)


def test_enumerate_cap():
    with pytest.raises(SchreierError):
        enumerate_members(ONE, 25)
    assert enumerate_members(ONE, 25, cap=25)[0] == (1,)


def test_thinness_on_ground_12():
    for xi in XI_SAMPLE:
        members = enumerate_members(xi, 12)
        as_set = set(members)
        for s in members:
            for cut in range(1, len(s)):
                assert s[:cut] not in as_set, (xi, s)


def test_proper_initial_segments():
    assert is_proper_initial((2,), OMEGA)
    assert not is_proper_initial((2, 3), OMEGA)
    assert not is_proper_initial((2, 5, 7), OMEGA)
    assert is_proper_initial((5,), from_int(2))
    assert not is_proper_initial((4, 7), from_int(2))


def test_canonical_examples():
    dec = canonical_decompose((1, 2, 3, 4, 5), from_int(2))
    assert dec.blocks == ((1, 2), (3, 4)) and dec.remainder == (5,)
    dec = canonical_decompose((2, 5, 7, 9), OMEGA)
    assert dec.blocks == ((2, 5),) and dec.remainder == (7, 9)
    dec = canonical_decompose((3,), ONE)
    assert dec.blocks == ((3,),) and dec.remainder is None


def test_canonical_round_trip_all_sample_families():
    for xi in XI_SAMPLE:
        for size in range(1, 11):
            for s in combinations(range(1, 11), size):
                dec = canonical_decompose(s, xi)
                assert dec.rejoin() == s
                for b in dec.blocks:
                    assert is_member(b, xi)
                if dec.remainder is not None:
                    assert not is_member(dec.remainder, xi)


def test_canonical_round_trip_and_uniqueness():
    # the towers and sums are where a limit exponent becomes an int
    # partway through the parse
    for xi in [from_int(2), from_int(3), OMEGA] + TOWER_AND_SUM:
        for size in range(1, 11):
            for s in combinations(range(1, 11), size):
                dec = canonical_decompose(s, xi)
                assert dec.rejoin() == s
                for b in dec.blocks:
                    assert reference_member(b, xi)
                if dec.remainder is not None:
                    assert reference_initial(dec.remainder, xi)
                    assert not reference_member(dec.remainder, xi)
                # the remainder variants produced by exhaustive splitting
                candidates = reference_decompositions(s, xi)
                assert (dec.blocks, dec.remainder) in candidates
                assert len(candidates) == 1


def test_restriction_examples():
    assert restriction_check(from_int(2), 3, 10)
    assert restriction_check(OMEGA, 2, 10)
    assert restriction_check(ONE, 5, 10)


def test_restriction_sweep():
    for xi in [from_int(2), from_int(3), OMEGA, parse_ordinal("w+1"),
               parse_ordinal("w*2"), omega_power(from_int(2))]:
        for n in range(1, 7):
            assert restriction_check(xi, n, 12), (xi, n)


def test_restriction_composite_and_tower_ordinals():
    for text, n_top, ground in [("w^2+w", 4, 11), ("w^2*2", 4, 11),
                                ("w^2+w*2+1", 4, 11), ("w^3", 3, 10),
                                ("w^w", 3, 10), ("w^w+w", 3, 10)]:
        xi = parse_ordinal(text)
        for n in range(1, n_top + 1):
            assert restriction_check(xi, n, ground), (text, n)


def test_lock_step_restriction_matches_subset_reference():
    # the right xi_n and wrong ones: the two walks must also tell a
    # family that differs from A_xi(n) apart
    texts = ("1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w", "w^w",
             "w^(w+1)*2+w^3", "w^3", "w^w+w")
    cases = falses = 0
    for xi in map(parse_ordinal, texts):
        for n in range(1, 5):
            right = predecessor_sequence(xi, n)
            wrong = [xi, OMEGA, predecessor_sequence(xi, n + 1)]
            if n > 1:
                wrong.append(predecessor_sequence(xi, n - 1))
            for n_max in range(n + 1, 12):
                assert _same_restriction(xi, right, n, n_max), (xi, n, n_max)
                assert restriction_check(xi, n, n_max), (xi, n, n_max)
                for xi_n in [right] + wrong:
                    same = _same_restriction(xi, xi_n, n, n_max)
                    assert same == reference_restriction_check(xi, xi_n, n, n_max), \
                        (xi, xi_n, n, n_max)
                    cases += 1
                    falses += not same
    assert (cases, falses) == (1920, 670)


def draw_ordinal(data, depth):
    """A nonzero ordinal of one to three terms whose exponents are 0 or
    drawn at depth - 1; at depth 0, a natural number."""
    if depth == 0:
        return from_int(data.draw(st.integers(1, 4)))
    exps = {ZERO if data.draw(st.booleans()) else draw_ordinal(data, depth - 1)
            for _ in range(data.draw(st.integers(1, 3)))}
    return Ordinal(tuple((e, data.draw(st.integers(1, 3))) for e in sorted(exps, reverse=True)))


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(st.data())
def test_restriction_holds_on_random_ordinals(data):
    # A_xi(n) = A_{xi_n} above n, on ordinals whose exponents nest at most
    # two deep; a descent past DESCENT_CAP steps is refused, not checked
    xi = draw_ordinal(data, data.draw(st.integers(0, 2)))
    n_max = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, n_max - 1))
    try:
        holds = restriction_check(xi, n, n_max)
    except OrdinalError as exc:
        assert str(exc).endswith("takes more than %d steps" % DESCENT_CAP), exc
        return
    assert holds, (xi, n, n_max)


def test_restriction_argument_checks():
    # n is checked before the cap, and both before the predecessor
    with pytest.raises(SchreierError, match="need 1 <= n < N"):
        restriction_check(from_int(0), 30, 30)
    with pytest.raises(SchreierError, match="exceeds cap 20"):
        restriction_check(from_int(0), 2, 30)
    with pytest.raises(OrdinalError, match="undefined for 0"):
        restriction_check(from_int(0), 2, 10)
    assert restriction_check(ONE, 2, 30, cap=30)


def test_set_text_round_trip():
    assert parse_set("2,5,9") == (2, 5, 9)
    assert format_set((2, 5, 9)) == "2,5,9"
    assert parse_set("") == ()
    with pytest.raises(SchreierError):
        parse_set("5,2")
    with pytest.raises(SchreierError):
        parse_set("0,1")


def test_decomposition_format():
    dec = canonical_decompose((1, 2, 3, 4, 5), from_int(2))
    assert str(dec) == "[1,2][3,4]|5"


def _walk_all_families(n_max):
    """Every family's members up to n_max, with the sets of {1..8} read
    through membership, initial segments and decomposition."""
    results = []
    for xi in XI_SAMPLE + TOWER_AND_SUM + DEEP_TOWERS:
        results.append(enumerate_members(xi, n_max))
        for s in powerset(range(1, 9)):
            results.append((is_member(s, xi), is_proper_initial(s, xi),
                            str(canonical_decompose(s, xi)) if s and not xi.is_zero else None))
    return results


def _record_expansions(steps):
    """A trace function that adds to steps each (exponent, minimum, run)
    with which _prefix_end and _walk expand a copy, an int exponent by
    arithmetic or an Ordinal one through _expand: the kernel's locals on
    the line after the one that sets run."""
    at = {}
    for kernel in (schreier._prefix_end, schreier._walk):
        lines, first = inspect.getsourcelines(kernel)
        [line] = [first + k for k, text in enumerate(lines) if text.lstrip().startswith("run = ")]
        at[kernel.__code__] = line

    def trace(frame, event, arg):
        line = at.get(frame.f_code)
        if line is None:
            return None
        pending = False

        def local(frame, event, arg):
            nonlocal pending
            if event == "line":
                if pending:
                    found = frame.f_locals
                    steps.append((found["exp"], found["m"], found["run"]))
                pending = frame.f_lineno == line
            return local
        return local
    return trace


def test_expand_memo_matches_the_uncached_function_and_the_reference_plan():
    steps = []
    previous = sys.gettrace()
    sys.settrace(_record_expansions(steps))
    try:
        _walk_all_families(20)
    finally:
        sys.settrace(previous)
    met = set(steps)
    assert len(met) > 100 and any(m == 1 for _, m, _ in met)
    # finite exponents are ints on the stack, infinite ones Ordinals
    assert {type(exp) for exp, _, _ in met} == {int, Ordinal}
    for exp, m, run in met:
        if isinstance(exp, Ordinal):
            assert run == _expand(exp, m) == _expand.__wrapped__(exp, m), (exp, m)
        low = run[0]
        assert isinstance(low, int) or not low.is_finite, (exp, m, run)
        plan = _reference_plan(omega_power(from_int(exp) if isinstance(exp, int) else exp), m)
        if m == 1:
            # a copy at minimum 1 is that one element, however deep exp is
            assert run == (0, 1) and len(plan) == 1, (exp, m)
        else:
            low = from_int(low) if isinstance(low, int) else low
            assert plan == [omega_power(low)] * run[1], (exp, m)


def test_expand_is_met_only_at_ordinal_exponents(monkeypatch):
    # a finite exponent expands by arithmetic, so _expand is met at xi's
    # own exponents and at infinite ones, never at an int
    calls = []

    def counted(exp, m):
        calls.append(exp)
        return _expand(exp, m)

    monkeypatch.setattr(schreier, "_expand", counted)
    w2 = parse_ordinal("w^2")
    met = 0
    for s in powerset(range(1, 11)):
        # under w^2 once per block: the block's minimum expands the one
        # copy of w^2, and the copies of w^1 it leaves take their elements
        del calls[:]
        is_member(s, w2)
        assert len(calls) <= 1, s
        if s:
            dec = canonical_decompose(s, w2)
            assert len(calls) <= 1 + len(dec.blocks) + (dec.remainder is not None), s
        assert calls == [w2.terms[0][0]] * len(calls), s
        met += len(calls)
    assert met > 1000
    xi = parse_ordinal("w^(w+1)*2+w^3")
    own = {exp for exp, _ in xi.terms}
    del calls[:]
    for s in powerset(range(1, 11)):
        is_member(s, xi)
        is_proper_initial(s, xi)
        if s:
            canonical_decompose(s, xi)
    assert len(calls) > 100
    assert all(isinstance(exp, Ordinal) and (exp in own or not exp.is_finite)
               for exp in calls)
    assert _expand.cache_info().maxsize == 256


def test_results_are_the_same_cold_warm_and_uncached(monkeypatch):
    _expand.cache_clear()
    cold = _walk_all_families(12)
    assert _expand.cache_info().hits > 0
    assert _walk_all_families(12) == cold
    monkeypatch.setattr(schreier, "_expand", _expand.__wrapped__)
    assert _walk_all_families(12) == cold


def test_expand_cache_stays_bounded():
    assert _expand.cache_info().maxsize is not None
    for xi in DEEP_TOWERS:
        assert enumerate_members(xi, 20) == [(1,)]
        assert not is_member(tuple(range(2, 201)), xi)
    assert _expand.cache_info().currsize <= _expand.cache_info().maxsize
    # more distinct (exponent, minimum) pairs than the cache holds evict
    # older entries, and the answers do not change
    w2 = parse_ordinal("w^2")
    for m in range(2, 2 * _expand.cache_info().maxsize):
        assert is_proper_initial((m, m + 1), w2)
        assert not is_member((m,) + tuple(range(m + 1, 2 * m)), w2)
    info = _expand.cache_info()
    assert info.currsize == info.maxsize
    assert is_member((2, 3, 4, 5, 6, 7), w2) and is_member((1,), w2)


def test_parse_and_walk_agree_on_a_larger_ground():
    # {1..20} is past the grounds the references check, and there w*3 and
    # w*4 give runs of three and more copies: every member the walk lists
    # is a member to the parse, its proper prefixes are open, and seeded
    # subsets are members exactly when listed
    rng = random.Random(20)
    for text in ("w^2", "w*3", "w*4", "w^2*2", "w^2+w", "w^w"):
        xi = parse_ordinal(text)
        members = enumerate_members(xi, 20)
        assert len(members) > 100, text
        for s in members:
            assert is_member(s, xi) and not is_proper_initial(s, xi), (text, s)
            assert is_proper_initial(s[:-1], xi) or not s[:-1], (text, s)
            assert str(canonical_decompose(s, xi)) == "[%s]" % format_set(s), (text, s)
        listed = set(members)
        for _ in range(2000):
            s = tuple(sorted(rng.sample(range(1, 21), rng.randint(1, 20))))
            assert is_member(s, xi) == (s in listed), (text, s)


def test_set_check_matches_the_generator_reference():
    values = (1, 2, 3, 7, 0, -1, -4, 1.0, 2.5, "2", None, True, False, 2**70)
    cases = [()] + [c for size in (1, 2, 3) for c in product(values, repeat=size)]
    cases += [(3, 2, 1), (1, 2, 2, 3), (5, 4, 0), (2, 1, "x"), (4, 3, -1), (1, 1.0)]
    refused = 0
    for case in cases:
        try:
            expected = reference_as_finite_set(case)
        except SchreierError as exc:
            refused += 1
            with pytest.raises(SchreierError) as info:
                as_finite_set(iter(case))
            assert str(info.value) == str(exc), case
        else:
            assert as_finite_set(iter(case)) == expected, case
    assert 0 < refused < len(cases)
    # a set that breaks both rules is refused for its elements first
    for case in ((3, 0), (2, 1, "x"), (5, 5, -1), (4, 2.0)):
        with pytest.raises(SchreierError, match="positive integers"):
            as_finite_set(case)
