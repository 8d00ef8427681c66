import random

import pytest

from zwords.ordinals import (
    DESCENT_CAP,
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    _cnf,
    classify,
    compare,
    format_ordinal,
    from_int,
    fundamental_sequence,
    omega_power,
    parse_ordinal,
    predecessor_sequence,
    successor,
    successor_pred,
)

from _oracles import reference_descent_steps, reference_predecessor_sequence


def cnf3(a, b, c):
    """omega^2*a + omega*b + c."""
    terms = []
    if a:
        terms.append((from_int(2), a))
    if b:
        terms.append((ONE, b))
    if c:
        terms.append((ZERO, c))
    return Ordinal(tuple(terms))


def test_compare_examples():
    assert compare(OMEGA, from_int(5)) == 1
    assert compare(parse_ordinal("w*2+1"), parse_ordinal("w*2+1")) == 0
    assert compare(omega_power(from_int(2)), parse_ordinal("w*7+3")) == 1


def test_compare_against_triple_enumeration():
    # ordinals below omega^3 listed by their coefficient triples
    triples = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for t1 in triples:
        for t2 in triples:
            want = (t1 > t2) - (t1 < t2)
            assert compare(cnf3(*t1), cnf3(*t2)) == want
            assert_operators_agree(cnf3(*t1), cnf3(*t2))


def assert_operators_agree(a, b):
    """The comparison operators of Ordinal read the same order as compare."""
    c = compare(a, b)
    assert ((a < b), (a <= b), (a > b), (a >= b), (a == b)) == (
        c < 0, c <= 0, c > 0, c >= 0, c == 0), (a, b)


class _SortKey:
    def __init__(self, o):
        self.o = o

    def __lt__(self, other):
        return compare(self.o, other.o) < 0


def random_cnf(rng, depth=2):
    exps = set()
    for _ in range(rng.randrange(0, 4)):
        if depth and rng.random() < 0.5:
            exps.add(random_cnf(rng, depth - 1))
        else:
            exps.add(from_int(rng.randrange(0, 4)))
    ordered = sorted(exps, key=_SortKey, reverse=True)
    return Ordinal(tuple((e, rng.randrange(1, 4)) for e in ordered))


def test_compare_is_total_order_on_random_cnf():
    rng = random.Random(20240711)
    for _ in range(1000):
        a, b, c = random_cnf(rng), random_cnf(rng), random_cnf(rng)
        # antisymmetry
        if compare(a, b) == 0:
            assert compare(b, a) == 0
        else:
            assert compare(a, b) == -compare(b, a)
        # transitivity
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0
        for x, y in ((a, b), (b, a), (b, c), (a, c), (a, a)):
            assert_operators_agree(x, y)


def test_classify():
    assert classify(ZERO) == "zero"
    assert classify(parse_ordinal("w+3")) == "successor"
    assert classify(parse_ordinal("w^w")) == "limit"
    assert classify(from_int(1)) == "successor"


def limit_ordinals_upto_omega_cubed():
    out = []
    for a in range(4):
        for b in range(4):
            if a or b:
                out.append(cnf3(a, b, 0))
    out.append(omega_power(from_int(3)))
    return out


def test_fundamental_sequence_members_are_increasing_successors():
    for lam in limit_ordinals_upto_omega_cubed():
        prev = None
        for n in range(1, 51):
            member = fundamental_sequence(lam, n)
            assert member.is_successor
            assert compare(member, lam) < 0
            if prev is not None:
                assert compare(prev, member) < 0
            prev = member


def test_fundamental_sequence_examples():
    assert fundamental_sequence(OMEGA, 7) == from_int(7)
    assert format_ordinal(fundamental_sequence(omega_power(from_int(2)), 3)) == "w*3+1"
    with pytest.raises(OrdinalError):
        fundamental_sequence(parse_ordinal("w+1"), 1)


def test_fundamental_sequence_is_cofinal():
    # for each sampled beta below lam there is an n with lam_n > beta
    cases = [
        (omega_power(from_int(2)), parse_ordinal("w*17+4")),
        (parse_ordinal("w*3"), parse_ordinal("w*2+25")),
        (omega_power(OMEGA), parse_ordinal("w^3*5")),
    ]
    for lam, beta in cases:
        assert compare(beta, lam) < 0
        assert any(compare(fundamental_sequence(lam, n), beta) > 0
                   for n in range(1, 40))


def test_predecessor_sequence_examples():
    assert predecessor_sequence(from_int(2), 7) == from_int(1)
    assert predecessor_sequence(OMEGA, 4) == from_int(3)
    for n in (1, 2, 9):
        assert predecessor_sequence(parse_ordinal("w+1"), n) == OMEGA
    with pytest.raises(OrdinalError):
        predecessor_sequence(ZERO, 1)


def predecessor_sample():
    """Hand-picked and seeded random ordinals, and a tower nested
    MAX_NESTING deep with its successor."""
    rng = random.Random(20240711)
    tower = parse_ordinal("w^(" * MAX_NESTING + "1" + ")" * MAX_NESTING)
    return (limit_ordinals_upto_omega_cubed()
            + [parse_ordinal(t) for t in ("1", "w+1", "w^w", "w^(w^w)", "w^(w+1)*2+w^3+4",
                                          "w^(w^(w^w))", "w^(w^w+w)*3+w^(w*2)")]
            + [random_cnf(rng) for _ in range(300)] + [tower, successor(tower)])


def test_predecessor_sequence_matches_recursive_reference():
    compared = 0
    for xi in predecessor_sample():
        if xi.is_zero:
            continue
        # a copy of w^e at minimum 1 is one element, so xi_1 is xi less that copy
        head, (exp, coeff) = xi.terms[:-1], xi.terms[-1]
        assert predecessor_sequence(xi, 1) == Ordinal(head + (((exp, coeff - 1),) if coeff > 1
                                                               else ())), xi
        for n in range(1, 7):
            try:
                want = reference_predecessor_sequence(xi, n)
            except RecursionError:
                # the recursion takes one frame per step of the descent
                continue
            assert predecessor_sequence(xi, n) == want, (xi, n)
            compared += 1
    assert compared >= 1400


def test_predecessor_sequence_refuses_exactly_past_the_step_cap():
    # a refused call spends the whole budget, in the reference count as in
    # predecessor_sequence, so each ordinal stops at its first refused n,
    # and predecessor_sequence runs only a few of the refused calls
    answered, refused = 0, []
    for xi in predecessor_sample():
        if xi.is_zero:
            continue
        for n in range(2, 7):
            if reference_descent_steps(xi, n) > DESCENT_CAP:
                refused.append((xi, n))
                break
            predecessor_sequence(xi, n)
            answered += 1
    assert answered >= 1200 and len(refused) >= 20
    for xi, n in refused[::6]:
        with pytest.raises(OrdinalError, match="takes more than %d steps" % DESCENT_CAP):
            predecessor_sequence(xi, n)
    # the boundary at n = 2: a successor exponent is one step, a limit two
    for text in ("w^10000", "w^(w+9997)"):
        assert reference_descent_steps(parse_ordinal(text), 2) == DESCENT_CAP
        predecessor_sequence(parse_ordinal(text), 2)
    assert predecessor_sequence(parse_ordinal("w^10000"), 2) == Ordinal(
        tuple((from_int(b), 1) for b in range(DESCENT_CAP - 1, -1, -1)))
    for text in ("w^10001", "w^(w+9998)", "w^(w+9999)"):  # the last refused on its limit step
        assert reference_descent_steps(parse_ordinal(text), 2) == DESCENT_CAP + 1
        with pytest.raises(OrdinalError, match="takes more than %d steps" % DESCENT_CAP):
            predecessor_sequence(parse_ordinal(text), 2)


def test_parser_nesting_cap():
    for nest in ("w^(%s)", "w^%s"):
        text = "1"
        for _ in range(MAX_NESTING):
            text = nest % text
        deep = parse_ordinal(text)
        assert parse_ordinal(format_ordinal(deep)) == deep
        assert compare(deep, successor(deep)) == -1
        assert fundamental_sequence(deep, 3) < deep
        with pytest.raises(OrdinalError, match="^exponents nested more than %d deep$" % MAX_NESTING):
            parse_ordinal(nest % text)


def test_predecessor_sequence_increases_to_limit():
    for xi in [OMEGA, parse_ordinal("w*2"), omega_power(from_int(2)),
               parse_ordinal("w^2+w"), omega_power(OMEGA)]:
        prev = None
        for n in range(1, 30):
            member = predecessor_sequence(xi, n)
            assert compare(member, xi) < 0
            if prev is not None:
                assert compare(prev, member) < 0
            prev = member


def test_successor_helpers():
    assert successor(ZERO) == ONE
    assert successor(OMEGA) == parse_ordinal("w+1")


def test_parse_format_round_trip_random():
    rng = random.Random(7)
    for _ in range(1000):
        o = random_cnf(rng, depth=3)
        assert parse_ordinal(format_ordinal(o)) == o


def test_parser_rejects_bad_input():
    for bad in ["w+w^2", "w*0", "w^2*0", "1+1", "w^", "5+w", ""]:
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)


def _rebuilt(o):
    """o rebuilt through the public constructor at every level."""
    return Ordinal(tuple((_rebuilt(e), c) for e, c in o.terms))


def test_internal_results_pass_the_public_checks():
    rng = random.Random(20240711)
    sample = (limit_ordinals_upto_omega_cubed()
              + [parse_ordinal(t) for t in ("1", "w+1", "w^w", "w^(w^w)", "w^(w+1)*2+w^3+4")]
              + [random_cnf(rng) for _ in range(200)])
    checked = 0
    for o in sample:
        calls = [(successor, o)]
        if o.is_successor:
            calls.append((successor_pred, o))
        for n in range(1, 7):
            if o.is_limit:
                calls.append((fundamental_sequence, o, n))
            if not o.is_zero:
                calls.append((predecessor_sequence, o, n))
        for f, *args in calls:
            try:
                r = f(*args)
            except OrdinalError:
                # predecessor_sequence refuses a descent of more than
                # DESCENT_CAP steps below a tower; no result to check
                continue
            assert _rebuilt(r) == r, (f.__name__, args, r)
            checked += 1
    assert checked >= 2000


def test_equal_ordinals_hash_equal_from_every_builder():
    # the parser, _cnf and fundamental_sequence each give the same value
    # the same hash, before and after the hash is kept
    rng = random.Random(3)
    sample = limit_ordinals_upto_omega_cubed() + [random_cnf(rng, depth=3) for _ in range(200)]
    built = 0
    for o in sample:
        results = [o] + [fundamental_sequence(o, n) for n in (1, 4) if o.is_limit]
        for r in results:
            copies = [parse_ordinal(format_ordinal(r)), _cnf(r.terms), _rebuilt(r), r]
            for c in copies:
                assert compare(c, r) == 0 and c == r
                assert hash(c) == hash(r) == hash(c)
            assert len(set(copies)) == 1
            built += 1
    assert fundamental_sequence(OMEGA, 7) in {from_int(7)}
    assert hash(fundamental_sequence(omega_power(from_int(2)), 3)) == hash(parse_ordinal("w*3+1"))
    assert built > 400


def test_public_constructors_reject_malformed_terms():
    for terms in [((ONE, 1), (OMEGA, 1)), ((ONE, 1), (ONE, 2)), ((ONE, 0),),
                  ((1, 1),), ((ONE, 1.0),), ((ONE, "1"),)]:
        with pytest.raises(OrdinalError):
            Ordinal(terms)
    for exp, coeff in [(ONE, 0), (3, 1), (ONE, 2.0)]:
        with pytest.raises(OrdinalError):
            omega_power(exp, coeff)
    for n in (0, 2.0, "2"):
        with pytest.raises(OrdinalError):
            fundamental_sequence(OMEGA, n)
        with pytest.raises(OrdinalError):
            predecessor_sequence(from_int(3), n)
