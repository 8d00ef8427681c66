import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from zwords.ordinals import OMEGA, ONE, from_int
from zwords.rationals import (
    _LEAF,
    KEMPNER_CAP,
    POSITION_CAP,
    _POSITION_BITS,
    _POSITION_DIGITS,
    RationalCodecError,
    _kempner,
    _mixed_digits,
    _mixed_tree,
    decode,
    encode,
    evaluate,
    format_rational,
    integer_alt_factorial,
    parse_rational,
    q_xi_member,
    rational_pattern,
    rational_precedes,
)
from zwords.words import ABS, VARIABLE, DominationProfile, LocatedWord, make_word, rel_r1

from _oracles import (
    brute_digit_words,
    reference_encode,
    reference_evaluate,
    reference_integer_alt_factorial,
    reference_value,
)


def test_evaluate_examples():
    assert evaluate(make_word({1: 1})) == 1
    assert evaluate(make_word({-1: -1})) == Fraction(-1, 2)
    assert evaluate(make_word({-2: -2})) == Fraction(1, 3)


def test_evaluate_wrong_profile():
    w = make_word({1: 1}, DominationProfile("const", 2))
    with pytest.raises(RationalCodecError):
        evaluate(w)


def test_variable_digits_are_zero():
    w = make_word({-1: VARIABLE, 1: 1})
    assert evaluate(w) == 1


def test_evaluate_matches_direct_sum_on_brute_words():
    for entries, value in brute_digit_words(4):
        if entries:
            assert evaluate(make_word(entries)) == reference_value(entries) == value


def test_evaluate_matches_direct_sum_on_random_words():
    rng = random.Random(4401)
    for _ in range(300):
        span = rng.randint(1, 80)
        dom = rng.sample([p for p in range(-span, span + 1) if p],
                         rng.randint(1, min(2 * span, 60)))
        letters = {}
        for p in dom:
            if rng.random() < 0.2:
                letters[p] = VARIABLE
            else:
                d = rng.randint(1, abs(p))
                letters[p] = d if p > 0 else -d
        w = make_word(letters)
        assert evaluate(w) == reference_value(w.entries)


def _incremental_top(den):
    """The search for the top fractional position that the Kempner
    bound replaced: grow (top+1)! mod den until den divides it."""
    top, fact = 1, 2 % den
    while fact:
        top += 1
        fact = fact * (top + 1) % den
        if top > 10 ** 4:
            return None
    return top


def test_kempner_top_matches_incremental_search():
    for den in (*range(2, 3001), 9973, 10001, 2 ** 200, 3 ** 50 * 7,
                2 ** 9995, 3 ** 4996, 5 ** 2499, 4999 ** 2):
        assert _incremental_top(den) == max(_kempner(den), 2) - 1, den
    # prime powers just past the cap: S(p^e) passes it
    for den in (10007, 2 ** 9996, 2 ** 9997, 3 ** 4997, 5 ** 2500, 5003 ** 2):
        assert _kempner(den) is None and _incremental_top(den) is None, den
    # more bits than the cap: refused unless den divides 10001!, and
    # S(den) found below it by bisection; v_2(10001!) = 9995
    primorial = 1
    for p in range(2, 10001):
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            primorial *= p
    for den, s in ((primorial, 9973), (primorial * 10007, None),
                   (2 ** 9000 * 3 ** 2000, 9008), (2 ** 9995 * 3 ** 10, 10000),
                   (2 ** 9996 * 3 ** 10, None), (factorial(1200), 1200),
                   (factorial(KEMPNER_CAP), KEMPNER_CAP)):
        assert den.bit_length() > KEMPNER_CAP and _kempner(den) == s, den.bit_length()
        assert _incremental_top(den) == (None if s is None else s - 1), den.bit_length()


def test_codec_denominator_cap():
    assert KEMPNER_CAP == 10001
    q = Fraction(1, 9973)
    assert decode(encode(q)) == q
    # the factorization stops at the cap, so (10^9+7)(10^9+9) costs no
    # trial division up to its square root
    for den in (10007, 2 * 10007, 10 ** 12 + 39, (10 ** 9 + 7) * (10 ** 9 + 9)):
        with pytest.raises(RationalCodecError, match="^denominator %d too large$" % den):
            encode(Fraction(1, den))


def test_codec_refuses_denominators_of_any_size():
    # past Python's limit on int-to-str conversion (4300 digits) the
    # refusal names the denominator by its bit length
    den = 10007 ** 1100
    with pytest.raises(RationalCodecError,
                       match="^denominator of %d bits too large$" % den.bit_length()):
        encode(Fraction(1, den))
    # more bits than the cap, so one division by den, which does not
    # divide 10001!, refuses these
    for den, bits in ((2 ** 60000, 60001), (3 ** 30000, 47549)):
        with pytest.raises(RationalCodecError, match="^denominator of %d bits too large$" % bits):
            encode(Fraction(1, den))
    # u/N! has more bits than any divisor of cap! can have, so the same
    # one division refuses it before any trial division
    n, u = 16400, 1
    for k in range(1, n + 1):
        u = u * k + (1 if k % 2 == 0 else -1)
    x = Fraction(u, factorial(n))
    with pytest.raises(RationalCodecError,
                       match="^denominator of %d bits too large$" % x.denominator.bit_length()):
        encode(x)


def test_decode_rejects_variable_words():
    w = make_word({-1: VARIABLE, 1: VARIABLE})
    assert evaluate(w) == 0
    with pytest.raises(RationalCodecError, match="variable"):
        decode(w)
    with pytest.raises(RationalCodecError):
        decode(make_word({-2: -1, 1: VARIABLE}))


def test_decode_refuses_positions_encode_never_writes():
    # encode's deepest position is -(KEMPNER_CAP - 1), for 1/KEMPNER_CAP!
    lowest = 1 - KEMPNER_CAP
    word = make_word({lowest: -1})
    assert encode(decode(word)) == word
    assert decode(word) == Fraction(1, factorial(KEMPNER_CAP))
    for pos in (lowest - 1, -1000000):
        start = time.perf_counter()
        with pytest.raises(RationalCodecError,
                           match="^position %d is below %d, " % (pos, lowest)):
            decode(make_word({pos: -1, 1: 1}))
        assert time.perf_counter() - start < 0.5
    # a variable letter further in does not change which error is given
    with pytest.raises(RationalCodecError, match="^position"):
        decode(make_word({lowest - 1: -1, -1: VARIABLE}))
    # the word one position deeper has a value, and encode refuses it
    with pytest.raises(RationalCodecError, match="too large"):
        encode(evaluate(make_word({lowest - 1: -1})))


def test_encode_examples():
    assert encode(1) == make_word({1: 1})
    assert encode(2) == make_word({2: 2, 3: 1})
    assert encode(Fraction(-1, 2)) == make_word({-1: -1})
    with pytest.raises(RationalCodecError):
        encode(0)


def test_integer_alt_factorial():
    assert integer_alt_factorial(0) == ()
    assert integer_alt_factorial(1) == (1,)
    assert integer_alt_factorial(2) == (0, 2, 1)
    for value in range(-500, 501):
        digits = integer_alt_factorial(value)
        assert all(0 <= d <= r for r, d in enumerate(digits, 1))
        from math import factorial
        total = sum(d * (-1) ** (r + 1) * factorial(r) for r, d in enumerate(digits, 1))
        assert total == value
        if digits:
            assert digits[-1] != 0


def _dense_sample():
    for den in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 20, 24, 45, 48, 120, 720):
        for num in range(-200, 201):
            if num:
                yield Fraction(num, den)


def test_round_trip_dense():
    for q in _dense_sample():
        assert decode(encode(q)) == q


def test_encode_builds_words_make_word_accepts():
    # encode builds its word without make_word's checks
    for q in [Fraction(1, p) for p in range(1, 3001)] + list(_dense_sample()):
        w = encode(q)
        assert w == make_word(w.entries, ABS), q


# constant words on +-40: a magnitude m at position p becomes a letter
# in 1..|p|, negative on the fractional side
_constant_words = st.dictionaries(
    st.integers(-40, 40).filter(bool), st.integers(1, 40), min_size=1, max_size=12,
).map(lambda d: make_word({p: (1 + (m - 1) % abs(p)) * (1 if p > 0 else -1)
                           for p, m in d.items()}))


@settings(database=None, derandomize=True, deadline=None)
@given(st.one_of(st.integers(), st.integers(-10 ** 300, 10 ** 300)).filter(bool),
       st.integers(1, 10 ** 4), _constant_words)
def test_codec_properties(num, den, w):
    q = Fraction(num, den)
    word = encode(q)
    assert decode(word) == q
    assert all(1 <= abs(letter) <= abs(pos) for pos, letter in word.entries)
    assert encode(evaluate(w)) == w


def test_encode_evaluate_identity_window_4():
    # encode is a left inverse of evaluate on all constant words in +-4
    positions = [-4, -3, -2, -1, 1, 2, 3, 4]
    count = 0
    for size in range(1, 5):
        for dom in combinations(positions, size):
            options = [range(1, abs(p) + 1) for p in dom]
            for mags in product(*options):
                w = make_word({p: (m if p > 0 else -m) for p, m in zip(dom, mags)})
                assert encode(evaluate(w)) == w
                count += 1
    assert count > 2000


def test_uniqueness_by_brute_force():
    table = {}
    for entries, value in brute_digit_words(4):
        table.setdefault(value, set()).add(entries)
    for value, reps in table.items():
        if value == 0:
            assert reps == {()}
            continue
        assert len(reps) == 1, (value, reps)
        if abs(value) <= 5 and value.denominator in (1, 2, 3, 4, 6, 8, 12, 24):
            assert encode(value).entries == next(iter(reps))


def _inv_e_approximants(count):
    """The partial sums u/n! of sum (-1)^k/k!, which bracket 1/e ever
    more tightly, with their neighbours (u -+ 1)/n!."""
    u = fact = 1
    for n in range(1, count + 1):
        u, fact = u * n + (1 if n % 2 == 0 else -1), fact * n
        yield from (Fraction(u + d, fact) for d in (-1, 0, 1))


def _has_fractional_expansion(x):
    """Whether x = sum q_{-s} (-1)^s / (s+1)! with 0 <= q_{-s} <= s,
    decided on x alone, so that it can judge the integer part encode's
    single pass leaves."""
    if x == 0:
        return True
    if abs(x) >= 1:
        return False
    top = max(_kempner(x.denominator), 2) - 1
    m = x.numerator * (factorial(top + 1) // x.denominator)
    for s in range(top, 0, -1):
        sign = 1 if s % 2 == 0 else -1
        m = (m - sign * ((m * sign) % (s + 1))) // (s + 1)
    return m == 0


def test_integer_part_candidate_is_unique():
    near = [x + whole for x in _inv_e_approximants(40) if 0 <= x < 1 for whole in (-2, 0, 3)]
    grid = [Fraction(num, den) for num in range(-60, 61) for den in (1, 2, 3, 5, 8, 24)]
    for q in grid + near:
        if q == 0:
            continue
        base = q.numerator // q.denominator
        valid = [whole for whole in range(base - 1, base + 3)
                 if _has_fractional_expansion(q - whole)]
        assert len(valid) == 1
        # what encode's one pass leaves is that candidate
        whole = sum(abs(letter) * (-1) ** (pos + 1) * factorial(pos)
                    for pos, letter in encode(q).entries if pos > 0)
        assert whole == valid[0], q


def test_additivity_on_separated_pairs():
    rng = random.Random(60902)
    span = 6
    for _ in range(1000):
        inner_dom = sorted(rng.sample([-2, -1, 1, 2], rng.randint(2, 3)))
        if not (inner_dom[0] < 0 < inner_dom[-1]):
            continue
        w1 = make_word({p: (rng.randint(1, abs(p)) if p > 0 else -rng.randint(1, abs(p)))
                        for p in inner_dom})
        lo, hi = inner_dom[0], inner_dom[-1]
        left = [p for p in range(-span, lo)]
        right = [p for p in range(hi + 1, span + 1)]
        outer_dom = sorted(rng.sample(left, rng.randint(1, 2))
                           + rng.sample(right, rng.randint(1, 2)))
        w2 = make_word({p: (rng.randint(1, abs(p)) if p > 0 else -rng.randint(1, abs(p)))
                        for p in outer_dom})
        assert rel_r1(w1, w2)
        from zwords.words import concat
        assert evaluate(concat(w1, w2)) == evaluate(w1) + evaluate(w2)


def test_precedes():
    inner = evaluate(make_word({-1: -1, 1: 1}))
    outer = evaluate(make_word({-3: -1, 3: 1}))
    assert rational_precedes(inner, outer)
    assert not rational_precedes(outer, inner)
    with pytest.raises(RationalCodecError):
        rational_precedes(inner, 1)  # 1 encodes one-sided


def test_q_xi_member():
    inner = evaluate(make_word({-1: -1, 1: 1}))
    outer = evaluate(make_word({-3: -1, 3: 1}))
    assert q_xi_member([inner, outer], from_int(2))
    assert q_xi_member([1], ONE)
    t1 = evaluate(make_word({-1: -1, 2: 1}))
    t2 = evaluate(make_word({-4: -1, 5: 1}))
    t3 = evaluate(make_word({-8: -1, 9: 1}))
    assert not q_xi_member([t1, t2, t3], OMEGA)
    with pytest.raises(RationalCodecError):
        q_xi_member([outer, inner], from_int(2))


def pattern_words(n_triples=4, profile=ABS):
    return [make_word({-(2 * s): VARIABLE, -(2 * s - 1): -1, 2 * s - 1: 1,
                       2 * s: VARIABLE}, profile)
            for s in range(1, 3 * n_triples + 1)]


def test_pattern_affine_in_indices():
    ws = pattern_words()
    for n in (1, 2, 3):
        base = rational_pattern(ws, n, 0, 0)
        q11 = rational_pattern(ws, n, 1, 1)
        if n == 1:
            continue
        q21 = rational_pattern(ws, n, 2, 1)
        q12 = rational_pattern(ws, n, 1, 2)
        q22 = rational_pattern(ws, n, 2, 2)
        assert q22 - q21 == q12 - q11
        assert q22 - q12 == q21 - q11
        assert q11 != base


def test_pattern_values_increase_along_n():
    ws = pattern_words()
    for n in (1, 2, 3):
        assert rational_precedes(rational_pattern(ws, n, 1, 1),
                                 rational_pattern(ws, n + 1, 1, 1))


def test_pattern_constant_in_unused_index():
    # words without variables on one side ignore that index
    ws = [make_word({-(2 * s): -1, -(2 * s - 1): -1, 2 * s - 1: 1, 2 * s: VARIABLE})
          for s in range(1, 7)]
    n = 2
    assert rational_pattern(ws, n, 1, 1) == rational_pattern(ws, n, 2, 1)
    assert rational_pattern(ws, n, 1, 1) != rational_pattern(ws, n, 1, 2)


def test_pattern_bounds():
    ws = pattern_words()
    with pytest.raises(RationalCodecError):
        rational_pattern(ws, 2, 0, 1)
    with pytest.raises(RationalCodecError):
        rational_pattern(ws, 2, 3, 1)
    with pytest.raises(RationalCodecError):
        rational_pattern(ws[:3], 2, 1, 1)
    # under k = 1 the middle word's variable at -10 would clamp i = 2
    ws = pattern_words(profile=DominationProfile("const", 1))
    with pytest.raises(RationalCodecError, match="^index 2 clamps at position -10$"):
        rational_pattern(ws, 2, 2, 1)


def test_rational_text():
    assert parse_rational("-5/3") == Fraction(-5, 3)
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(RationalCodecError):
        parse_rational("1/0")


def _random_constant_word(rng, span, density):
    """A constant word on +-span with a digit at -span and at span and
    each other position filled with the given probability."""
    letters = {}
    for p in range(1, span + 1):
        for sign in (-1, 1):
            if p == span or rng.random() < density:
                letters[sign * p] = sign * rng.randint(1, p)
    return make_word(letters)


def test_kernels_invert_each_other_on_every_split_shape():
    # runs of leaf-1 .. 4*leaf+3 positions reach a leaf alone, one split
    # and splits of unequal halves, in both orders of significance
    rng = random.Random(8123)
    for length in (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 4 * _LEAF + 3):
        for lo in (1, 2, 7):
            hi = lo + length - 1
            for last, first in ((hi, lo), (lo, hi)):
                digits = [0] * (hi + 1)
                for s in range(lo, hi + 1):
                    digits[s] = rng.randint(0, s)
                step = 1 if first > last else -1
                weight, expected = 1, 0
                for s in range(last, first + step, step):
                    expected += digits[s] * weight
                    weight *= s + 1
                assert _mixed_tree(digits, last, first) == (expected, weight)
                assert _mixed_tree(digits, last, first, False) == (expected, False)
                out = [0] * (hi + 1)
                assert _mixed_digits(expected + 5 * weight, last, first, out) == 5
                assert out == digits
                assert _mixed_digits(expected - weight, last, first, out) == -1
                assert out == digits


def test_codec_matches_reference_on_split_shapes():
    rng = random.Random(8124)
    for length in (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 4 * _LEAF + 3):
        for density in (0.0, 0.5, 1.0):
            w = _random_constant_word(rng, length, density)
            q = evaluate(w)
            assert q == reference_evaluate(w)
            assert encode(q) == reference_encode(q) == w


def test_encode_matches_reference_on_small_denominators():
    # every n/d with d <= 200 and 0 < |n| <= 3d, words of up to 198
    # fractional digits.  n/d and n/d + k share their fractional digits,
    # so the reference extracts them once per residue n mod d and the
    # integer part, that of n/d + k, by its own alternating division.
    for den in range(1, 201):
        for rest in range(den):
            if gcd(rest, den) != 1:
                continue
            base = reference_encode(Fraction(rest, den)).entries if rest else ()
            fractional = tuple(e for e in base if e[0] < 0)
            whole = sum(letter * (-1) ** (pos + 1) * factorial(pos)
                        for pos, letter in base if pos > 0)
            for k in range(-3, 4):
                num = rest + k * den
                if num and abs(num) <= 3 * den:
                    digits = reference_integer_alt_factorial(whole + k)
                    expected = fractional + tuple((r, d) for r, d in enumerate(digits, 1) if d)
                    assert encode(Fraction(num, den)).entries == expected, (num, den)


def test_encode_matches_reference_at_prime_denominators():
    # primes near 1,000 (about 1,000 fractional digits, where the sign
    # constant's carry runs far) and the largest accepted prime, 9,973
    rng = random.Random(1093)
    for den in (997, 1009, 1013, 1093):
        for num in (1, den - 1, -1, 1 - den, *(rng.randint(-6 * den, 6 * den) for _ in range(6))):
            q = Fraction(num, den)
            if q:
                assert encode(q) == reference_encode(q), q
    for q in (Fraction(5, 9973), Fraction(-4 * 9973 - 1, 9973), Fraction(1, 9967)):
        assert encode(q) == reference_encode(q), q


def test_codec_matches_reference_on_brute_words_and_inv_e():
    for entries, value in brute_digit_words(4):
        if entries:
            w = make_word(entries)
            assert evaluate(w) == reference_evaluate(w) == value
            assert encode(value) == reference_encode(value) == w
    for q in _inv_e_approximants(120):
        if not q:
            continue
        w = encode(q)
        assert w == reference_encode(q)
        assert evaluate(w) == reference_evaluate(w) == q


def test_integer_digits_match_reference_on_powers_of_ten():
    for k in (*range(0, 60), *range(60, 3001, 97), 3000):
        for value in (10 ** k, -10 ** k):
            digits = integer_alt_factorial(value)
            assert digits == reference_integer_alt_factorial(value), (k, value > 0)
            assert digits[-1] != 0
    assert encode(10 ** 3000) == reference_encode(Fraction(10 ** 3000))


def test_codec_at_scale():
    # the largest accepted prime, 9,972 fractional digits
    rng = random.Random(9973)
    for _ in range(3):
        q = Fraction(rng.randint(1, 10 ** 9), 9973) * rng.choice((-1, 1))
        assert decode(encode(q)) == q
    for span in (500, 1000, 2000):
        w = _random_constant_word(rng, span, 0.7)
        assert evaluate(w) == reference_evaluate(w)


def test_rational_text_past_the_digit_limit():
    # Decimal converts without Python's 4,300-digit int-str limit
    rng = random.Random(4300)
    for digits in (4299, 4300, 4301, 9000, 35664):
        num = rng.randrange(10 ** (digits - 1), 10 ** digits) * rng.choice((-1, 1))
        den = rng.randrange(1, 10 ** digits)
        q = Fraction(num, den)
        assert parse_rational("%s/%s" % (Decimal(num), Decimal(den))) == q
        assert parse_rational(str(Decimal(num))) == num
        assert format_rational(q) == ("%s/%s" % (Decimal(q.numerator), Decimal(q.denominator))
                                      if q.denominator > 1 else str(Decimal(num)))
    # other forms go through Fraction alone, and it refuses them
    for text in ("1_0/" + "1" * 5000, "0." + "1" * 5000, "1" * 5000 + "e3"):
        with pytest.raises(RationalCodecError, match="Exceeds the limit"):
            parse_rational(text)
    # below the limit the text is str's, on both sides of the split width
    for bits in (0, 1, 1535, 1536, 1537, 3072, 3073, 14000):
        for _ in range(5):
            num = rng.getrandbits(bits) * rng.choice((-1, 1))
            for q in (num, Fraction(num, rng.getrandbits(bits) | 1)):
                assert format_rational(q) == str(q)


def test_exponents_past_the_codec_range_are_refused_on_the_text():
    # the mantissa has fewer digits than the text is long, so an exponent
    # whose size passes _POSITION_DIGITS plus that length names only values
    # that encode refuses; one at the bound is read as before.  The bound
    # counts decimal digits: 10^_POSITION_DIGITS has more bits than any
    # integer part encode accepts, and 10^(_POSITION_DIGITS - 1) fewer
    assert _POSITION_DIGITS == 166719
    assert (10 ** _POSITION_DIGITS).bit_length() > _POSITION_BITS \
        >= (10 ** (_POSITION_DIGITS - 1)).bit_length()
    for sign, length in (("", 8), ("-", 9)):
        at = _POSITION_DIGITS + length
        assert parse_rational("1e%s%d" % (sign, at)) == Fraction(10) ** int(sign + str(at))
        text = "1e%s%d" % (sign, at + 1)
        with pytest.raises(RationalCodecError, match="^bad rational %r: exponent %s%d exceeds "
                                                     "%d in size" % (text, sign, at + 1, at)):
            parse_rational(text)
    for text in ("1e10000000", "-2.5E-10000000", "0e99999999", "1e1_000_000_000", "1e553000",
                 "1e200000", "-3e-200000"):
        start = time.perf_counter()
        with pytest.raises(RationalCodecError, match="exponent"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.5, text
    assert parse_rational("2.5e-3") == Fraction(1, 400)
    assert parse_rational("1e" + "0" * 200 + "5") == 100000


def test_positions_above_the_cap_are_refused():
    # decode answers at the cap and refuses one past it, at once
    assert POSITION_CAP == 40000
    assert decode(make_word({POSITION_CAP: 1})) == -factorial(POSITION_CAP)
    for pos in (POSITION_CAP + 1, 10 ** 20):
        start = time.perf_counter()
        with pytest.raises(RationalCodecError, match="^position %d is above 40000, the highest "
                           "a codec word reaches$" % pos):
            decode(make_word({pos: 1}))
        assert time.perf_counter() - start < 0.1
    # the values of largest size under the cap, positive and negative:
    # every digit at its bound on the positions of their sign; one step
    # further needs position 40001 or 40002
    for sign in (1, -1):
        edge_word = LocatedWord(tuple((r, r) for r in range(1, POSITION_CAP + 1)
                                      if r % 2 == (sign > 0)), ABS)
        edge = decode(edge_word)
        assert edge * sign > 0 and encode(edge) == edge_word
        with pytest.raises(RationalCodecError, match=" needs a position above 40000, the "
                           "highest a codec word reaches$"):
            encode(edge + sign)
    # an integer part far past the cap is refused by its size
    with pytest.raises(RationalCodecError, match="needs a position above 40000"):
        encode(Fraction(10) ** 300000 + Fraction(1, 7))
