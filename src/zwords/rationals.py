"""Exact codec between nonzero rationals and two-sided located words.

A word with profile k_n = |n| carries digits q_t = |letter at t|; its value
is

    sum over t < 0 of q_t * (-1)^(-t) / ((-t)+1)!  +
    sum over t > 0 of q_t * (-1)^(t+1) * t!

Every nonzero rational has exactly one such digit expansion with
0 <= q_{-s} <= s and 0 <= q_r <= r, which makes the evaluation map a
bijection onto the nonzero rationals.

Both directions are exact mixed-radix conversions.  Multiplied by
(top+1)!, the fractional digits are the digits of an integer in which
position s has radix s+1, s = top the least significant; the integer
digits are factorial-base digits, position r with radix r+1 and weight
r!.  Both conversions divide and conquer, splitting a run of positions
at its middle, so one big-integer step spans half the number instead of
one digit.  `_mixed_tree` joins digits by one product tree: each node
returns its value and the product of its radices, its value being the
more significant half's value times the less significant half's product
plus that half's value, so the fractional part's root product is
(top+1)!, the denominator `evaluate` needs, and no falling factorial is
built twice.  `_mixed_digits` separates them with one divmod per node
by the falling factorial of the less significant half's radices.
`evaluate` joins both parts by the tree and `integer_alt_factorial`
splits the integer part by divmod, while `encode` reads the fractional
digits off the fraction part one at a time, on integers the size of the
denominator.  The alternating signs are folded into a constant: a digit
d at a negative position of radix s+1 is the plain digit s - d less s.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from math import factorial, lgamma, log, log2, perm
from operator import itemgetter

from .ordinals import ECHO_LIMIT, Ordinal, _echo
from .schreier import is_member
from .words import (
    ABS,
    VARIABLE,
    LocatedWord,
    concat,
    first_clamp,
    rel_r1,
    substitute,
)


class RationalCodecError(ValueError):
    pass


def _too_large(den: int) -> RationalCodecError:
    """The refusal of a denominator over the cap, quoted as _echo bounds
    it, or named by its bit length past Python's int-to-str limit."""
    try:
        text = _echo(str(den), str)
    except ValueError:
        text = "of %d bits" % den.bit_length()
    return RationalCodecError("denominator %s too large" % text)


def _require_abs_profile(w: LocatedWord) -> None:
    if w.profile != ABS:
        raise RationalCodecError("codec words use the profile k_n = |n|")


# A run of at most this many digit positions is converted by a plain loop.
_LEAF = 48
_LETTER = itemgetter(1)


def _radix_product(a: int, b: int) -> int:
    """The product of the radices t+1 over the positions t from a to b,
    in either order: a falling factorial."""
    return perm(max(a, b) + 1, abs(a - b) + 1)


def _mixed_tree(digits: Sequence[int], last: int, first: int,
                product: bool = True) -> tuple[int, int]:
    """The integer whose digit at position s is digits[s], reading the
    positions from first, the most significant, to last, the least, and
    the product of their radices (False when `product` is false);
    position s has radix s+1.  `first` lies on either side of `last`.

    One product tree: a run of positions splits at its middle, and a node
    joins its halves with one multiply for the value, the more
    significant value times the less significant product, and one for
    its own product.  A leaf reads its digits in one loop and takes its
    product from perm.  Only the less significant half's product is
    needed for the value, so a caller that wants the value alone skips
    every product along the most significant edge.  The value is linear
    in the digits, so they may take any sign."""
    step = 1 if last >= first else -1
    if abs(last - first) < _LEAF:
        value = 0
        for s in range(first, last + step, step):
            value = value * (s + 1) + digits[s]
        return value, product and _radix_product(first, last)
    mid = (first + last) // 2
    high, high_radices = _mixed_tree(digits, mid, first, product)
    low, low_radices = _mixed_tree(digits, last, mid + step)
    return high * low_radices + low, product and high_radices * low_radices


def _mixed_digits(m: int, last: int, first: int, out: list[int]) -> int:
    """The inverse of `_mixed_tree`: writes the digits of m at the
    positions from last, the least significant, to first into out, each
    in 0..s, and returns what is left above `first`."""
    step = 1 if last >= first else -1
    if abs(last - first) < _LEAF:
        for s in range(last, first - step, -step):
            m, out[s] = divmod(m, s + 1)
        return m
    mid = (first + last) // 2
    m, low = divmod(m, _radix_product(mid + step, last))
    _mixed_digits(low, last, mid + step, out)
    return _mixed_digits(m, mid, first, out)


def evaluate(w: LocatedWord) -> Fraction:
    """The exact rational value of a word; variables contribute digit 0.

    The signed digits (-1)^(r+1) q_r and (-1)^s q_{-s} are evaluated by
    `_mixed_tree`: the integer part in factorial base, the fractional
    part as one numerator over the product of its radices, (top+1)!,
    -top the outermost negative position (top = 1 when there is none)."""
    _require_abs_profile(w)
    entries = w.entries
    top, r_top = max(-entries[0][0], 1), max(entries[-1][0], 0)
    frac, whole = [0] * (top + 1), [0] * (r_top + 1)
    for pos, letter in entries:
        signed = letter if pos % 2 else -letter  # VARIABLE is 0, digit 0
        if pos > 0:
            whole[pos] = signed
        else:
            frac[-pos] = signed
    num, den = _mixed_tree(frac, top, 1)
    if r_top:
        num += _mixed_tree(whole, 1, r_top, False)[0] * den
    return Fraction(num, den)


def decode(w: LocatedWord) -> Fraction:
    """The value of a constant word, the inverse of encode; a variable
    letter is no digit.  A position below -(KEMPNER_CAP - 1) or above
    POSITION_CAP, which encode never writes, is refused before any
    factorial is built."""
    lowest, highest = w.entries[0][0], w.entries[-1][0]
    if lowest < 1 - KEMPNER_CAP:
        raise RationalCodecError("position %d is below %d, the lowest a codec word reaches"
                                 % (lowest, 1 - KEMPNER_CAP))
    if highest > POSITION_CAP:
        raise RationalCodecError("position %d is above %d, the highest a codec word reaches"
                                 % (highest, POSITION_CAP))
    if not all(map(_LETTER, w.entries)):  # VARIABLE is 0, the one false letter
        pos = next(pos for pos, letter in w.entries if letter == VARIABLE)
        raise RationalCodecError("cannot decode a variable word: variable at %d" % pos)
    return evaluate(w)


def integer_alt_factorial(value: int) -> tuple[int, ...]:
    """Digits (q_1, q_2, ...) with value = sum q_r * (-1)^(r+1) * r! and
    0 <= q_r <= r; the expansion is unique and the zero value is empty.

    With R! > 2|value|, value + sum over even r <= R of r * r! lies in
    0..(R+1)! - 1, so its factorial-base digits e_r are the q_r at odd r
    and r - q_r at even r."""
    if not value:
        return ()
    bits, top, log_fact = abs(value).bit_length() + 2, 1, 0.0
    while log_fact < bits:
        top += 1
        log_fact += log2(top)
    digits = [0 if r % 2 else r for r in range(top + 1)]
    _mixed_digits(value + _mixed_tree(digits, 1, top, False)[0], 1, top, digits)
    for r in range(2, top + 1, 2):
        digits[r] = r - digits[r]
    while not digits[top]:
        top -= 1
    return tuple(digits[1:top + 1])


# The codec accepts a denominator den when S(den), the least n with
# den | n!, is at most this, that is when den divides KEMPNER_CAP!; the
# largest accepted prime is 9973.
KEMPNER_CAP = 10001

# The highest position a codec word may have, so an integer part below
# (POSITION_CAP + 1)! in size.  The longest integer one command line
# argument holds on Linux, 131,071 characters, reaches position 32,178.
POSITION_CAP = 40000
# at least the bit length of every integer part up to POSITION_CAP
_POSITION_BITS = int(lgamma(POSITION_CAP + 2) / log(2)) + 2
# at least _POSITION_BITS * log10(2) (0.30103 exceeds log10(2)), so an
# integer of more decimal digits than this has more bits than that
_POSITION_DIGITS = -(-_POSITION_BITS * 30103 // 100000)


def _kempner(den: int) -> int | None:
    """Kempner's S(den), or None when den does not divide KEMPNER_CAP!.

    S(den) <= n exactly when den | n!.  A denominator of more bits than
    the cap is decided by that test: one division refuses it or bounds
    S(den) by the cap, and bisection on n finds S(den) below.  Any other
    is trial-divided, which stops at the first prime above the cap, and at
    the square root of the rest once the rest is prime; S(p^e) is the
    first multiple n of p at which v_p(n!) reaches e, and an n above the
    cap is a refusal."""
    if den.bit_length() > KEMPNER_CAP:
        if factorial(KEMPNER_CAP) % den:
            return None
        lo, hi = 1, KEMPNER_CAP
        while lo < hi:
            mid = (lo + hi) // 2
            if factorial(mid) % den:
                lo = mid + 1
            else:
                hi = mid
        return lo
    result, rest, p = 1, den, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # rest is prime
        if p > KEMPNER_CAP:
            return None
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            n = v = 0
            while v < e:
                n += p
                k = n
                while k % p == 0:
                    k //= p
                    v += 1
            if n > KEMPNER_CAP:
                return None
            result = max(result, n)
        p += 1 if p == 2 else 2
    return result


def encode(q: Fraction | int) -> LocatedWord:
    """The unique word with evaluate(encode(q)) == q; zero digits are
    dropped from the domain, so q = 0 has no word.

    The digits are those of m = q * (top+1)!, where top + 1 is
    max(S(den), 2): q_{-s} carries the sign (-1)^s, so m plus the sum of
    s * (top+1)!/(s+1)! over odd s has plain digits q_{-s} at even s and
    s - q_{-s} at odd s.  The plain digits of m below s = 1 are those of
    the fraction part r/den of q, one per step of a schoolbook loop on
    integers below (top+1) * den: r times s+1, divided by den, gives the
    digit at s and the next r.  The sum is added to them in one carry
    pass from s = top down to 1, which writes the entries as it goes, and
    the integer part is the floor of q plus the last carry."""
    q = Fraction(q)
    if q == 0:
        raise RationalCodecError("0 is outside the codec range")
    den = q.denominator
    s_den = _kempner(den)
    if s_den is None:
        raise _too_large(den)
    top = max(s_den, 2) - 1
    whole, r = divmod(q.numerator, den)
    out = [0] * (top + 1)
    for s in range(1, top + 1):
        out[s], r = divmod(r * (s + 1), den)
    # s is added at each odd s, and a digit plus s plus a carry is at most
    # 2s + 1, so the carry is 0 or 1; the entry at -s is the new digit
    # less s at odd s and minus the new digit at even s
    entries, carry = [], 0
    for s in range(top, 0, -1):
        d, carry = out[s] + carry, 0
        if s % 2:
            if d:
                d, carry = d - s - 1, 1
        elif d > s:
            d, carry = 0, 1
        else:
            d = -d
        if d:
            entries.append((-s, d))
    whole += carry
    # the bit length refuses a far larger integer part before its digits
    if (whole.bit_length() > _POSITION_BITS
            or len(digits := integer_alt_factorial(whole)) > POSITION_CAP):
        raise RationalCodecError("%s needs a position above %d, the highest a codec word "
                                 "reaches" % (_quote(q), POSITION_CAP))
    for r, d in enumerate(digits, 1):
        if d:
            entries.append((r, d))
    return LocatedWord(tuple(entries), ABS)


def rational_precedes(q1: Fraction | int, q2: Fraction | int) -> bool:
    """The order induced by the surrounding order on encodings; defined
    only for rationals whose words have both negative and positive
    digits."""
    w1, w2 = encode(q1), encode(q2)
    for q, w in ((q1, w1), (q2, w2)):
        if not (w.dom_neg and w.dom_pos):
            raise RationalCodecError("%s is outside the two-sided range" % _quote(q))
    return rel_r1(w1, w2)


def q_xi_member(qs: Sequence[Fraction | int], xi: Ordinal) -> bool:
    """Schreier test on the least positive digit positions of the
    encodings of an increasing rational tuple."""
    words = [encode(q) for q in qs]
    for w, q in zip(words, qs):
        if not w.dom_pos:
            raise RationalCodecError("%s has no positive digits" % _quote(q))
    for a, b in zip(words, words[1:]):
        if not (a.dom_neg and a.dom_pos and b.dom_neg and b.dom_pos):
            raise RationalCodecError("tuple members must be two-sided")
        if not rel_r1(a, b):
            raise RationalCodecError("tuple is not increasing")
    return is_member(tuple(w.min_dom_pos for w in words), xi)


def rational_pattern(ws: Sequence[LocatedWord], n: int, i: int, j: int) -> Fraction:
    """The n-th pattern value: the middle word of the n-th triple takes
    the substitution (j, i), the closing word (1, 1), the leading word
    keeps its variables as zero digits.  Affine in (i, j)."""
    if n < 1 or len(ws) < 3 * n:
        raise RationalCodecError("need at least %d words" % (3 * n))
    if (i, j) != (0, 0) and not (1 <= i <= n and 1 <= j <= n):
        raise RationalCodecError("indices must be (0,0) or within 1..%d" % n)
    for a, b in zip(ws, ws[1:]):
        if not rel_r1(a, b):
            raise RationalCodecError("word list is not increasing")
    lead, mid, last = ws[3 * n - 3], ws[3 * n - 2], ws[3 * n - 1]
    if (i, j) != (0, 0):
        clamp = first_clamp(mid, j, i)
        if clamp:
            raise RationalCodecError("index %d clamps at position %d" % clamp)
    return evaluate(concat(concat(lead, substitute(mid, j, i)), substitute(last, 1, 1)))


# Decimal runs of at most this many digits go through int and str, below
# every int-to-str limit Python allows (640 digits at least).
_DECIMAL_LEAF = 512

_PLAIN_RATIONAL = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\Z")
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def _int_from_decimal(digits: str) -> int:
    """The int of a decimal digit string of any length, split at a power
    of ten.  (int(Decimal(digits)) is exact too, but on Python 3.11 its
    conversion to int is quadratic: 0.47 s at 130,000 digits, against
    18 ms here.)"""
    if len(digits) <= _DECIMAL_LEAF:
        return int(digits)
    k = len(digits) // 2
    return _int_from_decimal(digits[:-k]) * 10 ** k + _int_from_decimal(digits[-k:])


def _exact_decimal(n: int, bits: int, powers: dict) -> Decimal:
    """n < 2**bits as a Decimal, split at 2**(bits // 2); powers keeps the
    Decimal powers of two of one call."""
    if bits <= 3 * _DECIMAL_LEAF:
        return Decimal(n)
    k = bits // 2
    high = n >> k
    if k not in powers:
        powers[k] = Decimal(2) ** k
    return (_exact_decimal(high, bits - k, powers) * powers[k]
            + _exact_decimal(n - (high << k), k, powers))


def _decimal(n: int) -> str:
    """The decimal text of n >= 0 of any length.  A long n is rebuilt as a
    Decimal from its halves, whose multiplications are quasi-linear, and
    written by str, which has no digit limit."""
    if n.bit_length() <= 3 * _DECIMAL_LEAF:
        return str(n)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        return str(_exact_decimal(n, n.bit_length(), {}))


def _read_rational(text: str) -> Fraction:
    """Fraction(text); an integer or a/b that Fraction refuses for its
    digit count is read by `_int_from_decimal`.  An exponent e is refused
    before Fraction builds 10^|e| when |e| exceeds _POSITION_DIGITS plus
    the length of the text.  The digits before it are fewer than that
    length, so a nonzero value has an integer part past
    10^_POSITION_DIGITS >= 2^_POSITION_BITS, or a denominator of 2s and 5s
    past 10^_POSITION_DIGITS, which cannot divide KEMPNER_CAP! (its 2s and
    5s, 2^9995 * 5^2499, are below 10^4756).  encode refuses both, as it
    refuses 0.  Any other form with a run of digits (underscores between
    them not counted) past Python's int-str limit is refused before
    Fraction reads it, with the same reason on every Python."""
    plain = _PLAIN_RATIONAL.fullmatch(text)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is none
    if plain is None and limit:
        digits = max((len(run) - run.count("_") for run in _DIGIT_RUN.findall(text)), default=0)
        if digits > limit:
            raise ValueError("Exceeds the limit (%d digits) for integer string conversion: "
                             "value has %d digits" % (limit, digits))
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > _POSITION_DIGITS + len(text):
        raise ValueError("exponent %s exceeds %d in size, outside the codec range"
                         % (exponent[1], _POSITION_DIGITS + len(text)))
    try:
        return Fraction(text)
    except ValueError:
        if plain is None:
            raise
        sign, num, den = plain.groups()
        num = _int_from_decimal(num)
        return Fraction(-num if sign == "-" else num, _int_from_decimal(den or "1"))


def parse_rational(text: str) -> Fraction:
    try:
        return _read_rational(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc)
        # a short input's reason quotes it whole, so only a long one's is cut
        if len(text) > ECHO_LIMIT:
            reason = _echo(reason, str)
        raise RationalCodecError("bad rational %s: %s" % (_echo(text), reason)) from None


def format_rational(q: Fraction | int) -> str:
    """The text of q, as str(q) writes it, at any length."""
    text = ("-" if q.numerator < 0 else "") + _decimal(abs(q.numerator))
    return text if q.denominator == 1 else text + "/" + _decimal(q.denominator)


def _quote(q: Fraction | int) -> str:
    """q for an error, its text as ordinals._echo bounds it, unquoted."""
    return _echo(format_rational(Fraction(q)), str)
