"""Exact codec between nonzero rationals and two-sided located words.

A word with profile k_n = |n| carries digits q_t = |letter at t|; its value
is

    sum over t < 0 of q_t * (-1)^(-t) / ((-t)+1)!  +
    sum over t > 0 of q_t * (-1)^(t+1) * t!

Every nonzero rational has exactly one such digit expansion with
0 <= q_{-s} <= s and 0 <= q_r <= r, which makes the evaluation map a
bijection onto the nonzero rationals.  Encoding works purely in exact
arithmetic, in one mixed-radix pass: fractional digits are extracted from
q * (top+1)! from the top position down, what the extraction leaves is the
integer part, and its digits come by alternating mixed-radix division.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm
from typing import Sequence

from .ordinals import Ordinal
from .schreier import is_member
from .words import (
    ABS,
    VARIABLE,
    LocatedWord,
    concat,
    first_clamp,
    make_word,
    rel_r1,
    substitute,
)


class RationalCodecError(ValueError):
    pass


def _too_large(den: int) -> RationalCodecError:
    """The refusal of a denominator over the cap.  A denominator past
    Python's limit on int-to-str conversion is named by its bit length."""
    try:
        text = str(den)
    except ValueError:
        text = "of %d bits" % den.bit_length()
    return RationalCodecError("denominator %s too large" % text)


def _require_abs_profile(w: LocatedWord) -> None:
    if w.profile != ABS:
        raise RationalCodecError("codec words use the profile k_n = |n|")


def evaluate(w: LocatedWord) -> Fraction:
    """The exact rational value of a word; variables contribute digit 0.

    Both parts are Horner sums over the nonzero digits, a gap bridged by
    one falling factorial: the integer part over r! from the top position
    down, the fractional part as one numerator over (top+1)! from s = 1
    up, top the largest s with a digit at -s."""
    _require_abs_profile(w)
    whole = num = 0
    r_last = s_last = 1
    for pos, letter in reversed(w.entries):
        if letter == VARIABLE:
            continue
        if pos > 0:
            if whole:
                whole *= perm(r_last, r_last - pos)
            whole += letter if pos % 2 else -letter
            r_last = pos
        else:
            s = -pos
            if num:
                num *= perm(s + 1, s - s_last)
            num += letter if s % 2 else -letter
            s_last = s
    den = factorial(s_last + 1)
    return Fraction(whole * factorial(r_last) * den + num, den)


def decode(w: LocatedWord) -> Fraction:
    """The value of a constant word, the inverse of encode; a variable
    letter is no digit."""
    for pos, letter in w.entries:
        if letter == VARIABLE:
            raise RationalCodecError("cannot decode a variable word: variable at %d" % pos)
    return evaluate(w)


def integer_alt_factorial(value: int) -> tuple[int, ...]:
    """Digits (q_1, q_2, ...) with value = sum q_r * (-1)^(r+1) * r! and
    0 <= q_r <= r; the expansion is unique and the zero value is empty."""
    digits = []
    rest = value
    r = 1
    while rest != 0:
        sign = 1 if r % 2 else -1
        d = (rest * sign) % (r + 1)
        digits.append(d)
        rest = (rest - sign * d) // (r + 1)
        r += 1
        if r > 10 ** 6:
            raise RationalCodecError("integer digit extraction diverged")
    return tuple(digits)


# The codec accepts a denominator den when S(den), the least n with
# den | n!, is at most this, that is when den divides KEMPNER_CAP!; the
# largest accepted prime is 9973.
KEMPNER_CAP = 10001


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

    One mixed-radix pass over m = q * (top+1)!, where top + 1 is
    max(S(den), 2): from s = top down to 1 the digit q_{-s} is the one
    residue of +-m mod s+1 in 0..s, and the m left after s = 1 is the
    integer part."""
    q = Fraction(q)
    if q == 0:
        raise RationalCodecError("0 is outside the codec range")
    den = q.denominator
    s_den = _kempner(den)
    if s_den is None:
        raise _too_large(den)
    top = max(s_den, 2) - 1
    m = q.numerator * (factorial(top + 1) // den)
    entries = []
    for s in range(top, 0, -1):
        sign = 1 if s % 2 == 0 else -1
        d = (m * sign) % (s + 1)
        if d:
            entries.append((-s, -d))
        m = (m - sign * d) // (s + 1)
    for r, d in enumerate(integer_alt_factorial(m), 1):
        if d:
            entries.append((r, d))
    return make_word(entries, ABS)


def rational_precedes(q1: Fraction | int, q2: Fraction | int) -> bool:
    """The order induced by the surrounding order on encodings; defined
    only for rationals whose words have both negative and positive
    digits."""
    w1, w2 = encode(q1), encode(q2)
    for q, w in ((q1, w1), (q2, w2)):
        if not (w.dom_neg and w.dom_pos):
            raise RationalCodecError("%s is outside the two-sided range" % q)
    return rel_r1(w1, w2)


def q_xi_member(qs: Sequence[Fraction | int], xi: Ordinal) -> bool:
    """Schreier test on the least positive digit positions of the
    encodings of an increasing rational tuple."""
    words = [encode(q) for q in qs]
    for w, q in zip(words, qs):
        if not w.dom_pos:
            raise RationalCodecError("%s has no positive digits" % q)
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


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise RationalCodecError("bad rational %r: %s" % (text, exc)) from None


def format_rational(q: Fraction) -> str:
    return str(q)
