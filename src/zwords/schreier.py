"""The Schreier system A_xi over finite subsets of the positive integers.

Membership follows the case recursion on Cantor normal forms, written
once as a left-to-right parse.  A successor xi takes as many elements as
its finite tail; a limit xi reads its constituent blocks in order, each
block a smaller family parsed the same way.  The families are thin, so at
most one prefix of a set is a member and the parse never backtracks.  It
has exactly two outcomes: it completes at the end of the unique member
prefix, or the set runs out first (OPEN), which makes the set a proper
initial segment of a member.  Membership, initial segments and canonical
decomposition all read off this one parse.

The parse reads xi as its tuple of CNF terms and builds no Ordinal for a
block beyond the block's exponent.  Once the finite tail is taken, xi is
a limit, and a member of a limit family with minimum n has at least n
elements; a set with fewer left is OPEN at once, however deep xi is.
Otherwise the parse recurses once per nested block, so its depth follows
the ordinal descent below xi at the set's elements; deep towers such as
w^(w^w) can exceed Python's recursion limit and raise RecursionError.
Enumeration walks the same cases on an explicit stack, so it has no such
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from typing import Iterable, Iterator

from .ordinals import (
    Ordinal,
    fundamental_sequence,
    predecessor_sequence,
    successor_pred,
)

FiniteSet = tuple[int, ...]
Terms = tuple[tuple[Ordinal, int], ...]

DEFAULT_CAP = 20
OPEN = -1  # _prefix_end: the set ran out before the parse completed


class SchreierError(ValueError):
    pass


def as_finite_set(elements: Iterable[int]) -> FiniteSet:
    s = tuple(elements)
    if any(not isinstance(x, int) or x < 1 for x in s):
        raise SchreierError("elements must be positive integers: %r" % (s,))
    if any(a >= b for a, b in zip(s, s[1:])):
        raise SchreierError("elements must be strictly increasing: %r" % (s,))
    return s


def _blocks(terms: Terms, n: int) -> Iterator[Terms]:
    """The block families of the limit with CNF terms `terms` at minimum
    n, as term tuples in parse order: n copies of w^e for w^(e+1), the
    terms smallest exponent first for a sum.  A limit exponent e is first
    resolved to e_n, which fundamental_sequence always makes a successor.
    The blocks come lazily, so a large n or coefficient costs no memory
    of its own."""
    if len(terms) == 1 and terms[0][1] == 1:
        exp = terms[0][0]
        if exp.terms[-1][0].terms:  # a limit exponent
            exp = fundamental_sequence(exp, n)
        return repeat(((successor_pred(exp), 1),), n)
    return chain.from_iterable(repeat(((exp, 1),), coeff) for exp, coeff in reversed(terms))


def _prefix_end(s: FiniteSet, i: int, terms: Terms) -> int:
    """End j of the unique prefix s[i:j] in A_xi, xi given by its CNF
    terms, or OPEN if s runs out before the parse completes."""
    if not terms:
        return i
    exp, coeff = terms[-1]
    if not exp.terms:
        # a successor takes its finite tail first
        i += coeff
        if i > len(s):
            return OPEN
        terms = terms[:-1]
        if not terms:
            return i
    # a limit member with minimum n has at least n elements
    if i == len(s) or len(s) - i < s[i]:
        return OPEN
    for block in _blocks(terms, s[i]):
        i = _prefix_end(s, i, block)
        if i == OPEN:
            return OPEN
    return i


def _member(s: FiniteSet, xi: Ordinal) -> bool:
    return _prefix_end(s, 0, xi.terms) == len(s)


def is_member(s: Iterable[int], xi: Ordinal) -> bool:
    """Decide s in A_xi."""
    return _member(as_finite_set(s), xi)


def is_proper_initial(s: Iterable[int], xi: Ordinal) -> bool:
    """Decide s in A_xi* \\ A_xi (a proper initial segment of a member)."""
    return _prefix_end(as_finite_set(s), 0, xi.terms) == OPEN


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Maximal run of consecutive A_xi blocks plus an optional remainder
    in A_xi* \\ A_xi."""

    blocks: tuple[FiniteSet, ...]
    remainder: FiniteSet | None

    def rejoin(self) -> FiniteSet:
        flat: tuple[int, ...] = ()
        for b in self.blocks:
            flat += b
        if self.remainder:
            flat += self.remainder
        return flat

    def __str__(self) -> str:
        text = "".join("[%s]" % ",".join(map(str, b)) for b in self.blocks)
        if self.remainder:
            text += "|" + ",".join(map(str, self.remainder))
        return text


def canonical_decompose(s: Iterable[int], xi: Ordinal) -> CanonicalDecomposition:
    """The unique decomposition of s into A_xi blocks plus remainder."""
    seq = as_finite_set(s)
    if not seq:
        raise SchreierError("cannot decompose the empty set")
    if xi.is_zero:
        raise SchreierError("decomposition needs xi >= 1")
    blocks = []
    i = 0
    while i < len(seq):
        j = _prefix_end(seq, i, xi.terms)
        if j == OPEN:
            break
        blocks.append(seq[i:j])
        i = j
    return CanonicalDecomposition(tuple(blocks), seq[i:] or None)


def enumerate_members(xi: Ordinal, n_max: int, cap: int | None = None) -> list[FiniteSet]:
    """All members of A_xi contained in {1..n_max}, lexicographic.

    A depth-first walk over the parse's cases on an explicit stack.  A
    state is (set so far, families still to parse with the next one first,
    element already chosen as the next family's minimum or 0).  Choices
    are pushed largest first, so members come out in lexicographic order.
    A state is dropped when its families need more elements than remain."""
    cap = DEFAULT_CAP if cap is None else cap
    if n_max > cap:
        raise SchreierError("ground set {1..%d} exceeds cap %d" % (n_max, cap))
    if xi.is_zero:
        return [()]
    out: list[FiniteSet] = []
    stack: list[tuple[FiniteSet, tuple[Terms, ...], int]] = [((), (xi.terms,), 0)]
    while stack:
        s, families, m = stack.pop()
        if not families:
            out.append(s)
            continue
        lo = m or (s[-1] + 1 if s else 1)
        room = n_max - lo + 1
        # a finite family needs its coefficient, any other at least one
        need = sum(f[0][1] if not f[0][0].terms else 1 for f in families)
        terms = families[0]
        exp, coeff = terms[-1]
        if m and exp.terms:
            need += m - 1  # a limit with minimum m has at least m elements
        if need > room:
            continue
        # the elements after the next one must hold the other needs
        choices = (m,) if m else range(n_max - need + 1, lo - 1, -1)
        if not exp.terms:
            # a successor takes one element and leaves its tail
            tail = terms[:-1] + ((exp, coeff - 1),) if coeff > 1 else terms[:-1]
            rest = (tail,) + families[1:] if tail else families[1:]
            stack.extend((s + (x,), rest, 0) for x in choices)
        elif m:
            # a limit with minimum m is replaced by its blocks at m
            stack.append((s, tuple(islice(_blocks(terms, m), room + 1)) + families[1:], m))
        else:
            stack.extend((s, families, x) for x in choices)
    return out


def restriction_check(xi: Ordinal, n: int, n_max: int, cap: int | None = None) -> bool:
    """Exhaustively verify A_xi(n) = A_{xi_n} on subsets of {n+1..n_max}."""
    cap = DEFAULT_CAP if cap is None else cap
    if not 1 <= n < n_max:
        raise SchreierError("need 1 <= n < N")
    if n_max > cap:
        raise SchreierError("ground set {1..%d} exceeds cap %d" % (n_max, cap))
    xi_n = predecessor_sequence(xi, n)
    universe = range(n + 1, n_max + 1)
    for size in range(0, n_max - n + 1):
        for s in combinations(universe, size):
            if _member((n,) + s, xi) != _member(s, xi_n):
                return False
    return True


def parse_set(text: str) -> FiniteSet:
    text = text.strip()
    if not text:
        return ()
    try:
        return as_finite_set(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SchreierError("bad set %r: %s" % (text, exc)) from None


def format_set(s: FiniteSet) -> str:
    return ",".join(map(str, s))
