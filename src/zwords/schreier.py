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

The parse recurses once per nested block, so its depth follows the
ordinal descent below xi at the set's elements; deep towers such as
w^(w^w) can exceed Python's recursion limit and raise RecursionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from typing import Iterable, Iterator

from .ordinals import (
    Ordinal,
    fundamental_sequence,
    omega_power,
    predecessor_sequence,
    successor_pred,
)

FiniteSet = tuple[int, ...]

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


def _blocks(xi: Ordinal, n: int) -> Iterator[Ordinal]:
    """The block families of the limit xi at minimum n, in parse order:
    n copies of w^e for w^(e+1), the terms smallest exponent first for a
    sum.  A limit exponent e is first resolved to e_n, which
    fundamental_sequence always makes a successor.  The blocks come
    lazily, so a large n or coefficient costs no memory of its own."""
    if len(xi.terms) == 1 and xi.terms[0][1] == 1:
        exp = xi.terms[0][0]
        if exp.is_limit:
            exp = fundamental_sequence(exp, n)
        return repeat(omega_power(successor_pred(exp)), n)
    return chain.from_iterable(repeat(omega_power(exp), coeff)
                               for exp, coeff in reversed(xi.terms))


def _prefix_end(s: FiniteSet, i: int, xi: Ordinal) -> int:
    """End j of the unique prefix s[i:j] in A_xi, or OPEN if s runs out
    before the parse completes."""
    if xi.is_successor:
        i += xi.terms[-1][1]
        if i > len(s):
            return OPEN
        if len(xi.terms) == 1:
            return i
        xi = Ordinal(xi.terms[:-1])
    elif xi.is_zero:
        return i
    if i == len(s):
        return OPEN
    for block in _blocks(xi, s[i]):
        i = _prefix_end(s, i, block)
        if i == OPEN:
            return OPEN
    return i


def _member(s: FiniteSet, xi: Ordinal) -> bool:
    return _prefix_end(s, 0, xi) == len(s)


def is_member(s: Iterable[int], xi: Ordinal) -> bool:
    """Decide s in A_xi."""
    return _member(as_finite_set(s), xi)


def is_proper_initial(s: Iterable[int], xi: Ordinal) -> bool:
    """Decide s in A_xi* \\ A_xi (a proper initial segment of a member)."""
    return _prefix_end(as_finite_set(s), 0, xi) == OPEN


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
        j = _prefix_end(seq, i, xi)
        if j == OPEN:
            break
        blocks.append(seq[i:j])
        i = j
    return CanonicalDecomposition(tuple(blocks), seq[i:] or None)


def _with_min(xi: Ordinal, n: int, n_max: int) -> Iterator[FiniteSet]:
    """All members of A_xi with minimum exactly n inside {1..n_max}."""
    if xi.is_zero or n > n_max:
        return
    if xi.is_successor:
        zeta = successor_pred(xi)
        if zeta.is_zero:
            yield (n,)
            return
        for m in range(n + 1, n_max + 1):
            for t in _with_min(zeta, m, n_max):
                yield (n,) + t
        return
    # every block takes at least one element of {n..n_max}
    room = n_max - n + 1
    plan = list(islice(_blocks(xi, n), room + 1))
    if len(plan) > room:
        return
    for first in _with_min(plan[0], n, n_max):
        for rest in _chain_rest(plan[1:], first[-1] + 1, n_max):
            yield first + rest


def _chain_rest(plan: list[Ordinal], lo: int, n_max: int) -> Iterator[FiniteSet]:
    if not plan:
        yield ()
        return
    for m in range(lo, n_max + 1):
        for b in _with_min(plan[0], m, n_max):
            for rest in _chain_rest(plan[1:], b[-1] + 1, n_max):
                yield b + rest


def enumerate_members(xi: Ordinal, n_max: int, cap: int | None = None) -> list[FiniteSet]:
    """All members of A_xi contained in {1..n_max}, lexicographic."""
    cap = DEFAULT_CAP if cap is None else cap
    if n_max > cap:
        raise SchreierError("ground set {1..%d} exceeds cap %d" % (n_max, cap))
    if xi.is_zero:
        return [()]
    out: list[FiniteSet] = []
    for n in range(1, n_max + 1):
        out.extend(_with_min(xi, n, n_max))
    return sorted(out)


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
