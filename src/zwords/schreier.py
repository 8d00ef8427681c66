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

The families still to parse are one stack of runs (exponent e, copies),
the next one last; it starts as xi's CNF terms.  A run with e = 0 takes
its copies as elements.  A run with e > 0 at minimum m gives one copy
back and pushes the run that copy expands to, m copies of w^(e - 1), a
limit e read as e_m first.  Every copy takes at least one element, so a
stack whose copies outnumber the elements left is OPEN at once, however
deep xi is.  Membership and enumeration both walk this stack, so neither
has a recursion limit.  The run a copy expands to depends only on
(exponent, minimum), and the same few pairs recur across calls, so
expansions are memoised in a fixed 256-entry cache keyed by that pair.

The restriction check walks the same stack twice in lock step: the
members of A_xi inside {n..N} that start at n, and the members of
A_{xi_n} inside {n+1..N}.  Both come out in lexicographic order, so the
check stops at the first difference, and its cost follows the number of
members rather than the 2^(N - n) subsets of {n+1..N}.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import repeat, takewhile, zip_longest

from .ordinals import (
    ZERO,
    Frozen,
    Ordinal,
    _lower,
    predecessor_sequence,
)

FiniteSet = tuple[int, ...]
Run = tuple[Ordinal, int]  # (exponent e, copies): that many copies of w^e
Terms = tuple[Run, ...]

DEFAULT_CAP = 20
OPEN = -1  # _prefix_end: the set ran out before the parse completed


class SchreierError(ValueError):
    pass


def as_finite_set(elements: Iterable[int]) -> FiniteSet:
    s = tuple(elements)
    if not all(map(isinstance, s, repeat(int))) or min(s, default=1) < 1:
        raise SchreierError("elements must be positive integers: %r" % (s,))
    if not all(map(operator.lt, s, s[1:])):
        raise SchreierError("elements must be strictly increasing: %r" % (s,))
    return s


@lru_cache(maxsize=256)
def _expand(exp: Ordinal, m: int) -> Run:
    """The run that w^exp at minimum m parses as: m copies of w^(exp - 1),
    lowered by the descent step of the predecessor sequence, so a limit
    exp is read as exp_m first.  At minimum 1 that is one element, a copy
    of w^0, however deep exp is."""
    return (ZERO, 1) if m == 1 else (_lower(exp, m), m)


def _prefix_end(s: FiniteSet, i: int, terms: Terms) -> int:
    """End j of the unique prefix s[i:j] in A_xi, xi given by its CNF
    terms, or OPEN if s runs out before the parse completes."""
    runs = list(terms)
    # every copy takes an element: need stays at most what is left
    need = sum(copies for _, copies in runs)
    if need > len(s) - i:
        return OPEN
    while runs:
        exp, copies = runs.pop()
        if not exp.terms:
            i += copies
            need -= copies
            continue
        m = s[i]
        need += m - 1
        if need > len(s) - i:
            return OPEN
        if copies > 1:
            runs.append((exp, copies - 1))
        runs.append(_expand(exp, m))
    return i


def is_member(s: Iterable[int], xi: Ordinal) -> bool:
    """Decide s in A_xi."""
    seq = as_finite_set(s)
    return _prefix_end(seq, 0, xi.terms) == len(seq)


def is_proper_initial(s: Iterable[int], xi: Ordinal) -> bool:
    """Decide s in A_xi* \\ A_xi (a proper initial segment of a member)."""
    return _prefix_end(as_finite_set(s), 0, xi.terms) == OPEN


class CanonicalDecomposition(Frozen):
    """Maximal run of consecutive A_xi blocks plus an optional remainder
    in A_xi* \\ A_xi."""

    __slots__ = _fields = ("blocks", "remainder")

    def __init__(self, blocks: tuple[FiniteSet, ...], remainder: FiniteSet | None) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "remainder", remainder)

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


def _check_ground(n_max: int, cap: int | None) -> None:
    cap = DEFAULT_CAP if cap is None else cap
    if n_max > cap:
        raise SchreierError("ground set {1..%d} exceeds cap %d" % (n_max, cap))


def _walk(terms: Terms, lo: int, n_max: int) -> Iterator[FiniteSet]:
    """The members of A_xi, xi given by its CNF terms, contained in
    {lo..n_max}, lexicographic.

    A depth-first walk over the parse's cases on an explicit stack.  A
    state is (set so far, runs still to parse with the next one last,
    element already chosen as the next run's minimum or 0).  Choices are
    pushed largest first, so members come out in lexicographic order.  A
    state is dropped when its runs need more elements than remain."""
    stack: list[tuple[FiniteSet, Terms, int]] = [((), terms, 0)]
    while stack:
        s, runs, m = stack.pop()
        if not runs:
            yield s
            continue
        least = m or (s[-1] + 1 if s else lo)
        room = n_max - least + 1
        need = sum(copies for _, copies in runs)
        exp, copies = runs[-1]
        if m and exp.terms:
            need += m - 1  # the run's next copy at m expands to m copies
        if need > room:
            continue
        # the elements after the next one must hold the other needs
        choices = (m,) if m else range(n_max - need + 1, least - 1, -1)
        rest = runs[:-1] + ((exp, copies - 1),) if copies > 1 else runs[:-1]
        if not exp.terms:
            # a copy of w^0 takes one element
            stack.extend((s + (x,), rest, 0) for x in choices)
        elif m:
            stack.append((s, rest + (_expand(exp, m),), m))
        else:
            stack.extend((s, runs, x) for x in choices)


def enumerate_members(xi: Ordinal, n_max: int, cap: int | None = None) -> list[FiniteSet]:
    """All members of A_xi contained in {1..n_max}, lexicographic."""
    _check_ground(n_max, cap)
    return list(_walk(xi.terms, 1, n_max))


def _same_restriction(xi: Ordinal, xi_n: Ordinal, n: int, n_max: int) -> bool:
    """Whether the members of A_xi with minimum n, n taken off, are the
    members of A_{xi_n} inside {n+1..n_max}.  The two walks run in lock
    step and stop at the first difference; the members with minimum n
    come first among those inside {n..n_max}."""
    with_n = (s[1:] for s in takewhile(lambda s: s[0] == n, _walk(xi.terms, n, n_max)))
    above_n = _walk(xi_n.terms, n + 1, n_max)
    return all(a == b for a, b in zip_longest(with_n, above_n))


def restriction_check(xi: Ordinal, n: int, n_max: int, cap: int | None = None) -> bool:
    """Exhaustively verify A_xi(n) = A_{xi_n} on subsets of {n+1..n_max}."""
    if not 1 <= n < n_max:
        raise SchreierError("need 1 <= n < N")
    _check_ground(n_max, cap)
    return _same_restriction(xi, predecessor_sequence(xi, n), n, n_max)


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
