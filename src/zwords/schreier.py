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
limit e read as e_m first.  Every copy takes at least one element, so
the parse keeps one slack, the elements left less the copies on the
stack, and a stack whose slack falls below 0 is OPEN at once, however
deep xi is.  Membership and enumeration both walk this stack, so neither
has a recursion limit.

A finite exponent on the stack is a plain int, and a copy of w^k at
minimum m expands to (k - 1, m) by arithmetic: such a run is only made
by an expansion at some m > 1, so no copy of it starts at 1.  Only xi's
own exponents and infinite ones go through _expand.  The run it gives
depends only on (exponent, minimum), and the same few pairs recur across
calls, so those expansions are memoised in a fixed 256-entry cache keyed
by that pair; a lowered exponent that is finite comes back as an int.

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
    ECHO_LIMIT,
    Frozen,
    Ordinal,
    _echo,
    _lower,
    predecessor_sequence,
)

FiniteSet = tuple[int, ...]
Run = tuple[Ordinal | int, int]  # (exponent e, copies): copies of w^e, a finite e an int
Terms = tuple[Run, ...]

DEFAULT_CAP = 20
OPEN = -1  # _prefix_end: the set ran out before the parse completed


class SchreierError(ValueError):
    pass


def as_finite_set(elements: Iterable[int]) -> FiniteSet:
    s = tuple(elements)
    ints = all(map(isinstance, s, repeat(int)))
    if ints and all(map(operator.lt, (0,) + s, s)):
        return s
    if not ints or min(s) < 1:
        raise SchreierError("elements must be positive integers: %s" % _echo(repr(s), str))
    raise SchreierError("elements must be strictly increasing: %s" % _echo(repr(s), str))


@lru_cache(maxsize=256)
def _expand(exp: Ordinal, m: int) -> Run:
    """The run that w^exp at minimum m parses as: m copies of w^(exp - 1),
    lowered by the descent step of the predecessor sequence, so a limit
    exp is read as exp_m first, and a finite result is an int.  At
    minimum 1 that is one element, a copy of w^0, however deep exp is."""
    if m == 1:
        return (0, 1)
    low = _lower(exp, m)
    return (low.as_int() if low.is_finite else low, m)


def _prefix_end(s: FiniteSet, i: int, terms: Terms) -> int:
    """End j of the unique prefix s[i:j] in A_xi, xi given by its CNF
    terms, or OPEN if s runs out before the parse completes."""
    runs = list(terms)
    # every copy takes an element: slack is the elements left less the
    # copies on the stack, and below 0 the set runs out first
    slack = len(s) - i
    for _, copies in runs:
        slack -= copies
    if slack < 0:
        return OPEN
    if runs and not runs[-1][0].terms:  # xi's finite part, read first
        i += runs.pop()[1]
    while runs:
        exp, copies = runs.pop()
        if not exp:
            i += copies
            continue
        m = s[i]
        slack -= m - 1
        if slack < 0:
            return OPEN
        if copies > 1:
            runs.append((exp, copies - 1))
        run = (exp - 1, m) if exp.__class__ is int else _expand(exp, m)
        runs.append(run)
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
    element already chosen as the next run's minimum or 0, slack: the
    elements still free to choose less the copies on the stack).  Choices
    are pushed largest first, so members come out in lexicographic order.
    A state is dropped when its slack falls below 0."""
    if terms and not terms[-1][0].terms:
        terms = terms[:-1] + ((0, terms[-1][1]),)  # xi's finite part, as an int run
    slack = n_max - lo + 1 - sum(copies for _, copies in terms)
    stack: list[tuple[FiniteSet, Terms, int, int]] = [((), terms, 0, slack)]
    while stack:
        s, runs, m, slack = stack.pop()
        if not runs:
            yield s
            continue
        exp, copies = runs[-1]
        if m and exp:
            slack -= m - 1  # the run's next copy at m expands to m copies
        if slack < 0:
            continue
        least = m or (s[-1] + 1 if s else lo)
        # the elements after the next one must hold the other copies
        choices = (m,) if m else range(least + slack, least - 1, -1)
        rest = runs[:-1] + ((exp, copies - 1),) if copies > 1 else runs[:-1]
        if not exp:
            # a copy of w^0 takes one element
            stack.extend((s + (x,), rest, 0, least + slack - x) for x in choices)
        elif m:
            run = (exp - 1, m) if exp.__class__ is int else _expand(exp, m)
            stack.append((s, rest + (run,), m, slack))
        else:
            stack.extend((s, runs, x, least + slack - x) for x in choices)


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
        reason = str(exc)
        # a short input's reason quotes it whole, so only a long one's is cut
        if len(text) > ECHO_LIMIT:
            reason = _echo(reason, str)
        raise SchreierError("bad set %s: %s" % (_echo(text), reason)) from None


def format_set(s: FiniteSet) -> str:
    return ",".join(map(str, s))
