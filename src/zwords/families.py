"""Families of orderly word tuples: Schreier-indexed slices, tree and
hereditary closures, and strong Cantor-Bendixson indices at finite scale.

A family is a frozenset of tuples.  "Contains an infinite orderly
sequence" is approximated by a chain-length threshold tau; all derivative
results are relative to a finite pool of variable words (typically the
extracted-variable set of a base tuple).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .ordinals import Ordinal
from .schreier import is_member
from .words import (
    ABS,
    EMPTY_TUPLE,
    LocatedWord,
    OrderlyTuple,
    WordError,
    extracted_sets,
    format_word,
    make_tuple,
    parse_word,
    rel_r1,
    word_sort_key,
)


class FamilyError(ValueError):
    pass


def serialize_tuple(bw: OrderlyTuple) -> str:
    return ";".join(format_word(w) for w in bw)


def parse_tuple(text: str, profile=None) -> OrderlyTuple:
    profile = ABS if profile is None else profile
    text = text.strip()
    if not text:
        return EMPTY_TUPLE
    return make_tuple(parse_word(part, profile) for part in text.split(";"))


def tuple_sort_key(bw: OrderlyTuple) -> tuple:
    return (len(bw), tuple(word_sort_key(w) for w in bw))


class WordFamily:
    """An immutable family of orderly tuples of variable words."""

    def __init__(self, members: Iterable[OrderlyTuple]):
        self._members = frozenset(members)
        for bw in self._members:
            if not isinstance(bw, OrderlyTuple) or bw.mode != "zstar":
                raise FamilyError("family members must be two-sided orderly tuples")

    @property
    def members(self) -> frozenset[OrderlyTuple]:
        return self._members

    def __contains__(self, bw: OrderlyTuple) -> bool:
        return bw in self._members

    def __iter__(self) -> Iterator[OrderlyTuple]:
        return iter(self.sorted_members())

    def __len__(self) -> int:
        return len(self._members)

    def __eq__(self, other) -> bool:
        return isinstance(other, WordFamily) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def sorted_members(self) -> list[OrderlyTuple]:
        return sorted(self._members, key=tuple_sort_key)

    @property
    def is_thin(self) -> bool:
        """No member is a proper initial segment of another."""
        prefixes = {bw.words[:cut] for bw in self._members for cut in range(len(bw))}
        return not any(bw.words in prefixes for bw in self._members)

    @property
    def is_tree(self) -> bool:
        return self._members == tree_closure(self)._members

    def is_hereditary(self, pool: Iterable[LocatedWord]) -> bool:
        return self._members == hereditary_closure(self, pool)._members


def family_of(tuples: Iterable[OrderlyTuple]) -> WordFamily:
    return WordFamily(tuples)


def l_xi_member(bw: OrderlyTuple, xi: Ordinal, side: str = "positive") -> bool:
    """Schreier test on the per-word anchor positions: least positive
    position, or the negative-side variant via |max dom^-|."""
    if len(bw) == 0:
        raise FamilyError("the empty tuple has no anchor set")
    if side == "positive":
        anchors = tuple(w.min_dom_pos for w in bw)
    elif side == "negative":
        anchors = tuple(-w.max_dom_neg for w in bw)
    else:
        raise FamilyError("side must be positive or negative")
    if any(a >= b for a, b in zip(anchors, anchors[1:])):
        raise FamilyError("anchor projection %r is not strictly increasing" % (anchors,))
    return is_member(anchors, xi)


def tree_closure(family: WordFamily) -> WordFamily:
    """Close under initial segments (the empty tuple included)."""
    return WordFamily({EMPTY_TUPLE} | {make_tuple(bw.words[:cut]) for bw in family.members
                                       for cut in range(1, len(bw) + 1)})


def _extraction_tuples(bw: OrderlyTuple, pool: frozenset[LocatedWord]) -> set[OrderlyTuple]:
    """All orderly tuples over the pool-restricted extracted-variable
    words of bw, the empty tuple included."""
    if len(bw) == 0:
        return {EMPTY_TUPLE}
    words, _, succ = _r1_table(extracted_sets(bw).variables & pool)
    out = {EMPTY_TUPLE}
    stack = [(i,) for i in range(len(words))]
    while stack:
        key = stack.pop()
        out.add(OrderlyTuple(tuple(words[i] for i in key)))
        stack.extend(key + (j,) for j in succ[key[-1]])
    return out


def _as_pool(pool: Iterable[LocatedWord]) -> frozenset[LocatedWord]:
    pool = frozenset(pool)
    bad = [w for w in pool if not (w.is_variable_word and w.is_core)]
    if bad:
        raise FamilyError("pool word %s is not a two-sided variable word"
                          % format_word(min(bad, key=word_sort_key)))
    return pool


def _check_pool(family: WordFamily, pool: frozenset[LocatedWord]) -> None:
    missing = [w for bw in family.members for w in bw if w not in pool]
    if missing:
        raise FamilyError("pool is missing the word %s"
                          % format_word(min(missing, key=word_sort_key)))


def hereditary_closure(family: WordFamily, pool: Iterable[LocatedWord]) -> WordFamily:
    """Close under pool-relative extraction tuples of members."""
    pool = _as_pool(pool)
    _check_pool(family, pool)
    return WordFamily({EMPTY_TUPLE}.union(*(_extraction_tuples(bw, pool)
                                            for bw in family.members)))


def largest_hereditary(family: WordFamily, pool: Iterable[LocatedWord]) -> WordFamily:
    """The largest hereditary subfamily of family plus the empty tuple."""
    pool = _as_pool(pool)
    _check_pool(family, pool)
    return WordFamily({EMPTY_TUPLE} | {bw for bw in family.members
                                       if _extraction_tuples(bw, pool) <= family.members})


def family_at(family: WordFamily, t: LocatedWord) -> WordFamily:
    """F(t): tails of members starting with t; the empty tuple stands in
    for the member (t) itself."""
    return WordFamily(make_tuple(bw.words[1:]) for bw in family.members
                      if len(bw) >= 1 and bw[0] == t)


def family_minus(family: WordFamily, t: LocatedWord) -> WordFamily:
    """F - t: members beginning strictly beyond t, the empty tuple kept."""
    return WordFamily(bw for bw in family.members if len(bw) == 0 or rel_r1(t, bw[0]))


def _r1_table(pool: frozenset[LocatedWord]) -> tuple[list, dict, list]:
    """The pool in order of span width, its index, and each word's R1
    successors as a list of indices.  R1 strictly widens the span, so
    every successor comes later in that order."""
    words = sorted(pool, key=lambda w: (w.dom[-1] - w.dom[0], word_sort_key(w)))
    succ = [[j for j in range(i + 1, len(words)) if rel_r1(w, words[j])]
            for i, w in enumerate(words)]
    return words, {w: i for i, w in enumerate(words)}, succ


def _derive(members: frozenset[OrderlyTuple], table: tuple[list, dict, list],
            tau: int) -> frozenset[OrderlyTuple]:
    """The members whose blocked pool words hold no R1-chain of length
    tau.  A pool word t is open at bw when bw followed by t is a member,
    and blocked otherwise; one reverse pass over the width order gives
    each blocked word the longest blocked chain it starts."""
    words, index, succ = table
    keys = {bw: tuple(index[w] for w in bw) for bw in members}
    present = set(keys.values())
    kept = []
    for bw, key in keys.items():
        nexts = succ[key[-1]] if key else range(len(words))
        # words of two profiles make no orderly tuple
        if key and any(words[t].profile != bw[-1].profile for t in nexts):
            raise WordError("profile mismatch inside tuple")
        open_ = {t for t in nexts if key + (t,) in present}
        depth = [0] * len(words)
        for i in reversed(range(len(words))):
            if i not in open_:
                depth[i] = 1 + max((depth[j] for j in succ[i]), default=0)
                if depth[i] >= tau:
                    break
        else:
            kept.append(bw)
    return frozenset(kept)


def cb_derivative(family: WordFamily, pool: Iterable[LocatedWord], tau: int) -> WordFamily:
    """Drop every tuple whose non-extending pool words contain a
    rel_r1-chain of length >= tau."""
    if tau < 1:
        raise FamilyError("tau must be >= 1")
    pool = _as_pool(pool)
    _check_pool(family, pool)
    if not family.is_hereditary(pool):
        raise FamilyError("derivative needs a hereditary family")
    return WordFamily(_derive(family.members, _r1_table(pool), tau))


def cb_index(family: WordFamily, pool: Iterable[LocatedWord], tau: int) -> int:
    """Number of derivative iterations until the family is empty."""
    pool = _as_pool(pool)
    _check_pool(family, pool)
    members = family.members
    if not members:
        return 0
    if not family.is_hereditary(pool):
        raise FamilyError("index needs a hereditary family")
    if tau < 1:
        raise FamilyError("tau must be >= 1")
    table = _r1_table(pool)
    steps = 0
    while members:
        derived = _derive(members, table, tau)
        if derived == members:
            raise FamilyError("derivative reached a fixed point; the pool has "
                              "no chain of length %d" % tau)
        members = derived
        steps += 1
    return steps


def set_family_cb_index(m: int, n_max: int, tau: int) -> int:
    """Cantor-Bendixson index of the downward closure of the m-element
    subsets of {1..n_max}; 'large' means >= tau failing extensions."""
    if m < 0 or tau < 1:
        raise FamilyError("need m >= 0 and tau >= 1")
    if n_max < m + tau:
        raise FamilyError("ground set {1..%d} is too small to certify m=%d, tau=%d"
                          % (n_max, m, tau))
    ground = range(1, n_max + 1)
    fam = {frozenset(c) for size in range(m + 1) for c in combinations(ground, size)}
    steps = 0
    while fam:
        kept = {s for s in fam
                if sum(1 for x in ground if x not in s and (s | {x}) not in fam) < tau}
        if kept == fam:
            raise FamilyError("derivative reached a fixed point; tau too large")
        fam = kept
        steps += 1
    return steps


# --- family file format --------------------------------------------------
#
# One serialized tuple per line; '#' starts a comment; an empty line is
# the empty tuple.


def parse_family(text: str, profile=None) -> WordFamily:
    lines = (line.strip() for line in text.splitlines())
    return WordFamily(parse_tuple(line, profile) for line in lines if not line.startswith("#"))


def format_family(family: WordFamily) -> str:
    return "\n".join(serialize_tuple(bw) for bw in family.sorted_members())


def parse_pool(text: str, profile=None) -> frozenset[LocatedWord]:
    profile = ABS if profile is None else profile
    lines = (line.strip() for line in text.splitlines())
    return frozenset(parse_word(line, profile) for line in lines
                     if line and not line.startswith("#"))
