"""Families of orderly word tuples: Schreier-indexed slices, tree and
hereditary closures, and strong Cantor-Bendixson indices at finite scale.

A family is a frozenset of tuples.  "Contains an infinite orderly
sequence" is approximated by a chain-length threshold tau; all derivative
results are relative to a finite pool of variable words (typically the
extracted-variable set of a base tuple).

Each operation indexes the pool once: by span width, with each word's R1
successors and the words on each domain.  Heredity is tested on that
index without building star products.  The members of a tuple have
disjoint domains, so a pool word u is an extracted variable word of bw
exactly when its domain is the union of the domains of a nonempty
subtuple, its profile is bw's, and on each chosen member's domain u reads
that member or one of its grid images; the images are constants, so
some member is read as itself.  The extraction tuples are the R1-chains
over those pool words, compared with the family as tuples of pool
indices.

A word's images depend only on the word and its tuple index (a slot),
and a subtuple's matching pool words only on its slots, so members that
share them share the work.  Each call keeps a memo keyed by pool indices
and drops it when it returns: every distinct slot is checked and its
images built once, least first by grid index and word_sort_key so that
errors do not follow the hash seed, and every distinct subtuple is
matched against the pool once.  A member costs 2^len(bw) - 1 memo
lookups.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .ordinals import Ordinal
from .schreier import is_member
from .words import (
    ABS,
    EMPTY_TUPLE,
    LocatedWord,
    OrderlyTuple,
    WordError,
    _extraction_grids,
    format_word,
    make_tuple,
    parse_word,
    rel_r1,
    substitute,
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
        return _is_hereditary(self._members, _pool_table(self, pool))


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


class _R1Table(NamedTuple):
    """A pool indexed once per call: its words in order of span width,
    each word's index, each word's R1 successors as a list of indices,
    and the indices of the words on each domain."""

    words: list[LocatedWord]
    index: dict[LocatedWord, int]
    succ: list[list[int]]
    by_dom: dict[tuple[int, ...], list[int]]


def _r1_table(pool: frozenset[LocatedWord]) -> _R1Table:
    """R1 strictly widens the span, so every successor comes later in the
    width order."""
    words = sorted(pool, key=lambda w: (w.dom[-1] - w.dom[0], word_sort_key(w)))
    succ = [[j for j in range(i + 1, len(words)) if rel_r1(w, words[j])]
            for i, w in enumerate(words)]
    by_dom: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(words):
        by_dom.setdefault(w.dom, []).append(i)
    return _R1Table(words, {w: i for i, w in enumerate(words)}, succ, by_dom)


def _pool_table(family: WordFamily, pool: Iterable[LocatedWord]) -> _R1Table:
    pool = _as_pool(pool)
    _check_pool(family, pool)
    return _r1_table(pool)


class _Memo(NamedTuple):
    """Extraction work shared by the members of one call, keyed by pool
    indices.  A slot is a (pool index, 1-based grid index) pair; its
    allowed entry tuples are the word's own and its grid images', which
    depend on the word and the index alone.  A subtuple, a tuple of
    slots, keeps its matches: the pool indices found for it by the domain
    test of the module docstring."""

    allowed: dict[tuple[int, int], set[tuple]]
    matches: dict[tuple[tuple[int, int], ...], list[int]]


def _extraction_memo(members: Iterable[OrderlyTuple], table: _R1Table) -> _Memo:
    """Check every slot of the members and list its allowed entry tuples.
    Slots are checked least first by grid index, then word_sort_key (then
    profile, for equal entries), so the error raised does not follow the
    hash seed."""
    words, index = table.words, table.index
    slots = {(index[w], i) for bw in members for i, w in enumerate(bw, 1)}
    allowed = {}
    for t, i in sorted(slots, key=lambda s: (s[1], word_sort_key(words[s[0]]),
                                             repr(words[s[0]].profile))):
        w = words[t]
        (grid,) = _extraction_grids(make_tuple((w,)), (i,))
        allowed[t, i] = {w.entries} | {substitute(w, p, q).entries for p, q in grid}
    return _Memo(allowed, {})


def _matches(chosen: tuple[tuple[int, int], ...], table: _R1Table,
             allowed: dict[tuple[int, int], set[tuple]]) -> list[int]:
    """The pool words on the union of the chosen slots' domains, of their
    profile, that read an allowed entry tuple on each slot's domain."""
    words = table.words
    dom = sorted(p for t, _ in chosen for p in words[t].dom)
    rank = {p: k for k, p in enumerate(dom)}
    # a core variable word has positions on both sides, so each getter
    # picks at least two entries and returns a tuple
    pieces = [(itemgetter(*map(rank.get, words[t].dom)), allowed[t, i]) for t, i in chosen]
    profile = words[chosen[0][0]].profile
    return [u for u in table.by_dom.get(tuple(dom), ())
            if words[u].profile == profile
            and all(get(words[u].entries) in ok for get, ok in pieces)]


def _extractions(bw: OrderlyTuple, table: _R1Table, memo: _Memo) -> set[int]:
    """The pool indices of the extracted variable words of bw, found by
    the domain test of the module docstring, once per subtuple of slots
    in the memo of the call."""
    slots = [(table.index[w], i) for i, w in enumerate(bw, 1)]
    found = set()
    for size in range(1, len(bw) + 1):
        for chosen in combinations(slots, size):
            hits = memo.matches.get(chosen)
            if hits is None:
                hits = memo.matches[chosen] = _matches(chosen, table, memo.allowed)
            found.update(hits)
    return found


def _extraction_chains(bw: OrderlyTuple, table: _R1Table,
                       memo: _Memo) -> Iterator[tuple[int, ...]]:
    """The R1-chains over the pool extractions of bw as index tuples, the
    empty chain first and every chain after its prefixes."""
    allowed = _extractions(bw, table, memo)
    yield ()
    stack = [(i,) for i in allowed]
    while stack:
        key = stack.pop()
        yield key
        stack.extend(key + (j,) for j in table.succ[key[-1]] if j in allowed)


def _hereditary_part(members: frozenset[OrderlyTuple], table: _R1Table) -> set[OrderlyTuple]:
    """The members whose extraction chains are all members (none when the
    empty tuple is not one)."""
    present = {tuple(table.index[w] for w in bw) for bw in members}
    memo = _extraction_memo(members, table)
    return {bw for bw in members
            if all(key in present for key in _extraction_chains(bw, table, memo))}


def _is_hereditary(members: frozenset[OrderlyTuple], table: _R1Table) -> bool:
    # every member is visited first, so extraction errors come out as
    # they do from the closure
    return _hereditary_part(members, table) == members and EMPTY_TUPLE in members


def hereditary_closure(family: WordFamily, pool: Iterable[LocatedWord]) -> WordFamily:
    """Close under pool-relative extraction tuples of members."""
    table = _pool_table(family, pool)
    memo = _extraction_memo(family.members, table)
    keys = set().union(*(_extraction_chains(bw, table, memo) for bw in family.members))
    return WordFamily(OrderlyTuple(tuple(table.words[i] for i in key))
                      for key in keys | {()})


def largest_hereditary(family: WordFamily, pool: Iterable[LocatedWord]) -> WordFamily:
    """The largest hereditary subfamily of family plus the empty tuple."""
    return WordFamily({EMPTY_TUPLE} | _hereditary_part(family.members,
                                                       _pool_table(family, pool)))


def family_at(family: WordFamily, t: LocatedWord) -> WordFamily:
    """F(t): tails of members starting with t; the empty tuple stands in
    for the member (t) itself."""
    return WordFamily(make_tuple(bw.words[1:]) for bw in family.members
                      if len(bw) >= 1 and bw[0] == t)


def family_minus(family: WordFamily, t: LocatedWord) -> WordFamily:
    """F - t: members beginning strictly beyond t, the empty tuple kept."""
    return WordFamily(bw for bw in family.members if len(bw) == 0 or rel_r1(t, bw[0]))


def _derive(members: frozenset[OrderlyTuple], table: _R1Table,
            tau: int) -> frozenset[OrderlyTuple]:
    """The members whose blocked pool words hold no R1-chain of length
    tau.  A pool word t is open at bw when bw followed by t is a member,
    and blocked otherwise; one reverse pass over the width order gives
    each blocked word the longest blocked chain it starts."""
    words, index, succ, _ = table
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
    table = _pool_table(family, pool)
    if not _is_hereditary(family.members, table):
        raise FamilyError("derivative needs a hereditary family")
    return WordFamily(_derive(family.members, table, tau))


def cb_index(family: WordFamily, pool: Iterable[LocatedWord], tau: int) -> int:
    """Number of derivative iterations until the family is empty."""
    table = _pool_table(family, pool)
    members = family.members
    if not members:
        return 0
    if not _is_hereditary(members, table):
        raise FamilyError("index needs a hereditary family")
    if tau < 1:
        raise FamilyError("tau must be >= 1")
    steps = 0
    while members:
        derived = _derive(members, table, tau)
        if derived == members:
            raise FamilyError("derivative reached a fixed point; the pool has "
                              "no chain of length %d" % tau)
        members = derived
        steps += 1
    return steps


SET_FAMILY_CAP = 200000


def set_family_cb_index(m: int, n_max: int, tau: int,
                        max_members: int = SET_FAMILY_CAP) -> int:
    """Cantor-Bendixson index of the downward closure of the m-element
    subsets of {1..n_max}; 'large' means >= tau failing extensions.  A
    closure of more than max_members sets, sum over k <= m of
    C(n_max, k), is refused before anything is built."""
    if m < 0 or tau < 1:
        raise FamilyError("need m >= 0 and tau >= 1")
    if n_max < m + tau:
        raise FamilyError("ground set {1..%d} is too small to certify m=%d, tau=%d"
                          % (n_max, m, tau))
    # the sum stops at the first partial sum over the cap, so a large m
    # costs a few steps, not m big-integer products
    size, binom = 0, 1
    for k in range(m + 1):
        size += binom
        if size > max_members:
            raise FamilyError("set family would have %s%d members, over the cap of %d"
                              % ("at least " if k < m else "", size, max_members))
        binom = binom * (n_max - k) // (k + 1)
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
