"""Families of orderly word tuples: Schreier-indexed slices, tree and
hereditary closures, and strong Cantor-Bendixson indices at finite scale.

A family is a frozenset of tuples.  "Contains an infinite orderly
sequence" is approximated by a chain-length threshold tau; all derivative
results are relative to a finite pool of variable words (typically the
extracted-variable set of a base tuple).

Each operation indexes the pool once: by span width, with each word's R1
successors, the words of each profile on each domain, and each word's
index by its profile and entries.  R1 reads only the first word's span
and the second word's domain, so it is tested once per (span, domain)
class pair, and the words of one span share one successor list.
Heredity is tested on that index without building star products: a
pool word is an extracted variable word of a member when it passes the
domain test of the words module docstring.  The extraction tuples are
the R1-chains over those pool words.  Each call keys the family's
members once, by their tuples of pool indices, and the kernels work on
those keys alone.

A word's images depend only on the word and its tuple index (a slot),
and a subtuple's matching pool words only on its slots, so members that
share them share the work.  Each pool is compiled once: its words are
validated, each in one pass over its entries, and indexed, and the
compiled pool keeps every slot's images and every subtuple's matches,
keyed by pool indices and filled as calls reach them.  Only `table:`
slots are checked up front, since only a table's missing bound or
descent can fail a slot; when a check fails, the slots left are checked
again least first by grid index and word_sort_key, so that errors do not
follow the hash seed.  Every other slot's images are built when a walk
first reads them, each side's variants built once and joined, so a call
builds the images of the slots it reads and no others: 5 of the five-word
closure's 62,975.  Every distinct subtuple is matched against the pool
once: when its slots allow fewer combinations of entry tuples than the
union domain has pool words, each combination is joined by the words
module's one join of star products and looked up by entries, and
otherwise the domain's words are scanned.  A member's extraction set,
the union of its 2^len(bw) - 1 subtuples' matches, is built for each
walk and not kept, so nothing is kept per member walked.  Only the last
pool compiled is kept: the calls on one pool (a closure, then its
largest hereditary part and index) run back to back and share it and
its memos, so memory is bounded by one pool plus the slots and subtuples
that the calls on it reached, and the keys of the last closure built on
it.

Extraction is transitive: if c is an R1-chain over a member K's
extractions, c's own extractions lie among K's, so every chain over them
is a chain over K's.  No proof is written down; tests/test_families.py
checks it as a property against star products.  So the heredity test
walks the keys longest first.  A walk that meets only keys marks every
chain it visited as hereditary; a marked key is not walked, and its
extraction set is never built.  A walk that meets a non-key marks
nothing.  The five-word closure (76,802 members) is one walk, its base's.
A closure is hereditary by the same transitivity, so the compiled pool
keeps the keys of the last closure built on it, and the heredity test of
a family that holds all of them starts with them marked: the index of a
closure walks nothing, and the largest hereditary part of a closure with
other members added walks only those.

A derivative step's verdict on a key depends only on the set of pool
words open at it, so each call works out the verdict once per distinct
open set; the 2,540 members of the four-word closure have 5 of them.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from functools import lru_cache
from itertools import combinations
from math import prod

from .ordinals import Ordinal, _echo
from .schreier import is_member
from .words import (
    ABS,
    EMPTY_TUPLE,
    DominationProfile,
    LocatedWord,
    OrderlyTuple,
    WordError,
    _core_class,
    _joins,
    _reads_slots,
    _slot_entries,
    format_word,
    make_tuple,
    parse_word,
    rel_r1,
    serialize_tuple,
    word_sort_key,
)

Key = tuple[int, ...]  # a member as its words' pool indices


class FamilyError(ValueError):
    pass


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
            if not isinstance(bw, OrderlyTuple):
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
        return _is_hereditary(*_pool_keys(self, pool))


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
        raise FamilyError("anchor projection %s is not strictly increasing"
                          % _echo(repr(anchors), str))
    return is_member(anchors, xi)


def tree_closure(family: WordFamily) -> WordFamily:
    """Close under initial segments (the empty tuple included).  A
    prefix of an orderly tuple is orderly, so it is built directly."""
    return WordFamily({EMPTY_TUPLE} | {OrderlyTuple(bw.words[:cut]) for bw in family.members
                                       for cut in range(1, len(bw) + 1)})


class _Pool:
    """A compiled pool: its words in order of span width, each word's
    index keyed by its (profile, entries), each word's R1 successors as a
    list of indices, the indices of the words of each profile on each
    domain, keyed (profile, domain), and the extraction work of the calls
    made on it so far, keyed by pool indices.  A slot is a (pool index,
    1-based grid index) pair; `allowed` holds the entry tuples of each slot
    checked or read, the word's own and its grid images', which depend on
    the word and the index alone.  A subtuple, a tuple of slots, keeps in
    `matches` the pool indices found for it by the domain test of the
    words module docstring; nothing is kept per member key.  `closed`
    holds the keys of the last family that hereditary_closure built on
    the pool."""

    __slots__ = ("words", "index", "succ", "by_dom", "allowed", "matches", "closed")
    words: list[LocatedWord]
    index: dict[tuple[DominationProfile, tuple], int]
    succ: list[list[int]]
    by_dom: dict[tuple[DominationProfile, tuple[int, ...]], list[int]]
    allowed: dict[tuple[int, int], set[tuple]]
    matches: dict[tuple[tuple[int, int], ...], list[int]]
    closed: set[Key]

    def __init__(self, words, index, succ, by_dom, allowed, matches, closed) -> None:
        self.words, self.index, self.succ, self.by_dom = words, index, succ, by_dom
        self.allowed, self.matches, self.closed = allowed, matches, closed


@lru_cache(maxsize=1)
def _compile(pool: frozenset[LocatedWord]) -> _Pool:
    """The pool validated and indexed.  R1 reads only the first word's
    span and the second word's domain, so it is tested once per (span,
    domain) pair, and the words of one span share one successor list.
    R1 strictly widens the span, so every successor comes later in the
    width order.  Only the last pool is kept, with the memos that the next
    calls on it read; no caller returns to an older one.  lru_cache keeps
    no call that raised, so an invalid pool is never kept."""
    bad = [w for w in pool if not _is_core_variable(w)]
    if bad:
        raise FamilyError("pool word %s is not a two-sided variable word"
                          % _echo(format_word(min(bad, key=word_sort_key)), str))
    words = sorted(pool, key=lambda w: (w.dom[-1] - w.dom[0], word_sort_key(w)))
    by_dom: dict[tuple[DominationProfile, tuple[int, ...]], list[int]] = {}
    one_per_span: dict[tuple[int, int], LocatedWord] = {}
    for i, w in enumerate(words):
        by_dom.setdefault((w.profile, w.dom), []).append(i)
        one_per_span.setdefault((w.dom[0], w.dom[-1]), w)
    nexts = {span: sorted(j for on in by_dom.values() if rel_r1(w, words[on[0]]) for j in on)
             for span, w in one_per_span.items()}
    succ = [nexts[w.dom[0], w.dom[-1]] for w in words]
    return _Pool(words, {(w.profile, w.entries): i for i, w in enumerate(words)}, succ,
                 by_dom, {}, {}, set())


def _is_core_variable(w: LocatedWord) -> bool:
    """Whether w is a core variable word, the variable on both sides."""
    return _core_class(w) == "variable"


def _pool_keys(family: WordFamily,
               pool: Iterable[LocatedWord]) -> tuple[dict[Key, OrderlyTuple], _Pool]:
    """Each member keyed by its words' pool indices, and the compiled
    pool with the keys' slots checked; the least missing word is refused first."""
    table = _compile(frozenset(pool))
    index = table.index
    keys = {tuple([index.get((w.profile, w.entries)) for w in bw.words]): bw
            for bw in family.members}
    if any(None in key for key in keys):
        missing = [w for bw in family.members for w in bw if (w.profile, w.entries) not in index]
        raise FamilyError("pool is missing the word %s"
                          % _echo(format_word(min(missing, key=word_sort_key)), str))
    _check_slots(keys, table)
    return keys, table


def _check_slots(keys: Iterable[Key], table: _Pool) -> None:
    """Check the `table:` slots of the keys that the pool has not checked
    yet and keep their allowed entry tuples, a slot once its check passes.
    A slot of any other profile cannot fail, since words._slot_entries
    raises only on a table's missing bound or descent, so _slot_allowed
    fills it when a walk first reads it.  The slots are checked least
    first by grid index, then word_sort_key (then profile, for equal
    entries), so the error raised is the least failing slot's and does
    not follow the hash seed or the calls made before."""
    words, allowed = table.words, table.allowed
    new = {(t, i) for key in keys for i, t in enumerate(key, 1)
           if words[t].profile.kind == "table"} - allowed.keys()
    for t, i in sorted(new, key=lambda s: (s[1], word_sort_key(words[s[0]]),
                                           repr(words[s[0]].profile))):
        allowed[t, i] = _slot_entries(words[t], i)


def _slot_allowed(slot: tuple[int, int], table: _Pool) -> set[tuple]:
    """The entry tuples a slot allows, built and kept on first read."""
    ok = table.allowed.get(slot)
    if ok is None:
        ok = table.allowed[slot] = _slot_entries(table.words[slot[0]], slot[1])
    return ok


def _matches(chosen: tuple[tuple[int, int], ...], table: _Pool) -> list[int]:
    """The pool words on the union of the chosen slots' domains, of their
    profile, that read an allowed entry tuple on each slot's domain.  When
    the slots allow no more combinations than the union domain has words,
    each combination is joined by words._joins, the join of every star
    product of member images, and looked up by entries; otherwise the
    domain's words are scanned by words._reads_slots.  The slots' domains
    are disjoint, so a joined tuple is a word's whole entry tuple.  Both
    the domain index and the word index are keyed by profile, so the words
    found are of the slots' profile."""
    words = table.words
    doms = [words[t].dom for t, _ in chosen]
    profile = words[chosen[0][0]].profile
    on_dom = table.by_dom.get((profile, tuple(sorted(sum(doms, ())))))
    if on_dom is None:
        return []
    oks = [_slot_allowed(slot, table) for slot in chosen]
    if prod(map(len, oks)) <= len(on_dom):
        index = table.index
        found = (index.get((profile, entries)) for entries in _joins(doms, oks))
        return [u for u in found if u is not None]
    slots = list(zip(doms, oks))
    return [u for u in on_dom if _reads_slots(words[u], slots)]


def _extractions(key: Key, table: _Pool) -> frozenset[int]:
    """The pool indices of the extracted variable words of the member
    keyed by key, by the domain test of the words module docstring: the
    union of its subtuples' matches, each matched once per compiled pool.
    The union is built for each call and not kept."""
    slots = [(t, i) for i, t in enumerate(key, 1)]
    matches = table.matches
    hits = []
    for size in range(1, len(key) + 1):
        for chosen in combinations(slots, size):
            got = matches.get(chosen)
            if got is None:
                got = matches[chosen] = _matches(chosen, table)
            hits.append(got)
    return frozenset().union(*hits)


def _extraction_chains(key: Key, table: _Pool) -> Iterator[Key]:
    """The R1-chains over the pool extractions of the keyed member as
    index tuples, the empty chain first and every chain after its prefixes."""
    allowed = _extractions(key, table)
    yield ()
    stack = [(i,) for i in allowed]
    while stack:
        chain = stack.pop()
        yield chain
        stack.extend(chain + (j,) for j in table.succ[chain[-1]] if j in allowed)


def _hereditary_part(keys: Collection[Key], table: _Pool) -> set[Key]:
    """The keys whose extraction chains are all keys (none when the empty
    tuple is not one).  By extraction transitivity (module docstring), a
    walk that meets only keys marks the key and every chain it visited,
    and a marked key is not walked; keys go longest first, so the walks
    cover the most.  A walk that meets a non-key marks nothing.  The last
    closure built on the pool is hereditary by the same transitivity, so
    when all its keys are keys, they start marked."""
    closed = table.closed
    marked = set(closed) if all(map(keys.__contains__, closed)) else set()
    for key in sorted((key for key in keys if key not in marked), key=len, reverse=True):
        if key in marked:
            continue
        walked = [key]
        for chain in _extraction_chains(key, table):
            if chain not in keys:
                break
            walked.append(chain)
        else:
            marked.update(walked)
    return marked


def _is_hereditary(keys: dict[Key, OrderlyTuple], table: _Pool) -> bool:
    # _pool_keys has checked every table: slot, and no other slot can
    # fail, so no walk raises
    return () in keys and _hereditary_part(keys, table) == keys.keys()


def hereditary_closure(family: WordFamily, pool: Iterable[LocatedWord]) -> WordFamily:
    """Close under pool-relative extraction tuples of members.  Each
    chain steps along R1 successors through one member's extractions,
    which are core words of that member's profile, so its tuple is built
    directly.  The closure's keys replace the last closure's on the
    compiled pool, for the heredity walks of later calls, as a new set
    that is never changed: a walk that holds the last one reads one
    closure throughout."""
    keys, table = _pool_keys(family, pool)
    closed = {()}.union(*(_extraction_chains(key, table) for key in keys))
    table.closed = closed
    return WordFamily(OrderlyTuple(tuple(table.words[i] for i in chain)) for chain in closed)


def largest_hereditary(family: WordFamily, pool: Iterable[LocatedWord]) -> WordFamily:
    """The largest hereditary subfamily of family plus the empty tuple.
    A hereditary family is its own, so it is returned as it is."""
    keys, table = _pool_keys(family, pool)
    part = _hereditary_part(keys, table)
    if () in part and len(part) == len(keys):
        return family
    return WordFamily({EMPTY_TUPLE} | {keys[key] for key in part})


def family_at(family: WordFamily, t: LocatedWord) -> WordFamily:
    """F(t): tails of members starting with t; the empty tuple stands in
    for the member (t) itself.  A suffix of an orderly tuple is orderly,
    so it is built directly."""
    return WordFamily(OrderlyTuple(bw.words[1:]) for bw in family.members
                      if len(bw) >= 1 and bw[0] == t)


def family_minus(family: WordFamily, t: LocatedWord) -> WordFamily:
    """F - t: members beginning strictly beyond t, the empty tuple kept."""
    return WordFamily(bw for bw in family.members if len(bw) == 0 or rel_r1(t, bw[0]))


def _derive(keys: Collection[Key], table: _Pool, tau: int) -> set[Key]:
    """The keys whose blocked pool words hold no R1-chain of length tau.
    A pool word t is open at a key when the key followed by t is a key,
    and blocked otherwise; one reverse pass over the width order gives
    each blocked word the longest blocked chain it starts.  The verdict
    depends on the open set alone, so each distinct open set is passed
    over once per call."""
    words, succ = table.words, table.succ
    kept = set()
    verdicts: dict[frozenset[int], bool] = {}
    checked = set()
    for key in keys:
        if key:
            last = key[-1]
            nexts = succ[last]
            if last not in checked:
                # words of two profiles make no orderly tuple
                profile = words[last].profile
                if any(words[t].profile != profile for t in nexts):
                    raise WordError("profile mismatch inside tuple")
                checked.add(last)
        else:
            nexts = range(len(words))
        open_ = frozenset(t for t in nexts if key + (t,) in keys)
        verdict = verdicts.get(open_)
        if verdict is None:
            verdict = verdicts[open_] = _no_blocked_chain(open_, succ, tau)
        if verdict:
            kept.add(key)
    return kept


def _no_blocked_chain(open_: frozenset[int], succ: list[list[int]], tau: int) -> bool:
    """No R1-chain of length tau among the pool words outside open_."""
    depth = [0] * len(succ)
    for i in reversed(range(len(succ))):
        if i not in open_:
            depth[i] = 1 + max((depth[j] for j in succ[i]), default=0)
            if depth[i] >= tau:
                return False
    return True


def cb_derivative(family: WordFamily, pool: Iterable[LocatedWord], tau: int) -> WordFamily:
    """Drop every tuple whose non-extending pool words contain a
    rel_r1-chain of length >= tau."""
    if tau < 1:
        raise FamilyError("tau must be >= 1")
    keys, table = _pool_keys(family, pool)
    if not _is_hereditary(keys, table):
        raise FamilyError("derivative needs a hereditary family")
    return WordFamily(keys[key] for key in _derive(keys, table, tau))


def cb_index(family: WordFamily, pool: Iterable[LocatedWord], tau: int) -> int:
    """Number of derivative iterations until the family is empty."""
    if tau < 1:
        raise FamilyError("tau must be >= 1")
    keys, table = _pool_keys(family, pool)
    if not keys:
        return 0
    if not _is_hereditary(keys, table):
        raise FamilyError("index needs a hereditary family")
    members = set(keys)
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
    # The closure and each of its derivatives are invariant under the
    # permutations of {1..n_max}, so each keeps or drops whole size
    # layers; by induction the j-th is the sets of at most m - j elements.
    # Such a family of the sets of at most k elements keeps every smaller
    # set, which has no failing extension, and drops every k-set, which
    # has n_max - k >= n_max - m >= tau of them.  So m + 1 steps empty it,
    # each dropping one layer, and no step reaches a fixed point.  This is
    # the finite form of [N]^{<=m} having index m + 1.
    return m + 1


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
