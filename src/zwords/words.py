"""Located words over a doubly infinite alphabet with domination bounds.

A located word maps finitely many nonzero integer positions to letters.
Letters are plain integers: 0 is the variable, a positive index n > 0 may
carry letters 1..k_n, a negative index letters -k_n..-1, where k is the
domination profile.  The module provides the concatenation, merge and
substitution operators, the two orderings, extracted-word sets and the
projection and pairing embeddings between the two-sided and one-sided
layers.

A `LocatedWord` is an immutable value whose hash, `dom` and text are
computed on first use and kept.  `make_word` validates words from
outside: it sorts the entries and refuses an empty domain, position 0, a
repeated position and a letter out of range.  `parse_word` reads text
in one pass and builds a word that ascends and fits an abs or const
profile directly; other text goes through `make_word`.  Kernels whose words are
valid by construction build them directly: `concat`, `merge`,
`substitute`, `project_positive`, `rationals.encode`,
`search.length_slice` and the search's candidates.

Every value class in the package takes its equality, hash, repr and
pickling from `ordinals.Record` and `ordinals.Frozen`, whose docstrings
state the rule once.

Tuples follow the same rule.  `make_tuple` validates tuples from
outside: it refuses, pair by pair, a profile mismatch and then a pair
not in R1, and then a word outside the core class; `families.parse_tuple`
reads text through it.  `OrderlyTuple(words)` is a plain value that
trusts its words, as `LocatedWord(entries, profile)` does, so a direct
call refuses nothing; the extraction calls below refuse its members when
concat would refuse a pair of them.  The family kernels build their tuples directly
from checked ones: `families.tree_closure` (prefixes),
`families.family_at` (suffixes) and `families.hereditary_closure` (R1
chains of one member's pool extractions).

`extracted_sets` builds every star product over the nonempty subtuples
of a tuple bw, each chosen member kept or replaced by one of its grid
images, and refuses more than MAX_PRODUCTS of them.  Every star product
of member images, here, in witness verification and in the family
matches, comes from one join, `_joins`: the chosen members' entry tuples
are concatenated and put in position order by one getter, with no word
built on the way.  The join checks nothing, so each caller first refuses
what concat would refuse.

The members of a tuple have disjoint domains, so a word u is an
extracted variable word of bw exactly when its domain is the union of
the domains of a nonempty subtuple, its profile is bw's, and on each
chosen member's domain u reads that member or one of its grid images;
the images are constants, so some member is read as itself.
`is_extraction` and the family kernels apply this domain test word by
word, with no product built and no cap, and `extracted_sets` is its
oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from itertools import combinations, islice, product
from math import prod
from operator import itemgetter, lt

from .ordinals import _echo
from .ordinals import ECHO_LIMIT, Frozen, FrozenInstanceError  # noqa: F401  (re-exported)

VARIABLE = 0
_set = object.__setattr__  # the value classes fill their slots past Frozen's
# the most star products extracted_sets builds: each member is left out,
# kept, or replaced by one of its substitution images
MAX_PRODUCTS = 200_000
# the last rank bound_pair_index answers
MAX_PAIR_RANK = 100_000


class WordError(ValueError):
    pass


class DominationProfile(Frozen):
    """The two-sided bound sequence k: position -> max letter index.

    Kinds: "abs" (k_n = |n| + param), "const" (k_n = param) and "table"
    (explicit finite bounds).
    """

    __slots__ = ("kind", "param", "table", "_hash", "_sided", "_bounds")
    _fields = ("kind", "param", "table")

    def __init__(self, kind: str, param: int = 0,
                 table: tuple[tuple[int, int], ...] = ()) -> None:
        if kind not in ("abs", "const", "table"):
            raise WordError("unknown profile kind %r" % kind)
        if kind == "const" and param < 1:
            raise WordError("constant bound must be >= 1")
        if kind == "abs" and param < 0:
            raise WordError("abs offset must be >= 0")
        seen = set()
        for pos, k in table:
            if pos == 0 or k < 1:
                raise WordError("table bounds need nonzero positions and k >= 1")
            if pos in seen:
                raise WordError("profile table bounds position %d twice" % pos)
            seen.add(pos)
        _set(self, "kind", kind)
        _set(self, "param", param)
        _set(self, "table", table)
        # profiles key the search's pool cache, so the hash is taken once;
        # the value is the hash of the field tuple.  Monotonicity is read per
        # slot and a table's bounds per position, so both are worked out
        # once too
        _set(self, "_hash", hash((kind, param, table)))
        _set(self, "_sided", _sided_monotone(kind, table))
        _set(self, "_bounds", dict(table))

    def __eq__(self, other: object) -> bool:
        # the base's, written out: the family kernels call it in their loops
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.param, self.table) == (other.kind, other.param, other.table)

    def __hash__(self) -> int:
        return self._hash

    def bound(self, n: int) -> int:
        if n == 0:
            raise WordError("position 0 has no bound")
        if self.kind == "abs":
            return abs(n) + self.param
        if self.kind == "const":
            return self.param
        k = self._bounds.get(n)
        if k is None:
            raise WordError("profile table has no bound at %d" % n)
        return k

    @property
    def sided_monotone(self) -> bool:
        """Whether k is nondecreasing separately on each side."""
        return self._sided


def _sided_monotone(kind: str, table: tuple[tuple[int, int], ...]) -> bool:
    if kind in ("abs", "const"):
        return True
    for side in (1, -1):
        ks = [k for pos, k in sorted(table) if pos * side > 0]
        if side < 0:
            ks.reverse()
        if any(a > b for a, b in zip(ks, ks[1:])):
            return False
    return True


ABS = DominationProfile("abs")


def parse_profile(text: str) -> DominationProfile:
    text = text.strip()
    if text == "abs":
        return ABS
    if text.startswith("abs+"):
        return DominationProfile("abs", _profile_int(text[4:], text))
    if text.startswith("const:"):
        return DominationProfile("const", _profile_int(text[6:], text))
    if text.startswith("table:"):
        pairs = []
        for item in text[6:].split(","):
            pos, _, k = item.partition("=")
            pairs.append((_profile_int(pos, text), _profile_int(k, text)))
        return DominationProfile("table", 0, tuple(sorted(pairs)))
    raise WordError("unknown profile %s" % _echo(text))


def _profile_int(number: str, text: str) -> int:
    """A number of the profile text, which a refusal quotes whole."""
    try:
        return int(number)
    except ValueError:
        raise WordError("bad number in profile %s" % _echo(text)) from None


def format_profile(p: DominationProfile) -> str:
    if p.kind == "abs":
        return "abs" if p.param == 0 else "abs+%d" % p.param
    if p.kind == "const":
        return "const:%d" % p.param
    return "table:" + ",".join("%d=%d" % pair for pair in p.table)


class LocatedWord(Frozen):
    """A finite map from nonzero positions to letters under a profile.

    An immutable value: two words are equal when both are LocatedWords
    with equal entries and equal profiles.  The hash, `dom` and the text
    that format_word gives are computed on first use and kept, not at
    construction, since search builds many words it never hashes or
    formats.
    """

    __slots__ = ("entries", "profile", "_dom", "_hash", "_text")
    _fields = ("entries", "profile")

    def __init__(self, entries: tuple[tuple[int, int], ...],
                 profile: DominationProfile = ABS) -> None:
        _set(self, "entries", entries)
        _set(self, "profile", profile)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # words almost always share their profile object
        return self.entries == other.entries and (self.profile is other.profile
                                                  or self.profile == other.profile)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash((self.entries, self.profile)))
            return self._hash

    @property
    def dom(self) -> tuple[int, ...]:
        try:
            return self._dom
        except AttributeError:
            _set(self, "_dom", tuple(pos for pos, _ in self.entries))
            return self._dom

    @property
    def dom_neg(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.entries if pos < 0)

    @property
    def dom_pos(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.entries if pos > 0)

    @property
    def min_dom_pos(self) -> int:
        for pos, _ in self.entries:
            if pos > 0:
                return pos
        raise WordError("empty positive domain")

    @property
    def max_dom_neg(self) -> int:
        for pos, _ in reversed(self.entries):
            if pos < 0:
                return pos
        raise WordError("empty negative domain")

    @property
    def is_variable_word(self) -> bool:
        return any(letter == VARIABLE for _, letter in self.entries)

    @property
    def is_core(self) -> bool:
        """Membership in the two-sided core class: a variable word needs
        the variable on both sides, a constant word a nonempty domain on
        both sides."""
        return _core_class(self) is not None

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return "LocatedWord(%r)" % format_word(self)


def _core_class(w: LocatedWord) -> str | None:
    """The class of a word of the two-sided core class, "variable" or
    "constant", and None for any other word, in one pass over its
    entries, which ascend: a variable word's first variable lies below 0
    and its last above, a constant word's first position below 0 and its
    last above."""
    entries = w.entries
    variables = [pos for pos, letter in entries if letter == VARIABLE]
    if variables:
        return "variable" if variables[0] < 0 < variables[-1] else None
    return "constant" if entries and entries[0][0] < 0 < entries[-1][0] else None


def make_word(entries: Mapping[int, int] | Iterable[tuple[int, int]],
              profile: DominationProfile = ABS) -> LocatedWord:
    """Validate and build a located word."""
    items = sorted(entries.items() if isinstance(entries, Mapping) else entries)
    if not items:
        raise WordError("a word needs a nonempty domain")
    seen = set()
    for pos, letter in items:
        if pos == 0:
            raise WordError("position 0 is not allowed")
        if pos in seen:
            raise WordError("duplicate position %d" % pos)
        seen.add(pos)
        if letter == VARIABLE:
            continue
        k = profile.bound(pos)
        if pos > 0 and not 1 <= letter <= k:
            raise WordError("letter %d out of range 1..%d at %d" % (letter, k, pos))
        if pos < 0 and not -k <= letter <= -1:
            raise WordError("letter %d out of range -%d..-1 at %d" % (letter, k, pos))
    return LocatedWord(tuple(items), profile)


def _require_same_profile(w: LocatedWord, u: LocatedWord) -> None:
    if w.profile != u.profile:
        raise WordError("profile mismatch: %s vs %s" % (_echo(format_profile(w.profile), str),
                                                        _echo(format_profile(u.profile), str)))


def _overlap_error(w: LocatedWord, u: LocatedWord) -> WordError:
    return WordError("overlapping domains %s and %s" % (_echo(repr(w.dom), str),
                                                        _echo(repr(u.dom), str)))


def concat(w: LocatedWord, u: LocatedWord) -> LocatedWord:
    """The star product on disjoint domains."""
    _require_same_profile(w, u)
    if set(w.dom) & set(u.dom):
        raise _overlap_error(w, u)
    return LocatedWord(tuple(sorted(w.entries + u.entries)), w.profile)


def concat_all(ws: Sequence[LocatedWord]) -> LocatedWord:
    if not ws:
        raise WordError("empty product")
    out = ws[0]
    for w in ws[1:]:
        out = concat(out, w)
    return out


def rel_r1(w: LocatedWord, u: LocatedWord) -> bool:
    """The surrounding order: dom(u) splits into nonempty halves strictly
    below and strictly above the whole span of w."""
    lo, hi = w.dom[0], w.dom[-1]
    below = above = 0
    for p in u.dom:
        if p < lo:
            below += 1
        elif p > hi:
            above += 1
        else:
            return False
    return below > 0 and above > 0


def rel_r2(w: LocatedWord, u: LocatedWord) -> bool:
    """Left-to-right order for one-sided words."""
    if w.dom_neg or u.dom_neg:
        raise WordError("negative positions present")
    return w.dom[-1] < u.dom[0]


def merge(w: LocatedWord, u: LocatedWord) -> LocatedWord:
    """The semigroup sum: domain union; on overlaps the variable absorbs,
    otherwise the letter of larger magnitude wins on each side."""
    _require_same_profile(w, u)
    letters = dict(w.entries)
    for pos, letter in u.entries:
        if pos not in letters:
            letters[pos] = letter
            continue
        other = letters[pos]
        if letter == VARIABLE or other == VARIABLE:
            letters[pos] = VARIABLE
        elif pos > 0:
            letters[pos] = max(letter, other)
        else:
            letters[pos] = min(letter, other)
    return LocatedWord(tuple(sorted(letters.items())), w.profile)


def substitute(w: LocatedWord, p: int, q: int) -> LocatedWord:
    """T_(p,q): replace positive-side variables by min(p, k_n) and
    negative-side variables by -min(q, k_n); (0,0) is the identity."""
    if p == 0 and q == 0:
        return w
    if p < 1 or q < 1:
        raise WordError("substitution pair must be (0,0) or positive: (%d,%d)" % (p, q))
    out = []
    for pos, letter in w.entries:
        if letter == VARIABLE:
            k = w.profile.bound(pos)
            letter = min(p, k) if pos > 0 else -min(q, k)
        out.append((pos, letter))
    return LocatedWord(tuple(out), w.profile)


def first_clamp(w: LocatedWord, p: int, q: int) -> tuple[int, int] | None:
    """The first (index, position) at which substitute(w, p, q) would cut
    an index down to the bound k_n of a variable position, or None."""
    for pos, letter in w.entries:
        if letter != VARIABLE:
            continue
        index = p if pos > 0 else q
        if index > w.profile.bound(pos):
            return index, pos
    return None


def substitute_nat(w: LocatedWord, p: int) -> LocatedWord:
    """T_p, the one-sided substitution for words supported on the
    positive axis."""
    if w.dom_neg:
        raise WordError("negative positions present")
    if p < 0:
        raise WordError("substitution index must be >= 0")
    return substitute(w, p, p)


def project_positive(w: LocatedWord) -> LocatedWord:
    """The suffix of w from its least positive position onward."""
    if not w.dom_pos:
        raise WordError("empty positive domain")
    return LocatedWord(tuple((p, l) for p, l in w.entries if p > 0), w.profile)


class OrderlyTuple(Frozen):
    """A finite tuple of core-class words of one profile, each R1-below
    the next.  A plain value that trusts its words: make_tuple checks
    them."""

    __slots__ = _fields = ("words",)

    def __init__(self, words: tuple[LocatedWord, ...]) -> None:
        _set(self, "words", words)

    def __hash__(self) -> int:
        # taken afresh on each call, as a kept hash slowed the family
        # kernels, and without the base's generic field walk
        return hash((self.words,))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[LocatedWord]:
        return iter(self.words)

    def __getitem__(self, i: int) -> LocatedWord:
        return self.words[i]

    def __str__(self) -> str:
        return serialize_tuple(self)


def make_tuple(ws: Iterable[LocatedWord]) -> OrderlyTuple:
    """Validate and build an orderly tuple.  Refused, in this order: for
    each adjacent pair, a profile mismatch, then a pair not in R1; then a
    word outside the core class, word by word."""
    words = tuple(ws)
    for a, b in zip(words, words[1:]):
        if a.profile != b.profile:
            raise WordError("profile mismatch inside tuple")
        if not rel_r1(a, b):
            raise WordError("tuple not increasing: %s then %s" % (_echo(str(a), str),
                                                                  _echo(str(b), str)))
    for w in words:
        if not w.is_core:
            raise WordError("%s is outside the core class" % _echo(str(w), str))
    return OrderlyTuple(words)


EMPTY_TUPLE = OrderlyTuple(())


# the constant and the variable star products of extracted_sets
ExtractedSets = namedtuple("ExtractedSets", ["constants", "variables"])


def _grid_tops(profile: DominationProfile, index: int) -> tuple[int, int]:
    """The top indices of the grid at a 1-based tuple position: k at
    index and at -index."""
    if index < 1:
        raise WordError("grid index must be >= 1")
    return profile.bound(index), profile.bound(-index)


def _require_sided_monotone(profile: DominationProfile) -> None:
    if not profile.sided_monotone:
        raise WordError("profile must be sidedly monotone")


def _side_top(entries: Sequence[tuple[int, int]], top: int, profile: DominationProfile) -> int:
    """The last of the indices 1..top that changes one side's entries
    under substitution: a variable at n reads min(index, k_n), so every
    index past the largest such k_n gives the same side, and a side with
    no variable has one text."""
    return min(top, max((profile.bound(pos) for pos, letter in entries if letter == VARIABLE),
                        default=1))


def _image_ranges(w: LocatedWord, index: int) -> tuple[int, int]:
    """The ranges 1..a of p and 1..b of q whose pairs give the distinct
    images of the core variable word w over the grid at index.  k is read
    at index, at -index, then at the variable positions in entry order."""
    kp, kq = _grid_tops(w.profile, index)
    cut = bisect_left(w.dom, 0)
    b = _side_top(w.entries[:cut], kq, w.profile)
    return _side_top(w.entries[cut:], kp, w.profile), b


def _extraction_ranges(bw: OrderlyTuple, indices: Sequence[int] | None) -> list[tuple[int, int]]:
    """Check that bw can be extracted from and give each member its image
    ranges.  Every error that building the images or joining them into
    star products could raise is raised here, so the images can be built
    later and joined by _joins, which checks nothing, or not built at
    all."""
    if indices is None:
        indices = range(1, len(bw) + 1)
    indices = tuple(indices)
    if len(indices) != len(bw):
        raise WordError("need one grid index per member")
    if len(bw) == 0:
        return []
    if any(not w.is_variable_word for w in bw):
        raise WordError("extraction needs variable words")
    _require_sided_monotone(bw[0].profile)
    ranges = [_image_ranges(w, index) for w, index in zip(bw, indices)]
    _require_products(bw)
    return ranges


def _require_products(bw: OrderlyTuple) -> None:
    """Refuse, as concat would, the first pair of members that has no
    star product: member by member, each against the earlier ones in
    order, a profile mismatch before an overlap.  The earlier members
    passed, so they share the first one's profile and have disjoint
    domains, and one map from position to member names the least
    overlapping one.  make_tuple's tuples always pass; a direct
    OrderlyTuple is not checked when built, and extracted_sets and
    is_extraction refuse its members alike."""
    owner: dict[int, int] = {}
    for j, w in enumerate(bw):
        _require_same_profile(bw[0], w)
        hits = [owner[pos] for pos in w.dom if pos in owner]
        if hits:
            raise _overlap_error(bw[min(hits)], w)
        owner.update(dict.fromkeys(w.dom, j))


def _image_entries(w: LocatedWord, ranges: tuple[int, int]) -> list[tuple[tuple[int, int], ...]]:
    """The entry tuples of the distinct substitution images of w over its
    grid, in grid order: one per pair of its ranges, p-major.  Each side
    of an image depends on one index alone, and the negative side comes
    first in the entries, so the b variants of the negative side and the
    a of the positive side are built once each and joined."""
    a, b = ranges
    cut = bisect_left(w.dom, 0)
    negs = _side_variants(w.entries[:cut], b, -1, w.profile)
    return [neg + pos for pos in _side_variants(w.entries[cut:], a, 1, w.profile)
            for neg in negs]


def _side_variants(side: tuple[tuple[int, int], ...], top: int, sign: int,
                   profile: DominationProfile) -> list[tuple[tuple[int, int], ...]]:
    """One side's entries under each index 1..top: a variable at n reads
    sign * min(index, k_n), and every other entry stays."""
    variables = [(j, pos, profile.bound(pos)) for j, (pos, letter) in enumerate(side)
                 if letter == VARIABLE]
    out = []
    for index in range(1, top + 1):
        row = list(side)
        for j, pos, k in variables:
            row[j] = (pos, sign * min(index, k))
        out.append(tuple(row))
    return out


def _joins(doms: Sequence[tuple[int, ...]],
           options: Sequence[Iterable[tuple]]) -> Iterator[tuple]:
    """The entry tuple of each star product that reads one of options[i]
    on doms[i] for each i, in product order.  The domains are disjoint and
    each option covers its whole domain, so the pieces are concatenated
    and one getter puts them in position order; a bare itemgetter of one
    index would return the entry itself, so one position takes the whole
    piece."""
    flat = sum(doms, ())
    order = sorted(range(len(flat)), key=flat.__getitem__)
    get = itemgetter(*order) if len(order) > 1 else itemgetter(slice(None))
    return (get(sum(combo, ())) for combo in product(*options))


def extracted_sets(bw: OrderlyTuple, indices: Sequence[int] | None = None) -> ExtractedSets:
    """All star products of substituted members over nonempty
    subtuples.  Constants use the full substitution grids; variables
    additionally allow (0,0), at least once.

    The grid at member i is bounded by k at ``indices[i]`` (1-based tuple
    positions by default; pass explicit indices for sequence prefixes).
    Refuses a tuple with more than MAX_PRODUCTS products, counted before
    any is built.
    """
    ranges = _extraction_ranges(bw, indices)
    if prod(a * b + 2 for a, b in ranges) - 1 > MAX_PRODUCTS:
        raise WordError("extraction would build more than %d star products" % MAX_PRODUCTS)
    options = [[w.entries, *_image_entries(w, r)] for w, r in zip(bw, ranges)]
    products = []
    for size in range(1, len(bw) + 1):
        for chosen in combinations(range(len(bw)), size):
            profile = bw[chosen[0]].profile
            products += [LocatedWord(entries, profile) for entries in
                         _joins([bw[i].dom for i in chosen], [options[i] for i in chosen])]
    variables = frozenset(w for w in products if w.is_variable_word)
    return ExtractedSets(frozenset(products) - variables, variables)


def _slot_entries(w: LocatedWord, index: int) -> set[tuple]:
    """The entry tuples a slot allows: the word's own and its grid images'."""
    _require_sided_monotone(w.profile)
    return {w.entries, *_image_entries(w, _image_ranges(w, index))}


def _reads_slots(u: LocatedWord,
                 slots: Iterable[tuple[tuple[int, ...], Collection[tuple]]]) -> bool:
    """The domain test of the module docstring, less its profile and
    variable checks: whether u's domain is the union of whole member
    domains and u reads, on each of them, one of the entry tuples that
    member allows.  slots pairs each member's domain, the domains
    disjoint, with the member's allowed entry tuples.  An allowed tuple
    covers its member's whole domain, so a member that u reads only in
    part, or reads wrongly, covers none of u's positions."""
    letters = dict(u.entries)
    read = 0
    for dom, allowed in slots:
        if tuple(zip(dom, map(letters.get, dom))) in allowed:
            read += len(dom)
    return read == len(letters)


def is_extraction(u: OrderlyTuple, w: OrderlyTuple) -> bool:
    """True iff every member of u is an extracted variable word of w, by
    the domain test of the module docstring; no star product is built.
    Refuses what extracted_sets(w) refuses, in the same order, save the
    product cap."""
    if len(u) == 0:
        return True
    ranges = _extraction_ranges(w, None)
    slots = [(m.dom, {m.entries, *_image_entries(m, r)}) for m, r in zip(w, ranges)]
    # with no slots no word is read, so w[0] is read only when w has one
    return all(_reads_slots(v, slots) and v.profile == w[0].profile and v.is_variable_word
               for v in u)


def pair_enumeration(profile: DominationProfile, count: int) -> list[tuple[int, int]]:
    """A linear enumeration of NxN of order type omega under which the
    bound pairs (k_n, k_-n) occur at strictly increasing positions.

    Pairs are ranked by max(i(q), p) and then lexicographically by
    (i(q), p, q), where i(q) is the least n with q <= k_-n.  The first
    `count` are listed, and no threshold past the block holding the last
    of them is read.
    """
    _require_sided_monotone(profile)
    return list(islice(_pair_blocks(profile), max(count, 0)))


def _pair_blocks(profile: DominationProfile) -> Iterator[tuple[int, int]]:
    """The enumeration lazily, block by block.  With t_j = k_-j, block m
    is the pairs (m, q) with i(q) < m, q ascending, then those with
    i(q) = m, p-major; t_m is read when block m is first asked for."""
    last = 0
    for m, t in enumerate(_thresholds(profile), 1):
        yield from ((m, q) for q in range(1, last + 1))
        yield from ((p, q) for p in range(1, m + 1) for q in range(last + 1, t + 1))
        last = t


def _thresholds(profile: DominationProfile) -> Iterator[int]:
    """k_-1, k_-2, ... in turn, refused once one fails to increase."""
    j, last = 1, 0
    while True:
        k = profile.bound(-j)
        if k <= last:
            raise WordError("negative-side bounds must increase strictly")
        yield k
        j, last = j + 1, k


def _pair_rank(profile: DominationProfile, p: int, q: int) -> int | None:
    """The 1-based position of (p, q) in pair_enumeration, or None past
    MAX_PAIR_RANK.  With t_j = k_-j, block m holds the pairs with
    max(i(q), p) = m, and the blocks before it (m - 1) * t_(m-1) pairs.
    In block m, the pairs with i(q) < m have p = m and come first, one
    per q; then come those with i(q) = m, p-major."""
    t = [0]  # t[j] = k_-j
    ks = _thresholds(profile)
    while t[-1] < q or len(t) <= p:
        if (len(t) - 1) * t[-1] >= MAX_PAIR_RANK:
            return None
        t.append(next(ks))
    m = len(t) - 1
    rank = (m - 1) * t[m - 1] + q
    if bisect_left(t, q) == m:
        rank += (p - 1) * (t[m] - t[m - 1])
    return rank if rank <= MAX_PAIR_RANK else None


def bound_pair_index(profile: DominationProfile, n: int) -> int:
    """The position of the bound pair (k_n, k_-n) in the enumeration."""
    p, q = profile.bound(n), profile.bound(-n)
    _require_sided_monotone(profile)
    rank = _pair_rank(profile, p, q)
    if rank is None:
        raise WordError("bound pair for %d not within the first %d pairs"
                        % (n, MAX_PAIR_RANK))
    return rank


def h_map(t: LocatedWord, ws: Sequence[LocatedWord]) -> LocatedWord:
    """Decode a one-sided word into a star product over ws: the letter at
    position n selects the substitution pair for ws[n-1], the variable
    selects (0,0)."""
    if t.dom_neg:
        raise WordError("negative positions present")
    for a, b in zip(ws, ws[1:]):
        if not rel_r1(a, b):
            raise WordError("word list is not increasing")
    if t.dom[-1] > len(ws):
        raise WordError("position %d exceeds the %d available words"
                        % (t.dom[-1], len(ws)))
    profile = ws[0].profile
    # no letter past MAX_PAIR_RANK passes bound_pair_index
    max_letter = max((l for _, l in t.entries), default=0)
    pairs = pair_enumeration(profile, min(max_letter, MAX_PAIR_RANK)) if max_letter else []
    parts = []
    for pos, letter in t.entries:
        if letter < 0:
            raise WordError("one-sided words carry letters >= 0")
        if letter and letter > bound_pair_index(profile, pos):
            raise WordError("letter %d exceeds the alphabet bound at %d" % (letter, pos))
        pq = (0, 0) if letter == VARIABLE else pairs[letter - 1]
        parts.append(substitute(ws[pos - 1], *pq))
    return concat_all(parts)


# --- text grammar (shared with the CLI) ---------------------------------
#
# word := entry (',' entry)*
# entry := pos ':' (int | 'v')      positions ascending, letters signed


def _entries_text(entries: Iterable[tuple[int, int]]) -> str:
    """The text of a word's entries, which need not form a word yet."""
    return ",".join(["%d:%d" % (pos, letter) if letter != VARIABLE else "%d:v" % pos
                     for pos, letter in entries])


def format_word(w: LocatedWord) -> str:
    """The word's text, built on first use and kept in the word."""
    try:
        return w._text
    except AttributeError:
        _set(w, "_text", _entries_text(w.entries))
        return w._text


def parse_word(text: str, profile: DominationProfile = ABS) -> LocatedWord:
    """The word a text names under a profile.  Refused, in this order:
    the first entry that is not two integers (or an integer and v) around
    a colon, a descent, then what make_word refuses, in entry order.  Text
    that ascends, avoids 0 and fits an abs or const profile becomes the
    word directly; under a table profile make_word checks it.  A refusal
    quotes the text, and a bad entry, as _echo bounds them."""
    parts = [item.partition(":") for item in text.strip().split(",")]
    try:
        positions = [int(pos) for pos, _, _ in parts]
        letters = [VARIABLE if letter == "v" else int(letter) for _, _, letter in parts]
    except ValueError:
        bad = _first_bad_entry(parts)
        raise WordError("bad entry %s in %s" % (_echo(bad), _echo(text))) from None
    if not all(map(lt, positions, positions[1:])):
        raise WordError("positions must be ascending in %s" % _echo(text))
    if profile.kind == "table" or 0 in positions or not _in_bounds(positions, letters, profile):
        return make_word(zip(positions, letters), profile)
    return LocatedWord(tuple(zip(positions, letters)), profile)


def _first_bad_entry(parts: list[tuple[str, str, str]]) -> str:
    """The first entry, as written, whose position or letter int()
    refuses; an entry with no colon has the empty letter."""
    for pos, sep, letter in parts:
        try:
            int(pos)
            if letter != "v":
                int(letter)
        except ValueError:
            return pos + sep + letter
    raise AssertionError("every entry reads")


def _in_bounds(positions: list[int], letters: list[int], profile: DominationProfile) -> bool:
    """Whether each letter is the variable or in range at its nonzero
    position, under an abs profile (k_n = |n| + param) or a const one
    (k_n = param)."""
    a = profile.param
    pairs = zip(positions, letters)
    if profile.kind == "abs":
        return all(0 <= l <= p + a if p > 0 else p - a <= l <= 0 for p, l in pairs)
    return all(0 <= l <= a if p > 0 else -a <= l <= 0 for p, l in pairs)


def serialize_tuple(ws: Iterable[LocatedWord]) -> str:
    return ";".join(format_word(w) for w in ws)


def word_sort_key(w: LocatedWord) -> tuple:
    return (len(w.entries), w.entries)
