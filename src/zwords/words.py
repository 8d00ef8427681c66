"""Located words over a doubly infinite alphabet with domination bounds.

A located word maps finitely many nonzero integer positions to letters.
Letters are plain integers: 0 is the variable, a positive index n > 0 may
carry letters 1..k_n, a negative index letters -k_n..-1, where k is the
domination profile.  The module provides the concatenation, merge and
substitution operators, the two orderings, extracted-word sets and the
projection and pairing embeddings between the two-sided and one-sided
layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

VARIABLE = 0


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class DominationProfile:
    """The two-sided bound sequence k: position -> max letter index.

    Kinds: "abs" (k_n = |n| + param), "const" (k_n = param) and "table"
    (explicit finite bounds).
    """

    kind: str
    param: int = 0
    table: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("abs", "const", "table"):
            raise WordError("unknown profile kind %r" % self.kind)
        if self.kind == "const" and self.param < 1:
            raise WordError("constant bound must be >= 1")
        if self.kind == "abs" and self.param < 0:
            raise WordError("abs offset must be >= 0")
        for pos, k in self.table:
            if pos == 0 or k < 1:
                raise WordError("table bounds need nonzero positions and k >= 1")

    def bound(self, n: int) -> int:
        if n == 0:
            raise WordError("position 0 has no bound")
        if self.kind == "abs":
            return abs(n) + self.param
        if self.kind == "const":
            return self.param
        for pos, k in self.table:
            if pos == n:
                return k
        raise WordError("profile table has no bound at %d" % n)

    @property
    def sided_monotone(self) -> bool:
        """Whether k is nondecreasing separately on each side."""
        if self.kind in ("abs", "const"):
            return True
        for side in (1, -1):
            ks = [k for pos, k in sorted(self.table) if pos * side > 0]
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
        return DominationProfile("abs", int(text[4:]))
    if text.startswith("const:"):
        return DominationProfile("const", int(text[6:]))
    if text.startswith("table:"):
        pairs = []
        for item in text[6:].split(","):
            pos, _, k = item.partition("=")
            pairs.append((int(pos), int(k)))
        return DominationProfile("table", 0, tuple(sorted(pairs)))
    raise WordError("unknown profile %r" % text)


def format_profile(p: DominationProfile) -> str:
    if p.kind == "abs":
        return "abs" if p.param == 0 else "abs+%d" % p.param
    if p.kind == "const":
        return "const:%d" % p.param
    return "table:" + ",".join("%d=%d" % pair for pair in p.table)


@dataclass(frozen=True)
class LocatedWord:
    """A finite map from nonzero positions to letters under a profile."""

    entries: tuple[tuple[int, int], ...]
    profile: DominationProfile = ABS

    @cached_property
    def dom(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.entries)

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
        if self.is_variable_word:
            return (any(l == VARIABLE for p, l in self.entries if p < 0)
                    and any(l == VARIABLE for p, l in self.entries if p > 0))
        return bool(self.dom_neg) and bool(self.dom_pos)

    def letter(self, pos: int) -> int:
        for p, l in self.entries:
            if p == pos:
                return l
        raise WordError("position %d not in domain" % pos)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return "LocatedWord(%r)" % format_word(self)


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
        raise WordError("profile mismatch: %s vs %s"
                        % (format_profile(w.profile), format_profile(u.profile)))


def concat(w: LocatedWord, u: LocatedWord) -> LocatedWord:
    """The star product on disjoint domains."""
    _require_same_profile(w, u)
    if set(w.dom) & set(u.dom):
        raise WordError("overlapping domains %r and %r" % (w.dom, u.dom))
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
    if p == 0:
        return w
    if p < 0:
        raise WordError("substitution index must be >= 0")
    out = []
    for pos, letter in w.entries:
        if letter == VARIABLE:
            letter = min(p, w.profile.bound(pos))
        out.append((pos, letter))
    return LocatedWord(tuple(out), w.profile)


def project_positive(w: LocatedWord) -> LocatedWord:
    """The suffix of w from its least positive position onward."""
    if not w.dom_pos:
        raise WordError("empty positive domain")
    return LocatedWord(tuple((p, l) for p, l in w.entries if p > 0), w.profile)


@dataclass(frozen=True)
class OrderlyTuple:
    """A finite tuple of words increasing under the mode's order; in
    two-sided mode every member must lie in the core class."""

    words: tuple[LocatedWord, ...]
    mode: str = "zstar"

    def __post_init__(self) -> None:
        if self.mode not in ("zstar", "nat"):
            raise WordError("unknown tuple mode %r" % self.mode)
        rel = rel_r1 if self.mode == "zstar" else rel_r2
        for a, b in zip(self.words, self.words[1:]):
            if a.profile != b.profile:
                raise WordError("profile mismatch inside tuple")
            if not rel(a, b):
                raise WordError("tuple not increasing: %s then %s" % (a, b))
        if self.mode == "zstar":
            for w in self.words:
                if not w.is_core:
                    raise WordError("%s is outside the core class" % w)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[LocatedWord]:
        return iter(self.words)

    def __getitem__(self, i: int) -> LocatedWord:
        return self.words[i]

    def __str__(self) -> str:
        return ";".join(format_word(w) for w in self.words)


def make_tuple(ws: Iterable[LocatedWord], mode: str = "zstar") -> OrderlyTuple:
    return OrderlyTuple(tuple(ws), mode)


EMPTY_TUPLE = OrderlyTuple(())


class ExtractedSets(NamedTuple):
    constants: frozenset[LocatedWord]
    variables: frozenset[LocatedWord]


def _grid(profile: DominationProfile, index: int) -> list[tuple[int, int]]:
    kp, kq = profile.bound(index), profile.bound(-index)
    return [(p, q) for p in range(1, kp + 1) for q in range(1, kq + 1)]


def _extraction_grids(bw: OrderlyTuple, indices: Sequence[int] | None) -> list[list[tuple[int, int]]]:
    """Check that bw can be extracted from and give each member its
    substitution grid.  Every error that building the images could raise
    is raised here, so images can be built later or not at all."""
    if bw.mode != "zstar":
        raise WordError("extraction needs a two-sided tuple")
    if len(bw) == 0:
        return []
    if any(not w.is_variable_word for w in bw):
        raise WordError("extraction needs variable words")
    profile = bw[0].profile
    if not profile.sided_monotone:
        raise WordError("profile must be sidedly monotone")
    if indices is None:
        indices = range(1, len(bw) + 1)
    indices = tuple(indices)
    if len(indices) != len(bw):
        raise WordError("need one grid index per member")
    grids = []
    for w, index in zip(bw, indices):
        grids.append(_grid(profile, index))
        # a table is the one kind whose k can be undefined, and
        # substitution reads k at every variable position
        if profile.kind == "table":
            for pos, letter in w.entries:
                if letter == VARIABLE:
                    profile.bound(pos)
    return grids


def _images(w: LocatedWord, grid: Sequence[tuple[int, int]]) -> list[LocatedWord]:
    """The distinct substitution images of w over a grid, in grid order."""
    return list(dict.fromkeys(substitute(w, p, q) for p, q in grid))


def _constant_images(bw: OrderlyTuple, indices: Sequence[int] | None) -> list[list[LocatedWord]]:
    """Check that bw can be extracted from and list, per member, its
    distinct substitution images over the grid at its index."""
    return [_images(w, grid) for w, grid in zip(bw, _extraction_grids(bw, indices))]


def _star_products(options: Sequence[Sequence[LocatedWord]]) -> set[LocatedWord]:
    """All star products taking one word of options[i] for each i of a
    nonempty subtuple; each product extends a shorter one by one word."""
    out = set()

    def grow(start: int, prefix: LocatedWord | None) -> None:
        for i in range(start, len(options)):
            for w in options[i]:
                word = w if prefix is None else concat(prefix, w)
                out.add(word)
                grow(i + 1, word)

    grow(0, None)
    return out


def extracted_sets(bw: OrderlyTuple, indices: Sequence[int] | None = None) -> ExtractedSets:
    """All star products of substituted members over nonempty
    subtuples.  Constants use the full substitution grids; variables
    additionally allow (0,0), at least once.

    The grid at member i is bounded by k at ``indices[i]`` (1-based tuple
    positions by default; pass explicit indices for sequence prefixes).
    """
    images = _constant_images(bw, indices)
    products = _star_products([[w] + ws for w, ws in zip(bw, images)])
    variables = frozenset(w for w in products if w.is_variable_word)
    return ExtractedSets(frozenset(products - variables), variables)


def is_extraction(u: OrderlyTuple, w: OrderlyTuple) -> bool:
    """True iff every member of u is an extracted variable word of w."""
    if len(u) == 0:
        return True
    ev = extracted_sets(w).variables
    return all(word in ev for word in u)


def pair_enumeration(profile: DominationProfile, count: int) -> list[tuple[int, int]]:
    """A linear enumeration of NxN of order type omega under which the
    bound pairs (k_n, k_-n) occur at strictly increasing positions.

    Pairs are ranked by max(i(q), p) and then lexicographically by
    (i(q), p, q), where i(q) is the least n with q <= k_-n.
    """
    if not profile.sided_monotone:
        raise WordError("profile must be sidedly monotone")
    out: list[tuple[int, int]] = []
    thresholds = [0]  # thresholds[j] = k_{-j}
    m = 0
    while len(out) < count:
        m += 1
        while len(thresholds) <= m:
            j = len(thresholds)
            k = profile.bound(-j)
            if k <= thresholds[-1]:
                raise WordError("negative-side bounds must increase strictly")
            thresholds.append(k)
        block = []
        for j in range(1, m + 1):
            qs = range(thresholds[j - 1] + 1, thresholds[j] + 1)
            ps = range(1, m + 1) if j == m else (m,)
            block.extend((j, p, q) for p in ps for q in qs)
        block.sort()
        out.extend((p, q) for _, p, q in block)
    return out[:count]


def bound_pair_index(profile: DominationProfile, n: int, cap: int = 100000) -> int:
    """The position of the bound pair (k_n, k_-n) in the enumeration."""
    target = (profile.bound(n), profile.bound(-n))
    count = 64
    while count <= cap:
        pairs = pair_enumeration(profile, count)
        if target in pairs:
            return pairs.index(target) + 1
        count *= 4
    raise WordError("bound pair for %d not within the first %d pairs" % (n, cap))


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
    max_letter = max((l for _, l in t.entries), default=0)
    pairs = pair_enumeration(profile, max_letter) if max_letter else []
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


def format_word(w: LocatedWord) -> str:
    return ",".join("%d:%s" % (pos, "v" if letter == VARIABLE else str(letter))
                    for pos, letter in w.entries)


def parse_word(text: str, profile: DominationProfile = ABS) -> LocatedWord:
    entries = []
    for item in text.strip().split(","):
        pos_text, sep, letter_text = item.partition(":")
        if not sep:
            raise WordError("bad entry %r in %r" % (item, text))
        try:
            pos = int(pos_text)
            letter = VARIABLE if letter_text == "v" else int(letter_text)
        except ValueError:
            raise WordError("bad entry %r in %r" % (item, text)) from None
        entries.append((pos, letter))
    if any(a[0] >= b[0] for a, b in zip(entries, entries[1:])):
        raise WordError("positions must be ascending in %r" % text)
    return make_word(entries, profile)


def word_sort_key(w: LocatedWord) -> tuple:
    return (len(w.entries), w.entries)
