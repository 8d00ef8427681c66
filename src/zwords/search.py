"""Desk-scale witness search for the finitistic partition statements,
plus the semigroup application layer (psi, finite-sum sets, pattern
builders).

Searches are window-relative: positions live in [-P..P] without 0, and a
result only ever means "witness found / not found within this window".
Candidates are visited in a canonical order (total domain size, outermost
position, serialization), so results are reproducible.

What a search lays out before it colors anything, its candidate counts,
its side pools and its xi block plans, is kept across searches in bounded
caches, each sized to hold one search of radius 6 whole.  Above them, each
shell a search reads is a visit kept across searches, laid out once when
it is first read and never changed: its splits with their plans, and a
prefix of its candidates, each with its text, side choices, plans, side
texts and all its slice texts.  A search reads a total's shells from its
half, rounded up, as the inner ones are empty, and a shell with no planned
split keeps no split, as it holds no witness.  So a sweep of colorings
over one window lays the window out once, and a later search replays the
kept candidates with color lookups alone; one that goes past them merges
the shell's splits again, skips the prefix and streams on with its side
texts kept for the call.  The visits are bounded twice: the last VISITS
(64) are kept, and one keeps at most VISIT_TEXTS (128) texts, counting
each side text and every slice text of each kept candidate.  Colors
depend on the coloring, so they are kept for the call only.  A search
writes nothing into a visit but a kept witness's rank, the same int
whoever writes it, so searches run from several threads give the reports
they give one at a time.  Every refusal is a SearchError, a ValueError;
SearchCapExceeded is one.  A coloring line or key that a refusal quotes is
bounded by ordinals._echo.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations, compress, islice, product
from math import comb, prod
from operator import itemgetter

from .ordinals import Frozen, Ordinal, Record, _echo
from .schreier import is_member
from .words import (
    ABS,
    VARIABLE,
    DominationProfile,
    LocatedWord,
    WordError,
    _entries_text,
    _extraction_ranges,
    _grid_tops,
    _image_entries,
    _image_ranges,
    _joins,
    _require_sided_monotone,
    _side_top,
    _side_variants,
    concat_all,
    first_clamp,
    make_tuple,
    rel_r1,
    serialize_tuple,
    substitute,
    word_sort_key,
)

Entries = tuple[tuple[int, int], ...]
Split = tuple[tuple[int, ...], ...]
Plans = tuple[tuple[tuple[int, ...], ...], ...]

# the default cap on the candidates a window lists or counts
MAX_CANDIDATES = 200_000
# the most shell visits kept across searches, and the most texts one keeps
VISITS = 64
VISIT_TEXTS = 128


class SearchError(ValueError):
    pass


class SearchCapExceeded(SearchError):
    """Raised when a search space outgrows the window's cap; `candidates`
    is the count it stopped at, the cap plus one."""

    def __init__(self, message: str, candidates: int):
        super().__init__(message)
        self.candidates = candidates


class SearchWindow(Frozen):
    """Finite truncation of the position axis to [-radius..radius]."""

    __slots__ = _fields = ("radius", "profile", "max_candidates")

    def __init__(self, radius: int, profile: DominationProfile = ABS,
                 max_candidates: int = MAX_CANDIDATES) -> None:
        if radius < 1:
            raise SearchError("window radius must be >= 1")
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "max_candidates", max_candidates)

    def positions(self) -> list[int]:
        return [p for p in range(-self.radius, self.radius + 1) if p]


def _mix64(seed: int, data: bytes) -> int:
    """Deterministic 64-bit mix: FNV-1a over the bytes, seed folded in,
    then a splitmix64 finalizer."""
    h = (0xCBF29CE484222325 ^ (seed & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    h = (h + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


class Coloring(Record):
    """A total, deterministic coloring of serialized words (or tuples).

    An explicit table wins over the seeded hash whenever it has the key;
    with no table a seed is required.
    """

    _fields = ("arity", "table", "seed")

    def __init__(self, arity: int, table: dict[str, int] | None = None,
                 seed: int | None = None) -> None:
        self.arity, self.table, self.seed = arity, table, seed
        if arity < 1:
            raise SearchError("arity must be >= 1")
        if table is None and seed is None:
            raise SearchError("coloring needs a table or a seed")
        if table is not None:
            for key, color in table.items():
                if not 0 <= color < arity:
                    raise SearchError("color %d out of range for %s" % (color, _echo(key)))

    def color_key(self, key: str) -> int:
        if self.table is not None and key in self.table:
            return self.table[key]
        if self.seed is None:
            raise SearchError("coloring is not total: no entry for %s" % _echo(key))
        return _mix64(self.seed, key.encode("utf-8")) % self.arity

    def color_tuple(self, ws: Sequence[LocatedWord]) -> int:
        return self.color_key(serialize_tuple(ws))

    @classmethod
    def from_text(cls, text: str, arity: int | None = None) -> "Coloring":
        """Parse a coloring file: either a single `seed:<u64>:<r>` line or
        tab-separated `serialized-word<TAB>color` lines; a line of neither
        form is refused by its number, and quoted as _echo bounds it."""
        stripped = text.strip()
        if stripped.startswith("seed:"):
            fields = stripped.split(":")
            try:
                if len(fields) == 3:
                    return cls(arity=int(fields[2]), seed=int(fields[1]))
            except ValueError:
                pass
            number = text[:len(text) - len(text.lstrip())].count("\n") + 1
            raise SearchError("bad coloring line %d %s: expected seed:<u64>:<r>"
                              % (number, _echo(stripped)))
        table = {}
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.startswith("#"):
                continue
            key, tab, color = line.rpartition("\t")
            try:
                if tab:
                    table[key] = int(color)
                    continue
            except ValueError:
                pass
            raise SearchError("bad coloring line %d %s: expected text<TAB>colour"
                              % (number, _echo(line)))
        if arity is None:
            arity = max(table.values(), default=0) + 1
        return cls(arity=arity, table=table)


def word_length(w: LocatedWord) -> int:
    return len(w.entries)


def _letter_options(pos: int, profile: DominationProfile, with_variable: bool) -> list[int]:
    k = profile.bound(pos)
    letters = list(range(1, k + 1)) if pos > 0 else list(range(-k, 0))
    if with_variable:
        letters = [VARIABLE] + letters
    return letters


def _slice_count(n: int, bounds: Sequence[int], variable: bool) -> int:
    """The number of words length_slice lists: e_n of the bounds, or with
    the variable e_n(k + 1) - e_n(k), the words with a variable."""
    grown, plain = [1] + [0] * n, [1] + [0] * n
    for k in bounds:
        for s in range(n, 0, -1):
            grown[s] += grown[s - 1] * (k + 1)
            plain[s] += plain[s - 1] * k
    return grown[n] - plain[n] if variable else plain[n]


def length_slice(n: int, window: SearchWindow, variable: bool = False) -> list[LocatedWord]:
    """All constant (or variable, by flag) words of domain size n inside
    the window, canonically ordered.  A slice with words reads all its
    bounds first (a table names its least missing position), and one
    over the cap is refused before any word is built."""
    if n < 1:
        raise SearchError("length must be >= 1")
    positions = window.positions()
    if n > len(positions):
        return []
    if _slice_count(n, [window.profile.bound(p) for p in positions],
                    variable) > window.max_candidates:
        over = window.max_candidates + 1
        raise SearchCapExceeded("length slice exceeds cap after %d words" % over, over)
    out = []
    for dom in combinations(positions, n):
        options = [_letter_options(p, window.profile, variable) for p in dom]
        for letters in product(*options):
            if variable and all(l != VARIABLE for l in letters):
                continue
            out.append(LocatedWord(tuple(zip(dom, letters)), window.profile))
    return sorted(out, key=word_sort_key)


def _splits(dom: tuple[int, ...], m: int) -> Iterator[Split]:
    """Partitions of a sorted position set into m nested annuli, listed
    innermost first; every annulus keeps at least one negative and one
    positive position.  The annuli are cut at m - 1 points among the
    negatives and m - 1 among the positives, both taken from the inside
    out."""
    zero = bisect_left(dom, 0)
    if zero < m or len(dom) - zero < m:
        return
    for neg in combinations(range(zero - 1, 0, -1), m - 1):
        left = (zero,) + neg + (0,)
        for pos in combinations(range(zero + 1, len(dom)), m - 1):
            right = (zero,) + pos + (len(dom),)
            yield tuple([dom[left[i + 1]:left[i]] + dom[right[i]:right[i + 1]] for i in range(m)])


def _side_counts(bounds: tuple[int, ...], m: int, top: int) -> tuple[int, ...]:
    """N(a), a = 0..min(top, len(bounds)): over the a-subsets of one side
    cut into m consecutive nonempty runs, the sum of the product over the
    runs of prod(k+1) - prod(k).  A state is (runs begun, size) with two
    sums for the open run, weighted by prod(k+1) and by prod(k); closing
    the run adds their difference.  A size-s state reads only size s - 1
    states, so the table stops at `top`, the largest size asked for.  It
    is not kept itself: _window_counts keeps the window counts made from
    it, so a search reads neither again."""
    n = min(top, len(bounds))
    grown, plain = ([[0] * (n + 1) for _ in range(m + 1)] for _ in range(2))
    grown[0][0] = 1
    for k in bounds:
        for s in range(n - 1, -1, -1):
            for j in range(m, 0, -1):
                closed = grown[j - 1][s] - plain[j - 1][s]
                grown[j][s + 1] += (grown[j][s] + closed) * (k + 1)
                plain[j][s + 1] += (plain[j][s] + closed) * k
    return tuple(a - b for a, b in zip(grown[m], plain[m]))


def _candidate_counts(m: int, totals: range, window: SearchWindow) -> tuple[int, ...]:
    """The candidate count per total, as _window_counts keeps it under the
    window's fields."""
    return _window_counts(m, totals, window.radius, window.profile, window.max_candidates)


@lru_cache(maxsize=128)
def _window_counts(m: int, totals: range, radius: int, profile: DominationProfile,
                   cap: int) -> tuple[int, ...]:
    """The candidate count per total in the window of these fields: a split
    cuts each side on its own, so count(total) = sum over a of N(a)
    P(total - a).  A table window with candidates reads all its bounds
    first and names its least missing position.  Every domain of the least
    total t with t // 2 negative positions has a split, and every split a
    candidate, so that total has at least comb(radius, t // 2) *
    comb(radius, t - t // 2); a window whose bound passes the cap is
    refused before its counts are worked out, and a total over the cap
    raises before any word is built.  The counts do not depend on the
    coloring, so the last 128 are kept, and repeated searches, and a
    witness's count of its inner window, count once; a call that raises
    is not kept, so a refusal raises again every time."""
    over = cap + 1
    least = next((total for total in totals if 2 * m <= total <= 2 * radius), None)
    if least is None:
        return (0,) * len(totals)
    bounds = (profile.bound(p) for p in range(-radius, radius + 1) if p)
    if profile.kind == "table":
        bounds = tuple(bounds)
    # comb(radius, j) grows with j up to radius / 2 and passes 2^j there, so
    # j is cut at the cap's bit length
    cut = over.bit_length()
    sides = (least // 2, least - least // 2)
    if prod(comb(radius, min(a, radius - a, cut)) for a in sides) >= over:
        raise SearchCapExceeded("witness candidates exceed cap after %d tuples" % over, over)
    bounds = tuple(bounds)
    top = max(totals)
    neg, pos = (_side_counts(bounds[radius - 1::-1], m, top),
                _side_counts(bounds[radius:], m, top))
    counts = tuple([sum(neg[a] * pos[total - a]
                        for a in range(max(0, total - radius), min(total, radius) + 1))
                    for total in totals])
    if max(counts) >= over:
        raise SearchCapExceeded("witness candidates exceed cap after %d tuples" % over, over)
    return counts


def _shell_splits(m: int, total: int, shell: int) -> tuple[Split, ...]:
    """The annulus splits of the `total`-position domains in a shell, built
    once for each visit (_shell_visit), which keeps them if one has a
    plan."""
    splits: list[Split] = []
    for dom in combinations([p for p in range(-shell, shell + 1) if p], total):
        if shell in (-dom[0], dom[-1]):
            splits += _splits(dom, m)
    return tuple(splits)


@lru_cache(maxsize=128)
def _side_pool(positions: tuple[int, ...], suffix: str,
               profile: DominationProfile) -> tuple[tuple[str, Entries], ...]:
    """One side of an annulus: its letter choices that carry the variable,
    as (text + suffix, entries), sorted.  Each choice is built from its
    first variable: letters before it, the variable there, and the
    variable or a letter after it.  So no choice without the variable is
    made, and the work follows the pool's size, which the candidate count
    caps; a one-position side is its variable alone, whatever its bound.
    The last 128 are kept, which holds the 86 pools of an exhaustive hj
    search of radius 6 (m = 2, n = 6)."""
    letters = [range(1, k + 1) if p > 0 else range(-k, 0)
               for p, k in zip(positions, map(profile.bound, positions))]
    choices = []
    for j, p in enumerate(positions):
        before = [[(q, l) for l in letters[i]] for i, q in enumerate(positions[:j])]
        after = [[(q, l) for l in (VARIABLE, *letters[i])]
                 for i, q in enumerate(positions) if i > j]
        choices += product(*before, [(p, VARIABLE)], *after)
    return tuple(sorted((_entries_text(entries) + suffix, entries) for entries in choices))


def _split_pools(layers: Split,
                 profile: DominationProfile) -> list[tuple[tuple[str, Entries], ...]]:
    """A split's side pools, innermost annulus first and each annulus's
    negative side before its positive side.  A key ends in the separator
    that follows it in a candidate's serialization: ',' after a negative
    side, ';' after a positive side but the last, nothing after the last.
    So the serialization is the keys' concatenation, and the product of the
    pools runs in its order: a side's texts have equally many entries, a
    separator ends each key and no text contains ';', so no key of a pool
    but the last is a prefix of another, and the first pool whose keys
    differ decides.  (A bare key on an inner annulus
    would put 2:1 before 2:10, and a ';' on the last would put 2:10
    first.)"""
    out = []
    for i, layer in enumerate(layers):
        cut = bisect_left(layer, 0)
        out.append(_side_pool(layer[:cut], ",", profile))
        out.append(_side_pool(layer[cut:], ";" if i + 1 < len(layers) else "", profile))
    return out


def _split_stream(pools: Sequence[Sequence[tuple[str, Entries]]],
                  tag: object) -> Iterator[tuple[str, tuple, object]]:
    """One split's candidates as (serialization, side choices, tag), in
    serialization order; each is built when it is asked for."""
    for combo in product(*pools):
        yield "".join([key for key, _ in combo]), combo, tag


def _shell_candidates(splits: Iterable[tuple[Split, object]],
                      profile: DominationProfile) -> Iterator[tuple[str, tuple, object]]:
    """The candidates of some (split, tag) pairs of one shell, merged into
    serialization order."""
    return heapq.merge(*[_split_stream(_split_pools(layers, profile), tag)
                         for layers, tag in splits], key=itemgetter(0))


def _words(combo: Sequence[tuple[str, Entries]],
           profile: DominationProfile) -> tuple[LocatedWord, ...]:
    return tuple(LocatedWord(neg + pos, profile)
                 for (_, neg), (_, pos) in zip(combo[::2], combo[1::2]))


def _rank(text: str, pools: Sequence[Sequence[tuple[str, Entries]]]) -> int:
    """How many candidates of a split serialize before `text`, which is no
    candidate of it: one bisect per pool.  The keys below the rest of the
    text precede it with every choice of the later pools, except one that
    is a prefix of it, which compares on the next pool."""
    rank, rest = 0, text
    for i, pool in enumerate(pools):
        below = bisect_left(pool, rest, key=itemgetter(0))
        later = prod(map(len, pools[i + 1:]))
        if i + 1 < len(pools) and below and rest.startswith(pool[below - 1][0]):
            rank += (below - 1) * later
            rest = rest[len(pool[below - 1][0]):]
        else:
            return rank + below * later
    return rank


def _side_slots(profile: DominationProfile, indices: Iterable[int]) -> list[tuple[int, int]]:
    """Per member, its negative and its positive side, each with the top
    index its grid substitutes there: k at -index and at index, read in
    _grid_tops's order."""
    slots = []
    for index in indices:
        kp, kq = _grid_tops(profile, index)
        slots += [(-1, kq), (1, kp)]
    return slots


def _side_texts(entries: Entries, side: int, top: int, window: SearchWindow) -> list[str]:
    """The distinct texts of one side's entries under the indices 1..top,
    in index order: substitution turns the variable at position n into
    side * min(index, k_n).  A side with more texts than the window's cap
    is refused before any is built."""
    count = _side_top(entries, top, window.profile)
    if count > window.max_candidates:
        over = window.max_candidates + 1
        raise SearchCapExceeded("side substitution texts exceed cap after %d texts" % over, over)
    return [_entries_text(row) for row in _side_variants(entries, count, side, window.profile)]


def _instance_texts(sides: Sequence[Sequence[str]], run: Iterable[int]) -> Iterator[str]:
    """The distinct texts of the star products of one substitution image per
    member of the run, in grid order.  `sides` holds, member by member and
    innermost first, the distinct texts of the negative side by q and of
    the positive side by p.  A grid is p-major, so the product of the
    positive and then the negative texts runs in grid order, and distinct
    side texts make distinct images.  The members are nested annuli, so
    the outer members' negative sides come first and their positive sides
    last."""
    grid_order = []
    for i in run:
        grid_order += [sides[2 * i + 1], sides[2 * i]]
    for parts in product(*grid_order):
        yield ",".join(parts[-1::-2] + parts[::2])


def _slice_texts(sides: Sequence[Sequence[str]], plans: Plans) -> Iterator[str]:
    """The text of each slice of _plan_slices, in its order, from the
    members' distinct side texts: a run's blocks are the instance texts of
    its members.  A plan's last run is streamed, so a candidate that stops
    at its second color builds few texts.  Under the one plan of a single
    run of every member, the slices are the candidate's instances."""
    blocks: dict[tuple[int, ...], list[str]] = {}
    for plan in plans:
        for run in plan[:-1]:
            if run not in blocks:
                blocks[run] = [text + ";" for text in _instance_texts(sides, run)]
        for texts in product(*map(blocks.get, plan[:-1])):
            prefix = "".join(texts)
            for text in _instance_texts(sides, plan[-1]):
                yield prefix + text


def _one_color(coloring: Coloring, texts: Iterable[str],
               colors: dict[str, int]) -> int | None:
    """The color shared by all the texts, or None from the second color on.
    `colors` keeps the color of each text seen in the search, as candidates
    share instances.  A seeded coloring of arity 1 gives every text color
    0, its table's entries included, so only whether a text comes is read."""
    if coloring.arity == 1 and coloring.seed is not None:
        return next((0 for _ in texts), None)
    color = None
    for text in texts:
        c = colors.get(text)
        if c is None:
            c = colors[text] = coloring.color_key(text)
        if color is None:
            color = c
        elif c != color:
            return None
    return color


class SearchReport(Record):
    _fields = ("witness", "color", "grid_size", "nodes_expanded", "candidates", "elapsed_ms",
               "vacuous")

    def __init__(self, witness: tuple[LocatedWord, ...] | None, color: int | None,
                 grid_size: int, nodes_expanded: int, candidates: int,
                 elapsed_ms: float = 0.0, vacuous: bool = False) -> None:
        self.witness, self.color, self.grid_size = witness, color, grid_size
        self.nodes_expanded, self.candidates = nodes_expanded, candidates
        self.elapsed_ms, self.vacuous = elapsed_ms, vacuous

    @property
    def found(self) -> bool:
        return self.witness is not None


class _Visit:
    """All a search does in one shell but read colors, laid out once when
    the visit is made and never changed: the shell's splits with plans,
    each with its block plans, the splits without (read only to rank a
    witness, so kept only beside splits with plans), and its first
    candidates in serialization order (`kept`), each as (text, side
    choices, plans, side texts, slice texts), with their side texts
    memoised per slot by side key in `memos`.  `inner` is the count of the
    shell's total in the window one shell smaller, which a witness's place
    reads.

    The prefix is laid out until the next candidate's new side texts and
    all its slice texts would pass VISIT_TEXTS; each side or slice text
    kept counts one.  The layout counts a side's texts (_side_top) before
    it builds them and stops at a side over the window's cap, so it never
    raises, and a search that goes past the prefix is refused there.  The
    visit is `complete` when the prefix is every candidate of its splits
    with plans.  It holds no iterator: a search past the prefix merges the
    splits again.  The one write after it is made is `ranks`, a memo of a
    kept candidate's rank over the splits without plans (_rank), found
    once it is a witness; it is a pure function of the candidate, so
    searches from several threads write the same int."""

    __slots__ = ("planned", "plans", "planless", "kept", "memos", "complete", "inner", "ranks")

    def __init__(self, planned: tuple[Split, ...], plans: tuple[Plans, ...],
                 planless: tuple[Split, ...], inner: int, slots: Sequence[tuple[int, int]],
                 window: SearchWindow) -> None:
        self.planned, self.plans, self.planless, self.inner = planned, plans, planless, inner
        self.ranks: dict[str, int] = {}
        profile, cap = window.profile, window.max_candidates
        memos: list[dict[str, list[str]]] = [{} for _ in slots]
        kept, room, complete = [], VISIT_TEXTS, False
        for text, combo, own in _shell_candidates(zip(planned, plans), profile):
            new = [i for i, (memo, (key, _)) in enumerate(zip(memos, combo)) if key not in memo]
            counts = [len(memo[key]) if key in memo else _side_top(entries, top, profile)
                      for memo, (key, entries), (_, top) in zip(memos, combo, slots)]
            need = sum(counts[i] for i in new) + sum(
                prod(counts[2 * i] * counts[2 * i + 1] for run in plan for i in run)
                for plan in own)
            if max(counts) > cap or need > room:
                break
            for i in new:
                (key, entries), (side, top) = combo[i], slots[i]
                memos[i][key] = _side_texts(entries, side, top, window)
            sides = [memo[key] for memo, (key, _) in zip(memos, combo)]
            kept.append((text, combo, own, sides, tuple(_slice_texts(sides, own))))
            room -= need
        else:
            complete = True
        self.kept, self.memos, self.complete = tuple(kept), memos, complete


@lru_cache(maxsize=VISITS)
def _shell_visit(m: int, total: int, shell: int, profile: DominationProfile,
                 slots: tuple[tuple[int, int], ...], xi: Ordinal | None, n0: int,
                 cap: int) -> _Visit:
    """The visit of one shell, keyed by all that a search reads there but
    the coloring (the window's cap too, as side texts past it are
    refused); the last 64 are kept.  It builds the shell's splits once and
    keeps them.  A split's block plans: with no xi, the one plan of a
    single run of every member, shared by all the splits; under xi, the
    plans _xi_plans gives for the members' sizes and anchors (least
    positive positions), which the split fixes.  The splits without plans
    are kept only when some split has one: only a witness's rank reads
    them, and a shell with no planned split holds no witness, so it lays
    nothing out and counts no inner window.  A search reads only the
    shells that hold its totals' domains, so a plan-less xi search of
    radius 8 reads 49 shells, which all stay kept, and the same search run
    again replays them."""
    window = SearchWindow(shell, profile, cap)
    splits = _shell_splits(m, total, shell)
    if xi is None:
        planned, plans, planless = splits, (((tuple(range(m)),),),) * len(splits), ()
    else:
        shapes = [_xi_plans(tuple(map(len, layers)),
                            tuple([layer[bisect_left(layer, 0)] for layer in layers]), xi, n0)
                  for layers in splits]
        planned, plans = tuple(compress(splits, shapes)), tuple(filter(None, shapes))
        planless = planned and tuple([layers for layers, own in zip(splits, shapes) if not own])
    inner = 0 if shell == 1 or not planned else sum(_candidate_counts(
        m, range(total, total + 1), SearchWindow(shell - 1, profile, cap)))
    return _Visit(planned, plans, planless, inner, slots, window)


def _visit_candidates(visit: _Visit, slots: Sequence[tuple[int, int]],
                      window: SearchWindow) -> Iterator[tuple]:
    """A shell's candidates in serialization order, as (text, side choices,
    plans, side texts, slice texts): the visit's kept prefix, then, unless
    the visit is complete, those past it, merged again from the splits
    with plans and streamed.  A side text the visit's memos lack is built
    when first read and memoised in a dict of the call's own, so the
    visit is only read."""
    yield from visit.kept
    if visit.complete:
        return
    memos, own = visit.memos, [{} for _ in slots]
    stream = _shell_candidates(zip(visit.planned, visit.plans), window.profile)
    for text, combo, plans in islice(stream, len(visit.kept), None):
        sides = []
        for memo, mine, (key, entries), (side, top) in zip(memos, own, combo, slots):
            texts = memo.get(key) or mine.get(key)
            if texts is None:
                texts = mine[key] = _side_texts(entries, side, top, window)
            sides.append(texts)
        yield text, combo, plans, sides, _slice_texts(sides, plans)


def _first_one_color(coloring: Coloring, m: int, totals: range, counts: Sequence[int],
                     window: SearchWindow, slots: Sequence[tuple[int, int]],
                     xi: Ordinal | None, n0: int) -> tuple:
    """The first candidate over the totals, in canonical order, whose slice
    texts under its block plans (_shell_visit) share one color, as (nodes,
    witness, color, sides, plans); with none, (candidates, None, None, [],
    ()).

    Shell by shell (outermost |position|), the splits with plans are merged
    by serialization and visited, and the others are never built.  Shell s
    holds only domains of at most 2s positions, so a total's first shell
    is its half, rounded up, and no empty shell is visited.  `nodes` is the
    witness's place in the canonical order, read from the counts: the
    earlier totals', this total's in the window one shell smaller
    (_Visit.inner), the candidates visited in this shell and the witness's
    rank in each split of it without plans, which the visit keeps for a
    kept candidate (_Visit.ranks).

    All but the colors is the shell's visit (_shell_visit), laid out once
    and kept across searches: its splits and plans, and its first
    candidates with their side and slice texts, all of each.  A search
    replays the kept candidates, so under another coloring it only looks
    colors up, and past an incomplete prefix it streams on with the side
    texts it builds kept for the call.  The last VISITS visits are kept,
    and each keeps at most VISIT_TEXTS texts, so a profile with large
    bounds or an exhaustive search of a wide window keeps no more.  A
    search writes no visit but a kept witness's rank, so searches from
    several threads give the reports they give one at a time.  The colors
    depend on the coloring, so they stay in a dict local to the call, and
    table colorings and Coloring subclasses read the same texts."""
    profile, cap = window.profile, window.max_candidates
    slots = tuple(slots)
    colors: dict[str, int] = {}
    for t, total in enumerate(totals):
        if not counts[t]:
            continue  # no split to visit, however large the total
        for shell in range((total + 1) // 2, window.radius + 1):
            visit = _shell_visit(m, total, shell, profile, slots, xi, n0, cap)
            for visited, (text, combo, plans, sides, texts) in enumerate(
                    _visit_candidates(visit, slots, window), 1):
                color = _one_color(coloring, texts, colors)
                if color is not None:
                    rank = visit.ranks.get(text)
                    if rank is None:
                        rank = sum(_rank(text, _split_pools(layers, profile))
                                   for layers in visit.planless)
                        if visited <= len(visit.kept):
                            visit.ranks[text] = rank
                    nodes = sum(counts[:t]) + visit.inner + visited + rank
                    return nodes, _words(combo, profile), color, sides, plans
    return sum(counts), None, None, [], ()


def hj_witness_search(coloring: Coloring, m: int, bounds: Sequence[int], n: int,
                      window: SearchWindow) -> SearchReport:
    """Search for m variable words, increasing and of total length n,
    all of whose substitution instances over the bounds' grids share one
    color.  Exhaustive within the window.  The instances are the slices of
    one block plan, a single run of every member, so the search is the xi
    search's visit with that plan for every split."""
    if m < 1:
        raise SearchError("tuple length must be >= 1")
    if len(bounds) != m:
        raise SearchError("need one grid index per tuple slot")
    if n < 1:
        raise SearchError("total length must be >= 1")
    start = time.perf_counter()
    totals = range(n, n + 1)
    counts = _candidate_counts(m, totals, window)
    slots = _side_slots(window.profile, bounds)
    nodes, witness, color, _, _ = _first_one_color(coloring, m, totals, counts, window, slots,
                                                   None, n)
    return SearchReport(witness, color, prod(top for _, top in slots), nodes, counts[0],
                        (time.perf_counter() - start) * 1000.0)


class VerifyReport(Record):
    _fields = ("monochromatic", "instances", "color")

    def __init__(self, monochromatic: bool, instances: int, color: int | None) -> None:
        self.monochromatic, self.instances, self.color = monochromatic, instances, color

    @property
    def vacuous(self) -> bool:
        return self.instances == 0

    def __bool__(self) -> bool:
        return self.monochromatic


def _verify(coloring: Coloring, slices: Iterable[Sequence[LocatedWord]],
            instances: int) -> VerifyReport:
    """Whether the slices share one color (none share it vacuously),
    reported with `instances` as the instance count."""
    colors = {coloring.color_tuple(s) for s in slices}
    return VerifyReport(len(colors) < 2, instances, colors.pop() if len(colors) == 1 else None)


def verify_witness(witness: Sequence[LocatedWord], coloring: Coloring,
                   bounds: Sequence[int]) -> VerifyReport:
    """Re-check that the substitution instances of a witness over the
    bounds' grids share one color.  Each member's distinct images come
    from two index ranges, so only the distinct instances are built and
    colored, as the slices of the one-run plan; `instances` is the number
    of grid pairs, prod(k_i * k_-i)."""
    if len(bounds) != len(witness):
        raise SearchError("need one grid index per tuple slot")
    if not witness:
        return VerifyReport(True, 0, None)
    instances = prod(kp * kq for kp, kq in (_grid_tops(witness[0].profile, index)
                                            for index in bounds))
    ranges = [_image_ranges(w, index) for w, index in zip(witness, bounds)]
    # the slices are joined unchecked, so the members are refused first as
    # the fold of concat over one instance would refuse them
    concat_all(witness)
    return _verify(coloring, _plan_slices(witness, ranges, [[tuple(range(len(witness)))]]),
                   instances)


def _block_plans(chosen: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every cut of a sorted member subset into consecutive runs."""
    n = len(chosen)
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            edges = (0,) + cuts + (n,)
            yield tuple(chosen[a:b] for a, b in zip(edges, edges[1:]))


@lru_cache(maxsize=1024)
def _xi_plans(sizes: tuple[int, ...], anchors: tuple[int, ...], xi: Ordinal,
              total: int) -> Plans:
    """The block plans whose sizes sum to `total` and whose anchors, one
    per run from its innermost member, form a member of A_xi.  They depend
    only on the split's shape, so the last 1024 are kept: xi searches of
    radius 6 with l = 2 read 440 (xi = 3, n0 = 4) and 317 (xi = w,
    n0 = 10)."""
    plans: list[tuple[tuple[int, ...], ...]] = []
    for size in range(1, len(sizes) + 1):
        for chosen in combinations(range(len(sizes)), size):
            if sum(sizes[i] for i in chosen) == total:
                plans += [plan for plan in _block_plans(chosen)
                          if is_member(tuple(anchors[run[0]] for run in plan), xi)]
    return tuple(plans)


def _plan_slices(ws: Sequence[LocatedWord], ranges: Sequence[tuple[int, int]],
                 plans: Plans) -> list[tuple[LocatedWord, ...]]:
    """One image per chosen member, a run's images joined by words._joins
    into one constant; only members that some plan chooses get images.
    The members' domains are disjoint and their profile one, as the
    callers have checked."""
    runs = {run for plan in plans for run in plan}
    images = {i: _image_entries(ws[i], ranges[i]) for i in {i for run in runs for i in run}}
    blocks = {run: [LocatedWord(entries, ws[run[0]].profile) for entries in
                    _joins([ws[i].dom for i in run], [images[i] for i in run])]
              for run in runs}
    return [s for plan in plans for s in product(*map(blocks.get, plan))]


def _xi_slices(ws: Sequence[LocatedWord], xi: Ordinal,
               total: int) -> list[tuple[LocatedWord, ...]]:
    """All increasing tuples of extracted constants of ws whose anchor
    set lies in A_xi and whose domain sizes sum to `total`.

    The members of ws are nested annuli, innermost first, so a constant's
    domain names the member subset it is built from, and one constant
    precedes another exactly when its members all lie inside the other's.
    A slice is therefore a block plan times one image per chosen member.
    The plan alone fixes the total and the anchors (least positive
    positions), so each plan is tested once, and images are built only
    for the blocks of plans that pass.  The extraction checks run first."""
    bw = make_tuple(ws)
    return _plan_slices(bw, _extraction_ranges(bw, None), _xi_plans(
        tuple(len(w.entries) for w in bw), tuple(w.min_dom_pos for w in bw), xi, total))


def xi_witness_search(coloring: Coloring, xi: Ordinal, l: int, n0: int,
                      window: SearchWindow) -> SearchReport:
    """Search for an l-tuple of variable words whose extracted-constant
    tuples of total length n0 inside the xi-indexed family are
    monochromatic under a tuple coloring.

    The block plans depend only on the members' sizes and anchors, which
    the annulus split fixes, so each split's shape is planned once while
    _xi_plans keeps it, and a split with no plan is never built.  The
    extraction checks depend only on the profile and l, so they run once,
    when the window has a candidate."""
    if l < 1:
        raise SearchError("tuple length must be >= 1")
    if n0 < 1:
        raise SearchError("total length must be >= 1")
    start = time.perf_counter()
    totals = range(2 * l, 2 * window.radius + 1)
    counts = _candidate_counts(l, totals, window)
    slots: list[tuple[int, int]] = []
    if sum(counts):
        _require_sided_monotone(window.profile)
        slots = _side_slots(window.profile, range(1, l + 1))
    nodes, witness, color, sides, plans = _first_one_color(coloring, l, totals, counts, window,
                                                           slots, xi, n0)
    grid_size = sum(prod(len(sides[2 * i]) * len(sides[2 * i + 1]) for run in plan for i in run)
                    for plan in plans)
    return SearchReport(witness, color, grid_size, nodes, sum(counts),
                        (time.perf_counter() - start) * 1000.0)


def verify_xi_witness(witness: Sequence[LocatedWord], coloring: Coloring, xi: Ordinal,
                      n0: int) -> VerifyReport:
    """Re-enumerate the xi-indexed extracted tuples of a witness and
    check monochromaticity."""
    slices = _xi_slices(witness, xi, n0)
    return _verify(coloring, slices, len(slices))


# --- semigroup layer ------------------------------------------------------


class SemigroupSpec(Record):
    """An opaque semigroup with indexed generators y(letter, position)."""

    _fields = ("op", "y", "commutative")

    def __init__(self, op: Callable[[object, object], object], y: Callable[[int, int], object],
                 commutative: bool = False) -> None:
        self.op, self.y, self.commutative = op, y, commutative

    def fold(self, elements: Sequence[object]) -> object:
        if not elements:
            raise SearchError("empty semigroup product")
        acc = elements[0]
        for e in elements[1:]:
            acc = self.op(acc, e)
        return acc

    def spot_check(self, sample: Sequence[object], rng, rounds: int = 200) -> None:
        """Sampled associativity (and commutativity, if flagged)."""
        if len(sample) < 2:
            return
        for _ in range(rounds):
            a, b, c = (sample[rng.randrange(len(sample))] for _ in range(3))
            if self.op(self.op(a, b), c) != self.op(a, self.op(b, c)):
                raise SearchError("operation is not associative")
            if self.commutative and self.op(a, b) != self.op(b, a):
                raise SearchError("operation is not commutative")


INT_LINEAR = SemigroupSpec(op=lambda a, b: a + b, y=lambda l, n: l * n, commutative=True)
STRING_CONCAT = SemigroupSpec(op=lambda a, b: a + b,
                              y=lambda l, n: "y(%d,%d)" % (l, n), commutative=False)


def psi_map(w: LocatedWord, spec: SemigroupSpec):
    """Fold the generators over the word's entries in position order;
    the variable contributes generator index 0."""
    return spec.fold([spec.y(letter, pos) for pos, letter in w.entries])


def fs_enumerate(xs: Sequence[object], spec: SemigroupSpec) -> set[object]:
    """All finite sums of subsequences, indices ascending.  The sums whose
    largest index is k are x_k and s + x_k for every earlier sum s."""
    out: set[object] = set()
    for x in xs:
        out |= {spec.op(s, x) for s in out}
        out.add(x)
    return out


def fs_two_sided(xs: Sequence[object], zs: Sequence[object], spec: SemigroupSpec) -> set[object]:
    """All sums x_{n_l} + ... + x_{n_1} + z_{n_1} + ... + z_{n_l}.  The
    sums whose largest index is k are x_k + z_k and x_k + s + z_k for
    every earlier sum s."""
    if len(xs) != len(zs):
        raise SearchError("sequences must have equal length")
    out: set[object] = set()
    for x, z in zip(xs, zs):
        out |= {spec.op(spec.op(x, s), z) for s in out}
        out.add(spec.op(x, z))
    return out


class PatternResult(Record):
    """A semigroup pattern value with the fixed / j-driven / i-driven
    position sets of its building word."""

    _fields = ("value", "fixed_positions", "j_positions", "i_positions")

    def __init__(self, value: object, fixed_positions: tuple[int, ...],
                 j_positions: tuple[int, ...], i_positions: tuple[int, ...]) -> None:
        self.value, self.fixed_positions = value, fixed_positions
        self.j_positions, self.i_positions = j_positions, i_positions


def semigroup_pattern(ws: Sequence[LocatedWord], spec: SemigroupSpec, n: int,
                      i: int, j: int) -> PatternResult:
    """The n-th pattern element over the n-th quadruple of ws: first and
    last words substituted by (1,1), the second by (i,j), the third kept
    variable (index 0)."""
    if n < 1 or len(ws) < 4 * n:
        raise SearchError("need at least %d words" % (4 * n))
    profile = ws[0].profile
    if (i, j) != (0, 0):
        if not (1 <= i <= profile.bound(n) and 1 <= j <= profile.bound(-n)):
            raise SearchError("indices out of the bound grid at %d" % n)
    for a, b in zip(ws, ws[1:]):
        if not rel_r1(a, b):
            raise SearchError("word list is not increasing")
    first, second, third, fourth = ws[4 * n - 4:4 * n]
    if (i, j) != (0, 0):
        clamp = first_clamp(second, i, j)
        if clamp:
            raise SearchError("index %d clamps at position %d" % clamp)
    built = concat_all([substitute(first, 1, 1), substitute(second, i, j),
                        third, substitute(fourth, 1, 1)])
    j_positions = tuple(p for p, l in second.entries if l == VARIABLE and p < 0)
    i_positions = tuple(p for p, l in second.entries if l == VARIABLE and p > 0)
    moving = set(j_positions) | set(i_positions)
    fixed = tuple(p for p in built.dom if p not in moving)
    return PatternResult(psi_map(built, spec), fixed, j_positions, i_positions)


def z_fin_set_less(f: Iterable[int], g: Iterable[int]) -> bool:
    """The order on finite nonempty integer sets: wholly positive and
    below, wholly negative and above, or surrounded by a split of g."""
    fs, gs = sorted(set(f)), sorted(set(g))
    if not fs or not gs:
        raise SearchError("sets must be nonempty")
    if all(x > 0 for x in fs) and fs[-1] < gs[0]:
        return True
    if all(x < 0 for x in fs) and fs[0] > gs[-1]:
        return True
    below = [x for x in gs if x < fs[0]]
    above = [x for x in gs if x > fs[-1]]
    return bool(below) and bool(above) and len(below) + len(above) == len(gs)
