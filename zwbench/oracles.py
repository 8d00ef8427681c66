"""Independent reference answers for every benchmark operation.

Nothing here calls the zwords code under test except the ordinal layer's
fixed fundamental-sequence policy, which the families are defined by (the
repository's own test oracles use it the same way).  Each evaluator
re-walks a definition directly: Schreier membership by interval dynamic
programming over every splitting instead of the unique-prefix parse, the
codec by Kempner's bound and exact integer arithmetic, words as plain
position/letter tuples, searches by brute-force enumeration, and family
operations by their set definitions.  Every word uses the profile
k_n = |n|.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

# --- Schreier families ------------------------------------------------------


class SchreierOracle:
    """Membership and initial-segment tests for one finite set, over all
    splittings of it (no thinness shortcut)."""

    def __init__(self, s: tuple[int, ...]):
        self.s = s
        self._ends: dict = {}
        self._initial: dict = {}

    def ends(self, i: int, xi) -> frozenset[int]:
        """Every j with s[i:j] a member of A_xi."""
        key = (i, xi)
        if key not in self._ends:
            self._ends[key] = self._compute_ends(i, xi)
        return self._ends[key]

    def _compute_ends(self, i: int, xi) -> frozenset[int]:
        from zwords.ordinals import fundamental_sequence, omega_power, successor_pred

        s = self.s
        if xi.is_zero:
            return frozenset((i,))
        if i == len(s):
            return frozenset()
        if xi.is_successor:
            return self.ends(i + 1, successor_pred(xi))
        if len(xi.terms) == 1 and xi.terms[0][1] == 1:
            exp = xi.terms[0][0]
            if not exp.is_successor:
                return self.ends(i, omega_power(fundamental_sequence(exp, s[i])))
            plan = [omega_power(successor_pred(exp))] * s[i]
            if len(plan) > len(s) - i:
                return frozenset()
        else:
            plan = [omega_power(e) for e, c in reversed(xi.terms) for _ in range(c)]
        reach = {i}
        for family in plan:
            reach = {j for p in reach if p < len(s) for j in self.ends(p, family)}
            if not reach:
                break
        return frozenset(reach)

    def initial(self, i: int, xi) -> bool:
        """Whether s[i:] extends (by larger elements) to a member of A_xi."""
        key = (i, xi)
        if key not in self._initial:
            self._initial[key] = self._compute_initial(i, xi)
        return self._initial[key]

    def _compute_initial(self, i: int, xi) -> bool:
        from zwords.ordinals import fundamental_sequence, omega_power, successor_pred

        s = self.s
        if i == len(s):
            return True
        if xi.is_zero:
            return False
        if xi.is_successor:
            return self.initial(i + 1, successor_pred(xi))
        if len(xi.terms) == 1 and xi.terms[0][1] == 1:
            exp = xi.terms[0][0]
            if not exp.is_successor:
                return self.initial(i, omega_power(fundamental_sequence(exp, s[i])))
            plan = [omega_power(successor_pred(exp))] * s[i]
        else:
            plan = [omega_power(e) for e, c in reversed(xi.terms) for _ in range(c)]
        reach = {i}
        for family in plan:
            if len(s) in reach:
                return True
            if any(p < len(s) and self.initial(p, family) for p in reach):
                return True
            reach = {j for p in reach if p < len(s) for j in self.ends(p, family)}
            if not reach:
                return False
        return len(s) in reach

    def member(self, xi) -> bool:
        return len(self.s) in self.ends(0, xi)


def schreier_member(s: tuple[int, ...], xi) -> bool:
    return SchreierOracle(s).member(xi)


def schreier_canon(s: tuple[int, ...], xi) -> str | None:
    """The canonical decomposition as `[..][..]|..`, or None when the
    remainder extends to no member."""
    orc = SchreierOracle(s)
    blocks = []
    i = 0
    while i < len(s):
        ends = [j for j in orc.ends(i, xi) if j > i]
        if not ends:
            break
        if len(ends) > 1:
            raise AssertionError("A_%s is not thin at %r" % (xi, s[i:]))
        blocks.append(s[i:ends[0]])
        i = ends[0]
    rest = s[i:]
    if rest and not orc.initial(i, xi):
        return None
    text = "".join("[%s]" % ",".join(map(str, b)) for b in blocks)
    if rest:
        text += "|" + ",".join(map(str, rest))
    return text


def schreier_enum(xi, n_max: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(n_max + 1):
        for s in combinations(range(1, n_max + 1), size):
            if schreier_member(s, xi):
                out.append(s)
    return sorted(out)


def schreier_restriction(xi, n: int, n_max: int) -> bool:
    from zwords.ordinals import predecessor_sequence

    xi_n = predecessor_sequence(xi, n)
    universe = range(n + 1, n_max + 1)
    return all(schreier_member((n,) + s, xi) == schreier_member(s, xi_n)
               for size in range(n_max - n + 1) for s in combinations(universe, size))


# --- words ------------------------------------------------------------------
#
# A word is a tuple of (position, letter) pairs, ascending; letter 0 is the
# variable.


def fmt_word(w) -> str:
    return ",".join("%d:%s" % (p, "v" if l == 0 else l) for p, l in w)


def parse_word(text: str):
    out = []
    for item in text.split(","):
        p, l = item.split(":")
        out.append((int(p), 0 if l == "v" else int(l)))
    return tuple(out)


def is_variable(w) -> bool:
    return any(l == 0 for _, l in w)


def is_core(w) -> bool:
    if is_variable(w):
        return any(p < 0 and l == 0 for p, l in w) and any(p > 0 and l == 0 for p, l in w)
    return any(p < 0 for p, _ in w) and any(p > 0 for p, _ in w)


def surrounds(w, u) -> bool:
    """u R1-follows w: every position of u lies outside the span of w, on
    both sides."""
    lo, hi = w[0][0], w[-1][0]
    ps = [p for p, _ in u]
    return (all(p < lo or p > hi for p in ps)
            and any(p < lo for p in ps) and any(p > hi for p in ps))


def subst(w, p: int, q: int):
    if (p, q) == (0, 0):
        return w
    return tuple((pos, (min(p, pos) if pos > 0 else -min(q, -pos)) if l == 0 else l)
                 for pos, l in w)


def merge(w, u):
    letters = dict(w)
    for pos, l in u:
        if pos not in letters:
            letters[pos] = l
        elif l == 0 or letters[pos] == 0:
            letters[pos] = 0
        else:
            letters[pos] = max(l, letters[pos]) if pos > 0 else min(l, letters[pos])
    return tuple(sorted(letters.items()))


def star(parts):
    return tuple(sorted(e for w in parts for e in w))


def extracted(ws):
    """(constants, variables) over nonempty subtuples of ws; member i
    (1-based) takes pairs from {1..i}^2, or the identity (0,0) for
    variables."""
    constants, variables = set(), set()
    for size in range(1, len(ws) + 1):
        for idx in combinations(range(len(ws)), size):
            options = [[(0, 0)] + [(p, q) for p in range(1, i + 2) for q in range(1, i + 2)]
                       for i in idx]
            for pairs in product(*options):
                word = star(subst(ws[i], *pq) for i, pq in zip(idx, pairs))
                (variables if (0, 0) in pairs else constants).add(word)
    return constants, variables


def word_key(w):
    return (len(w), w)


# --- codec ------------------------------------------------------------------


def value_of(w) -> Fraction:
    """Exact value of a digit word: one integer numerator over (top+1)!."""
    letters = dict(w)
    whole = 0
    fact = 1
    for r in range(1, max([p for p, _ in w if p > 0], default=0) + 1):
        fact *= r
        d = abs(letters.get(r, 0))
        whole += d * fact if r % 2 else -d * fact
    digits = {-p: abs(l) for p, l in w if p < 0}
    top = max(digits, default=0)
    num, mult = 0, 1
    for s in range(top, 0, -1):
        d = digits.get(s, 0)
        num += d * mult if s % 2 == 0 else -d * mult
        mult *= s + 1
    return whole + Fraction(num, mult)


def _kempner_top(den: int) -> int:
    """The least t with den | (t+1)!, from den's factorization."""
    need = 1
    n, p = den, 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            m, v = 0, 0
            while v < e:
                m += p
                k = m
                while k % p == 0:
                    k //= p
                    v += 1
            need = max(need, m)
        p += 1
    return need - 1


def encode(q: Fraction):
    """The unique in-bound digit word of q, zero digits dropped."""
    q = Fraction(q)
    found = []
    base = q.numerator // q.denominator
    for whole in (base - 1, base, base + 1):
        f = q - whole
        top = _kempner_top(f.denominator) if f else 0
        mult = 1
        for s in range(2, top + 2):
            mult *= s
        m = f * mult
        if m.denominator != 1:
            continue
        m = m.numerator
        frac = {}
        for s in range(top, 0, -1):
            sign = 1 if s % 2 == 0 else -1
            d = (m * sign) % (s + 1)
            frac[s] = d
            m = (m - sign * d) // (s + 1)
        if m == 0:
            found.append((whole, frac))
    if len(found) != 1:
        raise AssertionError("no unique expansion of %s" % q)
    whole, frac = found[0]
    entries = [(-s, -d) for s, d in frac.items() if d]
    r, rest = 1, whole
    while rest:
        sign = 1 if r % 2 else -1
        d = (rest * sign) % (r + 1)
        if d:
            entries.append((r, d))
        rest = (rest - sign * d) // (r + 1)
        r += 1
    return tuple(sorted(entries))


# --- colorings and witness search --------------------------------------------

_M64 = (1 << 64) - 1


def color(seed: int, key: str, arity: int) -> int:
    """FNV-1a over the key's bytes from a seed-folded basis, then the
    splitmix64 finalizer, reduced mod the arity."""
    h = 0xCBF29CE484222325 ^ (seed & _M64)
    for b in key.encode():
        h = ((h ^ b) * 0x100000001B3) & _M64
    h = (h + 0x9E3779B97F4A7C15) & _M64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _M64
    return (h ^ (h >> 31)) % arity


def _core_words(dom):
    """Two-sided variable words on a domain."""
    options = [range(0, p + 1) if p > 0 else range(p, 1) for p in dom]
    for letters in product(*options):
        w = tuple(zip(dom, letters))
        if is_core(w) and is_variable(w):
            yield w


def tuple_candidates(m: int, total: int, radius: int) -> list:
    """R1-increasing m-tuples of two-sided variable words of total domain
    size `total` in the window, in canonical order."""
    positions = [p for p in range(-radius, radius + 1) if p]
    by_dom = {}

    def words_on(dom):
        if dom not in by_dom:
            by_dom[dom] = list(_core_words(dom))
        return by_dom[dom]

    out = []

    def grow(prefix, used, lo, hi):
        if len(prefix) == m:
            if used == total:
                out.append(tuple(prefix))
            return
        left = m - len(prefix) - 1
        outside = [p for p in positions if p < lo or p > hi]
        sizes = [total - used] if not left else range(2, total - used - 2 * left + 1)
        for size in sizes:
            for dom in combinations(outside, size):
                if prefix and not (dom[0] < lo and dom[-1] > hi):
                    continue
                if not (dom[0] < 0 < dom[-1]):
                    continue
                for w in words_on(dom):
                    grow(prefix + [w], used + size, dom[0], dom[-1])

    grow([], 0, 1, -1)
    out.sort(key=lambda ws: (max(abs(p) for w in ws for p, _ in w),
                             ";".join(fmt_word(w) for w in ws)))
    return out


def render_search(witness, col, grid, nodes, candidates, vacuous) -> str:
    """One line for a search result; `witness` is its serialized text."""
    return "witness=%s color=%s grid=%d nodes=%d candidates=%d vacuous=%s" % (
        witness or "none", col, grid, nodes, candidates, "true" if vacuous else "false")


def hj_search(seed: int, arity: int, bounds, n: int, radius: int) -> str:
    cands = tuple_candidates(len(bounds), n, radius)
    grid = list(product(*[[(p, q) for p in range(1, b + 1) for q in range(1, b + 1)]
                          for b in bounds]))
    for node, ws in enumerate(cands, 1):
        colors = {color(seed, fmt_word(star(subst(w, *pq) for w, pq in zip(ws, pairs))), arity)
                  for pairs in grid}
        if len(colors) == 1:
            return render_search(fmt_tuple(ws), colors.pop(), len(grid), node, len(cands), not grid)
    return render_search(None, None, len(grid), len(cands), len(cands), False)


def xi_search(seed: int, arity: int, xi, l: int, n0: int, radius: int) -> str:
    cands = []
    for total in range(2 * l, 2 * radius + 1):
        cands.extend(tuple_candidates(l, total, radius))
    for node, ws in enumerate(cands, 1):
        constants = sorted(extracted(ws)[0], key=word_key)
        slices = []

        def grow(prefix, size):
            if prefix and size == n0:
                anchors = tuple(min(p for p, _ in w if p > 0) for w in prefix)
                if schreier_member(anchors, xi):
                    slices.append(prefix)
            for w in constants:
                if size + len(w) <= n0 and (not prefix or surrounds(prefix[-1], w)):
                    grow(prefix + (w,), size + len(w))

        grow((), 0)
        if not slices:
            continue
        colors = {color(seed, ";".join(fmt_word(w) for w in s), arity) for s in slices}
        if len(colors) == 1:
            return render_search(fmt_tuple(ws), colors.pop(), len(slices), node, len(cands), False)
    return render_search(None, None, 0, len(cands), len(cands), False)


# --- tuple families ---------------------------------------------------------


def chains(words):
    """Every R1-increasing sequence over words, the empty one included."""
    out = {()}

    def grow(prefix):
        for w in words:
            if not prefix or surrounds(prefix[-1], w):
                out.add(prefix + (w,))
                grow(prefix + (w,))

    grow(())
    return out


def extraction_tuples(bw, pool):
    if not bw:
        return {()}
    return chains(extracted(bw)[1] & pool)


def closure(family, pool):
    out = {()}
    for bw in family:
        out |= extraction_tuples(bw, pool)
    return out


def largest(family, pool):
    return {()} | {bw for bw in family if extraction_tuples(bw, pool) <= family}


def longest_chain(words) -> int:
    order = sorted(words, key=lambda w: w[-1][0] - w[0][0])
    depth = {}
    for i, w in enumerate(order):
        depth[i] = 1 + max((depth[j] for j in range(i) if surrounds(order[j], w)), default=0)
    return max(depth.values(), default=0)


def cb_index(family, pool, tau: int) -> int | None:
    """Derivative steps until empty, or None at a fixed point."""
    family = set(family)
    steps = 0
    while family:
        kept = set()
        for bw in family:
            blocked = [t for t in pool
                       if (bw and not surrounds(bw[-1], t)) or bw + (t,) not in family]
            if longest_chain(blocked) < tau:
                kept.add(bw)
        if kept == family:
            return None
        family = kept
        steps += 1
    return steps


def fmt_tuple(bw) -> str:
    return ";".join(fmt_word(w) for w in bw)
