"""Independent reference evaluators used as test oracles.

Everything here re-walks the defining recursions naively (full
backtracking over splittings, no memoization, no thinness shortcut), so
the fast implementations are checked against genuinely separate code
paths.  The exceptions are witness_candidates, which lists what the search
visits from the search's own code, for tests that need that order, and
reference_hereditary_part, which walks every extraction chain of every
key with the family kernels' own chain walk, for the marking walk that
skips most of those walks.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from itertools import combinations, product
from math import factorial, perm, prod

from zwords import cli
from zwords.ordinals import (
    DESCENT_CAP,
    ZERO,
    Ordinal,
    fundamental_sequence,
    omega_power,
    successor_pred,
)
from zwords.families import FamilyError, WordFamily, _extraction_chains, _slot_allowed
from zwords.rationals import _kempner
from zwords.schreier import SchreierError, is_member
from zwords.search import (
    SearchCapExceeded,
    SearchError,
    SearchWindow,
    VerifyReport,
    _shell_candidates,
    _shell_splits,
    _splits,
    _words,
)
from zwords.words import (
    ABS,
    ECHO_LIMIT,
    EMPTY_TUPLE,
    VARIABLE,
    LocatedWord,
    WordError,
    _require_sided_monotone,
    _thresholds,
    concat_all,
    extracted_sets,
    format_word,
    make_tuple,
    make_word,
    parse_profile,
    rel_r1,
    substitute,
    word_sort_key,
)

# substitution clamps at +-1 under the grids of indices 2 and 3
CLAMPING_TABLE = "table:-3=2,-2=2,-1=1,1=1,2=3,3=3"


def compositions(seq: tuple[int, ...], parts: int):
    """All splittings of seq into `parts` nonempty consecutive chunks."""
    if parts == 1:
        if seq:
            yield (seq,)
        return
    for cut in range(1, len(seq) - parts + 2):
        head = seq[:cut]
        for rest in compositions(seq[cut:], parts - 1):
            yield (head,) + rest


def _reference_plan(xi: Ordinal, n: int) -> list[Ordinal]:
    """The block families of the limit xi at minimum n, read off the
    definition: n copies of w^e for w^(e+1), w^(e_n) for a limit exponent
    e, and each term's coeff copies, smallest exponent first, for a sum."""
    if len(xi.terms) == 1 and xi.terms[0][1] == 1:
        exp = xi.terms[0][0]
        if exp.is_successor:
            return [omega_power(successor_pred(exp))] * n
        return _reference_plan(omega_power(fundamental_sequence(exp, n)), n)
    plan = []
    for exponent, coeff in reversed(xi.terms):
        plan.extend([omega_power(exponent)] * coeff)
    return plan


def reference_as_finite_set(elements) -> tuple[int, ...]:
    """The set check as two generator passes: every element a positive
    int, then every neighbouring pair increasing.  A refusal shows the
    set as _reference_echo bounds it."""
    s = tuple(elements)
    if any(not isinstance(x, int) or x < 1 for x in s):
        raise SchreierError("elements must be positive integers: %s"
                            % _reference_echo(repr(s), str))
    if any(a >= b for a, b in zip(s, s[1:])):
        raise SchreierError("elements must be strictly increasing: %s"
                            % _reference_echo(repr(s), str))
    return s


def reference_member(s: tuple[int, ...], xi: Ordinal) -> bool:
    """Naive membership in A_xi: tries every splitting into the block
    families instead of the unique-prefix parse."""
    if xi.is_zero:
        return s == ()
    if not s:
        return False
    if xi.is_successor:
        return reference_member(s[1:], successor_pred(xi))
    plan = _reference_plan(xi, s[0])
    if len(plan) > len(s):
        return False
    return any(all(reference_member(b, f) for b, f in zip(split, plan))
               for split in compositions(s, len(plan)))


def reference_initial(s: tuple[int, ...], xi: Ordinal) -> bool:
    """Naive membership in A_xi*: is s an initial segment of a member?
    The empty set is.  A successor's member is its minimum followed by a
    member of the predecessor's family.  A limit's member with minimum
    s[0] is the blocks of its plan in order, so s is some of them whole,
    each tried at every cut, and then an initial segment of the next one;
    every family has members above any bound, so the rest extends."""
    if not s:
        return True
    if xi.is_zero:
        return False
    if xi.is_successor:
        return reference_initial(s[1:], successor_pred(xi))
    return _initial_of_blocks(s, _reference_plan(xi, s[0]))


def _initial_of_blocks(s: tuple[int, ...], plan: list[Ordinal]) -> bool:
    if not s:
        return True
    if not plan:
        return False
    return reference_initial(s, plan[0]) or any(
        reference_member(s[:cut], plan[0]) and _initial_of_blocks(s[cut:], plan[1:])
        for cut in range(1, len(s) + 1))


def reference_decompositions(seq: tuple[int, ...], xi: Ordinal):
    """Every splitting of seq into leading A_xi blocks plus a remainder
    that has no A_xi prefix; the canonical representation is the unique
    such splitting whose remainder extends to a member."""
    results = []

    def rec(rest, blocks):
        if not rest:
            results.append((tuple(blocks), None))
            return
        has_block = False
        for cut in range(1, len(rest) + 1):
            if reference_member(rest[:cut], xi):
                has_block = True
                rec(rest[cut:], blocks + [rest[:cut]])
        if not has_block:
            results.append((tuple(blocks), rest))

    rec(seq, [])
    return results


def _with_min(xi: Ordinal, n: int, n_max: int):
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
    plan = _reference_plan(xi, n)
    if len(plan) > n_max - n + 1:
        return
    for first in _with_min(plan[0], n, n_max):
        for rest in _chain_rest(plan[1:], first[-1] + 1, n_max):
            yield first + rest


def _chain_rest(plan, lo: int, n_max: int):
    if not plan:
        yield ()
        return
    for m in range(lo, n_max + 1):
        for b in _with_min(plan[0], m, n_max):
            for rest in _chain_rest(plan[1:], b[-1] + 1, n_max):
                yield b + rest


def reference_enumerate_members(xi: Ordinal, n_max: int) -> list[tuple[int, ...]]:
    """All members of A_xi inside {1..n_max}, lexicographic: one
    recursive generator per minimum, then sorted."""
    if xi.is_zero:
        return [()]
    out = []
    for n in range(1, n_max + 1):
        out.extend(_with_min(xi, n, n_max))
    return sorted(out)


def _reference_predecessor_terms(xi: Ordinal, n: int) -> tuple:
    if xi.is_successor:
        return successor_pred(xi).terms
    head, (exp, coeff) = xi.terms[:-1], xi.terms[-1]
    if coeff > 1 or head:
        prefix = head + (((exp, coeff - 1),) if coeff > 1 else ())
        return prefix + _reference_predecessor_terms(omega_power(exp), n)
    if exp.is_successor:
        beta = successor_pred(exp)
        tail = _reference_predecessor_terms(omega_power(beta), n)
        return tail if n == 1 else ((beta, n - 1),) + tail
    return _reference_predecessor_terms(omega_power(fundamental_sequence(exp, n)), n)


def reference_predecessor_sequence(xi: Ordinal, n: int) -> Ordinal:
    """xi_n by the case recursion, one call per step of the descent, so
    a long descent passes the recursion limit: xi - 1 for a successor;
    for a sum, the prefix followed by the sequence of its last copy of
    w^e; for w^(b+1), w^b*(n - 1) followed by the sequence of w^b; for
    w^e with e a limit, the sequence of w^(e_n).  The result goes
    through the public constructor once."""
    return Ordinal(_reference_predecessor_terms(xi, n))


def reference_descent_steps(xi: Ordinal, n: int) -> int:
    """The steps predecessor_sequence(xi, n) takes, n >= 2, counted by a
    two-branch loop down the exponent e of xi's last term: one step lowers
    a successor exponent by one, and one step reads a limit exponent at
    its n-th fundamental member.  The count stops as soon as it passes
    DESCENT_CAP, since some towers take astronomically many steps."""
    exp = xi.terms[-1][0]
    steps = 0
    while not exp.is_zero and steps <= DESCENT_CAP:
        steps += 1
        exp = successor_pred(exp) if exp.is_successor else fundamental_sequence(exp, n)
    return steps


def reference_restriction_check(xi: Ordinal, xi_n: Ordinal, n: int, n_max: int) -> bool:
    """A_xi(n) = A_{xi_n} by definition on {n+1..n_max}: every subset s
    is tested twice, (n,) + s in A_xi against s in A_{xi_n}."""
    return all(is_member((n,) + s, xi) == is_member(s, xi_n)
               for s in powerset(range(n + 1, n_max + 1)))


def reference_value(entries) -> Fraction:
    """The codec value of (position, letter) entries as a direct sum of
    one Fraction per digit; the variable letter 0 is digit 0."""
    value = Fraction(0)
    for pos, letter in entries:
        digit = abs(letter)
        if pos > 0:
            value += digit * (-1) ** (pos + 1) * factorial(pos)
        else:
            value += Fraction(digit * (-1) ** -pos, factorial(-pos + 1))
    return value


def reference_evaluate(w: LocatedWord) -> Fraction:
    """The codec value of a word by one multiply-add per nonzero digit:
    the integer part by Horner over r! from the top position down, the
    fractional part as one numerator over (top+1)! from s = 1 up, a gap
    between digits bridged by a falling factorial."""
    whole = num = 0
    r_last = s_last = 1
    for pos, letter in reversed(w.entries):
        if letter == VARIABLE:
            continue
        if pos > 0:
            if whole:
                whole *= perm(r_last, r_last - pos)
            whole += letter if pos % 2 else -letter
            r_last = pos
        else:
            s = -pos
            if num:
                num *= perm(s + 1, s - s_last)
            num += letter if s % 2 else -letter
            s_last = s
    den = factorial(s_last + 1)
    return Fraction(whole * factorial(r_last) * den + num, den)


def reference_integer_alt_factorial(value: int) -> tuple[int, ...]:
    """The digits q_r of value = sum q_r (-1)^(r+1) r!, 0 <= q_r <= r, by
    alternating division, one position at a time from r = 1."""
    digits = []
    rest, r = value, 1
    while rest != 0:
        sign = 1 if r % 2 else -1
        d = (rest * sign) % (r + 1)
        digits.append(d)
        rest = (rest - sign * d) // (r + 1)
        r += 1
    return tuple(digits)


def reference_encode(q: Fraction) -> LocatedWord:
    """The codec word of q by one division of the full numerator per
    position: q_{-s} is the residue of +-m mod s+1 in 0..s, from s = top
    down, m = q * (top+1)!; the m left after s = 1 is the integer part.
    The top position comes from `_kempner`, the codec's cap."""
    top = max(_kempner(q.denominator), 2) - 1
    m = q.numerator * (factorial(top + 1) // q.denominator)
    entries = []
    for s in range(top, 0, -1):
        sign = 1 if s % 2 == 0 else -1
        d = (m * sign) % (s + 1)
        if d:
            entries.append((-s, -d))
        m = (m - sign * d) // (s + 1)
    for r, d in enumerate(reference_integer_alt_factorial(m), 1):
        if d:
            entries.append((r, d))
    return make_word(entries)


def _reference_echo(text: str, show=repr) -> str:
    """text shown for an error (quoted, by default): whole when it has at
    most ECHO_LIMIT characters, and otherwise its first ECHO_LIMIT
    characters shown and then its length."""
    if len(text) > ECHO_LIMIT:
        return "%s... (%d characters)" % (show(text[:ECHO_LIMIT]), len(text))
    return show(text)


def reference_parse_word(text: str, profile=ABS) -> LocatedWord:
    """Word text read one entry at a time: the first entry that is not
    two integers (or an integer and v) around one colon is refused, then
    the first descent, then whatever make_word refuses, in entry order.
    A refusal quotes the entry and the text as _reference_echo does."""
    entries = []
    for item in text.strip().split(","):
        pos_text, sep, letter_text = item.partition(":")
        try:
            if not sep:
                raise ValueError(item)
            pos = int(pos_text)
            letter = VARIABLE if letter_text == "v" else int(letter_text)
        except ValueError:
            raise WordError("bad entry %s in %s"
                            % (_reference_echo(item), _reference_echo(text))) from None
        entries.append((pos, letter))
    if any(a[0] >= b[0] for a, b in zip(entries, entries[1:])):
        raise WordError("positions must be ascending in %s" % _reference_echo(text))
    return make_word(entries, profile)


def reference_is_core(w: LocatedWord) -> bool:
    """Core class membership read side by side, with no use of the order
    of the entries: a word with a variable has one at a negative and one
    at a positive position, a word without one has a negative and a
    positive position."""
    if any(letter == VARIABLE for _, letter in w.entries):
        return (any(letter == VARIABLE for pos, letter in w.entries if pos < 0)
                and any(letter == VARIABLE for pos, letter in w.entries if pos > 0))
    return any(pos < 0 for pos, _ in w.entries) and any(pos > 0 for pos, _ in w.entries)


def build_parser() -> argparse.ArgumentParser:
    """The reference parser: an argparse tree built from cli.COMMANDS.  It
    reads what the CLI reads, but also abbreviations and repeated flags,
    and its help and usage errors are argparse's own, wrapped at 80
    columns whatever the terminal."""

    class Value(argparse.Action):
        """Store an argument's one value.  argparse before Python 3.13
        binds --flag=-- to an empty list; the CLI reads "--", as 3.13 does."""

        def __call__(self, parser, namespace, values, option_string=None):
            setattr(namespace, self.dest, "--" if values == [] else values)

    def fixed(prog):
        return argparse.HelpFormatter(prog, width=80)

    top = argparse.ArgumentParser(prog="zwords", formatter_class=fixed)
    top.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for (group, name), (func, arguments, defaults) in cli.COMMANDS.items():
        if group not in groups:
            groups[group] = sub.add_parser(group, formatter_class=fixed).add_subparsers(
                dest="subcommand", required=True)
        leaf = groups[group].add_parser(name, formatter_class=fixed)
        for flag, keywords in arguments.items():
            if not flag.startswith("-"):  # argparse takes no required= for a positional
                keywords = {key: value for key, value in keywords.items() if key != "required"}
            leaf.add_argument(flag, action=Value, **keywords)
        leaf.set_defaults(func=func, **defaults)
    return top


def _dash_values(argv: list[str]) -> list[str]:
    """Join each dash value to the --flag just before it, if that flag has
    no "=" yet; otherwise put "--" in front of it, so that it and the rest
    are positional, as the CLI reads them."""
    out = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        if cli._dash_value(arg):
            if out and out[-1].startswith("--") and "=" not in out[-1]:
                out[-1] += "=" + arg
                continue
            return out + ["--"] + argv[i:]
        out.append(arg)
    return out


def reference_parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """The reference parser's namespace of argv, dash values joined first;
    SystemExit for help and usage errors."""
    return parser.parse_args(_dash_values(list(argv)))


def reference_main(argv) -> int:
    """cli.main parsing every argv with the reference parser, built
    afresh, then answering through the same guard and writer."""
    try:
        args = reference_parse(build_parser(), argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return cli._answer(args)


def brute_digit_words(span: int):
    """All digit vectors supported in {-span..span} with the codec
    bounds, as (entries, value) pairs evaluated by a direct sum."""
    negs = range(1, span + 1)
    out = []
    options = [range(0, s + 1) for s in negs] + [range(0, r + 1) for r in negs]
    for digits in product(*options):
        neg_digits = digits[:span]
        pos_digits = digits[span:]
        value = Fraction(0)
        entries = []
        for s, d in zip(negs, neg_digits):
            value += Fraction(d * (-1) ** s, factorial(s + 1))
            if d:
                entries.append((-s, -d))
        for r, d in zip(negs, pos_digits):
            value += d * (-1) ** (r + 1) * factorial(r)
            if d:
                entries.append((r, d))
        out.append((tuple(sorted(entries)), value))
    return out


def powerset(universe):
    items = tuple(universe)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def _letters(pos, profile):
    k = profile.bound(pos)
    return [VARIABLE] + (list(range(1, k + 1)) if pos > 0 else list(range(-k, 0)))


def _surrounds(inner, outer):
    """dom(outer) has positions strictly below and strictly above the
    span of inner, and none inside it."""
    return (any(p < inner[0] for p in outer) and any(p > inner[-1] for p in outer)
            and not any(inner[0] <= p <= inner[-1] for p in outer))


def witness_candidates(m, total, window):
    """The candidates hj and xi search visit, as one list: all
    <R1-increasing m-tuples of two-sided variable words with total domain
    size `total` inside the window, shell by shell (outermost |position|),
    each shell's splits merged by serialization.  Built from the search's
    own split and pool code, so reference_candidates checks it."""
    return [_words(combo, window.profile)
            for shell in range(1, window.radius + 1)
            for _, combo, _ in _shell_candidates(
                [(layers, None) for layers in _shell_splits(m, total, shell)], window.profile)]


def reference_candidates(m, total, window):
    """Every m-tuple of two-sided variable words, each surrounding the one
    before, with `total` positions in all inside the window, sorted by
    (outermost |position|, serialization).  Each chosen set of positions
    is dealt out to the m words in every way; each word takes every letter
    choice with the variable on both sides."""
    profile = window.profile
    positions = [p for p in range(-window.radius, window.radius + 1) if p]
    out = []
    for used in combinations(positions, total):
        for owner in product(range(1, m + 1), repeat=total):
            doms = [[p for p, o in zip(used, owner) if o == i] for i in range(1, m + 1)]
            if not all(d and d[0] < 0 < d[-1] for d in doms):
                continue
            if not all(_surrounds(a, b) for a, b in zip(doms, doms[1:])):
                continue
            shell = max(-used[0], used[-1])
            pools = []
            for dom in doms:
                pool = []
                for letters in product(*[_letters(p, profile) for p in dom]):
                    sides = {p > 0 for p, l in zip(dom, letters) if l == VARIABLE}
                    if sides == {False, True}:
                        w = LocatedWord(tuple(zip(dom, letters)), profile)
                        pool.append((format_word(w), w))
                pools.append(pool)
            for combo in product(*pools):
                out.append(((shell, ";".join(text for text, _ in combo)),
                            tuple(w for _, w in combo)))
    return [ws for _, ws in sorted(out, key=lambda item: item[0])]


def reference_candidate_count(m, total, window):
    """The candidate count and per-shell annulus splits of
    witness_candidates, by enumeration: every domain, every split of it
    into annuli, and per annulus and side prod(k_p + 1) - prod(k_p), the
    letter choices with the variable minus those without.  Bounds are read
    as the enumeration meets them, and the cap is checked after every
    split.  Returns (count, {shell: [split, ...]})."""
    def core_count(dom):
        count = 1
        for side in (-1, 1):
            bounds = [window.profile.bound(p) for p in dom if p * side > 0]
            count *= prod(k + 1 for k in bounds) - prod(bounds)
        return count

    count = 0
    shells = {}
    for dom in combinations(window.positions(), total):
        for layers in _splits(dom, m):
            count += prod(core_count(layer) for layer in layers)
            if count > window.max_candidates:
                over = window.max_candidates + 1
                raise SearchCapExceeded(
                    "witness candidates exceed cap after %d tuples" % over, over)
            shells.setdefault(max(-dom[0], dom[-1]), []).append(layers)
    return count, shells


def sampled_candidates(radius, per_cell=25):
    """Every 7th tuple of reference_candidates, at most per_cell of them,
    from each (profile, m <= 3) cell at the radius, over every total.  At
    radius 4 the m <= 2 cells stop at total 5: their larger totals hold
    327,270 tuples."""
    for text in ("abs", "abs+1", "const:1"):
        window = SearchWindow(radius, parse_profile(text))
        for m in (1, 2, 3):
            top = 5 if radius == 4 and m < 3 else 2 * radius
            cell = [ws for total in range(2 * m, top + 1)
                    for ws in reference_candidates(m, total, window)]
            yield from cell[::max(7, -(-len(cell) // per_cell))]


def reference_fs_enumerate(xs, spec):
    """Every finite sum by definition: one fold per nonempty index
    subset, indices ascending."""
    out = set()
    for size in range(1, len(xs) + 1):
        for idxs in combinations(range(len(xs)), size):
            out.add(spec.fold([xs[i] for i in idxs]))
    return out


def reference_fs_two_sided(xs, zs, spec):
    """Every sum x_{n_l} + ... + x_{n_1} + z_{n_1} + ... + z_{n_l} by
    definition: one fold per nonempty index subset."""
    out = set()
    for size in range(1, len(xs) + 1):
        for idxs in combinations(range(len(xs)), size):
            out.add(spec.fold([xs[i] for i in reversed(idxs)] + [zs[i] for i in idxs]))
    return out


def _grid(profile, index):
    """Every substitution pair of the grid at a 1-based tuple index,
    p-major: p up to k at index, q up to k at -index."""
    if index < 1:
        raise WordError("grid index must be >= 1")
    return [(p, q) for p in range(1, profile.bound(index) + 1)
            for q in range(1, profile.bound(-index) + 1)]


def reference_images(w, index):
    """The distinct substitution images of w over the whole grid at
    `index`, in grid order: every pair is substituted and the repeats
    dropped."""
    return list(dict.fromkeys(substitute(w, p, q) for p, q in _grid(w.profile, index)))


def reference_pair_enumeration(profile, count):
    """The first `count` pairs of the pair enumeration, each block built
    whole as sorted (i(q), p, q) triples before the count is checked; block
    m holds the pairs with max(i(q), p) = m, where i(q) is the least n with
    q <= k_-n."""
    _require_sided_monotone(profile)
    out = []
    thresholds = [0]  # thresholds[j] = k_{-j}
    ks = _thresholds(profile)
    m = 0
    while len(out) < count:
        m += 1
        thresholds.append(next(ks))
        block = []
        for j in range(1, m + 1):
            qs = range(thresholds[j - 1] + 1, thresholds[j] + 1)
            ps = range(1, m + 1) if j == m else (m,)
            block.extend((j, p, q) for p in ps for q in qs)
        block.sort()
        out.extend((p, q) for _, p, q in block)
    return out[:count]


def reference_extracted(ws):
    """The extracted words of an increasing tuple by definition: for every
    nonempty subset of members and every choice of one pair per member,
    (0,0) or (p,q) in its grid at its 1-based index, the union of the
    substituted members.  Returns (constants, variables)."""
    profile = ws[0].profile
    constants, variables = set(), set()
    for size in range(1, len(ws) + 1):
        for subset in combinations(range(len(ws)), size):
            grids = []
            for i in subset:
                kp, kq = profile.bound(i + 1), profile.bound(-(i + 1))
                grids.append([(0, 0)] + [(p, q) for p in range(1, kp + 1)
                                         for q in range(1, kq + 1)])
            for pairs in product(*grids):
                entries = {}
                for i, (p, q) in zip(subset, pairs):
                    for pos, letter in ws[i].entries:
                        if letter == VARIABLE and (p, q) != (0, 0):
                            k = profile.bound(pos)
                            letter = min(p, k) if pos > 0 else -min(q, k)
                        entries[pos] = letter
                word = make_word(entries, profile)
                (variables if (0, 0) in pairs else constants).add(word)
    return frozenset(constants), frozenset(variables)


def reference_xi_slices(ws, xi, total, constants=None):
    """Every rel_r1-increasing tuple of extracted constants of ws whose
    domain sizes sum to `total` and whose anchors (least positive
    positions) form a member of A_xi: chains grow one constant at a time
    over all the constants of reference_extracted, testing each pair.
    A caller that has those constants already may pass them."""
    if not ws:
        return []
    if constants is None:
        constants = reference_extracted(ws)[0]
    constants = sorted(constants, key=word_sort_key)
    out = []

    def grow(prefix, size):
        if prefix and size == total:
            if reference_member(tuple(w.min_dom_pos for w in prefix), xi):
                out.append(prefix)
        for w in constants:
            extra = len(w.entries)
            if size + extra > total:
                break  # constants are sorted by length
            if not prefix or rel_r1(prefix[-1], w):
                grow(prefix + (w,), size + extra)

    grow((), 0)
    return out


def reference_xi_search(coloring, xi, l, n0, window, memo):
    """The xi search by definition: walk the candidates of
    witness_candidates, colour each one's reference_xi_slices, and stop at
    the first whose slices take one colour.  Returns the SearchReport
    fields (witness, color, grid_size, nodes_expanded, candidates,
    vacuous).  `memo` keeps candidates, constants and slices, by candidate
    index, between calls."""
    if (l, window) not in memo:
        candidates = [ws for total in range(2 * l, 2 * window.radius + 1)
                      for ws in witness_candidates(l, total, window)]
        memo[l, window] = candidates, [None] * len(candidates)
    candidates, constants = memo[l, window]
    slices_at = memo.setdefault((l, window, xi, n0), [None] * len(candidates))
    for i, ws in enumerate(candidates):
        if slices_at[i] is None:
            if constants[i] is None:
                constants[i] = reference_extracted(ws)[0]
            slices_at[i] = reference_xi_slices(ws, xi, n0, constants[i])
        colors = {coloring.color_tuple(s) for s in slices_at[i]}
        if len(colors) == 1:
            return ws, colors.pop(), len(slices_at[i]), i + 1, len(candidates), False
    return None, None, 0, len(candidates), len(candidates), False


def reference_hj_search(coloring, m, bounds, n, window):
    """The hj search by definition: the first candidate of
    witness_candidates whose whole-grid instances, coloured by
    reference_verify_witness, take one colour.  Returns the SearchReport
    fields (witness, color, grid_size, nodes_expanded, candidates,
    vacuous)."""
    candidates = witness_candidates(m, n, window)
    grid_size = prod(len(_grid(window.profile, index)) for index in bounds)
    for i, ws in enumerate(candidates, 1):
        rep = reference_verify_witness(ws, coloring, bounds)
        if rep.monochromatic:
            return ws, rep.color, grid_size, i, len(candidates), False
    return None, None, grid_size, len(candidates), len(candidates), False


def reference_verify_witness(witness, coloring, bounds):
    """verify_witness by definition: every pair of the whole grids under
    the first member's profile is substituted, the images joined and the
    instance coloured; `instances` counts the pairs."""
    if len(bounds) != len(witness):
        raise SearchError("need one grid index per tuple slot")
    if not witness:
        return VerifyReport(True, 0, None)
    profile = witness[0].profile
    colors = set()
    instances = 0
    for pairs in product(*[_grid(profile, index) for index in bounds]):
        instance = concat_all([substitute(w, *pq) for w, pq in zip(witness, pairs)])
        colors.add(coloring.color_key(format_word(instance)))
        instances += 1
    return VerifyReport(len(colors) == 1, instances, colors.pop() if len(colors) == 1 else None)


def _reference_longest_chain(ws) -> int:
    """Length of the longest rel_r1-increasing chain among ws, by a
    memoized recursion that tests every pair."""
    best: dict[int, int] = {}

    def depth(i: int) -> int:
        if i not in best:
            best[i] = 1 + max((depth(j) for j in range(len(ws)) if rel_r1(ws[i], ws[j])),
                              default=0)
        return best[i]

    return max((depth(i) for i in range(len(ws))), default=0)


def _reference_pool(family, pool):
    """The library's pool checks and error messages; offending words are
    named least first by word_sort_key, as _reference_echo bounds them."""
    pool = frozenset(pool)
    for w in sorted(pool, key=word_sort_key):
        if not (w.is_variable_word and w.is_core):
            raise FamilyError("pool word %s is not a two-sided variable word"
                              % _reference_echo(format_word(w), str))
    for w in sorted({w for bw in family.members for w in bw}, key=word_sort_key):
        if w not in pool:
            raise FamilyError("pool is missing the word %s"
                              % _reference_echo(format_word(w), str))
    return pool


def reference_r1_successors(words):
    """Each word's R1 successors among words, as ascending list indices,
    by testing rel_r1 on every ordered pair."""
    return [[j for j, u in enumerate(words) if rel_r1(w, u)] for w in words]


def reference_matches(chosen, table):
    """The pool indices of a compiled pool's words on the union of the
    chosen slots' domains, of the first slot's profile, whose entries on
    each slot's domain are one of that slot's allowed entry tuples, by a
    scan of every pool word.  A slot's entry tuples are read through the
    pool's fill, so a slot no call has read yet is built here."""
    words = table.words
    dom = sorted(p for t, _ in chosen for p in words[t].dom)
    profile = words[chosen[0][0]].profile
    return [u for u, w in enumerate(words)
            if list(w.dom) == dom and w.profile == profile
            and all(tuple(e for e in w.entries if e[0] in words[t].dom)
                    in _slot_allowed((t, i), table) for t, i in chosen)]


def reference_pool_extractions(bw, pool):
    """The extracted variable words of bw that lie in the pool, built as
    star products of bw's members alone."""
    return extracted_sets(bw).variables & frozenset(pool)


def reference_hereditary_part(keys, table):
    """The keys of a compiled pool whose extraction chains are all keys
    (none when the empty tuple is not one), every chain of every key
    walked."""
    return {key for key in keys
            if all(chain in keys for chain in _extraction_chains(key, table))}


def _reference_extraction_tuples(bw, pool):
    """Every rel_r1-increasing tuple, the empty one included, over the
    extracted variable words of bw that lie in the pool; chains grow by
    testing every pair of words."""
    ws = sorted(reference_pool_extractions(bw, pool), key=word_sort_key)
    out, frontier = {EMPTY_TUPLE}, [()]
    while frontier:
        frontier = [c + (w,) for c in frontier for w in ws if not c or rel_r1(c[-1], w)]
        out.update(make_tuple(c) for c in frontier)
    return out


def reference_hereditary_closure(family, pool):
    """The family closed under pool-relative extraction tuples of its
    members, the empty tuple included."""
    pool = _reference_pool(family, pool)
    return WordFamily({EMPTY_TUPLE}.union(*(_reference_extraction_tuples(bw, pool)
                                            for bw in family.members)))


def reference_largest_hereditary(family, pool):
    """The members all of whose pool-relative extraction tuples are
    members (the empty tuple among them), plus the empty tuple."""
    pool = _reference_pool(family, pool)
    return WordFamily({EMPTY_TUPLE} | {bw for bw in family.members
                                       if _reference_extraction_tuples(bw, pool)
                                       <= family.members})


def reference_cb_derivative(family, pool, tau):
    """The derivative by definition, with the library's checks and error
    messages: a pool word t is blocked at a member bw unless it surrounds
    bw's last word and the tuple bw followed by t is a member; bw stays
    when its blocked words hold no rel_r1-chain of length tau."""
    if tau < 1:
        raise FamilyError("tau must be >= 1")
    pool = _reference_pool(family, pool)
    if reference_hereditary_closure(family, pool) != family:
        raise FamilyError("derivative needs a hereditary family")
    kept = set()
    for bw in family.members:
        blocked = [t for t in pool if (len(bw) and not rel_r1(bw[-1], t))
                   or make_tuple(bw.words + (t,)) not in family.members]
        if _reference_longest_chain(blocked) < tau:
            kept.add(bw)
    return WordFamily(kept)


def reference_set_family_cb_index(m, n_max, tau):
    """The Cantor-Bendixson index of the downward closure of the m-subsets
    of {1..n_max} by definition, with the library's argument checks: every
    set is built, and each derivative tests every set against every ground
    element for failing extensions."""
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
