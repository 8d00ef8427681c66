"""Cantor normal form ordinal arithmetic below epsilon_0.

Ordinals are represented as sums w^a1*c1 + ... + w^am*cm with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients.  Besides comparison and classification, the module fixes the
fundamental sequences for limit ordinals, the one descent step (an exponent
lowered by one, a limit read at a fundamental member first) and the
predecessor sequences that drive the Schreier recursion.
"""

from __future__ import annotations

from functools import total_ordering


DESCENT_CAP = 10_000  # the most steps predecessor_sequence takes
# the deepest exponent nesting parse_ordinal reads; compare,
# fundamental_sequence and format_ordinal recurse once per level
MAX_NESTING = 100
ECHO_LIMIT = 160  # characters of a bad input, and of the reason, that an error quotes


class OrdinalError(ValueError):
    pass


def _echo(text: str, show=repr) -> str:
    """text as an error quotes it: show(text), or past ECHO_LIMIT
    characters show of the first ECHO_LIMIT and the length."""
    if len(text) <= ECHO_LIMIT:
        return show(text)
    return "%s... (%d characters)" % (show(text[:ECHO_LIMIT]), len(text))


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting a field of an immutable value."""


def _values(record: "Record") -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


class Record:
    """The base of the package's values, with no `dataclasses`: each
    command is one process, and `dataclasses`, with the `inspect` it
    loads, was over a third of `import zwords`.

    A subclass names its fields in `_fields`, in constructor order.  Two
    values are equal when they are of one class and their field tuples
    are equal; against any other object `__eq__` answers NotImplemented.
    The repr is `Class(field=value, ...)` under the class's qualified
    name, so a subclass is named as itself.  A Record is mutable and
    unhashable; `Frozen` below is the immutable kind.  These are plain
    methods that read `_fields` on each call, so the base does no work
    per class.  A subclass writes its own equality or hash only where a
    kernel loop calls it, giving the answers the base would, and its own
    repr only to print its text; a test lists those overrides.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join(["%s=%r" % (name, getattr(self, name))
                                      for name in self._fields]))


class Frozen(Record):
    """An immutable Record.  A subclass names in `__slots__` its fields
    and any values it keeps once worked out (a hash, say), and fills them
    in `__init__` past the `__setattr__` below, which refuses assignment
    and deletion with FrozenInstanceError (an AttributeError).  It hashes
    its field tuple and pickles by rebuilding from its fields, so a kept
    value, which may follow the hash seed, is worked out afresh in a
    copy."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __reduce__(self) -> tuple:
        return type(self), _values(self)


@total_ordering
class Ordinal(Frozen):
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with exponents
    strictly decreasing and coefficients >= 1.  Zero is the empty tuple.
    """

    __slots__ = ("terms", "_hash")
    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple["Ordinal", int], ...] = ()) -> None:
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise OrdinalError("malformed term %r" % ((exp, coeff),))
            if coeff < 1:
                raise OrdinalError("coefficient must be >= 1")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if compare(e1, e2) <= 0:
                raise OrdinalError("exponents must be strictly decreasing")
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other: object) -> bool:
        # the base's, written out: schreier's kernels call it in their loops
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # computed on first use and kept, so a hash does not re-hash the
        # nested terms; the value is the hash of the field tuple
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.terms,)))
            return self._hash

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.is_finite:
            raise OrdinalError("%s is not finite" % self)
        return self.terms[0][1] if self.terms else 0

    def __lt__(self, other: "Ordinal") -> bool:
        return compare(self, other) < 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return "Ordinal(%r)" % format_ordinal(self)


def _cnf(terms: tuple[tuple[Ordinal, int], ...]) -> Ordinal:
    """An Ordinal from terms this module already knows are in Cantor
    normal form; skips the checks of the public constructor."""
    a = object.__new__(Ordinal)
    object.__setattr__(a, "terms", terms)
    return a


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise OrdinalError("ordinals are non-negative")
    return Ordinal(((ZERO, n),)) if n else ZERO


def omega_power(exp: Ordinal, coeff: int = 1) -> Ordinal:
    return Ordinal(((exp, coeff),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total CNF order: -1, 0 or 1 as a <, =, > b."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def classify(a: Ordinal) -> str:
    """Return 'zero', 'successor' or 'limit'."""
    if a.is_zero:
        return "zero"
    return "successor" if a.is_successor else "limit"


def successor(a: Ordinal) -> Ordinal:
    if a.is_successor:
        head, (exp, coeff) = a.terms[:-1], a.terms[-1]
        return _cnf(head + ((exp, coeff + 1),))
    return _cnf(a.terms + ((ZERO, 1),))


def successor_pred(a: Ordinal) -> Ordinal:
    """The predecessor of a successor ordinal."""
    if not a.is_successor:
        raise OrdinalError("%s is not a successor" % a)
    return _drop_last_unit(a)[0]


def _drop_last_unit(a: Ordinal) -> tuple[Ordinal, Ordinal]:
    """Split a into (rest, w^e) where w^e is one copy of the last CNF term."""
    head, (exp, coeff) = a.terms[:-1], a.terms[-1]
    rest = _cnf(head + ((exp, coeff - 1),)) if coeff > 1 else _cnf(head)
    return rest, exp


def _check_index(n: int) -> None:
    if not isinstance(n, int):
        raise OrdinalError("index must be an integer: %r" % (n,))
    if n < 1:
        raise OrdinalError("index must be >= 1")


def fundamental_sequence(lam: Ordinal, n: int) -> Ordinal:
    """The fixed n-th member of the fundamental sequence of the limit lam.

    Wainer-style assignment with the result bumped by one whenever it is
    not already a successor, so every member is a successor ordinal, the
    sequence is strictly increasing and its supremum is lam.
    """
    _check_index(n)
    if not lam.is_limit:
        raise OrdinalError("fundamental sequence undefined for %s" % lam)
    prefix, exp = _drop_last_unit(lam)
    if exp.is_successor:
        last = (successor_pred(exp), n)
    else:
        last = (fundamental_sequence(exp, n), 1)
    raw = _cnf(prefix.terms + (last,))
    return raw if raw.is_successor else successor(raw)


def _lower(exp: Ordinal, n: int) -> Ordinal:
    """The one descent step: exp less one, a limit exp read at its n-th
    fundamental member first (which is always a successor)."""
    if exp.is_limit:
        exp = fundamental_sequence(exp, n)
    return _drop_last_unit(exp)[0]


def predecessor_sequence(xi: Ordinal, n: int) -> Ordinal:
    """The concrete xi_n with A_xi(n) = A_{xi_n} restricted above n.

    Constant (= xi - 1) for successors; strictly increasing with
    supremum xi for limits, mirroring the case split of the Schreier
    recursion: xi less one copy of its last term w^e, then w^b*(n - 1)
    for each b that the descent from e lowers to, by _lower, the step
    that the Schreier parse also expands a copy with.
    """
    _check_index(n)
    if xi.is_zero:
        raise OrdinalError("predecessor sequence undefined for 0")
    rest, exp = _drop_last_unit(xi)
    if n == 1:  # every step would add w^b*0: nothing
        return rest
    terms = list(rest.terms)
    steps = 0
    while not exp.is_zero:
        steps += 2 if exp.is_limit else 1  # reading e_n is a step of its own
        if steps > DESCENT_CAP:
            raise OrdinalError("predecessor sequence at n = %d takes more than %d steps"
                               % (n, DESCENT_CAP))
        exp = _lower(exp, n)
        terms.append((exp, n - 1))
    return _cnf(tuple(terms))


# --- text grammar (shared with the CLI) ---------------------------------
#
# ordinal := term ('+' term)*
# term    := nat | 'w' ['^' exponent] ['*' nat]
# exponent:= nat | 'w' ['^' exponent] | '(' ordinal ')'
#
# Compound exponents (sums or coefficients) must be parenthesized.


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        base = _format_power(exp)
        parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
    return "+".join(parts)


def _format_power(exp: Ordinal) -> str:
    """w^exp as the production 'w' ['^' exponent]."""
    return "w" if compare(exp, ONE) == 0 else "w^" + _format_exponent(exp)


def _format_exponent(e: Ordinal) -> str:
    if e.is_finite:
        return str(e.as_int())
    if len(e.terms) == 1 and e.terms[0][1] == 1:
        return _format_power(e.terms[0][0])
    return "(" + format_ordinal(e) + ")"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise OrdinalError("expected %r at %d in %s" % (ch, self.pos, _echo(self.text)))
        self.pos += 1

    def nat(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise OrdinalError("expected number at %d in %s" % (self.pos, _echo(self.text)))
        return int(self.text[start:self.pos])

    def ordinal(self, depth: int = 0) -> Ordinal:
        terms = [self.term(depth)]
        while self.peek() == "+":
            self.take("+")
            terms.append(self.term(depth))
        flat: list[tuple[Ordinal, int]] = []
        for t in terms:
            if t.is_zero:
                raise OrdinalError("zero term in sum: %s" % _echo(self.text))
            flat.extend(t.terms)
        try:
            return Ordinal(tuple(flat))
        except OrdinalError as exc:
            raise OrdinalError("%s in %s" % (exc, _echo(self.text))) from None

    def term(self, depth: int) -> Ordinal:
        if self.peek().isdigit():
            return from_int(self.nat())
        exp = self.power(depth)
        coeff = 1
        if self.peek() == "*":
            self.take("*")
            coeff = self.nat()
        if coeff < 1:
            raise OrdinalError("zero coefficient in %s" % _echo(self.text))
        return omega_power(exp, coeff)

    def power(self, depth: int) -> Ordinal:
        """'w' ['^' exponent]: the exponent, 1 when there is no '^'."""
        self.take("w")
        if self.peek() != "^":
            return ONE
        self.take("^")
        if depth >= MAX_NESTING:
            raise OrdinalError("exponents nested more than %d deep" % MAX_NESTING)
        return self.exponent(depth + 1)

    def exponent(self, depth: int) -> Ordinal:
        if self.peek() == "(":
            self.take("(")
            inner = self.ordinal(depth)
            self.take(")")
            return inner
        if self.peek().isdigit():
            return from_int(self.nat())
        return omega_power(self.power(depth))


def parse_ordinal(text: str) -> Ordinal:
    text = text.strip()
    if text == "0":
        return ZERO
    p = _Parser(text)
    result = p.ordinal()
    if p.pos != len(text):
        raise OrdinalError("trailing input at %d in %s" % (p.pos, _echo(text)))
    return result
