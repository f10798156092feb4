"""Exact sparse multivariate polynomials over QQ or a prime field.

A polynomial is an immutable list of (monomial, coefficient) terms kept
strictly descending in the ring's monomial order, with no zero
coefficients.  A ring may carry a base ideal J0, in which case its
elements are representatives in the free polynomial ring k[x1..xn] and
reduction modulo J0 is performed by the Groebner layer, never here.
Arithmetic is always exact: Fraction coefficients for QQ, residues in
[0, p) for GF(p).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RationalField",
    "PrimeField",
    "QQ",
    "GF",
    "MonomialOrder",
    "Polynomial",
    "RingSpec",
    "RingMismatchError",
    "PolyParseError",
    "extend_ring",
    "reduce",
    "mono_mul",
    "mono_div",
    "mono_divides",
    "mono_lcm",
    "mono_deg",
]


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class PolyParseError(ValueError):
    """Malformed polynomial expression; carries the offset of the error."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# coefficient fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The rationals; scalars are Fraction values in lowest terms."""

    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, value) -> Fraction:
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a / b

    def format(self, a) -> str:
        return str(a)

    def is_negative(self, a) -> bool:
        return a < 0

    def abs(self, a):
        return abs(a)

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p; scalars are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**63):
            raise ValueError(f"prime must satisfy 2 <= p < 2^63, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self):
        return f"Fp({self.p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def format(self, a) -> str:
        return str(a)

    def is_negative(self, a) -> bool:
        return False

    def abs(self, a):
        return a

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    """True if a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a) -> int:
    return sum(a)


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _plain_key(kind, m):
    if kind == "lex":
        return m
    if kind == "grevlex":
        return _grevlex_key(m)
    raise ValueError(f"unknown order kind {kind!r}")


def _plain_neg_key(kind, m):
    if kind == "lex":
        return tuple(-e for e in m)
    if kind == "grevlex":
        return (-sum(m), m[::-1])
    raise ValueError(f"unknown order kind {kind!r}")


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on exponent tuples.

    kind "block" compares a leading block of `block` variables first
    (grevlex within the block), which makes the block an elimination
    block; the remaining variables are compared with `tail_kind`.  An
    optional permutation reorders the exponent vector before comparison,
    so any subset of variables can be moved into the block.
    """

    kind: str = "grevlex"
    block: int = 0
    tail_kind: str = "grevlex"
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and self.block < 1:
            raise ValueError("block order needs a positive block size")

    def key(self, mono):
        if self.permutation is not None:
            mono = tuple(mono[i] for i in self.permutation)
        if self.kind == "block":
            return (_grevlex_key(mono[: self.block]),
                    _plain_key(self.tail_kind, mono[self.block:]))
        return _plain_key(self.kind, mono)

    def neg_key(self, mono):
        """A key whose ascending order is this order's descending one, so
        a min-heap of neg_keys pops the largest monomial first."""
        if self.permutation is not None:
            mono = tuple(mono[i] for i in self.permutation)
        if self.kind == "block":
            return (_plain_neg_key("grevlex", mono[: self.block]),
                    _plain_neg_key(self.tail_kind, mono[self.block:]))
        return _plain_neg_key(self.kind, mono)

    def describe(self) -> str:
        if self.kind == "block":
            text = f"block({self.block},{self.tail_kind})"
        else:
            text = self.kind
        if self.permutation is not None:
            text += "@" + ",".join(str(i) for i in self.permutation)
        return text


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial; terms strictly descending, no zeros."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_deg(m) for m, _ in self.terms)

    def coefficient(self, mono):
        for m, c in self.terms:
            if m == mono:
                return c
        return self.ring.field.zero

    def constant_value(self):
        """Coefficient of the constant monomial."""
        return self.coefficient((0,) * len(self.ring.variables))

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m, _ in self.terms)

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"mixed rings: {self.ring.describe()} vs {other.ring.describe()}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        field = self.ring.field
        for m, c in other.terms:
            acc[m] = field.add(acc.get(m, field.zero), c)
        return self.ring.poly_from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, tuple((m, field.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = field.add(acc.get(m, field.zero), field.mul(c1, c2))
        return self.ring.poly_from_dict(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        field = self.ring.field
        c = field.coerce(c)
        if c == field.zero:
            return self.ring.zero
        return Polynomial(self.ring, tuple((m, field.mul(k, c)) for m, k in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff))

    def monomial_mul(self, mono, coeff=None):
        """Multiply by a single term (monomial, optional coefficient)."""
        field = self.ring.field
        if coeff is None:
            coeff = field.one
        return Polynomial(
            self.ring,
            tuple((mono_mul(m, mono), field.mul(c, coeff)) for m, c in self.terms),
        )

    # -- comparison / hashing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        return self.ring.format_poly(self)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# ring specification


class RingSpec:
    """Variables, coefficient field, monomial order, optional base ideal.

    With a nonempty base ideal J0 the spec denotes A = k[x1..xn]/J0;
    polynomials are still free-ring representatives.
    """

    __slots__ = ("variables", "field", "order", "_base_terms", "_var_index",
                 "_key", "_hash", "_base_cache", "_zero_ideal")

    def __init__(self, variables, field, order=None, base=()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", v):
                raise ValueError(f"bad variable name {v!r}")
        self.variables = variables
        self.field = field
        self.order = order if order is not None else MonomialOrder("grevlex")
        base_terms = []
        for g in base:
            if isinstance(g, Polynomial):
                if (g.ring.variables != variables or g.ring.field != field):
                    raise RingMismatchError("base generator from an incompatible ring")
                base_terms.append(g.terms)
            else:
                base_terms.append(tuple(g))
        self._base_terms = tuple(base_terms)
        self._var_index = {v: i for i, v in enumerate(variables)}
        self._key = (self.variables, self.field, self.order, self._base_terms)
        self._hash = hash(self._key)
        self._base_cache = None
        self._zero_ideal = None  # set by groebner.zero_ideal

    # -- identity

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self._key == other._key

    def __hash__(self):
        return self._hash

    def describe(self) -> str:
        text = f"{self.field.name}[{','.join(self.variables)}]"
        if self._base_terms:
            text += " / (" + ", ".join(str(g) for g in self.base_ideal) + ")"
        return text + f" order {self.order.describe()}"

    def __repr__(self):
        return f"<RingSpec {self.describe()}>"

    def payload(self) -> dict:
        return {
            "variables": list(self.variables),
            "field": self.field.name,
            "order": self.order.describe(),
            "base_ideal": [str(g) for g in self.base_ideal],
        }

    # -- element constructors

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    @property
    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, value) -> Polynomial:
        c = self.field.coerce(value)
        if c == self.field.zero:
            return Polynomial(self, ())
        return Polynomial(self, (((0,) * self.nvars, c),))

    def gen(self, name) -> Polynomial:
        i = self._var_index.get(name)
        if i is None:
            raise KeyError(f"no variable {name!r} in {self.describe()}")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((mono, self.field.one),))

    def gens(self):
        return tuple(self.gen(v) for v in self.variables)

    def monomial(self, exponents, coeff=1) -> Polynomial:
        exponents = tuple(exponents)
        if len(exponents) != self.nvars or any(e < 0 for e in exponents):
            raise ValueError("bad exponent vector")
        c = self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((exponents, c),))

    def poly_from_dict(self, acc: dict) -> Polynomial:
        zero = self.field.zero
        items = [(m, c) for m, c in acc.items() if c != zero]
        items.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(items))

    @property
    def base_ideal(self) -> tuple:
        if self._base_cache is None:
            self._base_cache = tuple(Polynomial(self, t) for t in self._base_terms)
        return self._base_cache

    @property
    def is_quotient(self) -> bool:
        return bool(self._base_terms)

    # -- derived rings

    def quotient(self, extra_gens) -> "RingSpec":
        """Spec for A/(extra); base generators accumulate."""
        gens = list(self.base_ideal)
        for g in extra_gens:
            if g.ring != self:
                raise RingMismatchError("quotient generator from a different ring")
            if g:
                gens.append(g)
        return RingSpec(self.variables, self.field, self.order, gens)

    def poly_ring(self) -> "RingSpec":
        """The same spec with the base ideal dropped."""
        if not self._base_terms:
            return self
        return RingSpec(self.variables, self.field, self.order)

    def rehome(self, f: Polynomial) -> Polynomial:
        """Adopt a polynomial from a spec with the same variables/field."""
        if f.ring.variables != self.variables or f.ring.field != self.field:
            raise RingMismatchError("cannot rehome across different variables or fields")
        return self.poly_from_dict(dict(f.terms))

    # -- text form

    def format_monomial(self, mono) -> str:
        parts = []
        for v, e in zip(self.variables, mono):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def format_poly(self, f: Polynomial) -> str:
        if not f.terms:
            return "0"
        field = self.field
        chunks = []
        for i, (m, c) in enumerate(f.terms):
            negative = field.is_negative(c)
            mag = field.abs(c)
            mono_text = self.format_monomial(m)
            if not mono_text:
                body = field.format(mag)
            elif mag == field.one:
                body = mono_text
            else:
                body = f"{field.format(mag)}*{mono_text}"
            if i == 0:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f" - {body}" if negative else f" + {body}")
        return "".join(chunks)

    def parse(self, text: str, names: dict | None = None) -> Polynomial:
        return _ExprParser(self, text, names or {}).run()


# ---------------------------------------------------------------------------
# division


def reduce(f: Polynomial, divisors) -> tuple[Polynomial, list]:
    """Full multivariate division: f = sum(q_i * g_i) + r.

    No monomial of r is divisible by the leading monomial of any divisor.
    Deterministic: at each step the first dividing g_i in list order is
    used.  Returns (remainder, quotients).
    """
    ring = f.ring
    field = ring.field
    divisors = list(divisors)
    for g in divisors:
        if not isinstance(g, Polynomial) or g.ring != ring:
            raise RingMismatchError("divisor from a different ring")
        if not g:
            raise ValueError("zero divisor polynomial")
    neg_key = ring.order.neg_key
    zero = field.zero
    # a cancelled term stays in `work` as a zero, so each is queued once
    work = dict(f.terms)
    heap = [(neg_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    quotients = [dict() for _ in divisors]
    leads = [(g.lead_monomial, g.lead_coeff) for g in divisors]
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono)
        if coeff == zero:
            continue
        for i, (lm, lc) in enumerate(leads):
            if mono_divides(lm, mono):
                shift = mono_div(mono, lm)
                factor = field.div(coeff, lc)
                q = quotients[i]
                q[shift] = field.add(q.get(shift, zero), factor)
                for m2, c2 in divisors[i].terms[1:]:
                    m = mono_mul(m2, shift)
                    if m not in work:
                        heapq.heappush(heap, (neg_key(m), m))
                    work[m] = field.sub(work.get(m, zero), field.mul(c2, factor))
                break
        else:
            remainder[mono] = coeff
    r = ring.poly_from_dict(remainder)
    qs = [ring.poly_from_dict(q) for q in quotients]
    return r, qs


# ---------------------------------------------------------------------------
# ring extension (auxiliary variables, eliminated first)


@dataclass(frozen=True)
class RingExtension:
    """Extension of a ring by leading auxiliary variables.

    The new variables form an elimination block in front of the old
    ones, so a Groebner basis in the extended ring eliminates them.
    """

    base: RingSpec
    ring: RingSpec
    added: tuple[str, ...]

    def embed(self, f: Polynomial) -> Polynomial:
        # representatives from the base ring or any quotient of it are fine
        if (f.ring.variables != self.base.variables
                or f.ring.field != self.base.field):
            raise RingMismatchError("embed expects an element of the base ring")
        pad = (0,) * len(self.added)
        return self.ring.poly_from_dict({pad + m: c for m, c in f.terms})

    def contract(self, f: Polynomial) -> Polynomial:
        """Inverse of embed; fails if f involves an added variable."""
        if f.ring != self.ring:
            raise RingMismatchError("contract expects an element of the extended ring")
        k = len(self.added)
        acc = {}
        for m, c in f.terms:
            if any(m[:k]):
                raise ValueError(f"{f} involves auxiliary variables")
            acc[m[k:]] = c
        return self.base.poly_from_dict(acc)

    def uses_added(self, f: Polynomial) -> bool:
        k = len(self.added)
        return any(any(m[:k]) for m, _ in f.terms)


def extend_ring(ring: RingSpec, new_vars) -> RingExtension:
    new_vars = tuple(new_vars)
    for v in new_vars:
        if v in ring.variables:
            raise ValueError(f"variable {v!r} already present")
    if len(set(new_vars)) != len(new_vars):
        raise ValueError("new variable names must be distinct")
    if ring.order.kind == "block" or ring.order.permutation is not None:
        raise ValueError("cannot extend a ring that already has a block order")
    order = MonomialOrder("block", block=len(new_vars), tail_kind=ring.order.kind)
    bare = RingSpec(new_vars + ring.variables, ring.field, order)
    ext = RingExtension(ring, bare, new_vars)
    if ring.is_quotient:
        base = [ext.embed(g) for g in ring.base_ideal]
        full = RingSpec(new_vars + ring.variables, ring.field, order, base)
        ext = RingExtension(ring, full, new_vars)
    return ext


# ---------------------------------------------------------------------------
# expression parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<op>[-+*/^()]))"
)


def tokenize_expression(text: str):
    """Yield (kind, value, offset) tokens; raises PolyParseError."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolyParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for +, -, *, /, ^ and parentheses.

    '/' is division by a nonzero constant; '^' takes a non-negative
    integer exponent.  Names resolve to ring variables first, then to
    entries of the supplied name table.
    """

    def __init__(self, ring, text, names):
        self.ring = ring
        self.text = text
        self.names = names
        self.tokens = tokenize_expression(text)
        self.i = 0

    def run(self) -> Polynomial:
        if not self.tokens:
            raise PolyParseError("empty expression", 0)
        value = self.expr()
        if self.i != len(self.tokens):
            kind, val, pos = self.tokens[self.i]
            raise PolyParseError(f"unexpected token {val!r}", pos)
        return value

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = value * self.factor()
            elif kind == "op" and val == "/":
                self.take()
                rhs = self.factor()
                if not rhs.is_constant() or rhs.is_zero:
                    raise PolyParseError("division only by a nonzero constant", pos)
                value = value.scale(self.ring.field.inv(rhs.constant_value()))
            else:
                return value

    def factor(self) -> Polynomial:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.factor()
        if kind == "op" and val == "+":
            self.take()
            return self.factor()
        value = self.primary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.take()
                kind, exp, epos = self.take()
                if kind != "int":
                    raise PolyParseError("exponent must be an integer", epos)
                value = value**exp
            else:
                return value

    def primary(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "int":
            return self.ring.constant(val)
        if kind == "name":
            if val in self.ring._var_index:
                return self.ring.gen(val)
            if val in self.names:
                f = self.names[val]
                if f.ring != self.ring:
                    raise PolyParseError(f"name {val!r} belongs to a different ring", pos)
                return f
            raise PolyParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            value = self.expr()
            kind, val, pos = self.take()
            if not (kind == "op" and val == ")"):
                raise PolyParseError("expected ')'", pos)
            return value
        raise PolyParseError("expected a value", pos)
