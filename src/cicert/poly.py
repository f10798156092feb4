"""Exact sparse multivariate polynomials over QQ or a prime field.

A polynomial is immutable: a dict of (monomial, coefficient) terms kept
strictly descending in the ring's monomial order, with no zero
coefficients.  A ring may carry a base ideal J0, in which case its
elements are representatives in the free polynomial ring k[x1..xn];
reduction modulo J0 needs J0's basis, which the Groebner layer keeps.
Arithmetic is always exact.  A field is its characteristic (`Field`), and
a coefficient is a plain Python number: an int, or a Fraction whose
denominator is not 1, over QQ; a residue in [0, p) over GF(p).  Sums and
products work on raw numbers, and `RingSpec._from_keys` is the one place
that normalises them (mod p, or a Fraction with denominator 1 to an int).

This module owns the three kernels the other layers share: the tokens
of the session language (`tokenize`), the expression grammar
(`parse_expression`, which parses from any token list and stops at the
first token that cannot continue the expression) and the division loop
(`_vec_reduce`), which reduces vectors for the Groebner layer and is
what `reduce` runs.  The loop is fraction-free for both fields: it
multiplies and subtracts plain ints against basis entries that are
primitive int vectors over QQ and monic residue vectors over GF(p).  It
divides by the entries of a `_Reducers`, which remembers for each term
key where the key's first divisor is, so a term that comes back costs
one lead test.

A monomial is one int, its packed key (Bachmann and Schoenemann, ISSAC
1998).  Every order here compares linear forms with 0/1 weights
lexicographically: lex the single exponents, grevlex on y1..yk the
degree and then the partial sums y1+..+y(k-1), ..., y1, a block order
the grevlex forms of its leading block and then those of its tail kind
on the other variables.  A ring's `MonomialPacker` puts those
forms in 32-bit fields, most significant first, and below them one
field for each exponent that no form holds alone.  So the integer order
of packed ints is the monomial order, a product is one `+`, and since
every exponent has a field, `a | b` is `((b | G) - a) & G == G` for the
mask G of the fields' top bits.  That top bit is a guard: a field holds
at most EXPONENT_LIMIT = 2^31 - 1, which packing checks and the guard
test checks on each term a product, a reduction or an S-pair forms;
past it the kernel raises ExponentOverflowError (a ValueError) and
never wraps.  A vector term subtracts its position times
2^(fields * 32), so position 0 is strongest and a weaker position gives
a smaller key; a polynomial's dict is the vector at position 0.
Exponent tuples are packed where they come in (`gen`, `monomial`,
`poly_from_dict`, `rehome` into another ring's variables or order) and
unpacked where they go out (`terms`, `lead_monomial`, printing).
"""

from __future__ import annotations

import heapq
import operator
import re
from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple

__all__ = [
    "Field",
    "QQ",
    "GF",
    "MonomialOrder",
    "Polynomial",
    "RingSpec",
    "RingMismatchError",
    "PolyParseError",
    "Token",
    "tokenize",
    "parse_expression",
    "reduce",
    "MonomialPacker",
    "ExponentOverflowError",
    "EXPONENT_LIMIT",
    "PAREN_DEPTH_LIMIT",
]


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class PolyParseError(ValueError):
    """Malformed polynomial expression; carries the offset of the error."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
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


def _integral(q):
    """q, or its numerator when q is a Fraction with denominator 1."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


class Field:
    """QQ when `characteristic` is 0, else GF(p) for the prime p.  A field
    is its characteristic: a scalar is a plain Python number, an int or a
    Fraction in lowest terms with denominator not 1 over QQ, an int in
    [0, p) over GF(p).  Arithmetic adds and multiplies these numbers
    directly, and `RingSpec._from_keys` normalises its results in one
    place.  No scalar is ever a float: `coerce` takes only ints and
    Fractions.  A field is made as `QQ` or by `GF(p)`, which checks p."""

    def __init__(self, characteristic: int):
        self.characteristic = characteristic

    def __eq__(self, other):
        if other.__class__ is not Field:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    @property
    def name(self):
        p = self.characteristic
        return f"Fp({p})" if p else "QQ"

    def coerce(self, value):
        p = self.characteristic
        if isinstance(value, int):
            return value % p if p else value
        if not isinstance(value, Fraction):
            raise TypeError(f"a scalar must be an int or a Fraction, got {value!r}")
        if not p:
            return _integral(value)
        if value.denominator % p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return value.numerator * pow(value.denominator, -1, p) % p

    def inv(self, a):
        p = self.characteristic
        if (a % p if p else a) == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, p) if p else _integral(1 / Fraction(a))

    def __repr__(self):
        p = self.characteristic
        return f"GF({p})" if p else "QQ"


QQ = Field(0)


def GF(p: int) -> Field:
    if not (2 <= p < 2**63):
        raise ValueError(f"prime must satisfy 2 <= p < 2^63, got {p}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Field(p)


# ---------------------------------------------------------------------------
# monomial orders and packed monomials


class MonomialOrder:
    """Total multiplicative well-order on monomials; `_order_forms`
    gives its definition, as the linear forms it compares.

    kind "block" compares a leading block of `block` variables first
    (grevlex within the block), which makes the block an elimination
    block; the remaining variables are compared with `tail_kind`.  Other
    variables are eliminated by putting them first in a ring of their
    own, which `RingSpec.rehome` moves polynomials into by name.
    """

    def __init__(self, kind: str = "grevlex", block: int = 0, tail_kind: str = "grevlex"):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "block" and block < 1:
            raise ValueError("block order needs a positive block size")
        if tail_kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown tail order kind {tail_kind!r}")
        self.kind = kind
        self.block = block
        self.tail_kind = tail_kind

    def _values(self):
        return self.kind, self.block, self.tail_kind

    def __eq__(self, other):
        if other.__class__ is not MonomialOrder:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def describe(self) -> str:
        if self.kind == "block":
            return f"block({self.block},{self.tail_kind})"
        return self.kind


_FIELD_BITS = 32
EXPONENT_LIMIT = (1 << (_FIELD_BITS - 1)) - 1  # the largest value of a field


class ExponentOverflowError(ValueError):
    """A monomial has a packed field past EXPONENT_LIMIT."""

    def __init__(self):
        super().__init__(
            "monomial too large to pack: every exponent, and every degree the "
            f"monomial order compares, must be at most 2^31 - 1 = {EXPONENT_LIMIT}")


def _order_forms(order: MonomialOrder, nvars: int) -> list[tuple[int, ...]]:
    """The order as linear forms with 0/1 weights, each the tuple of the
    variables it sums, compared lexicographically."""
    xs = tuple(range(nvars))

    def forms(kind, ys):
        if kind == "lex":
            return [(y,) for y in ys]
        # grevlex: the degree, then y1+..+y(k-1), ..., y1
        return [ys[:j] for j in range(len(ys), 0, -1)]

    if order.kind == "block":
        return (forms("grevlex", xs[:order.block])
                + forms(order.tail_kind, xs[order.block:]))
    return forms(order.kind, xs)


class MonomialPacker:
    """Packs the exponent tuples of one ring into ints whose integer order
    is the ring's monomial order; see the module docstring for the layout.

    `size` is the bit length of the monomial part, `guards` the mask of
    the fields' guard bits, and `divmask` that mask with every bit from
    `size` up set, so that for a term key k and a lead key b,
    `((k | guards) - b) & divmask == guards` holds exactly when b is at
    k's position and its monomial divides k's.
    """

    __slots__ = ("size", "mask", "guards", "divmask", "_fields", "_units", "_shifts",
                 "_degree_shifts")

    def __init__(self, order: MonomialOrder, nvars: int):
        forms = _order_forms(order, nvars)
        alone = {f[0] for f in forms if len(f) == 1}
        fields = forms + [(i,) for i in range(nvars) if i not in alone]
        shifts = [(len(fields) - 1 - j) * _FIELD_BITS for j in range(len(fields))]
        self.size = len(fields) * _FIELD_BITS
        self.mask = (1 << self.size) - 1
        self.guards = sum(1 << (s + _FIELD_BITS - 1) for s in shifts)
        self.divmask = self.guards - (1 << self.size)
        self._fields = tuple(fields)
        # the packed variable x_i, and the shift of the field holding e_i alone
        self._units = tuple(sum(1 << s for s, f in zip(shifts, fields) if i in f)
                            for i in range(nvars))
        self._shifts = tuple(shifts[fields.index((i,))] for i in range(nvars))
        # fields that partition the variables, taken in order, so they sum
        # to the degree: grevlex's first field alone, every field of lex
        covered, degree_shifts = set(), []
        for s, f in zip(shifts, fields):
            if covered.isdisjoint(f):
                covered.update(f)
                degree_shifts.append(s)
        self._degree_shifts = tuple(degree_shifts)

    def pack(self, mono, pos: int = 0) -> int:
        # no field exceeds the total degree, so fields are summed only past it
        if sum(mono) > EXPONENT_LIMIT and any(
                sum(mono[i] for i in f) > EXPONENT_LIMIT for f in self._fields):
            raise ExponentOverflowError()
        return sum(map(operator.mul, mono, self._units)) - (pos << self.size)

    def degree(self, key: int) -> int:
        """Total degree of a key's monomial; the position does not count."""
        mono = key & self.mask
        d = 0
        for s in self._degree_shifts:
            d += (mono >> s) & EXPONENT_LIMIT
        return d

    def unpack(self, key: int) -> tuple[int, tuple[int, ...]]:
        """(position, exponent tuple) of a key."""
        mono = key & self.mask
        return (mono - key) >> self.size, tuple(
            (mono >> s) & EXPONENT_LIMIT for s in self._shifts)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial.  `vec` is the dict {packed key:
    coefficient}, strictly descending, with no zero coefficient; it is
    never mutated, so polynomials of one packing may share it, and the
    text `_text` is made on the first `str()` and kept."""

    __slots__ = ("ring", "vec", "_text")

    def __init__(self, ring, vec: dict):
        self.ring = ring
        self.vec = vec

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self.vec

    def __bool__(self):
        return bool(self.vec)

    @property
    def terms(self) -> tuple:
        """The (exponent tuple, coefficient) pairs, descending."""
        unpack = self.ring.packer.unpack
        return tuple((unpack(k)[1], c) for k, c in self.vec.items())

    def _lead(self):
        if not self.vec:
            raise ValueError("zero polynomial has no leading term")
        return next(iter(self.vec.items()))

    @property
    def lead_monomial(self):
        return self.ring.packer.unpack(self._lead()[0])[1]

    @property
    def lead_coeff(self):
        return self._lead()[1]

    def total_degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=-1)

    def constant_value(self):
        """Coefficient of the constant monomial, whose key is 0."""
        return self.vec.get(0, 0)

    def is_constant(self) -> bool:
        # every other monomial has a larger key than the constant's 0
        return not self.vec or next(iter(self.vec)) == 0

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
        acc = dict(self.vec)
        for k, c in other.vec.items():
            acc[k] = acc.get(k, 0) + c
        return self.ring._from_keys(acc)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the order and the nonzero terms
        p = self.ring.field.characteristic
        if p:
            return Polynomial(self.ring, {k: -c % p for k, c in self.vec.items()})
        return Polynomial(self.ring, {k: -c for k, c in self.vec.items()})

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
        vec, term = self.vec, other.vec
        if len(vec) == 1:
            vec, term = term, vec
        if len(term) == 1:
            # a monomial order is multiplicative: the shifted keys keep
            # their order, and a product of nonzero scalars is nonzero
            ((k2, c2),) = term.items()
            p = self.ring.field.characteristic
            if p:
                product = Polynomial(self.ring, {k + k2: c * c2 % p for k, c in vec.items()})
            else:
                product = Polynomial(self.ring,
                                     {k + k2: _integral(c * c2) for k, c in vec.items()})
        else:
            acc = {}
            get = acc.get
            for k1, c1 in vec.items():
                for k2, c2 in term.items():
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
            product = self.ring._from_keys(acc)
        # a field's largest value over the terms is taken at a vertex of
        # the Newton polytope, whose term never cancels
        guards = self.ring.packer.guards
        if any(k & guards for k in product.vec):
            raise ExponentOverflowError()
        return product

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        """f^n, by one of two paths that give the same polynomial.

        Write f = a + b with a the lead term.  When no term of b uses a
        variable of a, f^n is the sum over k of C(n, k) a^k b^(n-k): the
        powers of b are formed one product by b at a time, or as one term
        each when b is one term, and the terms of distinct k differ in
        a's variables, so they never collide and are written into one
        dict.  Without collisions, repeated multiplication forms fewer
        term products than squaring (Monagan and Pearce, CASC 2012).
        Otherwise f is squared repeatedly: f a monomial, n < 2, or a
        variable shared, where the squares' terms merge and squaring
        forms fewer products.

        Each field of a packed key is a linear form with 0/1 weights, and
        the initial form of f^n for those weights is (in_w f)^n, which is
        nonzero, so the field's largest value over f^n's terms is n times
        its largest over f's.  So a power of a sum past EXPONENT_LIMIT
        raises before it expands; a monomial's powers stay one term, and
        `__mul__`'s guard test catches them."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        ring, vec = self.ring, self.vec
        if n > 1 and len(vec) > 1:
            for s in range(0, ring.packer.size, _FIELD_BITS):
                if n * max((k >> s) & EXPONENT_LIMIT for k in vec) > EXPONENT_LIMIT:
                    raise ExponentOverflowError()
            (lead, lc), *tail = vec.items()
            unpack = ring.packer.unpack
            used = [i for i, e in enumerate(unpack(lead)[1]) if e]
            if not any(unpack(k)[1][i] for k, _ in tail for i in used):
                p = ring.field.characteristic
                if len(tail) == 1:
                    ((bk, bc),) = tail
                    powers = [{j * bk: pow(bc, j, p) if p else bc ** j} for j in range(n + 1)]
                else:
                    b = Polynomial(ring, dict(tail))
                    powers = [ring.one, b]
                    for _ in range(n - 1):
                        powers.append(powers[-1] * b)
                    powers = [f.vec for f in powers]
                acc = {}
                lc_power = 1  # lc^k
                for k in range(n + 1):
                    coeff, shift = comb(n, k) * lc_power, k * lead
                    for key, c in powers[n - k].items():
                        acc[shift + key] = coeff * c
                    lc_power = lc_power * lc % p if p else lc_power * lc
                return ring._from_keys(acc)
        result = ring.one
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
        if not c:
            return self.ring.zero
        # a nonzero scalar keeps the order and the nonzero terms
        p = field.characteristic
        if p:
            return Polynomial(self.ring, {k: a * c % p for k, a in self.vec.items()})
        return Polynomial(self.ring, {k: _integral(a * c) for k, a in self.vec.items()})

    def monic(self):
        if not self.vec:
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff))

    # -- comparison / hashing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # equal dicts of one ring hold the same terms in the same order
        return self.ring == other.ring and self.vec == other.vec

    def __hash__(self):
        return hash((self.ring, tuple(self.vec.items())))

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            self._text = text = self.ring.format_poly(self)
            return text

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# ring specification


class RingSpec:
    """Variables, coefficient field, monomial order, optional base ideal.

    With a nonempty base ideal J0 the spec denotes A = k[x1..xn]/J0;
    polynomials are still free-ring representatives.
    """

    __slots__ = ("variables", "field", "order", "base_ideal", "_var_index",
                 "_key", "_hash", "_zero_ideal", "_tagged", "_packer", "_monomial_texts")

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
        self._var_index = {v: i for i, v in enumerate(variables)}
        self._packer = None
        self._monomial_texts = {}  # packed key -> its monomial's text
        self.base_ideal = tuple(self.rehome(g) for g in base)
        self._key = (self.variables, self.field, self.order,
                     tuple(tuple(g.vec.items()) for g in self.base_ideal))
        self._hash = hash(self._key)
        self._zero_ideal = None  # set by groebner.zero_ideal
        self._tagged = None  # set by ideals._tagged

    # -- identity

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self._key == other._key

    def __hash__(self):
        return self._hash

    def describe(self) -> str:
        text = f"{self.field.name}[{','.join(self.variables)}]"
        if self.base_ideal:
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
    def packer(self) -> MonomialPacker:
        """The packer of this ring's monomials, made once per ring object."""
        if self._packer is None:
            self._packer = MonomialPacker(self.order, self.nvars)
        return self._packer

    @property
    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    @property
    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, value) -> Polynomial:
        c = self.field.coerce(value)
        return Polynomial(self, {0: c} if c else {})  # 1 packs to 0

    def gen(self, name) -> Polynomial:
        i = self._var_index.get(name)
        if i is None:
            raise KeyError(f"no variable {name!r} in {self.describe()}")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {self.packer.pack(mono): 1})

    def gens(self):
        return tuple(self.gen(v) for v in self.variables)

    def monomial(self, exponents, coeff=1) -> Polynomial:
        exponents = tuple(exponents)
        if len(exponents) != self.nvars or any(e < 0 for e in exponents):
            raise ValueError("bad exponent vector")
        c = self.field.coerce(coeff)
        if not c:
            return self.zero
        return Polynomial(self, {self.packer.pack(exponents): c})

    def poly_from_dict(self, acc: dict) -> Polynomial:
        """The polynomial of a dict {exponent tuple: coefficient}, each
        coefficient an int or a Fraction that the field coerces."""
        pack, coerce = self.packer.pack, self.field.coerce
        return self._from_keys({pack(m): coerce(c) for m, c in acc.items()})

    def _from_keys(self, acc: dict) -> Polynomial:
        """The polynomial of a dict {packed key: raw coefficient}, where a
        raw coefficient is any int over GF(p) and an int or a Fraction
        over QQ.  The one place that normalises sums and products:
        residues taken mod p, a Fraction with denominator 1 made an int,
        zero coefficients dropped, keys sorted descending.  Negation,
        scaling by a nonzero scalar and multiplication by one term keep
        the order and the nonzero terms, so they normalise each value in
        place instead."""
        p = self.field.characteristic
        if p:
            return Polynomial(self, {k: c for k in sorted(acc, reverse=True)
                                     if (c := acc[k] % p)})
        vec = {k: acc[k] for k in sorted((k for k, c in acc.items() if c), reverse=True)}
        for k, c in vec.items():
            if c.__class__ is Fraction and c.denominator == 1:
                vec[k] = c.numerator
        return Polynomial(self, vec)

    @property
    def is_quotient(self) -> bool:
        return bool(self.base_ideal)

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

    def rehome(self, f: Polynomial) -> Polynomial:
        """f as an element of this spec, its terms matched by variable
        name: a variable that f's ring lacks gets exponent 0, and a
        nonzero exponent on a variable this spec lacks raises
        RingMismatchError.  The fields must agree; base ideals are not
        compared.  With the same variables and order the dict is shared;
        otherwise every key is packed again."""
        src = f.ring
        if src.field != self.field:
            raise RingMismatchError("cannot rehome across different fields")
        if src.variables == self.variables and src.order == self.order:
            return Polynomial(self, f.vec)
        # pick reads this spec's exponents off m + (0,): each variable's
        # index in f's ring, or n, the appended 0, for one f's ring lacks.
        # The last n keeps a tuple for one variable; pack reads nvars.
        n = src.nvars
        pick = operator.itemgetter(*[src._var_index.get(v, n) for v in self.variables], n)
        dropped = [i for i, v in enumerate(src.variables) if v not in self._var_index]
        unpack, pack = src.packer.unpack, self.packer.pack
        terms = []
        for k, c in f.vec.items():
            m = unpack(k)[1]
            if dropped and any(m[i] for i in dropped):
                raise RingMismatchError(f"{f} uses a variable not in {self.variables}")
            terms.append((pack(pick(m + (0,))), c))
        # distinct monomials stay distinct, so only the order changes
        return Polynomial(self, dict(sorted(terms, reverse=True)))

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
        """The text of `f`; each monomial's text is made once per ring."""
        if not f.vec:
            return "0"
        texts = self._monomial_texts
        chunks = []
        for k, c in f.vec.items():
            mono_text = texts.get(k)
            if mono_text is None:
                mono_text = texts[k] = self.format_monomial(self.packer.unpack(k)[1])
            sign = " + "
            if c < 0:  # only over QQ
                sign, c = " - ", -c
            if not mono_text:
                body = str(c)
            elif c == 1:
                body = mono_text
            else:
                body = f"{c}*{mono_text}"
            chunks.append(sign)
            chunks.append(body)
        chunks[0] = "-" if chunks[0] == " - " else ""
        return "".join(chunks)

    def parse(self, text: str, names: dict | None = None) -> Polynomial:
        tokens = tokenize(text)
        value, i = parse_expression(self, tokens, 0, names or {})
        if i != len(tokens):
            raise PolyParseError(f"unexpected token {tokens[i].value!r}",
                                 tokens[i].start)
        return value


# ---------------------------------------------------------------------------
# division: one reduction loop for polynomials and vectors
#
# A vector of R^m is a dict keyed by packed term keys, position over term
# with position 0 strongest, kept in descending order; a polynomial's dict
# is a vector at position 0, and a vector's polynomials are its positions
# shifted to 0.


def _vec_from_polys(ring, vec) -> dict:
    size = ring.packer.size
    return {k - (pos << size): c for pos, f in enumerate(vec) for k, c in f.vec.items()}


def _vec_to_polys(ring, rank, vec: dict):
    """The polynomials of a vector dict, which is descending and holds no
    zero coefficient, so each position's terms come out in order."""
    size = ring.packer.size
    buckets = [{} for _ in range(rank)]
    for key, c in vec.items():
        pos = -(key >> size)
        buckets[pos][key + (pos << size)] = c
    return tuple(Polynomial(ring, b) for b in buckets)


class _BasisElt:
    """A basis entry, made from a vector in `_primitive` form: over QQ a
    primitive int vector with positive lead coefficient `lc`, over GF(p)
    a monic one (`lc == 1`).  Its lead is the first key of its dict."""

    __slots__ = ("lead", "lc", "vec", "tail")

    def __init__(self, vec):
        terms = iter(vec.items())
        self.lead, self.lc = next(terms)
        self.vec = vec
        self.tail = list(terms)

    def monic(self) -> dict:
        """The vector divided by its lead coefficient, as `Polynomial`
        holds it: over QQ an int or a Fraction, over GF(p) the vector."""
        lc = self.lc
        if lc == 1:
            return self.vec
        return {k: _integral(Fraction(c, lc)) for k, c in self.vec.items()}


class _Reducers:
    """The list `elts` of `_BasisElt` entries that `_vec_reduce` divides
    by, with its memo: term key -> the index of the first entry whose
    lead divides the key, or the number of entries scanned when none did.

    The memo stays exact while `elts` is only appended to, or has an
    entry replaced by one with the same lead: the entries before a
    memoised index still divide nothing of the key, and a miss needs only
    the entries appended since.  Nothing else may change the list."""

    __slots__ = ("elts", "memo")

    def __init__(self, elts=()):
        self.elts = list(elts)
        self.memo = {}


def _cleared(vec: dict) -> tuple[dict, int]:
    """(d * vec, d) for the least d > 0 that makes every coefficient an int."""
    d = lcm(*{c.denominator for c in vec.values()})
    if d == 1:
        return vec, 1
    return {k: c.numerator * (d // c.denominator) for k, c in vec.items()}, d


def _primitive(field, vec: dict) -> dict:
    """The basis-entry form of a nonzero vector dict, a nonzero multiple
    of it: over GF(p) the monic vector; over QQ the int vector with
    coprime coefficients and a positive lead coefficient."""
    lc = next(iter(vec.values()))
    p = field.characteristic
    if p:
        inv = field.inv(lc)
        if inv == 1:
            return vec
        return {k: c * inv % p for k, c in vec.items()}
    vec, _ = _cleared(vec)
    g = 0
    for c in vec.values():
        g = gcd(g, c)
        if g == 1:
            break
    if lc < 0:
        g = -g
    if g == 1:
        return vec
    return {k: c // g for k, c in vec.items()}


def _vec_reduce(work: dict, basis: _Reducers, ring, exact: bool = False) -> dict:
    """Full normal form of a vector dict against the entries of `basis`,
    fraction-free: only ints are multiplied and subtracted.

    Every term divisible by some basis lead (same position) is
    cancelled; irreducible terms migrate to the remainder, which comes
    out in descending order.  The first dividing basis element in list
    order is used, which keeps the result deterministic.  `basis.memo`
    says where to look: a term seen before tests the entry that divided
    it, or scans only the entries appended since it last found none, and
    the memo is written only when that index moves.  A cancelled term
    stays in `work` as a zero, skipped when popped, so each term is
    queued once, and its key is checked for overflow then.

    Each tail term probes `work` once, with `get`.  That is exact: a
    tail key lies below the popped key, and keys pop in descending
    order, so it was never popped, and `get` finds no value only for a
    key that was never queued.

    Over QQ the input's denominators are cleared once.  A popped
    coefficient c is cancelled by an entry with lead coefficient lc as
    m * work - (c / g) * shift * tail, with g = gcd(lc, c) and
    m = lc / g; m multiplies the remainder emitted so far too, so the
    result is the normal form times the product of the denominator and
    every m.  `exact` divides that scale out again; the Groebner core,
    which normalises each remainder, keeps it.  Over GF(p) every entry
    is monic, so m is 1, and coefficients are reduced mod p when popped.
    """
    p = ring.field.characteristic
    packer = ring.packer
    guards, divmask = packer.guards, packer.divmask
    heappush, heappop = heapq.heappush, heapq.heappop
    elts, memo = basis.elts, basis.memo
    memo_get = memo.get
    n = len(elts)
    # over GF(p) every coefficient is an int already
    work, scale = (work, 1) if p else _cleared(work)
    get = work.get
    heap = [-k for k in work]  # a min-heap of negated keys pops the largest
    heapq.heapify(heap)
    remainder = {}
    while heap:
        key = -heappop(heap)
        coeff = work.pop(key)
        if p:
            coeff %= p
        if not coeff:
            continue
        probe = key | guards
        i = start = memo_get(key, 0)
        while i < n:
            hit = elts[i]
            if (probe - hit.lead) & divmask == guards:
                break
            i += 1
        else:
            if start != n:
                memo[key] = n
            remainder[key] = coeff
            continue
        if i != start:
            memo[key] = i
        lc = hit.lc
        if lc != 1:
            g = gcd(lc, coeff)
            coeff //= g
            m = lc // g
            if m != 1:
                scale *= m
                for k in work:
                    work[k] *= m
                for k in remainder:
                    remainder[k] *= m
        shift = key - hit.lead
        coeff = -coeff
        for k2, c2 in hit.tail:
            k2 += shift
            old = get(k2)
            if old is None:
                if k2 & guards:
                    raise ExponentOverflowError()
                heappush(heap, -k2)
                work[k2] = coeff * c2
            else:
                work[k2] = old + coeff * c2
    if exact and scale != 1:
        return {k: _integral(Fraction(c, scale)) for k, c in remainder.items()}
    return remainder


def reduce(f: Polynomial, divisors) -> tuple[Polynomial, list]:
    """Full multivariate division: f = sum(q_i * g_i) + r.

    No monomial of r is divisible by the leading monomial of any divisor.
    Deterministic: at each step the first dividing g_i in list order is
    used.  Returns (remainder, quotients).  This is the vector (f | 0)
    reduced against the basis entries of the vectors (g_i | e_i): the
    exact remainder is position 0 and the quotients are the negated tail.
    """
    ring = f.ring
    divisors = list(divisors)
    for g in divisors:
        if not isinstance(g, Polynomial) or g.ring != ring:
            raise RingMismatchError("divisor from a different ring")
        if not g:
            raise ValueError("zero divisor polynomial")
    n = len(divisors)
    basis = _Reducers()
    for i, g in enumerate(divisors):
        unit = tuple(ring.one if j == i else ring.zero for j in range(n))
        basis.elts.append(_BasisElt(_primitive(ring.field, _vec_from_polys(ring, (g,) + unit))))
    out = _vec_reduce(_vec_from_polys(ring, (f,)), basis, ring, exact=True)
    remainder, *quotients = _vec_to_polys(ring, 1 + n, out)
    return remainder, [-q for q in quotients]


# ---------------------------------------------------------------------------
# tokens and the expression grammar


class Token(NamedTuple):
    kind: str  # "name", "int" or "op"
    value: object
    start: int  # offset of the token in the tokenized text
    end: int


_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|#[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[-+*/^()\[\],;=])"
)


def tokenize(text: str) -> list[Token]:
    """Tokens of `text`, whitespace and `#` comments skipped; raises
    PolyParseError at a character that starts no token."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # the search skipped a character
            break
        kind = m.lastgroup
        end = m.end()
        if kind != "skip":
            value = m.group()
            tokens.append(Token(kind, int(value) if kind == "int" else value, pos, end))
        pos = end
    if pos != len(text):
        raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
    return tokens


def parse_expression(ring, tokens, i, names) -> tuple[Polynomial, int]:
    """Parse one expression of `ring` from tokens[i]: it ends at the
    first token that cannot continue it, whose index is returned with
    the value.  A term that is a monomial run, such as `-3*x^2*y`, is
    read straight into one packed term; every other term takes the
    general grammar, and either way the value is the same."""
    parser = _ExprParser(ring, tokens, i, names)
    return parser.expr(), parser.i


# Each level of parentheses costs the parser a few stack frames, so the
# depth is capped well inside the interpreter's recursion limit.
PAREN_DEPTH_LIMIT = 100


class _ExprParser:
    """Recursive-descent parser for +, -, *, /, ^ and parentheses.

    '/' is division by a nonzero constant; '^' takes a non-negative
    integer exponent.  Names resolve to ring variables first, then to
    entries of the supplied name table.  Parentheses nest at most
    PAREN_DEPTH_LIMIT deep; a run of signs is folded in a loop, so no
    input recurses deeper than that.

    A term first tries a monomial run (`monomial_run`): optional signs,
    then nonzero integers and ring variables, each variable with an
    optional `^int`, joined by `*`.  The run becomes one exponent vector
    and one coefficient, so one `RingSpec.monomial`.  Any other term
    takes the general path, factor by factor, with nothing consumed: one
    that holds a session name, `(`, `/`, a zero coefficient, `^` after
    an integer or after `^int`, or a sign after `*`.  Both paths give
    the same value or raise the same error.  An expression adds its
    terms into one raw dict and normalises it once.
    """

    def __init__(self, ring, tokens, i, names):
        self.ring = ring
        self.tokens = tokens
        self.i = i
        self.names = names
        self.depth = 0  # parentheses open around the current token

    def peek(self) -> Token:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        end = self.tokens[-1].end if self.tokens else 0
        return Token(None, None, end, end)

    def take(self) -> Token:
        tok = self.peek()
        self.i += 1
        return tok

    def at_op(self, ops) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def expr(self) -> Polynomial:
        value = self.term()  # a leading sign is a factor's
        if not self.at_op("+-"):
            return value
        acc = dict(value.vec)
        get = acc.get
        while self.at_op("+-"):
            if self.take().value == "-":
                for k, c in self.term().vec.items():
                    acc[k] = get(k, 0) - c
            else:
                for k, c in self.term().vec.items():
                    acc[k] = get(k, 0) + c
        return self.ring._from_keys(acc)

    def monomial_run(self) -> Polynomial | None:
        """The term at the current token when it is a monomial run, else
        None with nothing consumed.  A zero coefficient is left to the
        general path: with every coefficient nonzero, the general path
        raises ExponentOverflowError exactly when the whole product is
        past EXPONENT_LIMIT, which is when `monomial` raises it."""
        tokens, i, n = self.tokens, self.i, len(self.tokens)
        ring = self.ring
        p = ring.field.characteristic
        var_index = ring._var_index
        exps = [0] * len(var_index)
        coeff = 1
        while i < n and tokens[i].value in ("+", "-"):
            if tokens[i].value == "-":
                coeff = -coeff
            i += 1
        while i < n:
            kind, val, _, _ = tokens[i]
            i += 1
            if kind == "int":
                if not (val % p if p else val):
                    return None
                coeff *= val
                if i < n and tokens[i].value == "^":
                    return None
            elif kind == "name" and val in var_index:
                e = 1
                if i < n and tokens[i].value == "^":
                    if i + 1 == n or tokens[i + 1].kind != "int":
                        return None
                    e = tokens[i + 1].value
                    i += 2
                    if i < n and tokens[i].value == "^":
                        return None
                exps[var_index[val]] += e
            else:
                return None
            if i == n or tokens[i].value != "*":
                if i < n and tokens[i].value == "/":
                    return None
                self.i = i
                return ring.monomial(exps, coeff)
            i += 1
        return None  # a trailing `*`

    def term(self) -> Polynomial:
        value = self.monomial_run()
        if value is not None:
            return value
        value = self.factor()
        while self.at_op("*/"):
            op = self.take()
            rhs = self.factor()
            if op.value == "*":
                value = value * rhs
            elif not rhs.is_constant() or rhs.is_zero:
                raise PolyParseError("division only by a nonzero constant", op.start)
            else:
                value = value.scale(self.ring.field.inv(rhs.constant_value()))
        return value

    def factor(self) -> Polynomial:
        negate = False
        while self.at_op("+-"):  # a run of signs, folded without recursion
            negate ^= self.take().value == "-"
        value = self.primary()
        while self.at_op("^"):
            self.take()
            exp = self.take()
            if exp.kind != "int":
                raise PolyParseError("exponent must be an integer", exp.start)
            value = value**exp.value
        return -value if negate else value

    def primary(self) -> Polynomial:
        kind, val, pos, _ = self.take()
        if kind == "int":
            return self.ring.constant(val)
        if kind == "name":
            if val in self.ring._var_index:
                return self.ring.gen(val)
            if val in self.names:
                f = self.names[val]
                if f.ring != self.ring:
                    raise PolyParseError(
                        f"name {val!r} belongs to a different ring", pos)
                return f
            raise PolyParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            if self.depth == PAREN_DEPTH_LIMIT:
                raise PolyParseError(
                    f"parentheses nested deeper than {PAREN_DEPTH_LIMIT}", pos)
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            close = self.take()
            if not (close.kind == "op" and close.value == ")"):
                raise PolyParseError("expected ')'", close.start)
            return value
        raise PolyParseError("expected a value", pos)
