"""Ideal quotients, saturation, intersection, elimination, radicals,
dimension and height.

All constructions are carried out on free-ring representatives: an
ideal of A = k[x]/J0 is handled as its preimage I + J0.  Colon ideals
and intersections are read off module syzygies (Greuel-Pfister, A
Singular Introduction to Commutative Algebra, 1.8), through the
augmented-module primitive of `cicert.groebner`.  Saturation and radical
membership add one tag variable t and compute a basis of
I + J0 + (1 - t*f): f lies in the radical of I exactly when that is the
unit ideal, and its t-free part is the saturation.  Elimination moves
the eliminated variables into a block order instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certificates import Replayable
from .groebner import IdealHandle, _augmented, gb_hash, groebner_basis, zero_ideal
from .poly import (
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    RingSpec,
    extend_ring,
)

__all__ = [
    "quotient",
    "saturate",
    "intersect",
    "eliminate",
    "radical_member",
    "radical_equal",
    "dimension_height",
    "RadicalMembership",
    "RadicalEqualityCertificate",
    "RadicalRefutation",
    "DimensionReport",
    "fresh_name",
]


def fresh_name(ring: RingSpec, stem: str = "t") -> str:
    name = stem
    while name in ring.variables:
        name += "_"
    return name


def _first_syzygy_entries(rows, ring):
    """Ideal of the first-row coefficients a with a*rows[0] in the span
    of rows[1:]: the first entries of the syzygies of the rows, with
    only the first row tagged."""
    return IdealHandle(ring, tuple(s[0] for s in _augmented(rows, ring, 1)[2]))


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I intersect J as ideals of A: the a with a*(1, 1) in I + J,
    read off the syzygies of the rows (1, 1), (g, 0) and (0, h)."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    zero = ring.zero
    rows = [(ring.one, ring.one)]
    rows += [(g, zero) for g in I.working_gens()]
    rows += [(zero, h) for h in J.working_gens()]
    return _first_syzygy_entries(rows, ring)


def quotient(I: IdealHandle, divisor) -> IdealHandle:
    """The colon ideal (I : f), or (I : J) when given an ideal.

    (I : 0) is the whole ring by convention.  For J = (f_1, ..., f_s) the
    colon is the set of a with a*(f_1, ..., f_s) in (I + J0)^s, read off
    the syzygies of that row and the rows h*e_j for h in I + J0, in one
    module basis; a single f is the case s = 1.
    """
    ring = I.ring
    divisors = divisor.gens if isinstance(divisor, IdealHandle) else (divisor,)
    if any(f.ring != ring for f in divisors):
        raise RingMismatchError("divisor from a different ring")
    divisors = [f for f in divisors if f]
    if not divisors:
        return IdealHandle(ring, [ring.one])
    if any(f.is_constant() for f in divisors):
        return IdealHandle(ring, I.gens)
    zero = ring.zero
    s = len(divisors)
    rows = [tuple(divisors)]
    rows += [tuple(h if p == j else zero for p in range(s))
             for j in range(s) for h in I.working_gens()]
    return _first_syzygy_entries(rows, ring)


def _inverted(I: IdealHandle, f: Polynomial):
    """(ext, reduced basis of I + J0 + (1 - t*f)) with t the variable
    that `ext` adds in front of the ring's variables."""
    ring = I.ring
    ext = extend_ring(ring.poly_ring(), (fresh_name(ring),))
    t = ext.ring.gen(ext.added[0])
    gens = [ext.embed(g) for g in I.working_gens() if g]
    gens.append(ext.ring.one - t * ext.embed(f))
    return ext, groebner_basis(gens, ext.ring)


def saturate(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """(I : f^infinity), computed with one inverted-variable extension."""
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("element from a different ring")
    if f.is_zero:
        raise ValueError("cannot saturate by zero")
    ext, basis = _inverted(I, f)
    kept = tuple(ring.rehome(ext.contract(g)) for g in basis
                 if not ext.uses_added(g))
    return IdealHandle(ring, kept)


def eliminate(I: IdealHandle, var_names) -> IdealHandle:
    """I intersected with the subring avoiding `var_names`.

    The result is returned as an ideal of the same ring; its generators
    simply do not involve the eliminated variables.
    """
    ring = I.ring
    names = list(var_names)
    for v in names:
        if v not in ring.variables:
            raise KeyError(f"no variable {v!r}")
    if not names:
        return IdealHandle(ring, I.gens)
    idx = [ring.variables.index(v) for v in names]
    rest = [i for i in range(ring.nvars) if i not in idx]
    tail = ring.order.kind if ring.order.kind in ("lex", "grevlex") else "grevlex"
    order = MonomialOrder("block", block=len(idx), tail_kind=tail,
                          permutation=tuple(idx + rest))
    espec = RingSpec(ring.variables, ring.field, order)
    gens = [espec.rehome(g) for g in I.working_gens() if g]
    basis = groebner_basis(gens, espec)
    kept = []
    for g in basis:
        if all(all(m[i] == 0 for i in idx) for m, _ in g.terms):
            kept.append(ring.rehome(g))
    return IdealHandle(ring, tuple(kept))


# ---------------------------------------------------------------------------
# radical membership / equality


@dataclass
class RadicalMembership:
    """Outcome of one radical membership test, with replay data."""

    ring: RingSpec
    element: Polynomial
    ideal_gens: tuple
    member: bool
    exponent: int | None
    aux_gb_hash: str

    def payload(self):
        return {
            "element": str(self.element),
            "member": self.member,
            "exponent": self.exponent,
            "aux_gb_hash": self.aux_gb_hash,
        }


def radical_member(f: Polynomial, I: IdealHandle, want_exponent=False,
                   e_max=30) -> RadicalMembership:
    """Is f in the radical of I?  Exponent search is optional."""
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("element from a different ring")
    ext, basis = _inverted(I, f)
    member = len(basis) == 1 and basis[0].is_constant()
    exponent = None
    if member and want_exponent:
        power = ring.one
        for e in range(1, e_max + 1):
            power = power * f
            if I.contains(power):
                exponent = e
                break
    return RadicalMembership(ring, f, I.gens, member, exponent,
                             gb_hash(ext.ring, basis))


@dataclass
class RadicalEqualityCertificate(Replayable):
    """Radical equality sqrt(I) = sqrt(J), one witness per generator."""

    ring: RingSpec
    left_gens: tuple
    right_gens: tuple
    witnesses: tuple  # (direction, RadicalMembership)
    e_max: int

    def payload(self):
        return {
            "left": [str(g) for g in self.left_gens],
            "right": [str(g) for g in self.right_gens],
            "witnesses": [
                {"direction": d, **w.payload()} for d, w in self.witnesses
            ],
        }

    def _rerun(self):
        return radical_equal(IdealHandle(self.ring, self.left_gens),
                             IdealHandle(self.ring, self.right_gens), self.e_max)


@dataclass
class RadicalRefutation:
    direction: str
    generator: Polynomial
    aux_gb_hash: str

    def payload(self):
        return {
            "direction": self.direction,
            "generator": str(self.generator),
            "aux_gb_hash": self.aux_gb_hash,
        }


def radical_equal(I: IdealHandle, J: IdealHandle, e_max=30):
    """Certificate that sqrt(I) = sqrt(J), or a refutation naming the
    first generator that fails radical membership."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    witnesses = []
    for direction, src, dst in (("left_in_right", I, J), ("right_in_left", J, I)):
        for g in src.gens:
            w = radical_member(g, dst, want_exponent=True, e_max=e_max)
            if not w.member:
                return RadicalRefutation(direction, g, w.aux_gb_hash)
            witnesses.append((direction, w))
    return RadicalEqualityCertificate(I.ring, I.gens, J.gens,
                                      tuple(witnesses), e_max)


# ---------------------------------------------------------------------------
# dimension and height


@dataclass
class DimensionReport:
    """Krull dimension data read off the leading-term ideal.

    dim(A/I) is the size of a maximal set U of variables with
    in(I) intersect k[U] = 0; height is dim(A) - dim(A/I), the coheight
    convention (correct for the equidimensional catenary fixtures this
    library ships; flagged so mixed-height inputs are not misread).
    """

    ring: RingSpec
    ideal_gens: tuple
    lt_basis: tuple
    independent_set: tuple | None
    dim_quotient: int
    dim_ambient: int
    height: int | None
    unit_ideal: bool

    height_definition = "coheight"

    def payload(self):
        return {
            "lt_basis": list(self.lt_basis),
            "independent_set": list(self.independent_set)
            if self.independent_set is not None else None,
            "dim_quotient": self.dim_quotient,
            "dim_ambient": self.dim_ambient,
            "height": self.height,
            "height_definition": self.height_definition,
            "unit_ideal": self.unit_ideal,
        }


def _max_independent_set(nvars, supports):
    """Largest U with no leading-term support inside U."""
    if nvars > 16:
        raise ValueError("independent-set search limited to 16 variables")
    if frozenset() in supports:
        return None  # unit ideal: even the empty set is dependent
    for size in range(nvars, -1, -1):
        for combo in itertools.combinations(range(nvars), size):
            u = set(combo)
            if all(not s <= u for s in supports):
                return combo
    return None


def _dimension_of_basis(ring, basis):
    supports = [
        frozenset(i for i, e in enumerate(g.lead_monomial) if e) for g in basis
    ]
    combo = _max_independent_set(ring.nvars, supports)
    if combo is None:
        return -1, None
    return len(combo), combo


def dimension_height(I: IdealHandle) -> DimensionReport:
    ring = I.ring
    basis = I.groebner()
    dim_q, combo = _dimension_of_basis(ring, basis)
    dim_a, _ = _dimension_of_basis(ring, zero_ideal(ring).groebner())
    unit = dim_q == -1
    height = None if unit else dim_a - dim_q
    return DimensionReport(
        ring=ring,
        ideal_gens=I.gens,
        lt_basis=tuple(ring.format_monomial(g.lead_monomial) or "1" for g in basis),
        independent_set=tuple(ring.variables[i] for i in combo) if combo is not None else None,
        dim_quotient=dim_q,
        dim_ambient=dim_a,
        height=height,
        unit_ideal=unit,
    )
