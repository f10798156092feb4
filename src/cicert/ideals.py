"""Ideal quotients, saturation, intersection, elimination, radicals,
dimension and height.

All constructions are carried out on free-ring representatives: an
ideal of A = k[x]/J0 is handled as its preimage I + J0.  Colon ideals
and intersections are read off module syzygies (Greuel-Pfister, A
Singular Introduction to Commutative Algebra, 1.8), through the
augmented-module primitive of `cicert.groebner`.  Elimination computes
a basis in the free ring of the eliminated variables, first in a grevlex
block, and then the ring's other variables (`_elimination_ring`);
`RingSpec.rehome` moves the generators in and the basis elements free
of the block back.  Saturation and radical membership eliminate a tag
variable t from I + J0 + (1 - t*f), in a tag ring made once per ring
(`_tagged`).  f lies in the radical of I exactly when that basis is the
unit ideal, and its t-free part is the saturation.  Radical membership
first asks whether f lies in I itself, a reduction against I's basis;
when it does, the unit ideal is known and no basis in t is computed.
"""

from __future__ import annotations

import itertools

from .certificates import Replayable
from .groebner import (Budget, Budgets, IdealHandle, first_syzygy_entries, gb_hash,
                       groebner_basis, limits, memoized, metered, zero_ideal)
from .poly import (
    MonomialOrder,
    Polynomial,
    RingMismatchError,
    RingSpec,
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


def fresh_name(ring: RingSpec) -> str:
    name = "t"
    while name in ring.variables:
        name += "_"
    return name


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
    return first_syzygy_entries(rows, ring)


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
    return first_syzygy_entries(rows, ring)


def _elimination_ring(ring: RingSpec, names: tuple) -> RingSpec:
    """The free ring of `names` in a grevlex block that eliminates them,
    then the ring's other variables in its lex or grevlex order."""
    rest = tuple(v for v in ring.variables if v not in names)
    tail = ring.order.kind if ring.order.kind != "block" else "grevlex"
    return RingSpec(names + rest, ring.field,
                    MonomialOrder("block", block=len(names), tail_kind=tail))


def _block_free(ring: RingSpec, basis, k: int) -> IdealHandle:
    """The basis elements whose lead is free of the first k variables, in
    `ring`; the block dominates, so the whole element is free of it."""
    return IdealHandle(ring, tuple(ring.rehome(g) for g in basis
                                   if not any(g.lead_monomial[:k])))


def _tagged(ring: RingSpec) -> RingSpec:
    """The elimination ring of a fresh tag variable t, made once per ring
    object and kept on it."""
    if ring._tagged is None:
        if ring.order.kind == "block":
            raise ValueError("cannot extend a ring that already has a block order")
        ring._tagged = _elimination_ring(ring, (fresh_name(ring),))
    return ring._tagged


def _inverted(I: IdealHandle, f: Polynomial):
    """The reduced basis of I + J0 + (1 - t*f) in the tag ring of I's ring."""
    tagged = _tagged(I.ring)
    t = tagged.gen(tagged.variables[0])
    gens = [tagged.rehome(g) for g in I.working_gens() if g]
    gens.append(tagged.one - t * tagged.rehome(f))
    return groebner_basis(gens, tagged)


def saturate(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """(I : f^infinity), computed with one inverted-variable extension."""
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("element from a different ring")
    if f.is_zero:
        raise ValueError("cannot saturate by zero")
    return _block_free(ring, _inverted(I, f), 1)


def eliminate(I: IdealHandle, var_names) -> IdealHandle:
    """I intersected with the subring avoiding `var_names`, in any order:
    an ideal of the same ring whose generators do not involve them."""
    ring = I.ring
    names = tuple(var_names)
    for v in names:
        if v not in ring.variables:
            raise KeyError(f"no variable {v!r}")
    if not names:
        return IdealHandle(ring, I.gens)
    elim = _elimination_ring(ring, names)
    basis = groebner_basis([elim.rehome(g) for g in I.working_gens() if g], elim)
    return _block_free(ring, basis, len(names))


# ---------------------------------------------------------------------------
# radical membership / equality


class RadicalMembership:
    """Outcome of one radical membership test, with replay data."""

    def __init__(self, ring: RingSpec, element: Polynomial, ideal_gens: tuple, member: bool,
                 exponent: int | None, aux_gb_hash: str):
        self.ring = ring
        self.element = element
        self.ideal_gens = ideal_gens
        self.member = member
        self.exponent = exponent
        self.aux_gb_hash = aux_gb_hash

    def payload(self):
        return {
            "element": str(self.element),
            "member": self.member,
            "exponent": self.exponent,
            "aux_gb_hash": self.aux_gb_hash,
        }


@metered
def radical_member(f: Polynomial, I: IdealHandle) -> RadicalMembership:
    """Is f in the radical of I?  For a member, the exponent is the
    least e <= e_max with f^e in I, or None when there is none; e_max is
    the open meter's.

    The aux hash is that of the reduced basis of I + J0 + (1 - t*f).
    When f itself lies in I, that ideal holds t*f and so 1: the basis is
    (1), the exponent is 1, and no basis in t is computed.  Otherwise
    the basis is computed and the exponents are searched from 2."""
    ring = I.ring
    if f.ring != ring:
        raise RingMismatchError("element from a different ring")
    tagged = _tagged(ring)
    e_max = limits().e_max
    if I.contains(f):
        return RadicalMembership(ring, f, I.gens, True, 1 if e_max >= 1 else None,
                                 gb_hash(tagged, (tagged.one,)))
    basis = _inverted(I, f)
    member = len(basis) == 1 and basis[0].is_constant()
    exponent = None
    if member:
        power = f
        for e in range(2, e_max + 1):
            power = power * f
            if I.contains(power):
                exponent = e
                break
    return RadicalMembership(ring, f, I.gens, member, exponent,
                             gb_hash(tagged, basis))


class RadicalEqualityCertificate(Replayable):
    """Radical equality sqrt(I) = sqrt(J), one witness per generator;
    `budgets` are the limits of the meter it was made under, which its
    rerun opens again."""

    def __init__(self, ring: RingSpec, left_gens: tuple, right_gens: tuple, witnesses: tuple,
                 budgets: Budgets):
        self.ring = ring
        self.left_gens = left_gens
        self.right_gens = right_gens
        self.witnesses = witnesses  # (direction, RadicalMembership)
        self.budgets = budgets

    def payload(self):
        return {
            "left": [str(g) for g in self.left_gens],
            "right": [str(g) for g in self.right_gens],
            "witnesses": [
                {"direction": d, **w.payload()} for d, w in self.witnesses
            ],
        }

    def _rerun(self):
        with Budget(self.budgets):
            return radical_equal(IdealHandle(self.ring, self.left_gens),
                                 IdealHandle(self.ring, self.right_gens))


class RadicalRefutation:
    def __init__(self, direction: str, generator: Polynomial, aux_gb_hash: str):
        self.direction = direction
        self.generator = generator
        self.aux_gb_hash = aux_gb_hash

    def payload(self):
        return {
            "direction": self.direction,
            "generator": str(self.generator),
            "aux_gb_hash": self.aux_gb_hash,
        }


@metered
def radical_equal(I: IdealHandle, J: IdealHandle):
    """Certificate that sqrt(I) = sqrt(J), or a refutation naming the
    first generator that fails radical membership; each membership
    searches exponents up to the open meter's e_max."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    witnesses = []
    for direction, src, dst in (("left_in_right", I, J), ("right_in_left", J, I)):
        for g in src.gens:
            w = radical_member(g, dst)
            if not w.member:
                return RadicalRefutation(direction, g, w.aux_gb_hash)
            witnesses.append((direction, w))
    return RadicalEqualityCertificate(I.ring, I.gens, J.gens,
                                      tuple(witnesses), limits())


# ---------------------------------------------------------------------------
# dimension and height


class DimensionReport:
    """Krull dimension data read off the leading-term ideal.

    dim(A/I) is the size of a maximal set U of variables with
    in(I) intersect k[U] = 0; height is dim(A) - dim(A/I), the coheight
    convention (correct for the equidimensional catenary fixtures this
    library ships; flagged so mixed-height inputs are not misread).
    """

    height_definition = "coheight"

    def __init__(self, ring: RingSpec, ideal_gens: tuple, lt_basis: tuple,
                 independent_set: tuple | None, dim_quotient: int, dim_ambient: int,
                 height: int | None, unit_ideal: bool):
        self.ring = ring
        self.ideal_gens = ideal_gens
        self.lt_basis = lt_basis
        self.independent_set = independent_set
        self.dim_quotient = dim_quotient
        self.dim_ambient = dim_ambient
        self.height = height
        self.unit_ideal = unit_ideal

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


@memoized
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
