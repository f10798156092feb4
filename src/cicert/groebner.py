"""Reduced Groebner bases for ideals and submodules of free modules.

One Buchberger core handles both cases: elements of R^m are held as
sparse dicts keyed by (position, monomial) and compared position over
term, position 0 strongest.  Scalar polynomials are rank-1 vectors.

Every vector dict is kept in descending order, so its lead term is its
first key: `_vec_from_polys` reads sorted polynomials, and reduction
takes terms largest first from a heap keyed by the order's `neg_key`,
computed once per term, and cancels each with the first basis element
in list order whose lead divides it.  S-pairs wait in a heap ordered by
(order key of the lcm, i, j); the smallest is reduced next unless the
product or chain criterion drops it.

One augmented-module primitive, `_augmented`, serves every construction
that needs more than a basis: it appends unit-vector tails to the
generators, computes one basis, and splits it into the basis proper, the
cofactors (tails of elements with a nonzero leading block) and the
syzygies (tails of elements whose leading block vanishes).  Module
bases, syzygies and the cofactor-tracking extended basis are calls of
it, and so are colon ideals and intersections in `cicert.ideals`.

Work is metered by one scoped step counter, `Budget`: every S-pair
reduction charges the innermost meter opened with `with Budget(limit):`.
The command line opens one meter per check, so the step limit bounds
the whole check, however many bases it computes; a computation started
with no meter open gets a fresh one of DEFAULT_GB_STEPS.  Exhausting the
meter raises BudgetExceededError with the partial basis attached so
callers can report "inconclusive" instead of guessing.

Every cached basis lives in one holder, `ModuleBasis`, which builds its
reduction entries once, when it is made; `IdealHandle` and `ExtendedGB`
reduce through one.  A cached `IdealHandle` basis records the steps it
cost and the meter that last paid for it; its first use under another
open meter charges that cost once, so a check is charged what it would
be charged in a fresh session, which is what a replay runs.

Quotient rings A = k[x]/J0 are handled uniformly: ideal computations
append the J0 generators, module computations append J0 multiples of
the free-module basis vectors (`_base_rows`).  Each ring object has one
zero ideal, `zero_ideal(ring)`, so J0's basis is computed once per ring.
"""

from __future__ import annotations

import hashlib
import heapq
from contextlib import nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field

from .poly import (
    Polynomial,
    RingMismatchError,
    RingSpec,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = [
    "Budget",
    "BudgetExceededError",
    "DEFAULT_GB_STEPS",
    "IdealHandle",
    "zero_ideal",
    "ModuleBasis",
    "ExtendedGB",
    "groebner_basis",
    "module_groebner",
    "module_gb",
    "module_normal_form",
    "module_syzygies",
    "syzygies",
    "extended_groebner",
    "gb_hash",
]

DEFAULT_GB_STEPS = 10_000


class BudgetExceededError(RuntimeError):
    """The step budget ran out; verdicts must become 'inconclusive'."""

    def __init__(self, limit, partial=None):
        super().__init__(f"Groebner step budget of {limit} exceeded")
        self.limit = limit
        self.partial = partial


@dataclass
class Budget:
    """Step meter: one step per S-pair reduction, plus the recorded cost
    of each cached basis reused under it.  `with Budget(limit):` makes it
    the meter the block charges, until an inner block opens another."""

    limit: int = DEFAULT_GB_STEPS
    used: int = 0
    _token: object = field(default=None, init=False, repr=False, compare=False)

    def charge(self, partial=None):  # one S-pair reduction
        self.spend(1, partial)

    def spend(self, steps, partial=None):
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceededError(self.limit, partial)

    def __enter__(self):
        self._token = _METER.set(self)
        return self

    def __exit__(self, *exc):
        _METER.reset(self._token)


_METER: ContextVar[Budget | None] = ContextVar("cicert_gb_meter", default=None)


# ---------------------------------------------------------------------------
# vector plumbing: sparse dicts keyed by (position, monomial)


def _vec_from_polys(vec) -> dict:
    out = {}
    for pos, f in enumerate(vec):
        for m, c in f.terms:
            out[(pos, m)] = c
    return out


def _vec_to_polys(ring, rank, vec: dict):
    buckets = [dict() for _ in range(rank)]
    for (pos, m), c in vec.items():
        buckets[pos][m] = c
    return tuple(ring.poly_from_dict(b) for b in buckets)


class _BasisElt:
    """A basis vector; its lead is the first key of its dict."""

    __slots__ = ("pos", "mono", "vec", "tail")

    def __init__(self, vec):
        terms = iter(vec.items())
        (self.pos, self.mono), _lc = next(terms)
        self.vec = vec
        self.tail = list(terms)


def _make_monic(field, vec: dict) -> dict:
    inv = field.inv(next(iter(vec.values())))
    if inv == field.one:
        return vec
    return {k: field.mul(c, inv) for k, c in vec.items()}


def _vec_reduce(work: dict, basis, ring) -> dict:
    """Full normal form of a vector dict against monic basis elements.

    Every term divisible by some basis lead (same position) is
    cancelled; irreducible terms migrate to the remainder, which comes
    out in descending order.  The first dividing basis element in list
    order is used, which keeps the result deterministic.  A cancelled
    term stays in `work` as a zero, skipped when popped, so each term is
    queued once.
    """
    fieldops = ring.field
    nkey = ring.order.neg_key
    zero = fieldops.zero
    heap = [(pos, nkey(m), (pos, m)) for pos, m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        key = heapq.heappop(heap)[2]
        coeff = work.pop(key)
        if coeff == zero:
            continue
        pos, mono = key
        hit = None
        for b in basis:
            if b.pos == pos and mono_divides(b.mono, mono):
                hit = b
                break
        if hit is None:
            remainder[key] = coeff
            continue
        shift = mono_div(mono, hit.mono)
        for (p2, m2), c2 in hit.tail:
            m = mono_mul(m2, shift)
            k2 = (p2, m)
            if k2 not in work:
                heapq.heappush(heap, (p2, nkey(m), k2))
            work[k2] = fieldops.sub(work.get(k2, zero), fieldops.mul(c2, coeff))
    return remainder


def _spair(b1: _BasisElt, b2: _BasisElt, field) -> dict:
    lcm = mono_lcm(b1.mono, b2.mono)
    s1 = mono_div(lcm, b1.mono)
    s2 = mono_div(lcm, b2.mono)
    out = {}
    zero = field.zero
    for (p, m), c in b1.vec.items():
        out[(p, mono_mul(m, s1))] = c
    for (p, m), c in b2.vec.items():
        k = (p, mono_mul(m, s2))
        val = field.sub(out.get(k, zero), c)
        if val == zero:
            out.pop(k, None)
        else:
            out[k] = val
    return out


# ---------------------------------------------------------------------------
# Buchberger core


def _module_buchberger_dicts(vecdicts, ring) -> list[_BasisElt]:
    meter = _METER.get() or Budget()  # none open: a fresh default meter
    field = ring.field
    okey = ring.order.key
    scalar = all(pos == 0 for v in vecdicts for (pos, _m) in v)

    G: list[_BasisElt] = []
    queue: list[tuple] = []  # heap of (okey(lcm), i, j, lcm)
    P: set[tuple[int, int]] = set()  # pairs still queued

    def add_element(vec):
        elt = _BasisElt(_make_monic(field, vec))
        t = len(G)
        G.append(elt)
        for i in range(t):
            if G[i].pos == elt.pos:
                lcm = mono_lcm(G[i].mono, elt.mono)
                heapq.heappush(queue, (okey(lcm), i, t, lcm))
                P.add((i, t))

    for v in vecdicts:
        if v:
            add_element(dict(v))

    def partial():
        return tuple(_vec_to_polys(ring, _rank_of(G), b.vec) for b in G)

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        P.remove((i, j))
        bi, bj = G[i], G[j]
        # product criterion is only valid in the rank-1 (ideal) case
        if scalar and lcm == mono_mul(bi.mono, bj.mono):
            continue
        # chain criterion: some k with lt(k) | lcm whose pairs with i and j
        # were both handled already
        skip = False
        for k in range(len(G)):
            if k in (i, j) or G[k].pos != bi.pos:
                continue
            if mono_divides(G[k].mono, lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in P and b not in P:
                    skip = True
                    break
        if skip:
            continue
        meter.charge(partial)
        s = _spair(bi, bj, field)
        r = _vec_reduce(s, G, ring)
        if r:
            add_element(r)
    return G


def _rank_of(G) -> int:
    rank = 0
    for b in G:
        for (pos, _m) in b.vec:
            rank = max(rank, pos + 1)
    return rank


def _reduced_basis(G: list[_BasisElt], ring) -> list[_BasisElt]:
    okey = ring.order.key
    # minimal: drop elements whose lead another kept lead divides
    order = sorted(range(len(G)), key=lambda i: (-G[i].pos, okey(G[i].mono)))
    kept: list[_BasisElt] = []
    for i in order:
        g = G[i]
        if any(h.pos == g.pos and mono_divides(h.mono, g.mono) for h in kept):
            continue
        kept.append(g)
    # interreduce tails: the leads are pairwise non-dividing and reduction
    # never changes them, so a tail reduced once stays reduced
    for i, g in enumerate(kept):
        r = _vec_reduce(dict(g.vec), kept[:i] + kept[i + 1:], ring)
        if r != g.vec:
            kept[i] = _BasisElt(r)
    kept.sort(key=lambda b: (-b.pos, okey(b.mono)), reverse=True)
    return kept


def module_groebner(vectors, ring):
    """Reduced Groebner basis of the submodule generated by `vectors`.

    Vectors are tuples of polynomials of one fixed length; position over
    term order, position 0 strongest.  The base ideal is NOT appended
    here; use module_gb for quotient-ring module membership.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return ()
    rank = len(vectors[0])
    for v in vectors:
        if len(v) != rank:
            raise ValueError("module elements must share one length")
        for f in v:
            if f.ring != ring:
                raise RingMismatchError("module element from a different ring")
    G = _module_buchberger_dicts([_vec_from_polys(v) for v in vectors], ring)
    G = _reduced_basis(G, ring)
    return tuple(_vec_to_polys(ring, rank, b.vec) for b in G)


def groebner_basis(polys, ring):
    """Reduced Groebner basis of the ideal generated by `polys` (no base)."""
    vectors = [(f,) for f in polys if f]
    basis = module_groebner(vectors, ring)
    return tuple(v[0] for v in basis)


def module_normal_form(vec, basis_vectors, ring):
    """Normal form of a module element against a (Groebner) basis."""
    return ModuleBasis(ring, len(vec), basis_vectors).reduce(vec)


# ---------------------------------------------------------------------------
# ideal handles


class IdealHandle:
    """An ideal of A = k[x]/J0: generators plus a cached reduced basis.

    The basis is computed once per handle (the ring's order is fixed),
    kept in a rank-1 `ModuleBasis` and charged once to each meter that
    uses it.  Concurrent readers are safe: the computation is
    deterministic and `_gb` is assigned last, so a duplicated
    computation writes identical values.
    """

    def __init__(self, ring: RingSpec, gens):
        self.ring = ring
        coerced = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            coerced.append(g)
        self.gens = tuple(coerced)
        self._gb = None
        self._basis = None  # the ModuleBasis of _gb
        self._cost = None  # the steps that computing _gb took
        self._payer = None  # the meter that last paid _cost

    def __repr__(self):
        return f"<Ideal ({', '.join(str(g) for g in self.gens)}) of {self.ring.describe()}>"

    def working_gens(self):
        return tuple(g for g in self.gens if g) + self.ring.base_ideal

    def groebner(self):
        meter = _METER.get()
        if self._gb is None:
            with nullcontext(meter) if meter else Budget() as meter:
                start = meter.used
                gb = groebner_basis(self.working_gens(), self.ring)
            basis = ModuleBasis(self.ring, 1, [(g,) for g in gb])
            # self-check: every input generator must reduce to zero
            for g in self.working_gens():
                if not basis.reduce((g,))[0].is_zero:
                    raise AssertionError(
                        f"generator {g} does not reduce against its own basis")
            self._basis = basis
            self._cost = meter.used - start
            self._payer = meter
            self._gb = gb
        elif meter is not None and meter is not self._payer:
            meter.spend(self._cost)
            self._payer = meter
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("element from a different ring")
        if not self.groebner():
            return f
        return self._basis.reduce((f,))[0]

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "IdealHandle") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("ideals in different rings")
        return self.groebner() == other.groebner()

    def is_unit(self) -> bool:
        basis = self.groebner()
        return len(basis) == 1 and basis[0].is_constant()

    def is_zero_ideal(self) -> bool:
        """True if the ideal of A is zero, i.e. every generator lies in J0."""
        return zero_ideal(self.ring).contains_ideal(self)

    def gb_hash(self) -> str:
        return gb_hash(self.ring, self.groebner())


def zero_ideal(ring: RingSpec) -> IdealHandle:
    """The zero ideal of A = k[x]/J0, made once per ring object and kept
    on it; its basis is the reduced basis of J0."""
    if ring._zero_ideal is None:
        ring._zero_ideal = IdealHandle(ring, ())
    return ring._zero_ideal


def gb_hash(ring: RingSpec, basis) -> str:
    text = ring.describe() + "\n" + "\n".join(str(g) for g in basis)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the augmented module: basis, cofactors and syzygies from one basis


def _base_rows(ring, rank):
    """J0 multiples of the free basis vectors of A^rank."""
    zero = ring.zero
    return [tuple(j0 if p == s else zero for p in range(rank))
            for s in range(rank) for j0 in ring.base_ideal]


def _augmented(rows, ring, tagged):
    """(basis, cofactors, syzygies) from one basis of the rows, the first
    `tagged` of them with unit-vector tails and the rest with zero tails.

    The row block is strongest (position over term).  A basis element
    with a nonzero row block gives that block and its tail, the cofactors
    over the tagged rows; the tails of the elements whose row block
    vanishes generate the relations among the tagged rows modulo the
    untagged ones.  Rows of unequal lengths are rejected by
    module_groebner.
    """
    if not rows:
        return (), (), ()
    m = len(rows[0])
    zero = ring.zero
    augmented = [row + tuple(ring.one if j == i else zero for j in range(tagged))
                 for i, row in enumerate(rows)]
    basis, cofactors, syz = [], [], []
    for v in module_groebner(augmented, ring):
        if all(f.is_zero for f in v[:m]):
            syz.append(v[m:])
        else:
            basis.append(v[:m])
            cofactors.append(v[m:])
    return tuple(basis), tuple(cofactors), tuple(syz)


# ---------------------------------------------------------------------------
# module membership over the quotient ring


class ModuleBasis:
    """A reduced basis of a submodule of A^rank, and the one holder of
    reduction entries: they are built once, when the holder is made, and
    every normal form against a cached basis goes through `reduce`."""

    __slots__ = ("ring", "rank", "vectors", "_elts")

    def __init__(self, ring: RingSpec, rank: int, vectors):
        self.ring = ring
        self.rank = rank
        self.vectors = tuple(vectors)
        self._elts = [_BasisElt(_vec_from_polys(v)) for v in self.vectors]

    def reduce(self, vec):
        r = _vec_reduce(_vec_from_polys(vec), self._elts, self.ring)
        return _vec_to_polys(self.ring, self.rank, r)

    def contains(self, vec) -> bool:
        return all(f.is_zero for f in self.reduce(vec))


def module_gb(vectors, ring) -> ModuleBasis:
    """Reduced basis of the A-submodule generated by `vectors`.

    Quotient structure enters by appending J0 multiples of the free
    basis vectors, so `contains` answers membership over A.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("module_gb needs at least one generator to fix the rank")
    rank = len(vectors[0])
    basis = _augmented(vectors + _base_rows(ring, rank), ring, 0)[0]
    return ModuleBasis(ring, rank, basis)


# ---------------------------------------------------------------------------
# syzygies


def module_syzygies(rows, ring):
    """Generators of {a : sum a_i * rows_i = 0 over A = k[x]/J0}.

    Each row is augmented with a unit tail; basis elements whose leading
    block vanishes are exactly the relations, read off the tail.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return ()
    rank = len(rows[0])
    return _augmented(rows + _base_rows(ring, rank), ring, len(rows))[2]


def syzygies(targets):
    """All A-relations of a tuple of ring elements, verified exactly:
    every returned row multiplies the tuple into J0."""
    targets = tuple(targets)
    if not targets:
        raise ValueError("syzygies of an empty tuple")
    ring = targets[0].ring
    rows = module_syzygies([(f,) for f in targets], ring)
    zero_mod = zero_ideal(ring)
    for row in rows:
        total = ring.zero
        for r, f in zip(row, targets):
            total = total + r * f
        if not zero_mod.normal_form(total).is_zero:
            raise AssertionError("computed syzygy fails exact multiplication check")
    return rows


# ---------------------------------------------------------------------------
# extended basis: cofactors and exact membership witnesses


@dataclass
class ExtendedGB:
    """Reduced basis of (gens + J0) with exact cofactor bookkeeping.

    Every basis element b satisfies b = sum(cofactors * inputs) exactly
    in the free ring, where inputs = user generators followed by the
    base ideal generators.  express() writes any ring element as
    normal form plus such a combination, reducing through one
    `ModuleBasis` of the vectors (b | cofactors) and (0 | syzygy).
    """

    ring: RingSpec
    inputs: tuple
    basis: tuple
    cofactors: tuple
    full_syzygies: tuple
    augmented: ModuleBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vecs = [(b,) + cof for b, cof in zip(self.basis, self.cofactors)]
        vecs += [(self.ring.zero,) + row for row in self.full_syzygies]
        self.augmented = ModuleBasis(self.ring, 1 + len(self.inputs), vecs)

    def express(self, f: Polynomial):
        """Return (remainder, coeffs) with f = remainder + sum(coeffs*inputs)."""
        out = self.augmented.reduce((f,))
        remainder = out[0]
        coeffs = tuple(-c for c in out[1:])
        check = remainder
        for c, g in zip(coeffs, self.inputs):
            check = check + c * g
        if check != f:
            raise AssertionError("cofactor identity failed")
        return remainder, coeffs


def extended_groebner(gens, ring) -> ExtendedGB:
    gens = tuple(gens)
    rows = [(g,) for g in gens] + _base_rows(ring, 1)
    inputs = tuple(row[0] for row in rows)
    basis, cofs, syz = _augmented(rows, ring, len(rows))
    scalar = tuple(v[0] for v in basis)
    ext = ExtendedGB(ring, inputs, scalar, cofs, syz)
    for b, cof in zip(scalar, cofs):
        total = ring.zero
        for c, g in zip(cof, inputs):
            total = total + c * g
        if total != b:
            raise AssertionError("basis cofactor identity failed")
    return ext
