"""Reduced Groebner bases for ideals and submodules of free modules.

One Buchberger core handles both cases: elements of R^m are held as
sparse dicts keyed by packed term keys and compared position over term,
position 0 strongest.  Scalar polynomials are rank-1 vectors.

A term key is one int made by the ring's `poly.MonomialPacker`: 32-bit
fields for the linear forms the order compares (lex: the exponents;
grevlex: the degree, then partial sums of the exponents; a block order:
its block's forms, then its tail's), then one for each exponent no form
holds alone, and the position above them all.  The integer order is
position over term, a monomial product is one `+` and a divisibility
test one subtract and mask.  The top bit of each field is a guard: a
field holds at most 2^31 - 1, and a term past it, whether packed or
formed by an S-pair or a reduction step, raises
`poly.ExponentOverflowError`.  A polynomial already holds packed keys,
the vector at position 0, so `_vec_from_polys` and `_vec_to_polys` only
shift terms between positions.

Every vector dict is kept in descending order, so its lead term is its
first key.  Reduction is the one division loop of `cicert.poly`,
`poly._vec_reduce`: it takes terms largest first from a heap of keys
and cancels each with the first basis element in list order whose lead
divides it.  The elements it divides by are the list of a
`poly._Reducers`, whose memo maps a term key to the index of its first
divisor, or to the count of elements scanned when none divided it, so a
key seen before tests one lead or only the elements added since.  Each
list has its own memo, and it stays exact because no list is changed in
any other way than these: the Buchberger basis is only appended to,
`_reduced_basis` replaces an element by one with the same lead, and the
entries of a `ModuleBasis` never change.

S-pairs are pruned by the Gebauer-Moeller update when an element joins
the basis, never when one is popped (J. Symb. Comput. 6, 1988): of the
new pairs, one is kept per lcm, the one of least sugar, and none whose
lcm another's strictly divides (M and F), and in rank 1 none with
coprime leads (the product criterion); a queued pair whose lcm the new
lead divides goes when the new lead gives it two other lcms (B_k); and
an element whose lead the new lead divides forms no more pairs, though
it stays a reducer.  The pairs wait in a heap of
(sugar, packed lcm, i, j), the lcm's position left out, and the least is
reduced next (Giovini et al., ISSAC 1991): an input's sugar is its
degree, a pair's is the larger of sugar + deg lcm - deg lead over its
two elements, and a remainder takes its pair's.  Every order gets the
same selection; in lex and elimination orders it is what keeps the pair
count down.

Over QQ a basis entry is a primitive int vector with a positive lead
coefficient (`poly._primitive`), over GF(p) a monic one, so every
S-vector and every reduction step multiplies and subtracts ints; a
remainder comes back as a nonzero multiple of the normal form and is
normalised in turn.  Only the reduced basis handed out is made monic:
each entry is a nonzero multiple of the monic one, so every step picks
the same divisor as monic arithmetic, and the S-pairs, the reduced
basis and every text printed from it are those of monic arithmetic.

One augmented-module primitive, `_augmented`, serves every construction
that needs more than a basis: it appends unit-vector tails to the
generators, computes one basis, and splits it into the basis proper, the
cofactors (tails of elements with a nonzero leading block) and the
syzygies (tails of elements whose leading block vanishes).  Syzygies
and the cofactor-tracking extended basis are calls of it, and so is
`first_syzygy_entries`, behind the colon ideals and intersections of
`cicert.ideals`.

Work is metered by one scoped meter, `Budget`, which carries the four
limits of a check, its `Budgets`: every S-pair reduction charges the
innermost meter opened with `with Budget(budgets):`, and past
`budgets.gb_steps` raises BudgetExceededError, which callers report as
"inconclusive".  The searches read their trial budget, degree bound
and `e_max` from the same meter, through `limits()`, so no signature
threads a limit.  The command line opens one meter per check, so the
limits bound the whole check, however many bases it computes.  A
`metered` call made with no meter open (a memoized producer, a handle's
first basis, a radical membership, a search or verification of
`cicert.pipeline`) runs whole under one fresh `Budget(Budgets())`, with
its fresh store.

A meter pays for each distinct basis once.  A basis is known by its
store key, the `_Key` of (ring, vectors) by value, and costs the steps
its computation took; `Budget.pay(key, cost)` spends the cost the first
time the meter sees the key.  So a meter reads the sum of the costs of
the distinct bases it used, however often and through whatever handle
it used them, and a check reads in its session what it reads alone,
which is what a replay runs.

A check reuses every basis and every certified result an earlier check
of its session computed.  Each meter carries a `BasisStore`, the memo
of its session or a fresh one of its own, and while it is the open
meter each `memoized` function looks up its inputs there: the module
basis behind `module_groebner`, so behind groebner_basis, `_augmented`,
module_gb, syzygies, colon and intersection, and the five producers
that the curve battery calls again on equal inputs, `lci_certificate`
(`lci`, then `ci`), `mod_square_generation` (`ci`, then `mod-square`),
`is_regular_sequence` (`ci`, then `stci`), `free_resolution`
(`ext-cyclic`, then `resolution`) and `dimension_height` (`dimension`,
then `lci` and `stci`).  Rings and polynomials are keys by value and a
handle by its ring and generators, so equal inputs made apart, such as
two `ring.quotient(gens)` calls, share an entry.  An entry holds the
result and the (key, cost) pairs of the bases its first run paid for,
and a hit pays them again, so it charges what a rerun would.  The
command line gives each check's meter the store of its session.  There
is one such store at a time: it belongs to the session whose checks ran
last and goes when that session is dropped or a check of another
session runs, and a meter lets go of its store when its block ends.

A module basis is stored as its one holder, `ModuleBasis`: equal
handles, `module_gb` and `ExtendedGB` reduce through it, and a handle
pays the basis's key and cost to the open meter on each use.  Only
`first_syzygy_entries`, `quotient_ring` and `module_normal_form` make
holders of their own, for bases the store keeps under no key of theirs.

Quotient rings A = k[x]/J0 are handled uniformly: ideal computations
append the J0 generators, module computations append J0 multiples of
the free-module basis vectors (`_base_rows`).  Each ring object has one
zero ideal, `zero_ideal(ring)`, so J0's basis is computed once per ring.
The zero ideal of A/I, made by `quotient_ring(I)`, is I itself: the
reduced basis of J0 + I is unique, so the new ring takes over I's basis,
rehomed, and its key and cost instead of computing it again.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from contextvars import ContextVar
from math import gcd, inf
from operator import attrgetter

from .poly import (
    ExponentOverflowError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    _BasisElt,
    _primitive,
    _Reducers,
    _vec_from_polys,
    _vec_reduce,
    _vec_to_polys,
)

__all__ = [
    "BasisStore",
    "Budget",
    "BudgetExceededError",
    "Budgets",
    "DEFAULT_GB_STEPS",
    "InputError",
    "IdealHandle",
    "zero_ideal",
    "quotient_ring",
    "ModuleBasis",
    "ExtendedGB",
    "groebner_basis",
    "module_groebner",
    "module_gb",
    "module_normal_form",
    "module_syzygies",
    "syzygies",
    "first_syzygy_entries",
    "extended_groebner",
    "gb_hash",
    "limits",
    "memoized",
    "metered",
]

DEFAULT_GB_STEPS = 10_000


class BudgetExceededError(RuntimeError):
    """The step budget ran out; verdicts must become 'inconclusive'."""

    def __init__(self, limit):
        super().__init__(f"Groebner step budget of {limit} exceeded")
        self.limit = limit


class InputError(ValueError):
    """A stated precondition does not hold; not a refutation."""


class Budgets:
    """The limits of one check, carried by its meter.  gb_steps bounds
    the Groebner steps of everything the meter's block runs.  trials,
    degree_bound and e_max bound the searches and radical memberships,
    which read them from the open meter through `limits()`.  The
    defaults are also class attributes, which the command line's flags
    read.  An instance holds exactly these four fields: they are a
    certificate's `budgets` block.  A value out of range is an
    InputError."""

    gb_steps = DEFAULT_GB_STEPS
    trials = 200
    degree_bound = None
    e_max = 30

    def __init__(self, gb_steps: int = gb_steps, trials: int = trials,
                 degree_bound: int | None = degree_bound, e_max: int = e_max):
        # a search draws degrees from 1 to the degree bound, and no check
        # can spend a negative budget
        if degree_bound is not None and degree_bound < 1:
            raise InputError(f"degree_bound must be at least 1, got {degree_bound}")
        for field, value in (("gb_steps", gb_steps), ("trials", trials), ("e_max", e_max)):
            if value < 0:
                raise InputError(f"{field} must be at least 0, got {value}")
        self.gb_steps = gb_steps
        self.trials = trials
        self.degree_bound = degree_bound
        self.e_max = e_max

    def degree_cap(self, gens) -> int:
        """degree_bound, or when it is None the largest degree of a
        nonzero generator plus 2."""
        if self.degree_bound is not None:
            return self.degree_bound
        return max((g.total_degree() for g in gens if g), default=0) + 2


class BasisStore(dict):
    """The memo of the meters that carry this store: the `_Key` of (a
    `memoized` function, the names of its keyword arguments, its inputs
    by value) -> (the result of its first call, the (key, cost) pairs of
    the bases that call paid for); equal inputs made apart share an entry."""


class Budget:
    """Step meter: one step per S-pair reduction, and each distinct basis
    paid for once, up to `budgets.gb_steps`; `budgets` are the limits
    `limits()` reads, `Budgets()` unless given.  `with Budget(budgets):`
    makes it the meter the block charges, until an inner block opens
    another.  `store` is the memo that `memoized` functions look up
    while this is the open meter, a fresh one unless given; the meter
    lets go of it when its block ends.  `_paid` holds the keys of the
    bases it paid for, and `_calls` the {key: cost} of each call it is
    recording, innermost last."""

    def __init__(self, budgets: Budgets | None = None, store: BasisStore | None = None):
        self.budgets = Budgets() if budgets is None else budgets
        self.used = 0
        self.store = store
        self._token = None
        self._paid = set()
        self._calls = []

    def charge(self):  # one S-pair reduction
        self.spend(1)

    def spend(self, steps):
        self.used += steps
        if self.used > self.budgets.gb_steps:
            raise BudgetExceededError(self.budgets.gb_steps)

    def pay(self, key, cost):
        """Spend `cost` the first time this meter sees the basis `key`;
        every call being recorded notes the pair either way."""
        for call in self._calls:
            call[key] = cost
        if key not in self._paid:
            self._paid.add(key)
            self.spend(cost)

    def __enter__(self):
        if self.store is None:
            self.store = BasisStore()
        self._token = _METER.set(self)
        return self

    def __exit__(self, *exc):
        _METER.reset(self._token)
        self.store = None


_METER: ContextVar[Budget | None] = ContextVar("cicert_gb_meter", default=None)


def limits() -> Budgets:
    """The limits of the open meter; only a `metered` function has one."""
    return _METER.get().budgets


def metered(function):
    """`function` under the open meter, or under one fresh default
    `Budget()` for the whole call when none is open."""

    @functools.wraps(function)
    def call(*args, **kwargs):
        if _METER.get() is not None:
            return function(*args, **kwargs)
        with Budget():
            return function(*args, **kwargs)

    return call


@metered
def _paid_for(compute, *args, **kwargs):
    """compute(*args, **kwargs) and the (key, cost) pairs it paid for."""
    meter = _METER.get()
    paid = {}
    meter._calls.append(paid)
    try:
        return compute(*args, **kwargs), tuple(paid.items())
    finally:
        meter._calls.pop()


# ---------------------------------------------------------------------------
# the session memo


class _Key:
    """A store key: (function, keyword names, inputs by value), hashed
    once, since hashing the polynomials in it is most of a lookup."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.parts == other.parts


def _keyed(value):
    if isinstance(value, IdealHandle):
        return IdealHandle, value.ring, value.gens
    return tuple(value) if isinstance(value, list) else value


def memoized(producer):
    """`producer`, `metered` and answered from the open meter's store.

    A call with inputs equal to a stored call's returns the stored result
    and pays the bases its first run paid for, so the meter reads what a
    rerun would leave it at.  A run that paid for no basis is a basis
    itself: the S-pair reductions it charged as they ran are handed back
    and paid under its own key.  The store serves meters of any limits,
    so a memoized producer must not read `limits()`."""

    @functools.wraps(producer)
    @metered
    def call(*args, **kwargs):
        meter = _METER.get()
        values = args + tuple(kwargs.values()) if kwargs else args
        key = _Key((producer, tuple(kwargs), *map(_keyed, values)))
        entry = meter.store.get(key)
        if entry is None and key in meter._paid:
            # a basis paid for through a handle made under another store:
            # computed again at no charge
            with Budget(Budgets(gb_steps=inf), store=meter.store):
                call(*args, **kwargs)
            entry = meter.store[key]
        if entry is not None:
            for paid, cost in entry[1]:
                meter.pay(paid, cost)
            return entry[0]
        start = meter.used
        result, paid = _paid_for(producer, *args, **kwargs)
        if not paid:  # a basis: its S-pair reductions, paid under its key
            cost, meter.used = meter.used - start, start
            meter.pay(key, cost)
            paid = ((key, cost),)
        meter.store[key] = result, paid
        return result

    return call


# ---------------------------------------------------------------------------
# Buchberger core


def _spair(b1: _BasisElt, b2: _BasisElt, lcm: int, ring) -> dict:
    """The S-vector (lc2/g)*x^s1*b1 - (lc1/g)*x^s2*b2 of two elements
    whose leads divide the key `lcm`, with g = gcd(lc1, lc2).  Over GF(p)
    both entries are monic and the ints are left unreduced: the division
    loop reduces each coefficient mod p when it pops it."""
    guards = ring.packer.guards
    g = gcd(b1.lc, b2.lc)
    m1, m2 = b2.lc // g, b1.lc // g
    s1 = lcm - b1.lead
    s2 = lcm - b2.lead
    out = {k + s1: m1 * c for k, c in b1.vec.items()}
    for k, c in b2.vec.items():
        k += s2
        val = out.get(k, 0) - m2 * c
        if val:
            out[k] = val
        else:
            out.pop(k, None)
    # a field pushed into its guard bit still holds its exact value, so a
    # cancelled term needs no check
    if any(k & guards for k in out):
        raise ExponentOverflowError()
    return out


def _module_buchberger_dicts(vecdicts, ring) -> list[_BasisElt]:
    """Buchberger's algorithm with the Gebauer-Moeller pair update and
    sugar selection, as the module docstring sets out; returns the
    entries, a Groebner basis but not a reduced one.  It charges the
    open meter, which its caller, the memoized `_module_basis`, opens.

    An element whose lead a later lead divides is retired: it forms no
    new pairs, but it stays in the reducer list, which is only appended
    to, so the memo of `poly._Reducers` stays exact and every reduction
    picks the divisor it would pick in a list that never drops one."""
    meter = _METER.get()
    field = ring.field
    packer = ring.packer
    size, mask, guards, divmask = packer.size, packer.mask, packer.guards, packer.divmask
    pack, unpack = packer.pack, packer.unpack
    scalar = all(k >= 0 for v in vecdicts for k in v)

    reducers = _Reducers()
    G = reducers.elts  # only appended to, so the memo stays exact
    exps: list[tuple] = []  # the exponents of each element's lead
    excess: list[int] = []  # each element's sugar less its lead's degree
    peers: dict[int, list[int]] = {}  # position -> the elements whose lead is there
    retired: set[int] = set()  # elements whose lead a later lead divides: no new pairs
    pairs: dict[tuple[int, int], int] = {}  # queued pair -> its lcm, position left out
    queue: list[tuple] = []  # heap of (sugar, lcm, i, j); a dropped pair is skipped

    def add_element(vec, sugar):
        elt = _BasisElt(_primitive(field, vec))
        t = len(G)
        top = elt.lead >> size
        mono = elt.lead & mask
        e = unpack(elt.lead)[1]
        ex = sugar - sum(e)
        G.append(elt)
        exps.append(e)
        excess.append(ex)
        same = peers.setdefault(top, [])
        # the lcm with every element at t's position, and the candidate
        # pairs (lcm, not coprime, sugar, i) with those not retired
        lcms = {}
        cands = []
        for i in same:
            m = tuple(map(max, exps[i], e))
            lcms[i] = lcm = pack(m)
            if i not in retired:
                lead = G[i].lead & mask
                if lcm == lead:  # t divides it
                    retired.add(i)
                cands.append((lcm, not (scalar and lcm == lead + mono),
                              sum(m) + max(excess[i], ex), i))
        same.append(t)
        if not lcms:  # the first lead at its position
            return
        # B_k: the pairs (i, t) and (j, t) stand in for (i, j)
        for (i, j), lcm in list(pairs.items()):
            if (i in lcms and ((lcm | guards) - mono) & divmask == guards
                    and lcms[i] != lcm and lcms[j] != lcm):
                del pairs[i, j]
        # M and F: a strict divisor of a candidate's lcm is the lcm of a kept
        # or coprime candidate, and divisors sort first
        cands.sort()
        kept: list[int] = []  # the lcms kept, coprime ones included
        prev = None
        for lcm, plain, sug, i in cands:
            if lcm == prev:
                continue
            prev = lcm
            probe = lcm | guards
            for k in kept:
                if (probe - k) & divmask == guards:
                    break
            else:
                kept.append(lcm)
                if plain:
                    pairs[i, t] = lcm
                    heapq.heappush(queue, (sug, lcm, i, t))

    degree = packer.degree
    for v in vecdicts:
        if v:
            add_element(dict(v), max(map(degree, v)))

    while queue:
        sugar, lcm, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue  # dropped by B_k after it was queued
        bi, bj = G[i], G[j]
        meter.charge()
        s = _spair(bi, bj, lcm + ((bi.lead >> size) << size), ring)
        r = _vec_reduce(s, reducers, ring)
        if r:
            add_element(r, sugar)
    return G


def _reduced_basis(G: list[_BasisElt], ring) -> list[dict]:
    """The reduced basis of the entries G, as monic vector dicts, leads
    descending.

    Every tail is reduced, exactly, against the one list `kept`, the
    element's own entry included: a lead divides no term below it, so the
    divisors chosen are those of the other entries, and the lead term
    goes back in front of the tail's normal form.  A reduced element
    keeps its lead, so it replaces its entry and the list's memo stays
    exact."""
    guards, divmask = ring.packer.guards, ring.packer.divmask
    lead = attrgetter("lead")
    # minimal: drop elements whose lead another kept lead divides
    reducers = _Reducers()
    kept = reducers.elts
    for g in sorted(G, key=lead):
        probe = g.lead | guards
        if any((probe - h.lead) & divmask == guards for h in kept):
            continue
        kept.append(g)
    # interreduce tails: the leads are pairwise non-dividing and reduction
    # never changes them, so a tail reduced once stays reduced
    for i, g in enumerate(kept):
        r = _vec_reduce(dict(g.tail), reducers, ring, exact=True)
        if list(r.items()) != g.tail:
            kept[i] = _BasisElt(_primitive(ring.field, {g.lead: g.lc, **r}))
    return [g.monic() for g in sorted(kept, key=lead, reverse=True)]


def module_groebner(vectors, ring):
    """Reduced Groebner basis of the submodule generated by `vectors`.

    Vectors are tuples of polynomials of one fixed length; position over
    term order, position 0 strongest.  The base ideal is NOT appended
    here; use module_gb for quotient-ring module membership.

    The basis is `memoized`: it touches no handle, so a stored basis is
    charged just the steps its computation took.  One stored for an
    equal ring made apart comes back with this ring's polynomials.
    """
    vectors = tuple(tuple(v) for v in vectors)
    if not vectors:
        return ()
    rank = len(vectors[0])
    for v in vectors:
        if len(v) != rank:
            raise ValueError("module elements must share one length")
        for f in v:
            if f.ring != ring:
                raise RingMismatchError("module element from a different ring")
    basis = _module_basis(ring, vectors, rank)
    if basis.ring is not ring:  # stored for an equal ring made apart
        return tuple(tuple(Polynomial(ring, f.vec) for f in v) for v in basis.vectors)
    return basis.vectors


@memoized
def _module_basis(ring, vectors, rank):
    G = _module_buchberger_dicts([_vec_from_polys(ring, v) for v in vectors], ring)
    return ModuleBasis(ring, rank, (_vec_to_polys(ring, rank, v) for v in _reduced_basis(G, ring)))


@metered
def _stored(compute, rows, ring, *rest):
    """(compute(rows, ring, *rest), the stored holder of the one basis it
    computes or an empty rank-1 one for no rows, the (key, cost) paid)."""
    result, charge = _paid_for(compute, rows, ring, *rest)
    holder = _METER.get().store[charge[0][0]][0] if charge else ModuleBasis(ring, 1, ())
    return result, holder, charge


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

    The basis is computed once per handle (the ring's order is fixed) and
    kept in its stored `ModuleBasis`, shared by equal handles and
    self-checked by the first, with the key and cost of the basis, which
    each use pays to the open meter: a meter pays for a basis once,
    however many handles hold it.  Concurrent readers are safe: the
    computation is deterministic and `_gb` is assigned last, so a
    duplicated computation writes identical values.
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
        self._holder = None  # the ModuleBasis that _gb is the basis of
        self._charge = ()  # the (key, cost) of the basis _gb came from, if any

    def __repr__(self):
        return f"<Ideal ({', '.join(str(g) for g in self.gens)}) of {self.ring.describe()}>"

    def working_gens(self):
        return tuple(g for g in self.gens if g) + self.ring.base_ideal

    def groebner(self):
        if self._gb is None:
            gb, holder, charge = _stored(groebner_basis, self.working_gens(), self.ring)
            if not holder._checked:  # self-check: every input generator must reduce to zero
                for g in self.working_gens():
                    if not holder.reduce((g,))[0].is_zero:
                        raise AssertionError(
                            f"generator {g} does not reduce against its own basis")
                holder._checked = True
            self._keep(holder, charge, gb)
        else:
            meter = _METER.get()
            if meter is not None:
                for key, cost in self._charge:
                    meter.pay(key, cost)
        return self._gb

    def _keep(self, holder: "ModuleBasis", charge, gb):
        self._holder = holder
        self._charge = charge
        self._gb = gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("element from a different ring")
        if not self.groebner():
            return f
        return self._holder.reduce((f,))[0]

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "IdealHandle") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("ideals in different rings")
        return self.groebner() == other.groebner()

    def is_unit(self) -> bool:
        if any(g and g.is_constant() for g in self.gens):
            return True
        basis = self.groebner()
        return len(basis) == 1 and basis[0].is_constant()

    def is_zero_ideal(self) -> bool:
        """True if the ideal of A is zero, i.e. every generator lies in J0."""
        return zero_ideal(self.ring).contains_ideal(self)

    def gb_hash(self) -> str:
        basis = self.groebner()  # charges the open meter, as every use does
        if self._holder._hash is None:  # once per holder
            self._holder._hash = gb_hash(self.ring, basis)
        return self._holder._hash


def zero_ideal(ring: RingSpec) -> IdealHandle:
    """The zero ideal of A = k[x]/J0, made once per ring object and kept
    on it; its basis is the reduced basis of J0."""
    if ring._zero_ideal is None:
        ring._zero_ideal = IdealHandle(ring, ())
    return ring._zero_ideal


def quotient_ring(I: IdealHandle) -> RingSpec:
    """The ring A/I.  Its zero ideal takes over I's basis, rehomed into a
    holder of its own, with the key and cost of the basis it came from:
    the reduced basis of J0 + I is unique, so it is never computed again."""
    ring = I.ring.quotient(I.gens)
    gb = tuple(ring.rehome(g) for g in I.groebner())
    zero_ideal(ring)._keep(ModuleBasis(ring, 1, [(g,) for g in gb]), I._charge, gb)
    return ring


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


def first_syzygy_entries(rows, ring) -> IdealHandle:
    """Ideal of the first-row coefficients a with a*rows[0] in the span
    of rows[1:]: the first entries of the syzygies of the rows, with
    only the first row tagged.

    The row block is strongest, so the basis elements whose row block
    vanishes are a basis of the syzygies (the elimination property of a
    position-over-term order, Greuel-Pfister 2.8), and their one-entry
    tails are the reduced basis of the ideal, which the handle keeps
    with the key and cost of the module basis, never computing it again."""
    (_basis, _cofactors, syz), charge = _paid_for(_augmented, rows, ring, 1)
    handle = IdealHandle(ring, tuple(s[0] for s in syz))
    handle._keep(ModuleBasis(ring, 1, syz), charge, handle.gens)
    return handle


# ---------------------------------------------------------------------------
# module membership over the quotient ring


class ModuleBasis:
    """A reduced basis of a submodule of A^rank and the one holder of its
    reduction entries, built by the first `reduce`, which answers in the
    ring of the vector reduced.  Their memo lives as long as the holder,
    so each reduction looks up a term's divisor once; each key has one
    value there, so concurrent reductions may share it.  `_checked`
    records a passed handle self-check, `_hash` the handles' `gb_hash`."""

    __slots__ = ("ring", "rank", "vectors", "_reducers", "_checked", "_hash")

    def __init__(self, ring: RingSpec, rank: int, vectors):
        self.ring = ring
        self.rank = rank
        self.vectors = tuple(vectors)
        self._reducers = None
        self._checked = False
        self._hash = None

    def reduce(self, vec):
        ring = vec[0].ring
        if self._reducers is None:
            # a rank-1 entry shares its polynomial's dict: nothing writes to either
            vecs = (v[0].vec if self.rank == 1 else _vec_from_polys(ring, v)
                    for v in self.vectors)
            self._reducers = _Reducers(_BasisElt(_primitive(ring.field, d)) for d in vecs)
        r = _vec_reduce(_vec_from_polys(ring, vec), self._reducers, ring, exact=True)
        return _vec_to_polys(ring, self.rank, r)

    def contains(self, vec) -> bool:
        return all(f.is_zero for f in self.reduce(vec))


def module_gb(vectors, ring) -> ModuleBasis:
    """The stored reduced basis of the A-submodule generated by `vectors`.

    Quotient structure enters by appending J0 multiples of the free
    basis vectors, so `contains` answers membership over A.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("module_gb needs at least one generator to fix the rank")
    rank = len(vectors[0])
    return _stored(module_groebner, vectors + _base_rows(ring, rank), ring)[1]


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


class ExtendedGB:
    """Reduced basis of (gens + J0) with exact cofactor bookkeeping.

    `augmented` is the stored `ModuleBasis` of the vectors (b | cofactors)
    and (0 | syzygy): b = sum(cofactors * inputs) exactly in the free
    ring, where inputs = user generators followed by the base ideal
    generators.  express() reduces through it to write any ring element
    as normal form plus such a combination.
    """

    def __init__(self, inputs: tuple, augmented: ModuleBasis):
        self.inputs = inputs
        self.augmented = augmented

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
    rows = [(g,) for g in gens] + _base_rows(ring, 1)
    inputs = tuple(row[0] for row in rows)
    (basis, cofs, _syz), augmented, _charge = _stored(_augmented, rows, ring, len(rows))
    for (b,), cof in zip(basis, cofs):
        total = ring.zero
        for c, g in zip(cof, inputs):
            total = total + c * g
        if total != b:
            raise AssertionError("basis cofactor identity failed")
    return ExtendedGB(inputs, augmented)
