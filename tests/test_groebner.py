import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from cicert import groebner
from cicert.groebner import (
    BasisStore,
    Budget,
    BudgetExceededError,
    Budgets,
    IdealHandle,
    ModuleBasis,
    _BasisElt,
    _module_buchberger_dicts,
    _primitive,
    _reduced_basis,
    _Reducers,
    _spair,
    _vec_from_polys,
    _vec_reduce,
    extended_groebner,
    gb_hash,
    groebner_basis,
    module_gb,
    module_groebner,
    module_normal_form,
    module_syzygies,
    quotient_ring,
    syzygies,
    zero_ideal,
)
from cicert.poly import GF, QQ, MonomialOrder, RingSpec

from oracles import membership_oracle, syzygy_oracle, tuple_key


def test_principal_ideal(R3):
    basis = IdealHandle(R3, ["x"]).groebner()
    assert [str(g) for g in basis] == ["x"]


def test_lex_reduction():
    R = RingSpec(("x", "y"), QQ, MonomialOrder("lex"))
    basis = IdealHandle(R, ["x + y", "y"]).groebner()
    assert {str(g) for g in basis} == {"x", "y"}


def test_twisted_cubic_membership(R3, twisted_cubic):
    assert twisted_cubic.contains(R3.parse("x*z - y^2"))
    assert not twisted_cubic.contains(R3.gen("x"))


def test_normal_form_examples(R3):
    I = IdealHandle(R3, ["x"])
    assert I.normal_form(R3.parse("x^2")).is_zero
    assert I.normal_form(R3.gen("y")) == R3.gen("y")
    J = IdealHandle(R3, ["x*y - 1"])
    assert J.normal_form(R3.parse("x*(x*y - 1) + x")) == R3.gen("x")


def test_membership_examples(R3):
    assert not IdealHandle(R3, ["x^2"]).contains(R3.gen("x"))
    assert IdealHandle(R3, ["x"]).contains(R3.parse("x^2"))


def test_reduced_basis_invariant_under_input_presentation(R3):
    gens = ["y - x^2", "z - x^3"]
    a = IdealHandle(R3, gens).groebner()
    b = IdealHandle(R3, list(reversed(gens)) + gens).groebner()
    assert a == b


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_reduced_basis_shuffle_property(seed):
    R = RingSpec(("x", "y"), QQ)
    gens = [R.parse(t) for t in ("x^2 + y", "x*y - 1", "y^3 - x")]
    rng = random.Random(seed)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    shuffled += [rng.choice(gens)]
    assert groebner_basis(gens, R) == groebner_basis(shuffled, R)


def test_zero_generators_ignored(R3):
    assert IdealHandle(R3, [R3.zero, R3.gen("x")]).groebner() == \
        IdealHandle(R3, ["x"]).groebner()


def test_unit_ideal(R3):
    basis = IdealHandle(R3, ["x", "x + 1"]).groebner()
    assert [str(g) for g in basis] == ["1"]


def test_quotient_ring_membership():
    bare = RingSpec(("x", "y"), QQ)
    A = bare.quotient([bare.parse("x*y")])
    I = IdealHandle(A, ["x"])
    assert I.contains(A.parse("x*y^5"))
    assert not I.contains(A.gen("y"))


def test_budget_exceeded_carries_its_limit():
    R = RingSpec(("x", "y", "z"), QQ)
    gens = [R.parse(t) for t in ("x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2")]
    with pytest.raises(BudgetExceededError) as err, Budget(Budgets(gb_steps=2)):
        groebner_basis(gens, R)
    assert err.value.limit == 2


def test_store_reuses_a_basis_at_its_cost():
    bare = RingSpec(("x", "y", "z"), QQ)
    A, B = (bare.quotient([bare.parse("x*z - y^2")]) for _ in range(2))
    gens = ("x^3 - y*z", "z^2 - x^2*y")
    with Budget(store=BasisStore()) as meter:
        first = groebner_basis([A.parse(g) for g in gens], A)
        cost = meter.used
        # an equal ring made apart hits the entry and gets its own
        # polynomials; the basis has the same key, so it is paid once
        again = groebner_basis([B.parse(g) for g in gens], B)
        assert meter.used == cost > 0 and len(meter.store) == 1
        # the entry is the basis's holder, which builds its reduction
        # entries only when something reduces against it
        ((holder, _paid),) = meter.store.values()
    assert holder.vectors == tuple((g,) for g in first) and holder._reducers is None
    assert again == first and all(g.ring is B for g in again)
    assert meter.store is None  # a closed meter holds no store
    # with a store open a hit past the limit runs out as a recomputation does
    store = BasisStore()
    with Budget(store=store):
        groebner_basis([A.parse(g) for g in gens], A)
    with pytest.raises(BudgetExceededError), Budget(Budgets(gb_steps=cost - 1), store=store):
        groebner_basis([A.parse(g) for g in gens], A)


def test_equal_handles_share_the_stored_holder(monkeypatch):
    """Under one store, a handle of equal generators, over the same ring
    or an equal one made apart, takes the holder the first handle took
    and checked: it builds no holder and reduces nothing, and what it
    hands out is of its own ring."""
    bare = RingSpec(("x", "y", "z"), QQ)
    A, B = (bare.quotient([bare.parse("x*z - y^2")]) for _ in range(2))
    gens = ("x^3 - y*z", "z^2 - x^2*y")
    with Budget(store=BasisStore()):
        first = IdealHandle(A, gens)
        first.groebner()
        holder = first._holder
        assert holder._checked and holder._reducers is not None
        built, reduced = [], []
        init, reduce = ModuleBasis.__init__, groebner._vec_reduce
        monkeypatch.setattr(ModuleBasis, "__init__",
                            lambda *args: built.append(args) or init(*args))
        monkeypatch.setattr(groebner, "_vec_reduce",
                            lambda *args, **kw: reduced.append(args) or reduce(*args, **kw))
        same, apart = IdealHandle(A, gens), IdealHandle(B, gens)
        assert same.groebner() == apart.groebner() == first.groebner()
        assert same._holder is apart._holder is holder
        assert built == [] and reduced == []
        monkeypatch.undo()
    assert all(g.ring is B for g in apart.groebner())
    remainder = apart.normal_form(B.parse("x^4 + y"))
    assert remainder == first.normal_form(A.parse("x^4 + y")) and remainder.ring is B
    assert apart.gb_hash() == first.gb_hash() == gb_hash(A, first.groebner())


def test_rank1_reduction_entries_share_the_basis_dicts():
    """Over GF(p) each basis polynomial is monic, so its reduction entry
    holds the polynomial's own dict, and reducing leaves both as they
    were."""
    R = RingSpec(("x", "y", "z"), GF(7))
    I = IdealHandle(R, ["x*z - y^2", "x^3 - y*z", "x^2*y - z^2"])
    with Budget(store=BasisStore()):
        basis = I.groebner()
        before = [dict(g.vec) for g in basis]
        assert I.normal_form(R.parse("x^4 + 3*y*z^2 + x")) == R.parse("x*y*z + 3*y*z^2 + x")
        entries = I._holder._reducers.elts
    assert [b.vec for b in entries] == before
    assert all(b.vec is g.vec for b, g in zip(entries, basis))


def test_self_check_runs_until_a_handle_passes_it(monkeypatch):
    """A holder records only a passed self-check: against a wrong basis
    every handle that takes it checks again and fails."""
    R = RingSpec(("x", "y", "z"), QQ)
    reduced = groebner._reduced_basis
    monkeypatch.setattr(groebner, "_reduced_basis", lambda G, ring: reduced(G, ring)[1:])
    with Budget(store=BasisStore()) as meter:
        for _ in range(2):
            with pytest.raises(AssertionError, match="does not reduce"):
                IdealHandle(R, ["y - x^2", "z - x^3"]).groebner()
        ((holder, _paid),) = meter.store.values()
    assert not holder._checked


def test_module_and_extended_bases_reduce_through_the_stored_holder():
    bare = RingSpec(("x", "y", "z"), QQ)
    A, B = (bare.quotient([bare.parse("x*z - y^2")]) for _ in range(2))
    with Budget(store=BasisStore()) as meter:
        rows = [(A.gen("x"), A.gen("y")), (A.gen("y"), A.gen("z"))]
        module = module_gb(rows, A)
        assert module_gb([tuple(r) for r in rows], A) is module
        ext = extended_groebner([A.parse("y - x^2"), A.parse("z - x^3")], A)
        again = extended_groebner([B.parse("y - x^2"), B.parse("z - x^3")], B)
        stored = [entry[0] for entry in meter.store.values()]
        # the syzygies of the rows are read for their vectors only
        module_syzygies(rows, A)
        (read,) = [entry[0] for entry in meter.store.values() if entry[0] not in stored]
    assert any(h is module for h in stored) and any(h is ext.augmented for h in stored)
    assert again.augmented is ext.augmented
    assert module.contains((A.parse("x^2"), A.parse("x*y")))
    remainder, coeffs = again.express(B.parse("x*z - y^2 + x"))
    assert remainder == B.gen("x") and remainder.ring is B
    assert all(c.ring is B for c in coeffs)
    assert read._reducers is None


def test_no_store_open_computes_afresh(monkeypatch):
    """Only the open meter's store is looked up: under a meter opened
    without one, which gets a fresh one, or with no meter open, a basis
    is computed again."""
    calls = []
    charge = Budget.charge

    def counted(meter):
        calls.append(None)
        return charge(meter)

    monkeypatch.setattr(Budget, "charge", counted)
    R = RingSpec(("x", "y", "z"), QQ)
    gens = [R.parse(t) for t in ("x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2")]
    store = BasisStore()
    with Budget(store=store):
        groebner_basis(gens, R)
    cost = len(calls)
    with Budget():
        groebner_basis(gens, R)
    groebner_basis(gens, R)
    assert len(calls) == 3 * cost > 0 and len(store) == 1


def test_innermost_meter_is_charged():
    R = RingSpec(("x", "y", "z"), QQ)
    gens = [R.parse(t) for t in ("x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2")]
    with Budget() as outer:
        with Budget() as inner:
            groebner_basis(gens, R)
        assert inner.used > 0 and outer.used == 0
        groebner_basis(gens, R)
    assert outer.used == inner.used
    # with no meter open, a computation gets a fresh one of its own
    groebner_basis(gens, R)
    assert outer.used == inner.used


def test_zero_ideal_is_kept_per_ring(quotient_dim3):
    A = quotient_dim3
    assert zero_ideal(A) is zero_ideal(A)
    assert zero_ideal(A).groebner() == groebner_basis(A.base_ideal, A)
    assert zero_ideal(A).contains(A.gen("w"))
    assert not zero_ideal(A).contains(A.gen("x"))


def test_cached_basis_charged_once_per_meter():
    R = RingSpec(("x", "y", "z"), QQ)
    I = IdealHandle(R, ["x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2"])
    with Budget() as first:
        I.groebner()
        cost = first.used
        I.groebner()
        I.normal_form(R.gen("x"))
    assert cost > 0 and first.used == cost
    # a later meter pays what a fresh handle would cost it, once
    with Budget() as second:
        I.groebner()
        I.groebner()
    assert second.used == cost


def test_a_meter_pays_each_distinct_basis_once():
    """Two handles of equal value made apart, in rings made apart, hold
    one basis: a meter pays its cost once, however many of them it
    uses, and a second meter pays it once again."""
    bare = RingSpec(("x", "y", "z"), QQ)
    gens = ["x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2"]
    I, J = (IdealHandle(bare.quotient([bare.parse("x*z - y^2")]), gens)
            for _ in range(2))
    with Budget() as first:
        I.groebner()
        cost = first.used
        J.groebner()
        I.normal_form(I.ring.gen("x"))
    assert cost > 0 and first.used == cost
    with Budget() as second:
        J.groebner()
        I.groebner()
    assert second.used == cost


@pytest.mark.parametrize("base", [(), ("w^2 - x*z",)])
def test_quotient_ring_zero_ideal_is_the_ideal(base):
    bare = RingSpec(("x", "y", "z", "w"), QQ)
    R = bare.quotient([bare.parse(g) for g in base])
    I = IdealHandle(R, ["y - x^2", "z - x^3", R.zero])
    A = quotient_ring(I)
    assert A == R.quotient(I.gens)
    assert zero_ideal(A).groebner() == tuple(A.rehome(g) for g in I.groebner())
    assert zero_ideal(A).groebner() == groebner_basis(A.base_ideal, A)
    assert zero_ideal(A).contains(A.parse("x*z - y^2"))
    assert not zero_ideal(A).contains(A.gen("x"))


def test_quotient_ring_takes_over_the_cost():
    R = RingSpec(("x", "y", "z"), QQ)
    gens = ["x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2"]
    with Budget() as fresh:
        IdealHandle(R, gens).groebner()
    I = IdealHandle(R, gens)
    with Budget() as b:
        A = quotient_ring(I)
        assert b.used == fresh.used > 0
        zero_ideal(A).groebner()
        zero_ideal(A).normal_form(A.gen("x"))
    assert b.used == fresh.used
    # a later meter is charged the basis once, as for I itself
    with Budget() as later:
        zero_ideal(A).groebner()
        zero_ideal(A).groebner()
    assert later.used == fresh.used


def _katsura(R, n):
    u = R.gens()

    def U(i):
        return u[abs(i)] if abs(i) <= n else R.zero
    eqs = [sum((U(i) for i in range(-n, n + 1)), R.zero) - 1]
    for m in range(n):
        eqs.append(sum((U(i) * U(m - i) for i in range(-n, n + 1)), R.zero) - U(m))
    return eqs


def _cyclic(R, n):
    x = R.gens()
    eqs = [sum((prod(x[(i + j) % n] for j in range(d)) for i in range(n)), R.zero)
           for d in range(1, n)]
    return eqs + [prod(x) - 1]


@pytest.mark.parametrize("family, n, field, order, steps, size, digest", [
    (_katsura, 4, GF(32003), "grevlex", 28, 13,
     "ac3ec1765f8e1d01933bb99260281a7e492d422df0e1ddb07d441d5d38f71a72"),
    (_cyclic, 5, GF(32003), "grevlex", 112, 20,
     "3decbf7a270bb52e4693591bf9af0a6b2fba5ab6f1d2a15f4e77bea62f788de0"),
    (_katsura, 3, QQ, "lex", 17, 4,
     "65a4653e0ac6c9babf58458768d194459109e906637dfb74ce2e89826e501ce5"),
    (_katsura, 4, QQ, "grevlex", 28, 13,
     "8731bee3d96949fac3237a3375cf8ab45a06c8ae530ed2cd12bc7fda2ca6a2d7"),
    (_cyclic, 5, QQ, "grevlex", 112, 20,
     "6685dd264619cc85bcd7e24da5aa2246f986de95f9be9b1b10e625eb8c3edb56"),
    (_cyclic, 5, QQ, "lex", 100, 11,
     "b1e804cb9260627a37fc39033afc7d1c906c4c384dfd64ab51e5c21e39fd616c"),
    (_katsura, 4, GF(32003), "lex", 60, 5,
     "812dca7eac60efc98a2a6a4fa3792067fa82187afa73d611de3529e9d5dee759"),
], ids=["katsura4-F32003-grevlex", "cyclic5-F32003-grevlex", "katsura3-QQ-lex",
        "katsura4-QQ-grevlex", "cyclic5-QQ-grevlex", "cyclic5-QQ-lex",
        "katsura4-F32003-lex"])
def test_spair_counts_pinned(family, n, field, order, steps, size, digest):
    # The pair order decides which pairs the criteria drop, and so every
    # step count a budget-bound verdict depends on; the basis hash pins
    # what the division loop and the interreduction make of them, over
    # both fields.
    nvars = n + 1 if family is _katsura else n
    R = RingSpec(tuple(f"x{i}" for i in range(nvars)), field, MonomialOrder(order))
    with Budget() as b:
        basis = groebner_basis(family(R, n), R)
    assert (b.used, len(basis), gb_hash(R, basis)) == (steps, size, "sha256:" + digest)


def test_quartic_search_basis_pinned():
    # The second dearest basis of the 4-trial rational quartic search at
    # seed 1, over F125 = F5[a]/(a^3 + a + 1).  A signature core that
    # dropped a reduction result top-reducible by a reducer of equal
    # signature monomial returned 21 elements here, not a Groebner basis,
    # while every benchmark hash stayed the same.
    bare = RingSpec(("u", "q", "h", "e", "a"), GF(5))
    S = bare.quotient([bare.parse("a^3 + a + 1")])
    J = IdealHandle(S, [
        "3*u*q*h*e*a + 2*u^2*e^2*a + 2*q^4 + 3*u^2*q*h + q*h^3 + 4*q^2*e^2"
        " + 3*q^3 + 2*u^2*h + 3*q*h*a + 2*u*e*a",
        "4*h^4*e*a + q*h*e^3*a + 2*q*h^3*a + 3*q^2*e^2*a + 2*u*h^2 + 3*q^2*e"])
    with Budget() as b:
        basis = J.groebner()
    assert (b.used, len(basis), gb_hash(S, basis)) == (60, 22, "sha256:"
        "66f7dae7cc105a64d59cb7cae4256c97264f9bc99ab75a3f854c2165b37a9cd3")


def test_lex_cyclic5_within_300_steps():
    # Pairs whose lcm another pair's divides are dropped when an element
    # joins, and the pair of least sugar goes first, so the lex basis
    # needs a few hundred steps, not the thousands a scan at pop time took.
    R = RingSpec(tuple(f"x{i}" for i in range(5)), QQ, MonomialOrder("lex"))
    with Budget(Budgets(gb_steps=300)):
        basis = groebner_basis(_cyclic(R, 5), R)
    assert len(basis) == 11


def _term_lists(draw, nvars, size):
    terms = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-3, 3))
    return draw(st.lists(terms, min_size=1, max_size=size))


@st.composite
def _module_inputs(draw):
    """2-4 vectors of length 2 over QQ or GF(7) in x, y; an entry may be
    zero, so leads sit at both positions."""
    ring = RingSpec(("x", "y"), draw(st.sampled_from([QQ, GF(7)])))
    vectors = []
    for _ in range(draw(st.integers(2, 4))):
        vectors.append(tuple(ring.poly_from_dict(dict(_term_lists(draw, 2, 2)))
                             if draw(st.booleans()) else ring.zero for _ in range(2)))
    return ring, [v for v in vectors if any(v)]


@st.composite
def _elimination_inputs(draw):
    """Generators in QQ[x, y] or GF(7)[x, y] with a tag t in a block of
    its own, t first, as the radical test builds them: I + (1 - t*h)."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    ring = RingSpec(("t", "x", "y"), field, MonomialOrder("block", block=1))
    gens = [ring.poly_from_dict(dict(_term_lists(draw, 3, 3)))
            for _ in range(draw(st.integers(1, 3)))]
    h = ring.rehome(RingSpec(("x", "y"), field).poly_from_dict(dict(_term_lists(draw, 2, 2))))
    return ring, [(g,) for g in gens + [ring.one - ring.gen("t") * h] if g]


def _closed(vectors, ring):
    """Buchberger's test on a basis: every S-vector reduces to zero."""
    G = [_BasisElt(_primitive(ring.field, v)) for v in
         (_vec_from_polys(ring, b) for b in vectors)]
    reducers = _Reducers(G)
    unpack, pack, size = ring.packer.unpack, ring.packer.pack, ring.packer.size
    for a, b in itertools.combinations(G, 2):
        (pa, ea), (pb, eb) = unpack(a.lead), unpack(b.lead)
        if pa == pb:
            lcm = pack(tuple(map(max, ea, eb))) - (pa << size)
            if _vec_reduce(_spair(a, b, lcm, ring), reducers, ring):
                return False
    return True


@given(case=_module_inputs() | _elimination_inputs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_reduced_basis_ignores_order_and_repeats(case, data):
    """Rank-2 modules (no product criterion) and the t-first block order
    of the radical test take the pair update through other cases than the
    lex and grevlex ideals above: the reduced basis must not depend on
    the order or the repetition of the inputs, and must pass
    Buchberger's test."""
    ring, vectors = case
    if not vectors:
        return
    shuffled = data.draw(st.permutations(vectors))
    shuffled += data.draw(st.lists(st.sampled_from(vectors), max_size=2))
    with Budget(Budgets(gb_steps=2000)):
        basis = module_groebner(vectors, ring)
        assert module_groebner(shuffled, ring) == basis
    assert _closed(basis, ring)
    members = ModuleBasis(ring, len(vectors[0]), basis)
    assert all(members.contains(v) for v in vectors)


def test_basis_vectors_lead_with_first_key(R3):
    lex = RingSpec(tuple(f"x{i}" for i in range(4)), QQ, MonomialOrder("lex"))
    block = RingSpec(("z", "x", "y"), GF(7), MonomialOrder("block", block=1, tail_kind="lex"))
    cases = [
        (lex, [(f,) for f in _katsura(lex, 3)]),
        (R3, [(R3.parse("x^2 - y"), R3.parse("x*y"), R3.one, R3.zero),
              (R3.parse("y^2 + z"), R3.parse("x*z - 1"), R3.zero, R3.one)]),
        (block, [(block.parse(t),) for t in ("x*y - z^2", "y^3 - x", "x*z + y")]),
    ]
    for ring, vectors in cases:
        with Budget():
            G = _module_buchberger_dicts([_vec_from_polys(ring, v) for v in vectors], ring)
        assert all(b.lead == next(iter(b.vec)) for b in G)
        for vec in [b.vec for b in G] + _reduced_basis(G, ring):
            keys = list(vec)
            assert keys == sorted(keys, reverse=True)
            # the int order is position over term in the ring's order
            terms = [ring.packer.unpack(k) for k in keys]
            tuple_keys = [(-pos, tuple_key(ring.order)(m)) for pos, m in terms]
            assert tuple_keys == sorted(tuple_keys, reverse=True)


def _assert_entry(field, b):
    coeffs = list(b.vec.values())
    assert b.lead == next(iter(b.vec)) and b.lc == coeffs[0]
    assert all(type(c) is int for c in coeffs)
    if field.characteristic:
        assert b.lc == 1 and all(0 < c < field.characteristic for c in coeffs)
    else:
        assert b.lc > 0 and gcd(*coeffs) == 1


def _assert_monic(field, vector):
    coeffs = [c for f in vector for c in f.vec.values()]
    assert coeffs[0] == 1
    for c in coeffs:
        if field.characteristic:
            assert type(c) is int and 0 < c < field.characteristic
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=str)
def test_basis_entries_are_primitive_and_outputs_monic(field):
    # Over QQ a basis entry is a primitive int vector with a positive
    # lead, over GF(p) a monic one; every basis handed out is monic.
    R = RingSpec(("x", "y", "z"), field)
    ideal = [R.parse(t) for t in ("3*x^3*y - z^2/2", "-2*y^4 + 5*x*z/3", "z^3/4 - x^2*y^2")]
    module = [(R.parse("2*x^2 - y/3"), R.parse("x*y/2")),
              (R.parse("-3*y^2 + z"), R.parse("4*x*z - 1"))]
    for vectors in ([(f,) for f in ideal], module):
        with Budget():
            G = _module_buchberger_dicts([_vec_from_polys(R, v) for v in vectors], R)
        for b in G:
            _assert_entry(field, b)
        for v in module_groebner(vectors, R):
            _assert_monic(field, v)
        members = module_gb(vectors, R)
        assert members.contains(vectors[0])
        for b in members._reducers.elts:
            _assert_entry(field, b)
    for g in groebner_basis(ideal, R):
        _assert_monic(field, (g,))


def test_basis_terms_are_descending_exponent_tuples(R3):
    # perfbench's reference reads `terms` of reduced bases
    A = R3.quotient([R3.parse("x*y")])
    basis = IdealHandle(A, ["x^2 + y*z - 1", "y^2 - 2*z"]).groebner()
    key = tuple_key(A.order)
    assert len(basis) == 5  # x*y from the base ideal among them
    for g in basis:
        terms = g.terms
        assert all(type(m) is tuple and len(m) == 3 and all(type(e) is int for e in m)
                   for m, _ in terms)
        assert all(c != 0 for _, c in terms)
        keys = [key(m) for m, _ in terms]
        assert all(k1 > k2 for k1, k2 in zip(keys, keys[1:]))


def test_gb_hash_stable(R3, skew_lines):
    assert skew_lines.gb_hash() == gb_hash(R3, skew_lines.groebner())
    assert skew_lines.gb_hash().startswith("sha256:")


# -- membership oracle agreement


def _random_poly(ring, rng, deg, terms=3):
    acc = {}
    for _ in range(terms):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(ring.nvars)] += 1
        acc[tuple(mono)] = ring.field.coerce(rng.randint(-3, 3))
    return ring.poly_from_dict(acc)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_member_matches_linear_oracle(field):
    rng = random.Random(7 if field is QQ else 11)
    ring = RingSpec(("x", "y"), field)
    for _ in range(12):
        gens = [_random_poly(ring, rng, 2) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = IdealHandle(ring, gens)
        queries = [_random_poly(ring, rng, 3)]
        combo = ring.zero
        for g in gens:
            combo = combo + _random_poly(ring, rng, 1) * g
        queries.append(combo)
        for q in queries:
            gb_says = I.contains(q)
            oracle_says = membership_oracle(q, gens, cap=7)
            if gb_says and not oracle_says:
                oracle_says = membership_oracle(q, gens, cap=12)
            assert gb_says == oracle_says


# -- modules


def test_module_gb_single(R3):
    mb = module_gb([(R3.gen("x"), R3.zero)], R3)
    assert mb.vectors == ((R3.gen("x"), R3.zero),)


def test_module_full(R3):
    mb = module_gb([(R3.one, R3.zero), (R3.zero, R3.one)], R3)
    assert mb.contains((R3.parse("x^3 - y"), R3.parse("z + 1")))


def test_module_mixed(R3):
    mb = module_gb([(R3.gen("x"), R3.gen("y")), (R3.gen("y"), R3.gen("x"))], R3)
    assert mb.contains((R3.parse("x^2 - y^2"), R3.zero))
    assert not mb.contains((R3.one, R3.zero))


def test_module_normal_form_is_canonical(R3):
    basis = [(R3.gen("x"), R3.zero), (R3.zero, R3.gen("y"))]
    v = (R3.parse("x^2 + y"), R3.parse("y^2 + x"))
    nf = module_normal_form(v, basis, R3)
    assert nf == (R3.gen("y"), R3.gen("x"))


# -- syzygies


def test_syzygies_regular_pair(R3):
    rows = syzygies((R3.gen("x"), R3.gen("y")))
    assert len(rows) == 1
    row = rows[0]
    assert {str(row[0]), str(row[1])} in ({"y", "-x"}, {"-y", "x"})


def test_syzygies_repeated_generator(R3):
    rows = syzygies((R3.gen("x"), R3.gen("x")))
    mb = module_gb(rows, R3)
    assert mb.contains((R3.constant(-1), R3.one))


def test_syzygies_in_quotient_ring():
    bare = RingSpec(("x", "y"), QQ)
    A = bare.quotient([bare.parse("x*y")])
    rows = syzygies((A.gen("x"),))
    assert [str(f) for row in rows for f in row] == ["y"]


def test_syzygies_with_zero_entry(R3):
    rows = syzygies((R3.gen("x"), R3.zero))
    mb = module_gb(rows, R3)
    assert mb.contains((R3.zero, R3.one))


def test_syzygy_completeness_against_bruteforce(R2):
    targets = (R2.parse("x^2 - y"), R2.parse("x*y + x"), R2.gen("y"))
    computed = module_gb(syzygies(targets), R2)
    for row in syzygy_oracle(targets, cap=3):
        assert computed.contains(row)


def test_module_syzygies_of_matrix(R3):
    rows = [(R3.gen("x"), R3.gen("y")), (R3.gen("y"), R3.gen("x"))]
    syz = module_syzygies(rows, R3)
    for s in syz:
        combined = [R3.zero, R3.zero]
        for c, row in zip(s, rows):
            combined[0] = combined[0] + c * row[0]
            combined[1] = combined[1] + c * row[1]
        assert combined[0].is_zero and combined[1].is_zero


# -- extended basis


def test_express_membership_witness(R3):
    ext = extended_groebner([R3.parse("y - x^2"), R3.parse("z - x^3")], R3)
    f = R3.parse("x*z - y^2")
    remainder, coeffs = ext.express(f)
    assert remainder.is_zero
    rebuilt = R3.zero
    for c, g in zip(coeffs, ext.inputs):
        rebuilt = rebuilt + c * g
    assert rebuilt == f


def test_express_nonmember(R3):
    ext = extended_groebner([R3.gen("x")], R3)
    remainder, coeffs = ext.express(R3.parse("x^2 + y"))
    assert remainder == R3.gen("y")


def test_extended_in_quotient_ring():
    bare = RingSpec(("x", "y"), QQ)
    A = bare.quotient([bare.parse("x*y")])
    ext = extended_groebner([A.gen("x")], A)
    remainder, coeffs = ext.express(A.parse("x*y + x"))
    assert remainder.is_zero
    # the identity is exact in the free ring, base generators included
    rebuilt = A.zero
    for c, g in zip(coeffs, ext.inputs):
        rebuilt = rebuilt + c * g
    assert rebuilt == A.parse("x*y + x")


def test_every_name_in_all_exists():
    """A public name deleted from a module must leave its `__all__` too."""
    import importlib
    import pkgutil

    import cicert

    missing = []
    for info in pkgutil.iter_modules(cicert.__path__):
        module = importlib.import_module(f"cicert.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    """The charge hand-off lives in `groebner`: no other module of the
    package imports a private name of another.  `groebner` builds on the
    `poly` kernel's private division loop, and only that is exempt."""
    import ast
    from pathlib import Path

    import cicert

    package = Path(cicert.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level == 0 and not source.startswith("cicert"):
                continue
            source = source.removeprefix("cicert.")
            if (path.stem, source) == ("groebner", "poly"):
                continue
            private += [f"{path.stem} <- {source}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
    assert private == []
