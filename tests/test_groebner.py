import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cicert.groebner import (
    Budget,
    BudgetExceededError,
    IdealHandle,
    _module_buchberger_dicts,
    _reduced_basis,
    _vec_from_polys,
    extended_groebner,
    gb_hash,
    groebner_basis,
    module_gb,
    module_normal_form,
    module_syzygies,
    syzygies,
    zero_ideal,
)
from cicert.poly import GF, QQ, MonomialOrder, RingSpec

from oracles import membership_oracle, syzygy_oracle


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


def test_budget_exceeded_carries_partial():
    R = RingSpec(("x", "y", "z"), QQ)
    gens = [R.parse(t) for t in ("x^3*y - z^2", "y^4 - x*z", "z^3 - x^2*y^2")]
    with pytest.raises(BudgetExceededError) as err, Budget(limit=2):
        groebner_basis(gens, R)
    assert err.value.limit == 2
    assert err.value.partial is not None and len(err.value.partial()) >= 3


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


@pytest.mark.parametrize("family, n, field, order, steps, size", [
    (_katsura, 4, GF(32003), "grevlex", 28, 13),
    (_cyclic, 5, GF(32003), "grevlex", 107, 20),
    (_katsura, 3, QQ, "lex", 52, 4),
], ids=["katsura4-F32003-grevlex", "cyclic5-F32003-grevlex", "katsura3-QQ-lex"])
def test_spair_counts_pinned(family, n, field, order, steps, size):
    # The pair order decides which pairs the criteria drop, and so every
    # step count a budget-bound verdict depends on.
    nvars = n + 1 if family is _katsura else n
    R = RingSpec(tuple(f"x{i}" for i in range(nvars)), field, MonomialOrder(order))
    with Budget() as b:
        basis = groebner_basis(family(R, n), R)
    assert (b.used, len(basis)) == (steps, size)


def test_basis_vectors_lead_with_first_key(R3):
    lex = RingSpec(tuple(f"x{i}" for i in range(4)), QQ, MonomialOrder("lex"))
    block = RingSpec(("x", "y", "z"), GF(7),
                     MonomialOrder("block", block=1, tail_kind="lex", permutation=(2, 0, 1)))
    cases = [
        (lex, [(f,) for f in _katsura(lex, 3)]),
        (R3, [(R3.parse("x^2 - y"), R3.parse("x*y"), R3.one, R3.zero),
              (R3.parse("y^2 + z"), R3.parse("x*z - 1"), R3.zero, R3.one)]),
        (block, [(block.parse(t),) for t in ("x*y - z^2", "y^3 - x", "x*z + y")]),
    ]
    for ring, vectors in cases:
        G = _module_buchberger_dicts([_vec_from_polys(v) for v in vectors], ring)
        for b in G + _reduced_basis(G, ring):
            keys = [(-pos, ring.order.key(m)) for pos, m in b.vec]
            assert keys == sorted(keys, reverse=True)
            assert (b.pos, b.mono) == next(iter(b.vec))


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
