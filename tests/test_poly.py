from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cicert.groebner import groebner_basis
from cicert.poly import (
    EXPONENT_LIMIT,
    GF,
    QQ,
    ExponentOverflowError,
    Field,
    MonomialOrder,
    MonomialPacker,
    PolyParseError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    _BasisElt,
    _primitive,
    _Reducers,
    _vec_from_polys,
    _vec_reduce,
    _vec_to_polys,
    reduce,
)

from oracles import (dict_add, dict_mul, dict_neg, dict_pow, dict_str, dict_terms,
                     mono_mul, monic_vec, monic_vec_reduce, s_coerce, tuple_key)


@pytest.fixture(scope="module")
def R(request):
    return RingSpec(("x", "y", "z"), QQ)


def test_additive_inverse(R):
    x = R.gen("x")
    assert (x + (-x)).is_zero


def test_difference_of_squares(R):
    x, y = R.gen("x"), R.gen("y")
    assert (x + y) * (x - y) == R.parse("x^2 - y^2")


def test_f5_coefficient_wrap():
    F = RingSpec(("x",), GF(5))
    assert F.parse("2*x") * F.parse("3*x") == F.parse("x^2")


def test_terms_canonical(R):
    f = R.parse("x + y + x^2 - x")
    assert all(c != 0 for _, c in f.terms)
    keys = [tuple_key(R.order)(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)


def test_mixed_ring_error(R):
    other = RingSpec(("x", "y"), QQ)
    with pytest.raises(RingMismatchError):
        R.gen("x") + other.gen("x")


def test_scalar_coercion(R):
    x = R.gen("x")
    assert 2 * x - x == x
    assert (x + 1) - 1 == x
    assert x * Fraction(1, 2) == R.parse("x/2")


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
@pytest.mark.parametrize("value", [2.5, 0.5, 0.1, 1.0, "1", None])
def test_coerce_accepts_only_ints_and_fractions(field, value):
    """A float is never rounded or expanded into a scalar: over GF(7)
    2.5 would give 2 and 0.5 the zero polynomial, over QQ 0.1 would give
    3602879701896397/36028797018963968."""
    R = RingSpec(("x", "y"), field)
    with pytest.raises(TypeError):
        field.coerce(value)
    with pytest.raises(TypeError):
        R.constant(value)
    with pytest.raises(TypeError):
        R.monomial((1, 0), value)
    with pytest.raises(TypeError):
        R.gen("x") * value


def test_a_field_is_its_characteristic():
    assert QQ.characteristic == 0 and QQ.name == "QQ" and repr(QQ) == "QQ"
    assert GF(7).characteristic == 7 and GF(7).name == "Fp(7)" and repr(GF(7)) == "GF(7)"
    assert GF(7) == GF(7) and GF(7) != GF(11) and GF(7) != QQ
    assert GF(7) is not Field(7) and GF(7) == Field(7) and hash(GF(7)) == hash(Field(7))
    for bad in (0, 1, 4, -7, 2**63 + 29):
        with pytest.raises(ValueError):
            GF(bad)


def test_orders_and_extensions_made_apart_are_equal():
    """Ring equality and the session memo's keys compare these by value."""
    def order():
        return MonomialOrder("block", block=1, tail_kind="lex")

    a, b = order(), order()
    assert a is not b and a == b and hash(a) == hash(b)
    assert MonomialOrder("lex") != MonomialOrder("grevlex")
    assert RingSpec("xyz", GF(7), order()) == RingSpec("xyz", Field(7), order())
    # every order is checked when it is made, not at its first pack
    for bad in (lambda: MonomialOrder("bogus"),
                lambda: MonomialOrder("block"),
                lambda: MonomialOrder("block", block=1, tail_kind="bogus")):
        with pytest.raises(ValueError):
            bad()


def test_power(R):
    assert R.parse("(x + y)^3") == R.parse("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    # the lead x^2 shares x with the other terms, so this one is squared
    assert R.parse("(x^2 + x + 1)^2") == R.parse("x^4 + 2*x^3 + 3*x^2 + 2*x + 1")
    assert R.parse("x^0") == R.one


# -- division


def test_reduce_single(R):
    r, q = reduce(R.parse("x^2"), [R.gen("x")])
    assert r.is_zero and q[0] == R.gen("x")


def test_reduce_moves_to_remainder(R):
    r, q = reduce(R.parse("x*y + 1"), [R.gen("x")])
    assert r == R.one and q[0] == R.gen("y")


def test_reduce_hand_division(R):
    r, q = reduce(R.parse("x^2*y - x"), [R.parse("x*y - 1")])
    assert r.is_zero and q[0] == R.gen("x")


def test_reduce_identity_holds(R):
    f = R.parse("x^3*y - 2*x*y^2 + z - 1/3")
    divisors = [R.parse("x*y - z"), R.parse("y^2 - 1")]
    r, qs = reduce(f, divisors)
    total = r
    for q, g in zip(qs, divisors):
        total = total + q * g
    assert total == f
    # no remainder monomial is divisible by a leading monomial
    for m, _ in r.terms:
        for g in divisors:
            assert not all(a <= b for a, b in zip(g.lead_monomial, m))


def test_reduce_idempotent(R):
    divisors = [R.parse("x*y - z"), R.parse("y^2 - 1")]
    r, _ = reduce(R.parse("x^2*y^2 + x + y + z"), divisors)
    r2, _ = reduce(r, divisors)
    assert r2 == r


# -- monomial orders


monos = st.tuples(*(st.integers(min_value=0, max_value=6) for _ in range(3)))
# (a ring's variable names, its order): reordered names put z or y first
# in the order's forms, as an elimination ring puts its block first
orders = st.sampled_from([
    ("xyz", MonomialOrder("lex")),
    ("xyz", MonomialOrder("grevlex")),
    ("xyz", MonomialOrder("block", block=1, tail_kind="grevlex")),
    ("xyz", MonomialOrder("block", block=2, tail_kind="lex")),
    ("zxy", MonomialOrder("grevlex")),
    ("yzx", MonomialOrder("block", block=1, tail_kind="lex")),
])


def _named(names, m):
    """The exponents m of x, y, z in the positions of `names`."""
    return tuple(m["xyz".index(v)] for v in names)


@given(case=orders, a=monos, b=monos, c=monos)
@settings(max_examples=200, deadline=None)
def test_order_total_and_multiplicative(case, a, b, c):
    names, order = case
    a, b, c = (_named(names, m) for m in (a, b, c))
    key = tuple_key(order)
    ka, kb = key(a), key(b)
    assert (ka == kb) == (a == b)
    if ka < kb:
        assert key(mono_mul(a, c)) < key(mono_mul(b, c))


# exponents up to 2^28, so a product of two stays inside every field
wide_monos = st.one_of(monos, st.tuples(
    *(st.integers(min_value=0, max_value=2**28) for _ in range(3))))


@given(case=orders, a=wide_monos, b=wide_monos)
@settings(max_examples=300, deadline=None)
def test_packed_monomials_agree_with_tuples(case, a, b):
    names, order = case
    a, b = _named(names, a), _named(names, b)
    packer = MonomialPacker(order, 3)
    pa, pb = packer.pack(a), packer.pack(b)
    assert (pa < pb) == (tuple_key(order)(a) < tuple_key(order)(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == packer.pack(mono_mul(a, b))
    divides = all(x <= y for x, y in zip(a, b))
    guards = packer.guards
    assert (((pb | guards) - pa) & guards == guards) == divides
    assert packer.unpack(pa) == (0, a)


@given(case=orders, a=monos, b=monos,
       i=st.integers(min_value=0, max_value=3), j=st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_packed_vector_keys_are_position_over_term(case, a, b, i, j):
    names, order = case
    a, b = _named(names, a), _named(names, b)
    packer = MonomialPacker(order, 3)
    ka, kb = packer.pack(a, i), packer.pack(b, j)
    assert packer.unpack(ka) == (i, a)
    assert packer.degree(ka) == sum(a)
    key = tuple_key(order)
    assert (ka < kb) == ((-i, key(a)) < (-j, key(b)))
    divides = i == j and all(x <= y for x, y in zip(a, b))
    guards = packer.guards
    assert (((kb | guards) - ka) & packer.divmask == guards) == divides


def test_pack_checks_every_field_at_the_limit():
    lex = MonomialPacker(MonomialOrder("lex"), 2)
    grevlex = MonomialPacker(MonomialOrder("grevlex"), 2)
    half = 2**30
    # lex holds each exponent alone; grevlex also holds the degree
    assert lex.unpack(lex.pack((half, half))) == (0, (half, half))
    assert grevlex.unpack(grevlex.pack((EXPONENT_LIMIT, 0))) == (0, (EXPONENT_LIMIT, 0))
    with pytest.raises(ExponentOverflowError, match="2147483647"):
        grevlex.pack((half, half))
    with pytest.raises(ExponentOverflowError):
        lex.pack((EXPONENT_LIMIT + 1, 0))


def test_overflow_in_reduction_and_spairs_raises():
    R = RingSpec(("x", "y"), QQ, MonomialOrder("lex"))
    top = f"y^{EXPONENT_LIMIT}"
    # x*y^L reduces by x - y to y^(L+1), past the y field
    with pytest.raises(ExponentOverflowError):
        reduce(R.parse(f"x*{top}"), [R.parse("x - y")])
    # the S-polynomial of x*y - y^L and y^2 holds y^(L+1)
    with pytest.raises(ExponentOverflowError):
        groebner_basis([R.parse(f"x*y - {top}"), R.parse("y^2")], R)


def test_products_past_the_limit_raise():
    R = RingSpec(("x", "y"), QQ, MonomialOrder("lex"))
    top = f"x^{EXPONENT_LIMIT}"
    assert str(R.parse(top)) == top
    assert str(R.parse(f"{top}*y - {top}")) == f"{top}*y - {top}"
    for past in (f"{top}*x", f"x^{EXPONENT_LIMIT + 1}", f"({top} + y)^2",
                 f"(x + 1)^{EXPONENT_LIMIT + 1}", "(x - y + 1)^3000000000"):
        with pytest.raises(ExponentOverflowError):
            R.parse(past)


power_terms = st.lists(
    st.tuples(st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
              st.fractions(min_value=-3, max_value=3, max_denominator=2)),
    min_size=1, max_size=5)


@given(names=st.sampled_from(["xy", "xyz"]), field=st.sampled_from([QQ, GF(7)]),
       kind=st.sampled_from(["lex", "grevlex"]), terms=power_terms,
       split=st.booleans(), n=st.integers(min_value=0, max_value=8))
@example(names="xy", field=QQ, kind="grevlex", n=8, split=False,
         terms=[((1, 0, 0), 1), ((0, 1, 0), -1), ((0, 0, 0), 1)])  # (x - y + 1)^8
@example(names="xy", field=QQ, kind="lex", n=8, split=False,
         terms=[((3, 0, 0), 1), ((2, 0, 0), 2), ((1, 0, 0), -1), ((0, 0, 0), 5)])
@example(names="xyz", field=GF(7), kind="grevlex", n=8, split=False,
         terms=[((1, 1, 0), 1), ((0, 0, 1), -1)])  # x*y - z
@example(names="xyz", field=GF(7), kind="grevlex", n=20, split=False,
         terms=[((1, 1, 0), 1), ((0, 0, 1), -1)])  # (x*y - z)^20: b is one term
@example(names="xy", field=QQ, kind="lex", n=7, split=False,
         terms=[((2, 0, 0), 1), ((0, 1, 0), Fraction(-3, 2))])  # (x^2 - 3/2*y)^7
@settings(max_examples=200, deadline=None)
def test_power_matches_repeated_products(names, field, kind, terms, split, n):
    """f**n is n-fold `*`, term for term and in order.  With `split` the
    other terms lose the lead's variables, which keeps the lead (a divisor
    of a smaller monomial is smaller still) and gives the binomial path;
    without it, terms that share a variable with the lead are squared."""
    R = RingSpec(tuple(names), field, MonomialOrder(kind))
    acc = {}
    for m, c in terms:
        m = m[:len(names)]
        acc[m] = acc.get(m, 0) + field.coerce(c)
    f = R.poly_from_dict(acc)
    if split and len(f.vec) > 1:
        lead = f.lead_monomial
        acc = {}
        for m, c in f.terms:
            if m != lead:
                m = tuple(0 if e else d for d, e in zip(m, lead))
            acc[m] = acc.get(m, 0) + c
        f = R.poly_from_dict(acc)
        assert f.lead_monomial == lead
    product = R.one
    for _ in range(n):
        product = product * f
    assert list((f ** n).vec.items()) == list(product.vec.items())


@given(case=orders, a=monos)
@settings(max_examples=100, deadline=None)
def test_order_wellfoundedness_floor(case, a):
    names, order = case
    a = _named(names, a)
    # 1 is the minimum: a well-order on monomials needs a least element
    zero = (0, 0, 0)
    if a != zero:
        assert tuple_key(order)(a) > tuple_key(order)(zero)


small_polys = st.lists(
    st.tuples(monos, st.integers(min_value=-4, max_value=4)),
    min_size=0, max_size=4)


def _mk(R, items):
    acc = {}
    for m, c in items:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    return R.poly_from_dict(acc)


@given(a=small_polys, b=small_polys, c=small_polys)
@settings(max_examples=150, deadline=None)
def test_ring_axioms_exact(a, b, c):
    R = RingSpec(("x", "y", "z"), QQ)
    f, g, h = _mk(R, a), _mk(R, b), _mk(R, c)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


# -- differential: Polynomial against dicts of exponent tuples (oracles.py)


diff_orders = st.sampled_from([
    ("xyz", MonomialOrder("lex")),
    ("xyz", MonomialOrder("grevlex")),
    ("yzx", MonomialOrder("block", block=1, tail_kind="lex")),
])
diff_fields = st.sampled_from([QQ, GF(7), GF(2**61 - 1)])
dict_polys = st.dictionaries(
    monos, st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=4)


def _oracle(field, raw):
    coerced = {m: s_coerce(field.characteristic, c) for m, c in raw.items()}
    return {m: c for m, c in coerced.items() if c != 0}


@given(case=diff_orders, field=diff_fields, a=dict_polys, b=dict_polys,
       n=st.integers(min_value=0, max_value=3),
       c=st.fractions(min_value=-4, max_value=4, max_denominator=3), m=monos)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_tuple_oracle(case, field, a, b, n, c, m):
    names, order = case
    R = RingSpec(names, field, order)
    a, b = _oracle(field, a), _oracle(field, b)
    f, g = R.poly_from_dict(a), R.poly_from_dict(b)

    p = field.characteristic

    def agrees(poly, want):
        assert poly.terms == dict_terms(order, want)
        assert str(poly) == dict_str(R.variables, order, want)
        # coefficients are normalised: over QQ an int, or a Fraction that
        # is not one; over GF(p) an int in [0, p)
        for _, c in poly.terms:
            if p:
                assert type(c) is int and 0 <= c < p
            else:
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1)

    agrees(f, a)
    agrees(f + g, dict_add(field, a, b))
    agrees(-f, dict_neg(field, a))
    agrees(f - g, dict_add(field, a, dict_neg(field, b)))
    agrees(f * c, dict_mul(field, a, _oracle(field, {(0, 0, 0): c})))
    agrees(f * g, dict_mul(field, a, b))
    term = _oracle(field, {m: c})
    agrees(f * R.poly_from_dict(term), dict_mul(field, a, term))
    agrees(R.poly_from_dict(term) * f, dict_mul(field, term, a))
    agrees(f ** n, dict_pow(field, a, n, R.nvars))
    assert (f == g) == (a == b)
    same = R.poly_from_dict(dict(reversed(list(a.items()))))
    assert same == f and hash(same) == hash(f)


@given(field=diff_fields, a=dict_polys)
@settings(max_examples=100, deadline=None)
def test_rehome_and_embed_match_tuple_oracle(field, a):
    """`rehome` is the one move between rings and matches variables by
    name: into the elimination ring of z and back, into the radical
    test's ring with a leading tag t and back, into a ring with a
    trailing variable, as a scalar extension adds one, and into
    reordered names.  A term on a variable the target lacks, or another
    field, raises."""
    R = RingSpec(("x", "y", "z"), field)
    elim = RingSpec(("z", "x", "y"), field,
                    MonomialOrder("block", block=1, tail_kind="grevlex"))
    a = _oracle(field, a)
    f = R.poly_from_dict(a)
    moved = elim.rehome(f)
    assert moved.terms == dict_terms(elim.order, {_named("zxy", m): c for m, c in a.items()})
    back = R.rehome(moved)
    assert back == f and str(back) == str(f) and hash(back) == hash(f)
    assert R.rehome(f).vec is f.vec

    tagged = RingSpec(("t",) + R.variables, field,
                      MonomialOrder("block", block=1, tail_kind="grevlex"))
    inside = tagged.rehome(f)
    assert inside.terms == dict_terms(tagged.order, {(0,) + m: c for m, c in a.items()})
    assert R.rehome(inside) == f
    if f:  # t's block dominates every t-free monomial
        key = tuple_key(tagged.order)
        assert key((1, 0, 0, 0)) > key(inside.lead_monomial)

    trailing = RingSpec(R.variables + ("a",), field, MonomialOrder("lex"))
    trailing = trailing.quotient([trailing.parse("a^2 + 1")])  # base ideals are not compared
    outside = trailing.rehome(f)
    assert outside.terms == dict_terms(trailing.order, {m + (0,): c for m, c in a.items()})
    assert R.rehome(outside) == f

    reordered = RingSpec(("y", "z", "x"), field)
    assert reordered.rehome(f).terms == dict_terms(
        reordered.order, {_named("yzx", m): c for m, c in a.items()})
    assert R.rehome(reordered.rehome(f)) == f

    assert issubclass(RingMismatchError, ValueError)
    for target, g in ((R, tagged.gen("t") + inside),
                      (R, trailing.gen("a") + outside),
                      (RingSpec(("x", "y"), field), R.gen("z") ** 7 + f),
                      (RingSpec(R.variables, GF(3)), f)):
        with pytest.raises(RingMismatchError):
            target.rehome(g)


# -- differential: the fraction-free division loop against the monic one


reduce_fields = st.sampled_from([QQ, GF(7), GF(32003)])


def _coeffs(field):
    dens = [d for d in (1, 2, 3, 7) if not field.characteristic or d % field.characteristic]
    return st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from(dens))


def _vec(data, field, ring, rank, top):
    """A vector dict of `ring` drawn from `data`, exponents at most `top`:
    packed keys descending, coefficients coerced, zeros dropped."""
    mono = st.tuples(*(st.integers(min_value=0, max_value=top) for _ in range(3)))
    raw = data.draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=rank - 1), mono),
        _coeffs(field), max_size=5))
    acc = {ring.packer.pack(m, pos): field.coerce(c) for (pos, m), c in raw.items()}
    return {k: acc[k] for k in sorted(acc, reverse=True) if acc[k] != 0}


@given(data=st.data(), field=reduce_fields, case=diff_orders)
@settings(max_examples=200, deadline=None)
def test_fraction_free_reduction_matches_monic_oracle(data, field, case):
    names, order = case
    R = RingSpec(names, field, order)
    # low-degree divisors, so that most terms of the input reduce
    divisors = [v for v in (_vec(data, field, R, 2, 2) for _ in range(data.draw(
        st.integers(min_value=1, max_value=3)))) if v]
    work = _vec(data, field, R, 2, 4)
    basis = _Reducers(_BasisElt(_primitive(field, v)) for v in divisors)
    got = _vec_reduce(dict(work), basis, R, exact=True)
    want = monic_vec_reduce(work, [monic_vec(field, v) for v in divisors], R)
    assert list(got.items()) == list(want.items())
    # coefficients have the types Polynomial holds
    for c in got.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(data=st.data(), field=reduce_fields, case=diff_orders)
@settings(max_examples=100, deadline=None)
def test_memoised_reduction_matches_plain_scan(data, field, case):
    # A reducer list keeps its memo while it grows and while an entry is
    # replaced by one with the same lead; another list has a memo of its
    # own.  The same inputs are reduced again after each change, so their
    # keys come back to the memo.
    names, order = case
    R = RingSpec(names, field, order)

    def entries(count):
        return [_BasisElt(_primitive(field, v))
                for v in (_vec(data, field, R, 2, 2) for _ in range(count)) if v]

    works = [_vec(data, field, R, 2, 4) for _ in range(3)]

    def check(reducers):
        oracle = [monic_vec(field, b.vec) for b in reducers.elts]
        for work in works:
            got = _vec_reduce(dict(work), reducers, R, exact=True)
            want = monic_vec_reduce(work, oracle, R)
            assert list(got.items()) == list(want.items())

    grown = _Reducers(entries(2))
    check(grown)
    other = _Reducers(entries(2) + grown.elts[::-1])
    check(other)
    grown.elts.extend(entries(2))
    check(grown)
    check(other)
    if grown.elts:
        i = data.draw(st.integers(min_value=0, max_value=len(grown.elts) - 1))
        old = grown.elts[i]
        tail = {k: c for k, c in _vec(data, field, R, 2, 4).items() if k < old.lead}
        grown.elts[i] = _BasisElt(_primitive(field, {old.lead: old.lc, **tail}))
        check(grown)


@given(data=st.data(), field=reduce_fields, case=diff_orders)
@settings(max_examples=100, deadline=None)
def test_reduce_matches_monic_oracle(data, field, case):
    names, order = case
    R = RingSpec(names, field, order)
    f = Polynomial(R, _vec(data, field, R, 1, 4))
    divisors = [Polynomial(R, v) for v in (_vec(data, field, R, 1, 2) for _ in range(
        data.draw(st.integers(min_value=1, max_value=3)))) if v]
    r, qs = reduce(f, divisors)
    total = r
    for q, g in zip(qs, divisors):
        total = total + q * g
    assert total == f
    n = len(divisors)
    oracle_basis = [monic_vec(field, _vec_from_polys(
        R, (g,) + tuple(R.one if j == i else R.zero for j in range(n))))
        for i, g in enumerate(divisors)]
    want = _vec_to_polys(R, 1 + n, monic_vec_reduce(_vec_from_polys(R, (f,)), oracle_basis, R))
    assert r == want[0] and qs == [-q for q in want[1:]]


# -- parsing and printing


def test_monomial_text_is_per_ring():
    """One vec prints in each ring's own names, and a rehomed polynomial
    in its new ring's term order."""
    R = RingSpec(("x", "y"), QQ)
    S = RingSpec(("u", "v"), QQ)
    f = R.parse("x^2*y - 3/2*y + 1")
    g = Polynomial(S, f.vec)
    for _ in range(2):  # the second str() is the stored text
        assert str(f) == "x^2*y - 3/2*y + 1"
        assert str(g) == "u^2*v - 3/2*v + 1"
    lex = RingSpec(R.variables, QQ, MonomialOrder("lex"))
    h = R.parse("y^3 - x")
    assert str(h) == "y^3 - x" and str(lex.rehome(h)) == "-x + y^3"
    assert str(R.rehome(lex.rehome(h))) == "y^3 - x"


def test_parse_print_round_trip(R):
    for text in ["0", "x", "-x", "x^2*y + 3*x - 1/2", "2*x*z - y^2",
                 "x^3 - y*z", "-x*y + y"]:
        f = R.parse(text)
        assert str(R.parse(str(f))) == str(f)


def test_parse_errors(R):
    with pytest.raises(PolyParseError):
        R.parse("x +")
    with pytest.raises(PolyParseError):
        R.parse("q + 1")
    with pytest.raises(PolyParseError):
        R.parse("x / y")
    with pytest.raises(PolyParseError):
        R.parse("x ^ y")


def test_parse_env_names(R):
    f = R.parse("x^2 - x")
    assert R.parse("c + y", names={"c": f}) == f + R.gen("y")


# The parser against the operators: a generated expression tree is
# printed as text and, in the parser's order of evaluation, built with
# `gen`, `constant` and the operators.  `parse` must give the same terms
# in the same order, or raise the same exception with the same message.

_signs = st.sampled_from(["", "", "", "-", "+", "--", "-+-"])


def _ints(p):
    return st.sampled_from([0, 1, 2, 3, 7, 10**30 + 1] + ([p, 2 * p] if p else []))


@st.composite
def _factor_trees(draw, p, depth):
    """(signs, (kind, value), exponents).  Only a variable takes
    exponents near 2^31, and a second `^`: elsewhere they would expand
    polynomials far too large to build."""
    kinds = ["int", "var", "var", "var", "name"] + (["paren"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    small = st.lists(st.sampled_from([0, 1, 2, 3]), max_size=1)
    if kind == "int":
        value, exps = draw(_ints(p)), small
    elif kind == "var":
        value = draw(st.sampled_from(["x", "y", "z"]))
        exps = st.lists(st.sampled_from([0, 1, 2, 3, EXPONENT_LIMIT, EXPONENT_LIMIT + 1]),
                        max_size=2)
    elif kind == "name":
        value, exps = draw(st.sampled_from(["f", "g"])), small
    else:
        value, exps = draw(_sum_trees(p, depth + 1)), small
    return draw(_signs), (kind, value), draw(exps)


@st.composite
def _term_trees(draw, p, depth):
    """[(None or '*' or '/', factor)]; a divisor is a signed integer."""
    factors = [(None, draw(_factor_trees(p, depth)))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)):
            factors.append(("*", draw(_factor_trees(p, depth))))
        else:
            factors.append(("/", (draw(_signs), ("int", draw(_ints(p))), [])))
    return factors


@st.composite
def _sum_trees(draw, p, depth=0):
    """[(None or '+' or '-', term)]."""
    n = draw(st.integers(1, 3))
    return [(None if k == 0 else draw(st.sampled_from("+-")), draw(_term_trees(p, depth)))
            for k in range(n)]


def _negated(signs):
    return signs.count("-") % 2 == 1


class _Printed:
    """The text of an expression tree, and the value that the operators
    give it, as a function that raises what the parser should."""

    def __init__(self, ring, names):
        self.ring, self.names, self.text = ring, names, ""

    def emit(self, s):
        start = len(self.text)
        self.text += s
        return start

    def sum(self, tree, cut=None):
        """`cut` = (k, token) juxtaposes the token after term k, where
        the parse stops."""
        terms, stop = [], None
        for k, (op, term) in enumerate(tree):
            if op:
                self.emit(f" {op} ")
            terms.append((op, self.term(term)))
            if cut and cut[0] == k:
                self.emit(" ")
                stop = (k, cut[1], self.emit(cut[1]))

        def value():
            total = terms[0][1]()
            for op, term in terms[1:stop[0] + 1 if stop else None]:
                total = total - term() if op == "-" else total + term()
            if stop:
                token = int(stop[1]) if stop[1].isdigit() else stop[1]
                raise PolyParseError(f"unexpected token {token!r}", stop[2])
            return total
        return value

    def term(self, tree):
        factors = []
        for op, factor in tree:
            factors.append((op, self.emit(op) if op else None, factor, self.factor(factor)))

        def value():
            p = self.ring.field.characteristic
            product = factors[0][3]()
            for op, pos, (signs, (_, n), _), factor in factors[1:]:
                rhs = factor()
                if op == "*":
                    product = product * rhs
                else:
                    c = -n if _negated(signs) else n
                    if not (c % p if p else c):
                        raise PolyParseError("division only by a nonzero constant", pos)
                    product = product * Fraction(1, c)
            return product
        return value

    def factor(self, tree):
        signs, (kind, v), exps = tree
        self.emit(signs)
        if kind == "paren":
            self.emit("(")
            inner = self.sum(v)
            self.emit(")")
        else:
            self.emit(str(v))
        for e in exps:
            self.emit(f"^{e}")

        def value():
            if kind == "int":
                f = self.ring.constant(v)
            elif kind == "var":
                f = self.ring.gen(v)
            elif kind == "name":
                f = self.names[v]
            else:
                f = inner()
            for e in exps:
                f = f**e
            return -f if _negated(signs) else f
        return value


def _outcome(make):
    try:
        f = make()
    except Exception as exc:
        return type(exc), str(exc)
    return [(k, type(c), c) for k, c in f.vec.items()]


def _parse_ring(p, order):
    ring = RingSpec(("x", "y", "z"), GF(p) if p else QQ, MonomialOrder(order))
    x, y = ring.gen("x"), ring.gen("y")
    # a session name never shadows a ring variable
    return ring, {"f": x * y - 1, "g": ring.zero, "x": y + 1}


@given(data=st.data(), p=st.sampled_from([0, 2, 3, 32003]),
       order=st.sampled_from(["grevlex", "lex"]))
@settings(max_examples=300, deadline=None)
def test_parse_matches_operators(data, p, order):
    ring, names = _parse_ring(p, order)
    tree = data.draw(_sum_trees(p))
    cut = data.draw(st.none() | st.tuples(st.integers(0, len(tree) - 1),
                                          st.sampled_from(["y", "5", "(", "f"])))
    printed = _Printed(ring, names)
    expected = printed.sum(tree, cut)
    assert _outcome(lambda: ring.parse(printed.text, names)) == _outcome(expected)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("text, build", [
    ("x^2147483648", lambda R, x, y, f: x**2147483648),
    ("x^2147483647*x", lambda R, x, y, f: x**2147483647 * x),
    ("x^2147483647*y", lambda R, x, y, f: x**2147483647 * y),
    ("0*x^2147483647*x", lambda R, x, y, f: R.zero),
    ("x^2147483647*x*0", lambda R, x, y, f: x**2147483647 * x),
    ("2^3*x", lambda R, x, y, f: R.constant(2)**3 * x),
    ("-x*-y", lambda R, x, y, f: -x * -y),
    ("x^2^3", lambda R, x, y, f: (x**2)**3),
    ("3*x", lambda R, x, y, f: R.constant(3) * x),
    ("x y", lambda R, x, y, f: _raise(PolyParseError("unexpected token 'y'", 2))),
    ("x*f", lambda R, x, y, f: x * f),
    ("2*x/2", lambda R, x, y, f: R.constant(2) * x * Fraction(1, 2)),
    ("x^03", lambda R, x, y, f: x**3),
    ("123456789012345678901234567890*x",
     lambda R, x, y, f: R.constant(123456789012345678901234567890) * x),
    ("x*", lambda R, x, y, f: _raise(PolyParseError("expected a value", 2))),
])
def test_parse_edge_cases_match_operators(text, build, p):
    ring, names = _parse_ring(p, "grevlex")
    x, y = ring.gen("x"), ring.gen("y")
    expected = _outcome(lambda: build(ring, x, y, names["f"]))
    assert _outcome(lambda: ring.parse(text, names)) == expected


def test_qq_results_are_ints_or_fractions(R):
    """Over QQ every sum, difference, product, scaling and quotient holds
    an int where its value is integral and a Fraction elsewhere, never a
    float; each compares, hashes and prints as its Fraction."""
    half, x = R.constant(Fraction(1, 2)), R.gen("x")
    integral = [R.one, R.constant(4), R.constant(Fraction(6, 3)), half + half,
                R.constant(Fraction(3, 2)) - half, R.constant(Fraction(2, 3)) * 3,
                R.constant(QQ.inv(Fraction(1, 5))), R.parse("6/3"),
                R.parse("(1/2)/(1/4)"), -R.constant(2), (x * half) * 2,
                (x + half) * (x - half) + R.constant(Fraction(1, 4)),
                (x * Fraction(2, 3) + 2).monic(), R.parse("x/3 + x/3 + x/3")]
    fractional = [R.parse("1/2"), R.constant(QQ.inv(3)), half * 3, x * half,
                  (2 * x + 1).monic(), (x + half) * (x - half)]
    assert (half - half).is_zero and (x * half - R.parse("x/2")).is_zero
    assert all(type(c) is int for f in integral for _, c in f.terms)
    assert all(any(type(c) is Fraction for _, c in f.terms) for f in fractional)
    for f in integral + fractional:
        for _, c in f.terms:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
            assert c == Fraction(c) and hash(c) == hash(Fraction(c))
        if f.is_constant():
            assert str(f) == str(Fraction(f.constant_value()))


def test_qq_int_and_fraction_coefficients_are_one_polynomial(R):
    f = R.parse("x/2 + x/2 + 3")
    assert [type(c) for _, c in f.terms] == [int, int]
    g = R.poly_from_dict({m: Fraction(c) for m, c in f.terms})
    assert f == g and hash(f) == hash(g) and str(f) == str(g) == "x + 3"


def test_poly_from_dict_coerces_each_coefficient():
    F7 = RingSpec(("x",), GF(7))
    f = F7.poly_from_dict({(1,): Fraction(3, 2)})
    assert f == F7.parse("5*x") and str(f) == "5*x" and str(f ** 2) == "4*x^2"
    assert F7.poly_from_dict({(1,): 9, (0,): -7}) == F7.parse("2*x")
    Q = RingSpec(("x",), QQ)
    g = Q.poly_from_dict({(1,): Fraction(3, 2), (0,): Fraction(4, 2)})
    assert str(g) == "3/2*x + 2" and [type(c) for _, c in g.terms] == [Fraction, int]
    for ring in (F7, Q):
        with pytest.raises(TypeError):
            ring.poly_from_dict({(1,): 1.5})


def test_fp_print_no_negatives():
    F = RingSpec(("x", "y"), GF(5))
    assert str(F.parse("-x + 3")) == "4*x + 3"


def test_quotient_ring_spec(R):
    A = R.quotient([R.parse("x*y")])
    assert A.is_quotient
    assert [str(g) for g in A.base_ideal] == ["x*y"]
    assert A != R
