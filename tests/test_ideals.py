import random

import pytest

from cicert.groebner import Budget, Budgets, IdealHandle, groebner_basis
from cicert.ideals import (
    RadicalEqualityCertificate,
    RadicalRefutation,
    dimension_height,
    eliminate,
    intersect,
    quotient,
    radical_equal,
    radical_member,
    saturate,
)
from cicert.poly import GF, QQ, MonomialOrder, RingSpec

from oracles import variety_points, eval_at


def H(ring, *gens):
    return IdealHandle(ring, list(gens))


def xy_quotient(field):
    """k[x,y,z]/(xy): the zero divisors x and y make colons nontrivial."""
    bare = RingSpec(("x", "y", "z"), field)
    return bare.quotient([bare.parse("x*y")])


# the free ring and two quotient rings, one of them over F5
RINGS = [RingSpec(("x", "y", "z"), QQ), xy_quotient(QQ), xy_quotient(GF(5))]


# -- quotient


def test_quotient_examples(R3):
    assert quotient(H(R3, "x^2"), R3.gen("x")).equals(H(R3, "x"))
    assert quotient(H(R3, "x*y"), R3.gen("x")).equals(H(R3, "y"))


def test_quotient_in_quotient_ring():
    bare = RingSpec(("x", "y"), QQ)
    A = bare.quotient([bare.parse("x*y")])
    ann = quotient(H(A), A.gen("x"))
    assert ann.equals(H(A, "y"))


def test_quotient_by_zero_is_unit(R3):
    assert quotient(H(R3, "x"), R3.zero).is_unit()


def test_quotient_by_ideal(R3):
    got = quotient(H(R3, "x*y", "x*z"), H(R3, "y", "z"))
    assert got.equals(H(R3, "x"))
    # (I : J) in one module basis equals the meet of the colons (I : g)
    for ring in RINGS:
        for gens, divisors in [(("x^2", "z^2"), ("x", "z")),
                               (("x*z^2", "y^2 - z"), ("x + y", "z", "y^2"))]:
            I = H(ring, *gens)
            meet = None
            for d in divisors:
                col = quotient(I, ring.parse(d))
                meet = col if meet is None else intersect(meet, col)
            assert quotient(I, H(ring, *divisors)).equals(meet)


def test_quotient_contains_ideal():
    """I is inside (I : f), and f*(I : f) is inside I."""
    for ring in RINGS:
        for gens, f in [(("x^2 - x", "x*y"), "x"),
                        (("x^2*z", "y^3 - z"), "x*z + y"),
                        ((), "x")]:
            I = H(ring, *gens)
            f = ring.parse(f)
            col = quotient(I, f)
            assert col.contains_ideal(I)
            assert all(I.contains(f * g) for g in col.groebner())


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_quotient_by_base_ideal_element_is_unit(field):
    A = xy_quotient(field)
    for gens in [(), ("z",), ("x + z^2",)]:
        for f in ("x*y", "z*x*y - x^2*y"):
            assert not A.parse(f).is_zero  # zero in A, not as a representative
            assert quotient(H(A, *gens), A.parse(f)).is_unit()


def test_nzd_iff_colon_stable(R3):
    I = H(R3, "x*y")
    assert not quotient(I, R3.gen("x")).equals(I)  # x is a zerodivisor mod (xy)
    J = H(R3, "y - x^2")
    assert quotient(J, R3.gen("x")).equals(J)  # x is a non-zerodivisor


# -- saturation


def test_saturate_examples(R3):
    assert saturate(H(R3, "x^2*y"), R3.gen("y")).equals(H(R3, "x^2"))
    assert saturate(H(R3, "x"), R3.gen("x")).is_unit()
    got = saturate(H(R3, "x^2 - x", "x*z"), R3.gen("x"))
    assert got.equals(H(R3, "x - 1", "z"))


def test_saturation_is_stable_colon_limit(R3):
    I = H(R3, "x^3*y^2", "x^2*z")
    f = R3.gen("x")
    chain = I
    for _ in range(6):
        nxt = quotient(chain, f)
        if nxt.equals(chain):
            break
        chain = nxt
    assert chain.equals(saturate(I, f))


# -- intersection


def test_intersect_examples(R3, skew_lines):
    assert intersect(H(R3, "x"), H(R3, "y")).equals(H(R3, "x*y"))
    assert intersect(H(R3, "x"), H(R3, "x")).equals(H(R3, "x"))
    meet = intersect(H(R3, "x", "y"), H(R3, "x - 1", "z"))
    assert meet.equals(skew_lines)
    # mutual membership: the intersection sits inside both
    for g in meet.gens:
        assert H(R3, "x", "y").contains(g)
        assert H(R3, "x - 1", "z").contains(g)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("left,right", [(("x",), ("y",)),
                                        (("x^2", "z"), ("x*z", "y + z")),
                                        (("x - z",), ())])
def test_intersection_sandwich(ring, left, right):
    """I*J is inside I cap J, which is inside both I and J."""
    I, J = H(ring, *left), H(ring, *right)
    meet = intersect(I, J)
    product = IdealHandle(ring, [g * h for g in I.gens for h in J.gens])
    assert meet.contains_ideal(product)
    assert I.contains_ideal(meet) and J.contains_ideal(meet)


def _random_poly(rng, ring):
    terms = {}
    while len(terms) < rng.randint(2, 3):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(ring.nvars)] += 1
        terms[tuple(exps)] = ring.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
    return ring.poly_from_dict(terms)


@pytest.mark.parametrize("ring", [RingSpec(("x", "y", "z"), QQ),
                                  RingSpec(("x", "y", "z"), GF(7)),
                                  xy_quotient(QQ)], ids=["QQ", "F7", "quotient"])
def test_colon_and_intersection_handles_keep_their_reduced_basis(ring):
    """The basis a colon or intersection handle is given, read off its
    syzygies, is the reduced basis of its generators plus J0."""
    rng = random.Random(f"kept-basis-{ring.describe()}")
    for _ in range(4):
        I = IdealHandle(ring, [_random_poly(rng, ring) for _ in range(2)])
        J = IdealHandle(ring, [_random_poly(rng, ring) for _ in range(2)])
        for handle in (quotient(I, J.gens[0]), quotient(I, J), intersect(I, J)):
            assert handle._gb is not None
            assert handle._gb == groebner_basis(handle.working_gens(), ring)


# -- elimination


def test_eliminate_parabola():
    R = RingSpec(("t", "x", "y"), QQ)
    got = eliminate(H(R, "t - x", "t^2 - y"), ["t"])
    assert got.equals(H(R, "x^2 - y"))
    assert all(m[0] == 0 for g in got.gens for m, _ in g.terms)


def test_eliminate_unused_variable(R3):
    assert eliminate(H(R3, "x"), ["y"]).equals(H(R3, "x"))


def test_eliminate_no_relation():
    R = RingSpec(("t", "x"), QQ)
    assert eliminate(H(R, "t*x - 1"), ["t"]).is_zero_ideal()


# The generators `eliminate` gives for names that are not a prefix of the
# ring's variables, in the order they are named: (field, order, whether
# the ring is k[x,y,z,w]/(x*w - y^2)) -> those of eliminating y, (z, x)
# and (w, y) from (x^2 - y*z, y^2 - 2*x*w + z, z*w - x - 1).
ELIMINATED = {
    ("QQ", "lex", False): [
        [
            "x - z*w + 1",
            "z^4*w^4 - 4*z^3*w^3 - 2*z^3*w^2 + z^3 + 6*z^2*w^2 + 2*z^2*w - 4*z*w + 1",
        ],
        ["y^4*w^2 - 2*y^3*w^2 + y^3 + 2*y^2*w - 4*y*w^3 + 2*y*w + 1"],
        ["x^4 - 2*x^2*z - 2*x*z + z^3"],
    ],
    ("QQ", "lex", True): [
        ["x - w^3", "z - w^4", "w^5 - w^3 - 1"],
        ["y - w^2", "w^5 - w^3 - 1"],
        ["x + 1/3*z^4 - z^3 + 1/3*z^2 - 2/3*z + 2/3", "z^5 - 2*z^4 + z^3 - 4*z^2 - 1"],
    ],
    ("QQ", "grevlex", False): [
        ["x^4 - 2*x^2*z + z^3 - 2*x*z", "z*w - x - 1"],
        ["y^4*w^2 - 2*y^3*w^2 - 4*y*w^3 + y^3 + 2*y^2*w + 2*y*w + 1"],
        ["x^4 - 2*x^2*z + z^3 - 2*x*z"],
    ],
    ("QQ", "grevlex", True): [
        [
            "w^3 - x",
            "x^2 - z - w",
            "x*z - w^2 - x - 1",
            "z^2 - x - z - w",
            "x*w - z",
            "z*w - x - 1",
        ],
        ["y^3 - y^2 - w", "y^2*w - y*w - 1", "w^2 - y"],
        ["x*z^2 - x*z - z^2 + x - z", "z^3 - x*z - z^2 - x - 1", "x^2 - z^2 + x"],
    ],
    ("Fp(7)", "lex", False): [
        [
            "x + 6*z*w + 1",
            "z^4*w^4 + 3*z^3*w^3 + 5*z^3*w^2 + z^3 + 6*z^2*w^2 + 2*z^2*w + 3*z*w + 1",
        ],
        ["y^4*w^2 + 5*y^3*w^2 + y^3 + 2*y^2*w + 3*y*w^3 + 2*y*w + 1"],
        ["x^4 + 5*x^2*z + 5*x*z + z^3"],
    ],
    ("Fp(7)", "lex", True): [
        ["x + 6*w^3", "z + 6*w^4", "w^5 + 6*w^3 + 6"],
        ["y + 6*w^2", "w^5 + 6*w^3 + 6"],
        ["x + 5*z^4 + 6*z^3 + 5*z^2 + 4*z + 3", "z^5 + 5*z^4 + z^3 + 3*z^2 + 6"],
    ],
    ("Fp(7)", "grevlex", False): [
        ["x^4 + 5*x^2*z + z^3 + 5*x*z", "z*w + 6*x + 6"],
        ["y^4*w^2 + 5*y^3*w^2 + 3*y*w^3 + y^3 + 2*y^2*w + 2*y*w + 1"],
        ["x^4 + 5*x^2*z + z^3 + 5*x*z"],
    ],
    ("Fp(7)", "grevlex", True): [
        [
            "w^3 + 6*x",
            "x^2 + 6*z + 6*w",
            "x*z + 6*w^2 + 6*x + 6",
            "z^2 + 6*x + 6*z + 6*w",
            "x*w + 6*z",
            "z*w + 6*x + 6",
        ],
        ["y^3 + 6*y^2 + 6*w", "y^2*w + 6*y*w + 6", "w^2 + 6*y"],
        [
            "x*z^2 + 6*x*z + 6*z^2 + x + 6*z",
            "z^3 + 6*x*z + 6*z^2 + 6*x + 6",
            "x^2 + 6*z^2 + x",
        ],
    ],
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("kind", ["lex", "grevlex"])
@pytest.mark.parametrize("quotient", [False, True], ids=["free", "quotient"])
def test_eliminate_pinned_on_names_that_are_not_a_prefix(field, kind, quotient):
    R = RingSpec(("x", "y", "z", "w"), field, MonomialOrder(kind))
    if quotient:
        R = R.quotient([R.parse("x*w - y^2")])
    I = H(R, "x^2 - y*z", "y^2 - 2*x*w + z", "z*w - x - 1")
    got = [[str(g) for g in eliminate(I, names).gens]
           for names in (["y"], ["z", "x"], ["w", "y"])]
    assert got == ELIMINATED[field.name, kind, quotient]
    with pytest.raises(KeyError):
        eliminate(I, ["x", "v"])


# -- radical membership


def test_radical_member_examples(R3):
    w = radical_member(R3.gen("x"), H(R3, "x^2"))
    assert w.member and w.exponent == 2
    assert not radical_member(R3.gen("y"), H(R3, "x")).member
    w3 = radical_member(R3.parse("x + y"), H(R3, "(x + y)^3"))
    assert w3.member and w3.exponent == 3


def test_tag_ring_refuses_block_orders_and_takes_a_fresh_name():
    """The tag t goes first in a block of its own, so a ring whose order
    is a block order is refused; a ring that has a `t` gets the tag
    `t_`, and both checks still answer as without it."""
    from cicert.ideals import _tagged

    ring = RingSpec(("x", "y"), QQ, MonomialOrder("block", block=1))
    I = H(ring, "x^2*y")
    for f in (ring.gen("x"), ring.parse("x^2*y")):
        with pytest.raises(ValueError):
            radical_member(f, I)
    with pytest.raises(ValueError):
        saturate(I, ring.gen("y"))
    for field in (QQ, GF(5)):
        ring = RingSpec(("t", "x"), field)
        assert _tagged(ring).variables == ("t_", "t", "x")
        I = H(ring, "t^2*x", "x^3")
        assert saturate(I, ring.gen("t")).equals(H(ring, "x"))
        w = radical_member(ring.gen("x"), I)
        assert w.member and w.exponent == 3
        assert not radical_member(ring.gen("t"), I).member
        assert radical_member(ring.gen("t"), H(ring, "t^2 - x", "x")).exponent == 2


def test_tag_ring_is_made_once_per_ring(monkeypatch):
    """A ring keeps its tag ring, so radical tests on one ring pack the
    tag ring's monomials with one packer."""
    from cicert import poly
    from cicert.ideals import _tagged

    R = RingSpec(("x", "y", "z"), QQ)
    I = H(R, "x^2*y", "y*z^3")
    made = []
    init = poly.MonomialPacker.__init__

    def counted(self, order, nvars):
        made.append(order)
        init(self, order, nvars)

    monkeypatch.setattr(poly.MonomialPacker, "__init__", counted)
    # neither lies in I, so each computes a basis in the tag ring
    assert radical_member(R.parse("x*y*z"), I).exponent == 2
    assert not radical_member(R.gen("y"), I).member
    assert made == [MonomialOrder("block", block=1, tail_kind="grevlex")]
    assert _tagged(R) is _tagged(R)


@pytest.mark.parametrize("ring", RINGS, ids=["free", "xy-QQ", "xy-F5"])
def test_radical_member_of_an_element_of_the_ideal(ring, monkeypatch):
    """An f in I needs no basis in the tag variable: the exponent is 1
    and the aux hash is the unit ideal's, as the Rabinowitsch basis
    I + J0 + (1 - t*f) gives it."""
    from cicert import groebner, ideals

    I = H(ring, "x^2 + z", "y*z")
    f = ring.parse("x^2*z + z^2 + y*z")
    I.groebner()
    rings = []
    real = groebner.module_groebner

    def recording(vectors, spec):
        rings.append(spec)
        return real(vectors, spec)

    monkeypatch.setattr(groebner, "module_groebner", recording)
    w = radical_member(f, I)
    assert rings == []
    assert w.member and w.exponent == 1
    with Budget(Budgets(e_max=0)):
        assert radical_member(f, I).exponent is None
    monkeypatch.undo()
    tagged = ideals._tagged(ring)
    assert len(tagged.variables) == ring.nvars + 1
    assert w.aux_gb_hash == groebner.gb_hash(tagged, ideals._inverted(I, f))


def test_radical_member_vs_points_over_f5():
    """For an ideal of rational points, radical membership must agree
    with vanishing at every point of the variety."""
    ring = RingSpec(("x", "y"), GF(5))
    rng = random.Random(3)
    for _ in range(6):
        pts = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(1, 3))}
        handle = None
        for (a, b) in pts:
            m = H(ring, f"x - {a}", f"y - {b}")
            handle = m if handle is None else intersect(handle, m)
        assert set(variety_points(handle.gens, ring)) == pts
        for _ in range(8):
            f = ring.poly_from_dict({
                (rng.randrange(3), rng.randrange(3)): rng.randrange(5)
                for _ in range(2)})
            vanishes = all(eval_at(f, p) == 0 for p in pts)
            assert radical_member(f, handle).member == vanishes


# -- radical equality


def test_radical_equal_certificate(R3):
    cert = radical_equal(H(R3, "x^2"), H(R3, "x"))
    assert isinstance(cert, RadicalEqualityCertificate)
    assert cert.verify()


def test_radical_equal_refutation(R3):
    out = radical_equal(H(R3, "x"), H(R3, "y"))
    assert isinstance(out, RadicalRefutation)
    assert str(out.generator) == "x"


def test_radical_equal_skew_pair(R3, skew_lines, skew_pair):
    cert = radical_equal(H(R3, *[str(p) for p in skew_pair]), skew_lines)
    assert isinstance(cert, RadicalEqualityCertificate)
    assert cert.verify()


def test_radical_equal_is_equivalence_on_samples(R3):
    a = H(R3, "x^2")
    b = H(R3, "x")
    c = H(R3, "x^3")
    # reflexive, and transitive across the sampled triple
    assert isinstance(radical_equal(a, a), RadicalEqualityCertificate)
    ab = radical_equal(a, b)
    bc = radical_equal(b, c)
    ac = radical_equal(a, c)
    assert all(isinstance(t, RadicalEqualityCertificate) for t in (ab, bc, ac))


def test_tampered_radical_witness_fails_verify(R3):
    def bad_hash(cert):
        cert.witnesses[0][1].aux_gb_hash = "sha256:0000"

    def narrowed_right(cert):
        # sqrt(x^2, y) != sqrt(x): drop the witness for y in sqrt(x, y)
        # and shrink the right ideal to (x)
        cert.witnesses = cert.witnesses[:1] + cert.witnesses[2:]
        cert.right_gens = (R3.gen("x"),)

    cases = ((bad_hash, ("x^2",), ("x",)),
             (narrowed_right, ("x^2", "y"), ("x", "y")))
    for tamper, left, right in cases:
        cert = radical_equal(H(R3, *left), H(R3, *right))
        tamper(cert)
        assert not cert.verify(), tamper.__name__


# -- dimension and height


def test_dimension_examples(R3):
    r1 = dimension_height(H(R3, "x"))
    assert (r1.dim_quotient, r1.height) == (2, 1)
    r2 = dimension_height(H(R3, "x", "y"))
    assert (r2.dim_quotient, r2.height) == (1, 2)


def test_dimension_skew_lines(R3, skew_lines):
    r = dimension_height(skew_lines)
    assert (r.dim_quotient, r.dim_ambient, r.height) == (1, 3, 2)
    assert r.height_definition == "coheight"


def test_dimension_independent_set_maximal(R3, skew_lines):
    r = dimension_height(skew_lines)
    lt_supports = [frozenset(i for i, e in enumerate(g.lead_monomial) if e)
                   for g in skew_lines.groebner()]
    u = {R3.variables.index(v) for v in r.independent_set}
    assert all(not s <= u for s in lt_supports)
    for extra in range(3):
        if extra in u:
            continue
        bigger = u | {extra}
        assert any(s <= bigger for s in lt_supports)


def test_dimension_invariant_under_generators_and_permutation(R3, skew_lines):
    regen = IdealHandle(R3, list(skew_lines.groebner()) + [
        skew_lines.gens[0] + skew_lines.gens[1]])
    a = dimension_height(skew_lines)
    b = dimension_height(regen)
    assert (a.dim_quotient, a.height) == (b.dim_quotient, b.height)
    perm = RingSpec(("z", "x", "y"), QQ)
    permuted = IdealHandle(perm, ["x^2 - x", "x*y - y", "x*z", "y*z"])
    c = dimension_height(permuted)
    assert (c.dim_quotient, c.height) == (a.dim_quotient, a.height)


def test_dimension_in_quotient_ring(quotient_dim3, skew_in_quotient):
    r = dimension_height(skew_in_quotient)
    assert (r.dim_ambient, r.dim_quotient, r.height) == (3, 1, 2)


def test_dimension_unit_ideal(R3):
    r = dimension_height(H(R3, "x", "x + 1"))
    assert r.unit_ideal and r.dim_quotient == -1 and r.height is None
