import itertools
import json
import random

import pytest

from cicert import homology
from cicert.groebner import (IdealHandle, extended_groebner, module_gb, module_syzygies,
                             zero_ideal)
from cicert.homology import (
    ContractionMap,
    ExteriorForm,
    PresentationMatrix,
    conormal_presentation,
    ext_module,
    fitting_ideals,
    free_resolution,
    koszul2_exactness,
    koszul_complex_build,
    koszul_contraction,
    matrix_product,
    projective_rank_certificate,
    wedge,
)
from cicert.ideals import radical_equal
from cicert.poly import GF, QQ, RingSpec

from oracles import dict_det

# the rational quartic curve in P^3, four generators of height 2
QUARTIC = ("b*c - a*d", "b^3 - a^2*c", "c^3 - b*d^2", "a*c^2 - b^2*d")


def H(ring, *gens):
    return IdealHandle(ring, list(gens))


def _random_form(ring, n, p, rng):
    import itertools
    comps = {}
    for idx in itertools.combinations(range(n), p):
        if rng.random() < 0.5:
            comps[idx] = ring.poly_from_dict({
                tuple(rng.randint(0, 1) for _ in range(ring.nvars)):
                    QQ.coerce(rng.randint(-2, 2))})
    return ExteriorForm(ring, n, p, comps)


def _random_contraction(ring, n, rng):
    vals = []
    for _ in range(n):
        vals.append(ring.poly_from_dict({
            tuple(rng.randint(0, 1) for _ in range(ring.nvars)):
                QQ.coerce(rng.randint(-2, 2))}))
    return ContractionMap(tuple(vals))


# -- contraction


def test_contraction_sign_convention(R3):
    x, y = R3.gen("x"), R3.gen("y")
    u = ContractionMap((x, y))
    d = koszul_contraction(u, ExteriorForm.basis(R3, 2, (0, 1)))
    assert d.comps == {(1,): x, (0,): -y}
    again = ContractionMap((R3.gen("x"), R3.gen("y")))
    assert again is not u and again == u and hash(again) == hash(u)
    assert ContractionMap((y, x)) != u


def test_contraction_degree_one_is_evaluation(R3):
    u = ContractionMap((R3.gen("x"), R3.gen("y")))
    d = koszul_contraction(u, ExteriorForm.basis(R3, 2, (0,)))
    assert d.comps == {(): R3.gen("x")}


def test_contraction_squares_to_zero(R3):
    u = ContractionMap((R3.gen("x"), R3.gen("y"), R3.gen("z")))
    form = ExteriorForm.basis(R3, 3, (0, 1, 2))
    assert koszul_contraction(u, koszul_contraction(u, form)).is_zero


def test_contraction_dimension_mismatch(R3):
    u = ContractionMap((R3.gen("x"), R3.gen("y")))
    with pytest.raises(ValueError):
        koszul_contraction(u, ExteriorForm.basis(R3, 3, (0, 1, 2)))


def test_dd_zero_random_cases(R3):
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 5)
        p = rng.randint(2, min(4, n))
        u = _random_contraction(R3, n, rng)
        form = _random_form(R3, n, p, rng)
        assert koszul_contraction(u, koszul_contraction(u, form)).is_zero


def test_leibniz_rule_random_cases(R3):
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(2, 5)
        p = rng.randint(1, n - 1)
        q = rng.randint(0, n - p)
        u = _random_contraction(R3, n, rng)
        a = _random_form(R3, n, p, rng)
        b = _random_form(R3, n, q, rng)
        lhs = koszul_contraction(u, wedge(a, b))
        rhs = wedge(koszul_contraction(u, a), b)
        db = koszul_contraction(u, b)
        sign_term = wedge(a, db)
        if p % 2:
            sign_term = -sign_term
        assert lhs == rhs + sign_term


# -- complexes


def test_complex_rank_one(R3):
    K = koszul_complex_build((R3.gen("x"),))
    assert K.is_complex
    assert [[str(e) for e in r] for r in K.matrices[1]] == [["x"]]


def test_complex_rank_two_matches_standard_maps(R3):
    K = koszul_complex_build((R3.gen("x"), R3.gen("y")))
    assert [[str(e) for e in r] for r in K.matrices[1]] == [["x"], ["y"]]
    assert [[str(e) for e in r] for r in K.matrices[2]] == [["-y", "x"]]
    assert K.is_complex


def test_complex_rank_three_compositions_vanish(R3):
    K = koszul_complex_build((R3.gen("x"), R3.gen("y"), R3.gen("z")))
    assert K.is_complex
    prod = matrix_product(K.matrices[3], K.matrices[2], R3)
    assert all(e.is_zero for row in prod for e in row)


# -- exactness in length two


def test_koszul2_exact_regular_pair(R3):
    assert koszul2_exactness(R3.gen("x"), R3.gen("y")).exact


def test_koszul2_repeated_generator(R3):
    v = koszul2_exactness(R3.gen("x"), R3.gen("x"))
    assert not v.exact
    kind, witness = v.failure
    assert kind == "extra_syzygy"
    mb = module_gb([(-R3.gen("x"), R3.gen("x"))], R3)
    assert not mb.contains(witness)


def test_koszul2_annihilator_in_quotient():
    bare = RingSpec(("x", "y", "z"), QQ)
    A = bare.quotient([bare.parse("x*z")])
    v = koszul2_exactness(A.gen("x"), A.gen("y"))
    assert not v.exact
    kind, witness = v.failure
    assert kind == "annihilator" and str(witness) == "z"


# -- resolutions


def test_resolution_koszul_shape(R2):
    res = free_resolution(H(R2, "x", "y"), 4)
    assert res.betti == (1, 2, 1)
    assert res.verify()
    # complete: each map's image holds every syzygy of the map before it
    for k in range(1, len(res.matrices)):
        span = module_gb(res.matrices[k], R2)
        assert all(span.contains(r)
                   for r in module_syzygies(res.matrices[k - 1], R2))


def test_resolution_principal(R2):
    res = free_resolution(H(R2, "x"), 4)
    assert res.betti == (1, 1)
    assert res.verify()


def test_resolution_hilbert_burch_shape(c345):
    res = free_resolution(c345, 4)
    assert res.betti == (1, 3, 2)
    assert res.verify()
    # rank count: alternating sum over the resolved module is zero
    assert 1 - 3 + 2 == 0


def test_resolution_in_quotient_ring():
    bare = RingSpec(("x", "y"), QQ)
    A = bare.quotient([bare.parse("x*y")])
    res = free_resolution(H(A, "x"), 3)
    assert res.verify()
    assert res.betti[:2] == (1, 1)


def test_resolution_length_bounds(R2):
    with pytest.raises(ValueError):
        free_resolution(H(R2, "x"), 5)


# -- Ext modules


def test_ext_two_of_plane_point(R2):
    e = ext_module(H(R2, "x", "y"), 2)
    assert e.locally_cyclic
    assert e.presentation.ngens == 1 and e.presentation.rows == ()


def test_ext_one_of_principal(R2):
    e = ext_module(H(R2, "x"), 1)
    assert e.locally_cyclic
    assert e.presentation.ngens == 1 and e.presentation.rows == ()


def test_ext_one_dualizes_to_same_cyclic_quotient():
    R = RingSpec(("x",), QQ)
    e = ext_module(H(R, "x^2"), 1)
    assert e.locally_cyclic
    assert e.presentation.ngens == 1
    assert [str(g) for g in e.presentation.ring.base_ideal] == ["x^2"]


def test_ext_degree_validation(R2):
    with pytest.raises(ValueError):
        ext_module(H(R2, "x"), 0)


R5 = RingSpec(("a", "b", "c", "d", "e"), QQ)


@pytest.mark.parametrize("gens,r", [
    (("a", "b", "c", "d", "e"), 4),
    (("a", "b", "c", "d^2", "d*e", "e^2"), 4),
    (("a", "b", "c", "d^2", "d*e", "e^2"), 5),
])
def test_ext_past_the_resolution_limit_gives_no_verdict(gens, r):
    """Both resolutions have 5 maps, but only 4 are computed.  Ext^4 is 0
    for both ideals, and Ext^5 of the second is the canonical module of
    a ring of type 2, which needs two generators at the origin: reading
    the cut resolution as finished got all three wrong."""
    with pytest.raises(ValueError, match="limit of 4 maps"):
        ext_module(H(R5, *gens), r)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_ext_of_a_resolution_that_ends_at_the_limit(r):
    """The Koszul complex of 4 variables has exactly 4 maps: Ext^4 is
    the cyclic A/I and Ext^5 is 0."""
    R = RingSpec(("a", "b", "c", "d"), QQ)
    assert ext_module(H(R, "a", "b", "c", "d"), r).locally_cyclic


# -- conormal presentations


def test_conormal_of_plane_point_is_free(R2):
    pres = conormal_presentation(H(R2, "x", "y"))
    assert pres.ngens == 2 and pres.rows == ()


def test_conormal_of_double_point():
    R = RingSpec(("x",), QQ)
    pres = conormal_presentation(H(R, "x^2"))
    assert pres.ngens == 1 and pres.rows == ()
    assert [str(g) for g in pres.ring.base_ideal] == ["x^2"]


def test_conormal_skew_lines_free_rank_two(R3, skew_lines):
    pres = conormal_presentation(skew_lines)
    cert = projective_rank_certificate(pres, 2)
    assert cert.certified and cert.verify()


# -- Fitting ideals


def test_fitting_free_rank_two(R2):
    pres = PresentationMatrix.of(R2, 2, [])
    fit = fitting_ideals(pres, range(3))
    assert fit[0].is_zero_ideal()
    assert fit[1].is_zero_ideal()
    assert fit[2].is_unit()
    for k in range(len(fit) - 1):
        assert fit[k + 1].contains_ideal(fit[k])


def test_fitting_cyclic_torsion():
    R = RingSpec(("x",), QQ)
    pres = PresentationMatrix.of(R, 1, [(R.gen("x"),)])
    fit = fitting_ideals(pres, (0, 1))
    assert fit[0].equals(H(R, "x"))
    assert fit[1].is_unit()


def test_fitting_conormal_x2_y(R2):
    pres = conormal_presentation(H(R2, "x^2", "y"))
    fit = fitting_ideals(pres, (1, 2))
    assert fit[1].is_zero_ideal()
    assert fit[2].is_unit()


def test_fitting_invariant_under_presentation_change(R3, skew_lines):
    pres1 = conormal_presentation(skew_lines)
    regen = IdealHandle(R3, list(skew_lines.gens) +
                        [skew_lines.gens[0] + skew_lines.gens[2]])
    pres2 = conormal_presentation(regen)
    ks = range(min(pres1.ngens, pres2.ngens) + 1)
    fit1 = fitting_ideals(pres1, ks)
    fit2 = fitting_ideals(pres2, ks)
    # same module, so corresponding fitting ideals agree as radicals
    # (exact equality as ideals of the respective presentation rings)
    for k in ks:
        a = fit1[k]
        # rehome the second presentation's ideal into the first ring
        b = IdealHandle(a.ring, [a.ring.rehome(g) for g in fit2[k].gens])
        eq = radical_equal(a, b)
        assert not hasattr(eq, "direction"), f"fitt_{k} differs"
        assert a.equals(b)


def _zero_entry_presentation():
    """Rows with zero entries, and entries that are zero only mod J0, over
    QQ[x,y,z]/(x*y)."""
    bare = RingSpec(("x", "y", "z"), QQ)
    ring = bare.quotient([bare.parse("x*y")])
    rows = [("x", "0", "y"), ("0", "y", "z"), ("x*y + z", "x", "0"),
            ("y", "x*y", "0"), ("z", "x", "x - z")]
    return PresentationMatrix.of(ring, 3, [tuple(map(ring.parse, r)) for r in rows])


@pytest.mark.parametrize("case", ["skew-lines", "quartic-F5", "skew-in-quotient",
                                  "zero-entries"])
def test_fitting_minors_match_cofactor_oracle(case, skew_lines, skew_in_quotient):
    """Each Fitt_k lists the normal forms mod J0 of the plain cofactor
    determinants of its minors, zero and repeats dropped, in the order of
    the minors' row and then column index tuples, however the ks are
    ordered and so whichever minors the cache already holds."""
    if case == "zero-entries":
        pres = _zero_entry_presentation()
    elif case == "quartic-F5":
        pres = conormal_presentation(H(RingSpec(("a", "b", "c", "d"), GF(5)), *QUARTIC))
        assert pres.ngens == 4 and len(pres.rows) >= 3  # so Fitt_1 has 3x3 minors
    else:
        pres = conormal_presentation(skew_lines if case == "skew-lines" else skew_in_quotient)
    ring, nrows = pres.ring, len(pres.rows)
    nf = zero_ideal(ring).normal_form
    rows = [[dict(f.terms) for f in row] for row in pres.rows]
    ks = range(pres.ngens)
    for order in (ks, reversed(ks)):
        fit = fitting_ideals(pres, tuple(order))
        for k in ks:
            size = pres.ngens - k
            if size > nrows:
                continue
            want = []
            for rsel in itertools.combinations(range(nrows), size):
                for csel in itertools.combinations(range(pres.ngens), size):
                    det = dict_det(ring.field, [[rows[i][j] for j in csel] for i in rsel])
                    det = nf(ring.poly_from_dict(det))
                    if det and det not in want:
                        want.append(det)
            assert list(fit[k].gens) == want, f"fitt_{k}"


# -- projectivity certificates


def test_projective_free_rank_two(R2):
    pres = PresentationMatrix.of(R2, 2, [])
    cert = projective_rank_certificate(pres, 2)
    assert cert.certified
    total = R2.zero
    for m, c in cert.unit_combination:
        total = total + c * m
    for g, c in cert.base_combination or ():
        total = total + c * g
    assert total == R2.one


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "F7"])
@pytest.mark.parametrize("base", [(), ("x^2 - y^3",)], ids=["free", "cusp"])
@pytest.mark.parametrize("row, shortcut", [
    (("x", "1", "y"), True),
    (("2", "x", "3", "y"), True),
    (("x", "1", "y", "1 - y"), False),  # the rows after the constant generate (1)
], ids=["one-constant", "two-constants", "unit-after-constant"])
def test_unit_witness_matches_the_augmented_basis(monkeypatch, field, base, row, shortcut):
    """On one row (a_1, ..., a_b) at rank b - 1, Fitt_{b-1} is the entries
    in order.  The witness equals what the augmented basis expresses 1
    as, and a constant minor gives it without that basis unless the rows
    after the last constant generate (1)."""
    bare = RingSpec(("x", "y"), field)
    ring = bare.quotient([bare.parse(g) for g in base]) if base else bare
    entries = tuple(ring.parse(a) for a in row)
    pres = PresentationMatrix.of(ring, len(entries), [entries])
    calls = []
    monkeypatch.setattr(homology, "extended_groebner",
                        lambda *args: calls.append(args) or extended_groebner(*args))
    cert = projective_rank_certificate(pres, len(entries) - 1)
    assert cert.certified and len(calls) == (0 if shortcut else 1)
    high = fitting_ideals(pres, (len(entries) - 1,))[len(entries) - 1]
    assert high.gens == entries
    remainder, coeffs = extended_groebner(high.gens, ring).express(ring.one)
    assert remainder.is_zero
    n = len(high.gens)
    assert cert.unit_combination == tuple((g, c) for g, c in zip(high.gens, coeffs[:n]) if c)
    assert cert.base_combination == tuple(
        (g, c) for g, c in zip(ring.base_ideal, coeffs[n:]) if c)
    assert cert.verify()


def _buchberger_runs(monkeypatch):
    """A list that counts the Buchberger runs, one per basis computed."""
    from cicert import groebner
    runs = []
    buchberger = groebner._module_buchberger_dicts

    def counted(vecdicts, ring):
        runs.append(None)
        return buchberger(vecdicts, ring)

    monkeypatch.setattr(groebner, "_module_buchberger_dicts", counted)
    return runs


def test_skew_lines_top_fitting_ideal_from_one_basis(monkeypatch, skew_lines):
    """Fitt_2 of the skew lines' conormal module has no constant minor:
    its augmented basis alone gives the unit witness."""
    pres = conormal_presentation(skew_lines)
    runs = _buchberger_runs(monkeypatch)
    cert = projective_rank_certificate(pres, 2)
    assert cert.certified and len(runs) == 1


@pytest.mark.parametrize("rows, payload", [
    # Fitt_0 = (x - 1, x*y - y) is proper, but has a constant term
    ((("x - 1",), ("x*y - y",)),
     '{"certified": false, "failing": "fitt_0 is not the unit ideal", "rank": 0}'),
    # Fitt_0 = (x, x - 1) is (1), and no minor is a constant
    ((("x",), ("x - 1",)),
     '{"base_combination": [], "certified": true, "rank": 0, "unit_combination": '
     '[{"coefficient": "1", "minor": "x"}, {"coefficient": "-1", "minor": "x - 1"}]}'),
], ids=["proper-with-constant-term", "unit-without-constant-minor"])
def test_top_fitting_ideal_decided_by_its_augmented_basis(monkeypatch, R2, rows, payload):
    """When neither a constant minor nor the origin decides Fitt_r, one
    augmented basis does, and the payload is the one the plain basis and
    then the augmented one gave."""
    pres = PresentationMatrix.of(R2, 1, [tuple(map(R2.parse, r)) for r in rows])
    runs = _buchberger_runs(monkeypatch)
    cert = projective_rank_certificate(pres, 0)
    assert json.dumps(cert.payload(), sort_keys=True) == payload
    assert len(runs) == 1 and cert.verify()


def test_projective_refuted_for_torsion():
    R = RingSpec(("x",), QQ)
    pres = PresentationMatrix.of(R, 1, [(R.gen("x"),)])
    cert = projective_rank_certificate(pres, 1)
    assert not cert.certified
    assert cert.failing == "fitt_0 is nonzero"
    assert str(cert.witness_poly) == "x"
    assert cert.verify()


def test_projective_refuted_c345(c345):
    pres = conormal_presentation(c345)
    cert = projective_rank_certificate(pres, 2)
    assert not cert.certified
    assert "fitt_2" in cert.failing
