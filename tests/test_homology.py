import random

import pytest

from cicert.groebner import IdealHandle, module_gb
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
from cicert.poly import QQ, RingSpec


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
    assert res.verify(completeness=True)


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
    fit = fitting_ideals(pres)
    assert fit.ideals[0].is_zero_ideal()
    assert fit.ideals[1].is_zero_ideal()
    assert fit.ideals[2].is_unit()
    for k in range(len(fit.ideals) - 1):
        assert fit.ideals[k + 1].contains_ideal(fit.ideals[k])


def test_fitting_cyclic_torsion():
    R = RingSpec(("x",), QQ)
    pres = PresentationMatrix.of(R, 1, [(R.gen("x"),)])
    fit = fitting_ideals(pres)
    assert fit.ideals[0].equals(H(R, "x"))
    assert fit.ideals[1].is_unit()


def test_fitting_conormal_x2_y(R2):
    pres = conormal_presentation(H(R2, "x^2", "y"))
    fit = fitting_ideals(pres)
    assert fit.ideals[1].is_zero_ideal()
    assert fit.ideals[2].is_unit()


def test_fitting_invariant_under_presentation_change(R3, skew_lines):
    pres1 = conormal_presentation(skew_lines)
    regen = IdealHandle(R3, list(skew_lines.gens) +
                        [skew_lines.gens[0] + skew_lines.gens[2]])
    pres2 = conormal_presentation(regen)
    fit1 = fitting_ideals(pres1)
    fit2 = fitting_ideals(pres2)
    # same module, so corresponding fitting ideals agree as radicals
    # (exact equality as ideals of the respective presentation rings)
    for k in range(min(pres1.ngens, pres2.ngens) + 1):
        a = fit1.ideals[k]
        # rehome the second presentation's ideal into the first ring
        b = IdealHandle(a.ring, [a.ring.rehome(g) for g in fit2.ideals[k].gens])
        eq = radical_equal(a, b)
        assert not hasattr(eq, "direction"), f"fitt_{k} differs"
        assert a.equals(b)


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
