import random

import pytest

from cicert import pipeline
from cicert.cli import run_session
from cicert.groebner import BasisStore, Budget, BudgetExceededError, IdealHandle, zero_ideal
from cicert.homology import koszul2_exactness
from cicert.ideals import quotient, radical_equal, radical_member, saturate
from cicert.pipeline import (
    Budgets,
    CICertificate,
    Inconclusive,
    InputError,
    LCIProxyCertificate,
    LCIRefutation,
    RegSeqCertificate,
    RegSeqFailure,
    RegularizationResult,
    STCICertificate,
    STCIRefutation,
    ci_from_free_conormal,
    is_nzd,
    is_regular_sequence,
    lci_certificate,
    mod_square_generation,
    regularize_generators,
    stci_search,
    stci_verify,
)
from cicert.pipeline import _row_reduced
from cicert.poly import GF, QQ, RingSpec

from oracles import LinearSpan, bounded_zerodivisor_witness, mod_square_oracle, s_coerce


def H(ring, *gens):
    return IdealHandle(ring, list(gens))


# -- non-zerodivisor checks


def test_nzd_in_domain(R3):
    assert is_nzd(R3.gen("x"), H(R3)).nzd


def test_nzd_witness_xy(R3):
    r = is_nzd(R3.gen("x"), H(R3, "x*y"))
    assert not r.nzd
    assert (r.witness * R3.gen("x")).terms  # nonzero
    assert H(R3, "x*y").contains(r.witness * R3.gen("x"))
    assert not H(R3, "x*y").contains(r.witness)


def test_nzd_witness_xz(R3):
    r = is_nzd(R3.gen("z"), H(R3, "x*z"))
    assert not r.nzd and str(r.witness) == "x"


# -- regular sequences


def test_regseq_certificate_and_replay(R3):
    cert = is_regular_sequence((R3.gen("x"), R3.gen("y")), H(R3))
    assert isinstance(cert, RegSeqCertificate)
    assert cert.verify()


def test_regseq_failure_index(R3):
    out = is_regular_sequence((R3.gen("x"), R3.parse("x*y")), None)
    assert isinstance(out, RegSeqFailure) and out.index == 2


def test_regseq_must_be_proper():
    """The failure names the element after which base + sequence is the
    unit ideal, with witness 1."""
    R = RingSpec(("x", "y"), QQ)
    x, y = R.gen("x"), R.gen("y")
    cases = [((x, x - 1), None, 2), ((x - 1,), H(R, "x"), 1),
             ((R.one, y), None, 1), ((y, x - 1), H(R, "x"), 2)]
    for sequence, base, index in cases:
        out = is_regular_sequence(sequence, base)
        assert isinstance(out, RegSeqFailure)
        assert (out.index, str(out.witness)) == (index, "1")
    assert isinstance(is_regular_sequence((y, x - 1), None), RegSeqCertificate)


def test_regularize_refutes_the_unit_ideal():
    """No regular sequence generates the unit ideal; the failure names
    the first accepted element that completes it."""
    R = RingSpec(("x", "y"), QQ)
    for gens, index in ((("x", "x - 1"), 2), (("1", "x", "y"), 1),
                        (("x", "y", "x - 1"), 3)):
        I = H(R, *gens)
        out = regularize_generators(I, I.gens)
        assert isinstance(out, RegSeqFailure)
        assert (out.index, str(out.witness)) == (index, "1")


def test_regseq_skew_pair(R3, skew_pair):
    cert = is_regular_sequence(skew_pair, None)
    assert isinstance(cert, RegSeqCertificate) and cert.verify()


def test_regseq_tampered_hash_fails(R3):
    def bad_colon_hash(cert):
        cert.steps[1].colon_hash = "sha256:bad"

    def irregular_sequence(cert):
        # (x, x*y) is not regular; the one step kept is the true one for x
        x, y = cert.sequence
        cert.sequence = (x, x * y)
        cert.steps = cert.steps[:1]

    def empty_sequence(cert):
        # the producer rejects it (InputError): no replay, not a crash
        cert.sequence, cert.steps = (), ()

    for tamper in (bad_colon_hash, irregular_sequence, empty_sequence):
        cert = is_regular_sequence((R3.gen("x"), R3.gen("y")), None)
        tamper(cert)
        assert not cert.verify(), tamper.__name__


def test_ci_with_foreign_regseq_fails(R3, skew_lines, skew_pair):
    cert = ci_from_free_conormal(skew_lines, skew_pair, seed=0)
    cert.regseq = is_regular_sequence((R3.gen("x"), R3.gen("y")), None)
    assert not cert.verify()


def test_stci_with_tampered_pair_fails(R2):
    cert = stci_verify(H(R2, "x", "y"), (R2.gen("x"), R2.gen("y")))
    cert.pair = (R2.gen("x"), R2.gen("x"))
    assert not cert.verify()


def test_regularization_with_tampered_perturbation_fails(R3):
    out = regularize_generators(
        H(R3, "x", "y", "z"), tuple(R3.parse(t) for t in FIXTURE_BAD_ORDER),
        seed=5)
    out.perturbations[0].value = out.perturbations[0].value + R3.one
    assert not out.verify()


# -- coherence: exactness of the length-2 Koszul complex must agree with
# the regular-sequence test


def _random_poly(ring, rng, deg):
    acc = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(ring.nvars)] += 1
        acc[tuple(mono)] = ring.field.coerce(rng.randint(-2, 2))
    return ring.poly_from_dict(acc)


def test_koszul2_matches_regular_sequence_on_random_pairs():
    bare = RingSpec(("x", "y"), QQ)
    quo = bare.quotient([bare.parse("x*y")])
    rng = random.Random(42)
    checked = 0
    for _ in range(40):
        ring = quo if rng.random() < 0.3 else bare
        x, y = _random_poly(ring, rng, 2), _random_poly(ring, rng, 2)
        if not x or not y:
            continue
        exact = koszul2_exactness(x, y).exact
        proper = not H(ring, x, y).is_unit()
        regular = isinstance(is_regular_sequence((x, y), None), RegSeqCertificate)
        assert (exact and proper) == regular, \
            f"disagreement on ({x}, {y}) in {ring.describe()}"
        checked += 1
    assert checked >= 30


def test_koszul2_matches_regular_sequence_on_fixtures(R3, skew_pair):
    fixtures = [
        (R3.gen("x"), R3.gen("y"), True),
        (R3.gen("x"), R3.parse("x*y"), False),
        (skew_pair[0], skew_pair[1], True),
        (R3.parse("y - x^2"), R3.parse("z - x^3"), True),
    ]
    for x, y, expected in fixtures:
        assert koszul2_exactness(x, y).exact is expected
        assert isinstance(is_regular_sequence((x, y), None),
                          RegSeqCertificate) is expected


# -- regularization


def test_regularize_already_regular(R3):
    I = H(R3, "x", "y")
    out = regularize_generators(I, (R3.gen("x"), R3.gen("y")), seed=1)
    assert isinstance(out, RegularizationResult)
    assert out.sequence == (R3.gen("x"), R3.gen("y"))
    assert not out.perturbations
    assert out.verify()


def test_regularize_swapped_order_is_regular(R3):
    I = H(R3, "x", "y")
    out = regularize_generators(I, (R3.gen("y"), R3.gen("x")), seed=1)
    assert isinstance(out, RegularizationResult)
    assert not out.perturbations


FIXTURE_BAD_ORDER = ("y*(1 - x)", "z*(1 - x)", "x")


def test_bad_order_fixture_validated_by_oracle(R3):
    """The fixture's middle element really is a zerodivisor (oracle
    witness), and a small shift by the trailing generator repairs it."""
    g1, g2, g3 = (R3.parse(t) for t in FIXTURE_BAD_ORDER)
    w = bounded_zerodivisor_witness(g2, [g1], R3, deg_h=2, cap=4)
    assert w is not None
    assert H(R3, str(g1)).contains(w * g2)
    # exhaustive small search over scalar multiples of the trailing gen
    repaired = []
    for c in (-2, -1, 1, 2):
        cand = g2 + g3.scale(c)
        if bounded_zerodivisor_witness(cand, [g1], R3, deg_h=2, cap=4) is None:
            repaired.append(cand)
    assert repaired, "no small regularizing shift exists"


def test_regularize_repairs_bad_order(R3):
    I = H(R3, "x", "y", "z")
    fs = tuple(R3.parse(t) for t in FIXTURE_BAD_ORDER)
    assert isinstance(is_regular_sequence(fs, None), RegSeqFailure)
    out = regularize_generators(I, fs, seed=5)
    assert isinstance(out, RegularizationResult)
    assert out.perturbations
    for p in out.perturbations:
        assert sum((c * g for g, c in p.combination), R3.zero) == p.value
    assert out.verify()
    assert IdealHandle(R3, out.sequence).equals(I)


def test_regularization_replays_under_its_recorded_limits(monkeypatch, R3):
    """A result records the limits of the meter it was made under, and
    verify() reruns under a meter of those limits whatever meter is open:
    under the open meter's 0 trials the rerun would draw no perturbation."""
    from cicert import groebner

    I = H(R3, "y*(1 - x)", "z*(1 - x)", "x")
    made = Budgets(trials=2)
    with Budget(made):
        out = regularize_generators(I, I.gens, seed=0)
    assert isinstance(out, RegularizationResult) and out.perturbations
    assert out.budgets is made
    opened = []
    enter = groebner.Budget.__enter__

    def counted(meter):
        opened.append(meter)
        return enter(meter)

    monkeypatch.setattr(groebner.Budget, "__enter__", counted)
    with Budget(Budgets(trials=0)):
        assert out.verify()
    assert opened[1].budgets is made


def test_stci_certificate_replays_under_its_recorded_limits(skew_lines, skew_pair):
    """verify() reruns under the limits the certificate was made under,
    not under those of the open meter, which here allows one step."""
    made = Budgets(e_max=1)
    with Budget(made):
        cert = stci_verify(skew_lines, skew_pair)
    assert isinstance(cert, STCICertificate) and cert.radical.budgets is made
    with Budget(Budgets(gb_steps=1)):
        assert cert.verify()


def test_regularize_rejects_wrong_generators(R3):
    with pytest.raises(InputError):
        regularize_generators(H(R3, "x", "y"), (R3.gen("x"),), seed=0)


def test_regularize_rejects_the_empty_generating_set(R2):
    """`is_regular_sequence` certifies the sequence found, and it rejects
    an empty one."""
    with pytest.raises(InputError, match="empty sequence"):
        regularize_generators(IdealHandle(R2, ()), ())


def test_regularize_certificate_replays_on_the_rings_zero_ideal(monkeypatch):
    """A regular-sequence certificate without a base replays from the
    ring's zero ideal, whose basis of J0 is already held."""
    from cicert import groebner

    A = RingSpec(["x", "y", "z", "w"], QQ)
    A = A.quotient([A.parse("w^2 - y")])
    I = H(A, "x", "z")
    out = regularize_generators(I, I.gens)
    calls = []
    real = groebner.groebner_basis

    def recording(polys, ring):
        calls.append(tuple(polys))
        return real(polys, ring)

    monkeypatch.setattr(groebner, "groebner_basis", recording)
    assert out.certificate.verify()
    assert A.base_ideal not in calls


def test_regularize_deterministic(R3):
    I = H(R3, "x", "y", "z")
    fs = tuple(R3.parse(t) for t in FIXTURE_BAD_ORDER)
    a = regularize_generators(I, fs, seed=9)
    b = regularize_generators(I, fs, seed=9)
    assert [str(g) for g in a.sequence] == [str(g) for g in b.sequence]


# -- generation modulo the square


def test_mod_square_examples(R3):
    I = H(R3, "x", "y")
    assert mod_square_generation(I, (R3.gen("x"), R3.gen("y"))).holds
    out = mod_square_generation(I, (R3.gen("x"),))
    assert not out.holds and str(out.failing) == "y"


def test_mod_square_requires_membership(R3):
    with pytest.raises(InputError):
        mod_square_generation(H(R3, "x"), (R3.gen("y"),))


def test_mod_square_skew_pair(skew_lines, skew_pair):
    assert mod_square_generation(skew_lines, skew_pair).holds


def test_nakayama_dichotomy(R3):
    """(x + x^2, y) generates (x, y) modulo the square and after
    inverting 1 + x, but not globally: exactly the local-global gap."""
    I = H(R3, "x", "y")
    c, d = R3.parse("x + x^2"), R3.gen("y")
    assert mod_square_generation(I, (c, d)).holds
    pair_ideal = H(R3, str(c), str(d))
    assert not pair_ideal.equals(I)  # global equality legitimately fails
    s = R3.parse("1 + x")  # unit near V(I), kills the extra component
    # s avoids every sampled maximal ideal containing I ...
    for z0 in (0, 1, -1):
        maximal = H(R3, "x", "y", f"z - ({z0})")
        assert maximal.contains_ideal(I)
        assert not maximal.contains(s)
    # ... and inverting it recovers I from the pair
    for g in I.gens:
        assert pair_ideal.contains(s * g)
    assert saturate(pair_ideal, s).equals(I)


SKEW = ("x^2 - x", "x*y - y", "x*z", "y*z")

# name: (variables, base ideal, generators of I, candidates, does it hold)
MOD_SQUARE_CASES = {
    "first-two": ("xyz", (), SKEW, SKEW[:2], False),
    "cubic-first-two": ("xyz", (), ("y - x^2", "z - x*y", "x*z - y^2"),
                        ("y - x^2", "z - x*y"), True),
    "outside-span": ("xyz", (), ("x", "y"), ("x + x^2", "y"), True),
    "outside-span-skew": ("xyz", (), SKEW, ("x*(x^2 - x)", "x*y - y"), False),
    "redundant": ("xyz", (), ("x^2 - x", "x*y - y", "x^2 - x + x*y - y", "x*z", "y*z"),
                  ("x^2 - x", "(1 - x)*y + x*z"), True),
    "zero-generator": ("xyz", (), ("x", "0", "y"), ("x", "y"), True),
    "skew-quotient": ("xyzw", ("w",), SKEW, ("x^2 - x", "(1 - x)*y + x*z"), True),
    "failing-pair": ("xyz", (), SKEW, ("x^2 - x", "x*z"), False),
    # y*z is dropped and fails, after the kept x*z + y*z that also fails
    "dropped-fails": ("xyz", (), ("x^2 - x", "x*y - y", "x*z + y*z", "x*z", "y*z"),
                      SKEW[:2], False),
}


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", sorted(MOD_SQUARE_CASES))
def test_mod_square_matches_all_products(name, p):
    """The squares of only the generators that the candidates leave
    unspanned, tested on those generators only, decide I = (candidates)
    + I^2 as all the products tested on every generator do: the same
    answer and the same first failing generator."""
    variables, base, gens, candidates, holds = MOD_SQUARE_CASES[name]
    ring = RingSpec(tuple(variables), GF(p) if p else QQ)
    ring = ring.quotient([ring.parse(b) for b in base])
    I = IdealHandle(ring, [ring.parse(g) for g in gens])
    candidates = tuple(ring.parse(c) for c in candidates)
    out = mod_square_generation(I, candidates)
    assert (out.holds, out.failing) == mod_square_oracle(I.gens, candidates, cap=2)
    assert out.holds == holds


# -- lci certificates


def test_lci_plane_point(R3):
    out = lci_certificate(H(R3, "x", "y"))
    assert isinstance(out, LCIProxyCertificate) and out.height == 2
    assert out.verify()


def test_lci_skew_lines(skew_lines):
    out = lci_certificate(skew_lines)
    assert isinstance(out, LCIProxyCertificate) and out.height == 2


def test_lci_refutes_c345(c345):
    out = lci_certificate(c345)
    assert isinstance(out, LCIRefutation)
    assert "fitt" in out.reason


def _lci_verdict(base):
    text = f"ring A = QQ[x,y,z] / ({base});\nideal I = (x, y, z - 1);\ncheck lci I;\n"
    (payload,), _code = run_session(text)
    return payload["verdict"]


@pytest.mark.xfail(strict=True, reason="the height is the coheight of a ring that is "
                   "not equidimensional: the point lies on the cusp, where ht I = 1")
def test_lci_is_not_verified_off_the_top_dimension():
    assert _lci_verdict("z^2 - z, z*y^2 - z*x^3") != "verified"


@pytest.mark.xfail(strict=True, reason="I is locally (z - 1) on the line x = y = 0, "
                   "an lci of height 1, but the coheight is 2 and Fitt_1 is nonzero")
def test_lci_is_not_refuted_on_a_lower_dimensional_component():
    assert _lci_verdict("x*z, y*z") != "refuted"


# -- complete intersection from a free conormal


def test_ci_immediate(R2):
    I = H(R2, "x", "y")
    out = ci_from_free_conormal(I, (R2.gen("x"), R2.gen("y")), seed=0)
    assert isinstance(out, CICertificate) and out.verify()


def test_ci_skew_lines(skew_lines, skew_pair):
    out = ci_from_free_conormal(skew_lines, skew_pair, seed=0)
    assert isinstance(out, CICertificate)
    assert out.verify()


def test_ci_x2_y(R2):
    I = H(R2, "x^2", "y")
    out = ci_from_free_conormal(I, (R2.parse("x^2"), R2.gen("y")), seed=0)
    assert isinstance(out, CICertificate)


def test_ci_precondition_checked(R3, c345):
    with pytest.raises(InputError):
        ci_from_free_conormal(c345, (c345.gens[0], c345.gens[1]), seed=0)


def test_ci_search_recovers_equality_from_shifted_basis(monkeypatch, R2):
    """A conormal basis that misses exact equality by an element of I^2
    is repaired by the perturbation phase."""
    tried = []
    real = pipeline._try_ci_pair

    def counted(I, c, d):
        tried.append((c, d))
        return real(I, c, d)

    monkeypatch.setattr(pipeline, "_try_ci_pair", counted)
    I = H(R2, "x", "y")
    c = R2.parse("x + x^2")  # = x mod I^2, but (c, y) = (x*(1+x), y) != I
    d = R2.gen("y")
    assert mod_square_generation(I, (c, d)).holds
    out = ci_from_free_conormal(I, (c, d), seed=14)
    assert isinstance(out, CICertificate)
    assert IdealHandle(R2, out.pair).equals(I)
    # the pair itself fails; the hit is one of the first 100 trials, which
    # add elements of I^2 to it
    assert 1 < len(tried) <= 101


@pytest.mark.parametrize("pair, seed, tries, found", [
    # draws of `_random_pairs`, the random-pair stage's rule: past the
    # 1 + 100 `_perturbed_pairs`, the pair and its perturbations, at the
    # default 200 trials
    (("x + x^2", "y"), 0, 103, ("2*x - 2*y", "x")),
    (("x + x^2", "y"), 1, 102, ("-2*x + y", "3*x + 3*y")),
    # a perturbation of the pair by elements of I^2
    (("x + x*y", "y - x^2"), 2, 45, ("-3*x^2 + x*y + 2*y^2 + x",
                                     "-3*x^2 + x*y + 2*y^2 + y")),
], ids=["general-seed-0", "general-seed-1", "perturbed-seed-2"])
def test_ci_search_past_the_first_pair(monkeypatch, R2, pair, seed, tries, found):
    """Each pair generates I = (x, y) modulo I^2 but not I itself, so the
    search goes on to its trials; the pair it finds, and the number of
    pairs it tried, pin the stream of Random(seed)."""
    tried = []
    real = pipeline._try_ci_pair

    def counted(I, c, d):
        tried.append((c, d))
        return real(I, c, d)

    monkeypatch.setattr(pipeline, "_try_ci_pair", counted)
    I = H(R2, "x", "y")
    out = ci_from_free_conormal(I, tuple(R2.parse(p) for p in pair), seed=seed)
    assert isinstance(out, CICertificate)
    assert tuple(str(g) for g in out.pair) == found and len(tried) == tries
    assert out.verify()


@pytest.mark.parametrize("pair", [
    ("x", "0"),  # generates I and x is regular: only the zero entry fails
    ("x^2", "y"),  # a regular sequence, but (x^2, y) != I
    ("x", "x*y"),  # generates I, but x*y is zero modulo x
], ids=["zero-entry", "differs-from-I", "not-regular"])
def test_try_ci_pair_rejects(R2, pair):
    assert pipeline._try_ci_pair(H(R2, "x"), *(R2.parse(p) for p in pair)) is None


# -- set-theoretic complete intersections


def test_stci_verify_plane_point(R2):
    out = stci_verify(H(R2, "x", "y"), (R2.gen("x"), R2.gen("y")))
    assert isinstance(out, STCICertificate) and out.verify()


def test_stci_verify_radical_trick(R3):
    # pair outside the ideal but with the same radical
    out = stci_verify(H(R3, "x^2", "y"), (R3.gen("x"), R3.gen("y")))
    assert isinstance(out, STCICertificate)


def test_stci_verify_refutes_nonregular_pair(R3):
    """(x, x*y) fails both stages; the cheaper radical test runs first."""
    out = stci_verify(H(R3, "x", "y"), (R3.gen("x"), R3.parse("x*y")))
    assert isinstance(out, STCIRefutation) and out.stage == "radical-equality"


def test_stci_verify_refutes_pair_with_right_radical_not_regular():
    """Two planes meeting in a point, QQ[x,y,z,w]/(x, y)(z, w), are not
    Cohen-Macaulay: (x + z, y + w) has the radical of the point but
    y + w is a zerodivisor modulo x + z."""
    bare = RingSpec(("x", "y", "z", "w"), QQ)
    A = bare.quotient([bare.parse(g) for g in ("x*z", "x*w", "y*z", "y*w")])
    out = stci_verify(H(A, "x", "y", "z", "w"),
                      (A.parse("x + z"), A.parse("y + w")))
    assert isinstance(out, STCIRefutation) and out.stage == "regular-sequence"
    assert out.detail == {"index": 2, "witness": "x"}


def test_stci_verify_refutes_wrong_radical(R3):
    out = stci_verify(H(R3, "x", "y"), (R3.gen("x"), R3.gen("z")))
    assert isinstance(out, STCIRefutation) and out.stage == "radical-equality"


def test_stci_verify_height_precondition(R3):
    with pytest.raises(InputError):
        stci_verify(H(R3, "x"), (R3.gen("x"), R3.gen("y")))


def _pair_runs(monkeypatch, pair):
    """A list that counts the Buchberger runs on the ideal of `pair`."""
    from cicert import groebner
    runs = []
    buchberger = groebner._module_buchberger_dicts
    wanted = [groebner._vec_from_polys(f.ring, (f,)) for f in pair]

    def counted(vecdicts, ring):
        if vecdicts == wanted:
            runs.append(None)
        return buchberger(vecdicts, ring)

    monkeypatch.setattr(groebner, "_module_buchberger_dicts", counted)
    return runs


def test_stci_verify_computes_the_pair_basis_once(monkeypatch, skew_lines, skew_pair):
    """With no meter open, the radical test and the regular-sequence
    test run under one meter, and the second finds the basis of (f, g)
    in its store."""
    runs = _pair_runs(monkeypatch, skew_pair)
    out = stci_verify(skew_lines, skew_pair)
    assert isinstance(out, STCICertificate)
    assert len(runs) == 1
    assert out.regseq.sequence == skew_pair


def test_try_ci_pair_computes_the_pair_basis_once(monkeypatch, skew_lines, skew_pair):
    """With no meter open, the regular-sequence test reuses the basis of
    (c, d) that the equality with I computed, through the one meter's
    store."""
    runs = _pair_runs(monkeypatch, skew_pair)
    out = ci_from_free_conormal(skew_lines, skew_pair, seed=0)
    assert isinstance(out, CICertificate) and out.pair == skew_pair
    assert len(runs) == 1
    assert out.regseq.sequence == skew_pair


def test_a_stored_result_leaves_the_meter_where_a_rerun_would():
    """Each run makes its ring A = QQ[x,y,z,w]/(w^2 - y) apart, so the
    zero ideal, the base of both sequences, is first used inside the
    call.  The hit of the second run pays the bases the first run paid
    for, A's zero ideal among them: after the later uses of a handle of
    the pair and of A's zero ideal the meter reads what it reads with a
    fresh store."""
    bare = RingSpec(("x", "y", "z", "w"), QQ)
    pair = ("y - x^2", "z - x^3")

    def run(store):
        A = bare.quotient([bare.parse("w^2 - y")])
        seq = tuple(map(A.parse, pair))
        with Budget(store=store) as meter:
            given = IdealHandle(A, seq)
            forward = is_regular_sequence(seq)
            backward = is_regular_sequence(seq[::-1])
            for handle in (given, zero_ideal(A)):
                handle.groebner()
        return meter.used, forward.payload(), backward.payload()

    store = BasisStore()
    first = run(store)
    size = len(store)
    again = run(store)
    assert len(store) == size  # every call of the second run was a hit
    assert again == first == run(BasisStore()) and first[0] > 0


def test_stci_search_skew_lines(skew_lines, skew_pair):
    res = stci_search(skew_lines, seed=0)
    assert res.certificate is not None
    assert res.via == "conormal-basis"
    assert res.certificate.verify()


@pytest.mark.parametrize("p", [0, 7])
def test_span_key_is_equal_exactly_for_equal_spans(p):
    """stci_search's key of a pair of coefficient rows: two pairs get
    the same key exactly when they span the same space, by the ranks of
    an independent elimination."""
    field = GF(p) if p else QQ

    def rank(rows):
        span = LinearSpan(field, key=lambda j: j)
        return sum(span.insert({j: s_coerce(p, a) for j, a in enumerate(row)
                                if s_coerce(p, a)}) for row in rows)

    rng = random.Random(3)

    def draw():
        return tuple(rng.randint(-2, 2) for _ in range(3))

    for _ in range(150):
        a = (draw(), draw())
        u, v, w, z = (rng.randint(-3, 3) for _ in range(4))
        det = u * z - v * w
        if det % p if p else det:  # an invertible change of basis of a
            same = tuple(tuple(s * x + t * y for x, y in zip(*a))
                         for s, t in ((u, v), (w, z)))
            assert _row_reduced(same, p) == _row_reduced(a, p)
        b = (draw(), draw())
        equal = rank(a) == rank(b) == rank(a + b)
        assert (_row_reduced(a, p) == _row_reduced(b, p)) == equal


def test_stci_search_tests_each_candidate_span_once(monkeypatch, skew_lines):
    """The skew lines' first 10 candidates, up to the certified one,
    span 4 ideals, since (a, a - b) and (a, a + b) span the same ideal
    as (a, b): 4 mod-square tests, and the same certificate as a test
    of every candidate gives."""
    tested = []
    real = pipeline.mod_square_generation

    def counted(I, cand):
        tested.append(cand)
        return real(I, cand)

    monkeypatch.setattr(pipeline, "mod_square_generation", counted)
    res = stci_search(skew_lines, seed=0)
    assert len(tested) == 4
    assert res.via == "conormal-basis"
    assert [str(g) for g in res.certificate.pair] == ["x^2 - x", "x*y - x*z - y"]
    assert res.certificate.verify()


# the pairs `_try_ci_pair` receives on the skew lines at 4 trials, seed 0:
# the two candidates that generate I modulo I^2, each with its 2
# perturbations by elements of I^2 from a fresh Random(0)
SKEW_CI_TRIED = [
    ("x^2 - x", "x*y - x*z - y"),
    ("3*x^4 - 3*x^2*y^2 + 3*x^3*z - x^2*y*z + x*y^2*z + 3*y^2*z^2 - 6*x^3 + 6*x*y^2"
     " - 3*x^2*z + x*y*z - y^2*z + 4*x^2 - 3*y^2 - x",
     "3*x^4 - x^3*y + x^2*y^2 - 3*x^2*y*z + x*y^2*z - 2*x^2*z^2 - x*y*z^2 - 2*y^2*z^2"
     " - 6*x^3 + 2*x^2*y - 2*x*y^2 + 3*x*y*z - y^2*z + 3*x^2 + y^2 - x*z - y"),
    ("3*x^4 - 3*x^3*y - x^2*y^2 + x^3*z + 4*x^2*y*z + 2*x*y^2*z + 3*x^2*z^2 + x*y*z^2"
     " - 2*y^2*z^2 - 6*x^3 + 6*x^2*y + 2*x*y^2 - x^2*z - 4*x*y*z - 2*y^2*z + 4*x^2"
     " - 3*x*y - y^2 - x",
     "-x^4 - 3*x^3*y + 3*x^2*y^2 + 2*x^3*z - x^2*y*z - x*y^2*z + x*y*z^2 - 3*y^2*z^2"
     " + 2*x^3 + 6*x^2*y - 6*x*y^2 - 2*x^2*z + x*y*z + y^2*z - x^2 - 2*x*y + 3*y^2"
     " - x*z - y"),
    ("x^2 - x", "x*y + x*z - y"),
    ("3*x^4 - 3*x^2*y^2 + 3*x^3*z - x^2*y*z + x*y^2*z + 3*y^2*z^2 - 6*x^3 + 6*x*y^2"
     " - 3*x^2*z + x*y*z - y^2*z + 4*x^2 - 3*y^2 - x",
     "3*x^4 - x^3*y + x^2*y^2 - 3*x^2*y*z + x*y^2*z - 2*x^2*z^2 - x*y*z^2 - 2*y^2*z^2"
     " - 6*x^3 + 2*x^2*y - 2*x*y^2 + 3*x*y*z - y^2*z + 3*x^2 + y^2 + x*z - y"),
    ("3*x^4 - 3*x^3*y - x^2*y^2 + x^3*z + 4*x^2*y*z + 2*x*y^2*z + 3*x^2*z^2 + x*y*z^2"
     " - 2*y^2*z^2 - 6*x^3 + 6*x^2*y + 2*x*y^2 - x^2*z - 4*x*y*z - 2*y^2*z + 4*x^2"
     " - 3*x*y - y^2 - x",
     "-x^4 - 3*x^3*y + 3*x^2*y^2 + 2*x^3*z - x^2*y*z - x*y^2*z + x*y*z^2 - 3*y^2*z^2"
     " + 2*x^3 + 6*x^2*y - 6*x*y^2 - 2*x^2*z + x*y*z + y^2*z - x^2 - 2*x*y + 3*y^2"
     " + x*z - y"),
]


def test_stci_search_leaves_random_pairs_to_the_random_stage(monkeypatch, skew_lines):
    """The conormal stage tries each candidate that generates I modulo
    I^2 and its perturbations by elements of I^2, 1 + 2 pairs per
    candidate at 4 trials, and no random pairs from I: the random-pair
    stage tries those."""
    tried = []
    monkeypatch.setattr(pipeline, "_try_ci_pair",
                        lambda I, c, d: tried.append((str(c), str(d))))
    with Budget(Budgets(trials=4)):
        res = stci_search(skew_lines, seed=0)
    assert res.via == "exhausted"
    assert len(tried) == 6
    assert tried == SKEW_CI_TRIED


def test_stci_search_keeps_its_consistency_check(monkeypatch, skew_lines):
    """A complete-intersection pair that stci_verify refutes is a fault
    of the program, raised, never reported as a search result."""
    monkeypatch.setattr(pipeline, "stci_verify",
                        lambda K, pair: STCIRefutation("radical-equality", {}))
    with pytest.raises(AssertionError, match="a complete-intersection pair fails stci"):
        stci_search(skew_lines, seed=0)


def test_stci_search_already_ci(R2):
    res = stci_search(H(R2, "x^2", "y^3"), seed=0)
    assert res.certificate is not None
    assert {str(p) for p in res.certificate.pair} == {"x^2", "y^3"}


def test_stci_search_random_pairs_stage(R2):
    """Fat point (x,y)^2 is not lci, so the conormal stage is skipped
    and the randomized stage must deliver."""
    I = H(R2, "x^2", "x*y", "y^2")
    assert isinstance(lci_certificate(I), LCIRefutation)
    res = stci_search(I, seed=1)
    assert res.certificate is not None
    assert res.via == "random-pairs"
    assert res.certificate.verify()


def test_stci_search_deterministic(skew_lines):
    a = stci_search(skew_lines, seed=0)
    b = stci_search(skew_lines, seed=0)
    assert [str(p) for p in a.certificate.pair] == \
        [str(p) for p in b.certificate.pair]


def test_stci_search_inconclusive_with_zero_trials(R2):
    I = H(R2, "x^2", "x*y", "y^2")
    with Budget(Budgets(trials=0)):
        res = stci_search(I, seed=0)
    assert isinstance(res.outcome, Inconclusive)


# -- the random-pair stage


@pytest.mark.parametrize("field, drawn", [
    (QQ, [(1, ("3*x^2 + 3*y^2", "-3*x*y - y^2")),
          (2, ("x*y^5 - x^4*y + 3*x^3*y + x^3 + 3*y^3", "x^5*y + 2*x*y^2 - 2*x*y")),
          (3, ("-2*x^2 - 2*x*y + 3*y^2", "-2*x^2 + 3*x*y + y^2")),
          (4, ("2*x^3*y^3 - x^2*y^4 + 4*x*y^2 + x^2", "2*x*y + 3*y^2"))]),
    # trial 2 draws a zero or repeated entry: nothing to check, and the
    # trials after it keep their numbers
    (GF(3), [(1, ("x^2 + x*y", "x^2 + 2*x*y + y^2")),
             (3, ("x^2 + 2*x*y", "x^2 + x*y + y^2")),
             (4, ("y^4", "x^2*y^2 + x^2"))]),
], ids=["QQ", "F3"])
def test_random_pairs_keep_their_draws_and_trial_numbers(monkeypatch, field, drawn):
    """The fat point (x^2, x*y, y^2) is not lci, so every pair that
    stci_verify receives at 4 trials, seed 0, is a random-pair trial.
    Refuting all of them gives the pairs; accepting only the k-th ends
    the search at its trial number.  Both pin the stream of Random(0)."""
    I = IdealHandle(RingSpec(("x", "y"), field), ["x^2", "x*y", "y^2"])

    def run(accepted):
        calls = []

        def check(K, pair):
            calls.append(tuple(str(g) for g in pair))
            if len(calls) == accepted:
                return STCICertificate(K.gens, pair, None, None, None)
            return STCIRefutation("radical-equality", {})

        monkeypatch.setattr(pipeline, "stci_verify", check)
        with Budget(Budgets(trials=4)):
            res = stci_search(I, seed=0)
        return res, calls

    res, calls = run(None)
    assert (res.via, res.trials) == ("exhausted", 4)
    assert calls == [pair for _, pair in drawn]
    for k, (trial, pair) in enumerate(drawn, 1):
        res, calls = run(k)
        assert (res.via, res.trials, calls[-1]) == ("random-pairs", trial, pair)


C345 = ("x*z - y^2", "x^3 - y*z", "x^2*y - z^2")


def test_a_library_search_runs_under_the_open_meters_limits():
    """The open meter's Budgets bound a library search, its steps as well
    as its trials: c345 over GF(7) at 3 trials spends 78 steps, so a
    meter of 5 steps runs out."""
    I = IdealHandle(RingSpec(("x", "y", "z"), GF(7)), list(C345))
    with pytest.raises(BudgetExceededError), Budget(Budgets(gb_steps=5, trials=3)):
        stci_search(I, seed=1)
    with Budget(Budgets(gb_steps=10**9, trials=3)) as meter:
        res = stci_search(I, seed=1)
    assert (res.via, res.trials, meter.used) == ("exhausted", 3, 78)


def test_meters_of_different_limits_share_one_store():
    """One store serves meters of any limits, and nothing it serves reads
    them: each search reports its own trials, and each radical
    certificate and membership its own e_max."""
    I = IdealHandle(RingSpec(("x", "y", "z"), GF(7)), list(C345))
    R = I.ring
    store = BasisStore()
    seen = []
    for trials, e_max in ((2, 1), (3, 30)):
        with Budget(Budgets(trials=trials, e_max=e_max), store=store):
            res = stci_search(I, seed=1)
            rad = radical_equal(H(R, "x^2", "y"), H(R, "x", "y^3"))
            w = radical_member(R.gen("x"), H(R, "x^2"))
        seen.append((res.trials, res.outcome.trials, rad.budgets.e_max, w.exponent))
    assert seen == [(2, 2, 1, None), (3, 3, 30, 2)]


def test_exhausted_search_stays_in_the_rings_own_field(monkeypatch):
    """A search over GF(7) that finds nothing spends exactly its trial
    budget, and every ring it builds is the input ring or a tag ring of
    it: the input's variables plus tag variables only."""
    built = []
    real = RingSpec.__init__

    def recorded(ring, variables, *args, **kwargs):
        built.append(tuple(variables))
        real(ring, variables, *args, **kwargs)

    monkeypatch.setattr(RingSpec, "__init__", recorded)
    I = IdealHandle(RingSpec(("x", "y", "z"), GF(7)), list(C345))
    with Budget(Budgets(trials=2)):
        res = stci_search(I, seed=0)
    assert (res.via, res.trials, res.outcome.trials) == ("exhausted", 2, 2)
    assert len(built) > 1
    for variables in built:
        extra = [v for v in variables if v not in I.ring.variables]
        assert set(I.ring.variables) <= set(variables)
        assert all(v.rstrip("_") == "t" for v in extra), variables


def test_random_pairs_run_over_the_ring_itself(monkeypatch):
    """Refute the search's first pair by force: the later trials draw
    the pairs an unforced search draws, from the same Random(seed), and
    the one that verifies is certified over the ring asked about."""
    I = IdealHandle(RingSpec(("x", "y"), GF(7)), ["x^2", "x*y", "y^2"])
    real = pipeline.stci_verify
    unforced = []

    def recorded(K, pair):
        unforced.append(pair)
        return real(K, pair)

    monkeypatch.setattr(pipeline, "stci_verify", recorded)
    with Budget(Budgets(trials=4)):
        assert stci_search(I, seed=0).trials == 1
    calls = []

    def first_refuted(K, pair):
        assert K.ring is I.ring
        calls.append(pair)
        if len(calls) == 1:
            return STCIRefutation("radical-equality", {})
        return real(K, pair)

    monkeypatch.setattr(pipeline, "stci_verify", first_refuted)
    with Budget(Budgets(trials=4)):
        res = stci_search(I, seed=0)
    assert calls[0] == unforced[0]
    assert res.via == "random-pairs" and res.trials == len(calls) > 1
    assert res.certificate.report.ring is I.ring
    assert all(f.ring is I.ring for f in res.certificate.pair)
    assert res.certificate.verify()


# -- unimodular change of generators keeps pairs regular


def test_unimodular_changes_stay_regular(R2):
    rng = random.Random(2024)
    base_pairs = [
        (R2.gen("x"), R2.gen("y")),
        (R2.parse("x^2"), R2.parse("y^3")),
        (R2.parse("x^2 + y^2"), R2.parse("x*y")),
    ]
    for _ in range(30):
        a, b = base_pairs[rng.randrange(len(base_pairs))]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                u = _random_poly(R2, rng, 1)
                a, b = a + u * b, b
            else:
                u = _random_poly(R2, rng, 1)
                a, b = a, b + u * a
            if rng.random() < 0.3:
                a, b = b, a
            if rng.random() < 0.3:
                a = a.scale(rng.choice([1, -1, 2]))
        out = is_regular_sequence((a, b), None)
        assert isinstance(out, RegSeqCertificate)


# -- Krull-style chain sanity


def test_power_quotient_chain_stabilizes(R3, skew_pair):
    """The ascending chain ((0) : d^n) stabilizes and its limit is
    unchanged by saturating at d again."""
    for d in (skew_pair[1], R3.parse("x*y")):
        zero = H(R3)
        chain = []
        power = R3.one
        for _ in range(6):
            power = power * d
            chain.append(quotient(zero, power))
        assert chain[-1].equals(chain[-2])
        stable = chain[-1]
        assert quotient(stable, d).equals(stable)
        assert saturate(zero, d).equals(stable)


def test_principal_powers_strictly_decrease(R3, skew_pair):
    d = skew_pair[1]
    prev = H(R3, str(d))
    power = d
    for _ in range(3):
        power = power * d
        nxt = H(R3)
        nxt = IdealHandle(R3, [power])
        assert prev.contains_ideal(nxt)
        assert not nxt.contains_ideal(prev)
        prev = nxt


@pytest.mark.parametrize("entry", ["stci_verify", "ci_from_free_conormal", "stci_search",
                                   "regularize_generators", "radical_member", "radical_equal"])
def test_a_library_call_runs_under_one_meter(monkeypatch, R3, skew_pair, entry):
    """Called with no meter open, a search, verification or radical
    membership opens one default meter for the whole call, and its bases
    are shared by value through that meter's store."""
    from cicert import groebner, ideals
    opened = []
    enter = groebner.Budget.__enter__

    def counted(meter):
        opened.append(meter)
        return enter(meter)

    monkeypatch.setattr(groebner.Budget, "__enter__", counted)
    I = H(R3, "x^2 - x", "x*y - y", "x*z", "y*z")  # the skew lines, made afresh
    args = {"stci_verify": (I, skew_pair), "ci_from_free_conormal": (I, skew_pair),
            "stci_search": (I,), "regularize_generators": (I, I.gens),
            "radical_member": (R3.gen("x"), I), "radical_equal": (I, H(R3, *skew_pair))}[entry]
    getattr(ideals if entry.startswith("radical") else pipeline, entry)(*args)
    assert len(opened) == 1 and opened[0].budgets.gb_steps == groebner.DEFAULT_GB_STEPS
