"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every check is exact (no numerical tolerances anywhere) and the
wall-clock limits are asserted.
"""

import json
import random
import time

from cicert import certificates
from cicert.cli import RunOptions, replay_payload, run_session
from cicert.groebner import IdealHandle, module_gb
from cicert.homology import (
    conormal_presentation,
    ext_module,
    koszul2_exactness,
    koszul_contraction,
    projective_rank_certificate,
    wedge,
    ContractionMap,
    ExteriorForm,
)
from cicert.pipeline import (
    CICertificate,
    LCIProxyCertificate,
    LCIRefutation,
    RegSeqCertificate,
    RegularizationResult,
    is_regular_sequence,
    lci_certificate,
    regularize_generators,
    stci_search,
)
from cicert.poly import GF, QQ, RingSpec

from oracles import bounded_zerodivisor_witness, membership_oracle

SEED = 20240901


def _pass(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def _random_poly(ring, rng, deg, terms=3):
    acc = {}
    for _ in range(terms):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(ring.nvars)] += 1
        acc[tuple(mono)] = ring.field.coerce(rng.randint(-3, 3))
    return ring.poly_from_dict(acc)


def test_criterion_01_kernel_soundness_vs_linear_oracle():
    started = time.perf_counter()
    rng = random.Random(SEED)
    configs = [(QQ, 2, 25), (QQ, 3, 25), (GF(5), 2, 25), (GF(5), 3, 25)]
    ideals = 0
    disagreements = 0
    for field, nv, count in configs:
        ring = RingSpec(tuple("xyz"[:nv]), field)
        for _ in range(count):
            gens = [g for g in
                    (_random_poly(ring, rng, 3) for _ in range(rng.randint(2, 3)))
                    if g]
            if not gens:
                continue
            ideals += 1
            handle = IdealHandle(ring, gens)
            combo = ring.zero
            for g in gens:
                combo = combo + _random_poly(ring, rng, 2) * g
            for query in (_random_poly(ring, rng, 5), combo):
                kernel_says = handle.contains(query)
                oracle_says = membership_oracle(query, gens, cap=7)
                if kernel_says and not oracle_says:
                    oracle_says = membership_oracle(query, gens, cap=12)
                if kernel_says != oracle_says:
                    disagreements += 1
    elapsed = time.perf_counter() - started
    assert ideals >= 100
    assert disagreements == 0
    assert elapsed < 120
    _pass(1, f"membership agreed with the linear oracle on {ideals} random "
             f"ideals, 0 disagreements, {elapsed:.1f}s")


def test_criterion_02_koszul_laws_on_random_cases():
    started = time.perf_counter()
    rng = random.Random(SEED + 1)
    ring = RingSpec(("x", "y", "z"), QQ)

    def random_form(n, p):
        import itertools
        comps = {}
        for idx in itertools.combinations(range(n), p):
            if rng.random() < 0.5:
                comps[idx] = _random_poly(ring, rng, 1, terms=2)
        return ExteriorForm(ring, n, p, comps)

    cases = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        p = rng.randint(2, min(4, n))
        u = ContractionMap(tuple(_random_poly(ring, rng, 1, terms=2) or ring.zero
                                 for _ in range(n)))
        form = random_form(n, p)
        assert koszul_contraction(u, koszul_contraction(u, form)).is_zero
        q = rng.randint(0, n - p) if n > p else 0
        a = random_form(n, p - 1) if p - 1 >= 0 else random_form(n, 0)
        b = random_form(n, q)
        lhs = koszul_contraction(u, wedge(a, b))
        rhs = wedge(koszul_contraction(u, a), b)
        signed = wedge(a, koszul_contraction(u, b))
        if (p - 1) % 2:
            signed = -signed
        assert lhs == rhs + signed
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 500
    assert elapsed < 30
    _pass(2, f"d(d(w)) = 0 and the Leibniz identity held exactly on "
             f"{cases} random cases, {elapsed:.1f}s")


def test_criterion_03_koszul_exactness_iff_regular(R3, skew_pair):
    started = time.perf_counter()
    bare = RingSpec(("x", "y"), QQ)
    quo = bare.quotient([bare.parse("x*y")])
    rng = random.Random(SEED + 2)
    pairs = []
    while len(pairs) < 100:
        ring = quo if rng.random() < 0.25 else bare
        x, y = _random_poly(ring, rng, 2), _random_poly(ring, rng, 2)
        if x and y:
            pairs.append((x, y))
    fixtures = [
        (R3.gen("x"), R3.gen("y")),
        (R3.gen("x"), R3.parse("x*y")),
        skew_pair,
        (R3.parse("y - x^2"), R3.parse("z - x^3")),
        (R3.gen("x"), R3.gen("x")),
    ]
    regular_count = 0
    for x, y in pairs + fixtures:
        verdict = koszul2_exactness(x, y)
        # a regular sequence is also proper: (x, y) is not the unit ideal
        proper = not IdealHandle(x.ring, [x, y]).is_unit()
        regular = isinstance(is_regular_sequence((x, y), None), RegSeqCertificate)
        assert (verdict.exact and proper) == regular, f"disagreement on ({x}, {y})"
        if regular:
            regular_count += 1
            ring = x.ring
            expected = module_gb([(-y, x)], ring)
            for row in verdict.syzygy_rows:
                assert expected.contains(row)
            computed = module_gb(verdict.syzygy_rows, ring)
            assert computed.contains((-y, x))
    elapsed = time.perf_counter() - started
    _pass(3, f"koszul2 exactness matched the regular-sequence test on "
             f"{len(pairs)} random pairs + {len(fixtures)} fixtures "
             f"({regular_count} regular, all with syzygies = <(-y, x)>), "
             f"{elapsed:.1f}s")


def test_criterion_04_regularization_pipeline(R3, R2, skew_lines, skew_pair):
    started = time.perf_counter()
    bad_order = tuple(R3.parse(t) for t in ("y*(1 - x)", "z*(1 - x)", "x"))

    # fixture validation by the independent bounded-search oracle:
    # the stated order is not regular, a small shift is
    g1, g2, g3 = bad_order
    assert bounded_zerodivisor_witness(g2, [g1], R3, deg_h=2, cap=4) is not None
    assert any(
        bounded_zerodivisor_witness(g2 + g3.scale(c), [g1], R3, deg_h=2, cap=4)
        is None for c in (-2, -1, 1, 2))
    assert not isinstance(is_regular_sequence(bad_order, None), RegSeqCertificate)

    corpus = [
        (IdealHandle(R2, ["x", "y"]), (R2.gen("x"), R2.gen("y"))),
        (IdealHandle(R2, ["x", "y"]), (R2.gen("y"), R2.gen("x"))),
        (IdealHandle(R2, ["x^2", "y"]), (R2.parse("x^2"), R2.gen("y"))),
        (IdealHandle(R3, ["y - x^2", "z - x^3"]),
         (R3.parse("z - x^3"), R3.parse("y - x^2"))),
        (IdealHandle(R3, [str(p) for p in skew_pair]), skew_pair),
        (IdealHandle(R3, ["x", "y", "z"]), bad_order),
    ]
    inconclusive = 0
    for handle, gens in corpus:
        out = regularize_generators(handle, gens, seed=SEED)
        if not isinstance(out, RegularizationResult):
            inconclusive += 1
            continue
        assert out.verify()
        assert IdealHandle(handle.ring, out.sequence).equals(handle)
    elapsed = time.perf_counter() - started
    assert inconclusive == 0
    _pass(4, f"regularization produced replaying certificates on "
             f"{len(corpus)} corpus ideals (one with a non-regular input "
             f"order, validated by the exhaustive oracle), 0 inconclusive, "
             f"{elapsed:.1f}s")


def test_criterion_05_stci_for_height2_lci_in_dim3(
        R3, skew_lines, twisted_cubic, skew_in_quotient):
    corpus = [("skew lines", skew_lines), ("twisted cubic", twisted_cubic),
              ("skew lines in QQ[x,y,z,w]/(w)", skew_in_quotient)]
    times = []
    for name, handle in corpus:
        started = time.perf_counter()
        lci = lci_certificate(handle)
        assert isinstance(lci, LCIProxyCertificate) and lci.height == 2, name
        result = stci_search(handle, seed=SEED)
        cert = result.certificate
        assert cert is not None, f"no certificate for {name}"
        assert cert.verify(), f"replay failed for {name}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        times.append(f"{name} {elapsed:.1f}s")
    _pass(5, "set-theoretic complete intersection certificates for "
             + "; ".join(times))


def test_criterion_06_exact_ci_for_skew_lines(skew_lines, skew_pair):
    started = time.perf_counter()
    from cicert.pipeline import ci_from_free_conormal

    out = ci_from_free_conormal(skew_lines, skew_pair, seed=SEED)
    assert isinstance(out, CICertificate)
    assert out.ideal_hash == out.pair_hash
    pair_ideal = IdealHandle(skew_lines.ring, out.pair)
    assert pair_ideal.equals(skew_lines)
    assert all(pair_ideal.contains(g) for g in skew_lines.gens)
    assert all(skew_lines.contains(g) for g in out.pair)
    assert out.verify()
    elapsed = time.perf_counter() - started
    _pass(6, f"skew-lines ideal equals (x^2 - x, (1 - x)y + xz) by reduced-"
             f"basis equality both ways, regular sequence certified, "
             f"{elapsed:.1f}s")


def test_criterion_07_surface_over_f5(f5_cylinder):
    started = time.perf_counter()
    lci = lci_certificate(f5_cylinder)
    assert isinstance(lci, LCIProxyCertificate) and lci.height == 2
    result = stci_search(f5_cylinder, seed=SEED)
    cert = result.certificate
    assert cert is not None
    assert cert.verify()
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _pass(7, f"height-2 lci surface over F5 in 4 variables received an "
             f"STCI certificate via {result.via}, {elapsed:.1f}s")


def test_criterion_08_unimodular_changes_keep_regularity():
    started = time.perf_counter()
    rng = random.Random(SEED + 3)
    R2 = RingSpec(("x", "y"), QQ)
    R3 = RingSpec(("x", "y", "z"), QQ)
    base_pairs = [
        (R2.gen("x"), R2.gen("y")),
        (R2.parse("x^2"), R2.parse("y^3")),
        (R2.parse("x^2 + y^2"), R2.parse("x*y")),
        (R3.gen("x"), R3.gen("y")),
        (R3.parse("x^2 - y*z"), R3.parse("y^2 - x*z")),
    ]
    failures = 0
    for _ in range(200):
        a, b = base_pairs[rng.randrange(len(base_pairs))]
        ring = a.ring
        # invertible scalar mix (unit determinant over k)
        while True:
            p, q, r, s = (rng.randint(-2, 2) for _ in range(4))
            if p * s - q * r != 0:
                break
        a, b = a.scale(p) + b.scale(q), a.scale(r) + b.scale(s)
        # elementary shears over the ring (determinant 1)
        for _ in range(rng.randint(0, 2)):
            u = _random_poly(ring, rng, 1, terms=2)
            if rng.random() < 0.5:
                a = a + u * b
            else:
                b = b + u * a
        if not isinstance(is_regular_sequence((a, b), None), RegSeqCertificate):
            failures += 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    _pass(8, f"200 unimodular changes of homogeneous height-2 pairs all "
             f"stayed regular sequences, {elapsed:.1f}s")


def test_criterion_09_ext_cyclicity_and_lci_refutation(
        R2, skew_lines, twisted_cubic, c345):
    started = time.perf_counter()
    free_conormal_corpus = [
        ("plane point", IdealHandle(R2, ["x", "y"])),
        ("skew lines", skew_lines),
        ("twisted cubic", twisted_cubic),
    ]
    for name, handle in free_conormal_corpus:
        pres = conormal_presentation(handle)
        cert = projective_rank_certificate(pres, 2)
        assert cert.certified, name
        ext = ext_module(handle, 2)
        assert ext.locally_cyclic, name
    refuted = lci_certificate(c345)
    assert isinstance(refuted, LCIRefutation)
    elapsed = time.perf_counter() - started
    _pass(9, f"Ext^2 locally cyclic for {len(free_conormal_corpus)} ideals "
             f"with free rank-2 conormal; (t^3,t^4,t^5) curve refuted "
             f"({refuted.reason}), {elapsed:.1f}s")


REPLAY_SESSIONS = [
    # criterion 4: regularization
    ("ring R = QQ[x,y,z];"
     "ideal M = (y*(1 - x), z*(1 - x), x);"
     "check regularize M;"),
    # criteria 5/6: skew lines verification and exact equality
    ("ring R = QQ[x,y,z] order grevlex;"
     "ideal I = (x^2 - x, x*y - y, x*z, y*z);"
     "pair P = (x^2 - x, (1 - x)*y + x*z);"
     "check stci I with P;"
     "check ci I with P;"
     "check stci-search I;"
     "check lci I;"),
    # criterion 7: the surface fixture over F5
    ("ring R = Fp(5)[x,y,z,w];"
     "ideal S = (x^2 - x, x*y - y, x*z, y*z);"
     "check stci-search S;"),
    # criterion 8 sample: a regular-sequence certificate
    ("ring R = QQ[x,y];"
     "check regular-sequence (x^2 + y^2, x*y);"),
    # criterion 9: ext cyclicity and the lci refutation
    ("ring R = QQ[x,y,z];"
     "ideal I = (x^2 - x, x*y - y, x*z, y*z);"
     "ideal C = (x*z - y^2, x^3 - y*z, x^2*y - z^2);"
     "check ext-cyclic I at 2;"
     "check lci C;"),
]


def test_criterion_10_replay_integrity():
    started = time.perf_counter()
    options = RunOptions(seed=SEED)
    payloads = []
    for text in REPLAY_SESSIONS:
        got, _ = run_session(text, options)
        payloads.extend(got)
    assert len(payloads) >= 9
    for payload in payloads:
        verdict, ok = replay_payload(payload)
        assert ok, f"replay mismatch for {payload['command']}"
        assert verdict == payload["verdict"]
        # bit-identical: the canonical core re-serializes to the same bytes
        fresh_text = certificates.dumps(certificates.core_payload(payload))
        again, _ = run_session(payload["session"], options)
        twin = next(p for p in again
                    if p["command_index"] == payload["command_index"])
        assert certificates.dumps(certificates.core_payload(twin)) == fresh_text
    # tampering: flip one coefficient inside a witness tree
    target = payloads[1]
    text = certificates.dumps(target)
    assert '"x^2 - x"' in text
    tampered = json.loads(text.replace('"x^2 - x"', '"x^2 - 3*x"', 1))
    _, ok = replay_payload(tampered)
    assert not ok
    tampered["replay_hash"] = certificates.replay_hash(tampered)
    _, ok = replay_payload(tampered)
    assert not ok
    elapsed = time.perf_counter() - started
    _pass(10, f"{len(payloads)} certificates replayed bit-identically and "
              f"tampering was detected, {elapsed:.1f}s")
