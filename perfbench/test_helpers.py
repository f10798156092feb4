"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_helpers.py
"""

from __future__ import annotations

import pytest

import layertrace
import speedref
import workloads


def test_semigroup_symmetry():
    assert workloads.frobenius((3, 4, 5)) == 2
    assert not workloads.is_symmetric((3, 4, 5))
    assert workloads.frobenius((4, 5, 6)) == 7
    assert workloads.is_symmetric((4, 5, 6))
    # the list used by curve-checks has both kinds
    kinds = [workloads.is_symmetric(sg) for sg in workloads.SEMIGROUPS]
    assert kinds.count(True) == kinds.count(False) == 4


def test_herzog_generators_match_elimination():
    sympy = pytest.importorskip("sympy")
    t, x, y, z = sympy.symbols("t x y z")
    for sg in workloads.SEMIGROUPS:
        gens = workloads.monomial_curve_gens(sg)
        assert len(gens) == (2 if workloads.is_symmetric(sg) else 3)
        mine = sympy.groebner(
            [sympy.Poly.from_dict(g, x, y, z).as_expr() for g in gens],
            x, y, z, order="grevlex")
        elim = sympy.groebner([x - t**sg[0], y - t**sg[1], z - t**sg[2]],
                              t, x, y, z, order="lex")
        toric = sympy.groebner([g for g in elim.exprs if not g.has(t)],
                               x, y, z, order="grevlex")
        assert list(mine.exprs) == list(toric.exprs), sg


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first = [item.text for item in make(7)]
    assert first == [item.text for item in make(7)]
    assert first != [item.text for item in make(8)]


def test_sign_change_keeps_the_expected_basis_reduced():
    expected = workloads.load_expected()
    entry = expected["katsura4-QQ"]
    names = tuple(entry["variables"])
    plain = workloads.expected_basis(entry, names, (1,) * len(names))
    signs = (1, -1, -1, 1, -1)
    flipped = workloads.expected_basis(entry, names, signs)
    for f, g, stored in zip(plain, flipped, entry["basis"]):
        lead = tuple(stored["lead"])
        assert f[lead] == g[lead] == 1
        assert workloads._monic_mod(workloads.flip_signs(f, signs), "QQ",
                                    lead) == g


def test_poly_text():
    f = {(2, 0, 1): -3, (0, 1, 0): 1, (0, 0, 0): 7}
    text = workloads.poly_text(f, "xyz")
    assert text == "-3*x^2*z + y + 7"


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    spans = [
        ["bench.pass", 0.0, 10.0, None, None, True],
        ["groebner.gb", 1.0, 4.0, 0, "s#0", True],
        ["poly.mul", 2.0, 3.0, 1, "s#0", True],
        ["ideals.quotient", 5.0, 9.0, 0, "s#1", True],
    ]
    assert layertrace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # the same tree at an offset, as a later pass sees it
    shifted = [[n, s, e, None if p is None else p + 5, c, o]
               for n, s, e, p, c, o in spans]
    assert layertrace.self_times(shifted, offset=5) == [3.0, 2.0, 1.0, 4.0]
    figures, work = layertrace.pass_metrics(spans, 0, {}, 0)
    layers = sum(figures[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert layers == figures["trace.wall_s"] == 10.0
    assert figures["groebner.gb_s"] == 2.0  # self time
    assert figures["poly.mul_s"] == 1.0
    assert figures["ideals.quotient_s"] == 4.0
    assert work["calls.groebner.gb"] == 1


def test_absorbed_spans_fold_into_their_caller():
    tracer = layertrace.Tracer()
    mul = tracer.wrap("poly.mul", lambda: 0)
    gb = tracer.wrap("groebner.gb", lambda: mul() + mul())
    reduce_ = tracer.wrap("poly.reduce", lambda: mul())
    close = tracer.root("bench.pass")
    gb()
    reduce_()  # poly arithmetic inside poly.reduce is not a span of its own
    close()
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.pass", "groebner.gb", "poly.mul", "poly.mul",
                     "poly.reduce"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1, 0]


def test_scaling_to_the_reference_speed():
    ref = speedref.REF_KERNEL_S
    assert speedref.scaled(2.0, ref, ref) == (pytest.approx(2.0), True)
    # a step timed while the kernel ran twice as slow counts half
    assert speedref.scaled(2.0, 2 * ref, 2 * ref) == (pytest.approx(1.0), True)
    # the speed changed during the step: scaled by the mean, not steady
    assert speedref.scaled(3.0, ref, 2 * ref) == (pytest.approx(2.0), False)
    assert speedref.kernel() > 0


def test_typical_prefers_samples_where_the_speed_held():
    assert speedref.typical([(1.0, True), (5.0, False), (2.0, True),
                             (3.0, True)]) == 2.0
    assert speedref.typical([(1.0, False), (3.0, False)]) == 2.0
