"""Differential tests against sympy, an independent Groebner engine.

Seeded random ideals in 3 and 4 variables over QQ, GF(32003) and GF(7),
in lex and grevlex: cicert's reduced basis must equal sympy's, both made
monic (sympy prints GF(p) coefficients as symmetric residues, so they are
taken mod p).  Colon ideals and intersections are checked against the
tag-variable construction carried out in sympy: I cap J is the t-free
part of t*I + (1 - t)*J, and (I : f) is (I cap (f)) / f.
"""

import random
from fractions import Fraction

import pytest

from cicert.groebner import IdealHandle
from cicert.ideals import intersect, quotient
from cicert.poly import GF, QQ, MonomialOrder, RingSpec

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import monomial_key  # noqa: E402

NAMES = ("x", "y", "z", "w")
FIELDS = (None, 32003, 7)  # None is QQ


def _random_terms(rng, nvars, nterms, max_deg):
    out = {}
    while len(out) < nterms:
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(nvars)] += 1
        out[tuple(exps)] = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    return out


def _random_ideal(rng, nvars, ngens, max_deg, max_terms=3):
    return [_random_terms(rng, nvars, rng.randint(2, max_terms), max_deg)
            for _ in range(ngens)]


def _cicert_ring(nvars, p, order):
    field = QQ if p is None else GF(p)
    return RingSpec(NAMES[:nvars], field, MonomialOrder(order))


def _cicert_poly(ring, terms):
    return ring.poly_from_dict({m: ring.field.coerce(c) for m, c in terms.items()})


def _sympy_expr(symbols, terms):
    return sum(c * sympy.prod(s ** e for s, e in zip(symbols, m))
               for m, c in terms.items())


def _domain(p):
    return {"domain": "QQ"} if p is None else {"modulus": p}


def _monic(coeffs, p, order):
    """One polynomial as a sorted tuple of (monomial, coefficient),
    scaled so that its leading coefficient under `order` is 1."""
    coeffs = {m: c for m, c in coeffs.items() if c}
    lead = coeffs[max(coeffs, key=monomial_key(order))]
    if p is None:
        return tuple(sorted((m, c / lead) for m, c in coeffs.items()))
    inv = pow(lead, -1, p)
    return tuple(sorted((m, c * inv % p) for m, c in coeffs.items()))


def _sympy_basis(exprs, symbols, p, order):
    basis = sympy.groebner(exprs, *symbols, order=order, **_domain(p))
    out = set()
    for g in basis.exprs:
        terms = sympy.Poly(g, *symbols, **_domain(p)).terms()
        out.add(_monic({m: Fraction(int(c.p), int(c.q)) if p is None
                        else int(c) % p for m, c in terms}, p, order))
    return out


def _cicert_basis(basis, p, order):
    return {_monic(dict(g.terms), p, order) for g in basis}


def _cases():
    for p in FIELDS:
        for order in ("lex", "grevlex"):
            for nvars in (3, 4):
                yield p, order, nvars


@pytest.mark.parametrize("p,order,nvars", list(_cases()))
def test_reduced_basis_matches_sympy(p, order, nvars):
    rng = random.Random(f"{p}-{order}-{nvars}")
    ring = _cicert_ring(nvars, p, order)
    symbols = sympy.symbols(NAMES[:nvars])
    for _ in range(2):
        ideal = _random_ideal(rng, nvars, rng.randint(2, 3), 3)
        mine = IdealHandle(ring, [_cicert_poly(ring, t) for t in ideal]).groebner()
        theirs = _sympy_basis([_sympy_expr(symbols, t) for t in ideal],
                              symbols, p, order)
        assert _cicert_basis(mine, p, order) == theirs


def _tag_intersection(left, right, symbols, p):
    """Generators of (left) cap (right), by eliminating a tag variable t
    with a lex basis in sympy."""
    t = sympy.Symbol("t")
    gens = [t * g for g in left] + [(1 - t) * h for h in right]
    basis = sympy.groebner(gens, t, *symbols, order="lex", **_domain(p))
    return [g for g in basis.exprs if not g.has(t)]


@pytest.mark.parametrize("p", FIELDS)
def test_colon_and_intersection_match_tag_variable_reference(p):
    rng = random.Random(f"colon-{p}")
    nvars = 3
    ring = _cicert_ring(nvars, p, "grevlex")
    symbols = sympy.symbols(NAMES[:nvars])
    for _ in range(3):
        # binomials keep sympy's lex basis in the tag variable small
        left = _random_ideal(rng, nvars, 2, 2, max_terms=2)
        right = _random_ideal(rng, nvars, 2, 2, max_terms=2)
        I = IdealHandle(ring, [_cicert_poly(ring, t) for t in left])
        J = IdealHandle(ring, [_cicert_poly(ring, t) for t in right])
        left_s = [_sympy_expr(symbols, t) for t in left]
        right_s = [_sympy_expr(symbols, t) for t in right]

        meet = _tag_intersection(left_s, right_s, symbols, p)
        assert (_cicert_basis(intersect(I, J).groebner(), p, "grevlex")
                == _sympy_basis(meet, symbols, p, "grevlex"))

        f = right_s[0]
        colon = []
        for g in _tag_intersection(left_s, [f], symbols, p):
            q, r = sympy.div(sympy.Poly(g, *symbols, **_domain(p)),
                             sympy.Poly(f, *symbols, **_domain(p)))
            assert r.is_zero
            colon.append(q.as_expr())
        assert (_cicert_basis(quotient(I, J.gens[0]).groebner(), p, "grevlex")
                == _sympy_basis(colon, symbols, p, "grevlex"))
