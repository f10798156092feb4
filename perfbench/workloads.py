"""Seeded generation of the benchmark's `.ck` sessions.

Each workload is a list of `Item`s.  An item is one session text, the
trial budget it runs under, and one `Expect` per check: the verdict an
independent reference predicts, plus the facts the reference checks in
the witness.  Nothing here imports cicert; polynomials are plain dicts
{exponent tuple: int} printed as session text.

What the seed varies, and why it varies no more than that:

* gb-families: a sign change x_i -> +-x_i on every input.  It is a ring
  automorphism that keeps every monomial and the order, so Buchberger
  runs the same steps on coefficients of the same size; the expected
  basis follows by applying the same signs.
* curve-checks: the coefficients of the graph curves (small nonzero
  integers over QQ, any unit over F32003) and signs on the monomial
  curves.
* stci-search: the variable names and the session order.  Trial costs
  are heavy tailed (the quartic takes 2-4 s at 3 trials and over 150 s
  at 4), so any change to the search's random stream or to the
  coefficients would make the run-to-run spread larger than any bound;
  the search seed and budgets stay fixed per input.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected" / "gb_families.json"

P_LARGE = 32003


# ---------------------------------------------------------------------------
# dict polynomials


def padd(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def var(i, n):
    return {tuple(1 if j == i else 0 for j in range(n)): 1}


def const(c, n):
    return {(0,) * n: c} if c else {}


def flip_signs(f, signs):
    """Apply x_i -> signs[i] * x_i."""
    out = {}
    for m, c in f.items():
        s = 1
        for e, sign in zip(m, signs):
            if sign < 0 and e % 2:
                s = -s
        out[m] = s * c
    return out


def poly_text(f, names):
    """Session text of a dict polynomial; terms by descending degree."""
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = f[m]
        mono = "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, m) if e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# items


@dataclass
class Expect:
    """What an independent reference predicts for one check."""

    verdicts: tuple  # allowed verdicts; one entry unless a search may stop
    facts: dict = field(default_factory=dict)


@dataclass
class Item:
    name: str
    text: str
    expects: list
    trials: int = 200
    # data for references that look past the verdict
    field: object = "QQ"  # "QQ" or a prime
    names: tuple = ()
    gens: tuple = ()  # dict polynomials of ideal I
    basis: tuple | None = None  # expected reduced basis of I, dict polys
    leads: tuple | None = None  # its leading monomials


def ring_decl(field_, names, order="grevlex"):
    fld = "QQ" if field_ == "QQ" else f"Fp({field_})"
    return f"ring R = {fld}[{','.join(names)}] order {order};"


# ---------------------------------------------------------------------------
# gb-families


def katsura(n):
    """Katsura-n in variables u0..un (n+1 equations)."""
    nv = n + 1

    def u(i):
        i = abs(i)
        return var(i, nv) if i <= n else {}

    eqs = []
    total = const(-1, nv)
    for i in range(-n, n + 1):
        total = padd(total, u(i))
    eqs.append(total)
    for m in range(n):
        total = {k: -c for k, c in u(m).items()}
        for i in range(-n, n + 1):
            total = padd(total, pmul(u(i), u(m - i)))
        eqs.append(total)
    return tuple(f"u{i}" for i in range(nv)), eqs


def cyclic(n):
    eqs = []
    for d in range(1, n):
        total = {}
        for i in range(n):
            term = const(1, n)
            for j in range(d):
                term = pmul(term, var((i + j) % n, n))
            total = padd(total, term)
        eqs.append(total)
    prod = const(1, n)
    for i in range(n):
        prod = pmul(prod, var(i, n))
    eqs.append(padd(prod, const(-1, n)))
    return tuple(f"x{i}" for i in range(n)), eqs


DENSE_POWER = 40


# name -> (family, n, field, order); every family is zero-dimensional
GB_INPUTS = (
    ("katsura4-F32003", "katsura", 4, P_LARGE, "grevlex"),
    ("katsura5-F32003", "katsura", 5, P_LARGE, "grevlex"),
    ("cyclic5-F32003", "cyclic", 5, P_LARGE, "grevlex"),
    ("katsura4-QQ", "katsura", 4, "QQ", "grevlex"),
    ("katsura5-QQ", "katsura", 5, "QQ", "grevlex"),
    ("cyclic5-QQ", "cyclic", 5, "QQ", "grevlex"),
    ("katsura3-lex-QQ", "katsura", 3, "QQ", "lex"),
    ("katsura3-lex-F32003", "katsura", 3, P_LARGE, "lex"),
)


def family_gens(family, n):
    return katsura(n) if family == "katsura" else cyclic(n)


def load_expected():
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _monic_mod(f, field_, lead):
    c = f[lead]
    if field_ == "QQ":
        return {m: v / c for m, v in f.items()}
    inv = pow(c, -1, field_)
    return {m: v * inv % field_ for m, v in f.items()}


def expected_basis(entry, names, signs):
    """The reduced basis of the sign-changed ideal: the stored reduced
    basis with the same signs applied, made monic again.  A sign change
    keeps every leading monomial, so this is again reduced."""
    from fractions import Fraction

    field_ = entry["field"]
    out = []
    for poly in entry["basis"]:
        f = {}
        for exps, coeff in poly["terms"]:
            f[tuple(exps)] = Fraction(coeff) if field_ == "QQ" else int(coeff)
        f = flip_signs(f, signs)
        out.append(_monic_mod(f, field_, tuple(poly["lead"])))
    return tuple(out)


def gb_families(seed):
    rng = random.Random(seed)
    expected = load_expected()
    items = []
    for name, family, n, field_, order in GB_INPUTS:
        names, eqs = family_gens(family, n)
        signs = tuple(rng.choice((1, -1)) for _ in names)
        eqs = [flip_signs(f, signs) for f in eqs]
        gens = ", ".join(poly_text(f, names) for f in eqs)
        # the last variable is no leading term of these bases (the
        # reference checks this on sympy's basis), so it is its own
        # normal form and a non-member; a product of generators is a member
        member = pmul(eqs[0], eqs[1])
        text = (f"{ring_decl(field_, names, order)}\n"
                f"ideal I = ({gens});\n"
                f"check dimension I;\n"
                f"check member {names[-1]} in I;\n"
                f"check member ({poly_text(member, names)}) in I;\n")
        basis = expected_basis(expected[name], names, signs)
        leads = tuple(tuple(p["lead"]) for p in expected[name]["basis"])
        items.append(Item(
            name, text,
            [Expect(("verified",), {"dim_quotient": 0}),
             Expect(("refuted",), {"normal_form_is_input": True}),
             Expect(("verified",))],
            field=field_, names=names, gens=tuple(eqs), basis=basis,
            leads=leads))
    names, k = ("x", "y"), DENSE_POWER
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    lin = f"{'-' if sx < 0 else ''}x {'-' if sy < 0 else '+'} y + 1"
    text = (f"{ring_decl('QQ', names)}\n"
            f"ideal I = (({lin})^{k}, y);\n"
            f"check member x in I;\n"
            f"check member x^3*y in I;\n"
            f"check member y in I;\n")
    # the power stays unexpanded, so the session parser expands it; the
    # ideal is ((sx*x + 1)^k, y): x is a non-member for k > 1, and
    # anything divisible by y is a member
    items.append(Item(
        f"dense-power{k}-QQ", text,
        [Expect(("refuted",), {"normal_form_is_input": True}),
         Expect(("verified",)), Expect(("verified",))],
        names=names))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# curve-checks


def semigroup_elements(gens, upto):
    members = [False] * (upto + 1)
    members[0] = True
    for v in range(1, upto + 1):
        members[v] = any(v >= g and members[v - g] for g in gens)
    return members


def frobenius(gens):
    """Largest integer outside the numerical semigroup <gens>."""
    if math.gcd(*gens) != 1:
        raise ValueError("generators must be coprime")
    bound = (min(gens) - 1) * (max(gens) - 1) + max(gens)
    members = semigroup_elements(gens, bound)
    return max(v for v in range(bound + 1) if not members[v])


def is_symmetric(gens):
    """x in S iff F - x not in S, for 0 <= x <= F (Kunz 1970)."""
    f = frobenius(gens)
    members = semigroup_elements(gens, f)
    return all(members[x] != members[f - x] for x in range(f + 1))


def _representations(total, a, b):
    return [(i, (total - i * a) // b) for i in range(total // a + 1)
            if (total - i * a) % b == 0]


def monomial_curve_gens(gens):
    """Minimal binomial generators of the ideal of t -> (t^a, t^b, t^c)
    in k[x,y,z], by Herzog's construction (1970).  Returns two binomials
    when the semigroup is symmetric and three otherwise."""
    n = 3
    c = []
    reps = []
    for i in range(n):
        j, k = [t for t in range(n) if t != i]
        mult = 1
        while True:
            found = _representations(mult * gens[i], gens[j], gens[k])
            if found:
                break
            mult += 1
        c.append(mult)
        reps.append((j, k, found))

    def binomial(i, exps):
        lead = [0] * n
        lead[i] = c[i]
        return padd({tuple(lead): 1}, {tuple(exps): -1})

    for i in range(n):
        j, k, found = reps[i]
        for rj, rk in found:
            if rk == 0 or rj == 0:
                # symmetric: x_i^c_i = x_j^c_j, and the third variable
                # against the other two, reduced below x_i^c_i
                other = j if rk == 0 else k
                third = k if rk == 0 else j
                first = [0] * n
                first[other] = rj if rk == 0 else rk
                b1 = binomial(i, first)
                best = None
                for ri, ro in _representations(c[third] * gens[third],
                                               gens[i], gens[other]):
                    if ri < c[i]:
                        best = (ri, ro)
                        break
                second = [0] * n
                second[i], second[other] = best
                return (b1, binomial(third, second))
    out = []
    for i in range(n):
        j, k, found = reps[i]
        exps = [0] * n
        exps[j], exps[k] = found[0]
        out.append(binomial(i, exps))
    return tuple(out)


# four not symmetric, four symmetric
SEMIGROUPS = ((3, 4, 5), (3, 5, 7), (4, 5, 7), (3, 7, 8),
              (4, 5, 6), (4, 6, 7), (5, 6, 9), (6, 7, 8))

GRAPH_DEGREES = ((2, 2), (2, 3), (3, 2), (3, 3))


def _coefficient(field_, rng):
    if field_ == "QQ":
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, P_LARGE)


def graph_curve(field_, dp, dq, rng):
    """(y - p(x), z - q(x), x*(y - p(x)) + y*(z - q(x))): a complete
    intersection of height 2 given with one redundant generator."""
    n = 3
    x, y, z = var(0, n), var(1, n), var(2, n)

    def univariate(d):
        f = {}
        for e in range(d + 1):
            f = padd(f, {(e, 0, 0): _coefficient(field_, rng)})
        return f

    g1 = padd(y, {m: -c for m, c in univariate(dp).items()})
    g2 = padd(z, {m: -c for m, c in univariate(dq).items()})
    g3 = padd(pmul(x, g1), pmul(y, g2))
    return (g1, g2, g3)


def _curve_text(field_, gens, names, is_ci):
    """The check battery; `ci`/`stci` with the first two generators only
    where they generate the ideal."""
    f, g = poly_text(gens[0], names), poly_text(gens[1], names)
    member = poly_text(pmul(var(0, 3), gens[0]), names)
    lines = [ring_decl(field_, names),
             f"ideal I = ({', '.join(poly_text(h, names) for h in gens)});",
             f"poly f = {f};", f"poly g = {g};", "pair P = (f, g);",
             "check dimension I;", "check lci I;"]
    if is_ci:
        lines += ["check ci I with P;", "check stci I with P;"]
    lines += ["check koszul-exact (f, g);", "check ext-cyclic I at 2;",
              "check resolution I length 3;", "check mod-square I with (f, g);",
              "check regular-sequence (f, g);",
              f"check radical-member ({member}) in I;"]
    return "\n".join(lines) + "\n"


def _curve_expects(ngens, is_ci, pair_regular):
    """References by construction.  Height-2 perfect ideals: the
    resolution of an n-element generating set (cicert does not minimise
    it) has ranks [1, n, n - 1] (Hilbert-Burch).  lci, Ext^2 cyclicity
    and generation of I/I^2 by two elements hold iff the ideal is a
    complete intersection; for monomial curves that is iff the semigroup
    is symmetric (Herzog 1970, Kunz 1970).  Two polynomials form a
    regular sequence iff they are coprime."""
    ci = ("verified",) if is_ci else ("refuted",)
    reg = None  # decided by the reference's coprimality test
    if pair_regular is not None:
        reg = ("verified",) if pair_regular else ("refuted",)
    out = [Expect(("verified",), {"dim_quotient": 1, "height": 2}),
           Expect(ci)]
    if is_ci:
        out += [Expect(("verified",)), Expect(("verified",))]
    out += [Expect(reg), Expect(ci),
            Expect(("verified",), {"betti": [1, ngens, ngens - 1]}),
            Expect(ci), Expect(reg), Expect(("verified",))]
    return out


def curve_checks(seed):
    rng = random.Random(seed)
    names = ("x", "y", "z")
    items = []
    for field_ in ("QQ", P_LARGE):
        tag = "QQ" if field_ == "QQ" else f"F{field_}"
        for dp, dq in GRAPH_DEGREES:
            gens = graph_curve(field_, dp, dq, rng)
            items.append(Item(
                f"graph{dp}{dq}-{tag}",
                _curve_text(field_, gens, names, True),
                _curve_expects(3, True, True),
                field=field_, names=names, gens=gens))
        for sg in SEMIGROUPS:
            signs = tuple(rng.choice((1, -1)) for _ in names)
            gens = tuple(flip_signs(b, signs) for b in monomial_curve_gens(sg))
            sym = is_symmetric(sg)
            items.append(Item(
                f"monomial{''.join(map(str, sg))}-{tag}",
                _curve_text(field_, gens, names, sym),
                _curve_expects(len(gens), sym, None),
                field=field_, names=names, gens=gens))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# stci-search

SKEW = ("x^2 - x", "x*y - y", "x*z", "y*z")
QUARTIC = ("b*c - a*d", "b^3 - a^2*c", "c^3 - b*d^2", "a*c^2 - b^2*d")
C345 = ("x*z - y^2", "x^3 - y*z", "x^2*y - z^2")
C357 = ("x^4 - y*z", "y^2 - x*z", "z^2 - x^3*y")

# (name, field, variables, generators, command, trials)
SEARCH_INPUTS = (
    ("c345-F7", 7, "xyz", C345, "stci-search", 1),
    ("c357-F7", 7, "xyz", C357, "stci-search", 1),
    ("c345-QQ", "QQ", "xyz", C345, "stci-search", 1),
    ("c357-QQ", "QQ", "xyz", C357, "stci-search", 1),
    ("skew-QQ", "QQ", "xyz", SKEW, "stci-search", 2),
    ("cylinder-F5", 5, "xyzw", SKEW, "stci-search", 2),
    ("twisted-cubic-F5", 5, "xyz", ("y - x^2", "z - x^3"), "stci-search", 2),
    ("twisted-cubic-QQ", "QQ", "xyz", ("y - x^2", "z - x^3"), "stci-search", 2),
    ("regularize-M-QQ", "QQ", "xyz", ("y*(1 - x)", "z*(1 - x)", "x"),
     "regularize", 2),
    ("regularize-c357-F7", 7, "xyz", C357, "regularize", 2),
    ("regularize-quartic-F5", 5, "abcd", QUARTIC, "regularize", 2),
)

# Run once per stci-search run, after the timed loop, each as one check
# with its own limit.  (name, field, vars, gens, command, trials, stuck)
# where `stuck` is None for an input that must finish, else where a
# known defect holds it: a function and a local variable's value.
UNTIMED_INPUTS = (
    # finishes in 2-4 s as one check; a single check that long takes
    # up to 1.7 times as long when other tenants load the machine, and
    # no pass is fast enough to dodge that, so it is checked, not timed
    ("quartic-F5", 5, "abcd", QUARTIC, "stci-search", 3, None),
    # every element of F32003 is a cube, so each candidate x^3 + c of
    # pipeline._find_irreducible(p, 3) has a root and the scan is ~p^2
    ("c345-F32003-extension", P_LARGE, "xyz", C345, "stci-search", 1,
     ("_find_irreducible", "k", 3)),
    # the S-pair budget does not bound the 4th trial's colon basis
    ("quartic-F5-4-trials", 5, "abcd", QUARTIC, "stci-search", 4,
     ("stci_search", "trial", 3)),
)

# letters for renaming; never t (the tag variable stem) or a (the
# extension-field generator), so renaming changes no computation
_LETTERS = "bcdefghjkmnpqrsuvwxyz"


def _renamed_text(field_, letters, gens, command, rng):
    fresh = rng.sample(_LETTERS, len(letters))
    table = dict(zip(letters, fresh))
    # variable names are single letters, so a character map renames
    ring_vars = tuple(table[v] for v in letters)
    body = [("".join(table.get(ch, ch) for ch in g)) for g in gens]
    text = (f"{ring_decl(field_, ring_vars)}\n"
            f"ideal I = ({', '.join(body)});\n"
            f"check {command} I;\n")
    return text, ring_vars


def search_item(spec, rng):
    name, field_, letters, gens, command, trials = spec[:6]
    # keep the variable order: rename, never permute
    text, ring_vars = _renamed_text(field_, letters, gens, command, rng)
    return Item(name, text, [Expect(("verified", "inconclusive"))],
                trials=trials, field=field_, names=ring_vars)


def stci_search(seed):
    rng = random.Random(seed)
    items = [search_item(spec, rng) for spec in SEARCH_INPUTS]
    rng.shuffle(items)
    return items


def untimed_inputs(seed):
    rng = random.Random(seed)
    return [(search_item(spec, rng), spec[6]) for spec in UNTIMED_INPUTS]


WORKLOADS = {
    "gb-families": gb_families,
    "curve-checks": curve_checks,
    "stci-search": stci_search,
}
