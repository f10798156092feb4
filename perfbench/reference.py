"""Independent references for the verdicts of one pass.

Nothing here trusts a cicert computation: expected verdicts come from
the construction of each input (workloads.Expect), reduced bases from
sympy (expected/gb_families.json), coprimality and membership in search
certificates from sympy at check time.  `check_item` returns a list of
(check index, problem); an empty list means every check agrees with its
reference.
"""

from __future__ import annotations

from fractions import Fraction

import sympy



def _sym(names):
    return sympy.symbols(names)


def _to_expr(f, gens):
    return sympy.Poly.from_dict(f, *gens).as_expr()


def _parse(text, gens):
    local = {str(g): g for g in gens}
    return sympy.sympify(text.replace("^", "**"), locals=local)


def _domain(field_):
    return {} if field_ == "QQ" else {"modulus": field_}


def coprime(f, g, field_, names):
    """Two polynomials form a regular sequence in k[x] iff they are
    coprime (k[x] is a unique factorisation domain)."""
    gens = _sym(names)
    h = sympy.gcd(sympy.Poly(_to_expr(f, gens), *gens, **_domain(field_)),
                  sympy.Poly(_to_expr(g, gens), *gens, **_domain(field_)))
    return h.total_degree() == 0


def _basis_problems(item, handle_basis):
    got = set()
    for g in handle_basis:
        got.add(frozenset((m, Fraction(c) if item.field == "QQ" else int(c))
                          for m, c in g.terms))
    want = {frozenset(f.items()) for f in item.basis}
    if got != want:
        return [f"{item.name}: reduced basis differs from sympy's "
                f"({len(got)} vs {len(want)} elements)"]
    return []


def _non_member_by_leads(item):
    """The last variable is its own normal form iff no leading monomial
    of the reduced basis divides it, i.e. none is that variable or 1."""
    if item.leads is None:
        return True
    n = len(item.names)
    last = tuple(1 if i == n - 1 else 0 for i in range(n))
    return not any(sum(lead) == 0 or lead == last for lead in item.leads)


def _search_problems(item, payload):
    """A verified search certificate, checked in sympy: the pair lies in
    I, is coprime, and each generator of I has the witnessed power in
    (f, g).  Certificates over extension fields are left to replay."""
    w = payload["witnesses"]
    if payload["verdict"] != "verified" or w.get("field_extension"):
        return []
    if "pair" not in w:
        return _regularize_problems(item, w)
    gens = _sym(item.names)
    dom = _domain(item.field)
    ideal = [_parse(t, gens) for t in w["ideal"]]
    pair = [_parse(t, gens) for t in w["pair"]]
    out = []
    basis = sympy.groebner(ideal, *gens, order="grevlex", **dom)
    if not all(basis.contains(p) for p in pair):
        out.append(f"{item.name}: certified pair not inside the ideal")
    if sympy.Poly(sympy.gcd(pair[0], pair[1], *gens, **dom),
                  *gens, **dom).total_degree() != 0:
        out.append(f"{item.name}: certified pair has a common factor")
    pair_basis = sympy.groebner(pair, *gens, order="grevlex", **dom)
    for wit in w["radical_equality"]["witnesses"]:
        if wit["direction"] != "left_in_right":
            continue
        power = _parse(wit["element"], gens) ** wit["exponent"]
        if not pair_basis.contains(sympy.expand(power)):
            out.append(f"{item.name}: {wit['element']}^{wit['exponent']} "
                       f"not in the certified pair's ideal")
    return out


def _regularize_problems(item, w):
    gens = _sym(item.names)
    dom = _domain(item.field)
    given = sympy.groebner([_parse(t, gens) for t in w["ideal"]], *gens,
                           order="grevlex", **dom)
    found = sympy.groebner([_parse(t, gens) for t in w["sequence"]], *gens,
                           order="grevlex", **dom)
    if list(given.exprs) != list(found.exprs):
        return [f"{item.name}: regularized sequence generates another ideal"]
    return []


def check_item(item, payloads, session):
    """Compare one item's first-pass payloads with its references."""
    problems = []
    if len(payloads) != len(item.expects):
        return [(0, f"{item.name}: {len(payloads)} checks ran, "
                    f"{len(item.expects)} expected")]
    for index, (expect, payload) in enumerate(zip(item.expects, payloads)):
        if payload is None:
            continue  # an error, counted by the caller
        label = f"{item.name}#{index} ({payload['command']})"
        verdicts = expect.verdicts
        if verdicts is None:
            pair_ok = coprime(item.gens[0], item.gens[1], item.field,
                              item.names)
            verdicts = ("verified",) if pair_ok else ("refuted",)
        if payload["verdict"] not in verdicts:
            problems.append((index, f"{label}: verdict {payload['verdict']}, "
                                    f"reference {'/'.join(verdicts)}"))
            continue
        w = payload["witnesses"]
        found = []
        for key in ("dim_quotient", "height", "betti"):
            if key in expect.facts and w.get(key) != expect.facts[key]:
                found.append(f"{label}: {key} {w.get(key)}, "
                             f"reference {expect.facts[key]}")
        if expect.facts.get("normal_form_is_input"):
            if w.get("normal_form") != w.get("element"):
                found.append(f"{label}: normal form {w.get('normal_form')}")
            if not _non_member_by_leads(item):
                found.append(f"{label}: the reference basis has this variable as a lead")
        if len(verdicts) > 1:
            found += _search_problems(item, payload)
        problems += [(index, msg) for msg in found]
    if item.basis is not None and session is not None:
        problems += [(0, msg) for msg in
                     _basis_problems(item, session.ideals["I"].groebner())]
    return problems
