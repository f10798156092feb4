"""Regenerate expected/gb_families.json: the reduced Groebner bases of
the gb-families inputs, computed by sympy (never by cicert).

    python3 perfbench/make_expected.py

The file holds the bases of the inputs before the seed's sign change;
workloads.expected_basis applies the signs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from sympy import Poly, groebner, symbols

import workloads


def main():
    out = {}
    for name, family, n, field_, order in workloads.GB_INPUTS:
        names, eqs = workloads.family_gens(family, n)
        gens = symbols(names)
        polys = [Poly.from_dict(f, *gens) for f in eqs]
        kw = {} if field_ == "QQ" else {"modulus": field_}
        basis = groebner([p.as_expr() for p in polys], *gens, order=order, **kw)
        entries = []
        for g in basis.polys:
            terms = g.terms(order=order)
            rows = []
            for exps, c in terms:
                c = Fraction(int(c.p), int(c.q)) if field_ == "QQ" else int(c) % field_
                rows.append([list(exps), str(c)])
            entries.append({"lead": list(terms[0][0]), "terms": rows})
        out[name] = {"field": field_, "variables": list(names), "order": order,
                     "basis": entries}
        print(name, len(entries), "elements")
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
