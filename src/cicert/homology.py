"""Koszul complexes with contraction differential, free resolutions,
Ext modules and Fitting-ideal certificates.

Exterior degrees use the basis e_S for sorted index sets S, ordered
lexicographically, which pins every matrix down.  Matrices follow the
row convention: the matrix of a map F -> G has one row per basis
element of F, holding its image in the basis of G, so composition is
the ordinary row-matrix product.

Resolutions are built by iterated syzygy computations and are not
minimized; reported ranks are those of the computed chain after
dropping generators that lie in the span of the others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certificates import Replayable
from .groebner import (
    IdealHandle,
    extended_groebner,
    module_gb,
    module_syzygies,
    syzygies,
    zero_ideal,
)
from .poly import Polynomial, RingMismatchError, RingSpec

__all__ = [
    "ExteriorForm",
    "ContractionMap",
    "koszul_contraction",
    "wedge",
    "KoszulComplex",
    "koszul_complex_build",
    "Koszul2Verdict",
    "koszul2_exactness",
    "Resolution",
    "free_resolution",
    "PresentationMatrix",
    "conormal_presentation",
    "ExtModule",
    "ext_module",
    "FittingIdealSet",
    "fitting_ideals",
    "ProjectiveRankCertificate",
    "projective_rank_certificate",
    "matrix_transpose",
    "matrix_product",
]


# ---------------------------------------------------------------------------
# exterior forms


class ExteriorForm:
    """Element of Lambda^p(R^n): sorted index tuples -> coefficients."""

    __slots__ = ("ring", "n", "degree", "comps")

    def __init__(self, ring, n, degree, comps=None):
        self.ring = ring
        self.n = n
        self.degree = degree
        clean = {}
        for idx, c in (comps or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index set {idx} for degree {degree}")
            if any(i < 0 or i >= n for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if c:
                clean[idx] = c
        self.comps = clean

    @classmethod
    def basis(cls, ring, n, indices):
        return cls(ring, n, len(tuple(indices)), {tuple(indices): ring.one})

    @property
    def is_zero(self):
        return not self.comps

    def _compat(self, other):
        if (self.ring != other.ring or self.n != other.n
                or self.degree != other.degree):
            raise ValueError("incompatible exterior forms")

    def __add__(self, other):
        self._compat(other)
        comps = dict(self.comps)
        for idx, c in other.comps.items():
            comps[idx] = comps.get(idx, self.ring.zero) + c
        return ExteriorForm(self.ring, self.n, self.degree, comps)

    def __neg__(self):
        return ExteriorForm(self.ring, self.n, self.degree,
                            {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        return ExteriorForm(self.ring, self.n, self.degree,
                            {i: c * f for i, c in self.comps.items()})

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (self.ring == other.ring and self.n == other.n
                and self.degree == other.degree and self.comps == other.comps)

    def __hash__(self):
        return hash((self.ring, self.n, self.degree,
                     tuple(sorted(self.comps.items()))))

    def __repr__(self):
        if not self.comps:
            return "<0-form>"
        bits = [f"({c})e{list(i)}" for i, c in sorted(self.comps.items())]
        return "<" + " + ".join(bits) + ">"


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    if a.ring != b.ring or a.n != b.n:
        raise ValueError("incompatible exterior forms")
    out = {}
    ring = a.ring
    for ia, ca in a.comps.items():
        sa = set(ia)
        for ib, cb in b.comps.items():
            if sa & set(ib):
                continue
            sign = _merge_sign(ia, ib)
            idx = tuple(sorted(ia + ib))
            c = ca * cb
            if sign < 0:
                c = -c
            out[idx] = out.get(idx, ring.zero) + c
    return ExteriorForm(ring, a.n, a.degree + b.degree, out)


@dataclass(frozen=True)
class ContractionMap:
    """Contraction against the functional with the given values u(e_i)."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("contraction needs at least one value")
        ring = self.values[0].ring
        for v in self.values:
            if v.ring != ring:
                raise RingMismatchError("contraction values from different rings")

    @property
    def ring(self):
        return self.values[0].ring

    @property
    def n(self):
        return len(self.values)


def koszul_contraction(u: ContractionMap, form: ExteriorForm) -> ExteriorForm:
    """d_u(e_{s1}^...^e_{sp}) = sum_i (-1)^(i+1) u(e_{si}) e_S-without-si."""
    if form.n != u.n or form.ring != u.ring:
        raise ValueError("form does not match the contraction's module")
    ring = u.ring
    out = {}
    for idx, c in form.comps.items():
        for i, s in enumerate(idx):
            rest = idx[:i] + idx[i + 1:]
            term = u.values[s] * c
            if i % 2:
                term = -term
            out[rest] = out.get(rest, ring.zero) + term
    return ExteriorForm(ring, u.n, form.degree - 1, out)


# ---------------------------------------------------------------------------
# matrices of polynomials (row convention)


def matrix_transpose(rows):
    if not rows:
        return []
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


def matrix_product(a_rows, b_rows, ring):
    """Rows of A*B where rows are images under the row convention."""
    if not a_rows or not b_rows:
        return []
    out = []
    ncols = len(b_rows[0])
    for row in a_rows:
        acc = [ring.zero] * ncols
        for k, coeff in enumerate(row):
            if coeff.is_zero:
                continue
            for j in range(ncols):
                acc[j] = acc[j] + coeff * b_rows[k][j]
        out.append(tuple(acc))
    return out


# ---------------------------------------------------------------------------
# Koszul complexes


@dataclass
class KoszulComplex:
    """All contraction differentials of Lambda(R^n) for one functional."""

    ring: RingSpec
    values: tuple
    matrices: dict  # degree p -> rows (basis of Lambda^p) over Lambda^(p-1)
    is_complex: bool

    @property
    def n(self):
        return len(self.values)

    def basis(self, p):
        return list(itertools.combinations(range(self.n), p))


def koszul_complex_build(values) -> KoszulComplex:
    values = tuple(values)
    if not values:
        raise ValueError("need at least one functional value")
    ring = values[0].ring
    u = ContractionMap(values)
    n = len(values)
    matrices = {}
    for p in range(1, n + 1):
        src = list(itertools.combinations(range(n), p))
        dst = list(itertools.combinations(range(n), p - 1))
        dst_index = {s: j for j, s in enumerate(dst)}
        rows = []
        for S in src:
            image = koszul_contraction(u, ExteriorForm.basis(ring, n, S))
            row = [ring.zero] * len(dst)
            for idx, c in image.comps.items():
                row[dst_index[idx]] = c
            rows.append(tuple(row))
        matrices[p] = rows
    ok = True
    for p in range(2, n + 1):
        prod = matrix_product(matrices[p], matrices[p - 1], ring)
        if any(not entry.is_zero for row in prod for entry in row):
            ok = False
    return KoszulComplex(ring, values, matrices, ok)


# ---------------------------------------------------------------------------
# exactness of the length-2 Koszul complex


@dataclass
class Koszul2Verdict:
    """Exactness verdict for 0 -> A -> A^2 -> (x, y) -> 0 over A."""

    ring: RingSpec
    pair: tuple
    exact: bool
    failure: tuple | None  # ("annihilator", poly) or ("extra_syzygy", row)
    syzygy_rows: tuple

    def payload(self):
        out = {
            "pair": [str(self.pair[0]), str(self.pair[1])],
            "exact": self.exact,
            "syzygy_rows": [[str(f) for f in row] for row in self.syzygy_rows],
        }
        if self.failure is not None:
            kind, witness = self.failure
            if kind == "annihilator":
                out["failure"] = {"kind": kind, "witness": str(witness)}
            else:
                out["failure"] = {"kind": kind,
                                  "witness": [str(f) for f in witness]}
        return out


def koszul2_exactness(x: Polynomial, y: Polynomial) -> Koszul2Verdict:
    """Exact iff ann(x) = 0 in A and all relations of (x, y) are
    multiples of (-y, x)."""
    ring = x.ring
    if y.ring != ring:
        raise RingMismatchError("pair from different rings")
    mod_base = zero_ideal(ring)
    ann_rows = syzygies((x,))
    for row in ann_rows:
        witness = mod_base.normal_form(row[0])
        if not witness.is_zero:
            return Koszul2Verdict(ring, (x, y), False,
                                  ("annihilator", witness), ())
    syz = syzygies((x, y))
    expected = module_gb([(-y, x)], ring)
    for row in syz:
        if not expected.contains(row):
            return Koszul2Verdict(ring, (x, y), False,
                                  ("extra_syzygy", row), syz)
    if syz:
        actual = module_gb(syz, ring)
        if not actual.contains((-y, x)):
            raise AssertionError("syzygy module misses the Koszul relation")
    return Koszul2Verdict(ring, (x, y), True, None, syz)


# ---------------------------------------------------------------------------
# free resolutions


def _prune_rows(rows, ring):
    """Drop rows lying in the span of the remaining ones."""
    kept = list(rows)
    i = len(kept) - 1
    while i >= 0 and len(kept) > 1:
        others = kept[:i] + kept[i + 1:]
        if module_gb(others, ring).contains(kept[i]):
            kept.pop(i)
        i -= 1
    return kept


@dataclass
class Resolution:
    """Chain A^{b_l} -> ... -> A^{b_1} -> A -> A/I -> 0 by iterated syzygies."""

    ring: RingSpec
    gens: tuple
    matrices: list  # matrices[k] has betti[k+1] rows and betti[k] columns
    minimized = False

    @property
    def betti(self):
        return tuple([1] + [len(m) for m in self.matrices])

    def verify(self, completeness=False) -> bool:
        mod_base = zero_ideal(self.ring)
        for k in range(1, len(self.matrices)):
            prod = matrix_product(self.matrices[k], self.matrices[k - 1], self.ring)
            for row in prod:
                for entry in row:
                    if not mod_base.normal_form(entry).is_zero:
                        return False
        if completeness:
            for k in range(1, len(self.matrices)):
                rows = module_syzygies(self.matrices[k - 1], self.ring)
                if rows:
                    span = module_gb(self.matrices[k], self.ring)
                    if not all(span.contains(r) for r in rows):
                        return False
        return True


def free_resolution(I: IdealHandle, length: int) -> Resolution:
    if not 1 <= length <= 4:
        raise ValueError("resolution length must be between 1 and 4")
    ring = I.ring
    gens = tuple(g for g in I.gens if g)
    if not gens:
        return Resolution(ring, (), [])
    matrices = [[(g,) for g in gens]]
    while len(matrices) < length:
        rows = module_syzygies(matrices[-1], ring)
        if not rows:
            break
        matrices.append(_prune_rows(rows, ring))
    return Resolution(ring, gens, matrices)


# ---------------------------------------------------------------------------
# module presentations


@dataclass
class PresentationMatrix:
    """M = coker(rows) on `ngens` generators over `ring` (a quotient spec)."""

    ring: RingSpec
    ngens: int
    rows: tuple

    @classmethod
    def of(cls, ring, ngens, rows):
        mod_base = zero_ideal(ring)
        clean = []
        for row in rows:
            if len(row) != ngens:
                raise ValueError("presentation row of wrong length")
            nf = tuple(mod_base.normal_form(f) for f in row)
            if any(not f.is_zero for f in nf):
                clean.append(nf)
        return cls(ring, ngens, tuple(clean))

    def payload(self):
        return {
            "ring": self.ring.payload(),
            "generators": self.ngens,
            "relations": [[str(f) for f in row] for row in self.rows],
        }


def conormal_presentation(I: IdealHandle) -> PresentationMatrix:
    """I/I^2 over A/I: generators are the images of the generators of I,
    relations are their syzygies reduced modulo I."""
    ring = I.ring
    gens = tuple(g for g in I.gens if g)
    if not gens:
        raise ValueError("conormal module of the zero ideal")
    quotient_spec = ring.quotient(gens)
    rows = syzygies(gens)
    rehomed = [tuple(quotient_spec.rehome(f) for f in row) for row in rows]
    return PresentationMatrix.of(quotient_spec, len(gens), rehomed)


# ---------------------------------------------------------------------------
# Fitting ideals


def _determinant(rows, ring):
    n = len(rows)
    if n == 0:
        return ring.one
    if n == 1:
        return rows[0][0]
    total = ring.zero
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [tuple(r[t] for t in range(n) if t != j) for r in rows[1:]]
        cofactor = entry * _determinant(minor, ring)
        total = total - cofactor if j % 2 else total + cofactor
    return total


@dataclass
class FittingIdealSet:
    """Fitt_0 <= Fitt_1 <= ... <= Fitt_b, Fitt_k from the (b-k)-minors."""

    presentation: PresentationMatrix
    ideals: tuple  # index k -> IdealHandle

    def payload(self):
        return {
            f"fitt_{k}": [str(g) for g in handle.gens]
            for k, handle in enumerate(self.ideals)
        }


def fitting_ideals(P: PresentationMatrix) -> FittingIdealSet:
    ring = P.ring
    nrows = len(P.rows)
    mod_base = zero_ideal(ring)
    handles = []
    for k in range(P.ngens + 1):
        size = P.ngens - k
        if size <= 0:
            handles.append(IdealHandle(ring, [ring.one]))
            continue
        if size > nrows:
            handles.append(mod_base)
            continue
        minors = []
        seen = set()
        for rsel in itertools.combinations(range(nrows), size):
            for csel in itertools.combinations(range(P.ngens), size):
                sub = [tuple(P.rows[i][j] for j in csel) for i in rsel]
                det = mod_base.normal_form(_determinant(sub, ring))
                if det and det.terms not in seen:
                    seen.add(det.terms)
                    minors.append(det)
        handles.append(IdealHandle(ring, minors))
    return FittingIdealSet(P, tuple(handles))


@dataclass
class ProjectiveRankCertificate(Replayable):
    """M projective of constant rank r iff Fitt_{r-1} = 0 and Fitt_r = (1)."""

    presentation: PresentationMatrix
    rank: int
    certified: bool
    failing: str | None
    witness_poly: Polynomial | None
    unit_combination: tuple | None  # (minor, coefficient) pairs
    base_combination: tuple | None

    def payload(self):
        out = {"rank": self.rank, "certified": self.certified}
        if self.failing is not None:
            out["failing"] = self.failing
        if self.witness_poly is not None:
            out["witness"] = str(self.witness_poly)
        if self.unit_combination is not None:
            out["unit_combination"] = [
                {"minor": str(m), "coefficient": str(c)}
                for m, c in self.unit_combination
            ]
        if self.base_combination is not None:
            out["base_combination"] = [
                {"generator": str(m), "coefficient": str(c)}
                for m, c in self.base_combination
            ]
        return out

    def _rerun(self):
        return projective_rank_certificate(self.presentation, self.rank)


def projective_rank_certificate(P: PresentationMatrix,
                                rank: int) -> ProjectiveRankCertificate:
    if rank < 0:
        raise ValueError("rank must be non-negative")
    fitts = fitting_ideals(P)
    if rank > P.ngens:
        return ProjectiveRankCertificate(P, rank, False,
                                         f"rank {rank} exceeds generator count",
                                         None, None, None)
    low = fitts.ideals[rank - 1] if rank >= 1 else None
    if low is not None and not low.is_zero_ideal():
        witness = next(w for w in map(zero_ideal(P.ring).normal_form, low.gens) if w)
        return ProjectiveRankCertificate(
            P, rank, False, f"fitt_{rank - 1} is nonzero", witness, None, None)
    high = fitts.ideals[rank]
    if not high.is_unit():
        return ProjectiveRankCertificate(
            P, rank, False, f"fitt_{rank} is not the unit ideal", None, None, None)
    ext = extended_groebner(high.gens, P.ring)
    remainder, coeffs = ext.express(P.ring.one)
    if not remainder.is_zero:
        raise AssertionError("unit ideal without a unit witness")
    ngens = len(high.gens)
    unit_combo = tuple(
        (g, c) for g, c in zip(high.gens, coeffs[:ngens]) if c
    )
    base_combo = tuple(
        (g, c) for g, c in zip(P.ring.base_ideal, coeffs[ngens:]) if c
    )
    return ProjectiveRankCertificate(P, rank, True, None, None,
                                     unit_combo, base_combo)


# ---------------------------------------------------------------------------
# Ext modules


@dataclass
class ExtModule:
    """Ext^r_A(A/I, A) presented over A/I, with a local-cyclicity verdict."""

    ideal: IdealHandle
    degree: int
    presentation: PresentationMatrix
    locally_cyclic: bool

    def payload(self):
        return {
            "degree": self.degree,
            "presentation": self.presentation.payload(),
            "locally_cyclic": self.locally_cyclic,
        }


def ext_module(I: IdealHandle, r: int) -> ExtModule:
    """Cohomology of the dualized resolution at slot r, over A/I.

    Locally cyclic means Fitt_1 of the presentation is the unit ideal
    of A/I; a global generator is not searched for.
    """
    if r < 1:
        raise ValueError("degree must be at least 1")
    ring = I.ring
    gens = tuple(g for g in I.gens if g)
    if not gens:
        raise ValueError("ext module of the zero ideal")
    quotient_spec = ring.quotient(gens)
    res = free_resolution(I, min(r + 1, 4))
    matrices = res.matrices
    if r > len(matrices):
        pres = PresentationMatrix.of(quotient_spec, 0, [])
        return ExtModule(I, r, pres, True)
    b_r = len(matrices[r - 1])
    if r < len(matrices):
        kernel = module_syzygies(matrix_transpose(matrices[r]), ring)
        kernel = _prune_rows(kernel, ring) if kernel else []
    else:
        kernel = [tuple(ring.one if j == i else ring.zero for j in range(b_r))
                  for i in range(b_r)]
    if not kernel:
        pres = PresentationMatrix.of(quotient_spec, 0, [])
        return ExtModule(I, r, pres, True)
    image = matrix_transpose(matrices[r - 1]) if r >= 1 else []
    combined = list(kernel) + list(image)
    relations = module_syzygies(combined, ring)
    proj = [row[: len(kernel)] for row in relations]
    rehomed = [tuple(quotient_spec.rehome(f) for f in row) for row in proj]
    pres = PresentationMatrix.of(quotient_spec, len(kernel), rehomed)
    fitts = fitting_ideals(pres)
    cyclic = fitts.ideals[1].is_unit() if len(fitts.ideals) > 1 else True
    return ExtModule(I, r, pres, cyclic)
