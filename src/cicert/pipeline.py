"""Certificate-producing procedures for complete-intersection checks.

Everything here either returns a certificate, a refutation naming the
failing sub-check, or an explicit "inconclusive" when a search budget
runs out.  A certificate's verify() re-runs the procedure that produced
it on its recorded inputs, under a meter of its recorded limits, and
compares payloads (`Replayable`).  Searches are deterministic functions
of the seed and the open meter's limits (`groebner.limits()`); random
candidates are always verified before they are reported, so a bad
sample costs a trial but never soundness.
"""

from __future__ import annotations

import itertools
import math
import random

from .certificates import Replayable
from .groebner import (Budget, Budgets, IdealHandle, InputError, limits, memoized, metered,
                       zero_ideal)
from .homology import conormal_presentation, projective_rank_certificate
from .ideals import (
    DimensionReport,
    RadicalEqualityCertificate,
    dimension_height,
    quotient,
    radical_equal,
)
from .poly import Polynomial, RingSpec

__all__ = [
    "Budgets",
    "InputError",
    "NzdResult",
    "is_nzd",
    "RegSeqCertificate",
    "RegSeqFailure",
    "is_regular_sequence",
    "PerturbationElement",
    "RegularizationResult",
    "Inconclusive",
    "regularize_generators",
    "ModSquareResult",
    "mod_square_generation",
    "LCIProxyCertificate",
    "LCIRefutation",
    "lci_certificate",
    "CICertificate",
    "ci_from_free_conormal",
    "STCICertificate",
    "STCIRefutation",
    "stci_verify",
    "stci_search",
    "SearchResult",
]


def _square_gens(live):
    """Generators of the square of the ideal that `live` generates."""
    return [a * b for a, b in itertools.combinations_with_replacement(live, 2)]


# ---------------------------------------------------------------------------
# non-zerodivisor and regular-sequence checks


class NzdResult:
    """(B : f) = B comparison with the witness on failure."""

    def __init__(self, element: Polynomial, nzd: bool, witness: Polynomial | None, base_hash: str,
                 colon_hash: str):
        self.element = element
        self.nzd = nzd
        self.witness = witness
        self.base_hash = base_hash
        self.colon_hash = colon_hash

    def payload(self):
        out = {
            "element": str(self.element),
            "nzd": self.nzd,
            "base_hash": self.base_hash,
            "colon_hash": self.colon_hash,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
        return out


def is_nzd(f: Polynomial, base: IdealHandle) -> NzdResult:
    """f is a non-zerodivisor on A/B exactly when (B : f) = B."""
    colon = quotient(base, f)
    base_hash = base.gb_hash()
    colon_hash = colon.gb_hash()
    if base_hash == colon_hash:
        return NzdResult(f, True, None, base_hash, colon_hash)
    witness = next(g for g in colon.groebner() if not base.contains(g))
    return NzdResult(f, False, witness, base_hash, colon_hash)


class RegSeqCertificate(Replayable):
    """One colon-equality hash pair per element of the sequence."""

    def __init__(self, ring: RingSpec, base_gens: tuple, sequence: tuple, steps: tuple):
        self.ring = ring
        self.base_gens = base_gens
        self.sequence = sequence
        self.steps = steps  # NzdResult per index

    def payload(self):
        return {
            "base": [str(g) for g in self.base_gens],
            "sequence": [str(g) for g in self.sequence],
            "steps": [s.payload() for s in self.steps],
        }

    def _rerun(self):
        base = IdealHandle(self.ring, self.base_gens) if self.base_gens else None
        return is_regular_sequence(self.sequence, base)


class RegSeqFailure:
    def __init__(self, index: int, witness: Polynomial):
        self.index = index  # 1-based position of the failing element
        self.witness = witness

    def payload(self):
        return {"index": self.index, "witness": str(self.witness)}


@memoized
def is_regular_sequence(sequence, base: IdealHandle | None = None):
    """Iterated non-zerodivisor test; certificate or first failure.  The
    first step runs against `base` itself, the zero ideal when none is
    given, so a basis it already holds is not computed again.

    A regular sequence is proper: A/(base, g_1, ..., g_k) != 0 (Matsumura).
    When base + (g_1, ..., g_k) is the unit ideal the failure has index k
    and witness 1.  Each prefix's basis is the one the next step's colon
    needs, so only the full ideal's basis is extra work, none if stored."""
    sequence = tuple(sequence)
    if not sequence:
        raise InputError("empty sequence")
    ring = sequence[0].ring
    prefix = base if base is not None else zero_ideal(ring)
    base_gens = prefix.gens
    steps = []
    for k, g in enumerate(sequence):
        step = is_nzd(g, prefix)
        if not step.nzd:
            return RegSeqFailure(k + 1, step.witness)
        steps.append(step)
        prefix = IdealHandle(ring, prefix.gens + (g,))
        if prefix.is_unit():
            return RegSeqFailure(k + 1, ring.one)
    return RegSeqCertificate(ring, base_gens, sequence, tuple(steps))


# ---------------------------------------------------------------------------
# randomized helpers


def _random_scalar(field, rng, nonzero=False):
    if field.characteristic:
        return rng.randrange(1 if nonzero else 0, field.characteristic)
    while True:
        v = rng.randint(-3, 3)
        if v or not nonzero:
            return v


def _random_poly(ring, rng, max_deg):
    acc = ring.zero
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(0, max_deg)
        mono = [0] * ring.nvars
        for _ in range(deg):
            mono[rng.randrange(ring.nvars)] += 1
        acc = acc + ring.monomial(mono, _random_scalar(ring.field, rng, nonzero=True))
    return acc


def _random_combination(gens, rng, coeff_deg):
    """A random element of the ideal: scalar coefficients when
    coeff_deg is 0, sparse polynomial coefficients otherwise."""
    ring = gens[0].ring
    acc = ring.zero
    for g in gens:
        if coeff_deg == 0:
            c = ring.constant(_random_scalar(ring.field, rng))
        else:
            c = _random_poly(ring, rng, coeff_deg) if rng.random() < 0.8 else ring.zero
        acc = acc + c * g
    return acc


# ---------------------------------------------------------------------------
# generator regularization


class PerturbationElement:
    """lambda = sum(coeff * gen) over the designated trailing generators."""

    def __init__(self, position: int, value: Polynomial, combination: tuple, seed: int,
                 trial: int):
        self.position = position  # 1-based index of the perturbed generator
        self.value = value
        self.combination = combination  # (generator, coefficient) pairs
        self.seed = seed
        self.trial = trial

    def payload(self):
        return {
            "position": self.position,
            "value": str(self.value),
            "combination": [
                {"generator": str(g), "coefficient": str(c)}
                for g, c in self.combination
            ],
            "seed": self.seed,
            "trial": self.trial,
        }


class Inconclusive:
    """A search ran out of budget; carries the trial log."""

    def __init__(self, reason: str, trials: int, log: tuple = ()):
        self.reason = reason
        self.trials = trials
        self.log = log

    def payload(self):
        return {"reason": self.reason, "trials": self.trials,
                "log": list(self.log)}


class RegularizationResult(Replayable):
    """A regular sequence generating the ideal.  generators, seed and
    budgets (the limits of the meter it ran under) are the recorded
    inputs of the search; payload() leaves them out."""

    def __init__(self, ideal_gens: tuple, sequence: tuple, certificate: RegSeqCertificate,
                 perturbations: tuple, input_hash: str, output_hash: str, generators: tuple,
                 seed: int, budgets: Budgets):
        self.ideal_gens = ideal_gens
        self.sequence = sequence
        self.certificate = certificate
        self.perturbations = perturbations
        self.input_hash = input_hash
        self.output_hash = output_hash
        self.generators = generators
        self.seed = seed
        self.budgets = budgets

    def payload(self):
        return {
            "ideal": [str(g) for g in self.ideal_gens],
            "sequence": [str(g) for g in self.sequence],
            "certificate": self.certificate.payload(),
            "perturbations": [p.payload() for p in self.perturbations],
            "input_gb_hash": self.input_hash,
            "output_gb_hash": self.output_hash,
        }

    def _rerun(self):
        I = IdealHandle(self.certificate.ring, self.ideal_gens)
        with Budget(self.budgets):
            return regularize_generators(I, self.generators, self.seed)


@metered
def regularize_generators(I: IdealHandle, generators, seed=0):
    """Rearrange an n-element generating set into a regular sequence by
    adding random combinations of the trailing generators.

    Each candidate g_k+1 = f_k+1 + lambda keeps the ideal unchanged
    because lambda lies in (f_k+2, ..., f_n); the non-zerodivisor
    condition is tested outright, so a bad draw is discarded.  A step
    draws at most the trial budget of perturbations, none at 0, and when
    they run out the result is Inconclusive, never an unverified
    sequence.  The accepted sequence is certified by
    `is_regular_sequence`, whose colon ideals the search has already
    computed, and its outcome is returned: the RegSeqFailure of the unit
    ideal, which no regular sequence generates (index k when the first
    k elements generate it, and witness 1), or the certificate.  An
    empty generating set is an input error, as for `is_regular_sequence`.
    """
    generators = tuple(generators)
    ring = I.ring
    if generators != I.gens and not IdealHandle(ring, generators).equals(I):
        raise InputError("the supplied generators do not generate the ideal")
    rng = random.Random(seed)
    budgets = limits()
    degree_cap = budgets.degree_cap(generators)
    sequence: list[Polynomial] = []
    perturbations = []
    log = []
    for k, candidate in enumerate(generators):
        tail = generators[k + 1:]
        base = IdealHandle(ring, sequence) if sequence else zero_ideal(ring)
        if is_nzd(candidate, base).nzd:
            sequence.append(candidate)
            continue
        if not tail:
            log.append(f"step {k + 1}: zerodivisor and no trailing generators")
            return Inconclusive("no perturbation available at the last position",
                                len(log), tuple(log))
        for trial in range(budgets.trials):
            coeff_deg = 0 if trial < budgets.trials // 2 else \
                rng.randint(1, degree_cap)
            coeffs = []
            lam = ring.zero
            for g in tail:
                if coeff_deg == 0:
                    c = ring.constant(_random_scalar(ring.field, rng))
                else:
                    c = _random_poly(ring, rng, coeff_deg)
                coeffs.append((g, c))
                lam = lam + c * g
            shifted = candidate + lam
            if not shifted:
                continue
            if is_nzd(shifted, base).nzd:
                perturbations.append(PerturbationElement(
                    k + 1, lam, tuple((g, c) for g, c in coeffs if c),
                    seed, trial))
                sequence.append(shifted)
                break
            log.append(f"step {k + 1} trial {trial}: zerodivisor")
        else:
            return Inconclusive(f"no regularizing perturbation at step {k + 1}",
                                len(log), tuple(log))
    out = IdealHandle(ring, sequence)
    if not out.equals(I):
        raise AssertionError("perturbation changed the ideal")
    cert = is_regular_sequence(sequence)
    if isinstance(cert, RegSeqFailure):
        return cert
    return RegularizationResult(I.gens, cert.sequence, cert,
                                tuple(perturbations), I.gb_hash(), out.gb_hash(),
                                generators, seed, budgets)


# ---------------------------------------------------------------------------
# generation modulo the square


class ModSquareResult:
    def __init__(self, holds: bool, failing: Polynomial | None):
        self.holds = holds
        self.failing = failing

    def payload(self):
        out = {"holds": self.holds}
        if self.failing is not None:
            out["failing_generator"] = str(self.failing)
        return out


@memoized
def mod_square_generation(I: IdealHandle, candidates) -> ModSquareResult:
    """Does I = (candidates) + I^2?  Candidates must lie in I.

    A nonzero generator of I is kept when its coefficient dict raises
    the rank, over the ring's field, of the candidates' and the
    generators kept before it (`_echelon`).  Each generator dropped lies
    in the span of the candidates and the kept ones before it, so
    I = (candidates) + (kept); and as the candidates lie in I, I^2 lies
    in K = (candidates) + (kept)^2.  So K is (candidates) + I^2, and the
    test is membership of each kept generator, in order, in K.  The
    first generator outside K is a kept one: a dropped one outside K
    would have a kept one before it outside K.  So the answer and the
    failing generator are those of testing every generator against all
    their products."""
    candidates = tuple(candidates)
    ring = I.ring
    for c in candidates:
        if not I.contains(c):
            raise InputError(f"candidate {c} does not lie in the ideal")
    live = [g for g in I.gens if g]
    _, raised = _echelon([f.vec for f in candidates + tuple(live)],
                         ring.field.characteristic)
    first = len(candidates)
    kept = [live[i - first] for i in raised if i >= first]
    K = IdealHandle(ring, list(candidates) + _square_gens(kept))
    for g in kept:
        if not K.contains(g):
            return ModSquareResult(False, g)
    return ModSquareResult(True, None)


def _echelon(rows, p):
    """Gauss-Jordan elimination of sparse rows over QQ (p = 0) or GF(p).

    A row is a dict {column: coefficient}, with comparable columns and
    int or Fraction coefficients.  Returns (reduced, raised): `reduced`
    maps the pivot column of each row of the echelon form, its largest
    column, to the row, which is zero at every other pivot; `raised`
    lists the indices of the rows that raised the rank of the rows
    before them.  Each row of `reduced` is monic at its pivot over GF(p);
    over QQ the elimination is fraction-free, and each row is a
    primitive int row with a positive pivot.  So `reduced` depends only
    on the span of the rows."""
    reduced = {}
    raised = []

    def minus(row, col, other):  # a multiple of row, less one of other, zero at col
        a, b = other[col], row[col]
        out = {k: a * c for k, c in row.items()}
        for k, c in other.items():
            out[k] = out.get(k, 0) - b * c
        if p:
            return {k: c % p for k, c in out.items() if c % p}
        return {k: c for k, c in out.items() if c}

    def normal(row, col):  # the multiple of row in the form of `reduced`
        if p:
            s = pow(row[col], -1, p)
            return {k: c * s % p for k, c in row.items()}
        g = math.gcd(*row.values())
        if row[col] < 0:
            g = -g
        return row if g == 1 else {k: c // g for k, c in row.items()}

    for i, row in enumerate(rows):
        if p:
            row = {k: c % p for k, c in row.items() if c % p}
        else:  # cleared of denominators
            d = math.lcm(*[c.denominator for c in row.values()])
            row = {k: c.numerator * (d // c.denominator) for k, c in row.items() if c}
        for col, other in reduced.items():
            if row.get(col):
                row = minus(row, col, other)
        if not row:
            continue
        col = max(row)
        row = normal(row, col)
        for j, other in reduced.items():
            if other.get(col):
                reduced[j] = normal(minus(other, col, row), j)
        reduced[col] = row
        raised.append(i)
    return reduced, raised


# ---------------------------------------------------------------------------
# local-complete-intersection proxy certificate


class LCIProxyCertificate(Replayable):
    """Conormal module projective of rank = height (Fitting conditions).

    The jump from this to "locally a complete intersection" needs the
    documented ambient hypotheses (Cohen-Macaulay ambient ring, unmixed
    ideal), which the caller asserts; the certificate records the flag.
    """

    ambient_hypotheses = "Cohen-Macaulay ambient + unmixedness (user-asserted)"

    def __init__(self, ideal_gens: tuple, report: DimensionReport, projective: object):
        self.ideal_gens = ideal_gens
        self.report = report
        self.projective = projective

    @property
    def height(self):
        return self.report.height

    def payload(self):
        return {
            "ideal": [str(g) for g in self.ideal_gens],
            "dimension": self.report.payload(),
            "conormal_rank": self.projective.payload(),
            "ambient_hypotheses": self.ambient_hypotheses,
        }

    def _rerun(self):
        return lci_certificate(IdealHandle(self.report.ring, self.ideal_gens))


class LCIRefutation:
    def __init__(self, ideal_gens: tuple, reason: str, witness: Polynomial | None):
        self.ideal_gens = ideal_gens
        self.reason = reason
        self.witness = witness

    def payload(self):
        out = {"ideal": [str(g) for g in self.ideal_gens], "reason": self.reason}
        if self.witness is not None:
            out["witness"] = str(self.witness)
        return out


@memoized
def lci_certificate(I: IdealHandle):
    report = dimension_height(I)
    h = report.height
    if report.unit_ideal or h is None or h < 1:
        return LCIRefutation(I.gens, f"height {h} out of range", None)
    pres = conormal_presentation(I)
    proj = projective_rank_certificate(pres, h)
    if proj.certified:
        return LCIProxyCertificate(I.gens, report, proj)
    return LCIRefutation(I.gens, proj.failing or "conormal not projective",
                         proj.witness_poly)


# ---------------------------------------------------------------------------
# complete intersection from a free conormal basis


class CICertificate(Replayable):
    """I = (c, d) with (c, d) a regular sequence; replays both ways."""

    def __init__(self, ideal_gens: tuple, pair: tuple, ideal_hash: str, pair_hash: str,
                 regseq: RegSeqCertificate):
        self.ideal_gens = ideal_gens
        self.pair = pair
        self.ideal_hash = ideal_hash
        self.pair_hash = pair_hash
        self.regseq = regseq

    def payload(self):
        return {
            "ideal": [str(g) for g in self.ideal_gens],
            "pair": [str(self.pair[0]), str(self.pair[1])],
            "ideal_gb_hash": self.ideal_hash,
            "pair_gb_hash": self.pair_hash,
            "regular_sequence": self.regseq.payload(),
        }

    def _rerun(self):
        return _try_ci_pair(IdealHandle(self.pair[0].ring, self.ideal_gens),
                            *self.pair)


def _try_ci_pair(I, c, d):
    if not c or not d:
        return None
    pair_ideal = IdealHandle(I.ring, [c, d])
    if not pair_ideal.equals(I):
        return None
    reg = is_regular_sequence((c, d))
    if isinstance(reg, RegSeqFailure):
        return None
    return CICertificate(I.gens, (c, d), I.gb_hash(), pair_ideal.gb_hash(), reg)


@metered
def ci_from_free_conormal(I: IdealHandle, pair, seed=0):
    """Upgrade a conormal basis (c, d) to an exact equality I = (c', d').

    Checks the preconditions (I certified lci of height 2, the pair
    generating I modulo I^2), then searches with `_ci_search`.
    Existence is guaranteed under the preconditions, so failure is
    always reported as inconclusive-with-budget, never as a refutation.
    """
    lci = lci_certificate(I)
    if not isinstance(lci, LCIProxyCertificate) or lci.height != 2:
        raise InputError("ideal is not certified lci of height 2")
    if not mod_square_generation(I, pair).holds:
        raise InputError("pair does not generate the ideal modulo its square")
    return _ci_search(I, pair, seed)


def _ci_search(I, pair, seed, general=True):
    """The search of ci_from_free_conormal, its preconditions taken as
    checked: first the pair itself, then perturbations by elements of
    I^2, then, when `general`, general random pairs from I.

    The perturbations take the same number of draws from Random(seed)
    whatever the pair, so the general pairs depend only on I, the seed
    and the meter's limits: a caller that has already tried them passes
    general=False."""
    c, d = pair
    hit = _try_ci_pair(I, c, d)
    if hit is not None:
        return hit
    rng = random.Random(seed)
    budgets = limits()
    degree_cap = budgets.degree_cap(I.gens)
    live = [g for g in I.gens if g]
    square = _square_gens(live)
    half = budgets.trials // 2
    for trial in range(budgets.trials if general else half):
        if trial < half:
            delta1 = _random_combination(square, rng, 0)
            delta2 = _random_combination(square, rng, 0)
            hit = _try_ci_pair(I, c + delta1, d + delta2)
        else:
            f = _random_combination(live, rng, rng.randint(0, degree_cap))
            g = _random_combination(live, rng, rng.randint(0, degree_cap))
            hit = _try_ci_pair(I, f, g)
        if hit is not None:
            return hit
    return Inconclusive("no exact two-element basis found within budget",
                        budgets.trials)


# ---------------------------------------------------------------------------
# set-theoretic complete intersection


class STCICertificate(Replayable):
    def __init__(self, ideal_gens: tuple, pair: tuple, report: DimensionReport,
                 regseq: RegSeqCertificate, radical: RadicalEqualityCertificate):
        self.ideal_gens = ideal_gens
        self.pair = pair
        self.report = report
        self.regseq = regseq
        self.radical = radical

    def payload(self):
        return {
            "ideal": [str(g) for g in self.ideal_gens],
            "pair": [str(self.pair[0]), str(self.pair[1])],
            "dimension": self.report.payload(),
            "regular_sequence": self.regseq.payload(),
            "radical_equality": self.radical.payload(),
        }

    def _rerun(self):
        with Budget(self.radical.budgets):
            return stci_verify(IdealHandle(self.report.ring, self.ideal_gens), self.pair)


class STCIRefutation:
    def __init__(self, stage: str, detail: dict):
        self.stage = stage
        self.detail = detail

    def payload(self):
        return {"stage": self.stage, **self.detail}


@metered
def stci_verify(I: IdealHandle, pair):
    """Check that the pair cuts out the same radical and is regular.

    The cheaper refutation runs first.  Radical equality needs the basis
    of (f, g), and most of its memberships are of elements of the other
    ideal, each one reduction; the regular-sequence test computes two
    colon ideals.  So a pair that fails both is refuted at
    radical-equality.  Both stages run under one meter, whose store
    serves the second the basis of (f, g) that the first computed."""
    f, g = pair
    report = dimension_height(I)
    if report.height != 2:
        raise InputError(f"height is {report.height}, need 2")
    pair_ideal = IdealHandle(I.ring, (f, g))
    rad = radical_equal(I, pair_ideal)
    if not isinstance(rad, RadicalEqualityCertificate):
        return STCIRefutation("radical-equality", rad.payload())
    reg = is_regular_sequence((f, g))
    if isinstance(reg, RegSeqFailure):
        return STCIRefutation("regular-sequence", reg.payload())
    return STCICertificate(I.gens, (f, g), report, reg, rad)


class SearchResult:
    def __init__(self, outcome: object, via: str, trials: int):
        self.outcome = outcome  # STCICertificate or Inconclusive
        self.via = via
        self.trials = trials

    @property
    def certificate(self):
        return self.outcome if isinstance(self.outcome, STCICertificate) else None


def _row_reduced(rows, p):
    """The span of integer rows over QQ (p = 0) or GF(p), as a key that
    is equal exactly when the rows span the same space."""
    reduced, _ = _echelon([dict(enumerate(r)) for r in rows], p)
    return tuple(sorted((col, tuple(sorted(row.items())))
                        for col, row in reduced.items()))


@metered
def stci_search(I: IdealHandle, seed=0) -> SearchResult:
    """Find a regular pair with the same radical as I.

    Every stage runs over the ring's own field.  After the height check
    and the lci certificate, the conormal-basis stage tries generator
    pairs that generate I modulo its square, each upgraded through the
    exact complete-intersection search.  Whether I = (c, d) + I^2
    depends only on the span of c and d, so each candidate carries its
    coefficient rows over the generators and the test runs once per
    row-reduced span.  Only the first candidate that passes tries `_ci_search`'s
    general random pairs, which are the same for every candidate.  A
    pair found is certified by `stci_verify`, from the meter's store.

    Then come random pairs of combinations of the generators, drawn
    from one Random(seed): scalar coefficients on even trials, sparse
    polynomial ones on odd trials.
    """
    height = dimension_height(I).height
    if height != 2:
        raise InputError(f"height is {height}, need 2")
    live = [g for g in I.gens if g]
    lci = lci_certificate(I)
    if isinstance(lci, LCIProxyCertificate):
        # pair pool: the generators plus their pairwise sums and
        # differences, each with its integer coefficient row over the
        # generators; enough to expose conormal bases hidden in a
        # redundant generating set, and every candidate is verified
        n = len(live)
        pool = [(g, tuple(int(i == j) for j in range(n)))
                for i, g in enumerate(live)]
        for (a, r), (b, s) in itertools.combinations(pool[:n], 2):
            pool.append((a - b, tuple(u - v for u, v in zip(r, s))))
            pool.append((a + b, tuple(u + v for u, v in zip(r, s))))
        candidates = [(p, q) for p, q in itertools.combinations(pool, 2)
                      if p[0] and q[0] and p[0] != q[0]]
        char = I.ring.field.characteristic
        holds = {}  # row-reduced span -> does it generate I modulo I^2
        general = True
        for (c, r), (d, s) in candidates[:400]:
            span = _row_reduced((r, s), char)
            if span not in holds:
                holds[span] = mod_square_generation(I, (c, d)).holds
            if not holds[span]:
                continue
            hit = _ci_search(I, (c, d), seed, general)
            general = False
            if isinstance(hit, CICertificate):
                outcome = stci_verify(I, hit.pair)
                if not isinstance(outcome, STCICertificate):
                    raise AssertionError("a complete-intersection pair fails stci")
                return SearchResult(outcome, "conormal-basis", 0)

    budgets = limits()
    degree_cap = budgets.degree_cap(I.gens)
    rng = random.Random(seed)
    for trial in range(budgets.trials):
        coeff_deg = 0 if trial % 2 == 0 else rng.randint(1, degree_cap)
        f = _random_combination(live, rng, coeff_deg)
        g = _random_combination(live, rng, coeff_deg)
        if not f or not g or f == g:
            continue
        outcome = stci_verify(I, (f, g))
        if isinstance(outcome, STCICertificate):
            return SearchResult(outcome, "random-pairs", trial + 1)
    return SearchResult(
        Inconclusive("no certified pair within the trial budget", budgets.trials),
        "exhausted", budgets.trials)

