"""Certificate-producing procedures for complete-intersection checks.

Everything here either returns a certificate, a refutation naming the
failing sub-check, or an explicit "inconclusive" when a search budget
runs out.  A certificate's verify() re-runs the procedure that produced
it on its recorded inputs and compares payloads (`Replayable`).  Searches
are deterministic functions of (seed, budgets); random candidates are
always verified before they are reported, so a bad sample costs a trial
but never soundness.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .certificates import Replayable
from .groebner import DEFAULT_GB_STEPS, IdealHandle
from .homology import conormal_presentation, projective_rank_certificate
from .ideals import (
    DimensionReport,
    RadicalEqualityCertificate,
    dimension_height,
    quotient,
    radical_equal,
)
from .poly import MonomialOrder, Polynomial, PrimeField, RingSpec

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
    "extend_scalars",
    "default_degree_bound",
]


class InputError(ValueError):
    """A stated precondition does not hold; not a refutation."""


@dataclass
class Budgets:
    """The limits of one check.  gb_steps bounds the Groebner steps of
    the whole check: cli.run_command opens one groebner.Budget meter of
    that size around it.  trials, degree_bound and e_max bound the
    searches, which read them from here."""

    gb_steps: int = DEFAULT_GB_STEPS
    trials: int = 200
    degree_bound: int | None = None
    e_max: int = 30

    def degree_cap(self, gens) -> int:
        """degree_bound, or default_degree_bound(gens) when it is None."""
        bound = self.degree_bound
        return default_degree_bound(gens) if bound is None else bound


DEFAULT_BUDGETS = Budgets()


def default_degree_bound(gens) -> int:
    degs = [g.total_degree() for g in gens if g]
    return (max(degs) if degs else 0) + 2


def _square_gens(live):
    """Generators of the square of the ideal that `live` generates."""
    return [a * b for a, b in itertools.combinations_with_replacement(live, 2)]


# ---------------------------------------------------------------------------
# non-zerodivisor and regular-sequence checks


@dataclass
class NzdResult:
    """(B : f) = B comparison with the witness on failure."""

    element: Polynomial
    base_gens: tuple
    nzd: bool
    witness: Polynomial | None
    base_hash: str
    colon_hash: str

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
        return NzdResult(f, base.gens, True, None, base_hash, colon_hash)
    witness = next(g for g in colon.groebner() if not base.contains(g))
    return NzdResult(f, base.gens, False, witness, base_hash, colon_hash)


@dataclass
class RegSeqCertificate(Replayable):
    """One colon-equality hash pair per element of the sequence."""

    ring: RingSpec
    base_gens: tuple
    sequence: tuple
    steps: tuple  # NzdResult per index

    def payload(self):
        return {
            "base": [str(g) for g in self.base_gens],
            "sequence": [str(g) for g in self.sequence],
            "steps": [s.payload() for s in self.steps],
        }

    def _rerun(self):
        return is_regular_sequence(self.sequence,
                                   IdealHandle(self.ring, self.base_gens))


@dataclass
class RegSeqFailure:
    index: int  # 1-based position of the failing element
    witness: Polynomial

    def payload(self):
        return {"index": self.index, "witness": str(self.witness)}


def is_regular_sequence(sequence, base: IdealHandle | None = None):
    """Iterated non-zerodivisor test; certificate or first failure."""
    sequence = tuple(sequence)
    if not sequence:
        raise InputError("empty sequence")
    ring = sequence[0].ring
    base_gens = base.gens if base is not None else ()
    prefix = list(base_gens)
    steps = []
    for k, g in enumerate(sequence):
        step = is_nzd(g, IdealHandle(ring, prefix))
        if not step.nzd:
            return RegSeqFailure(k + 1, step.witness)
        steps.append(step)
        prefix.append(g)
    return RegSeqCertificate(ring, tuple(base_gens), sequence, tuple(steps))


# ---------------------------------------------------------------------------
# randomized helpers


def _random_scalar(field, rng, nonzero=False):
    if isinstance(field, PrimeField):
        lo = 1 if nonzero else 0
        return field.coerce(rng.randrange(lo, field.p))
    while True:
        v = Fraction(rng.randint(-3, 3))
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


@dataclass
class PerturbationElement:
    """lambda = sum(coeff * gen) over the designated trailing generators."""

    position: int  # 1-based index of the perturbed generator
    value: Polynomial
    combination: tuple  # (generator, coefficient) pairs
    seed: int
    trial: int

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


@dataclass
class Inconclusive:
    """A search ran out of budget; carries the trial log."""

    reason: str
    trials: int
    log: tuple = ()

    def payload(self):
        return {"reason": self.reason, "trials": self.trials,
                "log": list(self.log)}


@dataclass
class RegularizationResult(Replayable):
    """A regular sequence generating the ideal.  generators, seed and
    budgets are the recorded inputs of the search; payload() leaves
    them out."""

    ideal_gens: tuple
    sequence: tuple
    certificate: RegSeqCertificate
    perturbations: tuple
    input_hash: str
    output_hash: str
    generators: tuple
    seed: int
    budgets: Budgets

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
        return regularize_generators(I, self.generators, self.seed, self.budgets)


def regularize_generators(I: IdealHandle, generators, seed=0,
                          budgets=DEFAULT_BUDGETS):
    """Rearrange an n-element generating set into a regular sequence by
    adding random combinations of the trailing generators.

    Each candidate g_k+1 = f_k+1 + lambda keeps the ideal unchanged
    because lambda lies in (f_k+2, ..., f_n); the non-zerodivisor
    condition is tested outright, so a bad draw is discarded and the
    output is always verified.  Returns Inconclusive when the trial
    budget runs out, never an unverified sequence.
    """
    generators = tuple(generators)
    ring = I.ring
    given = IdealHandle(ring, generators)
    if not given.equals(I):
        raise InputError("the supplied generators do not generate the ideal")
    rng = random.Random(seed)
    degree_cap = budgets.degree_cap(generators)
    sequence: list[Polynomial] = []
    perturbations = []
    log = []
    trials_per_step = max(1, budgets.trials)
    for k, candidate in enumerate(generators):
        tail = generators[k + 1:]
        base = IdealHandle(ring, sequence)
        if is_nzd(candidate, base).nzd:
            sequence.append(candidate)
            continue
        if not tail:
            log.append(f"step {k + 1}: zerodivisor and no trailing generators")
            return Inconclusive("no perturbation available at the last position",
                                len(log), tuple(log))
        found = False
        for trial in range(trials_per_step):
            coeff_deg = 0 if trial < trials_per_step // 2 else \
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
                found = True
                break
            log.append(f"step {k + 1} trial {trial}: zerodivisor")
        if not found:
            return Inconclusive(f"no regularizing perturbation at step {k + 1}",
                                len(log), tuple(log))
    cert = is_regular_sequence(sequence)
    if isinstance(cert, RegSeqFailure):
        raise AssertionError("verified steps did not assemble into a sequence")
    out = IdealHandle(ring, sequence)
    if not out.equals(I):
        raise AssertionError("perturbation changed the ideal")
    return RegularizationResult(I.gens, tuple(sequence), cert,
                                tuple(perturbations), I.gb_hash(), out.gb_hash(),
                                generators, seed, budgets)


# ---------------------------------------------------------------------------
# generation modulo the square


@dataclass
class ModSquareResult:
    holds: bool
    failing: Polynomial | None

    def payload(self):
        out = {"holds": self.holds}
        if self.failing is not None:
            out["failing_generator"] = str(self.failing)
        return out


def mod_square_generation(I: IdealHandle, candidates) -> ModSquareResult:
    """Does I = (candidates) + I^2?  Candidates must lie in I."""
    candidates = tuple(candidates)
    ring = I.ring
    for c in candidates:
        if not I.contains(c):
            raise InputError(f"candidate {c} does not lie in the ideal")
    live = [g for g in I.gens if g]
    K = IdealHandle(ring, list(candidates) + _square_gens(live))
    for g in live:
        if not K.contains(g):
            return ModSquareResult(False, g)
    return ModSquareResult(True, None)


# ---------------------------------------------------------------------------
# local-complete-intersection proxy certificate


@dataclass
class LCIProxyCertificate(Replayable):
    """Conormal module projective of rank = height (Fitting conditions).

    The jump from this to "locally a complete intersection" needs the
    documented ambient hypotheses (Cohen-Macaulay ambient ring, unmixed
    ideal), which the caller asserts; the certificate records the flag.
    """

    ideal_gens: tuple
    report: DimensionReport
    projective: object
    ambient_hypotheses = "Cohen-Macaulay ambient + unmixedness (user-asserted)"

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


@dataclass
class LCIRefutation:
    ideal_gens: tuple
    reason: str
    witness: Polynomial | None

    def payload(self):
        out = {"ideal": [str(g) for g in self.ideal_gens], "reason": self.reason}
        if self.witness is not None:
            out["witness"] = str(self.witness)
        return out


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


@dataclass
class CICertificate(Replayable):
    """I = (c, d) with (c, d) a regular sequence; replays both ways."""

    ideal_gens: tuple
    pair: tuple
    ideal_hash: str
    pair_hash: str
    regseq: RegSeqCertificate

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
    ring = I.ring
    if not c or not d:
        return None
    pair_ideal = IdealHandle(ring, [c, d])
    if not pair_ideal.equals(I):
        return None
    reg = is_regular_sequence((c, d))
    if isinstance(reg, RegSeqFailure):
        return None
    return CICertificate(I.gens, (c, d), I.gb_hash(), pair_ideal.gb_hash(), reg)


def ci_from_free_conormal(I: IdealHandle, pair, seed=0,
                          budgets=DEFAULT_BUDGETS, _lci=None):
    """Upgrade a conormal basis (c, d) to an exact equality I = (c', d').

    Existence is guaranteed under the preconditions, so failure is
    always reported as inconclusive-with-budget, never as a refutation.
    First the pair itself, then perturbations by elements of I^2, then
    general random pairs from I.
    """
    c, d = pair
    ring = I.ring
    lci = _lci if _lci is not None else lci_certificate(I)
    if not isinstance(lci, LCIProxyCertificate) or lci.height != 2:
        raise InputError("ideal is not certified lci of height 2")
    if not mod_square_generation(I, (c, d)).holds:
        raise InputError("pair does not generate the ideal modulo its square")
    hit = _try_ci_pair(I, c, d)
    if hit is not None:
        return hit
    rng = random.Random(seed)
    degree_cap = budgets.degree_cap(I.gens)
    live = [g for g in I.gens if g]
    square = _square_gens(live)
    for trial in range(budgets.trials):
        if trial < budgets.trials // 2:
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


@dataclass
class STCICertificate(Replayable):
    ideal_gens: tuple
    pair: tuple
    report: DimensionReport
    regseq: RegSeqCertificate
    radical: RadicalEqualityCertificate

    def payload(self):
        return {
            "ideal": [str(g) for g in self.ideal_gens],
            "pair": [str(self.pair[0]), str(self.pair[1])],
            "dimension": self.report.payload(),
            "regular_sequence": self.regseq.payload(),
            "radical_equality": self.radical.payload(),
        }

    def _rerun(self):
        return stci_verify(IdealHandle(self.report.ring, self.ideal_gens),
                           self.pair, Budgets(e_max=self.radical.e_max))


@dataclass
class STCIRefutation:
    stage: str
    detail: dict

    def payload(self):
        return {"stage": self.stage, **self.detail}


def stci_verify(I: IdealHandle, pair, budgets=DEFAULT_BUDGETS):
    """Check that the pair is regular and cuts out the same radical."""
    f, g = pair
    report = dimension_height(I)
    if report.height != 2:
        raise InputError(f"height is {report.height}, need 2")
    reg = is_regular_sequence((f, g))
    if isinstance(reg, RegSeqFailure):
        return STCIRefutation("regular-sequence", reg.payload())
    rad = radical_equal(I, IdealHandle(I.ring, [f, g]), e_max=budgets.e_max)
    if not isinstance(rad, RadicalEqualityCertificate):
        return STCIRefutation("radical-equality", rad.payload())
    return STCICertificate(I.gens, (f, g), report, reg, rad)


@dataclass
class SearchResult:
    outcome: object  # STCICertificate or Inconclusive
    via: str
    trials: int
    extension: int | None = None
    ring: RingSpec | None = None

    @property
    def certificate(self):
        return self.outcome if isinstance(self.outcome, STCICertificate) else None


def _stci_from_ci(I, ci: CICertificate, budgets) -> STCICertificate:
    report = dimension_height(I)
    rad = radical_equal(I, IdealHandle(I.ring, list(ci.pair)), e_max=budgets.e_max)
    if not isinstance(rad, RadicalEqualityCertificate):
        raise AssertionError("equal ideals with unequal radicals")
    return STCICertificate(I.gens, ci.pair, report, ci.regseq, rad)


def stci_search(I: IdealHandle, seed=0, budgets=DEFAULT_BUDGETS, pair=None,
                extension_degrees=(2, 3)) -> SearchResult:
    """Find a regular pair with the same radical as I.

    Pipeline: a supplied conormal basis, else generator pairs that
    generate modulo the square (each upgraded through the exact
    complete-intersection search), else random pairs of combinations of
    the generators.  Over a prime field a stalled search is retried
    over small extension fields represented as F_p[a]/(m(a)).
    """
    report = dimension_height(I)
    if report.height != 2:
        raise InputError(f"height is {report.height}, need 2")
    lci = lci_certificate(I)
    lci_ok = isinstance(lci, LCIProxyCertificate) and lci.height == 2
    trials_used = 0
    live = [g for g in I.gens if g]

    if pair is not None:
        candidates = [tuple(pair)]
    else:
        # pair pool: the generators plus their pairwise sums and
        # differences; enough to expose conormal bases hidden in a
        # redundant generating set, and every candidate is verified
        pool = list(live)
        for a, b in itertools.combinations(live, 2):
            pool.append(a - b)
            pool.append(a + b)
        candidates = [p for p in itertools.combinations(pool, 2)
                      if p[0] and p[1] and p[0] != p[1]]
    if lci_ok:
        for cand in candidates[:400]:
            try:
                if not mod_square_generation(I, cand).holds:
                    continue
                hit = ci_from_free_conormal(I, cand, seed, budgets, _lci=lci)
            except InputError:
                continue
            if isinstance(hit, CICertificate):
                return SearchResult(_stci_from_ci(I, hit, budgets),
                                    "conormal-basis", trials_used, ring=I.ring)
    if pair is not None:
        # an explicit pair can still certify set-theoretically even when
        # the exact-equality upgrade fails
        outcome = stci_verify(I, tuple(pair), budgets)
        if isinstance(outcome, STCICertificate):
            return SearchResult(outcome, "supplied-pair", trials_used,
                                ring=I.ring)

    rng = random.Random(seed)
    degree_cap = budgets.degree_cap(I.gens)
    for trial in range(budgets.trials):
        trials_used += 1
        coeff_deg = 0 if trial % 2 == 0 else rng.randint(1, degree_cap)
        f = _random_combination(live, rng, coeff_deg)
        g = _random_combination(live, rng, coeff_deg)
        if not f or not g or f == g:
            continue
        try:
            outcome = stci_verify(I, (f, g), budgets)
        except InputError:
            continue
        if isinstance(outcome, STCICertificate):
            return SearchResult(outcome, "random-pairs", trials_used, ring=I.ring)

    if isinstance(I.ring.field, PrimeField) and extension_degrees:
        for k in extension_degrees:
            ext_ring, embed = extend_scalars(I.ring, k)
            ext_ideal = IdealHandle(ext_ring, [embed(g) for g in I.gens])
            sub = stci_search(ext_ideal, seed, budgets, pair=None,
                              extension_degrees=())
            trials_used += sub.trials
            if sub.certificate is not None:
                return SearchResult(sub.outcome, sub.via, trials_used,
                                    extension=k, ring=ext_ring)

    return SearchResult(
        Inconclusive("no certified pair within the trial budget", trials_used),
        "exhausted", trials_used, ring=I.ring)


# ---------------------------------------------------------------------------
# scalar extension F_p -> F_{p^k}


def _has_root(f, p):
    """Does x^k + f[0] x^(k-1) + ... + f[-1], with f[-1] != 0, have a
    root in F_p?  Coefficient lists here run from the highest degree."""
    k = len(f)
    if not any(f[:-1]):
        # x^k + c has a root exactly when -c is a k-th power
        return pow(-f[-1], (p - 1) // math.gcd(k, p - 1), p) == 1

    def mulmod(a, b):  # a * b mod f, both of degree < k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for d in range(k - 1):
            for i, fi in enumerate(f, d + 1):
                prod[i] -= prod[d] * fi
        return [c % p for c in prod[k - 1:]]

    # otherwise a root exactly when gcd(f, x^p - x) != 1
    x = [0] * (k - 2) + [1, 0]
    power = x
    for bit in bin(p)[3:]:
        power = mulmod(power, power)
        if bit == "1":
            power = mulmod(power, x)
    power[-2] = (power[-2] - 1) % p
    a, b = [1, *f], power
    while any(b):
        while b[0] == 0:
            b.pop(0)
        while len(a) >= len(b):
            q = a[0] * pow(b[0], -1, p)
            a = [(ai - q * bi) % p for ai, bi in zip(a[1:], b[1:])] + a[len(b):]
        a, b = b, a
    return len(a) > 1


def _find_irreducible(p, k):
    """The first monic irreducible of degree k over F_p, in the order of
    its coefficients (leading coefficient first); k <= 3, so having no
    root suffices."""
    if k < 2 or k > 3:
        raise ValueError("extension degree must be 2 or 3")
    for tail in itertools.product(range(p), repeat=k):
        if tail[-1] != 0 and not _has_root(tail, p):
            return (1,) + tail
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")


def extend_scalars(ring: RingSpec, k: int, name: str = "a"):
    """A tensor F_{p^k}, realized as one extra variable modulo an
    irreducible polynomial.  Returns (new_ring, embed)."""
    if not isinstance(ring.field, PrimeField):
        raise InputError("scalar extension only applies over a prime field")
    if ring.order.kind == "block" or ring.order.permutation is not None:
        raise InputError("scalar extension needs a plain lex/grevlex order")
    while name in ring.variables:
        name += "_"
    p = ring.field.p
    variables = ring.variables + (name,)
    bare = RingSpec(variables, ring.field, MonomialOrder(ring.order.kind))

    def embed_bare(f):
        return bare.poly_from_dict({m + (0,): c for m, c in f.terms})

    coeffs = _find_irreducible(p, k)
    alpha = bare.gen(name)
    minimal = bare.zero
    for i, c in enumerate(coeffs):
        minimal = minimal + alpha ** (k - i) * c
    base = [embed_bare(g) for g in ring.base_ideal] + [minimal]
    spec = RingSpec(variables, ring.field, MonomialOrder(ring.order.kind), base)

    def embed(f):
        return spec.poly_from_dict({m + (0,): c for m, c in f.terms})

    return spec, embed
