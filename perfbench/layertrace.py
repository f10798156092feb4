"""Per-layer tracing from outside cicert.

`Tracer.install` wraps public functions of each cicert module, in every
module namespace that holds a reference to them, so a call records one
span: (name, start, end, parent span, check id).  Spans stay in memory
and are written out when the run ends.  The layer of a span is the part
of its name before the first dot: bench, dsl, cli, certificates, poly,
groebner, ideals, homology, pipeline.

A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap and
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

perf = time.perf_counter

MODULES = ("cicert", "cicert.poly", "cicert.groebner", "cicert.ideals",
           "cicert.homology", "cicert.pipeline", "cicert.dsl", "cicert.cli",
           "cicert.certificates")

# (defining module, attribute, span name).  Several attributes may share
# one span name; a metric then covers all of them.
TARGETS = (
    ("cicert.dsl", "parse_session", "dsl.parse"),
    ("cicert.cli", "run_command", "cli.run_command"),
    ("cicert.certificates", "finalize", "certificates.finalize"),
    ("cicert.poly", "Polynomial.__mul__", "poly.mul"),
    ("cicert.poly", "Polynomial.__pow__", "poly.mul"),
    ("cicert.poly", "reduce", "poly.reduce"),
    ("cicert.groebner", "module_groebner", "groebner.gb"),
    ("cicert.groebner", "extended_groebner", "groebner.extended"),
    ("cicert.groebner", "IdealHandle.groebner", "groebner.handle"),
    ("cicert.groebner", "IdealHandle.normal_form", "groebner.nf"),
    ("cicert.groebner", "module_normal_form", "groebner.nf"),
    ("cicert.groebner", "module_syzygies", "groebner.syzygy"),
    ("cicert.groebner", "syzygies", "groebner.syzygy"),
    ("cicert.ideals", "quotient", "ideals.quotient"),
    ("cicert.ideals", "intersect", "ideals.intersect"),
    ("cicert.ideals", "saturate", "ideals.saturate"),
    ("cicert.ideals", "eliminate", "ideals.eliminate"),
    ("cicert.ideals", "radical_member", "ideals.radical_member"),
    ("cicert.ideals", "radical_equal", "ideals.radical_equal"),
    ("cicert.ideals", "dimension_height", "ideals.dimension"),
    ("cicert.homology", "fitting_ideals", "homology.fitting"),
    ("cicert.homology", "_determinant", "homology.minor"),
    ("cicert.homology", "free_resolution", "homology.resolution"),
    ("cicert.homology", "ext_module", "homology.ext"),
    ("cicert.homology", "koszul2_exactness", "homology.koszul"),
    ("cicert.homology", "conormal_presentation", "homology.conormal"),
    ("cicert.homology", "projective_rank_certificate", "homology.projective"),
    ("cicert.pipeline", "is_nzd", "pipeline.nzd"),
    ("cicert.pipeline", "is_regular_sequence", "pipeline.regseq"),
    ("cicert.pipeline", "mod_square_generation", "pipeline.mod_square"),
    ("cicert.pipeline", "lci_certificate", "pipeline.lci"),
    ("cicert.pipeline", "ci_from_free_conormal", "pipeline.ci"),
    ("cicert.pipeline", "stci_verify", "pipeline.stci_verify"),
    ("cicert.pipeline", "stci_search", "pipeline.search"),
    ("cicert.pipeline", "regularize_generators", "pipeline.regularize"),
)

# Spans opened while the innermost open span already belongs to this
# layer (or name) are folded into it: poly arithmetic is counted where
# another layer calls it, and a determinant where a minor is formed,
# not at each cofactor of the expansion.
ABSORB = {"poly.mul": "poly", "homology.minor": "homology.minor"}

LAYERS = ("bench", "dsl", "cli", "certificates", "poly", "groebner",
          "ideals", "homology", "pipeline")

# metric -> (span name, "self" | "incl" | "calls")
SPAN_METRICS = {
    "dsl.parse_s": ("dsl.parse", "self"),
    "poly.mul_s": ("poly.mul", "incl"),
    "poly.mul_calls": ("poly.mul", "calls"),
    "poly.reduce_s": ("poly.reduce", "incl"),
    "groebner.gb_s": ("groebner.gb", "self"),
    "groebner.gb_calls": ("groebner.gb", "calls"),
    "groebner.extended_s": ("groebner.extended", "incl"),
    "groebner.nf_s": ("groebner.nf", "incl"),
    "groebner.nf_calls": ("groebner.nf", "calls"),
    "groebner.syzygy_s": ("groebner.syzygy", "incl"),
    "ideals.quotient_s": ("ideals.quotient", "incl"),
    "ideals.quotient_calls": ("ideals.quotient", "calls"),
    "ideals.radical_member_s": ("ideals.radical_member", "incl"),
    "ideals.radical_member_calls": ("ideals.radical_member", "calls"),
    "ideals.dimension_s": ("ideals.dimension", "incl"),
    "homology.fitting_s": ("homology.fitting", "incl"),
    "homology.minors": ("homology.minor", "calls"),
    "homology.resolution_s": ("homology.resolution", "incl"),
    "homology.ext_s": ("homology.ext", "incl"),
    "pipeline.nzd_s": ("pipeline.nzd", "incl"),
    "pipeline.nzd_calls": ("pipeline.nzd", "calls"),
    "certificates.finalize_s": ("certificates.finalize", "incl"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, check id, outer]
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.check = None
        self._undo = []

    # -- recording

    def wrap(self, name, fn, before=None, after=None):
        """A stand-in for `fn` that records one span per call."""
        tracer = self
        absorb = ABSORB.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            if absorb is not None and stack:
                top = tracer.spans[stack[-1]][0]
                if top == absorb or top.split(".", 1)[0] == absorb:
                    return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.check,
                   tracer.active[name] == 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.active[name] += 1
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
                tracer.active[name] -= 1
            if after is not None:
                after(tracer, rec, result)
            return result

        return traced

    def root(self, name):
        """Open a root span; returns a function that closes it."""
        rec = [name, perf(), 0.0, None, None, True]
        self.stack.append(len(self.spans))
        self.spans.append(rec)

        def close():
            rec[2] = perf()
            self.stack.pop()
        return close

    # -- installation

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        hooks = _hooks()
        for home, attr, name in TARGETS:
            owner = importlib.import_module(home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original,
                                               *hooks.get(attr, (None, None))))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, *hooks.get(attr, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        budget_cls = importlib.import_module("cicert.groebner").Budget
        charge = budget_cls.charge
        counts = self.counts

        def counted_charge(budget, *args, **kwargs):
            counts["groebner.spairs"] += 1
            return charge(budget, *args, **kwargs)

        self._set(budget_cls, "charge", counted_charge)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def _hooks():
    """Work counters recorded at the same boundaries as the spans."""

    def handle_before(tracer, args):
        tracer.counts["groebner.handle_calls"] += 1
        if args[0]._gb is not None:
            tracer.counts["groebner.cache_hits"] += 1

    def gb_after(tracer, rec, result):
        tracer.counts["groebner.basis_terms"] += sum(
            len(f.terms) for vec in result for f in vec)

    def search_after(tracer, rec, result):
        if rec[5]:  # the outermost call sums the extension-field retries
            tracer.counts["pipeline.searches"] += 1
            tracer.counts["pipeline.trials"] += result.trials
            tracer.counts["pipeline.found"] += result.certificate is not None

    return {
        "IdealHandle.groebner": (handle_before, None),
        "module_groebner": (None, gb_after),
        "stci_search": (None, search_after),
    }


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans, offset=0):
    """Self time of each span in `spans`, whose parent indices count
    from `offset`."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None and parent >= offset:
            child[parent - offset] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def pass_metrics(spans, offset, counts, lci_checks):
    """Per-layer figures of one traced pass.  `spans` starts with the
    pass's root span; `counts` holds the work counted during the pass."""
    counts = Counter(counts)
    selfs = self_times(spans, offset)
    by_self = Counter()
    by_incl = Counter()
    calls = Counter()
    layers = Counter()
    for span, own in zip(spans, selfs):
        name = span[0]
        by_self[name] += own
        layers[name.split(".", 1)[0]] += own
        calls[name] += 1
        if span[5]:
            by_incl[name] += span[2] - span[1]
    out = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        out[metric] = {"self": by_self, "incl": by_incl,
                       "calls": calls}[kind][name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]
    out["groebner.spairs"] = counts["groebner.spairs"]
    out["groebner.basis_terms"] = counts["groebner.basis_terms"]
    handle = counts["groebner.handle_calls"]
    out["groebner.cache_hit_frac"] = (counts["groebner.cache_hits"] / handle
                                      if handle else 0.0)
    out["pipeline.lci_calls"] = calls["pipeline.lci"] / lci_checks if lci_checks else 0.0
    trials = counts["pipeline.trials"]
    out["pipeline.trials"] = trials
    search_s = by_incl["pipeline.search"]
    out["pipeline.trials_per_s"] = trials / search_s if search_s else 0.0
    searches = counts["pipeline.searches"]
    out["pipeline.search_found_frac"] = (counts["pipeline.found"] / searches
                                         if searches else 0.0)
    out["trace.wall_s"] = spans[0][2] - spans[0][1]
    work = dict(counts)
    work.update({f"calls.{name}": n for name, n in calls.items()})
    return out, work


UNITS = {"pipeline.lci_calls": "ratio", "_per_s": "1/s", "_s": "s",
         "_calls": "count", "_frac": "ratio"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def medians(per_pass):
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tcheck\n")
        for name, start, end, parent, check, _outer in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t"
                     f"{'' if parent is None else parent}\t{check or ''}\n")
