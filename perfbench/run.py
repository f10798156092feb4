"""The cicert benchmark: time to verdict on seeded `.ck` workloads.

Run from the root of a cicert checkout:

    python3 perfbench/run.py --workload gb-families --seed 1 --seconds 20 --trace 0

One process, one caller in a closed loop: each pass parses every session
of the workload (`cicert.dsl.parse_session`) and runs each of its checks
once (`cicert.cli.run_command`), and passes repeat until `--seconds` have
gone.  After the timed loop every verdict of the first pass is checked
against a reference independent of cicert (reference.py), every later
pass must reproduce the first pass's replay hashes, and every
certificate is replayed with `cicert.cli.replay_payload`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs untraced
passes for half of the time, then traced passes (layertrace.py), and
reports per-layer metrics, the tracing overhead and work counts, which
must repeat exactly from pass to pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Without cicert sources under
./src the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speedref
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

CHECK_LIMIT_S = 20.0  # the dearest timed check takes 2-4 s
DEFECT_LIMIT_S = 2.0  # known-defect inputs reach their hang well before
SETUP_SPAWNS = 7

perf = time.perf_counter


class CheckTimeout(BaseException):
    """Raised by SIGALRM inside a check that ran past its limit.  A
    BaseException, so no `except Exception` in cicert swallows it."""


def _alarm(signum, frame):
    raise CheckTimeout()


class time_limit:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def stuck_in(exc):
    """(function, local variables) of the cicert frames on the stack when
    a timeout fired, innermost last."""
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if f"{os.sep}cicert{os.sep}" in code.co_filename:
            frames.append((code.co_name, dict(tb.tb_frame.f_locals)))
        tb = tb.tb_next
    return frames


@dataclass
class Outcome:
    item: int
    index: int
    seconds: float
    payload: dict | None
    error: str | None
    chain: list | None = None  # cicert frames on the stack at a timeout
    scaled: tuple = (0.0, True)  # speedref.scaled: at the reference speed


class Api:
    """The public cicert entry points the benchmark drives."""

    def __init__(self, src):
        sys.path.insert(0, str(src))
        import cicert.cli
        import cicert.dsl
        import cicert.pipeline

        self.RunOptions = cicert.cli.RunOptions
        self.Budgets = cicert.pipeline.Budgets
        self.replay_payload = cicert.cli.replay_payload
        # looked up at call time, so an installed tracer sees the calls
        self._cli = cicert.cli
        self._dsl = cicert.dsl

    def parse(self, text):
        return self._dsl.parse_session(text)

    def run(self, session, index, options):
        return self._cli.run_command(session, index, options)


def spawn_import(src):
    """Time to start a fresh interpreter and import cicert, as
    speedref.scaled gives it (the child runs on the parent's one CPU).
    No timeout: with one, Popen.wait polls every 50 ms and rounds the
    time up to the next poll."""
    env = dict(os.environ, PYTHONPATH=str(src))
    before = speedref.kernel()
    start = perf()
    subprocess.run([sys.executable, "-c", "import cicert"], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    seconds = perf() - start
    return speedref.scaled(seconds, before, speedref.kernel())


def run_item(api, item, k, limit, tracer=None, speed=False):
    """Parse one session and run each of its checks.  Returns (session,
    outcomes, parse seconds, the parse as speedref.scaled gives it).
    With `speed`, the reference kernel runs before the parse and after
    it and after every check, and each step's time is also given scaled
    (else the scaled parse is None and each outcome keeps its default)."""
    options = api.RunOptions(budgets=api.Budgets(trials=item.trials))
    ref = speedref.kernel() if speed else None
    start = perf()
    try:
        with time_limit(limit):
            session = api.parse(item.text)
    except CheckTimeout:
        return None, [Outcome(k, i, 0.0, None, "timeout while parsing")
                      for i in range(len(item.expects))], 0.0, (0.0, True)
    except Exception as exc:
        return None, [Outcome(k, i, 0.0, None, f"{type(exc).__name__}: {exc}")
                      for i in range(len(item.expects))], 0.0, (0.0, True)
    parse_seconds = perf() - start
    parse_scaled = None
    if speed:
        before, ref = ref, speedref.kernel()
        parse_scaled = speedref.scaled(parse_seconds, before, ref)
    outcomes = []
    for i in range(len(session.commands)):
        if tracer is not None:
            tracer.check = f"{item.name}#{i}"
        start = perf()
        payload = error = chain = None
        try:
            with time_limit(limit):
                payload = api.run(session, i, options)
        except CheckTimeout as exc:
            chain = stuck_in(exc)
            where = chain[-1][0] if chain else "?"
            error = f"timeout after {limit:g} s in {where}"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        outcome = Outcome(k, i, perf() - start, payload, error, chain)
        if speed:
            before, ref = ref, speedref.kernel()
            outcome.scaled = speedref.scaled(outcome.seconds, before, ref)
        outcomes.append(outcome)
    return session, outcomes, parse_seconds, parse_scaled


@dataclass
class Pass:
    wall: float
    outcomes: list
    sessions: list  # kept for the first pass only, for the references
    parse_seconds: list  # per session: parse_session's time
    parse_scaled: list  # the same as speedref.scaled gives it, or None


def run_pass(api, items, tracer=None, keep=False, speed=False):
    """Parse every session and run each check once.  Only a kept pass
    holds its sessions and full payloads; later passes keep the verdict
    and replay hash, so memory does not grow with the number of passes."""
    close = tracer.root("bench.pass") if tracer is not None else None
    start = perf()
    outcomes, sessions, parse_seconds, parse_scaled = [], [], [], []
    for k, item in enumerate(items):
        session, found, parse_s, parse_sc = run_item(
            api, item, k, CHECK_LIMIT_S, tracer, speed)
        parse_seconds.append(parse_s)
        parse_scaled.append(parse_sc)
        sessions.append(session if keep else None)
        if not keep:
            for o in found:
                if o.payload is not None:
                    o.payload = {key: o.payload[key]
                                 for key in ("verdict", "replay_hash", "command")}
        outcomes += found
    wall = perf() - start
    if close is not None:
        close()
    return Pass(wall, outcomes, sessions, parse_seconds, parse_scaled)


def verify(api, items, passes):
    """Checks outside the timed window.  Returns {(item, check): [problem,
    ...]} for every check that failed one."""
    first_outcomes, first_sessions = passes[0].outcomes, passes[0].sessions
    flagged = {}

    def flag(k, index, msg):
        flagged.setdefault((k, index), []).append(msg)

    for later in passes[1:]:
        for a, b in zip(first_outcomes, later.outcomes):
            if (a.payload and b.payload
                    and a.payload["replay_hash"] != b.payload["replay_hash"]):
                flag(a.item, a.index, f"{items[a.item].name}#{a.index}: "
                                      f"payload differs between passes")
    import reference

    for k, item in enumerate(items):
        payloads = [o.payload for o in first_outcomes if o.item == k]
        for index, msg in reference.check_item(item, payloads,
                                               first_sessions[k]):
            flag(k, index, msg)
    for o in first_outcomes:
        if o.payload is None:
            continue
        try:
            with time_limit(CHECK_LIMIT_S):
                _verdict, ok = api.replay_payload(o.payload)
        except CheckTimeout:
            ok = False
        if not ok:
            flag(o.item, o.index, f"{items[o.item].name}#{o.index}: replay defect")
    return flagged


def run_untimed(api, seed):
    """Run the untimed stci-search inputs once each: one that must finish
    under the check limit, and the known defects under a short limit.
    Returns (attempted, failed, report lines, problems)."""
    import reference

    lines, problems, failed = [], [], 0
    inputs = workloads.untimed_inputs(seed)
    for k, (item, stuck) in enumerate(inputs):
        limit = CHECK_LIMIT_S if stuck is None else DEFECT_LIMIT_S
        session, outcomes, _, _ = run_item(api, item, k, limit)
        for o in outcomes:
            if o.error:
                failed += 1
            if stuck is not None and o.chain is not None:
                function, local, value = stuck
                hit = any(name == function and frame_locals.get(local) == value
                          for name, frame_locals in o.chain)
                seen = ("reproduced" if hit else
                        f"stuck elsewhere, expected {function} with "
                        f"{local} = {value}")
                lines.append(f"known defect {item.name}: {o.error}, {seen}")
                continue
            if o.error:
                problems.append(f"{item.name}: {o.error}")
                continue
            gone = "; the defect is gone" if stuck is not None else ""
            lines.append(f"untimed {item.name}: {o.payload['verdict']} in "
                         f"{o.seconds:.3f} s{gone}")
            for _index, msg in reference.check_item(item, [o.payload], session):
                problems.append(msg)
            try:
                with time_limit(CHECK_LIMIT_S):
                    replayed = api.replay_payload(o.payload)[1]
            except CheckTimeout:
                replayed = False
            if not replayed:
                problems.append(f"{item.name}: replay defect")
    return len(inputs), failed, lines, problems


def summarize(outcomes, flagged):
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes
                 if o.error or (o.item, o.index) in flagged)
    decided = sum(1 for o in outcomes if o.payload
                  and o.payload["verdict"] in ("verified", "refuted"))
    return attempted, failed, decided


def percentile_line(times):
    times = sorted(times)
    n = len(times)
    if n >= 2:
        p90 = statistics.quantiles(times, n=10)[8]
        above = sum(1 for t in times if t > p90)
        if above >= 10:
            return p90, f"check_p90_s    {p90:.6f} s   ({above} of {n} checks above)"
    return None, (f"check_p90_s    not reported: {n} checks, fewer than "
                  f"10 lie above the 90th percentile")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "cicert" / "__init__.py").is_file():
        print("perfbench: no cicert sources in ./src; run from the root of "
              "a cicert checkout", file=sys.stderr)
        return 2

    # One CPU for the whole run, children included: the host's speed
    # states differ between its vCPUs, and the reference kernel must run
    # on the CPU that runs the step it scales.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    api = Api(src)  # the in-process import also writes bytecode caches
    items = workloads.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _alarm)

    # The first pass's payloads are the ones checked against the
    # references.  Untraced, it is timed like the others: its scaled
    # times match the later passes' (cicert keeps no state between
    # sessions), and gb-families gets only 4-5 passes in a run.  Set-up
    # spawns are spread over the run, one before each later pass.
    started = perf()
    untraced, traced, tracer, marks, setups = [], [], None, [], []
    if not args.trace:
        spawn_import(src)
        untraced.append(run_pass(api, items, keep=True, speed=True))
        while len(untraced) < 2 or perf() - started < args.seconds:
            setups.append(spawn_import(src))
            untraced.append(run_pass(api, items, speed=True))
        while len(setups) < SETUP_SPAWNS:
            setups.append(spawn_import(src))
    else:
        import layertrace

        untraced.append(run_pass(api, items, keep=True))
        while len(untraced) < 3 or perf() - started < args.seconds / 2:
            untraced.append(run_pass(api, items))
        tracer = layertrace.Tracer()
        tracer.install()
        while len(traced) < 2 or perf() - started < args.seconds:
            first, before = len(tracer.spans), dict(tracer.counts)
            traced.append(run_pass(api, items, tracer))
            marks.append((first, len(tracer.spans), before, dict(tracer.counts)))
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    flagged = verify(api, items, passes)
    outcomes = [o for p in passes for o in p.outcomes]
    attempted, failed, decided = summarize(outcomes, flagged)
    problems = sorted({msg for msgs in flagged.values() for msg in msgs})
    problems += sorted({f"{items[o.item].name}#{o.index}: {o.error}"
                        for o in outcomes if o.error})

    untimed = (0, 0, [], [])
    if args.workload == "stci-search":
        untimed = run_untimed(api, args.seed)
        problems += untimed[3]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(items)} sessions, {len(passes[0].outcomes)} checks per pass, "
          f"{len(untraced)} untraced + {len(traced)} traced passes "
          f"(traced runs leave the first untraced one out of every timing)")
    metrics = {}
    if not args.trace:
        timed = untraced
        n_checks = len(timed[0].outcomes)
        # each parse and check: the median over the timed passes of its
        # time scaled to the reference speed (speedref.py)
        parse_mid = [speedref.typical([p.parse_scaled[k] for p in timed])
                     for k in range(len(items))]
        check_mid = [speedref.typical([p.outcomes[j].scaled for p in timed])
                     for j in range(n_checks)]
        wall_s = sum(parse_mid) + sum(check_mid)
        p50 = statistics.median(check_mid)
        _p90, p90_line = percentile_line(check_mid)
        raw_wall = (sum(statistics.median(p.parse_seconds[k] for p in timed)
                        for k in range(len(items)))
                    + sum(statistics.median(p.outcomes[j].seconds for p in timed)
                          for j in range(n_checks)))
        kernel_now = speedref.kernel()
        samples = ([s for p in timed for s in p.parse_scaled]
                   + [o.scaled for p in timed for o in p.outcomes])
        held = sum(1 for _, steady in samples if steady)
        setup_s = speedref.typical(setups)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "check_p50_s": (p50, "s"),
            "decided_frac": (decided / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        all_attempted = attempted + untimed[0]
        all_failed = failed + untimed[1]
        print(f"  setup_s        {setup_s:.6f} s   (median of {len(setups)} "
              f"fresh interpreters importing cicert, scaled)")
        print(f"  wall_s         {wall_s:.6f} s   (at the reference speed: "
              f"each parse and check scaled, median of {len(timed)} passes, "
              f"summed; unscaled {raw_wall:.6f} s; the kernel took "
              f"{kernel_now * 1e3:.3f} ms against {speedref.REF_KERNEL_S * 1e3:g} ms)")
        print(f"  check_p50_s    {p50:.6f} s   (median over {n_checks} checks "
              f"of each check's scaled median of {len(timed)} runs)")
        print(f"  speed held through {held} of {len(samples)} timed steps")
        print(f"  {p90_line}")
        print(f"  decided_frac   {decided / attempted:.6f} ratio "
              f"({decided}/{attempted} verified or refuted)")
        print(f"  failed_frac    {all_failed / all_attempted:.6f} ratio "
              f"({failed}/{attempted} in the timed loop, {untimed[1]}/"
              f"{untimed[0]} untimed inputs)")
        print(f"  peak_rss_mb    {peak_rss_mb:.1f} MB")
    else:
        metrics, work = layer_report(args, tracer, traced, marks, untraced)
        if work is None:
            problems.append("work counts differ between traced passes")
    for line in untimed[2]:
        print(f"  {line}")
    for msg in problems:
        print(f"  FAILED: {msg}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_report(args, tracer, traced, marks, untraced):
    import layertrace

    lci_checks = sum(1 for o in traced[0].outcomes
                     if o.payload and o.payload["command"].split()[1] in ("lci", "ci"))
    per_pass, works = [], []
    for first, last, before, after in marks:
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        figures, work = layertrace.pass_metrics(
            tracer.spans[first:last], first, delta, lci_checks)
        per_pass.append(figures)
        works.append(work)
    # self times partition each pass's wall time exactly
    gap = max(abs(sum(f[f"{layer}.self_s"] for layer in layertrace.LAYERS)
                  - f["trace.wall_s"]) for f in per_pass)
    figures = layertrace.medians(per_pass)
    # the fastest pass on each side, as for wall_s
    untraced_wall = min(p.wall for p in untraced[1:])
    traced_wall = min(p.wall for p in traced)
    figures["trace.overhead_s"] = traced_wall - untraced_wall
    same = all(w == works[0] for w in works)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    layertrace.write_spans(tracer.spans, OUT_DIR / f"spans-{stem}.tsv")
    counts_path = OUT_DIR / f"counts-{stem}.json"
    previous = None
    if counts_path.is_file():
        previous = json.loads(counts_path.read_text(encoding="utf-8"))
    counts_path.write_text(json.dumps(works[0], indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    print(f"  fastest traced pass {traced_wall:.6f} s, fastest untraced pass "
          f"{untraced_wall:.6f} s: tracing overhead "
          f"{figures['trace.overhead_s']:.6f} s")
    print(f"  layer self times, median per pass (in every pass they add up "
          f"to the traced wall time within {gap:.1e} s):")
    for layer in layertrace.LAYERS:
        print(f"    {layer:13s} {figures[f'{layer}.self_s']:.6f} s")
    for name in sorted(figures):
        if not name.endswith(".self_s"):
            print(f"  {name:28s} {figures[name]:.6f} {layertrace.unit_of(name)}")
    print(f"  work counts identical across {len(works)} traced passes: {same}")
    if previous is not None:
        print(f"  work counts equal to the previous traced run with this "
              f"seed: {previous == works[0]}")
    print(f"  spans written to {OUT_DIR.name}/spans-{stem}.tsv")
    metrics = {k: (v, layertrace.unit_of(k)) for k, v in figures.items()}
    return metrics, works[0] if same else None


if __name__ == "__main__":
    sys.exit(main())
