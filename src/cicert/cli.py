"""Command dispatcher and command-line entry point.

Exit codes: 0 all checks verified, 1 some check refuted, 2 some check
inconclusive (budget), 3 input error (bad session, violated
precondition, unreadable certificate).  Replay mode re-executes the
recorded command with the recorded seed and budgets and exits 0 only if
the certificate reproduces byte-for-byte (timings aside).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import certificates
from .certificates import SchemaError
from .dsl import DslParseError, Session, parse_session
from .groebner import Budget, BudgetExceededError, IdealHandle
from .homology import ext_module, free_resolution, koszul2_exactness
from .ideals import (
    RadicalEqualityCertificate,
    dimension_height,
    radical_equal,
    radical_member,
)
from .pipeline import (
    Budgets,
    CICertificate,
    InputError,
    LCIProxyCertificate,
    RegSeqCertificate,
    RegularizationResult,
    STCICertificate,
    ci_from_free_conormal,
    is_regular_sequence,
    lci_certificate,
    mod_square_generation,
    regularize_generators,
    stci_search,
    stci_verify,
)
from .poly import GF, QQ

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


@dataclass
class RunOptions:
    seed: int = 0
    budgets: Budgets = field(default_factory=Budgets)
    field_text: str | None = None


def parse_field(text):
    if text == "QQ":
        return QQ
    if text.startswith("Fp:"):
        return GF(int(text.split(":", 1)[1]))
    raise InputError(f"bad field spec {text!r}, expected QQ or Fp:<p>")


# ---------------------------------------------------------------------------
# command execution


def _ring_for(session: Session, command) -> object:
    if "ideal" in command.args:
        return session.ideals[command.args["ideal"]].ring
    if "left" in command.args:
        return session.ideals[command.args["left"]].ring
    if "sequence" in command.args:
        return command.args["sequence"][0].ring
    if "pair" in command.args:
        return command.args["pair"][0].ring
    if "element" in command.args:
        return command.args["element"].ring
    raise InputError("command without a ring context")


def _dispatch(session: Session, command, options: RunOptions):
    """Returns (verdict, witnesses, gb_hashes)."""
    args = command.args
    budgets = options.budgets
    seed = options.seed
    hashes = {}

    def ideal(key="ideal") -> IdealHandle:
        return session.ideals[args[key]]

    if command.name == "member":
        handle = ideal()
        nf = handle.normal_form(args["element"])
        hashes["ideal"] = handle.gb_hash()
        verdict = "verified" if nf.is_zero else "refuted"
        return verdict, {"element": str(args["element"]),
                         "normal_form": str(nf)}, hashes

    if command.name == "radical-member":
        handle = ideal()
        w = radical_member(args["element"], handle, want_exponent=True,
                           e_max=budgets.e_max)
        hashes["ideal"] = handle.gb_hash()
        return ("verified" if w.member else "refuted"), w.payload(), hashes

    if command.name == "radical-equal":
        left, right = session.ideals[args["left"]], session.ideals[args["right"]]
        outcome = radical_equal(left, right, e_max=budgets.e_max)
        hashes["left"] = left.gb_hash()
        hashes["right"] = right.gb_hash()
        if isinstance(outcome, RadicalEqualityCertificate):
            return "verified", outcome.payload(), hashes
        return "refuted", outcome.payload(), hashes

    if command.name == "dimension":
        handle = ideal()
        report = dimension_height(handle)
        hashes["ideal"] = handle.gb_hash()
        return "verified", report.payload(), hashes

    if command.name == "regular-sequence":
        base = session.ideals[args["mod"]] if "mod" in args else None
        outcome = is_regular_sequence(args["sequence"], base)
        if isinstance(outcome, RegSeqCertificate):
            return "verified", outcome.payload(), hashes
        return "refuted", outcome.payload(), hashes

    if command.name == "koszul-exact":
        x, y = args["pair"]
        verdict = koszul2_exactness(x, y)
        return ("verified" if verdict.exact else "refuted"), verdict.payload(), hashes

    if command.name == "lci":
        outcome = lci_certificate(ideal())
        ok = isinstance(outcome, LCIProxyCertificate)
        return ("verified" if ok else "refuted"), outcome.payload(), hashes

    if command.name == "mod-square":
        outcome = mod_square_generation(ideal(), args["candidates"])
        return ("verified" if outcome.holds else "refuted"), outcome.payload(), hashes

    if command.name == "ci":
        outcome = ci_from_free_conormal(ideal(), args["pair"], seed, budgets)
        if isinstance(outcome, CICertificate):
            return "verified", outcome.payload(), hashes
        return "inconclusive", outcome.payload(), hashes

    if command.name == "stci":
        outcome = stci_verify(ideal(), args["pair"], budgets)
        if isinstance(outcome, STCICertificate):
            return "verified", outcome.payload(), hashes
        return "refuted", outcome.payload(), hashes

    if command.name == "stci-search":
        result = stci_search(ideal(), seed, budgets)
        info = {"via": result.via, "trials": result.trials,
                "field_extension": result.extension}
        if result.certificate is not None:
            return "verified", {**info, **result.outcome.payload()}, hashes
        return "inconclusive", {**info, **result.outcome.payload()}, hashes

    if command.name == "regularize":
        handle = ideal()
        outcome = regularize_generators(handle, handle.gens, seed, budgets)
        if isinstance(outcome, RegularizationResult):
            return "verified", outcome.payload(), hashes
        return "inconclusive", outcome.payload(), hashes

    if command.name == "ext-cyclic":
        outcome = ext_module(ideal(), args["degree"])
        verdict = "verified" if outcome.locally_cyclic else "refuted"
        return verdict, outcome.payload(), hashes

    if command.name == "resolution":
        res = free_resolution(ideal(), args["length"])
        ok = res.verify()
        payload = {
            "betti": list(res.betti),
            "matrices": [[[str(e) for e in row] for row in m]
                         for m in res.matrices],
            "composition_zero": ok,
            "minimized": res.minimized,
        }
        return ("verified" if ok else "refuted"), payload, hashes

    raise InputError(f"unknown command {command.name!r}")


def run_command(session: Session, index: int, options: RunOptions) -> dict:
    """Execute one check and produce its certificate payload."""
    command = session.commands[index]
    started = time.perf_counter()
    try:
        with Budget(options.budgets.gb_steps):
            verdict, witnesses, hashes = _dispatch(session, command, options)
    except BudgetExceededError as exc:
        verdict = "inconclusive"
        witnesses = {"reason": str(exc)}
        hashes = {}
    payload = {
        "session": session.text,
        "command": command.text,
        "command_index": index,
        "ring": _ring_for(session, command).payload(),
        "field_override": options.field_text,
        "seed": options.seed,
        "budgets": asdict(options.budgets),
        "verdict": verdict,
        "witnesses": witnesses,
        "gb_hashes": hashes,
        # decimal text: certificate files never carry floating point
        "timings": {"total_s": f"{time.perf_counter() - started:.6f}"},
    }
    return certificates.finalize(payload)


def run_session(text: str, options: RunOptions | None = None):
    """Run every check of a session; returns (payloads, exit_code)."""
    options = options or RunOptions()
    override = parse_field(options.field_text) if options.field_text else None
    session = parse_session(text, field_override=override)
    payloads = []
    worst = EXIT_VERIFIED
    rank = {"verified": EXIT_VERIFIED, "refuted": EXIT_REFUTED,
            "inconclusive": EXIT_INCONCLUSIVE}
    for i in range(len(session.commands)):
        payload = run_command(session, i, options)
        payloads.append(payload)
        worst = max(worst, rank[payload["verdict"]])
    return payloads, worst


# ---------------------------------------------------------------------------
# replay


def replay_payload(stored: dict):
    """Re-execute a stored certificate; returns (verdict, ok)."""
    if certificates.replay_hash(stored) != stored.get("replay_hash"):
        return stored.get("verdict"), False
    try:
        budgets = Budgets(**stored["budgets"])
        options = RunOptions(seed=stored["seed"], budgets=budgets,
                             field_text=stored.get("field_override"))
        text, index = stored["session"], stored["command_index"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed certificate: {exc!r}") from exc
    numbers = (index, options.seed, budgets.gb_steps, budgets.trials,
               budgets.e_max, budgets.degree_bound or 0)
    if not all(isinstance(v, int) for v in numbers) or not isinstance(text, str) \
            or not isinstance(options.field_text or "", str):
        raise SchemaError("malformed certificate: a recorded field has the wrong type")
    override = parse_field(options.field_text) if options.field_text else None
    session = parse_session(text, field_override=override)
    if not 0 <= index < len(session.commands):
        raise SchemaError(f"command_index {index} is not a check of the session")
    fresh = run_command(session, index, options)
    ok = certificates.core_payload(fresh) == certificates.core_payload(stored)
    return fresh["verdict"], ok


# ---------------------------------------------------------------------------
# entry point


def _out_path(base: Path, index: int, total: int) -> Path:
    if total == 1:
        return base
    return base.with_name(f"{base.stem}.{index + 1}{base.suffix}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cicert",
        description="Groebner-backed complete-intersection certificates")
    parser.add_argument("session", nargs="?", help="session file (.ck)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-gb-steps", type=int, default=Budgets.gb_steps)
    parser.add_argument("--budget-trials", type=int, default=Budgets.trials)
    parser.add_argument("--degree-bound", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None,
                        help="write certificate files here")
    parser.add_argument("--replay", type=Path, default=None,
                        help="replay a certificate file instead of running")
    parser.add_argument("--field", default=None,
                        help="override every ring's field: QQ or Fp:<p>")
    args = parser.parse_args(argv)

    if (args.replay is None) == (args.session is None):
        parser.print_usage(sys.stderr)
        print("cicert: need a session file or --replay", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.replay is not None:
        try:
            stored = certificates.load_certificate(args.replay)
            verdict, ok = replay_payload(stored)
        except (OSError, KeyError, ValueError) as exc:
            print(f"cicert: replay failed: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        if ok:
            print(f"[replay-ok] {stored['command']} -> {verdict}")
            return EXIT_VERIFIED
        print(f"[replay-defect] {stored['command']}: certificate does not "
              f"reproduce", file=sys.stderr)
        return EXIT_REFUTED

    budgets = Budgets(gb_steps=args.budget_gb_steps, trials=args.budget_trials,
                      degree_bound=args.degree_bound)
    options = RunOptions(seed=args.seed, budgets=budgets, field_text=args.field)
    try:
        text = Path(args.session).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cicert: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        payloads, code = run_session(text, options)
    except (DslParseError, InputError, ValueError) as exc:
        print(f"cicert: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for i, payload in enumerate(payloads):
        line = f"[{payload['verdict']}] {payload['command']}"
        if args.out is not None:
            path = _out_path(args.out, i, len(payloads))
            try:
                certificates.write_certificate(path, payload)
            except OSError as exc:
                print(f"cicert: cannot write {path}: {exc}", file=sys.stderr)
                return EXIT_INPUT_ERROR
            line += f" -> {path}"
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
