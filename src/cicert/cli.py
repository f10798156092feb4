"""Command dispatcher and command-line entry point.

Exit codes: 0 all checks verified, 1 some check refuted, 2 some check
inconclusive (budget), 3 input error (bad session, violated
precondition, unreadable certificate).  Replay mode re-executes the
recorded command with the recorded seed and budgets and exits 0 only if
the certificate reproduces byte-for-byte (timings aside).
"""

from __future__ import annotations

import sys
import time
import weakref
from pathlib import Path

from . import certificates
from .certificates import Replayable, SchemaError
from .dsl import DslParseError, Session, parse_session
from .groebner import BasisStore, Budget, BudgetExceededError, Budgets, InputError
from .homology import ext_module, free_resolution, koszul2_exactness
from .ideals import dimension_height, radical_equal, radical_member
from .pipeline import (
    Inconclusive,
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


class RunOptions:
    def __init__(self, seed: int = 0, budgets: Budgets | None = None,
                 field_text: str | None = None):
        self.seed = seed
        self.budgets = Budgets() if budgets is None else budgets
        self.field_text = field_text


def parse_field(text):
    if text == "QQ":
        return QQ
    if text.startswith("Fp:"):
        return GF(int(text.split(":", 1)[1]))
    raise InputError(f"bad field spec {text!r}, expected QQ or Fp:<p>")


# ---------------------------------------------------------------------------
# command execution


def _verdict(outcome) -> str:
    """An outcome certifies its check exactly when it is `Replayable`;
    `Inconclusive` means a search ran out, and any other outcome refutes.
    `ProjectiveRankCertificate`, the one `Replayable` that may record a
    failure, is never a check's outcome: `lci_certificate` wraps it."""
    if isinstance(outcome, Replayable):
        return "verified"
    return "inconclusive" if isinstance(outcome, Inconclusive) else "refuted"


def _dispatch(session: Session, command, options: RunOptions):
    """Returns (verdict, witnesses, gb_hashes).

    Each check is one producer call.  The flag-returning producers decide
    their check by their flag; every other outcome goes through
    `_verdict`.  Producers are looked up by module-level name when they
    are called, so a wrapper installed on this module sees every call.
    """
    args = command.args
    name = command.name
    I = session.ideals.get(args.get("ideal"))
    flag = witnesses = None
    if name == "member":
        nf = I.normal_form(args["element"])
        flag = nf.is_zero
        witnesses = {"element": str(args["element"]), "normal_form": str(nf)}
    elif name == "radical-member":
        outcome = radical_member(args["element"], I)
        flag = outcome.member
    elif name == "dimension":
        outcome = dimension_height(I)
        flag = True
    elif name == "koszul-exact":
        outcome = koszul2_exactness(*args["pair"])
        flag = outcome.exact
    elif name == "mod-square":
        outcome = mod_square_generation(I, args["candidates"])
        flag = outcome.holds
    elif name == "ext-cyclic":
        outcome = ext_module(I, args["degree"])
        flag = outcome.locally_cyclic
    elif name == "resolution":
        res = free_resolution(I, args["length"])
        flag = res.verify()
        witnesses = {
            "betti": list(res.betti),
            "matrices": [[[str(e) for e in row] for row in m]
                         for m in res.matrices],
            "composition_zero": flag,
            "minimized": res.minimized,
        }
    elif name == "radical-equal":
        outcome = radical_equal(session.ideals[args["left"]], session.ideals[args["right"]])
    elif name == "regular-sequence":
        mod = {"base": session.ideals[args["mod"]]} if "mod" in args else {}
        outcome = is_regular_sequence(args["sequence"], **mod)
    elif name == "lci":
        outcome = lci_certificate(I)
    elif name == "ci":
        outcome = ci_from_free_conormal(I, args["pair"], options.seed)
    elif name == "stci":
        outcome = stci_verify(I, args["pair"])
    elif name == "stci-search":
        result = stci_search(I, options.seed)
        outcome = result.outcome
        # the search runs over the ring's own field only; the key stays,
        # always null, so the certificate format does not change
        witnesses = {"via": result.via, "trials": result.trials,
                     "field_extension": None, **outcome.payload()}
    elif name == "regularize":
        outcome = regularize_generators(I, I.gens, options.seed)
    else:
        raise InputError(f"unknown command {name!r}")
    if witnesses is None:
        witnesses = outcome.payload()
    if name in ("member", "radical-member", "dimension"):
        hashes = {"ideal": I.gb_hash()}
    elif name == "radical-equal":
        hashes = {side: session.ideals[args[side]].gb_hash()
                  for side in ("left", "right")}
    else:
        hashes = {}
    if flag is None:
        return _verdict(outcome), witnesses, hashes
    return ("verified" if flag else "refuted"), witnesses, hashes


# [weak reference to a session, the basis store of its checks]: one slot,
# held by the session whose checks ran last and emptied when it is dropped
_STORE_SLOT: list = [None, None]


def _basis_store(session: Session) -> BasisStore:
    """The basis store shared by the checks of `session`; a check of
    another session starts a fresh one."""
    ref, store = _STORE_SLOT
    if ref is None or ref() is not session:
        store = BasisStore()
        _STORE_SLOT[:] = weakref.ref(session, _drop_store), store
    return store


def _drop_store(ref):
    if _STORE_SLOT[0] is ref:
        _STORE_SLOT[:] = None, None


def run_command(session: Session, index: int, options: RunOptions) -> dict:
    """Execute one check and produce its certificate payload.  Every basis
    an earlier check of the session computed is reused, charged at the
    steps it cost, so the check is charged what it would be alone."""
    command = session.commands[index]
    started = time.perf_counter()
    try:
        with Budget(options.budgets, store=_basis_store(session)):
            verdict, witnesses, hashes = _dispatch(session, command, options)
    except BudgetExceededError as exc:
        verdict = "inconclusive"
        witnesses = {"reason": str(exc)}
        hashes = {}
    payload = {
        "session": session.text,
        "command": command.text,
        "command_index": index,
        "ring": command.ring.payload(),
        "field_override": options.field_text,
        "seed": options.seed,
        "budgets": dict(vars(options.budgets)),  # the four Budgets fields, all scalars
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
    except (KeyError, TypeError, InputError) as exc:
        raise SchemaError(f"malformed certificate: {exc!r}") from exc
    numbers = (index, options.seed, budgets.gb_steps, budgets.trials,
               budgets.e_max, budgets.degree_bound or 0)
    # no run records a bool, though bool is a subclass of int
    if not all(type(v) is int for v in numbers) or not isinstance(text, str) \
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


# the flag that sets each field of Budgets
_FLAGS = {"gb_steps": "--budget-gb-steps", "trials": "--budget-trials",
          "degree_bound": "--degree-bound"}


def main(argv=None) -> int:
    import argparse  # here, so that `import cicert` does not load it

    class _ArgumentParser(argparse.ArgumentParser):
        """An argument parser whose usage errors exit with EXIT_INPUT_ERROR:
        argparse's own status, 2, is EXIT_INCONCLUSIVE here."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")

    parser = _ArgumentParser(
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
    try:
        budgets = Budgets(gb_steps=args.budget_gb_steps, trials=args.budget_trials,
                          degree_bound=args.degree_bound)
    except InputError as exc:  # "<field> must be at least ...": name the flag instead
        field, rest = str(exc).split(" ", 1)
        print(f"cicert: {_FLAGS[field]} {rest}", file=sys.stderr)
        return EXIT_INPUT_ERROR

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
