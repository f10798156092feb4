"""Print the Python bytecodes each benchmark check runs, and each pass.

Run from anywhere inside a cicert checkout:

    python3 tools/bytecodes.py --seed 1
    python3 tools/bytecodes.py --seed 1 --workload stci-search

For the given workload seed it builds the sessions of the perfbench
workloads (`perfbench/workloads.py`, read only), or of the one named,
runs each check once as `perfbench/run.py` does, with the item's trial
budget in `RunOptions` and one basis store per session, and prints
`workload/item#index count`, then one `workload/pass count` line per
workload.  A count is the number of `sys.settrace` opcode events while
`cicert.cli.run_command` runs: the interpreter's work, free of timer
noise, so two checkouts compare with one `diff`.  Parsing a session is
not counted.  A workload's counts can differ by a few dozen when other
workloads ran before it in the process, since some caches outlive a
session, so compare runs made with the same `--workload`.

Tracing every opcode makes a check run about fifteen times slower than
untraced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files beside perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cicert.cli import RunOptions, run_command  # noqa: E402
from cicert.dsl import parse_session  # noqa: E402
from cicert.pipeline import Budgets  # noqa: E402

import workloads  # noqa: E402


def counted(call, *args):
    """(call(*args), the opcode events it ran)."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "opcode":
            events += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        result = call(*args)
    finally:
        sys.settrace(None)
    return result, events


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the workload seed, as perfbench/run.py takes it")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="count only this workload (default: all of them)")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        total = 0
        for item in workloads.WORKLOADS[name](args.seed):
            options = RunOptions(budgets=Budgets(trials=item.trials))
            session = parse_session(item.text)
            for i in range(len(session.commands)):
                _payload, events = counted(run_command, session, i, options)
                total += events
                print(f"{name}/{item.name}#{i} {events}", flush=True)
        print(f"{name}/pass {total}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
