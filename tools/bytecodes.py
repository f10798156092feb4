"""Print the Python bytecodes each benchmark check runs, and each pass.

Run from anywhere inside a cicert checkout:

    python3 tools/bytecodes.py --seed 1
    python3 tools/bytecodes.py --seed 1 --workload stci-search
    python3 tools/bytecodes.py --import

For the given workload seed it runs each check of the perfbench
workloads, or of the one named, once, as `perfbench/run.py` does
(`benchmark_checks.py`), and prints
`workload/item#index count`, then one `workload/pass count` line per
workload.  A count is the number of `sys.settrace` opcode events while
`cicert.cli.run_command` runs: the interpreter's work, free of timer
noise, so two checkouts compare with one `diff`.  Parsing a session is
not counted.  A workload's counts can differ by a few dozen when other
workloads ran before it in the process, since some caches outlive a
session, so compare runs made with the same `--workload`.

With `--import` it prints one count instead: the opcode events of
`import cicert` in a fresh interpreter, traced from before the import,
which is the Python work of a `cicert` start.  The import writes no
bytecode cache; a cache already beside the sources would be read and
change the count.  Compiling the sources is C work and is not counted,
and neither is the interpreter's own start.

Tracing every opcode makes a check run about fifteen times slower than
untraced.
"""

from __future__ import annotations

import argparse
import inspect
import os
import subprocess
import sys

from benchmark_checks import ROOT, checks, items, workloads


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


def import_events():
    """The opcode events of `import cicert` in a fresh interpreter that
    writes no bytecode cache: `counted` runs there on the import."""
    code = f"import sys\n{inspect.getsource(counted)}\nprint(counted(__import__, 'cicert')[1])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int,
                        help="the workload seed, as perfbench/run.py takes it")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="count only this workload (default: all of them)")
    parser.add_argument("--import", dest="import_only", action="store_true",
                        help="count `import cicert` in a fresh interpreter instead")
    args = parser.parse_args(argv)
    if args.import_only:
        print(f"import {import_events()}", flush=True)
        return 0
    if args.seed is None:
        parser.error("--seed is required without --import")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        total = 0
        for _label, item in items(args.seed, (name,), untimed=False):
            for i, check in enumerate(checks(item)):
                _payload, events = counted(check)
                total += events
                print(f"{name}/{item.name}#{i} {events}", flush=True)
        print(f"{name}/pass {total}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
