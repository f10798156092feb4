"""Print the replay hash of every benchmark check, one line each.

Run from anywhere inside a cicert checkout:

    python3 tools/core_hashes.py --seed 1 > hashes-seed1.txt

For the given workload seed it builds the sessions of the three
perfbench workloads and the untimed stci-search inputs
(`perfbench/workloads.py`, read only), runs each check once as
`perfbench/run.py` does, with the item's trial budget in `RunOptions`,
and prints `workload/item#index replay_hash`.  The replay hash covers
the whole certificate but its timings, so two checkouts produce
byte-identical certificates on the benchmark exactly when their outputs
are equal: a claim of byte identity is one `diff`.

`quartic-F5-4-trials` is left out: its fourth trial alone runs for
seconds to minutes, depending on the host.
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

SKIPPED = ("quartic-F5-4-trials",)


def items(seed):
    """(label, Item) for every benchmark session at `seed`."""
    for name, build in workloads.WORKLOADS.items():
        for item in build(seed):
            yield name, item
    for item, _stuck in workloads.untimed_inputs(seed):
        if item.name not in SKIPPED:
            yield "untimed", item


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the workload seed, as perfbench/run.py takes it")
    args = parser.parse_args(argv)
    for label, item in items(args.seed):
        options = RunOptions(budgets=Budgets(trials=item.trials))
        session = parse_session(item.text)
        for i in range(len(session.commands)):
            payload = run_command(session, i, options)
            print(f"{label}/{item.name}#{i} {payload['replay_hash']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
