"""The benchmark's checks, run as `perfbench/run.py` runs them, for the
scripts of this directory.

Importing it puts `src/` and `perfbench/` on the import path, so a
script run from anywhere inside a cicert checkout reads that
checkout's engine and workloads (`perfbench/workloads.py`, read only),
and no cache file is written beside them.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files beside perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cicert.cli import RunOptions, run_command  # noqa: E402
from cicert.dsl import parse_session  # noqa: E402
from cicert.groebner import Budgets  # noqa: E402

import workloads  # noqa: E402


def items(seed, names=tuple(workloads.WORKLOADS), untimed=True, skipped=()):
    """(label, Item) for every session of the workloads `names` at
    `seed`, labelled by workload, then, when `untimed`, for every untimed
    stci-search input not named in `skipped`, labelled "untimed"."""
    for name in names:
        for item in workloads.WORKLOADS[name](seed):
            yield name, item
    if untimed:
        for item, _stuck in workloads.untimed_inputs(seed):
            if item.name not in skipped:
                yield "untimed", item


def checks(item):
    """One call per check of the item's session, in order: each runs
    `cicert.cli.run_command` with the item's trial budget and the one
    basis store of the session, and returns the certificate payload."""
    options = RunOptions(budgets=Budgets(trials=item.trials))
    session = parse_session(item.text)
    return [functools.partial(run_command, session, i, options)
            for i in range(len(session.commands))]
