"""Print the replay hash of every benchmark check, one line each.

Run from anywhere inside a cicert checkout:

    python3 tools/core_hashes.py --seed 1 > hashes-seed1.txt

For the given workload seed it runs each check of the three perfbench
workloads and of the untimed stci-search inputs once, as
`perfbench/run.py` does (`benchmark_checks.py`), and prints
`workload/item#index replay_hash`.  The replay hash covers the whole
certificate but its timings, so two checkouts produce byte-identical
certificates on the benchmark exactly when their outputs are equal: a
claim of byte identity is one `diff`.

`quartic-F5-4-trials` is left out: its fourth trial alone runs for
seconds to minutes, depending on the host.
"""

from __future__ import annotations

import argparse
import sys

from benchmark_checks import checks, items

SKIPPED = ("quartic-F5-4-trials",)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the workload seed, as perfbench/run.py takes it")
    args = parser.parse_args(argv)
    for label, item in items(args.seed, skipped=SKIPPED):
        for i, check in enumerate(checks(item)):
            print(f"{label}/{item.name}#{i} {check()['replay_hash']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
