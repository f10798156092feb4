"""Print the S-pairs reduced, those reduced to zero, and the producer
results served from the session memo, per benchmark item.

Run from anywhere inside a cicert checkout:

    python3 tools/spair_counts.py --seed 1

For the given workload seed it runs each session of the three
perfbench workloads and of the untimed stci-search inputs once, as
`perfbench/run.py` does (`benchmark_checks.py`), and prints
`workload/item reduced zero memo`, then one `workload/total` line per
workload.  `reduced` counts the S-pair reductions the Buchberger core
runs, `zero` those whose remainder is zero; a basis reused from the
session's store runs none.  `memo` counts the calls of a memoized
producer other than the module basis (`lci_certificate`,
`mod_square_generation`, `is_regular_sequence`, `free_resolution`,
`dimension_height`) answered from the store.  The counts are
deterministic, so two checkouts compare with one `diff`.

`quartic-F5-4-trials` is included: it takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from benchmark_checks import checks, items

from cicert import groebner


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the workload seed, as perfbench/run.py takes it")
    args = parser.parse_args(argv)
    counts = Counter()
    reduce = groebner._vec_reduce

    def counted(work, basis, ring, exact=False):
        # the Buchberger core is the only caller that keeps the scale in
        r = reduce(work, basis, ring, exact)
        if not exact:
            counts["reduced"] += 1
            counts["zero"] += not r
        return r

    module_basis = groebner._module_basis.__wrapped__
    lookup = groebner.BasisStore.get

    def served(store, key, default=None):
        # a memoized call looks up the key (its function, ...) here first
        entry = lookup(store, key, default)
        counts["memo"] += entry is not None and key.parts[0] is not module_basis
        return entry

    groebner._vec_reduce = counted
    groebner.BasisStore.get = served
    totals = {}
    for label, item in items(args.seed):
        counts.clear()
        for check in checks(item):
            check()
        print(f"{label}/{item.name} {counts['reduced']} {counts['zero']} {counts['memo']}",
              flush=True)
        totals.setdefault(label, Counter()).update(counts)
    for label, total in totals.items():
        print(f"{label}/total {total['reduced']} {total['zero']} {total['memo']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
