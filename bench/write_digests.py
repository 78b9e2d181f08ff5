#!/usr/bin/env python3
"""Write the reference output digests anew.

    python3 bench/write_digests.py

Runs one round of every workload for each of the tuning seeds 0-9 and the
held-out seed 7919, and writes the sha256 of its outputs to a fresh
``bench/reference_digests.json``.  ``run.py`` prints whether a run's digest
matches; a mismatch is reported and does not fail the run.  Run this only
when a change is meant to alter the output bytes, and say so in the change.
"""

import json
from pathlib import Path

import run

SEEDS = [*range(10), 7919]


def main() -> None:
    run.import_program()
    import workloads

    table = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            ops = workloads.MAKE_OPS[workload](seed)
            raws = [op.call() for op in ops]
            digest = workloads.output_digest(workload, ops, raws)
            table.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}")
    path = run.REFERENCE_DIGESTS
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {Path(path).relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
