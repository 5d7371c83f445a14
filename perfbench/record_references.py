#!/usr/bin/env python3
"""Record the reference digests of the simulated records.

    python3 perfbench/record_references.py

Runs one iteration of every workload for every seed of
``cells.REFERENCE_SEEDS`` and rewrites ``references.json`` with the digest
of every operation's simulated record.  Re-record only for a change that
is meant to move simulated results.
"""

from __future__ import annotations

import json
import sys

from run import import_simulator


def main() -> int:
    import_simulator()
    import cells

    references: dict = {}
    for name, workload in cells.WORKLOADS.items():
        for seed in cells.REFERENCE_SEEDS:
            units = workload(seed).units()
            cells.execute(units)
            ops = cells.iteration_ops(units, None)
            failed = cells.failures(ops)
            if failed:
                print(f"{name} seed {seed}: {failed[0].name}: "
                      f"{failed[0].problems}", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = {
                op.name: cells.digest(op.record) for op in ops}
            print(f"{name} seed {seed}: {len(ops)} operations", flush=True)
    with open(cells.REFERENCES, "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
