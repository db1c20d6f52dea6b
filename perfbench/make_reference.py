"""Regenerate reference.json: each workload's verdicts and constants at the default seed.

    python3 perfbench/make_reference.py

Runs one untraced iteration per workload and stores the extraction of its
reports (see answers.py).  The stored reference comes from the seed commit;
regenerate it only when a change is meant to alter the answers, and say so.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    run_dir = os.path.join(run.WORK, "reference")
    os.makedirs(run_dir, exist_ok=True)
    for name in WORKLOADS:
        result, error = run.run_iteration(name, DEFAULT_SEED, run_dir, 0, False, timeout=170)
        if result is None:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        reference[name] = result["answers"]
        print(f"{name}: {sum(len(a['constants']) for a in result['answers'].values())} constants")
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
