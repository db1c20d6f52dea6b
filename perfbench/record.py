"""Run every workload untraced and traced at the default seed; print and record the result.

    python3 perfbench/record.py [--seconds 55]

Prints each workload's end-to-end metrics with units (run_cal_s with quartiles,
setup_s, peak_rss_mb, fail_frac, const_rel_dev, report_variants), applies the
answer check, checks the workload design claims against the traced layer
shares, and writes everything, with the environment, to
perfbench/record.json.  A claim the measurement contradicts is reported as
measured, not hidden.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
from spans import LAYERS, PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS


def design_claims(results: dict) -> dict[str, bool]:
    def top_layer(workload: str) -> str:
        per_layer = results[workload]["per_layer"]
        return max(LAYERS, key=lambda layer: per_layer[f"{layer}.share"])

    rss = {w: r["end_to_end"]["peak_rss_mb"]["value"] for w, r in results.items()}
    return {
        "operators has the largest self-time share in sharp-max": top_layer("sharp-max") == "operators",
        "cubes has the largest self-time share in cube-harness": top_layer("cube-harness") == "cubes",
        "semigroup_apply.stencil.calls is 0 outside sharp-max": all(
            (r["per_layer"]["operators.semigroup_apply.stencil.calls"] > 0) == (w == "sharp-max")
            for w, r in results.items()),
        "sharp-max has the highest peak_rss_mb": max(rss, key=rss.get) == "sharp-max",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    args = ap.parse_args()
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        reference = json.load(fh)
    results = {}
    ok = True
    for name, workload in WORKLOADS.items():
        summary = {}
        for trace in (False, True):
            raw = run.measure(name, DEFAULT_SEED, args.seconds, trace, reference[name],
                              time.monotonic() + run.DEADLINE_S)
            summary[trace] = run.summarize(raw, trace) | {"errors": raw["errors"]}
        e2e = summary[False]["end_to_end"]
        failed = summary[False]["failed"] + summary[True]["failed"]
        ok &= failed == 0 and e2e["report_variants"]["value"] == 1 and e2e["const_rel_dev"]["value"] == 0
        results[name] = {
            "why": workload.why,
            "end_to_end": e2e,
            "per_layer": summary[True]["per_layer"],
            "errors": summary[False]["errors"] + summary[True]["errors"],
        }
        print(f"{name}")
        run.print_metrics(e2e, {})
        shares = ", ".join(f"{layer} {results[name]['per_layer'][layer + '.share']:.3f}"
                           for layer in LAYERS)
        print(f"  shares: {shares}")
        print(f"  trace.overhead_frac {results[name]['per_layer']['trace.overhead_frac']:.3f}")
        for err in results[name]["errors"][:5]:
            print("  FAIL " + err)
    claims = design_claims(results)
    for claim, holds in claims.items():
        print(f"{'holds' if holds else 'CONTRADICTED'}: {claim}")
    record = {
        "env": run.environment(),
        "seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "per_layer_units": {name: unit for name, unit, _better in PER_LAYER},
        "claims": claims,
        "workloads": results,
    }
    with open(os.path.join(run.HERE, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
