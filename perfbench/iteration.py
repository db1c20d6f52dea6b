"""One benchmark iteration, in a fresh process: set up, run a workload, report.

Usage (run.py starts this; the osclab sources must be on PYTHONPATH):

    python3 perfbench/iteration.py --workload W --seed N --out DIR --result FILE
                                   [--trace-request I --spans FILE]

``setup_s`` is the time from before ``import osclab.cli`` (which also loads
numpy and scipy) until every config of the workload is loaded and
validated.  ``run_s`` is the wall time of the workload's ``run_experiment``
calls, each writing to its own fresh directory under ``--out``.
The calibration kernel is timed before the first call and after each one;
``run_cal_s`` is the sum over calls of each call's wall time divided by the
mean of the two kernel times around it, and ``setup_cal_s`` is ``setup_s``
divided by the first kernel time, both multiplied by
``calibrate.REFERENCE_S``.  With ``--trace-request`` the span tracer is
installed after set-up, and its per-layer metrics go into the result and its
spans into ``--spans``.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import calibrate
from answers import extract
from spans import Tracer
from workloads import WORKLOADS, config_path, seeded_overrides


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-request", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    root = os.getcwd()
    runs = [(r.label, config_path(root, r.config), seeded_overrides(root, r, args.seed))
            for r in WORKLOADS[args.workload].runs]

    t0 = time.perf_counter()
    import osclab.cli as cli

    for _label, path, overrides in runs:
        cli.ExperimentConfig.load(path, overrides)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace_request is not None:
        tracer = Tracer(args.trace_request)
        tracer.install()

    run_times = {}
    calibrate.sample()  # warm-up: the first call pays for cold code paths
    cal_s = [calibrate.sample()]
    for label, path, overrides in runs:
        t = time.perf_counter()
        cli.run_experiment(path, os.path.join(args.out, label), overrides)
        run_times[label] = time.perf_counter() - t
        cal_s.append(calibrate.sample())
    run_s = sum(run_times.values())
    run_cal_s = calibrate.REFERENCE_S * sum(
        t / ((cal_s[k] + cal_s[k + 1]) / 2) for k, t in enumerate(run_times.values()))
    setup_cal_s = calibrate.REFERENCE_S * setup_s / cal_s[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    answers = {}
    for label, _path, _overrides in runs:
        with open(os.path.join(args.out, label, "report.json"), "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        answers[label] = extract(json.loads(raw))

    result = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "run_s": run_s,
        "run_cal_s": run_cal_s,
        "cal_s": cal_s,
        "run_times": run_times,
        "peak_rss_mb": peak_rss_mb,
        "report_digest": digest.hexdigest(),
        "answers": answers,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(run_s, run_times)
        with open(args.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
