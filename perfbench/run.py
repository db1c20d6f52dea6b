"""osclab benchmark: closed-loop cold runs of one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sharp-max --seed 0 --seconds 55 --trace 0

One client runs iterations strictly one at a time; each iteration is a fresh
Python process (iteration.py) that starts only after the previous one has
exited, so every iteration pays what one ``osclab run`` pays and no cache
survives between iterations.  A new iteration starts while the measured time
plus the median iteration so far fits in ``--seconds``, and always until the
minimum count is reached.  Iterations cycle through the benchmark seed's
input seeds (workloads.input_seed).  Every iteration's reports are checked
against reference.json: the verdicts always, the constants on input seed 0.

``--trace 0`` reports the end-to-end metrics, every iteration untraced, as
medians over iterations.  Both timings are calibrated, because on a shared
host the raw wall time of the same code drifts by up to 1.7x between runs:
``run_cal_s`` divides each call's wall time by a fixed calibration kernel
timed around it in the same process (calibrate.py), and ``setup_s`` divides
the set-up time by the kernel timed right after it.  The raw wall times
(``run_s``, ``setup_wall_s``) are printed beside them.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (medians over traced iterations) plus the tracing overhead;
the spans of each traced iteration are written to
``.perfbench/<run>/spans-<i>.json``.  Human-readable lines come first; the
last line of standard output is the JSON result; the line starting ``env``
records the machine and library versions the numbers belong to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from answers import compare
from spans import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS, input_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

RUN_SECONDS = 55  # BENCHMARK.json run_seconds
MIN_UNTRACED = 3  # iterations per --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run
MAX_ITERATIONS = 500
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Within the cap of nproc: the pipeline runs one thread at a time, and idle
# BLAS worker threads would spin on another core and add noise.
BLAS_THREADS = 1

END_TO_END = (("run_cal_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("report_variants", "count"))
# Metric -> the iteration-result key its median is taken over; run_s and
# setup_wall_s are the raw wall times, printed but not reported.
RESULT_KEYS = {"run_cal_s": "run_cal_s", "setup_s": "setup_cal_s", "peak_rss_mb": "peak_rss_mb",
               "run_s": "run_s", "setup_wall_s": "setup_s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_iteration(workload: str, seed: int, run_dir: str, i: int, traced: bool,
                  timeout: float) -> tuple[dict | None, str]:
    """Run iteration ``i`` on input seed ``seed`` in a fresh process; (result or None, error text)."""
    out = os.path.join(run_dir, f"it{i}")
    result_path = os.path.join(run_dir, f"result-{i}.json")
    cmd = [sys.executable, os.path.join(HERE, "iteration.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--result", result_path]
    if traced:
        cmd += ["--trace-request", str(i), "--spans", os.path.join(run_dir, f"spans-{i}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"iteration {i} timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"iteration {i} exited {proc.returncode}: {tail[0]}"
    with open(result_path) as fh:
        return json.load(fh), ""


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict,
            deadline: float) -> dict:
    """Run the closed loop and check every iteration's answers; returns the raw summary."""
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Warm-up, not measured: compiles bytecode and loads the libraries into
    # the page cache once, as an installed osclab would have them.
    subprocess.run([sys.executable, "-c", "import osclab.cli"], cwd=ROOT, env=child_env(),
                   check=True, capture_output=True, timeout=60)

    done: dict[bool, list[dict]] = {False: [], True: []}  # keyed by "traced"
    errors: list[str] = []
    digests: dict[int, set[str]] = {}  # report digests by input seed
    worst_dev = 0.0
    walls: list[float] = []
    attempted = 0
    start = time.monotonic()
    while attempted < MAX_ITERATIONS:
        if trace:
            enough = min(len(done[False]), len(done[True])) >= MIN_PAIRS
        else:
            enough = len(done[False]) >= MIN_UNTRACED
        now = time.monotonic()
        typical = statistics.median(walls) if walls else 0.0
        if (enough and now - start + typical > seconds) or now + max(walls, default=0.0) > deadline:
            break
        is_traced = trace and attempted % 2 == 1
        inputs = input_seed(seed, attempted)
        result, error = run_iteration(workload, inputs, run_dir, attempted, is_traced,
                                      timeout=max(1.0, deadline - now))
        walls.append(time.monotonic() - now)
        attempted += 1
        if result is None:
            errors.append(error)
            continue
        digests.setdefault(inputs, set()).add(result["report_digest"])
        problems = []
        for label, got in result["answers"].items():
            found, dev = compare(got, reference[label], check_constants=inputs == DEFAULT_SEED)
            problems += [f"iteration {attempted - 1} {label}: {p}" for p in found]
            worst_dev = max(worst_dev, dev)
        if problems:
            errors.append(problems[0])
        done[is_traced].append(result)
    return {
        "untraced": done[False],
        "traced": done[True],
        "attempted": attempted,
        "errors": errors,
        "report_variants": max((len(d) for d in digests.values()), default=0),
        "const_rel_dev": worst_dev if seed == DEFAULT_SEED else None,
        "measured_s": time.monotonic() - start,
    }


def _stat(values: list[float]) -> dict:
    """Median with quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(raw: dict, trace: bool) -> dict:
    """End-to-end metrics (from untraced iterations) and, when traced, per-layer ones."""
    untraced, traced = raw["untraced"], raw["traced"]
    end_to_end = {}
    if untraced:
        for name, key in RESULT_KEYS.items():
            end_to_end[name] = _stat([r[key] for r in untraced])
    end_to_end["report_variants"] = {"value": raw["report_variants"]}
    failed = len(raw["errors"])
    end_to_end["fail_frac"] = {"value": failed / raw["attempted"] if raw["attempted"] else 1.0}
    end_to_end["const_rel_dev"] = {"value": raw["const_rel_dev"]}
    per_layer = {}
    if trace and traced and untraced:
        for name, _unit, _better in PER_LAYER:
            if name != "trace.overhead_frac":
                per_layer[name] = statistics.median(r["per_layer"][name] for r in traced)
        plain = statistics.median(r["run_cal_s"] for r in untraced)
        per_layer["trace.overhead_frac"] = (statistics.median(r["run_cal_s"] for r in traced)
                                            - plain) / plain
    return {"end_to_end": end_to_end, "per_layer": per_layer, "failed": failed}


def print_metrics(e2e: dict, per_layer: dict) -> None:
    """One line per metric: name, value, unit (and quartiles for timings)."""
    units = dict(END_TO_END, run_s="s", setup_wall_s="s", fail_frac="ratio", const_rel_dev="ratio")
    for name, unit in units.items():
        m = e2e[name]
        value = "n/a (non-default seed)" if m["value"] is None else f"{m['value']:.6g} {unit}"
        extra = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "q1" in m else ""
        print(f"  {name:<16} {value}{extra}")
    for name, unit, _better in PER_LAYER:
        if name in per_layer:
            print(f"  {name:<48} {per_layer[name]:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM unwind normally, so subprocess.run kills the running iteration.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "osclab", "cli.py")):
        print(f"no osclab sources under {ROOT}/src: run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]

    trace = bool(args.trace)
    raw = measure(args.workload, args.seed, args.seconds, trace, reference, deadline)
    if not raw["untraced"] or (trace and not raw["traced"]):
        for err in raw["errors"][:5]:
            print(err, file=sys.stderr)
        print(f"{args.workload}: no iteration completed", file=sys.stderr)
        return 1
    summary = summarize(raw, trace)
    env = environment()
    e2e, per_layer = summary["end_to_end"], summary["per_layer"]
    correct = summary["failed"] == 0 and e2e["report_variants"]["value"] == 1

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(raw['untraced'])} untraced + {len(raw['traced'])} traced iterations, "
          f"{summary['failed']} failed, {raw['measured_s']:.1f} s")
    for err in raw["errors"][:5]:
        print("  FAIL " + err)
    print_metrics(e2e, per_layer)

    if trace:
        units = {name: unit for name, unit, _better in PER_LAYER}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
