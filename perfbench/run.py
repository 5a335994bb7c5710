"""Benchmark entry point for hybridlg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``
there.  With ``--trace 0`` it times ``setup_s`` in fresh interpreters, then
runs the workload in a fresh process (``worker.py``) and prints every
end-to-end metric; with ``--trace 1`` it prints the per-layer metrics of one
traced pass instead.  Timings are reported in reference time: each stretch of
wall time is scaled by the speed of a fixed burst timed just before and
after it (``reference.py``), and the raw wall-clock value is printed beside
it.  Metric names and units come from ``BENCHMARK.json``.
Human-readable lines come first; the last line of standard output is the
JSON result.  Workload reasons, the layer table and the "path absent" rule
are in ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import reference  # noqa: E402  (after the flag above)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_PROBES = 7
SETUP_BURST_UNITS = 40
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import hybridlg.cli\n"
    "hybridlg.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
#: every run, set-up included, must end within this many seconds
RUN_BUDGET_S = 170.0


def child_env(root):
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(env, deadline):
    """Median of import + build_parser time, each in a fresh interpreter.

    A reference burst before and after each probe scales it to reference
    time, as the worker does for requests.  The probes are few and short, so
    each burst is at least SETUP_BURST_UNITS units (about 0.2 s).  Returns
    the scaled and the raw median.
    """
    host = reference.HostSpeed(min_units=SETUP_BURST_UNITS)
    raw, stretches = [], []
    for index in range(SETUP_PROBES):
        stretches.append(host.mark(index))
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - perf_counter()), check=True)
        raw.append(float(probe.stdout))
        host.add(index, raw[-1])
    host.mark()
    scaled = [seconds * host.factor(k) for k, seconds in zip(stretches, raw)]
    return statistics.median(scaled), statistics.median(raw)


def describe(name, metric):
    value, unit = metric["value"], metric["unit"]
    if name == "setup_s":
        detail = f"median of {metric['n']} fresh interpreters"
    elif name == "cells_per_s":
        detail = f"n={metric['n']} cells"
    elif name == "request_ms.p50":
        detail = f"n={metric['n']} requests"
    elif name == "request_ms.tail":
        percentile, n = metric["percentile"], metric["n"]
        detail = (f"p{percentile:.4g} of each pass, median of {metric['passes']} "
                  f"passes; n={n} requests")
        if percentile == 100.0:
            detail += "; fewer than 11 requests a pass, so each pass's maximum"
    elif name == "fail_ratio":
        detail = f"{metric['failed']} of n={metric['n']} cells"
    elif metric.get("absent"):
        detail = "path absent"
    else:
        detail = ""
    if "raw" in metric:
        detail += f"; wall clock {metric['raw']!r} {unit}"
    return f"{name} = {value!r} {unit}" + (f" ({detail})" if detail else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "hybridlg" / "cli.py").is_file():
        print(f"error: no src/hybridlg/cli.py under {root}; run from the root of "
              "a hybridlg checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    workers = 1 if args.trace else workloads.POOL_WORKERS[args.workload]
    if workers * BLAS_THREADS > nproc:
        print(f"error: {workers} workers x {BLAS_THREADS} BLAS threads exceed "
              f"nproc={nproc}", file=sys.stderr)
        return 3

    env = child_env(root)
    metrics = {}
    if not args.trace:
        scaled, raw = measure_setup(env, deadline)
        metrics["setup_s"] = {"value": scaled, "unit": "s", "n": SETUP_PROBES, "raw": raw}
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - perf_counter()))
    if worker.returncode != 0:
        print(f"error: workload process exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio",
                             "n": attempted, "failed": failed}

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={result['passes']}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for name, metric in metrics.items():
        print(("layer " if args.trace else "metric ") + describe(name, metric))
    for reason in result["reasons"]:
        print(f"failure {reason}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
