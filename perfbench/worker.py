"""One workload run in a fresh process: closed-loop passes, RSS, oracle checks.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread.  One client sends the workload's requests in order,
each only after the previous one returned, and repeats whole passes, as many
as bring the elapsed time nearest to ``--seconds``.  Every request goes
through ``hybridlg.cli.main``.  Right before and after every
request the worker times a ``reference`` burst; the timings it reports are
scaled to reference time with them, and the raw wall-clock values are
reported beside them.  After the timed loop the outputs of the last
pass are checked against ``oracle`` and the result is printed as one JSON
line.

With ``--trace 1`` the run makes one untraced pass and one pass with
``tracer`` wrappers installed, both with a single worker process, and
reports the per-layer numbers instead.
"""

import argparse
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
import reference
import tracer
import workloads


def run_pass(cli, requests, trace=None, host=None):
    """Run every request once.

    Returns [(latency_s, [exit code or exception], stretch)], where stretch is
    the index of the ``host`` burst right before the request (None without
    ``host``).
    """
    outcomes = []
    for index, request in enumerate(requests):
        if trace is not None:
            trace.request = index
        stretch = host.mark(index) if host is not None else None
        codes = []
        start = perf_counter()
        for argv in request.calls:
            try:
                codes.append(cli.main(list(argv)))
            except Exception as exc:  # an untyped failure counts, the loop goes on
                codes.append(f"{type(exc).__name__}: {exc}")
        latency = perf_counter() - start
        if host is not None:
            host.add(index, latency)
        outcomes.append((latency, codes, stretch))
    return outcomes


def run_timed(cli, requests, seconds, host):
    """Whole passes, as many as bring the elapsed time nearest to ``seconds``.

    ``host`` times its reference bursts between requests; the closing burst
    comes after the last request.
    """
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(cli, requests, host=host))
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            host.mark()
            return passes


def verify(requests, passes, seed):
    """Attempted and failed cells over all passes, plus the first reasons.

    A cell fails on an untyped exception or an exit code the oracle does not
    predict in any pass, or on an oracle mismatch in the last pass's files.
    """
    rng = random.Random(f"oracle:{seed}")
    groups = [request.check.get("cell", f"request {i}") for i, request in enumerate(requests)]
    size = {}
    for group, request in zip(groups, requests):
        size[group] = size.get(group, 0) + request.cells
    bad = {}  # (pass, group) -> failed cells
    reasons = []
    last = len(passes) - 1
    for index, (group, request) in enumerate(zip(groups, requests)):
        expected = oracle.expected_exit(request.check)
        for number, outcomes in enumerate(passes):
            codes = outcomes[index][1]
            if any(code != expected for code in codes):
                bad[(number, group)] = size[group]
                reasons.append(f"request {index} pass {number}: exit {codes}, "
                               f"oracle predicts {expected}")
        if (last, group) in bad:
            continue  # its files are not comparable; already counted
        mismatches = oracle.CHECKS[request.check["kind"]](request.check, rng)
        if mismatches:
            cells = {cell for cell, _ in mismatches}
            bad[(last, group)] = size[group] if None in cells else min(size[group], len(cells))
            reasons += [f"request {index} cell {cell}: {why}" for cell, why in mismatches]
    attempted = sum(size.values()) * len(passes)
    return attempted, sum(bad.values()), reasons


def latency_metrics(latencies, requests_per_pass):
    """Median and tail of request latency (seconds in, ms out).

    The median is over every request of every pass.  The tail is the highest
    percentile that leaves at least 10 of a pass's requests beyond it, taken
    in each pass, and its median over the passes: a fixed percentile however
    many passes a run fits, and not the single worst request of the run.
    """
    ms = [1e3 * latency for latency in latencies]
    percentile, rank = tracer.tail_rank(requests_per_pass)
    tails = [sorted(ms[start:start + requests_per_pass])[rank]
             for start in range(0, len(ms), requests_per_pass)]
    return {
        "request_ms.p50": {"value": statistics.median(ms), "unit": "ms", "n": len(ms)},
        "request_ms.tail": {"value": statistics.median(tails), "unit": "ms",
                            "n": len(ms), "percentile": percentile,
                            "passes": len(tails)},
    }


def timed_metrics(requests, passes, host):
    """End-to-end metrics in reference time, with the raw wall-clock values.

    Each request's latency is scaled by the factor of the bursts around it
    (``reference.HostSpeed``); throughput divides the cells by the summed
    scaled latencies, so neither the bursts nor the gaps between requests
    count.
    """
    raw = [latency for outcomes in passes for latency, _, _ in outcomes]
    scaled = [latency * host.factor(stretch)
              for outcomes in passes for latency, _, stretch in outcomes]
    cells = sum(r.cells for r in requests) * len(passes)
    metrics = {"cells_per_s": {"value": cells / sum(scaled), "unit": "1/s", "n": cells,
                               "raw": cells / sum(raw)}}
    metrics.update(latency_metrics(scaled, len(requests)))
    for name, metric in latency_metrics(raw, len(requests)).items():
        metrics[name]["raw"] = metric["value"]
    return metrics


def peak_rss_mb():
    """Peak RSS of this process plus the largest waited-for child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import numpy
    import scipy
    import hybridlg
    from hybridlg import cli

    source = Path.cwd() / "src" / "hybridlg"
    if Path(hybridlg.__file__).resolve().parent != source.resolve():
        sys.exit(f"imported {hybridlg.__file__}, not the checkout's {source}")

    work = Path(workloads.WORK_DIR) / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    requests = workloads.requests(args.workload, args.seed, traced=bool(args.trace))
    result = {"env": {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pool_start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pool_workers": 1 if args.trace else workloads.POOL_WORKERS[args.workload],
    }}

    if not args.trace:
        host = reference.HostSpeed()
        passes = run_timed(cli, requests, args.seconds, host)
        rss = peak_rss_mb()
        metrics = {
            **timed_metrics(requests, passes, host),
            "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
        }
        result["env"]["host_speed"] = host.speed()
        result["env"]["bursts"] = len(host.bursts)
        (work / "latencies.json").write_text(json.dumps({
            "passes": [[[latency, stretch] for latency, _, stretch in outcomes]
                       for outcomes in passes],
            "bursts": host.bursts}))
    else:
        start = perf_counter()
        plain = run_pass(cli, requests)
        untraced_wall = perf_counter() - start
        trace = tracer.Tracer()
        trace.install(tracer.targets())
        try:
            start = perf_counter()
            traced = run_pass(cli, requests, trace)
            traced_wall = perf_counter() - start
        finally:
            trace.uninstall()
        trace.write(work / "spans.csv")
        layers, calls = tracer.layer_metrics(trace.spans)
        metrics = {
            name: {"value": layers[name], "unit": unit,
                   "absent": calls.get(layer, 0) == 0}
            for name, unit, layer in tracer.LAYER_METRICS
        }
        metrics["trace_overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s",
                                       "absent": False}
        result["spans"] = len(trace.spans)
        passes = [plain, traced]

    attempted, failed, reasons = verify(requests, passes, args.seed)
    result.update(metrics=metrics, passes=len(passes), attempted=attempted,
                  failed=failed, reasons=reasons[:20])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
