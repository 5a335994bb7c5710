"""Self-checks of the benchmark: determinism, tracing hygiene, failure counting.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import reference
import tracer
import worker
import workloads

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from hybridlg import cli  # noqa: E402


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in workloads.WORKLOADS:
        (tmp_path / workloads.WORK_DIR / name).mkdir(parents=True)
    return tmp_path


def _argv(name, seed, traced=False):
    return json.dumps([r.calls for r in workloads.requests(name, seed, traced)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_argv(name):
    assert _argv(name, 11) == _argv(name, 11)
    assert _argv(name, 11) != _argv(name, 12)
    assert _argv(name, 11, traced=True) == _argv(name, 11, traced=True)


def _cheap_requests(seed):
    """Two unitary and two near-locus k3 cells, plus every bloch-traj cell."""
    return (workloads.requests("coalescence", seed)[2:6]
            + workloads.requests("crossval", seed)[2::3])


def _traced_counts(requests):
    targets = tracer.targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    trace = tracer.Tracer()
    trace.install(targets)
    try:
        worker.run_pass(cli, requests, trace)
    finally:
        trace.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == originals
    metrics, _ = tracer.layer_metrics(trace.spans)
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    return {k: v for k, v in metrics.items() if units[k] in ("count", "ratio")}


def test_traced_counts_repeat_and_wrappers_come_off(workdir):
    requests = _cheap_requests(3)
    first = _traced_counts(requests)
    assert first == _traced_counts(requests)
    assert first["cli.main.calls"] == len(requests)
    # each unitary cell builds one Propagator to optimize and one for correlators
    assert first["dynamics.schur.calls"] == 4
    assert first["blochsol.analytic_branch.calls"] == 2 * workloads.CROSSVAL_CELLS


def test_corrupted_row_counts_as_failure(workdir):
    requests = workloads.requests("coalescence", 5)[4:6]
    passes = [worker.run_pass(cli, requests)]
    assert worker.verify(requests, passes, 5)[:2] == (2, 0)

    path = Path(requests[1].check["out"])
    lines = path.read_text().splitlines()
    row = lines[-1].split(",")
    row[4] = repr(float(row[4]) + 1e-6)  # the k3 column
    path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    attempted, failed, reasons = worker.verify(requests, passes, 5)
    assert (attempted, failed) == (2, 1)
    assert any("k3 " in reason for reason in reasons)


def test_unexpected_exit_code_counts_as_failure(workdir):
    request = workloads.requests("crossval", 2)[2]
    broken = workloads.Request(
        (request.calls[0] + ("--theta", "1.0"),), request.cells, request.check)
    passes = [worker.run_pass(cli, [broken])]
    assert worker.verify([broken], passes, 2)[:2] == (1, 1)


@pytest.mark.parametrize("name, domain, bands", [
    ("landscape", workloads.GAMMA_DOMAIN, workloads.LANDSCAPE_BANDS),
    ("nsit_map", workloads.NSIT_GAMMA, workloads.NSIT_BANDS),
])
def test_bands_cover_the_whole_gamma_grid_once(name, domain, bands):
    requests = workloads.requests(name, 4)
    assert len(requests) == bands
    points = []
    for request in requests:
        argv = request.calls[0]
        lo, hi, n = argv[argv.index("--grid-gamma") + 1].split(":")
        points += list(np.linspace(float(lo), float(hi), int(n)))
    points.sort()
    spacing = np.diff(points)
    assert len(points) == domain[2]
    assert np.allclose(spacing, spacing[0], rtol=1e-9)
    assert domain[0] <= points[0] and points[-1] <= domain[1]


def test_host_speed_scales_each_request_by_the_bursts_around_it(monkeypatch):
    sizes = []
    monkeypatch.setattr(reference, "burst",
                        lambda units: sizes.append(units) or 2.0 * units * reference.UNIT_NOMINAL_S)
    host = reference.HostSpeed()
    long = 50 * reference.UNIT_NOMINAL_S / reference.BURST_SHARE
    assert host.mark(0) == 0          # nothing known yet: one unit
    host.add(0, long)
    assert host.mark(1) == 1          # sized to the long request that just ended
    host.add(1, 0.0)
    assert host.mark(0) == 2          # sized to request 0's earlier latency
    host.add(0, 0.0)
    assert host.mark() == 3           # closing burst after a short request
    assert sizes == [1, 50, 50, 1]
    # every burst ran at twice the nominal time per unit
    assert all(host.factor(k) == pytest.approx(0.5) for k in range(3))
    assert host.speed() == pytest.approx(0.5)
    # request k: bursts k - 1 to k + 2, as far as they exist, weighted by units
    host.bursts = [(1, 1.0), (10, 2.0), (10, 4.0), (1, 1.0), (1, 9.0)]
    unit = reference.UNIT_NOMINAL_S
    assert host.factor(0) == pytest.approx(unit * 21 / 7.0)
    assert host.factor(1) == pytest.approx(unit * 22 / 8.0)
    assert host.factor(3) == pytest.approx(unit * 12 / 14.0)


def test_tail_is_the_median_of_the_per_pass_tails():
    passes = [[0.001 * (i + 1) for i in range(12)],
              [0.002 * (i + 1) for i in range(12)],
              [0.004 * (i + 1) for i in range(12)]]
    metrics = worker.latency_metrics([x for p in passes for x in p], 12)
    # 12 a pass: p16.67 leaves 10 beyond it, the second-smallest of each pass
    assert metrics["request_ms.tail"]["value"] == pytest.approx(4.0)
    assert metrics["request_ms.tail"]["percentile"] == pytest.approx(100 * 2 / 12)


def test_tail_needs_ten_samples_beyond():
    assert tracer.tail_rank(40) == (75.0, 29)
    assert tracer.tail_rank(11) == (100.0 * 1 / 11, 0)
    assert tracer.tail_rank(4) == (100.0, 3)


def test_oracle_generator_matches_master_equation_trace_decay():
    # d Tr(rho)/dt = 2 gamma (q - 1) rho_11: the trace row of G
    G = oracle.generator(0.7, 0.3, 1.0)
    trace_row = G[0] + G[3]
    assert abs(trace_row[3] - 2 * 0.7 * (0.3 - 1)) < 1e-15
    assert max(abs(trace_row[:3])) < 1e-15


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
