import functools
import multiprocessing
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dense_coarse_peaks,
    expm_correlators,
    expm_pair_probabilities,
    k3_curve,
    mp_k3,
    mp_readouts,
    no_jump_state,
)
from hybridlg import dynamics, lgi, model, numerics
from hybridlg.errors import TrajectoryExtinguishedError
from hybridlg.lgi import (
    OptimizeConfig,
    SWEEP_TRACE_FLOOR,
    correlators,
    k3,
    optimize_k3,
    sweep,
)
from hybridlg.macrorealism import nsit_grid
from hybridlg.model import ModelParams
from hybridlg.spectrum import ep_radius


def test_unitary_limit_closed_form():
    # gamma=0: C01 = cos t, C12 = cos t, C02 = cos 2t (hand-solved rotation)
    params = ModelParams(gamma=0.0, q=1.0)
    for t in (0.3, np.pi / 3, 1.9, np.pi):
        record = correlators(params, t)
        assert record.c01 == pytest.approx(np.cos(t), abs=1e-10)
        assert record.c12 == pytest.approx(np.cos(t), abs=1e-10)
        assert record.c02 == pytest.approx(np.cos(2 * t), abs=1e-10)
        assert record.k3 == pytest.approx(2 * np.cos(t) - np.cos(2 * t),
                                          abs=1e-10)


def test_unitary_reference_values():
    params = ModelParams(gamma=0.0, q=1.0)
    assert k3(params, np.pi / 3) == pytest.approx(1.5, abs=1e-10)
    assert k3(params, np.pi) == pytest.approx(-3.0, abs=1e-10)


#: |lgi.k3 - no-jump oracle| at q = 0 and t <= 7.  Measured at most 7.3e-14
#: on this grid, at (1, 0) and t = 6.8 (9.7e-14 on a 200-point grid, at
#: t = 6.26); the bound leaves a margin of 3x over the larger value.
Q0_ORACLE_TOL = 3e-13


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 3.7])
def test_zero_efficiency_k3_matches_closed_form_propagator(gamma):
    params = ModelParams(gamma=gamma, q=0.0)
    for t in np.linspace(0.05, 7.0, 140):
        oracle = expm_correlators(params, t, evolve=no_jump_state)["k3"]
        assert abs(k3(params, t) - oracle) <= Q0_ORACLE_TOL, t


def test_k3_is_one_on_the_fourfold_point():
    # at (gamma, q) = (J, 0), K3 is identically 1 for t <= 3 (ROADMAP item
    # 2).  On this grid the engine reads it within 7.6e-15 (max at t = 2.95)
    # and the closed-form oracle within 1.4e-15; both bounds leave 4x margin.
    params = ModelParams(gamma=1.0, q=0.0)
    for t in np.linspace(0.01, 3.0, 300):
        assert abs(k3(params, t) - 1.0) <= 3e-14, t
        oracle = expm_correlators(params, t, evolve=no_jump_state)["k3"]
        assert abs(oracle - 1.0) <= 6e-15, t


def test_short_time_limit_is_classical():
    rng = np.random.default_rng(41)
    for _ in range(10):
        params = ModelParams(gamma=rng.uniform(0, 3), q=rng.uniform(0, 1))
        assert k3(params, 1e-4) == pytest.approx(1.0, abs=1e-6)


def test_record_invariants():
    rng = np.random.default_rng(42)
    for _ in range(25):
        params = ModelParams(gamma=rng.uniform(0, 3), q=rng.uniform(0, 1))
        record = correlators(params, rng.uniform(0.05, 6.0))
        assert record.p_plus + record.p_minus == pytest.approx(1.0, abs=1e-10)
        for value in (record.c01, record.c12, record.c02):
            assert abs(value) <= 1.0 + 1e-9
        assert record.k3 == record.c01 + record.c12 - record.c02
        assert -3.0 - 1e-9 <= record.k3 <= 3.0 + 1e-9


def test_engine_cross_validation():
    params = ModelParams(gamma=0.9905, q=1.0)
    exact = correlators(params, 1.0, engine="exact")
    runge = correlators(params, 1.0, engine="rk4", dt=1e-4)
    for field in ("c01", "c12", "c02", "k3", "p_plus", "p_minus"):
        assert getattr(exact, field) == pytest.approx(
            getattr(runge, field), abs=1e-7)


def test_batched_curve_matches_scalar_records():
    params = ModelParams(gamma=0.8, q=0.4)
    times = np.linspace(0.2, 6.0, 7)
    curve = k3_curve(params, times, 1e-12)
    for t, value in zip(times, curve):
        assert value == pytest.approx(expm_correlators(params, t)["k3"],
                                      abs=1e-12)


def test_extinguished_branch_is_identified():
    params = ModelParams(gamma=0.9905, q=0.0)
    with pytest.raises(TrajectoryExtinguishedError, match="branch"):
        correlators(params, 9.0, eps_trace=1e-6)


# correlators' order: + at t, + at 2t, - at t, as (at 2t?, column) slots
CORRELATOR_SLOTS = [((0, 0), "branch + at t"), ((1, 0), "branch + at 2t"),
                    ((0, 1), "branch - at t")]


@pytest.mark.parametrize("first", range(3))
def test_planted_sub_floor_trace_names_its_correlator_branch(
        monkeypatch, first):
    # the planted slot and every later one are below the floor; the first
    # of them, in protocol order, names the error
    readouts = lgi._Cells.readouts

    def planted(self, cells, times, both_at_2t=False):
        at = readouts(self, cells, times, both_at_2t)
        for (at_2t, column), _ in CORRELATOR_SLOTS[first:]:
            at[at_2t][0, column] = 1e-300
        return at

    monkeypatch.setattr(lgi._Cells, "readouts", planted)
    with pytest.raises(TrajectoryExtinguishedError) as exc:
        correlators(ModelParams(gamma=0.7, q=0.4), 1.3)
    name = CORRELATOR_SLOTS[first][1]
    assert str(exc.value) == (f"trajectory extinguished ({name}): "
                              "trace 1.000000e-300 below floor")
    assert type(exc.value.trace) is float


def _own_scan(cells, block, grid, eps_trace):
    """``cells.scan`` of ``block`` in a workspace of its own."""
    space = lgi._ScanSpace(len(block), len(grid))
    return cells.scan(block, grid, eps_trace, space)


@pytest.mark.parametrize("trace", [1e-300, np.nan])
@pytest.mark.parametrize("method", ["value", "scan"])
def test_planted_traces_rank_minus_inf_and_leave_every_other_point(
        monkeypatch, trace, method):
    cells = lgi._Cells([0.5, 0.9905, 3.0], [0.3, 1e-6, 0.5],
                       ModelParams(gamma=1.0, q=1.0))
    assert cells.spectral.all()  # one ranking per call, no fallback rows
    grid = np.linspace(0.01, 20.0, 300)

    def run():
        if method == "scan":
            return _own_scan(cells, np.arange(3), grid, SWEEP_TRACE_FLOOR)
        return cells.value(np.arange(3)[:, None], grid, SWEEP_TRACE_FLOOR)

    clean = run()
    assert np.isfinite(clean).all()
    ranked, hits = lgi._ranked_k3, []

    def planting(at_t, at_2t, eps_trace, work=None):
        at_t, at_2t = at_t.copy(), at_2t.copy()
        rng = np.random.default_rng(11)
        hit = np.zeros(at_t.shape[:-1], dtype=bool)
        # tr+ and tr- at t, tr+ at 2t
        for slot in (at_t[..., 0], at_t[..., 1], at_2t[..., 0]):
            mask = rng.random(slot.shape) < 0.05
            slot[mask] = trace
            hit |= mask
        hits.append(hit[:, :len(grid)])
        return ranked(at_t, at_2t, eps_trace, work)

    monkeypatch.setattr(lgi, "_ranked_k3", planting)
    out = run()
    [hit] = hits
    assert hit.any() and not hit.all()
    assert (out[hit] == -np.inf).all()
    assert np.array_equal(out[~hit], clean[~hit])


def test_optimize_unitary_limit():
    best = optimize_k3(ModelParams(gamma=0.0, q=1.0))
    assert best.k3_max == pytest.approx(1.5, abs=1e-6)
    assert best.t_star == pytest.approx(np.pi / 3, abs=1e-4)


@pytest.mark.parametrize("J", [1.0, 2.0])
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_unitary_optimum_meets_the_closed_form(q, J):
    # K3 = 2 cos(J t) - cos(2 J t) at gamma = 0 peaks at 3/2 at t = pi/(3 J)
    best = optimize_k3(ModelParams(gamma=0.0, q=q, J=J))
    assert abs(best.k3_max - 1.5) <= 1e-15
    assert abs(best.t_star - np.pi / (3 * J)) <= 1e-12


@functools.cache
def _scaled_default_sweep(J):
    """The default grid at resolution 400 with gamma and the time unit
    scaled by J."""
    gammas, qs = np.linspace(0.05, 5.0, 40), np.logspace(-6, 0, 25)
    return lgi.sweep(gammas * J, qs, ModelParams(gamma=0.0, q=1.0, J=J),
                     OptimizeConfig(resolution=400))


@pytest.mark.parametrize("J", [1e-6, 2.0 ** -20])
def test_small_J_sweep_is_the_unit_J_sweep_in_its_time_unit(J):
    # K3 depends on (gamma / J, q, t J) only; with an absolute normality
    # test, 73 cells at J = 1e-6 and 74 at 2^-20 read up to 3.24 wrong
    ref, got = _scaled_default_sweep(1.0), _scaled_default_sweep(J)
    assert not got.masked.any()
    assert (got.k3_max <= 3.0).all()
    assert np.abs(got.k3_max - ref.k3_max).max() <= 1e-10  # 3.4e-11
    # the t -> 0+ end reports the first bracket's reach, 1e-6 at any J
    inner = ref.t_star > lgi._REFINE_TOL
    assert inner.sum() == 911
    assert np.allclose(got.t_star[inner] * J, ref.t_star[inner], rtol=1e-9,
                       atol=0)  # 2.5e-11


@pytest.mark.parametrize("resolution", [2000.0, True, "2000", None])
def test_resolution_must_be_an_integer(resolution):
    with pytest.raises(ValueError, match="resolution must be an integer"):
        OptimizeConfig(resolution=resolution)
    assert OptimizeConfig(resolution=np.int64(7)).resolution == 7


def test_optimize_respects_luders_bound_at_unit_efficiency():
    for gamma in (0.25, 1.0, 5.0):
        best = optimize_k3(ModelParams(gamma=gamma, q=1.0))
        assert best.k3_max <= 1.5 + 1e-9


def test_conditioning_amplifies_violation_beyond_luders():
    best = max(
        optimize_k3(ModelParams(gamma=g, q=1e-6)).k3_max
        for g in np.linspace(0.9, 1.1, 41)
    )
    assert best >= 2.5


def test_strong_conditioning_near_unit_ratio():
    best = optimize_k3(ModelParams(gamma=0.9905, q=0.0))
    assert best.k3_max > 2.5


def test_optimize_all_masked_cell():
    # an absurd floor extinguishes every scanned point
    best = optimize_k3(ModelParams(gamma=0.9905, q=0.0),
                       OptimizeConfig(eps_trace=2.0))
    assert best.masked
    assert np.isnan(best.k3_max) and np.isnan(best.t_star)


def test_optimize_matches_dense_scan_oracle():
    # brute-force reference: a 40k-point scan bounds the true maximum
    for gamma, q in ((0.9905, 1e-4), (0.5, 0.03), (1.3, 0.7)):
        params = ModelParams(gamma=gamma, q=q)
        best = optimize_k3(params)
        dense = k3_curve(params, np.linspace(20 / 40000, 20.0, 40000),
                         SWEEP_TRACE_FLOOR)
        dense_max = float(np.nanmax(dense))
        assert best.k3_max >= dense_max - 1e-9
        assert abs(best.k3_max - dense_max) <= 5e-6


def test_optimize_is_deterministic():
    params = ModelParams(gamma=0.7, q=0.01)
    first = optimize_k3(params)
    second = optimize_k3(params)
    assert first == second


def test_sweep_degenerate_grid_equals_optimize():
    params = ModelParams(gamma=0.8, q=0.2)
    result = sweep([0.8], [0.2])
    best = optimize_k3(params)
    assert result.k3_max[0, 0] == best.k3_max
    assert result.t_star[0, 0] == best.t_star
    assert not result.masked.any()


def test_sweep_unit_efficiency_column_obeys_luders():
    result = sweep(np.linspace(0.25, 5.0, 6), [1.0])
    assert np.all(result.k3_max <= 1.5 + 1e-9)


def test_sweep_row_is_monotone_in_efficiency():
    result = sweep([0.9905], np.logspace(-6, 0, 13))
    values = result.k3_max[0]
    assert np.all(np.diff(values) <= 1e-9)


def _cell_pids(cells):
    """Grid-map work: the pid of the process that ran each cell."""
    return [os.getpid()] * len(cells.eigs)


class _ChunkFailure(Exception):
    pass


def _failing_cells(cells):
    raise _ChunkFailure(f"a chunk of {len(cells.eigs)} cells")


def _paused_cell_pids(cells):
    """:func:`_cell_pids`, after a pause in a pool worker, so that no worker
    ends its task before every other worker has taken one."""
    if multiprocessing.parent_process() is not None:
        time.sleep(0.1)
    return _cell_pids(cells)


#: 512 cells: one task of 256 cells per process on 2 workers
_POOL_GRID = (np.linspace(0.5, 1.5, 4), np.linspace(0.1, 1.0, 128))


def _map_pids(workers, work=_cell_pids):
    return set(lgi._map_grid(work, *_POOL_GRID, ModelParams(gamma=1.0, q=1.0),
                             (), workers))


def _children():
    return {child.pid for child in multiprocessing.active_children()}


def test_grid_maps_reuse_one_pool_per_worker_count():
    # a map's processes are this one and a pool of workers - 1
    first = _map_pids(2)
    pool = _children()
    assert len(pool) == 1 and first == pool | {os.getpid()}
    assert _map_pids(2) == first
    assert _children() == pool
    # a new count replaces the pool: the old children are gone
    third = _map_pids(3)
    assert len(_children()) == 2 and os.getpid() in third
    assert third <= _children() | {os.getpid()}
    assert not _children() & pool


@pytest.mark.parametrize("workers", [2, 3])
def test_the_caller_computes_the_first_share(workers):
    pids = lgi._map_grid(_paused_cell_pids, *_POOL_GRID,
                         ModelParams(gamma=1.0, q=1.0), (), workers)
    share = len(pids) // workers  # the first of `workers` tasks
    assert set(pids[:share]) == {os.getpid()}
    rest = set(pids[share:])
    assert len(rest) == workers - 1 and rest <= _children()


def test_failing_chunk_reaches_the_caller_and_the_pool_goes_on():
    _map_pids(2)
    pool = _children()
    # the first chunk fails in this process, the second in the pool
    with pytest.raises(_ChunkFailure, match="a chunk of 256 cells"):
        _map_pids(2, _failing_cells)
    assert _map_pids(2) == pool | {os.getpid()}
    assert _children() == pool


def test_extinguished_chunk_reaches_the_caller_and_the_pool_goes_on():
    # a fresh interpreter, so that a map that hangs fails on the timeout
    # instead of stalling this process's pool
    script = """
import numpy as np
from hybridlg import lgi
from hybridlg.errors import TrajectoryExtinguishedError
from hybridlg.model import ModelParams

def extinguished(cells):
    raise TrajectoryExtinguishedError(1e-300, f"{len(cells.eigs)} cells")

def count(cells):
    return [len(cells.eigs)] * len(cells.eigs)

grid = (np.linspace(0.5, 1.5, 4), np.linspace(0.1, 1.0, 128))
try:
    lgi._map_grid(extinguished, *grid, ModelParams(1.0, 1.0), (), 2)
except TrajectoryExtinguishedError as error:
    print(type(error).__name__, error.trace, error.context, error)
print(sum(lgi._map_grid(count, *grid, ModelParams(1.0, 1.0), (), 2)))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          check=True, timeout=60)
    assert done.stdout.decode().splitlines() == [
        "TrajectoryExtinguishedError 1e-300 256 cells trajectory extinguished "
        "(256 cells): trace 1.000000e-300 below floor",
        "131072",
    ]


def test_killed_worker_breaks_the_map_and_the_next_map_builds_a_new_pool():
    # a fresh interpreter, so that a map that hangs fails on the timeout
    script = """
import os, signal
import numpy as np
from hybridlg import lgi
from hybridlg.errors import WorkerPoolError
from hybridlg.model import ModelParams

caller = os.getpid()

def pids(cells):
    return [os.getpid()] * len(cells.eigs)

def killed(cells):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return pids(cells)

def pool_pids():
    ran = set(lgi._map_grid(pids, *grid, ModelParams(1.0, 1.0), (), 2))
    ran.remove(caller)  # the caller runs the first share
    return ran

grid = (np.linspace(0.5, 1.5, 4), np.linspace(0.1, 1.0, 128))
first = pool_pids()
try:
    lgi._map_grid(killed, *grid, ModelParams(1.0, 1.0), (), 2)
except WorkerPoolError as error:
    print(type(error.__cause__).__name__, error)
second = pool_pids()
print(len(first), len(second), first.isdisjoint(second))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          check=True, timeout=60)
    broken, pools = done.stdout.decode().splitlines()
    assert broken.startswith("BrokenProcessPool worker pool broken: ")
    assert pools == "1 1 True"  # a new worker, not the old one
    assert done.stderr == b""


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cells=st.integers(1, 200_000), workers=st.integers(1, 70))
def test_grid_map_tasks_cover_the_rows_once_one_set_per_worker(cells, workers):
    bounds = lgi._task_bounds(cells, workers)
    sizes = [stop - start for start, stop in bounds]
    if cells < workers:
        assert sizes == [1] * cells
    else:
        assert len(bounds) % workers == 0
    # contiguous, in row order, every cell once
    assert [start for start, _ in bounds] == [0] + [stop for _, stop
                                                    in bounds[:-1]]
    assert bounds[-1][1] == cells
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= lgi._MAX_TASK_CELLS
    # as few tasks as the cap allows
    assert len(bounds) < workers + cells / lgi._MAX_TASK_CELLS


def test_grid_map_tasks_of_the_benchmarked_grids():
    assert lgi._task_bounds(125, 1) == [(0, 125)]
    assert lgi._task_bounds(1000, 1) == [(0, 1000)]
    assert lgi._task_bounds(1000, 2) == [(0, 500), (500, 1000)]
    assert lgi._task_bounds(3000, 2) == [(0, 750), (750, 1500), (1500, 2250),
                                         (2250, 3000)]


class _PoolRequested(Exception):
    pass


def test_grid_map_starts_no_more_processes_than_tasks(monkeypatch):
    # the stub raises before any process starts, whatever the count
    asked = []

    def no_pool(processes):
        asked.append(processes)
        raise _PoolRequested

    monkeypatch.setattr(lgi, "_worker_pool", no_pool)
    one_cell = ([0.5], [0.3], ModelParams(gamma=1.0, q=1.0), (), 10_000)
    assert lgi._map_grid(_cell_pids, *one_cell) == [os.getpid()]
    assert asked == []
    # three tasks: this process runs one, a pool of two the others
    with pytest.raises(_PoolRequested):
        lgi._map_grid(_cell_pids, [0.5, 0.7, 0.9], [0.3],
                      ModelParams(gamma=1.0, q=1.0), (), 10_000)
    assert asked == [2]


@pytest.mark.parametrize("workers", [0, -3])
def test_grid_maps_reject_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        sweep([1.0], [0.5], workers=workers)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        nsit_grid([1.0], [0.5], ModelParams(gamma=1.0, q=1.0), t=1.0,
                  workers=workers)


@pytest.mark.parametrize("workers", [2.5, 2.0, "2", True])
def test_grid_maps_reject_a_worker_count_that_is_not_an_integer(workers):
    # rejected before any task runs, as OptimizeConfig rejects a resolution
    with pytest.raises(ValueError, match="workers must be an integer, got "):
        sweep([1.0], [0.5], workers=workers)
    with pytest.raises(ValueError, match="workers must be an integer, got "):
        nsit_grid([1.0], [0.5], ModelParams(gamma=1.0, q=1.0), t=1.0,
                  workers=workers)


def test_sweep_worker_independence():
    # the pool exists before the first parallel sweep, which reuses it
    _map_pids(2)
    config = OptimizeConfig(resolution=400)
    grids = (
        (np.linspace(0.3, 1.2, 3), np.logspace(-3, 0, 3)),
        # gamma = 0 takes the Schur route, (2, 1) is exactly defective and
        # takes the Newton form
        (np.array([0.0, 0.7, 2.0]), np.array([1e-3, 0.4, 1.0])),
    )
    for gammas, qs in grids:
        serial = sweep(gammas, qs, config=config, workers=1)
        parallel = sweep(gammas, qs, config=config, workers=2)
        assert np.array_equal(serial.k3_max, parallel.k3_max)
        assert np.array_equal(serial.t_star, parallel.t_star)
        assert np.array_equal(serial.masked, parallel.masked)
    # every cell of the last grid equals its own single-cell optimization,
    # bit for bit
    for i, gamma in enumerate(gammas):
        for j, q in enumerate(qs):
            best = optimize_k3(ModelParams(gamma=gamma, q=q), config)
            assert serial.k3_max[i, j] == best.k3_max
            assert serial.t_star[i, j] == best.t_star


#: |fallback readout - mp_readouts| / the branch's own trace, at times
#: <= 20.  Measured at most 7.7e-14, at (1, 1e-14) and t = 20 (4.5e-14 at
#: (1, 0); 7.0e-14 there on the complex vectorized generator).
FALLBACK_TOL = 1e-13

#: the same at times in (20, 40], the 2t readouts of t <= 20: measured at
#: most 6.3e-13, at (1, 1e-14) and 2t = 40 (3.3e-13 at (1, 0); 6.2e-13
#: there on the complex vectorized generator)
FALLBACK_TOL_2T = 2e-12


def _assert_near_oracle(readouts, oracle, times):
    """Fallback readouts (tr+, tr-, sy+, sy-), or (tr+, sy+), within the
    bound of their time, relative to the trace of their own branch."""
    traces = oracle[[0, 1, 0, 1] if len(oracle) == 4 else [0, 0]]
    bound = FALLBACK_TOL if times <= 20.0 else FALLBACK_TOL_2T
    assert np.all(np.abs(readouts - oracle) <= bound * np.abs(traces)), times


def test_stacked_expm_fallback_matches_per_point_oracle(monkeypatch):
    # (2, 1) and (1, 0) are defective and take the Newton form, within the
    # 50-digit bound; the generic cell stays spectral and must not be
    # disturbed by the fallback rows of the same call.  Every cell of a
    # repeated or 2-D index reads as it does alone, bit for bit, and a call
    # whose index holds no Newton cell evaluates no Newton form
    cells = lgi._Cells([2.0, 0.7, 1.0], [1.0, 0.3, 0.0], ModelParams(1.0, 1.0))
    assert cells.spectral.tolist() == [False, True, False]
    coefficients, calls = dynamics.NewtonForm.coefficients, []

    def counted(self, times):
        calls.append(len(times))
        return coefficients(self, times)

    monkeypatch.setattr(dynamics.NewtonForm, "coefficients", counted)
    rng = np.random.default_rng(7)
    shapes = [(np.int64(0), 0.37), (np.int64(1), 0.37), (1, [0.37, 2.0]),
              (np.array([0, 1, 2, 2, 0]), rng.uniform(1e-6, 20.0, 5)),
              (np.array([[0], [1], [2]]), rng.uniform(1e-3, 20.0, 4))]
    for both_at_2t in (False, True):
        for owner, times in shapes:
            calls.clear()
            at_t, at_2t = cells.readouts(owner, times, both_at_2t)
            owner, times = np.broadcast_arrays(owner, times)
            # one call per Newton cell of the index, of all its points
            assert sorted(calls) == sorted(
                2 * int(np.sum(owner == n)) for n in (0, 2) if n in owner)
            assert at_t.shape == owner.shape + (4,)
            assert at_2t.shape == owner.shape + ((4,) if both_at_2t else (2,))
            for index in np.ndindex(owner.shape):
                cell, t = int(owner[index]), float(times[index])
                expected = cells.readouts(cell, t, both_at_2t)
                assert np.array_equal(at_t[index], expected[0])
                assert np.array_equal(at_2t[index], expected[1])
                if not cells.spectral[cell]:
                    expected = mp_readouts(cells.generators[cell], t,
                                           both_at_2t)
                    _assert_near_oracle(at_t[index], expected[0], t)
                    _assert_near_oracle(at_2t[index], expected[1], 2.0 * t)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(t=st.floats(1e-6, 20.0))
@pytest.mark.parametrize("gamma, q", [(1.0, 0.0), (2.0, 1.0), (1.0, 1e-14)])
def test_fallback_readouts_meet_the_50_digit_oracle(gamma, q, t):
    # the cells decompose rejects, fourfold (1, 0), defective (2, 1) and
    # its q -> 0 neighbour at gamma = J; at theta = 1.0 no cell of
    # gamma in [0, 20], q in [0, 1] is rejected (largest cond 6.8)
    cells = lgi._Cells([gamma], [q], ModelParams(1.0, 1.0))
    assert not cells.spectral[0]
    at_t, at_2t = cells.readouts(0, t, both_at_2t=True)
    expected = mp_readouts(cells.generators[0], t, both_at_2t=True)
    _assert_near_oracle(at_t, expected[0], t)
    _assert_near_oracle(at_2t, expected[1], 2.0 * t)


#: |spectral readout - mp_readouts| / the branch's own trace, at t and at
#: 2t for t <= 20: ROADMAP item 3's bound for the generic cells and
#: gamma = 0.  Measured at most 1.7e-14 (generic, 150 random points) and
#: 7.1e-15 (gamma = 0); 3.1e-14 and 1.1e-14 on the complex vectorized
#: generator.  Not asserted for q <= 1e-6 near gamma = J, which waits for the
#: Newton form on every cell: there 400 random points of gamma in
#: [0.9, 1.1], q in [0, 1e-6] reached 1.4e-11 at t and 1.5e-10 at 2t
#: (3.2e-11 and 1.7e-10 on the complex generator).
SPECTRAL_TOL = 1e-13


def _assert_readouts_near_oracle(gamma, q, t, bound):
    cells = lgi._Cells([gamma], [q], ModelParams(1.0, 1.0))
    assert cells.spectral[0]
    for got, want in zip(cells.readouts(0, t, both_at_2t=True),
                         mp_readouts(cells.generators[0], t, both_at_2t=True)):
        traces = want[[0, 1, 0, 1]]
        assert np.all(np.abs(got - want) <= bound * np.abs(traces)), t


@settings(max_examples=20, deadline=None, derandomize=True)
@given(gamma=st.floats(0.05, 5.0), q=st.floats(1e-3, 1.0),
       t=st.floats(1e-6, 20.0))
def test_generic_readouts_meet_the_50_digit_oracle(gamma, q, t):
    _assert_readouts_near_oracle(gamma, q, t, SPECTRAL_TOL)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(q=st.floats(0.0, 1.0), t=st.floats(1e-6, 20.0))
def test_unitary_readouts_meet_the_50_digit_oracle(q, t):
    # gamma = 0: the normal generator, diagonalized by Schur
    _assert_readouts_near_oracle(0.0, q, t, SPECTRAL_TOL)


def test_overdamped_late_readouts_keep_the_trace_last_accuracy():
    # the slow mode of overdamped cells dominates the 2t readouts in
    # [30, 40].  With the trace last in B these 24 cells stay within a
    # median 3.3e-15 and a max 1.8e-14 of the branch trace from the 50-digit
    # oracle; B ordered (r, sx, sy, sz) gave 1.8e-14 and 1.1e-13, failing
    # both assertions
    rng = np.random.default_rng(17)
    errors = []
    for _ in range(24):
        gamma, q = rng.uniform(2.5, 5.0), rng.uniform(1e-3, 1.0)
        t = rng.uniform(15.0, 20.0)
        cells = lgi._Cells([gamma], [q], ModelParams(1.0, 1.0))
        _, at_2t = cells.readouts(0, t, both_at_2t=True)
        _, expected = mp_readouts(cells.generators[0], t, both_at_2t=True)
        errors.append(np.max(np.abs(at_2t - expected)
                             / np.abs(expected[[0, 1, 0, 1]])))
    assert max(errors) <= SPECTRAL_TOL
    assert np.median(errors) <= 0.1 * SPECTRAL_TOL


def _assert_slopes_near_oracle(gamma, q, t, params=ModelParams(1.0, 1.0)):
    """The slope readouts of one cell at t and at 2t against
    ``mp_readouts(slope=True)``, within ``SPECTRAL_TOL`` of the trace of
    their branch (the engine's own trace; ``FALLBACK_TOL_2T`` at 2t in
    (20, 40] on a fallback cell)."""
    cells = lgi._Cells([gamma], [q], params)
    got = cells.readouts(0, t, both_at_2t=True, slope=True)
    want = mp_readouts(cells.generators[0], t, both_at_2t=True, slope=True)
    for tau, readouts, oracle in zip((t, 2.0 * t), got, want):
        bound = (FALLBACK_TOL_2T if tau > 20.0 and not cells.spectral[0]
                 else SPECTRAL_TOL)
        traces = np.abs(readouts[[0, 1, 0, 1]])
        assert np.all(np.abs(readouts[4:] - oracle) <= bound * traces), tau


# The slope readouts, measured against the 50-digit oracle, relative to the
# branch trace, at t / at 2t: generic cells 2.1e-15 / 1.7e-15 (40 points),
# theta = 1 2.1e-15 / 1.8e-15, gamma = 0 3.5e-15 / 6.5e-15, locus cells at
# |delta| in [1e-4, 1e-2] 3.1e-14 / 3.6e-14, (1, 0) 3.6e-14 / 2.9e-13 and
# (2, 1) 2.8e-17 / 1.7e-18.  Not asserted for |delta| below 1e-4, where
# the value readouts themselves are off on the spectral path (ROADMAP
# item 11): at delta = 0 the slopes are 4.2e-10 off, the values 1.7e-9.

@settings(max_examples=8, deadline=None, derandomize=True)
@given(gamma=st.floats(0.05, 5.0), q=st.floats(1e-3, 1.0),
       t=st.floats(1e-6, 20.0))
def test_generic_slope_readouts_meet_the_50_digit_oracle(gamma, q, t):
    _assert_slopes_near_oracle(gamma, q, t)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(q=st.floats(0.0, 1.0), t=st.floats(1e-6, 20.0))
def test_unitary_slope_readouts_meet_the_50_digit_oracle(q, t):
    _assert_slopes_near_oracle(0.0, q, t)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(q=st.floats(0.05, 1.0), delta=st.floats(1e-4, 1e-2),
       sign=st.sampled_from([-1.0, 1.0]), t=st.floats(1e-6, 20.0))
def test_locus_slope_readouts_meet_the_50_digit_oracle(q, delta, sign, t):
    _assert_slopes_near_oracle(ep_radius(q).r_ep * (1.0 + sign * delta), q, t)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(t=st.floats(1e-6, 20.0))
@pytest.mark.parametrize("gamma, q", [(1.0, 0.0), (2.0, 1.0)])
def test_fallback_slope_readouts_meet_the_50_digit_oracle(gamma, q, t):
    assert not lgi._Cells([gamma], [q], ModelParams(1.0, 1.0)).spectral[0]
    _assert_slopes_near_oracle(gamma, q, t)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(gamma=st.floats(0.0, 20.0), q=st.floats(0.0, 1.0),
       t=st.floats(1e-6, 20.0))
def test_theta_one_slope_readouts_meet_the_50_digit_oracle(gamma, q, t):
    _assert_slopes_near_oracle(gamma, q, t, ModelParams(1.0, 1.0, theta=1.0))


#: |dK3/dt - mpmath.diff of the 50-digit K3|, and the same for K3: measured
#: at most 1.3e-15 and 2.2e-15 on the cells below (gamma = 0 at t = 2 and
#: (1, 0) at t = 3)
K3_SLOPE_TOL = 1e-14


@pytest.mark.parametrize("gamma, q, t", [
    (0.5, 0.3, 0.56), (3.0, 0.05, 7.9), (0.0, 0.5, 2.0), (1.0, 0.0, 3.0),
    (2.0, 1.0, 0.7), (ep_radius(0.1).r_ep * 0.99, 0.1, 0.03)])
def test_k3_slope_meets_the_derivative_of_the_50_digit_k3(gamma, q, t):
    cells = lgi._Cells([gamma], [q], ModelParams(1.0, 1.0))
    value, slope = cells.value_and_slope([0], [t], SWEEP_TRACE_FLOOR)
    k3 = mp_k3(cells.generators[0])
    with mpmath.workdps(50):
        want = mpmath.diff(k3, mpmath.mpf(t))
        assert abs(value[0] - float(k3(mpmath.mpf(t)))) <= K3_SLOPE_TOL
    assert abs(slope[0] - float(want)) <= K3_SLOPE_TOL


@pytest.mark.parametrize("gamma, q", [
    (0.5, 0.3), (0.0, 0.5), (ep_radius(0.1).r_ep * 0.99, 0.1)])
def test_peak_time_is_the_50_digit_root_of_the_slope(gamma, q):
    # generic, gamma = 0 and a locus cell at delta = -1e-2 with its crest at
    # t = 0.031: t* lies within the search's stopping width of the root of
    # the derivative of the K3 oracle (measured 1.6e-12, 1.7e-14, 3.4e-14),
    # here at 25 digits, which the root of a double generator's K3 needs
    # with room to spare
    best = optimize_k3(ModelParams(gamma, q))
    k3 = mp_k3(lgi._Cells([gamma], [q], ModelParams(1.0, 1.0)).generators[0])
    with mpmath.workdps(25):
        start = mpmath.mpf(best.t_star)
        root = mpmath.findroot(lambda t: mpmath.diff(k3, t),
                               (start, start * (1 + 1e-9)), tol=1e-20)
    assert abs(best.t_star - float(root)) <= lgi._ROOT_RTOL * best.t_star


def test_readout_and_branch_vectors_are_the_pauli_coordinates():
    # (sx, sy, sz, r) of bloch_decompose's (r, sx, sy, sz); the readout rows
    # read Tr[rho] and Tr[sigma_y rho]
    def coordinates(rho):
        r, sx, sy, sz = model.bloch_decompose(rho)
        return np.array([sx, sy, sz, r])

    branches = [model.PROJECTOR_PLUS, model.PROJECTOR_MINUS]
    assert np.array_equal(lgi._BRANCHES.T, [coordinates(p) for p in branches])
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        assert np.allclose(lgi._READOUT @ coordinates(rho),
                           [np.trace(rho).real,
                            np.trace(model.SIGMA_Y @ rho).real],
                           rtol=1e-15, atol=0)


def test_a_cell_does_not_depend_on_the_realness_of_its_stack():
    # numpy's eig returns real arrays for a real stack whose spectra are all
    # real, and complex ones as soon as one cell's spectrum is not
    params = ModelParams(1.0, 1.0)
    overdamped = lgi._Cells([3.0, 4.0], [0.5, 0.1], params)
    mixed = lgi._Cells([3.0, 0.5], [0.5, 0.3], params)
    assert np.linalg.eig(overdamped.generators)[0].dtype == float
    assert np.linalg.eig(mixed.generators)[0].dtype == complex
    grid = np.linspace(0.01, 20.0, 2000)
    assert np.array_equal(overdamped.eigs[0], mixed.eigs[0])
    assert np.array_equal(overdamped.weights[0], mixed.weights[0])
    for both_at_2t in (False, True):
        for got, want in zip(overdamped.readouts(0, grid, both_at_2t),
                             mixed.readouts(0, grid, both_at_2t)):
            assert np.array_equal(got, want)
    assert np.array_equal(
        _own_scan(overdamped, np.array([0]), grid, SWEEP_TRACE_FLOOR),
        _own_scan(mixed, np.array([0]), grid, SWEEP_TRACE_FLOOR))


class _StubCurves:
    """What ``_coarse_peaks`` reads of a ``_Cells``: one fixed grid curve per
    cell, whatever the grid."""

    def __init__(self, curves):
        self.generators = np.asarray(curves, dtype=float)

    def scan(self, cells, grid, eps_trace, space):
        return self.generators[cells]


#: grid values that make plateaus, ties at the window edge below a row
#: maximum of 1 and extinguished points
_CURVE_LEVELS = [-np.inf, 0.0, 1.0 - 2 * lgi._PEAK_WINDOW,
                 1.0 - lgi._PEAK_WINDOW, 1.0 - lgi._PEAK_WINDOW / 2, 1.0]


@st.composite
def _stub_curves(draw):
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40)))
    value = st.one_of(st.sampled_from(_CURVE_LEVELS), st.floats(-1.0, 1.0))
    row = st.one_of(st.lists(value, min_size=n, max_size=n),
                    st.just([-np.inf] * n))
    return np.array(draw(st.lists(row, min_size=1, max_size=9)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(curves=_stub_curves(), block_points=st.sampled_from([1, 40, 8192]))
def test_sparse_peak_test_gives_the_dense_candidates(curves, block_points):
    grid = np.arange(float(curves.shape[1]))
    want = dense_coarse_peaks(_StubCurves(curves), grid, SWEEP_TRACE_FLOOR)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lgi, "_SCAN_BLOCK_POINTS", block_points)
        got = lgi._coarse_peaks(_StubCurves(curves), grid, SWEEP_TRACE_FLOOR)
    for actual, expected in zip(got, want):
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)


#: spectral cells and the fourfold and defective Newton cells; at a floor
#: of 0.5 the q < 1 cells are extinguished from t = 0.17 ((3, 0)) to 0.86
_SECTION_CELLS = lgi._Cells([0.5, 1.0, 2.0, 0.0, 3.0], [0.3, 0.0, 1.0, 0.5, 0.0],
                            ModelParams(gamma=1.0, q=1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(brackets=st.lists(
    st.tuples(st.integers(0, 4), st.floats(1e-7, 30.0),
              st.sampled_from([0.0, 5e-7, 1e-6, 2e-6, 1e-3, 0.05, 2.0]),
              st.sampled_from([None, 0, 1])),
    min_size=1, max_size=12),
    eps_trace=st.sampled_from([SWEEP_TRACE_FLOOR, 0.5]))
def test_peak_search_reports_a_finite_end_of_a_broken_bracket(
        brackets, eps_trace):
    # at a floor of 0.5 the brackets reach -inf values, with NaN slopes;
    # a bracket may also have a NaN slope planted on a finite end
    times = np.linspace(1e-7, 32.0, 400)
    value = _SECTION_CELLS.value(np.arange(5)[:, None], times, 0.5)
    assert (value == -np.inf).any(axis=1).tolist() == [
        True, True, False, False, True]
    assert np.isfinite(value[:, 0]).all()

    owner, a, width, planted = zip(*brackets)
    owner, a = np.array(owner), np.array(a)
    b = a + np.array(width)
    ends = np.stack(_SECTION_CELLS.value_and_slope(owner, np.stack((a, b)),
                                                   eps_trace))
    for k, end in enumerate(planted):
        if end is not None:
            ends[1, end, k] = np.nan
    t, value = lgi._peak_search(_SECTION_CELLS, owner, a, b, ends, eps_trace)
    assert not np.isnan(value).any()
    (fa, fb), (da, db) = ends
    assert np.isfinite(value[(fa > -np.inf) | (fb > -np.inf)]).all()
    broken = (fa == -np.inf) | (fb == -np.inf) | np.isnan(da) | np.isnan(db)
    assert np.array_equal(t[broken], np.where(fb > fa, b, a)[broken])
    assert np.array_equal(value[broken], np.maximum(fa, fb)[broken])
    assert np.all((a <= t) & (t <= b))
    # a bracket searched alone gives what it gives in the batch
    for k in range(len(a)):
        one = slice(k, k + 1)
        alone = lgi._peak_search(_SECTION_CELLS, owner[one], a[one], b[one],
                                 ends[..., one], eps_trace)
        assert (alone[0][0], alone[1][0]) == (t[k], value[k])


@pytest.mark.parametrize("q", [1e-6, 1e-4, 1e-2])
def test_plateau_next_to_t0_reports_the_first_bracket_reach(q, monkeypatch):
    # at gamma = J, K3 falls from its t -> 0+ limit of 1 so slowly that it
    # reads 1 to the last bits next to t -> 0+ (up to t = 4.5e-4 at
    # q = 1e-6), and dK3/dt is below its rounding there (-7e-18 at t = 1e-6
    # against about 7e-16); t* is the reach of the first bracket, whatever
    # the last bits of the scan
    params = ModelParams(gamma=1.0, q=q)
    best = optimize_k3(params)
    assert best.t_star == lgi._REFINE_TOL
    scan = lgi._Cells.scan
    for seed in range(4):
        signs = np.random.default_rng(seed).choice([-np.inf, np.inf], 2000)

        def nudged(self, cells, grid, eps_trace, space, signs=signs):
            return np.nextafter(scan(self, cells, grid, eps_trace, space),
                                signs[:len(grid)])

        monkeypatch.setattr(lgi._Cells, "scan", nudged)
        assert optimize_k3(params) == best


def _peaks_at(positions, heights):
    curve = np.zeros(220)
    curve[positions] = heights
    return curve


def test_coarse_peaks_collapse_tied_runs_only():
    rng = np.random.default_rng(3)
    plateau = 1.0 + 1e-15 * rng.standard_normal(200)
    positions = [5, 15, 25, 35, 45]
    curves = [
        np.concatenate([np.zeros(10), plateau, np.zeros(10)]),
        # a later peak higher by more than _TIE_TOL survives
        _peaks_at(positions[:2], [1.0, 1.0 + 2e-9]),
        # a tie run is anchored on its first member: 1 + 1.2e-9 is 0.6e-9
        # above its neighbour but opens a new run, and 1 + 1.7e-9 joins it
        _peaks_at(positions, [1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9, 1.0 + 1.7e-9,
                              1.0]),
    ]
    assert len(np.flatnonzero(
        (plateau[1:-1] >= plateau[:-2]) & (plateau[1:-1] >= plateau[2:]))) > 20
    owner, index, masked, flat = lgi._coarse_peaks(
        _StubCurves(curves), np.arange(220.0), SWEEP_TRACE_FLOOR)
    assert not masked.any() and not flat.any()
    assert owner.tolist() == [0, 1, 1, 2, 2, 2]
    first_plateau_peak = 10 + int(np.argmax(
        (plateau >= np.r_[-np.inf, plateau[:-1]])
        & (plateau >= np.r_[plateau[1:], -np.inf])))
    assert index.tolist() == [first_plateau_peak, 5, 15, 5, 25, 45]


def test_flat_curves_pin_their_earliest_finite_point():
    rng = np.random.default_rng(5)
    noise = 1.0 + 1e-12 * rng.standard_normal(200)
    gone = np.full(10, -np.inf)
    curves = [
        noise,
        # extinguished at both ends: the first finite point is 10
        np.concatenate([gone, noise[:180], gone]),
        # a spread of 2e-9 is not flat: its one peak stays where it is
        np.concatenate([gone, np.linspace(1.0, 1.0 + 2e-9, 190)]),
        np.full(200, -np.inf),
    ]
    owner, index, masked, flat = lgi._coarse_peaks(
        _StubCurves(curves), np.arange(200.0), SWEEP_TRACE_FLOOR)
    assert masked.tolist() == [False, False, False, True]
    assert flat.tolist() == [True, True, False, False]
    assert owner.tolist() == [0, 1, 2]
    assert index.tolist() == [0, 10, 199]


def test_flat_fourfold_cell_refines_one_candidate(monkeypatch):
    params = ModelParams(gamma=1.0, q=0.0)
    config = OptimizeConfig()
    horizon = config.horizon(params)
    grid = np.linspace(horizon / config.resolution, horizon, config.resolution)
    owner, _, _, flat = lgi._coarse_peaks(lgi._Cells([1.0], [0.0], params),
                                          grid, config.eps_trace)
    assert len(owner) == 1  # 668 tied noise maxima before the collapse
    assert flat.tolist() == [True]

    def no_expm(matrices):
        raise AssertionError("the K3 engine exponentiated a matrix")

    # the Newton form needs no matrix exponential
    monkeypatch.setattr(dynamics, "expm", no_expm)
    monkeypatch.setattr(numerics, "expm", no_expm)
    assert not optimize_k3(params).masked


def test_flat_curve_reports_its_earliest_grid_point(monkeypatch):
    # K3 at (1, 0) is flat to about 2e-11 over the whole grid: t* is the
    # first grid point, whatever the last bits of the scan
    params = ModelParams(gamma=1.0, q=0.0)
    config = OptimizeConfig()
    best = optimize_k3(params, config)
    assert best.t_star == config.horizon(params) / config.resolution
    assert best.k3_max == k3(params, best.t_star, eps_trace=SWEEP_TRACE_FLOOR)
    scan = lgi._Cells.scan
    for seed in range(4):
        signs = np.random.default_rng(seed).choice([-np.inf, np.inf], 2000)

        def nudged(self, cells, grid, eps_trace, space, signs=signs):
            return np.nextafter(scan(self, cells, grid, eps_trace, space),
                                signs[:len(grid)])

        monkeypatch.setattr(lgi._Cells, "scan", nudged)
        assert optimize_k3(params, config) == best


def test_flat_grid_curve_keeps_a_maximum_below_its_first_point():
    # with t_max = 1e5 the grid starts at t = 50, where (2, 1) has relaxed:
    # K3 is flat on the grid but rises to about 1 as t -> 0+
    params = ModelParams(gamma=2.0, q=1.0)
    config = OptimizeConfig(t_max=1e5)
    grid = np.linspace(1e5 / config.resolution, 1e5, config.resolution)
    _, _, _, flat = lgi._coarse_peaks(lgi._Cells([2.0], [1.0], params), grid,
                                      config.eps_trace)
    assert flat.tolist() == [True]
    assert optimize_k3(params, config) == optimize_k3(params)


@pytest.mark.parametrize("gamma, q", [(0.5, 0.3), (0.0, 0.5), (1.5, 0.2)])
def test_one_point_grid_refines_a_peak_below_its_point(gamma, q):
    # a one-point grid is flat by definition; with t_max just past the peak
    # the best rescan point is the grid point itself, and the peak in the
    # last rescan interval must still be refined
    params = ModelParams(gamma=gamma, q=q)
    best = optimize_k3(params)
    config = OptimizeConfig(t_max=1.02 * best.t_star, resolution=1)
    one = optimize_k3(params, config)
    assert abs(one.k3_max - best.k3_max) <= 1e-12
    assert abs(one.t_star - best.t_star) <= lgi._REFINE_TOL


def _default_grid_cells():
    base = ModelParams(gamma=1.0, q=1.0)
    gammas, qs = np.linspace(0.05, 5.0, 40), np.logspace(-6, 0, 25)
    horizon = OptimizeConfig().horizon(base)
    return (lgi._Cells(np.repeat(gammas, 25), np.tile(qs, 40), base),
            np.linspace(horizon / 2000, horizon, 2000))


def test_default_grid_keeps_every_separate_peak():
    # measured before and after the tie collapse: the near-unitary peaks of
    # the default grid are separate, so none of them is collapsed
    cells, grid = _default_grid_cells()
    owner, _, masked, flat = lgi._coarse_peaks(cells, grid, SWEEP_TRACE_FLOOR)
    assert not masked.any()
    assert not flat.any()
    assert len(owner) == 1227
    assert np.bincount(owner).max() == 7


#: (gamma, q) cells of each hard region of the plane, plus generic ones;
#: the locus cells sit at r_ep(q) (1 + delta)
_BUDGET_CELLS = {
    "generic": [(0.5, 0.3), (1.7, 0.05), (3.0, 0.9)],
    "locus": [(ep_radius(q).r_ep * (1.0 + delta), q) for q in (0.3, 0.7, 1.0)
              for delta in (0.0, 1e-8, -1e-8, 1e-2, -1e-2)],
    "q <= 1e-6": [(0.9905, 1e-6), (0.9905, 0.0), (0.5, 1e-7), (2.0, 0.0),
                  (0.3, 0.0)],
    "gamma = 0": [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)],
    "fourfold (1, 0)": [(1.0, 0.0)],
}

#: K3 points per cell beyond the 2000-point coarse scan, measured at most:
#: generic 13, locus 9, q <= 1e-6 75, gamma = 0 85 (seven crests in the
#: window, each rescanned at 9 points), fourfold 9; 150 leaves about 1.8x
#: headroom.  Batched calls per cell, the scan's included, measured at most:
#: generic 6, locus 2, q <= 1e-6 6, gamma = 0 6, fourfold 2; 15 leaves room
#: for the scan, the rescan and the peak search's cap of ``_ROOT_ROUNDS``
#: rounds, but for no per-candidate or per-point loop.
_REFINE_POINT_BUDGET = 150
_VALUE_CALL_BUDGET = 15


@pytest.mark.parametrize("region", sorted(_BUDGET_CELLS))
def test_optimize_work_budget_per_region(region, monkeypatch):
    # (method, points) of every outermost K3 call: every direct evaluation,
    # the rescan and the peak search included, is an ``_Cells.value`` or
    # ``_Cells.value_and_slope`` call
    calls, depth = [], [0]

    def counting(owner, name, points):
        method = getattr(owner, name)

        def counted(self, *args):
            if not depth[0]:
                calls.append((name, points(self, *args)))
            depth[0] += 1
            try:
                return method(self, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, name, counted)

    def direct(self, cells, times, eps_trace):
        return np.broadcast(cells, times).size

    counting(lgi._Cells, "scan",
             lambda self, cells, grid, eps_trace, space: len(cells) * len(grid))
    counting(lgi._Cells, "value", direct)
    counting(lgi._Cells, "value_and_slope", direct)
    config = OptimizeConfig()
    for gamma, q in _BUDGET_CELLS[region]:
        calls.clear()
        assert not optimize_k3(ModelParams(gamma=gamma, q=q), config).masked
        # the coarse scan comes first, then only direct evaluations
        assert calls[0] == ("scan", config.resolution)
        assert {name for name, _ in calls[1:]} <= {"value", "value_and_slope"}
        refine = sum(points for _, points in calls[1:])
        assert refine <= _REFINE_POINT_BUDGET, (gamma, q, refine)
        assert len(calls) <= _VALUE_CALL_BUDGET, (gamma, q, len(calls))


def _direct_scan(cells, grid):
    """Every cell's coarse-scan row as ``value`` at each grid point: the
    reference for ``_Cells.scan``."""
    every = np.arange(len(cells.generators))
    return cells.value(every[:, None], grid, SWEEP_TRACE_FLOOR)


def test_scan_gives_the_candidates_of_a_direct_scan():
    cells, grid = _default_grid_cells()
    direct = _direct_scan(cells, grid)
    scan = _own_scan(cells, np.arange(len(direct)), grid, SWEEP_TRACE_FLOOR)
    finite = np.isfinite(direct)
    assert np.array_equal(np.isfinite(scan), finite)
    assert np.abs(scan[finite] - direct[finite]).max() <= 1e-12  # 1.3e-13
    regions = [lgi._Cells(*zip(*region), ModelParams(gamma=1.0, q=1.0))
               for region in _BUDGET_CELLS.values()]
    for cells, direct in [(cells, direct)] + [
            (region, _direct_scan(region, grid)) for region in regions]:
        expected = lgi._coarse_peaks(_StubCurves(direct), grid,
                                     SWEEP_TRACE_FLOOR)
        actual = lgi._coarse_peaks(cells, grid, SWEEP_TRACE_FLOOR)
        for got, want in zip(actual, expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("resolution", [1, 2, 3, 7, 2000, 2001])
def test_scan_rows_do_not_depend_on_the_block(resolution):
    # at theta = pi/2, (2, 1) and (1, 0) take the Newton form, gamma = 0 the
    # Schur route, and (0.5, 0.3) has a conjugate pair; at theta = 1 every
    # cell is spectral and has a pair, and gamma = 0 two.  At resolutions
    # 3, 7 and 2001 the last block of M = ceil(sqrt(n)) points runs past the
    # grid, and 1 and 2 are a single block
    pi_half = lgi._Cells([0.5, 2.0, 0.0, 1.0, 3.0], [0.3, 1.0, 0.5, 0.0, 1e-6],
                         ModelParams(gamma=1.0, q=1.0))
    assert pi_half.spectral.tolist() == [True, False, True, False, True]
    theta_one = lgi._Cells([0.5, 2.0, 0.0, 1.0, 3.0, 0.0],
                           [0.3, 1.0, 0.5, 0.0, 1e-6, 1.0],
                           ModelParams(gamma=1.0, q=1.0, theta=1.0))
    assert theta_one.spectral.all()
    grid = np.linspace(20.0 / resolution, 20.0, resolution)
    for cells in (pi_half, theta_one):
        every = np.arange(len(cells.gammas))
        block = _own_scan(cells, every, grid, SWEEP_TRACE_FLOOR)
        assert block.shape == (len(every), resolution)
        for cell in every:
            alone = _own_scan(cells, np.array([cell]), grid, SWEEP_TRACE_FLOOR)
            assert np.array_equal(alone[0], block[cell])
            # spectral and Newton rows alike: 2.7e-13 at (1, 0)
            direct = cells.value(cell, grid, SWEEP_TRACE_FLOOR)
            assert np.array_equal(direct == -np.inf, block[cell] == -np.inf)
            finite = np.isfinite(direct)
            assert np.all(np.abs(block[cell] - direct)[finite] <= 1e-12)


def test_pair_scan_gives_the_candidates_of_a_direct_scan(monkeypatch):
    # at theta = 1 every cell of the default grid has a conjugate pair, and
    # the 25 gamma = 0 cells two, whose Schur nodes are conjugate only to
    # rounding; all of them stay on the blocked scan, which reads no value
    base = ModelParams(gamma=1.0, q=1.0, theta=1.0)
    gammas = np.concatenate(([0.0], np.linspace(0.05, 5.0, 40)))
    cells = lgi._Cells(np.repeat(gammas, 25), np.tile(np.logspace(-6, 0, 25),
                                                      41), base)
    assert cells.spectral.all()
    assert (np.abs(cells.eigs.imag).max(axis=1) > 0.1).all()
    grid = np.linspace(20.0 / 2000, 20.0, 2000)
    direct = _direct_scan(cells, grid)

    def no_value(*args):
        raise AssertionError("the scan read value")

    monkeypatch.setattr(lgi._Cells, "value", no_value)
    scan = _own_scan(cells, np.arange(len(direct)), grid, SWEEP_TRACE_FLOOR)
    finite = np.isfinite(direct)
    assert np.array_equal(np.isfinite(scan), finite)
    assert np.abs(scan[finite] - direct[finite]).max() <= 1e-12  # 2.0e-14
    expected = lgi._coarse_peaks(_StubCurves(direct), grid, SWEEP_TRACE_FLOOR)
    actual = lgi._coarse_peaks(cells, grid, SWEEP_TRACE_FLOOR)
    for got, want in zip(actual, expected):
        assert np.array_equal(got, want)


def test_newton_scan_gives_the_candidates_of_a_direct_scan(monkeypatch):
    # the fourfold (1, 0), the defective (2, 1) and, at a condition limit of
    # 1e4, the locus cells leave the eigenbasis; blocks of Newton cells
    # only, and blocks that mix them with spectral cells, read no value
    monkeypatch.setattr(dynamics, "_EIG_COND_LIMIT", 1e4)
    cells = lgi._Cells(*zip((1.0, 0.0), (2.0, 1.0), (0.5, 0.3),
                            *_BUDGET_CELLS["locus"], (0.0, 0.5)),
                       ModelParams(gamma=1.0, q=1.0))
    assert (~cells.spectral).sum() == 11
    grid = np.linspace(20.0 / 2000, 20.0, 2000)
    direct = _direct_scan(cells, grid)

    def no_value(*args):
        raise AssertionError("the scan read value")

    monkeypatch.setattr(lgi._Cells, "value", no_value)
    scan = _own_scan(cells, np.arange(len(direct)), grid, SWEEP_TRACE_FLOOR)
    finite = np.isfinite(direct)
    assert np.array_equal(np.isfinite(scan), finite)
    assert np.abs(scan[finite] - direct[finite]).max() <= 1e-12  # 2.5e-13
    expected = lgi._coarse_peaks(_StubCurves(direct), grid, SWEEP_TRACE_FLOOR)
    for block in (8, 1):
        monkeypatch.setattr(lgi, "_SCAN_BLOCK_POINTS", block * len(grid))
        actual = lgi._coarse_peaks(cells, grid, SWEEP_TRACE_FLOOR)
        for got, want in zip(actual, expected):
            assert np.array_equal(got, want)

#: four cells that keep every trace above 0.5, then partly extinguished
#: ones, the Newton cells (1, 0) and (2, 1), gamma = 0 cells (Schur), a cell
#: whose tr- readout is NaN and one whose tr- alone is below the floor
#: (:func:`_leak_cells`); 13 cells leave a short last block at 4 and at 8
#: cells per block
_LEAK_CELLS = [(0.5, 1.0), (3.0, 1.0), (0.0, 0.5), (0.0, 1.0),
               (0.5, 0.3), (3.0, 0.5), (1.0, 0.0), (0.7, 0.4),
               (0.9905, 1e-6), (2.5, 0.7), (0.2, 0.05), (0.0, 0.3),
               (2.0, 1.0)]


def _leak_cells():
    cells = lgi._Cells(*zip(*_LEAK_CELLS), ModelParams(gamma=1.0, q=1.0))
    cells.weights[7, :, 1] = np.nan  # a NaN trace at every point of (0.7, 0.4)
    cells.weights[9, :, 1] *= 1e-260  # tr- of (2.5, 0.7) below 1e-250
    return cells


@pytest.mark.parametrize("eps_trace", [SWEEP_TRACE_FLOOR, 0.5])
def test_scan_workspace_does_not_leak_between_blocks(eps_trace, monkeypatch):
    # the same candidates at 1, 4 and 8 cells per block, in one _Cells whose
    # workspace has run every earlier block and in a fresh one; at a floor
    # of 0.5 the extinguished block (4..7) follows a clean one (0..3)
    grid = np.linspace(0.01, 20.0, 2000)
    cells = _leak_cells()
    assert cells.spectral.tolist() == [True] * 6 + [False] + [True] * 5 + [False]
    curves = _own_scan(cells, np.arange(len(_LEAK_CELLS)), grid, eps_trace)
    extinguished = (curves == -np.inf).any(axis=1)
    assert (curves[[7, 9]] == -np.inf).all()
    if eps_trace == 0.5:
        assert extinguished.tolist()[:8] == [False] * 4 + [True] * 4
    default = lgi._SCAN_BLOCK_POINTS // len(grid)
    assert default == 8
    runs = []
    for block_cells in (1, 4, default):
        monkeypatch.setattr(lgi, "_SCAN_BLOCK_POINTS", block_cells * len(grid))
        runs += [lgi._coarse_peaks(scanned, grid, eps_trace)
                 for scanned in (cells, _leak_cells())]
    masked = runs[0][2]
    assert np.flatnonzero(masked).tolist() == [7, 9]
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


def test_scan_curve_outlives_later_scans():
    grid = np.linspace(0.01, 20.0, 2000)
    cells = _leak_cells()
    space = lgi._ScanSpace(4, len(grid))
    first = cells.scan(np.arange(4), grid, 0.5, space)
    kept = first.copy()
    # extinguished, NaN and Newton cells, then a short block
    cells.scan(np.arange(4, 8), grid, 0.5, space)
    cells.scan(np.arange(12, 13), grid, SWEEP_TRACE_FLOOR, space)
    assert np.array_equal(first, kept)
    assert np.array_equal(cells.scan(np.arange(4), grid, 0.5, space), kept)


def test_scan_workspace_fits_the_cells_scanned(monkeypatch):
    built, freed = [], []

    class Recorded(lgi._ScanSpace):
        def __init__(self, size, n):
            built.append((size, n, weakref.ref(self)))
            super().__init__(size, n)

    search = lgi._peak_search

    def entered(*args):
        # the coarse scan's workspace is gone before the refinement starts
        freed.append(all(space() is None for _, _, space in built))
        return search(*args)

    monkeypatch.setattr(lgi, "_ScanSpace", Recorded)
    monkeypatch.setattr(lgi, "_peak_search", entered)
    optimize_k3(ModelParams(gamma=0.5, q=0.3))
    assert [(size, n) for size, n, _ in built] == [(1, 2000)]
    # 125 cells: 16 blocks of at most 8 cells share one workspace
    built.clear()
    lgi.sweep(np.linspace(0.5, 2.5, 5), np.logspace(-6, 0, 25))
    assert [(size, n) for size, n, _ in built] == [(8, 2000)]
    assert freed == [True, True]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(q=st.floats(0.0, 1.0), J=st.floats(0.25, 4.0),
       periods=st.floats(2.0, 8.0))
def test_unitary_periodic_peaks_resolve_to_earliest_crest(q, J, periods):
    # at gamma = 0 every crest of K3 reaches 1.5; the earliest must win
    params = ModelParams(gamma=0.0, q=q, J=J)
    best = optimize_k3(params, OptimizeConfig(t_max=periods * 2 * np.pi / J))
    assert best.k3_max == pytest.approx(1.5, abs=1e-9)
    assert best.t_star == pytest.approx(np.pi / (3 * J), abs=1e-5)


def test_sweep_rows_are_gamma_outer_fixed_order():
    result = sweep([0.5, 1.5], [0.1, 1.0])
    rows = list(result.rows())
    assert [(r[0], r[1]) for r in rows] == [
        (0.5, 0.1), (0.5, 1.0), (1.5, 0.1), (1.5, 1.0)]


def test_sweep_masks_cells_instead_of_aborting():
    config = OptimizeConfig(eps_trace=2.0)  # extinguishes everything
    result = sweep([0.9], [0.0, 1.0], config=config)
    assert result.masked[0, 0]
    assert np.isnan(result.k3_max[0, 0])
    assert result.masked.all()
    assert [row[4] for row in result.rows()] == [lgi.MASKED_MESSAGE] * 2


@pytest.mark.parametrize("gamma_grid, q_grid, message", [
    ([0.5, -1.0], [0.5, 1.0], "gamma must be >= 0, got -1.0"),
    ([0.5, 1.0], [0.5, 2.0], "q must lie in [0, 1], got 2.0"),
    # both bad: the cell loop meets (0.5, 2.0) before (-1.0, 0.5)
    ([0.5, -1.0], [0.5, 2.0], "q must lie in [0, 1], got 2.0"),
    ([-1.0, 0.5], [0.5, 2.0], "gamma must be >= 0, got -1.0"),
    ([0.5, np.nan], [0.5, 1.0], "gamma must be >= 0, got nan"),
])
@pytest.mark.parametrize("grid_map", ["sweep", "nsit"])
def test_grid_validation_raises_the_first_bad_cell_error(
        gamma_grid, q_grid, message, grid_map):
    base = ModelParams(gamma=1.0, q=1.0)
    with pytest.raises(ValueError) as exc:
        if grid_map == "sweep":
            sweep(gamma_grid, q_grid, base, OptimizeConfig(resolution=20))
        else:
            nsit_grid(np.asarray(gamma_grid), np.asarray(q_grid), base, t=1.0)
    assert str(exc.value) == message


def test_intermediate_correlator_decomposes_over_joint_outcomes():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = ModelParams(gamma=rng.uniform(0.1, 2), q=rng.uniform(0, 1))
        t = rng.uniform(0.1, 4.0)
        record = correlators(params, t)
        reconstructed = sum(q1 * q2 * p for (q1, q2), p
                            in expm_pair_probabilities(params, t).items())
        assert abs(reconstructed - record.c12) <= 1e-10


def test_sweep_trace_floor_keeps_conditioned_cells_alive():
    # default observation floor would clip the landscape at long horizons
    params = ModelParams(gamma=0.9905, q=1e-6)
    strict = k3_curve(params, np.linspace(0.01, 20, 200), 1e-12)
    floored = k3_curve(params, np.linspace(0.01, 20, 200), SWEEP_TRACE_FLOOR)
    assert np.isnan(strict).any()
    assert np.isfinite(floored).all()
