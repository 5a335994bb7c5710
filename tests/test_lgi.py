import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    expm_correlators,
    expm_pair_probabilities,
    expm_readouts,
    k3_curve,
    no_jump_state,
)
from hybridlg import lgi
from hybridlg.errors import TrajectoryExtinguishedError
from hybridlg.lgi import (
    OptimizeConfig,
    SWEEP_TRACE_FLOOR,
    correlators,
    k3,
    optimize_k3,
    sweep,
)
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


def test_optimize_unitary_limit():
    best = optimize_k3(ModelParams(gamma=0.0, q=1.0))
    assert best.k3_max == pytest.approx(1.5, abs=1e-6)
    assert best.t_star == pytest.approx(np.pi / 3, abs=1e-4)


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


def test_sweep_worker_independence():
    config = OptimizeConfig(resolution=400)
    grids = (
        (np.linspace(0.3, 1.2, 3), np.logspace(-3, 0, 3)),
        # gamma = 0 takes the Schur route, (2, 1) is exactly defective and
        # takes the expm route
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


def test_stacked_expm_fallback_matches_per_point_oracle():
    # (2, 1) and (1, 0) are defective and take the expm fallback; the generic
    # cell stays spectral and must not be disturbed by the stacked call
    cells = lgi._Cells([2.0, 0.7, 1.0], [1.0, 0.3, 0.0], ModelParams(1.0, 1.0))
    assert cells.spectral.tolist() == [False, True, False]
    rng = np.random.default_rng(7)
    shapes = [(np.int64(0), 0.37), (np.int64(1), 0.37),
              (np.array([0, 1, 2, 2, 0]), rng.uniform(1e-6, 20.0, 5)),
              (np.array([[0], [1], [2]]), rng.uniform(1e-3, 20.0, 4))]
    for both_at_2t in (False, True):
        for owner, times in shapes:
            at_t, at_2t = cells.readouts(owner, times, both_at_2t)
            owner, times = np.broadcast_arrays(owner, times)
            assert at_t.shape == owner.shape + (4,)
            assert at_2t.shape == owner.shape + ((4,) if both_at_2t else (2,))
            for index in np.ndindex(owner.shape):
                cell, t = int(owner[index]), float(times[index])
                if cells.spectral[cell]:
                    expected = cells.readouts(cell, t, both_at_2t)
                else:
                    expected = expm_readouts(cells.generators[cell], t,
                                             both_at_2t)
                assert np.array_equal(at_t[index], expected[0])
                assert np.array_equal(at_2t[index], expected[1])


class _StubCurves:
    """What ``_coarse_peaks`` reads of a ``_Cells``: one fixed grid curve per
    cell, whatever the grid."""

    def __init__(self, curves):
        self.generators = np.asarray(curves, dtype=float)

    def scan(self, cells, grid, eps_trace):
        return self.generators[cells]


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
    owner, index, masked = lgi._coarse_peaks(
        _StubCurves(curves), np.arange(220.0), SWEEP_TRACE_FLOOR)
    assert not masked.any()
    assert owner.tolist() == [0, 1, 1, 2, 2, 2]
    first_plateau_peak = 10 + int(np.argmax(
        (plateau >= np.r_[-np.inf, plateau[:-1]])
        & (plateau >= np.r_[plateau[1:], -np.inf])))
    assert index.tolist() == [first_plateau_peak, 5, 15, 5, 25, 45]


def test_flat_fourfold_cell_refines_one_candidate(monkeypatch):
    params = ModelParams(gamma=1.0, q=0.0)
    config = OptimizeConfig()
    horizon = config.horizon(params)
    grid = np.linspace(horizon / config.resolution, horizon, config.resolution)
    owner, _, _ = lgi._coarse_peaks(lgi._Cells([1.0], [0.0], params), grid,
                                    config.eps_trace)
    assert len(owner) == 1  # 668 tied noise maxima before the collapse

    exponentiated = []

    def counting_expm(matrices):
        exponentiated.append(len(matrices))
        return expm(matrices)

    expm = lgi.expm
    monkeypatch.setattr(lgi, "expm", counting_expm)
    assert not optimize_k3(params).masked
    # 2 x (2000 scan + 9 rescan + about 20 golden-section points); 42,716
    # before the collapse and the stacked fallback
    assert sum(exponentiated) <= 4100


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
    owner, _, masked = lgi._coarse_peaks(cells, grid, SWEEP_TRACE_FLOOR)
    assert not masked.any()
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

#: K3 points per cell beyond the 2000-point coarse scan: measured 28-29 on
#: generic, locus and most q <= 1e-6 cells, 145 and 174 on two q <= 1e-6
#: cells, 203 at gamma = 0 (three crests in the window); 300 leaves about
#: 1.5x headroom.  Every cell took 22-23 batched calls; 30 allows a few
#: more golden-section steps but no per-candidate or per-point loop.
_REFINE_POINT_BUDGET = 300
_VALUE_CALL_BUDGET = 30


@pytest.mark.parametrize("region", sorted(_BUDGET_CELLS))
def test_optimize_work_budget_per_region(region, monkeypatch):
    # (method, points) of every outermost K3 call: the scan of a cell off the
    # spectral path reads ``value`` inside, and that is still the scan
    calls, depth = [], [0]

    def counting(name):
        method = getattr(lgi._Cells, name)

        def counted(self, cells, times, eps_trace):
            if not depth[0]:
                calls.append((name, len(cells) * len(times) if name == "scan"
                              else np.broadcast(cells, times).size))
            depth[0] += 1
            try:
                return method(self, cells, times, eps_trace)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(lgi._Cells, name, counted)

    counting("scan")
    counting("value")
    config = OptimizeConfig()
    for gamma, q in _BUDGET_CELLS[region]:
        calls.clear()
        assert not optimize_k3(ModelParams(gamma=gamma, q=q), config).masked
        # the coarse scan comes first, then only direct evaluations
        assert calls[0] == ("scan", config.resolution)
        assert {name for name, _ in calls[1:]} == {"value"}
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
    scan = cells.scan(np.arange(len(direct)), grid, SWEEP_TRACE_FLOOR)
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
    # (2, 1) and (1, 0) take the expm fallback, gamma = 0 the Schur route; at
    # resolutions 3, 7 and 2001 the last block of M = ceil(sqrt(n)) points
    # runs past the grid, and 1 and 2 are a single block
    cells = lgi._Cells([0.5, 2.0, 0.0, 1.0, 3.0], [0.3, 1.0, 0.5, 0.0, 1e-6],
                       ModelParams(gamma=1.0, q=1.0))
    assert cells.spectral.tolist() == [True, False, True, False, True]
    grid = np.linspace(20.0 / resolution, 20.0, resolution)
    every = np.arange(5)
    block = cells.scan(every, grid, SWEEP_TRACE_FLOOR)
    assert block.shape == (5, resolution)
    for cell in every:
        alone = cells.scan(np.array([cell]), grid, SWEEP_TRACE_FLOOR)
        assert np.array_equal(alone[0], block[cell])
        direct = cells.value(cell, grid, SWEEP_TRACE_FLOOR)
        if cells.spectral[cell]:
            assert np.array_equal(direct == -np.inf, block[cell] == -np.inf)
            finite = np.isfinite(direct)
            assert np.all(np.abs(block[cell] - direct)[finite] <= 1e-12)
        else:
            assert np.array_equal(block[cell], direct)


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
