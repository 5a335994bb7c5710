import numpy as np
import pytest

from hybridlg import macrorealism
from hybridlg.dynamics import Propagator
from hybridlg.errors import TrajectoryExtinguishedError
from hybridlg.lgi import (
    OptimizeConfig,
    SWEEP_TRACE_FLOOR,
    correlators,
    k3,
    k3_curve,
    optimize_k3,
    sweep,
)
from hybridlg.model import ModelParams


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
        assert value == pytest.approx(correlators(params, t).k3, abs=1e-12)


def test_reused_propagator_must_match_parameters():
    params = ModelParams(gamma=0.8, q=0.4)
    other = Propagator(ModelParams(gamma=0.9, q=0.4))
    with pytest.raises(ValueError, match="propagator"):
        correlators(params, 1.0, propagator=other)


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
        assert serial.messages == parallel.messages
    # every cell of the last grid equals its own single-cell optimization,
    # bit for bit
    for i, gamma in enumerate(gammas):
        for j, q in enumerate(qs):
            best = optimize_k3(ModelParams(gamma=gamma, q=q), config)
            assert serial.k3_max[i, j] == best.k3_max
            assert serial.t_star[i, j] == best.t_star


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
    assert (0, 0) in result.messages


def test_intermediate_correlator_decomposes_over_joint_outcomes():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = ModelParams(gamma=rng.uniform(0.1, 2), q=rng.uniform(0, 1))
        t = rng.uniform(0.1, 4.0)
        record = correlators(params, t)
        table = macrorealism.joint_probabilities(params, t)
        reconstructed = macrorealism.correlator_from_pair(table, (1, 2))
        assert abs(reconstructed - record.c12) <= 1e-10


def test_sweep_trace_floor_keeps_conditioned_cells_alive():
    # default observation floor would clip the landscape at long horizons
    params = ModelParams(gamma=0.9905, q=1e-6)
    strict = k3_curve(params, np.linspace(0.01, 20, 200), 1e-12)
    floored = k3_curve(params, np.linspace(0.01, 20, 200), SWEEP_TRACE_FLOOR)
    assert np.isnan(strict).any()
    assert np.isfinite(floored).all()
