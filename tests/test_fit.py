import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import eval_fit
from hybridlg import lgi
from hybridlg.errors import OutOfDomainError
from hybridlg.model import ModelParams
from hybridlg.fit import (
    DEFAULT_LOG_BASE,
    FitCoefficients,
    TABLE_A,
    TABLE_B,
    TABLE_C,
    TABLE_D,
    eval_polynomials,
    in_fit_domain,
    residual_report,
    select_log_base,
)


def small_sweep(gammas=np.linspace(0.1, 0.9, 5), qs=np.logspace(-5, 0, 8)):
    return lgi.sweep(gammas, qs, config=lgi.OptimizeConfig(resolution=800))


def naive_polynomial(coeffs, gamma):
    return sum(c * gamma**n for n, c in enumerate(coeffs))


def test_published_table_spot_anchors():
    assert TABLE_A[0] == +6.2848e-1
    assert TABLE_B[0] == -4.9415e-1
    assert TABLE_C[0] == +1.7521
    assert TABLE_D[0] == +8.7271e-1
    assert TABLE_A[20] == +1.1125e2
    assert TABLE_B[20] == +2.1707e2
    assert TABLE_C[7] == +1.8993e3
    assert TABLE_D[20] == -7.3519e1
    assert all(len(t) == 21 for t in (TABLE_A, TABLE_B, TABLE_C, TABLE_D))


def test_polynomials_at_zero_return_constant_row():
    A, B, C, D = eval_polynomials(0.05)  # inside the domain; gamma^n tiny
    # at exactly gamma=0 the constants come out; check via extrapolation flag
    A0, B0, C0, D0 = eval_polynomials(0.0, allow_extrapolation=True)
    assert (A0, B0, C0, D0) == (0.62848, -0.49415, 1.7521, 0.87271)
    assert abs(A - A0) < 0.5  # continuity sanity


def test_polynomials_at_one_are_column_sums():
    A, B, C, D = eval_polynomials(1.0, allow_extrapolation=True)
    assert A == pytest.approx(sum(TABLE_A), rel=1e-12)
    assert B == pytest.approx(sum(TABLE_B), rel=1e-12)
    assert C == pytest.approx(sum(TABLE_C), rel=1e-12)
    assert D == pytest.approx(sum(TABLE_D), rel=1e-12)


def assert_matches_polyval(gamma):
    values = eval_polynomials(gamma, allow_extrapolation=True)
    for value, table in zip(values, (TABLE_A, TABLE_B, TABLE_C, TABLE_D)):
        assert type(value) is float
        assert value == float(np.polyval(table[::-1], gamma))


def test_horner_matches_naive_power_sum():
    for gamma in (0.05, 0.31, 0.77, 0.99, 2.5, 5.0):
        A, B, C, D = eval_polynomials(gamma, allow_extrapolation=True)
        for value, table in ((A, TABLE_A), (B, TABLE_B), (C, TABLE_C),
                             (D, TABLE_D)):
            reference = naive_polynomial(table, gamma)
            assert value == pytest.approx(reference, rel=1e-9)
    # bit for bit against numpy's Horner evaluation
    for gamma in (0.0, 0.05, 1.0, 2.0, 5.0):
        assert_matches_polyval(gamma)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma=st.floats(0.0, 6.0))
def test_horner_is_bitwise_polyval(gamma):
    assert_matches_polyval(gamma)


_SWEEP_ROWS = st.lists(st.tuples(
    st.floats(0.0, 6.0), st.floats(0.0, 1.0),
    st.floats(0.0, 3.0) | st.just(math.nan), st.just(1.0),
    st.sampled_from(["", "all time points extinguished"])), max_size=40)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=_SWEEP_ROWS, allow_extrapolation=st.booleans(),
       log_base=st.sampled_from(["e", "10"]))
def test_residual_report_rows_are_eval_fit_bit_for_bit(
        rows, allow_extrapolation, log_base):
    # residual_report runs one Horner over all rows; each value must be
    # the per-row oracle's
    coeffs = FitCoefficients.published(log_base)
    report = residual_report(rows, coeffs, allow_extrapolation)
    assert len(report.rows) == len(rows)
    for (gamma, q, k3_computed, _, message), row in zip(rows, report.rows):
        assert (row.gamma, row.q) == (gamma, q)
        if not allow_extrapolation and not in_fit_domain(gamma):
            assert row.region == "excluded"
        elif message or math.isnan(k3_computed):
            assert row.region == "masked"
        else:
            expected = eval_fit(gamma, q, coeffs, allow_extrapolation=True)
            assert type(row.k3_fit) is float
            assert row.k3_fit == expected or (math.isnan(row.k3_fit)
                                              and math.isnan(expected))
            continue
        assert math.isnan(row.k3_fit) and math.isnan(row.residual)


def test_residual_report_rejects_bad_efficiency():
    with pytest.raises(ValueError, match="q must lie in"):
        residual_report([(0.5, 0.3, 1.0, 1.0, ""), (0.5, 1.5, 1.0, 1.0, "")])
    # an excluded or masked row is not fitted, so its q is not checked
    residual_report([(1.5, 1.5, 1.0, 1.0, ""), (0.5, 1.5, 1.0, 1.0, "x")])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gammas=st.lists(st.floats(0.0, 6.0), max_size=30))
def test_horner_over_an_array_is_the_scalar_horner(gammas):
    values = eval_polynomials(np.array(gammas, dtype=float),
                              allow_extrapolation=True)
    for k, gamma in enumerate(gammas):
        assert [v[k] for v in values] == list(
            eval_polynomials(gamma, allow_extrapolation=True))


def test_domain_membership_and_guard():
    assert in_fit_domain(0.05) and in_fit_domain(0.999) and in_fit_domain(5.0)
    assert not in_fit_domain(1.0) and not in_fit_domain(2.0)
    assert not in_fit_domain(0.01) and not in_fit_domain(5.1)
    with pytest.raises(OutOfDomainError):
        eval_polynomials(1.5)
    eval_polynomials(1.5, allow_extrapolation=True)


def test_eval_fit_reference_points():
    coeffs = FitCoefficients.published()
    A, B, C, D = eval_polynomials(0.5)
    assert float(eval_fit(0.5, 1.0)) == pytest.approx(
        A * math.tanh(C) + D, rel=1e-12)
    assert eval_fit(0.5, 1e-6) == pytest.approx(
        A * math.tanh(B * math.log(1e-6) + C) + D, rel=1e-12)


def test_eval_fit_zero_efficiency_asymptote():
    A, B, C, D = eval_polynomials(0.5)
    assert B < 0  # q -> 0 drives the tanh argument to +inf on this branch
    value = eval_fit(0.5, 0.0)
    assert type(value) is float
    assert value == pytest.approx(A + D, rel=1e-12)

    flipped = FitCoefficients(a=TABLE_A, b=tuple(-b for b in TABLE_B),
                              c=TABLE_C, d=TABLE_D)
    value = eval_fit(0.5, 0.0, flipped)
    assert value == pytest.approx(D - A, rel=1e-12)


def test_eval_fit_rejects_bad_efficiency():
    with pytest.raises(ValueError):
        eval_fit(0.5, -0.1)
    with pytest.raises(ValueError):
        eval_fit(0.5, 1.5)


def test_fit_is_monotone_in_q_per_gamma():
    qs = np.logspace(-8, 0, 60)
    for gamma in list(np.linspace(0.05, 0.95, 7)) + [2.5, 4.0, 5.0]:
        A, B, _, _ = eval_polynomials(gamma, allow_extrapolation=True)
        values = [float(eval_fit(gamma, q, allow_extrapolation=True))
                  for q in qs]
        signs = np.sign(np.diff(values))
        expected = math.copysign(1.0, A * B)
        assert all(s == expected or s == 0 for s in signs)


def test_residual_self_test_is_zero():
    result = small_sweep(gammas=np.asarray([0.3, 0.7]),
                         qs=np.logspace(-3, 0, 4))
    synthetic = result.k3_max.copy()
    for i, gamma in enumerate(result.gamma_grid):
        for j, q in enumerate(result.q_grid):
            synthetic[i, j] = float(eval_fit(float(gamma), float(q)))
    fabricated = lgi.SweepResult(
        gamma_grid=result.gamma_grid, q_grid=result.q_grid,
        k3_max=synthetic, t_star=result.t_star, masked=result.masked,
    )
    report = residual_report(fabricated.rows())
    assert report.max_residual <= 1e-12


def test_excluded_band_is_marked():
    result = small_sweep(gammas=np.asarray([0.5, 1.5]),
                         qs=np.asarray([0.1, 1.0]))
    report = residual_report(result.rows())
    regions = {(row.gamma, row.region) for row in report.rows}
    assert (1.5, "excluded") in regions
    assert all(region != "excluded" for gamma, region in regions
               if gamma == 0.5)


def test_natural_log_base_dominates():
    result = small_sweep()
    winner, medians, report = select_log_base(result.rows())
    assert winner == "e" == DEFAULT_LOG_BASE
    assert medians["e"] < medians["10"]
    # the winner's own report, as residual_report builds it
    assert repr(report) == repr(residual_report(
        result.rows(), FitCoefficients.published(winner)))


def test_log_base_selection_ignores_quantization_noise_region():
    # a sweep spanning both branches must still compare the bases where the
    # published table has signal (gamma < 1), not in the gamma > 2 noise
    result = small_sweep(gammas=np.asarray([0.3, 0.7, 2.5, 4.0]),
                         qs=np.logspace(-4, 0, 5))
    winner, medians, _ = select_log_base(result.rows())
    assert winner == "e"
    assert medians["e"] < 0.05 < medians["10"] < 1.0


def test_fit_tracks_computed_optimum_at_reference_point():
    best = lgi.optimize_k3(ModelParams(gamma=0.5, q=1e-4))
    assert abs(float(eval_fit(0.5, 1e-4)) - best.k3_max) <= 0.1


def test_low_branch_residuals_within_published_accuracy():
    # the five-digit table reproduces the computed landscape on gamma < 1
    result = lgi.sweep(np.linspace(0.05, 0.95, 10), np.logspace(-6, 0, 15))
    report = residual_report(result.rows())
    assert report.max_residual <= 0.15
    assert report.median_residual <= 0.05


def test_high_branch_is_dominated_by_table_quantization():
    # gamma^20 reaches ~1e8 at gamma=2.5, so five-significant-digit rounding
    # of the published coefficients injects noise far above the O(1) signal
    result = lgi.sweep(np.asarray([2.5]), np.asarray([1e-3]),
                       config=lgi.OptimizeConfig(resolution=800))
    report = residual_report(result.rows())
    assert report.max_residual > 1e3
