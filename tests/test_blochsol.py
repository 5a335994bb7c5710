import numpy as np
import pytest
from scipy.linalg import expm

from conftest import assert_same_complex_sets, branch_coefficients_closed_form

from hybridlg import lgi
from hybridlg.blochsol import (
    analytic_branch,
    branch_cubic,
    k3_closed_form,
    reduced_matrix,
)
from hybridlg.dynamics import Propagator, evolve_exact
from hybridlg.errors import (
    DegenerateRootsError,
    SingularCoefficientsError,
    UnsupportedConfigurationError,
)
from hybridlg.model import (
    ModelParams,
    PROJECTOR_MINUS,
    PROJECTOR_PLUS,
    bloch_decompose,
)
from hybridlg.numerics import eigenvalues_4x4, solve_cubic_cardano
from hybridlg.spectrum import build_liouvillian


def test_reduced_matrix_exact_rows():
    g, q, J = 0.7, 0.3, 1.0
    system = reduced_matrix(ModelParams(gamma=g, q=q, J=J), "exact")
    expected = np.array([
        [-g * (1 - q), 0.0, g * (1 - q)],
        [0.0, -g, J],
        [g * (1 + q), -J, -g * (1 + q)],
    ])
    assert np.array_equal(system, expected)


def test_reduced_matrix_variants_coincide_at_zero_efficiency():
    params = ModelParams(gamma=0.9, q=0.0)
    assert np.array_equal(reduced_matrix(params, "exact"),
                          reduced_matrix(params, "approximate"))


def test_reduced_matrix_trace_frozen_at_unit_efficiency():
    system = reduced_matrix(ModelParams(gamma=0.9, q=1.0), "exact")
    assert np.array_equal(system[0], np.zeros(3))


def test_reduced_matrix_requires_plane_confinement():
    with pytest.raises(UnsupportedConfigurationError):
        reduced_matrix(ModelParams(gamma=0.5, q=0.5, theta=0.3))


def test_exact_reduced_system_matches_full_dynamics():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = ModelParams(gamma=rng.uniform(0.1, 2), q=rng.uniform(0, 1))
        system = reduced_matrix(params, "exact")
        t = rng.uniform(0.1, 6.0)
        for rho0, v0 in ((PROJECTOR_PLUS, [1.0, 1.0, 0.0]),
                         (PROJECTOR_MINUS, [1.0, -1.0, 0.0])):
            reduced = expm(system.astype(complex) * t) @ np.asarray(v0)
            full = bloch_decompose(evolve_exact(rho0, params, t))
            projected = np.array([full.r, full.sy, full.sz])
            assert np.max(np.abs(reduced.real - projected)) <= 1e-9


def test_mode_rate_cubic_matches_approximate_variant_spectrum():
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = ModelParams(gamma=rng.uniform(0.1, 2), q=rng.uniform(0, 1))
        approx = reduced_matrix(params, "approximate")
        eigs = np.linalg.eigvals(approx)
        xs = np.asarray(solve_cubic_cardano(*branch_cubic(params)))
        assert_same_complex_sets(eigs, xs - params.gamma, 1e-9)


def test_exact_variant_spectrum_sits_inside_full_generator_spectrum():
    # the three reduced exact-variant rates are the non-(-gamma) eigenvalues
    # of the 4x4 generator at every q; they match the mode-rate cubic only
    # in the q -> 0 limit where the dropped coupling vanishes
    rng = np.random.default_rng(33)
    for _ in range(20):
        params = ModelParams(gamma=rng.uniform(0.1, 2), q=rng.uniform(0, 1))
        exact = reduced_matrix(params, "exact")
        eigs = np.linalg.eigvals(exact)
        full = list(eigenvalues_4x4(build_liouvillian(params)))
        full.pop(int(np.argmin([abs(e + params.gamma) for e in full])))
        assert_same_complex_sets(eigs, full, 1e-9)


def test_exact_variant_spectrum_matches_mode_cubic_at_zero_efficiency():
    params = ModelParams(gamma=0.5, q=0.0)
    exact = reduced_matrix(params, "exact")
    eigs = np.linalg.eigvals(exact)
    xs = np.asarray(solve_cubic_cardano(*branch_cubic(params)))
    assert_same_complex_sets(eigs, xs - params.gamma, 1e-9)


@pytest.mark.parametrize("q", [0.0, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("branch,sy0", [("+", 1.0), ("-", -1.0)])
def test_branch_initial_conditions(q, branch, sy0):
    solution = analytic_branch(ModelParams(gamma=0.6, q=q), branch)
    r, sy, sz = solution.state(0.0)
    assert abs(r - 1.0) <= 1e-9
    assert abs(sy - sy0) <= 1e-9
    assert abs(sz) <= 1e-9


def test_branch_solution_matches_approximate_system_at_any_q():
    rng = np.random.default_rng(34)
    times = np.linspace(0.0, 8.0, 30)
    for _ in range(8):
        params = ModelParams(gamma=rng.uniform(0.2, 0.9), q=rng.uniform(0, 1))
        gen = reduced_matrix(params, "approximate").astype(complex)
        for branch, v0 in (("+", [1.0, 1.0, 0.0]), ("-", [1.0, -1.0, 0.0])):
            solution = analytic_branch(params, branch)
            states = solution.state(times)
            for t, state in zip(times, states):
                reference = (expm(gen * t) @ np.asarray(v0)).real
                assert np.max(np.abs(state - reference)) <= 1e-9


def test_branch_solution_is_exact_at_zero_efficiency():
    params = ModelParams(gamma=0.5, q=0.0)
    solution = analytic_branch(params, "+")
    times = np.linspace(0.0, 10.0, 101)[1:]
    states = Propagator(params).states(PROJECTOR_PLUS, times)
    traces = np.trace(states, axis1=1, axis2=2).real
    sy = np.einsum("nij,ji->n", states,
                   np.array([[0, -1j], [1j, 0]])).real / traces
    assert np.max(np.abs(solution.normalized_sy(times) - sy)) <= 1e-8


def test_branch_solution_small_q_stays_within_drop_term_budget():
    params = ModelParams(gamma=0.9905, q=1e-3)
    solution = analytic_branch(params, "+")
    times = np.linspace(0.05, 10.0, 120)
    states = Propagator(params).states(PROJECTOR_PLUS, times)
    traces = np.trace(states, axis1=1, axis2=2).real
    sy = np.einsum("nij,ji->n", states,
                   np.array([[0, -1j], [1j, 0]])).real / traces
    assert np.max(np.abs(solution.normalized_sy(times) - sy)) <= 1e-3


def test_closed_form_coefficients_match_linear_solve():
    rng = np.random.default_rng(35)
    for _ in range(20):
        params = ModelParams(gamma=rng.uniform(0.2, 0.9),
                             q=rng.uniform(1e-3, 1.0))
        for branch in ("+", "-"):
            solution = analytic_branch(params, branch)
            xs, coeffs = branch_coefficients_closed_form(params, branch)
            by_root = dict(zip(np.round(xs, 12), coeffs))
            for root, coeff in zip(np.round(np.asarray(solution.roots), 12),
                                   solution.coefficients):
                assert abs(by_root[root] - coeff) <= 1e-8 * max(1.0, abs(coeff))


def test_closed_form_coefficients_guard_singular_inputs():
    with pytest.raises(SingularCoefficientsError):
        branch_coefficients_closed_form(ModelParams(gamma=0.5, q=0.0))


def test_analytic_branch_error_cases():
    with pytest.raises(SingularCoefficientsError):
        analytic_branch(ModelParams(gamma=0.0, q=0.5))
    with pytest.raises(DegenerateRootsError):
        # gamma = J with q = 0 collapses all three mode rates to zero
        analytic_branch(ModelParams(gamma=1.0, q=0.0))
    with pytest.raises(UnsupportedConfigurationError):
        analytic_branch(ModelParams(gamma=0.5, q=0.5, theta=1.0))
    with pytest.raises(ValueError):
        analytic_branch(ModelParams(gamma=0.5, q=0.5), branch="x")


def test_k3_closed_form_matches_pipeline_at_zero_efficiency():
    params = ModelParams(gamma=0.5, q=0.0)
    for t in (0.4, 1.3, 2.9, 5.0):
        assert abs(k3_closed_form(params, t) - lgi.k3(params, t)) <= 1e-8


def test_k3_closed_form_short_time_limit():
    assert k3_closed_form(ModelParams(gamma=0.5, q=0.0), 1e-4) == pytest.approx(
        1.0, abs=1e-6)


def test_k3_closed_form_small_q_near_optimum():
    # dropped-coupling error grows with the horizon; at q=1e-3 the optimum
    # sits at short t and the budget is 2e-3, while at q=1e-4 the optimizer
    # lands on the long-time peak (t* ~ 11) where the drift accumulates to
    # just under 5e-3
    params = ModelParams(gamma=0.9905, q=1e-3)
    best = lgi.optimize_k3(params)
    assert abs(k3_closed_form(params, best.t_star)
               - lgi.k3(params, best.t_star,
                        eps_trace=lgi.SWEEP_TRACE_FLOOR)) <= 2e-3

    params = ModelParams(gamma=0.9905, q=1e-4)
    best = lgi.optimize_k3(params)
    assert abs(k3_closed_form(params, best.t_star)
               - lgi.k3(params, best.t_star,
                        eps_trace=lgi.SWEEP_TRACE_FLOOR)) <= 5e-3


def test_k3_closed_form_unitary_limit():
    # vanishing dissipation: K3 -> 2 cos t - cos 2t with O(gamma) error
    params = ModelParams(gamma=1e-8, q=0.0)
    for t in (0.5, np.pi / 3, 2.0):
        reference = 2 * np.cos(t) - np.cos(2 * t)
        assert abs(k3_closed_form(params, t) - reference) <= 1e-6


def test_k3_closed_form_degenerate_fallback_warns():
    params = ModelParams(gamma=1.0, q=0.0)
    with pytest.warns(UserWarning, match="numerically"):
        value = k3_closed_form(params, 1.5)
    assert np.isfinite(value)


def test_intermediate_correlator_identity_against_pipeline():
    # C12 from joint probabilities equals
    # (sy+ - sy-)/2 + sy+ (sy+ + sy-)/2 with the branch weights implied by p+-
    for q, tol in ((0.0, 1e-8), (1e-2, 1e-3)):
        params = ModelParams(gamma=0.5, q=q)
        for t in (0.3, 0.7, 1.0):
            plus = analytic_branch(params, "+")
            minus = analytic_branch(params, "-")
            syp = plus.normalized_sy(np.asarray([t]))[0]
            sym = minus.normalized_sy(np.asarray([t]))[0]
            closed_c12 = 0.5 * (syp - sym) + 0.5 * syp * (syp + sym)
            record = lgi.correlators(params, t)
            assert abs(closed_c12 - record.c12) <= tol
