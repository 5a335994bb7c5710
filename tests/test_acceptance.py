"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (bypassing capture) and then
asserts, so a plain ``pytest tests/test_acceptance.py`` run shows the
scoreboard regardless of verbosity flags.
"""

import sys
import time

import numpy as np

import conftest

from hybridlg import lgi, macrorealism
from hybridlg.blochsol import analytic_branch, k3_closed_form
from hybridlg.dynamics import (
    EvolveConfig,
    Propagator,
    evolve_exact,
    evolve_kraus,
    evolve_rk4,
)
from hybridlg.fit import FitCoefficients, residual_report, select_log_base
from hybridlg.model import (
    ModelParams,
    PROJECTOR_MINUS,
    PROJECTOR_PLUS,
    bloch_decompose,
)
from hybridlg.numerics import eigenvalues_4x4, solve_cubic_cardano
from hybridlg.spectrum import build_liouvillian, characteristic_cubic, ep_radius


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status} {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def random_density(rng):
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_luders_bound_at_unit_efficiency():
    started = time.time()
    values = {
        gamma: lgi.optimize_k3(ModelParams(gamma=gamma, q=1.0)).k3_max
        for gamma in (0.25, 0.5, 1.0, 2.0, 5.0)
    }
    elapsed = time.time() - started
    worst = max(values.values())
    ok = worst <= 1.5 + 1e-9 and elapsed < 60.0
    _report(1, "Luders bound at q=1", ok,
            f"max K3 = {worst:.6f} <= 1.5+1e-9 over gamma {sorted(values)} "
            f"({elapsed:.1f}s)")
    assert ok


def test_criterion_02_unitary_limit():
    best = lgi.optimize_k3(ModelParams(gamma=0.0, q=1.0))
    ok = abs(best.k3_max - 1.5) <= 1e-4 and abs(best.t_star - np.pi / 3) <= 1e-3
    _report(2, "unitary limit", ok,
            f"K3_max = {best.k3_max:.8f} (|err| <= 1e-4), "
            f"t* = {best.t_star:.6f} vs pi/3 = {np.pi / 3:.6f} (|err| <= 1e-3)")
    assert ok


def test_criterion_03_extreme_violation_at_null_efficiency():
    started = time.time()
    best = max(
        lgi.optimize_k3(ModelParams(gamma=g, q=1e-6)).k3_max
        for g in np.linspace(0.9, 1.1, 41)
    )
    elapsed = time.time() - started
    ok = best >= 2.5 and elapsed < 300.0
    _report(3, "extreme violation at q=1e-6", ok,
            f"max K3 over gamma scan = {best:.4f} >= 2.5 ({elapsed:.1f}s)")
    assert ok


def test_criterion_04_nonlinear_fragility():
    qs = np.logspace(-6, 0, 25)
    values = np.array([
        lgi.optimize_k3(ModelParams(gamma=0.9905, q=float(q))).k3_max
        for q in qs
    ])
    non_increasing = bool(np.all(np.diff(values) <= 1e-9))
    at_tenth = float(values[np.argmin(np.abs(qs - 1e-1))])
    ok = non_increasing and at_tenth < 1.6
    _report(4, "nonlinear fragility at gamma=0.9905", ok,
            f"non-increasing over 25-point log grid: {non_increasing}; "
            f"K3_max(q=0.1) = {at_tenth:.4f} < 1.6; "
            f"K3_max(q=1e-6) = {values[0]:.4f}")
    assert ok


def test_criterion_05_spectrum():
    rng = np.random.default_rng(101)
    worst_exact = 0.0
    worst_match = 0.0
    for _ in range(100):
        params = ModelParams(gamma=rng.uniform(1e-2, 5.0),
                             q=rng.uniform(0.0, 1.0))
        eigs = list(eigenvalues_4x4(build_liouvillian(params)))
        gap = min(abs(e + params.gamma) for e in eigs)
        worst_exact = max(worst_exact, gap)
        eigs.pop(int(np.argmin([abs(e + params.gamma) for e in eigs])))
        roots = solve_cubic_cardano(
            *characteristic_cubic(params.ratio, params.q))
        scaled = np.asarray(roots) * params.J
        worst_match = max(
            worst_match,
            max(min(abs(e - x) for x in scaled) for e in eigs),
        )
    ok = worst_exact <= 1e-10 and worst_match <= 1e-8
    _report(5, "generator spectrum", ok,
            f"max |-gamma residual| = {worst_exact:.2e} <= 1e-10; "
            f"max cubic mismatch = {worst_match:.2e} <= 1e-8 (100 samples)")
    assert ok


def test_criterion_06_ep_locus():
    p0 = ep_radius(0.0)
    p1 = ep_radius(1.0)
    endpoints_ok = (
        abs(p0.r_ep - 1.0) <= 1e-12 and abs(p0.residual) <= 1e-10
        and abs(p1.r_ep - 2.0) <= 1e-12 and abs(p1.residual) <= 1e-10
    )
    worst_gap = 0.0
    for q in np.linspace(0.05, 1.0, 20):
        r = ep_radius(float(q)).r_ep
        roots = np.asarray(solve_cubic_cardano(
            *characteristic_cubic(r, float(q))))
        gaps = [abs(roots[i] - roots[j])
                for i in range(3) for j in range(i + 1, 3)]
        worst_gap = max(worst_gap, min(gaps))
    ok = endpoints_ok and worst_gap < 1e-6
    _report(6, "eigenvalue-coalescence locus", ok,
            f"r_ep(0) = {p0.r_ep}, r_ep(1) = {p1.r_ep} "
            f"(residuals {p0.residual:.1e}, {p1.residual:.1e} <= 1e-10); "
            f"max coalescence gap along locus = {worst_gap:.2e} < 1e-6")
    assert ok


def test_criterion_07_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        params = ModelParams(gamma=rng.uniform(1e-3, 3.0),
                             q=rng.uniform(0.0, 1.0))
        t = rng.uniform(0.05, 10.0)
        rho0 = random_density(rng)
        approx = evolve_rk4(rho0, params, t, EvolveConfig(dt=1e-4))
        exact = evolve_exact(rho0, params, t)
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    rk4_ok = worst <= 1e-8

    params = ModelParams(gamma=0.9, q=0.4)
    exact = evolve_exact(PROJECTOR_PLUS, params, 2.0)
    errors = [
        float(np.max(np.abs(evolve_kraus(PROJECTOR_PLUS, params, 2.0, dt)
                            - exact)))
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    kraus_ok = all(abs(r - 2.0) <= 0.2 for r in ratios)
    elapsed = time.time() - started
    ok = rk4_ok and kraus_ok
    _report(7, "oracle equivalence", ok,
            f"RK4(dt=1e-4) vs expm max-abs = {worst:.2e} <= 1e-8 "
            f"(50 tuples); discrete-map halving ratios = "
            f"{ratios[0]:.3f}, {ratios[1]:.3f} in 2 +- 0.2 ({elapsed:.1f}s)")
    assert ok


def test_criterion_08_analytic_bloch_solution():
    times = np.linspace(0.0, 10.0, 101)
    worst_state = 0.0
    for gamma in (0.3, 0.5, 0.9905):
        params = ModelParams(gamma=gamma, q=0.0)
        for branch, rho0 in (("+", PROJECTOR_PLUS), ("-", PROJECTOR_MINUS)):
            solution = analytic_branch(params, branch)
            closed = solution.state(times)
            for t, row in zip(times, closed):
                full = bloch_decompose(evolve_exact(rho0, params, float(t)))
                reference = np.array([full.r, full.sy, full.sz])
                worst_state = max(worst_state,
                                  float(np.max(np.abs(row - reference))))
    closed_ok = worst_state <= 1e-8

    params0 = ModelParams(gamma=0.5, q=0.0)
    worst_k3_q0 = max(
        abs(k3_closed_form(params0, float(t)) - lgi.k3(params0, float(t)))
        for t in np.linspace(0.2, 5.0, 25)
    )
    params3 = ModelParams(gamma=0.9905, q=1e-3)
    worst_k3_q3 = max(
        abs(k3_closed_form(params3, float(t))
            - lgi.k3(params3, float(t), eps_trace=lgi.SWEEP_TRACE_FLOOR))
        for t in np.linspace(0.2, 10.0, 50)
    )
    k3_ok = worst_k3_q0 <= 1e-8 and worst_k3_q3 <= 2e-3
    ok = closed_ok and k3_ok
    _report(8, "closed-form reduced solution", ok,
            f"q=0 state vs oracle max = {worst_state:.2e} <= 1e-8 "
            f"(t in [0,10]); K3 closed-vs-pipeline: {worst_k3_q0:.2e} <= 1e-8 "
            f"at q=0, {worst_k3_q3:.2e} <= 2e-3 at q=1e-3")
    assert ok


def test_criterion_09_macrorealism_conditions():
    rng = np.random.default_rng(103)
    worst_aot = 0.0
    worst_first_marginal = 0.0
    for _ in range(100):
        params = ModelParams(gamma=rng.uniform(1e-2, 3.0),
                             q=rng.uniform(0.0, 1.0))
        table = macrorealism.joint_probabilities(params, rng.uniform(0.05, 5.0))
        report = macrorealism.check_nsit(table)
        worst_aot = max(worst_aot, report.aot.max_defect)
        worst_first_marginal = max(worst_first_marginal,
                                   report.max_delta_marginal_first)
    reference = macrorealism.check_nsit(
        macrorealism.joint_probabilities(ModelParams(gamma=1.0, q=0.5), 1.0))
    middle = reference.delta_marginal_middle[(+1, +1)]
    ok = (worst_aot <= 1e-10 and worst_first_marginal <= 1e-10
          and middle > 1e-3)
    _report(9, "macrorealism conditions", ok,
            f"max arrow-of-time defect = {worst_aot:.2e} <= 1e-10; "
            f"max first-marginal delta = {worst_first_marginal:.2e} <= 1e-10 "
            f"(100 samples); middle-marginal delta(+,+) at "
            f"(gamma=1, q=0.5, t=1) = {middle:.4f} > 1e-3")
    assert ok


def test_criterion_10_fit_validation():
    started = time.time()
    gammas_low = np.linspace(0.05, 1.0, 11)[:-1]
    gammas_high = np.linspace(2.0, 5.0, 11)[1:]
    qs = np.logspace(-6, 0, 15)
    result = lgi.sweep(np.concatenate([gammas_low, gammas_high]), qs)
    # base selection internally probes the gamma < 1 branch, the only part
    # of the domain where the published precision can be evaluated at all
    base, medians, _ = select_log_base(result.rows())
    report = residual_report(result.rows(), FitCoefficients.published(base))

    low_rows = [r for r in report.included() if r.gamma < 1.0]
    high_rows = [r for r in report.included() if r.gamma > 2.0]
    low_max = max(r.residual for r in low_rows)
    low_median = float(np.median([r.residual for r in low_rows]))
    high_max = max(r.residual for r in high_rows)
    elapsed = time.time() - started

    ok = report.max_residual <= 0.15 and report.median_residual <= 0.05
    _report(10, "tanh-fit validation", ok,
            f"log base = {base} (medians e: {medians['e']:.4f}, "
            f"10: {medians['10']:.4f}); full-domain max = "
            f"{report.max_residual:.3g} (<= 0.15), median = "
            f"{report.median_residual:.3g} (<= 0.05); low branch "
            f"gamma<1: max = {low_max:.3f}, median = {low_median:.4f}; "
            f"high branch gamma>2: max = {high_max:.3g} "
            f"[five-digit table quantization overwhelms gamma^20 there] "
            f"({elapsed:.1f}s)")
    assert ok, (
        "published five-significant-digit coefficients cannot evaluate the "
        "gamma > 2 branch: gamma^20 amplifies their rounding error to "
        f"~{high_max:.2g}, orders of magnitude above the O(1) landscape; "
        f"the gamma < 1 branch meets the tolerances (max {low_max:.3f} "
        f"<= 0.15, median {low_median:.4f} <= 0.05)"
    )


def test_criterion_11_structural_invariants():
    rng = np.random.default_rng(104)
    times = np.linspace(0.0, 10.0, 120)

    worst_const = 0.0
    worst_growth = -np.inf
    worst_negativity = 0.0
    worst_sx = 0.0
    for _ in range(25):
        q = rng.uniform(0.0, 0.999)
        params = ModelParams(gamma=rng.uniform(0.05, 3.0), q=q)
        prop = Propagator(params)
        states = prop.states(random_density(rng), times)
        traces = np.trace(states, axis1=1, axis2=2).real
        worst_growth = max(worst_growth, float(np.max(np.diff(traces))))
        for state in states[::24]:
            sym = 0.5 * (state + state.conj().T)
            worst_negativity = min(worst_negativity,
                                   float(np.linalg.eigvalsh(sym).min()))
        unit = ModelParams(gamma=params.gamma, q=1.0)
        traces_unit = np.trace(
            Propagator(unit).states(random_density(rng), times),
            axis1=1, axis2=2).real
        initial = traces_unit[0]
        worst_const = max(worst_const,
                          float(np.max(np.abs(traces_unit - initial))))
        sx_curve = np.einsum(
            "nij,ji->n", Propagator(params).states(PROJECTOR_PLUS, times),
            np.array([[0, 1], [1, 0]], dtype=complex)).real
        worst_sx = max(worst_sx, float(np.max(np.abs(sx_curve))))

    worst_norm = 0.0
    for _ in range(25):
        params = ModelParams(gamma=rng.uniform(0.05, 3.0),
                             q=rng.uniform(0.0, 1.0))
        table = macrorealism.joint_probabilities(params, rng.uniform(0.1, 4.0))
        for dist in (*table.singles.values(), *table.pairs.values(),
                     table.triples):
            worst_norm = max(worst_norm, abs(sum(dist.values()) - 1.0))

    ok = (worst_const <= 1e-9 and worst_growth <= 1e-10
          and worst_sx <= 1e-10 and worst_negativity >= -1e-8
          and worst_norm <= 1e-10)
    _report(11, "structural invariants", ok,
            f"q=1 trace drift = {worst_const:.2e} <= 1e-9; "
            f"max trace growth (q<1) = {worst_growth:.2e} <= 1e-10; "
            f"max |Sx| from plus-y = {worst_sx:.2e} <= 1e-10; "
            f"min state eigenvalue = {worst_negativity:.2e} >= -1e-8; "
            f"max distribution defect = {worst_norm:.2e} <= 1e-10")
    assert ok
