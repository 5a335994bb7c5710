import numpy as np
from scipy.linalg import expm

from hybridlg import lgi, model
from hybridlg.blochsol import branch_cubic
from hybridlg.errors import SingularCoefficientsError
from hybridlg.numerics import solve_cubic_cardano

# scoreboard lines collected by the acceptance suite, emitted after the
# test session so they survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


#: sigma_y eigenprojectors keyed by outcome
PROJECTORS = {+1: model.PROJECTOR_PLUS, -1: model.PROJECTOR_MINUS}


def rhs(rho, params):
    """Time derivative of the unnormalized state, by the operator formula.

    drho/dt = -i[H, rho] + 2 gamma (q L rho L^dag - {L^dag L, rho}/2).
    Taking the trace gives d(Tr rho)/dt = 2 gamma (q - 1) rho_11, so the trace
    is conserved only at q = 1 and decays monotonically below it.

    The oracle of the vectorized generator ``spectrum.build_liouvillian``.
    """
    rho = np.asarray(rho, dtype=complex)
    H = model.hamiltonian(params)
    L = model.SIGMA_PLUS
    LdL = L.conj().T @ L
    return -1j * (H @ rho - rho @ H) + 2.0 * params.gamma * (
        params.q * (L @ rho @ L.conj().T) - 0.5 * (LdL @ rho + rho @ LdL)
    )


def branch_coefficients_closed_form(params, branch="+"):
    """Mode rates and coefficients of one branch from the cyclic closed form
    of the ``blochsol`` module docstring.

    Only valid away from q = 0 and mode degeneracies; the cross-check of the
    linear-solve route used by ``blochsol.analytic_branch``.
    """
    g, q, J = params.gamma, params.q, params.J
    if g == 0.0 or q == 0.0:
        raise SingularCoefficientsError(
            "closed-form coefficients require gamma > 0 and q > 0"
        )
    sign = -1.0 if branch == "+" else +1.0
    xs = np.asarray(solve_cubic_cardano(*branch_cubic(params)))
    coeffs = []
    for j in range(3):
        xk, xl = xs[(j + 1) % 3], xs[(j + 2) % 3]
        numerator = (
            xk * xl
            - g * q * (xk + xl)
            + g * g * q * q
            + sign * (g / J) * xk * xl
        )
        denominator = g * g * q * (xs[j] - xk) * (xs[j] - xl)
        coeffs.append(numerator / denominator)
    return xs, np.asarray(coeffs)


def k3_curve(params, times, eps_trace=lgi.SWEEP_TRACE_FLOOR):
    """K3 over a batch of times through the optimizer's own evaluation;
    points whose trace fell below ``eps_trace`` are NaN."""
    cell = lgi._Cells([params.gamma], [params.q], params)
    value = cell.value(0, np.asarray(times, dtype=float), eps_trace)
    return np.where(value == -np.inf, np.nan, value)


def assert_same_complex_sets(actual, expected, atol):
    """Match two unordered collections of complex values pairwise."""
    remaining = list(expected)
    for value in actual:
        gaps = [abs(value - other) for other in remaining]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol, (value, remaining)
        remaining.pop(best)
    assert not remaining


def expm_branch_states(params, t, evolve=None):
    """Normalized branch states rho~_s(tau) = rho_s / Tr rho_s, keyed (s, tau),
    for s = +-1 and tau in (t, 2t), each from its own ``evolve(rho0, params,
    tau)`` call: by default its own expm (evolve_exact).

    The independent oracle of the K3 engine's spectral branch readouts.
    """
    from hybridlg.dynamics import evolve_exact

    evolve = evolve or evolve_exact
    states = {}
    for outcome in (+1, -1):
        for tau in (t, 2.0 * t):
            rho = evolve(PROJECTORS[outcome], params, tau)
            states[(outcome, tau)] = rho / np.trace(rho).real
    return states


def expm_correlators(params, t, evolve=None):
    """C01, C12, C02, K3 and p+- at interval t, by the textbook formulas on
    :func:`expm_branch_states` (rho(0) = P_+, so rho~(t) is the + branch)."""
    from hybridlg.model import PROJECTOR_MINUS, PROJECTOR_PLUS, SIGMA_Y

    states = expm_branch_states(params, t, evolve)

    def expect(operator, rho):
        return float(np.trace(operator @ rho).real)

    state_t = states[(+1, t)]
    state_2t = states[(+1, 2.0 * t)]
    minus_t = states[(-1, t)]
    p_plus = expect(PROJECTOR_PLUS, state_t)
    p_minus = expect(PROJECTOR_MINUS, state_t)
    c01 = expect(SIGMA_Y, state_t)
    c12 = c01 * p_plus - expect(SIGMA_Y, minus_t) * p_minus
    c02 = expect(SIGMA_Y, state_2t)
    return {"c01": c01, "c12": c12, "c02": c02, "k3": c01 + c12 - c02,
            "p_plus": p_plus, "p_minus": p_minus}


def no_jump_state(rho0, params, t):
    """Unnormalized state at q = 0 without a matrix exponential.

    At q = 0 the state is U rho0 U^dag with U = e^{-i H_eff t} and
    H_eff = H - i gamma L^dag L.  For the 2x2 H_eff with mu = Tr(H_eff)/2
    and (H_eff - mu)^2 = w^2 I, U = e^{-i mu t}[cos(w t) I
    - i t sinc(w t)(H_eff - mu)], which stays finite as w -> 0 (the
    exceptional point gamma = J).  The q = 0 oracle of the K3 engine.
    """
    if params.q != 0.0:
        raise ValueError(f"no_jump_state needs q = 0, got {params.q}")
    ldl = model.SIGMA_PLUS.conj().T @ model.SIGMA_PLUS
    h_eff = model.hamiltonian(params) - 1j * params.gamma * ldl
    mu = 0.5 * np.trace(h_eff)
    a = h_eff - mu * model.IDENTITY
    wt = np.sqrt(complex(a[0, 0] ** 2 + a[0, 1] * a[1, 0])) * t
    u = np.exp(-1j * mu * t) * (np.cos(wt) * model.IDENTITY
                                - 1j * t * np.sinc(wt / np.pi) * a)
    return u @ np.asarray(rho0, dtype=complex) @ u.conj().T


def expm_pair_probabilities(params, t):
    """P(q1, q2) of outcomes at t and 2t: Tr(P_q2 rho~_q1(t)) Tr(P_q1 rho~(t)),
    on :func:`expm_branch_states`."""
    states = expm_branch_states(params, t)
    return {
        (q1, q2): float(np.trace(PROJECTORS[q2] @ states[(q1, t)]).real)
        * float(np.trace(PROJECTORS[q1] @ states[(+1, t)]).real)
        for q1 in (+1, -1) for q2 in (+1, -1)
    }


def expm_readouts(generator, t, both_at_2t=False):
    """(tr+, tr-, sy+, sy-) at t and (tr+, sy+) at 2t (all four with
    ``both_at_2t``) of one generator, each from its own expm: one expm(G t)
    shared by both branches and one expm(G 2t).

    The per-point oracle of ``lgi._Cells.readouts``' stacked expm fallback.
    """
    from hybridlg.lgi import _BRANCHES, _READOUT

    at_t = (_READOUT @ expm(generator * t) @ _BRANCHES).real.ravel()
    branches_2t = _BRANCHES if both_at_2t else _BRANCHES[:, 0]
    at_2t = (_READOUT @ expm(generator * (2.0 * t)) @ branches_2t).real.ravel()
    return at_t, at_2t


def rk4_sample_loop(rho0, params, times, cfg):
    """RK4 at each of ``times`` by one ``evolve_rk4`` call per sample
    interval, each starting from the previous sample's (projected) state.

    The per-sample oracle of ``dynamics.rk4_states``, which builds the
    generator and the step-operator powers once for the whole grid.
    """
    from hybridlg.dynamics import evolve_rk4

    states, state, previous = [], np.asarray(rho0, dtype=complex), 0.0
    for t in times:
        state = evolve_rk4(state, params, float(t) - previous, cfg)
        previous = float(t)
        states.append(state)
    return np.array(states).reshape(len(states), 2, 2)


def rk4_loop(rho0, params, t, dt, diagnostics=None):
    """Classical RK4 stepped one dt at a time, with a Hermitian projection
    after every step and the final step shortened to land on t; the number
    of steps goes to ``diagnostics["steps"]``.

    The per-step oracle of ``evolve_rk4``'s step-matrix powering: the same
    scheme, evaluated stage by stage.
    """
    from hybridlg.dynamics import _split_steps
    from hybridlg.spectrum import build_liouvillian, devectorize, vectorize

    gen = build_liouvillian(params)
    v = vectorize(rho0).copy()
    n_full, remainder = _split_steps(t, dt)
    steps = [dt] * n_full + ([remainder] if remainder else [])
    for h in steps:
        k1 = gen @ v
        k2 = gen @ (v + 0.5 * h * k1)
        k3 = gen @ (v + 0.5 * h * k2)
        k4 = gen @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # Hermitian projection in vector form: average the coherences,
        # drop imaginary drift on the populations.
        coh = 0.5 * (v[1] + v[2].conjugate())
        v[1] = coh
        v[2] = coh.conjugate()
        v[0] = v[0].real
        v[3] = v[3].real
    if diagnostics is not None:
        diagnostics["steps"] = len(steps)
    return devectorize(v)
