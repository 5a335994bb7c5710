import numpy as np

# scoreboard lines collected by the acceptance suite, emitted after the
# test session so they survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def assert_same_complex_sets(actual, expected, atol):
    """Match two unordered collections of complex values pairwise."""
    remaining = list(expected)
    for value in actual:
        gaps = [abs(value - other) for other in remaining]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol, (value, remaining)
        remaining.pop(best)
    assert not remaining


def expm_branch_states(params, t):
    """Normalized branch states rho~_s(tau) = rho_s / Tr rho_s, keyed (s, tau),
    for s = +-1 and tau in (t, 2t), each from its own expm (evolve_exact).

    The independent oracle of the K3 engine's spectral branch readouts.
    """
    from hybridlg.dynamics import evolve_exact
    from hybridlg.model import PROJECTORS

    states = {}
    for outcome in (+1, -1):
        for tau in (t, 2.0 * t):
            rho = evolve_exact(PROJECTORS[outcome], params, tau)
            states[(outcome, tau)] = rho / np.trace(rho).real
    return states


def expm_correlators(params, t):
    """C01, C12, C02, K3 and p+- at interval t, by the textbook formulas on
    :func:`expm_branch_states` (rho(0) = P_+, so rho~(t) is the + branch)."""
    from hybridlg.model import PROJECTOR_MINUS, PROJECTOR_PLUS, SIGMA_Y

    states = expm_branch_states(params, t)

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


def expm_pair_probabilities(params, t):
    """P(q1, q2) of outcomes at t and 2t: Tr(P_q2 rho~_q1(t)) Tr(P_q1 rho~(t)),
    on :func:`expm_branch_states`."""
    from hybridlg.model import PROJECTORS

    states = expm_branch_states(params, t)
    return {
        (q1, q2): float(np.trace(PROJECTORS[q2] @ states[(q1, t)]).real)
        * float(np.trace(PROJECTORS[q1] @ states[(+1, t)]).real)
        for q1 in (+1, -1) for q2 in (+1, -1)
    }
