import numpy as np
import pytest

from hybridlg.model import (
    BlochState,
    IDENTITY,
    INITIAL_STATE,
    ModelParams,
    PROJECTOR_PLUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_decompose,
    check_density_matrix,
    hamiltonian,
)


def random_density(rng, normalized=False):
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = A @ A.conj().T
    if normalized:
        rho = rho / np.trace(rho).real
    return rho


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(gamma=-0.1, q=0.5)
    with pytest.raises(ValueError):
        ModelParams(gamma=0.1, q=1.5)
    with pytest.raises(ValueError):
        ModelParams(gamma=0.1, q=0.5, J=-1.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=0.1, q=0.5, theta=7.0)
    assert ModelParams(gamma=0.0, q=0.0).ratio == 0.0


def test_jump_operator_convention():
    # single nonzero entry at (0, 1); L^dag L projects on the ground state
    assert SIGMA_PLUS[0, 1] == 1.0
    assert np.count_nonzero(SIGMA_PLUS) == 1
    assert np.allclose(SIGMA_PLUS.conj().T @ SIGMA_PLUS, np.diag([0.0, 1.0]))


def test_initial_state_decomposes_to_plus_y():
    assert bloch_decompose(INITIAL_STATE) == BlochState(1.0, 0.0, 1.0, 0.0)


def test_decompose_projectors_and_mixed_state():
    assert bloch_decompose(PROJECTOR_PLUS) == BlochState(1.0, 0.0, 1.0, 0.0)
    assert bloch_decompose(IDENTITY / 2) == BlochState(1.0, 0.0, 0.0, 0.0)


def test_bloch_roundtrip_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        rho = random_density(rng)
        r, sx, sy, sz = bloch_decompose(rho)
        back = 0.5 * (r * IDENTITY + sx * SIGMA_X + sy * SIGMA_Y + sz * SIGMA_Z)
        assert np.max(np.abs(back - rho)) <= 1e-12 * max(1.0, np.abs(rho).max())


def test_bloch_decompose_of_a_stack_equals_each_matrix():
    rng = np.random.default_rng(5)
    stack = np.array([random_density(rng) for _ in range(12)]).reshape(3, 4, 2, 2)
    stacked = bloch_decompose(stack)
    assert all(component.shape == (3, 4) for component in stacked)
    for index in np.ndindex(3, 4):
        single = bloch_decompose(stack[index])
        assert all(np.array_equal(a[index], b) for a, b in zip(stacked, single))


def test_bloch_decompose_equals_the_traces_of_rho_sigma_bit_for_bit():
    # the oracle is Tr[rho sigma] by stacked matmuls; -0 prints as "-0" in a
    # CSV, so the sign bits must agree as well as the values
    from hybridlg.dynamics import Propagator, rk4_states

    def traces(rho):
        return [np.trace(m, axis1=-2, axis2=-1).real
                for m in (rho, rho @ SIGMA_X, rho @ SIGMA_Y, rho @ SIGMA_Z)]

    rng = np.random.default_rng(11)
    for _ in range(20):
        params = ModelParams(gamma=rng.uniform(0, 5), q=rng.uniform(0, 1),
                             theta=rng.choice([np.pi / 2, 1.0]))
        times = np.linspace(0.0, rng.uniform(0, 40), 201)
        exact = Propagator(params).states(PROJECTOR_PLUS, times)
        noise = 1e-17 * (rng.normal(size=exact.shape)
                         + 1j * rng.normal(size=exact.shape))
        for stack in (exact, exact + noise,
                      rk4_states(PROJECTOR_PLUS, params, times[:21])):
            for got, want in zip(bloch_decompose(stack), traces(stack)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.0, 0.5], [0.1, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.0, -0.5]))  # not positive
    check_density_matrix(3.0 * PROJECTOR_PLUS)  # unnormalized trace is fine


def test_hamiltonian_orientation():
    H = hamiltonian(ModelParams(gamma=0.0, q=1.0, J=2.0, theta=np.pi / 2))
    assert np.allclose(H, -np.array([[0.0, 1.0], [1.0, 0.0]]))
    Hz = hamiltonian(ModelParams(gamma=0.0, q=1.0, J=2.0, theta=0.0))
    assert np.allclose(Hz, -np.diag([1.0, -1.0]))
