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
