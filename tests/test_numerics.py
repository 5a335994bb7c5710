import numpy as np
import pytest
from scipy.linalg import expm

from hybridlg.errors import EigensolverError
from hybridlg.model import ModelParams, PROJECTOR_PLUS
from conftest import assert_same_complex_sets

from hybridlg.dynamics import evolve_exact
from hybridlg.numerics import (
    coalesced,
    eigenvalues_4x4,
    solve_cubic_cardano,
)
from hybridlg.spectrum import build_liouvillian, characteristic_cubic


def cubic_residual(a, b, c, x):
    return abs(x**3 + a * x**2 + b * x + c)


def assert_same_roots(actual, expected, atol=1e-12):
    remaining = list(expected)
    for root in actual:
        gaps = [abs(root - other) for other in remaining]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol, (root, remaining)
        remaining.pop(best)


def test_cube_roots_of_unity():
    roots = solve_cubic_cardano(0, 0, -1)
    assert_same_roots(
        roots,
        [1.0 + 0j, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)],
    )
    assert not coalesced(roots)


def test_perfect_cube_triple_root():
    roots = solve_cubic_cardano(3, 3, 1)
    assert np.allclose(roots, [-1, -1, -1], atol=1e-9)
    assert coalesced(roots)


def test_factorizable_cubic_from_mode_rates():
    # a=0, b=0.75, c=0 is x (x^2 + 0.75): roots 0, +-i sqrt(0.75)
    roots = solve_cubic_cardano(0, 0.75, 0)
    assert_same_roots(
        roots, [0j, 1j * np.sqrt(0.75), -1j * np.sqrt(0.75)])


def test_root_ordering_is_real_then_imag():
    roots = solve_cubic_cardano(0, 0, -1)
    keys = [(z.real, z.imag) for z in roots]
    assert keys == sorted(keys)


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        solve_cubic_cardano(np.nan, 0, 1)
    with pytest.raises(ValueError):
        solve_cubic_cardano(0, complex(np.inf, 0), 1)


def test_random_cubics_reconstruct_coefficients():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        re = rng.uniform(-10, 10, 3)
        im = rng.uniform(-10, 10, 3)
        a, b, c = (complex(x, y) for x, y in zip(re, im))
        x1, x2, x3 = solve_cubic_cardano(a, b, c)
        scale = max(1.0, abs(a), abs(b), abs(c))
        worst = max(
            worst,
            abs(-(x1 + x2 + x3) - a) / scale,
            abs(x1 * x2 + x1 * x3 + x2 * x3 - b) / scale,
            abs(-x1 * x2 * x3 - c) / scale,
        )
        for x in (x1, x2, x3):
            assert cubic_residual(a, b, c, x) <= 1e-9 * max(1.0, abs(x) ** 3) * scale
    assert worst <= 1e-10


def test_eigenvalues_diagonal_matrix_sorted():
    # (real, imag) order puts 2i (real part 0) before 1
    eigs = eigenvalues_4x4(np.diag([1.0, 2.0j, -3.0, 0.0]))
    assert np.allclose(eigs, [-3.0, 0.0, 2.0j, 1.0], atol=1e-12)


def test_liouvillian_has_exact_minus_gamma_eigenvalue():
    eigs = eigenvalues_4x4(build_liouvillian(ModelParams(gamma=1.0, q=1.0)))
    assert min(abs(e + 1.0) for e in eigs) <= 1e-10


def test_eigenvalues_match_cardano_roots_of_reduced_cubic():
    params = ModelParams(gamma=0.5, q=0.3)
    eigs = list(eigenvalues_4x4(build_liouvillian(params)))
    eigs.pop(int(np.argmin([abs(e + params.gamma) for e in eigs])))
    roots = solve_cubic_cardano(*characteristic_cubic(params.ratio, params.q))
    assert_same_complex_sets(eigs, np.asarray(roots) * params.J, 1e-8)


def test_eigensolver_and_cardano_agree_at_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(1e-3, 5.0)
        q = rng.uniform(0.0, 1.0)
        params = ModelParams(gamma=r, q=q)
        eigs = list(eigenvalues_4x4(build_liouvillian(params)))
        eigs.pop(int(np.argmin([abs(e + params.gamma) for e in eigs])))
        roots = solve_cubic_cardano(*characteristic_cubic(r, q))
        assert_same_complex_sets(eigs, np.asarray(roots), 1e-8)


def test_eigenvalues_rejects_wrong_shape():
    with pytest.raises(ValueError):
        eigenvalues_4x4(np.eye(3))
    with pytest.raises(ValueError):
        eigenvalues_4x4(np.full((4, 4), np.nan))


def test_eigensolver_noconvergence_is_diagnosed(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(EigensolverError, match="matrix"):
        eigenvalues_4x4(np.eye(4, dtype=complex))


# the package exponentiates G t as scipy's expm(G * t); these pin the
# properties its callers rely on


def test_expm_zero_time_is_exact_identity():
    M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(expm(M * 0.0), np.eye(2, dtype=complex))
    stacked = expm(M * np.array([0.0, 1.0])[:, None, None])
    assert np.array_equal(stacked[0], np.eye(2, dtype=complex))
    assert np.array_equal(stacked[1], expm(M))


def test_expm_diagonal():
    M = np.diag([-1.0, -2.0, -3.0]).astype(complex)
    assert np.allclose(expm(M * 1.0), np.diag(np.exp([-1.0, -2.0, -3.0])),
                       atol=1e-14)


def test_expm_nilpotent_truncates():
    N = np.array([[0.0, 0.7], [0.0, 0.0]], dtype=complex)
    assert np.allclose(expm(N * 1.0), np.eye(2) + N, atol=1e-15)


def test_expm_rejects_bad_inputs():
    # a negative horizon is refused by the callers, not by expm
    with pytest.raises(ValueError):
        evolve_exact(PROJECTOR_PLUS, ModelParams(gamma=0.5, q=0.5), -1.0)
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)) * 1.0)


def test_expm_group_property_for_stable_matrices():
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        shift = max(np.linalg.eigvals(A).real)
        M = A - (shift + 0.1) * np.eye(4)
        s, t = rng.uniform(0.0, 5.0, 2)
        combined = expm(M * (s + t))
        split = expm(M * s) @ expm(M * t)
        scale = max(1.0, np.max(np.abs(combined)))
        assert np.max(np.abs(combined - split)) <= 1e-9 * scale
