import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_same_complex_sets

from conftest import rhs
from hybridlg.blochsol import reduced_matrix
from hybridlg.model import ModelParams
from hybridlg.numerics import coalesced, eigenvalues_4x4, solve_cubic_cardano
from hybridlg.spectrum import (
    bloch_generator,
    bloch_generators,
    build_liouvillian,
    characteristic_cubic,
    devectorize,
    discriminant,
    ep_locus,
    ep_radius,
    spectrum_report,
    vectorize,
)


def test_generator_entries_at_reference_point():
    gen = build_liouvillian(ModelParams(gamma=1.0, q=1.0))
    assert gen[0, 3] == pytest.approx(2.0)
    assert np.allclose(np.diag(gen), [0.0, -1.0, -1.0, -2.0], atol=1e-15)
    expected = np.array([
        [0.0, -0.5j, +0.5j, 2.0],
        [-0.5j, -1.0, 0.0, +0.5j],
        [+0.5j, 0.0, -1.0, -0.5j],
        [0.0, +0.5j, -0.5j, -2.0],
    ])
    assert np.max(np.abs(gen - expected)) <= 1e-15


def test_no_recycling_at_zero_efficiency():
    gen = build_liouvillian(ModelParams(gamma=0.9, q=0.0))
    assert gen[0, 3] == 0.0


def test_generator_action_equals_rhs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        theta = rng.choice([np.pi / 2, 0.3, 1.1, 4.0])
        params = ModelParams(gamma=rng.uniform(0, 3), q=rng.uniform(0, 1),
                             J=rng.uniform(0.5, 2), theta=float(theta))
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = A @ A.conj().T
        via_generator = devectorize(build_liouvillian(params) @ vectorize(rho))
        assert np.max(np.abs(via_generator - rhs(rho, params))) <= 1e-12


def test_characteristic_cubic_perfect_cube_point():
    coeffs = characteristic_cubic(1.0, 0.0)
    assert coeffs == (3.0, 3.0, 1.0)
    roots = solve_cubic_cardano(*coeffs)
    assert np.allclose(roots, [-1.0, -1.0, -1.0], atol=1e-9)
    assert coalesced(roots)


def test_characteristic_cubic_lindblad_point():
    roots = solve_cubic_cardano(*characteristic_cubic(1.0, 1.0))
    expected = sorted(
        [0j, (-3 + 1j * np.sqrt(3)) / 2, (-3 - 1j * np.sqrt(3)) / 2],
        key=lambda z: (z.real, z.imag),
    )
    assert np.allclose(roots, expected, atol=1e-12)


def test_cubic_roots_times_J_are_generator_eigenvalues():
    rng = np.random.default_rng(22)
    for _ in range(40):
        J = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.1, 5.0)
        q = rng.uniform(0.0, 1.0)
        params = ModelParams(gamma=r * J, q=q, J=J)
        eigs = list(eigenvalues_4x4(build_liouvillian(params)))
        eigs.pop(int(np.argmin([abs(e + params.gamma) for e in eigs])))
        roots = np.asarray(solve_cubic_cardano(*characteristic_cubic(r, q)))
        assert_same_complex_sets(eigs, roots * J, 1e-8)


def test_minus_gamma_is_always_an_eigenvalue():
    rng = np.random.default_rng(23)
    for _ in range(100):
        params = ModelParams(gamma=rng.uniform(1e-3, 5), q=rng.uniform(0, 1))
        eigs = eigenvalues_4x4(build_liouvillian(params))
        assert min(abs(e + params.gamma) for e in eigs) <= 1e-10


def test_spectral_stability():
    rng = np.random.default_rng(24)
    for _ in range(100):
        params = ModelParams(gamma=rng.uniform(1e-3, 5), q=rng.uniform(0, 1))
        eigs = eigenvalues_4x4(build_liouvillian(params))
        assert max(e.real for e in eigs) <= 1e-9


def test_discriminant_reference_values():
    assert discriminant(1.0, 0.0) == 0.0
    assert discriminant(2.0, 1.0) == 0.0  # 4 * 27 - 27 * 4
    assert discriminant(1.5, 0.0) > 0.0
    assert discriminant(1.0, 0.5) < 0.0


def test_discriminant_zero_iff_roots_coalesce():
    # off the locus the root gaps stay far above the degeneracy threshold;
    # on the locus they collapse below it
    for q in (0.2, 0.5, 0.9):
        r_ep = ep_radius(q).r_ep
        for r in (r_ep * 0.8, r_ep * 1.25):
            roots = np.asarray(
                solve_cubic_cardano(*characteristic_cubic(r, q)))
            gaps = [abs(roots[i] - roots[j])
                    for i in range(3) for j in range(i + 1, 3)]
            assert min(gaps) > 1e-3
        on_locus = np.asarray(
            solve_cubic_cardano(*characteristic_cubic(r_ep, q)))
        gaps = [abs(on_locus[i] - on_locus[j])
                for i in range(3) for j in range(i + 1, 3)]
        assert min(gaps) < 1e-6


def test_ep_radius_endpoints():
    assert ep_radius(0.0).r_ep == 1.0
    point = ep_radius(1.0)
    assert point.r_ep == pytest.approx(2.0, abs=1e-12)
    assert abs(point.residual) <= 1e-10


def test_ep_radius_mid_value_solves_condition():
    point = ep_radius(0.5)
    assert abs(4 * (point.r_ep**2 - 1) ** 3 - 6.75 * point.r_ep**2) <= 1e-10
    assert abs(point.residual) <= 1e-10


def test_ep_radius_monotone_in_q():
    qs = np.linspace(0.0, 1.0, 100)
    radii = [p.r_ep for p in ep_locus(qs)]
    assert all(r2 >= r1 for r1, r2 in zip(radii, radii[1:]))


def test_dimensionless_and_dimensionful_locus_forms_agree():
    # 4 (gamma^2 - J^2)^3 = 27 q^2 gamma^2 J^4 is the same locus after
    # dividing by J^6
    for J in (1.0, 1.7):
        for q in np.linspace(0.01, 1.0, 100):
            r = ep_radius(q).r_ep
            gamma = r * J
            dimensionful = 4 * (gamma**2 - J**2) ** 3 - 27 * q**2 * gamma**2 * J**4
            assert abs(dimensionful / J**6) <= 1e-9


def test_spectrum_report_fields():
    report = spectrum_report(ModelParams(gamma=0.5, q=0.3))
    assert report.has_exact_root
    assert len(report.eigenvalues) == 4
    assert len(report.cubic_roots) == 3
    assert not report.degenerate
    assert report.discriminant == pytest.approx(discriminant(0.5, 0.3))

    at_ep = spectrum_report(ModelParams(gamma=2.0, q=1.0))
    assert at_ep.degenerate


#: vec(rho) = PAULI @ (sx, sy, sz, r), in the (rho_00, rho_01, rho_10, rho_11)
#: order of build_liouvillian, and its inverse
PAULI = 0.5 * np.array([[0, 0, 1, 1], [1, -1j, 0, 0], [1, 1j, 0, 0],
                        [0, 0, -1, 1]])
PAULI_INV = np.array([[0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1],
                      [1, 0, 0, 1]])

#: (r, sy, sz) in the coordinates (sx, sy, sz, r) of bloch_generator
_BLOCK = np.ix_([3, 1, 2], [3, 1, 2])


def test_bloch_generator_block_is_the_reduced_matrix_bit_for_bit():
    qs = [0.0, 1e-14, 1e-6, 0.1, 0.3, 0.7, 1.0 - 1e-9, 1.0]
    for g in np.linspace(0.0, 5.0, 11).tolist() + [0.9905, 1.7872528623376915]:
        for q in qs:
            for J in (1.0, 0.7):
                params = ModelParams(gamma=g, q=q, J=J)
                # the closed form that blochsol.reduced_matrix wrote out
                expected = np.array([
                    [-g * (1 - q), 0.0, g * (1 - q)],
                    [0.0, -g, J],
                    [g * (1 + q), -J, -g * (1 + q)],
                ])
                for block in (bloch_generator(params)[_BLOCK],
                              reduced_matrix(params, "exact")):
                    assert np.array_equal(block, expected)
                    assert np.array_equal(np.signbit(block),
                                          np.signbit(expected))


@pytest.mark.parametrize("theta", [math.pi / 2, 1.0])
def test_bloch_generator_is_the_liouvillian_in_pauli_coordinates(theta):
    # PAULI_INV G PAULI is real to the last bit; it matches the closed-form
    # B to one ulp of its largest entry (measured at most 2.2e-16 of it on
    # this grid: 1.8e-15 at gamma = 5)
    assert np.array_equal(PAULI_INV @ PAULI, np.eye(4))
    for g in np.linspace(0.0, 5.0, 11):
        for q in np.linspace(0.0, 1.0, 6):
            params = ModelParams(gamma=g, q=q, theta=theta)
            changed = PAULI_INV @ build_liouvillian(params) @ PAULI
            bloch = bloch_generator(params)
            assert np.all(changed.imag == 0.0)
            assert (np.abs(changed.real - bloch).max()
                    <= np.finfo(float).eps * np.abs(bloch).max()), (g, q)


def test_bloch_generators_of_a_stack_equal_each_cell():
    base = ModelParams(gamma=0.0, q=1.0, J=0.8, theta=1.0)
    gammas = np.array([[0.0, 0.3], [1.0, 4.5]])
    qs = np.array([1.0, 1e-6])
    stack = bloch_generators(base, gammas, qs)
    assert stack.shape == (2, 2, 4, 4)
    for index in np.ndindex(gammas.shape):
        single = bloch_generator(replace(base, gamma=gammas[index],
                                         q=qs[index[1]]))
        assert np.array_equal(stack[index], single)


def test_overflowing_rate_names_its_cell():
    # ||B||_F^2, which decompose computes, overflows where a rate gamma
    # (1 + q) does, and from gamma of about 4.2e153 on at q = 1; the first
    # such cell in row order is named with J, and no overflow warning escapes
    base = ModelParams(gamma=0.0, q=1.0)
    with np.errstate(all="raise"):
        for gamma, q in ((1.7e308, 0.0), (4.5e153, 1.0)):
            with pytest.raises(ValueError, match=(
                    rf"^\|\|B\|\|_F\^2 overflows at gamma = {gamma!r}, "
                    rf"q = {q!r}, J = 1\.0$").replace("+", r"\+")):
                bloch_generators(base, np.array([[1.0], [gamma]]),
                                 np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match=r"J = 1e\+154$"):
            bloch_generator(replace(base, J=1e154))
        # the largest gamma and J the screen lets through unsquared
        assert np.isfinite(bloch_generator(replace(base, gamma=5e152,
                                                   J=1e153))).all()
