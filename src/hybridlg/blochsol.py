"""Reduced (R, Sy, Sz) dynamics at theta = pi/2 and its analytic solution.

With the drive along x and the initial state in the y-z plane, Sx decouples
(dSx/dt = -gamma Sx, Sx(0) = 0) and the remaining trace/spin block closes:

    d/dt (R, Sy, Sz)^T = M3 (R, Sy, Sz)^T,

    M3_exact = [[-g(1-q), 0,  g(1-q)],
                [ 0,     -g,  J     ],
                [ g(1+q), -J, -g(1+q)]],        g = gamma.

Dropping the small gamma*q*Sz couplings gives the approximate variant (the
Sz coefficients of rows 0 and 2 become +gamma and -gamma), which admits a
closed-form mode expansion: substituting x = lambda + gamma, the mode rates x
solve the cubic x^3 + a x^2 + b x + c with

    a = -gamma q,   b = J^2 - gamma^2 (1+q),   c = -gamma q J^2,

with mode vectors u(x) = [gamma x, J(x - gamma q), x(x - gamma q)]^T, and the
expansion coefficients are fixed by the measurement-branch initial conditions
(R, Sy, Sz)(0) = (1, +-1, 0).  For nondegenerate modes away from q = 0 they
reduce to

    c_j(+-) = [x_k x_l - gamma q (x_k + x_l) + gamma^2 q^2
               -+ (gamma/J) x_k x_l] / [gamma^2 q (x_j - x_k)(x_j - x_l)],

(j, k, l) cyclic; the implementation solves the 3x3 mode system directly,
which stays well-posed at q = 0 where one mode rate hits zero and u(x)
degenerates (the cyclic form lives in the tests as the cross-check of that
solve).  Mode rates that coalesce under :func:`numerics.coalesced` are left
to the numerical route, expm of the reduced matrix.  This module is a
validation artifact: the production correlator path runs on the full 4x4
propagator.
"""

import math
from dataclasses import dataclass, field
import warnings

import numpy as np

from . import model
from .errors import (
    DegenerateRootsError,
    SingularCoefficientsError,
    UnsupportedConfigurationError,
)
from .lgi import _contract
from .numerics import coalesced, expm, solve_cubic_cardano
from .spectrum import bloch_generator

#: column norm (relative to the largest) below which a mode vector is
#: replaced by the numerically computed null direction
_MODE_NORM_FLOOR = 1e-6


def _require_plane_confined(params: model.ModelParams):
    if not math.isclose(params.theta, math.pi / 2, rel_tol=0.0, abs_tol=1e-12):
        raise UnsupportedConfigurationError(
            f"reduced (R, Sy, Sz) dynamics require theta = pi/2, got {params.theta}"
        )


#: (r, sy, sz) in the Pauli coordinates (sx, sy, sz, r) of the Bloch generator
_BLOCK = np.ix_([3, 1, 2], [3, 1, 2])


def reduced_matrix(params: model.ModelParams, variant="exact") -> np.ndarray:
    """3x3 real generator of the closed (R, Sy, Sz) block; ``variant`` is
    "exact" (the block of ``spectrum.bloch_generator``) or "approximate"."""
    _require_plane_confined(params)
    if variant not in ("exact", "approximate"):
        raise ValueError(f"unknown variant {variant!r}")
    m = bloch_generator(params)[_BLOCK]
    if variant == "approximate":
        m[0, 2], m[2, 2] = params.gamma, -params.gamma
    return m


def branch_cubic(params: model.ModelParams):
    """Coefficients (a, b, c) of the mode-rate cubic in x = lambda + gamma."""
    g, q, J = params.gamma, params.q, params.J
    return (-g * q, J * J - g * g * (1 + q), -g * q * J * J)


@dataclass(frozen=True)
class BranchSolution:
    """Mode expansion of one measurement branch of the approximate system.

    ``roots`` are the shifted rates x_j (actual rates are x_j - gamma);
    ``coefficients`` pair with the stored ``modes`` columns so that
    v(t) = sum_j coeff_j e^{(x_j - gamma) t} modes[:, j].
    """

    branch: str                       # "+" or "-"
    params: model.ModelParams = field(repr=False)
    roots: tuple
    coefficients: tuple
    modes: np.ndarray = field(repr=False)

    def state(self, t):
        """(R, Sy, Sz) at one time or an array of times, each summed in a
        fixed mode order, so that it does not depend on the other times."""
        scalar = np.ndim(t) == 0
        times = np.atleast_1d(np.asarray(t, dtype=float))
        rates = np.asarray(self.roots) - self.params.gamma
        weights = np.exp(np.multiply.outer(times, rates)) * self.coefficients
        v = _contract(weights, self.modes.T).real
        return v[0] if scalar else v

    def normalized_sy(self, t):
        v = self.state(t)
        return v[..., 1] / v[..., 0]


def _mode_vector(x, params):
    g, q, J = params.gamma, params.q, params.J
    return np.array([g * x, J * (x - g * q), x * (x - g * q)], dtype=complex)


def analytic_branch(params: model.ModelParams, branch="+") -> BranchSolution:
    """Closed-form solution of the approximate reduced system for one branch.

    The branch sign fixes the initial condition (R, Sy, Sz)(0) = (1, +-1, 0).
    Raises :class:`SingularCoefficientsError` at gamma = 0 (the mode vectors
    collapse) and :class:`DegenerateRootsError` when mode rates coalesce
    (for instance q = 0 with gamma = J); the numerical route
    (``reduced_matrix`` + expm) covers those corners.
    """
    _require_plane_confined(params)
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    if params.gamma == 0.0:
        raise SingularCoefficientsError(
            "mode expansion is singular at gamma = 0; evolve the reduced "
            "system numerically instead"
        )
    roots = solve_cubic_cardano(*branch_cubic(params))
    if coalesced(roots):
        raise DegenerateRootsError(
            f"mode rates {roots} nearly coalesce; "
            "fall back to numerical evolution of the reduced system"
        )
    xs = np.asarray(roots)

    columns = [_mode_vector(x, params) for x in xs]
    norms = [np.linalg.norm(col) for col in columns]
    largest = max(norms)
    eye = np.eye(3, dtype=complex)
    gen = reduced_matrix(params, "approximate").astype(complex)
    for j, (col, norm) in enumerate(zip(columns, norms)):
        if norm < _MODE_NORM_FLOOR * largest:
            # u(x) degenerates when a mode rate approaches zero (q -> 0);
            # recover the true eigendirection from the null space instead.
            shifted = gen + params.gamma * eye - xs[j] * eye
            _, _, vh = np.linalg.svd(shifted)
            columns[j] = vh[-1].conj()
    modes = np.column_stack(columns)
    v0 = np.array([1.0, 1.0 if branch == "+" else -1.0, 0.0], dtype=complex)
    coeffs = np.linalg.solve(modes, v0)
    return BranchSolution(
        branch=branch,
        params=params,
        roots=tuple(xs),
        coefficients=tuple(coeffs),
        modes=modes,
    )


def _branch_sy_numeric(params: model.ModelParams, branch, times):
    """Fallback: normalized Sy of the approximate system via expm."""
    gen = reduced_matrix(params, "approximate").astype(complex)
    v0 = np.array([1.0, 1.0 if branch == "+" else -1.0, 0.0])
    v = expm(gen * np.asarray(times, dtype=float)[:, None, None]) @ v0
    return v[:, 1].real / v[:, 0].real


def k3_closed_form(params: model.ModelParams, t) -> float:
    """Three-time correlation parameter from the two branch solutions.

    K3 = sy+(t) + (sy+(t) - sy-(t))/2 + sy+(t) (sy+(t) + sy-(t))/2 - sy+(2t)
    with sy+- the normalized Sy of the +-1 measurement branches.  When the
    mode expansion degenerates, the branch curves are evaluated numerically
    from the same approximate system (a warning is emitted).
    """
    times = np.asarray([t, 2.0 * t], dtype=float)
    try:
        plus = analytic_branch(params, "+")
        minus = analytic_branch(params, "-")
        syp_t, syp_2t = plus.normalized_sy(times)
        sym_t = minus.normalized_sy(np.asarray([t]))[0]
    except DegenerateRootsError:
        warnings.warn(
            "mode rates coalesce; evaluating branch curves numerically",
            stacklevel=2,
        )
        syp_t, syp_2t = _branch_sy_numeric(params, "+", times)
        sym_t = _branch_sy_numeric(params, "-", [t])[0]
    return float(
        syp_t
        + 0.5 * (syp_t - sym_t)
        + 0.5 * syp_t * (syp_t + sym_t)
        - syp_2t
    )
