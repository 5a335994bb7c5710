"""Vectorized generator of the hybrid master equation and its spectrum.

The master equation

    drho/dt = -i[H, rho] + 2 gamma (q L rho L^dag - {L^dag L, rho}/2)

is linear in rho, so with the row-major vectorization
|rho>> = (rho_00, rho_01, rho_10, rho_11)^T it reads d|rho>>/dt = G |rho>>
for a 4x4 matrix G built here from the superoperator identities
vec(A rho B) = (A (x) B^T) vec(rho).  One eigenvalue is exactly -gamma for
every (gamma, q); the remaining three are J times the roots of the
dimensionless cubic

    x^3 + 3 r x^2 + (2 r^2 + 1) x + r (1 - q) = 0,      r = gamma / J,

whose discriminant 4 (r^2 - 1)^3 - 27 q^2 r^2 vanishes exactly on the locus
where eigenvalues (and eigenvectors) coalesce.

The equation preserves Hermiticity for every q, so in the Pauli coordinates
rho = (r I + sx sigma_x + sy sigma_y + sz sigma_z) / 2 it is a real 4x4
generator B (:func:`bloch_generator`), similar to G, with the trace r last.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .numerics import (
    CubicCoefficients,
    coalesced,
    eigenvalues_4x4,
    solve_cubic_cardano,
)


#: parameter-free superoperators: recycling L rho L^dag and the decay
#: anticommutator {L^dag L, rho}, in the (rho_00, rho_01, rho_10, rho_11) order
_L = model.SIGMA_PLUS
_LDL = _L.conj().T @ _L
_RECYCLING = np.kron(_L, _L.conj())
_DECAY = np.kron(_LDL, model.IDENTITY) + np.kron(model.IDENTITY, _LDL.T)


def build_liouvillian(params: model.ModelParams) -> np.ndarray:
    """4x4 generator in the ordering (rho_00, rho_01, rho_10, rho_11).

    Valid for any theta; at theta = pi/2 the entries reduce to the familiar
    closed form with (0,3) entry 2 q gamma and diagonal (0, -gamma, -gamma,
    -2 gamma).
    """
    hamiltonian = model.hamiltonian(params)
    commutator = (np.kron(hamiltonian, model.IDENTITY)
                  - np.kron(model.IDENTITY, hamiltonian.T))
    return -1j * commutator + 2.0 * params.gamma * (
        params.q * _RECYCLING - 0.5 * _DECAY)


def bloch_generator(params: model.ModelParams) -> np.ndarray:
    """Real 4x4 generator of the Pauli coordinates (sx, sy, sz, r).

    The drive rotates the Bloch vector, ds/dt = w x s with
    w = -J (sin theta, 0, cos theta); the dissipator damps sx and sy at
    gamma and moves the ground-state weight (r - sz) / 2 at rates
    2 gamma (1 + q) into sz and 2 gamma (q - 1) into r.  At theta = pi/2 the
    (r, sy, sz) block closes up to the J cos(pi/2) = 6.1e-17 J coupling of
    sx, and is ``blochsol.reduced_matrix(params, "exact")``.
    """
    return bloch_generators(params, params.gamma, params.q)


def bloch_generators(params: model.ModelParams, gammas, qs) -> np.ndarray:
    """B of :func:`bloch_generator` for the J and theta of ``params`` and
    arrays of gamma and q, shape (..., 4, 4).  Each entry is elementwise
    arithmetic on its own gamma and q, so a cell's B does not depend on its
    batch.  ``dynamics.decompose`` squares B, so a cell whose ||B||_F^2
    overflows (an entry above about 1e154, or a rate gamma (1 + q) that
    overflows) raises ``ValueError`` naming the first such gamma and q, and
    J."""
    gammas = np.asarray(gammas, dtype=float)
    qs = np.asarray(qs, dtype=float)
    drive = params.J * math.sin(params.theta)
    detuning = params.J * math.cos(params.theta)
    with np.errstate(over="ignore"):
        gain, loss = gammas * (1.0 + qs), gammas * (1.0 - qs)
    out = np.zeros(np.broadcast(gammas, qs).shape + (4, 4))
    out[..., 0, 0] = out[..., 1, 1] = -gammas
    out[..., 0, 1], out[..., 1, 0] = detuning, -detuning
    out[..., 1, 2], out[..., 2, 1] = drive, -drive
    out[..., 2, 2], out[..., 2, 3] = -gain, gain
    out[..., 3, 2], out[..., 3, 3] = loss, -loss
    # every entry is at most max(2 gamma, J), and 16 squares of 1e153 are
    # finite, so only a larger gamma or J can overflow ||B||_F^2
    if gammas.max(initial=0.0) > 5e152 or params.J > 1e153:
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.square(out).sum(axis=(-2, -1)))
        if not finite.all():
            first = np.argmin(finite)
            gamma, q = (float(np.broadcast_to(part, finite.shape).flat[first])
                        for part in (gammas, qs))
            raise ValueError(f"||B||_F^2 overflows at gamma = {gamma!r}, "
                             f"q = {q!r}, J = {params.J!r}")
    return out


def vectorize(rho) -> np.ndarray:
    """Row-major flattening to the (rho_00, rho_01, rho_10, rho_11) ordering."""
    return np.asarray(rho, dtype=complex).reshape(4)


def devectorize(vec) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(2, 2)


def characteristic_cubic(r: float, q: float) -> CubicCoefficients:
    """Monic cubic whose roots are the non-(-gamma) eigenvalues over J."""
    if not r >= 0:
        raise ValueError(f"expected r >= 0, got {r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"expected q in [0, 1], got {q}")
    return CubicCoefficients(3.0 * r, 2.0 * r * r + 1.0, r * (1.0 - q))


def discriminant(r: float, q: float) -> float:
    """Discriminant 4 (r^2 - 1)^3 - 27 q^2 r^2 of the characteristic cubic."""
    return 4.0 * (r * r - 1.0) ** 3 - 27.0 * q * q * r * r


@dataclass(frozen=True)
class EpLocusPoint:
    """One point of the eigenvalue-coalescence locus: r solving 4(r^2-1)^3 = 27 q^2 r^2."""

    q: float
    r_ep: float
    residual: float


def ep_radius(q: float) -> EpLocusPoint:
    """The unique r >= 1 where the discriminant vanishes for a given q.

    The discriminant is strictly increasing in r on r >= 1, so a sign-change
    bracket plus bisection pins the root; the bracket upper end starts at
    1 + (4 * 27 q^2)^(1/3) and is widened until the sign flips.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"expected q in [0, 1], got {q}")
    if q == 0.0:
        return EpLocusPoint(q=0.0, r_ep=1.0, residual=discriminant(1.0, 0.0))
    lo = 1.0
    hi = 1.0 + (27.0 * q * q * 4.0) ** (1.0 / 3.0)
    while discriminant(hi, q) < 0.0:
        hi = 1.0 + 1.5 * (hi - 1.0)
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if discriminant(mid, q) < 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return EpLocusPoint(q=q, r_ep=r, residual=discriminant(r, q))


def ep_locus(q_values) -> list:
    """Locus points for each q; cells are independent pure computations."""
    return [ep_radius(float(q)) for q in q_values]


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral summary of the 4x4 generator at one parameter point."""

    eigenvalues: tuple          # 4 values, sorted by (real, imag)
    has_exact_root: bool        # -gamma found among the eigenvalues
    cubic_roots: tuple          # 3 dimensionless roots x = lambda / J
    degenerate: bool            # numerics.coalesced(cubic_roots)
    discriminant: float


def spectrum_report(params: model.ModelParams) -> SpectrumReport:
    """Eigenvalues of the generator plus the dimensionless cubic cross-check.

    Coalescence (a Jordan block) is reported by root-gap clustering
    (:func:`numerics.coalesced`), not by an exact rank computation.
    """
    eigs = eigenvalues_4x4(build_liouvillian(params))
    gap = min(abs(e + params.gamma) for e in eigs)
    scale = max(1.0, params.gamma, params.J)
    xs = solve_cubic_cardano(*characteristic_cubic(params.ratio, params.q))
    return SpectrumReport(
        eigenvalues=tuple(eigs),
        has_exact_root=bool(gap <= 1e-10 * scale),
        cubic_roots=xs,
        degenerate=coalesced(xs),
        discriminant=discriminant(params.ratio, params.q),
    )
