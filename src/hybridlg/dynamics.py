"""Time evolution engines for the hybrid master equation.

Three interchangeable routes propagate the unnormalized state:

* :func:`evolve_exact` applies the matrix exponential of the vectorized
  generator (scipy's ``expm`` of ``G t``) and serves as the brute-force
  oracle for everything else;
* :func:`evolve_rk4` integrates the same linear equation with classical
  fixed-step RK4 (cross-validation path);
* :func:`kraus_step` applies the discrete two-operator measurement map
  rho <- M0 rho M0^dag + q M1 rho M1^dag whose delta_t -> 0 limit is the
  master equation, and :func:`evolve_kraus` iterates it.

The generator does not depend on time, so a fixed-step scheme is one step
operator applied n times: both stepping engines apply its n-th power by
binary powering (:func:`_apply_power`) and take the short final step
separately.

Normalization is never applied inside an integrator: the equation governs the
unnormalized rho and all nonlinearity lives in the rho/Tr[rho] readout.
:class:`Propagator` is the fast path for many times at one parameter point;
it diagonalizes the generator once and evaluates arbitrary times by scaling
mode amplitudes, falling back to one stacked expm over all times when the
eigenbasis is too ill-conditioned near a spectral degeneracy.  That decision
lives in :func:`decompose`, which the batched K3 engine in ``lgi`` shares.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur

from . import model
from .errors import IntegrationDivergedError
from .spectrum import build_liouvillian, devectorize, vectorize

#: eigenbasis condition number beyond which Propagator falls back to expm
_EIG_COND_LIMIT = 1e8


@dataclass(frozen=True)
class EvolveConfig:
    """Integration control: the fixed step of :func:`evolve_rk4`."""

    dt: float = 1e-3

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


def _split_steps(t, dt):
    """Number of full dt steps plus the final partial step landing on t."""
    n_full = int(np.floor(t / dt + 1e-9))
    remainder = t - n_full * dt
    if remainder < 1e-9 * dt:
        remainder = 0.0
    return n_full, remainder


def _apply_power(delta, n, v, done=0):
    """``(I + delta)^n @ v`` by binary powering: apply the ``2^k``-th power for
    each set bit k of n, lowest first, squaring between levels.

    The step operator is held as ``I + delta`` and squared as
    ``delta <- 2 delta + delta^2``, so the small part of a step is never
    rounded against the identity.  ``done`` steps precede this call.  A state
    that turns non-finite raises :class:`IntegrationDivergedError` with the
    step bound reached so far.
    """
    applied, span = done, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while n:
            if n & 1:
                v = v + delta @ v
                applied += span
                if not np.all(np.isfinite(v.view(float))):
                    raise IntegrationDivergedError(applied, f"state={v!r}")
            n >>= 1
            if n:
                delta = 2.0 * delta + delta @ delta
                span *= 2
    return v


def _rk4_step_delta(gen, h):
    """One classical RK4 step of dv/dt = G v is v <- S v with
    S = sum_{k<=4} (hG)^k / k!; returns S - I, in Horner form."""
    hg = h * gen
    eye = np.eye(4, dtype=complex)
    return hg @ (eye + hg @ (eye + hg @ (eye + hg / 4.0) / 3.0) / 2.0)


def evolve_rk4(rho0, params: model.ModelParams, t, cfg: EvolveConfig = EvolveConfig(),
               diagnostics=None):
    """Classical fixed-step RK4 on the vectorized linear equation.

    The generator does not depend on t, so n RK4 steps are exactly S^n for
    one step matrix S (:func:`_rk4_step_delta` builds S - I); they are
    applied by binary powering, and the final step is shortened to land
    exactly on t.  Global error is O(dt^4).  S is a polynomial in G, so the
    result stays an independent check of the Pade-based expm.  The final
    state is projected once onto the Hermitian matrices; its defect before
    projection is reported as ``diagnostics["hermiticity_defect"]``.  A
    NaN/Inf state raises :class:`IntegrationDivergedError` with the step
    bound it appeared at.
    """
    if t < 0:
        raise ValueError(f"expected t >= 0, got {t}")
    gen = build_liouvillian(params)
    n_full, remainder = _split_steps(t, cfg.dt)
    v = _apply_power(_rk4_step_delta(gen, cfg.dt), n_full, vectorize(rho0))
    if remainder:
        v = _apply_power(_rk4_step_delta(gen, remainder), 1, v, done=n_full)
    # Hermitian projection in vector form: average the coherences, drop
    # imaginary drift on the populations.
    coh = 0.5 * (v[1] + v[2].conjugate())
    defect = max(abs(v[1] - coh), abs(v[0].imag), abs(v[3].imag))
    v = np.array([v[0].real, coh, coh.conjugate(), v[3].real], dtype=complex)
    if diagnostics is not None:
        diagnostics["hermiticity_defect"] = defect
        diagnostics["steps"] = n_full + (remainder > 0)
    return devectorize(v)


def evolve_exact(rho0, params: model.ModelParams, t) -> np.ndarray:
    """Exact propagation: devectorize(expm(G t) @ vectorize(rho0))."""
    if t < 0:
        raise ValueError(f"expected t >= 0, got {t}")
    gen = build_liouvillian(params)
    return devectorize(expm(gen * t) @ vectorize(rho0))


def decompose(generators):
    """Spectral data of a stack of generators, shape (N, 4, 4).

    Returns ``(eigs, modes, inv_modes, diagonalizable)`` with G = V diag(eigs)
    V^-1 per cell.  A normal generator (the dissipation-free limit, where
    plain ``eig`` can hand back a badly conditioned basis at the degenerate
    eigenvalue) is diagonalized unitarily via Schur.  Otherwise the ``eig``
    basis is kept while its condition number stays below
    ``_EIG_COND_LIMIT``; cells past it (parameters near an eigenvalue
    coalescence) are marked not diagonalizable and must be propagated by
    expm; their ``inv_modes`` are NaN.  Each cell's data come from its own
    LAPACK call, so they do not depend on the rest of the stack.
    """
    gens = np.asarray(generators, dtype=complex)
    adjoint = gens.conj().swapaxes(-1, -2)
    normality_defect = np.linalg.norm(gens @ adjoint - adjoint @ gens,
                                      axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(gens, axis=(-2, -1))) ** 2
    normal = normality_defect <= 1e-12 * scale
    eigs, modes = np.linalg.eig(gens)
    diagonalizable = normal | (np.linalg.cond(modes) < _EIG_COND_LIMIT)
    inv_modes = np.full_like(modes, np.nan)
    for n in np.flatnonzero(normal):
        T, Z = schur(gens[n], output="complex")
        eigs[n], modes[n], inv_modes[n] = np.diag(T), Z, Z.conj().T
    regular = np.flatnonzero(diagonalizable & ~normal)
    inv_modes[regular] = np.linalg.inv(modes[regular])
    return eigs, modes, inv_modes, diagonalizable


class Propagator:
    """Reusable propagator for many times at fixed parameters.

    Diagonalizes the generator once through :func:`decompose`; ``states``
    then costs one small matmul per batch of times.  If the generator is not
    diagonalizable there, every call falls back to one stacked expm of
    ``G t`` over its times (scipy exponentiates each slice on its own).
    """

    def __init__(self, params: model.ModelParams):
        self.params = params
        self.generator = build_liouvillian(params)
        eigs, modes, inv_modes, diagonalizable = decompose(self.generator[None])
        self._diagonalizable = bool(diagonalizable[0])
        self._eigs, self._modes, self._inv_modes = eigs[0], modes[0], inv_modes[0]

    def states(self, rho0, times) -> np.ndarray:
        """Unnormalized rho(t) for each t in ``times``; shape (len(times), 2, 2)."""
        times = np.asarray(times, dtype=float)
        if self._diagonalizable:
            amplitudes = self._inv_modes @ vectorize(rho0)
            phases = np.exp(np.multiply.outer(times, self._eigs))
            vecs = (phases * amplitudes) @ self._modes.T
        else:
            vecs = expm(self.generator * times[:, None, None]) @ vectorize(rho0)
        return vecs.reshape(len(times), 2, 2)

    def state(self, rho0, t) -> np.ndarray:
        return self.states(rho0, [t])[0]


@dataclass(frozen=True)
class KrausPair:
    """Discrete-step measurement operators M0 (no jump) and M1 (jump).

    M0 = I - i H_eff dt with H_eff = H - i gamma L^dag L, M1 = sqrt(2 gamma dt) L.
    Completeness holds to first order: M0^dag M0 + M1^dag M1 = I + O(dt^2).
    """

    m0: np.ndarray
    m1: np.ndarray
    dt: float

    @property
    def completeness_defect(self) -> float:
        """Max-abs deviation of M0^dag M0 + M1^dag M1 from the identity."""
        total = self.m0.conj().T @ self.m0 + self.m1.conj().T @ self.m1
        return float(np.max(np.abs(total - model.IDENTITY)))


def kraus_pair(params: model.ModelParams, dt) -> KrausPair:
    if not dt > 0:
        raise ValueError(f"expected dt > 0, got {dt}")
    L = model.SIGMA_PLUS
    LdL = L.conj().T @ L
    h_eff = model.hamiltonian(params) - 1j * params.gamma * LdL
    m0 = model.IDENTITY - 1j * h_eff * dt
    m1 = np.sqrt(2.0 * params.gamma * dt) * L
    return KrausPair(m0=m0, m1=m1, dt=dt)


def kraus_step(rho, params: model.ModelParams, dt) -> np.ndarray:
    """One discrete update rho <- M0 rho M0^dag + q M1 rho M1^dag."""
    pair = kraus_pair(params, dt)
    rho = np.asarray(rho, dtype=complex)
    return (
        pair.m0 @ rho @ pair.m0.conj().T
        + params.q * (pair.m1 @ rho @ pair.m1.conj().T)
    )


def evolve_kraus(rho0, params: model.ModelParams, t, dt) -> np.ndarray:
    """Iterate kraus_step t/dt times (first-order accurate in dt).

    The full steps are the superoperator K = M0 (x) M0* + q M1 (x) M1* on the
    vectorized state, applied as K^n by binary powering; one
    :func:`kraus_step` covers the remainder.
    """
    if t < 0:
        raise ValueError(f"expected t >= 0, got {t}")
    pair = kraus_pair(params, dt)
    # M0 = I + A, so K - I = A (x) I + I (x) A* + A (x) A* + q M1 (x) M1*
    a = pair.m0 - model.IDENTITY
    delta = (np.kron(a, model.IDENTITY) + np.kron(model.IDENTITY, a.conj())
             + np.kron(a, a.conj()) + params.q * np.kron(pair.m1, pair.m1.conj()))
    n_full, remainder = _split_steps(t, dt)
    rho = devectorize(_apply_power(delta, n_full, vectorize(rho0).copy()))
    if remainder:
        rho = kraus_step(rho, params, remainder)
    return rho
