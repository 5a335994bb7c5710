"""Time evolution engines for the hybrid master equation.

Three interchangeable routes propagate the unnormalized state:

* :func:`evolve_exact` applies the matrix exponential of the vectorized
  generator (scipy's ``expm`` of ``G t``) and serves as the brute-force
  oracle for everything else;
* :func:`rk4_states` integrates the same linear equation with classical
  fixed-step RK4 over a whole sample grid, and :func:`evolve_rk4` is its
  one-sample call (cross-validation path);
* :func:`kraus_step` applies the discrete two-operator measurement map
  rho <- M0 rho M0^dag + q M1 rho M1^dag whose delta_t -> 0 limit is the
  master equation, and :func:`evolve_kraus` iterates it.

The generator does not depend on time, so a fixed-step scheme is one step
operator applied n times: both stepping engines apply its n-th power by
binary powering (the levels of :func:`_power_levels`, applied by
:func:`_apply_levels`) and take the short final step separately.  RK4
builds the generator, the step operator and its levels once per sample
grid, not once per sample.

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


def _power_levels(delta, n):
    """``(delta_k, span_k)`` for each bit k of n: ``I + delta_k`` is the
    ``span_k = 2^k``-th power of ``I + delta``.

    The step operator is held as ``I + delta`` and squared as
    ``delta <- 2 delta + delta^2``, so the small part of a step is never
    rounded against the identity.
    """
    levels, span = [], 1
    with np.errstate(over="ignore", invalid="ignore"):
        while n:
            levels.append((delta, span))
            n >>= 1
            if n:
                delta = 2.0 * delta + delta @ delta
                span *= 2
    return levels


def _apply_levels(levels, n, v, done=0):
    """``(I + delta)^n @ v`` by binary powering: apply the level of each set
    bit of n, lowest first (``levels`` from :func:`_power_levels` of n or of
    a larger count).  ``done`` steps precede this call.  A state that turns
    non-finite raises :class:`IntegrationDivergedError` with the step bound
    reached so far.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for delta, span in levels:
            if n & 1:
                v = v + delta @ v
                done += span
                if not np.isfinite(v.view(float)).all():
                    raise IntegrationDivergedError(done, f"state={v!r}")
            n >>= 1
    return v


def _rk4_step_delta(gen, h):
    """One classical RK4 step of dv/dt = G v is v <- S v with
    S = sum_{k<=4} (hG)^k / k!; returns S - I, in Horner form."""
    hg = h * gen
    eye = np.eye(4, dtype=complex)
    return hg @ (eye + hg @ (eye + hg @ (eye + hg / 4.0) / 3.0) / 2.0)


def rk4_states(rho0, params: model.ModelParams, times, cfg: EvolveConfig = EvolveConfig(),
               diagnostics=None) -> np.ndarray:
    """Classical fixed-step RK4 on the vectorized linear equation at each of
    the non-decreasing ``times >= 0``; shape (len(times), 2, 2).

    The generator does not depend on t, so n RK4 steps are exactly S^n for
    one step matrix S (:func:`_rk4_step_delta` builds S - I).  G, S and the
    binary-power levels of S are built once; each sample interval takes its
    full steps from them plus a shortened step landing on its time, and its
    state is projected onto the Hermitian matrices.  Global error is
    O(dt^4); S is a polynomial in G, so this stays an independent check of
    the Pade-based expm.  ``diagnostics`` gets the last sample's
    ``hermiticity_defect`` before projection and the ``steps`` from t = 0.
    A NaN/Inf state raises :class:`IntegrationDivergedError` with its step
    bound, counted from t = 0.
    """
    times = np.asarray(times, dtype=float)
    if times.size and not (times[0] >= 0 and np.all(np.diff(times) >= 0)):
        raise ValueError(f"expected non-decreasing times >= 0, got {times}")
    gen = build_liouvillian(params)
    splits = [_split_steps(h, cfg.dt) for h in np.diff(times, prepend=0.0)]
    levels = _power_levels(_rk4_step_delta(gen, cfg.dt),
                           max((n for n, _ in splits), default=0))
    states = np.empty((len(times), 4), dtype=complex)
    v, done = vectorize(rho0), 0
    for k, (n_full, remainder) in enumerate(splits):
        v = _apply_levels(levels, n_full, v, done)
        done += n_full
        if remainder:
            v = _apply_levels([(_rk4_step_delta(gen, remainder), 1)], 1, v, done)
            done += 1
        # Hermitian projection in vector form: average the coherences, drop
        # imaginary drift on the populations.
        raw, coh = v, 0.5 * (v[1] + v[2].conjugate())
        v = np.array([v[0].real, coh, coh.conjugate(), v[3].real], dtype=complex)
        states[k] = v
    if diagnostics is not None and times.size:
        diagnostics["hermiticity_defect"] = max(
            abs(raw[1] - v[1]), abs(raw[0].imag), abs(raw[3].imag))
        diagnostics["steps"] = done
    return states.reshape(-1, 2, 2)


def evolve_rk4(rho0, params: model.ModelParams, t, cfg: EvolveConfig = EvolveConfig(),
               diagnostics=None):
    """RK4 state at one time t >= 0: the one-sample call of :func:`rk4_states`."""
    return rk4_states(rho0, params, [t], cfg, diagnostics)[0]


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
    v = vectorize(rho0).copy()
    rho = devectorize(_apply_levels(_power_levels(delta, n_full), n_full, v))
    if remainder:
        rho = kraus_step(rho, params, remainder)
    return rho
