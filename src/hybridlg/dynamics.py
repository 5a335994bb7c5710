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
:func:`_apply_levels`) and take the short final step separately.  RK4 runs
on the real Pauli-basis generator B (``spectrum.bloch_generator``), on
which every state is exactly Hermitian; it builds B, the step operator and
its levels once per sample grid, and one operator per distinct sample
interval, so each sample is one real 4x4 product.  Only the oracles, expm
and the Kraus map, stay on the complex vectorized G.

Normalization is never applied inside an integrator: the equation governs the
unnormalized rho and all nonlinearity lives in the rho/Tr[rho] readout.
:class:`Propagator` is the fast path for many times at one parameter point:
the :class:`NewtonForm` of exp(tB), which needs the eigenvalues of B only,
so a cell on the coalescence locus takes the same path as any other.  The
batched K3 engine in ``lgi`` diagonalizes through :func:`decompose` and takes
the same form on the cells it rejects; neither calls expm.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import IntegrationDivergedError
from .numerics import expm, schur
from .spectrum import bloch_generator, build_liouvillian, devectorize, vectorize

#: eigenbasis condition number beyond which a cell takes the NewtonForm
_EIG_COND_LIMIT = 1e8


@dataclass(frozen=True)
class EvolveConfig:
    """Integration control: the fixed step of :func:`evolve_rk4`."""

    dt: float = 1e-3

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


def _split_steps(t, dt):
    """Number of full dt steps plus the final partial step landing on t;
    a step count t / dt that is not finite, or above 2**53, where the
    remainder t - n dt would be rounding noise larger than dt, raises
    ``ValueError``."""
    if not (math.isfinite(t / dt) and t / dt <= 2.0 ** 53):
        raise ValueError(f"the step count t/dt = {t:g}/{dt:g} is not finite "
                         "or exceeds 2**53")
    n_full = math.floor(t / dt + 1e-9)
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
    eye = np.eye(len(gen))
    return hg @ (eye + hg @ (eye + hg @ (eye + hg / 4.0) / 3.0) / 2.0)


def _times_1d(times) -> np.ndarray:
    """``times`` as a 1-D float array; another shape raises ``ValueError``."""
    if np.ndim(times) != 1:
        raise ValueError(f"expected 1-D times, got shape {np.shape(times)}")
    return np.asarray(times, dtype=float)


def _rk4_bloch(v0, params: model.ModelParams, times, cfg: EvolveConfig) -> np.ndarray:
    """RK4 Pauli vectors (sx, sy, sz, r) under the real B of
    ``spectrum.bloch_generator``, from v0 at t = 0 to each of the
    non-decreasing 1-D ``times >= 0``; v0 is (4,) or a block (4, m) of
    columns, the result ``(len(times),) + v0.shape``.

    B does not depend on t, so n steps are S^n (:func:`_rk4_step_delta`
    builds S - I).  Each distinct split ``(n_full, remainder)`` of the
    sample intervals gets one operator, the product of the levels of S for
    the set bits of n_full and of the shortened step, so a sample is one
    4x4 product.  Finiteness is checked once: the full steps of the first
    non-finite sample are replayed from the state before it
    (:func:`_apply_levels`) to name its step bound, else the bound is the
    sample's last step.
    """
    times = _times_1d(times)
    if times.size and not (times[0] >= 0 and np.all(np.diff(times) >= 0)):
        raise ValueError(f"expected non-decreasing times >= 0, got {times}")
    gen = bloch_generator(params)
    splits = [_split_steps(h, cfg.dt)
              for h in np.diff(times, prepend=0.0).tolist()]
    levels = _power_levels(_rk4_step_delta(gen, cfg.dt),
                           max((n for n, _ in splits), default=0))
    v = v0 = np.asarray(v0, dtype=float)
    ops, states = {}, np.empty((len(splits),) + v0.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for n_full, remainder in dict.fromkeys(splits):
            factors = [delta for k, (delta, _) in enumerate(levels)
                       if n_full >> k & 1]
            if remainder:
                factors.append(_rk4_step_delta(gen, remainder))
            op = np.eye(4)
            for delta in factors:
                op = op + delta @ op
            ops[n_full, remainder] = op
        for k, split in enumerate(splits):
            states[k] = v = ops[split] @ v
    finite = np.isfinite(states.reshape(len(splits), v0.size)).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        steps = [n + (h > 0) for n, h in splits[:k + 1]]
        done = sum(steps[:k])
        _apply_levels(levels, splits[k][0], states[k - 1] if k else v0, done)
        raise IntegrationDivergedError(done + steps[k], f"state={states[k]!r}")
    return states


def _density(pauli) -> np.ndarray:
    """rho = (r I + sx sigma_x + sy sigma_y + sz sigma_z) / 2 of each Pauli
    vector (sx, sy, sz, r) in ``pauli`` (N, 4); shape (N, 2, 2), exactly
    Hermitian."""
    sx, sy, sz, r = 0.5 * pauli.T
    rho = np.zeros((len(pauli), 2, 2), dtype=complex)
    rho[:, 0, 0], rho[:, 1, 1] = r + sz, r - sz
    rho[:, 0, 1].real, rho[:, 0, 1].imag = sx, -sy
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    return rho


def rk4_states(rho0, params: model.ModelParams, times,
               cfg: EvolveConfig = EvolveConfig()) -> np.ndarray:
    """Classical fixed-step RK4 at each of the non-decreasing 1-D
    ``times >= 0``; shape (len(times), 2, 2).

    RK4 runs on the Pauli vector of rho0 (:func:`_rk4_bloch`), so every
    returned rho is exactly Hermitian.  Global error is O(dt^4); S is a
    polynomial in B, so this stays an independent check of the Pade-based
    expm of G.  A NaN/Inf state raises :class:`IntegrationDivergedError`
    with its step bound, counted from t = 0.
    """
    pauli0 = np.roll(model.bloch_decompose(rho0), -1)   # (sx, sy, sz, r)
    return _density(_rk4_bloch(pauli0, params, times, cfg))


def evolve_rk4(rho0, params: model.ModelParams, t, cfg: EvolveConfig = EvolveConfig()):
    """RK4 state at one time t >= 0: the one-sample call of :func:`rk4_states`."""
    return rk4_states(rho0, params, [t], cfg)[0]


def evolve_exact(rho0, params: model.ModelParams, t) -> np.ndarray:
    """Exact propagation: devectorize(expm(G t) @ vectorize(rho0))."""
    if t < 0:
        raise ValueError(f"expected t >= 0, got {t}")
    gen = build_liouvillian(params)
    return devectorize(expm(gen * t) @ vectorize(rho0))


def decompose(generators):
    """Spectral data of a stack of generators, shape (N, 4, 4), real or
    complex.

    Returns ``(eigs, modes, inv_modes, diagonalizable)`` with G = V diag(eigs)
    V^-1 per cell, all complex.  A normal generator (the dissipation-free
    limit, where plain ``eig`` can hand back a badly conditioned basis at the
    degenerate eigenvalue) is diagonalized unitarily via Schur; the test,
    ||G G^H - G^H G||_F <= 1e-12 ||G||_F^2, is relative, so a generator
    scaled by J (gamma with it) passes or fails it at every J.  Otherwise
    the ``eig`` basis is kept while its condition number stays below
    ``_EIG_COND_LIMIT``; cells past it (parameters near an eigenvalue
    coalescence) are marked not diagonalizable and are propagated by the
    :class:`NewtonForm` on their ``eigs``; their ``inv_modes`` are NaN.
    ``eig`` returns unit columns, so cond_2(V) <= ||V||_F^4 / |det V| =
    16 / |det V|: a cell whose |det V| exceeds 32 / ``_EIG_COND_LIMIT``
    passes without its SVD, which only the other cells pay for (a stack
    where every cell passes makes no SVD call).
    Each cell's data come from its own LAPACK calls, so they do not depend
    on the rest of the stack (a real stack whose spectra are all real comes
    back from ``eig`` as real arrays, with the same values).
    """
    gens = np.asarray(generators)
    adjoint = gens.conj().swapaxes(-1, -2)
    normality_defect = np.linalg.norm(gens @ adjoint - adjoint @ gens,
                                      axis=(-2, -1))
    scale = np.linalg.norm(gens, axis=(-2, -1)) ** 2
    normal = normality_defect <= 1e-12 * scale
    eigs, modes = np.linalg.eig(gens)
    eigs, modes = eigs.astype(complex), modes.astype(complex)
    diagonalizable = normal | (np.abs(np.linalg.det(modes))
                               > 32.0 / _EIG_COND_LIMIT)
    doubt = np.flatnonzero(~diagonalizable)
    if doubt.size:  # an SVD of no matrices still costs a call
        diagonalizable[doubt] = np.linalg.cond(modes[doubt]) < _EIG_COND_LIMIT
    inv_modes = np.full_like(modes, np.nan)
    for n in np.flatnonzero(normal):
        T, Z = schur(gens[n])
        eigs[n], modes[n], inv_modes[n] = np.diag(T), Z, Z.conj().T
    regular = np.flatnonzero(diagonalizable & ~normal)
    inv_modes[regular] = np.linalg.inv(modes[regular])
    return eigs, modes, inv_modes, diagonalizable


#: _SERIES_REACH[j - 1] is the largest r with r^j / j! <= 2^-56
_SERIES_REACH = np.array([(2.0 ** -56 * math.factorial(j)) ** (1.0 / j)
                          for j in range(1, 20)])


class _Series:
    """f_t[x_0..x_i] of f_t(z) = e^{tz} for every prefix of the nodes x, by
    the Taylor series about their mean mu, for t diam(x) < 1.

    With y = x - mu, f_t[x_0..x_i] = e^{t mu} t^i sum_j h_j(y_0..y_i) t^j
    / (i + j)!, h_j the complete homogeneous symmetric polynomials
    (Opitz's formula on the Taylor series of exp), summed by Horner in t.
    With r = t max|y|, below 1 where t diam(x) < 1, term j of prefix i is
    at most r^j / (j! i!): each point sums its terms up to the first whose
    bound falls below the unit roundoff relative to the leading 1 / i!.
    The count depends on the point's own t only, never on the other points
    of a call.
    """

    def __init__(self, nodes):
        self.mu = nodes.sum() / len(nodes)
        offsets = (nodes - self.mu).tolist()
        self.reach = max(abs(y) for y in offsets)
        h = [1.0] + [0.0] * len(_SERIES_REACH)   # h_j of the nodes so far
        rows = []
        for i, y in enumerate(offsets):
            for j in range(1, len(h)):
                h[j] += y * h[j - 1]
            rows.append([h[j] / math.factorial(i + j) for j in range(len(h))])
        self.table = np.array(rows, dtype=complex)

    def __call__(self, t):
        """The divided differences of every prefix at the points t (1-D);
        shape (len(t), len(nodes))."""
        terms = np.searchsorted(_SERIES_REACH, t * self.reach)[:, None] + 1
        column = t[:, None]
        # Horner from each point's own top term: a point stays 0 above it
        total = np.zeros((len(t), len(self.table)), dtype=complex)
        for j in range(int(terms.max(initial=1)), -1, -1):
            total *= column
            total += np.where(terms >= j, self.table[:, j], 0.0)
        # e^{t mu} t^i by repeated products: an e^{t mu} of 0 stays 0 for any t
        scale = np.repeat(column, len(self.table), axis=1).astype(complex)
        scale[:, 0] = np.exp(t * self.mu)
        return total * np.cumprod(scale, axis=1)


class NewtonForm:
    """exp(tG) in Newton form, for any generator G; :class:`Propagator`
    takes it on every cell, the K3 engine on the cells :func:`decompose`
    cannot diagonalize:

        exp(tG) = sum_k f_t[l_0..l_k] P_k,   P_k = prod_{j<k} (G - l_j),

    with f_t(z) = e^{tz} and the nodes l the eigenvalues of G in a fixed
    order, the one nearest -gamma last.  At theta = pi/2 that node is the
    sx mode, which the trace and sigma_y readouts of the sigma_y branches
    do not see, so there ``R P_3 B`` vanishes to rounding.  The form needs
    no eigenvectors: the divided differences are confluent where nodes
    coincide, so a defective G is as good as any other.

    The divided differences f_t[S] of the node subsets S follow the
    symmetric hybrid rule of McCurdy, Ng & Parlett (Math. Comp. 43, 1984):
    where t diam(S) < 1, the Taylor series about the mean of S
    (:class:`_Series`); elsewhere the recurrence that divides by the
    largest gap of S, so no point divides by a gap below 1/t.  The plan of
    subsets, gaps and series coefficients is built once per generator.
    """

    def __init__(self, generator, eigs, gamma):
        eigs = np.asarray(eigs, dtype=complex)
        last = int(np.argmin(np.abs(eigs + gamma)))
        self.nodes = np.append(np.delete(eigs, last), eigs[last])
        eye = np.eye(len(eigs))
        products = [eye.astype(complex)]
        for node in self.nodes[:-1]:
            products.append(products[-1] @ (generator - node * eye))
        self.products = np.array(products)
        # node subset (bit mask) -> None for one node, else the pair (a, b)
        # of its largest gap, that gap and the subset's series; children
        # come before their parents
        self._plan = {}
        for k in range(len(eigs), 0, -1):
            self._add((1 << k) - 1)

    def _add(self, mask):
        if mask in self._plan:
            return
        members = [j for j in range(len(self.nodes)) if mask >> j & 1]
        if len(members) == 1:
            self._plan[mask] = None
            return
        gaps = {(a, b): abs(self.nodes[b] - self.nodes[a])
                for i, a in enumerate(members) for b in members[i + 1:]}
        a, b = max(gaps, key=gaps.get)
        self._add(mask ^ 1 << a)
        self._add(mask ^ 1 << b)
        self._plan[mask] = (a, b, gaps[a, b], _Series(self.nodes[members]))

    def coefficients(self, times):
        """f_t[l_0..l_k] for every k at each t >= 0; shape
        ``times.shape + (len(nodes),)``.  At t = 0 exactly (1, 0, ..., 0);
        a time below 0 raises ``ValueError``.

        Where the whole node set takes the series, that one series, about
        the mean of all nodes, gives every prefix.  At the other points each
        subset of the plan is evaluated once, children first, by its rule.
        """
        times = np.asarray(times, dtype=float)
        t = times.ravel()
        if (t < 0).any():
            raise ValueError(f"expected t >= 0, got {t.min()}")
        n = len(self.nodes)
        _, _, diam, series = self._plan[(1 << n) - 1]
        near = t * diam < 1.0
        if near.all():
            return series(t).reshape(times.shape + (n,))
        out = np.empty((len(t), n), dtype=complex)
        if near.any():
            out[near] = series(t[near])
        t = t[~near]
        singles = np.exp(np.multiply.outer(t, self.nodes))
        values = {}
        for mask, entry in self._plan.items():
            if entry is None:
                values[mask] = singles[:, mask.bit_length() - 1]
                continue
            a, b, diam, series = entry
            close = t * diam < 1.0
            if close.all():
                values[mask] = series(t)[:, -1]
                continue
            value = ((values[mask ^ 1 << a] - values[mask ^ 1 << b])
                     / (self.nodes[b] - self.nodes[a]))
            if close.any():
                value[close] = series(t[close])[:, -1]
            values[mask] = value
        out[~near] = np.stack([values[(1 << k) - 1] for k in range(1, n + 1)],
                              axis=-1)
        return out.reshape(times.shape + (n,))


class Propagator:
    """Reusable propagator for many times at fixed parameters: the
    :class:`NewtonForm` of exp(tB), built once from the eigenvalues of B.

    ``states`` costs the divided differences of each time and one small
    matmul, ``sum_k c_k(t) (P_k v0)`` on the Pauli vector v0 of rho0, so
    every state is exactly Hermitian.  It needs no eigenvectors, so cells
    on the coalescence locus take the same path as every other.
    """

    def __init__(self, params: model.ModelParams):
        self.generator = bloch_generator(params)
        self._newton = NewtonForm(self.generator,
                                  np.linalg.eigvals(self.generator), params.gamma)

    def states(self, rho0, times) -> np.ndarray:
        """Unnormalized rho(t) at each t >= 0 of the 1-D ``times``, else
        ``ValueError``; rho0's Pauli vector at t = 0; shape (len(times), 2, 2)."""
        coefficients = self._newton.coefficients(_times_1d(times))
        pauli = self._newton.products @ np.roll(model.bloch_decompose(rho0), -1)
        return _density((coefficients @ pauli).real)


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
