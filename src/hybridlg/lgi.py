"""Sequential-measurement correlators, the three-time parameter K3, and
optimization/sweeps over the (gamma, q) plane.

Protocol: prepare the +1 eigenstate of sigma_y, measure sigma_y projectively
at times 0, t, 2t.  With the (normalized) evolved states

    rho~(t)   : evolved initial state,
    rho~+-(t) : evolved post-measurement projectors P_+-,

the three two-time correlators are

    C01(t) = Tr[sigma_y rho~(t)],
    C12(t) = Tr[sigma_y rho~+(t)] p+(t) - Tr[sigma_y rho~-(t)] p-(t),
    C02(t) = Tr[sigma_y rho~(2t)],

with branch weights p+-(t) = Tr[P_+- rho~(t)], and K3 = C01 + C12 - C02.

Because the conditioned evolution shrinks the trace, readout ratios stay
numerically well-posed far below any physically meaningful trace (all decay
envelopes are shared), so the optimizer and sweeps treat a time point as
extinguished only when the trace drops under ``SWEEP_TRACE_FLOOR`` near the
double-precision underflow limit.  Point evaluations via
:func:`correlators` keep the stricter observation-point default.
"""

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import model
from .dynamics import EvolveConfig, Propagator, decompose, evolve_rk4
from .errors import TrajectoryExtinguishedError
from .numerics import expm
from .spectrum import build_liouvillians, vectorize

#: trace floor used by optimize/sweep; guards float underflow only, so that
#: strongly conditioned ensembles (q -> 0 at long times) remain scannable.
SWEEP_TRACE_FLOOR = 1e-250

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CorrelatorRecord:
    """Correlators and K3 for one measurement interval t."""

    t: float
    c01: float
    c12: float
    c02: float
    k3: float
    p_plus: float
    p_minus: float


def _sy_of(rho) -> float:
    return float(np.trace(rho @ model.SIGMA_Y).real)


def _normalized(rho, eps_trace, context):
    trace = float(np.trace(rho).real)
    if trace < eps_trace:
        raise TrajectoryExtinguishedError(trace, context=context)
    return rho / trace


def correlators(params: model.ModelParams, t, engine="exact",
                eps_trace=1e-12, dt=1e-3, propagator=None) -> CorrelatorRecord:
    """Evaluate C01, C12, C02 and K3 at interval t.

    ``engine`` selects the propagation route: "exact" (matrix exponential /
    spectral, the default) or "rk4".  A trajectory whose trace falls below
    ``eps_trace`` raises with the offending branch named.
    """
    if not t > 0:
        raise ValueError(f"expected t > 0, got {t}")
    if propagator is not None and propagator.params != params:
        raise ValueError(
            f"propagator was built for {propagator.params}, not {params}")
    if engine == "exact":
        prop = propagator if propagator is not None else Propagator(params)
        rho_plus_t, rho_plus_2t = prop.states(model.PROJECTOR_PLUS, [t, 2.0 * t])
        rho_minus_t = prop.state(model.PROJECTOR_MINUS, t)
    elif engine == "rk4":
        cfg = EvolveConfig(dt=dt, method="rk4")
        rho_plus_t = evolve_rk4(model.PROJECTOR_PLUS, params, t, cfg)
        rho_plus_2t = evolve_rk4(model.PROJECTOR_PLUS, params, 2.0 * t, cfg)
        rho_minus_t = evolve_rk4(model.PROJECTOR_MINUS, params, t, cfg)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    # rho(0) = P_+, so the evolved initial state and the + branch coincide.
    state_t = _normalized(rho_plus_t, eps_trace, "branch + at t")
    state_2t = _normalized(rho_plus_2t, eps_trace, "branch + at 2t")
    branch_minus = _normalized(rho_minus_t, eps_trace, "branch - at t")

    c01 = _sy_of(state_t)
    p_plus = float(np.trace(model.PROJECTOR_PLUS @ state_t).real)
    p_minus = float(np.trace(model.PROJECTOR_MINUS @ state_t).real)
    c12 = _sy_of(state_t) * p_plus - _sy_of(branch_minus) * p_minus
    c02 = _sy_of(state_2t)
    return CorrelatorRecord(
        t=float(t), c01=c01, c12=c12, c02=c02, k3=c01 + c12 - c02,
        p_plus=p_plus, p_minus=p_minus,
    )


def k3(params: model.ModelParams, t, engine="exact", eps_trace=1e-12) -> float:
    """K3(t) = C01(t) + C12(t) - C02(t)."""
    return correlators(params, t, engine=engine, eps_trace=eps_trace).k3


class K3Optimum(NamedTuple):
    """Result of maximizing K3 over the measurement interval."""

    k3_max: float
    t_star: float
    masked: bool = False


@dataclass(frozen=True)
class OptimizeConfig:
    """Grid scan plus local refinement controls for the K3 maximization."""

    t_max: float | None = None     # default 20 / J
    resolution: int = 2000
    refine_tol: float = 1e-6
    eps_trace: float = SWEEP_TRACE_FLOOR

    def __post_init__(self):
        if not self.resolution >= 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if not self.refine_tol > 0:
            raise ValueError(f"refine_tol must be > 0, got {self.refine_tol}")

    def horizon(self, params: model.ModelParams) -> float:
        if self.t_max is not None:
            return self.t_max
        if params.J <= 0:
            raise ValueError("t_max must be given explicitly when J = 0")
        return 20.0 / params.J


#: grid peaks within this window of the global grid maximum are all refined,
#: so equal-height peaks of a (near-)periodic landscape resolve toward the
#: earliest maximizer instead of whichever one the grid happened to sample
#: closest to its crest.
_PEAK_WINDOW = 1e-3

#: refined values closer than this count as a tie (broken toward smaller t)
_TIE_TOL = 1e-9

#: (cell, time) points per coarse-scan block; bounds the scan's memory
_SCAN_BLOCK_POINTS = 2048

#: cells per sweep task; ``workers`` only decides which process runs a task
_SWEEP_CHUNK_CELLS = 128

#: rows of vectorized readouts: <<e|rho>> = Tr[rho] and Tr[sigma_y rho]
_READOUT = np.stack([vectorize(model.IDENTITY), vectorize(model.SIGMA_Y.T)])

#: columns: the two post-measurement branches P_+ (also rho(0)) and P_-
_BRANCHES = np.stack([vectorize(model.PROJECTOR_PLUS),
                      vectorize(model.PROJECTOR_MINUS)], axis=1)


def _contract(a, b):
    """a @ b over the last two axes, as explicit elementwise sums.

    The result of each stacked product then does not depend on the shape of
    the stack, which keeps a cell's numbers independent of its batch.
    """
    total = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        total += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return total


def _normalized_sy(sy, trace, eps_trace):
    bad = ~(trace >= eps_trace)
    return np.where(bad, np.nan, sy / np.where(bad, 1.0, trace))


class _Cells:
    """K3(t) for a batch of (gamma, q) cells sharing J and theta.

    One stacked eigendecomposition gives, per cell, the weights
    w = (e_obs^T V)(V^-1 v0) for obs in {trace, sigma_y} and v0 in {P+, P-},
    so every readout is a sum of four exponentials exp(t lambda) w and the 2t
    readouts use their squares.  Cells that :func:`decompose` cannot
    diagonalize are evaluated point by point with one expm(G t) shared by
    both branches and one expm(G 2t).
    """

    def __init__(self, gammas, qs, params: model.ModelParams, eps_trace):
        self.eps_trace = eps_trace
        self.generators = build_liouvillians(model.hamiltonian(params), gammas, qs)
        eigs, modes, inv_modes, self.spectral = decompose(self.generators)
        readout = _contract(_READOUT, modes)           # (N, 2, 4)
        amplitudes = _contract(inv_modes, _BRANCHES)    # (N, 4, 2)
        # weights[n, k, (obs, branch)], columns (tr+, tr-, sy+, sy-)
        weights = (readout.swapaxes(-1, -2)[..., :, :, None]
                   * amplitudes[..., :, None, :]).reshape(-1, 4, 4)
        self.eigs = np.where(self.spectral[:, None], eigs, 0.0)
        self.weights = np.where(self.spectral[:, None, None], weights, 0.0)

    def _expm_readouts(self, cell, t):
        """(tr+, tr-, sy+, sy-) at t and (tr+, sy+) at 2t through expm."""
        gen = self.generators[cell]
        at_t = (_READOUT @ expm(gen, t) @ _BRANCHES).real.ravel()
        at_2t = (_READOUT @ expm(gen, 2.0 * t) @ _BRANCHES[:, 0]).real
        return at_t, at_2t

    def k3(self, cells, times):
        """K3 at (cells[i], times[i]), broadcast; extinguished points are NaN."""
        cells = np.asarray(cells)
        times = np.asarray(times, dtype=float)
        phases = np.exp(times[..., None] * self.eigs[cells])
        weights = self.weights[cells]
        at_t = _contract(phases[..., None, :], weights)[..., 0, :].real
        at_2t = _contract((phases * phases)[..., None, :],
                          weights[..., 0::2])[..., 0, :].real
        if not self.spectral[cells].all():
            cells, times = np.broadcast_arrays(cells, times)
            for index in zip(*np.nonzero(~self.spectral[cells])):
                at_t[index], at_2t[index] = self._expm_readouts(
                    cells[index], float(times[index]))
        sy_plus = _normalized_sy(at_t[..., 2], at_t[..., 0], self.eps_trace)
        sy_minus = _normalized_sy(at_t[..., 3], at_t[..., 1], self.eps_trace)
        sy_plus_2t = _normalized_sy(at_2t[..., 1], at_2t[..., 0], self.eps_trace)
        p_plus = 0.5 * (1.0 + sy_plus)
        p_minus = 0.5 * (1.0 - sy_plus)
        return sy_plus + (sy_plus * p_plus - sy_minus * p_minus) - sy_plus_2t

    def value(self, cells, times):
        """K3 for the maximizer: extinguished points rank as -inf."""
        out = self.k3(cells, times)
        return np.where(np.isfinite(out), out, -np.inf)


def k3_curve(params: model.ModelParams, times, eps_trace=SWEEP_TRACE_FLOOR
             ) -> np.ndarray:
    """K3 over a batch of times through the optimizer's own evaluation.

    Agrees with :func:`correlators` to roundoff (asserted in the test suite);
    points whose trace fell below ``eps_trace`` are NaN.
    """
    cell = _Cells([params.gamma], [params.q], params, eps_trace)
    return cell.k3(0, np.asarray(times, dtype=float))


def _coarse_peaks(cells: _Cells, grid):
    """Candidate (cell, grid index) pairs, cell-major, and the masked cells.

    Every local maximum within ``_PEAK_WINDOW`` of its cell's grid maximum
    is a candidate; the global maximum always is one.  The grid is scanned
    in blocks of whole cells, about ``_SCAN_BLOCK_POINTS`` points each.
    """
    count = len(cells.generators)
    step = max(1, _SCAN_BLOCK_POINTS // len(grid))
    peak_cells, peak_index, masked = [], [], np.zeros(count, dtype=bool)
    for first in range(0, count, step):
        block = np.arange(first, min(first + step, count))
        curve = cells.value(block[:, None], grid)
        vmax = curve.max(axis=1)
        masked[block] = vmax == -np.inf
        edge = np.full((len(block), 1), -np.inf)
        padded = np.concatenate((edge, curve, edge), axis=1)
        is_peak = ((curve >= padded[:, :-2]) & (curve >= padded[:, 2:])
                   & (curve >= vmax[:, None] - _PEAK_WINDOW)
                   & ~masked[block, None])
        rows, index = np.nonzero(is_peak)
        peak_cells.append(block[rows])
        peak_index.append(index)
    return np.concatenate(peak_cells), np.concatenate(peak_index), masked


def _golden_section(cells: _Cells, owner, a, b, tol):
    """Maximize over every bracket [a, b] at once, each to its own width tol.

    Each iteration keeps one interior point of the previous one and
    evaluates one new point per bracket that is still wider than ``tol``.
    Returns the final brackets.
    """
    a, b = a.copy(), b.copy()
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    live = np.flatnonzero(b - a > tol)
    fc = np.full(a.shape, -np.inf)
    fd = np.full(a.shape, -np.inf)
    fc[live] = cells.value(owner[live], c[live])
    fd[live] = cells.value(owner[live], d[live])
    while live.size:
        left = fc[live] > fd[live]  # the maximum lies in [a, d]
        keep_a, keep_b = live[left], live[~left]
        b[keep_a], d[keep_a], fd[keep_a] = d[keep_a], c[keep_a], fc[keep_a]
        c[keep_a] = b[keep_a] - GOLDEN * (b[keep_a] - a[keep_a])
        a[keep_b], c[keep_b], fc[keep_b] = c[keep_b], d[keep_b], fd[keep_b]
        d[keep_b] = a[keep_b] + GOLDEN * (b[keep_b] - a[keep_b])
        still = b[live] - a[live] > tol
        live, left = live[still], left[still]
        fresh = cells.value(owner[live], np.where(left, c[live], d[live]))
        fc[live] = np.where(left, fresh, fc[live])
        fd[live] = np.where(left, fd[live], fresh)
    return a, b


def _optimize_cells(gammas, qs, params: model.ModelParams,
                    config: OptimizeConfig) -> list:
    """Maximize K3 over t in (0, t_max] for every (gammas[i], qs[i]) cell.

    The engine behind :func:`optimize_k3` (one cell) and :func:`sweep`.
    A uniform scan locates candidate peaks; each is re-scanned at 4x the
    grid density to guard against aliasing of the oscillatory landscape,
    then refined by golden section to ``refine_tol``.  All candidates of all
    cells are refined together.  A cell's result depends only on its own
    parameters, never on the other cells of the batch.
    """
    horizon = config.horizon(params)
    n = config.resolution
    grid = np.linspace(horizon / n, horizon, n)
    cells = _Cells(gammas, qs, params, config.eps_trace)
    owner, index, masked = _coarse_peaks(cells, grid)

    # a maximum on the first grid point may really live on the open t -> 0+
    # boundary; let the bracket reach down to the refinement scale so the
    # result does not depend on the coarse grid density
    lo = np.where(index >= 1, grid[np.maximum(index - 1, 0)],
                  min(config.refine_tol, grid[0] / 2))
    hi = grid[np.minimum(index + 1, n - 1)]
    rescan_ts = np.linspace(lo, hi, 9, axis=-1)
    rescan = cells.value(owner[:, None], rescan_ts)
    j = np.argmax(rescan, axis=1)
    rows = np.arange(len(owner))
    a = rescan_ts[rows, np.maximum(j - 1, 0)]
    b = rescan_ts[rows, np.minimum(j + 1, 8)]
    a, b = _golden_section(cells, owner, a, b, config.refine_tol)
    refined = 0.5 * (a + b)
    refined_value = cells.value(owner, refined)
    scan_t, scan_value = rescan_ts[rows, j], rescan[rows, j]
    take = (refined_value > scan_value) | (
        (refined_value == scan_value) & (refined < scan_t))
    peak_t = np.where(take, refined, scan_t).tolist()
    peak_value = np.where(take, refined_value, scan_value).tolist()

    best = [(math.inf, -math.inf)] * len(masked)
    for cell, t_at, value in zip(owner.tolist(), peak_t, peak_value):
        best_t, best_value = best[cell]
        if value > best_value + _TIE_TOL or (
            abs(value - best_value) <= _TIE_TOL and t_at < best_t
        ):
            best[cell] = (t_at, value)
    return [
        K3Optimum(k3_max=math.nan, t_star=math.nan, masked=True) if gone
        else K3Optimum(k3_max=value, t_star=t_at, masked=False)
        for gone, (t_at, value) in zip(masked.tolist(), best)
    ]


def optimize_k3(params: model.ModelParams, config: OptimizeConfig = OptimizeConfig()
                ) -> K3Optimum:
    """Deterministic maximization of K3(t) over t in (0, t_max].

    Candidate peaks are every local maximum of a uniform scan within a small
    window of the global grid maximum; each is re-scanned at 4x the grid
    density and refined by golden section to ``refine_tol``.  Refined values
    within 1e-9 are ties and resolve toward the smallest t.  Time points
    whose trace fell below the floor are skipped; if every point is
    extinguished the result is masked (NaN).
    """
    return _optimize_cells([params.gamma], [params.q], params, config)[0]


@dataclass(frozen=True)
class SweepResult:
    """K3 landscape over a (gamma, q) grid.

    ``k3_max``/``t_star`` have shape (len(gamma_grid), len(q_grid)); masked
    cells carry NaN with the failure message recorded under their index pair.
    """

    gamma_grid: np.ndarray
    q_grid: np.ndarray
    k3_max: np.ndarray
    t_star: np.ndarray
    masked: np.ndarray
    messages: dict = field(default_factory=dict)
    t_max: float | None = None
    resolution: int = 2000

    def rows(self):
        """(gamma, q, k3_max, t_star, message) in fixed order: gamma outer."""
        for i, g in enumerate(self.gamma_grid):
            for j, q in enumerate(self.q_grid):
                yield (
                    float(g), float(q),
                    float(self.k3_max[i, j]), float(self.t_star[i, j]),
                    self.messages.get((i, j), ""),
                )


def sweep(gamma_grid, q_grid, base_params: model.ModelParams | None = None,
          config: OptimizeConfig = OptimizeConfig(), workers=1) -> SweepResult:
    """Maximize K3 on every cell of a (gamma, q) grid.

    Cells go to the engine in chunks of ``_SWEEP_CHUNK_CELLS``; a cell's
    result does not depend on its chunk, so output is identical for any
    worker count.  Cells whose every time point is extinguished are masked
    instead of aborting the sweep.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    if gamma_grid.size == 0 or q_grid.size == 0:
        raise ValueError("gamma and q grids must be nonempty")
    J = base_params.J if base_params is not None else 1.0
    theta = base_params.theta if base_params is not None else math.pi / 2

    gammas = np.repeat(gamma_grid, len(q_grid))
    qs = np.tile(q_grid, len(gamma_grid))
    # every cell is validated up front, in row order; all share J and theta
    cells = [model.ModelParams(gamma=gamma, q=q, J=J, theta=theta)
             for gamma, q in zip(gammas.tolist(), qs.tolist())]
    tasks = [
        (gammas[k:k + _SWEEP_CHUNK_CELLS], qs[k:k + _SWEEP_CHUNK_CELLS],
         cells[0], config)
        for k in range(0, len(gammas), _SWEEP_CHUNK_CELLS)
    ]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.starmap(_optimize_cells, tasks)
    else:
        chunks = [_optimize_cells(*task) for task in tasks]

    shape = (len(gamma_grid), len(q_grid))
    k3_max = np.empty(shape)
    t_star = np.empty(shape)
    masked = np.zeros(shape, dtype=bool)
    messages = {}
    results = (cell for chunk in chunks for cell in chunk)
    for flat, cell in enumerate(results):
        i, j = divmod(flat, len(q_grid))
        k3_max[i, j] = cell.k3_max
        t_star[i, j] = cell.t_star
        if cell.masked:
            masked[i, j] = True
            messages[(i, j)] = "all time points extinguished"
    return SweepResult(
        gamma_grid=gamma_grid, q_grid=q_grid, k3_max=k3_max, t_star=t_star,
        masked=masked, messages=messages,
        t_max=config.t_max, resolution=config.resolution,
    )
