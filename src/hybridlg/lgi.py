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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from . import model
from .dynamics import EvolveConfig, decompose, evolve_rk4
from .errors import TrajectoryExtinguishedError
from .spectrum import build_liouvillians, vectorize

#: trace floor used by optimize/sweep; guards float underflow only, so that
#: strongly conditioned ensembles (q -> 0 at long times) remain scannable.
SWEEP_TRACE_FLOOR = 1e-250

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: error text of a grid cell whose every scanned time point is extinguished
MASKED_MESSAGE = "all time points extinguished"


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


def _correlator_terms(sy_plus, sy_minus, sy_plus_2t):
    """(c01, c12, c02, k3, p+, p-) from Tr[sigma_y rho~] of the + and - branch
    at t and the + branch at 2t, with p+- = (1 +- sy+)/2; floats or arrays."""
    p_plus = 0.5 * (1.0 + sy_plus)
    p_minus = 0.5 * (1.0 - sy_plus)
    c12 = sy_plus * p_plus - sy_minus * p_minus
    return (sy_plus, c12, sy_plus_2t, sy_plus + c12 - sy_plus_2t,
            p_plus, p_minus)


def _branch_sy(branches, eps_trace):
    """sy / trace of each (context, trace, sy) readout; the first one, in
    order, whose trace is below ``eps_trace`` raises with its context."""
    out = []
    for context, trace, sy in branches:
        if trace < eps_trace:
            raise TrajectoryExtinguishedError(trace, context=context)
        out.append(sy / trace)
    return out


def correlators(params: model.ModelParams, t, engine="exact",
                eps_trace=1e-12, dt=1e-3) -> CorrelatorRecord:
    """Evaluate C01, C12, C02 and K3 at interval t.

    ``engine`` selects the propagation route: "exact" (the spectral / expm
    readouts of the K3 engine, the default) or "rk4".  A trajectory whose
    trace falls below ``eps_trace`` raises with the offending branch named.
    """
    if not t > 0:
        raise ValueError(f"expected t > 0, got {t}")
    if engine == "exact":
        readouts = _Cells([params.gamma], [params.q], params).readouts([0], [t])
        at_t, at_2t = (columns[0].tolist() for columns in readouts)
    elif engine == "rk4":
        cfg = EvolveConfig(dt=dt)
        at_t = _readout(evolve_rk4(model.PROJECTOR_PLUS, params, t, cfg),
                        evolve_rk4(model.PROJECTOR_MINUS, params, t, cfg))
        at_2t = _readout(evolve_rk4(model.PROJECTOR_PLUS, params, 2.0 * t, cfg))
    else:
        raise ValueError(f"unknown engine {engine!r}")

    # rho(0) = P_+, so the evolved initial state and the + branch coincide.
    sy_plus, sy_plus_2t, sy_minus = _branch_sy([
        ("branch + at t", at_t[0], at_t[2]),
        ("branch + at 2t", at_2t[0], at_2t[1]),
        ("branch - at t", at_t[1], at_t[3]),
    ], eps_trace)
    return CorrelatorRecord(float(t), *_correlator_terms(
        sy_plus, sy_minus, sy_plus_2t))


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

#: (cell, time) points per coarse-scan block, 2 cells at resolution 2000: its
#: arrays stay under 1 MB (8192-32768 points took 4,000-6,000 page faults per
#: 125-cell sweep, against 13).  ``landscape`` benchmark peak RSS: 63.6 MB.
_SCAN_BLOCK_POINTS = 4096

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


def _real_product(a, b):
    """Re(a @ b) over the last two axes, as one real product per matrix."""
    return (np.concatenate((a.real, -a.imag), axis=-1)
            @ np.concatenate((b.real, b.imag), axis=-2))


def _readout(*rhos):
    """(tr, sy) of one state, (tr+, tr-, sy+, sy-) of the P+ and P- branches."""
    return (_READOUT @ np.stack([vectorize(rho) for rho in rhos], axis=1)
            ).real.ravel().tolist()


def _normalized_sy(sy, trace, eps_trace):
    bad = ~(trace >= eps_trace)
    return np.where(bad, np.nan, sy / np.where(bad, 1.0, trace))


def _ranked_k3(at_t, at_2t, eps_trace):
    """K3 for the maximizer from the readouts (tr+, tr-, sy+, sy-) at t and
    (tr+, sy+) at 2t, one per leading index: extinguished points are -inf."""
    sy_plus = _normalized_sy(at_t[2], at_t[0], eps_trace)
    sy_minus = _normalized_sy(at_t[3], at_t[1], eps_trace)
    sy_plus_2t = _normalized_sy(at_2t[1], at_2t[0], eps_trace)
    out = _correlator_terms(sy_plus, sy_minus, sy_plus_2t)[3]
    return np.where(np.isfinite(out), out, -np.inf)


class _Cells:
    """Branch readouts for a batch of (gamma, q) cells sharing J and theta.

    One stacked eigendecomposition gives, per cell, the weights
    w = (e_obs^T V)(V^-1 v0) for obs in {trace, sigma_y} and v0 in {P+, P-},
    so every readout is a sum of four exponentials exp(t lambda) w and the 2t
    readouts use their squares.  The coarse scan (:meth:`scan`) builds them
    from blocked factors, the refinement directly (:meth:`value`).  Cells that
    :func:`decompose` cannot diagonalize are evaluated with one expm(G t)
    shared by both branches and one expm(G 2t) per point, all points of a
    call in one stacked expm (scipy exponentiates each slice on its own).
    """

    def __init__(self, gammas, qs, params: model.ModelParams):
        self.params = params
        self.generators = build_liouvillians(model.hamiltonian(params), gammas, qs)
        eigs, modes, inv_modes, self.spectral = decompose(self.generators)
        readout = _contract(_READOUT, modes)           # (N, 2, 4)
        amplitudes = _contract(inv_modes, _BRANCHES)    # (N, 4, 2)
        # weights[n, k, (obs, branch)], columns (tr+, tr-, sy+, sy-)
        weights = (readout.swapaxes(-1, -2)[..., :, :, None]
                   * amplitudes[..., :, None, :]).reshape(-1, 4, 4)
        self.eigs = np.where(self.spectral[:, None], eigs, 0.0)
        self.weights = np.where(self.spectral[:, None, None], weights, 0.0)

    def readouts(self, cells, times, both_at_2t=False):
        """(tr+, tr-, sy+, sy-) at t and at 2t, at (cells[i], times[i]),
        broadcast; at 2t only (tr+, sy+) unless ``both_at_2t``, since the K3
        scan needs no more."""
        cells = np.asarray(cells)
        times = np.asarray(times, dtype=float)
        phases = np.exp(times[..., None] * self.eigs[cells])
        weights = self.weights[cells]
        at_t = _contract(phases[..., None, :], weights)[..., 0, :].real
        at_2t = _contract((phases * phases)[..., None, :],
                          weights if both_at_2t else weights[..., 0::2]
                          )[..., 0, :].real
        if not self.spectral[cells].all():
            cells, times = np.broadcast_arrays(cells, times)
            fallback = ~self.spectral[cells]
            gens = self.generators[cells[fallback]]
            t = times[fallback][:, None, None]
            branches_2t = _BRANCHES if both_at_2t else _BRANCHES[:, :1]
            at_t[fallback] = (_READOUT @ expm(gens * t) @ _BRANCHES
                              ).real.reshape(len(gens), -1)
            at_2t[fallback] = (_READOUT @ expm(gens * (2.0 * t)) @ branches_2t
                               ).real.reshape(len(gens), -1)
        return at_t, at_2t

    def value(self, cells, times, eps_trace):
        """K3 at (cells[i], times[i]), broadcast; extinguished points: -inf."""
        at_t, at_2t = self.readouts(cells, times)
        return _ranked_k3(np.moveaxis(at_t, -1, 0), np.moveaxis(at_2t, -1, 0),
                          eps_trace)

    def scan(self, cells, grid, eps_trace):
        """``value(cells[:, None], grid, eps_trace)`` on a uniform ``grid``.

        With n points, M = ceil(sqrt(n)) and step s, the phase at k = m M + j
        is exp(grid[j] lambda) exp(m M s lambda), each factor evaluated
        directly (no error growth; within 1.3e-13 of ``value`` on the default
        grid) and squared at 2t.  The far factor joins the weights: one real
        product per cell, time last, of a shape independent of the rest of
        ``cells``.  Cells off the spectral path take their rows from ``value``.
        """
        n, count = len(grid), len(cells)
        width = math.isqrt(n - 1) + 1
        step = (grid[-1] - grid[0]) / max(n - 1, 1)
        near = np.exp(self.eigs[cells][..., None] * grid[:width])
        far = np.exp(self.eigs[cells][:, None, None, :]
                     * (width * step * np.arange(-(-n // width)))[:, None])
        weights = self.weights[cells].swapaxes(-1, -2)[:, :, None, :]
        at_t = _real_product((weights * far).reshape(count, -1, 4), near)
        at_2t = _real_product(
            (weights[:, 0::2] * (far * far)).reshape(count, -1, 4), near * near)
        out = _ranked_k3(at_t.reshape(count, 4, -1).swapaxes(0, 1),
                         at_2t.reshape(count, 2, -1).swapaxes(0, 1),
                         eps_trace)[:, :n]
        fallback = ~self.spectral[cells]
        if fallback.any():
            out[fallback] = self.value(cells[fallback, None], grid, eps_trace)
        return out


def _run_leaders(owner, values):
    """Mask of the candidates (cell-major, in time order) that open a run.
    A run takes each next candidate of its cell within ``_TIE_TOL`` of the
    run's first value, so a run cannot chain-drift; one vectorized pass per
    run of the cell with the most runs."""
    leader = np.diff(owner, prepend=-1) != 0
    while True:
        first = np.maximum.accumulate(np.where(leader, np.arange(len(owner)), 0))
        drift = np.abs(values - values[first]) > _TIE_TOL
        seen = np.cumsum(drift)
        opens = drift & (seen - seen[first] == 1)
        if not opens.any():
            return leader
        leader |= opens


def _coarse_peaks(cells: _Cells, grid, eps_trace):
    """Candidate (cell, grid index) pairs, cell-major, and the masked cells.

    Every local maximum within ``_PEAK_WINDOW`` of its cell's grid maximum
    is a candidate; the global maximum always is one.  A tied run of them
    keeps only its earliest member (:func:`_run_leaders`).  :meth:`_Cells.scan`
    reads the grid in blocks of whole cells, ``_SCAN_BLOCK_POINTS`` or so each.
    """
    count = len(cells.generators)
    step = max(1, _SCAN_BLOCK_POINTS // len(grid))
    peaks, masked = [], np.zeros(count, dtype=bool)
    for first in range(0, count, step):
        block = np.arange(first, min(first + step, count))
        curve = cells.scan(block, grid, eps_trace)
        vmax = curve.max(axis=1)
        masked[block] = vmax == -np.inf
        edge = np.full((len(block), 1), -np.inf)
        padded = np.concatenate((edge, curve, edge), axis=1)
        is_peak = ((curve >= padded[:, :-2]) & (curve >= padded[:, 2:])
                   & (curve >= vmax[:, None] - _PEAK_WINDOW)
                   & ~masked[block, None])
        rows, index = np.nonzero(is_peak)
        peaks.append((block[rows], index, curve[rows, index]))
    owner, index, value = (np.concatenate(column) for column in zip(*peaks))
    leaders = _run_leaders(owner, value)
    return owner[leaders], index[leaders], masked


def _golden_section(cells: _Cells, owner, a, b, tol, eps_trace):
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
    fc[live] = cells.value(owner[live], c[live], eps_trace)
    fd[live] = cells.value(owner[live], d[live], eps_trace)
    while live.size:
        left = fc[live] > fd[live]  # the maximum lies in [a, d]
        keep_a, keep_b = live[left], live[~left]
        b[keep_a], d[keep_a], fd[keep_a] = d[keep_a], c[keep_a], fc[keep_a]
        c[keep_a] = b[keep_a] - GOLDEN * (b[keep_a] - a[keep_a])
        a[keep_b], c[keep_b], fc[keep_b] = c[keep_b], d[keep_b], fd[keep_b]
        d[keep_b] = a[keep_b] + GOLDEN * (b[keep_b] - a[keep_b])
        still = b[live] - a[live] > tol
        live, left = live[still], left[still]
        fresh = cells.value(owner[live], np.where(left, c[live], d[live]),
                            eps_trace)
        fc[live] = np.where(left, fresh, fc[live])
        fd[live] = np.where(left, fd[live], fresh)
    return a, b


def _optimize_cells(cells: _Cells, config: OptimizeConfig) -> list:
    """Maximize K3 over t in (0, t_max] for every cell of ``cells``.

    The engine behind :func:`optimize_k3` (one cell; the method is described
    there), :func:`sweep` and ``nsit --maximize-over-t``.  The 4x re-scan
    guards against aliasing of the oscillatory landscape.  All candidates of
    all cells are refined together, and a cell's result never depends on
    the other cells of the batch.
    """
    horizon = config.horizon(cells.params)
    n = config.resolution
    grid = np.linspace(horizon / n, horizon, n)
    owner, index, masked = _coarse_peaks(cells, grid, config.eps_trace)

    # a maximum on the first grid point may really live on the open t -> 0+
    # boundary; let the bracket reach down to the refinement scale so the
    # result does not depend on the coarse grid density
    lo = np.where(index >= 1, grid[np.maximum(index - 1, 0)],
                  min(config.refine_tol, grid[0] / 2))
    hi = grid[np.minimum(index + 1, n - 1)]
    rescan_ts = np.linspace(lo, hi, 9, axis=-1)
    rescan = cells.value(owner[:, None], rescan_ts, config.eps_trace)
    j = np.argmax(rescan, axis=1)
    rows = np.arange(len(owner))
    a = rescan_ts[rows, np.maximum(j - 1, 0)]
    b = rescan_ts[rows, np.minimum(j + 1, 8)]
    a, b = _golden_section(cells, owner, a, b, config.refine_tol,
                           config.eps_trace)
    refined = 0.5 * (a + b)
    refined_value = cells.value(owner, refined, config.eps_trace)
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
    return _optimize_cells(_Cells([params.gamma], [params.q], params), config)[0]


@dataclass(frozen=True)
class SweepResult:
    """K3 landscape over a (gamma, q) grid.

    ``k3_max``/``t_star``/``masked`` have shape (len(gamma_grid),
    len(q_grid)); masked cells carry NaN.
    """

    gamma_grid: np.ndarray
    q_grid: np.ndarray
    k3_max: np.ndarray
    t_star: np.ndarray
    masked: np.ndarray

    def rows(self) -> list:
        """(gamma, q, k3_max, t_star, error) in fixed order, gamma outer;
        ``error`` is :data:`MASKED_MESSAGE` on masked cells, else ""."""
        return [
            (float(g), float(q), float(self.k3_max[i, j]),
             float(self.t_star[i, j]),
             MASKED_MESSAGE if self.masked[i, j] else "")
            for i, g in enumerate(self.gamma_grid)
            for j, q in enumerate(self.q_grid)
        ]


def _chunk_task(task):
    work, gammas, qs, params, args = task
    return work(_Cells(gammas, qs, params), *args)


def _map_grid(work, gamma_grid, q_grid, params: model.ModelParams, args,
              workers=1) -> list:
    """Per-cell results of ``work(cells, *args)`` over a (gamma, q) grid.

    Cells sharing the J and theta of ``params`` are validated up front and
    go to ``work`` as :class:`_Cells` chunks of ``_SWEEP_CHUNK_CELLS``, in row
    order (gamma outer).  ``work`` must not let a cell's result depend on
    its chunk; ``workers`` then only decides which process runs a chunk.
    """
    if len(gamma_grid) == 0 or len(q_grid) == 0:
        raise ValueError("gamma and q grids must be nonempty")
    gammas = np.repeat(gamma_grid, len(q_grid))
    qs = np.tile(q_grid, len(gamma_grid))
    for gamma, q in zip(gammas.tolist(), qs.tolist()):
        replace(params, gamma=gamma, q=q)
    tasks = [
        (work, gammas[k:k + _SWEEP_CHUNK_CELLS], qs[k:k + _SWEEP_CHUNK_CELLS],
         params, args)
        for k in range(0, len(gammas), _SWEEP_CHUNK_CELLS)
    ]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_chunk_task, tasks)
    else:
        chunks = map(_chunk_task, tasks)
    return [result for chunk in chunks for result in chunk]


def sweep(gamma_grid, q_grid, base_params: model.ModelParams | None = None,
          config: OptimizeConfig = OptimizeConfig(), workers=1) -> SweepResult:
    """Maximize K3 on every cell of a (gamma, q) grid.

    Cells go to the engine through :func:`_map_grid`, so output is identical
    for any worker count.  Cells whose every time point is extinguished are
    masked instead of aborting the sweep.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    base = base_params if base_params is not None else model.ModelParams(
        gamma=0.0, q=1.0)
    results = _map_grid(_optimize_cells, gamma_grid, q_grid, base, (config,),
                        workers)

    shape = (len(gamma_grid), len(q_grid))
    k3_max, t_star, masked = (np.reshape(column, shape)
                              for column in zip(*results))
    return SweepResult(gamma_grid=gamma_grid, q_grid=q_grid, k3_max=k3_max,
                       t_star=t_star, masked=masked)
