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

import atexit
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import model
from .dynamics import EvolveConfig, NewtonForm, _rk4_bloch, decompose
# perfbench's tracer wraps lgi.evolve_rk4, so the name stays bound here
from .dynamics import evolve_rk4  # noqa: F401
from .errors import TrajectoryExtinguishedError
from .spectrum import bloch_generators

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


def _branch_sy(traces, sy, eps_trace):
    """The one extinction rule: the ratios sy / trace of branch readouts
    given in protocol order, and per point the index of the first branch
    whose trace is below ``eps_trace`` (a NaN trace is not), or -1."""
    if not eps_trace > 0:
        raise ValueError(f"eps_trace must be > 0, got {eps_trace}")
    first = np.full(np.shape(traces[0]), -1, dtype=np.int8)
    for k in reversed(range(len(traces))):
        first[np.less(traces[k], eps_trace)] = k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return [np.divide(s, trace) for s, trace in zip(sy, traces)], first


def _extinguished(names, traces, first):
    """The error of branch ``first`` (:func:`_branch_sy`) of ``names``."""
    return TrajectoryExtinguishedError(float(traces[first]),
                                       context=names[first])


def _check_interval(name, value):
    """Reject a measurement interval or horizon unless 0 < value and
    2 value < inf: the engines read every interval at 2t too, and an
    infinite time would only give NaN readouts."""
    if not (0 < value and 2.0 * value < math.inf):
        raise ValueError(f"expected 0 < {name} and 2*{name} < inf, got {value}")


def correlators(params: model.ModelParams, t, engine="exact",
                eps_trace=1e-12, dt=1e-3) -> CorrelatorRecord:
    """Evaluate C01, C12, C02 and K3 at interval t.

    ``engine`` selects the propagation route: "exact" (the spectral /
    Newton-form readouts of the K3 engine, the default) or "rk4" (one RK4
    run of both branches :data:`_BRANCHES` to t and 2t; a step count t / dt
    above 2**53 raises ``ValueError``).  A trajectory whose trace falls
    below ``eps_trace`` raises with the offending branch named.
    """
    _check_interval("t", t)
    if engine == "exact":
        readouts = _Cells([params.gamma], [params.q], params).readouts([0], [t])
        at_t, at_2t = (columns[0].tolist() for columns in readouts)
    elif engine == "rk4":
        readouts = _READOUT @ _rk4_bloch(_BRANCHES, params, [t, 2.0 * t],
                                         EvolveConfig(dt=dt))
        at_t, at_2t = readouts[0].ravel().tolist(), readouts[1, :, 0].tolist()
    else:
        raise ValueError(f"unknown engine {engine!r}")

    # rho(0) = P_+, so the evolved initial state and the + branch coincide.
    traces = (at_t[0], at_2t[0], at_t[1])
    ratios, first = _branch_sy(traces, (at_t[2], at_2t[1], at_t[3]), eps_trace)
    if first >= 0:
        raise _extinguished(("branch + at t", "branch + at 2t",
                             "branch - at t"), traces, first)
    sy_plus, sy_plus_2t, sy_minus = map(float, ratios)
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
    eps_trace: float = SWEEP_TRACE_FLOOR

    def __post_init__(self):
        if not self.resolution >= 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.t_max is not None:
            _check_interval("t_max", self.t_max)

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

#: width in t to which golden section refines each peak bracket
_REFINE_TOL = 1e-6

#: (cell, time) points per coarse-scan block, 4 cells at resolution 2000: its
#: largest array is about 260 KB.  Once malloc has settled, a 125-cell sweep
#: takes about 270 page faults (4096 points: 0, 16384: 430) and runs about
#: 10 % faster than with 4096.  ``landscape`` benchmark peak RSS: 64.7 MB
#: (64.5 MB with 4096 points).
_SCAN_BLOCK_POINTS = 8192

#: cells per sweep task; ``workers`` only decides which process runs a task
_SWEEP_CHUNK_CELLS = 128

#: rows: the readouts Tr[rho] = r and Tr[sigma_y rho] = sy of a state in
#: the Pauli coordinates (sx, sy, sz, r) of ``spectrum.bloch_generators``
_READOUT = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]])

#: columns: the two post-measurement branches P_+- = (I +- sigma_y) / 2,
#: (sx, sy, sz, r) = (0, +-1, 0, 1); P_+ is also rho(0)
_BRANCHES = np.array([[0.0, 0.0], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])


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


def _ranked_k3(at_t, at_2t, eps_trace):
    """K3 for the maximizer from the readouts (tr+, tr-, sy+, sy-) at t and
    (tr+, sy+) at 2t along the last axis: -inf where a branch is
    extinguished or K3 is not finite."""
    (sy_plus, sy_plus_2t, sy_minus), first = _branch_sy(
        (at_t[..., 0], at_2t[..., 0], at_t[..., 1]),
        (at_t[..., 2], at_2t[..., 1], at_t[..., 3]), eps_trace)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _correlator_terms(sy_plus, sy_minus, sy_plus_2t)[3]
    return np.where((first < 0) & np.isfinite(out), out, -np.inf)


class _Cells:
    """Branch readouts for a batch of (gamma, q) cells sharing J and theta.

    Every readout of a cell is Re(sum_k c_k(t) w_k) for the four columns
    (tr+, tr-, sy+, sy-): four time factors c_k times fixed weights w_k.
    The cells evolve under the real Bloch generator B
    (``spectrum.bloch_generators``), in which the readouts and the branches
    are 0/+-1 vectors (:data:`_READOUT`, :data:`_BRANCHES`).  One stacked
    eigendecomposition of B gives, per cell, c_k = exp(t lambda_k) and
    w_k = (e_obs^T V)(V^-1 v0) for obs in {trace, sigma_y} and v0 in
    {P+, P-}; the 2t readouts use the squares of the factors.  The coarse
    scan (:meth:`scan`) builds them from blocked factors, the refinement
    directly (:meth:`value`).  Cells that :func:`decompose` cannot
    diagonalize take the :class:`dynamics.NewtonForm` instead, built once
    here: c_k = f_t[l_0..l_k], evaluated at t and at 2t, and
    w_k = e_obs^T P_k v0.
    """

    def __init__(self, gammas, qs, params: model.ModelParams):
        self.params = params
        self.generators = bloch_generators(params, gammas, qs)
        eigs, modes, inv_modes, self.spectral = decompose(self.generators)
        readout = _contract(_READOUT, modes)           # (N, 2, 4)
        amplitudes = _contract(inv_modes, _BRANCHES)    # (N, 4, 2)
        # weights[n, k, (obs, branch)], columns (tr+, tr-, sy+, sy-)
        weights = (readout.swapaxes(-1, -2)[..., :, :, None]
                   * amplitudes[..., :, None, :]).reshape(-1, 4, 4)
        self.eigs = np.where(self.spectral[:, None], eigs, 0.0)
        self.weights = np.where(self.spectral[:, None, None], weights, 0.0)
        self.newton = {}
        for n in np.flatnonzero(~self.spectral).tolist():
            form = NewtonForm(self.generators[n], eigs[n], np.asarray(gammas)[n])
            self.newton[n] = form
            self.weights[n] = (_READOUT @ form.products @ _BRANCHES).reshape(4, 4)

    def readouts(self, cells, times, both_at_2t=False):
        """(tr+, tr-, sy+, sy-) at t and at 2t, at (cells[i], times[i]),
        broadcast; at 2t only (tr+, sy+) unless ``both_at_2t``, since the K3
        scan needs no more."""
        return _Evaluator(self, cells).readouts(times, both_at_2t)

    def value(self, cells, times, eps_trace):
        """K3 at (cells[i], times[i]), broadcast; extinguished points: -inf."""
        return _Evaluator(self, cells).value(times, eps_trace)

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
        out = _ranked_k3(at_t.reshape(count, 4, -1).transpose(0, 2, 1),
                         at_2t.reshape(count, 2, -1).transpose(0, 2, 1),
                         eps_trace)[:, :n]
        fallback = ~self.spectral[cells]
        if fallback.any():
            out[fallback] = self.value(cells[fallback, None], grid, eps_trace)
        return out


class _Evaluator:
    """:meth:`_Cells.readouts` and :meth:`_Cells.value` of fixed cells
    ``index``, at any times broadcast against them.  The cells' eigenvalues,
    weights and Newton forms are gathered here, once for a caller that reads
    the same cells step after step (the golden section)."""

    def __init__(self, cells: _Cells, index):
        index = np.asarray(index)
        self.eigs, self.weights = cells.eigs[index], cells.weights[index]
        self.newton = [(cells.newton[n], index == n) for n in
                       np.unique(index[~cells.spectral[index]]).tolist()]

    def readouts(self, times, both_at_2t=False):
        times = np.asarray(times, dtype=float)
        factors = np.exp(times[..., None] * self.eigs)
        factors_2t = factors * factors
        for form, at in self.newton:
            at = np.broadcast_to(at, factors.shape[:-1])
            t = np.broadcast_to(times, at.shape)[at]
            both = form.coefficients(np.concatenate((t, 2.0 * t)))
            factors[at], factors_2t[at] = both[:len(t)], both[len(t):]
        weights = self.weights
        at_t = _contract(factors[..., None, :], weights)[..., 0, :].real
        at_2t = _contract(factors_2t[..., None, :],
                          weights if both_at_2t else weights[..., 0::2]
                          )[..., 0, :].real
        return at_t, at_2t

    def value(self, times, eps_trace):
        return _ranked_k3(*self.readouts(times), eps_trace)


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
    """Candidate (cell, grid index) pairs, cell-major, the masked cells and
    the flat cells.

    Every local maximum within ``_PEAK_WINDOW`` of its cell's grid maximum
    is a candidate; the global maximum always is one.  A tied run of them
    keeps only its earliest member (:func:`_run_leaders`).  A cell whose
    finite grid values all lie within ``_TIE_TOL`` is flat: its maxima are
    rounding noise, and its one candidate (one tied run) moves to its
    earliest finite point.  :meth:`_Cells.scan` reads the grid in blocks of
    whole cells, ``_SCAN_BLOCK_POINTS`` or so each.
    """
    count, n = len(cells.generators), len(grid)
    step = max(1, _SCAN_BLOCK_POINTS // n)
    peaks, high, low = [], np.empty(count), np.empty(count)
    earliest = np.zeros(count, dtype=int)
    for first in range(0, count, step):
        block = np.arange(first, min(first + step, count))
        curve = cells.scan(block, grid, eps_trace)
        high[block] = vmax = curve.max(axis=1)
        low[block] = vmin = curve.min(axis=1)
        if (vmin == -np.inf).any():
            # the finite values only; tested per block, as few are extinguished
            finite = curve > -np.inf
            low[block] = np.where(finite, curve, np.inf).min(axis=1)
            earliest[block] = finite.argmax(axis=1)
        # the local-maximum test reads only the points within the window,
        # against their neighbours, -inf past either edge (index + 1 - n is
        # the right neighbour, and stays in the row); a row that is all -inf
        # has none
        rows, index = np.nonzero(curve >= np.where(
            vmax > -np.inf, vmax - _PEAK_WINDOW, np.inf)[:, None])
        value = curve[rows, index]
        peak = ((value >= np.where(index > 0, curve[rows, index - 1], -np.inf))
                & (value >= np.where(index < n - 1, curve[rows, index + 1 - n],
                                     -np.inf)))
        rows, index, value = rows[peak], index[peak], value[peak]
        peaks.append((block[rows], index, value))
    owner, index, value = (np.concatenate(column) for column in zip(*peaks))
    leaders = _run_leaders(owner, value)
    owner, index = owner[leaders], index[leaders]

    flat = (high - low <= _TIE_TOL) & (high > -np.inf)
    pinned = flat[owner]
    index[pinned] = earliest[owner[pinned]]
    return owner, index, high == -np.inf, flat


def _golden_section(evaluate: _Evaluator, a, b, tol, eps_trace):
    """Maximize over every bracket [a, b] at once, each to its own width tol.

    Each iteration keeps one interior point of the previous one and
    evaluates one new point per bracket; a bracket no wider than ``tol``
    keeps its ends from then on.  Returns the final brackets.
    """
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = evaluate.value(c, eps_trace), evaluate.value(d, eps_trace)
    live = b - a > tol
    while live.any():
        left = fc > fd  # the maximum lies in [a, d]
        low, high = np.where(left, a, c), np.where(left, d, b)
        c, d = (np.where(left, high - GOLDEN * (high - low), d),
                np.where(left, c, low + GOLDEN * (high - low)))
        a, b = np.where(live, low, a), np.where(live, high, b)
        live &= b - a > tol
        kept = np.where(left, fc, fd)
        fresh = evaluate.value(np.where(left, c, d), eps_trace)
        fc, fd = np.where(left, fresh, kept), np.where(left, kept, fresh)
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
    owner, index, masked, flat = _coarse_peaks(cells, grid, config.eps_trace)

    # a maximum on the first grid point may really live on the open t -> 0+
    # boundary; let the bracket reach down to the refinement scale so the
    # result does not depend on the coarse grid density.  A flat cell's
    # bracket ends at its grid point and reaches below it only from the
    # first one.
    pinned = flat[owner]
    lo = np.where(index >= 1, grid[np.maximum(index - 1, 0)],
                  min(_REFINE_TOL, grid[0] / 2))
    lo = np.where(pinned & (index >= 1), grid[index], lo)
    hi = np.where(pinned, grid[index], grid[np.minimum(index + 1, n - 1)])
    rescan_ts = np.linspace(lo, hi, 9, axis=-1)
    rescan = cells.value(owner[:, None], rescan_ts, config.eps_trace)
    # a flat cell reports its grid point, unrefined, unless its curve spans
    # more than a tie between t -> 0+ and that point: then it is refined from
    # its best rescan point like any other
    pinned &= rescan.max(axis=1) - rescan.min(axis=1) <= _TIE_TOL
    j = np.where(pinned, 8, np.argmax(rescan, axis=1))
    rows = np.arange(len(owner))
    a = rescan_ts[rows, np.where(pinned, 8, np.maximum(j - 1, 0))]
    b = rescan_ts[rows, np.minimum(j + 1, 8)]
    evaluate = _Evaluator(cells, owner)
    a, b = _golden_section(evaluate, a, b, _REFINE_TOL, config.eps_trace)
    refined = 0.5 * (a + b)
    refined_value = evaluate.value(refined, config.eps_trace)
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
    density and refined by golden section to 1e-6 in t.  Refined values
    within 1e-9 are ties and resolve toward the smallest t; a curve whose
    finite grid values all lie within 1e-9 is flat and reports its earliest
    finite grid point, unrefined, unless it spans more than 1e-9 between
    t -> 0+ and its first grid point.  Time points whose trace fell below the
    floor are skipped; if every point is extinguished the result is masked
    (NaN).
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


#: the grid map's process pool as (workers, pid, pool), or None
_pool_slot = None


@atexit.register
def _close_pool():
    """Terminate and join the grid-map pool if this process built it; a
    forked child drops its parent's pool without touching it."""
    global _pool_slot
    if _pool_slot is not None and _pool_slot[1] == os.getpid():
        _pool_slot[2].terminate()
        _pool_slot[2].join()
    _pool_slot = None


def _worker_pool(workers):
    """This process's pool of ``workers`` processes: built on first use,
    reused while the count and the process match, replaced otherwise."""
    global _pool_slot
    if _pool_slot is None or _pool_slot[:2] != (workers, os.getpid()):
        import multiprocessing

        _close_pool()
        _pool_slot = (workers, os.getpid(), multiprocessing.Pool(workers))
    return _pool_slot[2]


def _map_grid(work, gamma_grid, q_grid, params: model.ModelParams, args,
              workers=1) -> list:
    """Per-cell results of ``work(cells, *args)`` over a (gamma, q) grid.

    Cells sharing the J and theta of ``params`` are validated up front and
    go to ``work`` as :class:`_Cells` chunks of ``_SWEEP_CHUNK_CELLS``, in row
    order (gamma outer).  ``work`` must not let a cell's result depend on
    its chunk; ``workers`` then only decides which process runs a chunk.
    With ``workers`` > 1 the chunks go to the process's one pool, which
    later maps with the same count reuse and which is shut down at exit.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if len(gamma_grid) == 0 or len(q_grid) == 0:
        raise ValueError("gamma and q grids must be nonempty")
    gammas = np.repeat(gamma_grid, len(q_grid))
    qs = np.tile(q_grid, len(gamma_grid))
    # ModelParams checks each field on its own, so the first row, then the
    # first column, raise the first error of a cell-by-cell loop
    width = len(q_grid)
    first_row = zip(gammas[:width].tolist(), qs[:width].tolist())
    first_column = zip(gammas[::width].tolist(), qs[::width].tolist())
    for gamma, q in (*first_row, *first_column):
        replace(params, gamma=gamma, q=q)
    tasks = [
        (work, gammas[k:k + _SWEEP_CHUNK_CELLS], qs[k:k + _SWEEP_CHUNK_CELLS],
         params, args)
        for k in range(0, len(gammas), _SWEEP_CHUNK_CELLS)
    ]
    if workers > 1:
        chunks = _worker_pool(workers).map(_chunk_task, tasks)
    else:
        chunks = map(_chunk_task, tasks)
    return [result for chunk in chunks for result in chunk]


def sweep(gamma_grid, q_grid, base_params: model.ModelParams | None = None,
          config: OptimizeConfig = OptimizeConfig(), workers=1) -> SweepResult:
    """Maximize K3 on every cell of a (gamma, q) grid.

    Cells go to the engine through :func:`_map_grid`, so output is identical
    for any worker count; ``workers`` > 1 runs them on the process's one
    pool, which later calls with the same count reuse.  Cells whose every
    time point is extinguished are masked instead of aborting the sweep.
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
