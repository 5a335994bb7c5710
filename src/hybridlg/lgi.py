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
import copy
import itertools
import math
import numbers
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import model
from .dynamics import EvolveConfig, NewtonForm, _rk4_bloch, decompose
# perfbench's tracer wraps lgi.evolve_rk4, so the name stays bound here
from .dynamics import evolve_rk4  # noqa: F401
from .errors import TrajectoryExtinguishedError, WorkerPoolError
from .spectrum import bloch_generators

#: trace floor used by optimize/sweep; guards float underflow only, so that
#: strongly conditioned ensembles (q -> 0 at long times) remain scannable.
SWEEP_TRACE_FLOOR = 1e-250

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


def _correlator_terms(sy_plus, sy_minus, sy_plus_2t, out=(None,) * 4):
    """(c01, c12, c02, k3, p+, p-) from Tr[sigma_y rho~] of the + and - branch
    at t and the + branch at 2t, with p+- = (1 +- sy+)/2; floats or arrays.
    ``out`` holds the arrays that receive p+, p-, c12 and k3, or None for a
    new one; the IEEE operations are the same either way."""
    p_plus, p_minus, c12, k3 = out
    p_plus = np.multiply(0.5, np.add(1.0, sy_plus, out=p_plus), out=p_plus)
    p_minus = np.multiply(0.5, np.subtract(1.0, sy_plus, out=p_minus),
                          out=p_minus)
    # k3 holds sy- p- until the sum
    c12 = np.subtract(np.multiply(sy_plus, p_plus, out=c12),
                      np.multiply(sy_minus, p_minus, out=k3), out=c12)
    k3 = np.subtract(np.add(sy_plus, c12, out=k3), sy_plus_2t, out=k3)
    return sy_plus, c12, sy_plus_2t, k3, p_plus, p_minus


def _k3_slope(at_t, at_2t):
    """dK3/dt from the readouts (tr+, tr-, sy+, sy-) at t and (tr+, sy+) at
    2t along the last axis, each block followed by the time derivatives of
    its columns.  A branch ratio s = sy / tr moves as
    s' = (sy' tr - sy tr') / tr^2, evaluated as (sy' - s tr') / tr so that
    no trace is squared; the ratio read at 2t enters with the chain factor
    2."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = at_t[..., 2:4] / at_t[..., 0:2]
        slope = (at_t[..., 6:8] - ratio * at_t[..., 4:6]) / at_t[..., 0:2]
        ratio_2t = at_2t[..., 1] / at_2t[..., 0]
        slope_2t = (at_2t[..., 3] - ratio_2t * at_2t[..., 2]) / at_2t[..., 0]
        sy_plus, sy_minus = ratio[..., 0], ratio[..., 1]
        # d/dt of sy+ + sy+ p+ - sy- p- - sy+(2t), with p+- = (1 +- sy+) / 2
        return (slope[..., 0] * (1.5 + sy_plus + 0.5 * sy_minus)
                - 0.5 * slope[..., 1] * (1.0 - sy_plus) - 2.0 * slope_2t)


def _branch_sy(traces, sy, eps_trace, out=None):
    """The one extinction rule: the ratios sy / trace of branch readouts
    given in protocol order, and per point the index of the first branch
    whose trace is below ``eps_trace`` (a NaN trace is not), or -1.  The
    ratios go to the arrays ``out`` if given."""
    if not eps_trace > 0:
        raise ValueError(f"eps_trace must be > 0, got {eps_trace}")
    if out is None:
        out = [None] * len(traces)
    first = np.full(np.shape(traces[0]), -1, dtype=np.int8)
    for k in reversed(range(len(traces))):
        first[np.less(traces[k], eps_trace)] = k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return [np.divide(s, trace, out=ratio)
                for s, trace, ratio in zip(sy, traces, out)], first


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
    sy_plus, sy_plus_2t, sy_minus = ratios
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _correlator_terms(sy_plus, sy_minus, sy_plus_2t)
    return CorrelatorRecord(float(t), *map(float, terms))


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
        if (isinstance(self.resolution, bool)
                or not isinstance(self.resolution, numbers.Integral)):
            raise ValueError(
                f"resolution must be an integer, got {self.resolution!r}")
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

#: how far below a cell's first grid point its first peak bracket reaches,
#: toward the open t -> 0+ boundary
_REFINE_TOL = 1e-6

#: the peak search ends a bracket once it is no wider than this, relative
#: to its best point
_ROOT_RTOL = 1e-10

#: the peak search makes at most this many rounds
_ROOT_ROUNDS = 10

#: (cell, time) points per coarse-scan block, 8 cells at resolution 2000.
#: The blocks of a batch run in one :class:`_ScanSpace` (1.8 MB at 8 cells),
#: so a warm 125-cell sweep takes no minor page faults, where blocks that
#: allocated their arrays took about 250 at 4 cells.  A 128-cell sweep task's
#: allocations peak at 2.3 MB (tracemalloc; 1.9 MB with those blocks);
#: ``landscape`` benchmark peak RSS: 66.3 MB (64.9 MB with them).
_SCAN_BLOCK_POINTS = 16384

#: most cells in one grid-map task.  A grid of up to ``workers`` times this
#: many cells takes one task per worker, each paying its set-up once; the cap
#: bounds a task's memory on huge grids.  At 1024 cells its :class:`_Cells`
#: arrays take 0.7 MB, and its allocations peak at 2.0 MB in ``nsit`` and
#: 6.5 MB in ``sweep`` (tracemalloc; 2.3 MB for a 128-cell ``sweep`` task).
_MAX_TASK_CELLS = 1024

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


def _real_product(a, b, left, right, out):
    """Re(a @ b) over the last two axes into ``out``, as one real product per
    matrix, [Re a, -Im a] @ [Re b; Im b], whose operands are written into
    ``left`` and ``right``."""
    k = a.shape[-1]
    left[..., :k] = a.real
    np.negative(a.imag, out=left[..., k:])
    right[..., :k, :] = b.real
    right[..., k:, :] = b.imag
    return np.matmul(left, right, out=out)


def _ranked_k3(at_t, at_2t, eps_trace, work=None):
    """K3 for the maximizer from the readouts (tr+, tr-, sy+, sy-) at t and
    (tr+, sy+) at 2t along the last axis: -inf where a branch is
    extinguished or K3 is not finite.  ``work``, six float arrays of the
    points' shape, receives the three branch ratios and p+, p- and c12; the
    K3 array returned is new either way."""
    ratios, terms = (None, (None,) * 3) if work is None else (work[:3], work[3:])
    (sy_plus, sy_plus_2t, sy_minus), first = _branch_sy(
        (at_t[..., 0], at_2t[..., 0], at_t[..., 1]),
        (at_t[..., 2], at_2t[..., 1], at_t[..., 3]), eps_trace, ratios)
    out = np.empty(at_t.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        _correlator_terms(sy_plus, sy_minus, sy_plus_2t, (*terms, out))
    out[(first >= 0) | ~np.isfinite(out)] = -np.inf
    return out


class _ScanSpace:
    """The arrays one :meth:`_Cells.scan` block runs in, for up to ``size``
    cells on an ``n``-point grid cut into ``rows`` x ``width`` points: the
    near and far phases, the weighted far phases and the real left and
    right operands of a product (the product at 2t runs in their leading
    part), the products at t (tr+, tr-, sy+, sy-) and at 2t (tr+, sy+),
    and the six ``work`` arrays of :func:`_ranked_k3`.  A block of fewer
    cells runs in the leading part of each.

    The arrays are cut from one allocation.  Allocated one by one, the same
    arrays cost 367 minor page faults per warm 125-cell coarse scan (430
    per sweep), against 0 as one: malloc gives the larger separate arrays
    back to the system when the workspace is freed after a sweep, and the
    next sweep faults their pages in again."""

    def __init__(self, size, n):
        self.size, self.n = size, n
        self.width = width = math.isqrt(n - 1) + 1
        self.rows = rows = -(-n // width)
        # the complex arrays first, so that every array starts at a
        # multiple of its itemsize
        layout = [((size, 4, width), complex), ((size, 1, rows, 4), complex),
                  ((size, 4, rows, 4), complex), ((size, 4 * rows, 8), float),
                  ((size, 8, width), float), ((size, 4 * rows, width), float),
                  ((size, 2 * rows, width), float), ((6, size, n), float)]
        sizes = [math.prod(shape) * np.dtype(kind).itemsize
                 for shape, kind in layout]
        memory = np.empty(sum(sizes), np.uint8)
        offsets = itertools.accumulate(sizes, initial=0)
        (self.near, self.far, self.weighted, self.left, self.right, self.at_t,
         self.at_2t, self.work) = (
            np.ndarray(shape, kind, memory, offset)
            for (shape, kind), offset in zip(layout, offsets))


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
    w_k = e_obs^T P_k v0.  ``gammas`` and ``qs`` keep the cells' coordinates
    as given.

    B commutes with exp(tB), so the time derivative of a readout
    e_obs^T exp(tB) v0 is the readout of B v0: the same factors c_k times
    the slope weights ``slopes``, lambda_k w_k on the spectral path and
    e_obs^T P_k B v0 on the Newton form, which the peak search reads.
    """

    def __init__(self, gammas, qs, params: model.ModelParams):
        self.params = params
        self.gammas, self.qs = np.asarray(gammas), np.asarray(qs)
        self.generators = bloch_generators(params, gammas, qs)
        eigs, modes, inv_modes, self.spectral = decompose(self.generators)
        readout = _contract(_READOUT, modes)           # (N, 2, 4)
        amplitudes = _contract(inv_modes, _BRANCHES)    # (N, 4, 2)
        # weights[n, k, (obs, branch)], columns (tr+, tr-, sy+, sy-)
        weights = (readout.swapaxes(-1, -2)[..., :, :, None]
                   * amplitudes[..., :, None, :]).reshape(-1, 4, 4)
        self.eigs = np.where(self.spectral[:, None], eigs, 0.0)
        self.weights = np.where(self.spectral[:, None, None], weights, 0.0)
        self.slopes = self.eigs[:, :, None] * self.weights
        self.newton = {}
        for n in np.flatnonzero(~self.spectral).tolist():
            form = NewtonForm(self.generators[n], eigs[n], self.gammas[n])
            self.newton[n] = form
            self.weights[n] = (_READOUT @ form.products @ _BRANCHES).reshape(4, 4)
            self.slopes[n] = (_READOUT @ form.products
                              @ (self.generators[n] @ _BRANCHES)).reshape(4, 4)
        self._space = None

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

        A block runs in this object's one :class:`_ScanSpace`, built by the
        first scan for its cells and grid, reused by every later block of no
        more cells on a grid of the same length and rebuilt for any other:
        at 8 cells of 2000 points it holds about 1.8 MB.  It belongs to this
        object and lives until :meth:`drop_workspace`.  The K3 array returned
        is not part of it, so it stays valid after later scans.
        """
        n, count = len(grid), len(cells)
        space = self._space
        if space is None or space.n != n or space.size < count:
            space = self._space = _ScanSpace(count, n)
        width, rows = space.width, space.rows
        step = (grid[-1] - grid[0]) / max(n - 1, 1)
        near, far, weighted, left, right, at_t, at_2t = (
            part[:count] for part in (space.near, space.far, space.weighted,
                                      space.left, space.right, space.at_t,
                                      space.at_2t))
        eigs = self.eigs[cells]
        np.exp(np.multiply(eigs[..., None], grid[:width], out=near), out=near)
        np.exp(np.multiply(eigs[:, None, None, :],
                           (width * step * np.arange(rows))[:, None], out=far),
               out=far)
        weights = self.weights[cells].swapaxes(-1, -2)[:, :, None, :]
        _real_product(np.multiply(weights, far, out=weighted).reshape(
            count, -1, 4), near, left, right, at_t)
        np.multiply(far, far, out=far)
        _real_product(np.multiply(weights[:, 0::2], far, out=weighted[:, :2])
                      .reshape(count, -1, 4), np.multiply(near, near, out=near),
                      left[:, :2 * rows], right, at_2t)
        out = _ranked_k3(
            at_t.reshape(count, 4, -1)[..., :n].transpose(0, 2, 1),
            at_2t.reshape(count, 2, -1)[..., :n].transpose(0, 2, 1),
            eps_trace, space.work[:, :count])
        fallback = ~self.spectral[cells]
        if fallback.any():
            out[fallback] = self.value(cells[fallback, None], grid, eps_trace)
        return out

    def drop_workspace(self):
        """Free the workspace of :meth:`scan`; a later scan builds a new one."""
        self._space = None


class _Evaluator:
    """:meth:`_Cells.readouts` and :meth:`_Cells.value` of fixed cells
    ``index``, at any times broadcast against them.  The cells' eigenvalues,
    weights, slope weights and Newton forms are gathered here, once for a
    caller that reads the same cells step after step (the peak search)."""

    def __init__(self, cells: _Cells, index):
        index = np.asarray(index)
        self.eigs = cells.eigs[index]
        # columns (tr+, tr-, sy+, sy-), then their time derivatives
        self.weights = np.concatenate((cells.weights[index],
                                       cells.slopes[index]), axis=-1)
        self.newton = [(cells.newton[n], index == n) for n in
                       np.unique(index[~cells.spectral[index]]).tolist()]

    def rows(self, rows):
        """This evaluator on the cells ``index[rows]`` of a 1-D ``index``."""
        part = copy.copy(self)
        part.eigs, part.weights = self.eigs[rows], self.weights[rows]
        part.newton = [(form, at[rows]) for form, at in self.newton
                       if at[rows].any()]
        return part

    def readouts(self, times, both_at_2t=False, slope=False):
        """As :meth:`_Cells.readouts`; with ``slope`` each block is followed
        by the time derivatives of its columns, d/dt at t and d/d(2t) at
        2t."""
        times = np.asarray(times, dtype=float)
        factors = np.exp(times[..., None] * self.eigs)
        factors_2t = factors * factors
        for form, at in self.newton:
            at = np.broadcast_to(at, factors.shape[:-1])
            t = np.broadcast_to(times, at.shape)[at]
            both = form.coefficients(np.concatenate((t, 2.0 * t)))
            factors[at], factors_2t[at] = both[:len(t)], both[len(t):]
        weights = self.weights if slope else self.weights[..., :4]
        at_t = _contract(factors[..., None, :], weights)[..., 0, :].real
        at_2t = _contract(factors_2t[..., None, :],
                          weights if both_at_2t else weights[..., 0::2]
                          )[..., 0, :].real
        return at_t, at_2t

    def value(self, times, eps_trace):
        return _ranked_k3(*self.readouts(times), eps_trace)

    def value_and_slope(self, times, eps_trace):
        """K3 as :meth:`value` and dK3/dt, NaN where K3 is -inf, from one
        exponential and one contraction."""
        at_t, at_2t = self.readouts(times, slope=True)
        value = _ranked_k3(at_t, at_2t, eps_trace)
        return value, np.where(value > -np.inf, _k3_slope(at_t, at_2t), np.nan)


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
    whole cells, ``_SCAN_BLOCK_POINTS`` or so each, in one workspace that
    is dropped after the last block.
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
    # the refinement that follows reuses the scan workspace's memory
    cells.drop_workspace()
    owner, index, value = (np.concatenate(column) for column in zip(*peaks))
    leaders = _run_leaders(owner, value)
    owner, index = owner[leaders], index[leaders]

    flat = (high - low <= _TIE_TOL) & (high > -np.inf)
    pinned = flat[owner]
    index[pinned] = earliest[owner[pinned]]
    return owner, index, high == -np.inf, flat


def _peak_search(evaluate: _Evaluator, a, b, ends, eps_trace):
    """The crest of every bracket [a, b] at once, as (t, K3) per bracket;
    ``ends`` holds the K3 values and the slopes
    (:meth:`_Evaluator.value_and_slope`) at a and at b, shape
    (2, 2, len(a)).

    A bracket whose slope turns from + at a to - at b is searched for the
    root of g = (dK3/dt) / t by Brent's zero finder (Brent 1973, ch. 4):
    inverse quadratic or secant steps, and bisection when they make too
    little progress.  g has the roots and signs of dK3/dt on t > 0, and
    stays finite as t -> 0+, where dK3/dt vanishes since both branch
    ratios start at +-1; so the first bracket, which reaches down to
    ``_REFINE_TOL``, interpolates as well as any other.  One call per round
    evaluates the brackets still live.  A bracket ends once it is no wider
    than ``_ROOT_RTOL`` t, on a zero or NaN slope, or after
    ``_ROOT_ROUNDS`` rounds; it reports Brent's best iterate, the one of
    smallest |g|, and the K3 value found there.  Any other bracket reports
    its higher-valued end, the smaller t on a tie.
    """
    (fa, fb), (da, db) = ends
    t, value = np.where(fb > fa, b, a), np.maximum(fa, fb)
    live = np.flatnonzero((da > 0) & (db < 0) & (b - a > _ROOT_RTOL * b))
    # rows (t, g, K3) of the best iterate x, of the contrapoint c, across
    # the root from x, and of the previous best p
    x = np.stack((a, da / a, fa))[:, live]
    p = c = np.stack((b, db / b, fb))[:, live]
    step = before = x[0] - c[0]
    for round_ in range(_ROOT_ROUNDS + 1):
        swap = np.abs(c[1]) < np.abs(x[1])
        p, x, c = (np.where(swap, x, p), np.where(swap, c, x),
                   np.where(swap, x, c))
        t[live], value[live] = x[0], x[2]
        tol = 0.5 * _ROOT_RTOL * x[0]
        half = 0.5 * (c[0] - x[0])
        keep = (np.abs(half) > tol) & (x[1] != 0) & ~np.isnan(x[1])
        if round_ == _ROOT_ROUNDS or not keep.any():
            break
        live, x, c, p, step, before, tol, half = (
            part[..., keep]
            for part in (live, x, c, p, step, before, tol, half))
        with np.errstate(divide="ignore", invalid="ignore"):
            s, q, r = x[1] / p[1], p[1] / c[1], x[1] / c[1]
            secant = p[0] == c[0]
            num = np.where(secant, 2.0 * half * s, s * (
                2.0 * half * q * (q - r) - (x[0] - p[0]) * (r - 1.0)))
            den = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            den = np.where(num > 0, -den, den)
            num = np.abs(num)
            # interpolate only while the steps shrink fast enough, else bisect
            fits = ((np.abs(before) >= tol) & (np.abs(p[1]) > np.abs(x[1]))
                    & (2.0 * num < np.minimum(
                        3.0 * half * den - np.abs(tol * den),
                        np.abs(before * den))))
            before, step = (np.where(fits, step, half),
                            np.where(fits, num / den, half))
        p = x
        new_t = x[0] + np.where(np.abs(step) > tol, step,
                                np.copysign(tol, half))
        new_k3, slope = evaluate.rows(live).value_and_slope(new_t, eps_trace)
        x = np.stack((new_t, slope / new_t, new_k3))
        # on the side of c, the new iterate moves c to p: the root lies
        # between them
        side = np.sign(x[1]) == np.sign(c[1])
        c = np.where(side, p, c)
        step, before = (np.where(side, new_t - p[0], part)
                        for part in (step, before))
    return t, value


def _optimize_cells(cells: _Cells, config: OptimizeConfig) -> list:
    """Maximize K3 over t in (0, t_max] for every cell of ``cells``.

    The engine behind :func:`optimize_k3` (one cell; the method is described
    there), :func:`sweep` and ``nsit --maximize-over-t``.  The 4x re-scan
    guards against aliasing of the oscillatory landscape; it reads K3 and
    dK3/dt, so each candidate's bracket is the rescan interval on the
    uphill side of its best rescan point, and :func:`_peak_search` refines
    every bracket of every cell together.  A cell's result never depends on
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
    evaluate = _Evaluator(cells, owner)
    rescan, slope = (part.T for part in evaluate.value_and_slope(
        rescan_ts.T, config.eps_trace))
    # a flat cell reports its grid point, unrefined, unless its curve spans
    # more than a tie between t -> 0+ and that point: then it is refined from
    # its best rescan point like any other
    pinned &= rescan.max(axis=1) - rescan.min(axis=1) <= _TIE_TOL
    j = np.where(pinned, 8, np.argmax(rescan, axis=1))
    rows = np.arange(len(owner))
    # the bracket is the rescan interval on the uphill side of the best point
    rising = slope[rows, j]
    ends = np.stack((np.where(pinned | (rising > 0), j, np.maximum(j - 1, 0)),
                     np.where(pinned | (rising < 0), j, np.minimum(j + 1, 8))))
    peak_t, peak_value = _peak_search(
        evaluate, *rescan_ts[rows, ends],
        np.stack((rescan[rows, ends], slope[rows, ends])), config.eps_trace)
    scan_t, scan_value = rescan_ts[rows, j], rescan[rows, j]
    take = (peak_value > scan_value) | (
        (peak_value == scan_value) & (peak_t < scan_t))
    peak_t = np.where(take, peak_t, scan_t).tolist()
    peak_value = np.where(take, peak_value, scan_value).tolist()

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
    density and refined by a root search on the analytic dK3/dt (Brent's
    method, to 1e-10 relative in t), which also gives the reported value; a
    refined point replaces the best rescan point only if its K3 is higher.
    The first bracket of a cell reaches down to t = 1e-6.  Refined values
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
        gammas = np.repeat(self.gamma_grid, len(self.q_grid)).tolist()
        qs = np.tile(self.q_grid, len(self.gamma_grid)).tolist()
        errors = [MASKED_MESSAGE if gone else ""
                  for gone in self.masked.ravel().tolist()]
        return list(zip(gammas, qs, self.k3_max.ravel().tolist(),
                        self.t_star.ravel().tolist(), errors))


def _chunk_task(task):
    work, gammas, qs, params, args = task
    return work(_Cells(gammas, qs, params), *args)


#: the grid map's process pool as (workers, pid, executor), or None
_pool_slot = None


@atexit.register
def _close_pool():
    """Shut down the grid-map pool if this process built it; a forked child
    drops its parent's pool without touching it."""
    global _pool_slot
    if _pool_slot is not None and _pool_slot[1] == os.getpid():
        _pool_slot[2].shutdown()
    _pool_slot = None


def _worker_pool(workers):
    """This process's pool of ``workers`` forked processes: built on first
    use, reused while the count and the process match, replaced otherwise."""
    global _pool_slot
    if _pool_slot is None or _pool_slot[:2] != (workers, os.getpid()):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _close_pool()
        _pool_slot = (workers, os.getpid(), ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")))
    return _pool_slot[2]


def _task_bounds(cells, workers):
    """(start, stop) of each grid-map task over ``cells`` cells in row order:
    a multiple of ``workers`` contiguous tasks (one per cell if there are
    fewer cells), as few as keep each within ``_MAX_TASK_CELLS``, whose
    sizes differ by at most one."""
    tasks = min(cells, workers * -(-cells // (workers * _MAX_TASK_CELLS)))
    return [(k * cells // tasks, (k + 1) * cells // tasks)
            for k in range(tasks)]


def _map_grid(work, gamma_grid, q_grid, params: model.ModelParams, args,
              workers=1) -> list:
    """Per-cell results of ``work(cells, *args)`` over a (gamma, q) grid.

    Cells sharing the J and theta of ``params`` are validated up front and
    go to ``work`` as :class:`_Cells` tasks in row order (gamma outer), split
    by :func:`_task_bounds`: with one worker a grid of up to
    ``_MAX_TASK_CELLS`` cells is one task, with two a 1000-cell grid is two
    of 500.  ``work`` must not let a cell's result depend on its task;
    ``workers`` then only decides how the cells are split and which process
    runs a task.  With one worker or one task the map runs in this process;
    otherwise the tasks go to the process's one pool of ``min(workers,
    tasks)`` processes, which later maps with the same count reuse and which
    is shut down at exit.  A worker that dies mid-map raises
    :class:`WorkerPoolError`, and the next map builds a new pool.
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
    tasks = [(work, gammas[start:stop], qs[start:stop], params, args)
             for start, stop in _task_bounds(len(gammas), workers)]
    processes = min(workers, len(tasks))
    if processes > 1:
        from concurrent.futures.process import BrokenProcessPool

        try:
            chunks = list(_worker_pool(processes).map(_chunk_task, tasks))
        except BrokenProcessPool as exc:  # the next map builds a new pool
            _close_pool()
            raise WorkerPoolError(f"worker pool broken: {exc}") from exc
    else:
        chunks = map(_chunk_task, tasks)
    return [result for chunk in chunks for result in chunk]


def sweep(gamma_grid, q_grid, base_params: model.ModelParams | None = None,
          config: OptimizeConfig = OptimizeConfig(), workers=1) -> SweepResult:
    """Maximize K3 on every cell of a (gamma, q) grid.

    Cells go to the engine through :func:`_map_grid`, one task per worker
    (of at most ``_MAX_TASK_CELLS`` cells), so output is identical for any
    worker count; ``workers`` > 1 runs the tasks on the process's one pool,
    which later calls with the same count reuse.  Cells whose every time
    point is extinguished are masked instead of aborting the sweep.
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
