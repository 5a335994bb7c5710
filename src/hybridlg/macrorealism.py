"""Multi-time joint probabilities and the statistical macrorealism conditions.

Outcomes q_i = +-1 of sigma_y are recorded at t_0 = 0, t_1 = t, t_2 = 2t.
With rho(0) = P_+ and the normalized conditioned states rho~_{q}(tau)
(projector P_q evolved for tau, renormalized), the distributions are built
multiplicatively from single-step probabilities:

    P(q0, q1, q2) = Tr(P_{q2} rho~_{q1}(t)) Tr(P_{q1} rho~_{q0}(t)) Tr(P_{q0} rho(0))
    P(q0, q1)     = Tr(P_{q1} rho~_{q0}(t))  Tr(P_{q0} rho(0))
    P(q0, q2)     = Tr(P_{q2} rho~_{q0}(2t)) Tr(P_{q0} rho(0))
    P(q1, q2)     = Tr(P_{q2} rho~_{q1}(t))  Tr(P_{q1} rho~(t))

and singles from rho~(0), rho~(t), rho~(2t).  Arrow-of-time consistency
(later measurements leave earlier statistics untouched) holds identically for
this construction; the no-signaling-in-time conditions are generically
violated and the Delta quantifiers below measure by how much.  Raw
probabilities are never clamped in arithmetic; clamping would mask genuine
signaling defects.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import lgi, model

OUTCOMES = (+1, -1)


@dataclass(frozen=True)
class JointProbTable:
    """All single, pair and triple outcome distributions at interval t:
    floats, or arrays with one entry per cell of a chunk."""

    t: float
    singles: dict    # {time index: {outcome: prob}}
    pairs: dict      # {(i, j): {(qi, qj): prob}}
    triples: dict    # {(q0, q1, q2): prob}


#: the branches of a table, in protocol order
_BRANCH_NAMES = ("branch +1 at t", "branch +1 at 2t", "branch -1 at t",
                 "branch -1 at 2t")


def _normalized(at_t, at_2t, eps_trace):
    """(traces, sy / trace, first extinguished branch) of the branches of
    ``_BRANCH_NAMES`` (:func:`lgi._branch_sy`) from the readouts
    (tr+, tr-, sy+, sy-) at t and at 2t."""
    traces = (at_t[0], at_2t[0], at_t[1], at_2t[1])
    return (traces, *lgi._branch_sy(
        traces, (at_t[2], at_2t[2], at_t[3], at_2t[3]), eps_trace))


def _distributions(ratios):
    """(singles, pairs, triples) of :class:`JointProbTable` from the
    normalized readouts of the branches of ``_BRANCH_NAMES``; floats or
    arrays, with the same IEEE operations.

    Each probability is Tr(P_s rho~) = (1 + s Tr[sigma_y rho~]) / 2.
    """
    plus_t, plus_2t, minus_t, minus_2t = ratios
    sy_t, sy_2t = {+1: plus_t, -1: minus_t}, {+1: plus_2t, -1: minus_2t}

    def prob(outcome, sy):
        return 0.5 * (1.0 + outcome * sy)

    # rho(0) = P_+ has sy = 1, and the unconditioned state is the + branch
    singles = {index: {s: prob(s, sy) for s in OUTCOMES}
               for index, sy in enumerate((1.0, sy_t[+1], sy_2t[+1]))}
    # P(qi, qj) = Tr(P_qj rho~_qi(t_j - t_i)) P(qi)
    pairs = {
        (i, j): {(qi, qj): prob(qj, sy[qi]) * singles[i][qi]
                 for qi, qj in itertools.product(OUTCOMES, repeat=2)}
        for (i, j), sy in (((0, 1), sy_t), ((0, 2), sy_2t), ((1, 2), sy_t))
    }
    triples = {
        (q0, q1, q2): prob(q2, sy_t[q1]) * prob(q1, sy_t[q0]) * singles[0][q0]
        for q0, q1, q2 in itertools.product(OUTCOMES, repeat=3)
    }
    return singles, pairs, triples


def _table(t, at_t, at_2t, eps_trace) -> JointProbTable:
    """The table from the branch readouts (tr+, tr-, sy+, sy-) at t and 2t."""
    traces, ratios, first = _normalized(at_t, at_2t, eps_trace)
    if first >= 0:
        raise lgi._extinguished(_BRANCH_NAMES, traces, first)
    return JointProbTable(float(t), *_distributions(map(float, ratios)))


def joint_probabilities(params: model.ModelParams, t, eps_trace=1e-12
                        ) -> JointProbTable:
    """Evaluate every distribution of the three-time protocol at interval t."""
    lgi._check_interval("t", t)
    cell = lgi._Cells([params.gamma], [params.q], params)
    readouts = cell.readouts([0], [t], both_at_2t=True)
    return _table(t, *(columns[0].tolist() for columns in readouts), eps_trace)


@dataclass(frozen=True)
class AotReport:
    """Arrow-of-time defects: later marginals must reproduce earlier stats."""

    two_time: dict   # {(i, j): {qi: defect}} for P(qi) vs sum_qj P(qi, qj)
    three_time: dict  # {(q0, q1): defect} for P(q0,q1) vs sum_q2 P(q0,q1,q2)
    max_defect: float  # an array on an array table


def _first_max(values):
    """Python's ``max(values)``, elementwise on arrays: a later value
    replaces the running maximum only when it compares greater, so a NaN
    wins only in first place, on a per-point table and on a whole chunk."""
    best = values[0]
    for value in values[1:]:
        best = np.where(value > best, value, best)
    return best


def _defect(whole, first, second):
    """|whole - (first + second)|: how far a distribution lies from the sum
    over the two outcomes of a measurement that it leaves out."""
    return abs(whole - (first + second))


def check_aot(table: JointProbTable) -> AotReport:
    """Evaluate every arrow-of-time identity; defects are absolute values."""
    singles, pairs, triples = table.singles, table.pairs, table.triples
    two_time = {
        (i, j): {qi: _defect(singles[i][qi], dist[(qi, +1)], dist[(qi, -1)])
                 for qi in OUTCOMES}
        for (i, j), dist in pairs.items()
    }
    three_time = {
        (q0, q1): _defect(pairs[(0, 1)][(q0, q1)], triples[(q0, q1, +1)],
                          triples[(q0, q1, -1)])
        for q0, q1 in itertools.product(OUTCOMES, repeat=2)
    }
    worst = _first_max([
        _first_max([d for per in two_time.values() for d in per.values()]),
        _first_max(list(three_time.values())),
    ])
    return AotReport(two_time=two_time, three_time=three_time,
                     max_defect=worst if np.ndim(worst) else float(worst))


@dataclass(frozen=True)
class MacrorealismReport:
    """No-signaling-in-time defects plus the arrow-of-time report.

    ``delta_two_time[(i, j)][qj]`` is |P(qj) - sum_qi P(qi, qj)| (an earlier
    unread measurement at t_i should not shift the t_j marginal);
    ``delta_marginal_middle[(q0, q2)]`` marginalizes the intermediate
    measurement out of the triple, ``delta_marginal_first[(q1, q2)]`` the
    initial one.
    """

    aot: AotReport
    delta_two_time: dict
    delta_marginal_middle: dict
    delta_marginal_first: dict

    def max_delta_two_time(self, pair) -> float:
        return float(max(self.delta_two_time[pair].values()))

    @property
    def max_delta_marginal_middle(self) -> float:
        return float(max(self.delta_marginal_middle.values()))

    @property
    def max_delta_marginal_first(self) -> float:
        return float(max(self.delta_marginal_first.values()))


def check_nsit(table: JointProbTable) -> MacrorealismReport:
    """Quantify every no-signaling-in-time violation of the table."""
    singles, pairs, triples = table.singles, table.pairs, table.triples
    delta_two_time = {
        (i, j): {qj: _defect(singles[j][qj], dist[(+1, qj)], dist[(-1, qj)])
                 for qj in OUTCOMES}
        for (i, j), dist in pairs.items()
    }
    delta_marginal_middle = {
        (q0, q2): _defect(pairs[(0, 2)][(q0, q2)], triples[(q0, +1, q2)],
                          triples[(q0, -1, q2)])
        for q0, q2 in itertools.product(OUTCOMES, repeat=2)
    }
    delta_marginal_first = {
        (q1, q2): _defect(pairs[(1, 2)][(q1, q2)], triples[(+1, q1, q2)],
                          triples[(-1, q1, q2)])
        for q1, q2 in itertools.product(OUTCOMES, repeat=2)
    }
    return MacrorealismReport(
        aot=check_aot(table),
        delta_two_time=delta_two_time,
        delta_marginal_middle=delta_marginal_middle,
        delta_marginal_first=delta_marginal_first,
    )


def _nsit_rows(cells, t, config, eps_trace, q0, q2):
    """The finished :func:`nsit_grid` rows of one ``lgi._Cells`` task, each
    (gamma, q, t, delta_01_2, delta_12, delta_02, aot_defect, error), in one
    pass: every cell is read at its own time, and one :func:`check_nsit` on
    the task's array table gives every defect.  A masked optimum's t* = NaN
    reads NaN, which is not below the floor; its row is NaN with
    ``lgi.MASKED_MESSAGE``.  A cell with a branch below the floor has no
    table: NaN defects and the error its table raises."""
    if t is None:
        times = np.array([best.t_star for best
                          in lgi._optimize_cells(cells, config)])
    else:
        times = np.full(len(cells.gammas), float(t))
    at_t, at_2t = cells.readouts(np.arange(len(times)), times, both_at_2t=True)
    traces, ratios, first = _normalized(at_t.T, at_2t.T, eps_trace)
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_nsit(JointProbTable(times, *_distributions(ratios)))
    gone = first >= 0
    defects = [np.where(gone, np.nan, column).tolist() for column in (
        report.delta_marginal_middle[(q0, q2)], report.delta_two_time[(1, 2)][q2],
        report.delta_two_time[(0, 2)][q2], report.aot.max_defect)]
    errors = [
        lgi.MASKED_MESSAGE if masked
        else str(lgi._extinguished(_BRANCH_NAMES, [tr[cell] for tr in traces],
                                   branch)) if branch >= 0
        else "" for cell, (masked, branch)
        in enumerate(zip(np.isnan(times).tolist(), first.tolist()))]
    return list(zip(cells.gammas.tolist(), cells.qs.tolist(), times.tolist(),
                    *defects, errors))


def _nsit_task(cells, format_rows, *args):
    """The grid-map work of :func:`nsit_grid`: ``format_rows`` of the task's
    rows, as the task's one result."""
    return [format_rows(_nsit_rows(cells, *args))]


def nsit_grid(gamma_grid, q_grid, base_params: model.ModelParams, t=None,
              config=None, eps_trace=1e-12, outcomes=(+1, +1), workers=1,
              format_rows=list) -> list:
    """``format_rows`` (picklable) of the rows (gamma, q, t, delta_01_2,
    delta_12, delta_02, aot_defect, error) of each grid-map task, one result
    per task, in row order (gamma outer).  Each task formats its rows in
    the process that computed them.  The cells are read at interval ``t``
    or, with ``t`` None, at each cell's K3 optimum under ``config``;
    (q0, q2) = ``outcomes``.  Extinguished and masked cells get NaN defects
    and the error text.  Cells run through the grid map of
    :func:`lgi.sweep`, one task per worker (of at most
    ``lgi._MAX_TASK_CELLS`` cells), so ``workers`` never changes a row.
    ``workers`` counts this process, which runs the first share of the
    tasks; with ``workers`` > 1 and more than one task the rest run on the
    one reused pool of the other processes."""
    if t is not None:
        lgi._check_interval("t", t)
    return lgi._map_grid(_nsit_task, gamma_grid, q_grid, base_params,
                         (format_rows, t, config, eps_trace, *outcomes),
                         workers)
