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
from .errors import TrajectoryExtinguishedError

OUTCOMES = (+1, -1)


@dataclass(frozen=True)
class JointProbTable:
    """All single, pair and triple outcome distributions at interval t."""

    t: float
    singles: dict    # {time index: {outcome: prob}}
    pairs: dict      # {(i, j): {(qi, qj): prob}}
    triples: dict    # {(q0, q1, q2): prob}

    def sum_triples(self) -> float:
        return float(sum(self.triples.values()))


def _table(t, at_t, at_2t, eps_trace) -> JointProbTable:
    """The table from the branch readouts (tr+, tr-, sy+, sy-) at t and 2t.

    Each probability is Tr(P_s rho~) = (1 + s Tr[sigma_y rho~]) / 2.
    """
    plus_t, plus_2t, minus_t, minus_2t = lgi._branch_sy([
        ("branch +1 at t", at_t[0], at_t[2]),
        ("branch +1 at 2t", at_2t[0], at_2t[2]),
        ("branch -1 at t", at_t[1], at_t[3]),
        ("branch -1 at 2t", at_2t[1], at_2t[3]),
    ], eps_trace)
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
    return JointProbTable(t=float(t), singles=singles, pairs=pairs,
                          triples=triples)


def joint_probabilities(params: model.ModelParams, t, eps_trace=1e-12
                        ) -> JointProbTable:
    """Evaluate every distribution of the three-time protocol at interval t."""
    if not t > 0:
        raise ValueError(f"expected t > 0, got {t}")
    cell = lgi._Cells([params.gamma], [params.q], params)
    readouts = cell.readouts([0], [t], both_at_2t=True)
    return _table(t, *(columns[0].tolist() for columns in readouts), eps_trace)


@dataclass(frozen=True)
class AotReport:
    """Arrow-of-time defects: later marginals must reproduce earlier stats."""

    two_time: dict   # {(i, j): {qi: defect}} for P(qi) vs sum_qj P(qi, qj)
    three_time: dict  # {(q0, q1): defect} for P(q0,q1) vs sum_q2 P(q0,q1,q2)
    max_defect: float


def check_aot(table: JointProbTable) -> AotReport:
    """Evaluate every arrow-of-time identity; defects are absolute values."""
    two_time = {}
    for (i, j), dist in table.pairs.items():
        two_time[(i, j)] = {
            qi: abs(table.singles[i][qi] - sum(dist[(qi, qj)] for qj in OUTCOMES))
            for qi in OUTCOMES
        }
    three_time = {
        (q0, q1): abs(
            table.pairs[(0, 1)][(q0, q1)]
            - sum(table.triples[(q0, q1, q2)] for q2 in OUTCOMES)
        )
        for q0, q1 in itertools.product(OUTCOMES, repeat=2)
    }
    worst = max(
        max(d for per in two_time.values() for d in per.values()),
        max(three_time.values()),
    )
    return AotReport(two_time=two_time, three_time=three_time,
                     max_defect=float(worst))


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
    delta_two_time = {}
    for (i, j), dist in table.pairs.items():
        delta_two_time[(i, j)] = {
            qj: abs(table.singles[j][qj] - sum(dist[(qi, qj)] for qi in OUTCOMES))
            for qj in OUTCOMES
        }
    delta_marginal_middle = {
        (q0, q2): abs(
            table.pairs[(0, 2)][(q0, q2)]
            - sum(table.triples[(q0, q1, q2)] for q1 in OUTCOMES)
        )
        for q0, q2 in itertools.product(OUTCOMES, repeat=2)
    }
    delta_marginal_first = {
        (q1, q2): abs(
            table.pairs[(1, 2)][(q1, q2)]
            - sum(table.triples[(q0, q1, q2)] for q0 in OUTCOMES)
        )
        for q1, q2 in itertools.product(OUTCOMES, repeat=2)
    }
    return MacrorealismReport(
        aot=check_aot(table),
        delta_two_time=delta_two_time,
        delta_marginal_middle=delta_marginal_middle,
        delta_marginal_first=delta_marginal_first,
    )


def _nsit_rows(cells, t, config, eps_trace, q0, q2):
    """The :func:`nsit_grid` rows of one ``lgi._Cells`` chunk."""
    if t is None:  # a masked optimum has t* = NaN
        times = np.array([best.t_star for best
                          in lgi._optimize_cells(cells, config)])
    else:
        times = np.full(len(cells.generators), float(t))
    live = np.flatnonzero(~np.isnan(times))
    at_t, at_2t = cells.readouts(live, times[live], both_at_2t=True)
    rows = [(t_at, np.nan, np.nan, np.nan, np.nan, lgi.MASKED_MESSAGE)
            for t_at in times.tolist()]
    for k, readout_t, readout_2t in zip(live.tolist(), at_t.tolist(),
                                        at_2t.tolist()):
        try:
            table = _table(times[k], readout_t, readout_2t, eps_trace)
        except TrajectoryExtinguishedError as exc:
            rows[k] = rows[k][:5] + (str(exc),)
            continue
        report = check_nsit(table)
        rows[k] = (rows[k][0], report.delta_marginal_middle[(q0, q2)],
                   report.delta_two_time[(1, 2)][q2],
                   report.delta_two_time[(0, 2)][q2], report.aot.max_defect, "")
    return rows


def nsit_grid(gamma_grid, q_grid, base_params: model.ModelParams, t=None,
              config=None, eps_trace=1e-12, outcomes=(+1, +1), workers=1
              ) -> list:
    """(t, delta_01_2, delta_12, delta_02, aot_defect, error) per grid cell,
    gamma outer, at interval ``t`` or, with ``t`` None, at each cell's K3
    optimum under ``config``; (q0, q2) = ``outcomes``.  Extinguished and
    masked cells get NaN defects and the error text.  Cells run through the
    grid map of :func:`lgi.sweep`, so ``workers`` never changes a row."""
    if t is not None and not t > 0:
        raise ValueError(f"expected t > 0, got {t}")
    return lgi._map_grid(_nsit_rows, gamma_grid, q_grid, base_params,
                         (t, config, eps_trace, *outcomes), workers)


def correlator_from_pair(table: JointProbTable, pair=(1, 2)) -> float:
    """Two-time correlator sum_{a,b} a b P(q_i=a, q_j=b) from the table."""
    dist = table.pairs[pair]
    return float(sum(a * b * dist[(a, b)] for a, b in dist))
