import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import expm_correlators
from hybridlg import lgi
from hybridlg.errors import TrajectoryExtinguishedError
from hybridlg.macrorealism import (
    JointProbTable,
    OUTCOMES,
    _nsit_rows,
    _table,
    check_aot,
    check_nsit,
    joint_probabilities,
    nsit_grid,
)
from hybridlg.model import ModelParams


def random_samples(count, seed, gamma_hi=3.0, t_hi=5.0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (
            ModelParams(gamma=rng.uniform(1e-2, gamma_hi),
                        q=rng.uniform(0.0, 1.0)),
            rng.uniform(0.05, t_hi),
        )


def test_initial_eigenstate_pins_first_outcome():
    table = joint_probabilities(ModelParams(gamma=0.7, q=0.4), 1.1)
    assert table.singles[0][+1] == pytest.approx(1.0, abs=1e-12)
    assert table.singles[0][-1] == pytest.approx(0.0, abs=1e-12)


def test_triples_with_negative_first_outcome_vanish():
    table = joint_probabilities(ModelParams(gamma=0.7, q=0.4), 1.1)
    for q1, q2 in itertools.product(OUTCOMES, repeat=2):
        assert table.triples[(-1, q1, q2)] == pytest.approx(0.0, abs=1e-12)


def test_unitary_quarter_period_intermediate_marginal():
    table = joint_probabilities(ModelParams(gamma=0.0, q=1.0), np.pi / 2)
    assert table.singles[1][+1] == pytest.approx(0.5, abs=1e-12)
    assert table.singles[1][-1] == pytest.approx(0.5, abs=1e-12)


def test_distributions_are_normalized_and_in_range():
    for params, t in random_samples(30, seed=51):
        table = joint_probabilities(params, t)
        for dist in (*table.singles.values(), *table.pairs.values(),
                     table.triples):
            values = list(dist.values())
            assert sum(values) == pytest.approx(1.0, abs=1e-10)
            assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert sum(table.triples.values()) == pytest.approx(1.0, abs=1e-10)


def test_arrow_of_time_holds_for_computed_tables():
    for params, t in random_samples(100, seed=52):
        table = joint_probabilities(params, t)
        assert check_aot(table).max_defect <= 1e-10


def test_arrow_of_time_holds_in_lindblad_limit():
    rng = np.random.default_rng(53)
    for _ in range(100):
        params = ModelParams(gamma=rng.uniform(1e-2, 3.0), q=1.0)
        table = joint_probabilities(params, rng.uniform(0.05, 5.0))
        assert check_aot(table).max_defect <= 1e-10


def test_planted_defect_is_detected():
    table = joint_probabilities(ModelParams(gamma=0.7, q=0.4), 1.1)
    pairs = {key: dict(dist) for key, dist in table.pairs.items()}
    pairs[(0, 1)][(+1, +1)] += 0.1
    broken = JointProbTable(t=table.t, singles=table.singles, pairs=pairs,
                            triples=table.triples)
    assert check_aot(broken).max_defect == pytest.approx(0.1, abs=1e-9)


def test_first_measurement_marginalizes_out_of_the_triple():
    # the initial eigenstate forces this marginalization identity exactly
    for params, t in random_samples(100, seed=54):
        report = check_nsit(joint_probabilities(params, t))
        assert report.max_delta_marginal_first <= 1e-10


def test_intermediate_measurement_signals():
    report = check_nsit(
        joint_probabilities(ModelParams(gamma=1.0, q=0.5), 1.0))
    assert report.delta_marginal_middle[(+1, +1)] > 1e-3


def test_no_evolution_limit_is_signaling_free():
    report = check_nsit(
        joint_probabilities(ModelParams(gamma=0.0, q=1.0), 1e-4))
    assert report.max_delta_marginal_middle <= 1e-6
    for pair in ((0, 1), (0, 2), (1, 2)):
        assert report.max_delta_two_time(pair) <= 1e-6


def correlator_from_pair(table, pair):
    """Two-time correlator sum_{a,b} a b P(q_i=a, q_j=b) from the table."""
    return sum(a * b * p for (a, b), p in table.pairs[pair].items())


def test_pair_correlator_matches_sequential_record():
    for params, t in random_samples(20, seed=55):
        table = joint_probabilities(params, t)
        record = expm_correlators(params, t)
        assert correlator_from_pair(table, (1, 2)) == pytest.approx(
            record["c12"], abs=1e-10)
        assert correlator_from_pair(table, (0, 1)) == pytest.approx(
            record["c01"], abs=1e-10)
        assert correlator_from_pair(table, (0, 2)) == pytest.approx(
            record["c02"], abs=1e-10)


def test_raw_probabilities_are_not_clamped():
    # tiny negative values from roundoff must survive into the table
    table = joint_probabilities(ModelParams(gamma=2.5, q=0.0), 4.0)
    smallest = min(min(d.values()) for d in (*table.pairs.values(),
                                             table.triples))
    assert smallest > -1e-12  # close to zero but permitted to dip below


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        joint_probabilities(ModelParams(gamma=0.5, q=0.5), 0.0)


def identical(row, expected):
    """Equal values with equal signs, or NaN in both: what the CSV can tell
    apart."""
    return len(row) == len(expected) and all(
        (math.isnan(a) and math.isnan(b))
        or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
        for a, b in zip(row, expected))


def oracle_row(t, table, q0, q2):
    """The nsit row of one cell from the per-point API."""
    report = check_nsit(table)
    return (t, report.delta_marginal_middle[(q0, q2)],
            report.delta_two_time[(1, 2)][q2],
            report.delta_two_time[(0, 2)][q2], check_aot(table).max_defect)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cells=st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=6),
       t=st.floats(1e-3, 20.0), q0=st.sampled_from(OUTCOMES),
       q2=st.sampled_from(OUTCOMES))
# gamma = 0 (Schur), the defective (1, 0) and (2, 1) (Newton form), q at
# both ends, and extinguished cells at long t
@example(cells=[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (5.0, 0.0)],
         t=20.0, q0=-1, q2=-1)
@example(cells=[(0.0, 1.0), (0.7, 0.4), (5.0, 1.0)], t=1e-3, q0=1, q2=-1)
def test_array_rows_equal_the_per_cell_tables(cells, t, q0, q2):
    gammas, qs = zip(*cells)
    chunk = lgi._Cells(gammas, qs, ModelParams(gamma=1.0, q=1.0))
    rows = _nsit_rows(chunk, t, None, 1e-12, q0, q2)
    for (gamma, q), row in zip(cells, rows):
        assert row[:2] == (gamma, q)
        try:
            table = joint_probabilities(ModelParams(gamma=gamma, q=q), t)
        except TrajectoryExtinguishedError as exc:
            assert row[7] == str(exc)
            assert identical(row[2:7], (t, *[math.nan] * 4))
            continue
        assert row[7] == ""
        assert identical(row[2:7], oracle_row(t, table, q0, q2))


def test_one_task_rows_masked_extinguished_spectral_and_newton_cells():
    # t_max 3000 at resolution 1: the one grid point of (0.9, 0), t = 3000,
    # is extinguished, so the cell is masked; the others peak at t* = 1e-6,
    # where a table floor just above (1.5, 0.7)'s trace at 2t extinguishes it
    cells = [(0.9, 0.0), (1.5, 0.7), (0.5, 1.0), (2.0, 1.0)]
    config = lgi.OptimizeConfig(t_max=3000.0, resolution=1)
    eps_trace = 0.9999993
    chunk = lgi._Cells(*zip(*cells), ModelParams(gamma=1.0, q=1.0))
    assert [n for n, _ in chunk.newton] == [3]
    rows = _nsit_rows(chunk, None, config, eps_trace, 1, 1)
    errors = []
    for (gamma, q), row in zip(cells, rows):
        assert row[:2] == (gamma, q)
        params = ModelParams(gamma=gamma, q=q)
        best = lgi.optimize_k3(params, config)
        if best.masked:
            assert row[7] == lgi.MASKED_MESSAGE
            assert identical(row[2:7], [math.nan] * 5)
            errors.append("masked")
            continue
        try:
            table = joint_probabilities(params, best.t_star, eps_trace)
        except TrajectoryExtinguishedError as exc:
            assert row[7] == str(exc)
            assert identical(row[2:7], (best.t_star, *[math.nan] * 4))
            errors.append("extinguished")
            continue
        assert row[7] == ""
        assert identical(row[2:7], oracle_row(best.t_star, table, 1, 1))
        errors.append("")
    assert errors == ["masked", "extinguished", "", ""]


def planted_rows(monkeypatch, slots, value, q0=1, q2=1, eps_trace=1e-12):
    """nsit rows of a 3-cell chunk whose middle cell reads ``value`` as its
    trace in each (at 2t?, branch) slot of ``slots``; with the planted
    readouts of that cell."""
    readouts = lgi._Cells.readouts
    seen = {}

    def planted(self, cells, times, both_at_2t=False):
        at = readouts(self, cells, times, both_at_2t)
        for at_2t, branch in slots:
            at[at_2t][1, branch] = value
        seen["cell"] = [columns[1].tolist() for columns in at]
        return at

    monkeypatch.setattr(lgi._Cells, "readouts", planted)
    chunk = lgi._Cells([0.5, 0.7, 0.9], [0.3, 0.4, 0.5],
                       ModelParams(gamma=1.0, q=1.0))
    return _nsit_rows(chunk, 1.3, None, eps_trace, q0, q2), seen["cell"]


# _table's order: + at t, + at 2t, - at t, - at 2t
BRANCH_SLOTS = [((0, 0), "branch +1 at t"), ((1, 0), "branch +1 at 2t"),
                ((0, 1), "branch -1 at t"), ((1, 1), "branch -1 at 2t")]


@pytest.mark.parametrize("first", range(4))
def test_planted_sub_floor_trace_names_the_first_failing_branch(
        monkeypatch, first):
    # the planted slot and every later one are below the floor
    slots = [slot for slot, _ in BRANCH_SLOTS[first:]]
    rows, (at_t, at_2t) = planted_rows(monkeypatch, slots, 1e-300)
    name = BRANCH_SLOTS[first][1]
    assert rows[1][:2] == (0.7, 0.4)
    assert rows[1][7] == (f"trajectory extinguished ({name}): "
                          "trace 1.000000e-300 below floor")
    with pytest.raises(TrajectoryExtinguishedError) as exc:
        _table(1.3, at_t, at_2t, 1e-12)
    assert rows[1][7] == str(exc.value)
    assert identical(rows[1][2:7], (1.3, *[math.nan] * 4))
    # the neighbours of the planted cell keep their rows
    monkeypatch.undo()
    for k, (gamma, q) in ((0, (0.5, 0.3)), (2, (0.9, 0.5))):
        assert rows[k][:2] == (gamma, q)
        table = joint_probabilities(ModelParams(gamma=gamma, q=q), 1.3)
        assert identical(rows[k][2:7], oracle_row(1.3, table, 1, 1))


@pytest.mark.parametrize("slot", [slot for slot, _ in BRANCH_SLOTS])
def test_nan_trace_passes_the_floor_as_in_the_per_cell_table(
        monkeypatch, slot):
    rows, (at_t, at_2t) = planted_rows(monkeypatch, [slot], math.nan,
                                       q0=-1, q2=-1)
    assert rows[1][:2] == (0.7, 0.4)
    assert rows[1][7] == ""
    assert identical(rows[1][2:7], oracle_row(
        1.3, _table(1.3, at_t, at_2t, 1e-12), -1, -1))


def test_trace_floor_not_above_zero_is_a_value_error():
    # the one extinction rule rejects the floor before any trace is divided,
    # so a zero trace can never pass it; every entry point says so
    params = ModelParams(gamma=3.0, q=0.0)
    for eps_trace in (0.0, -1e-12, math.nan):
        calls = [
            lambda: lgi.correlators(params, 1e4, eps_trace=eps_trace),
            lambda: joint_probabilities(params, 1e4, eps_trace=eps_trace),
            lambda: nsit_grid(np.array([3.0]), np.array([0.0, 1.0]), params,
                              t=1e4, eps_trace=eps_trace),
            lambda: lgi.optimize_k3(params, lgi.OptimizeConfig(
                resolution=50, eps_trace=eps_trace)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="eps_trace must be > 0"):
                call()


@pytest.mark.parametrize("workers", [1, 2])
def test_formatted_grid_gives_one_result_per_task_with_the_cells_in_front(
        workers):
    # 6 cells on 2 workers are 2 tasks of 3; the default ``list`` passes
    # each task's rows through whole
    gammas, qs = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0])
    base = ModelParams(gamma=1.0, q=1.0)
    [whole] = nsit_grid(gammas, qs, base, t=40.0)
    parts = nsit_grid(gammas, qs, base, t=40.0, workers=workers)
    assert len(parts) == len(lgi._task_bounds(6, workers))
    rows = [row for part in parts for row in part]
    assert repr(rows) == repr(whole)
    assert [row[:2] for row in rows] == [
        (g, q) for g in gammas.tolist() for q in qs.tolist()]
