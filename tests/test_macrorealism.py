import itertools

import numpy as np
import pytest

from conftest import expm_correlators
from hybridlg.macrorealism import (
    JointProbTable,
    OUTCOMES,
    check_aot,
    check_nsit,
    joint_probabilities,
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
