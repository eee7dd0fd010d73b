"""Tests for the load-balance metrics (imbalance, series, Jaccard, memory)."""

import numpy as np
import pytest

from repro.core.engine import ReplayResult
from repro.core.metrics import (
    StreamingLoadSeries,
    agreement_fraction,
    count_partial_states,
    imbalance,
    jaccard_overlap,
    replication_factor,
)


def one_shot_series(workers, num_workers, num_checkpoints=100):
    """``(positions, imbalances)`` of a whole routed stream in one update."""
    series = StreamingLoadSeries(len(workers), num_workers, num_checkpoints)
    series.update(np.asarray(workers, dtype=np.int64))
    return series.finish()


def replay_result(loads, num_messages):
    return ReplayResult(
        num_workers=len(loads),
        num_messages=num_messages,
        final_loads=np.asarray(loads, dtype=np.int64),
        checkpoint_positions=np.array([], dtype=np.int64),
        imbalance_series=np.array([]),
    )


class TestImbalance:
    def test_definition(self):
        assert imbalance([10, 0, 2]) == pytest.approx(10 - 4.0)

    def test_balanced_is_zero(self):
        assert imbalance([5, 5, 5]) == 0.0

    def test_single_worker_zero(self):
        assert imbalance([7]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            imbalance([])

    def test_fraction(self):
        result = replay_result([10, 0, 2], num_messages=12)
        assert result.final_imbalance_fraction == pytest.approx(6.0 / 12.0)

    def test_fraction_empty_loads(self):
        assert replay_result([0, 0], num_messages=0).final_imbalance_fraction == 0.0


class TestLoadSeries:
    def test_checkpoint_positions_end_at_stream(self):
        workers = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        positions, series = one_shot_series(workers, 2, num_checkpoints=4)
        assert positions[-1] == 8
        assert series[-1] == 0.0

    def test_series_matches_prefix_imbalance(self):
        workers = np.array([0, 0, 0, 1, 1, 2])
        positions, series = one_shot_series(workers, 3, num_checkpoints=6)
        for pos, value in zip(positions, series):
            loads = np.bincount(workers[:pos], minlength=3)
            assert value == pytest.approx(loads.max() - loads.mean())

    def test_empty_stream(self):
        positions, series = one_shot_series(np.array([], dtype=np.int64), 2)
        assert positions.size == 0 and series.size == 0

    def test_more_checkpoints_than_messages(self):
        workers = np.array([0, 1, 1])
        positions, _ = one_shot_series(workers, 2, num_checkpoints=100)
        assert positions.size <= 3

    def test_average_imbalance(self):
        workers = np.array([0] * 10)
        positions, series = one_shot_series(workers, 2, num_checkpoints=5)
        result = ReplayResult(
            num_workers=2,
            num_messages=10,
            final_loads=np.bincount(workers, minlength=2),
            checkpoint_positions=positions,
            imbalance_series=series,
        )
        assert result.average_imbalance > 0

    def test_unused_workers_count_toward_mean(self):
        workers = np.zeros(10, dtype=np.int64)
        _, series = one_shot_series(workers, 5, num_checkpoints=1)
        assert series[0] == pytest.approx(10 - 2.0)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            StreamingLoadSeries(1, 0)


class TestJaccard:
    def test_identical_routings(self):
        a = np.array([0, 1, 2])
        assert jaccard_overlap(a, a) == 1.0

    def test_disjoint_routings(self):
        assert jaccard_overlap(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_half_agreement(self):
        a = np.array([0, 0])
        b = np.array([0, 1])
        # 1 agreement of 2 messages: J = 1 / (4 - 1) = 1/3
        assert jaccard_overlap(a, b) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 5, 100), rng.integers(0, 5, 100)
        assert jaccard_overlap(a, b) == jaccard_overlap(b, a)

    def test_empty(self):
        e = np.array([], dtype=np.int64)
        assert jaccard_overlap(e, e) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            jaccard_overlap(np.array([0]), np.array([0, 1]))

    def test_agreement_fraction(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([0, 1, 0, 0])
        assert agreement_fraction(a, b) == pytest.approx(0.5)


class TestPartialStates:
    def test_key_grouping_one_state_per_key(self):
        keys = np.array([0, 1, 0, 2, 1])
        workers = np.array([3, 4, 3, 0, 4])  # consistent per key
        assert count_partial_states(keys, workers) == 3

    def test_split_key_counts_twice(self):
        keys = np.array([7, 7, 7])
        workers = np.array([0, 1, 0])
        assert count_partial_states(keys, workers) == 2

    def test_empty(self):
        e = np.array([], dtype=np.int64)
        assert count_partial_states(e, e) == 0

    def test_string_keys(self):
        keys = np.array(["a", "b", "a"])
        workers = np.array([0, 0, 1])
        assert count_partial_states(keys, workers) == 3

    def test_replication_factor_bounds(self):
        keys = np.array([0, 0, 1, 1])
        workers = np.array([0, 1, 2, 2])
        # key 0 on 2 workers, key 1 on 1: average 1.5
        assert replication_factor(keys, workers) == pytest.approx(1.5)

    def test_replication_empty(self):
        e = np.array([], dtype=np.int64)
        assert replication_factor(e, e) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            count_partial_states(np.array([0]), np.array([0, 1]))
