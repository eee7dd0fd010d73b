"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import HashFamily, HashFunction, key_to_bytes, splitmix64
from repro.partitioning import (
    KeyGrouping,
    PartialKeyGrouping,
    ShuffleGrouping,
)
from repro.core.metrics import (
    StreamingLoadSeries,
    count_partial_states,
    imbalance,
    jaccard_overlap,
)
from repro.sketches import SpaceSaving, StreamingHistogram

# Bounded key/worker strategies keep runs fast and reproducible.
keys_strategy = st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=400)
worker_counts = st.integers(min_value=1, max_value=16)


class TestHashingProperties:
    @given(st.integers(min_value=-(2**63), max_value=2**64 - 1))
    def test_splitmix_in_range(self, x):
        assert 0 <= splitmix64(x & 0xFFFFFFFFFFFFFFFF) <= 0xFFFFFFFFFFFFFFFF

    @given(st.one_of(st.integers(), st.text(), st.binary()))
    def test_key_to_bytes_total(self, key):
        assert isinstance(key_to_bytes(key), bytes)

    @given(st.integers(min_value=0, max_value=10**9), worker_counts)
    def test_hash_function_bucket_range(self, key, n):
        assert 0 <= HashFunction(1).bucket(key, n) < n

    @given(st.integers(min_value=0, max_value=10**6), worker_counts)
    def test_family_choices_deterministic(self, key, n):
        f1 = HashFamily(size=2, seed=9)
        f2 = HashFamily(size=2, seed=9)
        assert f1.choices(key, n) == f2.choices(key, n)


class TestPartitionerProperties:
    @given(keys_strategy, worker_counts)
    @settings(max_examples=50)
    def test_kg_routes_in_range_and_consistent(self, keys, n):
        kg = KeyGrouping(n)
        routes = [kg.route(k) for k in keys]
        assert all(0 <= r < n for r in routes)
        # Same key -> same worker, always.
        seen = {}
        for k, r in zip(keys, routes):
            assert seen.setdefault(k, r) == r

    @given(keys_strategy, worker_counts)
    @settings(max_examples=50)
    def test_sg_imbalance_at_most_one(self, keys, n):
        sg = ShuffleGrouping(n)
        loads = np.bincount(sg.route_chunk(np.array(keys)), minlength=n)
        assert loads.max() - loads.min() <= 1

    @given(keys_strategy, st.integers(min_value=2, max_value=12))
    @settings(max_examples=50)
    def test_pkg_key_splitting_invariant(self, keys, n):
        """Every message lands on one of its key's d=2 candidates."""
        pkg = PartialKeyGrouping(n, seed=3)
        for k in keys:
            assert pkg.route(k) in pkg.candidates(k)

    @given(keys_strategy, st.integers(min_value=2, max_value=12))
    @settings(max_examples=30)
    def test_pkg_replication_at_most_two(self, keys, n):
        pkg = PartialKeyGrouping(n, seed=5)
        keys_arr = np.array(keys)
        routes = pkg.route_chunk(keys_arr)
        for k in set(keys):
            used = set(routes[keys_arr == k].tolist())
            assert len(used) <= 2

    @given(keys_strategy, worker_counts)
    @settings(max_examples=30)
    def test_pkg_conserves_messages_and_balances_candidates(self, keys, n):
        """Loads sum to the stream length, and no candidate pair is
        ever more than one message apart *locally*: when both choices
        of a message were the same pair, greedy keeps them balanced."""
        pkg = PartialKeyGrouping(n, seed=7)
        keys_arr = np.array(keys)
        loads = np.bincount(pkg.route_chunk(keys_arr), minlength=n)
        assert loads.sum() == len(keys)
        # Every message went to a candidate of its key (invariant also
        # checked per-key above); loads never exceed the stream length.
        assert loads.max() <= len(keys)


class TestMetricProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=64))
    def test_imbalance_nonnegative_and_bounded(self, loads):
        value = imbalance(loads)
        assert 0 <= value <= max(loads)

    @given(keys_strategy, worker_counts)
    @settings(max_examples=30)
    def test_load_series_final_matches_total(self, keys, n):
        workers = np.array([k % n for k in keys])
        streaming = StreamingLoadSeries(workers.size, n, num_checkpoints=7)
        streaming.update(workers)
        positions, series = streaming.finish()
        loads = np.bincount(workers, minlength=n)
        assert series[-1] == pytest.approx(loads.max() - loads.mean())

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200),
    )
    def test_jaccard_bounds_and_symmetry(self, a, b):
        m = min(len(a), len(b))
        wa, wb = np.array(a[:m]), np.array(b[:m])
        j = jaccard_overlap(wa, wb)
        assert 0.0 <= j <= 1.0
        assert j == jaccard_overlap(wb, wa)

    @given(keys_strategy, worker_counts)
    @settings(max_examples=30)
    def test_partial_states_bounds(self, keys, n):
        keys_arr = np.array(keys)
        workers = np.array([abs(hash((k, 1))) % n for k in keys])
        states = count_partial_states(keys_arr, workers)
        distinct = len(set(keys))
        assert distinct <= states <= min(len(keys), distinct * n)


class TestSpaceSavingProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=500),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50)
    def test_estimate_bounds(self, items, capacity):
        """true <= estimate <= true + N/capacity for tracked items."""
        ss = SpaceSaving(capacity)
        ss.extend(items)
        truth = {}
        for x in items:
            truth[x] = truth.get(x, 0) + 1
        for item in list(ss._counts):
            est = ss.estimate(item)
            true = truth.get(item, 0)
            assert true <= est
            assert est - true <= len(items) / capacity + 1
            assert est - true <= ss.error(item)

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
    )
    @settings(max_examples=30)
    def test_merge_preserves_invariant(self, left, right):
        a, b = SpaceSaving(16), SpaceSaving(16)
        a.extend(left)
        b.extend(right)
        merged = a.merge(b)
        truth = {}
        for x in left + right:
            truth[x] = truth.get(x, 0) + 1
        assert merged.total == len(left) + len(right)
        for item in list(merged._counts):
            true = truth.get(item, 0)
            assert merged.estimate(item) >= true
            assert merged.estimate(item) - true <= merged.error(item)


class TestHistogramProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=50)
    def test_total_and_budget_invariants(self, points, max_bins):
        h = StreamingHistogram(max_bins)
        h.extend(points)
        assert len(h) <= max_bins
        assert h.total == pytest.approx(len(points))
        assert sum(w for _, w in h.bins) == pytest.approx(len(points))

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_sum_monotone_and_bounded(self, points):
        h = StreamingHistogram(16)
        h.extend(points)
        lo, hi = min(points) - 1, max(points) + 1
        grid = np.linspace(lo, hi, 20)
        values = [h.sum(b) for b in grid]
        assert all(x <= y + 1e-6 for x, y in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(len(points))

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
    )
    @settings(max_examples=30)
    def test_merge_total(self, xs, ys):
        a, b = StreamingHistogram(8), StreamingHistogram(8)
        a.extend(xs)
        b.extend(ys)
        merged = a.merge(b)
        assert merged.total == pytest.approx(len(xs) + len(ys))
        assert len(merged) <= 8
