"""The one load model: true loads and the paper's G / L / LP views.

A load-aware partitioner (one source) owns one int64 vector, ``loads``,
counting only its own sends -- the local estimate.  The global oracle
(G) and periodic probing (LP) exist only to show that local estimation
is enough, so they live in :class:`InterleavedRouter` alone, next to the
true worker loads every mode accumulates.
"""

import numpy as np
import pytest

from repro.core.engine import InterleavedRouter, replay_stream
from repro.core.metrics import imbalance
from repro.partitioning import LeastLoaded, PartialKeyGrouping


def send(router, source, candidates, time=0.0):
    """Route one message from ``source``; returns the chosen worker."""
    return int(
        router.route(
            np.array([candidates], dtype=np.int64),
            np.array([source], dtype=np.int64),
            np.array([time]),
        )[0]
    )


class TestRegistry:
    """The true worker loads ``Li(t)`` of Section II."""

    def test_starts_empty(self):
        router = InterleavedRouter(2, 4)
        assert router.true_loads.sum() == 0
        assert imbalance(router.true_loads) == 0.0

    def test_add_and_load(self):
        router = InterleavedRouter(1, 3)
        for _ in range(5):
            send(router, 0, (1, 1))
        assert router.true_loads[1] == 5
        assert router.true_loads.sum() == 5

    def test_imbalance_definition(self):
        assert imbalance(np.array([10, 0, 0, 2])) == pytest.approx(10 - 3.0)

    def test_snapshot_is_copy(self):
        pkg = PartialKeyGrouping(2, seed=0)
        result = replay_stream(np.arange(10, dtype=np.int64), pkg)
        final = result.final_loads.copy()
        pkg.route_chunk(np.arange(10, dtype=np.int64))
        assert np.array_equal(result.final_loads, final)

    def test_reset(self):
        pkg = PartialKeyGrouping(2, seed=0)
        pkg.route_chunk(np.arange(10, dtype=np.int64))
        pkg.reset()
        assert pkg.loads.sum() == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            InterleavedRouter(2, 0)


class TestGlobalOracle:
    def test_select_least_loaded(self):
        router = InterleavedRouter(1, 3, mode="global")
        router.true_loads[:] = [5, 2, 0]
        assert send(router, 0, (0, 1)) == 1
        assert send(router, 0, (0, 2)) == 2

    def test_on_send_updates_registry(self):
        router = InterleavedRouter(1, 2, mode="global")
        send(router, 0, (1, 1))
        assert router.true_loads[1] == 1

    def test_shared_between_sources(self):
        router = InterleavedRouter(2, 2, mode="global")
        assert send(router, 0, (0, 1)) == 0
        # Source 1 immediately sees source 0's send.
        assert send(router, 1, (0, 1)) == 1

    def test_tie_breaks_to_first_candidate(self):
        router = InterleavedRouter(1, 3, mode="global")
        assert send(router, 0, (2, 1)) == 2


class TestLocalEstimator:
    def test_tracks_own_sends_only(self):
        router = InterleavedRouter(2, 2, mode="local")
        send(router, 0, (0, 0))
        send(router, 0, (0, 0))
        # Source 1 has no idea worker 0 is loaded...
        assert send(router, 1, (0, 1)) == 0
        # ...but the true loads hold the truth.
        assert router.true_loads[0] == 3

    def test_mirrors_into_registry(self):
        router = InterleavedRouter(1, 3, mode="local")
        send(router, 0, (2, 2))
        assert router.views[0, 2] == 1
        assert router.true_loads[2] == 1

    def test_works_without_registry(self):
        # A partitioner's own loads vector is its whole load model.
        pkg = PartialKeyGrouping(2, seed=0)
        pkg._send((1,))
        assert pkg._send((0, 1)) == 0

    def test_local_imbalance(self):
        pkg = PartialKeyGrouping(2, seed=0)
        pkg._send((0,))
        pkg._send((0,))
        assert imbalance(pkg.loads) == pytest.approx(1.0)

    def test_sum_of_locals_equals_registry(self):
        router = InterleavedRouter(3, 4, mode="local")
        rng = np.random.default_rng(0)
        router.route(
            rng.integers(0, 4, size=(500, 2)), rng.integers(0, 3, size=500)
        )
        assert np.array_equal(router.views.sum(axis=0), router.true_loads)

    def test_reset(self):
        ll = LeastLoaded(2)
        ll.route("x")
        ll.reset()
        assert ll.loads.sum() == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PartialKeyGrouping(0)
        with pytest.raises(ValueError):
            LeastLoaded(0)


class TestProbingEstimator:
    def test_requires_registry(self):
        # A probe reads the true loads at message times, so probing
        # cannot route without them.
        router = InterleavedRouter(1, 2, mode="probing", probe_period=1.0)
        with pytest.raises(ValueError, match="times"):
            router.route(np.zeros((1, 2), dtype=np.int64), np.zeros(1, np.int64))

    def test_requires_positive_period(self):
        with pytest.raises(ValueError):
            InterleavedRouter(1, 2, mode="probing", probe_period=0.0)

    def test_probe_syncs_to_truth(self):
        router = InterleavedRouter(2, 2, mode="probing", probe_period=10.0)
        for _ in range(100):  # load generated by *another* source
            send(router, 1, (0, 0), time=0.0)
        # Before the first probe: source 0's view is empty, picks first.
        assert send(router, 0, (0, 1), time=5.0) == 0
        # After the probe time: sees the true load on worker 0.
        assert send(router, 0, (0, 1), time=10.0) == 1

    def test_probe_fires_once_per_period(self):
        router = InterleavedRouter(1, 2, mode="probing", probe_period=1.0)
        probes = 0
        for t in (0.5, 0.9, 1.1, 1.5, 2.2, 3.0):
            before = router.next_probe[0]
            send(router, 0, (0, 1), time=t)
            probes += router.next_probe[0] != before
        assert probes == 3  # at 1.1, 2.2, 3.0

    def test_probe_catches_up_after_gap(self):
        router = InterleavedRouter(1, 2, mode="probing", probe_period=1.0)
        send(router, 0, (0, 1), time=100.0)
        assert router.next_probe[0] == 101.0
        send(router, 0, (0, 1), time=100.5)
        assert router.next_probe[0] == 101.0  # no second probe until 101
