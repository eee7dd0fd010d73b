"""Tests for DSPE extensions: multi-spout clusters, failure injection."""

import pytest

from repro.api import Topology, TopologyError
from repro.partitioning import PartialKeyGrouping
from repro.streams.distributions import ZipfKeyDistribution


def dist():
    return ZipfKeyDistribution(1.05, 10_000)


def topology(scheme="pkg", duration=4, warmup=1, seed=1, spouts=1):
    return (
        Topology()
        .source(dist())
        .partition_by(scheme)
        .spouts(spouts)
        .timing(duration, warmup)
        .seed(seed)
    )


def straggling(scheme, worker=0, factor=5.0):
    """A 5 s run with one worker ``factor`` times slower."""
    topo = topology(scheme, duration=5).workers(cpu_delay=0.4e-3)
    return topo.straggler(worker, factor).build().run()


class TestMultiSpout:
    def test_validation(self):
        with pytest.raises(TopologyError):
            Topology().spouts(0)

    def test_throughput_matches_single_spout_when_spout_bound(self):
        # The emit budget is split across spouts, so the aggregate
        # spout-bound throughput is unchanged.
        one = topology(spouts=1).run()
        four = topology(spouts=4).run()
        assert four.throughput == pytest.approx(one.throughput, rel=0.05)

    def test_each_spout_emits(self):
        cluster = topology(duration=3, seed=2, spouts=3).build()
        cluster.run()
        assert len(cluster.spouts) == 3
        assert all(s.emitted > 0 for s in cluster.spouts)

    def test_acks_return_to_origin_spout(self):
        cluster = topology("sg", duration=3, seed=3, spouts=2).build()
        cluster.run()
        # If acks leaked to the wrong spout, in_flight would drift
        # negative on one spout and the other would stall at the cap.
        for spout in cluster.spouts:
            assert 0 <= spout.in_flight <= spout.max_pending

    def test_balanced_even_with_multiple_local_sources(self):
        loads = topology(seed=4, spouts=4).run().worker_loads
        avg = sum(loads) / len(loads)
        assert max(loads) - avg < 0.1 * sum(loads)

    def test_partitioner_injection_rejected_for_multi_spout(self):
        topo = topology(duration=3, spouts=2).partition_by(PartialKeyGrouping(9))
        with pytest.raises(TopologyError):
            topo.build()


class TestStragglerInjection:
    def test_validation(self):
        with pytest.raises(TopologyError):
            Topology().straggler(0, factor=0.0)
        with pytest.raises(TopologyError):
            topology().workers(4).straggler(4, factor=2.0).build()

    def test_straggler_reduces_throughput_and_raises_latency(self):
        base = straggling("pkg", factor=1.0)
        slow = straggling("pkg", factor=5.0)
        assert slow.throughput < 0.8 * base.throughput
        assert slow.latency.mean > base.latency.mean

    def test_pkg_does_not_adapt_to_service_time_skew(self):
        """A faithful *limitation*: the paper defines load as message
        counts (Section II), so PKG's estimator cannot see a slow
        worker -- it degrades like SG under a straggler, not better."""
        pkg, sg = straggling("pkg"), straggling("sg")
        assert pkg.throughput == pytest.approx(sg.throughput, rel=0.15)

    def test_straggler_queue_dominates_p99(self):
        slow = straggling("sg", worker=3, factor=10.0)
        assert slow.latency.percentile(99) > 2 * slow.latency.mean
