"""Ablation bench: hash-based vs consistent-hashing candidate selection.

The paper's Section VII suggests Chord-style replicas as an alternative
way to pick PKG's two candidates.  This bench checks that (a) the ring
variant balances like hash-PKG, and (b) it buys elasticity: removing a
worker relocates only ~2/W of the candidate sets instead of ~all.
"""

import numpy as np

from repro.core.engine import replay_stream
from repro.partitioning import (
    ConsistentPartialKeyGrouping,
    KeyGrouping,
    PartialKeyGrouping,
)
from repro.streams.distributions import ZipfKeyDistribution


def test_consistent_pkg_balance_and_elasticity(benchmark):
    dist = ZipfKeyDistribution(1.0, 5000)
    keys = dist.sample(60_000, np.random.default_rng(0))

    def run():
        return {
            "pkg": replay_stream(keys, PartialKeyGrouping(10, seed=1)),
            "ch_pkg": replay_stream(
                keys, ConsistentPartialKeyGrouping(10, seed=1)
            ),
            "kg": replay_stream(keys, KeyGrouping(10, seed=1)),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\navg imbalance: "
        + "  ".join(f"{k}={v.average_imbalance:.1f}" for k, v in results.items())
    )
    # Ring-selected candidates balance comparably to hash candidates.
    assert results["ch_pkg"].average_imbalance < results["kg"].average_imbalance / 10

    # Elasticity: removing one of 10 workers moves few candidate sets.
    stable = ConsistentPartialKeyGrouping(10, seed=5)
    shrunk = ConsistentPartialKeyGrouping(10, seed=5)
    sample = [int(k) for k in np.unique(keys)[:2000]]
    before = {k: stable.candidates(k) for k in sample}
    shrunk.remove_worker(9)
    moved = sum(1 for k in sample if shrunk.candidates(k) != before[k])
    print(f"candidate sets moved after removing 1/10 workers: {moved / len(sample):.1%}")
    assert moved / len(sample) < 0.45
