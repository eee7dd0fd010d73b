"""Elastic PKG with consistent hashing (the paper's Section VII idea).

The paper notes the two PKG candidates could be chosen with consistent
hashing "using the replication technique used by Chord".  The payoff is
elasticity: growing or shrinking the worker pool relocates only the
keys whose ring arcs are touched, instead of remapping the world as
``H(k) mod W`` does.

Run:  python examples/elastic_scaling.py
"""

import numpy as np

from repro.api import make_partitioner
from repro.core.engine import replay_stream
from repro.streams import ZipfKeyDistribution


def remap_fraction_mod_hash(num_workers_before: int, num_workers_after: int, keys):
    """Fraction of keys whose worker changes under plain mod-W hashing."""
    before = make_partitioner("kg", num_workers_before, seed=1)
    after = make_partitioner("kg", num_workers_after, seed=1)
    moved = sum(1 for k in keys if before.route(k) != after.route(k))
    return moved / len(keys)


def main() -> None:
    distribution = ZipfKeyDistribution(1.0, 5000)
    keys = distribution.sample(100_000, np.random.default_rng(3))
    sample_keys = [int(k) for k in np.unique(keys)[:3000]]

    # Balance: ring-selected candidates work as well as hash candidates.
    for name, spec in (
        ("hash PKG", "pkg"),
        ("ring PKG", "ch-pkg"),
        ("hash KG", "kg"),
    ):
        result = replay_stream(keys, make_partitioner(spec, 10, seed=1))
        print(f"{name:9s} avg imbalance = {result.average_imbalance:10.1f}")

    # Elasticity: shrink the pool from 10 to 9 workers.
    stable = make_partitioner("ch-pkg", 10, seed=5)
    shrunk = make_partitioner("ch-pkg", 10, seed=5)
    before = {k: stable.candidates(k) for k in sample_keys}
    shrunk.remove_worker(9)
    ring_moved = sum(1 for k in sample_keys if shrunk.candidates(k) != before[k])
    mod_moved = remap_fraction_mod_hash(10, 9, sample_keys)
    print(
        f"\nremoving 1 of 10 workers relocates:"
        f"\n  ring PKG candidate pairs : {ring_moved / len(sample_keys):6.1%}"
        f"\n  mod-W hashing keys       : {mod_moved:6.1%}"
    )
    print("(the ring moves only arcs adjacent to the removed worker)")


if __name__ == "__main__":
    main()
