"""Tests for the empirical-estimation analysis utilities."""

import numpy as np
import pytest

from repro.analysis import (
    feasible_workers,
    find_transition_workers,
    fit_imbalance_growth,
)
from repro.streams.distributions import UniformKeyDistribution, ZipfKeyDistribution


class TestGrowthFit:
    def test_linear_growth_exponent_one(self):
        t = np.array([10, 100, 1000, 10_000], dtype=float)
        assert fit_imbalance_growth(t, 0.3 * t) == pytest.approx(1.0, abs=0.01)

    def test_sqrt_growth_exponent_half(self):
        t = np.array([10, 100, 1000, 10_000], dtype=float)
        assert fit_imbalance_growth(t, 5 * np.sqrt(t)) == pytest.approx(0.5, abs=0.01)

    def test_flat_growth_exponent_zero(self):
        t = np.array([10, 100, 1000], dtype=float)
        assert fit_imbalance_growth(t, [7, 7, 7]) == pytest.approx(0.0, abs=0.01)

    def test_zero_imbalances_clipped(self):
        t = np.array([10, 100], dtype=float)
        assert fit_imbalance_growth(t, [0, 0]) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_imbalance_growth([10], [1])
        with pytest.raises(ValueError):
            fit_imbalance_growth([0, 10], [1, 1])

    def test_feasible_vs_infeasible_regimes_differ(self):
        """PKG's trajectory: sublinear below threshold, linear above."""
        from repro.core.engine import replay_interleaved

        dist = ZipfKeyDistribution(1.0, 5000)  # p1 ~ 10.5%, threshold ~19
        keys = dist.sample(100_000, np.random.default_rng(0))
        feasible = replay_interleaved(keys, num_workers=5)
        infeasible = replay_interleaved(keys, num_workers=60)
        a_feasible = fit_imbalance_growth(
            feasible.checkpoint_positions, feasible.imbalance_series
        )
        a_infeasible = fit_imbalance_growth(
            infeasible.checkpoint_positions, infeasible.imbalance_series
        )
        assert a_infeasible > 0.9  # linear collapse
        assert a_feasible < a_infeasible


class TestTransitionFinder:
    def test_transition_matches_prediction(self):
        from repro.streams.distributions import calibrate_zipf_exponent

        # p1 = 4% -> predicted threshold ~50 workers.  Below threshold
        # even a colliding hot pair fits in one worker's fair share
        # (p1 < 1/W for W <= 20), so the measurement is collision-proof.
        exponent = calibrate_zipf_exponent(5000, 0.04)
        dist = ZipfKeyDistribution(exponent, 5000)
        report = find_transition_workers(
            dist, worker_grid=(5, 10, 20, 80, 160), num_messages=60_000
        )
        assert report.predicted_workers == feasible_workers(dist.p1) == 50
        assert report.measured_workers in (80, 160)
        assert len(report.fractions) == 5

    def test_no_transition_on_gentle_distribution(self):
        dist = UniformKeyDistribution(100_000)  # p1 = 1e-5: never collapses
        report = find_transition_workers(
            dist, worker_grid=(5, 10, 20), num_messages=40_000
        )
        assert report.measured_workers is None
        assert report.agrees  # prediction also beyond the grid

    def test_fractions_monotone_at_collapse(self):
        dist = ZipfKeyDistribution(1.2, 2000)
        report = find_transition_workers(
            dist, worker_grid=(5, 50), num_messages=40_000
        )
        assert report.fractions[-1] >= report.fractions[0]

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            find_transition_workers(UniformKeyDistribution(10), worker_grid=())
