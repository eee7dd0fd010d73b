"""Empirical estimation utilities for the Section IV predictions.

Two measurable predictions fall out of the analysis:

* the imbalance of Greedy-2 grows like ``c * m`` beyond the feasibility
  threshold and stays sublinear below it -- :func:`fit_imbalance_growth`
  estimates the growth exponent from a trajectory;
* balance collapses once ``W`` crosses ``O(1/p1)`` ("the behavior of
  the system is binary") -- :func:`find_transition_workers` locates the
  empirical transition and :func:`transition_report` compares it to the
  ``d / p1`` prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.bounds import feasible_workers
from repro.core.engine import replay_interleaved
from repro.streams.distributions import KeyDistribution


def fit_imbalance_growth(
    positions: Sequence[float], imbalances: Sequence[float]
) -> float:
    """Least-squares growth exponent of ``I(t) ~ t^alpha``.

    ``alpha ~ 1`` means linear growth (the infeasible regime);
    ``alpha ~ 0.5`` is the sqrt(m) noise floor of the feasible regime.
    Zero imbalances are clipped to 1 before the log fit.
    """
    positions = np.asarray(positions, dtype=np.float64)
    imbalances = np.maximum(np.asarray(imbalances, dtype=np.float64), 1.0)
    if positions.size < 2:
        raise ValueError("need at least two points to fit a growth rate")
    if np.any(positions <= 0):
        raise ValueError("positions must be positive")
    slope, _intercept = np.polyfit(np.log(positions), np.log(imbalances), 1)
    return float(slope)


@dataclass
class TransitionReport:
    """Where balance collapses, empirically vs. the theory."""

    predicted_workers: int
    measured_workers: Optional[int]
    worker_grid: Sequence[int]
    fractions: Sequence[float]

    @property
    def agrees(self) -> bool:
        """Whether the empirical transition brackets the prediction.

        True when the measured collapse point is within one grid step
        of ``d / p1`` (or both lie beyond the grid).
        """
        grid = list(self.worker_grid)
        if self.measured_workers is None:
            return self.predicted_workers > max(grid)
        idx = grid.index(self.measured_workers)
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, len(grid) - 1)]
        return lo <= self.predicted_workers <= hi


def find_transition_workers(
    distribution: KeyDistribution,
    worker_grid: Sequence[int],
    num_messages: int = 100_000,
    num_sources: int = 1,
    collapse_fraction: float = 1e-3,
    seed: int = 0,
) -> TransitionReport:
    """Locate the worker count where PKG's balance collapses.

    Runs PKG across ``worker_grid`` and reports the first W whose
    average imbalance fraction exceeds ``collapse_fraction`` -- the
    empirical counterpart of the paper's "binary" transition, to be
    compared against :func:`feasible_workers(p1)`.
    """
    worker_grid = sorted(set(int(w) for w in worker_grid))
    if not worker_grid:
        raise ValueError("worker_grid must be non-empty")
    rng = np.random.default_rng(seed)
    keys = distribution.sample(num_messages, rng)
    fractions = []
    measured: Optional[int] = None
    for w in worker_grid:
        result = replay_interleaved(
            keys, w, num_sources=num_sources, seed=seed
        )
        fraction = result.average_imbalance_fraction
        fractions.append(fraction)
        if measured is None and fraction > collapse_fraction:
            measured = w
    return TransitionReport(
        predicted_workers=feasible_workers(distribution.p1),
        measured_workers=measured,
        worker_grid=worker_grid,
        fractions=fractions,
    )
