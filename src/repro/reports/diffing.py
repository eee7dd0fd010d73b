"""Compare two artifact sets and flag metric regressions.

``python -m repro.reports diff OLD NEW`` loads both artifact sets
(directories of ``*.json`` or single files), matches metrics by name,
and classifies each pair using the metric's declared direction.
Classification:

* ``regressed`` -- the value moved in the *worse* direction by more
  than the relative tolerance (and more than the absolute floor, so
  noise around zero never fails a build);
* ``improved`` -- moved in the better direction by more than tolerance;
* ``ok`` -- within tolerance;
* ``added`` / ``removed`` -- present on only one side (informational).

The CLI exits non-zero iff any metric regressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping

from repro.reports.schema import (
    ExperimentArtifact,
    Metric,
    SchemaError,
    load_artifact,
    load_artifacts,
)

__all__ = [
    "MetricChange",
    "DiffReport",
    "diff_artifacts",
    "load_artifact_set",
]

#: Ignore absolute movements below this: imbalance fractions of 1e-7 vs
#: 2e-7 are both "perfectly balanced", not a 2x regression.
DEFAULT_ABS_FLOOR = 1e-6


@dataclass(frozen=True)
class MetricChange:
    experiment: str
    name: str
    status: str  # "ok" | "improved" | "regressed" | "added" | "removed"
    old: float = float("nan")
    new: float = float("nan")
    direction: str = "lower"

    @property
    def relative_change(self) -> float:
        if self.status in ("added", "removed") or self.old == 0:
            return float("nan")
        return (self.new - self.old) / abs(self.old)

    def describe(self) -> str:
        if self.status == "added":
            return f"[{self.experiment}] {self.name}: added ({self.new:.4g})"
        if self.status == "removed":
            return f"[{self.experiment}] {self.name}: removed (was {self.old:.4g})"
        arrow = {"ok": "~", "improved": "+", "regressed": "!"}[self.status]
        return (
            f"[{self.experiment}] {arrow} {self.name}: "
            f"{self.old:.4g} -> {self.new:.4g} "
            f"({self.relative_change * 100:+.1f}%, better={self.direction})"
        )


@dataclass
class DiffReport:
    changes: List[MetricChange]
    tolerance: float

    @property
    def regressions(self) -> List[MetricChange]:
        return [c for c in self.changes if c.status == "regressed"]

    @property
    def improvements(self) -> List[MetricChange]:
        return [c for c in self.changes if c.status == "improved"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def format(self, verbose: bool = False) -> str:
        lines = []
        interesting = [c for c in self.changes if c.status != "ok" or verbose]
        for change in interesting:
            lines.append(change.describe())
        counts = {}
        for c in self.changes:
            counts[c.status] = counts.get(c.status, 0) + 1
        total = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(
            f"diff: {len(self.changes)} metrics compared "
            f"(tolerance {self.tolerance * 100:.0f}%): {total or 'none'}"
        )
        return "\n".join(lines)


def _classify(
    old: Metric, new: Metric, tolerance: float, abs_floor: float
) -> str:
    delta = new.value - old.value
    if abs(delta) <= abs_floor:
        return "ok"
    # Positive "worseness": movement in the bad direction.
    worse = delta if old.direction == "lower" else -delta
    scale = max(abs(old.value), abs_floor)
    if worse > tolerance * scale:
        return "regressed"
    if -worse > tolerance * scale:
        return "improved"
    return "ok"


def diff_artifacts(
    old: Mapping[str, ExperimentArtifact],
    new: Mapping[str, ExperimentArtifact],
    tolerance: float = 0.25,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> DiffReport:
    """Compare two artifact sets metric-by-metric."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    changes: List[MetricChange] = []
    for name in sorted(set(old) | set(new)):
        old_metrics = old[name].metric_map() if name in old else {}
        new_metrics = new[name].metric_map() if name in new else {}
        for metric_name in sorted(set(old_metrics) | set(new_metrics)):
            o = old_metrics.get(metric_name)
            n = new_metrics.get(metric_name)
            if o is None:
                changes.append(
                    MetricChange(name, metric_name, "added", new=n.value,
                                 direction=n.direction)
                )
            elif n is None:
                changes.append(
                    MetricChange(name, metric_name, "removed", old=o.value,
                                 direction=o.direction)
                )
            else:
                if o.direction != n.direction:
                    raise SchemaError(
                        f"metric {metric_name!r} changed direction between "
                        f"artifact sets ({o.direction} vs {n.direction})"
                    )
                status = _classify(o, n, tolerance, abs_floor)
                changes.append(
                    MetricChange(
                        name, metric_name, status,
                        old=o.value, new=n.value, direction=o.direction,
                    )
                )
    return DiffReport(changes=changes, tolerance=tolerance)


def load_artifact_set(path) -> Dict[str, ExperimentArtifact]:
    """Load an artifact set: a directory or a single artifact file."""
    path = Path(path)
    if path.is_dir():
        return load_artifacts(path)
    if not path.exists():
        raise SchemaError(f"artifact path {path} does not exist")
    artifact = load_artifact(path)
    return {artifact.experiment: artifact}
