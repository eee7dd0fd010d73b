"""Metric diffing: direction-aware classification and tolerances."""

import pytest

from repro.reports import ExperimentArtifact, Metric, RunManifest, SchemaError
from repro.reports.diffing import diff_artifacts, load_artifact_set


def artifact(metrics, experiment="table2"):
    return ExperimentArtifact(
        experiment=experiment,
        paper_section="Table II",
        manifest=RunManifest(
            seed=1, scale=1.0, git_sha="sha", created_utc="t"
        ),
        metrics=metrics,
    )


def one_change(old_metric, new_metric, **kwargs):
    report = diff_artifacts(
        {"table2": artifact([old_metric])},
        {"table2": artifact([new_metric])},
        **kwargs,
    )
    (change,) = report.changes
    return report, change


class TestClassification:
    def test_lower_is_better_regression(self):
        report, change = one_change(Metric("m", 1.0), Metric("m", 2.0))
        assert change.status == "regressed"
        assert report.has_regressions

    def test_lower_is_better_improvement(self):
        _, change = one_change(Metric("m", 2.0), Metric("m", 1.0))
        assert change.status == "improved"

    def test_higher_is_better_flips(self):
        _, change = one_change(
            Metric("m", 100.0, "higher"), Metric("m", 50.0, "higher")
        )
        assert change.status == "regressed"
        _, change = one_change(
            Metric("m", 50.0, "higher"), Metric("m", 100.0, "higher")
        )
        assert change.status == "improved"

    def test_within_tolerance_is_ok(self):
        report, change = one_change(
            Metric("m", 1.0), Metric("m", 1.2), tolerance=0.25
        )
        assert change.status == "ok"
        assert not report.has_regressions

    def test_absolute_floor_suppresses_noise_near_zero(self):
        # 2e-7 vs 1e-7 is a 2x relative change but far below the floor.
        _, change = one_change(Metric("m", 1e-7), Metric("m", 2e-7))
        assert change.status == "ok"

    def test_added_and_removed(self):
        report = diff_artifacts(
            {"table2": artifact([Metric("old_only", 1.0)])},
            {"table2": artifact([Metric("new_only", 1.0)])},
        )
        statuses = {c.name: c.status for c in report.changes}
        assert statuses == {"old_only": "removed", "new_only": "added"}
        assert not report.has_regressions  # informational, not failures

    def test_direction_flip_rejected(self):
        with pytest.raises(SchemaError, match="direction"):
            one_change(Metric("m", 1.0, "lower"), Metric("m", 1.0, "higher"))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            diff_artifacts({}, {}, tolerance=-0.1)


class TestReport:
    def test_format_mentions_regression_and_counts(self):
        report, _ = one_change(Metric("m", 1.0), Metric("m", 3.0))
        text = report.format()
        assert "! m: 1 -> 3" in text
        assert "1 regressed" in text

    def test_missing_experiment_counts_as_removed_metrics(self):
        report = diff_artifacts(
            {"table2": artifact([Metric("m", 1.0)])}, {}
        )
        (change,) = report.changes
        assert change.status == "removed"
