"""``repro.reports``: the experiment artifact pipeline.

Persists every experiment harness run as a versioned JSON artifact,
renders EXPERIMENTS.md from the artifacts on disk, and diffs two
artifact sets for metric regressions.  Performance is measured by the
repository benchmark in ``perfbench/``, not here.

Library surface::

    from repro.reports import (
        run_experiments, load_artifacts, render_markdown, diff_artifacts,
    )

    artifacts = run_experiments(["table2"], reduced_config(0.1))
    print(render_markdown(artifacts))

CLI surface (see ``python -m repro.reports --help``)::

    python -m repro.reports run --scale 0.1      # -> results/*.json
    python -m repro.reports render               # -> EXPERIMENTS.md
    python -m repro.reports render --check       # CI freshness gate
    python -m repro.reports diff old/ results/   # exit 1 on regression
"""

from repro.reports.diffing import (
    DiffReport,
    MetricChange,
    diff_artifacts,
    load_artifact_set,
)
from repro.reports.harnesses import HARNESSES, ReportHarness, get_harness, harness_names
from repro.reports.pipeline import reduced_config, run_experiments
from repro.reports.render import is_stale, render_markdown, render_to_file
from repro.reports.schema import (
    SCHEMA_VERSION,
    ExperimentArtifact,
    Metric,
    RunManifest,
    SchemaError,
    load_artifact,
    load_artifacts,
    write_artifact,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "RunManifest",
    "Metric",
    "ExperimentArtifact",
    "write_artifact",
    "load_artifact",
    "load_artifacts",
    "ReportHarness",
    "HARNESSES",
    "get_harness",
    "harness_names",
    "reduced_config",
    "run_experiments",
    "render_markdown",
    "render_to_file",
    "is_stale",
    "diff_artifacts",
    "load_artifact_set",
    "DiffReport",
    "MetricChange",
]
