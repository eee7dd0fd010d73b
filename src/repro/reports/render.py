"""Markdown renderer: persisted artifacts -> EXPERIMENTS.md.

Rendering is a pure function of the artifact JSON on disk -- no
experiment is re-run and no timestamp is injected at render time -- so
``render --check`` can verify that the committed EXPERIMENTS.md is
exactly what the committed artifacts produce.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping

from repro.reports.harnesses import HARNESSES
from repro.reports.schema import ExperimentArtifact

__all__ = ["render_markdown", "render_to_file", "is_stale", "DEFAULT_OUTPUT"]

DEFAULT_OUTPUT = "EXPERIMENTS.md"

_HEADER = """\
# EXPERIMENTS — paper tables and figures, from persisted artifacts

<!-- GENERATED FILE: do not edit by hand.
     Regenerate with:
       PYTHONPATH=src python -m repro.reports run --scale <s>
       PYTHONPATH=src python -m repro.reports render -->

Every table/figure of *"The Power of Both Choices"* (ICDE 2015) is
reproduced by a harness in `src/repro/experiments/`; each run persists
a versioned JSON artifact under `results/`, and this file is rendered
from those artifacts by `python -m repro.reports render`.  Compare two
runs with `python -m repro.reports diff <old> <new>`; each harness's
wall-clock duration is in the provenance table below.
"""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _provenance_table(artifacts: Mapping[str, ExperimentArtifact]) -> List[str]:
    lines = [
        "| experiment | paper section | records | scale | seed | git | run at (UTC) | duration |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name in _ordered(artifacts):
        a = artifacts[name]
        m = a.manifest
        lines.append(
            f"| {a.experiment} | {a.paper_section} | {len(a.records)} "
            f"| {_fmt(m.scale)} | {m.seed} | `{m.git_sha[:10]}` "
            f"| {m.created_utc} | {m.duration_seconds:.1f}s |"
        )
    return lines


def _ordered(artifacts: Mapping[str, ExperimentArtifact]) -> List[str]:
    """Paper order for known harnesses, then alphabetical extras."""
    known = [n for n in HARNESSES if n in artifacts]
    extras = sorted(set(artifacts) - set(known))
    return known + extras


def _section(artifact: ExperimentArtifact) -> List[str]:
    name = artifact.experiment
    lines = [f"## {artifact.paper_section} — {_title(artifact)}", ""]
    harness = HARNESSES.get(name)
    if harness is not None and artifact.records:
        try:
            table = harness.format(harness.rehydrate(artifact.records))
        except (TypeError, ValueError) as exc:
            table = f"(could not re-render table from records: {exc})"
        lines += ["```text", table, "```", ""]
    if artifact.summary:
        lines += ["**Headline numbers**", "", "| stat | value |", "|---|---|"]
        for key in sorted(artifact.summary):
            lines.append(f"| `{key}` | {_fmt(artifact.summary[key])} |")
        lines.append("")
    return lines


def _title(artifact: ExperimentArtifact) -> str:
    harness = HARNESSES.get(artifact.experiment)
    return harness.title if harness is not None else artifact.experiment


def render_markdown(artifacts: Mapping[str, ExperimentArtifact]) -> str:
    """Render the full EXPERIMENTS.md text from loaded artifacts."""
    if not artifacts:
        raise ValueError(
            "no artifacts to render; run `python -m repro.reports run` first"
        )
    lines = [_HEADER, "## Provenance", ""]
    lines += _provenance_table(artifacts)
    lines.append("")
    for name in _ordered(artifacts):
        lines += _section(artifacts[name])
    return "\n".join(lines).rstrip() + "\n"


def render_to_file(
    artifacts: Mapping[str, ExperimentArtifact], path=DEFAULT_OUTPUT
) -> Path:
    path = Path(path)
    path.write_text(render_markdown(artifacts))
    return path


def is_stale(artifacts: Mapping[str, ExperimentArtifact], path=DEFAULT_OUTPUT) -> bool:
    """True when ``path`` differs from what the artifacts render to."""
    path = Path(path)
    if not path.exists():
        return True
    return path.read_text() != render_markdown(artifacts)
