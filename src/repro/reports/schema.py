"""Versioned JSON artifact schema for persisted experiment results.

One **artifact** is the durable record of one experiment harness run:
a :class:`RunManifest` (provenance: git SHA, seed, scale, config knobs,
library versions, wall-clock duration), the harness's structured
``records`` (one dict per result row), a small human-oriented
``summary`` (the headline numbers rendered into EXPERIMENTS.md), and a
flat list of directed :class:`Metric` values that
:mod:`repro.reports.diffing` compares across runs.

Artifacts are plain JSON files -- one per experiment, conventionally in
``results/`` at the repo root -- so that the perf/fidelity trajectory
lives in git history, diffable and greppable without any tooling.

The ``schema_version`` field gates forward compatibility: loaders
reject artifacts written by a newer schema instead of misreading them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

#: Bump on any breaking change to the artifact layout.
SCHEMA_VERSION = 1

ARTIFACT_KIND = "repro-experiment-artifact"

#: Metric directions: which way is *better*.
DIRECTIONS = ("lower", "higher")


class SchemaError(ValueError):
    """An artifact (or manifest/metric) failed validation."""


def git_sha(default: str = "unknown") -> str:
    """Current git HEAD SHA, or ``default`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serialisable types.

    Handles numpy scalars/arrays, dataclasses, paths, and containers;
    anything else must already be JSON-native.
    """
    if isinstance(value, (str, bool, int, type(None))):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(v) for v in value]
    raise SchemaError(
        f"cannot serialise value of type {type(value).__name__!r} into an artifact"
    )


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one experiment run: enough to reproduce it."""

    seed: int
    scale: float
    git_sha: str = "unknown"
    created_utc: str = "unknown"
    workers: Sequence[int] = ()
    sources: Sequence[int] = ()
    num_checkpoints: int = 0
    cluster_duration: float = 0.0
    cluster_warmup: float = 0.0
    python_version: str = ""
    numpy_version: str = ""
    repro_version: str = ""
    duration_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Normalise sequences so JSON round-trips compare equal.
        object.__setattr__(self, "workers", tuple(self.workers))
        object.__setattr__(self, "sources", tuple(self.sources))
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SchemaError(f"manifest seed must be an int, got {self.seed!r}")
        if not isinstance(self.scale, (int, float)) or self.scale <= 0:
            raise SchemaError(f"manifest scale must be positive, got {self.scale!r}")
        if not isinstance(self.git_sha, str) or not self.git_sha:
            raise SchemaError("manifest git_sha must be a non-empty string")
        if not isinstance(self.created_utc, str) or not self.created_utc:
            raise SchemaError("manifest created_utc must be a non-empty string")
        if self.duration_seconds < 0:
            raise SchemaError(
                f"manifest duration_seconds must be >= 0, got {self.duration_seconds!r}"
            )

    @classmethod
    def from_config(
        cls,
        config,
        *,
        created_utc: str,
        duration_seconds: float = 0.0,
        sha: Optional[str] = None,
    ) -> "RunManifest":
        """Build a manifest from an :class:`ExperimentConfig`."""
        import repro

        return cls(
            seed=int(config.seed),
            scale=float(config.scale),
            git_sha=sha if sha is not None else git_sha(),
            created_utc=created_utc,
            workers=tuple(int(w) for w in config.workers),
            sources=tuple(int(s) for s in config.sources),
            num_checkpoints=int(config.num_checkpoints),
            cluster_duration=float(config.cluster_duration),
            cluster_warmup=float(config.cluster_warmup),
            python_version=platform.python_version(),
            numpy_version=np.__version__,
            repro_version=repro.__version__,
            duration_seconds=float(duration_seconds),
        )

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        if not isinstance(data, Mapping):
            raise SchemaError(f"manifest must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        missing = {"seed", "scale"} - set(data)
        if missing:
            raise SchemaError(f"manifest missing required fields: {sorted(missing)}")
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class Metric:
    """One directed scalar: ``direction`` says which way is better."""

    name: str
    value: float
    direction: str = "lower"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"metric name must be a non-empty string, got {self.name!r}")
        if self.direction not in DIRECTIONS:
            raise SchemaError(
                f"metric {self.name!r} direction must be one of {DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise SchemaError(f"metric {self.name!r} value must be a number")
        if not math.isfinite(self.value):
            # NaN/inf would fail open through the diff gate (every NaN
            # comparison is False -> "ok") and break strict JSON.
            raise SchemaError(
                f"metric {self.name!r} value must be finite, got {self.value!r}"
            )


@dataclass
class ExperimentArtifact:
    """The persisted result of one experiment harness run."""

    experiment: str
    paper_section: str
    manifest: RunManifest
    records: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    metrics: List[Metric] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise SchemaError("artifact experiment name must be a non-empty string")
        if not isinstance(self.schema_version, int):
            raise SchemaError("artifact schema_version must be an int")
        if self.schema_version > SCHEMA_VERSION:
            raise SchemaError(
                f"artifact schema_version {self.schema_version} is newer than "
                f"supported version {SCHEMA_VERSION}; upgrade repro.reports"
            )
        if self.schema_version < 1:
            raise SchemaError(
                f"artifact schema_version must be >= 1, got {self.schema_version}"
            )
        if not isinstance(self.manifest, RunManifest):
            raise SchemaError("artifact manifest must be a RunManifest")
        if not isinstance(self.records, list) or any(
            not isinstance(r, dict) for r in self.records
        ):
            raise SchemaError("artifact records must be a list of objects")
        names = [m.name for m in self.metrics]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"duplicate metric names in artifact: {sorted(dupes)}")

    def metric_map(self) -> Dict[str, Metric]:
        return {m.name: m for m in self.metrics}

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": ARTIFACT_KIND,
            "experiment": self.experiment,
            "paper_section": self.paper_section,
            "manifest": jsonify(self.manifest),
            "records": jsonify(self.records),
            "summary": jsonify(self.summary),
            "metrics": jsonify(self.metrics),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ExperimentArtifact":
        if not isinstance(data, Mapping):
            raise SchemaError(f"artifact must be an object, got {type(data).__name__}")
        kind = data.get("kind", ARTIFACT_KIND)
        if kind != ARTIFACT_KIND:
            raise SchemaError(f"not an experiment artifact (kind={kind!r})")
        try:
            metrics = [
                Metric(
                    name=m["name"],
                    value=m["value"],
                    direction=m.get("direction", "lower"),
                )
                for m in data.get("metrics", [])
            ]
        except (TypeError, KeyError) as exc:
            raise SchemaError(f"malformed metric entry: {exc}") from exc
        return cls(
            experiment=data.get("experiment", ""),
            paper_section=data.get("paper_section", ""),
            manifest=RunManifest.from_json_dict(data.get("manifest", {})),
            records=list(data.get("records", [])),
            summary=dict(data.get("summary", {})),
            metrics=metrics,
            schema_version=data.get("schema_version", 0),
        )


# ---------------------------------------------------------------------------
# Disk IO


def artifact_path(directory: Path, experiment: str) -> Path:
    return Path(directory) / f"{experiment}.json"


def write_artifact(artifact: ExperimentArtifact, directory) -> Path:
    """Write one artifact as ``<directory>/<experiment>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = artifact_path(directory, artifact.experiment)
    try:
        # allow_nan=False: a NaN/inf smuggled through records or summary
        # must fail loudly here, not poison downstream parsers.
        text = json.dumps(
            artifact.to_json_dict(), indent=2, sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        raise SchemaError(
            f"artifact {artifact.experiment!r} contains non-finite values: {exc}"
        ) from exc
    path.write_text(text + "\n")
    return path


def load_artifact(path) -> ExperimentArtifact:
    """Load and validate a single artifact file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return ExperimentArtifact.from_json_dict(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_artifacts(directory) -> Dict[str, ExperimentArtifact]:
    """Load every ``*.json`` artifact in a directory, keyed by experiment.

    JSON files whose ``kind`` is not an artifact's are skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise SchemaError(f"artifact directory {directory} does not exist")
    out: Dict[str, ExperimentArtifact] = {}
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
        if isinstance(data, Mapping) and data.get("kind", ARTIFACT_KIND) != ARTIFACT_KIND:
            continue
        artifact = load_artifact(path)
        out[artifact.experiment] = artifact
    return out
