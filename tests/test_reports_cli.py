"""End-to-end CLI: run -> render -> diff."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.reports.__main__ import main
from repro.reports import load_artifacts

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """One tiny real `run` shared by the CLI tests (table1 is cheapest)."""
    base = tmp_path_factory.mktemp("cli")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(
            [
                "run",
                "--scale", "0.01",
                "--experiments", "table1",
                "--out", str(base / "results"),
            ]
        )
    assert rc == 0
    return base, stdout.getvalue()


@pytest.fixture(scope="module")
def run_dir(run_output):
    return run_output[0]


class TestRun:
    def test_writes_artifact_and_bench(self, run_output):
        run_dir, stdout = run_output
        artifacts = load_artifacts(run_dir / "results")
        assert list(artifacts) == ["table1"]
        a = artifacts["table1"]
        assert a.manifest.scale == 0.01
        assert len(a.records) == 8  # one per Table I dataset
        assert a.metrics and a.summary
        # Timing lives in the manifest and on stdout, never in a
        # separate snapshot file.
        assert a.manifest.duration_seconds > 0
        written = [p.relative_to(run_dir) for p in run_dir.rglob("*.json")]
        assert written == [Path("results") / "table1.json"]
        assert re.search(r"sweep wall clock [0-9.]+s at jobs=[1-9]", stdout)

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--experiments", "nope", "--out", str(tmp_path)])


class TestRender:
    def test_render_and_check(self, run_dir):
        out = run_dir / "EXPERIMENTS.md"
        assert main(
            ["render", "--results", str(run_dir / "results"), "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "## Table I" in text and "GENERATED FILE" in text
        assert main(
            ["render", "--results", str(run_dir / "results"),
             "--out", str(out), "--check"]
        ) == 0
        out.write_text(text + "stale\n")
        assert main(
            ["render", "--results", str(run_dir / "results"),
             "--out", str(out), "--check"]
        ) == 1

    def test_render_empty_dir_errors(self, tmp_path):
        (tmp_path / "r").mkdir()
        assert main(["render", "--results", str(tmp_path / "r")]) == 2

    def test_render_missing_dir_errors(self, tmp_path):
        assert main(["render", "--results", str(tmp_path / "missing")]) == 2


class TestDiff:
    def test_identical_sets_exit_zero(self, run_dir):
        results = str(run_dir / "results")
        assert main(["diff", results, results]) == 0

    def test_injected_regression_exits_nonzero(self, run_dir, tmp_path):
        src = run_dir / "results" / "table1.json"
        data = json.loads(src.read_text())
        for metric in data["metrics"]:
            metric["value"] *= 10  # worse p1 calibration across the board
        worse = tmp_path / "worse"
        worse.mkdir()
        (worse / "table1.json").write_text(json.dumps(data))
        assert main(["diff", str(run_dir / "results"), str(worse)]) == 1
        # The same movement in the *good* direction is not a regression.
        assert main(["diff", str(worse), str(run_dir / "results")]) == 0

    def test_single_file_arguments(self, run_dir):
        src = str(run_dir / "results" / "table1.json")
        assert main(["diff", src, src]) == 0

    def test_missing_path_is_an_error_not_a_regression(self, run_dir, capsys):
        # Exit 2 (error), distinguishable from exit 1 (regressed).
        results = str(run_dir / "results")
        assert main(["diff", str(run_dir / "nope"), results]) == 2
        assert "does not exist" in capsys.readouterr().err
