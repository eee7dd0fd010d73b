"""The docs name only code that exists.

Every backticked ``repro.…`` dotted name in the user-facing docs must
import (a module, or an attribute reached from one), and every
backticked ``src/repro/…`` path must exist, so a rename or deletion
that leaves a doc behind fails here instead of misleading a reader.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"]

_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+")
_PATH = re.compile(r"src/repro/[\w./]*")


def references(text):
    """The dotted names and source paths in ``text``'s code spans."""
    names, paths = set(), set()
    for span in _SPAN.findall(text):
        names.update(_DOTTED.findall(span))
        paths.update(_PATH.findall(span))
    return names, paths


def resolves(name):
    """Whether ``name`` imports, as a module or a module attribute."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_reference_extraction():
    names, paths = references(
        "use `repro.api.run()` and `python -m repro.reports run`, see "
        "`src/repro/api/topology.py` and `src/repro/dspe/`; not repro.x"
    )
    assert names == {"repro.api.run", "repro.reports"}
    assert paths == {"src/repro/api/topology.py", "src/repro/dspe/"}


def test_resolution_rejects_missing_names():
    assert resolves("repro.api.Topology")
    assert resolves("repro.core.engine.EventLoop")
    assert not resolves("repro.api.NoSuchThing")
    assert not resolves("repro.no_such_module.thing")


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    names, paths = references((ROOT / doc).read_text())
    assert names or paths, f"{doc} names no code; is the pattern stale?"
    unresolved = sorted(n for n in names if not resolves(n))
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert not unresolved and not missing, (unresolved, missing)
