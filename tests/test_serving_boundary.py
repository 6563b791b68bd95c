"""Training never depends on the serving extension.

The paper's MCACHE is flushed per layer during training; serving's
persistent, evicting, snapshotting store is this repository's own
extension and lives in ``repro.serving``.  These guards keep the split
a fact rather than a convention: no module under ``repro.core``,
``repro.training`` or ``repro.nn`` imports ``repro.serving``, and
training's signature phase has no persistent mode to switch on.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import repro
from repro.core.session import ReuseSession

TRAINING_PACKAGES = ("core", "training", "nn")


def _imported_modules(path: Path):
    """Every module name an ``import`` or ``from`` statement names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}"
                        for alias in node.names)


def test_training_packages_never_import_serving():
    root = Path(repro.__file__).parent
    offenders = []
    for package in TRAINING_PACKAGES:
        sources = sorted((root / package).rglob("*.py"))
        assert sources, package
        for path in sources:
            offenders += [f"{path.relative_to(root)}: {name}"
                          for name in _imported_modules(path)
                          if name == "repro.serving"
                          or name.startswith("repro.serving.")]
    assert not offenders


def test_reuse_session_has_no_persistent_mode():
    parameters = inspect.signature(ReuseSession.__init__).parameters
    assert "persistent" not in parameters
    assert list(parameters) == ["self", "entries", "ways"]
