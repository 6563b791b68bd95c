"""The oracles in ``tests/oracles`` never leak into the library.

Production code answers each question exactly once; its slow twins
live with the tests.  These guards keep it that way: importing every
``repro`` module loads nothing from ``tests``, the public namespaces
export no oracle name, and ``repro.core`` keeps no training-side copy
of the signature phase's result beside the one ``HitmapSimulation``.
"""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import repro
import repro.accelerator
import repro.core
from tests.oracles import ORACLE_NAMES

#: The enum Hitmap view and the line-level cache's counters moved to
#: the oracles; the per-group result sequence is gone.  ``repro.core``
#: must neither export nor define any of them again.
RETIRED_FROM_CORE = {"HitState", "Hitmap", "GroupedSimulation",
                     "MCacheStats"}

_IMPORT_EVERYTHING = """
import pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
leaked = sorted(name for name in sys.modules
                if name == "tests" or name.startswith("tests."))
print(",".join(leaked))
"""


def test_importing_repro_loads_no_test_module():
    result = subprocess.run([sys.executable, "-c", _IMPORT_EVERYTHING],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == ""


def test_public_namespaces_export_no_oracle():
    for namespace in (repro, repro.core, repro.accelerator):
        exported = set(getattr(namespace, "__all__", ())) | set(
            vars(namespace))
        assert not exported & ORACLE_NAMES, namespace.__name__


def test_core_keeps_no_retired_hitmap_copy():
    modules = [repro.core] + [
        importlib.import_module(module.name)
        for module in pkgutil.walk_packages(repro.core.__path__,
                                            "repro.core.")]
    for module in modules:
        defined = set(getattr(module, "__all__", ())) | set(vars(module))
        assert not defined & RETIRED_FROM_CORE, module.__name__
