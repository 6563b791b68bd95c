"""The oracles in ``tests/oracles`` never leak into the library.

Production code answers each question exactly once; its slow twins
live with the tests.  These guards keep it that way: importing every
``repro`` module loads nothing from ``tests``, and the public namespaces
export no oracle name.
"""

from __future__ import annotations

import subprocess
import sys

import repro
import repro.accelerator
import repro.core

ORACLE_NAMES = {
    "MCache", "CacheLine", "ScalarMCacheStats", "DifferentialReport",
    "run_differential", "run_serve_differential", "probe_and_admit_rows",
    "scalar_reference_simulation", "im2col_reference", "ReferenceLRU",
    "ReferenceLFU", "ReferenceSLRU", "words_to_ints", "ints_to_words",
    "signatures_to_ints", "per_call_matmul_groups", "substitute_segments",
    "Reservoir", "col2im_reference", "ReferenceSGD", "ReferenceAdam",
    "EinsumMultiHeadSelfAttention", "PowGELU",
    "LoopUnlimitedSimilarityBound", "PEConfig", "ProcessingElement",
    "ReferenceSignatureResultCache",
}

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
