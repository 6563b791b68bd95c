"""The Hitmap: per-input-vector HIT / MAU / MNU marks.

The Hitmap is what keeps the accelerator dataflow regular in spite of
skipped computations (§III-B3): before a PE set starts the dot products
for an input vector it consults the Hitmap entry —

* ``HIT``  — an earlier vector produced the same signature and its
  results live in MCACHE; the dot product is skipped.
* ``MAU``  — *miss and update*: the signature was inserted into MCACHE,
  so the PE set must compute and store its result.
* ``MNU``  — *miss no update*: the MCACHE set was full, the signature
  was not inserted; compute but do not store.

The Hitmap is one dense ``int8`` array of these codes per batch — the
``states`` of :class:`~repro.core.hitmap_sim.HitmapSimulation`, and the
codes the serving cache's probe-and-admit loop returns — so no Python
object is ever materialised per vector.
"""

from __future__ import annotations

#: Dense ``int8`` state codes carried by every batch-classification
#: array (``HitmapSimulation.states``, ``SignatureResultCache``'s
#: probe-and-admit).
HIT_CODE: int = 0
MAU_CODE: int = 1
MNU_CODE: int = 2
