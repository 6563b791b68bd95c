"""Differential oracles: slow, obviously-right twins of production code.

Every oracle here answers a question that exactly one production
function answers in ``src/repro``; the tests replay the same inputs
through both and require bit-identical results.  Two are tolerance
oracles: the sampled reservoir agrees with the exact stream within
tolerance, and the transformer kernels sum and round differently from
their einsum and ``pow`` twins by design, so they agree within 1e-12.
Production code never imports this package, and the public
``repro`` namespaces export none of :data:`ORACLE_NAMES`
(``tests/test_oracle_boundary.py`` checks).

============================================  =======================================================
Oracle                                        Production function it checks
============================================  =======================================================
``mcache.MCache`` (+ ``CacheLine``,          ``repro.core.mcache_vec.VectorizedMCache``
``MCacheStats``, its own counters)            (``probe_batch``, ``insert``), via ``run_differential``
``hitmap.HitState`` / ``hitmap.Hitmap``       ``HitmapSimulation.states`` (the dense int8 codes of
(``CODE_TO_STATE``, ``STATE_TO_CODE``,        ``repro.core.hitmap``): the enum view the line-level
``codes_to_states``, ``states_to_codes``)     ``MCache`` speaks
``hitmap.group_states`` /                     ``simulate_hitmap_interleaved`` /
``group_representative`` / ``group_views``    ``ReuseSession.classify_groups``: group ``g`` of the
                                              interleaved frame, ``[g::groups]``
``differential.scalar_reference_simulation``  ``ReuseSession.classify`` / ``classify_groups``,
                                              ``hitmap_sim.simulate_hitmap(_interleaved)``
``differential.run_differential``             ``SignatureResultCache._probe_and_admit`` (the one
(``differential.probe_and_admit_rows``)       persistent probe-and-admit step) over chunked traces
``differential.run_serve_differential``       ``SignatureResultCache.serve`` (the dense result store)
                                              against the line-level data phase
``serving.ReferenceSignatureResultCache``     ``SignatureResultCache.serve`` / ``_probe_and_admit``
                                              (served bytes, outcomes, counters, snapshots)
``engine.per_call_matmul_groups``             ``ReuseEngine.matmul_groups`` and its
(``engine.per_call_engine``,                  substituted-input ``ReuseSession.ride_groups``
``engine.substitute_segments``)
``engine.scalar_engine``                      ``ReuseEngine`` Hitmaps end to end
``im2col.im2col_reference``                   ``repro.nn.im2col.im2col``
``im2col.col2im_reference``                   ``repro.nn.im2col.col2im`` (values and strides)
``optim.ReferenceSGD/ReferenceAdam``          ``repro.nn.optim`` ``SGD/Adam`` (flat buffer)
``eviction.ReferenceLRU/LFU/SLRU``            ``repro.core.eviction`` ``LRU/LFU/SLRUEviction``
``signatures.words_to_ints`` /                ``repro.core.rpq.pack_bits`` multi-word values
``ints_to_words`` / ``signatures_to_ints``    (and the int <-> words bridge the oracles need)
``reservoir.Reservoir``                       ``repro.obs.metrics.LogHistogram`` percentile reads
                                              (``BatcherTelemetry.latency_hist``)
``layers.EinsumMultiHeadSelfAttention``       ``repro.nn.MultiHeadSelfAttention`` matmul core
                                              and gradients (tolerance oracle, 1e-12)
``layers.PowGELU``                            ``repro.nn.GELU`` multiplied cube, forward and
                                              backward (tolerance oracle, 1e-12)
``layers.TwoPassBatchNorm2D``                 ``repro.nn.BatchNorm2D`` one-pass centring (output,
                                              running statistics, cache: bytes and strides)
``baselines.LoopUnlimitedSimilarityBound``    ``UnlimitedSimilarityBound.layer_report``
                                              (row-sorted distinct-value count)
``pe.PEConfig`` / ``pe.ProcessingElement``    ``repro.accelerator.signature_pipeline``'s PE
                                              timing (fully pipelined MAC, ORg saved cycle)
============================================  =======================================================
"""

#: Every public name the oracles define; none may appear in a public
#: ``repro`` namespace.
ORACLE_NAMES = frozenset({
    "MCache", "CacheLine", "MCacheStats", "DifferentialReport",
    "run_differential", "run_serve_differential", "probe_and_admit_rows",
    "scalar_reference_simulation", "im2col_reference", "ReferenceLRU",
    "ReferenceLFU", "ReferenceSLRU", "words_to_ints", "ints_to_words",
    "signatures_to_ints", "per_call_matmul_groups", "substitute_segments",
    "Reservoir", "col2im_reference", "ReferenceSGD", "ReferenceAdam",
    "EinsumMultiHeadSelfAttention", "PowGELU", "TwoPassBatchNorm2D",
    "LoopUnlimitedSimilarityBound", "PEConfig", "ProcessingElement",
    "ReferenceSignatureResultCache", "HitState", "Hitmap",
    "CODE_TO_STATE", "STATE_TO_CODE", "codes_to_states", "states_to_codes",
    "group_states", "group_representative", "group_views",
})
