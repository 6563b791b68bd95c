"""Differential harnesses: the line-level MCACHE vs the production paths.

The line-level :class:`~tests.oracles.mcache.MCache` is the reference
model of the hardware.  Three entry points replay a trace through it
and through production code:

* :func:`scalar_reference_simulation` — build a
  :class:`~repro.core.hitmap_sim.HitmapSimulation` by probing a fresh
  line-level cache once per signature: the oracle for
  :meth:`ReuseSession.classify <repro.core.session.ReuseSession.classify>`
  and :func:`~repro.core.hitmap_sim.simulate_hitmap`;
* :func:`run_differential` — replay a trace in (possibly ragged) chunks
  against a persistent line-level cache and a serving cache's
  probe-and-admit step (:func:`probe_and_admit_rows`) and list every
  probe whose state or line differs;
* :func:`run_serve_differential` — replay a trace through a
  :class:`~repro.serving.cache.SignatureResultCache` and through the line-level
  model's data phase (VD bits, write/read, flash invalidation) and list
  every row whose served result differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hitmap import HIT_CODE, MAU_CODE
from repro.core.hitmap_sim import HitmapSimulation
from repro.core.rpq import unique_signatures
from repro.serving.cache import SignatureResultCache
from repro.serving.engine import ServingPolicy
from tests.oracles.hitmap import CODE_TO_STATE, STATE_TO_CODE, HitState
from tests.oracles.mcache import MCache
from tests.oracles.signatures import signatures_to_ints


def scalar_reference_simulation(signatures, num_sets: int,
                                ways: int) -> HitmapSimulation:
    """Signature-phase oracle: probe a fresh line-level MCACHE per vector.

    Multi-word batches are expanded to exact Python integers, since the
    line-level model probes one arbitrary-precision signature at a time.
    """
    cache = MCache(entries=num_sets * ways, ways=ways)
    signatures = signatures_to_ints(signatures)
    num_vectors = len(signatures)
    states = np.empty(num_vectors, dtype=np.int8)
    representative = np.arange(num_vectors, dtype=np.int64)
    owner_row: dict[int, int] = {}
    rejected: set[int] = set()

    for index in range(num_vectors):
        signature = int(signatures[index])
        state, entry_id = cache.lookup_or_insert(signature)
        states[index] = STATE_TO_CODE[state]
        if state is HitState.HIT:
            representative[index] = owner_row[entry_id]
        elif state is HitState.MAU:
            owner_row[entry_id] = index
        else:
            rejected.add(signature)

    return HitmapSimulation(states=states, representative=representative,
                            hits=cache.stats.hits, mau=cache.stats.mau,
                            mnu=cache.stats.mnu,
                            unique_signatures=len(owner_row) + len(rejected))


@dataclass
class DifferentialReport:
    """Outcome of one oracle-vs-production trace replay."""

    probes: int
    chunks: int
    mismatches: list[dict] = field(default_factory=list)
    scalar_stats: dict = field(default_factory=dict)
    vectorized_stats: dict = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.identical:
            return (f"identical over {self.probes} probes "
                    f"in {self.chunks} chunks")
        first = self.mismatches[0]
        return (f"{len(self.mismatches)} mismatches over {self.probes} "
                f"probes; first: {first}")


def _chunks(num_probes: int, chunk_sizes):
    """``(start, stop)`` bounds cycling through ``chunk_sizes``."""
    chunk_sizes = chunk_sizes or [num_probes]
    position = chunk_index = 0
    while position < num_probes:
        size = max(1, int(chunk_sizes[chunk_index % len(chunk_sizes)]))
        yield position, min(position + size, num_probes)
        position += size
        chunk_index += 1


def probe_and_admit_rows(cache: SignatureResultCache,
                         signatures) -> tuple[np.ndarray, np.ndarray]:
    """One batch through a serving cache's probe-and-admit step, as
    per-row ``(state codes, entry ids)``.

    The cache probes and admits each distinct signature once; a
    sequential replay sees every row, so each unique's outcome is
    expanded to its rows, and a MAU unique is MAU on its first row and
    a HIT on every later one.
    """
    uniques, first_index, inverse = unique_signatures(signatures)
    states, entry_ids, _ = cache._probe_and_admit(
        uniques, first_index, inverse, payload_bytes=0, batch_index=0)
    codes = states[inverse]
    later = np.ones(len(codes), dtype=bool)
    later[first_index] = False
    codes[later & (codes == MAU_CODE)] = HIT_CODE
    return codes, entry_ids[inverse]


def run_differential(signatures, entries: int, ways: int,
                     chunk_sizes=None) -> DifferentialReport:
    """Replay a trace through both MCACHE models and diff every probe.

    The trace is replayed in order *without* clearing between chunks:
    each chunk is one batch through a serving cache's probe-and-admit
    step (:func:`probe_and_admit_rows`) (the reuse engine's fresh-cache
    path is covered by comparing ``classify`` outputs directly).
    ``chunk_sizes`` are the batch sizes; the line-level model always
    steps one probe at a time.  Defaults to one single batch.  Besides
    states, entry ids and occupancy, the per-row HIT / MAU / MNU counts
    must equal the line-level model's counters.  The serving cache's
    entry id of a line is its ``(set, way)`` slot, so each probe's id
    must be the slot of the oracle's line for its entry id.
    """
    signatures = np.atleast_1d(np.asarray(signatures))
    scalar_values = signatures_to_ints(signatures)
    scalar = MCache(entries=entries, ways=ways)
    cache = SignatureResultCache(ServingPolicy(entries=entries,
                                                 ways=ways))
    report = DifferentialReport(probes=len(scalar_values), chunks=0)
    row_counts = np.zeros(3, dtype=np.int64)

    for start, stop in _chunks(len(scalar_values), chunk_sizes):
        vec_states, vec_entries = probe_and_admit_rows(
            cache, signatures[start:stop])
        row_counts += np.bincount(vec_states, minlength=3)
        for offset, index in enumerate(range(start, stop)):
            state, entry_id = scalar.lookup_or_insert(
                int(scalar_values[index]))
            slot = scalar.slot(entry_id)
            if (STATE_TO_CODE[state] != int(vec_states[offset])
                    or slot != vec_entries[offset]):
                report.mismatches.append({
                    "probe": index, "signature": int(scalar_values[index]),
                    "scalar": (state.value, slot),
                    "vectorized": (CODE_TO_STATE[int(vec_states[offset])].value,
                                   int(vec_entries[offset]))})
        report.chunks += 1

    if scalar.occupancy() != cache.occupancy():
        report.mismatches.append({"field": "occupancy",
                                  "scalar": scalar.occupancy(),
                                  "vectorized": cache.occupancy()})
    report.scalar_stats = {"hits": scalar.stats.hits, "mau": scalar.stats.mau,
                           "mnu": scalar.stats.mnu}
    report.vectorized_stats = dict(zip(("hits", "mau", "mnu"),
                                       row_counts.tolist()))
    if report.scalar_stats != report.vectorized_stats:
        report.mismatches.append({"field": "stats",
                                  "scalar": report.scalar_stats,
                                  "vectorized": report.vectorized_stats})
    return report


class _TraceHasher:
    """Maps a row ``[p]`` to signature ``trace[p]``: full trace control."""

    def __init__(self, trace: np.ndarray):
        self.trace = trace

    def signatures(self, vectors: np.ndarray, signature_bits: int):
        return self.trace[vectors[:, 0].astype(np.int64)]


def run_serve_differential(signatures, entries: int, ways: int,
                           versions: int = 1, chunk_sizes=None,
                           flash_invalidate: bool = False
                           ) -> DifferentialReport:
    """Diff a serving cache's served rows against the data phase.

    Row ``p`` of the trace is the vector ``[p]`` with signature
    ``signatures[p]``; computing it yields ``p``.  So every served value
    names the row whose computation it reuses, and the cache agrees
    with the line-level model exactly when both reuse the same rows.
    The line-level model is probed once per distinct signature of a
    batch, in first-occurrence order (the cache's insertion order),
    and runs the paper's data phase: a MAU writes its result (VD bit
    set), a HIT with valid data reads it, a HIT without valid data
    recomputes and rewrites, and an MNU computes without storing — once
    per batch, since the cache computes one row per unique signature.
    ``flash_invalidate`` clears every VD bit after each chunk (the
    synchronous design's filter switch), which is the cache's
    ``ttl_batches=0``.  The cache keeps one result per line, i.e. data
    version 0 of a ``versions``-slot line.
    """
    trace = np.atleast_1d(np.asarray(signatures))
    scalar_values = signatures_to_ints(trace)
    scalar = MCache(entries=entries, ways=ways, versions=versions)
    cache = SignatureResultCache(
        ServingPolicy(entries=entries, ways=ways, exact_check=False,
                      ttl_batches=0 if flash_invalidate else None),
        hasher=_TraceHasher(trace))
    report = DifferentialReport(probes=len(trace), chunks=0)
    computed = 0

    for batch, (start, stop) in enumerate(_chunks(len(trace), chunk_sizes)):
        rows = np.arange(start, stop, dtype=np.float64)[:, None]
        served, _ = cache.serve(rows, lambda picks, v=rows: v[picks],
                                  batch)
        # The cache probes each distinct signature of a batch once,
        # in first-occurrence order.
        probed = {signature: scalar.lookup_or_insert(signature)
                  for signature in dict.fromkeys(scalar_values[start:stop])}
        computed_here: dict[int, int] = {}
        for offset, index in enumerate(range(start, stop)):
            signature = int(scalar_values[index])
            state, entry_id = probed[signature]
            if state is HitState.MNU:
                expected = computed_here.setdefault(signature, index)
            elif state is HitState.HIT and scalar.has_data(entry_id):
                expected = scalar.read_data(entry_id)
            else:
                expected = computed_here.setdefault(signature, index)
                scalar.write_data(entry_id, expected)
            if served[offset, 0] != expected:
                report.mismatches.append({
                    "probe": index, "signature": signature,
                    "scalar": expected, "cache": float(served[offset, 0])})
        computed += len(computed_here)
        report.chunks += 1
        if flash_invalidate:
            scalar.invalidate_data()

    counters = cache.counters
    report.scalar_stats = {"computed": computed, "inserted": scalar.stats.mau,
                           "occupancy": scalar.occupancy()}
    report.vectorized_stats = {"computed": counters.computed,
                               "inserted": counters.inserted,
                               "occupancy": cache.occupancy()}
    if report.scalar_stats != report.vectorized_stats:
        report.mismatches.append({"field": "stats",
                                  "scalar": report.scalar_stats,
                                  "cache": report.vectorized_stats})
    return report
