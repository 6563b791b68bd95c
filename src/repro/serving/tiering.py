"""The shared second cache tier behind the per-shard L1 caches.

The sharded server's request caches are *L1*: per-shard, signature-
indexed, capacity-bounded set-associative stores.  Under a replacement
policy an L1 line that loses its way forgets its row entirely — the
next probe recomputes it from the model.  :class:`SharedL2Cache` is the
prototype second tier that catches exactly that traffic: one store
shared by **all** shards, keyed by exact payload bytes, consulted only
on L1 miss and written through on compute.

Design points:

* **exactness** — L2 is keyed by the full flattened payload, so a hit
  can only return the row computed for a byte-identical request; the
  ``request_exact``+``per_request`` byte-identity contract is
  unaffected (the golden tiered suite pins it);
* **capacity** — plain LRU over insertion/hit order, in Python dict
  order (deterministic);
* **persistence** — the store round-trips through the commit path the
  server's cache snapshots use, :func:`repro.durable.commit`: a
  versioned JSON manifest plus one dense ``.npz`` of stacked
  payload/row matrices, fsynced and committed manifest last, so a
  crash or a power loss mid-:meth:`flush` leaves the previous complete
  store intact.

Granularity note: this prototype tiers the *request* cache only.
Vector-granularity (per-layer) rows stay per shard — sharing them would
need per-stream keying across engines, which the tiering sweep does not
yet justify.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.durable import commit, read

L2_FORMAT = "repro-serving-l2"
L2_VERSION = 1
L2_MANIFEST = "l2-manifest.json"


class SharedL2Cache:
    """Shared payload→row store consulted on per-shard L1 misses.

    ``directory=None`` keeps the store in memory only (the sweep's
    mode); with a directory, the constructor loads any complete
    persisted store found there and :meth:`flush` writes the current
    contents back, torn-proof.
    """

    def __init__(self, directory=None, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.directory = Path(directory) if directory is not None else None
        self.capacity = capacity
        # payload bytes -> (payload row, result row); dict order is the
        # LRU order (oldest first) — hits reinsert at the end.
        self._store: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        # The unflattened output shape of one request, recorded at
        # insert time so an all-L2-hit batch can still reshape rows.
        self.output_tail: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        # SHA-256 of the parameters whose outputs this store holds;
        # None until a server binds (or a persisted store declares) it.
        self.model_fingerprint: str | None = None
        # Optional telemetry bus (attached by the owning server through
        # :meth:`attach_bus`): persistence transitions emit events;
        # per-lookup traffic is reported in batch deltas by the server
        # instead.
        self.bus = None
        # The warm load's event payload, held until a bus is attached:
        # the load runs here, before any server can attach one.
        self._unreported_load: dict | None = None
        if self.directory is not None \
                and (self.directory / L2_MANIFEST).exists():
            self._load()

    def attach_bus(self, bus) -> None:
        """Emit persistence events on ``bus`` from now on, starting
        with the warm load this store made at construction, if any."""
        self.bus = bus
        if self._unreported_load is not None:
            bus.emit("l2.load", source="l2", **self._unreported_load)
            self._unreported_load = None

    def bind_model(self, fingerprint: str) -> None:
        """Pin the store to one model's parameters.

        Rows are only valid for the weights that computed them (the
        payload key verifies inputs, never weights), so attaching a
        persisted store to a different model refuses loudly instead of
        serving stale outputs.
        """
        if self.model_fingerprint is not None \
                and self.model_fingerprint != fingerprint:
            raise ValueError("this L2 store was populated by a different "
                             "model; its rows would be stale")
        self.model_fingerprint = fingerprint

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------------
    def lookup(self, flat_payload: np.ndarray) -> np.ndarray | None:
        """The stored row for a byte-identical payload, else ``None``."""
        key = np.ascontiguousarray(flat_payload,
                                   dtype=np.float64).tobytes()
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        # Reinsert at the end: dict order is the LRU order.
        del self._store[key]
        self._store[key] = entry
        self.hits += 1
        return entry[1].copy()

    def insert(self, flat_payload: np.ndarray, row: np.ndarray,
               output_tail: tuple | None = None) -> None:
        """Write-through one computed ``(payload, row)`` pair."""
        payload = np.ascontiguousarray(flat_payload, dtype=np.float64)
        key = payload.tobytes()
        self._store.pop(key, None)
        self._store[key] = (payload.copy(),
                            np.asarray(row, dtype=np.float64).copy())
        if output_tail is not None:
            self.output_tail = tuple(int(d) for d in output_tail)
        self.inserts += 1
        while len(self._store) > self.capacity:
            oldest = next(iter(self._store))
            del self._store[oldest]

    def stats_dict(self) -> dict:
        lookups = self.hits + self.misses
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses, "inserts": self.inserts,
                "hit_rate": self.hits / lookups if lookups else 0.0}

    # ------------------------------------------------------------------
    # Persistence (snapshot-format discipline)
    # ------------------------------------------------------------------
    def flush(self) -> dict:
        """Commit the store under :attr:`directory`; returns the manifest."""
        if self.directory is None:
            raise RuntimeError("this L2 store has no directory to "
                               "flush to")
        entries = list(self._store.values())
        payloads, rows = map(np.stack, zip(*entries)) if entries \
            else (np.empty((0, 0)), np.empty((0, 0)))
        manifest = commit(self.directory, L2_MANIFEST, {
            "format": L2_FORMAT,
            "version": L2_VERSION,
            "entries": len(entries),
            "output_tail": list(self.output_tail)
            if self.output_tail is not None else None,
            "model": self.model_fingerprint,
        }, {"payloads": payloads, "rows": rows}, arrays_stem="l2-state")
        if self.bus is not None:
            self.bus.emit("l2.flush", source="l2",
                          entries=len(entries),
                          generation=manifest["generation"])
        return manifest

    def _load(self) -> None:
        manifest, arrays = read(self.directory, L2_MANIFEST, L2_FORMAT,
                                L2_VERSION)
        self.model_fingerprint = manifest.get("model")
        tail = manifest.get("output_tail")
        self.output_tail = tuple(int(d) for d in tail) \
            if tail is not None else None
        for payload, row in zip(arrays["payloads"], arrays["rows"]):
            payload = np.ascontiguousarray(payload, dtype=np.float64)
            self._store[payload.tobytes()] = (payload, row.copy())
        self._unreported_load = {"entries": len(self._store),
                                 "generation": manifest.get("generation")}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SharedL2Cache(entries={len(self._store)}, "
                f"capacity={self.capacity}, "
                f"directory={str(self.directory)!r})")
