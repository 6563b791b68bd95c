"""The line-level MCACHE: the hardware model every batch path is checked
against.

MCACHE differs from a conventional cache in two ways (§III-B3):

1. The tag (a signature) is produced *before* the data (a dot product
   result), so each line carries separate Valid-Tag (VT) and Valid-Data
   (VD) bits.
2. There is **no replacement**: when a set is full, new signatures are
   simply not inserted (the corresponding Hitmap entry becomes MNU).

For the asynchronous PE-set design each line holds multiple data
versions — one per in-flight filter (§III-C1, Figure 11).  The
synchronous design uses one version and flash-invalidates every VD bit
when the filter changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tests.oracles.hitmap import HitState


@dataclass
class CacheLine:
    """One MCACHE line: a tag with VT/VD bits and versioned data slots."""

    tag: int | None = None
    valid_tag: bool = False
    valid_data: list = field(default_factory=list)
    data: list = field(default_factory=list)
    entry_id: int = -1

    def reset(self) -> None:
        self.tag = None
        self.valid_tag = False
        for i in range(len(self.valid_data)):
            self.valid_data[i] = False
            self.data[i] = None


@dataclass
class MCacheStats:
    """The line-level cache's own access counters: the signature
    phase's HIT/MAU/MNU probes and the data phase's reads and writes."""

    hits: int = 0
    mau: int = 0
    mnu: int = 0
    data_reads: int = 0
    data_writes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.mau + self.mnu

    def as_fractions(self) -> dict:
        total = max(self.accesses, 1)
        return {"HIT": self.hits / total, "MAU": self.mau / total,
                "MNU": self.mnu / total}


class MCache:
    """Set-associative, no-replacement cache keyed by signatures.

    Parameters
    ----------
    entries:
        Total number of cache lines.
    ways:
        Associativity; ``entries`` must be divisible by ``ways``.
    versions:
        Data versions per line (1 for the synchronous design, one per
        concurrently-active filter for the asynchronous design).
    """

    def __init__(self, entries: int = 1024, ways: int = 16, versions: int = 1):
        if entries <= 0 or ways <= 0 or versions <= 0:
            raise ValueError("entries, ways and versions must be positive")
        if entries % ways != 0:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.versions = versions
        self.num_sets = entries // ways
        self._next_entry_id = 0
        self._sets = [[self._new_line() for _ in range(ways)]
                      for _ in range(self.num_sets)]
        # entry_id -> (set index, way index) for id-based access (§V).
        self._id_index: dict[int, tuple[int, int]] = {}
        self.stats = MCacheStats()

    def _new_line(self) -> CacheLine:
        return CacheLine(valid_data=[False] * self.versions,
                         data=[None] * self.versions)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def set_index(self, signature: int) -> int:
        """Cache set for a signature (low-order bits)."""
        return signature % self.num_sets

    def tag(self, signature: int) -> int:
        """Tag portion of a signature (remaining high-order bits)."""
        return signature // self.num_sets

    # ------------------------------------------------------------------
    # Signature phase (builds the Hitmap)
    # ------------------------------------------------------------------
    def lookup_or_insert(self, signature: int) -> tuple[HitState, int]:
        """Probe MCACHE with a signature during the signature phase.

        Returns the resulting Hitmap state together with the cache
        entry id (-1 when the signature could not be inserted, i.e.
        MNU).  Follows exactly the flow of Figure 9.
        """
        set_idx = self.set_index(signature)
        tag = self.tag(signature)
        lines = self._sets[set_idx]

        for line in lines:
            if line.valid_tag and line.tag == tag:
                self.stats.hits += 1
                return HitState.HIT, line.entry_id

        for way, line in enumerate(lines):
            if not line.valid_tag:
                line.tag = tag
                line.valid_tag = True
                line.entry_id = self._next_entry_id
                self._id_index[line.entry_id] = (set_idx, way)
                self._next_entry_id += 1
                self.stats.mau += 1
                return HitState.MAU, line.entry_id

        self.stats.mnu += 1
        return HitState.MNU, -1

    def probe(self, signature: int) -> tuple[bool, int]:
        """Non-mutating lookup; returns (present, entry_id)."""
        set_idx = self.set_index(signature)
        tag = self.tag(signature)
        for line in self._sets[set_idx]:
            if line.valid_tag and line.tag == tag:
                return True, line.entry_id
        return False, -1

    def slot(self, entry_id: int) -> int:
        """``set * ways + way`` of the line holding ``entry_id``; -1 for
        the -1 of an MNU.  The batch MCACHE names its lines this way."""
        if entry_id < 0:
            return -1
        set_idx, way = self._id_index[entry_id]
        return set_idx * self.ways + way

    # ------------------------------------------------------------------
    # Data phase (results computed / reused during dot products)
    # ------------------------------------------------------------------
    def _line_by_id(self, entry_id: int) -> CacheLine:
        if entry_id not in self._id_index:
            raise KeyError(f"unknown MCACHE entry id {entry_id}")
        set_idx, way = self._id_index[entry_id]
        return self._sets[set_idx][way]

    def write_data(self, entry_id: int, value, version: int = 0) -> None:
        """Store a computed result in a line's data slot and set its VD bit."""
        if not 0 <= version < self.versions:
            raise IndexError(f"version {version} out of range")
        line = self._line_by_id(entry_id)
        line.data[version] = value
        line.valid_data[version] = True
        self.stats.data_writes += 1

    def read_data(self, entry_id: int, version: int = 0):
        """Fetch a previously stored result; raises if VD is unset."""
        if not 0 <= version < self.versions:
            raise IndexError(f"version {version} out of range")
        line = self._line_by_id(entry_id)
        if not line.valid_data[version]:
            raise LookupError(
                f"entry {entry_id} version {version} has no valid data")
        self.stats.data_reads += 1
        return line.data[version]

    def has_data(self, entry_id: int, version: int = 0) -> bool:
        line = self._line_by_id(entry_id)
        return line.valid_data[version]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_data(self, version: int | None = None) -> None:
        """Clear VD bits (tags stay valid).

        The synchronous design does this whenever a new filter is
        loaded — results belong to the previous filter, but signatures
        (tags) describe the unchanged input vectors.
        """
        for lines in self._sets:
            for line in lines:
                if version is None:
                    for i in range(self.versions):
                        line.valid_data[i] = False
                        line.data[i] = None
                else:
                    line.valid_data[version] = False
                    line.data[version] = None

    def clear(self) -> None:
        """Full reset (new channel / new set of input vectors)."""
        for lines in self._sets:
            for line in lines:
                line.reset()
        self._id_index.clear()
        self._next_entry_id = 0

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of lines with a valid tag."""
        return sum(1 for lines in self._sets for line in lines if line.valid_tag)

    def utilization(self) -> float:
        return self.occupancy() / self.entries

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MCache(entries={self.entries}, ways={self.ways}, "
                f"versions={self.versions}, occupancy={self.occupancy()})")
