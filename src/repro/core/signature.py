"""The Signature Table.

The Signature Table stores one signature per extracted input vector,
indexed by the vector's position, so the dot-product phase can find the
signature of the vector it is about to process (§III-B3).  MERCURY also
*saves* the signatures produced during the forward propagation of a
layer so that the backward propagation of the previous layer can reuse
them when the filter dimensions match (§III-C2).  The backward call
classifies the reloaded signatures afresh, so the table keeps no
Hitmap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SignatureRecord:
    """The signatures of one layer's set of input vectors."""

    layer: str
    vector_length: int
    signature_bits: int
    signatures: np.ndarray

    @property
    def num_vectors(self) -> int:
        return len(self.signatures)


class SignatureTable:
    """Per-layer store of signatures produced during forward propagation."""

    def __init__(self):
        self._records: dict[str, SignatureRecord] = {}

    def store(self, layer: str, vector_length: int, signature_bits: int,
              signatures: np.ndarray) -> SignatureRecord:
        """Save the signatures computed for ``layer``."""
        record = SignatureRecord(layer=layer, vector_length=vector_length,
                                 signature_bits=signature_bits,
                                 signatures=np.asarray(signatures))
        self._records[layer] = record
        return record

    def lookup(self, layer: str, vector_length: int,
               num_vectors: int) -> SignatureRecord | None:
        """Return a saved record if it is reusable for the given shape.

        The paper reloads forward signatures during backward propagation
        only when the filter dimensions (and therefore the extracted
        vector length and count) match; otherwise signatures are
        recalculated.
        """
        record = self._records.get(layer)
        if record is None:
            return None
        if record.vector_length != vector_length:
            return None
        if record.num_vectors != num_vectors:
            return None
        return record

    def get(self, layer: str) -> SignatureRecord | None:
        return self._records.get(layer)

    def discard(self, layer: str) -> None:
        self._records.pop(layer, None)

    def clear(self) -> None:
        self._records.clear()

    def layers(self) -> list[str]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, layer: str) -> bool:
        return layer in self._records
