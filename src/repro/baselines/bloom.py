"""Bloom-filter similarity detection (the Figure 3 comparison).

The paper contrasts RPQ against a Bloom filter for the task of counting
unique vectors among perturbed copies: for short signatures both
techniques confuse dissimilar vectors, but RPQ converges to the true
number of unique vectors as the signature grows, while the Bloom filter
— which tests *exact* membership of (quantised) vectors — cannot merge
two slightly different copies and keeps over- or under-counting.
"""

from __future__ import annotations

import hashlib

import numpy as np


class BloomFilter:
    """A classic Bloom filter over hashable byte strings."""

    def __init__(self, num_bits: int, num_hashes: int = 3):
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.bits = np.zeros(num_bits, dtype=bool)
        self.items_added = 0

    def _positions(self, item: bytes) -> list[int]:
        positions = []
        for index in range(self.num_hashes):
            digest = hashlib.blake2b(item, digest_size=8,
                                     salt=index.to_bytes(8, "little")).digest()
            positions.append(int.from_bytes(digest, "little") % self.num_bits)
        return positions

    def add(self, item: bytes) -> None:
        for position in self._positions(item):
            self.bits[position] = True
        self.items_added += 1

    def contains(self, item: bytes) -> bool:
        return all(self.bits[position] for position in self._positions(item))


class BloomFilterSimilarity:
    """Counts unique vectors with a Bloom filter over quantised vectors."""

    def __init__(self, num_bits: int, num_hashes: int = 3,
                 quantization_step: float = 0.25):
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        if quantization_step <= 0:
            raise ValueError("quantization_step must be positive")
        self.quantization_step = quantization_step

    def _encode(self, vector: np.ndarray) -> bytes:
        quantised = np.round(np.asarray(vector, dtype=np.float64)
                             / self.quantization_step).astype(np.int64)
        return quantised.tobytes()

    def unique_vector_count(self, vectors: np.ndarray) -> int:
        """Number of vectors the filter believes it has not seen before."""
        vectors = np.atleast_2d(vectors)
        bloom = BloomFilter(self.num_bits, self.num_hashes)
        unique = 0
        for row in vectors:
            encoded = self._encode(row)
            if not bloom.contains(encoded):
                unique += 1
                bloom.add(encoded)
        return unique

    def similarity_fraction(self, vectors: np.ndarray) -> float:
        """Fraction of vectors reported as already seen."""
        vectors = np.atleast_2d(vectors)
        if len(vectors) == 0:
            return 0.0
        unique = self.unique_vector_count(vectors)
        return 1.0 - unique / len(vectors)
