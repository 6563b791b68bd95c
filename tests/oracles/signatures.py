"""Exact Python-int views of packed signatures, for the line-level oracle.

Production code only ever sees the packed forms of
:mod:`repro.core.rpq` — 1-D non-negative ``int64`` or 2-D ``uint64``
words.  The line-level MCACHE (``tests/oracles/mcache.py``) probes one
arbitrary-precision integer at a time, and tests build wide traces from
Python ints; these helpers convert between the two.
"""

from __future__ import annotations

import numpy as np

from repro.core.rpq import WORD_BITS, words_for_bits


def words_to_ints(words: np.ndarray) -> np.ndarray:
    """Exact Python integers (object array) for multi-word signatures.

    Words are most-significant first, so each row's big-endian bytes
    concatenate directly into its integer value.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    out = np.empty(len(words), dtype=object)
    data = words.astype(">u8", copy=False).tobytes()
    stride = words.shape[1] * 8 if words.ndim == 2 else 8
    for index in range(len(words)):
        out[index] = int.from_bytes(data[index * stride:(index + 1) * stride],
                                    "big")
    return out


def ints_to_words(values, num_words: int | None = None) -> np.ndarray:
    """Multi-word form of a sequence of non-negative integers.

    Values must be exactly integral: truncating (e.g. a float ``0.5``
    to ``0``) would merge distinct signatures.
    """
    raw = list(values)
    values = [int(v) for v in raw]
    for original, converted in zip(raw, values):
        if original != converted:
            raise ValueError(
                f"signature {original!r} is not an exact integer")
    if any(v < 0 for v in values):
        raise ValueError("signatures must be non-negative")
    needed = max((v.bit_length() for v in values), default=1)
    n_words = max(words_for_bits(needed), num_words or 1)
    out = np.zeros((len(values), n_words), dtype=np.uint64)
    mask = (1 << WORD_BITS) - 1
    for index, value in enumerate(values):
        for col in range(n_words - 1, -1, -1):
            if value == 0:
                break
            out[index, col] = value & mask
            value >>= WORD_BITS
    return out


def signatures_to_ints(signatures) -> np.ndarray:
    """Object array of exact Python ints for either packed form."""
    arr = np.atleast_1d(np.asarray(signatures))
    if arr.ndim == 2:
        return words_to_ints(arr)
    return arr.astype(object)
