"""Random Projection with Quantization (RPQ).

RPQ multiplies an input vector ``X`` (1 x m) with a random matrix ``R``
(m x n) whose entries are drawn from N(0, 1) and quantizes each element
of the projection by its sign, producing an ``n``-bit *signature*
(§II-A of the paper).  Two vectors that map to the same signature are
close in the original space, so their dot products with any weight
vector are approximately equal — the property MERCURY exploits.

Two hot-path properties of this module matter system-wide:

* **Prefix-stable incremental projections.**  Projection matrices are
  generated column block by column block from per-block seed streams,
  so the matrix for ``n`` bits is always a prefix of the matrix for
  ``n + k`` bits.  Growing the signature length (§III-D adaptation)
  therefore refines the existing partition instead of reshuffling it.

* **Multi-word packed signatures.**  Signatures up to
  ``FAST_PACK_BITS`` bits pack into an ``int64`` vector; longer ones
  (reachable through adaptive length growth) pack into a dense
  ``(n_vectors, n_words)`` ``uint64`` matrix — most-significant word
  first — that downstream group-by code sorts lexicographically, so the
  MCACHE simulations stay vectorised at any signature length.

The module also provides :func:`signature_via_convolution`, the paper's
§III-B1 formulation where each column of ``R`` is re-organised into a
random *filter* and the signature bits fall out of 2D convolutions.
The two formulations produce identical signatures, which the test suite
verifies.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Longest signature packed into a plain int64 array; beyond this the
# representation switches to (n_vectors, n_words) uint64 words.  62 (not
# 63/64) keeps headroom for the MCACHE's set/tag integer arithmetic.
FAST_PACK_BITS = 62

# Longest signature :func:`pack_projection` packs with one float64
# product: every sum of distinct powers of two below 2^53 is exact in
# float64, whatever order the BLAS adds them in.
FLOAT_PACK_BITS = 52

# One 64-bit word per this many signature bits.
WORD_BITS = 64

# Projection matrices grow in column blocks of this many bits; the block
# seed stream makes every block independent of how many blocks follow.
PROJECTION_BLOCK_BITS = 16

# RPQHasher.signatures projects, quantises and packs this many rows at a
# time, so each block's projection is packed while it is still in cache
# (a 2048 x 20 float64 block is 320 kB).  A multiple of the dgemm row
# unroll, so on one BLAS thread a full block's projection equals the
# unblocked GEMM's rows bit for bit; a short last block rounds as a call
# of that many rows always did.
HASH_BLOCK_ROWS = 2048


# ----------------------------------------------------------------------
# Packed-signature representation helpers
# ----------------------------------------------------------------------
def words_for_bits(n_bits: int) -> int:
    """Number of 64-bit words needed for an ``n_bits`` signature."""
    return max(1, -(-int(n_bits) // WORD_BITS))


_BIT_WEIGHTS = (np.uint64(1) << np.arange(WORD_BITS - 1, -1, -1,
                                          dtype=np.uint64))

_FAST_PACK_WEIGHTS: dict[int, np.ndarray] = {}


def _fast_pack_weights(n_bits: int) -> np.ndarray:
    """Cached MSB-first power-of-two weights for the int64 pack path."""
    weights = _FAST_PACK_WEIGHTS.get(n_bits)
    if weights is None:
        weights = (1 << np.arange(n_bits - 1, -1, -1, dtype=np.int64))
        _FAST_PACK_WEIGHTS[n_bits] = weights
    return weights


_FLOAT_PACK_WEIGHTS: dict[int, np.ndarray] = {}


def _float_pack_weights(n_bits: int) -> np.ndarray:
    """Cached MSB-first power-of-two weights for the float pack path."""
    weights = _FLOAT_PACK_WEIGHTS.get(n_bits)
    if weights is None:
        weights = np.ldexp(1.0, np.arange(n_bits - 1, -1, -1))
        _FLOAT_PACK_WEIGHTS[n_bits] = weights
    return weights


def pack_bits_words(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into the multi-word ``(n_vectors, n_words)`` form.

    Words are most-significant first and the bit string is left-padded
    with zeros to a whole number of words, so the integer value of a row
    equals ``int("".join(bits), 2)`` regardless of width.
    """
    bits = np.asarray(bits)
    n_vectors, n_bits = bits.shape
    n_words = words_for_bits(n_bits)
    padded = np.zeros((n_vectors, n_words * WORD_BITS), dtype=np.uint64)
    padded[:, n_words * WORD_BITS - n_bits:] = bits
    grouped = padded.reshape(n_vectors, n_words, WORD_BITS)
    return (grouped * _BIT_WEIGHTS).sum(axis=2, dtype=np.uint64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack rows of 0/1 bits into integer signatures.

    Signatures of up to ``FAST_PACK_BITS`` bits (the common case) come
    back as an ``int64`` array so downstream group-by operations stay
    vectorised; longer signatures — reachable through the adaptive
    length growth — come back as the multi-word ``(n_vectors, n_words)``
    ``uint64`` representation, which the group-by code handles with a
    lexicographic row sort.  Either way the result is a valid argument
    to :func:`coerce_packed`: never negative, never an object array.

    Parameters
    ----------
    bits:
        Array of shape ``(n_vectors, n_bits)`` containing 0/1 values.

    Returns
    -------
    numpy.ndarray
        ``(n_vectors,)`` int64 array, or ``(n_vectors, n_words)`` uint64
        array for signatures longer than ``FAST_PACK_BITS`` bits.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("pack_bits expects a 2D (n_vectors, n_bits) array")
    n_vectors, n_bits = bits.shape

    if n_bits <= FAST_PACK_BITS:
        # Fast vectorised path for the common case: an integer matvec,
        # with the weight vector cached per bit count.
        weights = _fast_pack_weights(n_bits)
        return bits.astype(np.int64, copy=False) @ weights
    return pack_bits_words(bits)


def pack_projection(projected: np.ndarray) -> np.ndarray:
    """Pack the sign bits of a fresh ``(n_vectors, n_bits)`` projection.

    Equal to ``pack_bits((projected >= 0.0).astype(np.uint8))``.  Up to
    :data:`FLOAT_PACK_BITS` bits the sign quantisation writes 1.0/0.0
    into ``projected`` itself, so the projection costs no second
    buffer, and one float64 product with power-of-two weights packs it
    exactly — cheaper than the 0/1 matrix plus integer matvec that
    longer signatures take.  ``projected`` is overwritten.
    """
    n_bits = projected.shape[1]
    if n_bits > FLOAT_PACK_BITS:
        return pack_bits((projected >= 0.0).astype(np.uint8))
    signs = np.greater_equal(projected, 0.0, out=projected)
    return (signs @ _float_pack_weights(n_bits)).astype(np.int64)


def pad_words(words: np.ndarray, num_words: int) -> np.ndarray:
    """Left-pad (most-significant side) to ``num_words`` columns."""
    words = np.asarray(words, dtype=np.uint64)
    if words.shape[1] >= num_words:
        return words
    padding = np.zeros((len(words), num_words - words.shape[1]),
                       dtype=np.uint64)
    return np.hstack([padding, words])


def coerce_packed(signatures) -> np.ndarray:
    """Check a packed-signature argument and return it as an array.

    The single place the accepted-dtype contract lives, shared by the
    insert, probe and stateless-simulation paths so they cannot drift.
    Packed signatures are exactly what :func:`pack_bits` emits: a 1-D
    array of non-negative ``int64`` values, or a 2-D ``(n_vectors,
    n_words)`` ``uint64`` array of multi-word values.  (An empty 1-D
    sequence of any dtype counts as an empty ``int64`` batch.)  Anything
    else raises ``ValueError`` rather than being silently wrapped,
    truncated or widened.
    """
    arr = np.atleast_1d(np.asarray(signatures))
    if arr.ndim == 1:
        if arr.dtype == np.int64:
            if len(arr) and arr.min() < 0:
                raise ValueError("signatures must be non-negative")
            return arr
        if arr.size == 0:
            return arr.astype(np.int64)
    elif arr.ndim == 2 and arr.dtype == np.uint64:
        return arr
    raise ValueError(
        f"packed signatures must be 1-D int64 or 2-D uint64 words, got a "
        f"{arr.ndim}-D {arr.dtype} array")


def signature_words(signatures, num_words: int | None = None) -> np.ndarray:
    """Normalise a packed-signature batch to multi-word form."""
    words = coerce_packed(signatures)
    if words.ndim == 1:
        words = words.astype(np.uint64)[:, None]
    if num_words is not None:
        words = pad_words(words, num_words)
    return words


def words_mod(words: np.ndarray, modulus: int) -> np.ndarray:
    """``value % modulus`` per multi-word row, without big-int overhead.

    Folds the words most-significant first (``acc = (acc * 2^64 + word)
    % m``) entirely in uint64 arithmetic; exact because ``m < 2^31``
    bounds every intermediate below 2^64.  No MCACHE has that many sets,
    so larger moduli raise.
    """
    words = np.asarray(words, dtype=np.uint64)
    m = int(modulus)
    if m <= 0:
        raise ValueError("modulus must be positive")
    if m >= (1 << 31):
        raise ValueError("modulus must be below 2^31")
    if m == 1:
        return np.zeros(len(words), dtype=np.int64)
    shift = np.uint64((1 << WORD_BITS) % m)
    mod = np.uint64(m)
    acc = np.zeros(len(words), dtype=np.uint64)
    for col in range(words.shape[1]):
        acc = (acc * shift + words[:, col] % mod) % mod
    return acc.astype(np.int64)


def _unique_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Lexicographic row group-by: (uniques, first_index, inverse).

    A stable multi-key sort over the word columns followed by run
    detection — substantially faster than ``np.unique(axis=0)``'s
    void-view sort, and the stability guarantees ``first_index`` is
    each value's first occurrence in arrival order.
    """
    num_rows = len(words)
    # lexsort's last key is primary, so feed columns least-significant
    # first; the result orders rows by integer value, ties in arrival
    # order (lexsort is stable).
    order = np.lexsort(tuple(words[:, col]
                             for col in range(words.shape[1] - 1, -1, -1)))
    sorted_words = words[order]
    new_group = np.ones(num_rows, dtype=bool)
    new_group[1:] = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    group_ids = np.cumsum(new_group) - 1
    inverse = np.empty(num_rows, dtype=np.int64)
    inverse[order] = group_ids
    first_index = order[new_group]
    uniques = sorted_words[new_group]
    return uniques, first_index, inverse


def packed_unique(values: np.ndarray, value_bits: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``np.unique(values, return_index=True, return_inverse=True)`` by
    one sort of packed ``(value, row)`` keys.

    ``values`` is 1-D, non-negative ``int64`` and below
    ``2**value_bits``.  Each key is ``value << row_bits | row``; the keys
    are distinct, so an unstable (SIMD) ``np.sort`` of the keys
    themselves yields exactly the stable order — equal values adjacent,
    in arrival order — and the row falls out of the low bits.  That
    replaces ``np.unique``'s stable argsort plus its gathers.  Returns
    ``None`` when the key would not fit 63 bits; the caller then groups
    another way.
    """
    num_rows = len(values)
    row_bits = max(num_rows - 1, 0).bit_length()
    if value_bits + row_bits > 63:
        return None
    keys = values << row_bits
    keys |= np.arange(num_rows)
    keys.sort()
    sorted_values = keys >> row_bits
    rows = keys & ((1 << row_bits) - 1)
    new_group = np.empty(num_rows, dtype=bool)
    new_group[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new_group[1:])
    group_ids = new_group.cumsum()
    group_ids -= 1
    inverse = np.empty(num_rows, dtype=np.int64)
    inverse[rows] = group_ids
    firsts = new_group.nonzero()[0]
    return sorted_values[firsts], rows[firsts], inverse


def unique_signatures(signatures) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group-by for any packed representation.

    Returns ``(unique_values, first_index, inverse)`` exactly like
    ``np.unique(..., return_index=True, return_inverse=True)``.  1-D
    ``int64`` batches group by :func:`packed_unique` while value and
    row index fit one 63-bit key, and by ``np.unique`` beyond; the
    multi-word form groups by lexicographic row sort, so nothing drops
    to Python loops past 62 bits.
    """
    arr = np.atleast_1d(np.asarray(signatures))
    if arr.ndim == 2:
        return _unique_words(arr)
    if arr.dtype == np.int64 and len(arr):
        # The OR of all values is negative iff one of them is, and as
        # wide as the widest.
        widest = int(np.bitwise_or.reduce(arr))
        if widest >= 0:
            grouped = packed_unique(arr, widest.bit_length())
            if grouped is not None:
                return grouped
    uniques, first_index, inverse = np.unique(
        arr, return_index=True, return_inverse=True)
    return uniques, first_index, inverse.reshape(-1)


# ----------------------------------------------------------------------
# Hashing
# ----------------------------------------------------------------------
class RPQHasher:
    """Generates RPQ signatures for batches of vectors.

    Projection matrices are generated lazily per vector length, in
    column blocks of :data:`PROJECTION_BLOCK_BITS` bits seeded per
    (hasher seed, vector length, block index).  Growing the signature
    length therefore *appends* columns and never changes the earlier
    ones: signatures for ``n`` bits are a bitwise prefix of signatures
    for ``n + k`` bits, and forward/backward passes of the same layer —
    and repeated runs — see the same projections.
    """

    def __init__(self, seed: int = 1234):
        self.seed = seed
        # vector_length -> (L, n_generated) column bank, grown in blocks.
        self._column_banks: dict[int, np.ndarray] = {}
        # (vector_length, signature_bits) -> cached prefix view.
        self._matrices: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _column_bank(self, vector_length: int, signature_bits: int) -> np.ndarray:
        """The widest matrix generated so far, grown to cover the request."""
        bank = self._column_banks.get(vector_length)
        have = 0 if bank is None else bank.shape[1]
        if have < signature_bits:
            blocks = [] if bank is None else [bank]
            first_block = have // PROJECTION_BLOCK_BITS
            last_block = (signature_bits - 1) // PROJECTION_BLOCK_BITS
            for block in range(first_block, last_block + 1):
                rng = np.random.default_rng(
                    (self.seed, vector_length, block))
                blocks.append(rng.normal(
                    0.0, 1.0,
                    size=(vector_length, PROJECTION_BLOCK_BITS)))
            bank = np.concatenate(blocks, axis=1) if len(blocks) > 1 \
                else blocks[0]
            self._column_banks[vector_length] = bank
            # Cached prefix views alias the superseded bank via .base
            # and would pin it for the hasher's lifetime; drop them —
            # the next request re-slices the grown bank, whose prefix
            # columns are identical by construction.
            self._matrices = {key: view
                              for key, view in self._matrices.items()
                              if key[0] != vector_length}
        return bank

    def projection_matrix(self, vector_length: int,
                          signature_bits: int) -> np.ndarray:
        """Return (and cache) the m x n random projection matrix.

        The matrix for ``n`` bits is a zero-copy column-prefix view of
        the widest matrix generated for this vector length, so growing
        the signature keeps the first bits' filters stable — the
        regression tests assert the prefix property directly.
        """
        key = (vector_length, signature_bits)
        if key not in self._matrices:
            bank = self._column_bank(vector_length, signature_bits)
            self._matrices[key] = bank[:, :signature_bits]
        return self._matrices[key]

    def project(self, vectors: np.ndarray, signature_bits: int) -> np.ndarray:
        """Random projection without quantization: ``X @ R``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        matrix = self.projection_matrix(vectors.shape[1], signature_bits)
        return vectors @ matrix

    # ------------------------------------------------------------------
    def signature_bits_matrix(self, vectors: np.ndarray,
                              signature_bits: int) -> np.ndarray:
        """Return the 0/1 bit matrix (sign quantization of the projection)."""
        projected = self.project(vectors, signature_bits)
        return (projected >= 0.0).astype(np.uint8)

    def signatures(self, vectors: np.ndarray, signature_bits: int) -> np.ndarray:
        """Return one packed integer signature per row of ``vectors``.

        Equal to ``pack_bits(self.signature_bits_matrix(vectors,
        signature_bits))``.  Rows are projected :data:`HASH_BLOCK_ROWS`
        at a time into one reused scratch block, which is quantised in
        place and packed before the next block is projected, so the
        sign pass and the pack read it from cache.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        matrix = self.projection_matrix(vectors.shape[1], signature_bits)
        num_rows = len(vectors)
        if signature_bits <= FAST_PACK_BITS:
            packed = np.empty(num_rows, dtype=np.int64)
        else:
            packed = np.empty((num_rows, words_for_bits(signature_bits)),
                              dtype=np.uint64)
        part = np.empty((min(num_rows, HASH_BLOCK_ROWS), signature_bits))
        for lo in range(0, num_rows, HASH_BLOCK_ROWS):
            hi = min(lo + HASH_BLOCK_ROWS, num_rows)
            block = part[:hi - lo]
            np.matmul(vectors[lo:hi], matrix, out=block)
            packed[lo:hi] = pack_projection(block)
        return packed

    # ------------------------------------------------------------------
    def similarity_fraction(self, vectors: np.ndarray,
                            signature_bits: int) -> float:
        """Fraction of vectors whose signature repeats an earlier one.

        This is the quantity plotted per layer in Figure 1 of the paper
        ("input similarity"): a vector is *similar* if at least one
        earlier vector produced the same signature.  Exactly the number
        of non-first occurrences, computed with one ``np.unique``
        group-by for either packed representation.
        """
        sigs = self.signatures(vectors, signature_bits)
        total = len(sigs)
        if total == 0:
            return 0.0
        uniques, _, _ = unique_signatures(sigs)
        return (total - len(uniques)) / total

    def unique_vector_count(self, vectors: np.ndarray,
                            signature_bits: int) -> int:
        """Number of distinct signatures (Figure 3 / Figure 15c)."""
        sigs = self.signatures(vectors, signature_bits)
        uniques, _, _ = unique_signatures(sigs)
        return len(uniques)


def signature_via_convolution(image: np.ndarray, kernel_size: int,
                              random_filters: np.ndarray,
                              stride: int = 1) -> np.ndarray:
    """Compute signatures using the paper's convolution formulation.

    Each column of the random projection matrix is reshaped into a
    ``kernel_size x kernel_size`` random filter; sliding each filter over
    the image produces one bit of every input vector's signature
    (§III-B1).  The sliding is a zero-copy strided window view and all
    filters are applied in a single matrix product, so the result is
    bit-identical to hashing the im2col rows directly — which the test
    suite asserts.

    Parameters
    ----------
    image:
        2D input matrix of shape ``(H, W)`` (single channel).
    kernel_size:
        Side length of the extracted input vectors.
    random_filters:
        Projection matrix of shape ``(kernel_size * kernel_size, n_bits)``.

    Returns
    -------
    numpy.ndarray
        Packed integer signature per input vector, ordered row-major
        over the output positions.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("signature_via_convolution expects a 2D image")
    height, width = image.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1

    stride_h, stride_w = image.strides
    windows = as_strided(
        image,
        shape=(out_h, out_w, kernel_size, kernel_size),
        strides=(stride_h * stride, stride_w * stride, stride_h, stride_w),
        writeable=False)
    patches = windows.reshape(out_h * out_w, kernel_size * kernel_size)
    projected = patches @ np.asarray(random_filters, dtype=np.float64)
    return pack_projection(projected)
