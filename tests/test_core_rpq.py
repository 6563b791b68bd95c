"""Tests for Random Projection with Quantization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rpq import (HASH_BLOCK_ROWS, RPQHasher, pack_bits,
                            pack_projection, packed_unique,
                            signature_via_convolution, unique_signatures,
                            words_for_bits)
from repro.nn.im2col import im2col
from tests.oracles.signatures import ints_to_words, signatures_to_ints


def test_pack_bits_small():
    packed = pack_bits(np.array([[1, 0, 1], [0, 0, 1]]))
    assert list(packed) == [5, 1]


def test_pack_bits_long_signature_uses_multiword_uint64():
    bits = np.ones((2, 70), dtype=np.uint8)
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64
    assert packed.shape == (2, 2)          # (n_vectors, n_words)
    assert int(signatures_to_ints(packed)[0]) == (1 << 70) - 1


def test_identical_vectors_share_signatures():
    hasher = RPQHasher(seed=1)
    vectors = np.vstack([np.ones(9), np.ones(9)])
    sigs = hasher.signatures(vectors, 16)
    assert sigs[0] == sigs[1]


def test_similar_vectors_likely_share_signatures():
    rng = np.random.default_rng(0)
    hasher = RPQHasher(seed=1)
    base = rng.normal(size=(50, 12))
    perturbed = base + rng.normal(0, 1e-4, size=base.shape)
    sig_a = hasher.signatures(base, 20)
    sig_b = hasher.signatures(perturbed, 20)
    match = np.mean([a == b for a, b in zip(sig_a, sig_b)])
    assert match > 0.9


def test_dissimilar_vectors_rarely_share_signatures():
    rng = np.random.default_rng(1)
    hasher = RPQHasher(seed=1)
    a = rng.normal(size=(100, 12))
    b = rng.normal(size=(100, 12))
    sig_a = hasher.signatures(a, 24)
    sig_b = hasher.signatures(b, 24)
    match = np.mean([x == y for x, y in zip(sig_a, sig_b)])
    assert match < 0.1


def test_projection_matrix_is_cached_and_deterministic():
    hasher = RPQHasher(seed=5)
    first = hasher.projection_matrix(9, 16)
    second = hasher.projection_matrix(9, 16)
    assert first is second
    other = RPQHasher(seed=5).projection_matrix(9, 16)
    np.testing.assert_array_equal(first, other)


def test_projection_matrix_prefix_is_stable_under_growth():
    """Regression: growing the signature must keep the first bits'
    filters stable — the n-bit matrix is a column prefix of the
    (n+k)-bit matrix, in whichever order the widths are requested."""
    grow_up = RPQHasher(seed=5)
    narrow = grow_up.projection_matrix(9, 12).copy()
    wide = grow_up.projection_matrix(9, 40)
    np.testing.assert_array_equal(wide[:, :12], narrow)

    shrink_down = RPQHasher(seed=5)
    wide_first = shrink_down.projection_matrix(9, 40).copy()
    narrow_second = shrink_down.projection_matrix(9, 12)
    np.testing.assert_array_equal(wide_first[:, :12], narrow_second)
    np.testing.assert_array_equal(wide_first, wide)

    # Growth must not pin superseded banks: after growing, every cached
    # view for that vector length aliases the *current* (widest) bank.
    bank = grow_up._column_bank(9, 40)
    again = grow_up.projection_matrix(9, 12)
    assert again.base is bank


@settings(deadline=None, max_examples=20)
@given(dim=st.integers(2, 12), bits=st.integers(1, 70),
       extra=st.integers(1, 70))
def test_signature_prefix_property(dim, bits, extra):
    """Signatures for n bits are a bitwise prefix of signatures for
    n + k bits, for any n, k — the §III-D growth contract."""
    rng = np.random.default_rng(dim * 97 + bits)
    vectors = rng.normal(size=(8, dim))
    # Fresh hashers per width, so the comparison spans two independent
    # from-scratch projections.
    narrow_bits = RPQHasher(seed=13).signature_bits_matrix(vectors, bits)
    wide_bits = RPQHasher(seed=13).signature_bits_matrix(vectors,
                                                         bits + extra)
    np.testing.assert_array_equal(wide_bits[:, :bits], narrow_bits)


def test_empty_batch_produces_empty_signatures():
    """Zero-vector batches (an empty layer slice) must not crash the
    hasher."""
    hasher = RPQHasher(seed=1)
    empty = np.empty((0, 5))
    sigs = hasher.signatures(empty, 16)
    assert sigs.shape == (0,)
    wide = hasher.signatures(empty, 70)
    assert wide.shape[0] == 0
    assert hasher.similarity_fraction(empty, 16) == 0.0


def test_public_hasher_api_is_pure_under_in_place_mutation():
    """The public RPQHasher API never returns stale signatures, whatever
    in-place edit happens between calls (regression: it was once routed
    through a hidden per-shape cache)."""
    hasher = RPQHasher(seed=23)
    vectors = np.random.default_rng(8).normal(size=(30, 10))
    hasher.signatures(vectors, 16)
    vectors[0, 1] += 5.0                       # single-element edit
    mutated = hasher.signatures(vectors, 16)
    np.testing.assert_array_equal(
        RPQHasher(seed=23).signatures(vectors, 16), mutated)
    vectors[[2, 5]] = vectors[[5, 2]]          # sum-preserving row swap
    swapped = hasher.signatures(vectors, 16)
    np.testing.assert_array_equal(
        RPQHasher(seed=23).signatures(vectors, 16), swapped)


def test_longer_signatures_find_more_unique_vectors():
    rng = np.random.default_rng(2)
    hasher = RPQHasher(seed=7)
    originals = rng.normal(size=(10, 10))
    copies = [originals + rng.normal(0, 0.01, size=originals.shape)
              for _ in range(10)]
    vectors = np.concatenate([originals] + copies, axis=0)
    short = hasher.unique_vector_count(vectors, 4)
    long = hasher.unique_vector_count(vectors, 40)
    assert short <= long
    # With a long signature the estimate is near the true count of 10.
    assert 8 <= long <= 30


def test_similarity_fraction_bounds():
    rng = np.random.default_rng(3)
    hasher = RPQHasher(seed=1)
    vectors = rng.normal(size=(30, 8))
    fraction = hasher.similarity_fraction(vectors, 16)
    assert 0.0 <= fraction <= 1.0


def test_similarity_fraction_of_identical_vectors_is_high():
    hasher = RPQHasher(seed=1)
    vectors = np.tile(np.arange(6, dtype=float), (10, 1))
    assert hasher.similarity_fraction(vectors, 16) == 0.9


def test_signature_via_convolution_matches_direct_hash():
    """The paper's §III-B1 formulation equals hashing the im2col rows."""
    rng = np.random.default_rng(4)
    image = rng.normal(size=(6, 6))
    kernel_size = 3
    hasher = RPQHasher(seed=9)
    projection = hasher.projection_matrix(kernel_size * kernel_size, 12)

    conv_sigs = signature_via_convolution(image, kernel_size, projection)

    from repro.nn.im2col import im2col
    cols = im2col(image[None, None], kernel_size, kernel_size)
    direct_sigs = hasher.signatures(cols, 12)
    assert list(conv_sigs) == list(direct_sigs)


def test_scale_invariance_of_sign_quantization():
    """Sign-based RPQ hashes direction, not magnitude (documented property)."""
    hasher = RPQHasher(seed=1)
    vector = np.arange(1, 10, dtype=float)
    sigs = hasher.signatures(np.vstack([vector, 3.0 * vector]), 20)
    assert sigs[0] == sigs[1]


@settings(deadline=None, max_examples=25)
@given(n_bits=st.integers(1, 62), n_vectors=st.integers(1, 20))
def test_pack_bits_round_trip_property(n_bits, n_vectors):
    rng = np.random.default_rng(n_bits * 100 + n_vectors)
    bits = rng.integers(0, 2, size=(n_vectors, n_bits))
    packed = pack_bits(bits)
    for row in range(n_vectors):
        expected = int("".join(map(str, bits[row])), 2)
        assert int(packed[row]) == expected


@settings(deadline=None, max_examples=15)
@given(n_bits=st.integers(63, 200), n_vectors=st.integers(1, 8))
def test_pack_bits_round_trip_wide_property(n_bits, n_vectors):
    """Signatures beyond 62 bits pack into multi-word uint64 rows whose
    integer value round-trips exactly."""
    rng = np.random.default_rng(n_bits * 1000 + n_vectors)
    bits = rng.integers(0, 2, size=(n_vectors, n_bits))
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64
    assert packed.shape == (n_vectors, words_for_bits(n_bits))
    values = signatures_to_ints(packed)
    for row in range(n_vectors):
        value = int(values[row])
        assert value.bit_length() <= n_bits
        unpacked = [(value >> (n_bits - 1 - i)) & 1 for i in range(n_bits)]
        assert unpacked == list(bits[row])
    # ints -> words -> ints round-trips through the conversion helpers.
    rebuilt = ints_to_words(values, num_words=packed.shape[1])
    np.testing.assert_array_equal(rebuilt, packed)


@settings(deadline=None, max_examples=15)
@given(image_size=st.integers(4, 9), kernel_size=st.integers(1, 3),
       stride=st.integers(1, 2), n_bits=st.integers(1, 16),
       seed=st.integers(0, 1000))
def test_signature_via_convolution_property(image_size, kernel_size, stride,
                                            n_bits, seed):
    """§III-B1: convolution-formulated signatures equal the matrix product
    (im2col rows hashed directly) for any geometry."""
    from repro.nn.im2col import im2col

    rng = np.random.default_rng(seed)
    image = rng.normal(size=(image_size, image_size))
    hasher = RPQHasher(seed=seed)
    projection = hasher.projection_matrix(kernel_size * kernel_size, n_bits)

    conv_sigs = signature_via_convolution(image, kernel_size, projection,
                                          stride=stride)
    cols = im2col(image[None, None], kernel_size, kernel_size, stride=stride)
    direct_sigs = hasher.signatures(cols, n_bits)
    assert list(conv_sigs) == list(direct_sigs)


@settings(deadline=None, max_examples=20)
@given(dim=st.integers(2, 16), bits=st.integers(1, 32))
def test_signatures_are_deterministic_property(dim, bits):
    rng = np.random.default_rng(dim * 37 + bits)
    vectors = rng.normal(size=(5, dim))
    hasher_a = RPQHasher(seed=11)
    hasher_b = RPQHasher(seed=11)
    assert list(hasher_a.signatures(vectors, bits)) == \
        list(hasher_b.signatures(vectors, bits))


@st.composite
def int64_batches(draw):
    """``(values, bits)``: a few distinct values below ``2**bits``, often
    at the top of that range (near 2^62 for 62 bits), repeated in
    random order; empty and all-equal batches included."""
    bits = draw(st.integers(0, 62))
    top = (1 << bits) - 1
    pool = draw(st.lists(st.integers(max(top - 3, 0), top)
                         | st.integers(0, top), min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), max_size=40))
    return np.array(values, dtype=np.int64), bits


@given(int64_batches())
@settings(max_examples=60, deadline=None)
@example((np.empty(0, dtype=np.int64), 0))
@example((np.full(5, 7, dtype=np.int64), 3))
# 62 value bits + 1 row bit is exactly 63: still packed ...
@example((np.full(2, (1 << 62) - 1, dtype=np.int64), 62))
# ... and one more row needs 64: the np.unique fallback.
@example((np.array([(1 << 62) - 1, 0, (1 << 62) - 1], dtype=np.int64), 62))
def test_packed_group_by_matches_np_unique(batch):
    values, bits = batch
    expected = [array.reshape(-1) for array in np.unique(
        values, return_index=True, return_inverse=True)]
    grouped = packed_unique(values, bits)
    if bits + max(len(values) - 1, 0).bit_length() > 63:
        assert grouped is None
    else:
        for got, want in zip(grouped, expected):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64
    for got, want in zip(unique_signatures(values), expected):
        np.testing.assert_array_equal(got, want)


SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def hash_batches(draw):
    """``(vectors, bits)``: normal rows mixed with rows of zeros,
    ``-0.0``, ``±inf`` or NaN, and with single special entries."""
    bits = draw(st.integers(1, 70))
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = rng.normal(size=(draw(st.integers(0, 24)), dim))
    for row in draw(st.lists(st.integers(0, max(len(vectors) - 1, 0)),
                             max_size=6)):
        if len(vectors):
            vectors[row] = draw(st.sampled_from(SPECIAL_VALUES))
    for row, col in draw(st.lists(st.tuples(st.integers(0, 23),
                                            st.integers(0, 11)),
                                  max_size=4)):
        if row < len(vectors) and col < dim:
            vectors[row, col] = draw(st.sampled_from(SPECIAL_VALUES))
    return vectors, bits


@given(hash_batches())
@settings(max_examples=60, deadline=None)
@example((np.zeros((3, 4)), 52))
@example((np.full((3, 4), -0.0), 53))
@example((np.array([[np.inf, 1.0], [np.nan, 0.0], [-np.inf, 2.0]]), 62))
@example((np.array([[1.0, -2.0], [0.0, 0.0]]), 63))
@example((np.ones((2, 5)), 1))
@example((np.ones((2, 5)), 70))
def test_signatures_equal_packed_bit_matrix(batch):
    """The float pack of :func:`pack_projection` (up to 52 bits) and the
    integer and multi-word packs past it all equal
    ``pack_bits(signature_bits_matrix(...))`` bit for bit."""
    vectors, bits = batch
    hasher = RPQHasher(seed=5)
    with np.errstate(invalid="ignore"):
        expected = pack_bits(hasher.signature_bits_matrix(vectors, bits))
        packed = hasher.signatures(vectors, bits)
    assert packed.dtype == expected.dtype
    np.testing.assert_array_equal(packed, expected)


#: (kernel_h, kernel_w) of a conv whose segment view has rows this long.
SEGMENT_KERNELS = {1: (1, 1), 8: (2, 4), 9: (3, 3), 27: (3, 9),
                   64: (8, 8), 576: (24, 24)}


def _hash_input(rows, length, layout, rng):
    """A ``(rows, length)`` float64 batch in one of the layouts the hasher
    is handed: a fresh array, a conv's ``(N·C, k·k)`` segment view of its
    im2col over NHWC memory, or a column-strided view."""
    if layout == "segment":
        kernel_h, kernel_w = SEGMENT_KERNELS[length]
        channels = 3
        side = max(kernel_h, kernel_w) + int(np.ceil(np.sqrt(
            rows / channels))) + 1
        nhwc = rng.normal(size=(1, side, side, channels))
        nhwc[nhwc < -0.5] = 0.0
        cols = im2col(nhwc.transpose(0, 3, 1, 2), kernel_h, kernel_w)
        return cols.reshape(-1, length)[:rows]
    wide = rng.normal(size=(rows, 2 * length))
    if layout == "strided":
        return wide[:, ::2]
    return np.ascontiguousarray(wide[:, :length])


@pytest.mark.parametrize("layout", ["contiguous", "segment", "strided"])
@pytest.mark.parametrize("rows_of", [lambda b: 0, lambda b: 1,
                                     lambda b: b - 1, lambda b: b,
                                     lambda b: b + 1, lambda b: 3 * b + 5],
                         ids=["0", "1", "B-1", "B", "B+1", "3B+5"])
def test_blocked_signatures_equal_the_unblocked_hash(rows_of, layout):
    """Hashing in blocks of :data:`HASH_BLOCK_ROWS` rows gives, byte for
    byte, the signatures of the bit matrix and of one unblocked
    projection, at every block boundary, vector length and width (both
    packs, the int64 edge and the multi-word form)."""
    rows = rows_of(HASH_BLOCK_ROWS)
    rng = np.random.default_rng(rows)
    hasher = RPQHasher(seed=7)
    for length in SEGMENT_KERNELS:
        vectors = _hash_input(rows, length, layout, rng)
        assert vectors.shape == (rows, length)
        for bits in (1, 20, 52, 53, 62, 63, 70):
            packed = hasher.signatures(vectors, bits)
            from_bits = pack_bits(hasher.signature_bits_matrix(vectors, bits))
            unblocked = pack_projection(hasher.project(vectors, bits))
            for expected in (from_bits, unblocked):
                assert packed.dtype == expected.dtype
                assert packed.shape == expected.shape
                assert packed.tobytes() == expected.tobytes()
