"""Property suite for the shared signature-phase core.

The plain signature phase (``simulate_hitmap``, ``ReuseSession.classify``)
and the grouped one over the interleaved frame
(``simulate_hitmap_interleaved``, ``ReuseSession.classify_groups``) run
one core in ``repro.core.hitmap_sim``.  Row ``n * groups + g`` of the
frame is the ``n``-th signature of group ``g``, and every group sees its
own fresh MCACHE.  Each group of the result must equal the line-level
MCACHE replay of that group's rows (``scalar_reference_simulation``):
each group's strided view of the frame's states and representatives,
the frame's HIT / MAU / MNU and unique totals, the plain core on each
group's rows, and the session's result and clears.

Signatures come from a small pool packed into one or two cache sets, so
sets overfill and the admission order (first arrival, not signature
value) decides which signatures are rejected.  Widths run from 1 to 62
bits, where wide keys leave the fused-key sort for the lexicographic
one, plus a >62-bit multi-word case.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hitmap_sim import simulate_hitmap, simulate_hitmap_interleaved
from repro.core.session import ReuseSession
from tests.helpers import assert_simulations_equal
from tests.oracles.differential import scalar_reference_simulation
from tests.oracles.hitmap import group_representative, group_states
from tests.oracles.signatures import ints_to_words

MULTIWORD_BITS = 70


def _frame(seed: int, groups: int, rows: int, num_sets: int, bits: int,
           pool_size: int):
    """``groups * rows`` interleaved signatures drawn from a pool whose
    values crowd into two cache sets."""
    rng = np.random.default_rng(seed)
    hot_sets = rng.integers(0, num_sets, size=2)
    value_bits = min(bits, 62)
    tags = rng.integers(0, max((1 << value_bits) // num_sets, 1),
                        size=pool_size)
    pool = [(int(hot_sets[i % 2]) + num_sets * int(tag)) % (1 << value_bits)
            for i, tag in enumerate(tags)]
    if bits > 62:
        pool = [(1 << (bits - 1)) + value for value in pool]
    draws = [pool[i] for i in rng.integers(0, pool_size, size=groups * rows)]
    if bits > 62:
        return ints_to_words(np.array(draws, dtype=object), num_words=2)
    return np.array(draws, dtype=np.int64)


@given(groups=st.integers(1, 70), rows=st.integers(0, 300),
       num_sets=st.sampled_from([1, 3, 5, 60, 64]),
       ways=st.integers(1, 16),
       bits=st.integers(1, 62) | st.just(MULTIWORD_BITS),
       pool_size=st.integers(1, 40), seed=st.integers(0, 2 ** 31),
       claim=st.sampled_from(["none", "exact", "short"]))
# Overfull sets where arrival order and signature order disagree, on
# the fused-key path and on the lexicographic one.
@example(groups=3, rows=40, num_sets=3, ways=2, bits=12, pool_size=12,
         seed=5, claim="exact")
@example(groups=2, rows=60, num_sets=1, ways=3, bits=62, pool_size=9,
         seed=7, claim="exact")
@example(groups=4, rows=30, num_sets=5, ways=1, bits=MULTIWORD_BITS,
         pool_size=10, seed=3, claim="none")
@settings(max_examples=25, deadline=None)
def test_interleaved_groups_match_the_line_level_replay(
        groups, rows, num_sets, ways, bits, pool_size, seed, claim):
    signatures = _frame(seed, groups, rows, num_sets, bits, pool_size)
    signature_bits = {"none": None, "exact": bits,
                      "short": max(bits - 1, 1)}[claim]
    grouped = simulate_hitmap_interleaved(signatures, groups, num_sets,
                                          ways, signature_bits)
    wants = [scalar_reference_simulation(signatures[group::groups],
                                         num_sets, ways)
             for group in range(groups)]

    assert len(grouped.states) == len(grouped.representative) == \
        groups * rows
    for group in range(groups):
        want = wants[group]
        np.testing.assert_array_equal(
            group_states(grouped, groups, group), want.states)
        np.testing.assert_array_equal(
            group_representative(grouped, groups, group),
            want.representative)
        np.testing.assert_array_equal(
            grouped.representative[group::groups],
            want.representative * groups + group)
        # The plain core on the group's rows alone.
        assert_simulations_equal(
            simulate_hitmap(signatures[group::groups], num_sets, ways), want)
    totals = tuple(sum(getattr(want, field) for want in wants)
                   for field in ("hits", "mau", "mnu", "unique_signatures"))
    assert (grouped.hits, grouped.mau, grouped.mnu,
            grouped.unique_signatures) == totals

    # Through the session: the same frame, one clear per group.
    session = ReuseSession(num_sets * ways, ways)
    assert session.num_sets == num_sets
    assert_simulations_equal(
        session.classify_groups(signatures, groups, bits), grouped)
    assert session.clears == groups
    if groups == 1:
        assert_simulations_equal(session.classify(signatures), wants[0])
        assert session.clears == 2
