"""Vector helpers of `_vector` against exact Python-integer references."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flip754._vector import msb_index


def test_msb_index_matches_bit_length_at_every_power_of_two():
    # 2^k - 1, 2^k and 2^k + 1 straddle each place where the leading one
    # moves up: the smear must fill every place below it and none above.
    values = sorted({v for k in range(63) for v in ((1 << k) - 1, 1 << k, (1 << k) + 1)})
    # Words of the full 64 bits, whose leading one the widest shift must reach.
    values += [(1 << 64) - 1, (1 << 64) - 1024, (1 << 63) + 1]
    got = msb_index(np.array(values, dtype=np.uint64)).tolist()
    assert got == [v.bit_length() - 1 for v in values]  # 0 gives -1


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_msb_index_matches_bit_length_on_wide_values(values):
    got = msb_index(np.array(values, dtype=np.uint64)).tolist()
    assert got == [v.bit_length() - 1 for v in values]


def test_msb_index_on_many_random_wide_values():
    rng = np.random.default_rng(61)
    v = rng.integers(0, 1 << 62, size=100_000, dtype=np.uint64) >> rng.integers(
        0, 62, size=100_000, dtype=np.uint64
    )
    assert msb_index(v).tolist() == [x.bit_length() - 1 for x in v.tolist()]
