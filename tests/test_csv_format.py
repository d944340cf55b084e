"""The vectorized %.6f cell writer against the f-string it replaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hellrank.graph import _FORMAT_BLOCK_CELLS, _fixed6_rows


def fstring_rows(values) -> list[str]:
    return [",".join(f"{v:.6f}" for v in row) for row in values]


SPECIAL = [
    0.0, -0.0, 1 / 128, 5e-7, -1e-9, -1.5, 0.0000005, 123.4565,
    5e-324, 2.2250738585072014e-308,
    1e9, math.nextafter(1e9, 0), math.nextafter(1e9, math.inf), 999999999.9999999, 1e12,
    math.nan, -math.nan, math.inf, -math.inf,
]

VALUES = st.one_of(
    st.floats(),  # any double: nan, +-inf, -0.0, subnormals, huge
    st.floats(min_value=0, max_value=1e3),  # 1- to 3-digit integer parts in one row
    st.floats(min_value=-1e-6, max_value=0),  # tiny negatives print as -0.000000
    st.floats(min_value=0, max_value=2.2250738585072014e-308),  # subnormals
    st.integers(0, 10**9).map(lambda i: (i + 0.5) / 1e6),  # near-ties
    st.integers(0, 2**30).map(lambda i: i / 128),  # exact binary ties at the 7th decimal
    st.integers(0, 10**12).map(lambda i: i / 1e6),  # on the 1e-6 grid
    st.floats(min_value=1e9 - 1e-3, max_value=1e9 + 1e-3),  # around the fast-path cap
    st.sampled_from(SPECIAL),
)

MATRICES = st.integers(1, 12).flatmap(
    lambda cols: st.lists(st.lists(VALUES, min_size=cols, max_size=cols), min_size=1, max_size=12)
)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@example([])
@example([SPECIAL])
@example([[v] for v in SPECIAL])
@example([[0.5, 123.25, 7.0], [999.9999995, 0.0000004, 10.0]])
@example([[4294.967295, 0.5]])  # largest cell 2**32 - 1 millionths: 32-bit digits
@example([[4294.967296, 0.5]])  # 2**32 millionths: 64-bit digits
def test_matches_fstring(rows):
    assert list(_fixed6_rows(rows)) == fstring_rows(rows)


@pytest.mark.parametrize("shape", [(500, 100), (3, _FORMAT_BLOCK_CELLS + 5), (_FORMAT_BLOCK_CELLS + 700, 1)])
def test_matches_fstring_across_blocks(rng, shape):
    values = rng.random(shape) * 10.0 ** rng.integers(0, 4, shape)
    flat = values.reshape(-1)
    # fallback cells scattered over the blocks, and a near-tie in the last cell
    flat[rng.choice(flat.size, len(SPECIAL), replace=False)] = SPECIAL
    flat[-1] = 2.0000005
    assert list(_fixed6_rows(values)) == fstring_rows(values)
