"""The sort-based distinct-entry helpers against ``np.unique``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.uniques import first_occurrences, unique

#: Small value ranges make repeats likely; the wide one makes them rare.
INT64_ARRAYS = st.one_of(
    arrays(np.int64, st.integers(0, 60), elements=st.integers(-3, 3)),
    arrays(np.int64, st.integers(0, 60), elements=st.integers(-(2**62), 2**62)),
)


def _same(got, expected):
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


class TestUniques:
    @settings(max_examples=200, deadline=None)
    @given(INT64_ARRAYS)
    def test_random_arrays_match_np_unique(self, values):
        _same(unique(values), np.unique(values))
        _same(first_occurrences(values), np.unique(values, return_index=True)[1])

    @pytest.mark.parametrize("values", [
        np.empty(0, dtype=np.int64),
        np.full(7, 5, dtype=np.int64),
        np.array([9], dtype=np.int64),
    ], ids=["empty", "all-equal", "one"])
    def test_edge_cases_match_np_unique(self, values):
        _same(unique(values), np.unique(values))
        _same(first_occurrences(values), np.unique(values, return_index=True)[1])

    def test_inputs_are_not_reordered(self):
        values = np.array([3, 1, 3, 2, 1], dtype=np.int64)
        unique(values)
        first_occurrences(values)
        assert values.tolist() == [3, 1, 3, 2, 1]
