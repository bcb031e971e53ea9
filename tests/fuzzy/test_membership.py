"""Unit and property-based tests for the fuzzy membership function."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CostModelError
from repro.fuzzy import DecreasingLinear

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestDecreasingLinear:
    def test_plateau_values(self):
        mu = DecreasingLinear(low=10.0, high=20.0)
        assert mu.grade(5.0) == 1.0
        assert mu.grade(10.0) == 1.0
        assert mu.grade(20.0) == 0.0
        assert mu.grade(25.0) == 0.0
        assert mu.grade(15.0) == pytest.approx(0.5)

    def test_vectorised_call(self):
        mu = DecreasingLinear(low=0.0, high=1.0)
        values = mu(np.array([-1.0, 0.25, 2.0]))
        assert values == pytest.approx([1.0, 0.75, 0.0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(CostModelError):
            DecreasingLinear(low=1.0, high=1.0)

    @settings(max_examples=100, deadline=None)
    @given(value=finite_floats)
    def test_membership_always_in_unit_interval(self, value):
        mu = DecreasingLinear(low=2.0, high=7.0)
        assert 0.0 <= mu.grade(value) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(a=finite_floats, b=finite_floats)
    def test_monotonically_decreasing(self, a, b):
        mu = DecreasingLinear(low=2.0, high=7.0)
        lo, hi = sorted((a, b))
        assert mu.grade(lo) >= mu.grade(hi)
