"""Tests for the random-stream helpers and the statistics helpers."""

import math

import numpy as np
import pytest

from repro.utils.rng import RandomSource, derive_rng
from repro.utils.stats import (
    accuracy,
    relative_error,
    root_mean_square_error,
)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7).stream("noise").normal(size=5)
        b = RandomSource(7).stream("noise").normal(size=5)
        assert np.allclose(a, b)

    def test_different_names_different_streams(self):
        a = RandomSource(7).stream("noise").normal(size=5)
        b = RandomSource(7).stream("scene").normal(size=5)
        assert not np.allclose(a, b)

    def test_different_seeds_different_streams(self):
        a = derive_rng(1, "x").normal(size=5)
        b = derive_rng(2, "x").normal(size=5)
        assert not np.allclose(a, b)

    def test_child_namespacing(self):
        root = RandomSource(3)
        child = root.child("scene")
        assert not np.allclose(root.stream("a").normal(size=3),
                               child.stream("a").normal(size=3))


class TestStats:
    def test_relative_error_basic(self):
        assert relative_error(90.0, 100.0) == pytest.approx(0.1)

    def test_relative_error_zero_reference(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert math.isinf(relative_error(5.0, 0.0))

    def test_accuracy_clamped_at_zero(self):
        assert accuracy(300.0, 100.0) == 0.0

    def test_accuracy_perfect(self):
        assert accuracy(100.0, 100.0) == 1.0

    def test_mae_and_rmse(self):
        assert root_mean_square_error([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            root_mean_square_error([1], [1, 2])
