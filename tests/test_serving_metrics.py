"""Property tests for the serving percentile math.

:func:`~repro.bench.serving.metrics.percentile` is *bit-equal* to
``numpy.percentile(..., method="inverted_cdf")`` on arbitrary samples:
hypothesis explores sizes, duplicates, negative/denormal values and level
edge cases (0, 100, exact-integer ranks) against that independent reference
rather than sampling a few examples.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bench.serving.metrics import percentile

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)
samples_strategy = st.lists(finite_floats, min_size=1, max_size=64)
levels_strategy = st.one_of(
    st.sampled_from([0.0, 50.0, 90.0, 99.0, 99.9, 100.0]),
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    # Exact-integer ranks (level/100 * n integral) are where off-by-one
    # rounding bugs live; integer levels hit them for every small n.
    st.integers(min_value=0, max_value=100).map(float))


class TestPercentile:
    @given(samples=samples_strategy, level=levels_strategy)
    def test_matches_numpy_inverted_cdf_exactly(self, samples, level):
        mine = percentile(samples, level)
        reference = float(np.percentile(samples, level,
                                        method="inverted_cdf"))
        assert mine == reference

    @given(samples=samples_strategy, level=levels_strategy)
    def test_result_is_an_actual_sample(self, samples, level):
        # Nearest-rank never interpolates: the answer is always a sample.
        assert percentile(samples, level) in samples

    @given(level=levels_strategy)
    def test_empty_samples_answer_none(self, level):
        assert percentile([], level) is None

    @given(value=finite_floats, level=levels_strategy)
    def test_single_sample_answers_it_at_every_level(self, value, level):
        assert percentile([value], level) == value

    def test_level_out_of_range_is_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    @given(samples=samples_strategy)
    def test_monotone_in_level(self, samples):
        values = [percentile(samples, level)
                  for level in (0.0, 25.0, 50.0, 75.0, 99.0, 100.0)]
        assert values == sorted(values)
        assert values[0] == min(samples) and values[-1] == max(samples)
