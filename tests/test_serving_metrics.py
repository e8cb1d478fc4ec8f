"""Property tests for the serving percentile/histogram math.

The metrics module makes two exact claims, and these tests pin both against
independent references rather than sampling a few examples:

* :func:`~repro.bench.serving.metrics.percentile` is *bit-equal* to
  ``numpy.percentile(..., method="inverted_cdf")`` on arbitrary samples —
  hypothesis explores sizes, duplicates, negative/denormal values and level
  edge cases (0, 100, exact-integer ranks).
* :class:`~repro.bench.serving.metrics.LatencyHistogram` merging is exact:
  the merge of per-shard histograms equals the histogram of the merged
  samples for *every* split point, not approximately but ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bench.serving.metrics import LatencyHistogram, percentile

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


nonneg_samples = st.lists(
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=0.0, max_value=1e6),
    min_size=0, max_size=64)


class TestLatencyHistogram:
    @given(samples=nonneg_samples, data=st.data())
    def test_merge_of_shards_equals_histogram_of_merged_samples(self, samples,
                                                                data):
        # The shard-collection property: for ANY split of the sample set,
        # merging the per-shard histograms is == the all-samples histogram,
        # and every quantile read off either side agrees exactly.
        cut = data.draw(st.integers(min_value=0, max_value=len(samples)))
        left, right, full = (LatencyHistogram(), LatencyHistogram(),
                             LatencyHistogram())
        left.record_many(samples[:cut])
        right.record_many(samples[cut:])
        full.record_many(samples)
        merged = left.merge(right)
        assert merged == full
        assert merged.count == len(samples)
        for level in (0.0, 50.0, 99.0, 99.9, 100.0):
            assert merged.quantile(level) == full.quantile(level)

    @given(samples=nonneg_samples)
    def test_quantile_upper_bounds_exact_percentile(self, samples):
        # The sketch's error contract: its quantile is an upper bound of the
        # exact nearest-rank percentile (underflowed samples answer the
        # resolution, which bounds them by construction).
        histogram = LatencyHistogram()
        histogram.record_many(samples)
        if not samples:
            assert histogram.quantile(99.0) is None
            return
        for level in (0.0, 50.0, 99.0, 100.0):
            exact = percentile(samples, level)
            bound = histogram.quantile(level)
            assert bound >= min(exact, histogram.resolution_s)

    def test_merge_order_is_immaterial(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many([0.001, 0.5, 2.0])
        b.record_many([0.25, 30.0])
        assert a.merge(b) == b.merge(a)

    def test_incompatible_bucketing_is_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(buckets_per_octave=4))

    def test_as_dict_round_trips_the_counts(self):
        histogram = LatencyHistogram()
        histogram.record_many([0.0, 1e-9, 0.004, 0.004, 1.5])
        payload = histogram.as_dict()
        assert payload["count"] == 5
        assert payload["underflow"] == 2  # 0.0 and 1e-9 sit below 1e-6
        assert sum(payload["buckets"].values()) == 3
