"""Tests for time primitives (intervals, frame conversions)."""

import math

import pytest

from repro.utils.timebase import TimeInterval, is_integral_frame_count


class TestFrameConversions:
    def test_integral_frame_count_accepts_whole_frames(self):
        assert is_integral_frame_count(0.5, 30.0)

    def test_integral_frame_count_rejects_fractional_frames(self):
        assert not is_integral_frame_count(0.25, 30.0)


class TestTimeInterval:
    def test_duration(self):
        assert TimeInterval(10.0, 25.0).duration == 15.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(10.0, 5.0)

    def test_contains_is_half_open(self):
        interval = TimeInterval(0.0, 10.0)
        assert interval.contains(0.0)
        assert interval.contains(9.999)
        assert not interval.contains(10.0)

    def test_overlaps(self):
        assert TimeInterval(0, 10).overlaps(TimeInterval(9, 20))
        assert not TimeInterval(0, 10).overlaps(TimeInterval(10, 20))

    def test_intersection(self):
        overlap = TimeInterval(0, 10).intersection(TimeInterval(5, 20))
        assert overlap == TimeInterval(5, 10)
        assert TimeInterval(0, 5).intersection(TimeInterval(5, 10)) is None

    def test_union_span(self):
        assert TimeInterval(0, 5).union_span(TimeInterval(10, 20)) == TimeInterval(0, 20)

    def test_expand_clamps_at_zero(self):
        expanded = TimeInterval(5.0, 10.0).expand(10.0)
        assert expanded.start == 0.0
        assert expanded.end == 20.0

    def test_clamp_inside(self):
        assert TimeInterval(2, 8).clamp(TimeInterval(0, 10)) == TimeInterval(2, 8)

    def test_clamp_disjoint_produces_empty(self):
        clamped = TimeInterval(20, 30).clamp(TimeInterval(0, 10))
        assert clamped.duration == 0.0

    def test_split_contiguous(self):
        chunks = list(TimeInterval(0, 10).split(3))
        assert len(chunks) == 4
        assert chunks[0] == TimeInterval(0, 3)
        assert chunks[-1] == TimeInterval(9, 10)

    def test_split_with_stride(self):
        chunks = list(TimeInterval(0, 10).split(2, stride=2))
        assert [c.start for c in chunks] == [0, 4, 8]

    def test_split_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            list(TimeInterval(0, 10).split(0))

    def test_num_chunks_matches_split(self):
        interval = TimeInterval(0, 100)
        for chunk, stride in ((7, 0), (10, 5), (3, 1)):
            assert interval.num_chunks(chunk, stride) == len(list(interval.split(chunk, stride)))

    def test_num_chunks_empty_interval(self):
        assert TimeInterval(5, 5).num_chunks(10) == 0

    def test_split_final_chunk_truncated(self):
        chunks = list(TimeInterval(0, 10).split(4))
        assert chunks[-1].duration == pytest.approx(2.0)
        assert math.isclose(sum(c.duration for c in chunks), 10.0)
