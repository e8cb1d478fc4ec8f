"""Tests for the synthetic video model, chunking, masks and regions."""

import numpy as np
import pytest

from repro.errors import QueryValidationError, RegionError
from repro.query.builder import QueryBuilder
from repro.utils.timebase import TimeInterval
from repro.video.chunking import Chunk, ChunkSpec, iter_chunks, num_chunks_spanned
from repro.video.geometry import BoundingBox, GridSpec
from repro.video.masking import (
    EMPTY_MASK,
    Mask,
    mask_everything_except,
    mask_from_grid_cells,
)
from repro.video.regions import BoundaryType, Region, RegionScheme

from tests.conftest import (
    grid_region_scheme,
    make_crossing_object,
    make_simple_video,
    split_interval,
)


class TestSyntheticVideo:
    def test_basic_properties(self, simple_video):
        assert simple_video.num_frames == 1200
        assert simple_video.frame_period == 0.5
        assert simple_video.interval == TimeInterval(0.0, 600.0)

    def test_visible_objects_in_a_frame(self, simple_video):
        def visible_at(timestamp):
            batch = simple_video.batch_for_indices(
                np.array([simple_video.frame_index_at(timestamp)]))
            return {scene_object.object_id for scene_object, seen
                    in zip(batch.scene_objects, batch.visible[:, 0].tolist()) if seen}

        assert visible_at(50.0) == {"walker-1"}
        assert visible_at(140.0) == {"walker-2", "sitter-1"}

    def test_frames_subsampling(self, simple_video):
        frames = simple_video.frame_batch(TimeInterval(0, 10), sample_period=2.0)
        assert frames.frame_indices.tolist() == [0, 4, 8, 12, 16]

    def test_objects_overlapping_uses_index(self, simple_video):
        overlapping = simple_video.objects_overlapping(TimeInterval(110, 130))
        assert {o.object_id for o in overlapping} == {"walker-2", "sitter-1"}

    def test_add_objects_invalidates_index(self, simple_video):
        assert simple_video.objects_overlapping(TimeInterval(580, 590)) == []
        simple_video.add_objects([make_crossing_object("late", start=580, duration=15)])
        assert {o.object_id for o in
                simple_video.objects_overlapping(TimeInterval(580, 590))} == {"late"}

    def test_validate_chunking(self, simple_video):
        simple_video.validate_chunking(5.0, 0.0)
        with pytest.raises(ValueError):
            simple_video.validate_chunking(0.3, 0.0)
        with pytest.raises(ValueError):
            simple_video.validate_chunking(-1.0, 0.0)

    @pytest.mark.parametrize("duration, stride", [(0.3, 0.0), (5.0, 0.3)])
    def test_split_refuses_a_chunk_or_stride_of_partial_frames(self, simple_video, duration,
                                                                stride):
        # Appendix D: no SPLIT may cut a frame, so nothing skips the check.
        spec = ChunkSpec(window=TimeInterval(0, 60), chunk_duration=duration, stride=stride)
        with pytest.raises(ValueError, match="integer number of frames"):
            iter_chunks(simple_video, spec)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_simple_video(duration=0.0)


class TestOverlappingChunksAreRefused:
    """A negative stride overlaps chunks, so one segment can meet more chunks
    than Eq. 6.1 counts and a release gets too little noise: the SPLIT
    statement, the chunk spec and the interval split all refuse it."""

    @pytest.mark.parametrize("stride", [-30.0, -50.0, -0.25])
    def test_a_split_statement_refuses_a_negative_stride(self, stride):
        builder = QueryBuilder("overlap")
        with pytest.raises(QueryValidationError, match="STRIDE"):
            builder.split("cam", begin=0.0, end=600.0, chunk_duration=60.0, into="chunks",
                          stride=stride)

    def test_a_chunk_spec_and_an_interval_refuse_a_negative_stride(self):
        with pytest.raises(ValueError, match="stride"):
            ChunkSpec(window=TimeInterval(0, 60), chunk_duration=5.0, stride=-0.25)
        with pytest.raises(ValueError, match="stride"):
            TimeInterval(0.0, 60.0).num_chunks(5.0, -0.25)

    def test_a_zero_stride_is_contiguous(self):
        spec = ChunkSpec(window=TimeInterval(0, 60), chunk_duration=5.0, stride=0.0)
        assert spec.num_chunks == 12


class TestChunking:
    def test_num_chunks_spanned_eq_6_1(self):
        # Equation 6.1: a rho-second segment can span 1 + ceil(rho / c) chunks.
        assert num_chunks_spanned(0.0, 5.0) == 1
        assert num_chunks_spanned(4.0, 5.0) == 2
        assert num_chunks_spanned(5.0, 5.0) == 2
        assert num_chunks_spanned(5.1, 5.0) == 3
        assert num_chunks_spanned(30.0, 5.0) == 7

    def test_num_chunks_spanned_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            num_chunks_spanned(1.0, 0.0)
        with pytest.raises(ValueError):
            num_chunks_spanned(-1.0, 5.0)

    def test_split_interval_counts(self, simple_video):
        spec = ChunkSpec(window=TimeInterval(0, 600), chunk_duration=60.0)
        chunks = split_interval(simple_video, spec)
        assert len(chunks) == 10
        assert chunks[0].start_timestamp == 0.0
        assert chunks[-1].interval.end == 600.0

    def test_chunk_frames_respect_interval(self, simple_video):
        spec = ChunkSpec(window=TimeInterval(0, 120), chunk_duration=30.0)
        chunk = split_interval(simple_video, spec)[1]
        timestamps = chunk.frame_batch().timestamps.tolist()
        assert min(timestamps) >= 30.0
        assert max(timestamps) < 60.0

    def test_chunk_frames_apply_mask(self, simple_video):
        mask = Mask(name="hide-sitter", regions=(BoundingBox(80.0, 480.0, 80.0, 100.0),))
        spec = ChunkSpec(window=TimeInterval(100, 160), chunk_duration=60.0)
        masked_chunk = split_interval(simple_video, spec, mask=mask)[0]
        unmasked_chunk = split_interval(simple_video, spec)[0]
        masked_ids = {o.object_id for o in masked_chunk.frame_batch().scene_objects}
        unmasked_ids = {o.object_id for o in unmasked_chunk.frame_batch().scene_objects}
        assert "sitter-1" in unmasked_ids
        assert "sitter-1" not in masked_ids

    def test_region_split_multiplies_chunks(self, simple_video):
        scheme = RegionScheme(name="halves", regions=(
            Region("left", BoundingBox(0, 0, 640, 720)),
            Region("right", BoundingBox(640, 0, 640, 720)),
        ), boundary=BoundaryType.HARD)
        spec = ChunkSpec(window=TimeInterval(0, 60), chunk_duration=30.0)
        chunks = split_interval(simple_video, spec, region_scheme=scheme)
        assert len(chunks) == 4
        regions = {chunk.region.name for chunk in chunks}
        assert regions == {"left", "right"}

    def test_soft_region_requires_single_frame_chunks(self, simple_video):
        scheme = RegionScheme(name="halves", regions=(
            Region("left", BoundingBox(0, 0, 640, 720)),
            Region("right", BoundingBox(640, 0, 640, 720)),
        ), boundary=BoundaryType.SOFT)
        spec = ChunkSpec(window=TimeInterval(0, 60), chunk_duration=30.0)
        with pytest.raises(RegionError):
            split_interval(simple_video, spec, region_scheme=scheme)
        ok_spec = ChunkSpec(window=TimeInterval(0, 5), chunk_duration=0.5)
        assert split_interval(simple_video, ok_spec, region_scheme=scheme)

    def test_chunk_visible_objects_fast_path(self, simple_video):
        spec = ChunkSpec(window=TimeInterval(100, 200), chunk_duration=100.0)
        chunk = split_interval(simple_video, spec)[0]
        visible = {obj.object_id for obj, _ in chunk.visible_objects()}
        assert visible == {"walker-2", "sitter-1"}

    def test_invalid_chunkspec(self):
        with pytest.raises(ValueError):
            ChunkSpec(window=TimeInterval(0, 10), chunk_duration=0.0)

    def test_frames_at_non_representable_chunk_boundary(self):
        # Regression: a chunk boundary that float arithmetic places just below
        # the exact frame product (29.999999999 * 30 = 899.99999997) used to
        # truncate to frame 899, duplicating the last frame of the previous
        # chunk and shifting this chunk's coverage.
        video = make_simple_video(duration=90.0, fps=30.0)
        boundary_lo = 29.999999999
        boundary_hi = 59.999999999
        first = Chunk(video=video, index=0, interval=TimeInterval(0.0, boundary_lo))
        second = Chunk(video=video, index=1, interval=TimeInterval(boundary_lo, boundary_hi))
        first_indices = first.frame_batch().frame_indices.tolist()
        second_indices = second.frame_batch().frame_indices.tolist()
        assert first_indices == list(range(0, 900))
        assert second_indices == list(range(900, 1800))
        # Exact boundaries produce the same frames: no drops, no duplicates.
        exact = Chunk(video=video, index=1, interval=TimeInterval(30.0, 60.0))
        assert exact.frame_batch().frame_indices.tolist() == second_indices


class TestMasks:
    def test_empty_mask_hides_nothing(self):
        assert not EMPTY_MASK.hides(BoundingBox(0, 0, 10, 10))

    def test_mask_hides_covered_box(self):
        mask = Mask(name="m", regions=(BoundingBox(0, 0, 100, 100),))
        assert mask.hides(BoundingBox(10, 10, 20, 20))
        assert not mask.hides(BoundingBox(200, 200, 20, 20))

    def test_mask_threshold(self):
        mask = Mask(name="m", regions=(BoundingBox(0, 0, 10, 100),), hide_threshold=0.5)
        # Only 25% of this box is covered, so it stays visible.
        assert not mask.hides(BoundingBox(0, 0, 40, 100))

    def test_mask_from_grid_cells(self):
        grid = GridSpec(frame_width=100, frame_height=100, cell_width=10, cell_height=10)
        mask = mask_from_grid_cells(grid, [0, 1, 1])
        assert len(mask.regions) == 2

    def test_mask_everything_except(self):
        keep = BoundingBox(40, 40, 20, 20)
        mask = mask_everything_except(100, 100, [keep])
        assert not mask.hides(keep)
        assert mask.hides(BoundingBox(0, 0, 20, 20))
        assert mask.hides(BoundingBox(80, 80, 20, 20))

    def test_mask_union(self):
        a = Mask(name="a", regions=(BoundingBox(0, 0, 10, 10),))
        b = Mask(name="b", regions=(BoundingBox(20, 20, 10, 10),))
        union = a.union(b)
        assert len(union.regions) == 2


class TestRegions:
    def test_region_scheme_assignment(self):
        scheme = RegionScheme(name="vertical", regions=(
            Region("strip0", BoundingBox(0, 0, 50, 100)),
            Region("strip1", BoundingBox(50, 0, 50, 100))))
        assert scheme.region_of(BoundingBox(10, 10, 5, 5)).name == "strip0"
        assert scheme.region_of(BoundingBox(80, 10, 5, 5)).name == "strip1"

    def test_region_of_outside(self):
        scheme = RegionScheme(name="one", regions=(Region("a", BoundingBox(0, 0, 10, 10)),))
        assert scheme.region_of(BoundingBox(50, 50, 5, 5)) is None

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(RegionError):
            RegionScheme(name="dup", regions=(
                Region("a", BoundingBox(0, 0, 10, 10)),
                Region("a", BoundingBox(10, 0, 10, 10)),
            ))

    def test_hard_boundary_allows_long_chunks(self):
        scheme = grid_region_scheme(100, 100, rows=1, columns=2, boundary=BoundaryType.HARD)
        scheme.validate_chunk_size(3600.0, 0.5)  # must not raise
