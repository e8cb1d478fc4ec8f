"""Temporal (and optionally spatial) splitting of video into chunks (Section 6.2).

The SPLIT statement selects a window of a camera's video and divides it into
contiguous chunks of fixed duration; each chunk is later handed to an
isolated instance of the analyst's executable.  A chunk may additionally be
restricted to a spatial region (Section 7.2) and have a mask applied
(Section 7.1) before the executable sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.utils.timebase import TimeInterval
from repro.video.masking import EMPTY_MASK, Mask
from repro.video.regions import Region, RegionScheme
from repro.video.video import FrameBatch, FrameTruth, SyntheticVideo


@dataclass(frozen=True)
class ChunkSpec:
    """Parameters of a SPLIT statement.

    ``chunk_duration`` and ``stride`` are in seconds; ``stride`` is the gap
    between consecutive chunks (0 for contiguous chunks).  ``sample_period``
    controls how densely the synthetic frames are sampled when the chunk is
    processed; it does not affect privacy accounting, only simulation cost.
    """

    window: TimeInterval
    chunk_duration: float
    stride: float = 0.0
    sample_period: float | None = None

    def __post_init__(self) -> None:
        if self.chunk_duration <= 0:
            raise ValueError("chunk duration must be positive")
        if self.chunk_duration + self.stride <= 0:
            raise ValueError("chunk duration plus stride must be positive")

    @property
    def num_chunks(self) -> int:
        """Number of chunks the window will be divided into."""
        return self.window.num_chunks(self.chunk_duration, self.stride)


@dataclass(frozen=True)
class Chunk:
    """One chunk of video handed to an isolated executable instance.

    The chunk exposes only *views* of the underlying video: ground-truth
    frames restricted to the chunk interval, with the mask and region filter
    already applied, so an executable physically cannot observe anything
    outside its chunk.
    """

    video: SyntheticVideo
    index: int
    interval: TimeInterval
    mask: Mask = EMPTY_MASK
    region: Region | None = None
    sample_period: float | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def chunk_id(self) -> str:
        """Stable identifier combining camera, index and region."""
        suffix = f":{self.region.name}" if self.region is not None else ""
        return f"{self.video.name}#{self.index}{suffix}"

    @property
    def start_timestamp(self) -> float:
        """Timestamp of the chunk's first frame (the implicit ``chunk`` column)."""
        return self.interval.start

    @property
    def duration(self) -> float:
        """Chunk duration in seconds."""
        return self.interval.duration

    def _apply_filters(self, batch: FrameBatch) -> FrameBatch:
        """Apply the mask and region restriction to a whole batch: one coverage
        call and one containment call over the flattened box stack, whatever
        the number of objects (none without any); objects left with no
        visible frame are dropped.
        """
        if not batch.scene_objects or (self.mask.is_empty and self.region is None):
            return batch
        visible = batch.visible
        boxes = batch.boxes.reshape(-1, 4)
        if not self.mask.is_empty:
            visible &= ~self.mask.hides_boxes(boxes).reshape(visible.shape)
        if self.region is not None:
            visible &= self.region.contains_points(
                boxes[:, 0] + boxes[:, 2] / 2.0,
                boxes[:, 1] + boxes[:, 3] / 2.0).reshape(visible.shape)
        kept = visible.any(axis=1)
        if not kept.all():
            batch.scene_objects = [scene_object for scene_object, keep
                                   in zip(batch.scene_objects, kept.tolist()) if keep]
            batch.visible = visible[kept]
            batch.boxes = batch.boxes[kept]
        return batch

    def frame_batch(self, *, max_frames: int | None = None,
                    categories: Iterable[str] | None = None) -> FrameBatch:
        """Columnar masked/region-filtered ground truth for the whole chunk.

        This is the hot path every executable-facing view derives from: the
        chunk renders as one :class:`~repro.video.video.FrameBatch` and the
        mask/region restriction is applied as vectorized box math.
        ``max_frames`` truncates the batch to the chunk's first frames, for
        executables with single-frame semantics; ``categories`` names the only
        object classes to render, mask and region-test (default: all).
        """
        frame_indices = self.video._frame_indices(
            self.interval.clamp(self.video.interval), self.sample_period)
        if max_frames is not None:
            frame_indices = frame_indices[:max_frames]
        return self._apply_filters(self.video.batch_for_indices(
            frame_indices, self.interval, categories=categories))

    def frames(self) -> Iterator[FrameTruth]:
        """Yield masked/region-filtered ground truth for each frame of the chunk.

        Legacy per-frame adapter over :meth:`frame_batch`, kept so
        third-party executables written against the frame iterator keep
        working unchanged.
        """
        yield from self.frame_batch().iter_frames()

    def visible_objects(self) -> list:
        """Ground-truth objects visible at some point during the chunk.

        This is a convenience equivalent to scanning every frame of the chunk
        at infinite frame rate: an object is included if any of its
        appearances overlaps the chunk interval and it is not hidden by the
        chunk's mask/region at its appearance midpoint.  Fast-path used by
        executables over coarse-grained footage (e.g. the Porto camera logs)
        where per-frame scanning adds nothing.
        """
        kept = []
        for scene_object in self.video.objects_overlapping(self.interval):
            for appearance in scene_object.appearances_within(self.interval):
                overlap = appearance.interval.intersection(self.interval)
                if overlap is None:
                    continue
                midpoint = (overlap.start + overlap.end) / 2.0
                box = appearance.box_at(midpoint)
                if box is None:
                    continue
                if self.mask.hides(box):
                    continue
                if self.region is not None and not self.region.contains(box.center):
                    continue
                kept.append((scene_object, overlap))
                break
        return kept

    def with_region(self, region: Region) -> "Chunk":
        """Return a copy of the chunk restricted to ``region``."""
        return replace(self, region=region)


def iter_chunks(video: SyntheticVideo, spec: ChunkSpec, *,
                mask: Mask = EMPTY_MASK,
                region_scheme: RegionScheme | None = None,
                validate_frame_alignment: bool = True) -> Iterator[Chunk]:
    """Lazily split a video window into chunks according to ``spec``.

    The streaming twin of :func:`split_interval`: chunks are produced one at
    a time as the consumer pulls them, so a SPLIT over hours of footage never
    materialises its whole chunk list — the execution engine's bounded
    in-flight window (``ExecutionEngine.imap_chunks``) is the only thing that
    holds chunks alive.  When a region scheme is supplied, each temporal
    chunk is expanded into one chunk per region (the spatial-splitting
    optimisation); soft-boundary schemes enforce their single-frame chunk
    restriction.  Validation runs eagerly at call time, before the first
    chunk is requested.
    """
    if validate_frame_alignment:
        video.validate_chunking(spec.chunk_duration, spec.stride)
    window = spec.window.clamp(video.interval)
    if region_scheme is not None:
        region_scheme.validate_chunk_size(spec.chunk_duration, video.frame_period)

    def generate() -> Iterator[Chunk]:
        for index, interval in enumerate(window.split(spec.chunk_duration, spec.stride)):
            base = Chunk(video=video, index=index, interval=interval, mask=mask,
                         sample_period=spec.sample_period)
            if region_scheme is None:
                yield base
            else:
                for region in region_scheme.regions:
                    yield base.with_region(region)

    return generate()


def count_chunks(video: SyntheticVideo, spec: ChunkSpec, *,
                 region_scheme: RegionScheme | None = None) -> int:
    """Number of chunks :func:`iter_chunks` will produce, without producing them.

    Sensitivity accounting (``TableProperties.num_chunks``) needs the chunk
    count before the stream is consumed; this computes it from the clamped
    window arithmetic alone, in O(1).
    """
    window = spec.window.clamp(video.interval)
    per_interval = 1 if region_scheme is None else len(region_scheme.regions)
    return window.num_chunks(spec.chunk_duration, spec.stride) * per_interval


def split_interval(video: SyntheticVideo, spec: ChunkSpec, *,
                   mask: Mask = EMPTY_MASK,
                   region_scheme: RegionScheme | None = None,
                   validate_frame_alignment: bool = True) -> list[Chunk]:
    """Split a video window into chunks according to ``spec``.

    Batch adapter over :func:`iter_chunks`, kept for callers that genuinely
    need the full list (tests, small ad-hoc windows); the executor streams.
    """
    return list(iter_chunks(video, spec, mask=mask, region_scheme=region_scheme,
                            validate_frame_alignment=validate_frame_alignment))


def num_chunks_spanned(rho: float, chunk_duration: float) -> int:
    """Worst-case number of chunks a single segment of duration rho can span.

    This is Equation 6.1: ``max_chunks(rho) = 1 + ceil(rho / c)``.  A segment
    that becomes visible in the final frame of a chunk spills into the next
    ``ceil(rho / c)`` chunks.
    """
    import math

    if chunk_duration <= 0:
        raise ValueError("chunk duration must be positive")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    return 1 + int(math.ceil(rho / chunk_duration))
