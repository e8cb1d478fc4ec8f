"""Temporal (and optionally spatial) splitting of video into chunks (Section 6.2).

The SPLIT statement selects a window of a camera's video and divides it into
contiguous chunks of fixed duration; each chunk is later handed to an
isolated instance of the analyst's executable.  A chunk may additionally be
restricted to a spatial region (Section 7.2) and have a mask applied
(Section 7.1) before the executable sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.utils import checks
from repro.utils.timebase import TimeInterval
from repro.video.masking import EMPTY_MASK, Mask
from repro.video.regions import Region, RegionScheme
from repro.video.video import FrameBatch, SyntheticVideo


@dataclass(frozen=True)
class ChunkSpec:
    """Parameters of a SPLIT statement.

    ``chunk_duration`` and ``stride`` are in seconds; ``stride`` is the gap
    between consecutive chunks (0 for contiguous chunks).  A negative stride
    is refused: overlapping chunks would let one segment meet more chunks
    than the sensitivity counts.  ``sample_period``
    controls how densely the synthetic frames are sampled when the chunk is
    processed; it does not affect privacy accounting, only simulation cost.
    """

    window: TimeInterval
    chunk_duration: float
    stride: float = 0.0
    sample_period: float | None = None

    def __post_init__(self) -> None:
        checks.real("chunk duration", self.chunk_duration, ValueError, above=0)
        checks.real("stride", self.stride, ValueError, at_least=0)
        if self.sample_period is not None:
            checks.real("sample_period", self.sample_period, ValueError, above=0)

    @property
    def num_chunks(self) -> int:
        """Number of chunks the window will be divided into."""
        return self.window.num_chunks(self.chunk_duration, self.stride)


def filter_batch(batch: FrameBatch, mask: Mask, region: Region | None = None) -> FrameBatch:
    """Apply a mask and a region restriction to a whole batch, in place.

    One coverage call and one containment call over the flattened box stack,
    whatever the number of objects (none without any); objects left with no
    visible frame are dropped.
    """
    if not batch.scene_objects or (mask.is_empty and region is None):
        return batch
    visible = batch.visible
    boxes = batch.boxes.reshape(-1, 4)
    if not mask.is_empty:
        visible &= ~mask.hides_boxes(boxes).reshape(visible.shape)
    if region is not None:
        visible &= region.contains_points(
            boxes[:, 0] + boxes[:, 2] / 2.0,
            boxes[:, 1] + boxes[:, 3] / 2.0).reshape(visible.shape)
    kept = np.logical_or.reduce(visible, axis=1)
    if np.count_nonzero(kept) < kept.size:
        batch.scene_objects = [scene_object for scene_object, keep
                               in zip(batch.scene_objects, kept.tolist()) if keep]
        batch.visible = visible[kept]
        batch.boxes = batch.boxes[kept]
    return batch


@dataclass(frozen=True)
class Chunk:
    """One chunk of video handed to an isolated executable instance.

    The chunk exposes only *views* of the underlying video — the columnar
    :meth:`frame_batch` of its frames and the coarse
    :meth:`visible_objects` — restricted to the chunk interval, with the
    mask and region filter already applied, so an executable physically
    cannot observe anything outside its chunk.
    """

    video: SyntheticVideo
    index: int
    interval: TimeInterval
    mask: Mask = EMPTY_MASK
    region: Region | None = None
    sample_period: float | None = None

    @property
    def start_timestamp(self) -> float:
        """Timestamp of the chunk's first frame (the implicit ``chunk`` column)."""
        return self.interval.start

    @property
    def duration(self) -> float:
        """Chunk duration in seconds."""
        return self.interval.duration

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
        frame_indices = self.video.frame_indices(self.interval, self.sample_period)
        if max_frames is not None:
            frame_indices = frame_indices[:max_frames]
        return filter_batch(self.video.batch_for_indices(
            frame_indices, self.interval, categories=categories), self.mask, self.region)

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


def iter_chunks(video: SyntheticVideo, spec: ChunkSpec, *,
                mask: Mask = EMPTY_MASK,
                region_scheme: RegionScheme | None = None) -> Iterator[Chunk]:
    """Lazily split a video window into chunks according to ``spec``.

    Chunks are produced one at a time as the consumer pulls them, so a SPLIT
    over hours of footage never materialises its whole chunk list — the
    execution engine's bounded in-flight window
    (``ExecutionEngine.imap_chunks``) is the only thing that holds chunks
    alive.  When a region scheme is supplied, each temporal
    chunk is expanded into one chunk per region (the spatial-splitting
    optimisation); soft-boundary schemes enforce their single-frame chunk
    restriction.  Validation runs eagerly at call time, before the first
    chunk is requested.
    """
    video.validate_chunking(spec.chunk_duration, spec.stride)
    window = spec.window.clamp(video.interval)
    if region_scheme is not None:
        region_scheme.validate_chunk_size(spec.chunk_duration, video.frame_period)

    regions = (None,) if region_scheme is None else tuple(region_scheme.regions)
    sample_period, new = spec.sample_period, object.__new__

    def generate() -> Iterator[Chunk]:
        # Each chunk is built in one step: every field is already a valid
        # value, so the frozen ``__setattr__`` per field buys nothing.  The
        # result is the chunk ``Chunk(...)`` builds, in the same field order.
        for index, interval in enumerate(window.split(spec.chunk_duration, spec.stride)):
            for region in regions:
                chunk = new(Chunk)
                fields = chunk.__dict__
                fields["video"] = video
                fields["index"] = index
                fields["interval"] = interval
                fields["mask"] = mask
                fields["region"] = region
                fields["sample_period"] = sample_period
                yield chunk

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


def num_chunks_spanned(rho: float, chunk_duration: float) -> int:
    """Worst-case number of chunks a single segment of duration rho can span.

    This is Equation 6.1: ``max_chunks(rho) = 1 + ceil(rho / c)``.  A segment
    that becomes visible in the final frame of a chunk spills into the next
    ``ceil(rho / c)`` chunks.
    """
    checks.real("chunk duration", chunk_duration, ValueError, above=0)
    checks.real("rho", rho, ValueError, at_least=0)
    return 1 + math.ceil(rho / chunk_duration)
