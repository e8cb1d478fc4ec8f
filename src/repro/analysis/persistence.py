"""Persistence analysis: how long private objects stay visible, and where.

These are the video owner's offline tools behind Section 7.1: the per-cell
persistence heatmaps of Fig. 3, the heavy-tailed persistence histograms of
Fig. 4, and the effect of a candidate mask on the persistence distribution
(maximum duration reduction and identity retention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.scene.objects import PRIVATE_CATEGORIES, SceneObject
from repro.utils import checks
from repro.video.geometry import GridSpec
from repro.video.masking import Mask
from repro.video.video import SyntheticVideo

#: Default sampling period (seconds) when walking object trajectories.  One
#: sample per second is plenty for durations measured in tens of seconds and
#: keeps full-day analyses fast.
DEFAULT_SAMPLE_PERIOD = 1.0


@dataclass(frozen=True)
class PersistenceHeatmap:
    """Per-grid-cell accumulated presence time (seconds)."""

    grid: GridSpec
    cell_seconds: np.ndarray  # shape (rows, columns)

    @property
    def max_cell_seconds(self) -> float:
        """Largest accumulated presence of any cell."""
        return float(self.cell_seconds.max()) if self.cell_seconds.size else 0.0

    def hottest_cells(self, count: int) -> list[int]:
        """Flattened indices of the ``count`` cells with the most presence time."""
        flat = self.cell_seconds.reshape(-1)
        order = np.argsort(flat)[::-1]
        return [int(index) for index in order[:count] if flat[index] > 0]


def _private_objects(video: SyntheticVideo, categories: Iterable[str] | None) -> list[SceneObject]:
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    return [obj for obj in video.objects if obj.category in allowed]


def persistence_heatmap(video: SyntheticVideo, *, cell_size: float = 40.0,
                        sample_period: float = DEFAULT_SAMPLE_PERIOD,
                        categories: Iterable[str] | None = None) -> PersistenceHeatmap:
    """Accumulate how long private objects overlap each grid cell (Fig. 3, top row)."""
    checks.real("sample_period", sample_period, ValueError, above=0)
    grid = GridSpec(frame_width=video.width, frame_height=video.height,
                    cell_width=cell_size, cell_height=cell_size)
    cells = np.zeros(grid.num_cells, dtype=float)
    for scene_object in _private_objects(video, categories):
        for appearance in scene_object.appearances:
            timestamp = appearance.interval.start
            while timestamp < appearance.interval.end:
                box = appearance.box_at(timestamp)
                if box is not None:
                    for index in grid.cells_covering(box):
                        cells[index] += sample_period
                timestamp += sample_period
    return PersistenceHeatmap(grid=grid,
                              cell_seconds=cells.reshape(grid.rows, grid.columns))


#: Bins of a Fig. 4 histogram.
HISTOGRAM_BINS = 16


def persistence_histogram(durations: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of natural-log durations, as plotted in Fig. 4.

    Returns ``(bin_edges, relative_frequency)`` over ``HISTOGRAM_BINS`` bins;
    durations of zero are dropped (an object fully hidden by a mask has no
    persistence).
    """
    positive = np.asarray([d for d in durations if d > 0], dtype=float)
    if positive.size == 0:
        edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
        return edges, np.zeros(HISTOGRAM_BINS)
    logs = np.log(positive)
    edges = np.linspace(0.0, max(1.0, float(np.ceil(logs.max() + 1e-9))), HISTOGRAM_BINS + 1)
    counts, edges = np.histogram(logs, bins=edges)
    frequency = counts / counts.sum() if counts.sum() else counts.astype(float)
    return edges, frequency


@dataclass(frozen=True)
class MaskedPersistence:
    """Effect of a mask on the persistence distribution (Fig. 4 annotations)."""

    original_durations: tuple[float, ...]
    masked_durations: tuple[float, ...]
    original_max: float
    masked_max: float
    objects_before: int
    objects_after: int

    @property
    def reduction_factor(self) -> float:
        """How much the mask reduces the maximum persistence (>= 1)."""
        if self.masked_max <= 0:
            return float("inf") if self.original_max > 0 else 1.0
        return self.original_max / self.masked_max

    @property
    def retention_fraction(self) -> float:
        """Fraction of private objects still observable after masking."""
        if self.objects_before == 0:
            return 1.0
        return self.objects_after / self.objects_before


def masked_persistence(video: SyntheticVideo, mask: Mask, *,
                       sample_period: float = DEFAULT_SAMPLE_PERIOD,
                       categories: Iterable[str] | None = None) -> MaskedPersistence:
    """Compare persistence with and without a mask (Fig. 4 and Table 6).

    An object "survives" the mask if it remains observable for at least one
    sample; the masked maximum persistence is the longest contiguous
    observable run of any surviving object.  Each appearance is walked one
    sample at a time from its start (``SyntheticVideo.sample_appearances``),
    and a run is worth ``sample_period`` added once per sample, as a running
    sum: ``n * sample_period`` rounds differently.
    """
    checks.real("sample_period", sample_period, ValueError, above=0)
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    owners, lengths, blocks = video.sample_appearances(sample_period, allowed)
    visible = np.concatenate([np.zeros(0, dtype=bool)]
                             + [~mask.hides_boxes(boxes) for boxes in blocks])
    # A run stops before instant i when i or i - 1 is hidden, or when i
    # begins a walk: runs restart at every appearance.
    starts = np.cumsum(lengths) - lengths
    stops = np.ones(visible.size + 1, dtype=bool)
    stops[1:-1] = ~(visible[1:] & visible[:-1])
    stops[starts] = True
    begins = np.flatnonzero(visible & stops[:-1])
    ends = np.flatnonzero(visible & stops[1:]) + 1
    longest = np.zeros(len(video.objects), dtype=np.int64)
    np.maximum.at(longest, owners[np.searchsorted(starts, begins, side="right") - 1],
                  ends - begins)
    positions = [position for position, scene_object in enumerate(video.objects)
                 if scene_object.category in allowed]
    objects = [video.objects[position] for position in positions]
    original = [scene_object.max_appearance_duration for scene_object in objects]
    counts = longest[positions]
    steps = np.full(int(counts.max(initial=0)) + 1, float(sample_period))
    steps[0] = 0.0
    masked = np.cumsum(steps)[counts].tolist()
    surviving = [duration for duration in masked if duration > 0]
    return MaskedPersistence(
        original_durations=tuple(original),
        masked_durations=tuple(masked),
        original_max=max(original, default=0.0),
        masked_max=max(surviving, default=0.0),
        objects_before=len(objects),
        objects_after=len(surviving),
    )
