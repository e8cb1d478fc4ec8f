"""Greedy mask selection (Appendix F, Algorithm 2) and the mask -> policy map.

Algorithm 2 orders grid cells so that masking the first cell reduces the
maximum persistence the most, the second cell the second most, and so on.
Walking the ordered list produces the cumulative curves of Fig. 11 (maximum
persistence remaining and identities retained as a function of the fraction
of grid cells masked) and the per-video summary of Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.persistence import DEFAULT_SAMPLE_PERIOD
from repro.scene.objects import PRIVATE_CATEGORIES
from repro.utils import checks
from repro.video.geometry import GridSpec
from repro.video.masking import Mask, mask_from_grid_cells
from repro.video.video import SyntheticVideo


@dataclass(frozen=True)
class MaskOrderingStep:
    """State of the greedy procedure after masking one more grid cell."""

    cell_index: int
    cells_masked: int
    fraction_masked: float
    max_persistence: float
    identities_retained: int
    retention_fraction: float


@dataclass
class _TrackOccupancy:
    """Per-object bookkeeping: which cell the object occupies at each sample."""

    object_id: str
    samples: dict[int, set[int]]  # sample index -> cells occupied at that sample

    @property
    def persistence_samples(self) -> int:
        return len(self.samples)


def _build_occupancy(video: SyntheticVideo, grid: GridSpec, sample_period: float,
                     categories: Iterable[str] | None) -> list[_TrackOccupancy]:
    allowed = frozenset(categories) if categories is not None else PRIVATE_CATEGORIES
    occupancies: list[_TrackOccupancy] = []
    for scene_object in video.objects:
        if scene_object.category not in allowed:
            continue
        samples: dict[int, set[int]] = {}
        for appearance in scene_object.appearances:
            timestamp = appearance.interval.start
            while timestamp < appearance.interval.end:
                box = appearance.box_at(timestamp)
                if box is not None:
                    cells = set(grid.cells_covering(box))
                    if cells:
                        samples[int(timestamp / sample_period)] = cells
                timestamp += sample_period
        if samples:
            occupancies.append(_TrackOccupancy(object_id=scene_object.object_id, samples=samples))
    return occupancies


def greedy_mask_ordering(video: SyntheticVideo, *, cell_size: float = 64.0,
                         sample_period: float = DEFAULT_SAMPLE_PERIOD,
                         categories: Iterable[str] | None = None,
                         max_cells: int | None = None
                         ) -> tuple[GridSpec, list[MaskOrderingStep]]:
    """Algorithm 2: order grid cells by how much masking them reduces persistence.

    Returns the grid used and one :class:`MaskOrderingStep` per masked cell.
    ``max_cells`` caps the number of cells masked (the curves of Fig. 11 only
    need the informative prefix).
    """
    checks.real("sample_period", sample_period, ValueError, above=0)
    grid = GridSpec(frame_width=video.width, frame_height=video.height,
                    cell_width=cell_size, cell_height=cell_size)
    occupancies = _build_occupancy(video, grid, sample_period, categories)
    total_objects = len(occupancies)
    cell_limit = grid.num_cells if max_cells is None else min(max_cells, grid.num_cells)

    steps: list[MaskOrderingStep] = []
    masked_cells: set[int] = set()
    while len(masked_cells) < cell_limit:
        alive = [occupancy for occupancy in occupancies if occupancy.samples]
        if not alive:
            break
        longest = max(alive, key=lambda occupancy: occupancy.persistence_samples)
        cell_counts: dict[int, int] = {}
        for cells in longest.samples.values():
            for cell in cells:
                if cell not in masked_cells:
                    cell_counts[cell] = cell_counts.get(cell, 0) + 1
        if not cell_counts:
            # Every cell the longest-lived object touches is already masked,
            # yet samples remain — cannot happen because masking removes the
            # samples, but guard against degenerate geometry.
            break
        best_cell = max(cell_counts, key=cell_counts.get)
        masked_cells.add(best_cell)
        for occupancy in occupancies:
            to_remove = []
            for sample_index, cells in occupancy.samples.items():
                cells.discard(best_cell)
                if not cells:
                    to_remove.append(sample_index)
            for sample_index in to_remove:
                del occupancy.samples[sample_index]
        remaining = [occupancy for occupancy in occupancies if occupancy.samples]
        max_persistence = max((occupancy.persistence_samples for occupancy in remaining),
                              default=0) * sample_period
        steps.append(MaskOrderingStep(
            cell_index=best_cell,
            cells_masked=len(masked_cells),
            fraction_masked=len(masked_cells) / grid.num_cells,
            max_persistence=max_persistence,
            identities_retained=len(remaining),
            retention_fraction=(len(remaining) / total_objects) if total_objects else 1.0,
        ))
    return grid, steps


def mask_from_ordering(grid: GridSpec, steps: list[MaskOrderingStep], *,
                       num_cells: int, name: str = "greedy-mask") -> Mask:
    """Materialise the mask consisting of the first ``num_cells`` greedy cells."""
    cells = [step.cell_index for step in steps[:num_cells]]
    return mask_from_grid_cells(grid, cells, name=name)


def choose_mask_for_target(grid: GridSpec, steps: list[MaskOrderingStep], *,
                           target_max_persistence: float,
                           name: str = "target-mask") -> tuple[Mask, MaskOrderingStep | None]:
    """Smallest greedy-prefix mask that brings max persistence under a target.

    Returns the mask and the step at which the target was reached, or the
    full ordering's mask (and None) if the target is unreachable.
    """
    for index, step in enumerate(steps):
        if step.max_persistence <= target_max_persistence:
            return mask_from_ordering(grid, steps, num_cells=index + 1, name=name), step
    return mask_from_ordering(grid, steps, num_cells=len(steps), name=name), None
