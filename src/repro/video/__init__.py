"""Video substrate: geometry, synthetic videos, chunking, masks, regions."""

from repro.video.geometry import BoundingBox, GridSpec, Point
from repro.video.video import FrameBatch, FrameTruth, SyntheticVideo, VisibleObject
from repro.video.chunking import Chunk, ChunkSpec, count_chunks, iter_chunks, split_interval
from repro.video.masking import Mask, apply_mask_to_boxes
from repro.video.regions import Region, RegionScheme

__all__ = [
    "BoundingBox",
    "GridSpec",
    "Point",
    "FrameBatch",
    "FrameTruth",
    "SyntheticVideo",
    "VisibleObject",
    "Chunk",
    "ChunkSpec",
    "count_chunks",
    "iter_chunks",
    "split_interval",
    "Mask",
    "apply_mask_to_boxes",
    "Region",
    "RegionScheme",
]
