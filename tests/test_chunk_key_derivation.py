"""Per-stream chunk-key derivation: same bytes, hashed once per stream.

``repro.core.cache.chunk_key`` canonicalises everything constant over a
``(runner, context)`` stream once and splices each chunk's index and interval
into the memoised text.  The key bytes are a compatibility surface — every
on-disk store is addressed by them — so the pre-change derivation (three full
fingerprints per chunk, recomposed) lives on here as the oracle.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cache as cache_module
from repro.core.cache import (
    ChunkResultCache,
    DiskChunkStore,
    TieredChunkCache,
    chunk_fingerprint,
    chunk_key,
    context_fingerprint,
    fingerprint,
    runner_fingerprint,
)
from repro.core.engine import (
    DispatchStats,
    _BroadcastPublisher,
    _load_payload,
    _StreamBroadcast,
    chunk_from_spec,
)
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import EnteringObjectCounter
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.utils.timebase import TimeInterval
from repro.video.chunking import Chunk, ChunkSpec, iter_chunks
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask
from repro.video.regions import grid_region_scheme

from tests.conftest import make_crossing_object, make_simple_video

SCHEMA = Schema(columns=(ColumnSpec("kind", DataType.STRING, ""),
                         ColumnSpec("dy", DataType.NUMBER, 0.0)))
MASK = Mask("corner", (BoundingBox(0.0, 0.0, 200.0, 150.0),))

#: ``chunk_key`` of :func:`_golden_inputs`, computed with the derivation as it
#: stood before it was made per-stream.  If this moves, every store on disk
#: goes cold: change the canonical form only by appending parts that leave
#: existing chunks' bytes alone.
GOLDEN_KEY = "45d2fca421aef4b39804387f3bf5e490fc5721108ff0b4f1ffaa5ff03e3567b1"


def oracle_key(runner, chunk, context) -> str:
    """The key as three full per-chunk fingerprints, recomposed."""
    video = chunk.video
    parts = [video.name, video.content_fingerprint(), video.fps, video.duration,
             chunk.index, (chunk.interval.start, chunk.interval.end),
             chunk.mask, chunk.region, chunk.sample_period]
    if chunk.metadata:
        parts.append(chunk.metadata)
    assert chunk_fingerprint(chunk) == fingerprint(*parts)
    return fingerprint(fingerprint(*parts), runner_fingerprint(runner),
                       context_fingerprint(context))


def _runner(max_rows: int = 5) -> SandboxRunner:
    return SandboxRunner(EnteringObjectCounter(category="person"), SCHEMA,
                         max_rows=max_rows, timeout_seconds=5.0)


def _context(video, **overrides) -> ExecutionContext:
    defaults = dict(camera=video.name, fps=video.fps,
                    detector_config=DetectorConfig(),
                    tracker_config=TrackerConfig(max_age=8, min_hits=2,
                                                 iou_threshold=0.1))
    return ExecutionContext(**{**defaults, **overrides})


def _walker_video(name: str = "test-cam", walkers: int = 3, duration: float = 1800.0):
    return make_simple_video(
        duration=duration, name=name,
        objects=[make_crossing_object(f"w{i}", start=20.0 + 80.0 * i, duration=35.0)
                 for i in range(walkers)])


def _golden_inputs():
    video = _walker_video("golden-cam", walkers=2, duration=600.0)
    chunk = Chunk(video=video, index=3, interval=TimeInterval(90.0, 120.0),
                  mask=MASK, sample_period=1.0)
    context = _context(video, metadata={"site": "north"}, detector_seed=11)
    return _runner(), chunk, context


def _scenario(name: str):
    if name in ("campus", "highway", "urban"):
        return build_scenario(name, scale=0.1, duration_hours=0.25)
    return build_scenario(name, duration_hours=0.25)


class TestOracleParity:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_scene_masked_regioned_sampled(self, name):
        scenario = _scenario(name)
        video = scenario.video
        scheme = scenario.region_scheme or grid_region_scheme(
            video.width, video.height, 2, 2)
        checked = 0
        publisher = _BroadcastPublisher()
        try:
            for mask in (None, scenario.owner_mask or MASK):
                for region_scheme in (None, scheme):
                    for sample_period in (None, 1.0):
                        runner = _runner()
                        context = _context(video,
                                           detector_config=scenario.detector_config,
                                           tracker_config=scenario.tracker_config)
                        # Region schemes with soft boundaries take one-frame chunks.
                        duration = 30.0 if region_scheme is None else video.frame_period
                        spec = ChunkSpec(window=TimeInterval(0.0, 12 * duration),
                                         chunk_duration=duration,
                                         sample_period=sample_period)
                        masked = {} if mask is None else {"mask": mask}
                        broadcast = _StreamBroadcast(publisher, runner, context, DispatchStats())
                        for chunk in iter_chunks(video, spec, region_scheme=region_scheme,
                                                 **masked):
                            expected = oracle_key(runner, chunk, context)
                            assert chunk_key(runner, chunk, context) == expected
                            # The shard's view: the chunk rebuilt from its wire
                            # spec against the decoded manifest and footage part.
                            wire = broadcast.chunk_spec(chunk)
                            objects = _load_payload(broadcast.payload_ref())["objects"]
                            rebuilt = chunk_from_spec(objects, wire)
                            assert rebuilt.video is not video
                            assert chunk_key(runner, rebuilt, context) == expected
                            checked += 1
        finally:
            publisher.close()
        assert checked == 2 * 2 * (12 + 12 * len(scheme.regions))

    _VALUES = st.one_of(
        st.floats(allow_nan=False), st.integers(),
        st.sampled_from([-0.0, 0.1, 1e22, 1 / 3, 2.0 ** 53 + 2.0, 5e-324,
                         123456789.987654321]))

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(), ends=st.tuples(_VALUES, _VALUES))
    def test_spliced_index_and_interval_values(self, index, ends):
        """Whatever index / interval values a chunk carries splice exactly:
        ``-0.0``, huge and non-representable decimals, and the ints that
        ``TimeInterval(0, 600)`` keeps as ints."""
        runner, golden, context = _golden_inputs()
        chunk = replace(golden, index=index, interval=TimeInterval(*sorted(ends)))
        assert chunk_key(runner, chunk, context) == oracle_key(runner, chunk, context)

    def test_golden_key_is_pinned_on_every_store(self, tmp_path):
        runner, chunk, context = _golden_inputs()
        assert chunk_key(runner, chunk, context) == GOLDEN_KEY
        for store in (ChunkResultCache(), DiskChunkStore(tmp_path / "disk"),
                      TieredChunkCache(disk=tmp_path / "tiered")):
            assert store.key_for(*_golden_inputs()) == GOLDEN_KEY

    def test_store_filled_under_oracle_keys_reads_back_fully_warm(self, tmp_path):
        """Old stores stay warm: fill by oracle key, read through the new path."""
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0.0, 1800.0), chunk_duration=30.0)
        runner, context = _runner(), _context(video)
        expected = []
        writer = DiskChunkStore(tmp_path / "store")
        for chunk in iter_chunks(video, spec, mask=MASK):
            rows = runner.run_chunk(chunk, context)
            writer.put(oracle_key(runner, chunk, context), rows)
            expected.append(rows)

        reader = DiskChunkStore(tmp_path / "store")
        rows = list(_runner().iter_chunk_rows(
            iter_chunks(video, spec, mask=MASK), _context(video), cache=reader))
        assert repr(rows) == repr(expected)
        assert (reader.stats.hits, reader.stats.misses, reader.writes) == (60, 0, 0)


class TestChunkMetadata:
    def test_non_empty_metadata_is_part_of_the_key(self):
        runner, chunk, context = _golden_inputs()
        day = replace(chunk, metadata={"shift": "day"})
        night = replace(chunk, metadata={"shift": "night"})
        keys = {chunk_key(runner, each, context) for each in (chunk, day, night)}
        assert len(keys) == 3
        for each in (day, night):
            assert chunk_key(runner, each, context) == oracle_key(runner, each, context)

    def test_empty_metadata_keeps_the_golden_bytes(self):
        runner, chunk, context = _golden_inputs()
        assert chunk_key(runner, replace(chunk, metadata={}), context) == GOLDEN_KEY
        # ... also right after a metadata-carrying chunk of the same stream.
        chunk_key(runner, replace(chunk, metadata={"shift": "day"}), context)
        assert chunk_key(runner, chunk, context) == GOLDEN_KEY


class TestInvalidation:
    def test_add_objects_mid_stream_changes_later_keys(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0.0, 120.0), chunk_duration=30.0)
        runner, context = _runner(), _context(video)
        store = ChunkResultCache()
        chunks = list(iter_chunks(video, spec))
        untouched = [store.key_for(runner, chunk, context) for chunk in chunks]
        first = store.key_for(runner, chunks[0], context)
        video.add_objects([make_crossing_object("late", start=40.0, duration=20.0)])
        second = store.key_for(runner, chunks[1], context)
        assert first == untouched[0]
        assert second != untouched[1]
        assert second == oracle_key(runner, chunks[1], context)

    def test_contexts_and_runners_back_to_back_through_one_store(self, tmp_path):
        video = _walker_video()
        chunk = next(iter_chunks(video, ChunkSpec(window=TimeInterval(0.0, 60.0),
                                                  chunk_duration=30.0)))
        store = TieredChunkCache(disk=tmp_path / "store")
        runner = _runner()
        plain = store.key_for(runner, chunk, _context(video))
        tagged = store.key_for(runner, chunk, _context(video, metadata={"k": 1}))
        retagged = store.key_for(runner, chunk, _context(video, metadata={"k": 2}))
        assert len({plain, tagged, retagged}) == 3
        context = _context(video)
        assert store.key_for(_runner(max_rows=5), chunk, context) == plain
        assert store.key_for(_runner(max_rows=6), chunk, context) != plain

    def test_stream_constants_are_frozen(self):
        runner, _, context = _golden_inputs()
        with pytest.raises(FrozenInstanceError):
            context.detector_seed = 12
        with pytest.raises(FrozenInstanceError):
            runner.max_rows = 6

    def test_memo_is_bounded_and_never_shipped(self):
        import pickle

        runner, chunk, context = _golden_inputs()
        cold = pickle.dumps((runner, context))
        scheme = grid_region_scheme(1280.0, 720.0, 12, 12)
        for region in scheme.regions:
            assert chunk_key(runner, chunk.with_region(region), context) == \
                oracle_key(runner, chunk.with_region(region), context)
        assert 0 < len(context.key_text_memo) <= cache_module._KEY_TEXT_MEMO_LIMIT
        # Broadcast payload bytes do not depend on whether keys were derived.
        assert pickle.dumps((runner, context)) == cold
        shipped_runner, shipped_context = pickle.loads(cold)
        assert "fingerprint" not in vars(shipped_context)
        assert chunk_key(shipped_runner, chunk, shipped_context) == GOLDEN_KEY


class TestOncePerStream:
    def test_warm_stream_canonicalises_runner_and_context_once(self, monkeypatch):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0.0, 1800.0), chunk_duration=30.0)
        store = ChunkResultCache()
        expected = list(_runner().iter_chunk_rows(iter_chunks(video, spec, mask=MASK),
                                                  _context(video), cache=store))
        assert len(expected) == 60

        calls = {"runner": 0, "context": 0, "mask": 0}
        real_canonical = cache_module.canonical_value

        def counted(name):
            real = getattr(cache_module, f"{name}_fingerprint")

            def counting(target):
                calls[name] += 1
                return real(target)
            return counting

        def counting_canonical(value):
            if value is MASK:
                calls["mask"] += 1
            return real_canonical(value)

        monkeypatch.setattr(cache_module, "runner_fingerprint", counted("runner"))
        monkeypatch.setattr(cache_module, "context_fingerprint", counted("context"))
        monkeypatch.setattr(cache_module, "canonical_value", counting_canonical)
        rows = list(_runner().iter_chunk_rows(iter_chunks(video, spec, mask=MASK),
                                              _context(video), cache=store))
        assert repr(rows) == repr(expected)
        assert store.stats.hits == 60
        assert calls == {"runner": 1, "context": 1, "mask": 1}


class TestConcurrentStreams:
    def test_threads_on_two_streams_against_one_store(self, tmp_path):
        """Four threads (more than cores), two per stream, one shared store.

        Each stream's two threads share a ``(runner, context)`` per round,
        and the second stream's region scheme has more regions than the
        memo holds, so memo fills and clears race too.
        """
        store = TieredChunkCache(disk=tmp_path / "store")
        wide = grid_region_scheme(1280.0, 720.0, 9, 9)
        assert len(wide.regions) > cache_module._KEY_TEXT_MEMO_LIMIT
        streams = []
        for name, max_rows, split in (
                ("cam-a", 5, dict(mask=MASK, duration=30.0, count=60)),
                ("cam-b", 7, dict(region_scheme=wide, duration=0.5, count=2))):
            video = _walker_video(name)
            duration, count = split.pop("duration"), split.pop("count")
            spec = ChunkSpec(window=TimeInterval(0.0, count * duration),
                             chunk_duration=duration)
            chunks = list(iter_chunks(video, spec, **split))
            runner, context = _runner(max_rows), _context(video)
            alone = [store.key_for(runner, chunk, context) for chunk in chunks]
            assert alone == [oracle_key(runner, chunk, context) for chunk in chunks]
            streams.append((chunks, max_rows, video, alone))
        assert not set(streams[0][3]) & set(streams[1][3])

        rounds = 10
        shared = [[(_runner(max_rows), _context(video)) for _ in range(rounds)]
                  for _, max_rows, video, _ in streams]
        results: dict[tuple[int, int], list[list[str]]] = {}
        barrier = threading.Barrier(4)

        def derive(slot: int, twin: int) -> None:
            chunks = streams[slot][0]
            barrier.wait(timeout=30)
            results[slot, twin] = [
                [store.key_for(runner, chunk, context) for chunk in chunks]
                for runner, context in shared[slot]]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=derive, args=(slot, twin))
                       for slot in (0, 1) for twin in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for slot in (0, 1):
            for twin in (0, 1):
                assert results[slot, twin] == [streams[slot][3]] * rounds
