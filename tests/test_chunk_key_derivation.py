"""Per-stream chunk-key derivation: same bytes, hashed once per stream.

``repro.core.cache.chunk_key`` canonicalises everything constant over a
``(runner, context)`` stream once and splices each chunk's index and interval
into the memoised text.  The key bytes are a compatibility surface — every
on-disk store is addressed by them — so the pre-change derivation (three full
fingerprints per chunk, recomposed) lives on here as the oracle, and so does
``canonical_value``'s ``isinstance`` chain (the table it became is held
``repr``-equal to it), next to the footage fingerprints of every bundled scene.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import OrderedDict
from dataclasses import FrozenInstanceError, dataclass, fields, is_dataclass, replace
from enum import Enum, IntEnum
from typing import Any, ClassVar, Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PrividSystem, cache as cache_module
from repro.core import engine as engine_module
from repro.core.cache import (
    ChunkResultCache,
    DiskChunkStore,
    TieredChunkCache,
    canonical_value,
    chunk_key,
    context_fingerprint,
    fingerprint,
    runner_fingerprint,
)
from repro.core.engine import (
    DispatchStats,
    _BroadcastPublisher,
    _hold_payload,
    _load_payload,
    _StreamBroadcast,
    chunk_from_spec,
)
from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.query.parser import parse_query
from repro.relational.table import ColumnSpec, DataType, Schema
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import EnteringObjectCounter
from repro.scene.scenarios import SCENARIO_NAMES, build_scenario
from repro.service import QueryService
from repro.utils.timebase import TimeInterval
from repro.video.chunking import Chunk, ChunkSpec, iter_chunks
from repro.video.geometry import BoundingBox
from repro.video.masking import Mask

from tests.conftest import grid_region_scheme, make_crossing_object, make_simple_video

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


#: ``content_fingerprint()`` of every preset as :func:`_scenario` builds it,
#: computed before the canonical form became a per-type table and before the
#: simulator computed each population's probabilities once.  A draw added,
#: dropped or reordered moves one; so does any change to the canonical form.
SCENE_FINGERPRINTS = {
    "campus": "ad883e3e2fbd4df4ee67842f69802768eb35458b9804f242628e671a163081eb",
    "highway": "232c9873ed5ebd3b72aca690818d330df0a3c12eff744d05ace4989d8fb058a3",
    "urban": "3e20c079f228e74a7d0a3d7c580791bf34227eded3221e5ed56f4ae293bdc888",
    "grand-canal": "f7274b383bf180be1b91424a75fd23c4f62b8fe33e8f4cf309bf52795bc87f8c",
    "venice-rialto": "09e766680e60841b0f0623b8596fd5cd9d63805771bc3db299a088cfb709f3b0",
    "taipei": "2712c055ee2a279c5d1ae144638a46c3ef486348e894d6d53e513ff2f135dcec",
    "shibuya": "4e788df6a033c44c21a4469f3233110f9c3b0c90b22f98b742e4d6c5d2d0b30f",
    "beach": "b94283b61c342c6a6c6725bc6678cebd88272b3870008ae2285fcbbeb3c9c06b",
    "warsaw": "002ef38d089f66a0d7fa326d35ee062051dacc82b029edd1b9d9cfd2b777a557",
    "uav": "fe10369681e8f3fb47de2cf52164ce664529dd45309b0b612466947eac0ac365",
}

#: The same at the system benchmark's frozen scene sizes (24 hours): what
#: every store-backed workload's keys embed.
BENCHMARK_SCENE_FINGERPRINTS = {
    ("campus", 0.5, 7): "e1e7de3fa8a440b74a777e287a43160ce531d3cd0af6b31f50e619f53a9c6e12",
    ("highway", 0.3, 11): "21a311c70983dbe0ed0ed95c912bbab106a497fc202bb207d48e90752ead7eab",
}


class TestSceneFingerprints:
    def test_every_preset_is_pinned(self):
        assert set(SCENE_FINGERPRINTS) == set(SCENARIO_NAMES)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_test_scale_scene(self, name):
        assert _scenario(name).video.content_fingerprint() == SCENE_FINGERPRINTS[name]

    @pytest.mark.parametrize("name, scale, seed", sorted(BENCHMARK_SCENE_FINGERPRINTS))
    def test_benchmark_scene(self, name, scale, seed):
        video = build_scenario(name, scale=scale, duration_hours=24, seed=seed).video
        assert video.content_fingerprint() == BENCHMARK_SCENE_FINGERPRINTS[name, scale, seed]


def oracle_canonical_value(value: Any) -> Any:
    """``canonical_value`` as an ``isinstance`` chain, asked per value."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, Enum):
        return (type(value).__name__, value.value)
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                tuple((spec.name, oracle_canonical_value(getattr(value, spec.name)))
                      for spec in fields(value)))
    if isinstance(value, Mapping):
        return tuple(sorted((str(key), oracle_canonical_value(item))
                            for key, item in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [oracle_canonical_value(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return tuple(items)
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return repr(value)


class _Color(Enum):
    RED = "red"
    GREEN = 2


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


@dataclass
class _Plain:
    a: Any
    b: Any = 0
    kind: ClassVar[str] = "not a field"

    def method(self) -> None:
        """A bound method's ``__qualname__`` is its function's."""


@dataclass(frozen=True)
class _Frozen:
    x: Any


@dataclass
class _Nested:
    inner: _Frozen
    items: list


@dataclass
class _Sub(_Plain):
    c: Any = None


class _ByRepr:
    """Neither scalar, container, dataclass nor callable: reduced by ``repr``."""

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __repr__(self) -> str:
        return f"_ByRepr({self.tag})"


_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_HASHABLE = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=4), st.binary(max_size=4),
    _FLOATS.map(np.float64), st.sampled_from(list(_Color) + list(_Level)),
    st.integers(-3, 3).map(_ByRepr), st.integers(-3, 3).map(np.int64))
_CALLABLES = st.sampled_from([len, lambda value: value, _Plain(1).method, _Plain,
                              functools.partial(max, 0), oracle_canonical_value])
# Keys 1 and "1" read the same once str()-ed, so their values get compared.
_KEYS = st.one_of(st.integers(0, 2), st.sampled_from(["0", "1", "2"]), st.booleans())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.sets(_HASHABLE, max_size=4), st.frozensets(_HASHABLE, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4).map(OrderedDict),
        st.builds(_Plain, children, children), st.builds(_Frozen, children),
        st.builds(_Nested, st.builds(_Frozen, children), st.lists(children, max_size=3)),
        st.builds(_Sub, children, children, children))


_VALUES = st.recursive(st.one_of(_HASHABLE, _CALLABLES), _containers, max_leaves=12)


def _outcome(reduce, value) -> tuple[str, str]:
    """What ``reduce`` makes of ``value``: its canonical ``repr``, or the type of
    what it raised (values of colliding keys may not compare; an ``np.float64``
    against a tuple broadcasts to an array with no truth value)."""
    try:
        return "ok", repr(reduce(value))
    except (TypeError, ValueError) as exc:
        return "raised", type(exc).__name__


class TestCanonicalValueTable:
    @settings(max_examples=400, deadline=None)
    @given(value=_VALUES)
    def test_matches_the_isinstance_chain(self, value):
        assert _outcome(canonical_value, value) == _outcome(oracle_canonical_value, value)

    def test_each_rule_by_example(self):
        """One value per rule, and a dataclass *type* is a callable, not fields."""
        values = [None, True, -0.0, math.nan, np.float64(0.5), _Level.HIGH, _Color.RED,
                  {1: "a", "2": (3, [4])}, OrderedDict(b=1, a=2), {3, 1, 2}, frozenset("ab"),
                  _Sub(_Frozen(1), [2], {"c"}), _Nested(_Frozen(math.inf), [b"x"]),
                  _Plain, _Plain(0).method, len, _ByRepr(7), np.int64(3)]
        for value in values:
            assert repr(canonical_value(value)) == repr(oracle_canonical_value(value))
        assert canonical_value(_Plain) == "_Plain"
        assert canonical_value(_Sub(1, 2, 3)) == ("_Sub", (("a", 1), ("b", 2), ("c", 3)))


class TestOracleParity:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_scene_masked_regioned_sampled(self, name, monkeypatch):
        # This process plays the shard: it keeps what a push would carry.
        monkeypatch.setattr(engine_module, "_PAYLOAD_CACHE", {})
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
                            ref = broadcast.payload_ref()
                            for need in publisher.needs(ref):
                                _hold_payload(need, publisher.data(need), ())
                            objects = _load_payload(ref)["objects"]
                            rebuilt = chunk_from_spec(objects, wire)
                            assert rebuilt.video is not video
                            assert chunk_key(runner, rebuilt, context) == expected
                            checked += 1
        finally:
            publisher.close()
        assert checked == 2 * 2 * (12 + 12 * len(scheme.regions))

    _VALUES = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.integers(),
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
            rows = runner.run_chunk_outcome(chunk, context).rows
            writer.put(oracle_key(runner, chunk, context), rows)
            expected.append(rows)

        reader = DiskChunkStore(tmp_path / "store")
        rows = list(_runner().iter_chunk_rows(
            iter_chunks(video, spec, mask=MASK), _context(video), cache=reader))
        assert repr(rows) == repr(expected)
        assert (reader.stats.hits, reader.stats.misses, reader.writes) == (60, 0, 0)


_WIDE_SCHEME = grid_region_scheme(1280.0, 720.0, 9, 9)
_ENDPOINTS = st.one_of(st.integers(0, 600), st.floats(0.0, 600.0),
                       st.sampled_from([-0.0, 0.1, 1 / 3, 5e-324]))
_CHUNK_STEPS = st.fixed_dictionaries({
    "index": st.one_of(st.integers(-3, 10 ** 9),
                       st.sampled_from([True, 2.0, -0.0, np.int64(7)])),
    "ends": st.tuples(_ENDPOINTS, _ENDPOINTS),
    "mask": st.sampled_from([None, MASK]),
    "region": st.one_of(st.none(), st.integers(0, len(_WIDE_SCHEME.regions) - 1)),
    "sample_period": st.sampled_from([None, 1.0, 1, 0.5]),
    "runner": st.integers(0, 1),
})
_STEPS = st.lists(st.one_of(_CHUNK_STEPS, st.sampled_from(["add_objects", "every_region"])),
                  min_size=1, max_size=12)


class _CountingMemo(dict):
    """A key memo that counts the probes it answers."""

    hits = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self.hits += value is not None
        return value


class TestHashStateKey:
    """The memo holds a ``sha256`` state fed the stream's head; a chunk copies
    it.  Whatever a stream's chunks carry, the key is the oracle's."""

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_equals_the_oracle_whatever_the_stream(self, steps):
        video = _walker_video(walkers=2, duration=600.0)
        context = _context(video, metadata={"site": "north"})
        runners = (_runner(5), _runner(7))
        added = 0
        for step in steps:
            if step == "add_objects":
                added += 1
                video.add_objects([make_crossing_object(f"late{added}", start=40.0 * added,
                                                        duration=20.0)])
                continue
            if step == "every_region":
                # More (mask, region) pairs than the memo holds: it starts over.
                chunk = Chunk(video=video, index=0, interval=TimeInterval(0.0, 0.5))
                for region in _WIDE_SCHEME.regions:
                    regioned = replace(chunk, region=region)
                    assert chunk_key(runners[0], regioned, context) \
                        == oracle_key(runners[0], regioned, context)
                assert len(context.key_text_memo) <= cache_module._KEY_TEXT_MEMO_LIMIT
                continue
            region = None if step["region"] is None else _WIDE_SCHEME.regions[step["region"]]
            mask = {} if step["mask"] is None else {"mask": step["mask"]}
            chunk = Chunk(video=video, index=step["index"],
                          interval=TimeInterval(*sorted(step["ends"])), region=region,
                          sample_period=step["sample_period"], **mask)
            runner = runners[step["runner"]]
            assert chunk_key(runner, chunk, context) == oracle_key(runner, chunk, context)

    def test_equal_sample_periods_of_two_types_get_their_own_state(self):
        """``1 == 1.0``, but they print apart: a memo keyed by value alone
        served the second the first one's tail."""
        runner, chunk, context = _golden_inputs()
        for sample_period in (1.0, 1, 1.0):
            each = replace(chunk, sample_period=sample_period)
            assert chunk_key(runner, each, context) == oracle_key(runner, each, context)

    def test_signed_zeros_get_their_own_key(self):
        """``-0.0 == 0.0`` but they print apart: a key memo keyed by the
        interval's value alone served the second zero the first one's key."""
        runner, chunk, context = _golden_inputs()
        for start, end in ((0.0, 30.0), (-0.0, 30.0), (0.0, 30.0), (-30.0, 0.0),
                           (-30.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            each = replace(chunk, index=0, interval=TimeInterval(start, end))
            for _ in range(2):
                assert chunk_key(runner, each, context) == oracle_key(runner, each, context)
        assert len({key[0] for key in context.chunk_key_memo.values()}) == 7

    def test_a_kept_key_pins_its_mask(self):
        """The key memo is keyed by the mask's identity, so each kept key holds
        its mask: once the hash states start over, a mask built where a
        dropped one lived must not be served the dropped one's key."""
        runner, chunk, context = _golden_inputs()
        for attempt in range(50):
            mask = Mask("old", (BoundingBox(0.0, 0.0, 10.0 + attempt, 10.0),))
            chunk_key(runner, replace(chunk, mask=mask), context)
            context.key_text_memo.clear()  # as a wider stream filling it would
            del mask
            other = replace(chunk, mask=Mask("new", (BoundingBox(5.0, 5.0, 9.0, 9.0),)))
            assert chunk_key(runner, other, context) == oracle_key(runner, other, context)

    @settings(max_examples=40, deadline=None)
    @given(steps=_STEPS)
    def test_a_stream_keyed_again_is_served_from_the_key_memo(self, steps):
        """Every chunk keyed since the footage last changed is keyed again: each
        one with an ``int`` index between ``float`` ends is one memo hit, and
        every key is still the oracle's."""
        video = _walker_video(walkers=2, duration=600.0)
        context = _context(video, metadata={"site": "north"})
        memo = context.__dict__["chunk_key_memo"] = _CountingMemo()
        runners = (_runner(5), _runner(7))
        added, current = 0, []
        for step in steps:
            if step == "add_objects":
                added += 1
                video.add_objects([make_crossing_object(f"late{added}", start=40.0 * added,
                                                        duration=20.0)])
                current = []
                continue
            if step == "every_region":
                chunk = Chunk(video=video, index=0, interval=TimeInterval(0.0, 0.5))
                current += [(runners[0], replace(chunk, region=region))
                            for region in _WIDE_SCHEME.regions]
                continue
            region = None if step["region"] is None else _WIDE_SCHEME.regions[step["region"]]
            mask = {} if step["mask"] is None else {"mask": step["mask"]}
            current.append((runners[step["runner"]], Chunk(
                video=video, index=step["index"], interval=TimeInterval(*sorted(step["ends"])),
                region=region, sample_period=step["sample_period"], **mask)))
            chunk_key(*current[-1], context)
        for runner, chunk in current:
            chunk_key(runner, chunk, context)
        memoised = [type(chunk.index) is int
                    and type(chunk.interval.start) is type(chunk.interval.end) is float
                    for _, chunk in current]
        memo.hits = 0
        for runner, chunk in current:
            assert chunk_key(runner, chunk, context) == oracle_key(runner, chunk, context)
        assert memo.hits == sum(memoised)

    def test_threads_copy_one_shared_state(self):
        """Two threads key one stream from one memo entry; the shared state is
        only copied, never fed, so every key stays the oracle's."""
        runner, chunk, context = _golden_inputs()
        chunks = [replace(chunk, index=index,
                          interval=TimeInterval(30.0 * index, 30.0 * index + 30.0))
                  for index in range(200)]
        expected = [oracle_key(runner, each, context) for each in chunks]
        chunk_key(runner, chunk, context)
        assert len(context.key_text_memo) == 1
        results = {}
        barrier = threading.Barrier(2)

        def derive(slot: int) -> None:
            barrier.wait(timeout=30)
            results[slot] = [chunk_key(runner, each, context) for each in chunks]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=derive, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert results == {0: expected, 1: expected}
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

    def test_add_objects_changes_every_key_the_key_memo_held(self):
        video = _walker_video()
        spec = ChunkSpec(window=TimeInterval(0.0, 300.0), chunk_duration=30.0)
        runner, context = _runner(), _context(video)
        store = ChunkResultCache()
        chunks = list(iter_chunks(video, spec, mask=MASK))
        before = [store.key_for(runner, chunk, context) for chunk in chunks]
        assert [store.key_for(runner, chunk, context) for chunk in chunks] == before
        video.add_objects([make_crossing_object("late", start=40.0, duration=20.0)])
        after = [store.key_for(runner, chunk, context) for chunk in chunks]
        assert after == [oracle_key(runner, chunk, context) for chunk in chunks]
        assert not set(after) & set(before)
        assert [store.key_for(runner, chunk, context) for chunk in chunks] == after

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
            assert chunk_key(runner, replace(chunk, region=region), context) == \
                oracle_key(runner, replace(chunk, region=region), context)
        assert 0 < len(context.key_text_memo) <= cache_module._KEY_TEXT_MEMO_LIMIT
        # Broadcast payload bytes do not depend on whether keys were derived.
        assert pickle.dumps((runner, context)) == cold
        shipped_runner, shipped_context = pickle.loads(cold)
        assert "fingerprint" not in vars(shipped_context)
        assert chunk_key(shipped_runner, chunk, shipped_context) == GOLDEN_KEY

    def test_key_memo_is_bounded_and_never_shipped(self):
        import pickle

        runner, chunk, context = _golden_inputs()
        cold = pickle.dumps((runner, context))
        limit = cache_module._CHUNK_KEY_MEMO_LIMIT
        chunks = [replace(chunk, index=index,
                          interval=TimeInterval(30.0 * index, 30.0 * index + 30.0))
                  for index in range(limit + 3)]
        keys = [chunk_key(runner, each, context) for each in chunks[:limit]]
        assert len(context.chunk_key_memo) == limit
        # A full memo starts over: the next key is its first entry.
        for each in chunks[limit:]:
            keys.append(chunk_key(runner, each, context))
        assert len(context.chunk_key_memo) == 3
        assert len(set(keys)) == limit + 3
        for index in (0, 1, limit - 1, limit, limit + 2):
            assert keys[index] == oracle_key(runner, chunks[index], context)
        assert pickle.dumps((runner, context)) == cold
        shipped_runner, shipped_context = pickle.loads(cold)
        assert "chunk_key_memo" not in vars(shipped_context)
        assert chunk_key(shipped_runner, chunks[0], shipped_context) == keys[0]


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


QUERY_TEXT = (
    "SPLIT cam BEGIN {begin} END {end} BY TIME 30sec STRIDE 0sec{mask} INTO chunks;\n"
    "PROCESS chunks USING counter.py TIMEOUT {timeout}sec PRODUCING {max_rows} ROWS "
    'WITH SCHEMA (kind:STRING="", dy:NUMBER={default}) INTO rows;\n'
    "SELECT COUNT(*) FROM rows CONSUMING 0.01;")


def _query(begin: float = 0.0, *, chunks: int = 4, timeout: float = 5, max_rows: int = 5,
           default: str = "0", mask: str | None = None):
    return parse_query(QUERY_TEXT.format(
        begin=begin, end=begin + 30.0 * chunks, timeout=timeout, max_rows=max_rows,
        default=default, mask="" if mask is None else f" WITH MASK {mask}"))


def _expected_keys(system, query) -> list[str]:
    """The query's keys as the oracle derives them from a runner and a context
    built here, now, from the registrations — what a system that keeps nothing
    between queries would use."""
    split, process = query.splits[0], query.processes[0]
    camera = system.cameras[split.camera]
    mask, _ = camera.policy_map.lookup(split.mask)
    runner = SandboxRunner(system.registry.resolve(process.executable), process.schema,
                           max_rows=process.max_rows, timeout_seconds=process.timeout)
    context = ExecutionContext(
        camera=camera.name, fps=camera.video.fps, detector_config=camera.detector_config,
        tracker_config=camera.tracker_config,
        metadata={**camera.video.metadata, **camera.metadata},
        detector_seed=camera.detector_seed)
    spec = ChunkSpec(window=split.window, chunk_duration=split.chunk_duration,
                     stride=split.stride)
    return [oracle_key(runner, chunk, context)
            for chunk in iter_chunks(camera.video, spec, mask=mask)]


class _Deployment:
    """A system or service over one camera and one executable, with every key
    its store derives recorded in order."""

    def __init__(self, target) -> None:
        self.target = target
        self.video = _walker_video("cam", walkers=6, duration=3600.0)
        self.executable = EnteringObjectCounter(category="person")
        target.register_executable("counter.py", self.executable)
        policy = PrivacyPolicy(rho=30.0, k_segments=1)
        policy_map = MaskPolicyMap.unmasked(policy)
        policy_map.add("corner", MASK, policy)
        self.camera = target.register_camera(
            "cam", self.video, epsilon_budget=1000.0, metadata={"site": "north"},
            policy_map=policy_map)
        self.system = getattr(target, "_template", target)
        store = target.cache if isinstance(target, QueryService) else target.chunk_cache
        self.keys: list[str] = []
        derive = store.key_for

        def recording(runner, chunk, context):
            key = derive(runner, chunk, context)
            self.keys.append(key)
            return key

        store.key_for = recording

    def keys_of(self, query) -> list[str]:
        """Run ``query`` alone; its keys, checked against the oracle."""
        before = len(self.keys)
        self.target.execute(query)
        derived = self.keys[before:]
        assert derived == _expected_keys(self.system, query)
        return derived


@pytest.fixture()
def derivations(monkeypatch) -> dict[str, int]:
    """How often each stream constant is derived from scratch."""
    calls = {"runner": 0, "context": 0, "text": 0}

    def counted(name: str, attribute: str):
        real = getattr(cache_module, attribute)

        def counting(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(cache_module, attribute, counting)

    counted("runner", "runner_fingerprint")
    counted("context", "context_fingerprint")
    counted("text", "_canonical_text")
    return calls


class TestOncePerRegistration:
    """The runner's and the context's constants outlive the query: derived once
    per registration, and again exactly when a registration reads differently."""

    @pytest.fixture()
    def service(self, tmp_path):
        with QueryService(seed=3, cache="memory", wal_dir=tmp_path / "wal",
                          max_concurrent_queries=2) as service:
            yield _Deployment(service)

    def test_service_derives_each_constant_once(self, service, derivations):
        for index in range(6):
            service.keys_of(_query(120.0 * index))
        # head + tail text of the one (mask, region) pair; no chunk's own part.
        assert derivations == {"runner": 1, "context": 1, "text": 2}
        service.keys_of(_query(0.0, mask="corner"))
        service.keys_of(_query(120.0, mask="corner"))
        assert derivations == {"runner": 1, "context": 1, "text": 4}
        assert len(set(service.keys)) == 8 * 4

    def test_system_alone_shares_the_constants_between_executes(self, derivations):
        with PrividSystem(seed=3, cache="memory") as system:
            deployment = _Deployment(system)
            first = deployment.keys_of(_query(0.0))
            second = deployment.keys_of(_query(120.0))
        assert derivations == {"runner": 1, "context": 1, "text": 2}
        assert not set(first) & set(second)

    def test_every_kind_of_change_is_noticed_and_undone(self, service):
        """One change at a time between two queries: the next query's keys are
        the ones a runner and context built from scratch would give (checked
        inside ``keys_of``), differ from the old ones, and come back."""
        executable, camera, video = service.executable, service.camera, service.video
        other = EnteringObjectCounter(category="car")

        def assign(target, name, value):
            return lambda: setattr(target, name, value)

        def entry(mapping, key, value):
            return lambda: mapping.__setitem__(key, value)

        changes = {
            "registered anew": (
                lambda: service.target.register_executable("counter.py", other, replace=True),
                lambda: service.target.register_executable("counter.py", executable,
                                                           replace=True)),
            "field assigned in place": (assign(executable, "entry_margin_frames", 5),
                                        assign(executable, "entry_margin_frames", 2)),
            "camera metadata": (entry(camera.metadata, "site", "south"),
                                entry(camera.metadata, "site", "north")),
            "camera metadata, type only": (entry(camera.metadata, "site", b"north"),
                                           entry(camera.metadata, "site", "north")),
            "video metadata": (entry(video.metadata, "lens", "wide"),
                               lambda: video.metadata.pop("lens")),
            "detector seed": (assign(camera, "detector_seed", 9),
                              assign(camera, "detector_seed", 0)),
            "detector config": (
                assign(camera, "detector_config", DetectorConfig(miss_rate=0.3)),
                assign(camera, "detector_config", camera.detector_config)),
            # The kept context holds this very dict: only re-reading it notices.
            "detector config, entry in place": (
                entry(camera.detector_config.category_miss_rates, "person", 0.4),
                lambda: camera.detector_config.category_miss_rates.pop("person")),
        }
        baseline = service.keys_of(_query())
        for label, (change, undo) in changes.items():
            change()
            changed = service.keys_of(_query())
            assert not set(changed) & set(baseline), label
            assert service.keys_of(_query()) == changed, label
            undo()
            assert service.keys_of(_query()) == baseline, label
        for label, clause in {"max_rows": dict(max_rows=6), "TIMEOUT": dict(timeout=6),
                              "TIMEOUT, type only": dict(timeout=5.0),
                              "schema default": dict(default="1")}.items():
            changed = service.keys_of(_query(**clause))
            if label == "TIMEOUT, type only":
                # The parser reads 5 and 5.0 as one float: one runner, one key.
                assert changed == baseline
            else:
                assert not set(changed) & set(baseline), label
            assert service.keys_of(_query()) == baseline, label
        # New footage has no way back; every later key carries it.
        video.add_objects([make_crossing_object("late", start=40.0, duration=20.0)])
        assert not set(service.keys_of(_query())) & set(baseline)

    def test_unequal_defaults_that_compare_equal_get_their_own_runner(self, service):
        """``0 == 0.0 == False`` but their keys differ, so ``==`` must not
        decide reuse: ColumnSpec coerces a NUMBER default, a STRING one not."""
        registry = service.system.registry
        schemas = [Schema(columns=(ColumnSpec("kind", DataType.STRING, default),))
                   for default in ("1", "1.0")]
        runners = [registry.runner("counter.py", schema=schema, max_rows=5,
                                   timeout_seconds=5.0) for schema in schemas]
        assert runners[0] is not runners[1]
        assert registry.runner("counter.py", schema=schemas[1], max_rows=5,
                               timeout_seconds=5.0) is runners[1]
        assert registry.runner("counter.py", schema=schemas[1], max_rows=5,
                               timeout_seconds=5) is not runners[1]
        assert len(registry._runners) == 1

    def test_racing_queries_with_different_clauses_derive_only_oracle_keys(self, service):
        """Two pool threads replace each other's kept runner (TIMEOUT 5 against
        6, same name) and share the kept context, on a short switch interval."""
        rounds = 12
        pairs = [(_query(240.0 * index, timeout=5), _query(240.0 * index + 120.0, timeout=6))
                 for index in range(rounds)]
        expected = [key for pair in pairs for query in pair
                    for key in _expected_keys(service.system, query)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for pair in pairs:
                futures = [service.target.submit(query) for query in pair]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert sorted(service.keys) == sorted(expected)
        assert len(set(expected)) == rounds * 2 * 4
