"""A stored entry never carries more rows than its reader's ``max_rows``.

Every sensitivity in ``relational/aggregates.py`` assumes a chunk adds at
most ``max_rows`` rows to a table.  The producer truncates to that bound,
but a chunk store is a directory anyone with write access can plant an
entry in, so the bound is checked again where stored rows are read: an
oversized entry is corrupt in whichever tier serves it — counted in
``read_errors``, dropped from every tier, and the chunk re-executed.
"""

import json

import pytest

from repro.core import ChunkResultCache, DiskChunkStore, PrividSystem, TieredChunkCache
from repro.evaluation.runner import register_scenario_camera, scenario_policy_map
from repro.query.parser import parse_query
from repro.scene.scenarios import build_scenario
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec, iter_chunks

from tests.conftest import flat_rows

QUERY = (
    "SPLIT campus BEGIN 0 END 1hr BY TIME 60sec STRIDE 0sec INTO chunks;\n"
    "PROCESS chunks USING count_entering_people.py TIMEOUT 1sec PRODUCING 5 ROWS "
    'WITH SCHEMA (kind:STRING="", dy:NUMBER=0) INTO people;\n'
    "SELECT COUNT(*) FROM people CONSUMING 1.0;")


@pytest.fixture(scope="module")
def campus():
    scenario = build_scenario("campus", scale=0.2, duration_hours=1.0, seed=7)
    return scenario, scenario_policy_map(scenario, k_segments=1)


def _system(campus, cache) -> PrividSystem:
    scenario, policy_map = campus
    system = PrividSystem(seed=1, cache=cache)
    register_scenario_camera(system, scenario, policy_map=policy_map,
                             epsilon_budget=10.0, sample_period=1.0)
    return system


def _count(system: PrividSystem) -> float:
    result = system.execute(parse_query(QUERY), charge_budget=False)
    return result.releases[0].raw_value_unsafe


def _inflate(path, factor: int) -> bytes:
    """Rewrite the entry at ``path`` to hold ``factor`` times its rows, as a
    valid entry in every other respect; the original bytes."""
    original = path.read_bytes()
    payload = json.loads(original)
    payload["rows"] = payload["rows"] * factor
    path.write_text(json.dumps(payload))
    return original


class TestAPlantedEntry:
    def test_an_inflated_disk_entry_is_re_executed_not_counted(self, campus, tmp_path):
        store = tmp_path / "store"
        cold = _system(campus, DiskChunkStore(store))
        assert _count(cold) == 24.0
        entries = sorted(store.rglob("*.json"))
        assert len(entries) == 60
        target = next(path for path in entries if path.stat().st_size > 22)
        original = _inflate(target, 400)

        warm = _system(campus, DiskChunkStore(store))
        # Served as stored, the entry's 400 rows would make this 423.
        assert _count(warm) == 24.0
        stats = warm.cache_stats()
        assert (stats["read_errors"], stats["misses"], stats["hits"]) == (1, 1, 59)
        assert stats["writes"] == 1
        assert target.read_bytes() == original  # put again, at its true size

    def test_a_tiered_store_drops_it_before_promotion(self, campus, tmp_path):
        cold = _system(campus, f"tiered:{tmp_path / 'store'}")
        assert _count(cold) == 24.0
        target = next(path for path in sorted((tmp_path / "store").rglob("*.json"))
                      if path.stat().st_size > 22)
        original = _inflate(target, 400)
        key = target.name[:-len(".json")]

        warm = _system(campus, f"tiered:{tmp_path / 'store'}")
        assert _count(warm) == 24.0
        tiered = warm.chunk_cache
        assert (tiered.disk.read_errors, tiered.memory.read_errors) == (1, 0)
        assert tiered.memory.get(key) == json.loads(original)["rows"]
        assert target.read_bytes() == original


class TestEveryTier:
    ROWS = [{"kind": "person", "dy": 1.0}] * 3
    KEY = "9f" * 32

    def test_memory_tier(self):
        memory = ChunkResultCache()
        memory.put(self.KEY, self.ROWS)
        assert memory.get(self.KEY, max_rows=3) == self.ROWS  # at the bound
        assert memory.get(self.KEY, max_rows=2) is None
        assert (len(memory), memory.read_errors, memory.stats.misses) == (0, 1, 1)
        assert memory.stats_dict()["read_errors"] == 1

    def test_disk_tier(self, tmp_path):
        disk = DiskChunkStore(tmp_path)
        disk.put(self.KEY, self.ROWS)
        assert disk.get(self.KEY, max_rows=3) == self.ROWS
        assert disk.get(self.KEY, max_rows=2) is None
        assert (len(disk), disk.read_errors, disk.stats.misses) == (0, 1, 1)

    def test_tiered_store_drops_it_from_both_tiers(self, tmp_path):
        tiered = TieredChunkCache(disk=tmp_path)
        tiered.put(self.KEY, self.ROWS)
        assert tiered.get(self.KEY, max_rows=2) is None
        assert (len(tiered.memory), len(tiered.disk)) == (0, 0)
        assert (tiered.memory.read_errors, tiered.disk.read_errors) == (1, 1)
        assert tiered.stats_dict()["misses"] == 1

    def test_no_bound_reads_what_was_stored(self, tmp_path):
        tiered = TieredChunkCache(disk=tmp_path)
        tiered.put(self.KEY, self.ROWS)
        assert tiered.get(self.KEY) == self.ROWS


def test_the_stream_re_executes_and_puts_it_again(campus):
    scenario, _ = campus
    system = _system(campus, None)
    runner = system.registry.runner("count_entering_people.py",
                                    schema=parse_query(QUERY).processes[0].schema,
                                    max_rows=5, timeout_seconds=1.0)
    context = system.cameras["campus"].execution_context()
    spec = ChunkSpec(window=TimeInterval(0.0, 600.0), chunk_duration=60.0,
                     sample_period=1.0)
    memory = ChunkResultCache()
    cold = flat_rows(runner.iter_chunk_rows(iter_chunks(scenario.video, spec), context,
                                            cache=memory))
    chunk = next(iter_chunks(scenario.video, spec))
    key = memory.key_for(runner, chunk, context)
    memory.put(key, [{"kind": "person", "dy": 1.0}] * 6)
    again = flat_rows(runner.iter_chunk_rows(iter_chunks(scenario.video, spec), context,
                                             cache=memory))
    assert repr(again) == repr(cold)
    assert memory.read_errors == 1
    assert len(memory.get(key)) <= 5
