"""Tests for the binary columnar chunk-entry codec and its store wiring.

The codec's contract is *exactness*: ``decode(encode(rows))`` must reproduce
the rows bit-for-bit — value types (bool vs int vs float vs str), ``None``
values, missing keys, and per-row key order all survive — or ``encode``
must refuse (returning None) so the store falls back to legacy JSON.  The
property tests drive that contract across the whole value space; the store
tests pin the hit-path behaviours the engines rely on: memory-mapped binary
reads with zero JSON parsing, legacy-JSON read compatibility with in-place
migration, corrupt-entry self-healing, and the write path on plain ``os``
calls — its failures, its races and its syscall budget.
"""

import errno
import json
import multiprocessing
import os
import random
import shutil
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.cache as cache_module
from repro.core.cache import (
    DiskChunkStore,
    TieredChunkCache,
    create_cache,
    decode_binary_entry,
    encode_binary_entry,
    shared_spec,
)

# ------------------------------------------------------------- row strategies

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1

_COLUMN_VALUES = {
    "float": st.floats(allow_nan=True, allow_infinity=True, width=64),
    "int": st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX),
    "bool": st.booleans(),
    "str": st.text(max_size=24),
}


@st.composite
def entry_rows(draw):
    """Rows every binary entry must reproduce exactly.

    Column names come from arbitrary text (exercising utf-8 name encoding),
    each column holds one value kind (the codec's mixed-type fallback is
    tested separately), and every cell is independently a value, an explicit
    None, or missing — driving both mask flags in every combination.
    """
    names = draw(st.lists(st.text(min_size=1, max_size=12), max_size=5,
                          unique=True))
    kinds = [draw(st.sampled_from(sorted(_COLUMN_VALUES))) for _ in names]
    num_rows = draw(st.integers(min_value=0, max_value=9))
    rows = []
    for _ in range(num_rows):
        row = {}
        for name, kind in zip(names, kinds):
            mode = draw(st.sampled_from(("value", "none", "missing")))
            if mode == "value":
                row[name] = draw(_COLUMN_VALUES[kind])
            elif mode == "none":
                row[name] = None
        rows.append(row)
    return rows


def assert_rows_exact(decoded, original):
    """Equality check that also pins types, key order, and NaN cells."""
    # repr-level equality covers values, key order, and NaN (repr(nan) is
    # stable) in one shot — the same comparison the engine parity tests use.
    assert repr(decoded) == repr(original)
    for got, want in zip(decoded, original):
        for key in want:
            assert type(got[key]) is type(want[key])


class TestCodecRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(rows=entry_rows())
    def test_round_trip_is_exact(self, rows):
        encoded = encode_binary_entry(rows)
        assert encoded is not None
        assert_rows_exact(decode_binary_entry(encoded), rows)

    @settings(max_examples=120, deadline=None)
    @given(rows=entry_rows(), cut=st.integers(min_value=0, max_value=200))
    def test_truncation_never_decodes(self, rows, cut):
        # A torn write can stop after any byte; every proper prefix must be
        # rejected (ValueError), never silently decode to different rows.
        encoded = encode_binary_entry(rows)
        truncated = encoded[:min(cut, len(encoded) - 1)]
        with pytest.raises(ValueError):
            decode_binary_entry(truncated)

    @settings(max_examples=120, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_garbage_never_crashes(self, blob):
        # Foreign bytes either raise ValueError (the store's self-heal
        # trigger) or — only for a forged valid layout — decode to rows.
        try:
            decoded = decode_binary_entry(blob)
        except ValueError:
            return
        assert isinstance(decoded, list)

    def test_fixed_exhaustive_entry(self):
        rows = [
            {"kind": "person", "dy": 1.5, "frame": 7, "entering": True,
             "note": None},
            {"kind": "véhicule 🚗", "dy": float("nan"), "frame": -(2 ** 62),
             "entering": False},
            {"kind": "", "dy": float("inf"), "frame": 2 ** 62,
             "entering": True, "note": "多字节"},
            {},
        ]
        assert_rows_exact(decode_binary_entry(encode_binary_entry(rows)), rows)

    def test_empty_cases(self):
        for rows in ([], [{}], [{}, {}]):
            assert_rows_exact(decode_binary_entry(encode_binary_entry(rows)),
                              rows)


class TestCodecFallback:
    """Rows the codec cannot reproduce exactly must refuse to encode."""

    @pytest.mark.parametrize("rows", [
        [{"x": 1}, {"x": 1.0}],              # mixed int/float column
        [{"x": True}, {"x": 1}],             # bool is not int here
        [{"x": 2 ** 70}],                    # beyond int64
        [{"x": [1, 2]}],                     # non-scalar value
        [{"x": {"nested": 1}}],              # non-scalar value
        [{1: "x"}],                          # non-string key
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],  # inconsistent key order
        [["not", "a", "dict"]],              # non-dict row
    ])
    def test_unencodable_rows_return_none(self, rows):
        assert encode_binary_entry(rows) is None

    def test_fallback_rows_still_cached_via_json(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        rows = [{"x": 1}, {"x": 1.0}]
        store.put("a" * 16, rows)
        assert store._path_for("a" * 16, "json").exists()
        assert not store._path_for("a" * 16).exists()
        assert store.get("a" * 16) == rows


class TestDiskStoreBinary:
    def test_binary_write_and_mmap_read(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        rows = [{"kind": "person", "dy": 1.5}, {"kind": "car", "dy": -0.5}]
        store.put("b" * 16, rows)
        path = store._path_for("b" * 16)
        assert path.exists() and path.read_bytes()[:8] == b"PVCHNK02"
        assert_rows_exact(store.get("b" * 16), rows)
        assert store.stats.hits == 1 and store.legacy_json_reads == 0

    def test_warm_binary_hits_never_parse_json(self, tmp_path, monkeypatch):
        # The no-json-load hook: a warm binary store must answer every hit
        # through the mmap path without ever reaching the JSON seam.
        store = DiskChunkStore(tmp_path)
        keys = [f"{i:x}" * 16 for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, [{"kind": "person", "seq": i}])

        def _no_json(path):
            raise AssertionError(f"JSON parse on warm binary hit: {path}")

        monkeypatch.setattr(cache_module, "_read_json_entry", _no_json)
        for i, key in enumerate(keys):
            assert store.get(key) == [{"kind": "person", "seq": i}]
        assert store.legacy_json_reads == 0

    def test_large_entry_exercises_numpy_and_mmap_paths(self, tmp_path):
        # Columns past _SMALL_COLUMN_VALUES decode via frombuffer and files
        # past _MMAP_MIN_BYTES read via mmap; a 3000-row entry crosses both
        # thresholds and must roundtrip exactly like a small one.
        store = DiskChunkStore(tmp_path)
        rows = [{"kind": f"k{i}", "dy": i * 0.5, "seq": i, "odd": bool(i % 2)}
                for i in range(3000)]
        store.put("9" * 16, rows)
        path = store._path_for("9" * 16)
        assert path.stat().st_size >= cache_module._MMAP_MIN_BYTES
        assert_rows_exact(store.get("9" * 16), rows)

    def test_corrupt_binary_entry_self_heals(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        store.put("c" * 16, [{"kind": "person"}])
        path = store._path_for("c" * 16)
        path.write_bytes(b"\x00corrupt")
        assert store.get("c" * 16) is None
        assert store.read_errors == 1 and not path.exists()
        store.put("c" * 16, [{"kind": "person"}])  # slot is reusable
        assert store.get("c" * 16) == [{"kind": "person"}]

    def test_corrupt_header_fields_self_heal(self, tmp_path):
        # Right magic, lying header (a torn write that kept the first 8
        # bytes): still a miss plus removal, never an exception.
        store = DiskChunkStore(tmp_path)
        store.put("d" * 16, [{"kind": "person", "dy": 1.0}])
        path = store._path_for("d" * 16)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get("d" * 16) is None and store.read_errors == 1

    def test_enumeration_counts_both_formats(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        store.put("e" * 16, [{"x": 1}])                # binary
        store.put("f" * 16, [{"x": 1}, {"x": 1.0}])    # JSON fallback
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestJsonCompatibilityAndMigration:
    def _warm_json_store(self, tmp_path):
        legacy = DiskChunkStore(tmp_path, entry_format="json")
        rows_by_key = {
            "1" * 16: [{"kind": "person", "dy": 1.5}],
            "2" * 16: [{"kind": "car", "dy": -2.0}, {"kind": "car", "dy": 0.0}],
        }
        for key, rows in rows_by_key.items():
            legacy.put(key, rows)
            assert legacy._path_for(key, "json").exists()
        return rows_by_key

    def test_json_store_writes_and_reads_json(self, tmp_path):
        store = DiskChunkStore(tmp_path, entry_format="json")
        store.put("9" * 16, [{"kind": "person"}])
        payload = json.loads(store._path_for("9" * 16, "json").read_text())
        assert payload["rows"] == [{"kind": "person"}]
        assert store.get("9" * 16) == [{"kind": "person"}]
        assert store.migrations == 0  # json stores migrate nothing

    def test_binary_store_reads_and_migrates_legacy_entries(self, tmp_path):
        rows_by_key = self._warm_json_store(tmp_path)
        store = DiskChunkStore(tmp_path)  # reopen with the binary default
        for key, rows in rows_by_key.items():
            assert store.get(key) == rows
            # Migration happened in place: binary entry landed, JSON gone.
            assert store._path_for(key).exists()
            assert not store._path_for(key, "json").exists()
        assert store.legacy_json_reads == len(rows_by_key)
        assert store.migrations == len(rows_by_key)
        # The second pass is parse-free — counters stop moving.
        for key, rows in rows_by_key.items():
            assert store.get(key) == rows
        assert store.legacy_json_reads == len(rows_by_key)

    def test_put_replaces_stale_other_format_twin(self, tmp_path):
        store = DiskChunkStore(tmp_path, entry_format="json")
        store.put("3" * 16, [{"x": 1}])
        binary = DiskChunkStore(tmp_path)
        binary.put("3" * 16, [{"x": 2}])
        assert not binary._path_for("3" * 16, "json").exists()
        assert binary.get("3" * 16) == [{"x": 2}]


class TestFormatSpecs:
    def test_specs_carry_non_default_format(self, tmp_path):
        binary = TieredChunkCache(disk=tmp_path / "b")
        legacy = TieredChunkCache(disk=tmp_path / "j", entry_format="json")
        assert shared_spec(binary) == f"tiered:{tmp_path / 'b'}"
        assert shared_spec(legacy) == f"tiered+json:{tmp_path / 'j'}"
        reopened = create_cache(shared_spec(legacy))
        assert isinstance(reopened, TieredChunkCache)
        assert reopened.disk.entry_format == "json"

    def test_create_cache_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            create_cache(f"disk+xml:{tmp_path}")

    def test_store_constructor_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            DiskChunkStore(tmp_path, entry_format="pickle")

    def test_stats_and_health_report_format(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        assert store.stats_dict()["entry_format"] == "binary"
        assert store.health()["entry_format"] == "binary"
        assert store.stats_dict()["migrations"] == 0


# ------------------------------------------------------------- the write path


def _rows_for(key: str) -> list:
    return [{"kind": "person", "dy": float(int(key[:4], 16)), "key": key}]


def _put_overlapping(directory: str, seed: int) -> None:
    """One racing process: four threads, each putting every key once."""
    store = DiskChunkStore(directory)
    keys = [f"{index:04x}" * 10 for index in range(200)]

    def put_all(thread_seed: int) -> None:
        order = list(keys)
        random.Random(thread_seed).shuffle(order)
        for key in order:
            store.put(key, _rows_for(key))

    threads = [threading.Thread(target=put_all, args=(seed * 4 + index,))
               for index in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    # One instance, one token: its own threads never collide on a temp name.
    if any(thread.is_alive() for thread in threads) \
            or (store.writes, store.write_errors) != (800, 0):
        raise SystemExit(1)


class TestWritePath:
    @pytest.mark.parametrize("error", [
        OSError(errno.ENOSPC, "No space left on device"),
        PermissionError(errno.EACCES, "Permission denied"),
        FileExistsError(errno.EEXIST, "File exists"),
    ])
    def test_a_failed_temp_open_is_a_counted_miss_that_removes_nothing(
            self, tmp_path, monkeypatch, error):
        store = DiskChunkStore(tmp_path)
        key = "a" * 40
        store.put("a" * 39 + "b", _rows_for(key))  # the prefix directory exists
        # Another writer's temp file, under the very name this put will ask for.
        planted = tmp_path / "aa" / f"{key}.bin.{store._temp_token}-1.tmp"
        planted.write_bytes(b"someone else's bytes")
        real_open = os.open

        def failing_open(path, flags, mode=0o777, **kwargs):
            if str(path).endswith(".tmp"):
                raise error
            return real_open(path, flags, mode, **kwargs)

        monkeypatch.setattr(os, "open", failing_open)
        store.put(key, _rows_for(key))  # swallowed, counted
        monkeypatch.undo()
        assert (store.writes, store.write_errors) == (1, 1)
        assert store.get(key) is None
        assert list(tmp_path.glob("**/*.tmp")) == [planted]
        assert planted.read_bytes() == b"someone else's bytes"

    def test_a_temp_name_collision_never_clobbers_the_other_writer(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        key = "b" * 40
        (tmp_path / "bb").mkdir()
        planted = tmp_path / "bb" / f"{key}.bin.{store._temp_token}-0.tmp"
        planted.write_bytes(b"someone else's bytes")
        store.put(key, _rows_for(key))  # O_EXCL refuses the taken name
        assert (store.writes, store.write_errors) == (0, 1)
        assert planted.read_bytes() == b"someone else's bytes"
        store.put(key, _rows_for(key))  # the next name is free
        assert store.get(key) == _rows_for(key)
        assert list(tmp_path.glob("**/*.tmp")) == [planted]

    def test_a_failure_after_the_open_removes_this_calls_temp(self, tmp_path,
                                                              monkeypatch):
        store = DiskChunkStore(tmp_path)
        key = "c" * 40

        def failing_replace(source, target):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "replace", failing_replace)
        store.put(key, _rows_for(key))
        monkeypatch.undo()
        assert store.write_errors == 1 and store.get(key) is None
        assert list(tmp_path.glob("**/*.tmp")) == []

        def interrupted_write(fd, data):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "write", interrupted_write)
        with pytest.raises(KeyboardInterrupt):  # not an IO error: propagates
            store.put(key, _rows_for(key))
        monkeypatch.undo()
        assert store.write_errors == 1
        assert list(tmp_path.glob("**/*.tmp")) == []

    def test_short_writes_loop_until_the_entry_is_whole(self, tmp_path, monkeypatch):
        store = DiskChunkStore(tmp_path)
        rows = [{"kind": f"k{index}", "dy": index * 0.5} for index in range(40)]
        real_write, calls = os.write, []

        def seven_bytes(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "write", seven_bytes)
        store.put("d" * 40, rows)
        monkeypatch.undo()
        encoded = encode_binary_entry(rows)
        assert len(calls) == -(-len(encoded) // 7)
        assert store._path_for("d" * 40).read_bytes() == encoded
        assert_rows_exact(store.get("d" * 40), rows)

    def test_removed_directories_come_back_with_the_next_put(self, tmp_path):
        store = DiskChunkStore(tmp_path / "store")
        key = "e" * 40
        store.put(key, _rows_for(key))
        shutil.rmtree(tmp_path / "store" / "ee")
        assert store.get(key) is None
        store.put(key, _rows_for(key))
        assert store.get(key) == _rows_for(key)
        shutil.rmtree(tmp_path / "store")  # the whole store, under a live handle
        assert store.get(key) is None
        store.put(key, _rows_for(key))
        assert store.get(key) == _rows_for(key)
        assert (store.writes, store.write_errors) == (3, 0)

    def test_racing_threads_and_processes_land_every_entry_once(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        children = [context.Process(target=_put_overlapping,
                                    args=(str(tmp_path), seed))
                    for seed in range(2)]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120.0)
        assert [child.exitcode for child in children] == [0, 0]
        store = DiskChunkStore(tmp_path)
        keys = [f"{index:04x}" * 10 for index in range(200)]
        assert len(store) == len(keys)
        for key in keys:
            assert store.get(key) == _rows_for(key)
        assert list(tmp_path.glob("**/*.tmp")) == []


class TestSyscallBudget:
    """What a put, a miss and a hit may ask of the file system."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted: dict[str, int] = {}

        def counting(name):
            real = getattr(os, name)

            def wrapper(*args, **kwargs):
                counted[name] = counted.get(name, 0) + 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("open", "replace", "unlink", "mkdir", "makedirs"):
            monkeypatch.setattr(os, name, counting(name))
        return counted

    def test_put_miss_and_hit(self, tmp_path, calls, monkeypatch):
        store = DiskChunkStore(tmp_path)

        def no_path(*args, **kwargs):
            raise AssertionError("pathlib.Path built on the store's hot path")

        monkeypatch.setattr(cache_module, "Path", no_path)
        first, second = "f" * 40, "f" * 39 + "0"
        calls.clear()
        store.put(first, _rows_for(first))
        # A new prefix: the open that reported ENOENT, one mkdir, the retry.
        assert calls == {"open": 2, "makedirs": 1, "mkdir": 1,
                         "replace": 1, "unlink": 1}
        calls.clear()
        store.put(second, _rows_for(second))
        assert calls == {"open": 1, "replace": 1, "unlink": 1}
        calls.clear()
        assert store.get("f" * 38 + "00") is None
        assert calls == {"open": 2}  # binary, then legacy JSON: both ENOENT
        calls.clear()
        assert store.get(second) == _rows_for(second)
        assert calls == {"open": 1}
        assert (store.writes, store.write_errors, store.read_errors) == (2, 0, 0)

    def test_tempfile_left_the_module(self):
        assert not hasattr(cache_module, "tempfile")


class TestHandPlacedEntries:
    """The layout is a compatibility surface: ``KEY[:2]/KEY.bin|json``."""

    def test_entries_placed_with_plain_open_read_back(self, tmp_path):
        store = DiskChunkStore(tmp_path / "store")
        binary_key, json_key = "1a" * 20, "2b" * 20
        rows = [{"kind": "person", "dy": 1.5}, {"kind": "car", "dy": -0.5}]
        for key, suffix, data in (
                (binary_key, "bin", encode_binary_entry(rows)),
                (json_key, "json", json.dumps({"format": 1, "rows": rows}).encode())):
            os.mkdir(tmp_path / "store" / key[:2])
            with open(tmp_path / "store" / key[:2] / f"{key}.{suffix}", "wb") as handle:
                handle.write(data)
        assert_rows_exact(store.get(binary_key), rows)
        json_store = DiskChunkStore(tmp_path / "store", entry_format="json")
        assert_rows_exact(json_store.get(json_key), rows)
        assert (tmp_path / "store" / "2b" / f"{json_key}.json").exists()

    def test_a_written_entry_is_the_codecs_bytes_and_nothing_else(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        key = "3c" * 20
        rows = [{"kind": "person", "dy": 1.5}]
        store.put(key, rows)
        with open(tmp_path / "3c" / f"{key}.bin", "rb") as handle:
            assert handle.read() == encode_binary_entry(rows)
        assert sorted(path.name for path in tmp_path.rglob("*") if path.is_file()) \
            == [f"{key}.bin"]
