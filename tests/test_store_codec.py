"""Tests for the on-disk chunk store: exact rows, one entry format, plain ``os`` calls.

The store's contract is *exactness*: ``get(key)`` after ``put(key, rows)``
reproduces the rows bit-for-bit — value types (bool vs int vs float vs
str), ``None`` values, missing keys and per-row key order all survive —
because a store must never change what a query returns.  The property test
drives that across the whole value space; the rest pin what the engines rely
on: corrupt, torn and foreign files read as misses that heal themselves, the
``KEY[:2]/KEY.json`` layout and its bytes, and the write path on plain ``os``
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
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.cache as cache_module
from repro.core.cache import (
    DiskChunkStore,
    TieredChunkCache,
    create_cache,
    shared_spec,
)

# ------------------------------------------------------------- row strategies

_TEXT = st.text(st.characters(exclude_categories=()), max_size=24)

_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.booleans(),
    _TEXT,
)


@st.composite
def entry_rows(draw):
    """Rows every entry must reproduce exactly.

    Column names come from arbitrary text (lone surrogates and the empty
    name included), a column may mix value kinds from row to row, ints run
    past int64, every cell is independently a value, an explicit None, or
    missing, and each row lists its keys in an order of its own.
    """
    names = draw(st.lists(st.text(st.characters(exclude_categories=()),
                                  max_size=12), max_size=5, unique=True))
    num_rows = draw(st.integers(min_value=0, max_value=9))
    rows = []
    for _ in range(num_rows):
        row = {}
        for name in draw(st.permutations(names)):
            mode = draw(st.sampled_from(("value", "value", "none", "missing")))
            if mode == "value":
                row[name] = draw(_VALUES)
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


def _entry_bytes(rows) -> bytes:
    """What one entry file holds, byte for byte."""
    return json.dumps({"format": 1, "rows": rows},
                      separators=(",", ":")).encode("utf-8")


class TestExactRows:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=entry_rows())
    def test_put_then_get_is_exact(self, tmp_path, rows):
        store = DiskChunkStore(tmp_path)
        store.put("a" * 16, rows)
        assert_rows_exact(store.get("a" * 16), rows)
        assert_rows_exact(DiskChunkStore(tmp_path).get("a" * 16), rows)
        assert (store.write_errors, store.read_errors) == (0, 0)

    @pytest.mark.parametrize("rows", [
        [],
        [{}],
        [{}, {}],
        [{"kind": "person", "dy": 1.5, "frame": 7, "entering": True,
          "note": None},
         {"kind": "véhicule 🚗", "dy": float("nan"), "frame": -(2 ** 62),
          "entering": False},
         {"kind": "", "dy": float("inf"), "frame": 2 ** 62,
          "entering": True, "note": "多字节"},
         {}],
        [{"x": 1}, {"x": 1.0}],                # mixed int/float column
        [{"x": True}, {"x": 1}],               # bool is not int here
        [{"x": 2 ** 70}, {"x": -0.0}],         # beyond int64; the sign of zero
        [{"x": [1, 2.0, None]}, {"x": {"nested": 1}}],  # non-scalar values
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],  # rows that disagree on key order
        [{"plate": "\ud800"}, {"": "\udfff\x00"}],  # what utf-8 cannot encode
    ])
    def test_fixed_entries(self, tmp_path, rows):
        store = DiskChunkStore(tmp_path)
        store.put("b" * 16, rows)
        assert_rows_exact(store.get("b" * 16), rows)

    def test_large_entry_reads_back_whole(self, tmp_path):
        # Past one 64 KiB read: the entry is reassembled from several.
        store = DiskChunkStore(tmp_path)
        rows = [{"kind": f"k{i}", "dy": i * 0.5, "seq": i, "odd": bool(i % 2)}
                for i in range(3000)]
        store.put("9" * 16, rows)
        assert store._path_for("9" * 16).stat().st_size > 1 << 16
        assert_rows_exact(store.get("9" * 16), rows)

    def test_tiered_store_serves_the_same_rows_from_either_tier(self, tmp_path):
        rows = [{"x": 1}, {"x": 1.0, "plate": "\ud800"}]
        TieredChunkCache(disk=tmp_path).put("c" * 16, rows)
        reopened = TieredChunkCache(disk=tmp_path)  # cold memory tier
        assert_rows_exact(reopened.get("c" * 16), rows)   # from disk, promoted
        assert_rows_exact(reopened.get("c" * 16), rows)   # from memory
        assert (reopened.disk.stats.hits, reopened.memory.stats.hits) == (1, 1)


class TestCorruptEntries:
    """A file that is not a whole entry is a miss that removes itself."""

    def _assert_heals(self, store, key, path):
        before = store.read_errors
        assert store.get(key) is None
        assert store.read_errors == before + 1 and not path.exists()

    def test_an_entry_cut_at_any_byte_never_decodes(self, tmp_path):
        # A torn write can stop after any byte.  The entry is one JSON
        # object, so no strict prefix of it parses.
        store = DiskChunkStore(tmp_path)
        key = "c" * 16
        rows = [{"kind": "véhicule", "dy": -0.5, "seq": 2 ** 70, "ok": True,
                 "note": None}, {}, {"kind": "\ud800"}]
        store.put(key, rows)
        path = store._path_for(key)
        whole = path.read_bytes()
        assert whole == _entry_bytes(rows)
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            self._assert_heals(store, key, path)
        assert store.stats.hits == 0 and store.stats.misses == len(whole)
        store.put(key, rows)  # the slot is reusable
        assert_rows_exact(store.get(key), rows)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.binary(max_size=64))
    def test_garbage_never_raises_and_is_never_served(self, tmp_path, blob):
        store = DiskChunkStore(tmp_path)
        key = "d" * 16
        store.put(key, [{"kind": "person"}])
        path = store._path_for(key)
        path.write_bytes(blob)
        try:
            forged = json.loads(blob)["format"] == 1
        except (ValueError, TypeError, KeyError, IndexError):
            forged = False
        if not forged:  # only a whole, well-formed entry is ever served
            self._assert_heals(store, key, path)

    @pytest.mark.parametrize("payload", [
        {"format": 0, "rows": []},
        {"format": 2, "rows": []},
        {"format": "1", "rows": []},
        {"rows": []},
        {"format": 1},
        {"format": 1, "rows": [["not", "a", "row"]]},
        [{"format": 1, "rows": []}],
        "rows",
    ])
    def test_an_entry_of_another_format_is_a_miss(self, tmp_path, payload):
        store = DiskChunkStore(tmp_path)
        key = "e" * 16
        store.put(key, [])
        path = store._path_for(key)
        path.write_text(json.dumps(payload))
        self._assert_heals(store, key, path)

    def test_enumeration_counts_and_clears_entries(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        store.put("e" * 16, [{"x": 1}])
        store.put("f" * 16, [{"x": 1}, {"x": 1.0}])
        assert len(store) == 2
        store.clear()
        assert len(store) == 0 and store.get("e" * 16) is None


class TestOneFormat:
    """The options that selected a second format are gone, loudly."""

    def test_shared_specs_reopen_the_same_entries(self, tmp_path):
        tiered = TieredChunkCache(disk=tmp_path / "t")
        disk = DiskChunkStore(tmp_path / "d")
        assert shared_spec(tiered) == f"tiered:{tmp_path / 't'}"
        assert shared_spec(disk) == f"disk:{tmp_path / 'd'}"
        for store in (tiered, disk):
            store.put("1" * 16, [{"kind": "person", "dy": 1.5}])
            reopened = create_cache(shared_spec(store))
            assert type(reopened) is type(store)
            assert reopened.get("1" * 16) == [{"kind": "person", "dy": 1.5}]

    @pytest.mark.parametrize("kind", ["disk+json", "tiered+json", "disk+binary"])
    def test_create_cache_rejects_format_tokens(self, tmp_path, kind):
        with pytest.raises(ValueError, match="unknown cache spec"):
            create_cache(f"{kind}:{tmp_path / 'x'}")
        assert not (tmp_path / "x").exists()

    def test_constructors_reject_entry_format(self, tmp_path):
        with pytest.raises(TypeError):
            DiskChunkStore(tmp_path, entry_format="json")
        with pytest.raises(TypeError):
            TieredChunkCache(disk=tmp_path, entry_format="json")

    def test_stats_and_health_name_no_format(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        assert sorted(store.stats_dict()) == [
            "directory", "hit_rate", "hits", "misses", "read_errors",
            "write_errors", "writes"]
        assert "entry_format" not in store.health()


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
        planted = tmp_path / "aa" / f"{key}.json.{store._temp_token}-1.tmp"
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
        planted = tmp_path / "bb" / f"{key}.json.{store._temp_token}-0.tmp"
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
        encoded = _entry_bytes(rows)
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
        assert calls == {"open": 2, "makedirs": 1, "mkdir": 1, "replace": 1}
        calls.clear()
        store.put(second, _rows_for(second))
        assert calls == {"open": 1, "replace": 1}  # nothing to unlink
        calls.clear()
        assert store.get("f" * 38 + "00") is None
        assert calls == {"open": 1}  # one ENOENT
        calls.clear()
        assert store.get(second) == _rows_for(second)
        assert calls == {"open": 1}
        assert (store.writes, store.write_errors, store.read_errors) == (2, 0, 0)

    def test_tempfile_left_the_module(self):
        assert not hasattr(cache_module, "tempfile")


class TestHandPlacedEntries:
    """The layout is a compatibility surface: ``KEY[:2]/KEY.json``."""

    def test_an_entry_placed_with_plain_open_reads_back(self, tmp_path):
        store = DiskChunkStore(tmp_path / "store")
        key = "2b" * 20
        rows = [{"kind": "person", "dy": 1.5}, {"kind": "car", "dy": -0.5}]
        os.mkdir(tmp_path / "store" / key[:2])
        with open(tmp_path / "store" / key[:2] / f"{key}.json", "w") as handle:
            json.dump({"format": 1, "rows": rows}, handle)  # any JSON spacing
        assert_rows_exact(store.get(key), rows)
        assert len(store) == 1
        assert (tmp_path / "store" / "2b" / f"{key}.json").exists()

    def test_a_written_entry_is_these_bytes_and_nothing_else(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        key = "3c" * 20
        rows = [{"kind": "person", "dy": 1.5}]
        store.put(key, rows)
        with open(tmp_path / "3c" / f"{key}.json", "rb") as handle:
            assert handle.read() == _entry_bytes(rows) \
                == b'{"format":1,"rows":[{"kind":"person","dy":1.5}]}'
        assert sorted(path.name for path in tmp_path.rglob("*") if path.is_file()) \
            == [f"{key}.json"]

    def test_a_leftover_binary_entry_is_never_opened_counted_or_served(self, tmp_path):
        store = DiskChunkStore(tmp_path)
        key = "4d" * 20
        os.mkdir(tmp_path / "4d")
        planted = tmp_path / "4d" / f"{key}.bin"
        planted.write_bytes(b"PVCHNK02" + bytes(24))
        assert store.get(key) is None
        assert (len(store), store.read_errors) == (0, 0)
        store.put(key, _rows_for(key))
        assert store.get(key) == _rows_for(key) and len(store) == 1
        assert sorted(path.name for path in (tmp_path / "4d").iterdir()) \
            == [f"{key}.bin", f"{key}.json"]
        store.clear()
        assert planted.read_bytes() == b"PVCHNK02" + bytes(24)
