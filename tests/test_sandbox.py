"""Tests for the isolated execution environment and the executable library."""

import copy
import pickle
from dataclasses import fields

import pytest

from repro.errors import SandboxViolationError, UnknownExecutableError
from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN, ColumnSpec, DataType, Schema
from repro.sandbox.environment import ExecutionContext, SandboxRunner
from repro.sandbox.executables import (
    ConstantExecutable,
    CrashingExecutable,
    EnteringObjectCounter,
    RedLightObserver,
    RowFloodExecutable,
    SlowExecutable,
    TreeLeafClassifier,
)
from repro.sandbox.registry import ExecutableRegistry, default_registry
from repro.scene.schedules import CyclicSchedule
from repro.utils.timebase import TimeInterval
from repro.video.chunking import ChunkSpec
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig

from tests.conftest import flat_rows, make_crossing_object, make_simple_video, split_interval
from tests.printing_executable import PrintingExecutable


VALUE_SCHEMA = Schema(columns=(ColumnSpec("value", DataType.NUMBER, 0.0),))


class _Unprintable:
    """A row value whose string form raises."""

    def __str__(self):
        raise RuntimeError("no string form")


@pytest.fixture()
def one_chunk(simple_video):
    spec = ChunkSpec(window=TimeInterval(0, 60), chunk_duration=60.0)
    return split_interval(simple_video, spec)[0]


@pytest.fixture()
def context(simple_video):
    return ExecutionContext(camera=simple_video.name, fps=simple_video.fps,
                            detector_config=DetectorConfig(miss_rate=0.0, position_jitter=0.0),
                            tracker_config=TrackerConfig(max_age=8, min_hits=2,
                                                         iou_threshold=0.1))


class TestSandboxRunner:
    def test_rows_are_schema_coerced_and_stamped(self, one_chunk, context):
        runner = SandboxRunner(ConstantExecutable(rows=[{"value": "7", "extra": 1}]),
                               VALUE_SCHEMA, max_rows=5, timeout_seconds=5.0)
        rows = runner.run_chunk_outcome(one_chunk, context).rows
        assert rows == [{"value": 7.0, CHUNK_COLUMN: 0.0, REGION_COLUMN: ""}]

    def test_max_rows_truncation(self, one_chunk, context):
        runner = SandboxRunner(RowFloodExecutable(rows_to_emit=100), VALUE_SCHEMA,
                               max_rows=3, timeout_seconds=5.0)
        assert len(runner.run_chunk_outcome(one_chunk, context).rows) == 3

    def test_crash_produces_default_row(self, one_chunk, context):
        runner = SandboxRunner(CrashingExecutable(), VALUE_SCHEMA, max_rows=3,
                               timeout_seconds=5.0)
        rows = runner.run_chunk_outcome(one_chunk, context).rows
        assert len(rows) == 1
        assert rows[0]["value"] == 0.0

    def test_simulated_timeout_produces_default_row(self, one_chunk, context):
        runner = SandboxRunner(SlowExecutable(simulated_runtime=10.0), VALUE_SCHEMA,
                               max_rows=3, timeout_seconds=1.0)
        rows = runner.run_chunk_outcome(one_chunk, context).rows
        assert rows[0]["value"] == 0.0

    def test_real_wall_clock_timeout(self, one_chunk, context):
        runner = SandboxRunner(SlowExecutable(simulated_runtime=0.0, real_sleep=0.05),
                               VALUE_SCHEMA, max_rows=3, timeout_seconds=0.01)
        rows = runner.run_chunk_outcome(one_chunk, context).rows
        assert rows[0]["value"] == 0.0

    def test_non_list_output_produces_default_row(self, one_chunk, context):
        class BadOutput(ConstantExecutable):
            def process(self, chunk, ctx):
                return "not-a-list"

        runner = SandboxRunner(BadOutput(), VALUE_SCHEMA, max_rows=3, timeout_seconds=5.0)
        assert runner.run_chunk_outcome(one_chunk, context).rows[0]["value"] == 0.0

    @pytest.mark.parametrize("column, value", [
        (ColumnSpec("value", DataType.NUMBER, 0.0), 10 ** 400),  # beyond float range
        (ColumnSpec("value", DataType.STRING, ""), _Unprintable()),
    ])
    def test_a_row_that_fails_coercion_is_a_fallback(self, one_chunk, context, column,
                                                     value):
        # Coercing a row can run the executable's own code (a value's
        # ``__str__``); its failure is the executable's, like a crash.
        runner = SandboxRunner(ConstantExecutable(rows=[{"value": value}]),
                               Schema(columns=(column,)), max_rows=3, timeout_seconds=5.0)
        outcome = runner.run_chunk_outcome(one_chunk, context)
        assert outcome.fallback
        assert outcome.rows == [{"value": column.default, CHUNK_COLUMN: 0.0,
                                 REGION_COLUMN: ""}]

    def test_state_does_not_persist_across_chunks(self, simple_video, context):
        class StatefulExecutable(ConstantExecutable):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def process(self, chunk, ctx):
                self.calls += 1
                return [{"value": float(self.calls)}]

        spec = ChunkSpec(window=TimeInterval(0, 120), chunk_duration=60.0)
        chunks = split_interval(simple_video, spec)
        runner = SandboxRunner(StatefulExecutable(), VALUE_SCHEMA, max_rows=3,
                               timeout_seconds=5.0)
        rows = flat_rows(runner.iter_chunk_rows(chunks, context))
        # Each chunk sees a fresh copy, so the counter restarts every time.
        assert [row["value"] for row in rows] == [1.0, 1.0]

    def test_runner_pickle_does_not_depend_on_history(self, one_chunk, context):
        # What fresh_instance() memoises on the registered executable is
        # derived state: it must reach neither the pickle (a stream manifest
        # dedupes by its bytes) nor the per-chunk copies.
        for executable in (EnteringObjectCounter(), ConstantExecutable()):
            runner = SandboxRunner(executable, VALUE_SCHEMA, max_rows=5,
                                   timeout_seconds=5.0)
            before = pickle.dumps(runner)
            runner.run_chunk_outcome(one_chunk, context).rows
            assert "_fresh_shallow" in vars(executable)
            assert pickle.dumps(runner) == before
            assert "_fresh_shallow" not in vars(executable.fresh_instance())
            assert pickle.loads(before).executable == executable

    def test_invalid_runner_parameters(self, one_chunk):
        with pytest.raises(SandboxViolationError):
            SandboxRunner(ConstantExecutable(), VALUE_SCHEMA, max_rows=0, timeout_seconds=1.0)
        with pytest.raises(SandboxViolationError):
            SandboxRunner(ConstantExecutable(), VALUE_SCHEMA, max_rows=1, timeout_seconds=0.0)

    def test_region_column_stamped(self, simple_video, context):
        from repro.video.regions import BoundaryType, Region, RegionScheme
        from repro.video.geometry import BoundingBox

        scheme = RegionScheme(name="halves", regions=(
            Region("left", BoundingBox(0, 0, 640, 720)),
            Region("right", BoundingBox(640, 0, 640, 720)),
        ), boundary=BoundaryType.HARD)
        spec = ChunkSpec(window=TimeInterval(0, 60), chunk_duration=60.0)
        chunks = split_interval(simple_video, spec, region_scheme=scheme)
        runner = SandboxRunner(ConstantExecutable(), VALUE_SCHEMA, max_rows=3,
                               timeout_seconds=5.0)
        regions = {runner.run_chunk_outcome(chunk, context).rows[0][REGION_COLUMN]
                   for chunk in chunks}
        assert regions == {"left", "right"}


def _registered_and_doubles():
    """Every executable of the default registry, then every sandbox double."""
    registry = default_registry()
    return ([registry.resolve(name) for name in registry.names()]
            + [CrashingExecutable(), SlowExecutable(), RowFloodExecutable(),
               ConstantExecutable(), PrintingExecutable()])


class TestFreshInstance:
    """``fresh_instance`` builds its shallow clone without ``copy.copy``'s
    reduce protocol; the clone must be the one ``copy.copy`` builds."""

    @pytest.mark.parametrize("executable", _registered_and_doubles(),
                             ids=lambda executable: type(executable).__name__)
    def test_clone_matches_copy_copy(self, executable):
        # The first call memoises which branch applies; later calls read it.
        for clone in (executable.fresh_instance(), executable.fresh_instance()):
            assert "_fresh_shallow" in vars(executable)
            assert clone is not executable
            assert type(clone) is type(executable)
            assert vars(clone) == vars(copy.copy(executable))
            assert "_fresh_shallow" not in vars(clone)
            assert clone == executable

    def test_shallow_clone_shares_immutable_configuration(self):
        executable = EnteringObjectCounter(category="car")
        clone = executable.fresh_instance()
        assert vars(executable)["_fresh_shallow"] is True
        for spec in fields(executable):
            assert getattr(clone, spec.name) is getattr(executable, spec.name)

    def test_mutable_configuration_is_deep_copied(self):
        executable = ConstantExecutable(rows=[{"value": 2.0}])
        clone = executable.fresh_instance()
        assert vars(executable)["_fresh_shallow"] is False
        assert clone.rows == executable.rows
        assert clone.rows is not executable.rows
        assert clone.rows[0] is not executable.rows[0]


class TestExecutables:
    def test_entering_object_counter_counts_each_appearance_once(self, context):
        video = make_simple_video(objects=[
            make_crossing_object("a", start=10, duration=30),
            make_crossing_object("b", start=100, duration=30, x=700.0),
        ], duration=240.0)
        spec = ChunkSpec(window=TimeInterval(0, 240), chunk_duration=60.0)
        chunks = split_interval(video, spec)
        executable = EnteringObjectCounter(category="person")
        total_rows = 0
        for chunk in chunks:
            total_rows += len(executable.process(chunk, context))
        assert total_rows == 2

    def test_tree_leaf_classifier(self, context):
        from tests.conftest import make_stationary_object
        from repro.video.geometry import BoundingBox

        trees = [make_stationary_object(f"tree-{i}", start=0, duration=600,
                                        box=BoundingBox(100 + 80 * i, 50, 40, 40),
                                        category="tree",
                                        attributes={"has_leaves": i < 2})
                 for i in range(4)]
        video = make_simple_video(objects=trees)
        chunk = split_interval(video, ChunkSpec(window=TimeInterval(0, 0.5),
                                                chunk_duration=0.5))[0]
        rows = TreeLeafClassifier().process(chunk, context)
        values = sorted(row["has_leaves"] for row in rows)
        assert values == [0.0, 0.0, 100.0, 100.0]

    def test_red_light_observer_measures_phase(self, context):
        from tests.conftest import make_stationary_object
        from repro.video.geometry import BoundingBox

        light = make_stationary_object("light", start=0, duration=600,
                                       box=BoundingBox(600, 40, 30, 70),
                                       category="traffic_light")
        light.dynamic_attributes["light_state"] = CyclicSchedule((("RED", 60.0), ("GREEN", 40.0)))
        video = make_simple_video(objects=[light])
        chunk = split_interval(video, ChunkSpec(window=TimeInterval(0, 600),
                                                chunk_duration=600.0))[0]
        rows = RedLightObserver().process(chunk, context)
        assert rows, "expected at least one completed red phase"
        for row in rows:
            assert row["red_duration"] == pytest.approx(60.0, abs=2.0)


class TestRegistry:
    def test_default_registry_contains_evaluation_executables(self):
        registry = default_registry()
        assert "count_entering_people.py" in registry.names()
        assert "taxi_sightings.py" in registry.names()

    def test_unknown_executable_rejected(self):
        with pytest.raises(UnknownExecutableError):
            ExecutableRegistry().resolve("nope.py")

    def test_duplicate_registration_rejected(self):
        registry = ExecutableRegistry()
        registry.register("x.py", ConstantExecutable())
        with pytest.raises(UnknownExecutableError):
            registry.register("x.py", ConstantExecutable())
        registry.register("x.py", ConstantExecutable(), replace=True)
