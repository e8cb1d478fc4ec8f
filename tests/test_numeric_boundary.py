"""The numeric boundary: ``repro.utils.checks`` and the public surface it guards.

NaN compares false with everything, so a hand-written ``if x <= 0: raise``
lets it in, and a NaN budget, epsilon or timeout then admits, scales or
waits wrongly far from where it entered.  :class:`TestPublicSurface`
generates the probes: it walks every name ``repro`` and ``repro.core``
export (plus the few methods and configs a number enters through), builds a
valid call from the signature and :data:`VALID`, then swaps in one bad
number at a time.  Each call must raise at once, or be listed in
:data:`ACCEPTED` with its reason.
"""

import inspect
import math
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core
from repro.core import (
    BudgetRequest,
    CameraRegistration,
    CancellationToken,
    FaultKind,
    FrameBudgetLedger,
    LaplaceMechanism,
    MaskPolicyMap,
    PrividSystem,
    ServiceLedger,
    ShardedEngine,
    WriteAheadLog,
)
from repro.core.policy import PrivacyPolicy
from repro.cv.detector import DetectorConfig
from repro.errors import PolicyError, PrividError, QueryValidationError
from repro.query.ast import SplitStatement
from repro.relational.sensitivity import TableProperties
from repro.scene.porto import PortoConfig
from repro.scene.schedules import CyclicSchedule
from repro.scene.simulator import CrossingPopulation, LingerPopulation, Route
from repro.utils import checks
from repro.utils.timebase import TimeInterval
from repro.video.geometry import BoundingBox

from tests.conftest import make_simple_video

NAN, INF = float("nan"), float("inf")


class TestChecks:
    @pytest.mark.parametrize("value", [0.5, 3, np.float32(0.5), np.int64(2), Fraction(1, 3)])
    def test_a_finite_real_passes_unchanged(self, value):
        assert checks.real("x", value, ValueError, above=0) is value

    @pytest.mark.parametrize("value,bounds", [
        (NAN, {}), (INF, {}), (-INF, {}), (True, {}), ("1", {}), (None, {}),
        (0.0, {"above": 0}), (-1, {"at_least": 0}), (1.0, {"above": 1.0})])
    def test_a_real_names_itself_and_the_value(self, value, bounds):
        with pytest.raises(PolicyError, match="the budget must be finite") as raised:
            checks.real("the budget", value, PolicyError, **bounds)
        assert repr(value) in str(raised.value)

    def test_a_bound_is_inclusive_or_strict(self):
        assert checks.real("x", 0.0, ValueError, at_least=0) == 0.0
        assert checks.real("x", 10 ** 400, ValueError, above=0) == 10 ** 400
        with pytest.raises(ValueError, match="> 0"):
            checks.real("x", 0.0, ValueError, above=0)

    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint8(1)])
    def test_a_count_takes_any_integral(self, value):
        assert checks.count("n", value, ValueError) is value

    @pytest.mark.parametrize("value", [True, False, 2.5, 2.0, NAN, INF, -1, "3", None])
    def test_a_count_refuses_bools_floats_and_negatives(self, value):
        with pytest.raises(QueryValidationError, match=r"n must be a whole number >= 0"):
            checks.count("n", value, QueryValidationError)

    def test_a_count_has_a_floor(self):
        with pytest.raises(ValueError, match=">= 1, not 0"):
            checks.count("n", 0, ValueError, 1)

    @pytest.mark.parametrize("value", [0, 0.0, 0.25, 1, np.float64(1.0)])
    def test_a_probability_is_in_the_unit_interval(self, value):
        assert checks.probability("p", value, ValueError) is value

    @pytest.mark.parametrize("value", [-0.1, 1.5, NAN, INF, True, "0.5"])
    def test_a_probability_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match=r"p must be a probability in \[0, 1\]"):
            checks.probability("p", value, ValueError)


class TestTheMechanism:
    """Every release passes through ``LaplaceMechanism``; it used to return a
    NaN scale for a NaN epsilon and -inf noise for an infinite sensitivity."""

    @pytest.mark.parametrize("epsilon", [NAN, INF, -INF, 0.0, -1.0, True])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(PolicyError, match="epsilon"):
            LaplaceMechanism.scale(1.0, epsilon)
        with pytest.raises(PolicyError, match="epsilon"):
            LaplaceMechanism(seed=1).add_noise(0.0, 1.0, epsilon)

    @pytest.mark.parametrize("sensitivity", [NAN, INF, -1.0])
    def test_sensitivity_must_be_finite_and_non_negative(self, sensitivity):
        with pytest.raises(PolicyError, match="sensitivity"):
            LaplaceMechanism.scale(sensitivity, 1.0)
        with pytest.raises(PolicyError, match="sensitivity"):
            LaplaceMechanism(seed=1).add_noise(0.0, sensitivity, 1.0)

    def test_a_zero_sensitivity_releases_the_value(self):
        assert LaplaceMechanism(seed=1).add_noise(4.0, 0.0, 0.5) == 4.0


class TestIntervals:
    @pytest.mark.parametrize("ends", [(0.0, NAN), (NAN, 0.0), (-INF, INF), (0.0, INF),
                                      (-INF, 0.0), (2.0, 1.0)])
    def test_an_interval_is_finite_and_ordered(self, ends):
        with pytest.raises(ValueError, match="finite and not inverted"):
            TimeInterval(*ends)

    def test_an_empty_interval_is_legal(self):
        assert TimeInterval(5.0, 5.0).duration == 0.0


class TestResilienceAndShardTiming:
    """Each of these used to construct: a NaN deadline never fired."""

    @pytest.mark.parametrize("seconds", [NAN, INF, -1.0, True])
    def test_cancellation_deadline(self, seconds):
        with pytest.raises(ValueError, match="timeout"):
            CancellationToken.with_timeout(seconds)
        with pytest.raises(ValueError, match="timeout"):
            CancellationToken().set_timeout(seconds)

    @pytest.mark.parametrize("field,value", [
        ("heartbeat_interval", NAN), ("heartbeat_timeout", NAN), ("startup_grace", INF),
        ("task_timeout", NAN), ("max_task_retries", 1.5), ("chunksize", 2.5),
        ("chunksize", 0)])
    def test_sharded_engine(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShardedEngine(2, **{field: value})


class TestSensitivityInputs:
    """The numbers Δ is made of (Equations 6.1 and 6.2) are checked where
    they enter; each of these used to construct."""

    @pytest.mark.parametrize("field,value", [
        ("rho", NAN), ("k_segments", True), ("k_segments", 1.5), ("max_rows", NAN),
        ("chunk_duration", INF), ("num_chunks", 2.5)])
    def test_table_properties(self, field, value):
        settings = dict(name="t", max_rows=2, chunk_duration=5.0, num_chunks=3, rho=1.0,
                        k_segments=1)
        with pytest.raises(ValueError, match=field):
            TableProperties(**{**settings, field: value})

    @pytest.mark.parametrize("period", [NAN, INF, 0.0, -1.0])
    def test_a_split_sample_period(self, period):
        with pytest.raises(QueryValidationError, match="sample period"):
            SplitStatement(camera="cam", begin=0.0, end=60.0, chunk_duration=10.0,
                           output="chunks", sample_period=period)

    @pytest.mark.parametrize("period", [NAN, INF, 0.0])
    def test_a_camera_sample_period_is_refused_before_its_budget_is_kept(self, period):
        # NaN used to register and crash the camera's first query in
        # int(round(nan)).
        system = PrividSystem(seed=1)
        with pytest.raises(PolicyError, match="default_sample_period"):
            system.register_camera("cam", make_simple_video(duration=60.0),
                                   policy=PrivacyPolicy(rho=1.0),
                                   default_sample_period=period)
        assert "cam" not in system.cameras
        assert system.ledger.cameras() == ()


@pytest.mark.parametrize("rate", [2.0, NAN, -0.1])
def test_a_category_miss_rate_is_a_probability(rate):
    # A mapping reaches every chunk's detector through
    # ``register_camera(detector_config=...)``, and the walk below probes
    # only plain numbers.
    with pytest.raises(ValueError, match="miss rate of 'car'"):
        DetectorConfig(category_miss_rates={"car": rate})


_ROUTE = Route("r", BoundingBox(0.0, 300.0, 40.0, 40.0), BoundingBox(1200.0, 300.0, 40.0, 40.0))


@pytest.mark.parametrize("box_size", [(NAN, 3.0), (3.0, INF), (0.0, 3.0), (3.0, -1.0),
                                      (True, 3.0)])
@pytest.mark.parametrize("population", [
    partial(CrossingPopulation, "person", 20.0, (_ROUTE,)),
    partial(LingerPopulation, "person", 3, BoundingBox(0.0, 0.0, 100.0, 100.0))],
    ids=["crossing", "linger"])
def test_a_population_box_size_is_finite_and_positive(population, box_size):
    # A tuple of numbers, which the walk below does not probe; the linger
    # population used to generate objects with NaN-wide boxes.
    with pytest.raises(ValueError, match="box_size"):
        population(box_size=box_size)


# --------------------------------------------------------------- the surface

#: A parameter of one of these annotations is a number to probe.
_NUMERIC = re.compile(r"(int|float)( \| None)?")


def _numeric(parameter: inspect.Parameter) -> "re.Match | None":
    """The match of a number's annotation (postponed, as a string, or not)."""
    annotation = parameter.annotation
    if not isinstance(annotation, str):
        annotation = inspect.formatannotation(annotation)
    return _NUMERIC.fullmatch(annotation)

#: One valid value per parameter name: enough to build a call that succeeds
#: for every callable probed (``wal`` is filled in per test).
VALID = {
    "rho": 2.0, "total_epsilon": 1.0, "epsilon": 0.5, "start": 0.0, "end": 10.0,
    "probability": 0.5, "after_seq": 3, "max_fires": 2, "delay": 0.01,
    "chunksize": 2, "num_shards": 2,
    "heartbeat_timeout": 5.0, "startup_grace": 5.0, "task_timeout": 5.0,
    "alpha": 0.05, "actual_rho": 4.0, "bounded_rho": 2.0, "chunk_duration": 5.0,
    "default_sample_period": 0.5, "seconds": 1.0, "margin": 0.5, "sensitivity": 2.0,
    "value": 3.0, "compact_every": 4,
    "interval": TimeInterval(0.0, 10.0), "rules": (), "site": "store.get",
    "kind": FaultKind.DELAY, "name": "cam", "camera": "cam",
    "video": make_simple_video(duration=60.0), "policy": PrivacyPolicy(rho=2.0),
    "requests": [BudgetRequest(TimeInterval(0.0, 10.0), 0.5)], "ratios": [0.5, 2.0],
    "phases": (("RED", 75.0), ("GREEN", 45.0)), "x": 0.0, "y": 0.0, "width": 10.0,
    "height": 10.0,
}

#: Methods and unexported configs a number enters through, beyond the
#: exported constructors and functions: each factory returns a fresh callable.
METHODS = {
    "PrividSystem.register_camera": lambda: PrividSystem().register_camera,
    "ServiceLedger.register": lambda: ServiceLedger().register,
    "FrameBudgetLedger.check": lambda: FrameBudgetLedger(total_epsilon=1.0).check,
    "LaplaceMechanism.add_noise": lambda: LaplaceMechanism(seed=1).add_noise,
    "CancellationToken.with_timeout": lambda: CancellationToken.with_timeout,
    "CameraRegistration": lambda: partial(
        CameraRegistration, policy_map=MaskPolicyMap.unmasked(PrivacyPolicy(rho=2.0)),
        ledger=FrameBudgetLedger(total_epsilon=1.0)),
    "DetectorConfig": lambda: DetectorConfig,
    "PortoConfig": lambda: PortoConfig,
    "CyclicSchedule": lambda: CyclicSchedule,
    "BoundingBox": lambda: BoundingBox,
}

#: Exported callables with numeric parameters that are not probed.
NOT_PROBED = {
    "QueryResult": "a record the executor fills from checked inputs; it admits nothing",
    "ReleaseResult": "a record the executor fills from checked inputs; it admits nothing",
    "CacheStats": "counters a store writes, not inputs",
    "FaultEvent": "a record the fault injector writes, not an input",
}

#: (callable, parameter, value) -> why the call may succeed; ``None`` as the
#: value stands for every probe.  Separately, -0.0 passes wherever 0.0 does.
ACCEPTED = {
    ("TimeInterval", "start", -1.0): "an interval may begin before the footage; SPLIT "
                                     "clamps the window to the video",
    ("TimeInterval", "start", True): "an interval keeps an inline finite-and-ordered "
                                     "test, no type test: one is built per chunk",
    ("TimeInterval", "end", True): "as for start",
    ("LaplaceMechanism.add_noise", "value", None): "the value is the data being "
                                                   "released, not a parameter",
    ("CyclicSchedule", "offset", -1.0): "an offset shifts the cycle either way",
    ("BoundingBox", "x", None): "a box may lie partly off the frame, and one is built "
                                "per detection: its corner is not checked",
    ("BoundingBox", "y", None): "as for x",
    ("BoundingBox", "width", INF): "a box keeps an inline non-negative test, no "
                                   "finiteness or type test: one is built per detection",
    ("BoundingBox", "width", True): "as for an infinite width",
    ("BoundingBox", "height", INF): "as for width",
    ("BoundingBox", "height", True): "as for width",
}

#: Bad values for a real parameter, and for a whole-number one.
BAD_REALS = (NAN, INF, -INF, -0.0, True, -1.0)
BAD_COUNTS = (NAN, INF, -INF, -0.0, True, 2.5, -1)


def _surface():
    """Every exported callable with a numeric parameter, by name, then METHODS."""
    found = {}
    for package in (repro, repro.core):
        for name in package._EXPORTS:
            target = getattr(package, name)
            if isinstance(target, type) and issubclass(target, BaseException):
                continue
            try:
                parameters = inspect.signature(target).parameters.values()
            except (TypeError, ValueError):
                continue  # a type alias: nothing to call
            if any(_numeric(parameter) for parameter in parameters):
                found[name] = (lambda target=target: target)
    return {**found, **METHODS}


def _call(factory, arguments):
    """Call, then release what an engine or a system may hold."""
    result = factory()(**arguments)
    for release in ("shutdown", "close"):
        if hasattr(result, release) and not isinstance(result, WriteAheadLog):
            getattr(result, release)()
            break
    return result


@pytest.fixture
def valid(tmp_path: Path):
    wal = WriteAheadLog(tmp_path / "wal")
    yield {**VALID, "wal": wal}
    wal.close()


class TestPublicSurface:
    def test_the_walk_covers_the_exports(self):
        names = set(_surface())
        assert {"PrivacyPolicy", "FrameBudgetLedger", "BudgetRequest",
                "ShardedEngine", "effective_epsilon", "CameraRegistration",
                "DetectorConfig", "PortoConfig"} <= names
        assert set(NOT_PROBED) <= names

    @pytest.mark.parametrize("name", sorted(set(_surface()) - set(NOT_PROBED)))
    def test_every_number_is_checked_on_entry(self, name, valid):
        factory = _surface()[name]
        arguments, probes = {}, []
        for parameter in inspect.signature(factory()).parameters.values():
            kind = _numeric(parameter)
            if parameter.name in valid:
                arguments[parameter.name] = valid[parameter.name]
            elif parameter.default is inspect.Parameter.empty or (
                    kind and parameter.default is None):
                pytest.fail(f"{name}: add a valid {parameter.name!r} to VALID")
            if kind:
                probes.append((parameter.name, BAD_COUNTS if kind[1] == "int" else BAD_REALS))
        _call(factory, arguments)  # the valid call succeeds
        for parameter, bad_values in probes:
            for value in bad_values:
                probe = {**arguments, parameter: value}
                reason = ACCEPTED.get((name, parameter, value)) \
                    or ACCEPTED.get((name, parameter, None))
                if reason is None and value == 0 and math.copysign(1.0, value) < 0:
                    reason = "-0.0 is 0.0" if _succeeds(factory, {**probe,
                                                                   parameter: 0.0}) else None
                if reason is not None:
                    _call(factory, probe)  # an accepted input must stay accepted
                    continue
                with pytest.raises((ValueError, PrividError)):
                    _call(factory, probe)
                    pytest.fail(f"{name}({parameter}={value!r}) was accepted")


def _succeeds(factory, arguments) -> bool:
    try:
        _call(factory, arguments)
    except (ValueError, PrividError):
        return False
    return True
