"""The Privid query executor (Algorithm 1).

:class:`PrividSystem` is the entry point a video owner deploys: cameras are
registered with their footage, privacy policy map and per-frame budget;
analysts register executables and submit queries; the system runs the
split-process-aggregate pipeline, checks and charges per-frame budgets, adds
calibrated Laplace noise, and returns only the noisy releases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

from repro.core.budget import BudgetRequest, FrameBudgetLedger, ServiceLedger
from repro.core.cache import ChunkStore, create_cache
from repro.core.engine import ExecutionEngine, create_engine
from repro.core.noise import LaplaceMechanism
from repro.core.policy import MaskPolicyMap, PrivacyPolicy
from repro.core.resilience import CancellationToken
from repro.core.result import QueryResult, ReleaseResult
from repro.cv.detector import DetectorConfig
from repro.cv.tracker import TrackerConfig
from repro.errors import PolicyError, QueryValidationError, UnknownCameraError
from repro.query.ast import PrividQuery, SelectStatement, collect_table_names
from repro.relational.aggregates import GroupSpec, Release, ReleaseKind, compute_releases
from repro.relational.expressions import Column, TimeBucket
from repro.relational.plan import PlanContext
from repro.relational.sensitivity import TableProperties
from repro.relational.table import CHUNK_COLUMN, Table
from repro.sandbox.environment import ExecutionContext, kept_or_fresh
from repro.sandbox.registry import ExecutableRegistry, default_registry
from repro.utils import checks
from repro.utils.rng import RandomSource
from repro.utils.timebase import TimeInterval
from repro.video.chunking import Chunk, ChunkSpec, count_chunks, iter_chunks
from repro.video.regions import RegionScheme
from repro.video.video import SyntheticVideo


def _check_camera_numbers(default_sample_period: float | None, detector_seed: int) -> None:
    if default_sample_period is not None:
        checks.real("default_sample_period", default_sample_period, PolicyError, above=0)
    checks.count("detector_seed", detector_seed, PolicyError)


@dataclass
class CameraRegistration:
    """Everything the video owner configures for one camera."""

    name: str
    video: SyntheticVideo
    policy_map: MaskPolicyMap
    ledger: FrameBudgetLedger
    region_schemes: dict[str, RegionScheme] = field(default_factory=dict)
    detector_config: DetectorConfig = field(default_factory=DetectorConfig)
    tracker_config: TrackerConfig = field(default_factory=TrackerConfig)
    default_sample_period: float | None = None
    detector_seed: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)
    #: The last execution context built for this camera, as ``kept_or_fresh`` pairs it.
    _context: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_camera_numbers(self.default_sample_period, self.detector_seed)

    @property
    def epsilon_budget(self) -> float:
        """Per-frame budget the owner allocated to this camera."""
        return self.ledger.total_epsilon

    def execution_context(self) -> ExecutionContext:
        """The chunk-independent inputs of every stream over this camera: the
        context kept from the last query while the registration and the
        footage's metadata read the same (:func:`kept_or_fresh`)."""
        video = self.video
        self._context = kept = kept_or_fresh(self._context, ExecutionContext(
            camera=self.name, fps=video.fps, detector_config=self.detector_config,
            tracker_config=self.tracker_config,
            metadata={**video.metadata, **self.metadata},
            detector_seed=self.detector_seed))
        return kept[0]


@dataclass
class _ChunkSet:
    """Internal: the result of one SPLIT statement.

    SPLIT is lazy: instead of a materialized chunk list, the set holds a
    *factory* producing a fresh chunk stream per consumer (several PROCESS
    statements may reference the same SPLIT output) plus the chunk count
    computed in O(1) from window arithmetic — sensitivity accounting needs
    the count before any chunk exists.
    """

    camera: CameraRegistration
    make_chunks: Callable[[], Iterator[Chunk]]
    num_chunks: int
    policy: PrivacyPolicy
    window: TimeInterval
    chunk_duration: float


@dataclass
class _TableSource:
    """Internal: which camera/window/policy an intermediate table came from."""

    camera: CameraRegistration
    window: TimeInterval
    policy: PrivacyPolicy


def engine_stats_dict(engine: ExecutionEngine) -> dict[str, Any]:
    """Engine identity and dispatch accounting, always a dict.

    Shared by :meth:`PrividSystem.engine_stats` and
    :meth:`repro.service.QueryService.stats`, so a deployment reports the
    same shape whichever layer is asked.
    """
    stats: dict[str, Any] = {"engine": getattr(engine, "name", "unknown")}
    stats_dict = getattr(engine, "dispatch_stats_dict", None)
    if stats_dict is not None:
        stats["dispatch"] = stats_dict()
    return stats


def cache_stats_dict(cache: ChunkStore | None) -> dict[str, Any]:
    """Chunk-store counters, always a dict (``{"enabled": False}`` when off)."""
    if cache is None:
        return {"enabled": False}
    return {"enabled": True, **cache.stats_dict()}


class PrividSystem:
    """A deployment of Privid over a set of registered cameras."""

    def __init__(self, *, seed: int = 0, registry: ExecutableRegistry | None = None,
                 engine: ExecutionEngine | str | None = None,
                 cache: ChunkStore | str | None = None,
                 ledger: ServiceLedger | None = None,
                 on_engine_failure: str = "fail") -> None:
        if on_engine_failure not in ("fail", "serial_fallback"):
            raise ValueError(
                f"on_engine_failure must be 'fail' or 'serial_fallback', "
                f"not {on_engine_failure!r}")
        #: Degradation policy when a distributed engine loses every shard
        #: mid-stream: ``"fail"`` propagates RemoteShardError,
        #: ``"serial_fallback"`` re-executes the unfinished chunks serially
        #: (byte-identical by the determinism contract).
        self.on_engine_failure = on_engine_failure
        self.random = RandomSource(seed, path="privid")
        self.mechanism = LaplaceMechanism(self.random)
        self.registry = registry if registry is not None else default_registry()
        self.cameras: dict[str, CameraRegistration] = {}
        #: Per-camera budget accounting.  Private per system by default (the
        #: historical behaviour); a :class:`~repro.service.QueryService`
        #: passes one shared :class:`~repro.core.budget.ServiceLedger` to
        #: every per-query system so concurrent queries draw from the same
        #: budgets.
        self.ledger = ledger if ledger is not None else ServiceLedger()
        #: Engine scheduling the independent per-chunk executions; accepts an
        #: instance or a spec string ('serial', 'thread[:N]', 'sharded[:N]'
        #: or its alias 'process[:N]'; see :func:`~repro.core.engine.create_engine`).
        self.engine: ExecutionEngine = create_engine(engine)
        #: True when the engine was built here from a spec string — those
        #: pools belong to this system, so :meth:`close` shuts them down.
        self._owns_engine = not isinstance(engine, ExecutionEngine)
        #: Optional memoization of chunk outputs across queries; accepts a
        #: store instance or a spec string ('off', 'memory', 'disk:PATH',
        #: 'tiered:PATH').
        self.chunk_cache = create_cache(cache)
        # A distributed engine shares the store's cross-process tier with its
        # executor shards, so shard-side executions consult and extend the
        # same warm entries the coordinator sees (no-op for local engines,
        # which reach the store directly through ``iter_chunk_rows``).  Only
        # an engine built here is wired up: a caller-provided instance may be
        # shared between systems with different stores (same reasoning as
        # :meth:`close`), and repointing it would silently divert another
        # system's write-through — such callers invoke ``share_store``
        # themselves.
        if self._owns_engine and self.chunk_cache is not None:
            share = getattr(self.engine, "share_store", None)
            if share is not None:
                share(self.chunk_cache)

    def query_view(self, noise_path: str) -> "PrividSystem":
        """This deployment as one query sees it: cameras, registry, ledger,
        engine and store shared by reference, its own noise stream, and
        nothing owned (closing a view leaves the engine running)."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)
        view._owns_engine = False
        view.random = RandomSource(self.random.seed, path=noise_path)
        view.mechanism = LaplaceMechanism(view.random)
        return view

    # ------------------------------------------------------------------ setup

    def register_camera(self, name: str, video: SyntheticVideo, *,
                        policy: PrivacyPolicy | None = None,
                        policy_map: MaskPolicyMap | None = None,
                        epsilon_budget: float = 1.0,
                        region_schemes: dict[str, RegionScheme] | None = None,
                        detector_config: DetectorConfig | None = None,
                        tracker_config: TrackerConfig | None = None,
                        default_sample_period: float | None = None,
                        detector_seed: int = 0,
                        metadata: dict[str, Any] | None = None) -> CameraRegistration:
        """Register a camera with its policy and per-frame budget.

        Either a single unmasked ``policy`` or a full ``policy_map`` (mask
        name -> (mask, policy)) must be supplied; the map is how the owner
        exposes the masking optimisation of Section 7.1.
        """
        if name in self.cameras:
            raise PolicyError(f"camera {name!r} is already registered")
        if policy_map is None:
            if policy is None:
                raise PolicyError("register_camera needs a policy or a policy_map")
            policy_map = MaskPolicyMap.unmasked(policy)
        # Checked before the (possibly durable) ledger keeps the camera.
        _check_camera_numbers(default_sample_period, detector_seed)
        registration = CameraRegistration(
            name=name,
            video=video,
            policy_map=policy_map,
            # Get-or-create on the (possibly shared) service ledger: under a
            # QueryService, the second system registering this camera binds
            # to the same FrameBudgetLedger the first one created.
            ledger=self.ledger.register(name, epsilon_budget),
            region_schemes=dict(region_schemes or {}),
            detector_config=detector_config or DetectorConfig(),
            tracker_config=tracker_config or TrackerConfig(),
            default_sample_period=default_sample_period,
            detector_seed=detector_seed,
            metadata=dict(metadata or {}),
        )
        self.cameras[name] = registration
        return registration

    def register_executable(self, name: str, executable: Any, *, replace: bool = False) -> None:
        """Register an analyst executable under the name queries refer to."""
        self.registry.register(name, executable, replace=replace)

    def camera(self, name: str) -> CameraRegistration:
        """Look up a registered camera."""
        if name not in self.cameras:
            raise UnknownCameraError(
                f"unknown camera {name!r}; registered: {sorted(self.cameras)}")
        return self.cameras[name]

    def remaining_budget(self, camera: str, interval: TimeInterval) -> float:
        """Minimum remaining per-frame budget of a camera over an interval."""
        return self.camera(camera).ledger.remaining_over(interval)

    def cache_stats(self) -> dict[str, Any]:
        """Chunk-cache counters, always a dict.

        ``{"enabled": False}`` when caching is off; otherwise ``enabled`` is
        True alongside the store's flat hit/miss counters, and a tiered
        store additionally reports per-tier ``memory`` / ``disk`` sub-stats.
        """
        return cache_stats_dict(self.chunk_cache)

    def engine_stats(self) -> dict[str, Any]:
        """Engine identity and dispatch accounting, always a dict.

        ``{"engine": NAME}`` plus, for the sharded engine, a ``dispatch``
        section: its engine-wide counters with a ``per_shard`` breakdown
        (the numbers behind ``benchmarks/system``'s ``core.remote.*``
        metrics).
        """
        return engine_stats_dict(self.engine)

    def close(self) -> None:
        """Release execution resources this system created.

        Shuts down the engine's worker pools when the engine was built from
        a spec string (``engine="thread:8"``); an engine instance passed in
        by the caller is shared property and is left running.  Safe to call
        more than once; the system remains usable (pools rebuild lazily).
        """
        if self._owns_engine:
            shutdown = getattr(self.engine, "shutdown", None)
            if shutdown is not None:
                shutdown()

    def __enter__(self) -> "PrividSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- execution

    def _run_splits(self, query: PrividQuery) -> dict[str, _ChunkSet]:
        chunk_sets: dict[str, _ChunkSet] = {}
        for split in query.splits:
            camera = self.camera(split.camera)
            mask, policy = camera.policy_map.lookup(split.mask)
            region_scheme = None
            if split.region_scheme is not None:
                if split.region_scheme not in camera.region_schemes:
                    raise QueryValidationError(
                        f"camera {camera.name!r} offers no region scheme "
                        f"{split.region_scheme!r}")
                region_scheme = camera.region_schemes[split.region_scheme]
            window = split.window.clamp(camera.video.interval)
            sample_period = split.sample_period
            if sample_period is None:
                sample_period = camera.default_sample_period
            spec = ChunkSpec(window=window, chunk_duration=split.chunk_duration,
                             stride=split.stride, sample_period=sample_period)
            make_chunks = partial(iter_chunks, camera.video, spec, mask=mask,
                                  region_scheme=region_scheme)
            # iter_chunks validates eagerly (before yielding anything), so
            # invoking the factory once surfaces bad chunking parameters at
            # SPLIT time without materializing a single chunk.
            make_chunks()
            chunk_sets[split.output] = _ChunkSet(
                camera=camera, make_chunks=make_chunks,
                num_chunks=count_chunks(camera.video, spec, region_scheme=region_scheme),
                policy=policy, window=window,
                chunk_duration=split.chunk_duration)
        return chunk_sets

    def _run_processes(self, query: PrividQuery, chunk_sets: dict[str, _ChunkSet],
                       cancel: "CancellationToken | None" = None,
                       on_chunk: "Callable[[int], None] | None" = None
                       ) -> tuple[PlanContext, dict[str, _TableSource]]:
        """Run every PROCESS statement as an incremental streaming consumer.

        Each statement's chunk stream flows split → engine → table without
        ever materializing the chunk list: rows are appended to the
        intermediate :class:`Table` per chunk as outcomes arrive.  With
        several PROCESS statements (multiple cameras), the streams are
        consumed round-robin, one chunk's rows at a time, so no camera's
        stream has to finish — or buffer — before another starts.  Rows
        still land in chunk order within each table, and chunk results are
        order-independent by the hashing contract (ROADMAP §Hashing), so the
        output is byte-identical to the batch dataflow.
        """
        tables: dict[str, Table] = {}
        properties: dict[str, TableProperties] = {}
        sources: dict[str, _TableSource] = {}
        streams: deque[tuple[Table, Iterator[list[dict[str, Any]]]]] = deque()
        for process in query.processes:
            if process.chunks not in chunk_sets:
                raise QueryValidationError(
                    f"PROCESS references unknown chunk set {process.chunks!r}")
            chunk_set = chunk_sets[process.chunks]
            camera = chunk_set.camera
            runner = self.registry.runner(process.executable, schema=process.schema,
                                          max_rows=process.max_rows,
                                          timeout_seconds=process.timeout)
            context = camera.execution_context()
            table = Table.from_schema(process.schema, name=process.output)
            tables[process.output] = table
            properties[process.output] = TableProperties(
                name=process.output,
                max_rows=process.max_rows,
                chunk_duration=chunk_set.chunk_duration,
                num_chunks=chunk_set.num_chunks,
                rho=chunk_set.policy.rho,
                k_segments=chunk_set.policy.k_segments,
            )
            sources[process.output] = _TableSource(
                camera=camera, window=chunk_set.window, policy=chunk_set.policy)
            streams.append((table, runner.iter_chunk_rows(
                chunk_set.make_chunks(), context,
                engine=self.engine, cache=self.chunk_cache,
                count_hint=chunk_set.num_chunks,
                on_engine_failure=self.on_engine_failure)))
        # The round-robin drive is the query's cooperative yield point: the
        # cancellation token is checked once per chunk, so a deadline stops
        # the stream within one chunk — before any budget is charged (the
        # ledger is only touched after every stream completes), keeping
        # admission all-or-nothing under cancellation.
        completed = 0
        try:
            while streams:
                if cancel is not None:
                    cancel.check()
                table, stream = streams.popleft()
                chunk_rows = next(stream, None)
                if chunk_rows is None:
                    continue
                table.extend(chunk_rows)
                streams.append((table, stream))
                completed += 1
                if on_chunk is not None:
                    on_chunk(completed)
        except BaseException:
            for _, stream in streams:
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
            raise
        return PlanContext(tables=tables, properties=properties), sources

    @staticmethod
    def _chunk_bucket(group: GroupSpec | None) -> TimeBucket | None:
        """Return the TimeBucket if the grouping is a single chunk-time binning."""
        if group is None or group.expected_keys is not None:
            return None
        if len(group.expressions) != 1:
            return None
        _, expression = group.expressions[0]
        if isinstance(expression, TimeBucket) and isinstance(expression.inner, Column) \
                and expression.inner.name == CHUNK_COLUMN:
            return expression
        return None

    def _resolve_group(self, select: SelectStatement, windows: list[TimeInterval]
                       ) -> GroupSpec | None:
        """Enumerate chunk-time bins so every bin is released, even empty ones."""
        bucket = self._chunk_bucket(select.group_by)
        if bucket is None:
            return select.group_by
        span = windows[0]
        for window in windows[1:]:
            span = span.union_span(window)
        keys: list[float] = []
        position = (span.start // bucket.width) * bucket.width
        while position < span.end:
            keys.append(position)
            position += bucket.width
        assert select.group_by is not None
        return GroupSpec(expressions=select.group_by.expressions, expected_keys=tuple(keys))

    @staticmethod
    def _release_interval(release: Release, group: GroupSpec | None,
                          bucket: TimeBucket | None, window: TimeInterval) -> TimeInterval:
        """Frames a release draws budget from (its bin for chunk-grouped releases)."""
        if bucket is not None and release.group_key is not None:
            try:
                start = float(release.group_key)
            except (TypeError, ValueError):
                return window
            return TimeInterval(start, start + bucket.width).clamp(window)
        return window

    def _source_intervals(self, release: Release, group: GroupSpec | None,
                          bucket: TimeBucket | None, table_sources: list[_TableSource]
                          ) -> dict[str, tuple[TimeInterval, ...]]:
        """Per-camera frame intervals one release draws budget from.

        Mirrors the budget-request loop of :meth:`execute` exactly — one
        interval per contributing source, grouped by camera and *not* merged,
        so the intervals reported on a :class:`ReleaseResult` always match
        what the ledgers charged (merging would claim the gap between two
        disjoint source windows of the same camera was charged).
        """
        intervals: dict[str, list[TimeInterval]] = {}
        for source in table_sources:
            interval = self._release_interval(release, group, bucket, source.window)
            if interval.duration <= 0:
                continue
            intervals.setdefault(source.camera.name, []).append(interval)
        return {camera: tuple(charged) for camera, charged in intervals.items()}

    def execute(self, query: PrividQuery, *, default_epsilon: float = 1.0,
                add_noise: bool = True, charge_budget: bool = True,
                cancel: "CancellationToken | None" = None,
                query_id: str | None = None,
                on_chunk: "Callable[[int], None] | None" = None) -> QueryResult:
        """Run a query end to end and return its (noisy) releases.

        ``add_noise=False`` returns the raw chunked-pipeline outputs (the
        "Privid (No Noise)" curves of Fig. 5); ``charge_budget=False`` skips
        budget accounting (used by what-if sweeps in the benchmarks).  Both
        default to the privacy-preserving behaviour.

        ``cancel`` is an optional
        :class:`~repro.core.resilience.CancellationToken` checked between
        chunks: past-deadline tokens raise
        :class:`~repro.errors.QueryTimeoutError`, manual cancels
        :class:`~repro.errors.QueryCancelledError` — always *before* budget
        admission, so a cancelled query never charges a ledger.

        ``query_id`` keys this query's budget charge idempotently on a
        durable ledger (a resumed query never double-charges); ``on_chunk``
        observes streaming progress (called with the completed-chunk count
        after each chunk's rows land).
        """
        if cancel is not None:
            cancel.check()
        chunk_sets = self._run_splits(query)
        plan_context, sources = self._run_processes(query, chunk_sets, cancel,
                                                    on_chunk)

        prepared: list[tuple[SelectStatement, list[Release], GroupSpec | None,
                             TimeBucket | None, list[_TableSource], float]] = []
        requests_by_camera: dict[str, list[BudgetRequest]] = {}
        margins: dict[str, float] = {}

        for select in query.selects:
            referenced = collect_table_names(select.source)
            unknown = referenced - set(plan_context.tables)
            if unknown:
                raise QueryValidationError(f"SELECT references unknown tables {sorted(unknown)}")
            table_sources = [sources[name] for name in sorted(referenced)]
            windows = [source.window for source in table_sources]
            group = self._resolve_group(select, windows)
            bucket = self._chunk_bucket(select.group_by)
            info = select.source.sensitivity(plan_context)
            table = select.source.evaluate(plan_context)
            releases = compute_releases(table, info, select.aggregation, group)
            epsilon = select.epsilon if select.epsilon is not None else default_epsilon
            prepared.append((select, releases, group, bucket, table_sources, epsilon))
            for release in releases:
                for source in table_sources:
                    interval = self._release_interval(release, group, bucket, source.window)
                    if interval.duration <= 0:
                        continue
                    requests_by_camera.setdefault(source.camera.name, []).append(
                        BudgetRequest(interval=interval, epsilon=epsilon))
                    margin = max(margins.get(source.camera.name, 0.0), source.policy.rho)
                    margins[source.camera.name] = margin

        # All-or-nothing multi-camera admission, atomic under the (possibly
        # service-shared) ledger's cross-camera lock: check every camera, then
        # charge every camera and read what remains, with no window for a
        # concurrent query to interleave.
        budget_remaining = self.ledger.admit_many(
            requests_by_camera, margins, query_id=query_id) if charge_budget else None

        result = QueryResult(query_name=query.name,
                             budget_remaining=budget_remaining)
        for select, releases, group, bucket, table_sources, epsilon in prepared:
            for release in releases:
                source_intervals = self._source_intervals(release, group, bucket, table_sources)
                if source_intervals:
                    interval = None
                    for charged in source_intervals.values():
                        for piece in charged:
                            interval = piece if interval is None else interval.union_span(piece)
                else:
                    interval = self._release_interval(
                        release, group, bucket,
                        table_sources[0].window if table_sources else TimeInterval(0.0, 0.0))
                noise_scale = self.mechanism.scale(release.sensitivity, epsilon)
                if release.kind is ReleaseKind.ARGMAX:
                    assert release.candidates is not None
                    raw_winner = max(release.candidates, key=release.candidates.get) \
                        if release.candidates else None
                    if add_noise:
                        noisy_value: Any = self.mechanism.noisy_argmax(
                            release.candidates, release.sensitivity, epsilon)
                    else:
                        noisy_value = raw_winner
                    raw_value: Any = raw_winner
                else:
                    raw_value = release.raw_value
                    if add_noise:
                        noisy_value = self.mechanism.add_noise(
                            float(raw_value), release.sensitivity, epsilon)
                    else:
                        noisy_value = raw_value
                result.releases.append(ReleaseResult(
                    label=release.label,
                    kind=release.kind.value,
                    noisy_value=noisy_value,
                    raw_value_unsafe=raw_value,
                    sensitivity=release.sensitivity,
                    epsilon=epsilon,
                    noise_scale=noise_scale,
                    group_key=release.group_key,
                    interval=interval,
                    source_intervals=source_intervals or None,
                    candidates=dict(release.candidates)
                    if release.kind is ReleaseKind.ARGMAX and release.candidates else None,
                ))
                result.epsilon_consumed += epsilon
        result.metadata["num_tables"] = len(plan_context.tables)
        result.metadata["num_chunks"] = {name: properties.num_chunks
                                         for name, properties in plan_context.properties.items()}
        return result

    def resample_noise(self, result: QueryResult) -> QueryResult:
        """Return a copy of a result with fresh noise samples.

        The evaluation re-executes every query's noise 100-1000 times
        (Section 8.1); re-running the whole pipeline for each sample would be
        wasteful, and only the noise is random, so this redraws it from the
        stored raw values, sensitivities and epsilons.  ARGMAX releases redraw
        report-noisy-max over their stored candidates, so the winning key
        varies across resamples exactly as it would across real re-executions.
        """
        fresh = QueryResult(query_name=result.query_name,
                            epsilon_consumed=result.epsilon_consumed,
                            metadata=dict(result.metadata),
                            budget_remaining=dict(result.budget_remaining)
                            if result.budget_remaining else None)
        for release in result.releases:
            if release.kind == ReleaseKind.ARGMAX.value:
                if release.candidates:
                    noisy_value: Any = self.mechanism.noisy_argmax(
                        release.candidates, release.sensitivity, release.epsilon)
                else:
                    noisy_value = release.noisy_value
            else:
                noisy_value = self.mechanism.add_noise(
                    float(release.raw_value_unsafe), release.sensitivity, release.epsilon)
            fresh.releases.append(ReleaseResult(
                label=release.label,
                kind=release.kind,
                noisy_value=noisy_value,
                raw_value_unsafe=release.raw_value_unsafe,
                sensitivity=release.sensitivity,
                epsilon=release.epsilon,
                noise_scale=release.noise_scale,
                group_key=release.group_key,
                interval=release.interval,
                source_intervals=dict(release.source_intervals)
                if release.source_intervals else None,
                candidates=dict(release.candidates) if release.candidates else None,
            ))
        return fresh
