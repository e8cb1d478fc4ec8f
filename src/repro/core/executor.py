"""The Privid query executor (Algorithm 1).

:class:`PrividSystem` is the entry point a video owner deploys: cameras are
registered with their footage, privacy policy map and per-frame budget;
analysts register executables and submit queries; the system runs the
split-process-aggregate pipeline, checks and charges per-frame budgets, adds
calibrated Laplace noise, and returns only the noisy releases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial, reduce
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
from repro.query.validator import validate_query
from repro.relational.aggregates import GroupSpec, Release, ReleaseKind, compute_releases, \
    planned_releases
from repro.relational.expressions import Column, TimeBucket
from repro.relational.plan import PlanContext, Projection, Relation, TableScan, Union
from repro.relational.sensitivity import SensitivityInfo, TableProperties
from repro.relational.table import CHUNK_COLUMN, REGION_COLUMN, Table
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
    stride: float
    region_scheme: RegionScheme | None


@dataclass
class _SelectPlan:
    """Internal: one SELECT as its plan fixes it, before any chunk runs."""

    select: SelectStatement
    info: SensitivityInfo
    epsilon: float
    #: The SELECT's grouping with every release key enumerated (or None).
    group: GroupSpec | None
    #: Each release's label, key and sensitivity; no value yet.
    releases: list[Release]
    #: Each release's charge: one interval per contributing source, by camera.
    source_intervals: list[dict[str, tuple[TimeInterval, ...]]]


@dataclass
class QueryPlan:
    """Everything a query will release and charge, derived from the query,
    the cameras' policies and the executables' names alone (Algorithm 1).

    :meth:`PrividSystem.plan` builds it without running a chunk, so a query
    the ledger or the sensitivity rules refuse costs no chunk work.
    """

    #: Each SPLIT's lazy chunk set, by output name.
    chunk_sets: dict[str, _ChunkSet]
    #: Each PROCESS table's declared properties (its sensitivity's inputs).
    properties: dict[str, TableProperties]
    selects: list[_SelectPlan]
    #: The ledger demand of every release, by camera, in release order.
    requests: dict[str, list[BudgetRequest]]
    #: Each camera's admission margin: the largest rho of its sources.
    margins: dict[str, float]


def _stamped_by_split(relation: Relation) -> bool:
    """Does every row of ``relation`` carry, as ``chunk``, the SPLIT's stamp
    of the one chunk it was computed from?

    Table scans, unions of them and projections passing ``chunk`` through
    keep the stamp.  A GROUP BY, JOIN or LIMIT row depends on rows of other
    chunks, and a projection can re-key ``chunk`` (``hour(chunk) AS chunk``),
    so neither keeps it.
    """
    if isinstance(relation, Union):
        return all(_stamped_by_split(child) for child in relation.children)
    if isinstance(relation, Projection):
        return dict(relation.outputs).get(CHUNK_COLUMN) == Column(CHUNK_COLUMN) \
            and _stamped_by_split(relation.child)
    return isinstance(relation, TableScan)


def _enumerate_keys(select: SelectStatement, info: SensitivityInfo,
                    sources: list[_ChunkSet]
                    ) -> tuple[GroupSpec | None, Callable[[_ChunkSet], float] | None]:
    """A SELECT's grouping with its release keys enumerated from the query,
    and the width of the interval each key is charged on a source (None:
    the source's whole window).

    Release keys never depend on the rows.  ``WITH KEYS`` lists them; a bin
    over ``chunk`` enumerates its bins over the sources' span; bare
    ``chunk`` enumerates the SPLITs' own chunk starts (``TimeInterval.split``,
    the arithmetic that stamps ``chunk``); bare ``region`` enumerates the
    region names the chunks carry.  Any other grouping without ``WITH KEYS``
    is refused.  A key of ``chunk`` is charged only its own bin or chunk
    while the SELECT's rows keep the SPLIT's stamp (:func:`_stamped_by_split`);
    otherwise a release may depend on any chunk, and each is charged the
    whole window.
    """
    group = select.group_by
    if group is None or group.expected_keys is not None:
        return group, None
    untrusted = group.referenced_columns() - info.trusted_columns
    if untrusted:
        raise QueryValidationError(
            f"GROUP BY over analyst columns {sorted(untrusted)} requires WITH KEYS")
    expression = group.expressions[0][1] if len(group.expressions) == 1 else None
    width: Callable[[_ChunkSet], float] | None
    if isinstance(expression, TimeBucket) and expression.inner == Column(CHUNK_COLUMN):
        bucket = expression.width
        span = reduce(TimeInterval.union_span, (source.window for source in sources))
        keys: list[Any] = []
        position = (span.start // bucket) * bucket
        while position < span.end:
            keys.append(position)
            position += bucket
        width = lambda _source: bucket
    elif expression == Column(CHUNK_COLUMN):
        keys = sorted({interval.start for source in sources for interval
                       in source.window.split(source.chunk_duration, source.stride)})
        width = lambda source: source.chunk_duration
    elif expression == Column(REGION_COLUMN):
        keys = list(dict.fromkeys(
            name for source in sources for name in (
                [""] if source.region_scheme is None
                else [region.name for region in source.region_scheme.regions])))
        width = None
    else:
        raise QueryValidationError(
            "GROUP BY without WITH KEYS must be a bin of chunk, chunk or region")
    return replace(group, expected_keys=tuple(keys)), \
        width if _stamped_by_split(select.source) else None


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
                 ledger: ServiceLedger | None = None) -> None:
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
        #: instance or a spec string ('serial', 'sharded[:N]' or its aliases
        #: 'process[:N]' and 'thread[:N]'; see :func:`~repro.core.engine.create_engine`).
        #: An engine lost mid-stream hands its unfinished chunks to serial
        #: execution (``SandboxRunner.iter_chunk_rows``), byte-identically.
        self.engine: ExecutionEngine = create_engine(engine)
        #: True when the engine was built here from a spec string — those
        #: pools belong to this system, so :meth:`close` shuts them down.
        self._owns_engine = not isinstance(engine, ExecutionEngine)
        #: Optional memoization of chunk outputs across queries; accepts a
        #: store instance or a spec string ('off', 'memory', 'tiered:PATH').
        self.chunk_cache = create_cache(cache)

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

        Shuts down the engine's shards when the engine was built from
        a spec string (``engine="sharded:4"``); an engine instance passed in
        by the caller is shared property and is left running.  Safe to call
        more than once; the system remains usable (shards respawn lazily).
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

    def plan(self, query: PrividQuery, *, default_epsilon: float = 1.0) -> QueryPlan:
        """Derive what a query will release and charge, running no chunk.

        The query's structure is checked first (:func:`validate_query`,
        against the registered cameras' frame rates and executable names).
        Then each SPLIT becomes a lazy chunk set, each PROCESS table gets its
        declared properties, and each SELECT its sensitivity, epsilon,
        release keys and per-release charges, read off the query and the
        owner's policies alone.  Refusals (an unbound sensitivity, a grouping
        whose keys the query cannot enumerate) happen here.
        """
        cameras = {split.camera: self.camera(split.camera) for split in query.splits}
        validate_query(query, known_cameras={name: camera.video.fps
                                             for name, camera in cameras.items()},
                       known_executables=self.registry.names())
        chunk_sets: dict[str, _ChunkSet] = {}
        for split in query.splits:
            camera = cameras[split.camera]
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
            # plan time without materializing a single chunk.
            make_chunks()
            chunk_sets[split.output] = _ChunkSet(
                camera=camera, make_chunks=make_chunks,
                num_chunks=count_chunks(camera.video, spec, region_scheme=region_scheme),
                policy=policy, window=window, chunk_duration=split.chunk_duration,
                stride=split.stride, region_scheme=region_scheme)

        sources: dict[str, _ChunkSet] = {}
        properties: dict[str, TableProperties] = {}
        for process in query.processes:
            source = sources[process.output] = chunk_sets[process.chunks]
            properties[process.output] = TableProperties(
                name=process.output, max_rows=process.max_rows,
                chunk_duration=source.chunk_duration, num_chunks=source.num_chunks,
                rho=source.policy.rho, k_segments=source.policy.k_segments)
        context = PlanContext(properties=properties)

        selects: list[_SelectPlan] = []
        requests: dict[str, list[BudgetRequest]] = {}
        margins: dict[str, float] = {}
        for select in query.selects:
            table_sources = [sources[name] for name in sorted(collect_table_names(select.source))]
            info = select.source.sensitivity(context)
            epsilon = select.epsilon if select.epsilon is not None else default_epsilon
            group, width = _enumerate_keys(select, info, table_sources)
            releases = planned_releases(select.aggregation, info, group)
            charges = []
            for release in releases:
                # The release's charge (Algorithm 1): one interval per
                # contributing source, grouped by camera and *not* merged —
                # merging would claim the gap between two disjoint source
                # windows of one camera was charged.  The budget requests
                # and the reported intervals are both read off it.
                charged: dict[str, list[TimeInterval]] = {}
                for source in table_sources:
                    interval = source.window
                    if width is not None and release.group_key is not None:
                        interval = TimeInterval(
                            release.group_key,
                            release.group_key + width(source)).clamp(source.window)
                    if interval.duration <= 0:
                        continue
                    camera = source.camera.name
                    charged.setdefault(camera, []).append(interval)
                    margins[camera] = max(margins.get(camera, 0.0), source.policy.rho)
                for camera, pieces in charged.items():
                    requests.setdefault(camera, []).extend(
                        BudgetRequest(interval=piece, epsilon=epsilon) for piece in pieces)
                charges.append({camera: tuple(pieces) for camera, pieces in charged.items()})
            selects.append(_SelectPlan(select=select, info=info, epsilon=epsilon, group=group,
                                       releases=releases, source_intervals=charges))
        return QueryPlan(chunk_sets=chunk_sets, properties=properties, selects=selects,
                         requests=requests, margins=margins)

    def _run_processes(self, query: PrividQuery, plan: QueryPlan,
                       cancel: "CancellationToken | None" = None,
                       on_chunk: "Callable[[int], None] | None" = None) -> PlanContext:
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
        streams: deque[tuple[Table, Iterator[list[dict[str, Any]]]]] = deque()
        for process in query.processes:
            chunk_set = plan.chunk_sets[process.chunks]
            runner = self.registry.runner(process.executable, schema=process.schema,
                                          max_rows=process.max_rows,
                                          timeout_seconds=process.timeout)
            context = chunk_set.camera.execution_context()
            table = Table.from_schema(process.schema, name=process.output)
            tables[process.output] = table
            streams.append((table, runner.iter_chunk_rows(
                chunk_set.make_chunks(), context,
                engine=self.engine, cache=self.chunk_cache,
                count_hint=chunk_set.num_chunks)))
        # The round-robin drive is the query's cooperative yield point: the
        # cancellation token is checked once per chunk, so a deadline stops
        # the stream within one chunk — before any budget is charged (the
        # ledger is only charged after every stream completes), keeping
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
        return PlanContext(tables=tables, properties=plan.properties)

    def _draw(self, release: ReleaseResult) -> Any:
        """A fresh noisy value for a release: report-noisy-max over an ARGMAX
        release's candidates, Laplace noise on any other's raw value."""
        if release.kind == ReleaseKind.ARGMAX.value:
            return self.mechanism.noisy_argmax(release.candidates or {},
                                               release.sensitivity, release.epsilon)
        return self.mechanism.add_noise(float(release.raw_value_unsafe),
                                        release.sensitivity, release.epsilon)

    def execute(self, query: PrividQuery, *, default_epsilon: float = 1.0,
                charge_budget: bool = True,
                cancel: "CancellationToken | None" = None,
                query_id: str | None = None,
                on_chunk: "Callable[[int], None] | None" = None) -> QueryResult:
        """Run a query end to end and return its (noisy) releases.

        Every release carries fresh noise; its pre-noise value stays in
        ``raw_value_unsafe`` (the "Privid (No Noise)" curves of Fig. 5).
        ``charge_budget=False`` skips budget accounting (used by what-if
        sweeps in the benchmarks); it defaults to the privacy-preserving
        behaviour.

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
        plan = self.plan(query, default_epsilon=default_epsilon)
        # Refused before any chunk runs.  The charge below checks again under
        # the same lock it charges under: a concurrent query may charge first.
        if charge_budget:
            self.ledger.check(plan.requests, plan.margins, query_id=query_id)
        context = self._run_processes(query, plan, cancel, on_chunk)

        result = QueryResult(query_name=query.name)
        for planned in plan.selects:
            select = planned.select
            releases = compute_releases(select.source.evaluate(context), select.aggregation,
                                        planned.releases, planned.group)
            for release, source_intervals in zip(releases, planned.source_intervals):
                everything = [piece for pieces in source_intervals.values() for piece in pieces]
                result.releases.append(ReleaseResult(
                    label=release.label,
                    kind=release.kind.value,
                    noisy_value=release.raw_value,
                    raw_value_unsafe=release.raw_value,
                    sensitivity=release.sensitivity,
                    epsilon=planned.epsilon,
                    noise_scale=self.mechanism.scale(release.sensitivity, planned.epsilon),
                    group_key=release.group_key,
                    interval=reduce(TimeInterval.union_span, everything) if everything else None,
                    source_intervals=source_intervals or None,
                    candidates=dict(release.candidates) if release.candidates else None,
                ))
                result.epsilon_consumed += planned.epsilon

        # All-or-nothing multi-camera admission, atomic under the (possibly
        # service-shared) ledger's cross-camera lock: check every camera, then
        # charge every camera and read what remains, with no window for a
        # concurrent query to interleave.  Noise is drawn only once admitted.
        if charge_budget:
            result.budget_remaining = self.ledger.admit_many(
                plan.requests, plan.margins, query_id=query_id)
        for release_result in result.releases:
            release_result.noisy_value = self._draw(release_result)
        result.metadata["num_tables"] = len(context.tables)
        result.metadata["num_chunks"] = {name: properties.num_chunks
                                         for name, properties in plan.properties.items()}
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
        return replace(result, metadata=dict(result.metadata), releases=[
            replace(release, noisy_value=self._draw(release)) for release in result.releases])
