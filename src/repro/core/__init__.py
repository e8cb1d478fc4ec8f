"""Privacy core: policies, the Laplace mechanism, budgets, and the executor.

Names resolve on first use (PEP 562), like the top-level package's:
``_EXPORTS`` maps each public name to its defining module, so importing one
submodule (a shard worker's ``repro.core.remote``) does not import the rest.
"""

from repro import _lazy_names

_EXPORTS = {
    "PrivacyPolicy": "repro.core.policy",
    "MaskPolicyMap": "repro.core.policy",
    "LaplaceMechanism": "repro.core.noise",
    "FrameBudgetLedger": "repro.core.budget",
    "BudgetRequest": "repro.core.budget",
    "ServiceLedger": "repro.core.budget",
    "WriteAheadLog": "repro.core.durability",
    "QueryJournal": "repro.core.durability",
    "CacheStats": "repro.core.cache",
    "ChunkOutcome": "repro.core.engine",
    "ChunkResultCache": "repro.core.cache",
    "ChunkStore": "repro.core.cache",
    "DiskChunkStore": "repro.core.cache",
    "TieredChunkCache": "repro.core.cache",
    "create_cache": "repro.core.cache",
    "store_health": "repro.core.cache",
    "FaultEvent": "repro.core.faults",
    "FaultInjector": "repro.core.faults",
    "FaultKind": "repro.core.faults",
    "FaultPlan": "repro.core.faults",
    "FaultRule": "repro.core.faults",
    "FaultyTransport": "repro.core.faults",
    "faulty_transport_factory": "repro.core.faults",
    "CancellationToken": "repro.core.resilience",
    "ExecutionEngine": "repro.core.engine",
    "SerialEngine": "repro.core.engine",
    "ShardedEngine": "repro.core.remote",
    "ShardTransport": "repro.core.remote",
    "SocketTransport": "repro.core.remote",
    "create_engine": "repro.core.engine",
    "detection_probability_bound": "repro.core.degradation",
    "effective_epsilon": "repro.core.degradation",
    "degradation_curve": "repro.core.degradation",
    "QueryResult": "repro.core.result",
    "ReleaseResult": "repro.core.result",
    "PrividSystem": "repro.core.executor",
    "CameraRegistration": "repro.core.executor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_names(globals(), _EXPORTS)
