"""Registry mapping executable names (as referenced by PROCESS ... USING) to code.

The query language refers to executables by name (``USING model.py``); the
video owner's deployment resolves those names to the uploaded artifacts.  In
this reproduction the registry maps names to :class:`ProcessExecutable`
instances, and a default registry pre-registers the evaluation's executables
under stable names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnknownExecutableError
from repro.relational.table import Schema
from repro.sandbox.environment import SandboxRunner, kept_or_fresh
from repro.sandbox.executables import (
    DirectionalCrossingCounter,
    EnteringObjectCounter,
    ProcessExecutable,
    RedLightObserver,
    TaxiSightingReporter,
    TreeLeafClassifier,
    UniqueVehicleReporter,
)


@dataclass
class ExecutableRegistry:
    """Name -> executable mapping with helpful errors for unknown names."""

    executables: dict[str, ProcessExecutable] = field(default_factory=dict)
    #: Per name, the last runner built for it, as ``kept_or_fresh`` pairs it.
    _runners: dict[str, tuple] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    def register(self, name: str, executable: ProcessExecutable, *, replace: bool = False) -> None:
        """Register an executable under ``name``."""
        if name in self.executables and not replace:
            raise UnknownExecutableError(f"executable {name!r} is already registered")
        self.executables[name] = executable

    def resolve(self, name: str) -> ProcessExecutable:
        """Look up an executable, raising a descriptive error if missing."""
        if name not in self.executables:
            raise UnknownExecutableError(
                f"unknown executable {name!r}; registered: {sorted(self.executables)}")
        return self.executables[name]

    def runner(self, name: str, *, schema: Schema, max_rows: int,
               timeout_seconds: float) -> SandboxRunner:
        """The sandbox runner of one PROCESS clause over ``name``: the one kept
        from the last such query while the clause and the executable's
        configuration read the same (:func:`kept_or_fresh`)."""
        executable = self.resolve(name)
        runner = SandboxRunner(executable=executable, schema=schema, max_rows=max_rows,
                               timeout_seconds=timeout_seconds)
        kept = self._runners[name] = kept_or_fresh(
            self._runners.get(name), runner, executable.config_fingerprint())
        return kept[0]

    def names(self) -> list[str]:
        """Registered executable names."""
        return sorted(self.executables)


def default_registry() -> ExecutableRegistry:
    """Registry with the evaluation's analyst executables pre-registered."""
    registry = ExecutableRegistry()
    registry.register("count_entering_people.py", EnteringObjectCounter(category="person"))
    registry.register("count_entering_cars.py", EnteringObjectCounter(category="car"))
    registry.register("vehicle_reporter.py", UniqueVehicleReporter())
    registry.register("tree_leaf_classifier.py", TreeLeafClassifier())
    registry.register("red_light_observer.py", RedLightObserver())
    registry.register("northbound_people.py", DirectionalCrossingCounter(direction="north"))
    registry.register("taxi_sightings.py", TaxiSightingReporter())
    return registry
