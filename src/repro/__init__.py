"""Reproduction of "Privid: Practical, Privacy-Preserving Video Analytics Queries".

The public API re-exports the pieces a downstream user needs to stand up a
deployment: the system itself (:class:`PrividSystem`), privacy policies,
the query builder/parser, and the synthetic scene/CV substrates used in
place of real video.

Names resolve on first use (PEP 562): ``import repro`` loads nothing else,
so a shard worker that imports one submodule pays for that submodule's
imports only.  ``_EXPORTS`` maps each public name to its defining module.
"""

from importlib import import_module
from typing import Any, Callable

__version__ = "0.1.0"

_EXPORTS = {
    "PrividSystem": "repro.core.executor",
    "CameraRegistration": "repro.core.executor",
    "PrivacyPolicy": "repro.core.policy",
    "MaskPolicyMap": "repro.core.policy",
    "FrameBudgetLedger": "repro.core.budget",
    "LaplaceMechanism": "repro.core.noise",
    "QueryResult": "repro.core.result",
    "ReleaseResult": "repro.core.result",
    "PrividQuery": "repro.query.ast",
    "QueryBuilder": "repro.query.builder",
    "parse_query": "repro.query.parser",
    "validate_query": "repro.query.validator",
    "TimeInterval": "repro.utils.timebase",
    "PrividError": "repro.errors",
    "PolicyError": "repro.errors",
    "BudgetExceededError": "repro.errors",
    "QuerySyntaxError": "repro.errors",
    "QueryValidationError": "repro.errors",
    "UnboundSensitivityError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_names(namespace: dict[str, Any], exports: dict[str, str]
                ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` over ``exports``.

    The first access of a name imports its module and caches the object in
    ``namespace`` (the package's globals), so later accesses never get here.
    """

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_names(globals(), _EXPORTS)
