"""The import diet of a shard and the lazy-name contract of the packages.

``repro`` and ``repro.core`` resolve their public names on first use (PEP
562), so a shard worker that runs ``from repro.core.remote import main``
loads what it runs and nothing else.  Every check imports in a fresh
interpreter: in this one, the other tests have already loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _fresh(code: str):
    """Run ``code`` as the first thing a new interpreter does; return the
    JSON value it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SOURCE_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
    return json.loads(completed.stdout.splitlines()[-1])


_LOADED = ("import json, sys; "
           "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))")

#: What a shard's boot must not pay for: the query front end, the service,
#: the budget/WAL/noise/policy/executor half of the core, relational
#: planning, scene generation and the evaluation/analysis tools.
NOT_IN_A_SHARD_BOOT = (
    "repro.query.", "repro.service", "repro.core.executor", "repro.core.budget",
    "repro.core.durability", "repro.core.noise", "repro.core.policy",
    "repro.relational.plan", "repro.relational.expressions",
    "repro.relational.aggregates", "repro.relational.sensitivity",
    "repro.scene.scenarios", "repro.scene.simulator", "repro.scene.porto",
    "repro.evaluation.", "repro.analysis.",
)


def test_shard_boot_loads_only_what_a_shard_runs():
    loaded = _fresh("from repro.core.remote import main; " + _LOADED)
    assert "repro.core.remote" in loaded
    assert [name for name in loaded if name.startswith(NOT_IN_A_SHARD_BOOT)] == []


def test_bare_import_loads_no_other_module():
    assert _fresh("import repro; " + _LOADED) == ["repro"]


def test_every_public_name_is_its_defining_modules_object():
    report = _fresh("""
import json, sys
import repro, repro.core
out = {}
for package in (repro, repro.core):
    names = [name for name in package.__all__ if name != "__version__"]
    wrong = []
    for name in names:
        value = getattr(package, name)
        module = package._EXPORTS[name]
        defined = getattr(value, "__module__", module)
        if value is not getattr(sys.modules[module], name) or \\
                (isinstance(value, type) or callable(value)) and defined != module:
            wrong.append(name)
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    out[package.__name__] = {
        "count": len(names), "wrong": wrong,
        "missing_from_dir": sorted(set(package.__all__) - set(dir(package))),
        "missing_from_star": sorted(set(package.__all__) - set(namespace)),
        "shared_differ": sorted(
            name for name in set(repro.__all__) & set(repro.core.__all__)
            if getattr(repro, name) is not getattr(repro.core, name)),
    }
print(json.dumps(out))
""")
    assert report["repro"]["count"] == 19  # and __version__
    assert report["repro.core"]["count"] == 38
    for package in report.values():
        assert package["wrong"] == package["missing_from_dir"] == []
        assert package["missing_from_star"] == package["shared_differ"] == []


def test_unknown_names_raise_and_submodules_still_import():
    report = _fresh("""
import json, sys
import repro, repro.core
from repro.core import cache
out = {"submodule": cache is sys.modules["repro.core.cache"],
       "version": repro.__version__}
for package in (repro, repro.core):
    try:
        getattr(package, "no_such_name")
    except AttributeError as error:
        out[package.__name__] = str(error)
print(json.dumps(out))
""")
    assert report["submodule"] is True
    assert report["version"] == repro.__version__
    assert "no_such_name" in report["repro"]
    assert "no_such_name" in report["repro.core"]


def test_engine_kinds_resolve_in_a_fresh_interpreter():
    kinds = _fresh("import json; from repro.core import create_engine; "
                   "print(json.dumps([type(create_engine(kind)).__name__ for kind "
                   "in ('serial', 'thread', 'process', 'sharded')]))")
    assert kinds == ["SerialEngine", "ShardedEngine", "ShardedEngine", "ShardedEngine"]

