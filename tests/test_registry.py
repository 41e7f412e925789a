"""The registry contract every ``@register_*`` shares.

Compilers, backends, workloads and study components all sit on one
:class:`~repro.core.registry.Registry`: a taken name is refused, an unknown
name raises a ``KeyError`` listing what is available, names come back
sorted, and the built-in entries load on the first lookup, not on import.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.backends import BaseBackend, register_backend
from repro.compiler.registry import register_compiler
from repro.core.registry import Registry
from repro.studies.components import Component, register_component
from repro.workloads.registry import register_workload

#: kind -> (module, registry attribute, re-registration of a built-in name).
CASES = {
    "backend": (
        "repro.backends.registry",
        "BACKENDS",
        lambda: register_backend("reference")(BaseBackend),
    ),
    "compiler": (
        "repro.compiler.registry",
        "COMPILERS",
        lambda: register_compiler("greedy")(lambda: None),
    ),
    "workload": (
        "repro.workloads.registry",
        "WORKLOADS",
        lambda: register_workload("dot-product")(lambda: None),
    ),
    "component": (
        "repro.studies.components",
        "COMPONENTS",
        lambda: register_component(Component(name="coalescing", description="")),
    ),
}


def _registry(kind: str) -> Registry:
    module, attribute, _ = CASES[kind]
    return getattr(importlib.import_module(module), attribute)


@pytest.mark.parametrize("kind", sorted(CASES))
class TestRegistryContract:
    def test_kind_and_sorted_names(self, kind):
        registry = _registry(kind)
        assert registry.kind == kind
        names = registry.names()
        assert names and names == sorted(names)
        assert [registry.get(name) for name in names] == registry.values()

    def test_duplicate_refused(self, kind):
        registry, reregister = _registry(kind), CASES[kind][2]
        before = registry.values()
        with pytest.raises(ValueError, match="already registered"):
            reregister()
        assert registry.values() == before

    def test_unknown_name_lists_available(self, kind):
        registry = _registry(kind)
        with pytest.raises(KeyError) as excinfo:
            registry.get("no-such-entry")
        assert excinfo.value.args[0] == (
            f"unknown {kind} 'no-such-entry'; available: {', '.join(registry.names())}"
        )

    def test_builtins_load_on_first_lookup(self, kind):
        module, attribute, _ = CASES[kind]
        script = textwrap.dedent(
            f"""
            import sys
            from {module} import {attribute} as registry

            builtins = registry.builtins
            assert not [m for m in builtins if m in sys.modules], builtins
            assert registry.names()
            assert all(m in sys.modules for m in builtins), builtins
            print(len(registry.names()))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) == len(_registry(kind).names())


def test_failed_builtin_import_is_retried(tmp_path, monkeypatch):
    """A builtin import that raises leaves the registry unloaded: the next
    lookup imports again instead of answering from a partial registry."""
    (tmp_path / "flaky_host.py").write_text(
        "from repro.core.registry import Registry\n"
        "REGISTRY = Registry('thing', ('flaky_first', 'flaky_second'))\n"
        "FAIL = True\n"
    )
    (tmp_path / "flaky_first.py").write_text(
        "import flaky_host\nflaky_host.REGISTRY.add('a', 1)\n"
    )
    (tmp_path / "flaky_second.py").write_text(
        "import flaky_host\n"
        "if flaky_host.FAIL:\n"
        "    raise RuntimeError('builtin failed')\n"
        "flaky_host.REGISTRY.add('b', 2)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        import flaky_host

        registry: Registry[int] = flaky_host.REGISTRY
        for _ in range(2):
            with pytest.raises(RuntimeError, match="builtin failed"):
                registry.names()
        flaky_host.FAIL = False
        assert registry.names() == ["a", "b"]
        assert registry.get("b") == 2
    finally:
        for module in ("flaky_host", "flaky_first", "flaky_second"):
            sys.modules.pop(module, None)
