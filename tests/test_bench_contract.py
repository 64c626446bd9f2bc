"""The names the benchmark under ``bench/`` looks up in splitstep still exist.

The benchmark finds what it times by name: ``bench/layers.py`` reduces spans
named ``module.function`` or ``module.Class.method``, ``bench/spans.py``
wraps those functions and methods, and ``bench/workloads.py`` calls the
package through its modules.  A rename in ``src/`` would leave a per-layer
metric reading 0 without any error, and only the minute-long
``bench/test_bench.py`` would notice, so these checks read the benchmark's
sources (without running them) and resolve every such name.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import splitstep
import splitstep.cli  # noqa: F401  (the package does not import its CLI)

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("problems", "blockops", "linsolve", "schemes", "verify", "cli")
DOTTED = re.compile(rf"^({'|'.join(MODULES)})(\.[A-Za-z_]\w*)+$")

pytestmark = pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory next to tests/")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(str(BENCH))


def _resolve(dotted: str):
    obj = splitstep
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def _string_constants(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = (node for node in ast.walk(tree) if isinstance(node, ast.Constant))
    return {node.value for node in constants if isinstance(node.value, str)}


def test_layer_span_names_resolve(bench_modules):
    layers, _ = bench_modules
    names = {s for s in _string_constants(BENCH / "layers.py") if DOTTED.match(s)} - set(layers.PER_LAYER)
    assert "linsolve.solve_block_lower" in names  # the scan sees the names it should
    for name in sorted(names):
        assert not any(part.startswith("_") for part in name.split(".")), name
        obj = _resolve(name)
        assert inspect.isfunction(obj) or inspect.ismethod(obj), f"{name} is not a function or method"


def test_tracer_installs_and_uninstalls(bench_modules):
    _, spans = bench_modules
    before = splitstep.blockops.BlockOperator.__dict__["apply"]
    tracer = spans.Tracer()
    with tracer.installed(splitstep):
        assert splitstep.blockops.BlockOperator.__dict__["apply"] is not before
    assert splitstep.blockops.BlockOperator.__dict__["apply"] is before
    assert tracer.spans == []


def test_workload_attributes_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        # the outermost attribute chain rooted at one of the package modules
        if isinstance(node, ast.Attribute):
            parts = []
            inner = node
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in MODULES:
                used.add(".".join([inner.id, *reversed(parts)]))
    assert "schemes.run" in used
    for name in sorted(used):
        _resolve(name)
