"""In-memory span tracer for the splitstep benchmark.

The tracer wraps the public functions of each splitstep module, and a few
public methods, in every namespace where a caller looks the name up, so one
span is recorded around each such call. Nothing under ``src/`` is edited:
``install`` swaps the wrappers in and ``uninstall`` puts the originals back,
so untraced passes run the unmodified code.

A span carries a name, its layer (the module that defines the function),
start and end times, its parent span and the top-level operation (root) it
belongs to. Spans stay in memory until ``totals`` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("problems", "blockops", "linsolve", "schemes", "verify", "cli")
BENCH_LAYER = "bench"

# Public methods that are called across module boundaries. Module-level
# public functions are found by inspection; methods are listed by hand.
METHODS = {
    "blockops": {"BlockOperator": ("apply", "to_dense", "to_sparse")},
    "linsolve": {"DiagFactorization": ("from_operator",), "SpdFactor": ("solve",)},
    "verify": {
        "EstimateObserver": ("initial", "transition"),
        "EnergyObserver": ("initial", "transition"),
    },
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    root: int
    thread: int
    end: float = 0.0


class Tracer:
    """Records spans from wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, top_level: bool = False):
        """Push a new span; returns None for a call made outside any operation."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a worker thread started by a wrapped call on the main thread
            # (the stability sweep): its spans belong to that call
            parent = self._main_stack[-1]
        elif top_level:
            parent = None
        else:
            # output checks run between operations and are not traced
            return None
        sid = next(self._ids)
        span = Span(
            sid,
            name,
            layer,
            time.perf_counter(),
            parent.id if parent else None,
            parent.root if parent else sid,
            threading.get_ident(),
        )
        stack.append(span)
        return stack, span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def op(self, name: str):
        """Top-level operation issued by the benchmark itself."""
        if self._stack():
            raise RuntimeError(f"operation {name!r} opened inside another span")
        stack, span = self._open(name, BENCH_LAYER, top_level=True)
        try:
            yield span
        finally:
            self._close(stack, span)

    def wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = tracer._open(name, layer)
            if opened is None:
                return fn(*args, **kwargs)
            stack, span = opened
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack, span)

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every splitstep namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(obj, f"{layer}.{attr}", layer)
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, ns_attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(raw.__func__, name, layer))
                    else:
                        wrapped = self.wrap(raw, name, layer)
                    self._patch(cls, meth, wrapped)
        # cli.main dispatches through a table built at import time
        commands = modules["cli"]._COMMANDS
        for key, fn in list(commands.items()):
            self._patch_item(commands, key, getattr(modules["cli"], fn.__name__))

    def _patch(self, owner, attr: str, value) -> None:
        # classes keep the raw descriptor so classmethods restore as such
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_item(self, table: dict, key, value) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Reduction of spans to self times and per-name totals.
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Totals:
    """Per-name and per-layer sums over a set of spans, scaled by ``weight``."""

    incl: dict[str, float] = field(default_factory=dict)
    self_: dict[str, float] = field(default_factory=dict)
    calls: dict[str, float] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    layer_outer: dict[str, float] = field(default_factory=dict)

    def add(self, other: "Totals", weight: float) -> None:
        for mine, theirs in (
            (self.incl, other.incl),
            (self.self_, other.self_),
            (self.calls, other.calls),
            (self.layer_self, other.layer_self),
            (self.layer_outer, other.layer_outer),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0.0) + weight * value


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it that the span's children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans}


def totals(spans: list[Span]) -> Totals:
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = Totals()
    for span in spans:
        dur = span.end - span.start
        out.incl[span.name] = out.incl.get(span.name, 0.0) + dur
        out.self_[span.name] = out.self_.get(span.name, 0.0) + selfs[span.id]
        out.calls[span.name] = out.calls.get(span.name, 0.0) + 1
        out.layer_self[span.layer] = out.layer_self.get(span.layer, 0.0) + selfs[span.id]
        parent = by_id.get(span.parent)
        if parent is None or parent.layer != span.layer:
            out.layer_outer[span.layer] = out.layer_outer.get(span.layer, 0.0) + dur
    return out


def check_nesting(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: missing parents, children outside parents,
    negative self time, or a root id that differs from the parent's."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    problems = []
    for span in spans:
        self_time = selfs[span.id]
        if span.end < span.start:
            problems.append(f"{span.name}: ends before it starts")
        if self_time < -tol:
            problems.append(f"{span.name}: negative self time {self_time:.3e}")
        if span.parent is None:
            if span.root != span.id:
                problems.append(f"{span.name}: top-level span with foreign root")
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"{span.name}: parent {span.parent} missing")
            continue
        if span.root != parent.root:
            problems.append(f"{span.name}: root {span.root} != parent's {parent.root}")
        if span.start < parent.start - tol or span.end > parent.end + tol:
            problems.append(f"{span.name}: outside its parent {parent.name}")
    return problems
