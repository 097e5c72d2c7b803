"""Outside-in layer timing for traced runs of the program under test.

``install()`` puts an import hook in front of the normal path finder.
When one of the modules in ``_PATCHES`` is first imported — by the
program itself, at the moment it would import it anyway — the hook
replaces that module's public layer functions with timing wrappers.
Nothing is imported early, so a traced process pays the same lazy
imports as an untraced one, and ``src`` is not modified.

Each wrapper records a span: its wall time, and its *self* time (wall
minus the wall of wrapped calls nested inside it).  Self times of all
layers add up to the wall of the outermost span, so the per-layer
figures partition ``engine.task`` without double counting when, say,
verification re-parses the function.  Spans live in memory; each
process appends them as JSON lines to ``$PERFBENCH_TRACE_DIR/<pid>.jsonl``
after every task it runs and when it exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Optional, Union


class Collector:
    """Per-process span totals; thread-safe, reset in forked children."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self.reset()

    def reset(self) -> None:
        """Forget everything collected (a forked child starts empty)."""
        self.lock = threading.Lock()
        self.local = threading.local()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def stack(self) -> list:
        """The calling thread's stack of child-time accumulators."""
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def span(self, layer: str, wall: float, self_time: float) -> None:
        """Record one finished span."""
        with self.lock:
            self.self_s[layer] += self_time
            self.wall_s[layer] += wall
            self.calls[layer] += 1

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        with self.lock:
            self.counts[name] += value

    def flush(self) -> None:
        """Append what was collected to this process's file; reset."""
        with self.lock:
            if not self.calls and not self.counts:
                return
            line = json.dumps({"pid": os.getpid(),
                               "self_s": dict(self.self_s),
                               "wall_s": dict(self.wall_s),
                               "calls": dict(self.calls),
                               "counts": dict(self.counts)})
            self.self_s.clear()
            self.wall_s.clear()
            self.calls.clear()
            self.counts.clear()
        path = os.path.join(self.trace_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as stream:
            stream.write(line + "\n")


COLLECTOR: Optional[Collector] = None

Layer = Union[str, Callable[..., str]]


def timed(layer: Layer, fn: Callable, after: Optional[Callable] = None,
          flush: bool = False) -> Callable:
    """Wrap ``fn`` in a span of ``layer``.

    ``layer`` may be a callable computing the name from the call's
    arguments.  ``after(result, args, kwargs)`` runs outside the span
    to record counts.  With ``flush``, the outermost call writes the
    process's spans out once it returns.
    """
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = COLLECTOR.stack()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += wall
            name = layer if isinstance(layer, str) else layer(*args, **kwargs)
            COLLECTOR.span(name, wall, wall - child)
        if after is not None:
            after(result, args, kwargs)
        if flush and not stack:
            COLLECTOR.flush()
        return result

    return wrapper


# ----------------------------------------------------------------------
# counts taken from layer results
# ----------------------------------------------------------------------
def _count_instrs(functions: Any, args: tuple, kwargs: dict) -> None:
    COLLECTOR.count("frontend.instrs", sum(
        len(block.instrs) + len(block.phis)
        for func in functions for block in func.blocks.values()))


def _count_graph(graph: Any, args: tuple, kwargs: dict) -> None:
    COLLECTOR.count("ir.graphs")
    COLLECTOR.count("ir.graph_vertices", len(graph))
    COLLECTOR.count("ir.graph_edges", graph.num_edges())
    COLLECTOR.count("ir.graph_affinities", graph.num_affinities())


def _strategy_layer(*args: Any, **kwargs: Any) -> str:
    strategy = args[2] if len(args) > 2 else kwargs["strategy"]
    return f"coalescing.strategy.{strategy}"


def _count_record(record: Any, args: tuple, kwargs: dict) -> None:
    counters = (record.get("trace") or {}).get("counters", {})
    for name in ("kernel.edges_scanned", "kernel.words_merged"):
        COLLECTOR.count(name, counters.get(name, 0))


def _count_memory_probe(record: Any, args: tuple, kwargs: dict) -> None:
    COLLECTOR.count("engine.cache_memory_probes")
    if record is not None:
        COLLECTOR.count("engine.cache_memory_hits")


def _count_submit(records: Any, args: tuple, kwargs: dict) -> None:
    COLLECTOR.count("engine.persistent_tasks", len(records))


def _timed_run_tasks(fn: Callable) -> Callable:
    """``run_tasks`` with its ``on_record`` callbacks timed separately,
    so the pool's own share of the campaign wall can be isolated."""
    @functools.wraps(fn)
    def wrapper(specs: Any, *args: Any, **kwargs: Any) -> Any:
        on_record = kwargs.get("on_record")
        if on_record is not None:
            kwargs["on_record"] = timed("engine.on_record", on_record)
        t0 = time.perf_counter()
        records = fn(specs, *args, **kwargs)
        COLLECTOR.count("engine.pool_wall_s", time.perf_counter() - t0)
        COLLECTOR.count("engine.pool_tasks", len(records))
        return records

    return wrapper


def _patch_functions(module: Any, layer: Layer, *names: str, **kw: Any) -> None:
    for name in names:
        setattr(module, name, timed(layer, getattr(module, name), **kw))


def _patch_methods(cls: Any, layer: Layer, *names: str, **kw: Any) -> None:
    for name in names:
        setattr(cls, name, timed(layer, getattr(cls, name), **kw))


def _patch_tasks(m: Any) -> None:
    m.execute_strategy = timed(_strategy_layer, m.execute_strategy)
    _patch_functions(m, "engine.record", "task_hash", "_coalesce_payload",
                     "_allocation_payload", "_result_hash")
    m.run_task = timed("engine.task", m.run_task, after=_count_record,
                       flush=True)


def _patch_cache(m: Any) -> None:
    _patch_methods(m.ResultCache, "engine.cache_get", "get")
    _patch_methods(m.ResultCache, "engine.cache_put", "put")
    _patch_methods(m.TieredCache, "engine.cache_get", "get_file")
    _patch_methods(m.TieredCache, "engine.cache_get", "get_memory",
                   after=_count_memory_probe)
    _patch_methods(m.TieredCache, "engine.cache_put", "put")


def _patch_pool(m: Any) -> None:
    m.PersistentPool.submit = timed("engine.persistent_submit",
                                    m.PersistentPool.submit,
                                    after=_count_submit)
    m.run_tasks = _timed_run_tasks(m.run_tasks)


#: Module name -> function that wraps its layer entry points.
_PATCHES: Dict[str, Callable[[Any], None]] = {
    "repro.challenge.generator": lambda m: _patch_functions(
        m, "challenge.generate", "pressure_instance", "program_instance"),
    "repro.frontend.parser": lambda m: _patch_functions(
        m, "frontend.parse", "parse_module"),
    "repro.frontend.corpus": lambda m: _patch_functions(
        m, "frontend.parse", "parse_path"),
    "repro.frontend.lower": lambda m: _patch_functions(
        m, "frontend.lower", "lower_module", after=_count_instrs),
    "repro.ir.liveness": lambda m: _patch_functions(
        m, "ir.liveness", "liveness_masks", "compute_liveness", "maxlive"),
    "repro.ir.interference": lambda m: (
        _patch_functions(m, "ir.interference", "chaitin_interference",
                         after=_count_graph),
        _patch_functions(m, "ir.interference", "set_frequencies_from_loops")),
    "repro.engine.tasks": _patch_tasks,
    "repro.intervals.linear_scan": lambda m: _patch_functions(
        m, "intervals.scan", "linear_scan_allocate"),
    "repro.analysis.engine_check": lambda m: _patch_functions(
        m, "analysis.verify", "verify_record"),
    "repro.engine.cache": _patch_cache,
    "repro.obs.tracer": lambda m: (
        _patch_methods(m.Tracer, "obs.report", "report"),
        _patch_methods(m.Tracer, "obs.absorb", "absorb")),
    "repro.engine.pool": _patch_pool,
}


class _TimedLoader(importlib.abc.Loader):
    """A module loader whose work is an ``engine.import`` span, followed
    by the module's layer patch, if it has one."""

    def __init__(self, loader: Any, patch: Optional[Callable[[Any], None]]):
        self.loader = loader
        self.patch = patch

    def create_module(self, spec: Any) -> Any:
        return timed("engine.import", self.loader.create_module)(spec)

    def exec_module(self, module: Any) -> None:
        timed("engine.import", self.loader.exec_module)(module)
        if self.patch is not None:
            self.patch(module)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.loader, name)


class _TimedFinder(importlib.abc.MetaPathFinder):
    """Finds modules as the path finder does, with timed loaders.

    Lazy imports inside a task (the first corpus task of a fresh worker
    imports the frontend, the analysis passes, ...) then show as their
    own layer instead of inflating whichever layer happened to import.
    """

    def find_spec(self, name: str, path: Any, target: Any = None) -> Any:
        spec = timed("engine.import", importlib.machinery.PathFinder.find_spec)(
            name, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, _PATCHES.get(name))
        return spec


def install(trace_dir: str) -> None:
    """Start collecting: hook the imports, flush at exit, reset on fork."""
    global COLLECTOR
    COLLECTOR = Collector(trace_dir)
    sys.meta_path.insert(0, _TimedFinder())
    atexit.register(COLLECTOR.flush)
    os.register_at_fork(after_in_child=COLLECTOR.reset)
