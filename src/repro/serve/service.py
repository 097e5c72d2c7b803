"""The asyncio coalescing/allocation service (`repro serve`).

One resident process turns the batch-oriented engine into a query
surface: requests arrive as JSON over HTTP/1.1
(:mod:`repro.serve.http`), pass **cache-aware admission**, are
**micro-batched** with homogeneous peers, and execute on a
**persistent worker pool** (:class:`repro.engine.pool.PersistentPool`)
that amortizes process spawn and import cost across the service's
lifetime.

Request lifecycle (``POST /v1/task``):

1. parse + validate into a :class:`repro.serve.protocol.TaskRequest`
   (400 on schema violations);
2. **cache probe** — the task's content address
   (:func:`repro.engine.tasks.task_hash`) is looked up in the tiered
   result store (:class:`~repro.engine.cache.TieredCache`): the
   in-memory LRU tier answers synchronously on the event loop, a file
   hit pays one thread hop and is promoted into memory; a reusable
   record answers immediately (``serve.cache_hit``), optionally
   upgraded with a verification certificate when the request asks for
   one the record lacks; ``cache: "bypass"/"refresh"`` opt out;
3. **admission** — bounded per-class queues reject overload with 429
   and drain with 503 (:mod:`repro.serve.admission`);
4. **micro-batch** — the request joins its homogeneity batch
   (:mod:`repro.serve.batcher`) and the batch executes as one pool
   dispatch, each task under its remaining request deadline;
5. the record is written back to the cache (``ok`` always;
   ``budget_exceeded`` only when no request deadline tightened the
   task's own budget, so a deadline can never poison the cache for
   deadline-free callers) and the response carries the record plus
   serving metadata (cache disposition, batch size, queue time).

Operational endpoints: ``GET /healthz`` (200, or 503 while draining),
``GET /metrics`` (Prometheus text,
:func:`repro.obs.export.to_prometheus`), ``POST /drain`` (stop
admitting, flush batches, finish in-flight work, then report drained —
the CLI exits at that point).  Failure semantics and tuning knobs are
documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..engine.cache import MemoryCache, ResultCache, TieredCache
from ..engine.pool import PersistentPool
from ..obs import Tracer
from .admission import AdmissionController, ClassLimit
from .batcher import MicroBatcher
from .http import DEFAULT_MAX_BODY, HttpServer, Request, json_response
from .protocol import HEAVY, LIGHT, TaskRequest, batch_key, parse_task_request

__all__ = ["ServeConfig", "Service", "REUSABLE_STATUSES"]

#: Record statuses a cache probe may answer with (deterministic
#: outcomes, matching :data:`repro.engine.campaign.REUSABLE_STATUSES`).
REUSABLE_STATUSES = frozenset({"ok", "budget_exceeded"})

#: HTTP status for each record status (the record itself is always in
#: the body; budget_exceeded is a *result*, not a failure).
_RECORD_HTTP_STATUS = {
    "ok": 200,
    "budget_exceeded": 200,
    "timeout": 504,
    "crashed": 500,
    "error": 500,
}


@dataclass
class ServeConfig:
    """Tuning knobs of one service instance (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    cache_dir: Optional[str] = None
    verify_default: bool = False
    batch_window: float = 0.005
    batch_max: int = 16
    light_queue: int = 128
    light_concurrency: int = 8
    heavy_queue: int = 16
    heavy_concurrency: int = 2
    task_timeout: Optional[float] = None
    max_body: int = DEFAULT_MAX_BODY
    #: in-memory LRU tier capacity in records; 0 disables the tier and
    #: every probe goes straight to the file cache
    mem_entries: int = 1024


class _Pending:
    """One admitted request awaiting its record."""

    __slots__ = ("request", "future", "entered_at", "batch_size")

    def __init__(self, request: TaskRequest,
                 future: "asyncio.Future[Dict[str, Any]]") -> None:
        self.request = request
        self.future = future
        self.entered_at = time.monotonic()
        self.batch_size = 1


class Service(HttpServer):
    """The serving stack: admission → batcher → pool → cache → response."""

    request_counter = "serve.http_requests"
    error_counter = "serve.errors"

    def __init__(
        self,
        config: ServeConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            {
                ("POST", "/v1/task"): self._handle_task,
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
                ("POST", "/drain"): self._handle_drain,
            },
            config.host, config.port, config.max_body, tracer,
        )
        self.config = config
        # Two-tier result store: a synchronous in-memory LRU answers
        # repeats without leaving the event loop; the file tier backs
        # it and survives restarts.  ``mem_entries == 0`` falls back to
        # the bare file cache (both expose get/put, so the hot path is
        # agnostic).
        self.cache: Any = None
        if config.cache_dir:
            file_cache = ResultCache(config.cache_dir)
            if config.mem_entries > 0:
                self.cache = TieredCache(
                    file_cache,
                    MemoryCache(config.mem_entries, tracer=self.tracer),
                    tracer=self.tracer,
                )
            else:
                self.cache = file_cache
        self.pool = PersistentPool(
            workers=config.workers, tracer=self.tracer
        )
        self.admission = AdmissionController(
            {
                LIGHT: ClassLimit(config.light_queue,
                                  config.light_concurrency),
                HEAVY: ClassLimit(config.heavy_queue,
                                  config.heavy_concurrency),
            },
            tracer=self.tracer,
        )
        self.batcher = MicroBatcher(
            self._run_batch,
            window=config.batch_window,
            max_batch=config.batch_max,
        )

    async def on_close(self) -> None:
        """Finish in-flight batches, then shut the worker pool down."""
        await self.batcher.join()
        await asyncio.to_thread(self.pool.close)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> bytes:
        """``GET /healthz`` — liveness + readiness in one document."""
        draining = self.admission.draining
        payload = {
            "status": "draining" if draining else "ok",
            "uptime_seconds": round(self.uptime(), 3),
            "in_system": self.admission.in_system(),
            "pool_workers": self.config.workers,
            "cache": self._cache_health(),
        }
        return json_response(503 if draining else 200, payload,
                             keep_alive=request.keep_alive)

    def _cache_health(self) -> Dict[str, Any]:
        """The cache-tier block of the healthz document."""
        if self.cache is None:
            return {"enabled": False}
        if isinstance(self.cache, TieredCache):
            return {
                "enabled": True,
                "tiers": ["memory", "file"],
                "memory_entries": len(self.cache.memory),
                "memory_capacity": self.cache.memory.capacity,
            }
        return {"enabled": True, "tiers": ["file"]}

    async def _handle_metrics(self, request: Request) -> bytes:
        """``GET /metrics`` — counters/spans/gauges as Prometheus text."""
        gauges = self.admission.gauges()
        if isinstance(self.cache, TieredCache):
            gauges["serve_cache_memory_entries"] = float(
                len(self.cache.memory)
            )
            gauges["serve_cache_memory_capacity"] = float(
                self.cache.memory.capacity
            )
        gauges["serve_pool_workers"] = float(self.config.workers)
        gauges["serve_batch_pending"] = float(self.batcher.pending())
        gauges["serve_uptime_seconds"] = self.uptime()
        return self.metrics_response(gauges, request.keep_alive)

    async def _handle_drain(self, request: Request) -> bytes:
        """``POST /drain`` — stop admitting, finish in-flight, report."""
        already = self.admission.draining
        self.admission.start_drain()
        self.batcher.flush_all()
        await self.admission.wait_drained()
        await self.batcher.join()
        payload = {
            "drained": True,
            "already_draining": already,
            "in_system": self.admission.in_system(),
        }
        self.mark_drained()
        return json_response(200, payload, keep_alive=request.keep_alive)

    async def _handle_task(self, request: Request) -> bytes:
        """``POST /v1/task`` — the serving hot path."""
        task_request = parse_task_request(request.json())
        if self.config.verify_default:
            task_request.verify = True
        keep = request.keep_alive
        self.tracer.count("serve.requests")

        # drain refuses *all* new work — even cache hits — so a
        # draining replica empties deterministically
        if self.admission.draining:
            self.tracer.count("serve.rejected_503")
            return json_response(
                503, {"error": "draining: not accepting new work"},
                keep_alive=keep,
            )

        cached = await self._cache_probe(task_request)
        if cached is not None:
            self.tracer.count("serve.cache_hit")
            return self._record_response(
                cached, served={"cache": "hit", "batch_size": 0,
                                "queue_seconds": 0.0,
                                "class": task_request.admission_class},
                keep_alive=keep,
            )
        if self.cache is not None and task_request.cache_mode == "use":
            self.tracer.count("serve.cache_miss")

        cls = task_request.admission_class
        rejection = self.admission.try_enter(cls)
        if rejection is not None:
            status, reason = rejection
            return json_response(
                status, {"error": reason, "class": cls}, keep_alive=keep
            )
        pending = _Pending(
            task_request, asyncio.get_running_loop().create_future()
        )
        try:
            self.batcher.submit(
                batch_key(task_request.spec, task_request.verify), pending
            )
            record = await pending.future
        finally:
            self.admission.leave(cls)
        queue_seconds = time.monotonic() - pending.entered_at
        return self._record_response(
            record,
            served={
                "cache": task_request.cache_mode
                if task_request.cache_mode != "use" else "miss",
                "batch_size": pending.batch_size,
                "queue_seconds": round(queue_seconds, 6),
                "class": cls,
            },
            keep_alive=keep,
        )

    # ------------------------------------------------------------------
    # cache + dispatch
    # ------------------------------------------------------------------
    async def _cache_probe(
        self, task_request: TaskRequest
    ) -> Optional[Dict[str, Any]]:
        """A reusable cached record for the request, or None.

        A hit that lacks the verification the request asks for is
        upgraded in place (the record is certified off-loop and written
        back), mirroring the campaign engine's cache-hit verification
        upgrade.
        """
        if self.cache is None or task_request.cache_mode != "use":
            return None
        record: Optional[Dict[str, Any]] = None
        if isinstance(self.cache, TieredCache):
            # the memory tier is a dict lookup — probe it on the event
            # loop; only a miss pays the thread hop to the file tier
            record = self.cache.get_memory(task_request.key)
            if record is None:
                record = await asyncio.to_thread(
                    self.cache.get_file, task_request.key
                )
        else:
            record = await asyncio.to_thread(
                self.cache.get, task_request.key
            )
        if record is None or record.get("status") not in REUSABLE_STATUSES:
            return None
        if task_request.verify and "verification" not in record:
            from ..analysis.engine_check import verify_record

            record["verification"] = await asyncio.to_thread(
                verify_record, task_request.spec, record,
                None, self.tracer,
            )
            self.tracer.count("serve.verify_upgrades")
            await asyncio.to_thread(
                self.cache.put, task_request.key, record
            )
        return record

    def _cache_write(
        self, task_request: TaskRequest, record: Dict[str, Any]
    ) -> None:
        """Write a fresh record back, unless a request deadline could
        have shaped the outcome (see the module docstring)."""
        if self.cache is None or task_request.cache_mode == "bypass":
            return
        status = record.get("status")
        cacheable = status == "ok" or (
            status == "budget_exceeded" and task_request.deadline is None
        )
        if cacheable:
            self.cache.put(task_request.key, record)

    async def _run_batch(self, items: List[_Pending]) -> None:
        """Execute one homogeneous batch as a single pool dispatch."""
        cls = items[0].request.admission_class
        verify = items[0].request.verify
        now = time.monotonic()
        specs = [item.request.spec for item in items]
        deadlines: List[Optional[float]] = []
        for item in items:
            if item.request.deadline is None:
                deadlines.append(None)
            else:
                deadlines.append(
                    item.request.deadline - (now - item.entered_at)
                )
        timeout = (
            None if self.config.task_timeout is None
            else self.config.task_timeout * len(items)
        )
        self.tracer.count("serve.batches")
        self.tracer.count("serve.batched_tasks", len(items))
        if len(items) > 1:
            self.tracer.count("serve.batch_coalesced", len(items) - 1)
        try:
            async with self.admission.slot(cls):
                with self.tracer.span("serve/dispatch"):
                    records = await asyncio.to_thread(
                        self.pool.submit, specs, deadlines, verify, timeout
                    )
        except Exception as exc:
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        for item, record in zip(items, records):
            item.batch_size = len(items)
            if record.get("trace"):
                self.tracer.absorb(record["trace"])
            try:
                self._cache_write(item.request, record)
            except OSError:
                self.tracer.count("serve.cache_write_errors")
            if not item.future.done():
                item.future.set_result(record)

    def _record_response(
        self,
        record: Dict[str, Any],
        served: Dict[str, Any],
        keep_alive: bool,
    ) -> bytes:
        """Wrap a task record and its serving metadata as a response."""
        status = _RECORD_HTTP_STATUS.get(record.get("status", "error"), 500)
        slim = dict(record)
        slim.pop("trace", None)  # per-task traces are large; /metrics
        # carries the aggregated view
        return json_response(
            status, {"record": slim, "served": served},
            keep_alive=keep_alive,
        )
