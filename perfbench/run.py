"""The repository benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``campaign-corpus``
    the 216 tasks of the two committed campaign specs, in seeded order,
    through ``python -m repro campaign run --workers 1 --verify`` into a
    fresh cache — the batch user;
``serve-light``
    ``python -m repro serve --workers 1`` driven by two closed-loop
    keep-alive clients sending ``pressure``/``briggs`` tasks, about 30%
    of them repeats of an earlier key;
``serve-corpus-verified``
    the same service driven by one closed-loop client sending every
    corpus function under nine strategies, verified and bypassing the
    cache, in seeded rounds.

With ``--trace 0`` the run measures the end-to-end metrics on fresh,
untraced processes.  With ``--trace 1`` it runs the workload once
untraced and once through ``boot.py``, which times each layer's public
functions from outside ``src`` (see ``layers.py``), and reports the
per-layer metrics.  Every run checks its outputs against an in-process
replay of the same specs (``run_tasks(workers=0)``) and prints one JSON
result as the last line of standard output.

Processes under test run on one core, pinned, and the benchmark on the
others.  Every end-to-end timing is scaled to a reference host speed
measured on that core by ``probe.py`` (see ``sut.HostSpeed``), and wall
times lose the share the hypervisor stole from it; the unscaled
figures are kept in the notes.  Metadata about host noise goes to the
line before the result and, with the metrics, to
``perfbench/.work/runs.jsonl`` for ``steadiness.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import loadgen  # noqa: E402
import sut  # noqa: E402
import workloads  # noqa: E402

#: Launches per run whose set-up time is measured (the last one is timed).
SETUP_LAUNCHES = 5
#: Tasks per segment of a timed campaign (six segments per campaign).
CAMPAIGN_SEGMENT = 36
#: Time segments of a serve-light phase (throughput and CPU per task
#: are medians over them; serve-corpus-verified segments are rounds).
SEGMENTS = 10
#: Longest a single process under test may take before the run fails.
PROCESS_TIMEOUT = 170.0


class OutputMismatch(Exception):
    """The program produced an incorrect output."""


@dataclass
class Context:
    """Everything a workload needs to run once."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    speed: sut.HostSpeed
    trace_dir: Path = field(init=False)
    #: trace lines written before the traced phase began (warm-up)
    trace_marks: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.trace_dir = self.work / "trace"
        self.trace_dir.mkdir(parents=True, exist_ok=True)


@dataclass
class Result:
    """The outcome of one workload run."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# small statistics
# ----------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def large_latency(pairs: List[Tuple[str, float]]) -> float:
    """Geometric mean over groups of each group's median latency.

    On the corpus workloads a group is one strategy on the largest
    function.  A median over all of that function's tasks would fall
    between strategies whose costs differ by 10x, and move from one to
    the next with a few samples; per-strategy medians do not.
    """
    if not pairs:
        raise RuntimeError("no large-input samples")
    groups: Dict[str, List[float]] = {}
    for group, ms in pairs:
        groups.setdefault(group, []).append(ms)
    return math.exp(statistics.mean(math.log(statistics.median(v))
                                    for v in groups.values()))


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no whole."""
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# the independent executor
# ----------------------------------------------------------------------
def replay(specs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Run each distinct spec in this process; records by task key."""
    from repro.engine.pool import run_tasks
    from repro.engine.tasks import TaskSpec, task_hash

    distinct: Dict[str, Any] = {}
    for spec in specs:
        task = TaskSpec.from_dict(spec)
        distinct.setdefault(task_hash(task), task)
    records = run_tasks(list(distinct.values()), workers=0)
    out = {}
    for key, record in zip(distinct, records):
        if record.get("status") != "ok":
            raise OutputMismatch(f"replay of {key} ended {record.get('status')}")
        out[key] = record
    return out


def task_key(spec: Dict[str, Any]) -> str:
    """The content address of a spec dict."""
    from repro.engine.tasks import TaskSpec, task_hash

    return task_hash(TaskSpec.from_dict(spec))


def check_record(record: Dict[str, Any], spec: Dict[str, Any], key: str,
                 expected: Dict[str, Any], verified: bool) -> None:
    """Raise :class:`OutputMismatch` unless ``record`` is ``spec``'s
    correct, certified (when asked) outcome."""
    if record.get("key") != key or record.get("task") != spec:
        raise OutputMismatch(f"record {record.get('key')} answers a "
                             f"different task than {key}")
    if record.get("status") != "ok":
        raise OutputMismatch(f"task {key} ended {record.get('status')}: "
                             f"{str(record.get('error'))[:200]}")
    if record.get("result_hash") != expected["result_hash"]:
        raise OutputMismatch(f"task {key}: result_hash "
                             f"{record.get('result_hash')} != replay "
                             f"{expected['result_hash']}")
    if verified:
        status = (record.get("verification") or {}).get("status")
        if status != "certified":
            raise OutputMismatch(f"task {key} verification is {status}")


def quality(payloads: List[Dict[str, Any]]) -> Tuple[float, int]:
    """Summed residual move weight and spilled variables of payloads."""
    residual = sum(p.get("residual_weight", 0.0) for p in payloads)
    spilled = sum(len(p.get("spilled", ())) for p in payloads)
    return residual, spilled


def layer_records(payloads: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer figures read from task payloads (one per task)."""
    allocs = [p for p in payloads if "spilled" in p]
    moves = sum(p.get("coalesced", p.get("coalesced_moves", 0))
                for p in payloads)
    return {
        "coalescing.coalesced_moves": share(moves, len(payloads)),
        "allocator.rounds": share(sum(p["rounds"] for p in allocs),
                                  len(allocs)),
        "allocator.spilled_vars": share(sum(len(p["spilled"]) for p in allocs),
                                        len(allocs)),
    }


# ----------------------------------------------------------------------
# layer traces
# ----------------------------------------------------------------------
@dataclass
class Totals:
    """Summed span data of a set of trace lines."""

    self_s: Dict[str, float] = field(default_factory=dict)
    wall_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, line: Dict[str, Any]) -> None:
        for name in ("self_s", "wall_s", "calls", "counts"):
            mine = getattr(self, name)
            for key, value in line[name].items():
                mine[key] = mine.get(key, 0) + value


def trace_marks(trace_dir: Path) -> Dict[str, int]:
    """How many lines each trace file holds now."""
    return {p.name: len(sut.read_json_lines(p))
            for p in trace_dir.glob("*.jsonl")}


def read_traces(trace_dir: Path,
                skip: Optional[Dict[str, int]] = None) -> Tuple[Totals, Totals]:
    """Trace lines written since ``skip``: (inside tasks, outside tasks)."""
    inside, outside = Totals(), Totals()
    for path in trace_dir.glob("*.jsonl"):
        lines = sut.read_json_lines(path)[(skip or {}).get(path.name, 0):]
        for line in lines:
            (inside if "engine.task" in line["calls"] else outside).add(line)
    return inside, outside


STRATEGY_LAYERS = ("briggs", "george", "brute", "optimistic", "aggressive",
                   "interval", "irc")


def traced_layers(inside: Totals, outside: Totals) -> Dict[str, float]:
    """Per-layer metrics from the spans of a traced run."""
    tasks = inside.calls.get("engine.task", 0)
    task_wall = inside.wall_s.get("engine.task", 0.0)

    def per_task_ms(layer: str) -> float:
        return share(inside.self_s.get(layer, 0.0), tasks) * 1e3

    def per_call_ms(totals: Totals, layer: str) -> float:
        return share(totals.self_s.get(layer, 0.0),
                     totals.calls.get(layer, 0)) * 1e3

    strategy_s = sum(v for k, v in inside.self_s.items()
                     if k.startswith("coalescing.strategy."))
    graphs = inside.counts.get("ir.graphs", 0)
    both = Totals()
    both.add(vars(inside))
    both.add(vars(outside))
    metrics = {
        "frontend.parse_ms": per_task_ms("frontend.parse"),
        "frontend.lower_ms": per_task_ms("frontend.lower"),
        "frontend.instrs": share(inside.counts.get("frontend.instrs", 0), tasks),
        "ir.liveness_ms": per_task_ms("ir.liveness"),
        "ir.interference_ms": per_task_ms("ir.interference"),
        "ir.graph_vertices": share(inside.counts.get("ir.graph_vertices", 0), graphs),
        "ir.graph_edges": share(inside.counts.get("ir.graph_edges", 0), graphs),
        "ir.graph_affinities": share(inside.counts.get("ir.graph_affinities", 0),
                                     graphs),
        "coalescing.strategy_ms": share(strategy_s, tasks) * 1e3,
        "graphs.edges_scanned": share(inside.counts.get("kernel.edges_scanned", 0),
                                      tasks),
        "graphs.words_merged": share(inside.counts.get("kernel.words_merged", 0),
                                     tasks),
        "intervals.scan_ms": per_task_ms("intervals.scan"),
        "analysis.verify_ms": per_task_ms("analysis.verify"),
        "analysis.verify_share": share(inside.self_s.get("analysis.verify", 0.0),
                                       task_wall),
        "challenge.generate_ms": per_task_ms("challenge.generate"),
        "engine.import_ms": per_task_ms("engine.import"),
        "engine.record_ms": per_task_ms("engine.record"),
        "obs.report_ms": per_task_ms("obs.report"),
        "engine.task_ms": share(task_wall, tasks) * 1e3,
        "engine.attributed_share": 1.0 - share(
            inside.self_s.get("engine.task", 0.0), task_wall),
        "engine.cache_get_ms": per_call_ms(both, "engine.cache_get"),
        "engine.cache_put_ms": per_call_ms(both, "engine.cache_put"),
        "engine.cache_memory_hit_share": share(
            both.counts.get("engine.cache_memory_hits", 0),
            both.counts.get("engine.cache_memory_probes", 0)),
        "engine.pool_overhead_ms": 0.0,
        "engine.persistent_transit_ms": 0.0,
    }
    for strategy in STRATEGY_LAYERS:
        metrics[f"coalescing.strategy_ms.{strategy}"] = per_call_ms(
            inside, f"coalescing.strategy.{strategy}")
    pool_tasks = outside.counts.get("engine.pool_tasks", 0)
    if pool_tasks:
        pool_s = (outside.counts["engine.pool_wall_s"]
                  - outside.wall_s.get("engine.on_record", 0.0))
        metrics["engine.pool_overhead_ms"] = (
            share(pool_s, pool_tasks) * 1e3 - metrics["engine.task_ms"])
    submitted = outside.counts.get("engine.persistent_tasks", 0)
    if submitted:
        submit_s = outside.wall_s.get("engine.persistent_submit", 0.0)
        metrics["engine.persistent_transit_ms"] = (
            share(submit_s - task_wall, submitted) * 1e3)
    return metrics


# ----------------------------------------------------------------------
# campaign-corpus
# ----------------------------------------------------------------------
@dataclass
class CampaignRun:
    """One ``campaign run`` process and what it left behind."""

    tasks: List[Dict[str, Any]]
    keys: List[str]
    records: List[Dict[str, Any]]
    mtimes: List[int]
    summary: Dict[str, Any]
    #: wall-clock launch and exit
    started: float
    ended: float
    rss_mb: float
    sampler: sut.Sampler

    @property
    def wall(self) -> float:
        return self.ended - self.started

    def intervals_ms(self) -> List[Tuple[Dict[str, Any], float, float]]:
        """Per-task latency: the gap between consecutive cache writes,
        as ``(spec, start, ms)``.

        With one worker, tasks settle in order and each record is
        written as it settles, so the gap before a record's write is
        that task's fork, run, verification, transfer and write.  The
        first record also carries the process launch and is left out.
        """
        return [(self.tasks[i], self.mtimes[i - 1] / 1e9,
                 (self.mtimes[i] - self.mtimes[i - 1]) / 1e6)
                for i in range(1, len(self.tasks))]

    def segments(self, speed: sut.HostSpeed) -> List[Segment]:
        """Runs of ``CAMPAIGN_SEGMENT`` consecutive tasks (the first task
        excluded, a short remainder dropped)."""
        out = []
        gaps = self.intervals_ms()
        for a in range(1, len(self.tasks) - CAMPAIGN_SEGMENT // 2, CAMPAIGN_SEGMENT):
            b = min(a + CAMPAIGN_SEGMENT, len(self.tasks))
            start, end = self.mtimes[a - 1] / 1e9, self.mtimes[b - 1] / 1e9
            steal, cpu = self.sampler.between(start, end)
            part = gaps[a - 1:b - 1]
            out.append(Segment(
                end - start, [ms for _, _, ms in part],
                [spec["strategy"] if spec["params"].get("function")
                 == workloads.LARGE_FUNCTION else None for spec, _, _ in part],
                cpu, steal, speed.factor(start, end)))
        return out


def run_campaign(ctx: Context, name: str, tasks: List[Dict[str, Any]],
                 traced: bool = False) -> CampaignRun:
    """Run ``tasks`` through one fresh ``campaign run`` process."""
    spec_path = ctx.work / f"{name}.json"
    spec_path.write_text(json.dumps(workloads.campaign_document(name, tasks)))
    cache = ctx.work / f"{name}-cache"
    out_path = ctx.work / f"{name}.out"
    argv = sut.sut_argv(sut.campaign_args(spec_path, cache), traced)
    with open(out_path, "wb") as out, open(ctx.work / f"{name}.err", "wb") as err:
        started = time.time()
        proc = subprocess.Popen(argv, cwd=str(ctx.work), stdout=out, stderr=err,
                                env=sut.sut_env(ctx.root, ctx.trace_dir if traced
                                                else None),
                                preexec_fn=sut.sut_preexec)
        sampler = sut.Sampler([proc.pid])
        try:
            code, usage = sut.wait_exit(proc, PROCESS_TIMEOUT)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        finally:
            sampler.close()
        ended = time.time()
    if code not in (0, 1):
        raise OutputMismatch(f"campaign {name} exited with code {code}")
    summary = json.loads(out_path.read_text())
    keys = [task_key(spec) for spec in tasks]
    records, mtimes = [], []
    for key in keys:
        path = cache / key[:2] / f"{key}.json"
        records.append(json.loads(path.read_text()))
        mtimes.append(path.stat().st_mtime_ns)
    return CampaignRun(tasks, keys, records, mtimes, summary, started, ended,
                       sut.rusage_rss_mb(usage), sampler)


def campaign_digest(hashes: List[str]) -> str:
    """The campaign summary's ``result_hash`` over per-task hashes."""
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()[:16]


def check_campaign(run: CampaignRun, expected: Dict[str, Dict[str, Any]]) -> int:
    """Check one campaign against the replay; return its failed tasks."""
    for spec, key, record in zip(run.tasks, run.keys, run.records):
        check_record(record, spec, key, expected[key], verified=True)
    summary = run.summary
    if summary["result_hash"] != campaign_digest(
            [expected[key]["result_hash"] for key in run.keys]):
        raise OutputMismatch("campaign result_hash differs from the replay")
    residual, _ = quality([expected[key]["payload"] for key in run.keys])
    if summary["aggregate"]["residual_weight"] != residual:
        raise OutputMismatch("campaign residual_weight differs from the replay")
    if summary["verification"]["certified"] != len(run.tasks):
        raise OutputMismatch("not every campaign record is certified")
    return len(summary["failed_tasks"])


def campaign_corpus(ctx: Context) -> Result:
    tasks = workloads.campaign_tasks(ctx.root)
    expected = replay(tasks)
    notes: Dict[str, Any] = {}
    if ctx.trace:
        plain = run_campaign(ctx, "untraced", workloads.campaign_order(tasks, ctx.seed, 0))
        traced = run_campaign(ctx, "traced", workloads.campaign_order(tasks, ctx.seed, 1),
                              traced=True)
        runs = [plain, traced]
    else:
        warmups = [run_campaign(ctx, f"warmup{i}", workloads.campaign_warmup(tasks))
                   for i in range(SETUP_LAUNCHES)]
        setups = [(w.wall, ctx.speed.factor(w.started, w.ended)) for w in warmups]
        runs = []
        t0 = time.perf_counter()
        while True:
            order = workloads.campaign_order(tasks, ctx.seed, len(runs))
            runs.append(run_campaign(ctx, f"timed{len(runs)}", order))
            elapsed = time.perf_counter() - t0
            if elapsed * (len(runs) + 1) / len(runs) > ctx.seconds:
                break
    failed = sum(check_campaign(run, expected) for run in runs)
    residuals = {run.summary["aggregate"]["residual_weight"] for run in runs}
    if len(residuals) != 1:
        raise OutputMismatch(f"residual_weight differs between campaigns: {residuals}")
    attempted = sum(len(run.tasks) for run in runs)
    payloads = [expected[key]["payload"] for key in runs[0].keys]
    residual, spilled = quality(payloads)
    certified = sum(run.summary["verification"]["certified"] for run in runs)
    if ctx.trace:
        inside, outside = read_traces(ctx.trace_dir)
        metrics = traced_layers(inside, outside)
        metrics.update(layer_records(payloads))
        metrics.update(serve_layers_absent())
        metrics["obs.trace_overhead_share"] = (
            traced.wall / ctx.speed.factor(traced.started, traced.ended)
            / (plain.wall / ctx.speed.factor(plain.started, plain.ended)) - 1.0)
        metrics["certified_share"] = share(certified, attempted)
        metrics["spilled_vars"] = spilled
        return Result(attempted, failed, metrics, notes)
    gaps = [gap for run in runs for gap in run.intervals_ms()]
    # a 36-task segment holds about one task of the large function, so
    # its latency is taken over every segment, not only the kept ones
    metrics, more = segment_metrics([seg for run in runs
                                     for seg in run.segments(ctx.speed)],
                                    large_everywhere=True)
    notes.update(more)
    notes["campaigns"] = len(runs)
    notes["latency_samples"] = len(gaps)
    notes["nonpositive_gaps"] = sum(1 for _, _, ms in gaps if ms <= 0)
    notes["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
    metrics.update({
        "setup_s": statistics.median(s / f for s, f in setups),
        # each campaign is a fresh process tree; the median of their peaks
        "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
        "success_share": share(attempted - failed, attempted),
        "residual_weight": residual,
    })
    return Result(attempted, failed, metrics, notes)


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
@dataclass
class Segments:
    """Where a timed phase is cut into segments: every ``seconds`` of
    elapsed time, or before every ``requests``-th request."""

    seconds: Optional[float] = None
    requests: Optional[int] = None


@dataclass
class Segment:
    """One stretch of a timed phase."""

    seconds: float
    latencies: List[float]
    #: the large-input group of each latency (None: not a large input)
    groups: List[Optional[str]]
    cpu_s: float
    #: share of the core under test the hypervisor stole
    steal: float
    #: host-speed factor over the segment (``sut.HostSpeed.factor``)
    factor: float


def segment_metrics(segments: List[Segment], large_everywhere: bool = False
                    ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end timings from the segments whose steal share is at most
    the median segment's: throughput and CPU per task as medians over
    those segments, latency p50 and p90 over all their requests, the
    large-input latency over theirs (or every segment's, with
    ``large_everywhere``).

    The host's hypervisor takes CPU from this machine in bursts, and
    every timing slows while it does.  Segments it took more from than
    usual are left out.  Selecting on the host's steal counter, never
    on the program's own speed, cannot hide a slowdown of the program.
    In the segments kept, wall times lose the share stolen from the
    core under test, and wall and CPU times are divided by the
    segment's host-speed factor.  The unscaled figures go to the notes
    under ``raw``.
    """
    segments = [seg for seg in segments if seg.latencies]
    cut = statistics.median(seg.steal for seg in segments)
    kept = [seg for seg in segments if seg.steal <= cut]

    def timings(scaled: bool) -> Dict[str, float]:
        def wall(seg: Segment) -> float:
            return (1.0 - seg.steal) / seg.factor if scaled else 1.0

        def cpu(seg: Segment) -> float:
            return 1.0 / seg.factor if scaled else 1.0

        latencies = [ms * wall(seg) for seg in kept for ms in seg.latencies]
        large = [(group, ms * wall(seg))
                 for seg in (segments if large_everywhere else kept)
                 for group, ms in zip(seg.groups, seg.latencies) if group]
        return {
            "throughput_tps": statistics.median(
                len(seg.latencies) / (seg.seconds * wall(seg)) for seg in kept),
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_p90_ms": quantile(latencies, 0.9),
            "large_fn_latency_ms": large_latency(large),
            "cpu_ms_per_task": statistics.median(
                seg.cpu_s * 1e3 / len(seg.latencies) * cpu(seg) for seg in kept),
        }

    factors = [seg.factor for seg in segments]
    notes = {"segments": len(segments), "segments_kept": len(kept),
             "steal_cut": cut,
             "latency_samples_kept": sum(len(seg.latencies) for seg in kept),
             "steal_all": statistics.mean(seg.steal for seg in segments),
             "steal_kept": statistics.mean(seg.steal for seg in kept),
             "speed_factor_min_median_max": [min(factors), statistics.median(factors),
                                             max(factors)],
             "raw": timings(False)}
    return timings(True), notes


class Pacer:
    """Stops the timed phase and marks segment boundaries."""

    def __init__(self, stop: Callable[[int, float], bool],
                 segments: Segments) -> None:
        self.stop = stop
        self.segments = segments
        self.next_mark = segments.seconds
        self.t0 = time.perf_counter()
        self.marks: List[Tuple[float, float]] = []

    def mark(self, now: float) -> None:
        """A boundary at ``now`` (perf counter), with its wall time."""
        self.marks.append((now, time.time()))

    def __call__(self, index: int, now: float) -> bool:
        elapsed = now - self.t0
        due = index == 0
        if self.segments.requests:
            due = due or index % self.segments.requests == 0
        if self.next_mark is not None and elapsed >= self.next_mark:
            due = True
            self.next_mark += self.segments.seconds
        if due:
            self.mark(now)
        return self.stop(index, elapsed)


@dataclass
class ServePhase:
    """One timed phase against one service process."""

    #: set-up time, unscaled and divided by its host-speed factor
    setup_s: float
    setup_scaled_s: float
    samples: List[loadgen.Sample]
    #: (start, end) on the perf counter, CPU seconds, steal share,
    #: host-speed factor
    spans: List[Tuple[float, float, float, float, float]]
    busy_processes: int
    rss_mb: float
    #: host-speed factor over the whole timed phase
    factor: float

    @property
    def window(self) -> float:
        return (max(s.done for s in self.samples)
                - min(s.sent for s in self.samples))

    def segments(self, good: List[Tuple[loadgen.Sample, Optional[str]]]
                 ) -> List[Segment]:
        """The whole segments (a short tail after the last boundary is
        dropped), with the latencies and large-input groups of the good
        samples in each."""
        nominal = statistics.median(end - start for start, end, *_ in self.spans)
        out = []
        for start, end, cpu, steal, factor in self.spans:
            if end - start >= nominal / 2:
                inside = [(s, g) for s, g in good if start <= s.done < end]
                out.append(Segment(end - start, [s.ms for s, _ in inside],
                                   [g for _, g in inside], cpu, steal, factor))
        return out


def serve_phase(ctx: Context, name: str, documents: Iterator[Any],
                connections: int, stop: Callable[[int, float], bool],
                segments: Segments, warmup: List[Any], traced: bool = False,
                timed: bool = True) -> ServePhase:
    """Launch a service, warm it up, optionally drive the timed phase."""
    if connections > (os.cpu_count() or 1):
        raise RuntimeError("more connections than cores")
    launched = time.time()
    service = sut.Service(ctx.root, ctx.work, name, traced, ctx.trace_dir)
    try:
        warm = loadgen.exchange_all(service.host, service.port, warmup)
        setup = time.perf_counter() - service.started
        setup_scaled = setup / ctx.speed.factor(launched, time.time())
        for sample in warm:
            record = (sample.response() or {}).get("record") or {}
            if sample.status != 200 or record.get("status") != "ok":
                raise OutputMismatch(f"warm-up request failed: {sample.status}")
        samples: List[loadgen.Sample] = []
        spans: List[Tuple[float, float, float, float, float]] = []
        busy = 0
        factor = 1.0
        if timed:
            ctx.trace_marks = trace_marks(ctx.trace_dir)
            cpu0 = sut.tree_cpu(service.proc.pid)
            sampler = sut.Sampler(list(cpu0))
            pacer = Pacer(stop, segments)
            try:
                samples = loadgen.run_closed(service.host, service.port,
                                             documents, connections, pacer)
                pacer.mark(time.perf_counter())
            finally:
                sampler.close()
            window = time.perf_counter() - pacer.t0
            cpu1 = sut.tree_cpu(service.proc.pid)
            busy = sum(1 for pid in cpu1
                       if cpu1[pid] - cpu0.get(pid, 0.0) > 0.05 * window)
            for (p0, w0), (p1, w1) in zip(pacer.marks, pacer.marks[1:]):
                steal, cpu = sampler.between(w0, w1)
                spans.append((p0, p1, cpu, steal, ctx.speed.factor(w0, w1)))
            factor = ctx.speed.factor(pacer.marks[0][1], pacer.marks[-1][1])
    finally:
        usage = service.stop()
    return ServePhase(setup, setup_scaled, samples, spans, busy,
                      sut.rusage_rss_mb(usage), factor)


def launch_serve(ctx: Context, documents: Iterator[Any], connections: int,
                 stop: Callable[[int, float], bool], segments: Segments,
                 warmup: List[Any]) -> ServePhase:
    """The end-to-end phase: set up ``SETUP_LAUNCHES`` times, time the last."""
    setups = [serve_phase(ctx, f"setup{i}", iter(()), connections, stop,
                          segments, warmup, timed=False)
              for i in range(SETUP_LAUNCHES - 1)]
    phase = serve_phase(ctx, "timed", documents, connections, stop, segments,
                        warmup)
    setups.append(phase)
    phase.setup_s = statistics.median(p.setup_s for p in setups)
    phase.setup_scaled_s = statistics.median(p.setup_scaled_s for p in setups)
    return phase


@dataclass
class Checked:
    """A phase's samples after the output check."""

    good: List[Tuple[loadgen.Sample, Dict[str, Any], Dict[str, Any]]]
    attempted: int
    failed: int
    rejected: int


def check_samples(samples: List[loadgen.Sample],
                  expected: Dict[str, Dict[str, Any]], verified: bool,
                  warm_keys: set) -> Checked:
    """Check every response; return (sample, record, served) of the good."""
    good = []
    rejected = 0
    for sample in samples:
        spec = sample.document["task"]
        key = task_key(spec)
        if key in warm_keys:
            raise RuntimeError("a timed request reuses a warm-up key")
        if sample.status in (0, 429, 503):
            rejected += 1
            continue
        document = sample.response() or {}
        record = document.get("record")
        if not isinstance(record, dict):
            raise OutputMismatch(f"HTTP {sample.status} without a record")
        check_record(record, spec, key, expected[key], verified)
        good.append((sample, record, document.get("served") or {}))
    return Checked(good, len(samples), len(samples) - len(good), rejected)


def serve_metrics(phase: ServePhase, checked: Checked,
                  large: Callable[[Dict[str, Any], Dict[str, Any]], Optional[str]],
                  residual: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of one checked serving phase, and notes."""
    metrics, notes = segment_metrics(phase.segments(
        [(s, large(record, served)) for s, record, served in checked.good]))
    notes["raw"]["setup_s"] = phase.setup_s
    metrics.update({
        "setup_s": phase.setup_scaled_s,
        "peak_rss_mb": phase.rss_mb,
        "success_share": share(len(checked.good), checked.attempted),
        "residual_weight": residual,
    })
    return metrics, notes


def serve_layers(checked: Checked) -> Dict[str, float]:
    """Serving-layer metrics read from the client side of a phase."""
    misses = [(s, r, v) for s, r, v in checked.good if v.get("cache") != "hit"]
    overhead = [s.ms - 1e3 * r["seconds"] for s, r, _ in misses]
    return {
        "serve.request_overhead_ms": statistics.mean(overhead) if overhead else 0.0,
        "serve.queue_ms": statistics.mean(1e3 * v["queue_seconds"]
                                          for _, _, v in misses) if misses else 0.0,
        "serve.batch_size_mean": statistics.mean(v["batch_size"]
                                                 for _, _, v in misses) if misses else 0.0,
        "serve.cache_hit_share": share(len(checked.good) - len(misses),
                                       len(checked.good)),
        "serve.rejected_share": share(checked.rejected, checked.attempted),
        "serve.latency_p99_ms": quantile([s.ms for s, _, _ in checked.good], 0.99),
    }


def serve_layers_absent() -> Dict[str, float]:
    """The serving-layer metrics of a workload that does not serve."""
    return {name: 0.0 for name in (
        "serve.request_overhead_ms", "serve.queue_ms", "serve.batch_size_mean",
        "serve.cache_hit_share", "serve.rejected_share", "serve.latency_p99_ms")}


def serve_workload(ctx: Context, documents: Callable[[], Iterator[Any]],
                   connections: int, stop: Callable[[int, float], bool],
                   segments: Segments, warmup: List[Any], verified: bool,
                   large: Callable[[Dict[str, Any], Dict[str, Any]], Optional[str]],
                   reference: Callable[[Checked], List[Dict[str, Any]]]) -> Result:
    """Run a serving workload end to end or traced; check; measure."""
    warm_keys = {task_key(d["task"]) for d in warmup}
    if ctx.trace:
        half = ctx.seconds / 2
        halved = lambda i, t: stop(i, t * ctx.seconds / half)  # noqa: E731
        plain = serve_phase(ctx, "untraced", documents(), connections, halved,
                            segments, warmup)
        traced = serve_phase(ctx, "traced", documents(), connections, halved,
                             segments, warmup, traced=True)
        phases = [plain, traced]
    else:
        phases = [launch_serve(ctx, documents(), connections, stop, segments,
                               warmup)]
    expected = replay([s.document["task"] for p in phases for s in p.samples])
    checks = [check_samples(p.samples, expected, verified, warm_keys)
              for p in phases]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for phase in phases:
        if phase.busy_processes > (os.cpu_count() or 1):
            raise RuntimeError(f"{phase.busy_processes} busy processes under test")
    payloads = reference(checks[0])
    residual, spilled = quality(payloads)
    for check in checks[1:]:
        if quality(reference(check)) != (residual, spilled):
            raise OutputMismatch("quality figures differ between phases")
    notes = {"samples": [len(c.good) for c in checks],
             "busy_processes": [p.busy_processes for p in phases]}
    if not ctx.trace:
        metrics, more = serve_metrics(phases[0], checks[0], large, residual)
        notes.update(more)
        return Result(attempted, failed, metrics, notes)
    inside, outside = read_traces(ctx.trace_dir, ctx.trace_marks)
    metrics = traced_layers(inside, outside)
    metrics.update(layer_records(payloads))
    metrics.update(serve_layers(checks[0]))
    per_task = [p.window / p.factor / max(1, len(c.good))
                for p, c in zip(phases, checks)]
    metrics["obs.trace_overhead_share"] = per_task[1] / per_task[0] - 1.0
    verdicts = [r.get("verification") for c in checks for _, r, _ in c.good]
    metrics["certified_share"] = share(
        sum(1 for v in verdicts if v and v.get("status") == "certified"),
        attempted)
    metrics["spilled_vars"] = spilled
    return Result(attempted, failed, metrics, notes)


def first_per_key(checked: Checked) -> Dict[str, Dict[str, Any]]:
    """The first good record of each task key."""
    out: Dict[str, Dict[str, Any]] = {}
    for _, record, _ in checked.good:
        out.setdefault(record["key"], record)
    return out


def serve_light(ctx: Context) -> Result:
    reference = {task_key(workloads.light_spec(s))
                 for s in range(workloads.LIGHT_REFERENCE_KEYS)}

    def reference_payloads(checked: Checked) -> List[Dict[str, Any]]:
        seen = first_per_key(checked)
        missing = reference - set(seen)
        if missing:
            raise RuntimeError(f"{len(missing)} reference keys were not served")
        return [seen[key]["payload"] for key in sorted(reference)]

    return serve_workload(
        ctx, lambda: workloads.light_stream(ctx.seed), connections=2,
        stop=lambda i, elapsed: elapsed >= ctx.seconds,
        segments=Segments(seconds=ctx.seconds / SEGMENTS),
        warmup=workloads.light_warmup(), verified=False,
        large=lambda record, served: "pressure" if served.get("cache") != "hit"
        and record["payload"]["vertices"] >= workloads.LARGE_PRESSURE_VERTICES
        else None,
        reference=reference_payloads)


def serve_corpus_verified(ctx: Context) -> Result:
    specs = workloads.corpus_round_specs(workloads.corpus_functions(ctx.root))
    keys = sorted({task_key(spec) for spec in specs})

    def documents() -> Iterator[Any]:
        round_index = 0
        while True:
            yield from workloads.corpus_round(specs, ctx.seed, round_index)
            round_index += 1

    def reference_payloads(checked: Checked) -> List[Dict[str, Any]]:
        seen = first_per_key(checked)
        if len(seen) != len(keys):
            raise RuntimeError("the run served no complete round")
        return [seen[key]["payload"] for key in keys]

    return serve_workload(
        ctx, documents, connections=1,
        stop=lambda i, elapsed: i % len(specs) == 0 and elapsed >= ctx.seconds,
        segments=Segments(requests=len(specs)),
        warmup=workloads.corpus_warmup(specs), verified=True,
        large=lambda record, served: record["task"]["strategy"]
        if record["task"]["params"]["function"] == workloads.LARGE_FUNCTION
        else None,
        reference=reference_payloads)


WORKLOADS = {
    "campaign-corpus": campaign_corpus,
    "serve-light": serve_light,
    "serve-corpus-verified": serve_corpus_verified,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def result_line(config: Dict[str, Any], result: Result, correct: bool,
                trace: bool) -> Dict[str, Any]:
    """The final JSON object, with every metric the config names."""
    wanted = config["per_layer"] if trace else config["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = result.metrics.get(metric["name"])
        if value is None:
            raise KeyError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still drains its service (``finally`` blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the root of a checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    try:
        workloads.check_pins(root)
    except workloads.PinError as exc:
        print(f"inputs changed; re-pin perfbench/inputs.json: {exc}",
              file=sys.stderr)
        return 3
    if min(os.cpu_count() or 1, len(os.sched_getaffinity(0))) < 2:
        print("refusing to record: fewer than 2 cores", file=sys.stderr)
        return 4
    config = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, stdout=subprocess.DEVNULL, env=sut.sut_env(root))

    runs_dir = BENCH_DIR / ".work"
    work = runs_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    noise = sut.HostNoise(root)
    # the processes under test get the last core, this process the others
    os.sched_setaffinity(0, sut.cores()[1])
    work.mkdir(parents=True)
    speed = sut.HostSpeed(work)
    ctx = Context(root, work, args.seed, args.seconds, bool(args.trace), speed)
    correct = True
    try:
        result = WORKLOADS[args.workload](ctx)
    except OutputMismatch as exc:
        print(f"incorrect output: {exc}", file=sys.stderr)
        correct = False
        result = Result(1, 1, {})
    finally:
        speed.close()
        shutil.rmtree(work, ignore_errors=True)
    meta = noise.report()
    record = {"time": time.time(), "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct,
              "metrics": result.metrics, "notes": result.notes, "meta": meta}
    with open(runs_dir / "runs.jsonl", "a") as stream:
        stream.write(json.dumps(record) + "\n")
    print(json.dumps({"meta": meta, "notes": result.notes}))
    if not correct:
        print(json.dumps({"correct": False, "attempted": result.attempted,
                          "failed": result.failed, "metrics": {}}))
        return 0
    print(json.dumps(result_line(config, result, correct, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
