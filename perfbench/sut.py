"""Launching, observing and stopping the processes under test.

Every process under test is a fresh interpreter on the real entry
point, ``python -m repro ...``, with ``src`` of the checkout on
``PYTHONPATH``.  The benchmark reads their CPU time from
``/proc/<pid>/stat`` (whole process, all threads) and their peak RSS
from ``wait4`` when they exit, so nothing runs inside them on its
behalf.  A traced launch goes through ``boot.py`` instead, which adds
the outside-in layer timing of ``layers.py`` and then runs the same
entry point.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
CLOCK_TICK = os.sysconf("SC_CLK_TCK")

#: Environment variables that would change what the entry point imports
#: or how it behaves; they are removed from every launch.
_SCRUBBED_ENV = ("PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONPROFILEIMPORTTIME",
                 "PYTHONDEVMODE", "PYTHONMALLOC", "PYTHONWARNINGS",
                 "REPRO_LLVM_CORPUS", "REPRO_DEBUG_CHECKS",
                 "PERFBENCH_TRACE_DIR")


def sut_env(root: Path, trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """The environment of a process under test."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


@functools.lru_cache(maxsize=None)
def cores() -> Tuple[int, Tuple[int, ...]]:
    """(the core of the processes under test, the benchmark's cores).

    Every process under test runs on the last core this process may
    use; the load generator and the benchmark itself on the others.
    The host-speed probe shares the core of the program it speaks for.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], tuple(allowed[:-1])


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def sut_preexec() -> None:
    """``preexec_fn`` of a process under test: pin it (its children
    inherit the core) and have it terminated if the benchmark dies
    before it could stop it."""
    os.sched_setaffinity(0, {cores()[0]})
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def sut_argv(args: List[str], traced: bool = False) -> List[str]:
    """``python -m repro <args>``, or its traced twin via ``boot.py``."""
    if traced:
        return [sys.executable, str(BENCH_DIR / "boot.py"), *args]
    return [sys.executable, "-m", "repro", *args]


def campaign_args(spec: Path, cache_dir: Path) -> List[str]:
    """``repro`` arguments of a campaign run: one worker, verified."""
    return ["campaign", "run", str(spec), "--workers", "1", "--verify",
            "--cache-dir", str(cache_dir), "--json"]


def serve_args(cache_dir: Path) -> List[str]:
    """``repro`` arguments of the service: one worker, ephemeral port."""
    return ["serve", "--workers", "1", "--port", "0",
            "--cache-dir", str(cache_dir)]


def wait_exit(proc: subprocess.Popen, timeout: float) -> Tuple[int, Any]:
    """Reap ``proc`` with ``wait4``; return ``(exit code, rusage)``.

    The rusage covers the process and every descendant it reaped, so
    its ``ru_maxrss`` is the largest peak RSS of the process tree.  A process still alive after
    ``timeout`` seconds is killed and the run fails.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"process {proc.args[:4]} did not exit "
                               f"within {timeout:.0f}s; killed")
        time.sleep(0.01)


def rusage_rss_mb(usage: Any) -> float:
    """Largest peak RSS of a reaped process tree, in MiB."""
    return usage.ru_maxrss / 1024.0


def children(pid: int) -> List[int]:
    """Live child processes of ``pid``."""
    out: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def process_cpu(pid: int) -> float:
    """CPU seconds (user + system, all threads) used so far by ``pid``
    and by the children it has reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return sum(int(f) for f in fields[11:15]) / CLOCK_TICK


def tree_cpu(pid: int) -> Dict[int, float]:
    """CPU seconds of ``pid`` and each of its live children."""
    return {p: process_cpu(p) for p in [pid, *children(pid)]}


class Sampler:
    """Samples host steal and the CPU of some processes every ``period``
    seconds from a sleeping thread, so segments of a timed phase can be
    given their CPU time and the share of the core under test the
    hypervisor stole during them.  Samples are ``(wall time, steal jiffies, all
    jiffies, CPU seconds)``."""

    def __init__(self, pids: List[int], period: float = 0.05) -> None:
        import threading

        self.period = period
        self.cpu = {pid: 0.0 for pid in pids}
        self.samples: List[Tuple[float, int, int, float]] = []
        self._stop = threading.Event()
        self._sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        jiffies = _cpu_jiffies(cores()[0])
        for pid in self.cpu:
            # a process that has exited keeps its last reading
            self.cpu[pid] = max(self.cpu[pid], process_cpu(pid))
        self.samples.append((time.time(), jiffies["steal"],
                             sum(jiffies.values()), sum(self.cpu.values())))

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def close(self) -> None:
        """Stop sampling (takes one last sample)."""
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()

    def at(self, when: float) -> Tuple[float, float, float]:
        """(steal, all jiffies, CPU seconds) at wall time ``when``,
        interpolated between the samples around it."""
        import bisect

        samples = self.samples
        hi = min(max(1, bisect.bisect_right([x[0] for x in samples], when)),
                 len(samples) - 1)
        a, b = samples[hi - 1], samples[hi]
        f = 0.0 if b[0] == a[0] else min(1.0, max(0.0, (when - a[0]) / (b[0] - a[0])))
        return tuple(x + (y - x) * f for x, y in zip(a[1:], b[1:]))

    def between(self, start: float, end: float) -> Tuple[float, float]:
        """(steal share of host CPU, CPU seconds used) in ``[start, end]``."""
        s0, t0, c0 = self.at(start)
        s1, t1, c1 = self.at(end)
        return (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0, c1 - c0


class HostSpeed:
    """How fast the host runs the core of the processes under test.

    A shared host gives a core anywhere from full speed to about two
    thirds of it, in spells of seconds to minutes, and a Python
    workload's CPU and wall time follow.  ``probe.py`` runs a fixed
    kernel on that core every 50 ms; :meth:`factor` over a stretch of
    time is the median kernel time then over ``REFERENCE_NS``.  A
    timing divided by it reads as on a core where the kernel takes
    ``REFERENCE_NS``, so a slow spell of the host does not read as a
    slow program, while a slower program is as slow against the same
    kernel.  The kernel is no ``repro`` code, so no change to the
    program moves it.
    """

    #: The kernel's CPU time on the reference core.
    REFERENCE_NS = 240_000
    #: Fewest readings a factor is taken over (one every 50 ms).
    LEAST_READINGS = 5

    def __init__(self, work: Path) -> None:
        self.path = work / "probe.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(cores()[0]),
             str(self.path)], stdin=subprocess.DEVNULL)
        self.samples: List[Tuple[float, int]] = []

    def close(self) -> None:
        """Stop the probe and wait for it."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _read(self, until: float) -> List[Tuple[float, int]]:
        """The readings so far (the file is read again only when a
        stretch ends after the last reading held)."""
        if (not self.samples or self.samples[-1][0] < until) and self.path.exists():
            # the last line may still be being written
            lines = self.path.read_text().split("\n")[:-1]
            self.samples = [(float(a), int(b)) for a, b in
                            (line.split() for line in lines)]
        return self.samples

    def factor(self, start: float, end: float) -> float:
        """Median kernel time over ``REFERENCE_NS`` for wall times
        ``[start, end]``; a stretch with fewer than ``LEAST_READINGS``
        readings takes that many readings nearest its middle."""
        import bisect

        least = self.LEAST_READINGS
        samples = self._read(end)
        if self.proc.poll() is not None and not samples:
            raise RuntimeError("the host-speed probe is not running")
        times = [t for t, _ in samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if hi - lo < least:
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo = max(0, min(mid - least // 2, len(samples) - least))
            hi = min(len(samples), lo + least)
        if hi <= lo:
            raise RuntimeError("no host-speed readings")
        return statistics.median(ns for _, ns in samples[lo:hi]) / self.REFERENCE_NS


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class Service:
    """One ``repro serve --workers 1`` process on an ephemeral port."""

    def __init__(self, root: Path, work: Path, name: str,
                 traced: bool = False, trace_dir: Optional[Path] = None):
        self.cache_dir = work / f"{name}-cache"
        self.log = open(work / f"{name}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            sut_argv(serve_args(self.cache_dir), traced), cwd=str(work),
            env=sut_env(root, trace_dir if traced else None),
            stdout=subprocess.PIPE, stderr=self.log,
            preexec_fn=sut_preexec,
        )
        line = self.proc.stdout.readline().decode(errors="replace")
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if not match:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"service did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self, timeout: float = 30.0) -> Any:
        """Drain the service, wait for it to exit; return its rusage."""
        import socket

        try:
            with socket.create_connection((self.host, self.port), 10) as sock:
                sock.sendall(b"POST /drain HTTP/1.1\r\nHost: bench\r\n"
                             b"Content-Length: 0\r\nConnection: close\r\n\r\n")
                while sock.recv(65536):
                    pass
        except OSError:
            self.proc.kill()
        code, usage = wait_exit(self.proc, timeout)
        self.proc.stdout.close()
        self.log.close()
        if code != 0:
            raise RuntimeError(f"service exited with code {code}")
        return usage


# ----------------------------------------------------------------------
# host-noise metadata
# ----------------------------------------------------------------------
def _cpu_jiffies(core: Optional[int] = None) -> Dict[str, int]:
    """``/proc/stat`` jiffies of one core, or of all of them."""
    name = "cpu" if core is None else f"cpu{core}"
    fields = next(line for line in Path("/proc/stat").read_text().splitlines()
                  if line.split()[0] == name).split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return {name: int(value) for name, value in zip(names, fields)}


def _src_digest(root: Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev(root: Path) -> Optional[str]:
    try:
        # the ceiling keeps git from searching above the checkout
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=str(root), capture_output=True, timeout=10,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode().strip() or None


class HostNoise:
    """``/proc/stat`` steal and iowait shares and load over one run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.start = _cpu_jiffies()
        self.load_start = os.getloadavg()

    def report(self) -> Dict[str, Any]:
        """The run's metadata block."""
        end = _cpu_jiffies()
        delta = {k: end[k] - self.start.get(k, 0) for k in end}
        total = max(1, sum(delta.values()))
        return {
            "steal_share": delta.get("steal", 0) / total,
            "iowait_share": delta.get("iowait", 0) / total,
            "loadavg_start": self.load_start,
            "loadavg_end": os.getloadavg(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_rev": _git_rev(self.root),
            "src_sha256": _src_digest(self.root),
        }


def read_json_lines(path: Path) -> List[Dict[str, Any]]:
    """Every JSON object of a JSON-lines file (missing file: none)."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]
