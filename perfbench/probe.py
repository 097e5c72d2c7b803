"""Host-speed probe: ``python3 probe.py CPU OUT``.

Pinned to core ``CPU``, every ``PERIOD`` seconds it runs a fixed
pure-Python kernel and appends ``<wall time> <kernel CPU ns>`` to
``OUT``.  The kernel touches no ``repro`` code, so its CPU time moves
only with the speed the host gives that core, which on a shared host
changes by half again within seconds.  ``run.py`` scales each timing by
the probe's reading over the same stretch (see ``HostSpeed`` there).

The kernel's CPU time is read with ``time.thread_time``, which stops
while the probe is not running, so time spent waiting for the core it
shares with the program under test is not counted; on a core kept
fully busy it still read about 3% slower than on an idle one.  It
costs about one percent of that core.  SIGTERM ends the probe, and so does the end of the process
that started it.
"""

from __future__ import annotations

import os
import signal
import sys
import time

PERIOD = 0.05


def kernel() -> int:
    """Dict, tuple, list and call work of a few hundred microseconds."""
    table = {}
    for i in range(120):
        table[(i, i & 7)] = [i, i * 3]
    total = 0
    for key, value in table.items():
        total += key[0] * value[1] % 7
    return total + len(sorted(table, key=lambda k: -k[0]))


def main(argv: list) -> int:
    cpu, out = int(argv[1]), argv[2]
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    parent = os.getppid()
    with open(out, "a", buffering=1) as stream:
        while os.getppid() == parent:
            kernel()                  # warm the caches
            start = time.thread_time_ns()
            for _ in range(4):
                kernel()
            spent = time.thread_time_ns() - start
            stream.write(f"{time.time():.6f} {spent}\n")
            time.sleep(PERIOD)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
