"""Clock probe of the benchmark: how fast one core runs right now.

    python3 bench/clock.py CPU SAMPLES.txt

It pins itself to core CPU.  Every 50 ms it times a fixed loop of small
numpy calls, which runs no mcs_adi code, and appends `start end
cpu_seconds steal_seconds` to SAMPLES.txt, until it is terminated: the
loop's start and end (perf_counter), its CPU time, and the core's steal
time so far (the time the hypervisor ran something else on it, from
/proc/stat; 0 where that cannot be read).  The loop's CPU time, not its
wall time, is the sample, so that waiting for the core while a command
runs on it does not count.  See `Clock` in bench/run.py.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

PERIOD_S = 0.05
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s(cpu: int) -> float:
    """Steal time of core `cpu` since boot, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) * TICK_S
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def main(cpu: int, path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    field = np.ones((16, 16))
    with open(path, "w", encoding="utf-8") as out:
        while True:
            start, busy = time.perf_counter(), time.thread_time()
            for _ in range(300):
                np.roll(field, 1, axis=0)
            busy = time.thread_time() - busy
            out.write(f"{start!r} {time.perf_counter()!r} {busy!r} {steal_s(cpu)!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
