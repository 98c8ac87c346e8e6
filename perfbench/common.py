"""Shared helpers of the benchmark: paths, seeds, memory and statistics.

The benchmark runs the program from the source tree next to this directory
(``<checkout>/src``); it imports nothing from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
from time import clock_gettime, process_time, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (inputs, sockets, trace JSON) lands here.
OUT = os.path.join(HERE, "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def have_program():
    """True when the checkout holds the program the benchmark measures."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


#: The per-process CPU clock a ``clockid_t`` names on Linux:
#: ``(~pid << 3) | CPUCLOCK_SCHED`` (see ``clock_getcpuclockid(3)``).
_CPUCLOCK_SCHED = 2


def cpu_seconds(pid=0):
    """CPU time one process (all its threads) has used so far, in seconds.

    Only the time the process ran counts: not time it waited, and not time
    the hypervisor gave its vCPU to other guests (steal), which varies with
    whatever else a shared host runs.  ``pid`` 0 is this process.  Raises
    ``ProcessLookupError`` once the process has ended.
    """
    if pid == 0:
        return process_time()
    try:
        return clock_gettime((~pid << 3) | _CPUCLOCK_SCHED)
    except OSError:
        raise ProcessLookupError(pid) from None


#: CPU seconds the speed probe takes on the reference host.  Scaled times
#: are CPU seconds at that host's speed.
PROBE_REFERENCE_S = 1e-3


def _probe_work():
    """A fixed mix of what the program does most: small allocations, tuple
    hashing, dict inserts and lookups, string conversion."""
    table = {}
    for i in range(2000):
        table[(i, i & 7)] = [i, str(i)]
    total = 0
    for key, value in table.items():
        total += len(value[1]) + key[1]
    return total


class SpeedProbe:
    """Measures how fast the host runs Python right now.

    On a shared host a vCPU's speed changes by up to 40% for seconds to
    minutes at a time (presumably other guests sharing its cores), and CPU
    time changes with it.  Timed right before each op, on every CPU the
    benchmark may use, the probe gives the factor that turns the op's CPU
    time into reference seconds.  Only the probe's own thread is pinned,
    and only while it runs; the op runs unpinned.  Across 15 s blocks of
    ``sweep`` and ``edit`` ops, block medians of raw CPU time varied by 9%
    (coefficient of variation) and scaled ones by 2-3%; op cost rose 0.9x
    as fast as the probe's time.
    """

    REPEATS = 3

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def scale(self):
        """Reference seconds per CPU second measured now."""
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                runs = []
                for _ in range(self.REPEATS):
                    start = thread_time()
                    _probe_work()
                    runs.append(thread_time() - start)
                times.append(min(runs))
        finally:
            os.sched_setaffinity(0, self.cpus)
        return PROBE_REFERENCE_S / statistics.mean(times)


def derive_seed(seed, *parts):
    """A 31-bit input seed from the workload seed and a position."""
    rng = random.Random("perfbench:%d:%s" % (seed, ":".join(map(str, parts))))
    return rng.randrange(1 << 31)


def vm_hwm_mb(pid="self"):
    """High-water resident set size of one process, in MiB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line for process %s" % pid)


def p90(values):
    """The 90th percentile (inclusive interpolation, as quantiles gives)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def beyond(values, threshold):
    """How many samples lie above ``threshold``."""
    return sum(1 for value in values if value > threshold)


def digest(items):
    """Short stable hash of JSON-serialisable simulated statistics."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
