"""A small discrete-event simulation kernel — the SystemC substitute.

The paper links annotated C processes with a SystemC wrapper; here the
generated Python processes are linked with this kernel.  Semantics follow
SystemC's cooperative model: exactly one process runs at a time, processes
suspend via ``wait`` (time) or by blocking on a channel, and simulated time
advances only between process activations.

Every process is a :class:`GeneratorProcess`: a Python generator driven by
the kernel's one event loop, which drains per-timestamp buckets in time
order (see :class:`Kernel`).  The process yields a duration to wait, or
``None`` when blocked on a channel; resuming it is a plain ``gen.send``.
Channels, buses, the RTOS share and the fault proxies expose generator
operations (``send_gen`` and friends) that compose through
``yield from``, so a process may block at any call depth of generated
code.  Execution is strictly sequential, so results are deterministic.
"""

from __future__ import annotations

import heapq
import inspect
import time
from itertools import islice
from operator import length_hint

from ..errors import AbortError


class SimulationError(AbortError):
    """Raised for kernel-level failures (deadlock, process error)."""

    code = "simulation"


class DeadlockError(SimulationError):
    """Raised when processes remain blocked but no timed event is pending."""

    code = "deadlock"


class WatchdogError(SimulationError):
    """Base class for watchdog-triggered aborts (see :class:`Watchdog`)."""

    code = "watchdog"


class WallClockExceeded(WatchdogError):
    """The run exceeded the watchdog's real-time budget."""

    code = "wall-clock-exceeded"


class HorizonExceeded(WatchdogError):
    """Simulated time passed the watchdog's hard horizon."""

    code = "horizon-exceeded"


class LivelockError(WatchdogError):
    """Processes keep activating without simulated time advancing."""

    code = "livelock"


class Watchdog:
    """Run limits for :meth:`Kernel.run` — all optional, all off by default.

    Args:
        max_wall_seconds: abort with :class:`WallClockExceeded` when the run
            has consumed this much real time.  Checked every
            ``wall_check_interval`` activations to keep the hot loop cheap.
        max_sim_time: abort with :class:`HorizonExceeded` when simulated
            time passes this value (kernel time units).  Unlike
            ``run(until=...)`` — which stops quietly and can be resumed —
            crossing this horizon is treated as a failure.
        max_stalled_activations: abort with :class:`LivelockError` after
            this many consecutive activations with no simulated-time
            progress; the error names the processes active in the stall
            window.  Legitimate same-time bursts (channel wake chains) are
            usually short, so set this comfortably above the design's fan-out.
        wall_check_interval: activations between wall-clock checks.
    """

    __slots__ = ("max_wall_seconds", "max_sim_time",
                 "max_stalled_activations", "wall_check_interval")

    def __init__(self, max_wall_seconds=None, max_sim_time=None,
                 max_stalled_activations=None, wall_check_interval=1024):
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive")
        if max_sim_time is not None and max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if (max_stalled_activations is not None
                and max_stalled_activations < 1):
            raise ValueError("max_stalled_activations must be >= 1")
        if wall_check_interval < 1:
            raise ValueError("wall_check_interval must be >= 1")
        self.max_wall_seconds = max_wall_seconds
        self.max_sim_time = max_sim_time
        self.max_stalled_activations = max_stalled_activations
        self.wall_check_interval = wall_check_interval

    def __repr__(self):
        return ("Watchdog(max_wall_seconds=%r, max_sim_time=%r, "
                "max_stalled_activations=%r)" % (
                    self.max_wall_seconds, self.max_sim_time,
                    self.max_stalled_activations))


#: Op codes of the events a :class:`TraceRecorder` collects.
OP_WAIT = 0   # (OP_WAIT, cycles, 0) — accumulated delay applied via sc_wait
OP_SEND = 1   # (OP_SEND, chan_id, n_words) — blocking channel send
OP_RECV = 2   # (OP_RECV, chan_id, n_words) — blocking channel receive


class TraceRecorder:
    """Collects one simulation's per-process operation stream (opt-in).

    Recording follows the ``TracingCache`` pattern from
    :mod:`repro.trace.capture`: nothing in the kernel or the channels tests
    a flag per event.  When a recorder is attached, the TLM swaps in thin
    recording proxies (a ``RecordingContext`` for computation segments, a
    ``RecordingChannel`` per channel for transactions); with recording off
    the unwrapped hot paths run byte-for-byte unchanged.

    Each recorded op is a ``(seq, op, a, b)`` tuple.  ``seq`` is a global
    counter: the kernel is strictly sequential, so ascending ``seq`` is
    exactly the order the operations executed in — which is what the
    replay engines in :mod:`repro.simtrace` walk.
    """

    __slots__ = ("ops", "grants", "_seq")

    def __init__(self):
        #: process name -> list of (seq, op, a, b), in execution order
        self.ops = {}
        #: bus name -> list of (seq, master, n_words, when_ns), in grant
        #: order — the per-bus grant streams an arbitrated capture logs
        #: (uncontended fast-path grants only; a queued grant aborts the
        #: recording, see :meth:`ArbitratedBus.attach_recorder`).
        self.grants = {}
        self._seq = 0

    def register(self, name):
        """Ensure ``name`` has an (initially empty) op list."""
        self.ops.setdefault(name, [])

    def record(self, name, op, a, b):
        seq = self._seq
        self._seq = seq + 1
        self.ops.setdefault(name, []).append((seq, op, a, b))

    def record_grant(self, bus_name, master, n_words, when_ns):
        """Log one bus grant; shares the global ``seq`` stream with ops so
        grants stay totally ordered against channel operations."""
        seq = self._seq
        self._seq = seq + 1
        self.grants.setdefault(bus_name, []).append(
            (seq, master, n_words, when_ns)
        )

    def n_ops(self):
        return sum(len(ops) for ops in self.ops.values())

    def __repr__(self):
        return "TraceRecorder(%d processes, %d ops)" % (
            len(self.ops), self.n_ops(),
        )


#: Blocked processes named in a deadlock / watchdog report before the rest
#: are summarised as a count.  Keeps the message readable (and cheap to
#: build) when hundreds of processes block at once.
SUMMARY_CAP = 12


#: Process-wide simulation totals, accumulated across every :meth:`Kernel.run`
#: in this interpreter.  Serve workers snapshot this around each request and
#: ship the delta back to the daemon, which aggregates simulation throughput
#: across the pool (``/stats``).  Plain ints/floats only — cheap to copy.
SIM_TOTALS = {
    "runs": 0,
    "activations": 0,
    "events_scheduled": 0,
    "channel_fastpath_hits": 0,
    "sim_time_ns": 0.0,
    "wall_seconds": 0.0,
    "bus_grants": 0,
    "bus_stall_cycles": 0,
    "traffic_replays": 0,
    "traffic_replay_fallbacks": 0,
}


def sim_totals_snapshot():
    """Copy of the interpreter-wide simulation totals (see SIM_TOTALS)."""
    return dict(SIM_TOTALS)


def sim_totals_delta(before, after=None):
    """``after - before`` for two :func:`sim_totals_snapshot` dicts
    (``after`` defaults to the totals right now)."""
    if after is None:
        after = SIM_TOTALS
    return {key: after[key] - before[key] for key in before}


class GeneratorProcess:
    """One simulation process (SC_THREAD equivalent), backed by a generator.

    :meth:`Kernel.add_process` builds it from ``target(process)``, which
    must return a generator.  The yield protocol:

    * ``yield duration`` — suspend for ``duration`` time units;
    * ``yield None`` — block; a channel will :meth:`Kernel._wake` us.

    Channel helpers expose generator operations (``recv_gen`` etc.), so
    blocking composes through ``yield from`` at any call depth.
    """

    __slots__ = ("kernel", "name", "finished", "error", "blocked_on", "_gen")

    def __init__(self, kernel, name):
        self.kernel = kernel
        self.name = name
        self.finished = False
        self.error = None
        self.blocked_on = None  # description while blocked on a channel
        self._gen = None  # set by Kernel.add_process

    def _kill(self):
        """Close the generator (simulation is stopping)."""
        if not self.finished:
            self._gen.close()
        self.finished = True

    def __repr__(self):
        state = "finished" if self.finished else (self.blocked_on or "ready")
        return "GeneratorProcess(%r, %s)" % (self.name, state)


class Kernel:
    """The simulation scheduler: one event loop over per-timestamp buckets.

    Pending activations live in a dict ``when -> [process]`` of FIFO
    buckets and a heap of the distinct bucket times.  :meth:`run` takes
    the earliest time and iterates that bucket's list.  A zero-delay wait,
    a channel wake and a queued bus grant at the current instant are plain
    appends to the list being iterated, so they run later in the same
    drain.  Append order is SystemC-style ``(when, seq)`` order: entries
    for time ``t`` made before ``t`` are already in the bucket in creation
    order, and entries made at ``t`` are appended in creation order after
    them.  Execution is therefore deterministic.

    Counters (reset to zero at construction):

    * ``activations`` — process resumptions performed by :meth:`run`;
    * ``events_scheduled`` — process starts and timed waits (zero-delay
      waits included) entered in a bucket;
    * ``channel_fastpath_hits`` — channel wakes and bus grants appended to
      the bucket being drained;
    * ``buckets_drained`` — distinct-timestamp buckets retired.
    """

    #: The scheduler name :meth:`kernel_stats` reports.
    active_scheduler = "wheel"

    def __init__(self):
        self.now = 0.0
        self.processes = []
        self._buckets = {}  # when -> [process], in activation order
        self._times = []  # heap of the distinct times in ``_buckets``
        self.activations = 0
        self.events_scheduled = 0
        self.channel_fastpath_hits = 0
        self.buckets_drained = 0

    def add_process(self, name, target):
        """Register a process; ``target(process)`` must return a generator,
        whose body starts running at the current simulated time (``0.0``
        before the first :meth:`run`).

        Raises :class:`SimulationError` naming the process when ``target``
        is not a generator function.
        """
        if not inspect.isgeneratorfunction(target):
            raise SimulationError(
                "process %r: target %r is not a generator function (a "
                "process yields durations instead of calling wait)"
                % (name, getattr(target, "__name__", target))
            )
        process = GeneratorProcess(self, name)
        process._gen = target(process)
        self.processes.append(process)
        self._schedule(self.now, process)
        return process

    def _schedule(self, when, process):
        self.events_scheduled += 1
        self._append(when, process)

    def _wake(self, process):
        """Make a channel-blocked process runnable at the current time,
        behind every activation already pending at this instant."""
        process.blocked_on = None
        self.channel_fastpath_hits += 1
        self._append(self.now, process)

    def _append(self, when, process):
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [process]
            heapq.heappush(self._times, when)
        else:
            bucket.append(process)

    def kernel_stats(self):
        """Snapshot of the scheduler counters (a plain dict)."""
        return {
            "activations": self.activations,
            "events_scheduled": self.events_scheduled,
            "channel_fastpath_hits": self.channel_fastpath_hits,
            "buckets_drained": self.buckets_drained,
            "scheduler": self.active_scheduler,
        }

    def run(self, until=None, watchdog=None):
        """Run until no events remain (or simulated time exceeds ``until``).

        Returns the final simulation time.  Raises :class:`DeadlockError` if
        unfinished processes remain blocked with no pending event.  When the
        ``until`` horizon cuts the run short, the first over-horizon event
        stays queued and processes stay suspended, so a later ``run()``
        resumes the simulation exactly where it stopped.  ``until`` earlier
        than the current time is a ``ValueError``: time never runs back.

        ``watchdog`` (a :class:`Watchdog`) arms wall-clock / sim-horizon /
        livelock limits; each fires as a structured :class:`WatchdogError`
        naming the unfinished processes.
        """
        if until is not None and until < self.now:
            raise ValueError(
                "run(until=%r) would move simulated time back from %r"
                % (until, self.now)
            )
        start_activations = self.activations
        start_events = self.events_scheduled
        start_fastpath = self.channel_fastpath_hits
        start_time = self.now
        wall_start = time.perf_counter()
        try:
            cut = self._event_loop(until, watchdog)
        finally:
            SIM_TOTALS["runs"] += 1
            SIM_TOTALS["activations"] += self.activations - start_activations
            SIM_TOTALS["events_scheduled"] += (
                self.events_scheduled - start_events
            )
            SIM_TOTALS["channel_fastpath_hits"] += (
                self.channel_fastpath_hits - start_fastpath
            )
            SIM_TOTALS["sim_time_ns"] += self.now - start_time
            SIM_TOTALS["wall_seconds"] += time.perf_counter() - wall_start
        if cut:
            return self.now
        blocked = [p for p in self.processes if not p.finished]
        if blocked:
            self._shutdown()
            raise DeadlockError(
                "deadlock: processes blocked forever: %s"
                % self._process_summary(blocked)
            )
        return self.now

    def _event_loop(self, until, watchdog):
        """Drain the buckets in time order; True when cut by ``until``.

        Processes are advanced inline (``gen.send`` plus a bucket append):
        this loop runs once per activation, and a call per event is
        measurable at traffic scale.  ``self.now`` is written once per
        bucket; processes read it mid-activation.

        With a watchdog armed, :meth:`_Guard.entries` feeds the bucket
        through in ``islice`` chunks that each end where the next check is
        due, so no check runs per activation.  Unarmed, the loop iterates
        the list directly.  If a process fails, the entries already run
        are cut from the bucket (``length_hint`` of the list iterator is
        the count still ahead), so the kernel state stays resumable.
        """
        buckets = self._buckets
        times = self._times
        buckets_get = buckets.get
        heappush = heapq.heappush
        heappop = heapq.heappop
        guard = None if watchdog is None else _Guard(self, watchdog)
        activations = 0
        scheduled = 0
        drained = 0
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    return True
                self.now = t
                procs = buckets[t]
                it = iter(procs)
                entries = it if guard is None else guard.entries(t, procs, it)
                try:
                    for process in entries:
                        gen = process._gen
                        try:
                            request = gen.send(None)
                        except StopIteration:
                            process.finished = True
                            continue
                        except BaseException as exc:  # noqa: BLE001
                            process.finished = True
                            process.error = exc
                            raise SimulationError(
                                "process %r failed: %r" % (process.name, exc)
                            ) from exc
                        if request is None:
                            continue  # blocked; a channel wakes it
                        if not request >= 0:
                            error = SimulationError(
                                "cannot wait a negative duration"
                            )
                            process.error = error
                            process.finished = True
                            gen.close()
                            raise SimulationError(
                                "process %r failed: %r" % (process.name, error)
                            ) from error
                        when = t + request
                        scheduled += 1
                        bucket = buckets_get(when)
                        if bucket is None:
                            buckets[when] = [process]
                            heappush(times, when)
                        else:
                            bucket.append(process)
                except BaseException:
                    done = len(procs) - length_hint(it)
                    activations += done
                    del procs[:done]
                    raise
                activations += len(procs)
                heappop(times)
                del buckets[t]
                drained += 1
            return False
        finally:
            self.activations += activations
            self.events_scheduled += scheduled
            self.buckets_drained += drained

    @staticmethod
    def _process_summary(processes):
        """Readable roll call of ``processes``, capped at SUMMARY_CAP names.

        Deadlock and watchdog reports embed this; at traffic scale a report
        may cover hundreds of blocked processes, so everything past the cap
        collapses into a count instead of an unreadable (and O(n)-sized)
        enumeration.
        """
        named = processes[:SUMMARY_CAP]
        parts = [
            "%s (%s)" % (p.name, p.blocked_on or "ready") for p in named
        ]
        hidden = len(processes) - len(named)
        if hidden > 0:
            parts.append("... and %d more" % hidden)
        return ", ".join(parts)

    def _unfinished_summary(self):
        unfinished = [p for p in self.processes if not p.finished]
        return self._process_summary(unfinished) or "none"

    def stop(self):
        """Terminate all unfinished processes by closing their generators;
        after ``stop()`` the kernel can no longer resume them."""
        self._shutdown()

    def _shutdown(self):
        """Close every still-running process and drop its pending events."""
        for process in self.processes:
            if not process.finished:
                process._kill()
        self._buckets.clear()
        del self._times[:]


class _Guard:
    """One run's watchdog state for :meth:`Kernel._event_loop`.

    The livelock rule is batch-aware: activations already pending when
    time advanced to a bucket (hundreds of traffic arrivals landing on one
    cycle, say) are exempt, and only entries appended at the current time
    — zero-delay waits and channel wakes, the feedback a livelock is made
    of — count as stalled.  Those are exactly the entries past the
    bucket's length at entry, so the stall count of the entry at position
    ``p`` is ``p - boundary + 1`` and needs no per-activation counter.
    The wall clock is read before every ``wall_check_interval``-th
    activation of the run.
    """

    def __init__(self, kernel, watchdog):
        self.kernel = kernel
        self.horizon = watchdog.max_sim_time
        self.stall_limit = watchdog.max_stalled_activations
        self.wall_budget = watchdog.max_wall_seconds
        self.wall_interval = watchdog.wall_check_interval
        self.deadline = (
            time.perf_counter() + self.wall_budget
            if self.wall_budget is not None else None
        )
        # Activations that may run before the next wall-clock check.
        self.wall_free = self.wall_interval - 1

    def entries(self, when, procs, it):
        """Yield the entries of ``it``, the iterator over the bucket
        ``procs`` at ``when``, in ``islice`` chunks that end where a check
        is due.  Raises when a limit trips at the entry about to run."""
        kernel = self.kernel
        if self.horizon is not None and when > self.horizon:
            self._abort(HorizonExceeded(
                "watchdog: simulated time %.1f passed the horizon %.1f; "
                "unfinished: %s"
                % (when, self.horizon, kernel._unfinished_summary())
            ))
        boundary = len(procs)
        start = 0
        while True:
            pos = len(procs) - length_hint(it)
            self.wall_free -= pos - start
            if pos >= len(procs):
                return
            size = None
            if self.stall_limit is not None:
                size = boundary + self.stall_limit - pos
                if size <= 0:
                    self._livelock(procs, boundary, pos)
            if self.deadline is not None:
                if self.wall_free <= 0:
                    self.wall_free = self.wall_interval
                    if time.perf_counter() > self.deadline:
                        self._abort(WallClockExceeded(
                            "watchdog: run exceeded %.3f s of wall-clock "
                            "time at t=%.1f; unfinished: %s"
                            % (self.wall_budget, kernel.now,
                               kernel._unfinished_summary())
                        ))
                if size is None or self.wall_free < size:
                    size = self.wall_free
            start = pos
            yield from (it if size is None else islice(it, size))

    def _livelock(self, procs, boundary, pos):
        names = []
        for process in islice(procs, boundary, pos + 1):
            if process.name not in names:
                names.append(process.name)
                if len(names) == 8:
                    break
        self._abort(LivelockError(
            "watchdog: livelock suspected — %d activations with no time "
            "progress at t=%.1f; recently active: %s"
            % (pos - boundary + 1, self.kernel.now, ", ".join(names))
        ))

    def _abort(self, error):
        """Stop every process, then raise ``error``; its message names the
        processes still unfinished, so it is built before the stop."""
        self.kernel._shutdown()
        raise error
