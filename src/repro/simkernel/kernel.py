"""A small discrete-event simulation kernel — the SystemC substitute.

The paper links annotated C processes with a SystemC wrapper; here the
generated Python processes are linked with this kernel.  Semantics follow
SystemC's cooperative model: exactly one process runs at a time, processes
suspend via ``wait`` (time) or by blocking on a channel, and simulated time
advances only between process activations.

Every process is a :class:`GeneratorProcess`: a Python generator driven by
the scheduling loop in :meth:`Kernel.run`.  The process yields a duration
to wait, or ``None`` when blocked on a channel; resuming it is a plain
``gen.send``.  Channels, buses, the RTOS share and the fault proxies expose
generator operations (``send_gen`` and friends) that compose through
``yield from``, so a process may block at any call depth of generated
code.  Execution is strictly sequential, so results are deterministic.
"""

from __future__ import annotations

import heapq
import inspect
import time
from collections import deque
from itertools import islice


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


#: Process count at or above which ``scheduler="auto"`` switches the kernel
#: from the binary heap to the indexed event wheel.  Below this the heap's
#: C-implemented push/pop wins; above it, traffic-style runs share so many
#: timestamps that bucket draining amortises scheduling to O(1) per event.
WHEEL_THRESHOLD = 64

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

    def _resume(self):
        """Advance the generator to its next suspension point."""
        gen = self._gen
        try:
            request = gen.send(None)
        except StopIteration:
            self.finished = True
            return
        except BaseException as exc:  # noqa: BLE001 - reported to the kernel
            self.finished = True
            self.error = exc
            raise SimulationError(
                "process %r failed: %r" % (self.name, exc)
            ) from exc
        if request is not None:
            if request < 0:
                self.error = SimulationError("cannot wait a negative duration")
                self.finished = True
                gen.close()
                raise SimulationError(
                    "process %r failed: %r" % (self.name, self.error)
                ) from self.error
            self.kernel._schedule(self.kernel.now + request, self)
        # a ``None`` request means blocked on a channel; the channel wakes us

    def _kill(self):
        """Close the generator (simulation is stopping)."""
        if not self.finished:
            self._gen.close()
        self.finished = True

    def __repr__(self):
        state = "finished" if self.finished else (self.blocked_on or "ready")
        return "GeneratorProcess(%r, %s)" % (self.name, state)


class Kernel:
    """The simulation scheduler.

    Two event-queue backends share the ``(when, seq)`` total order:

    * ``"heap"`` — the original binary heap of ``(when, seq, process)``
      tuples.  Optimal for the paper's handful-of-processes designs and the
      default below :data:`WHEEL_THRESHOLD` processes.
    * ``"wheel"`` — an indexed event wheel (calendar queue): a dict of
      per-timestamp buckets plus a small heap of *distinct* timestamps.
      Scheduling an event is a dict lookup and two list appends (no
      per-event tuple), and a whole same-timestamp bucket is drained in one
      tight loop.  Selected by ``scheduler="wheel"``, or automatically at
      :meth:`run` when ``scheduler="auto"`` (the default) and at least
      :data:`WHEEL_THRESHOLD` processes are registered.

    Both backends produce bit-identical activation order; the wheel merely
    changes the wall-clock cost of maintaining it.

    Counters (reset to zero at construction):

    * ``activations`` — process resumptions performed by :meth:`run`;
    * ``events_scheduled`` — timed events pushed on the event queue;
    * ``channel_fastpath_hits`` — channel wakes served from the same-time
      ready queue without touching the event queue;
    * ``buckets_drained`` — distinct-timestamp buckets retired by the
      wheel (zero under the heap).
    """

    def __init__(self, scheduler="auto"):
        if scheduler not in ("auto", "heap", "wheel"):
            raise SimulationError(
                "unknown scheduler %r (choose auto, heap or wheel)"
                % (scheduler,)
            )
        self.now = 0.0
        self.processes = []
        self._queue = []  # heap of (time, seq, process)
        self._ready = deque()  # (seq, process) woken at the current time
        self._seq = 0
        self.trace = None  # optional callable(time, process_name)
        self.activations = 0
        self.events_scheduled = 0
        self.channel_fastpath_hits = 0
        self.buckets_drained = 0
        self.scheduler = scheduler
        self.active_scheduler = None  # decided on first run()
        # Event-wheel state: when -> [proc_list, seq_tags, cursor], a heap
        # of the distinct times with live buckets, and a slab of retired
        # bucket triples recycled to avoid per-timestamp allocation.
        # ``seq_tags`` maps a position in ``proc_list`` to the sequence
        # number the heap would have assigned, and only holds entries
        # scheduled while the ready queue was non-empty — every other
        # entry orders before any wake the merge can encounter, so its
        # number is never needed (see :meth:`_schedule_wheel`).
        self._wheel_buckets = {}
        self._wheel_times = []
        self._wheel_free = []

    def add_process(self, name, target):
        """Register a process; ``target(process)`` must return a generator,
        whose body starts running when the simulation starts.

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
        self._schedule(0.0, process)
        return process

    def _schedule(self, when, process):
        heapq.heappush(self._queue, (when, self._seq, process))
        self._seq += 1
        self.events_scheduled += 1

    def _schedule_wheel(self, when, process):
        """Wheel twin of :meth:`_schedule` (installed as an instance
        attribute by :meth:`_activate_wheel`, shadowing the heap method).

        One heap operation per *distinct* timestamp; within a timestamp,
        append order equals scheduling order, so bucket FIFO order is
        exactly the heap's ``(when, seq)`` order.

        Sequence numbers are materialized lazily: an entry scheduled while
        the ready queue is empty orders *before* every wake still pending
        whenever its bucket is drained (wakes always draw fresh, larger
        numbers), so the merge can treat "no tag" as "bucket entry first"
        and the common push never touches the sequence counter at all.
        Only entries scheduled while a wake is pending record, in the
        bucket's tag map, the number the heap would have assigned.
        """
        self.events_scheduled += 1
        bucket = self._wheel_buckets.get(when)
        if bucket is None:
            free = self._wheel_free
            bucket = free.pop() if free else [[], {}, 0]
            self._wheel_buckets[when] = bucket
            heapq.heappush(self._wheel_times, when)
        procs = bucket[0]
        if self._ready:
            seq = self._seq
            self._seq = seq + 1
            bucket[1][len(procs)] = seq
        procs.append(process)

    def _activate_wheel(self):
        """Switch the event queue from the heap to the wheel.

        Pre-run events (``add_process`` schedules everything at t=0 on the
        heap) migrate bucket-by-bucket in ``(when, seq)`` order — the ready
        queue is empty before the first activation, so none of them needs a
        sequence tag — and a wheel run is bit-identical to the heap run it
        replaces.
        """
        self.active_scheduler = "wheel"
        buckets = self._wheel_buckets
        times = self._wheel_times
        for when, _seq, process in sorted(self._queue):
            bucket = buckets.get(when)
            if bucket is None:
                bucket = [[], {}, 0]
                buckets[when] = bucket
                times.append(when)
            bucket[0].append(process)
        del self._queue[:]
        heapq.heapify(times)
        self._schedule = self._schedule_wheel

    def _wake(self, process):
        """Make a channel-blocked process runnable at the current time.

        The wake lands on a FIFO ready queue instead of the heap: a wake is
        always for ``now``, and its sequence number is larger than that of
        any event already queued, so FIFO order relative to the heap head is
        exactly the order a heap push would have produced.
        """
        process.blocked_on = None
        self._ready.append((self._seq, process))
        self._seq += 1
        self.channel_fastpath_hits += 1

    def kernel_stats(self):
        """Snapshot of the scheduler counters (a plain dict)."""
        return {
            "activations": self.activations,
            "events_scheduled": self.events_scheduled,
            "channel_fastpath_hits": self.channel_fastpath_hits,
            "buckets_drained": self.buckets_drained,
            "scheduler": self.active_scheduler or self.scheduler,
        }

    def run(self, until=None, watchdog=None):
        """Run until no events remain (or simulated time exceeds ``until``).

        Returns the final simulation time.  Raises :class:`DeadlockError` if
        unfinished processes remain blocked with no pending event.  When the
        ``until`` horizon cuts the run short, the first over-horizon event is
        requeued and processes stay suspended, so a later ``run()`` resumes
        the simulation exactly where it stopped.

        ``watchdog`` (a :class:`Watchdog`) arms wall-clock / sim-horizon /
        livelock limits; each fires as a structured :class:`WatchdogError`
        naming the unfinished processes.  With no watchdog the scheduling
        loop is exactly the unguarded fast path.
        """
        if self.active_scheduler is None:
            if self.scheduler == "wheel" or (
                self.scheduler == "auto"
                and len(self.processes) >= WHEEL_THRESHOLD
            ):
                self._activate_wheel()
            else:
                self.active_scheduler = "heap"
        start_activations = self.activations
        start_events = self.events_scheduled
        start_fastpath = self.channel_fastpath_hits
        start_time = self.now
        wall_start = time.perf_counter()
        try:
            if self.active_scheduler == "wheel":
                if watchdog is None:
                    cut = self._run_loop_wheel(until)
                else:
                    cut = self._run_loop_wheel_guarded(until, watchdog)
            elif watchdog is None:
                cut = self._run_loop(until)
            else:
                cut = self._run_loop_guarded(until, watchdog)
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

    def _run_loop(self, until):
        """The unguarded scheduling loop; True when cut by ``until``.

        Heap and deque operations are bound to locals: this loop runs once
        per process activation, and the attribute lookups are measurable on
        sweep-sized runs.  ``self.now`` stays an attribute — processes read
        ``kernel.now`` mid-activation.
        """
        queue = self._queue
        ready = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        pop_ready = ready.popleft
        while queue or ready:
            if ready and (
                not queue
                or queue[0][0] > self.now
                or (queue[0][0] == self.now and queue[0][1] > ready[0][0])
            ):
                _, process = pop_ready()
            else:
                when, seq, process = heappop(queue)
                if until is not None and when > until:
                    heappush(queue, (when, seq, process))
                    self.now = until
                    return True
                self.now = when
            if process.finished:
                continue
            if self.trace is not None:
                self.trace(self.now, process.name)
            self.activations += 1
            process._resume()
        return False

    def _run_loop_wheel(self, until):
        """The unguarded wheel loop; True when cut by ``until``.

        While no channel wakes are pending, a whole same-timestamp bucket
        drains in one tight loop: ``self.now`` is written once per bucket,
        there is no per-event horizon or head comparison, and generator
        processes are advanced inline (``gen.send`` plus a direct bucket
        append) without the ``_resume``/``_schedule`` call pair.  When a
        wake lands on the ready queue, the loop falls back to merging the
        bucket remainder with the ready queue by sequence number — the
        exact ``(when, seq)`` order the heap loop produces.
        """
        buckets = self._wheel_buckets
        times = self._wheel_times
        free = self._wheel_free
        ready = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        pop_ready = ready.popleft
        buckets_get = buckets.get
        trace = self.trace
        activations = 0
        scheduled = 0
        drained = 0
        # Push cache: traffic-style lockstep means consecutive events of one
        # bucket usually wait the same duration, so they land in the same
        # target bucket — cache its append method and skip the dict lookup.
        # Invalidated (sentinel; simulated time is never negative) whenever
        # a bucket is retired, since its lists go back to the slab.
        last_when = -1.0
        last_push = None
        try:
            while times or ready:
                if ready:
                    # Merge channel wakes with the current bucket: an
                    # untagged bucket entry was scheduled before any wake
                    # still in the ready queue, so it goes first; a tagged
                    # entry carries the sequence number to compare.
                    if times:
                        t0 = times[0]
                        if t0 == self.now:
                            bucket = buckets[t0]
                            procs = bucket[0]
                            cur = bucket[2]
                            if cur >= len(procs):
                                heappop(times)
                                del buckets[t0]
                                del procs[:]
                                bucket[1].clear()
                                bucket[2] = 0
                                free.append(bucket)
                                drained += 1
                                last_when = -1.0
                                continue
                            tag = bucket[1].get(cur)
                            if tag is None or tag < ready[0][0]:
                                bucket[2] = cur + 1
                                process = procs[cur]
                                if process.finished:
                                    continue
                                if trace is not None:
                                    trace(t0, process.name)
                                activations += 1
                                process._resume()
                                continue
                    _, process = pop_ready()
                    if process.finished:
                        continue
                    if trace is not None:
                        trace(self.now, process.name)
                    activations += 1
                    process._resume()
                    continue
                # Ready queue empty: advance to the next bucket and drain it.
                t = times[0]
                bucket = buckets[t]
                procs = bucket[0]
                cur = bucket[2]
                if cur >= len(procs):
                    heappop(times)
                    del buckets[t]
                    del procs[:]
                    bucket[1].clear()
                    bucket[2] = 0
                    free.append(bucket)
                    drained += 1
                    last_when = -1.0
                    continue
                if until is not None and t > until:
                    self.now = until
                    return True
                self.now = t
                if trace is not None:
                    # Traced runs pay a callback per activation anyway, so
                    # keep the fast drain trace-free and use the plain
                    # resume path here.
                    n_events = len(procs)
                    while cur < n_events:
                        process = procs[cur]
                        cur += 1
                        if process.finished:
                            continue
                        trace(t, process.name)
                        activations += 1
                        process._resume()
                        n_events = len(procs)
                        if ready:
                            break
                    bucket[2] = cur
                    continue
                cur0 = cur
                # The iterator picks up same-bucket 0-wait appends on its
                # own, so no bound/refresh bookkeeping is needed, and a
                # finished process is caught by the StopIteration arm of
                # the send (an exhausted generator re-raises it), so the
                # hot path carries no ``finished`` test either.
                for process in islice(procs, cur, None):
                    cur += 1
                    # Inline GeneratorProcess._resume + the wheel push: the
                    # call pair dominates drain cost at traffic scale.
                    gen = process._gen
                    try:
                        request = gen.send(None)
                    except StopIteration:
                        process.finished = True
                        continue
                    except BaseException as exc:  # noqa: BLE001
                        bucket[2] = cur
                        activations += cur - cur0
                        cur0 = cur
                        process.finished = True
                        process.error = exc
                        raise SimulationError(
                            "process %r failed: %r" % (process.name, exc)
                        ) from exc
                    if request is not None:
                        if request < 0:
                            bucket[2] = cur
                            activations += cur - cur0
                            cur0 = cur
                            error = SimulationError(
                                "cannot wait a negative duration"
                            )
                            process.error = error
                            process.finished = True
                            gen.close()
                            raise SimulationError(
                                "process %r failed: %r"
                                % (process.name, error)
                            ) from error
                        when = t + request
                        scheduled += 1
                        if ready:
                            # A wake landed during this activation, so the
                            # push needs a sequence tag for the merge to
                            # order it after the wake; fall out of the
                            # drain afterwards.
                            seq = self._seq
                            self._seq = seq + 1
                            nbucket = buckets_get(when)
                            if nbucket is None:
                                nbucket = free.pop() if free else [[], {}, 0]
                                buckets[when] = nbucket
                                heappush(times, when)
                            nbucket[1][len(nbucket[0])] = seq
                            nbucket[0].append(process)
                            last_when = -1.0
                            break
                        if when == last_when:
                            last_push(process)
                        else:
                            nbucket = buckets_get(when)
                            if nbucket is None:
                                nbucket = free.pop() if free else [[], {}, 0]
                                buckets[when] = nbucket
                                heappush(times, when)
                            last_when = when
                            last_push = nbucket[0].append
                            last_push(process)
                    elif ready:
                        break
                bucket[2] = cur
                # Every drained event is one activation; counting
                # arithmetically keeps the hot loop one increment shorter.
                activations += cur - cur0
            return False
        finally:
            self.activations += activations
            self.events_scheduled += scheduled
            self.buckets_drained += drained

    def _run_loop_wheel_guarded(self, until, watchdog):
        """The wheel loop with watchdog checks woven in.

        Per-activation checks make inline bucket draining pointless here, so
        this is a straight merge loop; it still benefits from the wheel's
        cheap scheduling.  Stall accounting is batch-aware (see
        :meth:`_run_loop_guarded` — the rule is shared by both schedulers).
        """
        buckets = self._wheel_buckets
        times = self._wheel_times
        free = self._wheel_free
        ready = self._ready
        heappop = heapq.heappop
        horizon = watchdog.max_sim_time
        stall_limit = watchdog.max_stalled_activations
        wall_budget = watchdog.max_wall_seconds
        wall_interval = watchdog.wall_check_interval
        wall_deadline = (
            time.perf_counter() + wall_budget
            if wall_budget is not None else None
        )
        wall_countdown = wall_interval
        last_progress_time = self.now
        # Batch accounting is positional here: at a time advance the
        # current bucket's length marks the pre-advance batch, and an
        # activation is exempt from the stall count exactly when it comes
        # from below that mark (wheel entries do not all carry sequence
        # numbers — see :meth:`_schedule_wheel` — but position in the
        # bucket encodes the same scheduled-before-the-advance fact).
        batch_bucket = None
        batch_boundary = 0
        if times and times[0] == self.now:
            # Events already pending at the current time (the t=0 arrivals
            # of a fresh run, or a resumed run's bucket) predate this run —
            # the heap loop exempts them via its initial sequence limit.
            batch_bucket = buckets[times[0]]
            batch_boundary = len(batch_bucket[0])
        stalled = 0
        stall_names = []
        drained = 0
        activations = 0
        try:
            while times or ready:
                from_batch = False
                if times:
                    t0 = times[0]
                    bucket = buckets[t0]
                    cur = bucket[2]
                    if cur >= len(bucket[0]):
                        heappop(times)
                        del buckets[t0]
                        del bucket[0][:]
                        bucket[1].clear()
                        bucket[2] = 0
                        free.append(bucket)
                        drained += 1
                        if bucket is batch_bucket:
                            # The slab recycles bucket triples; a later
                            # bucket at the same timestamp must not pass
                            # the identity test below.
                            batch_bucket = None
                        continue
                    tag = bucket[1].get(cur) if ready else None
                    if ready and (
                        t0 > self.now
                        or (tag is not None and tag > ready[0][0])
                    ):
                        _, process = ready.popleft()
                    else:
                        if until is not None and t0 > until:
                            self.now = until
                            return True
                        bucket[2] = cur + 1
                        process = bucket[0][cur]
                        self.now = t0
                        from_batch = (
                            bucket is batch_bucket and cur < batch_boundary
                        )
                else:
                    _, process = ready.popleft()
                if process.finished:
                    continue
                if horizon is not None and self.now > horizon:
                    self._shutdown()
                    raise HorizonExceeded(
                        "watchdog: simulated time %.1f passed the horizon "
                        "%.1f; unfinished: %s"
                        % (self.now, horizon, self._unfinished_summary())
                    )
                if stall_limit is not None:
                    if self.now != last_progress_time:
                        last_progress_time = self.now
                        stalled = 0
                        del stall_names[:]
                        batch_bucket = bucket
                        batch_boundary = len(bucket[0])
                    elif not from_batch:
                        stalled += 1
                        if len(stall_names) < 8 and (
                            process.name not in stall_names
                        ):
                            stall_names.append(process.name)
                        if stalled > stall_limit:
                            self._shutdown()
                            raise LivelockError(
                                "watchdog: livelock suspected — %d "
                                "activations with no time progress at "
                                "t=%.1f; recently active: %s"
                                % (stalled, self.now, ", ".join(stall_names))
                            )
                if wall_deadline is not None:
                    wall_countdown -= 1
                    if wall_countdown <= 0:
                        wall_countdown = wall_interval
                        if time.perf_counter() > wall_deadline:
                            self._shutdown()
                            raise WallClockExceeded(
                                "watchdog: run exceeded %.3f s of wall-clock "
                                "time at t=%.1f; unfinished: %s"
                                % (wall_budget, self.now,
                                   self._unfinished_summary())
                            )
                if self.trace is not None:
                    self.trace(self.now, process.name)
                activations += 1
                process._resume()
            return False
        finally:
            self.activations += activations
            self.buckets_drained += drained

    def _run_loop_guarded(self, until, watchdog):
        """The scheduling loop with watchdog checks woven in.

        Kept separate from :meth:`_run_loop` so simulations that do not arm
        a watchdog pay nothing for it (this is the repo's hottest loop).

        Stall accounting is *batch-aware*: when simulated time advances, the
        current sequence counter is recorded, and activations of events
        scheduled before that instant (the batch that was already pending
        for this timestamp — e.g. hundreds of traffic arrivals landing on
        one cycle) do not count toward the livelock limit.  Only wakes and
        events scheduled *at* the current time — the actual zero-delay
        feedback a livelock is made of — increment the counter.  Both
        schedulers share this rule, so a limit tuned on one holds on the
        other.
        """
        queue = self._queue
        ready = self._ready
        horizon = watchdog.max_sim_time
        stall_limit = watchdog.max_stalled_activations
        wall_budget = watchdog.max_wall_seconds
        wall_interval = watchdog.wall_check_interval
        wall_deadline = (
            time.perf_counter() + wall_budget
            if wall_budget is not None else None
        )
        wall_countdown = wall_interval
        last_progress_time = self.now
        batch_seq_limit = self._seq
        stalled = 0
        stall_names = []
        while queue or ready:
            if ready and (
                not queue
                or queue[0][0] > self.now
                or (queue[0][0] == self.now and queue[0][1] > ready[0][0])
            ):
                seq, process = ready.popleft()
            else:
                when, seq, process = heapq.heappop(queue)
                if until is not None and when > until:
                    heapq.heappush(queue, (when, seq, process))
                    self.now = until
                    return True
                self.now = when
            if process.finished:
                continue
            if horizon is not None and self.now > horizon:
                self._shutdown()
                raise HorizonExceeded(
                    "watchdog: simulated time %.1f passed the horizon %.1f; "
                    "unfinished: %s"
                    % (self.now, horizon, self._unfinished_summary())
                )
            if stall_limit is not None:
                if self.now != last_progress_time:
                    last_progress_time = self.now
                    stalled = 0
                    del stall_names[:]
                    batch_seq_limit = self._seq
                elif seq >= batch_seq_limit:
                    stalled += 1
                    if len(stall_names) < 8 and (
                        process.name not in stall_names
                    ):
                        stall_names.append(process.name)
                    if stalled > stall_limit:
                        self._shutdown()
                        raise LivelockError(
                            "watchdog: livelock suspected — %d activations "
                            "with no time progress at t=%.1f; recently "
                            "active: %s"
                            % (stalled, self.now, ", ".join(stall_names))
                        )
            if wall_deadline is not None:
                wall_countdown -= 1
                if wall_countdown <= 0:
                    wall_countdown = wall_interval
                    if time.perf_counter() > wall_deadline:
                        self._shutdown()
                        raise WallClockExceeded(
                            "watchdog: run exceeded %.3f s of wall-clock "
                            "time at t=%.1f; unfinished: %s"
                            % (wall_budget, self.now,
                               self._unfinished_summary())
                        )
            if self.trace is not None:
                self.trace(self.now, process.name)
            self.activations += 1
            process._resume()
        return False

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
        """Close every still-running process."""
        for process in self.processes:
            if not process.finished:
                process._kill()
