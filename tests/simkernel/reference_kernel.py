"""The binary-heap scheduler, kept as a test oracle.

This is the event queue :class:`repro.simkernel.Kernel` replaced with one
loop over per-timestamp buckets: a heap of ``(when, seq, process)`` tuples
plus a FIFO ready deque for channel wakes, merged by sequence number, with
the watchdog checked once per activation in a separate guarded loop.  It
shares everything else with the production kernel (process registration,
counters, deadlock and watchdog reports), so the differential tests can
require identical activation order, end times, counters and errors from
both.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

from repro.simkernel import (
    HorizonExceeded,
    Kernel,
    LivelockError,
    SimulationError,
    WallClockExceeded,
)


#: The :meth:`Kernel.kernel_stats` counters both kernels must agree on.
COUNTERS = ("activations", "events_scheduled", "channel_fastpath_hits")


def counters(kernel_stats):
    """The :data:`COUNTERS` of a ``kernel_stats`` dict, as a tuple."""
    return tuple(kernel_stats[key] for key in COUNTERS)


def _resume(kernel, process):
    """Advance ``process`` to its next suspension point."""
    gen = process._gen
    try:
        request = gen.send(None)
    except StopIteration:
        process.finished = True
        return
    except BaseException as exc:  # noqa: BLE001 - reported to the kernel
        process.finished = True
        process.error = exc
        raise SimulationError(
            "process %r failed: %r" % (process.name, exc)
        ) from exc
    if request is not None:
        if not request >= 0:
            process.error = SimulationError("cannot wait a negative duration")
            process.finished = True
            gen.close()
            raise SimulationError(
                "process %r failed: %r" % (process.name, process.error)
            ) from process.error
        kernel._schedule(kernel.now + request, process)
    # a ``None`` request means blocked on a channel; the channel wakes us


class ReferenceKernel(Kernel):
    """The heap-and-ready-deque scheduler (see the module docstring)."""

    active_scheduler = "heap"

    def __init__(self):
        super().__init__()
        self._queue = []  # heap of (time, seq, process)
        self._ready = deque()  # (seq, process) woken at the current time
        self._seq = 0

    def _schedule(self, when, process):
        heapq.heappush(self._queue, (when, self._seq, process))
        self._seq += 1
        self.events_scheduled += 1

    def _wake(self, process):
        """A wake is always for ``now`` and draws a larger sequence number
        than any queued event, so FIFO order on the ready deque is the
        order a heap push would have produced."""
        process.blocked_on = None
        self._ready.append((self._seq, process))
        self._seq += 1
        self.channel_fastpath_hits += 1

    def _shutdown(self):
        super()._shutdown()
        del self._queue[:]
        self._ready.clear()

    def _event_loop(self, until, watchdog):
        if watchdog is None:
            return self._run_plain(until)
        return self._run_guarded(until, watchdog)

    def _next(self, until):
        """Pop the next ``(seq, process)`` in ``(when, seq)`` order, or
        ``None`` when cut by ``until`` (the event stays queued)."""
        queue = self._queue
        ready = self._ready
        if ready and (
            not queue
            or queue[0][0] > self.now
            or (queue[0][0] == self.now and queue[0][1] > ready[0][0])
        ):
            return ready.popleft()
        when, seq, process = heapq.heappop(queue)
        if until is not None and when > until:
            heapq.heappush(queue, (when, seq, process))
            self.now = until
            return None
        self.now = when
        return seq, process

    def _run_plain(self, until):
        while self._queue or self._ready:
            entry = self._next(until)
            if entry is None:
                return True
            process = entry[1]
            if process.finished:
                continue
            self.activations += 1
            _resume(self, process)
        return False

    def _run_guarded(self, until, watchdog):
        """Watchdog checks per activation.  Stall accounting is batch-aware:
        at a time advance the sequence counter is recorded, and events
        scheduled before that instant do not count toward the limit."""
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
        while self._queue or self._ready:
            entry = self._next(until)
            if entry is None:
                return True
            seq, process = entry
            if process.finished:
                continue
            if horizon is not None and self.now > horizon:
                error = HorizonExceeded(
                    "watchdog: simulated time %.1f passed the horizon %.1f; "
                    "unfinished: %s"
                    % (self.now, horizon, self._unfinished_summary())
                )
                self._shutdown()
                raise error
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
                        error = WallClockExceeded(
                            "watchdog: run exceeded %.3f s of wall-clock "
                            "time at t=%.1f; unfinished: %s"
                            % (wall_budget, self.now,
                               self._unfinished_summary())
                        )
                        self._shutdown()
                        raise error
            self.activations += 1
            _resume(self, process)
        return False
