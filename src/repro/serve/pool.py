"""The resident supervised worker pool behind the serve daemon.

:func:`repro.parallel.fork_map` builds a pool per sweep; a daemon cannot —
process startup is exactly the cost serving exists to amortise.  This
module keeps ``workers`` forked processes *resident*: each inherits the
parent's warm in-memory artifact store copy-on-write at spawn time, warms
its own caches further with every request it executes, and talks to the
parent over a dedicated ``multiprocessing`` pipe.

Supervision contract (the robustness half of the tentpole):

* a worker that dies — SIGKILL, OOM, a segfaulting native extension —
  loses only its in-flight request.  The supervisor respawns the worker
  with jittered exponential backoff (:mod:`repro.backoff`, the same
  helper the sweep pool-rebuild path uses) and retries *only the lost
  request*, up to ``crash_retries`` times, mirroring ``explore``'s
  ``BrokenProcessPool`` recovery;
* a request that overruns its deadline is aborted *inside* the worker by
  a SIGALRM that surfaces as the watchdog's
  :class:`~repro.simkernel.WallClockExceeded`; if the worker is wedged in
  a way SIGALRM cannot reach, the supervisor kills it after a grace
  period and reports the same error — deadlines are never best-effort;
* requests are deterministic CLI invocations (pure compute + idempotent
  cache writes), so a retried request returns the identical response.

Each worker slot is owned by one attendant thread in the daemon process;
slots pull work items off a shared queue, so a restarting slot never
blocks the others.
"""

from __future__ import annotations

import io
import queue
import signal
import threading
import time
from concurrent import futures as _futures

import multiprocessing

from ..backoff import jittered_backoff
from ..errors import (
    ProtocolError,
    ServeError,
    WorkerCrashedError,
    error_to_json,
)

_SHUTDOWN = object()

#: Consecutive failed *spawn* attempts per slot before giving up on an
#: item (distinct from crash retries — this is "fork itself fails").
SPAWN_ATTEMPTS = 5


class _DeadlineSignal(BaseException):
    """Raised by the worker's SIGALRM handler.

    Deliberately a ``BaseException``: the CLI's taxonomy handler catches
    ``ReproError`` inside the request, and a deadline overrun must abort
    the *request*, not become part of its output.
    """


def _on_alarm(signum, frame):
    raise _DeadlineSignal()


def _worker_main(conn, parent_ends):
    """Body of one resident worker process (runs until EOF/shutdown).

    ``parent_ends`` are the daemon-side pipe ends the fork inherited (this
    worker's own and its siblings').  Closing them leaves the daemon the
    only holder, so when it dies ``conn.recv()`` sees EOF and the worker
    exits instead of outliving it.
    """
    for end in parent_ends:
        end.close()
    # The fork inherits the daemon's signal wiring; a worker must die to
    # SIGTERM normally and must not write to the parent's wakeup fd.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGALRM, _on_alarm)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "shutdown":
            break
        _, kind, argv, deadline = message
        try:
            reply = _execute(kind, argv, deadline)
        except BaseException as exc:  # never die to a request
            reply = {"ok": False, "error": error_to_json(exc)}
        try:
            conn.send(("result", reply))
        except (BrokenPipeError, OSError):
            break


def _execute(kind, argv, deadline):
    """Run one request through the one-shot CLI path, bounded by SIGALRM.

    The reply's ``output``/``exit_code`` are bit-identical to ``python -m
    repro <kind> <argv...>`` because they *are* that invocation —
    including the CLI's own taxonomy handling (a bad PUM file replies
    ``ok`` with exit code 2 and the CLI's ``error:`` line, exactly like
    the one-shot run).  Only serve-level failures (deadline, argparse
    bailing out, an unstructured crash) become ``ok: false`` replies.
    """
    from .. import cli
    from ..artifacts import default_store
    from ..simkernel import WallClockExceeded, sim_totals_snapshot

    store = default_store()
    corrupt_before = store.corrupt_entries() if store is not None else 0
    sim_before = sim_totals_snapshot()
    out = io.StringIO()
    start = time.perf_counter()
    if deadline is not None:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        exit_code = cli.main([kind] + list(argv), out=out)
    except _DeadlineSignal:
        return {"ok": False, "error": error_to_json(WallClockExceeded(
            "request exceeded its %.3f s deadline" % deadline
        ))}
    except SystemExit as exc:
        message = (exc.code if isinstance(exc.code, str)
                   else "argument parsing failed (exit %r)" % (exc.code,))
        return {"ok": False, "error": error_to_json(ProtocolError(message))}
    except Exception as exc:
        return {"ok": False, "error": error_to_json(exc)}
    finally:
        if deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    from ..simkernel import sim_totals_delta

    corrupt_after = store.corrupt_entries() if store is not None else 0
    return {
        "ok": True,
        "exit_code": exit_code,
        "output": out.getvalue(),
        "wall_seconds": time.perf_counter() - start,
        "corrupt_delta": corrupt_after - corrupt_before,
        # What this request's simulations did to the worker's kernel and
        # contention totals; the daemon aggregates these for /stats.
        "sim_delta": sim_totals_delta(sim_before),
    }


class _WorkItem:
    __slots__ = ("kind", "argv", "deadline", "future", "attempts")

    def __init__(self, kind, argv, deadline):
        self.kind = kind
        self.argv = list(argv)
        self.deadline = deadline
        self.future = _futures.Future()
        self.attempts = 0  # completed executions lost to worker crashes

    def resolve(self, reply):
        if not self.future.done():
            self.future.set_result(reply)

    def fail(self, exc):
        self.resolve({"ok": False, "error": error_to_json(exc)})


class _WorkerHandle:
    __slots__ = ("process", "conn", "served", "crash_streak")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.served = 0
        self.crash_streak = 0


class WorkerPool:
    """``workers`` resident supervised processes behind one work queue.

    Thread-safe producer API: :meth:`submit` returns a
    ``concurrent.futures.Future`` resolving to a reply dict (see
    :mod:`repro.serve.protocol`); the future never raises — every failure
    mode becomes a structured ``ok: false`` reply.
    """

    def __init__(self, workers=2, crash_retries=2, restart_backoff=0.1,
                 backoff_cap=5.0, deadline_grace=2.0, rng=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:
            raise ServeError(
                "the serve worker pool needs a fork-capable platform"
            ) from None
        self.workers = workers
        self.crash_retries = crash_retries
        self.restart_backoff = restart_backoff
        self.backoff_cap = backoff_cap
        self.deadline_grace = deadline_grace
        self.rng = rng
        self._queue = queue.Queue()
        self._slots = [None] * workers
        self._threads = []
        self._stopping = False
        self._lock = threading.Lock()
        self._counters = {
            "served": 0,
            "retries": 0,
            "restarts": 0,
            "deadline_kills": 0,
            "crash_failures": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Spawn the initial workers and their attendant threads."""
        for slot in range(self.workers):
            self._slots[slot] = self._spawn()
        for slot in range(self.workers):
            thread = threading.Thread(
                target=self._attend, args=(slot,),
                name="repro-serve-worker-%d" % slot, daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self):
        """Kill workers and stop attendants; pending items get error
        replies.  (Graceful drain is the daemon's job — it stops feeding
        the queue and waits for in-flight futures first.)"""
        self._stopping = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for handle in self._slots:
            if handle is not None:
                self._kill(handle)
        for thread in self._threads:
            thread.join(timeout=5.0)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                item.fail(ServeError("daemon is shutting down"))

    # -- producer API --------------------------------------------------------

    def submit(self, kind, argv, deadline=None):
        """Queue one request; returns its reply future."""
        item = _WorkItem(kind, argv, deadline)
        if self._stopping:
            item.fail(ServeError("daemon is shutting down"))
        else:
            self._queue.put(item)
        return item.future

    def stats(self):
        with self._lock:
            counters = dict(self._counters)
        counters["workers"] = [
            {
                "pid": handle.process.pid,
                "alive": handle.process.is_alive(),
                "served": handle.served,
            }
            for handle in self._slots if handle is not None
        ]
        return counters

    def worker_pids(self):
        """PIDs of the live resident workers (chaos harness hook)."""
        return [
            handle.process.pid
            for handle in self._slots
            if handle is not None and handle.process.is_alive()
        ]

    def _count(self, key, delta=1):
        with self._lock:
            self._counters[key] += delta

    # -- supervision ---------------------------------------------------------

    def _spawn(self):
        parent_conn, child_conn = self._mp.Pipe()
        parent_ends = [parent_conn] + [
            handle.conn for handle in self._slots if handle is not None
        ]
        process = self._mp.Process(
            target=_worker_main, args=(child_conn, parent_ends), daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _kill(self, handle):
        try:
            handle.process.kill()
        except (OSError, AttributeError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass

    def _retire(self, slot, crashed=True):
        """Drop the slot's worker (it is dead or being killed)."""
        handle = self._slots[slot]
        if handle is None:
            return 0
        self._kill(handle)
        self._slots[slot] = None
        return handle.crash_streak + 1 if crashed else 0

    def _ensure_worker(self, slot, crash_streak=0):
        """The slot's live worker, respawning with jittered backoff.

        ``crash_streak`` seeds the backoff ladder so a slot whose workers
        keep dying waits exponentially longer between restarts.  Returns
        ``None`` only when spawning itself keeps failing or the pool is
        stopping.
        """
        handle = self._slots[slot]
        if handle is not None and handle.process.is_alive():
            return handle
        if handle is not None:
            crash_streak = max(crash_streak, self._retire(slot))
        for attempt in range(SPAWN_ATTEMPTS):
            if self._stopping:
                return None
            delay = jittered_backoff(
                self.restart_backoff, crash_streak + attempt,
                cap=self.backoff_cap, rng=self.rng,
            )
            if delay and (crash_streak or attempt):
                time.sleep(delay)
            try:
                handle = self._spawn()
            except OSError:
                continue
            handle.crash_streak = crash_streak
            self._slots[slot] = handle
            self._count("restarts")
            return handle
        return None

    def _attend(self, slot):
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            self._run_item(slot, item)

    def _run_item(self, slot, item):
        """Drive one item to a reply, surviving worker deaths."""
        from ..simkernel import WallClockExceeded

        while not self._stopping:
            handle = self._ensure_worker(
                slot, crash_streak=min(item.attempts, 8),
            )
            if handle is None:
                item.fail(WorkerCrashedError(
                    "no worker could be started for the request"
                ))
                return
            try:
                handle.conn.send(
                    ("request", item.kind, item.argv, item.deadline)
                )
            except (BrokenPipeError, OSError):
                # Died idle, between requests: not this item's fault —
                # respawn and resend without charging a retry.
                self._retire(slot)
                continue
            budget = (
                None if item.deadline is None
                else item.deadline + self.deadline_grace
            )
            try:
                ready = handle.conn.poll(budget)
            except (BrokenPipeError, OSError):
                ready = True  # fall through to recv -> EOFError path
            if not ready:
                # Wedged beyond SIGALRM's reach (e.g. a blocking C call):
                # the supervisor enforces the deadline from outside.
                self._retire(slot)
                self._count("deadline_kills")
                item.fail(WallClockExceeded(
                    "request exceeded its %.3f s deadline "
                    "(worker killed after %.1f s grace)"
                    % (item.deadline, self.deadline_grace)
                ))
                return
            try:
                _, reply = handle.conn.recv()
            except (EOFError, OSError):
                self._retire(slot)
                item.attempts += 1
                if item.attempts > self.crash_retries:
                    self._count("crash_failures")
                    item.fail(WorkerCrashedError(
                        "worker died executing the request "
                        "(%d attempts)" % item.attempts
                    ))
                    return
                self._count("retries")
                continue
            handle.served += 1
            handle.crash_streak = 0
            self._count("served")
            item.resolve(reply)
            return
        item.fail(ServeError("daemon is shutting down"))
