"""The kernel's bucket loop vs the heap oracle.

The contract is bit-identity: for any process soup, :class:`Kernel` must
produce the activation order, end time, counters and watchdog errors of
:class:`ReferenceKernel`, the binary heap with a channel-wake ready deque
that the bucket loop replaced.  These tests throw seeded pseudo-random
soups (flat and nested generators, zero-waits interleaved with channel
wake chains, a fifo arbitrated bus whose queued grants wake masters at
release instants) at both kernels and diff the activation logs, cut runs
with ``until`` between and exactly on event times, and pin the
traffic-scale deadlock/watchdog behaviours (summary capping, batch-aware
stall accounting).
"""

import random
import time

import pytest

from repro.simkernel import (
    Bus,
    BusChannel,
    DeadlockError,
    Kernel,
    LivelockError,
    SUMMARY_CAP,
    SimulationError,
    WallClockExceeded,
    Watchdog,
    WatchdogError,
)
from repro.tlm.contention import ArbitratedBus

from .reference_kernel import ReferenceKernel, counters

#: Both kernels by the scheduler name their ``kernel_stats()`` report.
SCHEDULERS = {"heap": ReferenceKernel, "wheel": Kernel}


def _logged(log, name, body):
    """``body`` as a process target that logs ``(now, name)`` at every
    activation, including those inside nested ``yield from`` calls."""

    def target(p):
        inner = body(p)
        while True:
            log.append((p.kernel.now, name))
            try:
                request = inner.send(None)
            except StopIteration:
                return
            yield request

    return target


def _random_soup(kernel, seed, log, n_waiters=24, n_pairs=4, n_nested=2,
                 n_zero_pairs=3, n_masters=5):
    """Deterministically pseudo-random processes: generator waiters with
    zero-wait bursts, channel ping-pong pairs on a timed bus, zero-time
    pairs whose zero-delay waits interleave with channel wakes, masters
    queueing on a fifo arbitrated bus, and stragglers that wait inside a
    nested ``yield from`` call.  The schedules are precomputed from
    ``seed`` so every kernel gets an identical workload.  ``log=None``
    adds the bodies unlogged."""
    rng = random.Random("wheel-soup:%d" % seed)

    def add(name, body):
        kernel.add_process(
            name, body if log is None else _logged(log, name, body))

    for index in range(n_waiters):
        waits = [
            rng.choice((0.0, 1.0, 1.0, 2.0, 5.0, 10.0))
            for _ in range(rng.randrange(3, 12))
        ]

        def waiter(waits=waits):
            def body(p):
                for duration in waits:
                    yield duration
            return body

        add("w%d" % index, waiter())

    bus = Bus(kernel, "soup-bus", cycle_ns=10.0)
    for index in range(n_pairs):
        channel = BusChannel(kernel, "c%d" % index, bus)
        burst = rng.randrange(1, 5)
        gap = rng.choice((0.0, 3.0, 7.0))

        def sender(channel=channel, burst=burst, gap=gap):
            def body(p):
                for value in range(burst):
                    yield from channel.send_gen(p, [value, value + 1])
                    if gap:
                        yield gap
            return body

        def receiver(channel=channel, burst=burst):
            def body(p):
                for _ in range(burst):
                    yield from channel.recv_gen(p, 2)
            return body

        add("s%d" % index, sender())
        add("r%d" % index, receiver())

    for index in range(n_zero_pairs):
        # Bus-less channels: the hops cost no time, so each wake lands in
        # the bucket being drained, between the partners' zero-delay waits.
        channel = BusChannel(kernel, "z%d" % index)
        start = rng.choice((0.0, 1.0, 5.0))
        steps = [rng.choice((0, 0, 1, 2)) for _ in range(rng.randrange(2, 6))]

        def zero_sender(channel=channel, start=start, steps=steps):
            def body(p):
                yield start
                for value, zeros in enumerate(steps):
                    for _ in range(zeros):
                        yield 0.0
                    yield from channel.send_gen(p, [value])
            return body

        def zero_receiver(channel=channel, start=start, steps=steps):
            def body(p):
                yield start
                for zeros in reversed(steps):
                    yield from channel.recv_gen(p, 1)
                    for _ in range(zeros):
                        yield 0.0
            return body

        add("zs%d" % index, zero_sender())
        add("zr%d" % index, zero_receiver())

    arbiter = ArbitratedBus(kernel, "soup-arb", cycle_ns=1.0,
                            arbitration_cycles=1, policy="fifo")
    for index in range(n_masters):
        plan = [(rng.choice((0.0, 1.0, 2.0, 5.0)), rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 5))]

        def master(plan=plan):
            def body(p):
                for gap, words in plan:
                    yield gap
                    yield from arbiter.occupy_gen(p, words)
            return body

        add("m%d" % index, master())

    def nested_wait(duration):
        yield duration

    for index in range(n_nested):
        waits = [rng.choice((1.0, 4.0)) for _ in range(3)]

        def nested(waits=waits):
            def body(p):
                for duration in waits:
                    yield from nested_wait(duration)
            return body

        add("t%d" % index, nested())


def _run_soup(kernel_cls, seed, cuts=(), watchdog=None):
    """Run a soup on a fresh ``kernel_cls``, cut at each of ``cuts`` and
    then to completion.  Returns (ends or the error, log, counters)."""
    kernel = kernel_cls()
    log = []
    _random_soup(kernel, seed, log)
    ends = []
    try:
        for cut in cuts:
            ends.append(kernel.run(until=cut, watchdog=watchdog))
        ends.append(kernel.run(watchdog=watchdog))
    except WatchdogError as exc:
        ends.append((type(exc).__name__, str(exc)))
    return ends, log, counters(kernel.kernel_stats())


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_soup_traces_match(self, seed):
        assert (_run_soup(Kernel, seed)
                == _run_soup(ReferenceKernel, seed))

    def test_many_soups_match(self):
        for seed in range(6, 106):
            assert (_run_soup(Kernel, seed)
                    == _run_soup(ReferenceKernel, seed)), seed

    @pytest.mark.parametrize("seed", range(3))
    def test_until_cut_and_resume_match(self, seed):
        ends, log, stats = _run_soup(Kernel, seed, cuts=(4.5,))
        assert ends[0] == 4.5
        assert (ends, log, stats) == _run_soup(
            ReferenceKernel, seed, cuts=(4.5,))

    @pytest.mark.parametrize("seed", range(4))
    def test_until_cut_on_event_time_matches(self, seed):
        # Cuts on integer times land exactly on pending events, which run
        # before the cut; 0.0 cuts right after the first bucket.
        cuts = (0.0, 1.0, 5.0, 10.0, 20.0)
        ends, log, stats = _run_soup(Kernel, seed, cuts=cuts)
        assert ends[:len(cuts)] == list(cuts)
        assert (ends, log, stats) == _run_soup(
            ReferenceKernel, seed, cuts=cuts)

    def test_resume_after_process_failure_matches(self):
        # A process that raises mid-bucket leaves the rest of the bucket
        # pending; a later run picks it up exactly as the oracle does.
        outcomes = []
        for kernel_cls in SCHEDULERS.values():
            kernel = kernel_cls()
            log = []

            def worker(p):
                for _ in range(3):
                    yield 0.0
                    yield 1.0

            def faulty(p):
                yield 1.0
                yield 0.0
                raise RuntimeError("boom")

            for name in ("a", "b"):
                kernel.add_process(name, _logged(log, name, worker))
            kernel.add_process("bad", _logged(log, "bad", faulty))
            kernel.add_process("c", _logged(log, "c", worker))
            with pytest.raises(SimulationError):
                kernel.run()
            failed_at = len(log)
            end = kernel.run()
            outcomes.append(
                (failed_at, end, log, counters(kernel.kernel_stats())))
        assert outcomes[0] == outcomes[1]

    def test_untraced_counters_match_traced(self):
        # Logging inside the process bodies is invisible to the scheduler:
        # an unlogged soup counts the same activations, events and wakes.
        _, _, logged = _run_soup(Kernel, 1)
        kernel = Kernel()
        _random_soup(kernel, 1, None)
        kernel.run()
        assert counters(kernel.kernel_stats()) == logged


class TestWatchdogParity:
    """The watchdog's chunked drain trips where the oracle's per-activation
    checks trip, with the same message and activation count."""

    def test_spinners_livelock_message(self):
        for kernel_cls in SCHEDULERS.values():
            kernel = kernel_cls()

            def spinner(p):
                while True:
                    yield 0.0

            def bystander(p):
                yield 10.0

            for index in range(3):
                kernel.add_process("spin%d" % index, spinner)
            kernel.add_process("ok", bystander)
            with pytest.raises(LivelockError) as exc_info:
                kernel.run(watchdog=Watchdog(max_stalled_activations=100))
            assert str(exc_info.value).endswith(
                "101 activations with no time progress at t=0.0; "
                "recently active: spin0, spin1, spin2"
            )
            assert kernel.activations == 104

    @pytest.mark.parametrize("seed", range(12))
    def test_soup_watchdog_matches(self, seed):
        # The stall limits trip inside the soups' zero-time bursts on some
        # seeds and not on others, the horizons cut some runs, and a tiny
        # wall-check interval splits every bucket into chunks.
        rng = random.Random("wheel-watchdog:%d" % seed)
        watchdog = Watchdog(
            max_stalled_activations=rng.choice((1, 5, 15, 20, 25, 40)),
            max_wall_seconds=3600.0,
            wall_check_interval=rng.choice((1, 2, 3, 7)),
            max_sim_time=rng.choice((None, 8.0, 30.0, 1000.0)),
        )
        cuts = rng.choice(((), (4.5,), (5.0,)))
        assert (_run_soup(Kernel, seed, cuts=cuts, watchdog=watchdog)
                == _run_soup(ReferenceKernel, seed, cuts=cuts,
                             watchdog=watchdog))

    def test_wall_clock_trips_at_the_same_activation(self, monkeypatch):
        # A fake clock that ticks once per read makes the wall-clock check
        # deterministic: the run reads it at start, when arming, and at
        # every check, so the third check (before activation 21 with
        # interval 7) is the first past a 2.5-tick budget.
        ticks = iter(range(1, 1000))
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        outcomes = []
        for kernel_cls in SCHEDULERS.values():
            kernel = kernel_cls()

            def spinner(p):
                while True:
                    yield 0.0

            kernel.add_process("spin", spinner)
            watchdog = Watchdog(max_wall_seconds=2.5, wall_check_interval=7)
            with pytest.raises(WallClockExceeded) as exc_info:
                kernel.run(watchdog=watchdog)
            outcomes.append((str(exc_info.value), kernel.activations))
            ticks = iter(range(1, 1000))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 20

    def test_generous_watchdog_changes_nothing(self):
        generous = Watchdog(max_stalled_activations=10_000,
                            max_wall_seconds=3600.0, max_sim_time=1e9,
                            wall_check_interval=5)
        for seed in range(4):
            assert (_run_soup(Kernel, seed, watchdog=generous)
                    == _run_soup(Kernel, seed))


class TestDeadlockReporting:
    """The deadlock reporter at ~1k blocked processes."""

    N = 1000

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_thousand_blocked_processes_summarised(self, scheduler):
        kernel = SCHEDULERS[scheduler]()
        bus = Bus(kernel, "b")
        channel = BusChannel(kernel, "starved", bus)

        def body(p):
            yield from channel.recv_gen(p, 1)  # no sender: blocks forever

        for index in range(self.N):
            kernel.add_process("blocked%04d" % index, body)
        with pytest.raises(DeadlockError) as exc_info:
            kernel.run()
        message = str(exc_info.value)
        # The first SUMMARY_CAP processes are named, the rest are a count.
        assert "blocked0000" in message
        assert "blocked%04d" % (SUMMARY_CAP - 1) in message
        assert "blocked%04d" % SUMMARY_CAP not in message
        assert "... and %d more" % (self.N - SUMMARY_CAP) in message
        # The report stays readable, not O(n)-sized.
        assert len(message) < 1200

    def test_ready_queue_mass_wake(self):
        """~1k receivers on one channel woken by a single send drain in the
        oracle's ready-queue order."""
        ends = {}
        for label, kernel_cls in SCHEDULERS.items():
            kernel = kernel_cls()
            bus = Bus(kernel, "b", arbitration_cycles=0)
            channel = BusChannel(kernel, "fanout", bus)
            done = []

            def receiver(index):
                def body(p):
                    yield from channel.recv_gen(p, 1)
                    done.append(index)
                return body

            def sender(p):
                yield 5.0
                yield from channel.send_gen(p, list(range(self.N)))

            for index in range(self.N):
                kernel.add_process("rx%04d" % index, receiver(index))
            kernel.add_process("tx", sender)
            ends[label] = (kernel.run(), tuple(done),
                           counters(kernel.kernel_stats()))
        assert ends["wheel"] == ends["heap"]
        assert len(ends["wheel"][1]) == self.N


class TestBatchStallAccounting:
    """Same-timestamp batches must not inflate the watchdog's stall
    counter, in the kernel's chunked drain or the oracle's per-activation
    checks."""

    N = 200  # well above the stall limit below

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_lockstep_batches_do_not_trip_livelock(self, scheduler):
        kernel = SCHEDULERS[scheduler]()

        def body(p):
            for _ in range(5):
                yield 10.0

        for index in range(self.N):
            kernel.add_process("batch%03d" % index, body)
        watchdog = Watchdog(max_stalled_activations=self.N // 4)
        assert kernel.run(watchdog=watchdog) == 50.0

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_genuine_zero_delay_livelock_still_trips(self, scheduler):
        kernel = SCHEDULERS[scheduler]()

        def spinner(p):
            while True:
                yield 0.0

        def bystander(p):
            yield 10.0

        for index in range(self.N):
            kernel.add_process("spin%03d" % index, spinner)
        kernel.add_process("ok", bystander)
        with pytest.raises(LivelockError) as exc_info:
            kernel.run(watchdog=Watchdog(max_stalled_activations=self.N * 3))
        assert "livelock" in str(exc_info.value)

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_wake_chain_still_counts_toward_stall(self, scheduler):
        """Zero-delay channel feedback (the real livelock shape) is counted
        even though it happens inside one timestamp."""
        kernel = SCHEDULERS[scheduler]()
        # Bus-less channels: the hops cost no simulated time, so the
        # feedback loop spins forever inside one timestamp.
        ping = BusChannel(kernel, "ping")
        pong = BusChannel(kernel, "pong")

        def left(p):
            while True:
                yield from ping.send_gen(p, [1])
                yield from pong.recv_gen(p, 1)

        def right(p):
            while True:
                yield from ping.recv_gen(p, 1)
                yield from pong.send_gen(p, [1])

        kernel.add_process("left", left)
        kernel.add_process("right", right)
        with pytest.raises(LivelockError):
            kernel.run(watchdog=Watchdog(max_stalled_activations=100))
