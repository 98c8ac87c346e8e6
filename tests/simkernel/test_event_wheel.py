"""The indexed event-wheel scheduler vs the binary heap.

The contract is bit-identity: for any process soup, the wheel must produce
the heap's exact activation trace, end time and counters — the wheel is a
wall-clock optimisation, never a semantics change.  These tests throw
seeded pseudo-random soups (flat and nested generators, zero-waits,
channel wake chains) at both schedulers and diff the traces, then pin the auto-selection
lifecycle, the ``until`` resumption behaviour, and the traffic-scale
deadlock/watchdog behaviours that ride on the wheel (summary capping,
batch-aware stall accounting).
"""

import random

import pytest

from repro.simkernel import (
    Bus,
    BusChannel,
    DeadlockError,
    Kernel,
    LivelockError,
    SUMMARY_CAP,
    WHEEL_THRESHOLD,
    Watchdog,
)


def _random_soup(kernel, seed, n_waiters=24, n_pairs=4, n_nested=2):
    """Deterministically pseudo-random processes: generator waiters with
    zero-wait bursts, channel ping-pong pairs, and stragglers that wait
    inside a nested ``yield from`` call.
    The schedules are precomputed from ``seed`` so every kernel gets an
    identical workload."""
    rng = random.Random("wheel-soup:%d" % seed)

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

        kernel.add_process("w%d" % index, waiter())

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

        kernel.add_process("s%d" % index, sender())
        kernel.add_process("r%d" % index, receiver())

    def nested_wait(duration):
        yield duration

    for index in range(n_nested):
        waits = [rng.choice((1.0, 4.0)) for _ in range(3)]

        def nested(waits=waits):
            def body(p):
                for duration in waits:
                    yield from nested_wait(duration)
            return body

        kernel.add_process("t%d" % index, nested())


def _run_traced(scheduler, seed, until=None):
    kernel = Kernel(scheduler=scheduler)
    trace = []
    kernel.trace = lambda when, name: trace.append((when, name))
    _random_soup(kernel, seed)
    end = kernel.run(until=until)
    return end, trace, kernel.kernel_stats()


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_soup_traces_match(self, seed):
        heap_end, heap_trace, heap_stats = _run_traced("heap", seed)
        wheel_end, wheel_trace, wheel_stats = _run_traced("wheel", seed)
        assert heap_end == wheel_end
        assert heap_trace == wheel_trace
        assert heap_stats["activations"] == wheel_stats["activations"]
        assert (heap_stats["events_scheduled"]
                == wheel_stats["events_scheduled"])
        assert (heap_stats["channel_fastpath_hits"]
                == wheel_stats["channel_fastpath_hits"])

    @pytest.mark.parametrize("seed", range(3))
    def test_until_cut_and_resume_match(self, seed):
        ends = {}
        traces = {}
        for scheduler in ("heap", "wheel"):
            kernel = Kernel(scheduler=scheduler)
            trace = []
            kernel.trace = lambda when, name, t=trace: t.append((when, name))
            _random_soup(kernel, seed)
            cut_end = kernel.run(until=4.5)
            assert cut_end == 4.5
            ends[scheduler] = kernel.run()
            traces[scheduler] = trace
        assert ends["heap"] == ends["wheel"]
        assert traces["heap"] == traces["wheel"]

    def test_untraced_counters_match_traced(self):
        # The wheel's fast drain only runs untraced; its counters must
        # agree with the traced merge path's.
        _, _, traced = _run_traced("wheel", 1)
        kernel = Kernel(scheduler="wheel")
        _random_soup(kernel, 1)
        kernel.run()
        untraced = kernel.kernel_stats()
        for key in ("activations", "events_scheduled",
                    "channel_fastpath_hits"):
            assert untraced[key] == traced[key]


class TestSchedulerLifecycle:
    def test_unknown_scheduler_rejected(self):
        from repro.simkernel import SimulationError

        with pytest.raises(SimulationError):
            Kernel(scheduler="btree")

    def test_auto_stays_on_heap_below_threshold(self):
        kernel = Kernel()

        def body(p):
            yield 1.0

        for index in range(WHEEL_THRESHOLD - 1):
            kernel.add_process("p%d" % index, body)
        kernel.run()
        stats = kernel.kernel_stats()
        assert stats["scheduler"] == "heap"
        assert stats["buckets_drained"] == 0

    def test_auto_switches_to_wheel_at_threshold(self):
        kernel = Kernel()

        def body(p):
            yield 1.0

        for index in range(WHEEL_THRESHOLD):
            kernel.add_process("p%d" % index, body)
        kernel.run()
        stats = kernel.kernel_stats()
        assert stats["scheduler"] == "wheel"
        assert stats["buckets_drained"] > 0

    def test_forced_wheel_with_two_processes(self):
        kernel = Kernel(scheduler="wheel")
        order = []

        def body(name):
            def gen(p):
                order.append((kernel.now, name))
                yield 2.0
                order.append((kernel.now, name))
            return gen

        kernel.add_process("a", body("a"))
        kernel.add_process("b", body("b"))
        assert kernel.run() == 2.0
        assert order == [(0.0, "a"), (0.0, "b"), (2.0, "a"), (2.0, "b")]
        assert kernel.kernel_stats()["scheduler"] == "wheel"

    def test_stats_before_run_report_requested_scheduler(self):
        assert Kernel().kernel_stats()["scheduler"] == "auto"
        assert Kernel(scheduler="wheel").kernel_stats()["scheduler"] == "wheel"


class TestDeadlockReporting:
    """Satellite: the deadlock reporter at ~1k blocked processes."""

    N = 1000

    def _blocked_kernel(self, scheduler):
        kernel = Kernel(scheduler=scheduler)
        bus = Bus(kernel, "b")
        channel = BusChannel(kernel, "starved", bus)

        def body(p):
            yield from channel.recv_gen(p, 1)  # no sender: blocks forever

        for index in range(self.N):
            kernel.add_process("blocked%04d" % index, body)
        return kernel

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_thousand_blocked_processes_summarised(self, scheduler):
        kernel = self._blocked_kernel(scheduler)
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
        """~1k receivers on one channel woken by a single send must drain
        through the FIFO ready queue identically on both schedulers."""
        ends = {}
        for scheduler in ("heap", "wheel"):
            kernel = Kernel(scheduler=scheduler)
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
            ends[scheduler] = (kernel.run(), tuple(done))
        assert ends["heap"] == ends["wheel"]
        assert len(ends["heap"][1]) == self.N


class TestBatchStallAccounting:
    """Satellite: same-timestamp batches must not inflate the watchdog's
    stall counter on either scheduler."""

    N = 200  # well above the stall limit below

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_lockstep_batches_do_not_trip_livelock(self, scheduler):
        kernel = Kernel(scheduler=scheduler)

        def body(p):
            for _ in range(5):
                yield 10.0

        for index in range(self.N):
            kernel.add_process("batch%03d" % index, body)
        watchdog = Watchdog(max_stalled_activations=self.N // 4)
        assert kernel.run(watchdog=watchdog) == 50.0

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_genuine_zero_delay_livelock_still_trips(self, scheduler):
        kernel = Kernel(scheduler=scheduler)

        def spinner(p):
            while True:
                yield 0.0

        def bystander(p):
            yield 10.0

        # Enough processes that auto would also pick the wheel; scheduler
        # is forced anyway to pin both paths.
        for index in range(self.N):
            kernel.add_process("spin%03d" % index, spinner)
        kernel.add_process("ok", bystander)
        with pytest.raises(LivelockError) as exc_info:
            kernel.run(watchdog=Watchdog(max_stalled_activations=self.N * 3))
        assert "livelock" in str(exc_info.value)

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_wake_chain_still_counts_toward_stall(self, scheduler):
        """Zero-delay channel feedback (the real livelock shape) is counted
        even though it happens inside one timestamp."""
        kernel = Kernel(scheduler=scheduler)
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
