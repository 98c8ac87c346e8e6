"""Tests for generator processes and the scheduler counters, plus
regressions for ``run(until=...)`` resumption and deadlock diagnostics."""

import pytest

from repro.simkernel import (
    BusChannel,
    DeadlockError,
    GeneratorProcess,
    Kernel,
    SimulationError,
)


class TestGeneratorProcesses:
    def test_generator_function_gets_trampoline_backend(self):
        kernel = Kernel()

        def gen_body(p):
            yield 1.0

        gp = kernel.add_process("g", gen_body)
        assert isinstance(gp, GeneratorProcess)
        assert kernel.run() == 1.0
        assert gp.finished

    def test_yielded_durations_advance_time(self):
        kernel = Kernel()
        times = []

        def body(p):
            times.append(kernel.now)
            yield 5.0
            times.append(kernel.now)
            yield 2.5
            times.append(kernel.now)

        kernel.add_process("p", body)
        end = kernel.run()
        assert times == [0.0, 5.0, 7.5]
        assert end == 7.5

    def test_zero_yield_is_allowed(self):
        kernel = Kernel()

        def body(p):
            yield 0.0

        kernel.add_process("p", body)
        assert kernel.run() == 0.0

    def test_negative_yield_rejected(self):
        kernel = Kernel()

        def body(p):
            yield -1.0

        kernel.add_process("p", body)
        with pytest.raises(SimulationError):
            kernel.run()

    def test_exception_in_generator_propagates(self):
        kernel = Kernel()

        def body(p):
            yield 1.0
            raise ValueError("boom")

        kernel.add_process("p", body)
        with pytest.raises(SimulationError) as info:
            kernel.run()
        assert "boom" in str(info.value.__cause__)

    def test_imperative_wait_on_generator_process_rejected(self):
        # A body that waits imperatively is refused before it runs.
        kernel = Kernel()
        ran = []

        def imperative_body(p):
            ran.append(True)
            p.wait(1.0)

        with pytest.raises(SimulationError, match="'imperative'"):
            kernel.add_process("imperative", imperative_body)
        assert not ran and kernel.processes == []

    @pytest.mark.parametrize("target", [
        lambda p: iter(()),
        lambda p: None,
    ])
    def test_non_generator_target_rejected(self, target):
        kernel = Kernel()
        with pytest.raises(SimulationError, match="process 'worker'"):
            kernel.add_process("worker", target)

    def test_mixed_backends_share_one_timeline(self):
        # Two processes with different periods on one timeline; at equal
        # times the earlier-scheduled event fires first.
        def run_once(gen_first):
            kernel = Kernel()
            log = []

            def gen_body(p):
                for _ in range(3):
                    yield 2.0
                    log.append(("g", kernel.now))

            def slow_body(p):
                for _ in range(2):
                    yield 3.0
                    log.append(("t", kernel.now))

            if gen_first:
                kernel.add_process("g", gen_body)
                kernel.add_process("t", slow_body)
            else:
                kernel.add_process("t", slow_body)
                kernel.add_process("g", gen_body)
            kernel.run()
            return log

        log = run_once(True)
        # at t=6.0 process "t" fires first: its event was scheduled at
        # t=3.0, before process "g"'s (scheduled at t=4.0)
        assert log == [("g", 2.0), ("t", 3.0), ("g", 4.0), ("t", 6.0),
                       ("g", 6.0)]
        assert run_once(True) == log

    def test_generator_channel_rendezvous(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "pipe")
        got = []

        def producer(p):
            yield 4.0
            yield from channel.send_gen(p, [1, 2, 3])

        def consumer(p):
            values = yield from channel.recv_gen(p, 3)
            got.append((kernel.now, values))

        kernel.add_process("prod", producer)
        kernel.add_process("cons", consumer)
        kernel.run()
        assert got == [(4.0, [1, 2, 3])]


class TestKernelCounters:
    def test_counters_start_at_zero(self):
        kernel = Kernel()
        assert kernel.kernel_stats() == {
            "activations": 0,
            "events_scheduled": 0,
            "channel_fastpath_hits": 0,
            "buckets_drained": 0,
            "scheduler": "wheel",
        }

    def test_activations_and_events_counted(self):
        kernel = Kernel()

        def body(p):
            yield 1.0
            yield 1.0

        kernel.add_process("p", body)
        kernel.run()
        stats = kernel.kernel_stats()
        # one start event + two timed waits, each resumed once, plus the
        # final resumption that finishes the generator
        assert stats["events_scheduled"] == 3
        assert stats["activations"] == 3
        assert stats["channel_fastpath_hits"] == 0

    def test_fastpath_counts_channel_wakes(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "pipe")

        def producer(p):
            yield 1.0
            yield from channel.send_gen(p, [42])

        def consumer(p):
            yield from channel.recv_gen(p, 1)

        kernel.add_process("prod", producer)
        kernel.add_process("cons", consumer)
        kernel.run()
        assert kernel.kernel_stats()["channel_fastpath_hits"] == 1

    def test_counters_identical_across_backends(self):
        # The bucket loop counts the activations, events and wakes of the
        # heap oracle it replaced.
        from .reference_kernel import ReferenceKernel, counters

        def run_once(kernel_cls):
            kernel = kernel_cls()
            channel = BusChannel(kernel, "pipe")

            def producer(p):
                yield 2.0
                yield from channel.send_gen(p, [1, 2])

            def consumer(p):
                yield from channel.recv_gen(p, 2)
                yield 1.0

            kernel.add_process("prod", producer)
            kernel.add_process("cons", consumer)
            return kernel.run(), counters(kernel.kernel_stats())

        assert run_once(Kernel) == run_once(ReferenceKernel)


class TestUntilResume:
    """``run(until=...)`` must keep the first over-horizon event queued so a
    later ``run()`` picks up exactly where the simulation stopped."""

    def test_generator_process_resumes_after_horizon(self):
        kernel = Kernel()
        ticks = []

        def body(p):
            for _ in range(4):
                yield 10.0
                ticks.append(kernel.now)

        kernel.add_process("p", body)
        assert kernel.run(until=15.0) == 15.0
        assert ticks == [10.0]
        assert kernel.run(until=25.0) == 25.0
        assert ticks == [10.0, 20.0]
        assert kernel.run() == 40.0
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_horizon_exactly_on_event_fires_it(self):
        kernel = Kernel()
        ticks = []

        def body(p):
            for _ in range(3):
                yield 10.0
                ticks.append(kernel.now)

        kernel.add_process("p", body)
        assert kernel.run(until=20.0) == 20.0
        assert ticks == [10.0, 20.0]

    def test_process_added_after_cut_starts_now(self):
        kernel = Kernel()
        started = []

        def ticker(p):
            for _ in range(3):
                yield 4.0

        def late(p):
            started.append(kernel.now)
            yield 1.0
            started.append(kernel.now)

        kernel.add_process("ticker", ticker)
        assert kernel.run(until=5.0) == 5.0
        kernel.add_process("late", late)
        assert kernel.run() == 12.0
        assert started == [5.0, 6.0]

    def test_until_before_now_rejected(self):
        kernel = Kernel()

        def body(p):
            yield 5.0
            yield 5.0

        kernel.add_process("p", body)
        assert kernel.run(until=5.0) == 5.0
        with pytest.raises(ValueError) as info:
            kernel.run(until=3.0)
        assert "3.0" in str(info.value) and "5.0" in str(info.value)
        assert kernel.now == 5.0
        assert kernel.run() == 10.0


class TestDeadlockDiagnostics:
    def test_generator_deadlock_names_every_blocked_process(self):
        kernel = Kernel()
        never_a = BusChannel(kernel, "never_a")
        never_b = BusChannel(kernel, "never_b")

        def make(channel, count):
            def body(p):
                yield from channel.recv_gen(p, count)
            return body

        kernel.add_process("alpha", make(never_a, 2))
        kernel.add_process("beta", make(never_b, 5))
        with pytest.raises(DeadlockError) as info:
            kernel.run()
        message = str(info.value)
        assert "alpha" in message and "beta" in message
        assert "recv(never_a, 2)" in message
        assert "recv(never_b, 5)" in message

    def test_stop_unwinds_both_backends(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "pipe")
        unwound = []

        def gen_body(p):
            yield from channel.recv_gen(p, 1)

        def nested_body(p):
            try:
                yield from gen_body(p)
            finally:
                unwound.append(p.name)

        gp = kernel.add_process("g", gen_body)
        tp = kernel.add_process("t", nested_body)
        with pytest.raises(DeadlockError):
            kernel.run()
        # the deadlock path shuts the kernel down; both are unwound
        assert gp.finished and tp.finished
        assert unwound == ["t"]
