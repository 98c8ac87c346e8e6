"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simkernel import DeadlockError, Kernel, SimulationError


class TestTimeAdvance:
    def test_single_process_waits(self):
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

    def test_time_is_monotone_across_processes(self):
        kernel = Kernel()
        observed = []

        def make(delays):
            def body(p):
                for d in delays:
                    yield d
                    observed.append(kernel.now)
            return body

        kernel.add_process("a", make([3, 3, 3]))
        kernel.add_process("b", make([2, 5]))
        kernel.run()
        assert observed == sorted(observed)

    def test_zero_wait_is_allowed(self):
        kernel = Kernel()

        def body(p):
            yield 0.0

        kernel.add_process("p", body)
        assert kernel.run() == 0.0

    def test_negative_wait_rejected(self):
        kernel = Kernel()

        def body(p):
            yield -1.0

        kernel.add_process("p", body)
        with pytest.raises(SimulationError):
            kernel.run()

    def test_until_cuts_simulation(self):
        kernel = Kernel()
        ticks = []

        def body(p):
            while True:
                yield 10.0
                ticks.append(kernel.now)

        kernel.add_process("p", body)
        end = kernel.run(until=35.0)
        assert end == 35.0
        assert ticks == [10.0, 20.0, 30.0]


class TestDeterminism:
    def test_same_time_events_fire_in_registration_order(self):
        kernel = Kernel()
        order = []

        def make(name):
            def body(p):
                order.append(name)
                yield 1.0
                order.append(name + "'")
            return body

        for name in ("a", "b", "c"):
            kernel.add_process(name, make(name))
        kernel.run()
        assert order == ["a", "b", "c", "a'", "b'", "c'"]

    def test_repeated_runs_identical(self):
        def run_once():
            kernel = Kernel()
            log = []

            def body_a(p):
                for _ in range(3):
                    yield 2.0
                    log.append(("a", kernel.now))

            def body_b(p):
                for _ in range(2):
                    yield 3.0
                    log.append(("b", kernel.now))

            kernel.add_process("a", body_a)
            kernel.add_process("b", body_b)
            kernel.run()
            return log

        assert run_once() == run_once()


class TestFailures:
    def test_process_exception_propagates(self):
        kernel = Kernel()

        def body(p):
            raise ValueError("boom")
            yield  # unreachable: makes the body a generator function

        kernel.add_process("p", body)
        with pytest.raises(SimulationError) as info:
            kernel.run()
        assert "boom" in str(info.value.__cause__)

    def test_blocked_process_reports_deadlock(self):
        from repro.simkernel import BusChannel

        kernel = Kernel()
        channel = BusChannel(kernel, "never")

        def body(p):
            yield from channel.recv_gen(p, 1)

        kernel.add_process("p", body)
        with pytest.raises(DeadlockError) as info:
            kernel.run()
        assert "never" in str(info.value)
