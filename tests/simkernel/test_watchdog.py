"""Watchdog tests: wall-clock, horizon and livelock limits, plus
blocked-process naming in deadlock reports.  Each runs with processes that
suspend directly ("generator") and from inside a nested call ("nested"),
as generated code does at call depth."""

import pytest

from repro.simkernel import (
    DeadlockError,
    HorizonExceeded,
    Kernel,
    LivelockError,
    WallClockExceeded,
    Watchdog,
    WatchdogError,
)


def _nested(duration):
    yield duration


def _wait(backend, duration):
    """One wait, for ``yield from``: from a nested generator call
    (``"nested"``) or straight from an iterator (``"generator"``)."""
    return _nested(duration) if backend == "nested" else iter((duration,))


def gen_spinner(kernel):
    """A process that waits 0 forever (no time progress)."""

    def body(p):
        while True:
            yield 0.0

    return body


def nested_spinner(kernel):
    """A spinner whose zero-waits happen inside a nested call."""

    def body(p):
        while True:
            yield from _nested(0.0)

    return body


SPINNERS = [("nested", nested_spinner), ("generator", gen_spinner)]
BACKENDS = ["nested", "generator"]


class TestValidation:
    def test_rejects_nonpositive_wall(self):
        with pytest.raises(ValueError):
            Watchdog(max_wall_seconds=0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            Watchdog(max_sim_time=-1.0)

    def test_rejects_zero_stall_limit(self):
        with pytest.raises(ValueError):
            Watchdog(max_stalled_activations=0)

    def test_error_hierarchy(self):
        for cls in (WallClockExceeded, HorizonExceeded, LivelockError):
            assert issubclass(cls, WatchdogError)


class TestLivelock:
    @pytest.mark.parametrize("backend,make", SPINNERS)
    def test_spinner_triggers_livelock(self, backend, make):
        kernel = Kernel()
        kernel.add_process("spin_%s" % backend, make(kernel))
        watchdog = Watchdog(max_stalled_activations=100)
        with pytest.raises(LivelockError) as exc_info:
            kernel.run(watchdog=watchdog)
        assert "spin_%s" % backend in str(exc_info.value)
        assert "livelock" in str(exc_info.value)

    def test_mixed_backends_both_named(self):
        # A flat and a nested spinner stall together; both are named.
        kernel = Kernel()
        kernel.add_process("spin_t", nested_spinner(kernel))
        kernel.add_process("spin_g", gen_spinner(kernel))
        with pytest.raises(LivelockError) as exc_info:
            kernel.run(watchdog=Watchdog(max_stalled_activations=100))
        message = str(exc_info.value)
        assert "spin_t" in message and "spin_g" in message

    @pytest.mark.parametrize("backend,make", SPINNERS)
    def test_time_progress_resets_stall_counter(self, backend, make):
        kernel = Kernel()
        done = []

        def body(p):
            for _ in range(50):
                yield from _wait(backend, 0.0)
                # real progress between the zero-waits
                yield from _wait(backend, 1.0)
            done.append(True)

        kernel.add_process("worker", body)
        end = kernel.run(watchdog=Watchdog(max_stalled_activations=40))
        assert done and end == 50.0

    def test_no_watchdog_spinner_needs_until(self):
        # Without a watchdog the spinner runs forever at t=0; `until` cannot
        # save us (time never reaches it) — this is exactly the livelock the
        # watchdog exists for, so just confirm the watchdog path differs
        # from a plain bounded run.
        kernel = Kernel()

        def body(p):
            for _ in range(10):
                yield 1.0

        kernel.add_process("finite", body)
        assert kernel.run(watchdog=Watchdog(max_stalled_activations=5)) == 10.0


class TestHorizon:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_horizon_aborts(self, backend):
        kernel = Kernel()

        def body(p):
            while True:
                yield from _wait(backend, 10.0)

        kernel.add_process("ticker", body)
        with pytest.raises(HorizonExceeded):
            kernel.run(watchdog=Watchdog(max_sim_time=55.0))

    def test_horizon_error_names_unfinished_processes(self):
        kernel = Kernel()

        def ticker(p):
            while True:
                yield 10.0

        def done(p):
            yield 1.0

        kernel.add_process("ticker", ticker)
        kernel.add_process("done", done)
        with pytest.raises(HorizonExceeded) as exc_info:
            kernel.run(watchdog=Watchdog(max_sim_time=55.0))
        assert str(exc_info.value).endswith("unfinished: ticker (ready)")

    def test_run_ending_before_horizon_is_clean(self):
        kernel = Kernel()

        def body(p):
            yield 5.0

        kernel.add_process("short", body)
        assert kernel.run(watchdog=Watchdog(max_sim_time=100.0)) == 5.0

    def test_until_still_quiet_with_watchdog(self):
        kernel = Kernel()

        def body(p):
            while True:
                yield 10.0

        kernel.add_process("ticker", body)
        end = kernel.run(until=30.0,
                         watchdog=Watchdog(max_sim_time=1000.0))
        assert end == 30.0


class TestWallClock:
    @pytest.mark.parametrize("backend,make", SPINNERS)
    def test_wall_budget_aborts_spinner(self, backend, make):
        kernel = Kernel()
        kernel.add_process("spin", make(kernel))
        watchdog = Watchdog(max_wall_seconds=0.05, wall_check_interval=64)
        with pytest.raises((WallClockExceeded, LivelockError)):
            # A pure spinner may hit either guard first when both armed;
            # with only the wall guard it must be WallClockExceeded.
            kernel.run(watchdog=watchdog)

    def test_wall_budget_only(self):
        kernel = Kernel()
        kernel.add_process("spin", gen_spinner(kernel))
        watchdog = Watchdog(max_wall_seconds=0.05, wall_check_interval=16)
        with pytest.raises(WallClockExceeded) as exc_info:
            kernel.run(watchdog=watchdog)
        assert "wall" in str(exc_info.value)


class TestDeadlockNaming:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadlock_error_names_blocked_processes(self, backend):
        from repro.simkernel import Bus, BusChannel

        kernel = Kernel()
        bus = Bus(kernel, "bus0")
        channel = BusChannel(kernel, "c0", bus)

        def read(p):
            return (yield from channel.recv_gen(p, 4))

        def consumer(p):
            if backend == "nested":
                yield from read(p)  # nobody ever sends
            else:
                yield from channel.recv_gen(p, 4)

        kernel.add_process("starved_reader", consumer)
        with pytest.raises(DeadlockError) as exc_info:
            kernel.run()
        assert "starved_reader" in str(exc_info.value)

    def test_deadlock_with_watchdog_still_reports(self):
        from repro.simkernel import Bus, BusChannel

        kernel = Kernel()
        bus = Bus(kernel, "bus0")
        channel = BusChannel(kernel, "c0", bus)

        def consumer(p):
            yield from channel.recv_gen(p, 1)

        kernel.add_process("blocked_rx", consumer)
        with pytest.raises(DeadlockError) as exc_info:
            kernel.run(watchdog=Watchdog(max_sim_time=1e9))
        assert "blocked_rx" in str(exc_info.value)
