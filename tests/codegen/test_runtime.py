"""Unit tests for the process-context runtime (delay batching, sc_wait)."""

import pytest

from repro.codegen.runtime import ProcessContext
from repro.simkernel import Kernel


class _RecordingComm:
    def __init__(self):
        self.events = []

    def send_gen(self, sim_process, chan, values):
        self.events.append(("send", chan, list(values)))
        yield from ()

    def recv_gen(self, sim_process, chan, count):
        self.events.append(("recv", chan, count))
        yield from ()
        return [0] * count


class TestStandaloneAccounting:
    def test_wait_accumulates(self):
        ctx = ProcessContext()
        ctx.wait(10)
        ctx.wait(5)
        assert ctx.total_cycles == 15
        assert ctx.pending_cycles == 15

    def test_sync_without_kernel_clears_pending(self):
        ctx = ProcessContext()
        ctx.wait(10)
        assert list(ctx.sync_gen()) == []  # no kernel: nothing to wait on
        assert ctx.pending_cycles == 0
        assert ctx.total_cycles == 10

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            ProcessContext(granularity="nonsense")

    def test_comm_without_binding_raises(self):
        ctx = ProcessContext()
        with pytest.raises(RuntimeError):
            list(ctx.send_gen(1, [1, 2]))
        with pytest.raises(RuntimeError):
            list(ctx.recv_gen(1, 2))


class TestKernelIntegration:
    def _run(self, granularity):
        kernel = Kernel()
        comm = _RecordingComm()
        timeline = []
        ctx = ProcessContext(
            cycle_ns=10.0, comm=comm, granularity=granularity
        )

        def body(process):
            # What generated code does: a due wait is synced at the call.
            ctx.sim_process = process
            if ctx.wait(7):
                yield from ctx.sync_gen()
            timeline.append(("after-wait", kernel.now))
            yield from ctx.send_gen(1, [42])
            timeline.append(("after-send", kernel.now))
            if ctx.wait(3):
                yield from ctx.sync_gen()
            yield from ctx.sync_gen()
            timeline.append(("end", kernel.now))

        kernel.add_process("p", body)
        kernel.run()
        return timeline, comm, ctx

    def test_transaction_granularity_defers_time(self):
        timeline, comm, ctx = self._run("transaction")
        # Time does not advance at wait(); it advances at the transaction.
        assert timeline[0] == ("after-wait", 0.0)
        assert timeline[1] == ("after-send", 70.0)
        assert timeline[2] == ("end", 100.0)
        assert ctx.total_cycles == 10
        assert ctx.n_transactions == 1
        assert comm.events == [("send", 1, [42])]

    def test_block_granularity_advances_immediately(self):
        timeline, _, _ = self._run("block")
        assert timeline[0] == ("after-wait", 70.0)

    def test_total_cycles_identical_across_granularities(self):
        _, _, ctx_txn = self._run("transaction")
        _, _, ctx_blk = self._run("block")
        assert ctx_txn.total_cycles == ctx_blk.total_cycles
