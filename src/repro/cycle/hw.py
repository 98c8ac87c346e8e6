"""Clock-stepped custom-hardware datapath model for the PCAM.

A custom HW component (the paper's FilterCore/IMDCT/DCT units, hand-coded as
RTL there) is modelled here by executing the component's CDFG and, *on every
basic-block execution*, re-simulating the block's schedule on the unit's
datapath — which is what an RTL simulator effectively does cycle by cycle,
and is why PCAM simulation is orders of magnitude slower than the timed TLM
even though both use the same datapath description.

With ``cache_schedules=True`` the per-block schedule is memoised (the
schedule of a block is deterministic), which keeps the *cycle counts*
identical while running much faster — used when the PCAM serves as the
accuracy reference rather than as the speed datapoint.
"""

from __future__ import annotations

from ..cdfg.interp import Interpreter
from ..estimation.delay import DelayEstimator


class HWUnit:
    """One custom hardware PE executing a single process."""

    def __init__(self, name, ir_program, entry, pum, args=(),
                 cache_schedules=True):
        self.name = name
        self.ir_program = ir_program
        self.entry = entry
        self.args = args
        self.pum = pum
        self.cycles = 0
        self.n_blocks_executed = 0
        self.cache_schedules = cache_schedules
        self._estimator = DelayEstimator(pum)
        self._schedule_cache = {}
        self.interpreter = Interpreter(ir_program, on_block=self._on_block)

    # -- interpreter hooks -----------------------------------------------------

    def _on_block(self, func_name, label):
        self.n_blocks_executed += 1
        if self.cache_schedules:
            key = (func_name, label)
            delay = self._schedule_cache.get(key)
            if delay is None:
                block = self.ir_program.function(func_name).blocks[label]
                delay = self._estimator.block_delay(block)
                self._schedule_cache[key] = delay
        else:
            block = self.ir_program.function(func_name).blocks[label]
            delay = self._estimator.block_delay(block)
        self.cycles += delay

    # -- execution ---------------------------------------------------------------

    def run(self):
        """Execute a comm-free process standalone, without a kernel."""
        return self.interpreter.call(self.entry, *self.args)

    def run_gen(self):
        """The process as an interpreter generator that suspends at each
        ``comm`` op (see :meth:`~repro.cdfg.interp.Interpreter.call_gen`);
        the PCAM drives it from a kernel process."""
        return self.interpreter.call_gen(self.entry, *self.args)

    def stats(self):
        return {
            "cycles": self.cycles,
            "blocks_executed": self.n_blocks_executed,
        }
