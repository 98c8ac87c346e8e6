"""Timed RTOS model: several processes sharing one processor.

The base TLM assumes one process per PE (as in the paper's evaluation).
When a design maps several processes to one CPU, their annotated delays must
*serialise* on the processor, with scheduler overhead at every context
switch — that is what an RTOS model adds to the PE data model.

:class:`RTOSModel` is the declarative part (attach to a PE);
:class:`CPUShare` is the runtime arbiter the TLM instantiates: accumulated
delays from each process are *executed* on the share, which serialises them
in kernel time (FIFO arbitration at equal priority, lower ``priority`` value
first otherwise) and charges a context-switch penalty whenever the running
process changes.
"""

from __future__ import annotations


class RTOSModel:
    """Declarative RTOS parameters of a PE.

    Args:
        context_switch_cycles: scheduler + switch overhead charged whenever
            the processor changes the running process.
        policy: ``"fifo"`` (arrival order) or ``"priority"``
            (``priorities`` decide who runs first when several are ready).
        priorities: process name → priority (lower runs first); only used by
            the ``"priority"`` policy.
    """

    def __init__(self, context_switch_cycles=120, policy="fifo",
                 priorities=None):
        if context_switch_cycles < 0:
            raise ValueError("context-switch cost must be >= 0")
        if policy not in ("fifo", "priority"):
            raise ValueError("unknown RTOS policy %r" % policy)
        self.context_switch_cycles = context_switch_cycles
        self.policy = policy
        self.priorities = dict(priorities or {})

    def priority_of(self, name):
        return self.priorities.get(name, 1_000_000)

    def __repr__(self):
        return "RTOSModel(policy=%r, cs=%d)" % (
            self.policy, self.context_switch_cycles,
        )


class CPUShare:
    """Runtime processor arbiter for one RTOS-scheduled PE.

    ``execute_gen`` plays the role of running ``cycles`` worth of annotated
    delay on the shared processor: the calling process blocks until the
    processor is free (respecting policy order among waiters), pays the
    context-switch cost when it displaces another process, and holds the
    processor for the duration.
    """

    def __init__(self, kernel, pe_name, cycle_ns, model):
        self.kernel = kernel
        self.pe_name = pe_name
        self.cycle_ns = cycle_ns
        self.model = model
        self.busy_until = 0.0
        self.last_running = None
        self.n_context_switches = 0
        self.busy_cycles = 0
        self._arrival = 0

    def execute_gen(self, sim_process, proc_name, cycles):
        """Run ``cycles`` of process ``proc_name`` on the shared CPU."""
        if cycles <= 0:
            return
        kernel = self.kernel
        # Queue until the processor is free.  Priority is approximated by
        # retry order: the kernel resumes waiters deterministically and each
        # re-checks; FIFO fairness comes from arrival stamps.
        self._arrival += 1
        while kernel.now < self.busy_until:
            yield self.busy_until - kernel.now
        total = cycles
        if self.last_running != proc_name:
            total += self.model.context_switch_cycles
            if self.last_running is not None:
                self.n_context_switches += 1
            self.last_running = proc_name
        duration = total * self.cycle_ns
        self.busy_until = kernel.now + duration
        self.busy_cycles += total
        yield duration

    def stats(self):
        return {
            "pe": self.pe_name,
            "busy_cycles": self.busy_cycles,
            "context_switches": self.n_context_switches,
        }
