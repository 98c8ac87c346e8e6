"""Contention-aware traffic replay: N-instance sweeps without the kernel.

:func:`repro.workloads.run_traffic` evaluates a traffic point by spawning
``spec.n_instances`` op-stream replayers inside the full DES kernel — every
wait is a heap event, every instance pays the trampoline.  But the profile
already fixes *which* ops every instance performs; the only cross-instance
coupling is the shared buses' grant queues.  This module exploits that: it
merges N time-shifted copies of the recorded request stream through a
per-bus grant-queue simulator whose arithmetic mirrors the kernel's float
operations step for step, and only the channel ops ever touch a priority
queue.  Cost is O(channel ops), not O(kernel events).

Exactness contract (the :mod:`repro.simtrace.vectorized` discipline —
conservatism costs speed, never accuracy):

* Between channel ops a process's clock advances by the recorded waits in
  recorded order — ``((t + d1) + d2) + ...``, *never* a collapsed sum, so
  float rounding matches the kernel bit for bit (``numpy.add.accumulate``
  is the same left fold at C speed).
* A request that finds the bus free at its own instant takes the fast path
  (``busy_until`` is set at grant start, so a request landing exactly on a
  completion boundary with an empty queue is deterministic); otherwise it
  enqueues behind every earlier arrival.
* The kernel resolves *simultaneous* requests on one bus by event sequence
  numbers that depend on the full event history — so any two equal-time
  requests on one bus **flag the point** and it falls back to the kernel.
  For priority/rr a request landing exactly on a release instant while
  masters are queued can also reorder the grant — flagged likewise.
* fifo grant order is therefore exact by construction on unflagged points;
  priority/rr points additionally require kernel validation of a sweep
  subset, with whole-group fallback on any divergence (see
  :func:`replay_traffic_sweep`).

Lanes: one call sweeps K traffic points.  The per-(point, instance) clock
chains for arrival segments and pure-computation processes run as one
numpy pass over all K×N lanes (a scalar fold for small grids); the grant
merge itself is per point, driven by a small heap over channel ops only.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

import numpy as np

from ..simkernel.kernel import OP_RECV, OP_SEND, OP_WAIT, SIM_TOTALS
from ..tlm.contention import DEFAULT_PRIORITY

__all__ = [
    "ReplayUnsupported",
    "compile_replay_plan",
    "replay_traffic_point",
    "replay_traffic_sweep",
]


class ReplayUnsupported(Exception):
    """The profile/design is outside the analytic model; use the kernel."""


class _Flagged(Exception):
    """An exactness condition failed for one point; use the kernel."""


def _chain(t, deltas, arr=None):
    """``((t + d1) + d2) + ...`` — the kernel's own float sequence.

    ``arr`` is the precompiled numpy copy of ``deltas`` (see
    :class:`_Node`); ``add.accumulate`` is the same left fold at C speed.
    """
    if arr is not None:
        buf = np.empty(len(arr) + 1, dtype=np.float64)
        buf[0] = t
        buf[1:] = arr
        return float(np.add.accumulate(buf)[-1])
    for d in deltas:
        t = t + d
    return t


def _chain_rows(starts, deltas):
    """Chain one delta sequence over many lane clocks at once.

    ``starts`` is a list of floats (one per lane); each row of the result
    is the kernel's own left fold from that lane's clock.  Above 256 cells
    the whole (lanes × deltas) grid is one numpy ``add.accumulate`` pass
    (the vectorized sweep lanes); smaller grids fold in plain Python.
    """
    if not deltas:
        return list(starts)
    if len(starts) * len(deltas) > 256:
        buf = np.empty((len(starts), len(deltas) + 1), dtype=np.float64)
        buf[:, 0] = starts
        buf[:, 1:] = deltas
        return np.add.accumulate(buf, axis=1)[:, -1].tolist()
    return [_chain(t, deltas) for t in starts]


class _Node:
    """One compiled step of a process: a wait segment, then a channel op.

    ``op`` is OP_SEND / OP_RECV, or ``None`` for the terminal segment.
    ``crossing`` (recvs) is the index into the channel's send list whose
    deposit satisfies this recv's cumulative demand (``-1``: never blocks).
    ``arr`` caches the numpy copy of long delta segments so each per-lane
    fold is one memcpy + one ``add.accumulate``, not a list conversion.
    """

    __slots__ = ("deltas", "op", "chan", "words", "bus", "crossing", "arr")

    def __init__(self, deltas, op=None, chan=None, words=0, bus=None,
                 crossing=-1):
        self.deltas = deltas
        self.op = op
        self.chan = chan
        self.words = words
        self.bus = bus
        self.crossing = crossing
        self.arr = (
            np.asarray(deltas, dtype=np.float64)
            if len(deltas) > 64 else None
        )


class _BusModel:
    """Static per-bus parameters shared by every point of a sweep."""

    __slots__ = ("name", "policy", "priorities", "cycle_ns",
                 "words_per_cycle", "arbitration_cycles", "_durations")

    def __init__(self, decl):
        self.name = decl.name
        self.policy = decl.policy
        self.priorities = dict(decl.priorities or {})
        self.cycle_ns = decl.cycle_ns
        self.words_per_cycle = decl.words_per_cycle
        self.arbitration_cycles = decl.arbitration_cycles
        self._durations = {}

    def transfer_time(self, n_words):
        duration = self._durations.get(n_words)
        if duration is None:
            cycles = self.arbitration_cycles + (
                (n_words + self.words_per_cycle - 1) // self.words_per_cycle
            )
            duration = cycles * self.cycle_ns
            self._durations[n_words] = duration
        return duration


class ReplayPlan:
    """A compiled profile: per-process nodes plus bus/channel topology."""

    __slots__ = ("profile", "buses", "nodes", "pure_wait", "channel_procs",
                 "reference_cycle_ns")

    def __init__(self, profile, buses, nodes, pure_wait, channel_procs):
        self.profile = profile
        self.buses = buses  # bus name -> _BusModel
        self.nodes = nodes  # process name -> [_Node]
        self.pure_wait = pure_wait  # process name -> delta tuple
        self.channel_procs = channel_procs  # names with channel ops
        self.reference_cycle_ns = profile.reference_cycle_ns


def compile_replay_plan(profile, design):
    """Compile ``profile`` against ``design`` into a :class:`ReplayPlan`.

    Raises :class:`ReplayUnsupported` when the analytic model does not
    cover the design: RTOS-shared PEs (scheduling is load-dependent),
    channel traffic over a *plain* bus (its retry-poll loop resolves every
    contention by event sequence numbers — permanently tied), or channels
    with multiple senders/receivers.
    """
    for name in profile.ops:
        pe = design.pes.get(profile.process_pe[name])
        if pe is not None and pe.rtos is not None:
            raise ReplayUnsupported(
                "process %r runs on RTOS-shared PE %r" % (name, pe.name)
            )

    # Channel endpoints and per-channel cumulative-word crossings.
    senders = {}
    receivers = {}
    for name, ops in profile.ops.items():
        for seq, op, a, b in ops:
            if op == OP_SEND:
                senders.setdefault(a, set()).add(name)
            elif op == OP_RECV:
                receivers.setdefault(a, set()).add(name)
    for chan, ends in list(senders.items()) + list(receivers.items()):
        if len(ends) > 1:
            raise ReplayUnsupported(
                "channel %d has multiple endpoints %r" % (chan, sorted(ends))
            )

    buses = {}
    bus_of_chan = {}
    for chan in set(senders) | set(receivers):
        decl = design.channels.get(chan)
        if decl is None:
            raise ReplayUnsupported("channel %d not in design" % chan)
        bus_decl = design.buses[decl.bus_name]
        if getattr(bus_decl, "policy", None) is None:
            raise ReplayUnsupported(
                "channel %r rides plain bus %r (retry-poll contention is "
                "sequence-number-tied; only arbitrated buses replay)"
                % (decl.name, decl.bus_name)
            )
        bus_of_chan[chan] = bus_decl.name
        if bus_decl.name not in buses:
            buses[bus_decl.name] = _BusModel(bus_decl)

    # Per-channel send lists in record order, and each recv's crossing.
    chan_sends = {}  # chan -> [(seq, proc, words)]
    chan_recvs = {}
    for name, ops in profile.ops.items():
        for seq, op, a, b in ops:
            if op == OP_SEND:
                chan_sends.setdefault(a, []).append((seq, name, b))
            elif op == OP_RECV:
                chan_recvs.setdefault(a, []).append((seq, name, b))
    for entries in chan_sends.values():
        entries.sort()
    for entries in chan_recvs.values():
        entries.sort()
    crossings = {}  # (chan, recv_ordinal) -> send index
    for chan, recv_list in chan_recvs.items():
        send_list = chan_sends.get(chan, [])
        cum_sent = 0
        send_idx = 0
        cum_needed = 0
        for ordinal, (_, _, count) in enumerate(recv_list):
            if count <= 0:
                crossings[(chan, ordinal)] = -1
                continue
            cum_needed += count
            while send_idx < len(send_list) and cum_sent < cum_needed:
                cum_sent += send_list[send_idx][2]
                send_idx += 1
            if cum_sent < cum_needed:
                raise ReplayUnsupported(
                    "channel %d recv demands %d words but only %d sent"
                    % (chan, cum_needed, cum_sent)
                )
            crossings[(chan, ordinal)] = send_idx - 1

    nodes = {}
    pure_wait = {}
    channel_procs = []
    for name, ops in profile.ops.items():
        cycle_ns = profile.process_cycle_ns[name]
        compiled = []
        deltas = []
        recv_ordinal = {}  # chan -> next recv ordinal for this process
        has_channel = False
        for seq, op, a, b in ops:
            if op == OP_WAIT:
                if a:
                    deltas.append(a * cycle_ns)
                continue
            has_channel = True
            if op == OP_SEND:
                compiled.append(_Node(
                    tuple(deltas), OP_SEND, a, b, bus_of_chan[a],
                ))
            else:  # OP_RECV
                ordinal = recv_ordinal.get(a, 0)
                recv_ordinal[a] = ordinal + 1
                compiled.append(_Node(
                    tuple(deltas), OP_RECV, a, b, bus_of_chan[a],
                    crossing=crossings[(a, ordinal)],
                ))
            deltas = []
        compiled.append(_Node(tuple(deltas)))  # terminal segment
        if has_channel:
            nodes[name] = compiled
            channel_procs.append(name)
        else:
            pure_wait[name] = tuple(deltas)
    return ReplayPlan(profile, buses, nodes, pure_wait, channel_procs)


class _Lane:
    """One (process, instance) clock walking its compiled node list."""

    __slots__ = ("proc", "instance", "name", "nodes", "idx", "t")

    def __init__(self, proc, instance, nodes):
        self.proc = proc
        self.instance = instance
        self.name = "%s#%d" % (proc, instance)  # the kernel's process name
        self.nodes = nodes
        self.idx = 0
        self.t = 0.0


class _BusState:
    """One point's dynamic state for one shared bus."""

    __slots__ = ("model", "busy_until", "queue", "arrival_seq", "rr_last",
                 "grants", "queued_grants", "stall_ns", "busy_ns",
                 "max_queue", "transactions", "words", "last_req_time",
                 "last_release")

    def __init__(self, model):
        self.model = model
        self.busy_until = 0.0
        self.queue = []  # [arrival_ns, arrival_seq, lane, words]
        self.arrival_seq = 0
        self.rr_last = ""
        self.grants = 0
        self.queued_grants = 0
        self.stall_ns = 0.0
        self.busy_ns = 0.0
        self.max_queue = 0
        self.transactions = 0
        self.words = 0
        self.last_req_time = None
        self.last_release = None  # (time, had_waiters)

    def select(self):
        """Pop the next waiter — mirrors ``ArbitratedBus._select``."""
        queue = self.queue
        policy = self.model.policy
        if policy == "fifo":
            return queue.pop(0)
        if policy == "priority":
            priorities = self.model.priorities
            best = min(queue, key=lambda e: (
                priorities.get(e[2].name, DEFAULT_PRIORITY), e[1],
            ))
            queue.remove(best)
            return best
        heads = {}
        for entry in queue:
            name = entry[2].name
            held = heads.get(name)
            if held is None or entry[1] < held[1]:
                heads[name] = entry
        names = sorted(heads)
        following = [n for n in names if n > self.rr_last]
        pick = following[0] if following else names[0]
        entry = heads[pick]
        queue.remove(entry)
        return entry

    def stats(self, end_time_ns):
        return {
            "policy": self.model.policy,
            "grants": self.grants,
            "queued_grants": self.queued_grants,
            "stall_cycles": int(round(self.stall_ns / self.model.cycle_ns)),
            "busy_cycles": int(round(self.busy_ns / self.model.cycle_ns)),
            "utilization": (self.busy_ns / end_time_ns)
            if end_time_ns > 0 else 0.0,
            "max_queue": self.max_queue,
            "transactions": self.transactions,
            "words": self.words,
        }


#: Heap event kinds: completions resolve before same-instant requests —
#: the only kernel-consistent order (a fresh request at a completion
#: boundary joins the queue *behind* the freshly granted waiter).
_EV_RELEASE = 0
_EV_REQUEST = 1


class _PointReplay:
    """The per-point grant-queue simulation over compiled lanes."""

    def __init__(self, plan, arrivals_ns, first_times=None,
                 collect_grants=False):
        self.plan = plan
        self.arrivals_ns = arrivals_ns
        n = len(arrivals_ns)
        self.buses = {
            name: _BusState(model) for name, model in plan.buses.items()
        }
        self.heap = []
        self._seq = 0
        self.finishes = [0.0] * n
        self.deposits = {}  # (chan, instance) -> [deposit time per send]
        self.parked = {}  # (chan, instance) -> (lane, t, crossing)
        self.unfinished = 0
        self.grant_log = (
            {name: [] for name in plan.buses} if collect_grants else None
        )

        for proc in plan.channel_procs:
            nodes = plan.nodes[proc]
            if first_times is None:
                starts = _chain_rows(arrivals_ns, nodes[0].deltas)
            else:
                starts = first_times[proc]
            for instance in range(n):
                lane = _Lane(proc, instance, nodes)
                self.unfinished += 1
                self._arrive(lane, starts[instance])

    def _push(self, when, kind, payload):
        self._seq += 1
        heappush(self.heap, (when, kind, self._seq, payload))

    def _note_finish(self, lane, t):
        if t > self.finishes[lane.instance]:
            self.finishes[lane.instance] = t
        self.unfinished -= 1

    def _arrive(self, lane, t):
        """Lane has just crossed the segment *before* ``lane.idx`` and sits
        at that node's channel op (or end) at time ``t``."""
        stack = [(lane, t)]
        while stack:
            lane, t = stack.pop()
            while True:
                node = lane.nodes[lane.idx]
                if node.op is None:
                    self._note_finish(lane, t)
                    break
                if node.op == OP_SEND:
                    lane.t = t
                    self._push(t, _EV_REQUEST, lane)
                    break
                # OP_RECV
                key = (node.chan, lane.instance)
                if node.crossing >= 0:
                    done = self.deposits.get(key)
                    if done is None or len(done) <= node.crossing:
                        self.parked[key] = (lane, t, node.crossing)
                        break
                    deposit = done[node.crossing]
                    if deposit > t:
                        t = deposit
                lane.idx += 1
                node = lane.nodes[lane.idx]
                t = _chain(t, node.deltas, node.arr)

    def _grant(self, bus, lane, words, now, queued_entry):
        """Mirror of ``_occupy_now`` (+ queued accounting): start the
        transfer at ``now``, deposit at completion, advance the lane."""
        model = bus.model
        if queued_entry is not None:
            bus.stall_ns += now - queued_entry[0]
            bus.queued_grants += 1
        duration = model.transfer_time(words)
        completion = now + duration
        bus.busy_until = completion
        bus.transactions += 1
        bus.words += words
        bus.busy_ns += duration
        bus.grants += 1
        bus.rr_last = lane.name
        if self.grant_log is not None:
            self.grant_log[model.name].append((lane.name, words, now))
        self._push(completion, _EV_RELEASE, model.name)

        # The send completes at ``completion``: deposit the words, wake a
        # parked receiver, and walk the sender forward.
        node = lane.nodes[lane.idx]
        key = (node.chan, lane.instance)
        done = self.deposits.setdefault(key, [])
        done.append(completion)
        resume = []
        waiting = self.parked.get(key)
        if waiting is not None and waiting[2] < len(done):
            del self.parked[key]
            receiver, parked_t, crossing = waiting
            t = done[crossing]
            if parked_t > t:
                t = parked_t
            receiver.idx += 1
            nxt = receiver.nodes[receiver.idx]
            t = _chain(t, nxt.deltas, nxt.arr)
            resume.append((receiver, t))
        lane.idx += 1
        nxt = lane.nodes[lane.idx]
        t = _chain(completion, nxt.deltas, nxt.arr)
        resume.append((lane, t))
        for entry in resume:
            self._arrive(*entry)

    def run(self):
        heap = self.heap
        buses = self.buses
        while heap:
            when, kind, _, payload = heappop(heap)
            if kind == _EV_RELEASE:
                bus = buses[payload]
                if bus.queue:
                    bus.last_release = (when, True)
                    entry = bus.select()
                    self._grant(bus, entry[2], entry[3], when, entry)
                else:
                    bus.last_release = (when, False)
                continue
            # _EV_REQUEST
            lane = payload
            node = lane.nodes[lane.idx]
            bus = buses[node.bus]
            t = lane.t
            if bus.last_req_time == t:
                raise _Flagged(
                    "simultaneous requests on bus %r at t=%.1fns"
                    % (node.bus, t)
                )
            bus.last_req_time = t
            if (bus.last_release is not None and bus.last_release[0] == t
                    and bus.last_release[1]):
                # The kernel may process this request before or after the
                # releasing master's continuation (event seq order): for
                # priority/rr that can change the grant itself; even for
                # fifo it changes the observed queue high-water.
                raise _Flagged(
                    "request lands on a contended %s release boundary on "
                    "bus %r at t=%.1fns"
                    % (bus.model.policy, node.bus, t)
                )
            if not bus.queue and t >= bus.busy_until:
                self._grant(bus, lane, node.words, t, None)
            else:
                bus.queue.append([t, bus.arrival_seq, lane, node.words])
                bus.arrival_seq += 1
                if len(bus.queue) > bus.max_queue:
                    bus.max_queue = len(bus.queue)
        if self.unfinished:
            raise _Flagged(
                "%d lanes never completed (dependency stall)"
                % self.unfinished
            )


def replay_traffic_point(plan, spec, pure_finishes=None, first_times=None,
                         collect_grants=False):
    """Analytically evaluate one traffic point.

    Returns ``(end_time_ns, latencies_cycles, bus_stats, grant_log)``;
    raises :class:`_Flagged` when an exactness condition fails.
    ``pure_finishes`` / ``first_times`` inject the sweep's vectorized lane
    chains (per pure-wait process finish clocks, per channel-process first
    segment clocks); omitted, they are computed here.
    """
    reference_cycle_ns = plan.reference_cycle_ns
    offsets = spec.arrival_offsets()
    n = spec.n_instances
    arrivals_ns = [offset * reference_cycle_ns for offset in offsets]

    point = _PointReplay(plan, arrivals_ns, first_times=first_times,
                         collect_grants=collect_grants)
    point.run()
    finishes = point.finishes

    if plan.pure_wait:
        if pure_finishes is None:
            pure_finishes = {
                proc: _chain_rows(arrivals_ns, deltas)
                for proc, deltas in plan.pure_wait.items()
            }
        for proc_finishes in pure_finishes.values():
            for i, t in enumerate(proc_finishes):
                if t > finishes[i]:
                    finishes[i] = t

    end_time_ns = max(finishes) if finishes else 0.0
    latencies = [
        int(round((finishes[i] - arrivals_ns[i]) / reference_cycle_ns))
        for i in range(n)
    ]
    bus_stats = {
        name: state.stats(end_time_ns)
        for name, state in point.buses.items()
    }
    return end_time_ns, latencies, bus_stats, point.grant_log


def _strip_instance(name):
    return name.rsplit("#", 1)[0]


def self_check(plan):
    """Replay the capture run itself and compare against recorded grants.

    The profile's grant streams (requester, words, when — the policy
    inputs) came from the real kernel capture; a single instance at offset
    zero must reproduce them exactly, bus for bus, float for float.  A
    mismatch means the analytic model drifted from the kernel — the caller
    must fall back.  Returns ``"ok"``, ``"skipped"`` (no recorded grants)
    or ``"failed"``.
    """
    grants = getattr(plan.profile, "grants", None)
    if not grants:
        return "skipped"
    from .traffic import TrafficSpec

    try:
        _, _, _, log = replay_traffic_point(
            plan, TrafficSpec(1, arrivals="bursty", burst_size=1,
                              mean_gap_cycles=0.0),
            collect_grants=True,
        )
    except _Flagged:
        return "failed"
    for bus_name, recorded in grants.items():
        replayed = log.get(bus_name, []) if log else []
        if len(replayed) != len(recorded):
            return "failed"
        for (name, words, when), (_, master, r_words, r_when) in zip(
                replayed, recorded):
            if (_strip_instance(name) != master or words != r_words
                    or when != r_when):
                return "failed"
    return "ok"


def _identical(replayed, reference):
    """Bit-identity of a replayed point against its kernel run."""
    return (
        replayed.makespan_cycles == reference.makespan_cycles
        and replayed.end_time_ns == reference.end_time_ns
        and replayed.latencies_cycles == reference.latencies_cycles
        and replayed.bus_stats == reference.bus_stats
    )


def replay_traffic_sweep(design, specs, granularity="transaction",
                         optimize=True, quantum=None, store=None,
                         profile=None, validate_n=1):
    """Evaluate K traffic points of one design, replaying where exact.

    Captures ONE instance's trace (with per-bus grant streams when the
    armed capture stays uncontended), compiles it, self-checks the model
    against the recorded grants, then evaluates every spec analytically:

    * **fifo** points are exact by construction on unflagged points;
      ``validate_n`` of them are still cross-checked against the kernel.
    * **priority/rr** points *require* validation: at least one point runs
      on the kernel and must match bit-identically, else the **whole
      group** falls back to kernel runs — a divergence is never silently
      returned.
    * flagged points (simultaneous requests, contended release-boundary
      ties) individually fall back to the kernel.

    Returns ``(results, stats)`` — one :class:`TrafficResult` per spec and
    a ``replay_stats`` dict (points / replayed / simulated / flagged /
    validated / fallbacks / engine / self_check).
    """
    from .traffic import TrafficResult, capture_traffic_profile, run_traffic

    stats = {
        "points": len(specs),
        "replayed": 0,
        "simulated": 0,
        "flagged": 0,
        "validated": 0,
        "fallbacks": 0,
        "engine": "vectorized",
        "self_check": None,
    }

    def simulate(spec):
        stats["simulated"] += 1
        return run_traffic(
            design, spec, granularity=granularity,
            optimize=optimize, quantum=quantum, store=store,
            profile=profile,
        )

    def all_kernel(reason):
        stats["unsupported"] = reason
        stats["fallbacks"] += len(specs)
        SIM_TOTALS["traffic_replay_fallbacks"] += len(specs)
        return [simulate(spec) for spec in specs], stats

    if profile is None:
        profile = capture_traffic_profile(
            design, granularity=granularity, optimize=optimize,
            quantum=quantum, store=store, record_grants=True,
        )
        stats["captured"] = 1
    try:
        plan = compile_replay_plan(profile, design)
    except ReplayUnsupported as exc:
        return all_kernel(str(exc))
    stats["self_check"] = self_check(plan)
    if stats["self_check"] == "failed":
        return all_kernel("self-check against recorded grants failed")

    policies = {model.policy for model in plan.buses.values()}
    needs_validation = bool(policies & {"priority", "rr"})
    n_validate = min(len(specs), max(int(validate_n), 0))
    if needs_validation:
        n_validate = max(n_validate, 1)

    results = [None] * len(specs)
    replayed = {}
    for index, spec in enumerate(specs):
        wall_start = time.perf_counter()
        try:
            end_time_ns, latencies, bus_stats, _ = replay_traffic_point(
                plan, spec,
            )
        except _Flagged as exc:
            stats["flagged"] += 1
            stats.setdefault("flag_reasons", []).append(str(exc))
            SIM_TOTALS["traffic_replay_fallbacks"] += 1
            results[index] = simulate(spec)
            continue
        replayed[index] = TrafficResult(
            design.name,
            spec,
            end_time_ns,
            time.perf_counter() - wall_start,
            latencies,
            plan.reference_cycle_ns,
            {"engine": "replay", "scheduler": "replay", "activations": 0,
             "events_scheduled": 0, "channel_fastpath_hits": 0},
            bus_stats,
            replayed=True,
        )

    validated = [i for i in sorted(replayed)][:n_validate]
    diverged = False
    for index in validated:
        reference = simulate(specs[index])
        stats["validated"] += 1
        if not _identical(replayed[index], reference):
            diverged = True
        results[index] = reference  # the kernel run is authoritative
        del replayed[index]
    if diverged:
        # Whole-group fallback: every analytically-evaluated point of this
        # sweep is discarded and re-run on the kernel.
        stats["diverged"] = True
        stats["fallbacks"] += len(replayed)
        SIM_TOTALS["traffic_replay_fallbacks"] += len(replayed)
        for index in list(replayed):
            results[index] = simulate(specs[index])
            del replayed[index]
    for index, result in replayed.items():
        results[index] = result
        stats["replayed"] += 1
        SIM_TOTALS["traffic_replays"] += 1
    return results, stats
