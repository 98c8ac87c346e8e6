"""Numpy-vectorized multi-point trace replay.

One pass over the recorded op streams evaluates K design points ("lanes")
at once: every simulated-time quantity is a length-K float64 array, and
every arithmetic step mirrors the kernel's own float operations
elementwise — ``t + cycles * cycle_ns`` for waits, the iterated
``t += (busy - t)`` busy-wait loop for bus arbitration, ``max(t, done)``
for receive completion.  For lanes where the model's exactness conditions
hold, the result is bit-identical to the scalar kernel.

The model assumes bus transactions are granted in the *recorded* order.
The kernel guarantees that when, per bus, raw request times are strictly
increasing and no request lands exactly on a prior transaction's
completion boundary (at such a boundary a freshly arriving request can
beat an already-waiting one on event sequence numbers).  Both conditions
are checked per lane as the pass runs; lanes that trip either are marked
not-OK and the caller re-evaluates them with the exact scalar engine —
conservatism costs speed, never accuracy.

Out of scope entirely (the caller routes these to the scalar engine):
RTOS-shared PEs, channels with multiple senders or receivers, and traces
with more than :data:`MAX_BUS_SENDS` transactions on one bus (the boundary
check is quadratic in that count).
"""

from __future__ import annotations

import numpy as np

from ..simkernel.kernel import OP_RECV, OP_SEND, OP_WAIT
from .trace import SimTraceError

__all__ = ["MAX_BUS_SENDS", "replay_sweep"]

#: Per-bus transaction cap beyond which vectorization is declined.
MAX_BUS_SENDS = 512


def _channel_crossings(trace):
    """Per channel: record-ordered send list and each recv's crossing send.

    The crossing of recv ``j`` is the index (into the channel's send list)
    of the send whose deposit first satisfies the recv's cumulative demand
    — a pure word-count property, independent of timing, valid because
    each channel has a single sender and a single receiver.  ``-1`` marks
    a zero-count recv (never blocks).
    """
    sends = {}   # chan -> [(seq, proc, op_pos, n_words)] in record order
    recvs = {}   # chan -> [(seq, proc, op_pos, count)] in record order
    for name, proc_trace in trace.processes.items():
        for pos, (seq, op, a, b) in enumerate(proc_trace.ops):
            if op == OP_SEND:
                sends.setdefault(a, []).append((seq, name, pos, b))
            elif op == OP_RECV:
                recvs.setdefault(a, []).append((seq, name, pos, b))
    for entries in sends.values():
        entries.sort()
    for entries in recvs.values():
        entries.sort()

    crossings = {}  # (proc, op_pos) -> (chan, send_idx)
    for chan, recv_list in recvs.items():
        send_list = sends.get(chan, [])
        cum_sent = 0
        send_idx = 0
        cum_needed = 0
        for _, proc, pos, count in recv_list:
            if count <= 0:
                crossings[(proc, pos)] = (chan, -1)
                continue
            cum_needed += count
            while send_idx < len(send_list) and cum_sent < cum_needed:
                cum_sent += send_list[send_idx][3]
                send_idx += 1
            if cum_sent < cum_needed:
                raise SimTraceError(
                    "trace is incomplete: channel %d recv demands %d words "
                    "but only %d were sent" % (chan, cum_needed, cum_sent)
                )
            crossings[(proc, pos)] = (chan, send_idx - 1)
    return sends, crossings


def replay_sweep(trace, designs, delay_scales):
    """Evaluate ``designs`` (all topology-compatible lanes) in one pass.

    Returns ``(makespans, end_times, per_process_cycles, ok)`` —
    ``makespans`` int64[K], ``end_times`` float64[K], per-process applied
    cycle counts as ``{name: int64[K]}``, and ``ok`` bool[K] marking lanes
    whose result is exact.  Returns ``None`` when the trace shape defeats
    the model entirely (caller falls back to scalar replay for every
    lane).
    """
    k = len(designs)
    sends, crossings = _channel_crossings(trace)
    # Per-bus record-ordered send queues (a channel maps to one bus, but a
    # bus can carry several channels).
    bus_of_chan = {}
    reference = designs[0]
    for chan_id, chan_decl in reference.channels.items():
        bus_of_chan[chan_id] = chan_decl.bus_name
    bus_sends = {}  # bus -> [(seq, proc, op_pos, n_words)]
    for chan, send_list in sends.items():
        bus = bus_of_chan.get(chan)
        if bus is None:
            return None
        bus_sends.setdefault(bus, []).extend(send_list)
    for entries in bus_sends.values():
        entries.sort()
        if len(entries) > MAX_BUS_SENDS:
            return None
    for design in designs:
        for chan in sends:
            if bus_of_chan.get(chan) != design.channels[chan].bus_name:
                return None  # channel re-routed: lanes disagree on topology

    # -- lane-parallel platform parameters -----------------------------------
    pe_cyc = {}
    scale = {}
    for name, proc_trace in trace.processes.items():
        pe_cyc[name] = np.array(
            [d.pes[proc_trace.pe_name].cycle_ns for d in designs],
            dtype=np.float64,
        )
        scale[name] = np.array(
            [1.0 if s is None else s.get(name, 1.0) for s in delay_scales],
            dtype=np.float64,
        )
    bus_cyc, bus_wpc, bus_arb = {}, {}, {}
    for bus in bus_sends:
        bus_cyc[bus] = np.array(
            [d.buses[bus].cycle_ns for d in designs], dtype=np.float64
        )
        bus_wpc[bus] = np.array(
            [d.buses[bus].words_per_cycle for d in designs], dtype=np.int64
        )
        bus_arb[bus] = np.array(
            [d.buses[bus].arbitration_cycles for d in designs],
            dtype=np.int64,
        )

    # -- mutable per-lane state ----------------------------------------------
    t = {name: np.zeros(k) for name in trace.processes}
    cycles_sum = {name: np.zeros(k) for name in trace.processes}
    ptr = {name: 0 for name in trace.processes}
    busy = {bus: np.zeros(k) for bus in bus_sends}
    prev_req = {bus: np.full(k, -np.inf) for bus in bus_sends}
    boundaries = {bus: [] for bus in bus_sends}
    bus_next = {bus: 0 for bus in bus_sends}
    flagged = np.zeros(k, dtype=bool)
    send_done = {chan: [None] * len(lst) for chan, lst in sends.items()}
    send_rank = {}  # (proc, op_pos) -> (chan, idx into that channel's list)
    for chan, send_list in sends.items():
        for idx, (seq, proc, pos, n) in enumerate(send_list):
            send_rank[(proc, pos)] = (chan, idx)

    def run_send(name, pos, n_words):
        chan, chan_idx = send_rank[(name, pos)]
        bus = bus_of_chan[chan]
        req = t[name]
        flags = req <= prev_req[bus]
        for boundary in boundaries[bus]:
            flags = flags | (req == boundary)
        np.logical_or(flagged, flags, out=flagged)
        prev_req[bus] = req.copy()
        bus_busy = busy[bus]
        waiting = req < bus_busy
        while waiting.any():
            req = np.where(waiting, req + (bus_busy - req), req)
            waiting = req < bus_busy
        tx_cycles = bus_arb[bus] + (
            (n_words + bus_wpc[bus] - 1) // bus_wpc[bus]
        )
        done = req + tx_cycles * bus_cyc[bus]
        busy[bus] = done
        boundaries[bus].append(done)
        t[name] = done
        send_done[chan][chan_idx] = done
        bus_next[bus] += 1

    progressed = True
    remaining = sum(len(p.ops) for p in trace.processes.values())
    while progressed and remaining:
        progressed = False
        for name, proc_trace in trace.processes.items():
            ops = proc_trace.ops
            while ptr[name] < len(ops):
                seq, op, a, b = ops[ptr[name]]
                if op == OP_WAIT:
                    cyc = np.rint(a * scale[name])
                    cycles_sum[name] = cycles_sum[name] + cyc
                    t[name] = t[name] + cyc * pe_cyc[name]
                elif op == OP_SEND:
                    bus = bus_of_chan[a]
                    queue = bus_sends[bus]
                    if (bus_next[bus] >= len(queue)
                            or queue[bus_next[bus]][0] != seq):
                        break  # an earlier-record send on this bus is due
                    run_send(name, ptr[name], b)
                else:  # OP_RECV
                    chan, crossing = crossings[(name, ptr[name])]
                    if crossing >= 0:
                        done = send_done[chan][crossing]
                        if done is None:
                            break  # crossing send not evaluated yet
                        t[name] = np.maximum(t[name], done)
                ptr[name] += 1
                remaining -= 1
                progressed = True
    if remaining:
        return None  # dependency stall; let the scalar engine sort it out

    end_times = np.zeros(k)
    for name in trace.processes:
        end_times = np.maximum(end_times, t[name])
    makespans = np.rint(end_times / trace.reference_cycle_ns).astype(np.int64)
    per_process = {
        name: cycles_sum[name].astype(np.int64) for name in trace.processes
    }
    return makespans, end_times, per_process, ~flagged
