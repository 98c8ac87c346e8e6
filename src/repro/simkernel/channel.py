"""Abstract bus channels for inter-process communication.

Implements the transaction-level bus channel of Yu/Abdi/Gajski (the paper's
reference [16]): processes exchange messages over a shared bus through
blocking ``send_gen``/``recv_gen`` generator operations (``yield from``
them inside a kernel process).  The channel model captures the two costs
that matter at transaction level — *transfer time* (bus words per cycle plus
per-transaction arbitration overhead) and *contention* (one transaction at a
time per bus) — without pin-level detail.
"""

from __future__ import annotations

from collections import deque

from .kernel import OP_RECV, OP_SEND, SimulationError


class Bus:
    """A shared bus: a serialising resource with transfer timing.

    Args:
        kernel: the simulation kernel.
        name: bus name.
        cycle_ns: duration of one bus cycle in simulated time units.
        words_per_cycle: bus width in data words moved per cycle.
        arbitration_cycles: fixed per-transaction overhead.
    """

    def __init__(self, kernel, name, cycle_ns=10.0, words_per_cycle=1,
                 arbitration_cycles=2):
        if words_per_cycle < 1:
            raise SimulationError("bus needs words_per_cycle >= 1")
        self.kernel = kernel
        self.name = name
        self.cycle_ns = cycle_ns
        self.words_per_cycle = words_per_cycle
        self.arbitration_cycles = arbitration_cycles
        self.busy_until = 0.0
        self.total_transactions = 0
        self.total_words = 0

    def transfer_time(self, n_words):
        """Bus occupancy time for an ``n_words`` transaction."""
        cycles = self.arbitration_cycles + (
            (n_words + self.words_per_cycle - 1) // self.words_per_cycle
        )
        return cycles * self.cycle_ns

    def occupy_gen(self, process, n_words):
        """Wait until the bus is free, then hold it for an ``n_words``
        transfer; returns the completion time.

        The free-check loops: another master woken at the same instant may
        have re-acquired the bus first, so each wake-up must re-arbitrate.
        """
        kernel = self.kernel
        while kernel.now < self.busy_until:
            yield self.busy_until - kernel.now
        duration = self.transfer_time(n_words)
        self.busy_until = kernel.now + duration
        self.total_transactions += 1
        self.total_words += n_words
        yield duration
        return kernel.now


class BusChannel:
    """A blocking FIFO message channel mapped onto a :class:`Bus`.

    ``send_gen`` occupies the bus for the message's transfer time and
    deposits the data; ``recv_gen`` blocks until enough words have
    arrived.  Word granularity matches CMini array elements.
    """

    def __init__(self, kernel, name, bus=None):
        self.kernel = kernel
        self.name = name
        self.bus = bus
        self._data = deque()
        self._waiting_receivers = deque()  # (process, count)
        self.total_sent = 0

    # -- producer side -------------------------------------------------------

    def send_gen(self, process, values):
        """Send ``values`` (a sequence of words) over the channel."""
        values = list(values)
        if self.bus is not None:
            yield from self.bus.occupy_gen(process, len(values))
        self._data.extend(values)
        self.total_sent += len(values)
        self._wake_receivers()

    # -- consumer side -------------------------------------------------------

    def recv_gen(self, process, count):
        """Receive exactly ``count`` words, blocking until available."""
        data = self._data
        while len(data) < count:
            process.blocked_on = "recv(%s, %d)" % (self.name, count)
            self._waiting_receivers.append(process)
            yield None
        taken = [data.popleft() for _ in range(count)]
        return taken

    def _wake_receivers(self):
        while self._waiting_receivers:
            process = self._waiting_receivers.popleft()
            self.kernel._wake(process)

    @property
    def pending_words(self):
        return len(self._data)


class RecordingChannel:
    """Records every channel operation of a real channel, then delegates.

    The simtrace twin of :class:`~repro.trace.capture.TracingCache`: data
    movement, bus timing and blocking behaviour pass straight through to the
    wrapped :class:`BusChannel`, so a recorded run is observably identical
    to an unrecorded one.  Only instantiated when a
    :class:`~repro.simkernel.kernel.TraceRecorder` is attached — with
    recording off the real channels are used directly and this class never
    runs.
    """

    __slots__ = ("_channel", "_recorder", "_chan_id")

    def __init__(self, channel, recorder, chan_id):
        object.__setattr__(self, "_channel", channel)
        object.__setattr__(self, "_recorder", recorder)
        object.__setattr__(self, "_chan_id", chan_id)

    def send_gen(self, process, values):
        values = list(values)
        self._recorder.record(process.name, OP_SEND, self._chan_id,
                              len(values))
        return self._channel.send_gen(process, values)

    def recv_gen(self, process, count):
        self._recorder.record(process.name, OP_RECV, self._chan_id, count)
        return self._channel.recv_gen(process, count)

    def __getattr__(self, name):
        return getattr(self._channel, name)

    def __repr__(self):
        return "RecordingChannel(%r)" % (self._channel,)


def record_channel_map(channel_map, recorder):
    """A new :class:`ChannelMap` with every channel wrapped for recording."""
    recorded = ChannelMap()
    for chan_id, channel in channel_map:
        recorded.add(chan_id, RecordingChannel(channel, recorder, chan_id))
    return recorded


class ChannelMap:
    """Integer channel ids → :class:`BusChannel`, as seen by CMini code.

    The CMini intrinsics address channels by integer id (``send(2, buf, n)``);
    the TLM generator builds this map from the platform netlist.
    """

    def __init__(self):
        self._channels = {}

    def add(self, chan_id, channel):
        if chan_id in self._channels:
            raise SimulationError("duplicate channel id %d" % chan_id)
        self._channels[chan_id] = channel

    def get(self, chan_id):
        try:
            return self._channels[chan_id]
        except KeyError:
            raise SimulationError("no channel with id %r" % chan_id)

    def __iter__(self):
        return iter(self._channels.items())

    def __len__(self):
        return len(self._channels)
