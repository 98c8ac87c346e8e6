"""Unit tests for buses and bus channels."""

import pytest

from repro.simkernel import Bus, BusChannel, ChannelMap, Kernel, SimulationError


class TestBusTiming:
    def test_transfer_time_formula(self):
        kernel = Kernel()
        bus = Bus(kernel, "b", cycle_ns=10.0, words_per_cycle=2,
                  arbitration_cycles=3)
        # 5 words at 2 words/cycle = 3 cycles + 3 arbitration = 6 cycles.
        assert bus.transfer_time(5) == 60.0

    def test_transfer_time_rounds_up(self):
        kernel = Kernel()
        bus = Bus(kernel, "b", words_per_cycle=4, arbitration_cycles=0)
        assert bus.transfer_time(1) == bus.transfer_time(4)

    def test_invalid_width(self):
        with pytest.raises(SimulationError):
            Bus(Kernel(), "b", words_per_cycle=0)

    def test_contention_serialises_transactions(self):
        kernel = Kernel()
        bus = Bus(kernel, "b", cycle_ns=10.0, words_per_cycle=1,
                  arbitration_cycles=0)
        completions = []

        def sender(name):
            def body(p):
                yield from bus.occupy_gen(p, 10)  # 100 ns
                completions.append((name, kernel.now))
            return body

        kernel.add_process("s1", sender("s1"))
        kernel.add_process("s2", sender("s2"))
        kernel.run()
        assert completions == [("s1", 100.0), ("s2", 200.0)]

    def test_statistics(self):
        kernel = Kernel()
        bus = Bus(kernel, "b")

        def body(p):
            yield from bus.occupy_gen(p, 8)
            yield from bus.occupy_gen(p, 8)

        kernel.add_process("p", body)
        kernel.run()
        assert bus.total_transactions == 2
        assert bus.total_words == 16


class TestBusChannel:
    def test_fifo_order(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "c", Bus(kernel, "b"))
        got = []

        def producer(p):
            yield from channel.send_gen(p, [1, 2])
            yield from channel.send_gen(p, [3])

        def consumer(p):
            got.extend((yield from channel.recv_gen(p, 1)))
            got.extend((yield from channel.recv_gen(p, 2)))

        kernel.add_process("prod", producer)
        kernel.add_process("cons", consumer)
        kernel.run()
        assert got == [1, 2, 3]

    def test_receiver_blocks_until_data(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "c", Bus(kernel, "b", cycle_ns=10.0,
                                              arbitration_cycles=0))
        arrival = []

        def producer(p):
            yield 100.0
            yield from channel.send_gen(p, [7])

        def consumer(p):
            value = yield from channel.recv_gen(p, 1)
            arrival.append((value, kernel.now))

        kernel.add_process("prod", producer)
        kernel.add_process("cons", consumer)
        kernel.run()
        assert arrival[0][0] == [7]
        assert arrival[0][1] >= 100.0

    def test_channel_without_bus_is_instant(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "c", bus=None)
        times = []

        def producer(p):
            yield from channel.send_gen(p, [1])
            times.append(kernel.now)

        def consumer(p):
            yield from channel.recv_gen(p, 1)
            times.append(kernel.now)

        kernel.add_process("prod", producer)
        kernel.add_process("cons", consumer)
        kernel.run()
        assert times == [0.0, 0.0]

    def test_two_receivers_split_stream(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "c", bus=None)
        taken = {}

        def producer(p):
            for chunk in ([1], [2], [3], [4]):
                yield 10.0
                yield from channel.send_gen(p, chunk)

        def consumer(name):
            def body(p):
                taken[name] = yield from channel.recv_gen(p, 2)
            return body

        kernel.add_process("prod", producer)
        kernel.add_process("c1", consumer("c1"))
        kernel.add_process("c2", consumer("c2"))
        kernel.run()
        assert sorted(taken["c1"] + taken["c2"]) == [1, 2, 3, 4]

    def test_pending_words(self):
        kernel = Kernel()
        channel = BusChannel(kernel, "c", bus=None)

        def producer(p):
            yield from channel.send_gen(p, [1, 2, 3])

        kernel.add_process("prod", producer)
        kernel.run()
        assert channel.pending_words == 3
        assert channel.total_sent == 3


class TestChannelMap:
    def test_lookup(self):
        kernel = Kernel()
        cmap = ChannelMap()
        chan = BusChannel(kernel, "c", None)
        cmap.add(3, chan)
        assert cmap.get(3) is chan
        assert len(cmap) == 1

    def test_duplicate_rejected(self):
        cmap = ChannelMap()
        cmap.add(1, object())
        with pytest.raises(SimulationError):
            cmap.add(1, object())

    def test_missing_raises(self):
        with pytest.raises(SimulationError):
            ChannelMap().get(9)
