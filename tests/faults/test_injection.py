"""Fault-injection behaviour on real TLM and PCAM runs.

The central claims under test:

* **pay-for-what-you-use** — with no scenario (or one that never fires),
  cycle counts are bit-identical to the fault-free run;
* **determinism** — same seed + scenario gives identical counters and
  makespans across repeated runs and (for counters) across the TLM/PCAM
  boundary;
* the four fault families actually do what the docs say (corrupt changes
  data but not timing; delay/stall add time; drop and halt starve peers
  into a named deadlock; crash aborts with a structured error).
"""

import pytest

from repro.cycle import run_pcam
from repro.faults import (
    ChannelFault,
    FaultInjectedError,
    FaultScenario,
    FaultScenarioError,
    ProcessFault,
)
from repro.pum import dct_hw, microblaze
from repro.simkernel import DeadlockError, SimulationError
from repro.tlm import Design, generate_tlm

CPU_SRC = """
int buf[8];
int total;
int main(void) {
  for (int f = 0; f < 3; f++) {
    for (int i = 0; i < 8; i++) buf[i] = f * 8 + i;
    send(1, buf, 8);
    recv(2, buf, 8);
    for (int i = 0; i < 8; i++) total += buf[i];
  }
  return total;
}
"""

HW_SRC = """
int data[8];
void main(void) {
  for (int f = 0; f < 3; f++) {
    recv(1, data, 8);
    for (int i = 0; i < 8; i++) data[i] = data[i] * 3 + 1;
    send(2, data, 8);
  }
}
"""


def two_pe_design():
    design = Design("faults-test")
    design.add_pe("cpu", microblaze(2048, 2048))
    design.add_pe("hw0", dct_hw())
    design.add_bus("bus0")
    design.add_channel(1, "req", "bus0")
    design.add_channel(2, "rsp", "bus0")
    design.add_process("sw", CPU_SRC, "main", "cpu")
    design.add_process("acc", HW_SRC, "main", "hw0")
    return design


def run_tlm(faults=None):
    model = generate_tlm(two_pe_design(), timed=True)
    return model.run(faults=faults)


def expected_total():
    acc = 0
    for f in range(3):
        for i in range(8):
            acc += (f * 8 + i) * 3 + 1
    return acc


class TestPayForWhatYouUse:
    def test_empty_scenario_is_bit_identical(self):
        clean = run_tlm()
        empty = run_tlm(faults=FaultScenario("empty"))
        assert empty.makespan_cycles == clean.makespan_cycles
        assert empty.fault_stats["total_events"] == 0

    def test_zero_rate_faults_are_bit_identical(self):
        clean = run_tlm()
        quiet = FaultScenario("quiet", seed=1, faults=[
            ChannelFault("corrupt", "req", rate=0.0),
            ChannelFault("delay", "rsp", rate=0.0, cycles=100),
        ])
        faulty = run_tlm(faults=quiet)
        assert faulty.makespan_cycles == clean.makespan_cycles
        assert faulty.fault_stats["total_events"] == 0

    def test_no_scenario_leaves_fault_stats_empty(self):
        assert run_tlm().fault_stats == {}

    def test_pcam_empty_scenario_is_bit_identical(self):
        clean = run_pcam(two_pe_design())
        empty = run_pcam(two_pe_design(), faults=FaultScenario("empty"))
        assert empty.makespan_cycles == clean.makespan_cycles
        assert empty.fault_stats["total_events"] == 0


class TestCorrupt:
    def test_corrupt_changes_data_not_timing(self):
        clean = run_tlm()
        scenario = FaultScenario("flip", faults=[
            ChannelFault("corrupt", "req", xor_mask=0xFF),
        ])
        faulty = run_tlm(faults=scenario)
        # All 3 req transactions corrupted, 8 words each.
        assert faulty.fault_stats["corrupted_transactions"] == 3
        assert faulty.fault_stats["corrupted_words"] == 24
        # Payloads changed, so the consumer computes a different total...
        assert (faulty.process("sw").return_value
                != clean.process("sw").return_value)
        # ...but corruption costs no time: makespans stay identical.
        assert faulty.makespan_cycles == clean.makespan_cycles

    def test_corrupt_is_involution(self):
        # XOR-corrupting both directions with the same mask restores the
        # arithmetic on already-linear stages only in special cases; here we
        # just check double-corruption of the same channel composes masks.
        scenario = FaultScenario("double", faults=[
            ChannelFault("corrupt", "req", xor_mask=0x0F),
            ChannelFault("corrupt", "req", xor_mask=0x0F),
        ])
        clean = run_tlm()
        faulty = run_tlm(faults=scenario)
        assert (faulty.process("sw").return_value
                == clean.process("sw").return_value)


class TestDelay:
    def test_delay_increases_makespan(self):
        clean = run_tlm()
        scenario = FaultScenario("slow", faults=[
            ChannelFault("delay", "req", cycles=50),
        ])
        faulty = run_tlm(faults=scenario)
        assert faulty.fault_stats["delayed_transactions"] == 3
        assert faulty.fault_stats["delay_cycles"] == 150
        assert faulty.makespan_cycles > clean.makespan_cycles

    def test_max_events_caps_firings(self):
        scenario = FaultScenario("capped", faults=[
            ChannelFault("delay", "req", cycles=50, max_events=1),
        ])
        faulty = run_tlm(faults=scenario)
        assert faulty.fault_stats["delayed_transactions"] == 1


class TestDrop:
    def test_drop_starves_receiver_into_named_deadlock(self):
        scenario = FaultScenario("lossy", faults=[
            ChannelFault("drop", "req", max_events=1),
        ])
        with pytest.raises(DeadlockError) as exc_info:
            run_tlm(faults=scenario)
        # The accelerator never gets the first frame's words back.
        assert "acc" in str(exc_info.value)


class TestProcessFaults:
    def test_stall_adds_time(self):
        clean = run_tlm()
        scenario = FaultScenario("hiccup", faults=[
            ProcessFault("stall", "sw", at_cycle=0, cycles=500),
        ])
        faulty = run_tlm(faults=scenario)
        assert faulty.fault_stats["stalls"] == 1
        assert faulty.fault_stats["stall_cycles"] == 500
        assert faulty.makespan_cycles > clean.makespan_cycles

    def test_crash_error_mode_aborts_with_structured_error(self):
        scenario = FaultScenario("fatal", faults=[
            ProcessFault("crash", "sw", at_cycle=0),
        ])
        with pytest.raises(SimulationError) as exc_info:
            run_tlm(faults=scenario)
        assert "crashed by injected fault" in str(exc_info.value)

    def test_crash_halt_mode_starves_peer(self):
        scenario = FaultScenario("silent-death", faults=[
            ProcessFault("crash", "sw", at_cycle=0, mode="halt"),
        ])
        with pytest.raises(DeadlockError) as exc_info:
            run_tlm(faults=scenario)
        assert "acc" in str(exc_info.value)

    def test_fault_injected_error_is_simulation_error(self):
        assert issubclass(FaultInjectedError, SimulationError)


class TestValidation:
    def test_unknown_channel_target_fails_fast(self):
        scenario = FaultScenario("typo", faults=[
            ChannelFault("drop", "reqq"),
        ])
        with pytest.raises(FaultScenarioError) as exc_info:
            run_tlm(faults=scenario)
        assert "reqq" in str(exc_info.value)

    def test_unknown_process_target_fails_fast(self):
        scenario = FaultScenario("typo", faults=[
            ProcessFault("stall", "cpu9", cycles=1),
        ])
        with pytest.raises(FaultScenarioError):
            run_tlm(faults=scenario)

    def test_pcam_validates_targets_too(self):
        scenario = FaultScenario("typo", faults=[
            ChannelFault("drop", "bogus"),
        ])
        with pytest.raises(FaultScenarioError):
            run_pcam(two_pe_design(), faults=scenario)


def probabilistic_scenario(seed):
    return FaultScenario("coin-flips", seed=seed, faults=[
        ChannelFault("delay", "req", rate=0.5, cycles=25),
        ChannelFault("corrupt", "rsp", rate=0.5, xor_mask=0x01),
    ])


class TestDeterminism:
    def test_same_seed_same_counters_and_makespan(self):
        first = run_tlm(faults=probabilistic_scenario(42))
        second = run_tlm(faults=probabilistic_scenario(42))
        assert first.fault_stats == second.fault_stats
        assert first.makespan_cycles == second.makespan_cycles

    def test_counters_identical_across_tlm_and_pcam(self):
        # Same application, same per-channel transaction order — the fault
        # decision streams (and so all counters) must agree between the
        # abstract TLM and the cycle-accurate board model.
        tlm = run_tlm(faults=probabilistic_scenario(42))
        board = run_pcam(two_pe_design(), faults=probabilistic_scenario(42))
        assert tlm.fault_stats == board.fault_stats

    def test_pcam_same_seed_reproducible(self):
        first = run_pcam(two_pe_design(), faults=probabilistic_scenario(7))
        second = run_pcam(two_pe_design(), faults=probabilistic_scenario(7))
        assert first.fault_stats == second.fault_stats
        assert first.makespan_cycles == second.makespan_cycles

    def test_per_fault_breakdown_reported(self):
        result = run_tlm(faults=probabilistic_scenario(42))
        per_fault = result.fault_stats["per_fault"]
        assert len(per_fault) == 2
        assert {entry["type"] for entry in per_fault} == {"delay", "corrupt"}


class TestFunctionalCorrectnessUnderFaults:
    def test_delay_preserves_data(self):
        # Delays perturb timing only: the computation's result is untouched.
        scenario = FaultScenario("slow", faults=[
            ChannelFault("delay", "req", cycles=10),
        ])
        result = run_tlm(faults=scenario)
        assert result.process("sw").return_value == expected_total()

    def test_pcam_delay_preserves_data(self):
        scenario = FaultScenario("slow", faults=[
            ChannelFault("delay", "req", cycles=10),
        ])
        clean = run_pcam(two_pe_design())
        board = run_pcam(two_pe_design(), faults=scenario)
        assert board.pe("sw").return_value == expected_total()
        assert board.makespan_cycles > clean.makespan_cycles
