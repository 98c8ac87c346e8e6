"""Tests for design JSON serialisation and the CLI `tlm` command."""

import io

import pytest

from repro.apps.mp3 import Mp3Params, build_design
from repro.cli import main
from repro.cycle import run_pcam
from repro.pum import dct_hw, microblaze
from repro.rtos import RTOSModel
from repro.tlm import (
    Design,
    design_from_json,
    design_to_json,
    generate_tlm,
    load_design,
    save_design,
)

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def demo_design():
    design = Design("serialize-demo")
    design.add_pe("cpu", microblaze(8192, 4096),
                  rtos=RTOSModel(context_switch_cycles=200))
    design.add_pe("hw", dct_hw())
    design.add_bus("bus0", words_per_cycle=2, arbitration_cycles=3)
    design.add_channel(1, "req", "bus0")
    design.add_channel(2, "rsp", "bus0")
    design.add_process("driver", """
    int b[4];
    int main(void) {
      for (int i = 0; i < 4; i++) b[i] = i;
      send(1, b, 4);
      recv(2, b, 4);
      return b[0] + b[3];
    }""", "main", "cpu")
    design.add_process("idle", "void main(void) { }", "main", "cpu")
    design.add_process("echo", """
    int b[4];
    void main(void) {
      recv(1, b, 4);
      for (int i = 0; i < 4; i++) b[i] = b[i] + 10;
      send(2, b, 4);
    }""", "main", "hw")
    return design


class TestRoundTrip:
    def test_structural_round_trip(self):
        original = demo_design()
        restored = design_from_json(design_to_json(original))
        assert restored.name == original.name
        assert set(restored.pes) == set(original.pes)
        assert set(restored.channels) == set(original.channels)
        assert set(restored.processes) == set(original.processes)
        assert restored.pes["cpu"].rtos.context_switch_cycles == 200
        assert restored.pes["hw"].rtos is None
        bus = restored.buses["bus0"]
        assert (bus.words_per_cycle, bus.arbitration_cycles) == (2, 3)

    def test_behavioural_round_trip(self):
        original = demo_design()
        restored = design_from_json(design_to_json(original))
        a = generate_tlm(original, timed=True).run()
        b = generate_tlm(restored, timed=True).run()
        assert a.makespan_cycles == b.makespan_cycles
        assert (a.process("driver").return_value
                == b.process("driver").return_value)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        restored = load_design(str(path))
        assert restored.name == "serialize-demo"

    def test_mp3_design_round_trips_through_pcam(self, tmp_path):
        design, _ = build_design("SW+1", SMALL, n_frames=1, seed=5)
        path = tmp_path / "mp3.json"
        save_design(design, str(path))
        restored = load_design(str(path))
        assert (run_pcam(restored).pe("decoder").return_value
                == run_pcam(design).pe("decoder").return_value)


class TestCLITlm:
    def test_cli_runs_design_file(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        out = io.StringIO()
        code = main(["tlm", str(path)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "serialize-demo" in text
        assert "driver" in text and "echo" in text
        assert "makespan" in text

    def test_cli_functional_mode(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        out = io.StringIO()
        assert main(["tlm", str(path), "--functional"], out=out) == 0
        assert "functional TLM" in out.getvalue()

    def test_cli_simulate_alias(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        out = io.StringIO()
        assert main(["simulate", str(path)], out=out) == 0
        assert "makespan" in out.getvalue()

    def test_cli_kernel_stats(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        out = io.StringIO()
        assert main(["simulate", str(path), "--kernel-stats"], out=out) == 0
        text = out.getvalue()
        assert "activations" in text and "fast-path" in text

    def test_cli_scheduler_option_removed(self, tmp_path, capsys):
        # One event loop: ``--scheduler`` is an unknown option (exit 2).
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        with pytest.raises(SystemExit) as info:
            main(["simulate", str(path), "--scheduler", "heap"])
        assert info.value.code == 2
        assert "--scheduler" in capsys.readouterr().err

    def test_cli_engine_option_removed(self, tmp_path, capsys):
        # One process model: ``--engine`` is an unknown option (exit 2).
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))
        with pytest.raises(SystemExit) as info:
            main(["simulate", str(path), "--engine", "thread"])
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_cli_engines_report_same_makespan(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(demo_design(), str(path))

        def makespan_line(argv):
            out = io.StringIO()
            assert main(argv, out=out) == 0
            return out.getvalue().splitlines()[0]

        fast = makespan_line(["simulate", str(path)])
        slow = makespan_line(["simulate", str(path), "--no-optimize"])
        quantum = makespan_line(["simulate", str(path), "--granularity",
                                 "quantum", "--quantum", "4"])
        assert "makespan" in fast
        # identical makespans; only the wall-clock suffix may differ
        assert fast.split("cycles")[0] == slow.split("cycles")[0]
        assert fast.split("cycles")[0] == quantum.split("cycles")[0]
