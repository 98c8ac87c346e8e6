"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main

SOURCE = """
int twice(int x) { return x * 2; }
int main(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += twice(i);
  return s;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "app.cmini"
    path.write_text(SOURCE)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestEstimate:
    def test_estimate_default_pum(self, source_file):
        code, text = run_cli(["estimate", source_file])
        assert code == 0
        assert "MicroBlaze" in text
        assert "main:" in text and "twice:" in text

    def test_estimate_verbose_prints_cdfg(self, source_file):
        _, text = run_cli(["estimate", source_file, "-v"])
        assert "bb0" in text and "delay=" in text

    def test_estimate_custom_hw(self, source_file):
        code, text = run_cli(["estimate", source_file, "--pum", "dct-hw"])
        assert code == 0
        assert "DCT-HW" in text

    def test_estimate_from_json_pum(self, source_file, tmp_path):
        from repro.pum import microblaze, save_pum

        pum_path = tmp_path / "mb.json"
        save_pum(microblaze(2048, 2048), str(pum_path))
        code, text = run_cli(
            ["estimate", source_file, "--pum-json", str(pum_path)]
        )
        assert code == 0
        assert "MicroBlaze" in text

    def test_cache_options_change_estimates(self, source_file):
        _, small = run_cli(["estimate", source_file, "--icache", "0",
                            "--dcache", "0"])
        _, big = run_cli(["estimate", source_file, "--icache", "32768",
                          "--dcache", "16384"])
        def total(text):
            return sum(
                int(line.rsplit("=", 1)[1].split()[0])
                for line in text.splitlines() if "sum of static" in line
            )
        assert total(small) > total(big)


class TestCacheStats:
    def test_estimate_cache_stats(self, source_file):
        code, text = run_cli(["estimate", source_file, "--cache-stats"])
        assert code == 0
        assert "schedule cache:" in text
        assert "misses" in text and "entries" in text

    def test_estimate_cache_stats_disabled(self, source_file, monkeypatch):
        from repro.estimation import schedcache

        monkeypatch.setenv("REPRO_SCHED_CACHE", "0")
        schedcache.reset_default_cache()
        try:
            code, text = run_cli(["estimate", source_file, "--cache-stats"])
        finally:
            schedcache.reset_default_cache()
        assert code == 0
        assert "schedule cache: disabled" in text


class TestArtifactsStats:
    def test_stats_lists_kind_versions_and_stale_counts(self, tmp_path):
        """`artifacts stats` shows each kind's schema version and counts
        stale-version entries distinctly from corrupt ones."""
        import json

        from repro.artifacts import DISK_FORMAT_VERSION, kind_spec
        from repro.simtrace import TRACE_KIND  # registers sim-trace

        version = kind_spec(TRACE_KIND).version
        kind_dir = tmp_path / TRACE_KIND
        kind_dir.mkdir()

        def envelope(key, kind_version=version):
            return json.dumps({
                "format": DISK_FORMAT_VERSION, "kind": TRACE_KIND,
                "kind_version": kind_version, "key": key, "value": {},
            })

        (kind_dir / "ok.json").write_text(envelope("a"))
        (kind_dir / "old.json").write_text(
            envelope("b", kind_version=version - 1))
        (kind_dir / "deadbeef.json").write_text("{not json")

        code, text = run_cli(["artifacts", "stats",
                              "--dir", str(tmp_path)])
        assert code == 0
        line = next(l for l in text.splitlines() if TRACE_KIND in l)
        assert "v%d" % version in line
        assert "3 entries" in line
        assert "1 stale" in line
        assert "1 corrupt" in line


class TestExplore:
    def test_explore_small_sweep(self):
        code, text = run_cli([
            "explore", "--small", "--cache-config", "2048:2048",
        ])
        assert code == 0
        assert "Explored 4 design points" in text
        assert "workers=1" in text
        assert "Pareto front" in text
        assert "SW+4@2k/2k" in text

    def test_explore_parallel_workers(self):
        code, text = run_cli([
            "explore", "--small", "--workers", "2",
            "--cache-config", "2048:2048",
        ])
        assert code == 0
        assert "Explored 4 design points" in text

    def test_explore_bad_cache_config(self):
        with pytest.raises(SystemExit):
            run_cli(["explore", "--small", "--cache-config", "bogus"])

    def test_explore_platform_sweep_with_replay_report(self):
        from repro import artifacts

        artifacts.reset_default_store()
        try:
            code, text = run_cli([
                "explore", "--small", "--sweep", "platform",
                "--replay", "auto", "--report",
            ])
        finally:
            artifacts.reset_default_store()
        assert code == 0
        assert "Explored 18 design points" in text
        assert "Replay fast path (auto): 1 traces captured" in text
        assert "Sim-trace replay report:" in text
        for label in ("traces captured", "traces reused", "replayed exact",
                      "kernel simulations", "validated vs kernel",
                      "group fallbacks", "vectorized evaluations"):
            assert label in text

    def test_explore_replay_off_prints_no_replay_lines(self):
        code, text = run_cli([
            "explore", "--small", "--cache-config", "2048:2048",
        ])
        assert code == 0
        assert "Replay fast path" not in text

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_explore_report_prints_generation_stages(self, workers):
        code, text = run_cli([
            "explore", "--small", "--workers", workers,
            "--cache-config", "2048:2048", "--report",
        ])
        assert code == 0
        assert "Generation report (4 points" in text
        for stage in ("frontend", "annotate", "codegen", "total"):
            assert stage in text
        assert "hits" in text and "misses" in text and "hit rate" in text


class TestSearchCli:
    ARGS = [
        "search", "--small", "--icache", "4096,8192",
        "--dcache", "2048,4096", "--bus-widths", "1,2",
        "--bus-arbitrations", "1,4", "--cpu-mhz", "66,100,150,200",
        "--keep-top", "6", "--rung-fraction", "0.2",
    ]

    def test_search_staged_pipeline(self):
        code, text = run_cli(self.ARGS)
        assert code == 0
        assert "Search space: 64 points (6 axes)" in text
        for stage in ("static", "approx-rung", "exact"):
            assert stage in text
        assert "Evaluated 6 points with the exact tier" in text
        assert "Pareto front" in text

    def test_search_top_k_truncates_ranking(self):
        code, text = run_cli(self.ARGS + ["--top-k", "3"])
        assert code == 0
        assert "Top 3 of 6 ranked points:" in text
        assert "rank" in text

    def test_search_report_prints_stage_counters(self):
        code, text = run_cli(self.ARGS + ["--report"])
        assert code == 0
        assert "Search report:" in text
        assert "prune rate" in text
        assert "delay_groups" in text
        assert "tlm-delays" in text and "app-profile" in text

    def test_search_bad_shard_is_one_line_error(self):
        code, text = run_cli(self.ARGS + ["--shard", "4/4"])
        assert code == 2
        assert text.startswith("error:")
        assert len(text.strip().splitlines()) == 1

    def test_search_shard_and_merge_roundtrip(self, tmp_path):
        paths = []
        for shard in ("0/2", "1/2"):
            path = str(tmp_path / ("shard-%s.json" % shard.replace("/", "-")))
            paths.append(path)
            code, text = run_cli(self.ARGS + [
                "--shard", shard, "--checkpoint", path,
            ])
            assert code == 0
            assert "shard %s" % shard in text
        merged_path = str(tmp_path / "merged.json")
        code, text = run_cli(self.ARGS + [
            "--merge", paths[0], paths[1], "--checkpoint", merged_path,
        ])
        assert code == 0
        assert "Merged 2 shard checkpoints" in text
        assert "Merged checkpoint written to" in text
        assert "Pareto front" in text

    def test_explore_top_k_truncates_ranking(self):
        code, text = run_cli([
            "explore", "--small", "--cache-config", "2048:2048",
            "--top-k", "2",
        ])
        assert code == 0
        assert "Top 2 of 4 ranked points:" in text


class TestCalibrate:
    def test_calibrate_traced_fast_path(self):
        code, text = run_cli([
            "calibrate", "--small", "--frames", "1",
            "--cache-config", "0:0", "--cache-config", "2048:2048",
        ])
        assert code == 0
        assert "1 reference run, traced fast path" in text
        assert "MemoryModel" in text and "BranchModel" in text
        assert "2048" in text

    def test_calibrate_no_trace_replays_per_config(self):
        code, text = run_cli([
            "calibrate", "--small", "--frames", "1",
            "--cache-config", "0:0", "--cache-config", "2048:2048",
            "--no-trace-cache",
        ])
        assert code == 0
        assert "2 reference runs, per-config replay" in text

    def test_calibrate_invalid_geometry_is_one_line_error(self):
        code, text = run_cli([
            "calibrate", "--small", "--frames", "1",
            "--cache-config", "1000:512",
        ])
        assert code == 2
        assert text.startswith("error:")
        assert len(text.strip().splitlines()) == 1


class TestRun:
    def test_run_interpreter(self, source_file):
        code, text = run_cli(["run", source_file, "5"])
        assert code == 0
        assert "main(5) = 20" in text

    def test_run_timed_reports_cycles(self, source_file):
        # argparse quirk: entry arguments go before the option flags.
        code, text = run_cli(["run", source_file, "5", "--timed"])
        assert code == 0
        assert "main(5) = 20" in text
        assert "Estimated" in text and "cycles" in text

    def test_run_other_entry(self, source_file):
        code, text = run_cli(["run", source_file, "21", "--entry", "twice"])
        assert code == 0
        assert "twice(21) = 42" in text

    COMM_SOURCE = """
    int buf[2];
    int push(void) { send(1, buf, 2); return 0; }
    int main(void) { return push(); }
    int pure(void) { return 7; }
    """

    @pytest.mark.parametrize("argv", [
        ["run"], ["run", "--timed"], ["profile"],
    ])
    def test_communicating_entry_refused_before_running(self, tmp_path,
                                                         argv):
        path = tmp_path / "comm.cmini"
        path.write_text(self.COMM_SOURCE)
        code, text = run_cli(argv[:1] + [str(path)] + argv[1:])
        assert code == 2
        assert text == (
            "error: main() can reach send/recv; a single program has no "
            "channels (simulate a design instead)\n"
        )

    def test_comm_free_entry_of_communicating_program_runs(self, tmp_path):
        path = tmp_path / "comm.cmini"
        path.write_text(self.COMM_SOURCE)
        code, text = run_cli(["run", str(path), "--entry", "pure", "--timed"])
        assert code == 0
        assert "pure() = 7" in text

    def test_runtime_failure_is_an_abort(self, tmp_path):
        path = tmp_path / "oob.cmini"
        path.write_text("int main(void) { int v[2]; int i = 5; "
                        "return v[i]; }")
        for argv in (["run", str(path)], ["profile", str(path)]):
            code, text = run_cli(argv)
            assert code == 3
            assert text.startswith("simulation aborted: index 5 out of "
                                   "bounds for 'v'[2]")
            assert text.count("\n") == 1


class TestDisasm:
    def test_disasm_output(self, source_file):
        code, text = run_cli(["disasm", source_file, "3"])
        assert code == 0
        assert "main:" in text
        assert "jal" in text
        assert "halt" in text


class TestErrors:
    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            run_cli(["estimate", "/nonexistent/path.cmini"])

    def test_semantic_error_exits_2(self, tmp_path):
        # A malformed source is bad input (exit 2, one ``error:`` line),
        # not an internal error.
        path = tmp_path / "bad.cmini"
        path.write_text("int main(void) { return nope; }")
        code, text = run_cli(["estimate", str(path)])
        assert code == 2
        assert text == "error: line 1: undefined variable 'nope'\n"

    @pytest.mark.parametrize("source, message", [
        ("int x = \u00b2;", "error: line 1:9: unexpected character '\u00b2'\n"),
        ("int main(void) { return 1 +; }",
         "error: line 1:28: unexpected token ';'\n"),
    ])
    def test_lex_and_parse_errors_exit_2(self, tmp_path, source, message):
        path = tmp_path / "bad.cmini"
        path.write_text(source, encoding="utf-8")
        assert run_cli(["estimate", str(path)]) == (2, message)

    def test_simulate_malformed_process_exits_2(self, tmp_path):
        from repro.pum import microblaze
        from repro.tlm import Design, save_design

        design = Design("bad-source")
        design.add_pe("cpu", microblaze(2048, 2048))
        design.add_process("p", "int main(void) { return 0x1G; }",
                           "main", "cpu")
        path = tmp_path / "design.json"
        save_design(design, str(path))
        assert run_cli(["simulate", str(path)]) == (
            2, "error: line 1:25: malformed numeric literal\n",
        )

    @pytest.mark.parametrize("edit, message", [
        pytest.param(
            lambda d: d["buses"][0].update(cycle_ns=float("nan")),
            "bus 'bus0': cycle_ns must be a finite number >= 0, not nan",
            id="cycle-nan"),
        pytest.param(
            lambda d: d["buses"][0].update(cycle_ns=float("inf")),
            "bus 'bus0': cycle_ns must be a finite number >= 0, not inf",
            id="cycle-inf"),
        pytest.param(
            lambda d: d["buses"][0].update(cycle_ns=-10.0),
            "bus 'bus0': cycle_ns must be a finite number >= 0, not -10.0",
            id="cycle-negative"),
        pytest.param(
            lambda d: d["buses"][0].update(words_per_cycle=0),
            "bus 'bus0': words_per_cycle must be a finite number >= 1, "
            "not 0",
            id="width-zero"),
        pytest.param(
            lambda d: d["buses"][0].update(arbitration_cycles=-1),
            "bus 'bus0': arbitration_cycles must be a finite number >= 0, "
            "not -1",
            id="arbitration-negative"),
        pytest.param(
            lambda d: d["buses"][0].update(policy="lottery"),
            "bus 'bus0': unknown arbitration policy 'lottery' (choose "
            "fifo, priority, rr)",
            id="policy-unknown"),
        pytest.param(
            lambda d: d["buses"].append(dict(d["buses"][0])),
            "duplicate bus 'bus0'",
            id="bus-duplicate"),
        pytest.param(
            lambda d: d["pes"][0]["pum"].update(frequency_mhz=0),
            "PE 'cpu': frequency_mhz must be finite and > 0, not 0",
            id="clock-zero"),
        pytest.param(
            lambda d: d["pes"][0]["pum"].update(frequency_mhz=float("nan")),
            "PE 'cpu': frequency_mhz must be finite and > 0, not nan",
            id="clock-nan"),
        pytest.param(
            lambda d: d["pes"][0]["pum"].update(frequency_mhz=-100.0),
            "PE 'cpu': frequency_mhz must be finite and > 0, not -100.0",
            id="clock-negative"),
        pytest.param(
            lambda d: d["channels"][0].update(bus="nobus"),
            "channel 'req' references unknown bus 'nobus'",
            id="channel-unknown-bus"),
        pytest.param(
            lambda d: d["processes"][0].update(pe="nope"),
            "process 'drv' mapped to unknown PE 'nope'",
            id="process-unknown-pe"),
    ])
    def test_simulate_malformed_platform_exits_2(self, tmp_path, edit,
                                                 message):
        # A malformed platform value is bad input (exit 2, one ``error:``
        # line) caught where the design is built, not a crash mid-run.
        import json

        from repro.pum import dct_hw, microblaze
        from repro.tlm import Design, design_to_dict

        design = Design("bad-platform")
        design.add_pe("cpu", microblaze(2048, 2048))
        design.add_pe("hw0", dct_hw())
        design.add_bus("bus0")
        design.add_channel(1, "req", "bus0")
        design.add_process("drv", "int main(void) { return 0; }", "main",
                           "cpu")
        data = design_to_dict(design)
        edit(data)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(data))
        assert run_cli(["simulate", str(path)]) == (
            2, "error: %s\n" % message,
        )

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])


class TestResilienceFlags:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.pum import dct_hw, microblaze
        from repro.tlm import Design, save_design

        design = Design("cli-faults")
        design.add_pe("cpu", microblaze(2048, 2048))
        design.add_pe("hw0", dct_hw())
        design.add_bus("bus0")
        design.add_channel(1, "req", "bus0")
        design.add_channel(2, "rsp", "bus0")
        design.add_process("sw", """
        int buf[4];
        int main(void) {
          for (int i = 0; i < 4; i++) buf[i] = i;
          send(1, buf, 4);
          recv(2, buf, 4);
          return buf[0];
        }""", "main", "cpu")
        design.add_process("acc", """
        int d[4];
        void main(void) {
          recv(1, d, 4);
          for (int i = 0; i < 4; i++) d[i] = d[i] + 1;
          send(2, d, 4);
        }""", "main", "hw0")
        path = tmp_path / "design.json"
        save_design(design, str(path))
        return str(path)

    def _scenario_file(self, tmp_path, faults):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"version": 1, "name": "cli", "seed": 3, "faults": faults}
        ))
        return str(path)

    def test_simulate_with_faults_reports_counters(self, design_file,
                                                   tmp_path):
        scenario = self._scenario_file(tmp_path, [
            {"type": "delay", "channel": "req", "cycles": 20},
        ])
        code, text = run_cli(["simulate", design_file, "--faults", scenario])
        assert code == 0
        assert "faults: scenario 'cli'" in text
        assert "1 delayed" in text

    def test_missing_scenario_is_one_line_error(self, design_file):
        code, text = run_cli([
            "simulate", design_file, "--faults", "/nonexistent/scenario.json",
        ])
        assert code == 2
        assert text.startswith("error:")
        assert "Traceback" not in text

    def test_crash_fault_exits_with_simulation_error(self, design_file,
                                                     tmp_path):
        scenario = self._scenario_file(tmp_path, [
            {"type": "crash", "process": "sw", "at_cycle": 0},
        ])
        code, text = run_cli(["simulate", design_file, "--faults", scenario])
        assert code == 3
        assert "simulation aborted" in text

    def test_watchdog_horizon_aborts(self, design_file):
        code, text = run_cli(["simulate", design_file, "--max-cycles", "1"])
        assert code == 3
        assert "simulation aborted" in text

    def test_watchdog_flags_allow_clean_run(self, design_file):
        code, text = run_cli([
            "simulate", design_file,
            "--max-cycles", "1000000", "--max-stalled", "100000",
        ])
        assert code == 0
        assert "makespan" in text

    def test_simulate_gen_stats(self, design_file):
        code, text = run_cli(["simulate", design_file, "--gen-stats"])
        assert code == 0
        assert "generation stages" in text
        for stage in ("frontend", "annotate", "codegen", "total"):
            assert stage in text

    def test_bad_pum_json_is_one_line_error(self, source_file, tmp_path):
        bad = tmp_path / "bad-pum.json"
        bad.write_text("{not json")
        code, text = run_cli(
            ["estimate", source_file, "--pum-json", str(bad)]
        )
        assert code == 2
        assert text.startswith("error:")
        assert "invalid JSON" in text

    def test_explore_checkpoint_restores(self, tmp_path):
        ckpt = str(tmp_path / "sweep.json")
        args = ["explore", "--small", "--cache-config", "2048:2048",
                "--checkpoint", ckpt]
        code, _ = run_cli(args)
        assert code == 0
        code, text = run_cli(args)
        assert code == 0
        assert "restored from checkpoint" in text


class TestPum:
    def test_preset_dump(self):
        code, text = run_cli(["pum", "microblaze"])
        assert code == 0
        assert '"MicroBlaze"' in text

    def test_unknown_preset(self):
        code, text = run_cli(["pum", "pentium4"])
        assert code == 2
        assert "unknown" in text

    def test_json_round_trip_via_cli(self, tmp_path):
        from repro.pum import dct_hw, save_pum

        path = tmp_path / "hw.json"
        save_pum(dct_hw(), str(path))
        code, text = run_cli(["pum", str(path)])
        assert code == 0
        assert '"DCT-HW"' in text


class TestParserReuse:
    """``main`` parses with one parser per process (a served worker answers
    every request through it): a sequence of calls, argparse errors
    included, must print and return what fresh parsers do."""

    @staticmethod
    def outcomes(argvs, fresh):
        from repro import cli

        results = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            try:
                results.append(run_cli(argv))
            except SystemExit as exc:
                results.append(("exit", exc.code))
        return results

    def test_reused_parser_matches_fresh_parsers(self, source_file, capsys):
        argvs = [
            ["run", source_file, "5"],
            ["run", source_file, "--no-such-flag"],
            ["run", source_file],  # the entry-argument default
            ["disasm", source_file, "3"],
            ["run", source_file, "7", "--entry", "twice"],
            ["run", source_file],
        ]
        reused = self.outcomes(argvs, fresh=False)
        reused_err = capsys.readouterr().err
        fresh = self.outcomes(argvs, fresh=True)
        assert reused == fresh
        assert reused_err == capsys.readouterr().err
        assert reused[1] == ("exit", 2)
        assert reused[2] == reused[5]

    def test_list_defaults_are_immutable(self):
        from repro import cli

        for command in ("run", "disasm", "profile"):
            args = cli._parser().parse_args([command, "app.cmini"])
            assert args.args == ()
