"""ServeDaemon tests: admission control in-process, real service end-to-end.

The unit half drives :meth:`ServeDaemon.handle_request` directly with a
fake pool, so backpressure, breaker gating and counter bookkeeping are
tested deterministically.  The integration half runs ``python -m repro
serve`` as a real subprocess (see conftest) and checks the full promise:
served responses bit-identical to the one-shot CLI, working ``--server``
glue, HTTP endpoints, graceful drain.
"""

import asyncio
import concurrent.futures
import io
import json
import os
import signal
import time

import pytest

from repro.cli import main as cli_main
from repro.client import ServeClient, parse_address, run_via_server
from repro.errors import ServeError, error_to_json, WorkerCrashedError
from repro.serve.daemon import ServeDaemon


class FakePool:
    """Duck-typed WorkerPool: scripted replies, optional gating."""

    def __init__(self, replies=None):
        self.replies = list(replies or [])
        self.calls = []
        self.gate = None  # when set, futures resolve on release()
        self._pending = []

    def submit(self, kind, argv, deadline=None):
        self.calls.append((kind, list(argv), deadline))
        future = concurrent.futures.Future()
        reply = (
            self.replies.pop(0) if self.replies
            else {"ok": True, "exit_code": 0, "output": "",
                  "wall_seconds": 0.0, "corrupt_delta": 0}
        )
        if self.gate:
            self._pending.append((future, reply))
        else:
            future.set_result(reply)
        return future

    def release(self):
        for future, reply in self._pending:
            future.set_result(reply)
        self._pending = []

    def stats(self):
        return {"served": len(self.calls), "retries": 0, "restarts": 0,
                "deadline_kills": 0, "crash_failures": 0, "workers": []}

    def worker_pids(self):
        return [4242]

    def start(self):
        return self

    def stop(self):
        pass


def make_daemon(**kwargs):
    kwargs.setdefault("socket_path", "/tmp/unused.sock")
    daemon = ServeDaemon(**kwargs)
    daemon.pool = FakePool()
    return daemon


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_needs_an_endpoint(self):
        with pytest.raises(ValueError):
            ServeDaemon()

    def test_queue_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ServeDaemon(socket_path="/tmp/x.sock", queue_size=0)


class TestDispatch:
    def test_ok_reply_mirrors_worker_payload(self):
        daemon = make_daemon()
        daemon.pool.replies = [{"ok": True, "exit_code": 0,
                                "output": "42\n", "wall_seconds": 0.01,
                                "corrupt_delta": 0}]
        reply = run(daemon.handle_request(
            {"id": "r1", "kind": "estimate", "argv": ["app.cmini"]}
        ))
        assert reply["id"] == "r1" and reply["ok"] is True
        assert reply["output"] == "42\n" and reply["exit_code"] == 0
        assert "corrupt_delta" not in reply  # daemon-internal bookkeeping
        assert daemon.pool.calls == [("estimate", ["app.cmini"], None)]
        assert daemon.counters["ok"] == 1

    def test_bad_request_never_reaches_the_pool(self):
        daemon = make_daemon()
        reply = run(daemon.handle_request({"id": 7, "kind": "frobnicate"}))
        assert reply["ok"] is False
        assert reply["id"] == 7  # echo-safe ids come back even on junk
        assert reply["error"]["code"] == "bad-request"
        assert daemon.pool.calls == []
        assert daemon.counters["bad_request"] == 1

    def test_control_kinds_answered_in_daemon(self):
        daemon = make_daemon()
        reply = run(daemon.handle_request({"id": "s", "kind": "stats"}))
        assert reply["ok"] and "stats" in reply
        assert reply["stats"]["queue"]["capacity"] == daemon.queue_size
        assert daemon.pool.calls == []

    def test_default_deadline_applied(self):
        daemon = make_daemon(deadline=7.5)
        run(daemon.handle_request({"kind": "estimate", "argv": []}))
        assert daemon.pool.calls[0][2] == 7.5
        run(daemon.handle_request(
            {"kind": "estimate", "argv": [], "deadline": 1.0}
        ))
        assert daemon.pool.calls[1][2] == 1.0  # per-request wins

    def test_corrupt_delta_aggregates_into_stats(self):
        daemon = make_daemon()
        daemon.pool.replies = [
            {"ok": True, "exit_code": 0, "output": "", "wall_seconds": 0,
             "corrupt_delta": 2},
            {"ok": True, "exit_code": 0, "output": "", "wall_seconds": 0,
             "corrupt_delta": 1},
        ]
        run(daemon.handle_request({"kind": "estimate", "argv": []}))
        run(daemon.handle_request({"kind": "estimate", "argv": []}))
        assert daemon.stats()["artifacts"]["corrupt_entries"] == 3


class TestBackpressure:
    def test_queue_full_sheds_with_overloaded(self):
        daemon = make_daemon(queue_size=1)
        daemon.pool.gate = True

        async def scenario():
            first = asyncio.ensure_future(daemon.handle_request(
                {"id": "a", "kind": "estimate", "argv": []}
            ))
            await asyncio.sleep(0)  # let it occupy the queue slot
            second = await daemon.handle_request(
                {"id": "b", "kind": "estimate", "argv": []}
            )
            daemon.pool.release()
            return await first, second

        first, second = run(scenario())
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["code"] == "overloaded"
        assert second["error"]["exit_code"] == 5
        assert daemon.counters["overloaded"] == 1
        assert daemon.counters["queue_high_water"] == 1

    def test_draining_daemon_sheds(self):
        daemon = make_daemon()
        daemon._draining = True
        reply = run(daemon.handle_request(
            {"id": "x", "kind": "estimate", "argv": []}
        ))
        assert reply["error"]["code"] == "overloaded"
        assert "draining" in reply["error"]["message"]


class TestBreakerGating:
    def crash_reply(self):
        return {"ok": False,
                "error": error_to_json(WorkerCrashedError("boom"))}

    def test_repeated_serve_failures_open_the_kinds_breaker(self):
        daemon = make_daemon(breaker_threshold=2)
        daemon.pool.replies = [self.crash_reply(), self.crash_reply()]
        for _ in range(2):
            reply = run(daemon.handle_request(
                {"kind": "estimate", "argv": []}
            ))
            assert reply["error"]["code"] == "worker-crashed"
        shed = run(daemon.handle_request({"kind": "estimate", "argv": []}))
        assert shed["error"]["code"] == "circuit-open"
        assert len(daemon.pool.calls) == 2  # the shed never dispatched
        assert daemon.counters["circuit_open"] == 1
        assert daemon.stats()["breakers"]["estimate"]["state"] == "open"

    def test_breakers_are_per_kind(self):
        daemon = make_daemon(breaker_threshold=1)
        daemon.pool.replies = [self.crash_reply()]
        run(daemon.handle_request({"kind": "estimate", "argv": []}))
        reply = run(daemon.handle_request({"kind": "pum", "argv": ["x"]}))
        assert reply["ok"] is True  # pum's breaker is untouched

    def test_cli_level_failures_do_not_trip_the_breaker(self):
        daemon = make_daemon(breaker_threshold=1)
        # exit_code 2 executions are answers, not serve failures.
        daemon.pool.replies = [
            {"ok": True, "exit_code": 2, "output": "error: bad pum\n",
             "wall_seconds": 0, "corrupt_delta": 0},
        ] * 3
        for _ in range(3):
            reply = run(daemon.handle_request(
                {"kind": "estimate", "argv": []}
            ))
            assert reply["ok"] is True
        assert daemon.stats()["breakers"]["estimate"]["state"] == "closed"


class TestClientAddressParsing:
    def test_forms(self):
        assert parse_address("unix:/tmp/s.sock") == ("unix", "/tmp/s.sock")
        assert parse_address("/tmp/s.sock") == ("unix", "/tmp/s.sock")
        assert parse_address("http://127.0.0.1:8123") == (
            "http", ("127.0.0.1", 8123),
        )
        assert parse_address("localhost:8123") == (
            "http", ("localhost", 8123),
        )

    def test_junk_rejected(self):
        with pytest.raises(ServeError):
            parse_address("not-an-address")


class TestServedEndToEnd:
    def test_socket_serves_bit_identical_output(self, serve_daemon,
                                                source_file):
        handle = serve_daemon()
        expected = io.StringIO()
        expected_code = cli_main(["run", source_file], out=expected)
        with ServeClient("unix:" + handle.socket_path) as client:
            reply = client.call("run", [source_file])
        assert reply["ok"] is True
        assert reply["exit_code"] == expected_code
        assert reply["output"] == expected.getvalue()

    def test_timed_output_identical_modulo_walltimes(self, serve_daemon,
                                                     source_file):
        from .conftest import mask_walltimes

        handle = serve_daemon()
        expected = io.StringIO()
        expected_code = cli_main(["estimate", source_file], out=expected)
        with ServeClient("unix:" + handle.socket_path) as client:
            reply = client.call("estimate", [source_file])
        assert reply["ok"] is True
        assert reply["exit_code"] == expected_code
        # estimate prints elapsed seconds (differs between any two runs);
        # everything else must match byte-for-byte.
        assert (mask_walltimes(reply["output"])
                == mask_walltimes(expected.getvalue()))

    def test_cli_server_flag_round_trips(self, serve_daemon, source_file):
        handle = serve_daemon()
        expected = io.StringIO()
        cli_main(["run", source_file], out=expected)
        routed = io.StringIO()
        code = cli_main(
            ["run", source_file, "--server",
             "unix:" + handle.socket_path],
            out=routed,
        )
        assert code == 0
        assert routed.getvalue() == expected.getvalue()

    def test_server_flag_unreachable_daemon_is_structured(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            ["estimate", "x.cmini",
             "--server", "unix:%s" % (tmp_path / "nope.sock")],
            out=out,
        )
        assert code == 5
        assert out.getvalue().startswith("server error: [serve]")

    def test_http_endpoints(self, serve_daemon, source_file):
        handle = serve_daemon(socket=False, http=True)
        address = "http://127.0.0.1:%d" % handle.http_port
        with ServeClient(address) as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["workers_alive"] == 2
            reply = client.call("estimate", [source_file])
            assert reply["ok"] is True and reply["exit_code"] == 0
            stats = client.stats()
        assert stats["requests"]["total"] >= 1
        assert stats["queue"]["capacity"] == 16

    def test_http_status_codes(self, serve_daemon):
        import http.client

        handle = serve_daemon(socket=False, http=True)
        conn = http.client.HTTPConnection("127.0.0.1", handle.http_port,
                                          timeout=30)
        try:
            conn.request("POST", "/rpc", body=b'{"kind": "frobnicate"}')
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad-request"
        finally:
            conn.close()

    def test_malformed_socket_line_gets_error_reply_not_hangup(
            self, serve_daemon, source_file):
        import socket as socket_mod

        handle = serve_daemon()
        sock = socket_mod.socket(socket_mod.AF_UNIX,
                                 socket_mod.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(handle.socket_path)
        stream = sock.makefile("rwb")
        try:
            stream.write(b"this is not json\n")
            stream.flush()
            error_line = json.loads(stream.readline())
            assert error_line["ok"] is False
            assert error_line["error"]["code"] == "bad-request"
            # The connection survives for well-formed follow-ups.
            stream.write(json.dumps(
                {"id": "ok", "kind": "estimate", "argv": [source_file]}
            ).encode() + b"\n")
            stream.flush()
            good = json.loads(stream.readline())
            assert good["id"] == "ok" and good["ok"] is True
        finally:
            stream.close()
            sock.close()

    def test_sigterm_drains_gracefully(self, serve_daemon, source_file):
        handle = serve_daemon()
        with ServeClient("unix:" + handle.socket_path) as client:
            assert client.call("estimate", [source_file])["ok"]
        code, tail = handle.terminate()
        assert code == 0
        assert "draining" in tail
        assert "drained" in tail

    def test_stats_reports_resident_workers(self, serve_daemon,
                                            source_file):
        handle = serve_daemon("--workers", "2")
        with ServeClient("unix:" + handle.socket_path) as client:
            for _ in range(3):
                assert client.call("estimate", [source_file])["ok"]
            stats = client.stats()
        workers = stats["pool"]["workers"]
        assert len(workers) == 2
        assert all(w["alive"] for w in workers)
        assert sum(w["served"] for w in workers) >= 3
        assert stats["pool"]["restarts"] == 0


class TestMalformedSources:
    BAD_SOURCE = "int main(void) { return 1 +; }"

    def test_syntax_errors_are_answers_not_breaker_failures(
            self, serve_daemon, tmp_path):
        # A syntax error is the common case in an edit loop: each one is an
        # executed request (exit 2), so the kind's breaker never opens.
        path = tmp_path / "bad.cmini"
        path.write_text(self.BAD_SOURCE)
        threshold = 2
        handle = serve_daemon("--breaker-threshold", str(threshold))
        with ServeClient("unix:" + handle.socket_path) as client:
            for _ in range(threshold + 1):
                reply = client.call("estimate", [str(path)])
                assert reply["ok"] is True
                assert reply["exit_code"] == 2
                assert reply["output"] == (
                    "error: line 1:28: unexpected token ';'\n"
                )
            stats = client.stats()
        assert stats["breakers"]["estimate"]["state"] == "closed"

    def test_communicating_run_is_an_answer_not_a_breaker_failure(
            self, serve_daemon, tmp_path):
        # ``run`` of an entry that reaches ``send`` is refused as bad
        # input (exit 2) before it runs, so the breaker stays closed.
        path = tmp_path / "comm.cmini"
        path.write_text("int b[1]; int main(void) { send(1, b, 1); "
                        "return 0; }")
        threshold = 2
        handle = serve_daemon("--breaker-threshold", str(threshold))
        with ServeClient("unix:" + handle.socket_path) as client:
            for _ in range(threshold + 1):
                reply = client.call("run", [str(path)])
                assert reply["ok"] is True
                assert reply["exit_code"] == 2
                assert reply["output"].startswith(
                    "error: main() can reach send/recv"
                )
            stats = client.stats()
        assert stats["breakers"]["run"]["state"] == "closed"

    def test_malformed_design_is_an_answer_not_a_breaker_failure(
            self, serve_daemon, tmp_path):
        # A design with a NaN bus cycle is refused where it is built
        # (exit 2), so ``simulate``'s breaker stays closed.
        from repro.pum import microblaze
        from repro.tlm import Design, design_to_dict

        design = Design("bad-bus")
        design.add_pe("cpu", microblaze(2048, 2048))
        design.add_bus("bus0")
        design.add_process("p", "int main(void) { return 0; }", "main",
                           "cpu")
        data = design_to_dict(design)
        data["buses"][0]["cycle_ns"] = float("nan")
        path = tmp_path / "design.json"
        path.write_text(json.dumps(data))
        threshold = 2
        handle = serve_daemon("--breaker-threshold", str(threshold))
        with ServeClient("unix:" + handle.socket_path) as client:
            for _ in range(threshold + 1):
                reply = client.call("simulate", [str(path)])
                assert reply["ok"] is True
                assert reply["exit_code"] == 2
                assert reply["output"] == (
                    "error: bus 'bus0': cycle_ns must be a finite number "
                    ">= 0, not nan\n"
                )
            stats = client.stats()
        assert stats["breakers"]["simulate"]["state"] == "closed"


def _running(pid):
    """Whether ``pid`` names a live process (a zombie has exited)."""
    try:
        with open("/proc/%d/stat" % pid) as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigkilled_daemon_leaves_no_workers(serve_daemon):
    handle = serve_daemon("--workers", "2")
    with ServeClient("unix:" + handle.socket_path) as client:
        pids = [w["pid"] for w in client.stats()["pool"]["workers"]]
    assert len(pids) == 2 and all(_running(pid) for pid in pids)
    handle.proc.kill()
    handle.proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while any(_running(pid) for pid in pids):
        if time.monotonic() > deadline:
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            pytest.fail("workers outlived the killed daemon")
        time.sleep(0.05)


class TestSimulationStats:
    """Aggregated kernel/contention totals from worker sim deltas."""

    REPLY = {"ok": True, "exit_code": 0, "output": "", "wall_seconds": 0.0,
             "corrupt_delta": 0}

    def _reply(self, **sim_delta):
        reply = dict(self.REPLY)
        reply["sim_delta"] = sim_delta
        return reply

    def test_deltas_accumulate_across_requests(self):
        daemon = make_daemon()
        daemon.pool.replies = [
            self._reply(runs=1, events_scheduled=100, activations=90,
                        wall_seconds=0.5, bus_stall_cycles=7),
            self._reply(runs=1, events_scheduled=300, activations=250,
                        wall_seconds=0.5, bus_stall_cycles=3),
        ]
        for index in range(2):
            reply = run(daemon.handle_request(
                {"id": "r%d" % index, "kind": "estimate", "argv": ["x"]}
            ))
            assert reply["ok"]
            # The delta is daemon bookkeeping, never echoed to clients.
            assert "sim_delta" not in reply
        stats = run(daemon.handle_request(
            {"id": "s", "kind": "stats"}))["stats"]["simulation"]
        assert stats["runs"] == 2
        assert stats["events_scheduled"] == 400
        assert stats["activations"] == 340
        assert stats["bus_stall_cycles"] == 10
        assert stats["events_per_second"] == pytest.approx(400.0)

    def test_replies_without_delta_leave_totals_untouched(self):
        daemon = make_daemon()  # FakePool default reply has no sim_delta
        assert run(daemon.handle_request(
            {"id": "r", "kind": "estimate", "argv": ["x"]}))["ok"]
        stats = run(daemon.handle_request(
            {"id": "s", "kind": "stats"}))["stats"]["simulation"]
        assert stats == {"events_per_second": 0.0}

    def test_real_workers_report_simulation_totals(self, serve_daemon,
                                                   tmp_path):
        # ``estimate`` is static analysis; only a simulating kind (``tlm``)
        # moves the kernel totals.
        from repro.apps.mp3 import Mp3Params, build_design
        from repro.tlm import save_design

        small = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)
        design, _ = build_design("SW+1", small, n_frames=1, seed=3)
        design_path = tmp_path / "design.json"
        save_design(design, str(design_path))
        handle = serve_daemon()
        with ServeClient("unix:" + handle.socket_path) as client:
            assert client.call("tlm", [str(design_path)])["ok"]
            stats = client.stats()
        sim = stats["simulation"]
        assert sim["runs"] >= 1
        assert sim["events_scheduled"] > 0
        assert sim["wall_seconds"] > 0
