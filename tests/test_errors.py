"""Error-taxonomy invariants (:mod:`repro.errors`).

One hierarchy, three surfaces: CLI exit codes, JSON error replies, and
client-side exception reconstruction.  These tests pin the registry (every
subsystem error carries a unique stable slug), the JSON round trip, and
the CLI conventions the serve daemon relies on for bit-identity.
"""

import io

import pytest

from repro import errors
from repro.errors import (
    EXIT_ABORTED,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_SERVE,
    AbortError,
    InputError,
    ProtocolError,
    RemoteError,
    ReproError,
    ServeError,
    error_from_json,
    error_to_json,
    format_cli_error,
    registered_codes,
)


def _import_all_subsystems():
    """Touch every module that defines ReproError subclasses."""
    import repro.cdfg.interp  # noqa: F401
    import repro.cfrontend.errors  # noqa: F401
    import repro.cli  # noqa: F401 — imports most of them
    import repro.cycle.caches  # noqa: F401
    import repro.estimation.staticest  # noqa: F401
    import repro.explore  # noqa: F401
    import repro.faults.inject  # noqa: F401
    import repro.faults.scenario  # noqa: F401
    import repro.pum.model  # noqa: F401
    import repro.search  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.simkernel.kernel  # noqa: F401
    import repro.tlm.platform  # noqa: F401
    import repro.trace.stream  # noqa: F401


class TestRegistry:
    def test_expected_codes_registered(self):
        _import_all_subsystems()
        codes = registered_codes()
        for expected in (
            "bad-input", "aborted", "serve",                  # the bases
            "pum", "fault-scenario", "cache", "trace",        # bad input
            "static-estimate", "search", "checkpoint", "platform",
            "cmini", "cmini-lex", "cmini-parse", "cmini-semantic",
            "simulation", "deadlock", "watchdog",             # aborted
            "wall-clock-exceeded", "horizon-exceeded",
            "livelock", "fault-injected", "interpreter",
            "bad-request", "overloaded", "circuit-open",      # serving
            "worker-crashed",
        ):
            assert expected in codes, expected

    def test_codes_are_unique_per_class(self):
        _import_all_subsystems()
        for code, cls in registered_codes().items():
            assert cls.code == code

    def test_exit_code_conventions(self):
        _import_all_subsystems()
        for cls in registered_codes().values():
            assert cls.exit_code in (
                EXIT_INPUT, EXIT_ABORTED, EXIT_SERVE,
            ), cls
            if issubclass(cls, AbortError):
                assert cls.exit_code == EXIT_ABORTED
            elif issubclass(cls, ServeError):
                assert cls.exit_code == EXIT_SERVE
            elif issubclass(cls, InputError):
                assert cls.exit_code == EXIT_INPUT

    def test_frontend_errors_are_bad_input(self):
        from repro.cfrontend import CMiniError, SemanticError

        assert issubclass(CMiniError, InputError)
        rebuilt = error_from_json(error_to_json(SemanticError("m", 3)))
        assert isinstance(rebuilt, SemanticError)
        assert str(rebuilt) == "line 3: m"

    def test_simulation_errors_joined_the_taxonomy(self):
        # The historical CLI convention: aborted runs exit 3.
        from repro.simkernel import SimulationError, WallClockExceeded

        assert issubclass(SimulationError, AbortError)
        assert SimulationError.exit_code == EXIT_ABORTED
        assert WallClockExceeded.code == "wall-clock-exceeded"

    def test_interpreter_errors_are_aborts(self):
        # A failing interpreted process exits like a failing simulated one.
        from repro.cdfg.interp import InterpreterError

        assert issubclass(InterpreterError, AbortError)
        assert InterpreterError.code == "interpreter"
        assert InterpreterError.exit_code == EXIT_ABORTED


class TestJsonRoundTrip:
    def test_structured_error(self):
        data = error_to_json(ProtocolError("bad kind"))
        assert data == {"code": "bad-request", "message": "bad kind",
                        "exit_code": EXIT_SERVE}
        rebuilt = error_from_json(data)
        assert isinstance(rebuilt, ProtocolError)
        assert str(rebuilt) == "bad kind"

    def test_unstructured_error_becomes_internal(self):
        data = error_to_json(ValueError("whoops"))
        assert data["code"] == "internal"
        assert data["exit_code"] == EXIT_INTERNAL
        assert "ValueError" in data["message"]

    def test_unknown_code_becomes_remote_error(self):
        rebuilt = error_from_json(
            {"code": "from-the-future", "message": "m", "exit_code": 7}
        )
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.code == "from-the-future"
        assert rebuilt.exit_code == 7

    def test_internal_round_trips_as_remote(self):
        rebuilt = error_from_json(error_to_json(RuntimeError("bug")))
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.exit_code == EXIT_INTERNAL


class TestCliSurface:
    def test_format_matches_historical_wording(self):
        assert format_cli_error(InputError("bad file")) == (
            "error: bad file\n"
        )
        from repro.simkernel import DeadlockError

        assert format_cli_error(DeadlockError("all quiet")) == (
            "simulation aborted: all quiet\n"
        )

    def test_cli_maps_input_errors_to_exit_2(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "pum.json"
        bad.write_text("{nope")
        src = tmp_path / "a.cmini"
        src.write_text("int main(void) { return 4; }")
        out = io.StringIO()
        code = main(
            ["estimate", str(src), "--pum-json", str(bad)], out=out,
        )
        assert code == 2
        assert out.getvalue().startswith("error:")

    def test_base_error_defaults(self):
        exc = ReproError("x")
        assert exc.code == "error"
        assert exc.exit_code == EXIT_INPUT


class TestRemoteErrorInstances:
    def test_instance_attributes_override_class(self):
        exc = RemoteError("m", code="weird", exit_code=4)
        assert (exc.code, exc.exit_code) == ("weird", 4)
        # The class-level registry entry is untouched.
        assert RemoteError.code == "remote"

    def test_error_from_json_missing_fields(self):
        rebuilt = error_from_json({})
        assert isinstance(rebuilt, ReproError)
        assert rebuilt.exit_code == EXIT_SERVE
