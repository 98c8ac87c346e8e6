"""Every simulated and co-interpreted process is a generator on the
caller's thread: no simulation path starts an OS thread."""

import threading

import pytest

from repro import artifacts
from repro.apps.mp3 import Mp3Params, build_design
from repro.cycle import run_pcam
from repro.estimation import profile_design
from repro.tlm import generate_tlm

SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


@pytest.fixture()
def thread_starts(monkeypatch):
    starts = []
    original = threading.Thread.start

    def counting_start(self, *args, **kwargs):
        starts.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


def test_no_simulation_path_starts_a_thread(thread_starts):
    sw, _ = build_design("SW", SMALL, n_frames=1, seed=7)
    sw4, _ = build_design("SW+4", SMALL, n_frames=1, seed=7)

    assert generate_tlm(sw, timed=True).run().makespan_cycles > 0
    board = run_pcam(sw4)
    assert sum(stats.kind == "hw" for stats in board.pes.values()) == 4
    artifacts.reset_default_store()
    try:
        profile = profile_design(sw4)  # cold: the profile is computed
    finally:
        artifacts.reset_default_store()
    assert len(profile.counts) == 5

    assert thread_starts == []
