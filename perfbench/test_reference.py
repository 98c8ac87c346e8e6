"""The held-out board-cycle reference must match the reference model.

Run from the repository root: ``python3 -m pytest -q perfbench``.
Re-deriving one grid entry costs one PCAM run (about a second); a change
to the cycle-accurate model, the MP3 sources or the grid that leaves
``reference.json`` stale fails here instead of silently moving
``tlm_error_pct``.
"""

from __future__ import annotations

import accuracy


def test_reference_covers_the_grid():
    reference = accuracy.load_reference()
    assert sorted(reference) == sorted(
        accuracy.grid_key(*entry) for entry in accuracy.grid())


def test_reference_entry_rederives():
    variant, icache, dcache = "SW+4", 8192, 4096
    key = accuracy.grid_key(variant, icache, dcache)
    assert accuracy.load_reference()[key] == accuracy.board_cycles(
        variant, icache, dcache)
