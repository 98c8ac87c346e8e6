"""Regenerates ``reference.json``: board cycles of the Table 2/3 grid.

Run from the repository root:

    python3 perfbench/make_reference.py

Each entry is one cycle-accurate PCAM run (``repro.cycle.run_pcam``) of a
held-out MP3 design (seed 7, one frame, uncalibrated PUM), so the whole
grid takes about half a minute.  ``test_reference.py`` re-derives one
entry, so a change to the reference model that leaves this file stale
fails loudly.
"""

from __future__ import annotations

import json
import sys

import accuracy


def main():
    board = {}
    for variant, icache, dcache in accuracy.grid():
        key = accuracy.grid_key(variant, icache, dcache)
        board[key] = accuracy.board_cycles(variant, icache, dcache)
        print("%-18s %10d" % (key, board[key]), file=sys.stderr)
    payload = {
        "about": "PCAM board cycles of the held-out Table 2/3 grid: "
                 "MP3 Mp3Params() defaults, eval seed %d, %d frame; "
                 "regenerate with perfbench/make_reference.py"
                 % (accuracy.EVAL_SEED, accuracy.FRAMES),
        "board_cycles": board,
    }
    with open(accuracy.REFERENCE_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
