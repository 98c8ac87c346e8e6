"""Held-out accuracy of the timed TLM: the paper's Table 2/3 grid.

The CPU PUM is calibrated on a training input (seed 99) and the timed TLM
is evaluated on a held-out input (seed 7) for the four MP3 mappings under
the five I/D-cache configurations of the paper, one frame each.  Board
cycles come from the cycle-accurate PCAM reference (``repro.cycle``); they
take seconds per design, so ``reference.json`` holds them and
``make_reference.py`` regenerates it.  ``tlm_error_pct`` is the mean of
|TLM - board| / board over the 20 designs, in simulated cycles.
"""

from __future__ import annotations

import json
import os

import common  # first: it puts the program's sources on sys.path

from repro.apps.mp3 import Mp3Params, build_design
from repro.calibration import calibrate_pum
from repro.pum import PAPER_CACHE_CONFIGS, microblaze
from repro.tlm import save_design

TRAIN_SEED = 99
EVAL_SEED = 7
FRAMES = 1
VARIANTS = ("SW", "SW+1", "SW+2", "SW+4")
REFERENCE_PATH = os.path.join(common.HERE, "reference.json")


def grid():
    """The 20 (variant, icache, dcache) designs of Tables 2 and 3."""
    return [(variant, icache, dcache)
            for variant in VARIANTS
            for icache, dcache in PAPER_CACHE_CONFIGS]


def grid_key(variant, icache, dcache):
    return "%s/i%d/d%d" % (variant, icache, dcache)


def calibrate():
    """Statistical CPU models calibrated on the training input."""
    params = Mp3Params()

    def train_design(icache, dcache):
        design, _ = build_design(
            "SW", params, n_frames=FRAMES, seed=TRAIN_SEED,
            icache_size=icache, dcache_size=dcache,
        )
        return design

    return calibrate_pum(microblaze(), train_design, PAPER_CACHE_CONFIGS,
                         trace_cache=True)


def board_cycles(variant, icache, dcache):
    """PCAM (board) cycles of one held-out grid design."""
    from repro.cycle import run_pcam

    design, _ = build_design(variant, Mp3Params(), n_frames=FRAMES,
                             seed=EVAL_SEED, icache_size=icache,
                             dcache_size=dcache)
    return run_pcam(design).makespan_cycles


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["board_cycles"]


def write_grid_designs(calibration, directory):
    """Saves the calibrated held-out grid designs; ``{key: path}``."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for variant, icache, dcache in grid():
        design, _ = build_design(
            variant, Mp3Params(), n_frames=FRAMES, seed=EVAL_SEED,
            icache_size=icache, dcache_size=dcache,
            memory_model=calibration.memory_model,
            branch_model=calibration.branch_model,
        )
        key = grid_key(variant, icache, dcache)
        path = os.path.join(directory, key.replace("/", "_") + ".json")
        save_design(design, path)
        paths[key] = path
    return paths


def tlm_error_pct(tlm_cycles, reference):
    """Mean |TLM - board| / board over the grid, in percent."""
    errors = [abs(tlm_cycles[key] - board) / board
              for key, board in sorted(reference.items())]
    return 100.0 * sum(errors) / len(errors)
