"""One-shot paths stay free of numpy: building an MP3 design and a
one-shot ``simulate`` of a saved design must not import it (only the
vectorized sweep engines do)."""

import os
import subprocess
import sys

from repro.apps.mp3 import Mp3Params, build_design
from repro.tlm import save_design

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
)

SCRIPT = """
import io, sys
import repro.apps.mp3.designs
assert "numpy" not in sys.modules, "import repro.apps.mp3.designs"
from repro import cli
out = io.StringIO()
assert cli.main(["simulate", sys.argv[1]], out=out) == 0, out.getvalue()
assert "makespan" in out.getvalue()
assert "numpy" not in sys.modules, "one-shot simulate"
"""


def test_one_shot_paths_do_not_import_numpy(tmp_path):
    small = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)
    design, _ = build_design("SW+2", small, n_frames=1, seed=3)
    path = str(tmp_path / "design.json")
    save_design(design, path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_ARTIFACTS_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, path], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
