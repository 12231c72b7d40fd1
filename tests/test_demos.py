"""Every demo runs and reproduces its committed artefacts byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"
ARTEFACTS = (
    "rabbit_tree.dot",
    "rabbit_level5.svg",
    "rabbit_pullback_depth8.svg",
    "rabbit_gengraph_level5.dot",
    "basilica_comparison.json",
)


def test_demos_reproduce_committed_artefacts(tmp_path):
    demos = tmp_path / "demos"
    demos.mkdir()
    scripts = sorted(DEMOS.glob("*.py"))
    for script in scripts:
        shutil.copy(script, demos)
    shutil.copytree(REPO / "data", tmp_path / "data")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for script in scripts:
        run = subprocess.run(
            [sys.executable, script.name], cwd=demos, env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, f"{script.name} failed:\n{run.stderr}"
    for name in ARTEFACTS:
        assert (demos / name).read_bytes() == (DEMOS / name).read_bytes(), name
