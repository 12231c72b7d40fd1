"""The docs match the code: every demo runs and reproduces its committed
artefacts byte for byte, and the README's API list is the package's exports."""

import ast
import os
import re
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


def test_readme_api_list_matches_the_package_exports():
    section = (REPO / "README.md").read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in section.split("\n- ")[1:]:
        module, *names = re.findall(r"`(\w+)`", item)
        listed[module] = names
    init = ast.parse((REPO / "src" / "lamkit" / "__init__.py").read_text())
    assert listed == {n.module: [a.name for a in n.names] for n in init.body if isinstance(n, ast.ImportFrom)}
