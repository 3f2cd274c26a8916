"""Every demo script runs to completion.

Demos 01 and 02 write CSV files next to themselves (under ``out/``), so they
run from copies in a temporary directory and the committed outputs under
``demos/out/`` are never rewritten.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES_OUTPUT = ("01_learn_and_reproduce.py", "02_static_obstacle_detour.py")


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    if demo.name in WRITES_OUTPUT:
        demo = pathlib.Path(shutil.copy(demo, tmp_path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if demo.name in WRITES_OUTPUT:
        assert list((tmp_path / "out").glob("*.csv"))
