"""Every script in demos/ runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 5


# what each demo writes, beside itself
WRITES = {
    "01_design_tables": {"designed_4x8.json"},
    "02_interpolation_bias": {"bias_variance_sweep.csv"},
    "05_federated_training": {"training_run.csv"},
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a copy of the demo in a directory of its own, run from another, empty one
    home, cwd = tmp_path / "demos", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    copy = home / demo.name
    copy.write_text(demo.read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, str(copy)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert list(cwd.iterdir()) == []
    assert {p.name for p in home.iterdir()} == {demo.name} | WRITES.get(demo.stem, set())
