import os
import subprocess
import sys
from pathlib import Path

import pytest

import modkit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(modkit.__file__).resolve().parent.parent)


def test_demos_found():
    # an empty glob would parametrize no demo and pass silently
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        # the suite's own warning policy (pyproject.toml), as interpreter flags
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
