"""Every narrative script in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    # TMPDIR is an empty directory of its own, apart from the working
    # directory, so anything a demo leaves behind in it shows up below
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmpdir.iterdir()), "demo left files in the temporary directory"
