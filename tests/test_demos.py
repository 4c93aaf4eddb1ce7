"""Every demo script, and every ``python`` code block of README.md, runs to
completion against the library in ``src/``."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    proc = _run([script], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks, "README.md has no python code block"
    for block in blocks:
        proc = _run(["-c", block], tmp_path)
        assert proc.returncode == 0, block + proc.stderr
