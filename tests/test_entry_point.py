"""The adl1 command line across a process boundary: what only a fresh
interpreter or the shell sees. Every other CLI behaviour is tested in
process (test_io_cli.py, test_golden.py, test_harness.py).

The CLI under test is the package this test process imported. Imported from
the source tree's ``src/``, it runs as ``python -m adl1.cli`` with
PYTHONPATH=<root>/src. Installed (``python -m pip install .``, then
``python -m pytest tests/test_entry_point.py`` without PYTHONPATH), it runs as
the ``adl1`` console script in the interpreter's scripts directory, and a
missing script fails the test.
"""

import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import adl1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TINY_BP = ROOT / "demos" / "tiny_bp.json"
FROM_SRC = Path(adl1.__file__).resolve().parent.parent == SRC
ENV = dict(os.environ, PYTHONPATH=str(SRC)) if FROM_SRC else None


def _run(argv):
    return subprocess.run([str(arg) for arg in argv], env=ENV, capture_output=True, text=True,
                          timeout=120)


def _adl1(*args):
    """Run the adl1 command line on args; returns the CompletedProcess."""
    if FROM_SRC:
        return _run([sys.executable, "-m", "adl1.cli", *args])
    script = Path(sysconfig.get_path("scripts")) / "adl1"
    assert script.is_file(), "adl1 is installed, but its console script %s is missing" % script
    return _run([script, *args])


def test_import_and_wht_solve_load_no_scipy(tmp_path):
    # Importing scipy costs hundreds of milliseconds, and only the partial
    # DCT needs it: scipy.fft loads at its first transform. So importing
    # adl1 and its CLI and solving on a Walsh-Hadamard operator load no scipy.
    config = tmp_path / "wht.json"
    config.write_text(json.dumps({"operator": {"kind": "wht", "n": 32, "m": 12},
                                  "b": {"synthetic": {"k": 2}}}))
    code = ("import sys\n"
            "import adl1\n"
            "print('scipy' in sys.modules)\n"
            "import adl1.cli\n"
            "print('scipy' in sys.modules)\n"
            "rc = adl1.cli.main(['solve', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(rc in (0, 2), 'scipy' in sys.modules)\n")
    proc = _run([sys.executable, "-c", code, config, tmp_path / "run"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "False", "True False"]
    assert (tmp_path / "run" / "x.bin").exists()


def test_help_exits_zero():
    proc = _adl1("--help")
    assert proc.returncode == 0, proc.stderr
    assert "solve" in proc.stdout and "experiment" in proc.stdout


def test_demo_solve_reruns_from_its_run_json(tmp_path):
    first, again = tmp_path / "tiny", tmp_path / "again"
    proc = _adl1("solve", TINY_BP, "--out", first)
    assert proc.returncode == 0, proc.stderr
    recorded = tmp_path / "recorded.json"
    recorded.write_text(json.dumps(json.loads((first / "run.json").read_text())["config"]))
    proc = _adl1("solve", recorded, "--out", again)
    assert proc.returncode == 0, proc.stderr
    assert (first / "x.bin").read_bytes() == (again / "x.bin").read_bytes()


def test_exit_codes_reach_the_shell(tmp_path):
    # Exit 2 means the iteration cap, so a usage error (argparse's own exit
    # 2) exits 1 with one ConfigError line and writes nothing.
    flagged = tmp_path / "flagged"
    proc = _adl1("solve", TINY_BP, "--mu", "0.1", "--out", flagged)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError): ")
    assert "--mu" in err[0]
    assert not flagged.exists()
    config = json.loads(TINY_BP.read_text())
    config["solver"]["max_iter"] = 1
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(config))
    proc = _adl1("solve", capped, "--out", tmp_path / "capped")
    assert proc.returncode == 2, proc.stderr
