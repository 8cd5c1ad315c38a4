"""numpy is the only run-time dependency: the command line neither imports
scipy nor needs it (scipy serves the tests and the benchmark only)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy():
    proc = _run(["-c", "import sys, tracemix.cli; print(sorted(m for m in sys.modules "
                       "if m == 'scipy' or m.startswith('scipy.')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pipeline_runs_with_scipy_unimportable(tmp_path):
    proc = _run([str(ROOT / "tests" / "no_scipy_smoke.py"), str(tmp_path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("counts.npz", "model.npz", "eval.csv", "sim_preloading.csv"):
        assert (tmp_path / name).is_file(), name
