"""numpy is the only run-time dependency: the command line neither imports
scipy nor needs it (scipy serves the tests and the benchmark only).  Each
command loads only the package modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracemix import cli

ROOT = Path(__file__).resolve().parent.parent

RUNTIME_MODULES = ("cli", "ingest", "models", "gibbs", "predict", "cachesim", "synth")


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_runtime_modules_load_no_scipy():
    # every module of the package, so a scipy import anywhere on the
    # run-time path shows, whichever command would load it
    proc = _run(["-c", "import importlib, json, pkgutil, sys, tracemix\n"
                       "for m in pkgutil.iter_modules(tracemix.__path__):\n"
                       "    importlib.import_module(f'tracemix.{m.name}')\n"
                       "print(json.dumps([sorted(m for m in sys.modules if m.startswith('tracemix.')),"
                       " sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))"])
    assert proc.returncode == 0, proc.stderr
    imported, scipy = json.loads(proc.stdout)
    assert {f"tracemix.{m}" for m in RUNTIME_MODULES} <= set(imported)
    assert scipy == []


def test_pipeline_runs_with_scipy_unimportable(tmp_path):
    proc = _run([str(ROOT / "tests" / "no_scipy_smoke.py"), str(tmp_path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("counts.npz", "model.npz", "eval.csv", "sim_preloading.csv"):
        assert (tmp_path / name).is_file(), name


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small trace, its count artifact and a model fitted on it."""
    work = tmp_path_factory.mktemp("inputs")
    spec, trace = work / "spec.json", work / "trace.csv"
    counts, model = work / "counts.npz", work / "model.npz"
    spec.write_text(json.dumps({"T": 60, "seed": 1}))
    for argv in (["gen-trace", "--spec", str(spec), "--out", str(trace)],
                 ["aggregate", "--format", "plain", "--trace", str(trace),
                  "--out", str(counts)],
                 ["fit", "--artifact", str(counts), "--out", str(model),
                  "--iters", "2", "--burn-in", "1"]):
        assert cli.main(argv) == cli.EXIT_OK
    return {"spec": spec, "trace": trace, "counts": counts, "model": model,
            "out": work / "out"}


# the package modules a command must not load; None is the bare import
NOT_LOADED = {
    None: {"ingest", "gibbs", "predict", "cachesim", "synth"},
    "aggregate": {"gibbs", "predict", "cachesim", "synth"},
    "fit": {"cachesim", "synth"},
    "eval": {"cachesim", "synth"},
    "simulate": {"gibbs", "synth"},
    "gen-trace": {"gibbs", "predict", "cachesim"},
}


def _argv(command, p):
    return {
        None: None,
        "aggregate": ["aggregate", "--format", "plain", "--trace", str(p["trace"]),
                      "--out", f"{p['out']}.npz"],
        "fit": ["fit", "--artifact", str(p["counts"]), "--out", f"{p['out']}.npz",
                "--iters", "2", "--burn-in", "1"],
        "eval": ["eval", "--artifact", str(p["counts"]), "--models", str(p["model"])],
        "simulate": ["simulate", "--format", "plain", "--trace", str(p["trace"]),
                     "--model", str(p["model"])],
        "gen-trace": ["gen-trace", "--spec", str(p["spec"]), "--out", f"{p['out']}.csv"],
    }[command]


@pytest.mark.parametrize("command", NOT_LOADED, ids=lambda c: c or "import")
def test_each_command_loads_only_the_modules_it_runs(inputs, command):
    # a fresh interpreter per command: the test process has loaded them all
    proc = _run(["-c", "import contextlib, io, json, sys\n"
                       "from tracemix import cli\n"
                       f"argv = {_argv(command, inputs)!r}\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       "    code = 0 if argv is None else cli.main(argv)\n"
                       "print(json.dumps([code, sorted(m for m in sys.modules"
                       " if m.startswith('tracemix.'))]))"])
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == cli.EXIT_OK, proc.stderr
    assert not {f"tracemix.{m}" for m in NOT_LOADED[command]} & set(loaded), loaded
