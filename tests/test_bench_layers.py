"""The benchmark's traced run skips a layer function the package no longer
has, so a rename or a fold would zero its span without failing anything.
Every function it wraps must therefore still exist, and a pipeline run
through the command line must call each one."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tracemix import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in layers.WRAPS],
                         ids=[f"{m.__name__}.{a}" for m, a, _, _ in layers.WRAPS])
def test_every_wrapped_layer_function_exists(module, attr):
    assert callable(getattr(module, attr, None))


def test_the_traced_run_sees_every_layer_through_the_command_line(tmp_path):
    # the commands must call each layer through its module attribute, or
    # the wrap would never see the call and its span would read zero
    spec, trace = tmp_path / "spec.json", tmp_path / "trace.csv"
    counts, model = tmp_path / "counts.npz", tmp_path / "model.npz"
    spec.write_text(json.dumps({"T": 60, "seed": 1}))
    steps = [
        ["gen-trace", "--spec", str(spec), "--out", str(trace)],
        ["aggregate", "--format", "plain", "--trace", str(trace), "--out", str(counts)],
        ["fit", "--artifact", str(counts), "--out", str(model),
         "--iters", "4", "--burn-in", "2"],
        ["eval", "--artifact", str(counts), "--models", str(model)],
        ["simulate", "--format", "plain", "--trace", str(trace), "--model", str(model)],
    ]
    tracer = Tracer()
    layers.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in steps]
    finally:
        tracer.restore()
    assert codes == [cli.EXIT_OK] * len(steps)
    totals = tracer.totals()
    assert [name for name in layers.SPANS if totals.get(name, (0,))[0] == 0] == []
