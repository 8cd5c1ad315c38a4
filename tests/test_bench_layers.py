"""The benchmark's traced run skips a layer function the package no longer
has, so a rename or a fold would zero its span without failing anything.
Every function it wraps must therefore still exist."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in layers.WRAPS],
                         ids=[f"{m.__name__}.{a}" for m, a, _, _ in layers.WRAPS])
def test_every_wrapped_layer_function_exists(module, attr):
    assert callable(getattr(module, attr, None))
