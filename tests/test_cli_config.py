"""Command-line settings that must fail as config errors before any work."""

import json

import numpy as np
import pytest

from tracemix import cli, ingest
from tracemix.ingest import BinningConfig, CountVectorSequence


@pytest.mark.parametrize("chains", ["0", "-1"])
def test_fit_rejects_fewer_than_one_chain(tmp_path, capsys, chains):
    artifact, out = tmp_path / "counts.npz", tmp_path / "m.npz"
    X = np.array([[1, 0], [0, 2], [1, 1], [3, 0]])
    ingest.save_artifact(CountVectorSequence(
        X, [np.array(a, dtype=np.int64) for a in ([1], [2], [], [3])],
        BinningConfig(M=2, lba_lo=0, lba_hi=8192, nu=30.0)),
        artifact)
    code = cli.main(["fit", "--artifact", str(artifact), "--out", str(out),
                     "--iters", "2", "--burn-in", "1", "--chains", chains])
    assert code == cli.EXIT_CONFIG
    assert "chains must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"motifs": [[], [5]], "pattern": [0, 1, 7]},
    {"motifs": [[]], "pattern": [0]},
    {"T": 0},
    {"motifs": [[5], [6]], "pattern": [0, 2]},
    {"pattern": []},
    {"pattern": [1.0]},
    {"noise_block_range": None},
    {"motifs": [5]},
    {"T": 2.5},
    {"nu": "30"},
    {"block_size": True},
    {"pattern": 0},
    {"noise_block_range": [10, 5]},
])
def test_gen_trace_rejects_bad_spec(tmp_path, capsys, spec):
    path, out = tmp_path / "spec.json", tmp_path / "trace.csv"
    path.write_text(json.dumps(spec))
    assert cli.main(["gen-trace", "--spec", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    # the message names the offending field
    assert any(field in err for field in spec)
    assert not out.exists()
