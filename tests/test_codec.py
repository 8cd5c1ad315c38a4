"""The one .npz codec for ragged block-id sets and binnings, through the
artifact and model files that use it."""

import numpy as np
import pytest

from tracemix import cli, ingest, predict
from tracemix.ingest import BinningConfig, CountVectorSequence
from tracemix.models import Hyperparams

BINNING = BinningConfig(M=2, lba_lo=0, lba_hi=1 << 40, nu=30.0,
                        block_size=512, count_per_block=True)
BLOCKS = [set(), {5, 3, 9}, set(), {2 ** 40, 1}, set()]
SETS = [np.array(sorted(s), dtype=np.int64) for s in BLOCKS]


def packed(sets):
    """Flat and offsets the way the sets were first packed: each sorted,
    appended one after the other."""
    flat, offsets = [], [0]
    for s in sets:
        flat.extend(sorted(s))
        offsets.append(len(flat))
    return flat, offsets


def test_artifact_round_trip_with_empty_sets(tmp_path):
    X = np.arange(10).reshape(5, 2)
    path = tmp_path / "a.npz"
    ingest.save_artifact(CountVectorSequence(X, SETS, BINNING), path)
    flat, offsets = packed(SETS)
    with np.load(path) as z:
        assert z.files == ["version", "X", "A_flat", "A_offsets", "binning", "nu"]
        assert z["A_flat"].dtype == z["A_offsets"].dtype == np.int64
        assert z["A_flat"].tolist() == flat
        assert z["A_offsets"].tolist() == offsets
        assert z["binning"].dtype == np.int64
        assert z["binning"].tolist() == [2, 0, 1 << 40, 512, 1]
        assert z["nu"].dtype == np.float64
    back = ingest.load_artifact(path)
    assert all(a.dtype == np.int64 for a in back.A)
    assert [a.tolist() for a in back.A] == [sorted(s) for s in BLOCKS]
    assert back.config == BINNING
    assert np.array_equal(back.X, X)


def test_no_sets_pack_to_one_offset():
    fields = ingest.encode_sets("A", [], BINNING)
    assert fields["A_flat"].dtype == fields["A_offsets"].dtype == np.int64
    assert fields["A_flat"].size == 0
    assert fields["A_offsets"].tolist() == [0]
    assert ingest.decode_sets(fields, "A") == ([], BINNING)


def toy_model(hp=Hyperparams()):
    K = 3
    return predict.FittedModel(
        K=K, pi=np.full((K, K), 1.0 / K), pi0=np.full(K, 1.0 / K),
        mu=np.ones((K, 2)), Lambda=np.zeros((K, 2, 2)), lambda_hat=np.ones(2),
        b=np.ones((K, 2), dtype=np.int8), hp=hp, kind="dp-mmvp")


def test_model_round_trip_with_empty_sets(tmp_path):
    hp = Hyperparams(a_bar=0.5, b_bar=2.0, a_hat=1.5, b_hat=7.0,
                     a_prime=0.3, b_prime=4.0, alpha=1.25, gamma=0.75)
    model = toy_model(hp)
    blocks = {2: {7, 4}, 0: set(), 1: {2 ** 40}}
    H = {k: np.array(sorted(s), dtype=np.int64) for k, s in blocks.items()}
    path = tmp_path / "m.npz"
    predict.save_model(model, predict.AccessMap(H), BINNING, path)
    flat, offsets = packed([blocks[k] for k in sorted(blocks)])
    with np.load(path) as z:
        assert z["map_keys"].tolist() == [0, 1, 2]
        assert z["map_flat"].dtype == z["map_offsets"].dtype == np.int64
        assert z["map_flat"].tolist() == flat
        assert z["map_offsets"].tolist() == offsets
        assert z["hp"].tolist() == [0.5, 2.0, 1.5, 7.0, 0.3, 4.0, 1.25, 0.75]
    back, access_map, binning = predict.load_model(path)
    assert {k: v.tolist() for k, v in access_map.H.items()} == \
        {k: sorted(s) for k, s in blocks.items()}
    assert binning == BINNING
    assert back.hp == hp


# packed(BLOCKS) is flat [3, 5, 9, 1, 2**40] cut by offsets [0, 0, 3, 3, 5, 5];
# each case breaks one rule and names the field that breaks it
CORRUPT = {
    "offsets_start": ([7, 3, 5, 9, 1, 2 ** 40], [1, 1, 4, 4, 6, 6], "offsets"),
    "offsets_decrease": ([3, 5, 9, 1, 2 ** 40], [0, 2, 1, 3, 5, 5], "offsets"),
    "offsets_end": ([3, 5, 9, 1, 2 ** 40, 8], [0, 0, 3, 3, 5, 5], "offsets"),
    "segment_descends": ([5, 3, 9, 1, 2 ** 40], [0, 0, 3, 3, 5, 5], "flat"),
    "segment_repeats": ([3, 3, 9, 1, 2 ** 40], [0, 0, 3, 3, 5, 5], "flat"),
}


def corrupt(path, prefix, case):
    """Rewrite the {prefix} sets of an .npz file with a CORRUPT case."""
    flat, offsets, _ = CORRUPT[case]
    with np.load(path) as z:
        fields = dict(z)
    fields[f"{prefix}_flat"] = np.array(flat, dtype=np.int64)
    fields[f"{prefix}_offsets"] = np.array(offsets, dtype=np.int64)
    np.savez(path, **fields)


@pytest.mark.parametrize("case", CORRUPT)
def test_fit_rejects_corrupt_artifact_sets(tmp_path, capsys, case):
    artifact, out = tmp_path / "a.npz", tmp_path / "m.npz"
    ingest.save_artifact(CountVectorSequence(np.arange(10).reshape(5, 2), SETS,
                                             BINNING), artifact)
    corrupt(artifact, "A", case)
    code = cli.main(["fit", "--artifact", str(artifact), "--out", str(out),
                     "--iters", "2", "--burn-in", "1"])
    assert code == cli.EXIT_CONFIG
    assert f"A_{CORRUPT[case][2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", CORRUPT)
def test_simulate_rejects_corrupt_model_sets(tmp_path, capsys, case):
    trace, model = tmp_path / "trace.csv", tmp_path / "m.npz"
    trace.write_text("0.0,read,0,4096\n40.0,read,4096,4096\n")
    predict.save_model(toy_model(), predict.AccessMap(dict(enumerate(SETS))),
                       BINNING, model)
    corrupt(model, "map", case)
    code = cli.main(["simulate", "--trace", str(trace), "--model", str(model),
                     "--format", "plain", "--slice-secs", "30"])
    assert code == cli.EXIT_CONFIG
    assert f"map_{CORRUPT[case][2]}" in capsys.readouterr().err


# rows that still sum to 1, a mean table one row too long, a kind no
# sampler fits, and one hyperparameter too few, which would leave the last
# one at its default
TAMPERED = {
    "pi": np.tile([1.5, -0.5, 0.0], (3, 1)),
    "pi0": np.array([1.5, -0.5, 0.0]),
    "mu": np.ones((4, 2)),
    "kind": np.array("no-such-kind"),
    "hp": np.ones(7),
}


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("field", TAMPERED)
def test_a_tampered_model_is_a_config_error_naming_its_field(tmp_path, capsys,
                                                             field, command):
    artifact, trace, model = tmp_path / "a.npz", tmp_path / "trace.csv", tmp_path / "m.npz"
    ingest.save_artifact(CountVectorSequence(np.arange(10).reshape(5, 2), SETS,
                                             BINNING), artifact)
    trace.write_text("0.0,read,0,512\n40.0,read,512,512\n")
    predict.save_model(toy_model(), predict.AccessMap(dict(enumerate(SETS))),
                       BINNING, model)
    with np.load(model) as z:
        fields = dict(z)
    fields[field] = TAMPERED[field]
    np.savez(model, **fields)
    argv = {"eval": ["eval", "--artifact", str(artifact), "--models", str(model)],
            "simulate": ["simulate", "--trace", str(trace), "--model", str(model),
                         "--format", "plain", "--slice-secs", "30"]}[command]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: {field} ")
    assert field != "kind" or "'no-such-kind'" in err
    assert out == ""
