"""The one .npz codec for ragged block-id sets and binnings, through the
artifact and model files that use it."""

import numpy as np

from tracemix import ingest, predict
from tracemix.ingest import BinningConfig, CountVectorSequence
from tracemix.models import Hyperparams

BINNING = BinningConfig(M=2, lba_lo=0, lba_hi=1 << 40, nu=30.0,
                        block_size=512, count_per_block=True)
SETS = [set(), {5, 3, 9}, set(), {2 ** 40, 1}, set()]


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
    assert back.A == SETS
    assert back.config == BINNING
    assert np.array_equal(back.X, X)


def test_no_sets_pack_to_one_offset():
    fields = ingest.encode_sets("A", [], BINNING)
    assert fields["A_flat"].dtype == fields["A_offsets"].dtype == np.int64
    assert fields["A_flat"].size == 0
    assert fields["A_offsets"].tolist() == [0]
    assert ingest.decode_sets(fields, "A") == ([], BINNING)


def test_model_round_trip_with_empty_sets(tmp_path):
    K = 3
    hp = Hyperparams(a_bar=0.5, b_bar=2.0, a_hat=1.5, b_hat=7.0,
                     a_prime=0.3, b_prime=4.0, alpha=1.25, gamma=0.75)
    model = predict.FittedModel(
        K=K, pi=np.full((K, K), 1.0 / K), pi0=np.full(K, 1.0 / K),
        mu=np.ones((K, 2)), Lambda=np.zeros((K, 2, 2)), lambda_hat=np.ones(2),
        b=np.ones((K, 2), dtype=np.int8), hp=hp, kind="dp-mmvp")
    H = {2: frozenset({7, 4}), 0: frozenset(), 1: frozenset({2 ** 40})}
    path = tmp_path / "m.npz"
    predict.save_model(model, predict.AccessMap(H), BINNING, path)
    flat, offsets = packed([H[k] for k in sorted(H)])
    with np.load(path) as z:
        assert z["map_keys"].tolist() == [0, 1, 2]
        assert z["map_flat"].dtype == z["map_offsets"].dtype == np.int64
        assert z["map_flat"].tolist() == flat
        assert z["map_offsets"].tolist() == offsets
        assert z["hp"].tolist() == [0.5, 2.0, 1.5, 7.0, 0.3, 4.0, 1.25, 0.75]
    back, access_map, binning = predict.load_model(path)
    assert access_map.H == H
    assert binning == BINNING
    assert back.hp == hp
