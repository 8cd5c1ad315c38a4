import time

import numpy as np
import pytest
from scipy import stats

from tracemix import gibbs
from tracemix.ingest import BinningConfig, CountVectorSequence
from tracemix.models import Hyperparams
from tracemix.predict import (AccessMap, FittedModel, build_access_map,
                              decode_path, decoder_observe,
                              decoder_predict_next, estimate_params,
                              load_model, new_decoder, predict_blocks,
                              save_model)

import oracles


def log_poisson_pmf(x, mu):
    """Joint log-pmf of independent Poisson coordinates, from scipy."""
    return stats.poisson.logpmf(x, mu).sum()


def toy_model(K=3, M=2, seed=0, kind=gibbs.HMM_DP_MMVP):
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.2, 1.0, size=(K, K))
    pi /= pi.sum(axis=1, keepdims=True)
    pi0 = rng.uniform(0.2, 1.0, size=K)
    pi0 /= pi0.sum()
    mu = rng.uniform(0.5, 8.0, size=(K, M))
    return FittedModel(K=K, pi=pi, pi0=pi0, mu=mu,
                       Lambda=np.zeros((K, M, M)), lambda_hat=np.zeros(M),
                       b=np.ones((K, M), dtype=np.int8),
                       hp=Hyperparams(), kind=kind)


# ---------------------------------------------------------------------------
# point estimates

def surgery_state(kind, X, Z, Y, b, beta, hp):
    return oracles.build_state(kind, X, Z, Y, b, beta, hp)


def test_estimate_prior_mean_for_empty_stats():
    hp = Hyperparams(a_bar=1.0, b_bar=1.0)
    state = surgery_state(gibbs.DP_MMVP, [[0]], [0], [[[0]]], [[1]],
                          [0.5, 0.5], hp)
    state.S[:] = 0
    state.n_k[:] = 0
    model = estimate_params([state])
    assert model.Lambda[0, 0, 0] == pytest.approx(1.0)


def test_estimate_transition_count_limit():
    hp = Hyperparams(alpha=1e-12)
    X = np.array([[1], [1], [1], [1], [1], [1]])
    Y = X[:, :, None].astype(np.int64)
    Z = [0, 0, 0, 0, 0, 1]
    state = surgery_state(gibbs.HMM_DP_MMVP, X, Z, Y, [[1], [1]],
                          [0.5, 0.3, 0.2], hp)
    state.n_trans = np.array([[5, 0], [0, 0]], dtype=np.int64)
    model = estimate_params([state])
    assert np.allclose(model.pi[0], [1.0, 0.0], atol=1e-9)


def test_estimate_lambda_formula():
    hp = Hyperparams(a_bar=2.0, b_bar=3.0)
    X = np.array([[2, 1], [1, 1]])
    Y = np.array([[[1, 1], [1, 0]], [[1, 0], [0, 1]]])
    state = surgery_state(gibbs.DP_MMVP, X, [0, 0], Y, [[1, 1]],
                          [0.8, 0.2], hp)
    model = estimate_params([state])
    S = Y.sum(axis=0)
    want = (2.0 + S) / (3.0 + 2.0)
    assert np.allclose(model.Lambda[0], want)
    assert np.allclose(model.mu[0], model.Lambda[0].sum(axis=1))


def test_estimate_noise_rates_and_activity():
    hp = Hyperparams()
    X = np.array([[3, 0], [2, 1]])
    Y = np.zeros((2, 2, 2), dtype=np.int64)
    Y[:, np.arange(2), np.arange(2)] = X
    state = surgery_state(gibbs.SPARSE_DP_MMVP, X, [0, 0], Y, [[1, 0]],
                          [0.7, 0.3], hp)
    model = estimate_params([state])
    assert model.b[0, 0] == 1 and model.b[0, 1] == 0
    want = (hp.a_hat + 1.0) / (hp.b_hat + 2.0)
    assert model.lambda_hat[1] == pytest.approx(want)
    assert model.mu[0, 1] == pytest.approx(want)
    assert model.Lambda[0, 0, 1] == 0.0


def test_estimate_requires_samples():
    with pytest.raises(ValueError):
        estimate_params([])


def test_estimate_pi_rows_mixture_for_nontemporal():
    hp = Hyperparams()
    X = np.array([[1], [2], [2]])
    Y = X[:, :, None].astype(np.int64)
    state = surgery_state(gibbs.DP_MMVP, X, [0, 0, 1], Y, [[1], [1]],
                          [0.5, 0.3, 0.2], hp)
    model = estimate_params([state])
    assert np.allclose(model.pi[0], model.pi[1])
    assert model.pi[0, 0] > model.pi[0, 1]


# ---------------------------------------------------------------------------
# access map

def test_access_map_union():
    amap = build_access_map([1, 1], [np.array([10], dtype=np.int64),
                                     np.array([20], dtype=np.int64)])
    assert amap.blocks_for(1).tolist() == sorted({10, 20})


def test_access_map_missing_cluster_absent():
    amap = build_access_map([0, 0], [np.array([1], dtype=np.int64),
                                     np.array([2], dtype=np.int64)])
    assert amap.blocks_for(5).dtype == np.int64
    assert amap.blocks_for(5).tolist() == []
    assert 5 not in amap.H


def test_access_map_matches_bruteforce():
    rng = np.random.default_rng(4)
    Z = rng.integers(0, 4, size=50)
    sets = [set(rng.integers(0, 100, size=rng.integers(0, 8)).tolist())
            for _ in range(50)]
    A = [np.array(sorted(s), dtype=np.int64) for s in sets]
    amap = build_access_map(Z, A)
    for k in range(4):
        want = set()
        for t in range(50):
            if Z[t] == k:
                want |= sets[t]
        if want or (Z == k).any():
            assert amap.blocks_for(k).dtype == np.int64
            assert amap.blocks_for(k).tolist() == sorted(want)


def test_access_map_length_mismatch():
    with pytest.raises(ValueError):
        build_access_map([0], [np.array([1], dtype=np.int64),
                               np.array([2], dtype=np.int64)])


# ---------------------------------------------------------------------------
# decoding

def test_decoder_single_cluster_accumulates_emissions():
    model = toy_model(K=1, M=2, seed=1)
    dec = new_decoder(model)
    xs = [np.array([1, 0]), np.array([3, 2])]
    total = 0.0
    for x in xs:
        decoder_observe(dec, model, x)
        total += log_poisson_pmf(x, model.mu[0])
    assert dec.omega[0] == pytest.approx(total)  # pi0 = (1,) adds zero
    assert decoder_predict_next(dec, model) == 0


def test_decoder_path_matches_bruteforce():
    model = toy_model(K=3, M=2, seed=2)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 7, size=(5, 2))
    dec = new_decoder(model)
    for x in X:
        decoder_observe(dec, model, x)
    want, _ = oracles.viterbi_brute_force(model.pi0, model.pi, model.mu, X)
    assert np.array_equal(decode_path(dec), want)


def test_decoder_tie_break_lowest_index():
    K, M = 3, 2
    model = FittedModel(K=K, pi=np.full((K, K), 1.0 / K), pi0=np.full(K, 1.0 / K),
                        mu=np.full((K, M), 2.0), Lambda=np.zeros((K, M, M)),
                        lambda_hat=np.zeros(M), b=np.ones((K, M), dtype=np.int8),
                        hp=Hyperparams(), kind=gibbs.HMM_DP_MMVP)
    dec = new_decoder(model)
    decoder_observe(dec, model, np.array([2, 2]))
    assert decode_path(dec)[0] == 0
    assert decoder_predict_next(dec, model) == 0


def test_predict_next_matches_bruteforce():
    for seed in range(4):
        model = toy_model(K=3, M=2, seed=seed)
        rng = np.random.default_rng(seed + 10)
        X = rng.integers(0, 7, size=(4, 2))
        dec = new_decoder(model)
        for x in X:
            decoder_observe(dec, model, x)
        want = oracles.predict_next_brute_force(model.pi0, model.pi, model.mu, X)
        assert decoder_predict_next(dec, model) == want


def test_predict_next_before_any_observation():
    model = toy_model(K=3, M=2, seed=5)
    dec = new_decoder(model)
    want = oracles.predict_next_brute_force(model.pi0, model.pi, model.mu,
                                            np.zeros((0, 2), dtype=int))
    assert decoder_predict_next(dec, model) == want


def test_predict_next_deterministic_permutation():
    K = 3
    pi = np.zeros((K, K))
    pi[0, 1] = pi[1, 2] = pi[2, 0] = 1.0
    mu = np.array([[5.0, 0.5], [0.5, 5.0], [3.0, 3.0]])
    model = FittedModel(K=K, pi=pi, pi0=np.array([1.0, 0.0, 0.0]), mu=mu,
                        Lambda=np.zeros((K, 2, 2)), lambda_hat=np.zeros(2),
                        b=np.ones((K, 2), dtype=np.int8), hp=Hyperparams(),
                        kind=gibbs.HMM_DP_MMVP)
    dec = new_decoder(model)
    decoder_observe(dec, model, np.array([5, 0]))  # clearly state 0
    assert decoder_predict_next(dec, model) == 1
    decoder_observe(dec, model, np.array([0, 5]))  # now state 1
    assert decoder_predict_next(dec, model) == 2


def test_online_offline_agreement():
    # one-by-one decoding must equal a single batch pass over the same slices
    model = toy_model(K=4, M=3, seed=6)
    rng = np.random.default_rng(7)
    X = rng.integers(0, 9, size=(30, 3))
    dec = new_decoder(model)
    partial_paths = []
    for x in X:
        decoder_observe(dec, model, x)
        partial_paths.append(decode_path(dec).copy())
    batch = new_decoder(model)
    for x in X:
        decoder_observe(batch, model, x)
    assert np.array_equal(partial_paths[-1], decode_path(batch))


def test_emission_shift_invariance():
    # adding a constant to all emission scores at one step cannot change the path
    model = toy_model(K=3, M=2, seed=8)
    rng = np.random.default_rng(9)
    X = rng.integers(0, 6, size=(6, 2))
    dec = new_decoder(model)
    for x in X:
        decoder_observe(dec, model, x)
    base_path = decode_path(dec)
    shifted = new_decoder(model)
    for i, x in enumerate(X):
        decoder_observe(shifted, model, x)
        if i == 3:
            shifted.omega = shifted.omega + 7.5
    assert np.array_equal(base_path, decode_path(shifted))


def test_predict_blocks_composition():
    model = toy_model(K=2, M=2, seed=10)
    amap = AccessMap({0: np.array([1, 2], dtype=np.int64),
                      1: np.array([9], dtype=np.int64)})
    dec = new_decoder(model)
    k = decoder_predict_next(dec, model)
    assert predict_blocks(dec, model, amap).tolist() == amap.blocks_for(k).tolist()
    empty = AccessMap({})
    assert predict_blocks(dec, model, empty).dtype == np.int64
    assert predict_blocks(dec, model, empty).tolist() == []


def test_prediction_latency_budget():
    # one observe + predict at K=200, M=100 must run far under a slice length
    model = toy_model(K=200, M=100, seed=11)
    x = np.random.default_rng(12).integers(0, 10, size=100)
    dec = new_decoder(model)
    decoder_observe(dec, model, x)  # warm up
    start = time.perf_counter()
    decoder_observe(dec, model, x)
    decoder_predict_next(dec, model)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1


# ---------------------------------------------------------------------------
# held-out likelihood

def test_heldout_single_cluster():
    model = toy_model(K=1, M=2, seed=13)
    X = np.array([[1, 2], [0, 4]])
    cfg = BinningConfig(M=2, lba_lo=0, lba_hi=10, nu=1.0)
    seq = CountVectorSequence(X, [np.zeros(0, dtype=np.int64)] * 2, cfg)
    want = sum(log_poisson_pmf(x, model.mu[0]) for x in X)
    assert gibbs.heldout_loglik(model, seq) == pytest.approx(want)


def test_heldout_matches_path_sum():
    model = toy_model(K=2, M=2, seed=14)
    X = np.array([[1, 0], [2, 3]])
    total = -np.inf
    for z0 in range(2):
        for z1 in range(2):
            lp = (np.log(model.pi0[z0]) + log_poisson_pmf(X[0], model.mu[z0])
                  + np.log(model.pi[z0, z1]) + log_poisson_pmf(X[1], model.mu[z1]))
            total = np.logaddexp(total, lp)
    assert gibbs.heldout_loglik(model, X) == pytest.approx(total)


def test_heldout_monotone_in_prefix():
    model = toy_model(K=3, M=2, seed=15)
    rng = np.random.default_rng(16)
    X = rng.integers(0, 6, size=(12, 2))
    vals = [gibbs.heldout_loglik(model, X[:t]) for t in range(1, 13)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# model file round-trip

def test_model_roundtrip(tmp_path):
    model = toy_model(K=3, M=4, seed=17, kind=gibbs.SPARSE_HMM_DP_MMVP)
    blocks = {0: {1, 5}, 2: {7}}
    amap = AccessMap({k: np.array(sorted(s), dtype=np.int64) for k, s in blocks.items()})
    binning = BinningConfig(M=4, lba_lo=0, lba_hi=1000, nu=30.0)
    path = tmp_path / "model.npz"
    save_model(model, amap, binning, path)
    back, amap2, binning2 = load_model(path)
    assert back.K == model.K and back.kind == model.kind
    assert np.allclose(back.pi, model.pi)
    assert np.allclose(back.mu, model.mu)
    assert back.hp == model.hp
    assert {k: v.tolist() for k, v in amap2.H.items()} == \
        {k: sorted(s) for k, s in blocks.items()}
    assert binning2 == binning
    X = np.random.default_rng(18).integers(0, 5, size=(6, 4))
    assert gibbs.heldout_loglik(back, X) == pytest.approx(
        gibbs.heldout_loglik(model, X))
