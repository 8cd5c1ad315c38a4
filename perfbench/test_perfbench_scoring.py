"""The benchmark's own ARI and Viterbi decoder, checked by hand and against the
package decoder."""

import numpy as np
import pytest

from tracemix import gibbs
from tracemix.models import Hyperparams
from tracemix.predict import (FittedModel, decode_path, decoder_observe,
                              new_decoder)

from scoring import adjusted_rand_index, viterbi


def test_ari_hand_computed():
    # contingency [[2, 1, 0], [0, 1, 2]]: pair sums 2, rows 6, cols 3, n 15;
    # expected 6 * 3 / 15 = 1.2, max (6 + 3) / 2 = 4.5 -> 0.8 / 3.3
    ari = adjusted_rand_index([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2])
    assert ari == pytest.approx(0.8 / 3.3, rel=1e-12)


def test_ari_ignores_label_names():
    assert adjusted_rand_index([0, 0, 1, 1, 2], [7, 7, 3, 3, 5]) == 1.0


def test_ari_of_one_cluster_against_many_is_zero():
    assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0


def _model(K, M, seed):
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.1, 1.0, size=(K, K))
    pi /= pi.sum(axis=1, keepdims=True)
    pi0 = rng.uniform(0.1, 1.0, size=K)
    pi0 /= pi0.sum()
    mu = rng.uniform(0.5, 6.0, size=(K, M))
    mu[0, 0] = 0.0  # a zero mean must veto any positive count
    return FittedModel(K=K, pi=pi, pi0=pi0, mu=mu,
                       Lambda=np.zeros((K, M, M)), lambda_hat=np.zeros(M),
                       b=np.ones((K, M), dtype=np.int8), hp=Hyperparams(),
                       kind=gibbs.HMM_DP_MMVP)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_viterbi_matches_package_decoder(seed):
    model = _model(K=4, M=3, seed=seed)
    X = np.random.default_rng(100 + seed).poisson(3.0, size=(30, 3))
    state = new_decoder(model)
    for x in X:
        decoder_observe(state, model, x)
    expected = decode_path(state)
    assert np.array_equal(viterbi(model.pi, model.pi0, model.mu, X), expected)


def test_viterbi_empty_sequence():
    model = _model(K=2, M=2, seed=0)
    assert viterbi(model.pi, model.pi0, model.mu, np.zeros((0, 2))).size == 0
