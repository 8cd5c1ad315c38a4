"""The package computes every log-gamma from math.lgamma, nearly all of them
through the shifted-integer grids of `models`; scipy is the reference here."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from tracemix import gibbs, models
from tracemix.models import Hyperparams
from tracemix.predict import FittedModel

import oracles

# every offset distinct and none the default, so each grid is its own
HP = Hyperparams(a_bar=0.7, b_bar=1.3, a_hat=1.5, b_hat=10.0,
                 a_prime=0.5, b_prime=1.8, alpha=2.5)
OFFSETS = {"unit": 1.0, "a_bar": HP.a_bar, "a_hat": HP.a_hat,
           "a_prime": HP.a_prime, "b_prime": HP.b_prime,
           "a_prime+b_prime": HP.a_prime + HP.b_prime, "alpha": HP.alpha}
RTOL = 1e-13


@pytest.mark.parametrize("name", sorted(OFFSETS))
def test_grid_matches_scipy(name):
    offset = OFFSETS[name]
    want = gammaln(offset + np.arange(5000))
    # a fresh grid grows past its initial 1024 entries on this lookup
    for grid in (models._Grid(offset), models._grid(offset)):
        np.testing.assert_allclose(grid.take(np.arange(5000)), want, rtol=RTOL, atol=0)
    assert models._grid(1.0) is models._UNIT


# the log tables' offsets: the sampler reads log(rate + n) and log(rate + 1 + n)
# for the active and the noise rate, under this file's priors and the defaults
LOG_OFFSETS = sorted({v for hp in (HP, Hyperparams())
                      for rate in (hp.b_bar, hp.b_hat) for v in (rate, rate + 1.0)})


@pytest.mark.parametrize("offset", LOG_OFFSETS)
def test_log_table_is_np_log_bit_for_bit(offset):
    fresh = models._Grid(offset, np.log)
    size = len(fresh.vals)
    n = 4 * size + 3
    # a lookup past the end grows the table
    fresh.take([n - 1])
    assert len(fresh.vals) >= n > size
    # every entry is the np.log call the sampler made before the tables
    want = np.log(offset + np.arange(n)).tobytes()
    for grid in (fresh, models._log_grid(offset)):
        assert grid.take(np.arange(n)).tobytes() == want


def test_elementwise_lgamma_matches_scipy():
    # alpha * beta + n_trans: the one argument with no fixed offset
    rng = np.random.default_rng(3)
    beta = np.maximum(rng.dirichlet(np.full(12, 0.3)), 1e-12)
    x = HP.alpha * beta[None, :] + rng.integers(0, 400, size=(12, 12))
    got = np.array([[math.lgamma(v) for v in row] for row in x.tolist()])
    np.testing.assert_allclose(got, gammaln(x), rtol=RTOL, atol=0)


def _random_state(kind, rng, T=40, M=3, K=5):
    Z = np.concatenate([np.arange(K), rng.integers(0, K, size=T - K)])
    X = rng.integers(0, 30, size=(T, M))
    b = rng.integers(0, 2, size=(K, M)) if gibbs.is_sparse(kind) else np.ones((K, M), int)
    Y = np.zeros((T, M, M), dtype=np.int64)
    for t in range(T):
        Y[t][np.arange(M), np.arange(M)] = X[t]
        if not gibbs.is_diagonal(kind):
            # move part of each live active pair's counts off the diagonal
            for j, l in ((0, 1), (1, 2)):
                if b[Z[t], j] and b[Z[t], l]:
                    v = rng.integers(0, min(Y[t, j, j], Y[t, l, l]) + 1)
                    Y[t, j, l] = Y[t, l, j] = v
                    Y[t, j, j] -= v
                    Y[t, l, l] -= v
    beta = np.append(rng.dirichlet(np.ones(K)) * 0.9, 0.1)
    beta[1] = 1e-12
    return X, Z, Y, b, beta


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_joint_log_density_matches_scipy_reference(kind):
    # the Beta-Bernoulli term (betaln), the CRP and transition terms and the
    # collapsed factors, all against the oracle's scipy derivation
    rng = np.random.default_rng(4)
    X, Z, Y, b, beta = _random_state(kind, rng)
    state = oracles.build_state(kind, X, Z, Y, b, beta, HP)
    want = oracles.full_joint(X, Z, Y, b, beta, HP, gibbs.is_temporal(kind),
                              gibbs.is_sparse(kind), gibbs.is_diagonal(kind))
    assert gibbs.joint_log_density(state) == pytest.approx(want, rel=RTOL)


def _model(pi, pi0, mu):
    K, M = mu.shape
    return FittedModel(K=K, pi=pi, pi0=pi0, mu=mu, Lambda=np.zeros((K, M, M)),
                       lambda_hat=np.zeros(M), b=np.ones((K, M), dtype=np.int8),
                       hp=Hyperparams(), kind=gibbs.HMM_DP_MIP)


def test_heldout_with_unreachable_cluster_matches_scipy_forward_pass():
    # no row moves into cluster 2, so after the first slice its forward
    # column is all -inf: the max shift must give -inf there, not NaN
    rng = np.random.default_rng(5)
    pi = rng.uniform(0.2, 1.0, size=(3, 3))
    pi[:, 2] = 0.0
    pi /= pi.sum(axis=1, keepdims=True)
    pi0 = np.array([0.2, 0.3, 0.5])
    mu = rng.uniform(0.5, 8.0, size=(3, 4))
    X = rng.integers(0, 9, size=(12, 4))
    got = gibbs.heldout_loglik(_model(pi, pi0, mu), X)
    assert np.isfinite(got)
    assert got == pytest.approx(oracles.forward_loglik(pi0, pi, mu, X), rel=1e-12)


def test_heldout_one_slice_matches_scipy_forward_pass():
    rng = np.random.default_rng(6)
    pi = np.full((2, 2), 0.5)
    pi0 = np.array([0.4, 0.6])
    mu = rng.uniform(0.5, 8.0, size=(2, 3))
    X = np.array([[3, 0, 7]])
    got = gibbs.heldout_loglik(_model(pi, pi0, mu), X)
    assert got == pytest.approx(oracles.forward_loglik(pi0, pi, mu, X), rel=1e-12)
