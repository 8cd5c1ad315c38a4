"""The new-cluster activity marginal: the auxiliary candidates of the sparse
assignment step against the exact sum over candidate activity vectors."""

import itertools

import numpy as np
import pytest

from tracemix import gibbs
from tracemix.models import Hyperparams

import oracles


def exact_new_cluster_marginal(state, t):
    """Sum over every activity vector of prior times conditional likelihood,
    computed from first principles."""
    hp = state.hp
    M = state.M
    k_cur = int(state.Z[t])
    x = state.X[t]
    # noise pools excluding slice t
    pools = {}
    for j in range(M):
        ys = [state.Y[u][j][j] for u in range(state.T)
              if u != t and state.b[state.Z[u]][j] == 0]
        pools[j] = ys
    c = state.b.sum(axis=0)
    p_act = (c + hp.a_prime) / (state.K + hp.a_prime + hp.b_prime)
    total = 0.0
    for vec in itertools.product((0, 1), repeat=M):
        prior = np.prod([p_act[j] if vec[j] else 1 - p_act[j] for j in range(M)])
        Yp = oracles.project(state.Y[t], vec)
        lik = 1.0
        for j in range(M):
            for l in range(j, M):
                if vec[j] and vec[l]:
                    lik *= oracles.poisson_gamma_marginal_exact(
                        [Yp[j, l]], hp.a_bar, hp.b_bar)
        for j in range(M):
            if not vec[j]:
                with_t = oracles.poisson_gamma_marginal_exact(
                    pools[j] + [x[j]], hp.a_hat, hp.b_hat)
                without = oracles.poisson_gamma_marginal_exact(
                    pools[j], hp.a_hat, hp.b_hat)
                lik *= with_t / without
        total += prior * lik
    return total


def m1_fixture():
    hp = Hyperparams()
    X = np.array([[2], [3]])
    Y = X[:, :, None].astype(np.int64)
    return oracles.build_state(gibbs.SPARSE_DP_MMVP, X, [0, 0], Y, [[1]],
                               [0.6, 0.4], hp)


def m2_fixture():
    # two clusters with differing activity so the noise pools are non-trivial
    hp = Hyperparams()
    X = np.array([[2, 1], [1, 0], [4, 2]])
    Y = np.zeros((3, 2, 2), dtype=np.int64)
    Y[:, np.arange(2), np.arange(2)] = X
    Y[2] = [[3, 1], [1, 1]]
    return oracles.build_state(gibbs.SPARSE_DP_MMVP, X, [0, 0, 1], Y,
                               [[1, 0], [1, 1]], [0.5, 0.3, 0.2], hp)


def detached(state, t):
    """t taken out of its cluster's statistics with the cluster kept, so the
    activity predictive counts it as exact_new_cluster_marginal does."""
    st = state.clone()
    gibbs._remove_from_cluster(st, t)
    return st


def aux_log_predictives(t, state, aux):
    """Log predictive of t opening a cluster with each auxiliary vector."""
    return gibbs._f_candidates(t, state, aux)[0][state.K:]


@pytest.mark.parametrize("fixture,t", [(m1_fixture, 1), (m2_fixture, 2)])
def test_aux_marginal_within_three_ses(fixture, t):
    # the auxiliaries' mean predictive is an unbiased estimate of the
    # new-cluster marginal, so its mean over many draws lies within three
    # standard errors of the exact sum
    state = fixture()
    exact = exact_new_cluster_marginal(state, t)
    st = detached(state, t)
    rng = np.random.default_rng(42)
    n = 20_000
    estimates = np.array([
        np.exp(aux_log_predictives(t, st, gibbs.f_new_sparse(t, st, rng))).mean()
        for _ in range(n)])
    se = estimates.std(ddof=1) / np.sqrt(n)
    assert abs(estimates.mean() - exact) < 3 * se


def test_singleton_vector_is_the_first_auxiliary():
    state = detached(m2_fixture(), 2)
    old_b = np.array([0, 1], dtype=np.int8)
    aux = gibbs.f_new_sparse(2, state, np.random.default_rng(0), old_b)
    assert aux.shape == (gibbs._N_AUX, 2)
    assert np.array_equal(aux[0], old_b)


def test_auxiliaries_need_a_detached_slice():
    with pytest.raises(ValueError, match="detached"):
        gibbs.f_new_sparse(1, m1_fixture(), np.random.default_rng(0))


def test_marginal_requires_sparse_kind():
    hp = Hyperparams()
    X = np.array([[1]])
    state = oracles.build_state(gibbs.DP_MMVP, X, [0], X[:, :, None],
                                [[1]], [0.5, 0.5], hp)
    with pytest.raises(ValueError):
        gibbs.f_new_sparse(0, state, np.random.default_rng(0))
