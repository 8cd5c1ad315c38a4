"""Empirical conditionals of every sampled variable against exact enumeration
on small fixtures.  The enumeration evaluates full configurations with the
independent joint density in oracles.py, never the sampler's incremental
bookkeeping."""

import collections
import itertools

import numpy as np
import pytest

from tracemix import gibbs
from tracemix.models import Hyperparams

import oracles

DRAWS = 100_000
TOL = 0.02


def empirical_outcomes(state, draw_fn, outcome_fn, n=DRAWS, seed=0):
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(n):
        st = state.clone()
        draw_fn(st, rng)
        key = outcome_fn(st)
        counts[key] = counts.get(key, 0) + 1
    return {k: v / n for k, v in counts.items()}


def partition_of(state, t):
    """Hashable outcome id: which other slices share t's cluster."""
    return frozenset(int(u) for u in np.flatnonzero(state.Z == state.Z[t])
                     if u != t)


def normalized(log_weights):
    w = np.exp(np.asarray(log_weights) - max(log_weights))
    return w / w.sum()


# ---------------------------------------------------------------------------
# assignments, exchangeable prior

def test_sample_z_dp_single_point_forms_singleton():
    hp = Hyperparams()
    state = oracles.build_state(gibbs.DP_MMVP, [[2, 1]], [0],
                                [[[2, 0], [0, 1]]], [[1, 1]], [0.5, 0.5], hp)
    rng = np.random.default_rng(0)
    gibbs.sample_z_dp(0, state, rng)
    assert state.K == 1 and state.n_k[0] == 1


def test_sample_z_dp_identical_points_prefer_sharing():
    # strong prior separation: two equal observations co-cluster more often
    # than they split, checked against the exact two-point posterior
    hp = Hyperparams(a_bar=1.0, b_bar=0.1, alpha=1.0)
    X = [[4], [4]]
    Y = [[[4]], [[4]]]
    state = oracles.build_state(gibbs.DP_MMVP, X, [0, 0], Y, [[1]],
                                [0.5, 0.5], hp)
    m_joint = oracles.poisson_gamma_marginal_exact([4, 4], 1.0, 0.1)
    m_single = oracles.poisson_gamma_marginal_exact([4], 1.0, 0.1)
    p_share = m_joint / (m_joint + hp.alpha * m_single ** 2)
    assert p_share > 0.5
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_z_dp(1, st, rng),
        lambda st: partition_of(st, 1), n=20_000, seed=1)
    assert freqs.get(frozenset({0}), 0.0) == pytest.approx(p_share, abs=TOL)


@pytest.mark.parametrize("kind", [gibbs.DP_MMVP, gibbs.DP_MIP])
def test_sample_z_dp_matches_enumeration(kind):
    hp = Hyperparams()
    X = np.array([[1, 0], [2, 1], [0, 1]])
    Z = np.array([0, 0, 1])
    diag = gibbs.is_diagonal(kind)
    if diag:
        # the independent kinds keep every latent matrix diagonal, and score
        # the new cluster with the diagonal mask
        Y = np.zeros((3, 2, 2), dtype=np.int64)
        Y[:, [0, 1], [0, 1]] = X
    else:
        # a generic valid latent configuration over two clusters
        Y = np.array([[[1, 0], [0, 0]],
                      [[1, 1], [1, 0]],
                      [[0, 0], [0, 1]]])
    state = oracles.build_state(kind, X, Z, Y,
                                [[1, 1], [1, 1]], [0.4, 0.4, 0.2], hp)
    t = 1
    # candidates: share with slice 0, share with slice 2, alone
    configs = {
        frozenset({0}): np.array([0, 0, 1]),
        frozenset({2}): np.array([0, 1, 1]),
        frozenset(): np.array([0, 2, 1]),
    }
    logps = {key: oracles.full_joint(X, z, Y, [[1, 1]] * 3, state.beta, hp,
                                     temporal=False, sparse=False, diag=diag)
             for key, z in configs.items()}
    keys = sorted(configs, key=sorted)
    probs = dict(zip(keys, normalized([logps[k] for k in keys])))
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_z_dp(t, st, rng),
        lambda st: partition_of(st, t), seed=2)
    for key in keys:
        assert freqs.get(key, 0.0) == pytest.approx(probs[key], abs=TOL), key


def test_sample_z_dp_sparse_keeps_the_exact_conditional():
    # With finite auxiliaries one step from a fixed start is not an exact
    # draw, but it leaves the conditional of (t's partition, t's vector when
    # alone) invariant: starts drawn from it must end in it.  Y[t] is
    # diagonal, so no candidate support moves its latents.
    hp = Hyperparams()
    X = np.array([[2, 1], [0, 1], [1, 0]])
    Y = np.zeros((3, 2, 2), dtype=np.int64)
    Y[:, [0, 1], [0, 1]] = X
    b = [[1, 1], [0, 1]]
    t = 2
    configs = {(frozenset({k}), None): ([0, 1, k], b) for k in (0, 1)}
    for vec in itertools.product((0, 1), repeat=2):
        configs[(frozenset(), vec)] = ([0, 1, 2], b + [list(vec)])
    keys = list(configs)
    probs = normalized([oracles.full_joint(X, z, Y, bc, [0.25] * 4, hp, temporal=False,
                                           sparse=True, diag=False)
                        for z, bc in configs.values()])
    starts = [oracles.build_state(gibbs.SPARSE_DP_MMVP, X, z, Y, bc,
                                  [1.0 / (len(bc) + 1)] * (len(bc) + 1), hp)
              for z, bc in configs.values()]
    rng = np.random.default_rng(18)
    n = 40_000
    counts = dict.fromkeys(keys, 0)
    for start in rng.choice(len(keys), size=n, p=probs):
        st = starts[start].clone()
        gibbs.sample_z_dp(t, st, rng)
        shared = partition_of(st, t)
        counts[(shared, None if shared else tuple(st.b[st.Z[t]].tolist()))] += 1
    for key, p in zip(keys, probs):
        assert counts[key] / n == pytest.approx(p, abs=TOL), key


# ---------------------------------------------------------------------------
# assignments, Markov prior

def hdp_fixture():
    hp = Hyperparams()
    X = np.array([[1], [3], [0]])
    Z = np.array([0, 0, 1])
    Y = X[:, :, None].astype(np.int64)
    beta = np.array([0.5, 0.3, 0.2])
    state = oracles.build_state(gibbs.HMM_DP_MMVP, X, Z, Y,
                                [[1], [1]], beta, hp)
    return state, X, Y, beta, hp


def test_sample_z_hdp_matches_enumeration():
    state, X, Y, beta, hp = hdp_fixture()
    t = 1
    configs = {
        frozenset({0}): np.array([0, 0, 1]),
        frozenset({2}): np.array([0, 1, 1]),
        frozenset(): np.array([0, 2, 1]),
    }
    logps = {key: oracles.full_joint(X, z, Y, [[1]] * 3, beta, hp,
                                     temporal=True, sparse=False, diag=False)
             for key, z in configs.items()}
    keys = sorted(configs, key=sorted)
    probs = dict(zip(keys, normalized([logps[k] for k in keys])))
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_z_hdp(t, st, rng),
        lambda st: partition_of(st, t), seed=3)
    for key in keys:
        assert freqs.get(key, 0.0) == pytest.approx(probs[key], abs=TOL), key


def test_sample_z_hdp_new_cluster_weight_formula():
    # the fresh-cluster prior weight is alpha*beta_rem * beta_next: check the
    # sampler's singleton frequency against the direct formula
    state, X, Y, beta, hp = hdp_fixture()
    t = 1
    prev_k, next_k = 0, 1
    n_minus = np.zeros((2, 2))  # transition counts without t's edges
    mask = np.ones((1, 1), dtype=bool)

    def predictive(k):
        # cluster k without slice t; k = 2 is the new, empty cluster
        others = [u for u in range(len(X)) if u != t and state.Z[u] == k]
        return np.exp(oracles._pred_delta(hp, Y[others].sum(axis=0), len(others),
                                          Y[t], mask))

    w = []
    for k in (0, 1):
        in_f = hp.alpha * beta[k] + n_minus[prev_k, k]
        num = hp.alpha * beta[next_k] + n_minus[k, next_k] + (prev_k == k) * (k == next_k)
        den = hp.alpha + n_minus[k].sum() + (prev_k == k)
        w.append(in_f * num / den * predictive(k))
    w.append(hp.alpha * beta[2] * beta[next_k] * predictive(2))
    probs = np.array(w) / sum(w)
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_z_hdp(t, st, rng),
        lambda st: partition_of(st, t), n=40_000, seed=4)
    assert freqs.get(frozenset(), 0.0) == pytest.approx(probs[2], abs=TOL)


def test_sample_z_hdp_self_transition_counting():
    hp = Hyperparams()
    X = np.array([[2], [2], [2]])
    Y = X[:, :, None].astype(np.int64)
    state = oracles.build_state(gibbs.HMM_DP_MMVP, X, [0, 0, 0], Y,
                                [[1]], [0.9, 0.1], hp)
    rng = np.random.default_rng(5)
    before = state.n_trans.copy()
    assert before[0, 0] == 2
    # force re-assignment to the same cluster repeatedly; the self-loop count
    # must return to 2 every time
    for _ in range(50):
        gibbs.sample_z_hdp(1, state, rng)
        k = state.Z[1]
        if state.K == 1:
            assert state.n_trans[k, k] == 2


# ---------------------------------------------------------------------------
# latent matrices

def test_sample_y_zero_counts_noop():
    hp = Hyperparams()
    X = np.array([[0, 0]])
    Y = np.zeros((1, 2, 2), dtype=np.int64)
    state = oracles.build_state(gibbs.DP_MMVP, X, [0], Y, [[1, 1]],
                                [0.5, 0.5], hp)
    rng = np.random.default_rng(6)
    gibbs.sample_y(0, 0, 1, state, rng)
    assert np.array_equal(state.Y[0], np.zeros((2, 2)))


def test_sample_y_matches_enumeration():
    hp = Hyperparams()
    X = np.array([[1, 1], [2, 1]])
    Z = np.array([0, 0])
    Y = np.array([[[1, 0], [0, 1]],
                  [[1, 1], [1, 0]]])
    state = oracles.build_state(gibbs.DP_MMVP, X, Z, Y, [[1, 1]],
                                [0.5, 0.5], hp)
    t, j, l = 0, 0, 1
    # support: v in {0, 1}; diagonals rebalance to keep row sums
    def config(v):
        Yc = Y.copy()
        Yc[0] = [[1 - v, v], [v, 1 - v]]
        return Yc
    logps = [oracles.full_joint(X, Z, config(v), [[1, 1]], state.beta, hp,
                                temporal=False, sparse=False, diag=False)
             for v in (0, 1)]
    probs = normalized(logps)
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_y(t, j, l, st, rng),
        lambda st: int(st.Y[0, 0, 1]), seed=7)
    for v in (0, 1):
        assert freqs.get(v, 0.0) == pytest.approx(probs[v], abs=TOL), v


def test_sample_y_matches_enumeration_on_a_wide_support():
    # four values, v in {0, 1, 2, 3}, and a second member with mass on the
    # pair and both diagonals, so each of the sampler's three lgamma runs
    # starts inside its grid; a_bar != 1 keeps that grid apart from log y!
    hp = Hyperparams(a_bar=1.5, b_bar=0.5)
    X = np.array([[4, 3], [5, 4]])
    Z = np.array([0, 0])
    Y = np.array([[[3, 1], [1, 2]],
                  [[3, 2], [2, 2]]])
    state = oracles.build_state(gibbs.DP_MMVP, X, Z, Y, [[1, 1]],
                                [0.5, 0.5], hp)
    def config(v):
        Yc = Y.copy()
        Yc[0] = [[4 - v, v], [v, 3 - v]]
        return Yc
    support = range(4)
    logps = [oracles.full_joint(X, Z, config(v), [[1, 1]], state.beta, hp,
                                temporal=False, sparse=False, diag=False)
             for v in support]
    probs = normalized(logps)
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_y(0, 0, 1, st, rng),
        lambda st: int(st.Y[0, 0, 1]), seed=10)
    for v in support:
        assert freqs.get(v, 0.0) == pytest.approx(probs[v], abs=TOL), v


def test_sample_y_row_sums_after_moves():
    hp = Hyperparams()
    rng = np.random.default_rng(8)
    X = np.array([[3, 2, 4], [1, 5, 2]])
    Y = np.zeros((2, 3, 3), dtype=np.int64)
    Y[:, np.arange(3), np.arange(3)] = X
    state = oracles.build_state(gibbs.DP_MMVP, X, [0, 0], Y,
                                [[1, 1, 1]], [0.5, 0.5], hp)
    for _ in range(300):
        t = rng.integers(2)
        j, l = sorted(rng.choice(3, size=2, replace=False))
        gibbs.sample_y(int(t), int(j), int(l), state, rng)
        assert np.array_equal(state.Y.sum(axis=2), X)
        assert np.array_equal(state.Y[0], state.Y[0].T)


def test_sample_y_sparse_matches_enumeration():
    hp = Hyperparams()
    X = np.array([[2, 1, 1], [1, 1, 0]])
    Z = np.array([0, 0])
    b = np.array([[1, 1, 0]])
    Y = np.zeros((2, 3, 3), dtype=np.int64)
    Y[:, np.arange(3), np.arange(3)] = X
    state = oracles.build_state(gibbs.SPARSE_DP_MMVP, X, Z, Y, b,
                                [0.5, 0.5], hp)
    t, j, l = 0, 0, 1
    def config(v):
        Yc = Y.copy()
        Yc[0, 0, 0] = 2 - v
        Yc[0, 1, 1] = 1 - v
        Yc[0, 0, 1] = Yc[0, 1, 0] = v
        return Yc
    logps = [oracles.full_joint(X, Z, config(v), b, state.beta, hp,
                                temporal=False, sparse=True, diag=False)
             for v in (0, 1)]
    probs = normalized(logps)
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_y(t, j, l, st, rng),
        lambda st: int(st.Y[0, 0, 1]), seed=9)
    for v in (0, 1):
        assert freqs.get(v, 0.0) == pytest.approx(probs[v], abs=TOL), v


# ---------------------------------------------------------------------------
# activity indicators

def sparse_fixture():
    hp = Hyperparams()
    X = np.array([[2, 1], [1, 2], [3, 0]])
    Z = np.array([0, 0, 1])
    b = np.array([[1, 1], [1, 0]])
    Y = np.array([[[1, 1], [1, 0]],
                  [[0, 1], [1, 1]],
                  [[3, 0], [0, 0]]])
    state = oracles.build_state(gibbs.SPARSE_DP_MMVP, X, Z, Y, b,
                                [0.4, 0.4, 0.2], hp)
    return state, X, Z, Y, b, hp


def test_sample_b_prior_is_symmetric_beta():
    # K=1, no other clusters, a'=b'=1: the collapsed activity prior weighs
    # both values equally; the empirical conditional must then match the
    # likelihood-only enumeration
    hp = Hyperparams(a_hat=1.0, b_hat=1.0)
    assert oracles.activity_log_prob([[1, 1]], 1.0, 1.0) == pytest.approx(
        oracles.activity_log_prob([[1, 0]], 1.0, 1.0))
    X = np.array([[0, 0]])
    Y = np.zeros((1, 2, 2), dtype=np.int64)
    state = oracles.build_state(gibbs.SPARSE_DP_MMVP, X, [0], Y,
                                [[1, 0]], [0.5, 0.5], hp)
    logps = [oracles.full_joint(X, [0], Y, bc, state.beta, hp,
                                temporal=False, sparse=True, diag=False)
             for bc in ([[1, 0]], [[1, 1]])]
    probs = normalized(logps)
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_b(0, 1, st, rng),
        lambda st: int(st.b[0, 1]), n=20_000, seed=10)
    assert freqs.get(0, 0.0) == pytest.approx(probs[0], abs=TOL)
    assert freqs.get(1, 0.0) == pytest.approx(probs[1], abs=TOL)


def test_sample_b_zero_dim_prefers_inactive():
    # all-zero counts in the cluster and a concentrated noise prior: the
    # two-way conditional must favor switching the dimension off
    hp = Hyperparams()  # b_hat = 10 >> b_bar = 1
    X = np.array([[5, 0], [4, 0], [6, 0]])
    Y = np.zeros((3, 2, 2), dtype=np.int64)
    Y[:, 0, 0] = X[:, 0]
    state = oracles.build_state(gibbs.SPARSE_DP_MMVP, X, [0, 0, 0], Y,
                                [[1, 1]], [0.5, 0.5], hp)
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_b(0, 1, st, rng),
        lambda st: int(st.b[0, 1]), n=20_000, seed=11)
    assert freqs.get(0, 0.0) > 0.5


def test_sample_b_deactivation_matches_enumeration():
    state, X, Z, Y, b, hp = sparse_fixture()
    # resample b[0, 1]; side 1 keeps the current latents, side 0 folds the
    # off-diagonal mass of rows/cols 1 for cluster-0 members onto diagonals
    Y0 = Y.copy()
    for t in (0, 1):
        Y0[t] = oracles.project(Y[t], [1, 0])
    b1 = np.array([[1, 1], [1, 0]])
    b0 = np.array([[1, 0], [1, 0]])
    logp1 = oracles.full_joint(X, Z, Y, b1, state.beta, hp,
                               temporal=False, sparse=True, diag=False)
    logp0 = oracles.full_joint(X, Z, Y0, b0, state.beta, hp,
                               temporal=False, sparse=True, diag=False)
    probs = normalized([logp0, logp1])
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_b(0, 1, st, rng),
        lambda st: int(st.b[0, 1]), seed=12)
    assert freqs.get(0, 0.0) == pytest.approx(probs[0], abs=TOL)
    assert freqs.get(1, 0.0) == pytest.approx(probs[1], abs=TOL)


def test_sample_b_activation_matches_enumeration():
    state, X, Z, Y, b, hp = sparse_fixture()
    # resample b[1, 1] (currently 0); activation keeps the diagonal latents
    b1 = np.array([[1, 1], [1, 1]])
    b0 = b.copy()
    logp1 = oracles.full_joint(X, Z, Y, b1, state.beta, hp,
                               temporal=False, sparse=True, diag=False)
    logp0 = oracles.full_joint(X, Z, Y, b0, state.beta, hp,
                               temporal=False, sparse=True, diag=False)
    probs = normalized([logp0, logp1])
    freqs = empirical_outcomes(
        state, lambda st, rng: gibbs.sample_b(1, 1, st, rng),
        lambda st: int(st.b[1, 1]), seed=13)
    assert freqs.get(0, 0.0) == pytest.approx(probs[0], abs=TOL)
    assert freqs.get(1, 0.0) == pytest.approx(probs[1], abs=TOL)


def test_sample_b_double_toggle_preserves_row_sums():
    state, X, Z, Y, b, hp = sparse_fixture()
    rng = np.random.default_rng(14)
    for _ in range(200):
        gibbs.sample_b(0, 1, state, rng)
        assert np.array_equal(state.Y.sum(axis=2), X)


# ---------------------------------------------------------------------------
# table counts and stick weights

def test_sample_m_single_count():
    hp = Hyperparams()
    X = np.array([[1]])
    state = oracles.build_state(gibbs.DP_MMVP, X, [0], [[[1]]], [[1]],
                                [0.6, 0.4], hp)
    rng = np.random.default_rng(15)
    draws = []
    for _ in range(30_000):
        st = state.clone()
        gibbs.sample_m_beta(st, rng)
        draws.append(int(st.m[0]))
    p = hp.alpha * 0.6 / (1 + hp.alpha * 0.6)
    assert set(draws) <= {0, 1}
    assert np.mean(draws) == pytest.approx(p, abs=0.01)


def test_sample_m_expectation_matches_bernoulli_sum():
    hp = Hyperparams()
    n = 7
    X = np.ones((n, 1), dtype=np.int64)
    Y = X[:, :, None].astype(np.int64)
    state = oracles.build_state(gibbs.DP_MMVP, X, [0] * n, Y, [[1]],
                                [0.7, 0.3], hp)
    rng = np.random.default_rng(16)
    draws = np.empty(100_000)
    for i in range(len(draws)):
        st = state.clone()
        gibbs.sample_m_beta(st, rng)
        draws[i] = st.m[0]
    ab = hp.alpha * 0.7
    expect = sum(ab / (i + ab) for i in range(1, n + 1))
    se = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean() - expect) < 3 * se


def test_beta_sums_to_one():
    hp = Hyperparams()
    X = np.array([[1], [2], [0]])
    Y = X[:, :, None].astype(np.int64)
    state = oracles.build_state(gibbs.HMM_DP_MMVP, X, [0, 1, 0], Y,
                                [[1], [1]], [0.4, 0.4, 0.2], hp)
    rng = np.random.default_rng(17)
    for _ in range(200):
        gibbs.sample_m_beta(state, rng)
        assert abs(state.beta.sum() - 1.0) < 1e-12
        assert len(state.beta) == state.K + 1


# ---------------------------------------------------------------------------
# split-merge moves

def partitions(n):
    """Every partition of n slices as a canonical label vector (first
    occurrences in increasing order)."""
    if n == 0:
        yield ()
        return
    for head in partitions(n - 1):
        for k in range(max(head, default=-1) + 2):
            yield head + (k,)


def canonical(Z):
    first = {}
    return tuple(first.setdefault(int(k), len(first)) for k in Z)


def test_split_merge_keeps_the_partition_posterior():
    # dp-mip with diagonal Y: the posterior over the 15 partitions of four
    # slices is enumerable, and one split-merge step from starts drawn from
    # it must end in it.  Dropping the merge's reverse-split price moves some
    # probabilities by about 0.1.
    hp = Hyperparams()
    X = np.array([[2, 0], [3, 1], [0, 4], [1, 3]])
    Y = np.zeros((4, 2, 2), dtype=np.int64)
    Y[:, [0, 1], [0, 1]] = X
    parts = list(partitions(len(X)))
    assert len(parts) == 15
    probs = normalized([oracles.full_joint(X, z, Y, [[1, 1]] * (max(z) + 1), None, hp,
                                           temporal=False, sparse=False, diag=True)
                        for z in parts])
    starts = [oracles.build_state(gibbs.DP_MIP, X, z, Y, [[1, 1]] * (max(z) + 1),
                                  [1.0 / (max(z) + 2)] * (max(z) + 2), hp)
              for z in parts]
    rng = np.random.default_rng(19)
    n = 20_000
    counts = dict.fromkeys(parts, 0)
    for start in rng.choice(len(parts), size=n, p=probs):
        st = starts[start].clone()
        gibbs._one_split_merge(st, rng, gibbs.joint_log_density(st))
        counts[canonical(st.Z)] += 1
    for z, p in zip(parts, probs):
        assert counts[z] / n == pytest.approx(p, abs=TOL), z


# ---------------------------------------------------------------------------
# one composed sweep

# starts and steps per gated kind: at TOL the largest cell of each target
# (0.38 for dp-mip, 0.11 for dp-mmvp) is 3.2-4 standard errors wide.
# sparse-dp-mmvp (4,000 draws) fails this gate: one sweep moves the cell "one
# cluster, b = (1, 0)" from 0.043 to 0.108.  sample_b folds a deactivated
# row of Y onto the diagonals and an activation leaves it there, and the
# assignment step folds Y the same way, so no move restores the
# off-diagonal mass; alone, sample_b takes that cell to 0.121 and the
# assignment steps to 0.076, while sample_y and split-merge keep the target.
# sweep_posterior enumerates the sparse target, so that gate is one entry.
SWEEP_DRAWS = {gibbs.DP_MIP: 6_000, gibbs.DP_MMVP: 4_000}


def sweep_posterior(kind, X, hp):
    """Every (canonical Z, Y, b) of kind on the 2-dimension counts X, with its
    exact posterior probability: each partition, each activity row per
    cluster (sparse kinds; all active otherwise) and each value of every
    slice's one off-diagonal latent that its cluster's activity allows."""
    sparse, diag = gibbs.is_sparse(kind), gibbs.is_diagonal(kind)
    configs = []
    for z in partitions(len(X)):
        K = max(z) + 1
        rows = (itertools.product(itertools.product((0, 1), repeat=2), repeat=K)
                if sparse else [((1, 1),) * K])
        for b in rows:
            ys = [[[[x0 - v, v], [v, x1 - v]]
                   for v in range(min(x0, x1) + 1 if not diag and all(b[k]) else 1)]
                  for (x0, x1), k in zip(X.tolist(), z)]
            configs += [(z, np.array(Y), np.array(b)) for Y in itertools.product(*ys)]
    probs = normalized([oracles.full_joint(X, z, Y, b, None, hp, temporal=False,
                                           sparse=sparse, diag=diag)
                        for z, Y, b in configs])
    return configs, probs


def sweep_outcome(Z, Y, b):
    """Hashable (canonical Z, Y, b), b's rows in canonical label order."""
    order = list(dict.fromkeys(Z.tolist()))
    return canonical(Z), tuple(Y.ravel().tolist()), tuple(map(tuple, b[order].tolist()))


@pytest.mark.parametrize("kind", list(SWEEP_DRAWS))
def test_one_sweep_keeps_the_joint_posterior(kind):
    # Geweke's successive-conditional check, made exact by enumeration:
    # starts drawn from the posterior of (Z, Y, b) must end in it after one
    # gibbs.sweep, which composes the assignment, latent-pair, activity and
    # split-merge kernels.  beta is not part of these kinds' target.  The
    # temporal kinds are not gated: opening or closing a cluster splits or
    # folds a stick weight, so their target would have to include beta.  A
    # dropped split-merge proposal price fails both gated kinds.
    hp = Hyperparams()
    X = np.array([[2, 1], [1, 2], [3, 0]])
    configs, probs = sweep_posterior(kind, X, hp)
    keys = [sweep_outcome(np.array(z), Y, b) for z, Y, b in configs]
    starts = [oracles.build_state(kind, X, z, Y, b, [1.0 / (max(z) + 2)] * (max(z) + 2), hp)
              for z, Y, b in configs]
    rng = np.random.default_rng(20)
    n = SWEEP_DRAWS[kind]
    counts = collections.Counter()
    for start in rng.choice(len(keys), size=n, p=probs):
        st = starts[start].clone()
        gibbs.sweep(st, rng)
        counts[sweep_outcome(st.Z, st.Y, st.b)] += 1
    assert set(counts) <= set(keys)
    for key, p in zip(keys, probs):
        assert counts[key] / n == pytest.approx(p, abs=TOL), key
