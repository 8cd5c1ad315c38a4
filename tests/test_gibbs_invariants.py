"""Structural invariants checked after every single update in fuzz runs, plus
coherence of the incremental statistics against full recomputation."""

import numpy as np
import pytest

from tracemix import gibbs
from tracemix.models import Hyperparams

import oracles


def assert_invariants(state, check_all=True):
    assert np.array_equal(state.Y.sum(axis=2), state.X), "row sums broken"
    assert np.array_equal(state.Y, np.transpose(state.Y, (0, 2, 1))), "Y not symmetric"
    assert abs(state.beta.sum() - 1.0) < 1e-12
    assert len(state.beta) == state.K + 1
    if not check_all:
        return
    n_k, S, _, n_trans, S_hat, n_hat, _ = gibbs.recompute_stats(state)
    assert np.array_equal(state.n_k, n_k)
    assert np.array_equal(state.S, S)
    assert np.array_equal(state.n_trans, n_trans)
    assert np.array_equal(state.S_hat, S_hat)
    assert np.array_equal(state.n_hat, n_hat)
    assert state.K == len(np.unique(state.Z))
    # Y[t] is zero outside its cluster's factors and the diagonal, where
    # inactive dimensions keep their noise counts
    eye = np.eye(state.M, dtype=bool)
    for t, k in enumerate(state.Z):
        mask = gibbs._pair_mask(state.kind, state.b[k], state.M)
        assert not state.Y[t][~(mask | mask.T | eye)].any(), f"Y[{t}] off its support"


def fuzz_data(T=12, M=3, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.poisson([3.0, 0.2, 1.5]) for _ in range(T)])
    from tracemix.ingest import BinningConfig, CountVectorSequence
    cfg = BinningConfig(M=M, lba_lo=0, lba_hi=M * 4096, nu=30.0)
    return CountVectorSequence(X, [np.zeros(0, dtype=np.int64)] * T, cfg)


@pytest.mark.parametrize("kind,sweeps", [
    (gibbs.SPARSE_HMM_DP_MMVP, 200),
    (gibbs.HMM_DP_MMVP, 60),
    (gibbs.SPARSE_DP_MMVP, 60),
    (gibbs.DP_MMVP, 60),
    (gibbs.DP_MIP, 60),
    (gibbs.HMM_DP_MIP, 60),
])
def test_invariants_after_every_update(kind, sweeps):
    data = fuzz_data(seed=3)
    hp = Hyperparams()
    rng = np.random.default_rng(17)
    state = gibbs.init_state(data, kind, hp, rng)
    assert_invariants(state)
    step_z = gibbs.sample_z_hdp if gibbs.is_temporal(kind) else gibbs.sample_z_dp
    for sweep in range(sweeps):
        for t in range(state.T):
            step_z(t, state, rng)
            assert_invariants(state)
            for (j, l) in gibbs.active_pairs(state, int(state.Z[t])):
                gibbs.sample_y(t, j, l, state, rng)
                assert_invariants(state)
        if gibbs.is_sparse(kind):
            for k in range(state.K):
                for j in range(state.M):
                    gibbs.sample_b(k, j, state, rng)
                    assert_invariants(state)
        gibbs.sample_split_merge(state, rng, 3)
        assert_invariants(state)
        gibbs.sample_m_beta(state, rng)
        assert_invariants(state)


def test_relabeling_leaves_joint_density_unchanged():
    # exchangeable kinds only: permuting cluster ids is a pure relabeling
    data = fuzz_data(seed=4)
    hp = Hyperparams()
    rng = np.random.default_rng(5)
    for kind in (gibbs.DP_MMVP, gibbs.SPARSE_DP_MMVP, gibbs.DP_MIP):
        samples, _ = gibbs.run_gibbs(
            data, kind, hp, gibbs.FitConfig(iterations=6, burn_in=3, seed=2))
        state = samples[-1]
        base = gibbs.joint_log_density(state)
        perm = np.random.default_rng(9).permutation(state.K)
        relabeled = state.clone()
        inv = np.argsort(perm)
        relabeled.Z = inv[state.Z]
        relabeled.n_k = state.n_k[perm]
        relabeled.S = state.S[perm]
        relabeled.b = state.b[perm]
        relabeled.beta = np.append(state.beta[:-1][perm], state.beta[-1])
        assert gibbs.joint_log_density(relabeled) == pytest.approx(base, abs=1e-9)


def test_joint_log_density_matches_reference():
    # incremental-stat-based density equals the from-scratch oracle up to a
    # Z-independent constant; compare differences across configurations
    hp = Hyperparams()
    X = np.array([[1, 0], [2, 1], [0, 1], [1, 1]])
    Y = np.zeros((4, 2, 2), dtype=np.int64)
    Y[:, np.arange(2), np.arange(2)] = X
    beta = [0.3, 0.3, 0.4]
    for kind, temporal, sparse, diag in (
            (gibbs.DP_MMVP, False, False, False),
            (gibbs.HMM_DP_MMVP, True, False, False),
            (gibbs.SPARSE_DP_MMVP, False, True, False),
            (gibbs.HMM_DP_MIP, True, False, True)):
        za = np.array([0, 0, 1, 1])
        zb = np.array([0, 1, 1, 0])
        bmat = np.array([[1, 0], [1, 1]]) if sparse else np.array([[1, 1], [1, 1]])
        sa = oracles.build_state(kind, X, za, Y, bmat, beta, hp)
        sb = oracles.build_state(kind, X, zb, Y, bmat, beta, hp)
        got = gibbs.joint_log_density(sa) - gibbs.joint_log_density(sb)
        want = (oracles.full_joint(X, za, Y, bmat, beta, hp, temporal, sparse, diag)
                - oracles.full_joint(X, zb, Y, bmat, beta, hp, temporal, sparse, diag))
        assert got == pytest.approx(want, abs=1e-9), kind


def test_run_gibbs_trace_is_sane():
    data = fuzz_data(T=20, seed=6)
    hp = Hyperparams()
    samples, diag = gibbs.run_gibbs(
        data, gibbs.SPARSE_HMM_DP_MMVP, hp,
        gibbs.FitConfig(iterations=40, burn_in=20, seed=3))
    jlds = np.array([row[1] for row in diag.rows])
    assert np.all(np.isfinite(jlds))
    assert jlds.var() > 0
    assert len(samples) == 20
    assert not diag.partial


def test_run_gibbs_wall_clock_flag():
    data = fuzz_data(T=20, seed=7)
    hp = Hyperparams()
    samples, diag = gibbs.run_gibbs(
        data, gibbs.HMM_DP_MMVP, hp,
        gibbs.FitConfig(iterations=5000, burn_in=4999,
                        wall_clock_limit=0.5, seed=4))
    assert diag.partial
    assert len(samples) >= 1


def test_init_state_zero_data():
    from tracemix.ingest import BinningConfig, CountVectorSequence
    cfg = BinningConfig(M=2, lba_lo=0, lba_hi=100, nu=1.0)
    data = CountVectorSequence(np.zeros((3, 2), dtype=np.int64),
                               [np.zeros(0, dtype=np.int64)] * 3, cfg)
    state = gibbs.init_state(data, gibbs.SPARSE_DP_MMVP, Hyperparams(),
                             np.random.default_rng(0))
    assert state.K == 1
    assert state.S.sum() == 0 and state.S_hat.sum() == 0
    assert_invariants(state)


def test_init_state_row_sums_by_construction():
    data = fuzz_data(T=15, seed=9)
    state = gibbs.init_state(data, gibbs.HMM_DP_MMVP, Hyperparams(),
                             np.random.default_rng(1))
    assert np.array_equal(state.Y.sum(axis=2), state.X)
    ref = gibbs.recompute_stats(state)
    assert np.array_equal(state.S, ref[1])
