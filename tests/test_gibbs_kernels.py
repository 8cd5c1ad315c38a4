"""The sparsity-aware sampler kernels against the kernels they replaced.

A sweep skips the latent pairs that have a zero count, so those updates must
be no-ops; the one-array split-merge scan must reproduce the per-slice
reference in oracles.py draw for draw from the same seed."""

import itertools

import numpy as np
import pytest

from tracemix import gibbs
from tracemix.models import Hyperparams

import oracles


def random_state(kind, seed, T=48, M=6, K=3, zero_frac=0.35):
    """A state with planted zero counts, random activity (sparse kinds) and
    random off-diagonal mass on the active pairs."""
    rng = np.random.default_rng(seed)
    X = rng.poisson(3.0, size=(T, M))
    X[rng.random((T, M)) < zero_frac] = 0
    Z = rng.permutation(np.arange(T) % K)
    if gibbs.is_sparse(kind):
        b = (rng.random((K, M)) < 0.7).astype(np.int8)
    else:
        b = np.ones((K, M), dtype=np.int8)
    Y = np.zeros((T, M, M), dtype=np.int64)
    Y[:, np.arange(M), np.arange(M)] = X
    if not gibbs.is_diagonal(kind):
        for t in range(T):
            for j, l in itertools.combinations(np.flatnonzero(b[Z[t]]), 2):
                v = rng.integers(0, min(Y[t, j, j], Y[t, l, l]) + 1)
                Y[t, j, l] = Y[t, l, j] = v
                Y[t, j, j] -= v
                Y[t, l, l] -= v
    beta = np.full(K + 1, 1.0 / (K + 1))
    return oracles.build_state(kind, X, Z, Y, b, beta, Hyperparams())


def zero_count(state, t, pair):
    return not (state.X[t, pair[0]] and state.X[t, pair[1]])


# ---------------------------------------------------------------------------
# skipped latent pairs

@pytest.mark.parametrize("kind", [gibbs.DP_MMVP, gibbs.SPARSE_DP_MMVP])
def test_skipped_pairs_are_point_masses(kind):
    state = random_state(kind, seed=1)
    skipped = 0
    for t in range(state.T):
        for pair in gibbs.active_pairs(state, int(state.Z[t])):
            if not zero_count(state, t, pair):
                continue
            skipped += 1
            for seed in range(10):
                st = state.clone()
                gibbs.sample_y(t, *pair, st, np.random.default_rng(seed))
                assert np.array_equal(st.Y, state.Y)
                assert np.array_equal(st.S, state.S)
                assert np.array_equal(st.LF, state.LF)
    assert skipped > 50


@pytest.mark.parametrize("kind", [gibbs.DP_MMVP, gibbs.HMM_DP_MMVP,
                                  gibbs.SPARSE_DP_MMVP,
                                  gibbs.SPARSE_HMM_DP_MMVP])
def test_sweep_updates_exactly_the_live_pairs(kind, monkeypatch):
    X = random_state(kind, seed=2, T=30).X
    events = []
    real_y = gibbs.sample_y
    step = "sample_z_hdp" if gibbs.is_temporal(kind) else "sample_z_dp"
    real_z = getattr(gibbs, step)

    def record_y(t, j, l, state, rng):
        events[-1][2].append((j, l))
        return real_y(t, j, l, state, rng)

    def record_z(t, state, rng, *args):
        out = real_z(t, state, rng, *args)
        active = gibbs.active_pairs(state, int(state.Z[t]))
        live = [p for p in active if not zero_count(state, t, p)]
        events.append((len(active), live, []))
        return out

    monkeypatch.setattr(gibbs, "sample_y", record_y)
    monkeypatch.setattr(gibbs, step, record_z)
    _, diag = gibbs.run_gibbs(X, kind, Hyperparams(),
                              gibbs.FitConfig(iterations=3, burn_in=1, seed=4))
    assert len(events) == 3 * len(X)
    for _, live, updated in events:
        assert updated == live
    assert sum(len(e[2]) for e in events) == sum(diag.y_draws)
    assert sum(e[0] for e in events) > sum(diag.y_draws) > 0


# ---------------------------------------------------------------------------
# split-merge allocation scan

def assert_same_scan(state, mask, order, a, b, seed, actual=None):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    log_q, sides = gibbs._allocation_scan(state, mask, order, a, b, rng_new,
                                          actual_sides=actual)
    ref_q, ref_sides = oracles.reference_allocation_scan(
        state, mask, list(order), a, b, rng_ref, actual_sides=actual)
    assert np.array_equal(sides, ref_sides)
    assert log_q == pytest.approx(ref_q, abs=1e-9, rel=0)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("kind", [gibbs.DP_MMVP, gibbs.SPARSE_DP_MMVP,
                                  gibbs.DP_MIP])
def test_allocation_scan_matches_reference(kind):
    for seed in range(6):
        state = random_state(kind, seed=10 + seed, T=60, K=2)
        pick = np.random.default_rng(seed)
        k = int(pick.integers(state.K))
        mask = gibbs._pair_mask(kind, state.b[k], state.M)
        members = np.flatnonzero(state.Z == k)
        a, b = (int(v) for v in pick.choice(members, 2, replace=False))
        order = members[(members != a) & (members != b)]
        # proposing a split
        assert_same_scan(state, mask, order, a, b, seed)
        # pricing a forced allocation, as a merge prices its reverse split
        assert_same_scan(state, mask, order, a, b, seed,
                         actual=pick.random(len(order)) < 0.5)
        # pricing the split that rebuilds the two current clusters
        a, b = int(np.flatnonzero(state.Z == 0)[0]), int(np.flatnonzero(state.Z == 1)[0])
        both = np.flatnonzero(state.Z <= 1)
        order = both[(both != a) & (both != b)]
        assert_same_scan(state, mask, order, a, b, seed,
                         actual=state.Z[order] == 0)


def test_allocation_scan_of_no_slices():
    state = random_state(gibbs.DP_MMVP, seed=3)
    mask = gibbs._pair_mask(state.kind, state.b[0], state.M)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    log_q, sides = gibbs._allocation_scan(state, mask, np.zeros(0, dtype=np.int64),
                                          0, 1, rng)
    assert log_q == 0.0 and sides.shape == (0,)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("apart, priced", [(0, True), (40, False)])
def test_a_merge_the_density_ratio_fails_is_not_priced(monkeypatch, apart, priced):
    # two clusters of three slices: identical counts make merges worth
    # pricing; far-apart counts make every merge fail the density ratio
    # alone, so no reverse split may be scanned
    X = np.array([[5, 5]] * 3 + [[5 + apart, 5]] * 3)
    Y = np.zeros((6, 2, 2), dtype=np.int64)
    Y[:, [0, 1], [0, 1]] = X
    state = oracles.build_state(gibbs.DP_MIP, X, [0, 0, 0, 1, 1, 1], Y, [[1, 1]] * 2,
                                [0.3, 0.3, 0.4], Hyperparams())
    calls = []
    real = gibbs._allocation_scan

    def recorded(*args, actual_sides=None):
        # a merge prices a forced allocation
        calls.append("split" if actual_sides is None else "merge")
        return real(*args, actual_sides=actual_sides)

    monkeypatch.setattr(gibbs, "_allocation_scan", recorded)
    rng = np.random.default_rng(0)
    for _ in range(60):
        st = state.clone()
        st.moves = state.moves      # one tally over every proposal
        gibbs._one_split_merge(st, rng, gibbs.joint_log_density(st))
    assert state.moves["merges_proposed"] > 20
    assert calls.count("merge") == state.moves["merges_priced"]
    assert calls.count("split") == state.moves["splits_proposed"]
    assert (state.moves["merges_priced"] > 0) == priced


@pytest.mark.parametrize("kind", [gibbs.DP_MMVP, gibbs.HMM_DP_MIP])
def test_split_merge_carries_the_adopted_density(kind, monkeypatch):
    # each proposal must see the joint density of the state it is made from
    state = random_state(kind, seed=5, T=40, K=4)
    real = gibbs._one_split_merge
    outcomes = []

    def checked(st, rng, jld_cur):
        assert jld_cur == gibbs.joint_log_density(st)
        out = real(st, rng, jld_cur)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(gibbs, "_one_split_merge", checked)
    rng = np.random.default_rng(0)
    accepted = sum(gibbs.sample_split_merge(state, rng, 10) for _ in range(4))
    assert accepted == sum(outcomes) > 0
    assert len(outcomes) == 40
