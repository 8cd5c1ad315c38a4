"""The sparsity-aware sampler kernels against the kernels they replaced.

A sweep skips the latent pairs that have a zero count, so those updates must
be no-ops, and so must a live pair whose conditional is a point mass; the
split-merge scan, which prices each slice on its nonzero masked entries,
must reproduce the per-slice reference in oracles.py draw for draw from the
same seed."""

import itertools
import time

import numpy as np
import pytest

from tracemix import gibbs, models, synth
from tracemix.models import Hyperparams

import oracles


def random_state(kind, seed, T=48, M=6, K=3, zero_frac=0.35, shared_b=False):
    """A state with planted zero counts, random activity (sparse kinds; one
    row for every cluster with shared_b) and random off-diagonal mass on the
    active pairs."""
    rng = np.random.default_rng(seed)
    X = rng.poisson(3.0, size=(T, M))
    X[rng.random((T, M)) < zero_frac] = 0
    Z = rng.permutation(np.arange(T) % K)
    if gibbs.is_sparse(kind):
        b = (rng.random((1 if shared_b else K, M)) < 0.7).astype(np.int8)
        b = np.repeat(b, K // len(b), axis=0)
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
    assert skipped > 50


@pytest.mark.parametrize("kind", [gibbs.DP_MMVP, gibbs.SPARSE_DP_MMVP])
def test_a_point_mass_pair_draws_one_uniform_and_moves_nothing(kind):
    # min(rj, rl) = 0 leaves y = 0 the only value; the draw still spends the
    # one uniform of the general path, so the stream is the same either way
    state = random_state(kind, seed=8)
    live = 0
    for t in range(state.T):
        Yt = state.Y[t]
        for j, l in gibbs.active_pairs(state, int(state.Z[t])):
            if min(Yt[j, j], Yt[l, l]) + Yt[j, l] > 0:
                continue
            live += not zero_count(state, t, (j, l))
            st = state.clone()
            rng, twin = np.random.default_rng(t), np.random.default_rng(t)
            gibbs.sample_y(t, j, l, st, rng)
            twin.random()
            assert np.array_equal(st.Y, state.Y)
            assert np.array_equal(st.S, state.S)
            assert rng.bit_generator.state == twin.bit_generator.state
    assert live > 20


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
    y_draws = sum(row[4] for row in diag.rows)
    assert sum(len(e[2]) for e in events) == y_draws
    assert sum(e[0] for e in events) > y_draws > 0


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


def test_allocation_scan_matches_reference_on_padded_sparse_slices():
    # six all-zero bins, active in every cluster, widen the mask with
    # entries the scan must skip; the inactive bins keep nonzero diagonals
    # outside the mask, which it must leave out
    outside = 0
    for seed in range(4):
        base = random_state(gibbs.SPARSE_DP_MMVP, seed=40 + seed, T=60, K=2, shared_b=True)
        (T, M), W = base.X.shape, base.M + 6
        X = np.zeros((T, W), dtype=np.int64)
        X[:, :M] = base.X
        Y = np.zeros((T, W, W), dtype=np.int64)
        Y[:, :M, :M] = base.Y
        act = np.ones((base.K, W), dtype=np.int8)
        act[:, :M] = base.b
        state = oracles.build_state(base.kind, X, base.Z, Y, act, base.beta, base.hp)
        mask = gibbs._pair_mask(state.kind, state.b[0], W)
        off_mask = gibbs._fixed_mask(False, W) & ~mask
        outside += sum(bool(state.Y[t][off_mask].any()) for t in range(T))
        pick = np.random.default_rng(seed)
        members = np.flatnonzero(state.Z == 0)
        a, b = (int(v) for v in pick.choice(members, 2, replace=False))
        order = members[(members != a) & (members != b)]
        assert_same_scan(state, mask, order, a, b, seed)
        assert_same_scan(state, mask, order, a, b, seed,
                         actual=pick.random(len(order)) < 0.5)
        a, b = int(np.flatnonzero(state.Z == 0)[0]), int(np.flatnonzero(state.Z == 1)[0])
        order = np.flatnonzero((state.Z <= 1) & (np.arange(T) != a) & (np.arange(T) != b))
        assert_same_scan(state, mask, order, a, b, seed, actual=state.Z[order] == 0)
    assert outside > 100


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


STATE_ARRAYS = ("Z", "Y", "S", "n_k", "b", "beta", "n_trans")


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_a_rejected_proposal_leaves_the_state_bit_identical(kind, monkeypatch):
    # the candidate shares Y with the live state, so a write through it
    # would show here; only proposals that built a candidate are counted
    state = random_state(kind, seed=6, T=40, K=4, shared_b=True)
    built = []
    real = gibbs.joint_log_density

    def counted(st):
        built.append(st)
        return real(st)

    monkeypatch.setattr(gibbs, "joint_log_density", counted)
    rng = np.random.default_rng(1)
    rejected = {"split": 0, "merge": 0}
    for _ in range(80):
        before = {name: getattr(state, name).copy() for name in STATE_ARRAYS}
        splits, K = state.moves["splits_proposed"], state.K
        built.clear()
        if gibbs._one_split_merge(state, rng, real(state)) is not None:
            continue
        for name, arr in before.items():
            now = getattr(state, name)
            assert now.dtype == arr.dtype and now.tobytes() == arr.tobytes(), name
        assert state.K == K
        if built:
            rejected["split" if state.moves["splits_proposed"] > splits else "merge"] += 1
    assert min(rejected.values()) > 0, rejected


# ---------------------------------------------------------------------------
# the assignment scorer on the slice's support

def aux_rows(state, rng):
    """Candidate activity rows: random ones for the sparse kinds, so that
    some rows cannot hold a slice's latent pairs; the one all-active row
    otherwise."""
    if gibbs.is_sparse(state.kind):
        return (rng.random((gibbs._N_AUX, state.M)) < 0.6).astype(np.int8)
    return np.ones((1, state.M), dtype=np.int8)


def reference_scores(t, detached, aux):
    """The whole-matrix scorer on a state that t has already left: the K
    clusters as they are, then the empty auxiliary rows."""
    R, M = aux.shape
    S = np.concatenate([detached.S, np.zeros((R, M, M), dtype=np.int64)])
    n = np.append(detached.n_k, np.zeros(R, dtype=np.int64))
    return oracles.reference_f_candidates(t, detached, np.concatenate([detached.b, aux]),
                                          S, n)


def assert_scores_match(t, state, aux, home, detached):
    """The scores against the reference; returns the mask of the rows that
    cannot hold Y[t], which both score -inf."""
    scores = gibbs._f_candidates(t, state, aux, home)
    ref = reference_scores(t, detached, aux)
    lost = np.isneginf(ref)
    assert np.array_equal(np.isneginf(scores), lost)
    assert scores[~lost] == pytest.approx(ref[~lost], abs=1e-9, rel=0)
    return lost


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_support_scorer_matches_reference(kind):
    # staying slices are scored in place, detached and singleton slices
    # after they left; every state is new, so nothing cached per slice can
    # carry over from the last one.  Slice 0 has no nonzero bin at all.
    lost = cases = 0
    for seed in range(4):
        state = random_state(kind, seed=20 + seed, T=16, M=6, K=4)
        X, Y = state.X.copy(), state.Y.copy()
        X[0], Y[0] = 0, 0
        state = oracles.build_state(kind, X, state.Z, Y, state.b, state.beta, state.hp)
        rng = np.random.default_rng(seed)
        for t in range(state.T):
            aux = aux_rows(state, rng)
            home = int(state.Z[t])
            detached = state.clone()
            gibbs._remove_from_cluster(detached, t)
            if state.n_k[home] > 1:
                # in place: only Z[t] and n_k let it go
                staying = state.clone()
                staying.n_k[home] -= 1
                staying.Z[t] = -1
                assert not assert_scores_match(t, staying, aux, home, detached)[home]
            # detached, with its cluster kept even when it is empty
            mask = assert_scores_match(t, detached, aux, None, detached)
            assert not mask[home]      # t's own cluster holds Y[t]
            lost += mask.sum()
            cases += 1
    assert cases == 64
    # on the sparse kinds, rows that cannot hold Y[t] are scored too
    assert (lost > 20) == gibbs.is_sparse(kind)


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_support_scorer_of_a_deleted_singleton(kind):
    # a singleton's cluster is deleted before it is scored, down to K = 0
    # when it was the only cluster
    base = random_state(kind, seed=7, T=12, M=5, K=3)
    t = 4
    k = int(base.Z[t])
    Z = base.Z.copy()
    Z[t] = base.K                      # t alone, with its cluster's vector
    b = np.vstack([base.b, base.b[k]])
    beta = np.full(base.K + 2, 1.0 / (base.K + 2))
    only = ([t], [0], b[k:k + 1], [0.5, 0.5])
    for rows, labels, vecs, weights in ((slice(None), Z, b, beta), only):
        state = oracles.build_state(kind, base.X[rows], labels, base.Y[rows], vecs,
                                    weights, base.hp)
        s = state.K - 1 if state.K > 1 else 0
        u = t if state.T > 1 else 0
        assert state.n_k[s] == 1 and state.Z[u] == s
        gibbs._remove_from_cluster(state, u)
        gibbs._delete_cluster(state, s)
        aux = aux_rows(state, np.random.default_rng(state.K))
        assert_scores_match(u, state, aux, None, state)
    assert state.K == 0


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_the_data_is_read_only_and_the_support_tables_match_it(kind):
    # the scorer's per-slice tables are read off X once per state and shared
    # by its clones, so no state may write X
    X = random_state(kind, seed=9, T=30, M=5).X.copy()
    state = gibbs.init_state(X, kind, Hyperparams())
    for st in (state, state.clone()):
        with pytest.raises(ValueError):
            st.X[0, 0] = 7
    assert X.flags.writeable
    samples, _ = gibbs.run_gibbs(X, kind, cfg=gibbs.FitConfig(iterations=3, burn_in=1))
    for st in samples:
        # each slice's run of upper entries: the diagonal ones on the
        # diagonal kinds, every j <= l on the others
        M = X.shape[1]
        runs = np.split(st.upper_support, st.upper_offsets[1:-1])
        assert len(runs) == len(X) and st.upper_offsets[-1] == len(st.upper_support)
        for t, run in enumerate(runs):
            sup = np.flatnonzero(X[t]).tolist()
            want = [(j, l) for j in sup for l in sup
                    if (j == l if gibbs.is_diagonal(kind) else j <= l)]
            assert [divmod(v - t * M * M, M) for v in run.tolist()] == want


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_a_slice_that_stays_leaves_the_statistics_bit_identical(kind):
    # a slice that moves leaves Y as it is too: the step is a Gibbs step
    # given Y, which a cluster that cannot hold Y[t] never wins
    state = random_state(kind, seed=3, T=30, M=5, K=3)
    step = gibbs.sample_z_hdp if gibbs.is_temporal(kind) else gibbs.sample_z_dp
    stayed = moved = 0
    for t in range(state.T):
        for seed in range(6):
            st = state.clone()
            step(t, st, np.random.default_rng(seed))
            assert st.Y.tobytes() == state.Y.tobytes()
            if st.K != state.K or st.Z[t] != state.Z[t]:
                moved += 1
                continue
            stayed += 1
            for name in ("Z", "Y", "S", "n_k", "n_trans", "b", "S_hat", "n_hat"):
                assert getattr(st, name).tobytes() == getattr(state, name).tobytes(), name
    assert stayed > 20 and moved > 20


# ---------------------------------------------------------------------------
# the activity step reads row j and the diagonals only

@pytest.mark.parametrize("kind", [gibbs.SPARSE_DP_MMVP, gibbs.SPARSE_HMM_DP_MMVP])
def test_sample_b_matches_the_whole_matrix_reference(kind):
    toggles = {0: 0, 1: 0}
    held = 0
    for seed in range(3):
        state = random_state(kind, seed=30 + seed, T=24, M=5, K=3)
        for k in range(state.K):
            for j in range(state.M):
                for draw in range(4):
                    st, ref = state.clone(), state.clone()
                    rng, ref_rng = (np.random.default_rng(100 * seed + draw) for _ in range(2))
                    fresh = rng.bit_generator.state
                    gibbs.sample_b(k, j, st, rng)
                    oracles.reference_sample_b(k, j, ref, ref_rng)
                    for name in ("b", "Y", "S", "S_hat", "n_hat"):
                        assert getattr(st, name).tobytes() == getattr(ref, name).tobytes(), name
                    assert rng.bit_generator.state == ref_rng.bit_generator.state
                    if st.b[k, j] != state.b[k, j]:
                        toggles[int(st.b[k, j])] += 1
                    if state.S[k, j].sum() > state.S[k, j, j]:
                        # off-diagonal mass in row j: a point mass at
                        # active, so nothing moves and nothing is drawn
                        held += 1
                        for name in ("b", "Y", "S"):
                            assert getattr(st, name).tobytes() == getattr(state, name).tobytes()
                        assert rng.bit_generator.state == fresh
    # both directions: activations and deactivations
    assert min(toggles.values()) > 5
    assert held > 20


# ---------------------------------------------------------------------------
# the assignment step costs the support, not M^2

def padded_state(M, T=120, kind=gibbs.SPARSE_HMM_DP_MMVP):
    """The planted clusters of the recovery fixture's first T slices, with
    diagonal latents, their counts zero-padded from 10 bins to M: the same
    support in a wider space.  For the sparse kinds the padded bins are
    inactive everywhere, for the others every bin is active."""
    spec = synth.default_recovery_spec(seed=0)
    seq, Z = synth.gen_count_sequence(spec)
    labels, Z = np.unique(Z[:T], return_inverse=True)
    X = np.zeros((T, M), dtype=np.int64)
    X[:, :spec.M] = seq.X[:T]
    Y = np.zeros((T, M, M), dtype=np.int64)
    Y[:, np.arange(M), np.arange(M)] = X
    if gibbs.is_sparse(kind):
        b = np.zeros((len(labels), M), dtype=np.int8)
        b[:, :spec.M] = [spec.clusters[k].b for k in labels]
    else:
        b = np.ones((len(labels), M), dtype=np.int8)
    beta = np.full(len(labels) + 1, 1.0 / (len(labels) + 1))
    return oracles.build_state(kind, X, Z, Y, b, beta, Hyperparams())


def test_assignment_step_cost_does_not_grow_with_the_bins():
    # both widths are timed in one process, alternately, and the best pass
    # of each is kept, so the host's speed cancels; with the whole-matrix
    # scorer a call took about 7x as long at M = 80
    states = {M: padded_state(M) for M in (10, 80)}
    best = dict.fromkeys(states, np.inf)
    for rep in range(7):
        for M, state in states.items():
            st, rng = state.clone(), np.random.default_rng(rep)
            started = time.perf_counter()
            for t in range(st.T):
                gibbs.sample_z_hdp(t, st, rng)
            best[M] = min(best[M], (time.perf_counter() - started) / st.T)
    assert best[80] <= 2 * best[10], best


def test_allocation_scan_cost_does_not_grow_with_the_bins():
    # a split scan of every slice between two anchors, every bin active, so
    # the mask holds all M (M + 1) / 2 upper entries; both widths are timed
    # in one process, alternately, and the best pass of each is kept.  A
    # scan that priced every masked entry took about 4.6x as long per slice
    # at M = 80
    states = {M: padded_state(M, kind=gibbs.DP_MMVP) for M in (10, 80)}
    best = dict.fromkeys(states, np.inf)
    for rep in range(7):
        for M, state in states.items():
            mask = gibbs._pair_mask(state.kind, state.b[0], M)
            order = np.arange(2, state.T)
            rng = np.random.default_rng(rep)
            started = time.perf_counter()
            gibbs._allocation_scan(state, mask, order, 0, 1, rng)
            best[M] = min(best[M], (time.perf_counter() - started) / len(order))
    assert best[80] <= 2 * best[10], best


# ---------------------------------------------------------------------------
# a latent-pair draw costs about the same at ten times the counts

def recovery_state(scale, T=120):
    """dp-mmvp on the recovery fixture's first T slices with every rate
    scaled by scale, at the planted clusters, after three untimed passes
    over the live pairs so the latents are spread off the diagonals."""
    spec = synth.default_recovery_spec(seed=0)
    spec.clusters = [models.SMVPParams(c.Lambda * scale, c.lambda_hat * scale, c.b)
                     for c in spec.clusters]
    seq, Z = synth.gen_count_sequence(spec)
    X = seq.X[:T]
    labels, Z = np.unique(Z[:T], return_inverse=True)
    Y = np.zeros((T, spec.M, spec.M), dtype=np.int64)
    Y[:, np.arange(spec.M), np.arange(spec.M)] = X
    state = oracles.build_state(gibbs.DP_MMVP, X, Z, Y, np.ones((len(labels), spec.M)),
                                np.full(len(labels) + 1, 1.0 / (len(labels) + 1)),
                                Hyperparams())
    rng = np.random.default_rng(0)
    for _ in range(3):
        for t in range(T):
            for j, l in gibbs._live_pairs(state, t):
                gibbs.sample_y(t, j, l, state, rng)
    return state


def test_sample_y_cost_does_not_grow_with_the_counts():
    # both scales are timed in one process, alternately, and the best pass
    # of each is kept; a Python loop over the support took about 2x as long
    # per call at 10x the counts
    states = {scale: recovery_state(scale) for scale in (1, 10)}
    best = dict.fromkeys(states, np.inf)
    for rep in range(7):
        for scale, state in states.items():
            st, rng = state.clone(), np.random.default_rng(rep)
            pairs = [(t, j, l) for t in range(st.T) for j, l in gibbs._live_pairs(st, t)]
            started = time.perf_counter()
            for t, j, l in pairs:
                gibbs.sample_y(t, j, l, st, rng)
            best[scale] = min(best[scale], (time.perf_counter() - started) / len(pairs))
    assert best[10] <= 1.5 * best[1], best
