"""Collapsed Gibbs samplers for the six count-mixture variants.

Variants combine three choices: exchangeable vs. Markov cluster assignments,
and independent vs. full-covariance vs. sparse emissions.  Rate parameters,
noise rates, activity probabilities and transition rows are all integrated
out; the sampled variables are the assignments Z, the latent symmetric count
matrices Y, the per-cluster activity vectors b, the shared stick weights beta
and the auxiliary table counts m.

Bookkeeping is remove-then-add with immediate garbage collection of empty
clusters.  The defining constraint sum_l Y[t,j,l] == X[t,j] holds after every
individual update, and Y[t] is zero outside its cluster's collapsed factors
and the diagonal: under the sparse model Y[t,j,l], j != l, is 0 unless j and
l are both active in t's cluster.  So the sparse kinds' assignment step and
activity step are Gibbs steps given Y that leave it as it is.  A cluster or
candidate whose active set does not cover Y[t]'s off-diagonal mass has
weight 0, and a dimension stays active while its members' row of Y holds
off-diagonal mass.  Only sample_y moves Y.  The sparse kinds' noise pools
are read off the diagonals of S and n_k, so no update keeps them.  No
statistic keeps the factors' log(Y!) sums either: they depend on Y alone,
and the joint density reads them off Y (joint_log_density).

The schedule lives in sweep(): per slice the assignment step and its latent
pairs, the sparse kinds' activity indicators, then split-merge.  run_gibbs
adds the stick-weight refresh, the budget and the diagnostics.

A sweep resamples only the latent pairs (j, l) whose counts X[t,j] and
X[t,l] are both nonzero.  A zero count forces row j of Y[t] to be all zero,
so the conditional of every pair in that row is a point mass at its current
value; skipping those updates leaves the Markov kernel unchanged.

The assignment step follows Neal's (2000) Algorithm 8 for every kind: a new
cluster is one more empty candidate row, scored as the existing clusters
are.  The dense and diagonal kinds have one such row, all dimensions active.
For the sparse kinds a new cluster's activity vector has no closed-form
integral, so _N_AUX rows, with vectors drawn from the collapsed
Beta-Bernoulli predictive of the other clusters (the first one the slice's
old vector when it was alone), share the new-cluster prior weight.  The step
is exact for any number of candidates.

A candidate is scored on the slice's upper support entries alone, the pairs
j <= l of its nonzero bins, since every other upper entry of Y[t] is zero.  For
y = 0, _log_gain is -(a + S) * log((b + n + 1) / (b + n)), so the zero
entries of a candidate's P masked ones add up to one closed-form term in the
masked total T of its S, which the diagonal of S and the row-sum identity
give.  A slice that is not alone stays in its cluster's sums while it is
scored (the scorer takes it out of that row and of the noise pools), and
the statistics move only when the draw moves it.

One per-slice table, the flat indices into Y of those upper entries
(GibbsState.upper_support), is read off X once per state, on first use, and
shared by its clones and split-merge candidates: the scorer, split-merge and
the joint density gather Y and S on it.  It never goes stale: a state holds
its own read-only copy of X.  The scorer's log(b + n) terms are lookups into
the log tables of models, which equal the np.log calls they replace bit for
bit.

Every predictive the sampler evaluates, for an existing cluster, a new one,
the noise pools or a latent pair, is a sum of _log_gain terms, the one
Poisson-Gamma predictive gain.

The six kind names, ALL_KINDS and the is_temporal / is_sparse / is_diagonal
predicates live in models, so that reading a model file or checking a
command's --kind loads no sampler code; they are imported here as well.
"""

import bisect
import collections
import copy
import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .models import (_UNIT, Hyperparams, _grid, _log_grid, check_kind, is_diagonal,
                     is_sparse, is_temporal, log_marginal, log_poisson)
# the kind names, read here by the sampler's callers as gibbs.DP_MMVP etc.
from .models import (ALL_KINDS, DP_MIP, DP_MMVP, HMM_DP_MIP,  # noqa: F401
                     HMM_DP_MMVP, SPARSE_DP_MMVP, SPARSE_HMM_DP_MMVP)

# dimensions whose empirical mean exceeds this start out active
_B_INIT_MEAN = 0.25

# new-cluster candidates of a sparse assignment step; the step is exact for
# any value >= 1, so this only trades mixing against cost
_N_AUX = 5

_BETA_FLOOR = 1e-12


def _log_gain(S, n, y, shape, rate):
    """Log predictive of adding counts y to a Gamma(shape, rate)-collapsed
    Poisson factor that pools summed counts S over n observations:
    log_marginal(S + y, n + 1, lf + log y!) - log_marginal(S, n, lf).
    Elementwise over broadcast integer arrays."""
    g = _grid(shape)
    c = shape + S
    return (g.take(S + y) - g.take(S) - (c + y) * _log_grid(rate + 1.0).take(n)
            + c * _log_grid(rate).take(n) - _UNIT.take(y))


@dataclass(frozen=True)
class FitConfig:
    """Sweep budget and sampler knobs."""

    iterations: int = 200
    burn_in: int = 100
    thinning: int = 1
    wall_clock_limit: float = 4 * 3600.0
    seed: int = 0

    def __post_init__(self):
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if not self.wall_clock_limit > 0:    # NaN fails too; inf means no limit
            raise ValueError("wall_clock_limit must be positive")
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


class GibbsState:
    """Full sampler state: data, latents and incrementally maintained
    sufficient statistics.

    S[k] sums the members' Y matrices; the noise pools S_hat/n_hat are read
    off it and n_k, never stored.  LF and LF_hat, the matching log(Y!)
    sums, are recomputed from Y on each read, for checks only.
    upper_support and upper_offsets, the one per-slice table, are read off
    X on first use and shared with clones.  A state is single-owner:
    updates mutate it in place.
    moves tallies the split-merge proposals by outcome and the clusters the
    assignment step opens and closes (MOVE_COUNTS) for the diagnostics; it
    is not part of the sampled state.
    """

    def __init__(self, kind, hp, X):
        check_kind(kind)
        self.kind = kind
        self.hp = hp
        # a read-only copy, so the support table read off it cannot go
        # stale; the caller's array stays writable
        self.X = np.array(X, dtype=np.int64)
        self.X.flags.writeable = False
        T, M = self.X.shape
        self.Z = np.zeros(T, dtype=np.int64)
        self.Y = np.zeros((T, M, M), dtype=np.int64)
        self.K = 0
        self.n_k = np.zeros(0, dtype=np.int64)
        self.S = np.zeros((0, M, M), dtype=np.int64)
        self.b = np.zeros((0, M), dtype=np.int8)
        self.beta = np.array([1.0])
        self.n_trans = np.zeros((0, 0), dtype=np.int64)
        self.m = np.zeros(0, dtype=np.int64)
        self.moves = collections.Counter()

    @property
    def T(self):
        return self.X.shape[0]

    @property
    def M(self):
        return self.X.shape[1]

    @functools.cached_property
    def upper_support(self):
        """Flat indices into Y of every slice's upper support entries, the
        pairs j <= l of its nonzero bins (j == l on the diagonal kinds): the
        only entries on or above the diagonal that can be nonzero.  Slice
        t's entries, in row-major order, are
        upper_support[upper_offsets[t]:upper_offsets[t + 1]]."""
        nz = self.X > 0
        return np.flatnonzero(nz[:, :, None] & nz[:, None, :]
                              & _fixed_mask(is_diagonal(self.kind), self.M))

    @functools.cached_property
    def upper_offsets(self):
        """The T + 1 offsets of the slices' runs in upper_support."""
        s = np.count_nonzero(self.X, axis=1)
        return np.concatenate(([0], np.cumsum(s if is_diagonal(self.kind)
                                              else s * (s + 1) // 2)))

    # the noise pools: per dimension, the diagonal counts and the sizes
    # summed over the clusters where it is inactive
    @property
    def S_hat(self):
        return self.S.diagonal(axis1=1, axis2=2).sum(axis=0, where=self.b == 0)

    @property
    def n_hat(self):
        return self.n_k @ (self.b == 0)

    @property
    def LF(self):
        return recompute_stats(self)[2]

    @property
    def LF_hat(self):
        return recompute_stats(self)[6]

    def clone(self):
        """Own latents and statistics, fresh tallies, shared read-only data."""
        out = copy.copy(self)
        for name in ("Z", "Y", "n_k", "S", "b", "beta", "n_trans", "m"):
            setattr(out, name, getattr(self, name).copy())
        out.moves = collections.Counter()
        return out


def recompute_stats(state):
    """Rebuild every sufficient statistic from (X, Z, Y, b) from scratch.

    Returns (n_k, S, LF, n_trans, S_hat, n_hat, LF_hat); the pools, summed
    over the slices' Y, are the reference for the ones GibbsState derives.
    """
    M, K = state.M, state.K
    n_k = np.bincount(state.Z, minlength=K).astype(np.int64)
    S = np.zeros((K, M, M), dtype=np.int64)
    LF = np.zeros((K, M, M), dtype=float)
    gl = _UNIT.take(state.Y)
    for k in range(K):
        sel = state.Z == k
        S[k] = state.Y[sel].sum(axis=0)
        LF[k] = gl[sel].sum(axis=0)
    n_trans = (_count_transitions(state.Z, K) if is_temporal(state.kind)
               else np.zeros((K, K), dtype=np.int64))
    diag = np.einsum("tjj->tj", state.Y)
    inact = (1 - state.b[state.Z]).astype(np.int64)
    S_hat = (diag * inact).sum(axis=0)
    n_hat = inact.sum(axis=0)
    LF_hat = (_UNIT.take(diag) * inact).sum(axis=0)
    return n_k, S, LF, n_trans, S_hat, n_hat, LF_hat


def _count_transitions(Z, K):
    """The K x K counts of the transitions k -> k' along Z."""
    n_trans = np.zeros((K, K), dtype=np.int64)
    np.add.at(n_trans, (Z[:-1], Z[1:]), 1)
    return n_trans


def init_state(data, kind, hp):
    """Start from one cluster, diagonal Y (so row sums hold by construction)
    and activity set by thresholding the empirical bin means."""
    check_kind(kind)
    X = np.asarray(data.X if hasattr(data, "X") else data, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty T x M count array")
    state = GibbsState(kind, hp, X)
    T, M = X.shape
    idx = np.arange(M)
    state.Y[:, idx, idx] = X
    state.K = 1
    if is_sparse(kind):
        state.b = (X.mean(axis=0) > _B_INIT_MEAN).astype(np.int8).reshape(1, M)
    else:
        state.b = np.ones((1, M), dtype=np.int8)
    state.beta = np.array([0.5, 0.5])
    state.n_k, state.S, _, state.n_trans = recompute_stats(state)[:4]
    return state


# ---------------------------------------------------------------------------
# small internals

@functools.lru_cache(maxsize=None)
def _fixed_mask(diagonal, M):
    """The diagonal or the upper triangle (incl. diagonal) of an M x M
    matrix, built once and shared read-only."""
    mask = np.eye(M, dtype=bool) if diagonal else np.triu(np.ones((M, M), dtype=bool))
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=None)
def _count_weights(diagonal, M, a):
    """The scorer's constant weights: over a flattened M x M matrix, 2 on
    the diagonal and 1 elsewhere, so a dot product counts each diagonal entry
    twice; M ones; and a times the number of collapsed factors of c active
    dimensions, indexed by c (c for the diagonal kinds, else the triangular
    number c (c + 1) / 2)."""
    c = np.arange(M + 1)
    return (np.eye(M, dtype=np.int64).ravel() + 1, np.ones(M, dtype=np.int64),
            a * (c if diagonal else c * (c + 1) // 2))


def _pair_mask(kind, b_row, M):
    """Upper-triangular (incl. diagonal) mask of the collapsed factors in use."""
    if is_diagonal(kind):
        return _fixed_mask(True, M)
    triu = _fixed_mask(False, M)
    if is_sparse(kind):
        act = b_row.astype(bool)
        return triu & np.outer(act, act)
    return triu


def _categorical_from_log(logw, rng):
    """One draw from the weights exp(logw), a list of Python floats.  An
    entry of weight 0 (logw -inf) is never drawn: the rounded product of
    rng.random() < 1 and cum[-1] >= 1 stays below cum[-1]."""
    top = max(logw)
    cum = list(itertools.accumulate([math.exp(v - top) for v in logw]))
    return min(bisect.bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)


def _remove_from_cluster(state, t):
    """Detach slice t from its cluster's statistics; Z[t] becomes -1."""
    k = int(state.Z[t])
    state.S[k] -= state.Y[t]
    state.n_k[k] -= 1
    state.Z[t] = -1
    return k


def _add_to_cluster(state, t, k):
    """Attach slice t (whose Y must already match cluster k's support)."""
    state.S[k] += state.Y[t]
    state.n_k[k] += 1
    state.Z[t] = k


def _delete_cluster(state, k):
    """Drop cluster k once no slice is assigned to it, folding its stick
    weight into the remainder and relabeling the ids above it."""
    keep = np.arange(state.K) != k
    state.n_k = state.n_k[keep]
    state.S = state.S[keep]
    state.b = state.b[keep]
    state.n_trans = state.n_trans[np.ix_(keep, keep)]
    w = state.beta[k]
    state.beta = np.delete(state.beta, k)
    state.beta[-1] += w
    state.Z[state.Z > k] -= 1
    state.K -= 1


def _create_cluster(state, b_row, rng):
    """Append an empty cluster; its stick weight is split off the remainder
    with a Beta(1, gamma) draw."""
    M = state.M
    state.n_k = np.append(state.n_k, np.int64(0))
    state.S = np.concatenate([state.S, np.zeros((1, M, M), dtype=np.int64)])
    state.b = np.concatenate([state.b, np.asarray(b_row, dtype=np.int8).reshape(1, M)])
    grown = np.zeros((state.K + 1, state.K + 1), dtype=np.int64)
    grown[:state.K, :state.K] = state.n_trans
    state.n_trans = grown
    frac = rng.beta(1.0, state.hp.gamma)
    rem = state.beta[-1]
    state.beta = np.concatenate([state.beta[:-1], [frac * rem, (1.0 - frac) * rem]])
    state.K += 1
    return state.K - 1


def _f_candidates(t, state, aux, home=None):
    """Log predictive of slice t joining each of the K clusters and each
    empty candidate with an activity row of aux: the change of every active
    collapsed factor on Y[t], plus for sparse kinds the noise factors of its
    inactive dimensions.  Each row is scored on the slice's upper support
    entries (module docstring), on the sparse kinds on those whose two
    dimensions are both active.  A sparse row whose active set misses a bin
    j that holds off-diagonal mass of Y[t], X[t, j] > Y[t, j, j], cannot
    hold Y[t] and scores -inf.  With home given, t's Y is still in S[home];
    n_k must not count it."""
    hp, kind = state.hp, state.kind
    sparse = is_sparse(kind)
    K, M, S = state.K, state.M, state.S
    a = hp.a_bar
    twice_diag, ones, a_factors = _count_weights(is_diagonal(kind), M, a)
    act = np.concatenate((state.b, aux), dtype=np.int64)
    R = len(act)
    n = np.concatenate((state.n_k, np.zeros(len(aux), dtype=np.int64)))
    # the upper support entries, flat in an M x M matrix, and S on them
    offs = state.upper_offsets
    flat = state.upper_support[offs[t]:offs[t + 1]] - t * M * M
    Ys = state.Y[t].take(flat)
    Sf = S.reshape(K, M * M)
    Ss = np.zeros((R, len(flat)), dtype=np.int64)
    Sf.take(flat, axis=1, out=Ss[:K], mode="clip")
    # masked totals by the row-sum identity: off-diagonal mass sits only
    # between active dimensions, and half of it above the diagonal
    T = (Sf @ twice_diag) >> 1
    if sparse:
        off = 1 - act
        diag_off = Sf[:, ::M + 1] * off[:K]
        T -= diag_off @ ones
        rows, cols = np.divmod(flat, M)
        fm = act.take(rows, axis=1) & act.take(cols, axis=1)
    if home is not None:
        Ss[home] -= Ys
        T[home] -= Ys @ fm[home] if sparse else np.add.reduce(Ys)
    log_n1, log_n = _log_grid(hp.b_bar + 1.0).take(n), _log_grid(hp.b_bar).take(n)
    g = _grid(a)
    gain = g.take(Ss + Ys) - g.take(Ss) - Ys * log_n1[:, None] - _UNIT.take(Ys)
    aPT = a_factors.take(act @ ones)
    aPT[:K] += T
    out = np.add.reduce(gain * fm if sparse else gain, 1) - aPT * (log_n1 - log_n)
    if sparse:
        # per-dimension noise predictive is cluster-independent; n_k leaves
        # t out, S[home] holds it, with diagonal X[t] where home is inactive
        x = state.X[t]
        S_hat = np.add.reduce(diag_off, 0)
        if home is not None:
            S_hat -= x * off[home]
        out += off @ _log_gain(S_hat, n @ off, x, hp.a_hat, hp.b_hat)
        # the bins whose row of Y[t] holds off-diagonal mass, by the row sums
        out[off @ (x > state.Y[t].diagonal()) > 0] = -np.inf
    return out


def f_new_sparse(t, state, rng, old_b=None):
    """The activity vectors of the _N_AUX new-cluster candidates for detached
    slice t: i.i.d. draws from the collapsed Beta-Bernoulli predictive of the
    remaining clusters.  When t was alone in its cluster, that cluster's
    vector old_b takes the first row.  Returns an (_N_AUX, M) int8 array."""
    if not is_sparse(state.kind):
        raise ValueError("new-cluster activity vectors only apply to sparse kinds")
    if state.Z[t] >= 0:
        raise ValueError("slice t must be detached from its cluster")
    hp = state.hp
    # the activity counts are summed as floats, which holds them exactly
    p_act = (np.add.reduce(state.b, 0, dtype=float) + hp.a_prime) / (
        state.K + hp.a_prime + hp.b_prime)
    aux = (rng.random((_N_AUX, state.M)) < p_act).view(np.int8)
    if old_b is not None:
        aux[0] = old_b
    return aux


def sample_z_dp(t, state, rng):
    """Resample slice t's cluster under the exchangeable assignment prior."""
    if is_temporal(state.kind):
        raise ValueError("use sample_z_hdp for temporal kinds")
    return _sample_z(t, state, rng)


def sample_z_hdp(t, state, rng):
    """Resample slice t's cluster under the Markov assignment prior, with both
    the incoming edge from Z[t-1] and the outgoing edge to Z[t+1]."""
    if not is_temporal(state.kind):
        raise ValueError("use sample_z_dp for non-temporal kinds")
    return _sample_z(t, state, rng)


def _log_z_weights(state, prev_k, next_k):
    """Log prior weights, as Python floats, of the K existing clusters and a
    new one for a slice that n_k and n_trans no longer count: the CRP sizes
    for the exchangeable kinds; for the Markov kinds, the terms of its edges
    from prev_k and to next_k (None at the ends of the sequence)."""
    K, alpha, beta = state.K, state.hp.alpha, state.beta.tolist()
    if not is_temporal(state.kind):
        return [math.log(v) for v in state.n_k.tolist()] + [math.log(alpha)]
    rows = state.n_trans.tolist()
    into = rows[prev_k] if prev_k is not None else [0] * K
    out = [math.log(alpha * w + c) for w, c in zip(beta, into)]
    out.append(math.log(alpha * beta[K]))
    if next_k is not None:
        ab = alpha * beta[next_k]
        num = [ab + row[next_k] for row in rows]
        den = [alpha + sum(row) for row in rows]
        if prev_k is not None:
            if prev_k == next_k:
                num[prev_k] += 1.0
            den[prev_k] += 1.0
        for k in range(K):
            out[k] += math.log(num[k]) - math.log(den[k])
        out[K] += math.log(beta[next_k])
    return out


def _sample_z(t, state, rng):
    """The assignment step of both priors: take slice t and its edges out of
    the counts, weigh every existing cluster and the new-cluster candidates,
    and draw once.  Every kind's new cluster is a set of empty candidate
    rows sharing the new-cluster prior weight: the _N_AUX auxiliary activity
    vectors of f_new_sparse for the sparse kinds, one all-active row
    otherwise.  A chosen one opens the new cluster with its vector.  A
    singleton is detached and its cluster deleted; any other slice leaves
    only Z[t] and n_k while it is scored (module docstring)."""
    old_k = int(state.Z[t])
    temporal = is_temporal(state.kind)
    prev_k = int(state.Z[t - 1]) if temporal and t > 0 else None
    next_k = int(state.Z[t + 1]) if temporal and t < state.T - 1 else None
    if prev_k is not None:
        state.n_trans[prev_k, old_k] -= 1
    if next_k is not None:
        state.n_trans[old_k, next_k] -= 1
    home, old_b = old_k, None
    if state.n_k[old_k] == 1:
        old_b = state.b[old_k].copy()
        _remove_from_cluster(state, t)
        _delete_cluster(state, old_k)
        state.moves["clusters_closed"] += 1
        home = None
        if prev_k is not None and prev_k > old_k:
            prev_k -= 1
        if next_k is not None and next_k > old_k:
            next_k -= 1
    else:
        state.n_k[old_k] -= 1
        state.Z[t] = -1
    K = state.K
    aux = (f_new_sparse(t, state, rng, old_b) if is_sparse(state.kind)
           else np.ones((1, state.M), dtype=np.int8))
    prior = _log_z_weights(state, prev_k, next_k)
    prior[K:] = [prior[K] - math.log(len(aux))] * len(aux)
    scores = _f_candidates(t, state, aux, home)
    pick = _categorical_from_log([p + s for p, s in zip(prior, scores.tolist())], rng)
    if home is not None:
        state.n_k[home] += 1
        state.Z[t] = home
    if pick != home:
        if home is not None:
            _remove_from_cluster(state, t)
        if pick >= K:
            pick = _create_cluster(state, aux[pick - K], rng)
            state.moves["clusters_opened"] += 1
        _add_to_cluster(state, t, pick)
    if prev_k is not None:
        state.n_trans[prev_k, pick] += 1
    if next_k is not None:
        state.n_trans[pick, next_k] += 1
    return state


def sample_y(t, j, l, state, rng):
    """Resample the off-diagonal latent Y[t,j,l], enumerating its finite
    support and re-deriving the two diagonals to keep row sums intact.

    v moves from both diagonals onto the pair.  Summed over the j-l, j-j and
    l-l factors without slice t, the _log_gain terms that depend on v are
    three contiguous runs of the lgamma grids, the pair's read forwards and
    the diagonals' backwards, and one v * log(b_bar + n_k) rate term; the
    rest cancels in the draw."""
    if j >= l:
        raise ValueError("need j < l")
    if is_diagonal(state.kind):
        raise ValueError("independent kinds have no off-diagonal latents")
    k = int(state.Z[t])
    if is_sparse(state.kind) and not (state.b[k, j] and state.b[k, l]):
        raise ValueError("both dimensions must be active in the slice's cluster")
    hp = state.hp
    Yt = state.Y[t]
    y0 = int(Yt[j, l])
    rj = y0 + int(Yt[j, j])
    rl = y0 + int(Yt[l, l])
    V = min(rj, rl) + 1
    if V == 1:
        # a point mass at y0 = 0: draw the uniform the general path draws,
        # so the stream stays put (ROADMAP item 1 may drop this draw)
        rng.random()
        return state
    Sk = state.S[k]
    sp = int(Sk[j, l]) - y0         # the pair's sum without slice t
    tj = int(Sk[j, j]) + y0         # each diagonal's sum with t at v = 0
    tl = int(Sk[l, l]) + y0
    g = _grid(hp.a_bar)
    g.take(max(sp + V - 1, tj, tl))     # grow each grid to cover its runs
    _UNIT.take(max(rj, rl))
    gv, uv = g.vals, _UNIT.vals
    lw = (gv[sp:sp + V] + gv[tj - V + 1:tj + 1][::-1] + gv[tl - V + 1:tl + 1][::-1]
          - uv[:V] - uv[rj - V + 1:rj + 1][::-1] - uv[rl - V + 1:rl + 1][::-1]
          + math.log(hp.b_bar + int(state.n_k[k])) * np.arange(V))
    # argmax and add.accumulate skip the reduction and method wrappers that
    # max() and cumsum() pay on these short runs
    cum = np.add.accumulate(np.exp(lw - lw[lw.argmax()]))
    pick = min(int(cum.searchsorted(rng.random() * cum[-1], side="right")), V - 1)
    if pick != y0:
        Sk[j, l] += pick - y0
        Sk[l, j] += pick - y0
        Sk[j, j] += y0 - pick
        Sk[l, l] += y0 - pick
        Yt[j, l] = Yt[l, j] = pick
        Yt[j, j] = rj - pick
        Yt[l, l] = rl - pick
    return state


def sample_b(k, j, state, rng):
    """Resample dimension j's activity in cluster k from its conditional
    given Y: the collapsed Beta-Bernoulli prior times the collapsed
    likelihood of Y under each value.  Y is never written.

    While the members hold off-diagonal mass in row j, b[k, j] = 0 has
    probability 0, so j stays active and nothing is drawn.  Otherwise row j
    is diagonal-only: the active side prices j's diagonal and its zero pairs
    with the other active dimensions in k, the inactive side adds the
    diagonal to j's noise pool over the other clusters.  Every other factor,
    and every log(Y!) term, is shared and cancels.
    """
    if not is_sparse(state.kind):
        raise ValueError("activity indicators only exist for sparse kinds")
    n = int(state.n_k[k])
    if n == 0:
        raise ValueError("cluster is empty")
    hp = state.hp
    cur = int(state.b[k, j])
    row = state.S[k, j]
    x_j = int(row.sum())                # the members' count of j, by the row sums
    if x_j > row[j]:
        return state
    rest = 1 - state.b[:, j]
    rest[k] = 0
    noise1 = (rest @ state.S[:, j, j], rest @ state.n_k)
    a, b = hp.a_bar, hp.b_bar
    side1 = (log_marginal(x_j, n, 0.0, a, b)
             + (int(state.b[k].sum()) - cur) * log_marginal(0, n, 0.0, a, b)
             + log_marginal(*noise1, 0.0, hp.a_hat, hp.b_hat))
    side0 = log_marginal(noise1[0] + x_j, noise1[1] + n, 0.0, hp.a_hat, hp.b_hat)
    c_other = int(state.b[:, j].sum()) - cur
    side1 += np.log(c_other + hp.a_prime)
    side0 += np.log(state.K - 1 - c_other + hp.b_prime)
    state.b[k, j] = rng.random() < math.exp(_log_sigmoid(side1 - side0))
    return state


def sample_m_beta(state, rng):
    """Refresh the auxiliary table counts and the shared stick weights."""
    if state.K < 1:
        raise ValueError("need at least one cluster")
    hp = state.hp
    K = state.K
    ab = hp.alpha * state.beta[:K]
    m = np.zeros(K, dtype=np.int64)

    def run(total, k):
        if total == 0:
            return 0
        i = np.arange(1, total + 1, dtype=float)
        return int((rng.random(total) < ab[k] / (i + ab[k])).sum())

    for k in range(K):
        if is_temporal(state.kind):
            m[k] = sum(run(int(state.n_trans[src, k]), k) for src in range(K))
        else:
            m[k] = run(int(state.n_k[k]), k)
    draw = rng.dirichlet(np.append(m, hp.gamma) + 1e-10)
    draw = np.maximum(draw, _BETA_FLOOR)
    state.beta = draw / draw.sum()
    state.m = m
    return state


# ---------------------------------------------------------------------------
# split-merge moves
#
# Per-slice assignment updates consolidate equivalent labels extremely slowly
# once contiguous segments form (every intermediate state is penalized), so
# whole-cluster Metropolis-Hastings moves are run after each sweep: a merge of
# two clusters, or a split seeded by two anchor slices with the remaining
# members allocated sequentially by their predictive likelihood.  The
# allocation probability enters the acceptance ratio; the target ratio is the
# collapsed joint density difference.  Sparse kinds only pair clusters with
# identical activity vectors so the latent matrices stay on-support.
#
# A merge is decided from the density ratio before its reverse split is
# priced (delayed acceptance).  The price log_q is a sum of log-sigmoids, so
# log_q <= 0, and a uniform that fails jld_cand - jld_cur fails
# jld_cand - jld_cur + log_q too; the uniform does not depend on the launch
# draws.  Accepting iff log_u < jld_cand - jld_cur + log_q, with the scan run
# only when the first test passes, is therefore the same function of (u,
# launch) as before, and the kernel is unchanged.  A split's ratio carries
# -log_q >= 0, so no split can be decided before its scan.
#
# No split or merge changes a latent Y, so the candidate shares Y with the
# live state and copies Z alone.  Its S and n_k differ from the state's only
# by the moved slices: a merge adds kj's sums into ki, a split sums the moved
# members' Y into the new cluster and takes them out of ki.
# The temporal kinds recount n_trans from the candidate's Z.  A scan over n
# slices costs O(M^2 + E) for their E nonzero masked entries; the candidate
# costs O(K*M^2 + T), plus O(n*M^2) for a split, which sums the moved
# members' Y.  Neither is a full recompute.

_LAUNCH_SCANS = 1

# the tallies of GibbsState.moves, in their --diagnostics order: the
# split-merge proposals (merges_priced counts the merges that reached the
# reverse-split scan), then the clusters the assignment step opened and closed
MOVE_COUNTS = ("splits_proposed", "splits_accepted", "merges_proposed", "merges_priced",
               "clusters_opened", "clusters_closed")


def _log_sigmoid(x):
    return -(max(0.0, -x) + math.log1p(math.exp(-abs(x))))


def _allocation_scan(state, mask, order, seed_a, seed_b, rng,
                     actual_sides=None):
    """Two-cluster launch-and-scan allocation of the slices in `order`.

    A sequential pass seeds the two sides, restricted Gibbs scans refine the
    launch, and one final scan accumulates the proposal probability: drawing
    the sides when proposing a split, or forcing `actual_sides` to price the
    reverse split of a merge.  Predictives use the masked collapsed factors
    only (shared noise factors cancel between sides, and so does the log Y!
    term of the slice being placed).  Returns (log_q, sides), sides[i] True
    when order[i] is on the side of seed_a.

    A masked entry where the slice's y is 0 adds lgamma(a + S) -
    lgamma(a + S) = 0 to a side's gain, so each slice is priced on its
    nonzero masked entries alone, gathered once from upper_support.  The
    loop then runs in plain Python over lists: each side's sums over the
    flat M x M index, and the lgamma grid cut to the largest sum an entry
    can reach.  A slice stays in its side's sums while it is priced, so
    only a move writes them.
    """
    hp = state.hp
    n, M2 = len(order), state.M * state.M
    # the runs of upper_support that belong to order, end to end
    off = state.upper_offsets
    lo = off[order]
    run = off[order + 1] - lo
    ends = np.cumsum(run)
    pos = np.arange(int(run.sum())) + np.repeat(lo - ends + run, run)
    ids = state.upper_support[pos]
    ys = state.Y.take(ids)
    es = ids % M2
    keep = (ys > 0) & mask.ravel().take(es)
    ys, es = ys[keep], es[keep]
    cut = np.concatenate(([0], np.cumsum(keep)))[np.concatenate(([0], ends))].tolist()
    ya, yb = state.Y[seed_a], state.Y[seed_b]
    # no side sum can exceed both anchors plus every member
    top = int((ya.ravel() + yb.ravel() + np.bincount(es, ys, minlength=M2)).max())
    ys, es = ys.tolist(), es.tolist()
    ent = [(es[cut[i]:cut[i + 1]], ys[cut[i]:cut[i + 1]]) for i in range(n)]
    y_tot = [sum(y) for _, y in ent]
    S = [ya.ravel().tolist(), yb.ravel().tolist()]     # per-side sums
    tot = [int(ya[mask].sum()), int(yb[mask].sum())]   # per-side count totals
    cnt = [1, 1]                                       # per-side slice counts
    ga = _grid(hp.a_bar)
    ga.take(top)
    lg = ga.vals[:top + 1].tolist()
    pa = int(mask.sum()) * hp.a_bar
    log_n = np.log(np.arange(1.0, n + 2.0)).tolist()
    log_bn = np.log(hp.b_bar + np.arange(1.0, n + 3.0)).tolist()

    def score(side, gain, yt):
        # log size + predictive of the slice on that side; gain is the
        # change in the side's gammaln sum
        c, s_tot = cnt[side], tot[side]
        return (log_n[c - 1] + gain - log_bn[c] * (s_tot + yt + pa)
                + log_bn[c - 1] * (s_tot + pa))

    side = [-1] * n                                    # 0: seed_a's side, 1: seed_b's
    s0, s1 = S
    log_q = 0.0
    for scan in range(_LAUNCH_SCANS + 2):
        final = scan == _LAUNCH_SCANS + 1
        for i in range(n):
            (e_i, y_i), yt, cur = ent[i], y_tot[i], side[i]
            # each side's change in its gammaln sum when y joins it; y's own
            # side already holds it, so it is read with y taken out
            in0, in1 = cur == 0, cur == 1
            gain0 = gain1 = 0.0
            for e, y in zip(e_i, y_i):
                v0, v1 = s0[e] - in0 * y, s1[e] - in1 * y
                gain0 += lg[v0 + y] - lg[v0]
                gain1 += lg[v1 + y] - lg[v1]
            if cur >= 0:
                cnt[cur] -= 1
                tot[cur] -= yt
            gap = score(0, gain0, yt) - score(1, gain1, yt)
            log_pa = _log_sigmoid(gap)
            if final and actual_sides is not None:
                new = 0 if actual_sides[i] else 1
            else:
                new = 0 if math.log(rng.random()) < log_pa else 1
            if final:
                log_q += log_pa if new == 0 else _log_sigmoid(-gap)
            if new != cur:
                s = S[new]
                for e, y in zip(e_i, y_i):
                    s[e] += y
                if cur >= 0:
                    s = S[cur]
                    for e, y in zip(e_i, y_i):
                        s[e] -= y
            cnt[new] += 1
            tot[new] += yt
            side[i] = new
    return log_q, np.array(side) == 0


def sample_split_merge(state, rng, n_moves=10):
    """Run a batch of split-merge proposals; returns the number accepted."""
    accepted = 0
    jld = joint_log_density(state)
    for _ in range(n_moves):
        jld_new = _one_split_merge(state, rng, jld)
        if jld_new is not None:
            accepted += 1
            jld = jld_new
    return accepted


def _one_split_merge(state, rng, jld_cur):
    """One split or merge proposal against a state of joint log density
    jld_cur; returns the new density when accepted, else None.  A merge draws
    its uniform before pricing the reverse split and is rejected unpriced
    when the density ratio alone fails it; this is exact because the price
    is never positive and the uniform is independent of the scan's draws.
    The candidate shares Y with state, and its statistics are the state's
    moved by the slices that change cluster (see the split-merge comment
    block); a rejected proposal leaves state untouched."""
    T = state.T
    if T < 2 or (state.K == 1 and state.n_k[0] < 2):
        return None
    i = int(rng.integers(T))
    j = int(rng.integers(T - 1))
    if j >= i:
        j += 1
    ki, kj = int(state.Z[i]), int(state.Z[j])
    state.moves["splits_proposed" if ki == kj else "merges_proposed"] += 1
    if ki != kj and is_sparse(state.kind) and not np.array_equal(state.b[ki], state.b[kj]):
        return None
    mask = _pair_mask(state.kind, state.b[ki], state.M)
    members = np.flatnonzero((state.Z == ki) | (state.Z == kj))
    order = members[(members != i) & (members != j)]
    # shares X, Y and m with state; every array the move changes is replaced
    cand = copy.copy(state)
    cand.Z = state.Z.copy()
    if ki == kj:
        # propose a split seeded at i and j
        log_q, sides = _allocation_scan(state, mask, order, i, j, rng)
        new_k = _create_cluster(cand, state.b[ki], rng)
        moved = np.sort(np.append(order[~sides], j))
        cand.Z[moved] = new_k
        cand.n_k[new_k] = len(moved)
        cand.S[new_k] = state.Y[moved].sum(axis=0)
        cand.n_k[ki] -= len(moved)
        cand.S[ki] -= cand.S[new_k]
    else:
        # propose the merge
        cand.Z[cand.Z == kj] = ki
        _delete_cluster(cand, kj)
        k = ki - (ki > kj)
        cand.n_k[k] += state.n_k[kj]
        cand.S[k] += state.S[kj]
    if is_temporal(state.kind):
        cand.n_trans = _count_transitions(cand.Z, cand.K)
    jld_cand = joint_log_density(cand)
    log_u = np.log(rng.random())
    if ki == kj:
        log_q = -log_q      # the forward allocation divides the ratio
    elif log_u >= jld_cand - jld_cur:
        return None         # log_q <= 0 cannot rescue it
    else:
        # price the split that would reconstruct the current pair by a dry run
        state.moves["merges_priced"] += 1
        log_q, _ = _allocation_scan(state, mask, order, i, j, rng,
                                    actual_sides=state.Z[order] == ki)
    if log_u < jld_cand - jld_cur + log_q:
        vars(state).update(vars(cand))
        state.moves["splits_accepted"] += ki == kj
        return jld_cand
    return None


# ---------------------------------------------------------------------------
# joint density, sweeps, held-out evaluation

def joint_log_density(state):
    """Collapsed joint log density of (Z, Y, b) given the hyperparameters;
    invariant under cluster relabeling for the exchangeable kinds.

    Every factor is evaluated with a zero log(Y!) sum.  Y[t] is zero outside
    its cluster's factors and the diagonal, and the inactive diagonals are
    the noise factors', so the factors' log(Y!) sums add up to one term,
    the sum of log Y[t,j,l]! over j <= l, read on the slices' supports."""
    hp = state.hp
    K = state.K
    T = state.T
    out = 0.0
    if is_temporal(state.kind):
        ab = hp.alpha * state.beta[:K]
        out += float(np.log(state.beta[state.Z[0]]))
        out += float(K * math.lgamma(hp.alpha)
                     - _grid(hp.alpha).take(state.n_trans.sum(axis=1)).sum())
        # beta is resampled, so alpha * beta + n has no fixed offset; a zero
        # count contributes lgamma(x) - lgamma(x) = 0, so only the visited
        # transitions are evaluated
        src, dst = np.nonzero(state.n_trans)
        out += sum(math.lgamma(x + n) - math.lgamma(x)
                   for x, n in zip(ab[dst].tolist(), state.n_trans[src, dst].tolist()))
    else:
        # every cluster is non-empty, so n_k - 1 indexes lgamma(n_k)
        out += float(K * np.log(hp.alpha) + _UNIT.take(state.n_k - 1).sum()
                     - np.log(hp.alpha + np.arange(T, dtype=float)).sum())
    if is_sparse(state.kind):
        # betaln(a' + c, b' + K - c) - betaln(a', b') per dimension
        a, b = hp.a_prime, hp.b_prime
        c = state.b.sum(axis=0)
        beta0 = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        out += float((_grid(a).take(c) + _grid(b).take(K - c)
                      - _grid(a + b).take(K) - beta0).sum())
    for k in range(K):
        mask = _pair_mask(state.kind, state.b[k], state.M)
        out += float(log_marginal(state.S[k][mask], state.n_k[k], 0.0,
                                  hp.a_bar, hp.b_bar).sum())
    if is_sparse(state.kind):
        out += float(log_marginal(state.S_hat, state.n_hat, 0.0, hp.a_hat, hp.b_hat).sum())
    return out - float(_UNIT.take(state.Y.take(state.upper_support)).sum())


def _pairs_among(state, k, dims):
    """Off-diagonal (j, l), j < l, among the dimensions `dims` (ascending)
    that are active in cluster k."""
    if is_diagonal(state.kind):
        return []
    if is_sparse(state.kind):
        act = state.b[k]
        dims = [j for j in dims if act[j]]
    return list(itertools.combinations(dims, 2))


def active_pairs(state, k):
    """Off-diagonal (j, l) pairs sampled for a member of cluster k."""
    return _pairs_among(state, k, range(state.M))


def _live_pairs(state, t):
    """The active pairs of slice t whose two counts are both nonzero: the
    only ones whose conditional is not a point mass (module docstring)."""
    return _pairs_among(state, int(state.Z[t]), state.X[t].nonzero()[0].tolist())


@dataclass
class Diagnostics:
    """Per-sweep trace of the run plus completion flags."""

    # per sweep: (sweep, joint log density, K, wall clock, off-diagonal
    # draws, split-merge proposals accepted, *the MOVE_COUNTS tallies)
    rows: list = field(default_factory=list)
    partial: bool = False

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("sweep,joint_log_density,K,wall_clock,y_draws,"
                     f"split_merge_accepted,{','.join(MOVE_COUNTS)}\n")
            for sweep, jld, k, wc, *counts in self.rows:
                fh.write(f"{sweep},{jld:.6f},{k},{wc:.3f},{','.join(map(str, counts))}\n")


def sweep(state, rng):
    """One sweep of the schedule (module docstring) with fresh state.moves
    tallies; beta and m are left as they are.  Kernels are looked up by
    name at call time.  Returns (latent pair draws, proposals accepted)."""
    state.moves.clear()
    step_z = sample_z_hdp if is_temporal(state.kind) else sample_z_dp
    n_y = 0
    for t in range(state.T):
        step_z(t, state, rng)
        for (j, l) in _live_pairs(state, t):
            sample_y(t, j, l, state, rng)
            n_y += 1
    if is_sparse(state.kind):
        for k in range(state.K):
            for j in range(state.M):
                sample_b(k, j, state, rng)
    return n_y, sample_split_merge(state, rng)


def run_gibbs(data, kind, hp=None, cfg=None):
    """Run the budget's sweeps, each a sweep() then sample_m_beta, until
    the wall-clock limit.  Returns (post-burn-in thinned states,
    diagnostics)."""
    hp = hp if hp is not None else Hyperparams()
    cfg = cfg if cfg is not None else FitConfig()
    rng = np.random.default_rng(cfg.seed)
    state = init_state(data, kind, hp)
    samples = []
    diag = Diagnostics()
    started = time.monotonic()
    for i in range(1, cfg.iterations + 1):
        n_y, accepted = sweep(state, rng)
        sample_m_beta(state, rng)
        elapsed = time.monotonic() - started
        diag.rows.append((i, joint_log_density(state), state.K, elapsed, n_y,
                          accepted, *(state.moves[name] for name in MOVE_COUNTS)))
        if i > cfg.burn_in and (i - cfg.burn_in - 1) % cfg.thinning == 0:
            samples.append(state.clone())
        if elapsed > cfg.wall_clock_limit and i < cfg.iterations:
            diag.partial = i <= cfg.burn_in
            break
    if not samples:
        samples = [state.clone()]
        diag.partial = True
    return samples, diag


def heldout_loglik(model, data):
    """Forward-pass log-likelihood of a held-out slice sequence under the
    point-estimate parameters, scoring slices with the per-cluster
    independent-Poisson mean approximation.  Non-temporal fits carry mixture
    weights in their transition rows, so the same pass covers them.
    """
    X = np.asarray(data.X if hasattr(data, "X") else data, dtype=np.int64)
    if X.shape[1] != model.M:
        raise ConfigError(
            f"model was fitted with {model.M} bins but the data has {X.shape[1]}")
    if X.shape[0] == 0:
        return 0.0
    emis = log_poisson(X[:, None], model.mu)
    fwd = model.log_pi0 + emis[0]
    for t in range(1, X.shape[0]):
        fwd = _log_sum_exp(fwd[:, None] + model.log_pi) + emis[t]
    return float(_log_sum_exp(fwd))


def _log_sum_exp(a):
    """log(sum(exp(a), axis=0)) shifted by the column maximum; an all -inf
    column gives -inf."""
    top = a.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=0)) + top
