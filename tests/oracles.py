"""Independent reference computations used by the test suite.

Everything here is deliberately written from first principles (scipy pmfs,
grid quadrature, explicit enumeration) rather than reusing the package's
incremental machinery, so tests compare two separate derivation paths.
"""

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np
from scipy.special import betaln, gammaln
from scipy import stats


def grid_poisson_gamma_marginal(ys, shape, rate, n_pts=400_000):
    """Trapezoid-rule integral of prod_t Poisson(y_t | lam) * Gamma(lam | shape, rate).

    The integrand is proportional to a Gamma(shape + S, rate + n) density, so
    the grid covers that posterior's support generously.
    """
    ys = np.asarray(ys, dtype=float)
    S = ys.sum()
    n = len(ys)
    post_shape = shape + S
    post_rate = rate + n
    mean = post_shape / post_rate
    sd = math.sqrt(post_shape) / post_rate
    hi = mean + 40.0 * sd + 10.0
    lam = np.linspace(1e-12, hi, n_pts)
    log_f = (np.sum([stats.poisson.logpmf(y, lam) for y in ys], axis=0)
             + stats.gamma.logpdf(lam, a=shape, scale=1.0 / rate))
    f = np.exp(log_f)
    return float(((f[1:] + f[:-1]) * np.diff(lam)).sum() / 2.0)


def poisson_gamma_marginal_exact(ys, shape, rate):
    """Closed-form marginal of pooled Poisson counts under a Gamma prior."""
    ys = np.asarray(ys, dtype=float)
    S = ys.sum()
    n = len(ys)
    return float(np.exp(shape * np.log(rate) - gammaln(shape)
                        + gammaln(shape + S) - (shape + S) * np.log(rate + n)
                        - gammaln(ys + 1.0).sum()))


def log_marginal_factor(S, n, log_fact_sum, shape, rate):
    """Normalized collapsed factor: log of the pooled Poisson-Gamma marginal."""
    return float(shape * np.log(rate) - gammaln(shape)
                 + gammaln(shape + S) - (shape + S) * np.log(rate + n)
                 - log_fact_sum)


# ---------------------------------------------------------------------------
# independent joint density of a sampler configuration

def _upper_pairs(M):
    return [(j, l) for j in range(M) for l in range(j, M)]


def crp_log_prob(Z, alpha):
    """Exchangeable partition probability of an assignment vector."""
    Z = np.asarray(Z)
    T = len(Z)
    labels, counts = np.unique(Z, return_counts=True)
    out = len(labels) * math.log(alpha)
    out += float(gammaln(counts).sum())
    out -= float(np.log(alpha + np.arange(T)).sum())
    return out


def hdp_z_log_prob(Z, beta, alpha):
    """Markov assignment probability given stick weights, transition rows
    integrated out.  A label equal to len(beta) - 1 means 'fresh cluster'
    carrying the remainder weight."""
    Z = np.asarray(Z)
    K = len(beta) - 1
    out = math.log(beta[Z[0]])
    n = np.zeros((K + 1, K + 1))
    for a, b in zip(Z[:-1], Z[1:]):
        n[a, b] += 1
    ab = alpha * np.asarray(beta)
    for k in range(K + 1):
        row = n[k]
        if row.sum() == 0:
            continue
        out += float(gammaln(alpha) - gammaln(alpha + row.sum()))
        out += float((gammaln(ab + row) - gammaln(ab)).sum())
    return out


def activity_log_prob(b, a_prime, b_prime):
    """Collapsed Beta-Bernoulli probability of the activity matrix."""
    b = np.asarray(b)
    K = b.shape[0]
    c = b.sum(axis=0)
    return float((betaln(a_prime + c, b_prime + K - c)
                  - betaln(a_prime, b_prime)).sum())


def emission_log_prob(X, Z, Y, b, hp, kind_sparse, kind_diag):
    """Collapsed emission probability of the latent matrices given the
    assignments and activity: pooled Poisson-Gamma marginals per active
    factor plus the shared noise factors."""
    X = np.asarray(X)
    Z = np.asarray(Z)
    T, M = X.shape
    labels = np.unique(Z)
    out = 0.0
    for k in labels:
        members = np.flatnonzero(Z == k)
        bk = b[k] if kind_sparse else np.ones(M, dtype=int)
        for (j, l) in _upper_pairs(M):
            if kind_diag and j != l:
                continue
            if kind_sparse and not (bk[j] and bk[l]):
                continue
            ys = [Y[t][j][l] for t in members]
            out += log_marginal_factor(sum(ys), len(ys),
                                       float(gammaln(np.asarray(ys) + 1.0).sum()),
                                       hp.a_bar, hp.b_bar)
    if kind_sparse:
        for j in range(M):
            ys = [Y[t][j][j] for t in range(T) if b[Z[t]][j] == 0]
            out += log_marginal_factor(sum(ys), len(ys),
                                       float(gammaln(np.asarray(ys) + 1.0).sum()),
                                       hp.a_hat, hp.b_hat)
    return out


def build_state(kind, X, Z, Y, b, beta, hp):
    """Assemble a sampler state by surgery and rebuild its statistics."""
    from tracemix import gibbs
    state = gibbs.GibbsState(kind, hp, np.asarray(X, dtype=np.int64))
    state.Z = np.asarray(Z, dtype=np.int64).copy()
    state.Y = np.asarray(Y, dtype=np.int64).copy()
    state.K = int(state.Z.max()) + 1
    state.b = np.asarray(b, dtype=np.int8).copy()
    state.beta = np.asarray(beta, dtype=float).copy()
    state.n_k, state.S, state.LF, state.n_trans = gibbs.recompute_stats(state)[:4]
    return state


def full_joint(X, Z, Y, b, beta, hp, temporal, sparse, diag):
    """Test-side joint density of one full configuration."""
    if temporal:
        out = hdp_z_log_prob(Z, beta, hp.alpha)
    else:
        out = crp_log_prob(Z, hp.alpha)
    if sparse:
        out += activity_log_prob(b, hp.a_prime, hp.b_prime)
    out += emission_log_prob(X, Z, Y, b, hp, sparse, diag)
    return out


def project(Yt, b_row):
    """Reference re-projection: fold off-support off-diagonal mass onto the
    two diagonals."""
    Yt = np.array(Yt, dtype=np.int64, copy=True)
    M = len(b_row)
    for j in range(M):
        for l in range(j + 1, M):
            if not (b_row[j] and b_row[l]) and Yt[j, l]:
                v = Yt[j, l]
                Yt[j, j] += v
                Yt[l, l] += v
                Yt[j, l] = Yt[l, j] = 0
    return Yt


def reference_parse_trace(byte_stream, format_id="msr", block_size=4096):
    """Row-by-row CSV parse into time-sorted TraceEvent records: the parser
    the columnar one replaced, kept as the reference for its values and for
    its error messages and line numbers."""
    from tracemix.errors import TraceParseError
    from tracemix.ingest import TraceEvent, blocks_covered

    formats = {"msr": ((0, 3, 4, 5), 1e-7), "plain": ((0, 1, 2, 3), 1.0)}
    if format_id not in formats:
        raise TraceParseError(f"unknown trace format {format_id!r}")
    cols, tick = formats[format_id]
    t_col, op_col, off_col, sz_col = cols
    ncols = max(cols) + 1
    if isinstance(byte_stream, (str, Path)):
        with open(byte_stream, "r", newline="") as fh:
            text = fh.read()
    else:
        text = byte_stream.read()
        if isinstance(text, bytes):
            text = text.decode()

    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < ncols:
            raise TraceParseError(f"line {lineno}: expected >= {ncols} columns, got {len(row)}")
        try:
            ts = float(row[t_col])
            op_raw = row[op_col].strip().lower()
            offset = int(row[off_col])
            size = int(row[sz_col])
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from None
        if op_raw in ("read", "r"):
            op = "read"
        elif op_raw in ("write", "w"):
            op = "write"
        else:
            raise TraceParseError(f"line {lineno}: unknown op {row[op_col]!r}")
        if size <= 0:
            raise TraceParseError(f"line {lineno}: size must be positive, got {size}")
        if offset < 0:
            raise TraceParseError(f"line {lineno}: negative offset {offset}")
        rows.append((ts, op, offset, size))
    if not rows:
        raise TraceParseError("empty trace")
    rows.sort(key=lambda r: r[0])
    t0 = rows[0][0]
    return [TraceEvent((ts - t0) * tick, op, offset, size,
                       blocks_covered(offset, size, block_size))
            for ts, op, offset, size in rows]


def reference_lru(events, capacity):
    """Naive list-based LRU replay; returns the per-block hit/miss sequence."""
    order = []  # least recent first
    outcomes = []
    for e in events:
        if e.op != "read":
            continue
        for block in e.block_ids:
            if block in order:
                order.remove(block)
                order.append(block)
                outcomes.append(True)
            else:
                if len(order) >= capacity:
                    order.pop(0)
                order.append(block)
                outcomes.append(False)
    return outcomes


def viterbi_brute_force(pi0, pi, mu, X):
    """Best path by enumerating every assignment sequence."""
    from scipy.stats import poisson
    T = len(X)
    K = len(pi0)
    best, best_path = -np.inf, None
    for path in itertools.product(range(K), repeat=T):
        lp = np.log(pi0[path[0]])
        for t in range(T):
            lp += poisson.logpmf(X[t], mu[path[t]]).sum()
            if t:
                lp += np.log(pi[path[t - 1], path[t]])
        if lp > best + 1e-12:
            best, best_path = lp, path
    return np.asarray(best_path), best


def predict_next_brute_force(pi0, pi, mu, X):
    """Best next state by enumerating paths and candidate modal emissions."""
    from scipy.stats import poisson
    T = len(X)
    K = len(pi0)
    modes = np.floor(mu)
    best, best_k = -np.inf, None
    for path in itertools.product(range(K), repeat=T + 1):
        lp = np.log(pi0[path[0]])
        for t in range(T):
            lp += poisson.logpmf(X[t], mu[path[t]]).sum()
            if t:
                lp += np.log(pi[path[t - 1], path[t]])
        if T:
            lp += np.log(pi[path[T - 1], path[T]])
        for cand in range(K):
            total = lp + poisson.logpmf(modes[cand], mu[path[T]]).sum()
            if total > best + 1e-12:
                best, best_k = total, path[T]
    return best_k


def forward_loglik(pi0, pi, mu, X):
    """Forward-algorithm log-likelihood of X under independent Poisson
    emissions, with scipy's pmf and logsumexp."""
    from scipy.special import logsumexp
    emis = np.array([[stats.poisson.logpmf(x, m).sum() for m in mu] for x in X])
    with np.errstate(divide="ignore"):
        log_pi, log_pi0 = np.log(pi), np.log(pi0)
    fwd = log_pi0 + emis[0]
    for t in range(1, len(X)):
        fwd = logsumexp(fwd[:, None] + log_pi, axis=0) + emis[t]
    return float(logsumexp(fwd))


# ---------------------------------------------------------------------------
# the sampler kernels as first written, one predictive call per candidate

def _pred_delta(hp, S_k, n, Yt, mask):
    """Log predictive of pooling Yt's masked entries into the active factors
    with summed counts S_k over n observations."""
    a, b = hp.a_bar, hp.b_bar
    s = S_k[mask].astype(float)
    y = Yt[mask].astype(float)
    return float((gammaln(a + s + y) - gammaln(a + s) - gammaln(y + 1.0)
                  - (a + s + y) * np.log(b + n + 1.0)
                  + (a + s) * np.log(b + n)).sum())


def reference_allocation_scan(state, mask, order, seed_a, seed_b, rng,
                              actual_sides=None):
    """Two-cluster launch-and-scan allocation of `order` slices.

    A sequential pass seeds the two sides, restricted Gibbs scans refine the
    launch, and one final scan accumulates the proposal probability: drawing
    the sides when proposing a split, or forcing `actual_sides` to price the
    reverse split of a merge.  Predictives use the masked collapsed factors
    only (shared noise factors cancel between sides).
    """
    from tracemix.gibbs import _LAUNCH_SCANS
    hp = state.hp
    S_a = state.Y[seed_a].copy()
    S_b = state.Y[seed_b].copy()
    n_a = 1.0
    n_b = 1.0
    sides = np.zeros(len(order), dtype=bool)  # True -> side a

    def gap_for(Yt):
        d_a = np.log(n_a) + _pred_delta(hp, S_a, n_a, Yt, mask)
        d_b = np.log(n_b) + _pred_delta(hp, S_b, n_b, Yt, mask)
        return d_a - d_b

    # sequential launch
    for i, t in enumerate(order):
        Yt = state.Y[t]
        gap = gap_for(Yt)
        to_a = np.log(rng.random()) < -np.logaddexp(0.0, -gap)
        if to_a:
            S_a += Yt
            n_a += 1.0
        else:
            S_b += Yt
            n_b += 1.0
        sides[i] = to_a

    # restricted refinement scans
    for _ in range(_LAUNCH_SCANS):
        for i, t in enumerate(order):
            Yt = state.Y[t]
            if sides[i]:
                S_a -= Yt
                n_a -= 1.0
            else:
                S_b -= Yt
                n_b -= 1.0
            gap = gap_for(Yt)
            to_a = np.log(rng.random()) < -np.logaddexp(0.0, -gap)
            if to_a:
                S_a += Yt
                n_a += 1.0
            else:
                S_b += Yt
                n_b += 1.0
            sides[i] = to_a

    # final scan carries the proposal probability
    log_q = 0.0
    for i, t in enumerate(order):
        Yt = state.Y[t]
        if sides[i]:
            S_a -= Yt
            n_a -= 1.0
        else:
            S_b -= Yt
            n_b -= 1.0
        gap = gap_for(Yt)
        log_pa = -np.logaddexp(0.0, -gap)
        log_pb = -np.logaddexp(0.0, gap)
        if actual_sides is None:
            to_a = np.log(rng.random()) < log_pa
        else:
            to_a = actual_sides[i]
        log_q += log_pa if to_a else log_pb
        if to_a:
            S_a += Yt
            n_a += 1.0
        else:
            S_b += Yt
            n_b += 1.0
        sides[i] = to_a
    return log_q, sides


# ---------------------------------------------------------------------------
# the assignment scorer over whole (R, M, M) matrices and the activity step
# over whole member matrices, as they were before they were narrowed to the
# slice's support and to row j


def reference_f_candidates(t, state, b, S, n):
    """Log predictive of slice t joining each candidate cluster r, given its
    activity row b[r], summed latent matrix S[r] and size n[r]: the change of
    every active collapsed factor, on Y[t] projected onto the row's active
    set, plus for sparse kinds the noise factors of its inactive dimensions.
    Returns (scores, Yp): for the sparse kinds Yp holds the (R, M, M)
    projections, otherwise it is Y[t] itself, which every row shares."""
    from tracemix.gibbs import _log_gain, _pair_mask, is_sparse
    hp = state.hp
    if is_sparse(state.kind):
        act = b.astype(bool)
        Yp, fm = _reference_project_batch(state.Y[t], act)
    else:
        Yp, fm = state.Y[t], _pair_mask(state.kind, None, state.M)
    gain = _log_gain(S, n[:, None, None], Yp, hp.a_bar, hp.b_bar)
    out = np.where(fm, gain, 0.0).sum(axis=(1, 2))
    if is_sparse(state.kind):
        # per-dimension noise predictive is cluster-independent
        out += (~act).astype(float) @ _log_gain(state.S_hat, state.n_hat, state.X[t],
                                                hp.a_hat, hp.b_hat)
    return out, Yp


def _reference_project_batch(Yt, act):
    """Yt projected onto each activity row of act (R, M) bool: off-diagonal
    mass at pairs outside the row's active set is folded onto the two
    diagonals involved, which preserves all row sums.  Returns the (R, M, M)
    projections and the upper-triangular masks of each row's active pairs."""
    from tracemix.gibbs import _fixed_mask
    M = len(Yt)
    pair_ok = act[:, :, None] & act[:, None, :]
    bad = ~_fixed_mask(True, M)[None] & ~pair_ok
    moved = np.where(bad, Yt[None], 0)
    Yp = np.where(bad, 0, Yt[None])
    idx = np.arange(M)
    Yp[:, idx, idx] += moved.sum(axis=2)
    fm = _fixed_mask(False, M)[None] & pair_ok
    return Yp, fm


def reference_sample_b(k, j, state, rng):
    """Resample dimension j's activity in cluster k from its two-way
    conditional: the collapsed Beta-Bernoulli prior times the collapsed
    likelihood of each side's canonical latent configuration.

    Toggling re-projects the members' Y matrices: deactivation folds row and
    column j onto the diagonals, activation leaves row j diagonal-only.
    """
    from tracemix.gibbs import _UNIT, is_sparse, log_marginal
    if not is_sparse(state.kind):
        raise ValueError("activity indicators only exist for sparse kinds")
    if state.n_k[k] == 0:
        raise ValueError("cluster is empty")
    hp = state.hp
    M = state.M
    members = np.where(state.Z == k)[0]
    n = len(members)
    cur = int(state.b[k, j])
    others = np.where((state.b[k] == 1) & (np.arange(M) != j))[0]
    x_j = state.X[members, j]
    sum_x = int(x_j.sum())
    glx = float(_UNIT.take(x_j).sum())
    diag_mem = np.einsum("tjj->tj", state.Y[members])

    if cur == 1:
        s1_jj = state.S[k, j, j]
        lf1_jj = state.LF[k, j, j]
        s1_jl = state.S[k, j, others]
        lf1_jl = state.LF[k, j, others]
        s1_ll = state.S[k, others, others]
        lf1_ll = state.LF[k, others, others]
        off = state.Y[members][:, j, :].copy()
        off[:, j] = 0
        s0_ll = s1_ll + off[:, others].sum(axis=0)
        lf0_ll = lf1_ll + (_UNIT.take(diag_mem[:, others] + off[:, others])
                           - _UNIT.take(diag_mem[:, others])).sum(axis=0)
        noise1 = (state.S_hat[j], state.n_hat[j], state.LF_hat[j])
        noise0 = (state.S_hat[j] + sum_x, state.n_hat[j] + n, state.LF_hat[j] + glx)
    else:
        s1_jj = sum_x
        lf1_jj = glx
        s1_jl = np.zeros(len(others), dtype=np.int64)
        lf1_jl = np.zeros(len(others))
        s1_ll = state.S[k, others, others]
        lf1_ll = state.LF[k, others, others]
        s0_ll = s1_ll
        lf0_ll = lf1_ll
        noise1 = (state.S_hat[j] - sum_x, state.n_hat[j] - n, state.LF_hat[j] - glx)
        noise0 = (state.S_hat[j], state.n_hat[j], state.LF_hat[j])

    a, b = hp.a_bar, hp.b_bar
    side1 = (log_marginal(s1_jj, n, lf1_jj, a, b)
             + log_marginal(s1_jl, n, lf1_jl, a, b).sum()
             + log_marginal(s1_ll, n, lf1_ll, a, b).sum()
             + log_marginal(*noise1, hp.a_hat, hp.b_hat))
    side0 = (log_marginal(s0_ll, n, lf0_ll, a, b).sum()
             + log_marginal(*noise0, hp.a_hat, hp.b_hat))
    c_other = int(state.b[:, j].sum()) - cur
    side1 += np.log(c_other + hp.a_prime)
    side0 += np.log(state.K - 1 - c_other + hp.b_prime)

    p1 = 1.0 / (1.0 + np.exp(-(side1 - side0)))
    new = 1 if rng.random() < p1 else 0
    if new == cur:
        return state

    if new == 0:
        # fold row/column j of every member onto the diagonals
        off = state.Y[members][:, j, :].copy()
        off[:, j] = 0
        moved = off.sum(axis=1)
        Ym = state.Y[members]
        idx = np.arange(M)
        Ym[:, idx, idx] += off
        Ym[:, j, j] += moved
        Ym[:, j, :][:, idx != j] = 0
        Ym[:, :, j][:, idx != j] = 0
        state.Y[members] = Ym
        col_moved = off.sum(axis=0)
        keep = idx != j
        state.S[k, j, keep] = 0
        state.S[k, keep, j] = 0
        state.LF[k, j, keep] = 0.0
        state.LF[k, keep, j] = 0.0
        state.S[k, j, j] += int(moved.sum())
        state.LF[k, j, j] = glx
        state.S[k, idx, idx] += col_moved * keep
        new_diag = diag_mem + off
        lf_diag = _UNIT.take(new_diag).sum(axis=0)
        state.LF[k, idx[keep], idx[keep]] = lf_diag[keep]
    state.b[k, j] = new
    return state
