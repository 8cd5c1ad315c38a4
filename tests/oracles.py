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
    return np.trapezoid(np.exp(log_f), lam)


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
    (state.n_k, state.S, state.LF, state.n_trans,
     state.S_hat, state.n_hat, state.LF_hat) = gibbs.recompute_stats(state)
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
