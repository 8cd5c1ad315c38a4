"""Cluster-recovery scoring owned by the benchmark: a Viterbi decoder and the
adjusted Rand index.

The decoder reads only a fitted model's ``pi``, ``pi0`` and ``mu``, so the
package's own decoder state can change shape without changing how the
benchmark scores recovery.
"""

import numpy as np
from scipy.special import gammaln


def poisson_loglik(X, mu):
    """(T, K) log-likelihood of each count row under each cluster's
    independent-Poisson means; a zero mean gives -inf to any positive count."""
    X = np.asarray(X, dtype=float)[:, None, :]
    mu = np.asarray(mu, dtype=float)[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        xlog = np.where(X > 0, X * np.log(mu), 0.0)
    return (xlog - mu - gammaln(X + 1.0)).sum(axis=2)


def viterbi(pi, pi0, mu, X):
    """Most likely cluster path for the rows of X.  Argmax ties break toward
    the lowest cluster index."""
    X = np.atleast_2d(np.asarray(X))
    T, K = X.shape[0], len(pi0)
    if T == 0:
        return np.zeros(0, dtype=np.int64)
    emis = poisson_loglik(X, mu)
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(pi, dtype=float))
        score = np.log(np.asarray(pi0, dtype=float)) + emis[0]
    back = np.zeros((T, K), dtype=np.int64)
    cols = np.arange(K)
    for t in range(1, T):
        cand = score[:, None] + log_pi
        back[t] = np.argmax(cand, axis=0)
        score = cand[back[t], cols] + emis[t]
    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(score))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t][path[t]]
    return path


def _pairs(counts):
    counts = np.asarray(counts, dtype=float)
    return float((counts * (counts - 1.0) / 2.0).sum())


def adjusted_rand_index(truth, found):
    """Hubert-Arabie adjusted Rand index of two labelings of the same items."""
    truth = np.asarray(truth)
    found = np.asarray(found)
    if truth.shape != found.shape:
        raise ValueError("labelings must have the same length")
    n = truth.size
    if n < 2:
        return 1.0
    _, a = np.unique(truth, return_inverse=True)
    _, b = np.unique(found, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)
    both = _pairs(table)
    rows = _pairs(table.sum(axis=1))
    cols = _pairs(table.sum(axis=0))
    expected = rows * cols / _pairs([n])
    best = (rows + cols) / 2.0
    if best == expected:
        # both labelings put everything in one cluster, or each item alone
        return 1.0
    return (both - expected) / (best - expected)
