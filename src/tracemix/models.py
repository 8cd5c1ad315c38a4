"""Count-vector distributions and their Gamma-collapsed likelihood kernels.

The correlated count model draws a symmetric latent matrix Y with independent
Poisson entries and emits X = Y @ 1, so off-diagonal rates double as pairwise
covariances.  The sparse variant restricts the correlated block to an active
dimension subset b and models everything else as low-rate independent noise.
Rates carry Gamma priors (shape/rate); integrating them out gives the
collapsed kernel ``log_marginal`` (the paper's F) that every sampler
conditional is built from.

Every log-gamma in the package comes from ``math.lgamma``.  Nearly every
argument is a fixed offset (a hyperparameter shape, or 1 for log y!) plus a
non-negative integer count, so it is a lookup into the lgamma grid of that
offset (``_grid``), kept here.  The one exception, alpha * beta + n in the
temporal joint density, calls ``math.lgamma`` directly.  Beside the grids,
``_log_grid`` keeps log tables, log(rate + n) for a Gamma rate (or rate + 1)
and an integer size n, which the sampler's predictives read instead of
calling ``np.log``; the table is filled with ``np.log`` itself, so a lookup
equals the call it replaces bit for bit.  Both are one ``_Grid`` class.

The six model kinds are named here too, with ALL_KINDS and the predicates
that split them by assignment prior and emission model: the sampler, the
point estimates and the command line's --kind all read them from this
module, which imports no sampler code.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


def _lgammas(args):
    return [math.lgamma(v) for v in args.tolist()]


class _Grid:
    """fill(offset + i) for non-negative integers i, grown on demand: the
    lgamma grids by default, the log tables with fill=np.log.  A lookup
    replaces the transcendental in the sampler's hot loops, the collapsed
    marginals, the joint density and the Poisson pmfs."""

    def __init__(self, offset, fill=_lgammas):
        self.offset = float(offset)
        self._fill = fill
        self.vals = np.zeros(0)
        self._grow(1024)

    def _grow(self, size):
        args = self.offset + np.arange(len(self.vals), size)
        self.vals = np.append(self.vals, self._fill(args))

    def take(self, idx):
        """The values at the integer indices idx, of any shape."""
        try:
            return self.vals.take(idx)
        except IndexError:
            self._grow(1 << int(np.max(idx) + 1).bit_length())
            return self.vals.take(idx)


_GRIDS = {}
_LOG_GRIDS = {}


def _grid(offset):
    """The lgamma grid of offset."""
    try:
        return _GRIDS[offset]
    except KeyError:
        return _GRIDS.setdefault(offset, _Grid(offset))


def _log_grid(offset):
    """The log table of offset: log(offset + n) for the integer sizes n."""
    try:
        return _LOG_GRIDS[offset]
    except KeyError:
        return _LOG_GRIDS.setdefault(offset, _Grid(offset, np.log))


_UNIT = _grid(1.0)      # lgamma(1 + y) = log y!


DP_MIP = "dp-mip"
DP_MMVP = "dp-mmvp"
HMM_DP_MIP = "hmm-dp-mip"
HMM_DP_MMVP = "hmm-dp-mmvp"
SPARSE_DP_MMVP = "sparse-dp-mmvp"
SPARSE_HMM_DP_MMVP = "sparse-hmm-dp-mmvp"

ALL_KINDS = (DP_MIP, DP_MMVP, HMM_DP_MIP, HMM_DP_MMVP,
             SPARSE_DP_MMVP, SPARSE_HMM_DP_MMVP)


def is_temporal(kind):
    return kind in (HMM_DP_MIP, HMM_DP_MMVP, SPARSE_HMM_DP_MMVP)


def is_sparse(kind):
    return kind in (SPARSE_DP_MMVP, SPARSE_HMM_DP_MMVP)


def is_diagonal(kind):
    return kind in (DP_MIP, HMM_DP_MIP)


def check_kind(kind):
    if kind not in ALL_KINDS:
        raise ValueError(f"kind {kind!r} is not one of {ALL_KINDS}")


@dataclass(frozen=True)
class Hyperparams:
    """Prior hyperparameters shared by all model variants.

    Gamma parameters are shape/RATE: the collapsed posterior denominator
    (b + n)^(a + S) is only consistent with rate semantics.
    """

    a_bar: float = 1.0    # Gamma shape for active-block rates
    b_bar: float = 1.0    # Gamma rate for active-block rates
    a_hat: float = 1.0    # Gamma shape for noise rates
    b_hat: float = 10.0   # Gamma rate for noise rates; keeps noise means small
    a_prime: float = 1.0  # Beta(a', b') over per-dimension activity
    b_prime: float = 1.0
    alpha: float = 1.0    # concentration of the per-row/cluster process
    gamma: float = 1.0    # top-level stick-breaking concentration

    def __post_init__(self):
        for name in ("a_bar", "b_bar", "a_hat", "b_hat",
                     "a_prime", "b_prime", "alpha", "gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"hyperparameter {name} must be positive and finite")


@dataclass(frozen=True)
class SMVPParams:
    """Sparse variant: correlated rates on active dims, noise rates elsewhere.

    Lambda entries are only meaningful where b_j = b_l = 1; inactive
    dimensions emit independent Poisson(lambda_hat_j) counts.  With every
    dimension active it is the full multivariate Poisson (MVP).
    """

    Lambda: np.ndarray
    lambda_hat: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.Lambda, dtype=float)
        lhat = np.asarray(self.lambda_hat, dtype=float)
        b = np.asarray(self.b, dtype=np.int8)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError("Lambda must be a square matrix")
        if lhat.shape != (lam.shape[0],) or b.shape != (lam.shape[0],):
            raise ValueError("lambda_hat and b must match Lambda's dimension")
        if np.any(lhat < 0):
            raise ValueError("lambda_hat must be non-negative")
        if not np.all((b == 0) | (b == 1)):
            raise ValueError("b must be binary")
        act = b.astype(bool)
        sub = lam[np.ix_(act, act)]
        if not np.allclose(sub, sub.T) or np.any(sub < 0):
            raise ValueError("Lambda must be symmetric non-negative on active dims")
        object.__setattr__(self, "Lambda", lam)
        object.__setattr__(self, "lambda_hat", lhat)
        object.__setattr__(self, "b", b)

    @property
    def dim(self):
        return self.Lambda.shape[0]


def sample_smvp(params: SMVPParams, rng, size=None) -> np.ndarray:
    """Draw one sparse count vector: MVP on active dims, noise elsewhere.

    On the active dims X_j = sum_l Y_jl with Y symmetric, so E(X_j) =
    sum_l lambda_jl and Cov(X_j, X_l) = lambda_jl for j != l.  With size=n,
    n draws as the rows of an (n, M) array, the same draws as n calls in
    turn.
    """
    active, noise = np.flatnonzero(params.b), np.flatnonzero(params.b == 0)
    j, l = (active[k] for k in np.triu_indices(len(active)))
    rates = np.concatenate([params.Lambda[j, l], params.lambda_hat[noise]])
    return _row_sums(rates, np.concatenate([j, noise]), np.concatenate([l, noise]),
                     params.dim, rng, size)


def _row_sums(rates, j, l, dim, rng, size):
    """Row sums of symmetric count matrices whose entries (j[p], l[p]) and
    (l[p], j[p]) hold one Poisson(rates[p]) draw, all other entries 0.  One
    Poisson call over rates makes each matrix, so size=n draws the rows of
    an (n, dim) array exactly as n calls in turn would."""
    to_rows = np.zeros((len(rates), dim), dtype=np.int64)
    to_rows[np.arange(len(rates)), j] = 1
    to_rows[np.arange(len(rates)), l] = 1
    y = rng.poisson(rates, size=None if size is None else (size, len(rates)))
    return y @ to_rows


def _log_f(s, n, log_fact_sum, shape, rate):
    """log Gamma(shape+s) - (shape+s) log(rate+n) - log_fact_sum, broadcast
    over integer counts s."""
    s = np.asarray(s, dtype=np.int64)
    n = np.asarray(n, dtype=float)
    return _grid(shape).take(s) - (shape + s) * np.log(rate + n) - log_fact_sum


@functools.cache
def _log_f_empty(shape, rate):
    """_log_f of an empty factor; it depends on the prior alone."""
    return _log_f(0, 0, 0.0, shape, rate)


def log_marginal(S, n, log_fact_sum, shape, rate):
    """Normalised collapsed factor: the log marginal likelihood of n pooled
    Poisson observations summing to the integer count S under a
    Gamma(shape, rate) prior, with log_fact_sum their accumulated log(Y!)
    terms; i.e. the kernel minus its value on an empty factor.  Broadcast."""
    return _log_f(S, n, log_fact_sum, shape, rate) - _log_f_empty(shape, rate)


def mu_from_params(params: SMVPParams) -> np.ndarray:
    """Per-dimension emission means: row sums on the active block, noise rates
    elsewhere.  With all dims active this reduces to Lambda @ 1."""
    b = params.b.astype(float)
    active_rows = b * (params.Lambda @ b)
    return active_rows + (1.0 - b) * params.lambda_hat


def log_poisson(X, mu) -> np.ndarray:
    """Joint log-pmf of count vectors X under independent Poisson coordinates
    of means mu, along the last axis and broadcast over the others: a (T, 1,
    M) X against (K, M) means gives the (T, K) table of a decoding pass.
    mu_i = 0 with X_i > 0 gives -inf, a legal value."""
    X = np.asarray(X, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        xlog = np.where(X > 0, X * np.log(mu), 0.0)
    return (xlog - mu).sum(axis=-1) - _UNIT.take(X.astype(np.int64)).sum(axis=-1)
