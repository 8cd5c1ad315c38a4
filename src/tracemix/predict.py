"""Point estimates, the cluster-to-blocks access map, and the online decoder.

The decoder runs a log-space Viterbi pass over observed slices and, before the
next slice arrives, scores each cluster with its own most likely emission (the
per-coordinate Poisson mode, i.e. the floored mean) to pick the state whose
raw accesses get preloaded.
"""

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .ingest import BinningConfig, decode_sets, distinct, encode_sets, load_npz
from .models import (Hyperparams, SMVPParams, check_kind, is_diagonal, is_sparse,
                     is_temporal, log_poisson, mu_from_params)

MODEL_VERSION = 1

_NO_BLOCKS = np.zeros(0, dtype=np.int64)


@dataclass
class FittedModel:
    """Point estimates extracted from posterior samples."""

    K: int
    pi: np.ndarray          # (K, K) transition rows (mixture weights when non-temporal)
    pi0: np.ndarray         # (K,) initial distribution
    mu: np.ndarray          # (K, M) emission means
    Lambda: np.ndarray      # (K, M, M) rate estimates, zero outside the active set
    lambda_hat: np.ndarray  # (M,) noise rate estimates
    b: np.ndarray           # (K, M) activity point estimates
    hp: Hyperparams
    kind: str

    def __post_init__(self):
        check_kind(self.kind)
        self.pi = np.asarray(self.pi, dtype=float)
        self.pi0 = np.asarray(self.pi0, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        K = self.K
        for name, fits in (("pi", self.pi.shape == (K, K)), ("pi0", self.pi0.shape == (K,)),
                           ("mu", self.mu.ndim == 2 and len(self.mu) == K)):
            v = getattr(self, name)
            if not fits:
                raise ValueError(f"{name} of shape {v.shape} does not fit K = {K}")
            if not np.all(np.isfinite(v) & (v >= 0)):
                raise ValueError(f"{name} must be finite and non-negative")
        if not np.allclose(self.pi.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("pi rows must sum to 1")
        if not np.isclose(self.pi0.sum(), 1.0, atol=1e-9):
            raise ValueError("pi0 must sum to 1")

    @property
    def M(self):
        return self.mu.shape[1]


@dataclass(frozen=True)
class AccessMap:
    """Cluster id -> union of the raw block accesses of its training slices,
    as a sorted, distinct int64 array."""

    H: dict

    def blocks_for(self, k) -> np.ndarray:
        """H(k), or an empty array for a cluster no training slice joined."""
        return self.H.get(int(k), _NO_BLOCKS)


@dataclass
class DecoderState:
    """Viterbi scores after the last observed slice plus backpointers."""

    omega: np.ndarray
    psi: list = field(default_factory=list)
    t: int = 0


def estimate_params(samples) -> FittedModel:
    """Point estimates from posterior samples.

    Rates and transitions are the means of their collapsed conditionals given
    the final sample's configuration (cross-sample averaging is ill-defined
    under label switching); activity is the thresholded mean over the samples
    whose K and Z are identical to the final sample's, wherever they fall.
    """
    if not samples:
        raise ValueError("need at least one posterior sample")
    final = samples[-1]
    hp = final.hp
    K, M = final.K, final.M
    kind = final.kind

    if is_sparse(kind):
        # average activity only over samples sharing the final labeling;
        # cluster ids switch across unrelated samples and would scramble rows
        rows = [s.b for s in samples
                if s.K == K and np.array_equal(s.Z, final.Z)]
        b_pt = (np.mean(rows, axis=0) >= 0.5).astype(np.int8)
    else:
        b_pt = np.ones((K, M), dtype=np.int8)

    lam = (hp.a_bar + final.S.astype(float)) / (hp.b_bar + final.n_k.astype(float)[:, None, None])
    if is_diagonal(kind):
        mask = np.broadcast_to(np.eye(M, dtype=bool), lam.shape)
    elif is_sparse(kind):
        mask = np.stack([np.outer(r, r).astype(bool) for r in b_pt])
    else:
        mask = np.ones(lam.shape, dtype=bool)
    lam = np.where(mask, lam, 0.0)

    lam_hat = (hp.a_hat + final.S_hat.astype(float)) / (hp.b_hat + final.n_hat.astype(float))

    beta_k = final.beta[:K]
    if is_temporal(kind):
        rows = final.n_trans.astype(float) + hp.alpha * beta_k[None, :]
        pi = rows / rows.sum(axis=1, keepdims=True)
    else:
        w = final.n_k.astype(float) + hp.alpha * beta_k
        w = w / w.sum()
        pi = np.tile(w, (K, 1))
    pi0 = beta_k / beta_k.sum()

    mu = np.stack([mu_from_params(SMVPParams(lam[k], lam_hat, b_pt[k]))
                   for k in range(K)])
    return FittedModel(K=K, pi=pi, pi0=pi0, mu=mu, Lambda=lam,
                       lambda_hat=lam_hat, b=b_pt, hp=hp, kind=kind)


def build_access_map(Z, A) -> AccessMap:
    """H(k) = union of the access sets of the slices assigned to cluster k."""
    if len(Z) != len(A):
        raise ValueError("Z and A must have the same length")
    members = {}
    for k, acc in zip(np.asarray(Z).tolist(), A):
        members.setdefault(k, []).append(acc)
    return AccessMap({k: distinct(np.concatenate(m)) for k, m in members.items()})


# ---------------------------------------------------------------------------
# decoding

def new_decoder(model: FittedModel) -> DecoderState:
    return DecoderState(omega=np.zeros(model.K), psi=[], t=0)


def decoder_observe(state: DecoderState, model: FittedModel, x) -> DecoderState:
    """Absorb one observed slice: standard Viterbi update in log space.
    Argmax ties break toward the lowest cluster index."""
    emis = log_poisson(x, model.mu)
    with np.errstate(divide="ignore"):
        if state.t == 0:
            state.omega = np.log(model.pi0) + emis
            state.psi.append(np.zeros(model.K, dtype=np.int64))
        else:
            scores = state.omega[:, None] + np.log(model.pi)
            best = np.argmax(scores, axis=0)
            state.omega = scores[best, np.arange(model.K)] + emis
            state.psi.append(best)
    state.t += 1
    return state


def decoder_predict_next(state: DecoderState, model: FittedModel) -> int:
    """Most likely next cluster before its emission is observed: the next
    emission is replaced by each cluster's own modal count vector (the floored
    mean, where the Poisson pmf peaks)."""
    mode_scores = log_poisson(np.floor(model.mu), model.mu)
    with np.errstate(divide="ignore"):
        if state.t == 0:
            w = np.log(model.pi0) + mode_scores
        else:
            w = np.max(state.omega[:, None] + np.log(model.pi), axis=0) + mode_scores
    return int(np.argmax(w))


def decode_path(state: DecoderState) -> np.ndarray:
    """Most likely cluster sequence for the observed slices so far."""
    if state.t == 0:
        return np.zeros(0, dtype=np.int64)
    path = np.empty(state.t, dtype=np.int64)
    path[-1] = int(np.argmax(state.omega))
    for t in range(state.t - 1, 0, -1):
        path[t - 1] = state.psi[t][path[t]]
    return path


def predict_blocks(state: DecoderState, model: FittedModel,
                   access_map: AccessMap) -> np.ndarray:
    """Blocks to preload for the upcoming slice: the access-map entry of the
    predicted next cluster, a sorted int64 array (empty when the cluster was
    never seen)."""
    return access_map.blocks_for(decoder_predict_next(state, model))


# ---------------------------------------------------------------------------
# model file round-trip

def save_model(model: FittedModel, access_map: AccessMap, binning: BinningConfig, path):
    """Write the fitted model, its access map and the binning it was trained
    under to a versioned .npz file (block ids as 64-bit integers)."""
    keys = sorted(access_map.H)
    np.savez(
        path,
        version=np.int64(MODEL_VERSION),
        kind=np.array(model.kind),
        K=np.int64(model.K),
        pi=model.pi, pi0=model.pi0, mu=model.mu,
        Lambda=model.Lambda, lambda_hat=model.lambda_hat, b=model.b,
        hp=np.array(astuple(model.hp)),
        map_keys=np.asarray(keys, dtype=np.int64),
        **encode_sets("map", [access_map.H[k] for k in keys], binning),
    )


def load_model(path):
    """Read back (FittedModel, AccessMap, BinningConfig)."""
    with load_npz(path) as z:
        if int(z["version"]) != MODEL_VERSION:
            raise ConfigError(f"unsupported model version {int(z['version'])}")
        if z["hp"].shape != (len(fields(Hyperparams)),):
            raise ValueError(f"hp of shape {z['hp'].shape} does not hold the "
                             f"{len(fields(Hyperparams))} hyperparameters")
        hp = Hyperparams(*(float(v) for v in z["hp"]))
        model = FittedModel(
            K=int(z["K"]), pi=z["pi"], pi0=z["pi0"], mu=z["mu"],
            Lambda=z["Lambda"], lambda_hat=z["lambda_hat"], b=z["b"],
            hp=hp, kind=str(z["kind"]))
        sets, binning = decode_sets(z, "map")
        H = dict(zip(z["map_keys"].tolist(), sets, strict=True))
        return model, AccessMap(H), binning
