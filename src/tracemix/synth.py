"""Ground-truth generators: count sequences from a known cluster chain, and
block traces (as `ingest.Trace` columns) with planted long-range repeating
access motifs.

Both exist so that recovery, ordering and hitrate claims can be checked
against a known answer; statistical realism of enterprise workloads is a
non-goal.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .ingest import DEFAULT_BLOCK_SIZE, BinningConfig, CountVectorSequence, Trace
from .models import SMVPParams, sample_smvp


@dataclass
class SynthSpec:
    """Everything needed to generate one fixture.

    For count mode: K_true clusters with SMVP parameters and a transition
    matrix.  For trace mode: a motif library (lists of block ids), a repeating
    per-slice schedule over motif indices, and uniform background noise reads
    drawn from a separate block range.
    """

    K_true: int
    M: int
    T: int
    trans: np.ndarray
    clusters: list
    seed: int = 0
    # trace mode
    motifs: list = None
    pattern: list = None
    nu: float = 30.0
    block_size: int = DEFAULT_BLOCK_SIZE
    noise_rate: float = 0.0          # expected background reads per slice
    noise_block_range: tuple = None  # [lo, hi) block ids for background reads

    def __post_init__(self):
        self.trans = np.asarray(self.trans, dtype=float)
        if self.trans.shape != (self.K_true, self.K_true):
            raise ValueError("trans must be K_true x K_true")
        if not np.allclose(self.trans.sum(axis=1), 1.0):
            raise ValueError("transition rows must sum to 1")
        if len(self.clusters) != self.K_true:
            raise ValueError("need one parameter set per cluster")
        # the trace-mode fields may come from a config file
        for name in ("T", "block_size"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("nu", "noise_rate"):
            value = getattr(self, name)
            if not (_is_int(value) or isinstance(value, float)):
                raise ValueError(f"{name} must be a number")
        span = self.noise_block_range
        if span is not None and not (isinstance(span, (list, tuple)) and len(span) == 2
                                     and all(map(_is_int, span)) and span[0] < span[1]):
            raise ValueError("noise_block_range must be a [lo, hi) pair of integers "
                             "with lo < hi")
        if self.motifs is not None:
            if not (isinstance(self.motifs, list) and all(map(_is_int_list, self.motifs))):
                raise ValueError("motifs must be a list of lists of integer block ids")
            if any(len(m) == 0 for m in self.motifs):
                raise ValueError("motifs must be non-empty")
            if self.T < 1:
                raise ValueError("trace mode needs T >= 1")
            if self.pattern is not None and (
                    not _is_int_list(self.pattern) or not self.pattern
                    or not all(0 <= p < len(self.motifs) for p in self.pattern)):
                raise ValueError("pattern must be a non-empty list of indices "
                                 f"into the {len(self.motifs)} motifs")
            if self.noise_rate > 0 and self.noise_block_range is None:
                raise ValueError("noise_rate > 0 needs a noise_block_range")


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(map(_is_int, v))


def gen_count_sequence(spec: SynthSpec, rng=None):
    """Draw (CountVectorSequence, true Z): Z follows the Markov chain, each
    slice's counts come from its cluster's sparse-MVP parameters."""
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    Z = np.empty(spec.T, dtype=np.int64)
    X = np.empty((spec.T, spec.M), dtype=np.int64)
    k = int(rng.integers(spec.K_true))
    for t in range(spec.T):
        if t > 0:
            k = int(np.searchsorted(np.cumsum(spec.trans[k]), rng.random(),
                                    side="right"))
        Z[t] = k
        X[t] = sample_smvp(spec.clusters[k], rng)
    config = BinningConfig(M=spec.M, lba_lo=0,
                           lba_hi=spec.M * spec.block_size, nu=spec.nu,
                           block_size=spec.block_size)
    seq = CountVectorSequence(X, [np.zeros(0, np.int64) for _ in range(spec.T)], config)
    return seq, Z


def gen_block_trace(spec: SynthSpec, rng=None) -> Trace:
    """Read requests, one block each: per slice t, the scheduled motif's
    blocks once each at evenly spaced times in [t * nu, (t + 1) * nu), plus
    Poisson-many background reads at random blocks.  With zero noise the
    trace is a pure deterministic repetition."""
    if spec.motifs is None or spec.pattern is None:
        raise ValueError("trace mode needs motifs and a schedule pattern")
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    times, blocks = [], []
    for t in range(spec.T):
        motif = spec.motifs[spec.pattern[t % len(spec.pattern)]]
        n_noise = int(rng.poisson(spec.noise_rate)) if spec.noise_rate > 0 else 0
        if n_noise > 0:
            noise = rng.integers(*spec.noise_block_range, size=n_noise)
        else:
            noise = np.zeros(0, dtype=np.int64)
        slots = len(motif) + n_noise
        step = spec.nu / (slots + 1)
        times.append(t * spec.nu + np.arange(1, slots + 1) * step)
        blocks += [np.asarray(motif, dtype=np.int64), noise]
    offset = np.concatenate(blocks) * spec.block_size
    n = len(offset)
    return Trace(np.concatenate(times), np.ones(n, dtype=bool), offset,
                 np.full(n, spec.block_size, dtype=np.int64), spec.block_size)


def write_trace_csv(trace: Trace, path):
    """Dump a trace in the plain CSV format the parser consumes."""
    ops = ["read" if r else "write" for r in trace.is_read.tolist()]
    with open(path, "w") as fh:
        fh.writelines(f"{ts:.6f},{op},{offset},{size}\n" for ts, op, offset, size in zip(
            trace.timestamp.tolist(), ops, trace.offset.tolist(), trace.size.tolist()))


def default_recovery_spec(seed=0) -> SynthSpec:
    """Well-separated three-cluster fixture: disjoint active blocks with
    diagonal rates 5/20/50, mild within-block correlation, sticky chain."""
    K, M, T = 3, 10, 400
    trans = np.full((K, K), 0.05)
    np.fill_diagonal(trans, 0.9)
    clusters = []
    lam_hat = np.full(M, 0.05)
    for k, diag in enumerate((5.0, 20.0, 50.0)):
        active = np.zeros(M, dtype=np.int8)
        active[3 * k:3 * k + 3] = 1
        lam = np.zeros((M, M))
        blk = slice(3 * k, 3 * k + 3)
        lam[blk, blk] = diag / 5.0
        lam[np.arange(M), np.arange(M)] = active * diag
        clusters.append(SMVPParams(lam, lam_hat, active))
    return SynthSpec(K_true=K, M=M, T=T, trans=trans, clusters=clusters,
                     seed=seed)


def default_trace_spec(seed=0) -> SynthSpec:
    """Repeating three-motif trace whose period is far beyond LRU reach.

    Motifs sit in widely separated address regions so a 10-bin aggregation
    gives each one a distinct count signature, and at high block ids so that
    ascending-order preloads keep them when the predicted set overflows the
    cache.  A large low-address noise pool keeps the baseline hitrate small.
    """
    K, T = 3, 400
    trans = np.zeros((K, K))
    for k in range(K):
        trans[k, (k + 1) % K] = 1.0
    motifs = [[(k + 1) * 10_000 + q for q in range(40)] for k in range(K)]
    clusters = [SMVPParams(np.zeros((1, 1)), np.zeros(1), np.ones(1, dtype=np.int8))
                for _ in range(K)]
    return SynthSpec(K_true=K, M=1, T=T, trans=trans, clusters=clusters,
                     seed=seed, motifs=motifs, pattern=[0, 1, 2], nu=30.0,
                     noise_rate=8.0, noise_block_range=(0, 3000))


def default_ordering_spec(seed=0) -> SynthSpec:
    """Fixture whose held-out fit separates the model family.

    Every state is a strongly correlated pair on its own dimensions, so a
    covariance-aware score rewards the correlated models over the independent
    one, while the surrounding near-zero dimensions reward pooled noise rates
    over the full model's per-cluster ones.
    """
    K, M, T = 4, 8, 320
    trans = np.zeros((K, K))
    # sticky cycle: long runs make spurious sub-state splits expensive
    for k in range(K):
        trans[k, k] = 0.85
        trans[k, (k + 1) % K] = 0.15
    lam_hat = np.full(M, 0.3)
    clusters = []
    for k in range(K):
        lam = np.zeros((M, M))
        b = np.zeros(M, dtype=np.int8)
        j0 = 2 * k
        b[j0:j0 + 2] = 1
        lam[j0, j0] = lam[j0 + 1, j0 + 1] = 1.0
        lam[j0, j0 + 1] = lam[j0 + 1, j0] = 4.0
        clusters.append(SMVPParams(lam, lam_hat, b))
    return SynthSpec(K_true=K, M=M, T=T, trans=trans, clusters=clusters,
                     seed=seed)


def spec_from_json(path) -> SynthSpec:
    """Load a trace-mode spec from a config file."""
    with open(path) as fh:
        raw = json.load(fh)
    keys = ("T", "nu", "block_size", "noise_rate", "motifs", "pattern",
            "noise_block_range")
    # replace() runs __post_init__, so the file's values are validated
    return replace(default_trace_spec(seed=raw.get("seed", 0)),
                   **{key: raw[key] for key in keys if key in raw})
