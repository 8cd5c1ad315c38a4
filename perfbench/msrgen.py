"""Heavy synthetic block trace in the MSR Cambridge CSV layout.

Columns (Narayanan et al., FAST 2008): Timestamp in Windows FILETIME ticks
(100 ns), Hostname, DiskNumber, Type (Read/Write), Offset and Size in bytes,
ResponseTime in ticks.  Each slice reads one of three motifs in a fixed
cycle plus single-block noise reads from a large pool, and interleaves
multi-block writes to the same pool.  The motifs sit above the pool so that
ascending-order preloads keep them when the predicted set overflows the
cache.
"""

from dataclasses import dataclass

import numpy as np

TICKS_PER_SEC = 10_000_000

PARAMS = {
    "T": 400,                      # slices
    "slice_secs": 30,
    "motifs": 3,                   # read in the cycle 0, 1, 2, 0, ...
    "motif_blocks": 400,           # contiguous blocks per motif
    "motif_base": 40_000,          # first block of motif 0
    "motif_stride": 10_000,        # block distance between motifs
    "noise_reads": 80,             # single-block reads per slice
    "noise_pool": 30_000,          # noise and writes hit blocks [0, pool)
    "write_share": 0.3,            # mean writes per slice / reads per slice
    "write_max_blocks": 8,         # writes cover 1..8 blocks
    "block_size": 4096,
    "hostname": "usr",
    "disk": 0,
    "filetime_origin": 128_166_372_000_000_000,  # 2007-02-22 17:00 UTC
}


@dataclass
class MsrTrace:
    """What the benchmark needs to check the CLI's outputs on the trace."""

    events: int
    reads: int
    labels: np.ndarray        # planted motif of every slice
    read_blocks: np.ndarray   # read blocks per slice


def write_msr_trace(path, seed):
    """Write the trace to path and return its summary.

    Events sit a guard band away from slice boundaries, except the very first
    one, which anchors time zero.  Float rounding of 17-digit FILETIME values
    therefore cannot move an event into a neighbouring slice.
    """
    p = PARAMS
    rng = np.random.default_rng(seed)
    T = p["T"]
    slice_ticks = p["slice_secs"] * TICKS_PER_SEC
    guard = slice_ticks // 100
    bs = p["block_size"]
    labels = np.arange(T) % p["motifs"]
    read_blocks = np.zeros(T, dtype=np.int64)
    n_events = 0
    with open(path, "w") as fh:
        for t in range(T):
            first = p["motif_base"] + int(labels[t]) * p["motif_stride"]
            reads = np.concatenate([
                np.arange(first, first + p["motif_blocks"]),
                rng.integers(0, p["noise_pool"], size=p["noise_reads"])])
            n_w = int(rng.poisson(p["write_share"] * len(reads)))
            w_blocks = rng.integers(1, p["write_max_blocks"] + 1, size=n_w)
            w_start = rng.integers(0, p["noise_pool"] - p["write_max_blocks"] + 1,
                                   size=n_w)
            is_read = np.concatenate([np.ones(len(reads), dtype=bool),
                                      np.zeros(n_w, dtype=bool)])
            start = np.concatenate([reads, w_start])
            size = np.concatenate([np.ones(len(reads), dtype=np.int64), w_blocks])
            order = rng.permutation(len(start))
            n = len(order)
            ticks = (p["filetime_origin"] + t * slice_ticks + guard
                     + np.arange(n) * (slice_ticks - 2 * guard) // n)
            if t == 0:
                ticks[0] = p["filetime_origin"]
            resp = rng.integers(500, 200_000, size=n)
            host, disk = p["hostname"], p["disk"]
            fh.write("".join(
                f"{ticks[i]},{host},{disk},{'Read' if is_read[q] else 'Write'},"
                f"{start[q] * bs},{size[q] * bs},{resp[i]}\n"
                for i, q in enumerate(order)))
            read_blocks[t] = len(reads)
            n_events += n
    return MsrTrace(events=n_events, reads=int(read_blocks.sum()),
                    labels=labels, read_blocks=read_blocks)
