"""Trace-replay cache simulation: plain LRU and the preloading variant.

Both simulators replay the columns of an `ingest.Trace` (a list of
`TraceEvent` is converted once) and account one hit or miss per covered
block of each read request; writes bypass the read cache entirely.  The
preloading simulator additionally closes each time slice by feeding the
aggregated counts to the decoder and inserting the predicted cluster's
blocks (in ascending id order, uninstrumented) before the next slice's
requests arrive.

Inserting ascending distinct blocks b_1 < ... < b_n into an LRU cache of
capacity C leaves exactly the last min(n, C) of them, in that order, whatever
the cache held before.  So a preload places only the top C ids of the
predicted set, which is sorted once per run; its volume and the preload log
still count the whole set.
"""

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .ingest import BinningConfig, as_trace
from . import predict


class LRUCache:
    """Fixed-capacity block set with least-recently-used eviction."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._blocks = OrderedDict()

    def __len__(self):
        return len(self._blocks)

    def __contains__(self, block):
        return block in self._blocks

    def access(self, block) -> bool:
        """Service one request: True on hit (refreshes recency), False on miss
        (inserts the block, evicting the LRU victim when full)."""
        return self.access_all((block,)) == 1

    def insert(self, block):
        """Place a block without recording a hit or miss."""
        if block in self._blocks:
            self._blocks.move_to_end(block)
            return
        if len(self._blocks) >= self.capacity:
            self._blocks.popitem(last=False)
        self._blocks[block] = None

    def insert_distinct(self, blocks):
        """insert() each of a sequence of distinct blocks in turn.  When there
        are at least capacity of them, the last capacity blocks make up the
        whole cache afterwards, least recent first, so only they are placed."""
        if len(blocks) >= self.capacity:
            self._blocks = OrderedDict.fromkeys(blocks[len(blocks) - self.capacity:])
            return
        for block in blocks:
            self.insert(block)

    def access_all(self, blocks, outcomes=None) -> int:
        """access() each block in turn; return the number of hits and, when
        outcomes is a list, append each block's hit flag to it."""
        cache, capacity, hits = self._blocks, self.capacity, 0
        for block in blocks:
            hit = block in cache
            if hit:
                cache.move_to_end(block)
                hits += 1
            else:
                if len(cache) >= capacity:
                    cache.popitem(last=False)
                cache[block] = None
            if outcomes is not None:
                outcomes.append(hit)
        return hits


@dataclass
class SimReport:
    """Hit/miss accounting of one simulator run."""

    hits: int
    misses: int
    hitrate: float
    preload_volumes: list = field(default_factory=list)
    wall_clock: float = 0.0
    outcomes: list = None  # optional per-request hit/miss sequence

    @classmethod
    def from_counts(cls, hits, misses, preload_volumes=None, wall_clock=0.0,
                    outcomes=None):
        total = hits + misses
        return cls(hits=hits, misses=misses,
                   hitrate=hits / total if total else 0.0,
                   preload_volumes=preload_volumes or [],
                   wall_clock=wall_clock, outcomes=outcomes)

    def summary(self):
        return (f"requests={self.hits + self.misses} hits={self.hits} "
                f"misses={self.misses} hitrate={self.hitrate:.4f}")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("hits,misses,hitrate,preloads,wall_clock\n")
            fh.write(f"{self.hits},{self.misses},{self.hitrate:.6f},"
                     f"{sum(self.preload_volumes)},{self.wall_clock:.3f}\n")


def capacity_from_trace(events, fraction) -> int:
    """Cache capacity as a fraction of the trace footprint (distinct blocks
    touched), never below one block."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    ids, _ = as_trace(events).block_ids()
    return max(1, math.ceil(fraction * len(np.unique(ids))))


def simulate_baseline(events, capacity, record_outcomes=False) -> SimReport:
    """Replay the read requests against a plain LRU cache."""
    started = time.monotonic()
    ids, _ = as_trace(events).reads().block_ids()
    outcomes = [] if record_outcomes else None
    hits = LRUCache(capacity).access_all(ids.tolist(), outcomes)
    return SimReport.from_counts(hits, len(ids) - hits,
                                 wall_clock=time.monotonic() - started,
                                 outcomes=outcomes)


def simulate_preloading(events, model, access_map, binning: BinningConfig,
                        capacity, record_outcomes=False,
                        preload_log=None) -> SimReport:
    """Replay with predictive preloading at every slice boundary.

    The just-completed slice is aggregated with the same binning the model was
    trained under, fed to the decoder, and the predicted cluster's blocks are
    inserted in ascending id order.  Preload insertions are not counted as
    hits or misses.  An initial preload fires before any slice completes, and
    every request, writes included, closes the slices before its own.
    """
    if model.M != binning.M:
        raise ConfigError(
            f"model was fitted with {model.M} bins but binning has {binning.M}")
    started = time.monotonic()
    trace = as_trace(events, binning.block_size)
    reads = trace.reads()
    n_slices = trace.slice_count(binning.nu)
    X = binning.slice_counts(reads, n_slices)
    ids, bounds = reads.blocks_by_slice(binning.nu, n_slices)
    blocks = ids.tolist()
    cache = LRUCache(capacity)
    decoder = predict.new_decoder(model)
    hits = 0
    outcomes = [] if record_outcomes else None
    preload_volumes = []
    ascending = {}  # predicted set -> its ids in ascending order

    def preload():
        predicted = predict.predict_blocks(decoder, model, access_map)
        if predicted not in ascending:
            ascending[predicted] = sorted(predicted)
        cache.insert_distinct(ascending[predicted])
        preload_volumes.append(len(predicted))
        if preload_log is not None:
            preload_log.append(ascending[predicted])

    preload()  # before any slice completes, from the initial distribution
    for s in range(n_slices):
        if s:
            predict.decoder_observe(decoder, model, X[s - 1])
            preload()
        hits += cache.access_all(blocks[bounds[s]:bounds[s + 1]], outcomes)
    return SimReport.from_counts(hits, len(blocks) - hits,
                                 preload_volumes=preload_volumes,
                                 wall_clock=time.monotonic() - started,
                                 outcomes=outcomes)
