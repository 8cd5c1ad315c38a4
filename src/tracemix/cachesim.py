"""Trace-replay cache simulation: plain LRU and the preloading variant.

Both simulators replay the columns of an `ingest.Trace` and account one hit
or miss per covered block of each read request; writes bypass the read cache
entirely.  The preloading simulator additionally closes each time slice by
feeding the aggregated counts to the decoder and inserting the predicted
cluster's blocks (in ascending id order, uninstrumented) before the next
slice's requests arrive.

Inserting ascending distinct blocks b_1 < ... < b_n into an LRU cache of
capacity C leaves exactly the last min(n, C) of them, in that order, whatever
the cache held before.  Access-map entries arrive as sorted distinct arrays,
so a preload converts and places only the last C ids of the predicted set;
its volume and the preload log still count the whole set.

Memory: beyond the trace's columns (25 bytes per row) and the cache, the
simulators and `capacity_from_trace` expand block ids, and the simulators
turn them into Python ints, for about `ingest.GROUP_ROWS` rows at a time,
cut at slice boundaries for the preloading replay.  So what they hold does
not grow with the trace, except the footprint count, which holds up to
twice the footprint's ids.
"""

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .ingest import BinningConfig, Trace, check_block_size, distinct
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

    def insert_distinct(self, blocks):
        """Place a sequence of distinct blocks in turn, as access_all does but
        without counting hits.  When there are at least capacity of them, the
        last capacity blocks make up the whole cache afterwards, least recent
        first, so only they are placed."""
        if len(blocks) >= self.capacity:
            self._blocks = OrderedDict.fromkeys(blocks[len(blocks) - self.capacity:])
            return
        self.access_all(blocks)

    def access_all(self, blocks, outcomes=None) -> int:
        """Service each block's request in turn: a hit refreshes its recency,
        a miss inserts it, evicting the LRU victim when full.  Return the
        number of hits and, when outcomes is a list, append each block's hit
        flag to it."""
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
    """Hit/miss accounting of one simulator run; the hit rate is derived from
    the counts (0 when no block was requested)."""

    hits: int
    misses: int
    preload_volumes: list = field(default_factory=list)
    wall_clock: float = 0.0
    outcomes: list = None  # optional per-request hit/miss sequence

    @property
    def hitrate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self):
        return (f"requests={self.hits + self.misses} hits={self.hits} "
                f"misses={self.misses} hitrate={self.hitrate:.4f}")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("hits,misses,hitrate,preloads,wall_clock\n")
            fh.write(f"{self.hits},{self.misses},{self.hitrate:.6f},"
                     f"{sum(self.preload_volumes)},{self.wall_clock:.3f}\n")


def capacity_from_trace(trace: Trace, fraction) -> int:
    """Cache capacity as a fraction of the trace footprint (distinct blocks
    touched), never below one block."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    seen, pending = np.zeros(0, dtype=np.int64), []
    for rows in trace.row_groups():
        pending.append(distinct(rows.block_ids()[0]))
        # merge once the pending ids outnumber the merged ones: each id is
        # merged a few times, and at most twice the footprint is held
        if sum(map(len, pending)) > len(seen):
            seen, pending = distinct(np.concatenate([seen, *pending])), []
    footprint = len(distinct(np.concatenate([seen, *pending])))
    return max(1, math.ceil(fraction * footprint))


def simulate_baseline(trace: Trace, capacity, record_outcomes=False) -> SimReport:
    """Replay the read requests against a plain LRU cache."""
    started = time.monotonic()
    cache = LRUCache(capacity)
    outcomes = [] if record_outcomes else None
    hits = blocks = 0
    for rows in trace.row_groups():
        ids = rows.reads().block_ids()[0].tolist()
        hits += cache.access_all(ids, outcomes)
        blocks += len(ids)
    return SimReport(hits, blocks - hits, wall_clock=time.monotonic() - started,
                     outcomes=outcomes)


def simulate_preloading(trace: Trace, model, access_map, binning: BinningConfig,
                        capacity, record_outcomes=False,
                        preload_log=None) -> SimReport:
    """Replay with predictive preloading at every slice boundary.

    The just-completed slice is aggregated with the same binning the model was
    trained under, whose block size the trace must share, fed to the decoder,
    and the predicted cluster's blocks are inserted in ascending id order.
    Preload insertions are not counted as hits or misses.  An initial preload
    fires before any slice completes, and every request, writes included,
    closes the slices before its own.  When preload_log is a list, each
    predicted array is appended to it.
    """
    if model.M != binning.M:
        raise ConfigError(
            f"model was fitted with {model.M} bins but binning has {binning.M}")
    check_block_size(trace, binning)
    started = time.monotonic()
    cache = LRUCache(capacity)
    decoder = predict.new_decoder(model)
    hits = n_blocks = 0
    outcomes = [] if record_outcomes else None
    preload_volumes = []

    def preload():
        predicted = predict.predict_blocks(decoder, model, access_map)
        cache.insert_distinct(predicted[-capacity:].tolist())
        preload_volumes.append(len(predicted))
        if preload_log is not None:
            preload_log.append(predicted)

    preload()  # before any slice completes, from the initial distribution
    n_slices = trace.slice_count(binning.nu)
    for first, stop, rows in trace.slice_groups(binning.nu, n_slices):
        X, ids, bounds = binning.slice_counts(rows.reads(), first, stop)
        blocks = ids.tolist()
        n_blocks += len(blocks)
        for i in range(stop - first):
            hits += cache.access_all(blocks[bounds[i]:bounds[i + 1]], outcomes)
            if first + i + 1 < n_slices:
                predict.decoder_observe(decoder, model, X[i])
                preload()
    return SimReport(hits, n_blocks - hits, preload_volumes,
                     wall_clock=time.monotonic() - started, outcomes=outcomes)
