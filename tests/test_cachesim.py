import math
from dataclasses import replace

import numpy as np
import pytest

from tracemix import gibbs, synth
from tracemix.cachesim import (LRUCache, capacity_from_trace,
                               simulate_baseline, simulate_preloading)
from tracemix.errors import ConfigError
from tracemix.ingest import (BinningConfig, TraceEvent, blocks_covered,
                             infer_lba_range)
from tracemix.models import Hyperparams
from tracemix.predict import AccessMap, FittedModel

import oracles


def read(ts, block, block_size=4096):
    return TraceEvent(ts, "read", block * block_size, block_size,
                      (block,))


def write(ts, block, block_size=4096):
    return TraceEvent(ts, "write", block * block_size, block_size,
                      (block,))


def identity_model(K, M=1):
    # emission means make cluster k scream "k"; uniform start
    mu = np.zeros((K, M))
    for k in range(K):
        mu[k, k % M] = 10.0 * (k + 1)
    pi = np.full((K, K), 1.0 / K)
    return FittedModel(K=K, pi=pi, pi0=np.full(K, 1.0 / K), mu=mu,
                       Lambda=np.zeros((K, M, M)), lambda_hat=np.zeros(M),
                       b=np.ones((K, M), dtype=np.int8), hp=Hyperparams(),
                       kind=gibbs.SPARSE_HMM_DP_MMVP)


# ---------------------------------------------------------------------------
# plain LRU

def test_repeated_single_block():
    events = [read(t, 7) for t in range(10)]
    rep = simulate_baseline(events, capacity=1)
    assert rep.misses == 1 and rep.hits == 9
    assert rep.hitrate == pytest.approx(0.9)


def test_cyclic_scan_worst_case():
    events = [read(t, t % 5) for t in range(50)]
    rep = simulate_baseline(events, capacity=4)
    assert rep.hits == 0
    assert rep.hitrate == 0.0


def test_matches_reference_lru():
    rng = np.random.default_rng(0)
    events = [read(float(t), int(rng.integers(0, 30))) for t in range(500)]
    for cap in (1, 3, 10, 25):
        rep = simulate_baseline(events, cap, record_outcomes=True)
        assert rep.outcomes == oracles.reference_lru(events, cap)


def test_multiblock_requests_count_per_block():
    e = TraceEvent(0.0, "read", 0, 3 * 4096, blocks_covered(0, 3 * 4096))
    rep = simulate_baseline([e], capacity=10)
    assert rep.hits + rep.misses == 3


def test_writes_bypass_cache():
    events = [write(0.0, 1), read(1.0, 1)]
    rep = simulate_baseline(events, capacity=4)
    assert rep.hits == 0 and rep.misses == 1


def test_lru_stack_property_on_baseline():
    # classical inclusion: baseline hits never decrease with capacity
    rng = np.random.default_rng(1)
    blocks = rng.integers(0, 40, size=800)
    events = [read(float(t), int(b)) for t, b in enumerate(blocks)]
    hits = [simulate_baseline(events, cap).hits for cap in (1, 2, 4, 8, 16, 32)]
    assert all(a <= b for a, b in zip(hits, hits[1:]))


def test_cache_capacity_bound_holds():
    cache = LRUCache(3)
    for b in range(10):
        cache.access(b)
        assert len(cache) <= 3


@pytest.mark.parametrize("n", [3, 5, 9])
def test_insert_distinct_leaves_what_one_by_one_inserts_leave(n):
    # capacity 5; a pre-filled cache that shares blocks with the insert
    rng = np.random.default_rng(n)
    blocks = sorted(int(b) for b in rng.choice(40, size=n, replace=False))
    full, cut = LRUCache(5), LRUCache(5)
    for cache in (full, cut):
        for b in (blocks[0], 77, 78, blocks[-1]):
            cache.access(b)
    for b in blocks:
        full.insert(b)
    cut.insert_distinct(blocks)
    assert list(cut._blocks) == list(full._blocks)


def test_capacity_from_trace():
    events = [read(float(t), t) for t in range(100)]
    assert capacity_from_trace(events, 0.05) == 5
    assert capacity_from_trace([read(0.0, 1)], 0.5) == 1
    rng = np.random.default_rng(2)
    blocks = [int(b) for b in rng.integers(0, 57, size=300)]
    events = [read(float(t), b) for t, b in enumerate(blocks)]
    assert capacity_from_trace(events, 0.1) == math.ceil(0.1 * len(set(blocks)))


def test_event_lists_at_other_block_sizes():
    # the block size of a TraceEvent list is read off its block ids
    spec = replace(synth.default_trace_spec(seed=3), T=30, block_size=512)
    events = synth.gen_block_trace(spec)
    events += [TraceEvent(t + 0.5, "read", off, size, blocks_covered(off, size, 512))
               for t, (off, size) in enumerate([(100, 3 * 512), (20_000 * 512, 1300),
                                                (511, 2), (0, 512)])]
    events.sort(key=lambda e: e.timestamp)
    footprint = {b for e in events for b in e.block_ids}
    assert capacity_from_trace(events, 0.1) == math.ceil(0.1 * len(footprint))
    for cap in (1, 40, 200):
        rep = simulate_baseline(events, cap, record_outcomes=True)
        assert rep.outcomes == oracles.reference_lru(events, cap)
    offsets = [e.offset for e in events]
    assert infer_lba_range(events) == (min(offsets), max(offsets) + 1)


# ---------------------------------------------------------------------------
# preloading simulator

def binning(M=1, nu=10.0):
    return BinningConfig(M=M, lba_lo=0, lba_hi=M * 100 * 4096, nu=nu)


def test_empty_access_map_equals_baseline():
    rng = np.random.default_rng(3)
    events = [read(float(t) * 0.7, int(rng.integers(0, 25))) for t in range(400)]
    cap = 8
    base = simulate_baseline(events, cap, record_outcomes=True)
    pre = simulate_preloading(events, identity_model(2), AccessMap({}),
                              binning(), cap, record_outcomes=True)
    assert pre.hits == base.hits and pre.misses == base.misses
    assert pre.outcomes == base.outcomes
    assert all(v == 0 for v in pre.preload_volumes)


def test_binning_mismatch_rejected():
    with pytest.raises(ConfigError):
        simulate_preloading([read(0.0, 1)], identity_model(2, M=3),
                            AccessMap({}), binning(M=1), 4)


def test_perfect_oracle_map_beats_baseline():
    # alternating working sets far larger than the cache; a perfect
    # prediction of the next slice's blocks lifts the hitrate
    nu = 10.0
    slices = 40
    set_a = list(range(0, 30))
    set_b = list(range(100, 130))
    events = []
    for s in range(slices):
        blocks = set_a if s % 2 == 0 else set_b
        for i, b in enumerate(blocks):
            events.append(read(s * nu + (i + 1) * nu / (len(blocks) + 2), b))
    cap = 35
    base = simulate_baseline(events, cap)
    # cluster 0 emits ~30 counts in bin 0 (set A slices are low blocks);
    # with M=1 both look alike, so use M=2 and block-id bins
    cfg = BinningConfig(M=2, lba_lo=0, lba_hi=131 * 4096, nu=nu)
    K = 2
    mu = np.array([[30.0, 0.01], [0.01, 30.0]])
    pi = np.array([[0.01, 0.99], [0.99, 0.01]])
    model = FittedModel(K=K, pi=pi, pi0=np.array([0.99, 0.01]), mu=mu,
                        Lambda=np.zeros((K, 2, 2)), lambda_hat=np.zeros(2),
                        b=np.ones((K, 2), dtype=np.int8), hp=Hyperparams(),
                        kind=gibbs.SPARSE_HMM_DP_MMVP)
    amap = AccessMap({0: frozenset(set_a), 1: frozenset(set_b)})
    pre = simulate_preloading(events, model, amap, cfg, cap)
    assert pre.hitrate >= base.hitrate
    assert pre.hitrate > 0.8


def test_preload_insertions_not_counted():
    events = [read(15.0, 5)]  # one slice boundary passes before this read
    model = identity_model(1)
    amap = AccessMap({0: frozenset({1, 2, 3})})
    rep = simulate_preloading(events, model, amap, binning(), 10)
    assert rep.hits + rep.misses == 1
    assert rep.preload_volumes[0] == 3


def test_preload_eviction_order_is_ascending():
    # capacity 2: inserting {1, 2, 3} ascending keeps the two highest ids
    events = [read(15.0, 3), read(15.1, 2), read(15.2, 1)]
    model = identity_model(1)
    amap = AccessMap({0: frozenset({1, 2, 3})})
    rep = simulate_preloading(events, model, amap, binning(), 2,
                              record_outcomes=True)
    assert rep.outcomes[0] is True    # 3 stayed
    assert rep.outcomes[1] is True    # 2 stayed (refreshed after hit on 3)
    assert rep.outcomes[2] is False   # 1 was evicted


def test_report_summary_and_csv(tmp_path):
    events = [read(float(t), t % 3) for t in range(9)]
    rep = simulate_baseline(events, 2)
    assert "hitrate" in rep.summary()
    out = tmp_path / "rep.csv"
    rep.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "hits,misses,hitrate,preloads,wall_clock"
    assert len(lines) == 2
