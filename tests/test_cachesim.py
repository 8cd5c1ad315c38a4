import math
from dataclasses import replace

import numpy as np
import pytest

from tracemix import gibbs, ingest, synth
from tracemix.cachesim import (LRUCache, capacity_from_trace,
                               simulate_baseline, simulate_preloading)
from tracemix.errors import ConfigError
from tracemix.ingest import BinningConfig, aggregate, infer_lba_range
from tracemix.models import Hyperparams
from tracemix.predict import AccessMap, FittedModel

import oracles
from traces import trace_of


def read(ts, block, block_size=4096):
    return (ts, "read", block * block_size, block_size)


def write(ts, block, block_size=4096):
    return (ts, "write", block * block_size, block_size)


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
    trace = trace_of([read(t, 7) for t in range(10)])
    rep = simulate_baseline(trace, capacity=1)
    assert rep.misses == 1 and rep.hits == 9
    assert rep.hitrate == pytest.approx(0.9)


def test_cyclic_scan_worst_case():
    trace = trace_of([read(t, t % 5) for t in range(50)])
    rep = simulate_baseline(trace, capacity=4)
    assert rep.hits == 0
    assert rep.hitrate == 0.0


def test_matches_reference_lru():
    rng = np.random.default_rng(0)
    trace = trace_of([read(float(t), int(rng.integers(0, 30))) for t in range(500)])
    for cap in (1, 3, 10, 25):
        rep = simulate_baseline(trace, cap, record_outcomes=True)
        assert rep.outcomes == oracles.reference_lru(list(trace), cap)


def test_multiblock_requests_count_per_block():
    rep = simulate_baseline(trace_of([(0.0, "read", 0, 3 * 4096)]), capacity=10)
    assert rep.hits + rep.misses == 3


def test_writes_bypass_cache():
    trace = trace_of([write(0.0, 1), read(1.0, 1)])
    rep = simulate_baseline(trace, capacity=4)
    assert rep.hits == 0 and rep.misses == 1


def test_lru_stack_property_on_baseline():
    # classical inclusion: baseline hits never decrease with capacity
    rng = np.random.default_rng(1)
    blocks = rng.integers(0, 40, size=800)
    trace = trace_of([read(float(t), int(b)) for t, b in enumerate(blocks)])
    hits = [simulate_baseline(trace, cap).hits for cap in (1, 2, 4, 8, 16, 32)]
    assert all(a <= b for a, b in zip(hits, hits[1:]))


def test_cache_capacity_bound_holds():
    cache = LRUCache(3)
    for b in range(10):
        cache.access_all((b,))
        assert len(cache) <= 3


@pytest.mark.parametrize("n", [3, 5, 9])
def test_insert_distinct_leaves_what_one_by_one_inserts_leave(n):
    # capacity 5; a pre-filled cache that shares blocks with the insert
    rng = np.random.default_rng(n)
    blocks = sorted(int(b) for b in rng.choice(40, size=n, replace=False))
    full, cut = LRUCache(5), LRUCache(5)
    for cache in (full, cut):
        for b in (blocks[0], 77, 78, blocks[-1]):
            cache.access_all((b,))
    for b in blocks:
        full.access_all((b,))
    cut.insert_distinct(blocks)
    assert list(cut._blocks) == list(full._blocks)


def test_capacity_from_trace():
    trace = trace_of([read(float(t), t) for t in range(100)])
    assert capacity_from_trace(trace, 0.05) == 5
    assert capacity_from_trace(trace_of([read(0.0, 1)]), 0.5) == 1
    rng = np.random.default_rng(2)
    blocks = [int(b) for b in rng.integers(0, 57, size=300)]
    trace = trace_of([read(float(t), b) for t, b in enumerate(blocks)])
    assert capacity_from_trace(trace, 0.1) == math.ceil(0.1 * len(set(blocks)))


def test_event_lists_at_other_block_sizes():
    # every layer maps requests to blocks at the trace's own block size
    spec = replace(synth.default_trace_spec(seed=3), T=30, block_size=512)
    rows = [(e.timestamp, e.op, e.offset, e.size) for e in synth.gen_block_trace(spec)]
    rows += [(t + 0.5, "read", off, size)
             for t, (off, size) in enumerate([(100, 3 * 512), (20_000 * 512, 1300),
                                              (511, 2), (0, 512)])]
    trace = trace_of(rows, block_size=512)
    events = list(trace)
    footprint = {b for e in events for b in e.block_ids}
    assert {20_000, 20_001, 20_002, 0, 1} <= footprint
    assert capacity_from_trace(trace, 0.1) == math.ceil(0.1 * len(footprint))
    for cap in (1, 40, 200):
        rep = simulate_baseline(trace, cap, record_outcomes=True)
        assert rep.outcomes == oracles.reference_lru(events, cap)
    offsets = [e.offset for e in events]
    assert infer_lba_range(trace) == (min(offsets), max(offsets) + 1)


# ---------------------------------------------------------------------------
# preloading simulator

def binning(M=1, nu=10.0):
    return BinningConfig(M=M, lba_lo=0, lba_hi=M * 100 * 4096, nu=nu)


def test_empty_access_map_equals_baseline():
    rng = np.random.default_rng(3)
    trace = trace_of([read(float(t) * 0.7, int(rng.integers(0, 25))) for t in range(400)])
    cap = 8
    base = simulate_baseline(trace, cap, record_outcomes=True)
    pre = simulate_preloading(trace, identity_model(2), AccessMap({}),
                              binning(), cap, record_outcomes=True)
    assert pre.hits == base.hits and pre.misses == base.misses
    assert pre.outcomes == base.outcomes
    assert all(v == 0 for v in pre.preload_volumes)


def test_binning_mismatch_rejected():
    with pytest.raises(ConfigError):
        simulate_preloading(trace_of([read(0.0, 1)]), identity_model(2, M=3),
                            AccessMap({}), binning(M=1), 4)


def test_block_size_mismatch_rejected():
    trace = trace_of([read(0.0, 1, block_size=512)], block_size=512)
    with pytest.raises(ValueError, match="block size 512.*4096"):
        simulate_preloading(trace, identity_model(1), AccessMap({}), binning(), 4)


def test_perfect_oracle_map_beats_baseline():
    # alternating working sets far larger than the cache; a perfect
    # prediction of the next slice's blocks lifts the hitrate
    nu = 10.0
    slices = 40
    set_a = list(range(0, 30))
    set_b = list(range(100, 130))
    rows = []
    for s in range(slices):
        blocks = set_a if s % 2 == 0 else set_b
        for i, b in enumerate(blocks):
            rows.append(read(s * nu + (i + 1) * nu / (len(blocks) + 2), b))
    trace = trace_of(rows)
    cap = 35
    base = simulate_baseline(trace, cap)
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
    amap = AccessMap({0: np.array(set_a, dtype=np.int64),
                      1: np.array(set_b, dtype=np.int64)})
    pre = simulate_preloading(trace, model, amap, cfg, cap)
    assert pre.hitrate >= base.hitrate
    assert pre.hitrate > 0.8


def test_preload_insertions_not_counted():
    trace = trace_of([read(15.0, 5)])  # one slice boundary passes before this read
    model = identity_model(1)
    amap = AccessMap({0: np.array([1, 2, 3], dtype=np.int64)})
    rep = simulate_preloading(trace, model, amap, binning(), 10)
    assert rep.hits + rep.misses == 1
    assert rep.preload_volumes[0] == 3


def test_preload_eviction_order_is_ascending():
    # capacity 2: inserting {1, 2, 3} ascending keeps the two highest ids
    trace = trace_of([read(15.0, 3), read(15.1, 2), read(15.2, 1)])
    model = identity_model(1)
    amap = AccessMap({0: np.array([1, 2, 3], dtype=np.int64)})
    rep = simulate_preloading(trace, model, amap, binning(), 2,
                              record_outcomes=True)
    assert rep.outcomes[0] is True    # 3 stayed
    assert rep.outcomes[1] is True    # 2 stayed (refreshed after hit on 3)
    assert rep.outcomes[2] is False   # 1 was evicted


def test_report_summary_and_csv(tmp_path):
    trace = trace_of([read(float(t), t % 3) for t in range(9)])
    rep = simulate_baseline(trace, 2)
    assert "hitrate" in rep.summary()
    out = tmp_path / "rep.csv"
    rep.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "hits,misses,hitrate,preloads,wall_clock"
    assert len(lines) == 2


def test_results_do_not_depend_on_the_group_size(monkeypatch):
    # slices of 0 to 40 rows, multi-block reads, writes past the last read:
    # groups of 1, 2, 7 and 50 rows cut the trace in other places (a slice
    # larger than a group becomes a group of its own) and must give what one
    # group gives
    rng = np.random.default_rng(13)
    nu, rows = 10.0, []
    for s in range(30):
        for _ in range(int(rng.choice([0, 1, 3, 40]))):
            op = "read" if rng.random() < 0.8 else "write"
            rows.append((s * nu + float(rng.uniform(0, nu)), op,
                         int(rng.integers(0, 300)) * 2048, int(rng.integers(1, 4)) * 4096))
    rows += [(300.0 + t, "write", 4096 * t, 4096) for t in range(25)]
    trace = trace_of(rows)
    config = BinningConfig(M=3, lba_lo=0, lba_hi=300 * 2048, nu=nu)
    K = 3
    model = FittedModel(K=K, pi=np.full((K, K), 1 / K), pi0=np.full(K, 1 / K),
                        mu=np.array([[9.0, 1.0, 1.0], [1.0, 9.0, 1.0], [1.0, 1.0, 9.0]]),
                        Lambda=np.zeros((K, 3, 3)), lambda_hat=np.zeros(3),
                        b=np.ones((K, 3), dtype=np.int8), hp=Hyperparams(),
                        kind=gibbs.HMM_DP_MIP)
    amap = AccessMap({k: np.arange(100 * k, 100 * k + 60, dtype=np.int64) for k in range(K)})

    def run():
        seq = aggregate(trace, config)
        log = []
        pre = simulate_preloading(trace, model, amap, config, 30,
                                  record_outcomes=True, preload_log=log)
        return (seq.X.tolist(), [a.tolist() for a in seq.A],
                infer_lba_range(trace, nu=nu, fraction=0.5),
                trace.read_slice_count(nu), capacity_from_trace(trace, 0.3),
                simulate_baseline(trace, 30, record_outcomes=True).outcomes,
                pre.outcomes, pre.preload_volumes, [a.tolist() for a in log])

    whole = run()
    assert len(whole[0]) == whole[3] == 30 and len(whole[7]) == 33
    for rows_per_group in (1, 2, 7, 50):
        monkeypatch.setattr(ingest, "GROUP_ROWS", rows_per_group)
        assert run() == whole
