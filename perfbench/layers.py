"""What the traced run wraps in each layer, the counts it takes at those
boundaries, and the per-layer metrics derived from the spans and counts.

A function the package no longer has is skipped and reports zero calls, so a
refactor that renames or folds one does not break the traced run.
"""

import csv
import inspect
import statistics

import numpy as np

from tracemix import cachesim, gibbs, ingest, predict

COMMANDS = ("aggregate", "fit", "eval", "simulate")


def _parsed(c, args, kwargs, result):
    c["ingest.events"] += len(result)


def _aggregated(c, args, kwargs, result):
    c["ingest.aggregate.events"] += len(args[0] if args else kwargs["events"])
    c["ingest.slices"] += len(result)


def _split_merged(c, args, kwargs, result):
    bound = inspect.signature(gibbs.sample_split_merge).bind(*args, **kwargs)
    bound.apply_defaults()
    c["gibbs.split_merge.accepted"] += result
    c["gibbs.split_merge.moves"] += bound.arguments["n_moves"]


def invariants_hold(state):
    """Row sums of every Y[t] equal X[t], and the incremental statistics
    equal a from-scratch recompute."""
    if not np.array_equal(state.Y.sum(axis=2), state.X):
        return False
    n_k, S, LF, n_trans, S_hat, n_hat, LF_hat = gibbs.recompute_stats(state)
    exact = all(np.array_equal(a, b) for a, b in (
        (state.n_k, n_k), (state.S, S), (state.n_trans, n_trans),
        (state.S_hat, S_hat), (state.n_hat, n_hat)))
    return exact and np.allclose(state.LF, LF, atol=1e-9) \
        and np.allclose(state.LF_hat, LF_hat, atol=1e-9)


def _replayed(prefix):
    def observe(c, args, kwargs, result):
        c[f"{prefix}.blocks"] += result.hits + result.misses
        c[f"{prefix}.hits"] += result.hits
        c[f"{prefix}.volume"] += sum(result.preload_volumes)
    return observe


# (module, function, span name, counter hook)
WRAPS = [
    (ingest, "parse_trace", "ingest.parse", _parsed),
    (ingest, "binning_from_events", "ingest.binning", None),
    (ingest, "aggregate", "ingest.aggregate", _aggregated),
    (ingest, "split_learn_operate", "ingest.split", None),
    (ingest, "save_artifact", "ingest.codec", None),
    (ingest, "load_artifact", "ingest.codec", None),
    (gibbs, "run_gibbs", "gibbs.fit", None),
    (gibbs, "sample_z_dp", "gibbs.sample_z", None),
    (gibbs, "sample_z_hdp", "gibbs.sample_z", None),
    (gibbs, "f_new_sparse", "gibbs.f_new_sparse", None),
    (gibbs, "sample_y", "gibbs.sample_y", None),
    (gibbs, "sample_b", "gibbs.sample_b", None),
    (gibbs, "sample_split_merge", "gibbs.split_merge", _split_merged),
    (gibbs, "sample_m_beta", "gibbs.sample_m_beta", None),
    (gibbs, "joint_log_density", "gibbs.joint_density", None),
    (gibbs, "heldout_loglik", "gibbs.heldout", None),
    (predict, "estimate_params", "predict.estimate", None),
    (predict, "build_access_map", "predict.access_map", None),
    (predict, "save_model", "predict.codec", None),
    (predict, "load_model", "predict.codec", None),
    (predict, "decoder_observe", "predict.decode", None),
    (predict, "predict_blocks", "predict.predict_next", None),
    (cachesim, "capacity_from_trace", "cachesim.capacity", None),
    (cachesim, "simulate_baseline", "cachesim.lru", _replayed("cachesim.lru")),
    (cachesim, "simulate_preloading", "cachesim.preload",
     _replayed("cachesim.preload")),
]

SPANS = list(dict.fromkeys(name for _, _, name, _ in WRAPS))


def install(tracer):
    """Wrap every layer function; return the list that collects the sampler
    states run_gibbs returns.  They are checked after the traced run, so the
    check's cost stays out of every span."""
    states = []
    for module, attr, name, observe in WRAPS:
        if attr == "run_gibbs":
            observe = lambda c, args, kwargs, result: states.extend(result[0])
        tracer.wrap(module, attr, name, observe)
    return states


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def sweep_metrics(diagnostics_csv, learn_slices):
    """Median sweep cost and the K trace from a `fit --diagnostics` file."""
    with open(diagnostics_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    K = [int(r["K"]) for r in rows]
    sweep_s = np.diff([float(r["wall_clock"]) for r in rows], prepend=0.0)
    settled = len(K)
    while settled > 1 and K[settled - 2] == K[-1]:
        settled -= 1
    return {
        "gibbs.sweep_ms_per_slice": statistics.median(sweep_s) / learn_slices * 1e3,
        "gibbs.k_first_sweep": K[0],
        "gibbs.sweeps_to_k": settled,
        "gibbs.final_k": K[-1],
    }


def derive(totals, counters, states):
    """Per-layer metrics of one traced pipeline run; states are the sampler
    states it returned."""
    m = {}
    for name in SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = totals.get(f"cli.{cmd}", (0, 0.0))[1]
    c = counters
    m["ingest.events"] = int(c["ingest.events"])
    m["ingest.slices"] = int(c["ingest.slices"])
    m["ingest.parse.us_per_event"] = _per(m["ingest.parse.self_s"],
                                          c["ingest.events"], 1e6)
    m["ingest.aggregate.us_per_event"] = _per(m["ingest.aggregate.self_s"],
                                              c["ingest.aggregate.events"], 1e6)
    m["gibbs.sample_y.us_per_call"] = _per(m["gibbs.sample_y.self_s"],
                                           m["gibbs.sample_y.calls"], 1e6)
    m["gibbs.split_merge.accepted"] = int(c["gibbs.split_merge.accepted"])
    m["gibbs.split_merge.accept_ratio"] = _per(c["gibbs.split_merge.accepted"],
                                               c["gibbs.split_merge.moves"])
    m["gibbs.invariants_ok"] = int(bool(states)
                                   and all(map(invariants_hold, states)))
    for name in ("predict.decode", "predict.predict_next"):
        m[f"{name}.us_per_slice"] = _per(m[f"{name}.self_s"],
                                         m[f"{name}.calls"], 1e6)
    for name in ("cachesim.lru", "cachesim.preload"):
        m[f"{name}.us_per_block"] = _per(m[f"{name}.self_s"],
                                         c[f"{name}.blocks"], 1e6)
    m["cachesim.blocks"] = int(c["cachesim.lru.blocks"])
    m["cachesim.lru_hitrate"] = _per(c["cachesim.lru.hits"], c["cachesim.lru.blocks"])
    m["cachesim.preload_hitrate"] = _per(c["cachesim.preload.hits"],
                                         c["cachesim.preload.blocks"])
    m["cachesim.preload_volume"] = int(c["cachesim.preload.volume"])
    m["cachesim.preload_yield"] = _per(c["cachesim.preload.hits"]
                                       - c["cachesim.lru.hits"],
                                       c["cachesim.preload.volume"])
    return m
