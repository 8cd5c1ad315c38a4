"""The benchmark's workloads: how each one makes its inputs from a seed and
which CLI commands drive it.  BENCHMARK.json records why each one exists;
the parameters live here and are printed with every report.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracemix import ingest, synth

import msrgen

SPLIT = 0.5
SLICE_SECS = 30.0


def learn_cut(T):
    """Slices in the learning part, placed as the CLI places the split."""
    return min(max(math.ceil(SPLIT * T), 1), T - 1)


@dataclass
class Prepared:
    """Generated inputs, the commands to run on them and what to expect."""

    argvs: list               # one `tracemix` argv per command, in order
    labels: np.ndarray        # planted cluster of every slice
    artifact: Path
    model: Path
    eval_out: Path
    diagnostics: Path
    sim_prefix: Path = None
    reads: int = None             # read requests in the generated trace
    operate_blocks: int = None    # read blocks in the replayed slices
    params: dict = field(default_factory=dict)


def _paths(work):
    return dict(artifact=work / "counts.npz", model=work / "model.npz",
                eval_out=work / "eval.csv", diagnostics=work / "diag.csv")


def _fit_eval(p, kind, iters, burn_in, seed):
    fit = ["fit", "--artifact", str(p["artifact"]), "--out", str(p["model"]),
           "--iters", str(iters), "--burn-in", str(burn_in),
           "--seed", str(seed), "--split", str(SPLIT),
           "--diagnostics", str(p["diagnostics"])]
    if kind is not None:
        fit += ["--kind", kind]
    ev = ["eval", "--artifact", str(p["artifact"]), "--models", str(p["model"]),
          "--split", str(SPLIT), "--out", str(p["eval_out"])]
    return fit, ev


def _plain_operate_blocks(events):
    """Replayed read blocks of a plain-format trace, recounted the way the
    CLI splits it: timestamps as written to the file, rebased to the first
    event, cut at ceil(SPLIT * slices) whole slices."""
    ts = [float(f"{e.timestamp:.6f}") for e in events]
    t0 = min(ts)
    rel = [(t - t0) * 1.0 for t in ts]
    boundary = learn_cut(int(max(rel) // SLICE_SECS) + 1) * SLICE_SECS
    return sum(len(e.block_ids) for e, r in zip(events, rel)
               if r >= boundary and e.op == "read")


def preload_sparse(seed, work):
    """The default synthetic trace through the whole CLI with the default
    (sparse HMM) model kind: the paper's preloading claim."""
    spec = synth.default_trace_spec(seed=seed)
    events = synth.gen_block_trace(spec)
    trace = work / "trace.csv"
    synth.write_trace_csv(events, trace)
    p = _paths(work)
    sim_prefix = work / "sim"
    common = ["--format", "plain", "--slice-secs", str(SLICE_SECS),
              "--split", str(SPLIT)]
    iters, burn_in = 12, 6
    fit, ev = _fit_eval(p, None, iters, burn_in, seed)
    argvs = [
        ["aggregate", "--trace", str(trace), "--out", str(p["artifact"])] + common,
        fit, ev,
        ["simulate", "--trace", str(trace), "--model", str(p["model"]),
         "--out-prefix", str(sim_prefix)] + common,
    ]
    labels = np.array([spec.pattern[t % len(spec.pattern)] for t in range(spec.T)])
    return Prepared(argvs=argvs, labels=labels, sim_prefix=sim_prefix,
                    reads=sum(e.op == "read" for e in events),
                    operate_blocks=_plain_operate_blocks(events),
                    params={"spec": "synth.default_trace_spec", "T": spec.T,
                            "events": len(events), "kind": "default",
                            "iters": iters, "burn_in": burn_in},
                    **p)


def recover_dense(seed, work):
    """A planted three-cluster count sequence fitted with the dense
    exchangeable kind; no trace, so ingest and replay stay idle."""
    spec = synth.default_recovery_spec(seed=seed)
    seq, Z = synth.gen_count_sequence(spec)
    p = _paths(work)
    ingest.save_artifact(seq, p["artifact"])
    iters, burn_in = 6, 3
    fit, ev = _fit_eval(p, "dp-mmvp", iters, burn_in, seed)
    return Prepared(argvs=[fit, ev], labels=Z,
                    params={"spec": "synth.default_recovery_spec", "T": spec.T,
                            "M": spec.M, "kind": "dp-mmvp", "iters": iters,
                            "burn_in": burn_in},
                    **p)


def replay_msr(seed, work):
    """A heavy MSR-format trace with writes, fitted with the cheap HMM
    independent kind, so parsing and replay dominate."""
    trace = work / "trace.msr.csv"
    made = msrgen.write_msr_trace(trace, seed)
    p = _paths(work)
    sim_prefix = work / "sim"
    common = ["--format", "msr", "--slice-secs", str(SLICE_SECS),
              "--split", str(SPLIT)]
    iters, burn_in, cache_frac = 4, 2, 0.02
    fit, ev = _fit_eval(p, "hmm-dp-mip", iters, burn_in, seed)
    argvs = [
        ["aggregate", "--trace", str(trace), "--out", str(p["artifact"])] + common,
        fit, ev,
        ["simulate", "--trace", str(trace), "--model", str(p["model"]),
         "--cache-frac", str(cache_frac), "--out-prefix", str(sim_prefix)] + common,
    ]
    return Prepared(argvs=argvs, labels=made.labels, sim_prefix=sim_prefix,
                    reads=made.reads,
                    operate_blocks=int(made.read_blocks[
                        learn_cut(len(made.read_blocks)):].sum()),
                    params={"generator": "msrgen", **msrgen.PARAMS,
                            "events": made.events, "kind": "hmm-dp-mip",
                            "iters": iters, "burn_in": burn_in,
                            "cache_frac": cache_frac},
                    **p)


WORKLOADS = {
    "preload-sparse": preload_sparse,
    "recover-dense": recover_dense,
    "replay-msr": replay_msr,
}
