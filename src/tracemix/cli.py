"""Pipeline orchestration: aggregate -> fit -> eval -> simulate.

Every subcommand is deterministic given its config and seed.  Defaults follow
the usual desk setup (10 bins, 30 s slices, 50% split, 5% cache) and can be
overridden by a JSON config file and/or flags; explicit flags win.
"""

import argparse
import json
import sys
from pathlib import Path

from . import cachesim, gibbs, ingest, predict, synth
from .errors import ConfigError, TraceParseError
from .models import Hyperparams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4

DEFAULTS = {
    "bins": 10,
    "slice_secs": 30.0,
    "block_size": ingest.DEFAULT_BLOCK_SIZE,
    "split": 0.5,
    "cache_frac": 0.05,
    "kind": gibbs.SPARSE_HMM_DP_MMVP,
    "iters": 200,
    "burn_in": 100,
    "thin": 1,
    "wall_clock_secs": 4 * 3600.0,
    "seed": 0,
    "chains": 1,
    "format": "msr",
    "per_block": False,
}


def _merge_config(args):
    """Layer file config over defaults, then explicit flags over both."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["kind"] not in gibbs.ALL_KINDS:
        raise ConfigError(f"kind must be one of {gibbs.ALL_KINDS}")
    return cfg


def _fit_config(cfg, seed):
    return gibbs.FitConfig(iterations=cfg["iters"], burn_in=cfg["burn_in"],
                           thinning=cfg["thin"],
                           wall_clock_limit=cfg["wall_clock_secs"], seed=seed)


def cmd_aggregate(args):
    cfg = _merge_config(args)
    events = ingest.parse_trace(args.trace, format_id=cfg["format"],
                                block_size=cfg["block_size"])
    binning = ingest.binning_from_events(events, M=cfg["bins"],
                                         nu=cfg["slice_secs"],
                                         block_size=cfg["block_size"],
                                         fraction=cfg["split"],
                                         count_per_block=cfg["per_block"])
    seq = ingest.aggregate(events, binning)
    ingest.save_artifact(seq, args.out)
    nonzero = float((seq.X > 0).mean()) if len(seq) else 0.0
    print(f"aggregated T={len(seq)} slices x M={binning.M} bins "
          f"(nonzero fraction {nonzero:.3f}) -> {args.out}")
    return EXIT_OK


def cmd_fit(args):
    cfg = _merge_config(args)
    seq = ingest.load_artifact(args.artifact)
    learn, _ = ingest.split_learn_operate(seq, cfg["split"])
    hp = Hyperparams()
    best = None
    for chain in range(cfg["chains"]):
        samples, diag = gibbs.run_gibbs(learn, cfg["kind"], hp,
                                        _fit_config(cfg, cfg["seed"] + chain))
        score = diag.rows[-1][1]
        if best is None or score > best[0]:
            best = (score, samples, diag)
    _, samples, diag = best
    model = predict.estimate_params(samples)
    final = samples[-1]
    access_map = predict.build_access_map(final.Z, learn.A)
    predict.save_model(model, access_map, seq.config, args.out)
    if args.diagnostics:
        diag.write_csv(args.diagnostics)
    flag = " (partial: wall clock hit before burn-in)" if diag.partial else ""
    print(f"fitted {cfg['kind']} on T={len(learn)}: K={model.K}, "
          f"{len(diag.rows)} sweeps{flag} -> {args.out}")
    return EXIT_OK


def cmd_eval(args):
    cfg = _merge_config(args)
    seq = ingest.load_artifact(args.artifact)
    _, operate = ingest.split_learn_operate(seq, cfg["split"])
    rows = []
    for model_path in args.models:
        model, _, _ = predict.load_model(model_path)
        ll = gibbs.heldout_loglik(model, operate)
        rows.append((model_path, model.kind, ll))
    lines = ["model,kind,heldout_loglik"]
    lines += [f"{p},{k},{ll:.6f}" for p, k, ll in rows]
    out = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    print(out, end="")
    return EXIT_OK


def cmd_simulate(args):
    cfg = _merge_config(args)
    trace = ingest.parse_trace(args.trace, format_id=cfg["format"],
                               block_size=cfg["block_size"])
    model, access_map, binning = predict.load_model(args.model)
    # operating phase = slices past the learning cut, in wall-clock terms;
    # like fit, the cut counts the slices up to the last read
    read_slices = trace.reads().slice_count(binning.nu)
    boundary = ingest.learn_cut(read_slices, cfg["split"]) * binning.nu
    operate = trace.since(boundary)
    if not operate.is_read.any():
        raise ConfigError("no read requests in the operating phase after the split")
    capacity = cachesim.capacity_from_trace(trace, cfg["cache_frac"])
    base = cachesim.simulate_baseline(operate, capacity)
    preload_log = [] if args.preload_log else None
    pre = cachesim.simulate_preloading(operate, model, access_map, binning,
                                       capacity, preload_log=preload_log)
    ratio = pre.hitrate / base.hitrate if base.hitrate > 0 else float("inf")
    if args.out_prefix:
        base.write_csv(f"{args.out_prefix}_baseline.csv")
        pre.write_csv(f"{args.out_prefix}_preloading.csv")
        with open(f"{args.out_prefix}_comparison.csv", "w") as fh:
            fh.write("trace,capacity,baseline_hitrate,preloading_hitrate,ratio\n")
            fh.write(f"{args.trace},{capacity},{base.hitrate:.6f},"
                     f"{pre.hitrate:.6f},{ratio:.3f}\n")
    if args.preload_log:
        with open(args.preload_log, "w") as fh:
            for i, blocks in enumerate(preload_log):
                fh.write(f"{i},{len(blocks)},{' '.join(map(str, blocks))}\n")
    print(f"capacity={capacity} blocks | baseline {base.summary()}")
    print(f"capacity={capacity} blocks | preloading {pre.summary()}")
    print(f"hitrate ratio: {ratio:.2f}x")
    return EXIT_OK


def cmd_gen_trace(args):
    spec = (synth.spec_from_json(args.spec) if args.spec
            else synth.default_trace_spec(seed=args.seed or 0))
    if args.seed is not None:
        spec.seed = args.seed
    events = synth.gen_block_trace(spec)
    synth.write_trace_csv(events, args.out)
    print(f"wrote {len(events)} events over {spec.T} slices -> {args.out}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="tracemix",
                                description="mine block I/O traces and replay "
                                            "them against a preloading cache")
    p.add_argument("--config", help="JSON config file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--bins", type=int, default=None)
        sp.add_argument("--slice-secs", type=float, default=None, dest="slice_secs")
        sp.add_argument("--block-size", type=int, default=None, dest="block_size")
        sp.add_argument("--split", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=("msr", "plain"), default=None)

    sp = sub.add_parser("aggregate", help="parse + aggregate a trace into a count artifact")
    common(sp)
    sp.add_argument("--per-block", action="store_const", const=True, default=None,
                    dest="per_block", help="count once per covered block instead of per request")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_aggregate)

    sp = sub.add_parser("fit", help="fit a model on the learning half of an artifact")
    common(sp)
    sp.add_argument("--kind", choices=gibbs.ALL_KINDS, default=None)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    sp.add_argument("--thin", type=int, default=None)
    sp.add_argument("--wall-clock-secs", type=float, default=None, dest="wall_clock_secs")
    sp.add_argument("--chains", type=int, default=None)
    sp.add_argument("--artifact", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--diagnostics")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("eval", help="held-out log-likelihood table for fitted models")
    common(sp)
    sp.add_argument("--artifact", required=True)
    sp.add_argument("--models", nargs="+", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("simulate", help="replay the operating phase with and without preloading")
    common(sp)
    sp.add_argument("--cache-frac", type=float, default=None, dest="cache_frac")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out-prefix", dest="out_prefix")
    sp.add_argument("--preload-log", dest="preload_log")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("gen-trace", help="write a synthetic repeating-pattern trace")
    sp.add_argument("--spec", help="JSON spec file; defaults to the built-in pattern")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen_trace)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceParseError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
