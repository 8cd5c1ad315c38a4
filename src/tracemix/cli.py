"""Pipeline orchestration: aggregate -> fit -> eval -> simulate.

Every subcommand is deterministic given its config and seed.  Defaults follow
the usual desk setup (10 bins, 30 s slices, 50% split, 5% cache) and can be
overridden by a JSON config file and/or flags; explicit flags win.  fit, eval
and simulate take the binning settings (_BINNING_FIELDS) of the artifact or
model they read, and refuse an explicit setting that differs.

Importing this module loads only what the parser and the config checks
need.  Each command imports the modules it runs when it starts, so a process
never loads code its command does not call: aggregate loads neither the
sampler nor the simulator, simulate not the sampler, gen-trace only the
generator and the ingest types it writes.  Commands call through module
attributes (gibbs.run_gibbs, never a name bound by ``from .gibbs import``):
the benchmark's traced run times a layer by replacing the attribute on its
module, and a bound name would bypass it.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, TraceParseError
from .models import ALL_KINDS, SPARSE_HMM_DP_MMVP, Hyperparams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4

DEFAULTS = {
    "bins": 10,
    "slice_secs": 30.0,
    # None: aggregate uses ingest.DEFAULT_BLOCK_SIZE, simulate the model's
    "block_size": None,
    "split": 0.5,
    "cache_frac": 0.05,
    "kind": SPARSE_HMM_DP_MMVP,
    "iters": 200,
    "burn_in": 100,
    "thin": 1,
    "wall_clock_secs": 4 * 3600.0,
    "seed": 0,
    "chains": 1,
    "format": "msr",
    "per_block": False,
}


# The settings an aggregated artifact fixes, and its BinningConfig fields.
_BINNING_FIELDS = {"bins": "M", "slice_secs": "nu", "block_size": "block_size",
                   "per_block": "count_per_block"}

_CHOICES = {"kind": ALL_KINDS, "format": ("msr", "plain")}


def _check_type(key, value):
    """ConfigError naming key and value unless value has the type of
    DEFAULTS[key]: an int is not a bool or a float, a float may be an int,
    block_size may be null, and kind and format are one of their choices."""
    default = DEFAULTS[key]
    if key in _CHOICES:
        ok, want = value in _CHOICES[key], f"one of {_CHOICES[key]}"
    elif isinstance(default, bool):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(default, float):
        ok, want = type(value) in (int, float), "a number"
    else:
        ok = type(value) is int or (default is None and value is None)
        want = "an integer" if default is not None else "an integer or null"
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")


def _merge_config(args, fixed=None):
    """Layer file config over defaults, then explicit flags over both; every
    value must have the type of its default (_check_type).

    fixed is None or (path, BinningConfig) of the model or artifact a
    command reads: the _BINNING_FIELDS then take its values, and
    an explicit value, from the file or a flag, that differs is a
    ConfigError naming both.
    """
    explicit = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            explicit = json.load(fh)
        unknown = set(explicit) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    explicit.update((key, getattr(args, key)) for key in DEFAULTS
                    if getattr(args, key, None) is not None)
    cfg = {**DEFAULTS, **explicit}
    for key, value in cfg.items():
        _check_type(key, value)
    nu = cfg["slice_secs"]
    if not 0 < nu < math.inf:
        raise ConfigError(f"slice_secs must be a positive finite number of "
                          f"seconds, got {nu!r}")
    if fixed is not None:
        path, binning = fixed
        for key, name in _BINNING_FIELDS.items():
            value = getattr(binning, name)
            if explicit.get(key) not in (None, value):
                raise ConfigError(f"{key} {explicit[key]} disagrees with {path}, "
                                  f"aggregated with {key} {value}")
            cfg[key] = value
    return cfg


def cmd_aggregate(args):
    from . import ingest

    cfg = _merge_config(args)
    block_size = cfg["block_size"]
    trace = ingest.parse_trace(args.trace, format_id=cfg["format"],
                               block_size=ingest.DEFAULT_BLOCK_SIZE
                               if block_size is None else block_size)
    binning = ingest.binning_from_events(trace, M=cfg["bins"],
                                         nu=cfg["slice_secs"],
                                         fraction=cfg["split"],
                                         count_per_block=cfg["per_block"])
    seq = ingest.aggregate(trace, binning)
    ingest.save_artifact(seq, args.out)
    nonzero = float((seq.X > 0).mean()) if len(seq) else 0.0
    print(f"aggregated T={len(seq)} slices x M={binning.M} bins "
          f"(nonzero fraction {nonzero:.3f}) -> {args.out}")
    return EXIT_OK


def cmd_fit(args):
    from . import gibbs, ingest, predict

    seq = ingest.load_artifact(args.artifact)
    cfg = _merge_config(args, (args.artifact, seq.config))
    if cfg["chains"] < 1:
        raise ConfigError("chains must be >= 1")
    learn, _ = ingest.split_learn_operate(seq, cfg["split"])
    hp = Hyperparams()
    best = None
    for chain in range(cfg["chains"]):
        fit_config = gibbs.FitConfig(iterations=cfg["iters"], burn_in=cfg["burn_in"],
                                     thinning=cfg["thin"],
                                     wall_clock_limit=cfg["wall_clock_secs"],
                                     seed=cfg["seed"] + chain)
        samples, diag = gibbs.run_gibbs(learn, cfg["kind"], hp, fit_config)
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
    from . import gibbs, ingest, predict

    seq = ingest.load_artifact(args.artifact)
    cfg = _merge_config(args, (args.artifact, seq.config))
    _, operate = ingest.split_learn_operate(seq, cfg["split"])
    rows = []
    for model_path in args.models:
        model, _, binning = predict.load_model(model_path)
        # heldout_loglik reports a differing bin count
        if model.M == seq.config.M and binning != seq.config:
            raise ConfigError(f"model {model_path} was fitted on {binning} but the "
                              f"artifact was aggregated with {seq.config}")
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
    from . import cachesim, ingest, predict

    model, access_map, binning = predict.load_model(args.model)
    cfg = _merge_config(args, (args.model, binning))
    trace = ingest.parse_trace(args.trace, format_id=cfg["format"],
                               block_size=binning.block_size)
    # operating phase = slices past the learning cut, in wall-clock terms;
    # like fit, the cut counts the slices up to the last read
    read_slices = trace.read_slice_count(binning.nu)
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
                fh.write(f"{i},{len(blocks)},{' '.join(map(str, blocks.tolist()))}\n")
    print(f"capacity={capacity} blocks | baseline {base.summary()}")
    print(f"capacity={capacity} blocks | preloading {pre.summary()}")
    print(f"hitrate ratio: {ratio:.2f}x")
    return EXIT_OK


def cmd_gen_trace(args):
    from . import synth

    spec = synth.spec_from_json(args.spec) if args.spec else synth.default_trace_spec()
    if args.seed is not None:
        spec.seed = args.seed
    trace = synth.gen_block_trace(spec)
    synth.write_trace_csv(trace, args.out)
    print(f"wrote {len(trace)} events over {spec.T} slices -> {args.out}")
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
        sp.add_argument("--format", choices=_CHOICES["format"], default=None)

    sp = sub.add_parser("aggregate", help="parse + aggregate a trace into a count artifact")
    common(sp)
    sp.add_argument("--per-block", action="store_const", const=True, default=None,
                    dest="per_block", help="count once per covered block instead of per request")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_aggregate)

    sp = sub.add_parser("fit", help="fit a model on the learning half of an artifact")
    common(sp)
    sp.add_argument("--kind", choices=ALL_KINDS, default=None)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    sp.add_argument("--thin", type=int, default=None)
    sp.add_argument("--wall-clock-secs", type=float, default=None, dest="wall_clock_secs")
    sp.add_argument("--chains", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
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
