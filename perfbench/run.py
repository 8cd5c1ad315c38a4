"""End-to-end benchmark of the tracemix command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs the workload
on a fresh input drawn from the seed; generation is never timed.
Repetitions go on until S seconds are used.

--trace 0  every command runs as its own `python -m tracemix.cli` process;
           the end-to-end metrics are medians over the repetitions, with
           times scaled to a host of fixed speed (see end_to_end).
--trace 1  the same commands run in this process through
           `tracemix.cli.main`, alternately plain and with the package's
           layer functions wrapped in timing spans; the per-layer metrics
           come from the spans.

Every repetition's outputs are checked.  The report lists each metric with
its unit and the machine it ran on; its last line is one JSON object.
"""

import os

# One process of load on a two-core machine: keep BLAS single-threaded here
# and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_REP = 2
COMMAND_LIMIT_S = 150.0
# CPU seconds the reference kernel takes on an uncontended core of the
# machine the bounds were set on (2 vCPUs of an Intel Xeon, Python 3.11,
# numpy 2.4).
REF_CPU_S = 0.21


class Ops:
    """Attempted and failed operations: commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# `python -m tracemix.cli` that writes its own peak RSS (VmHWM, in kB) to the
# file named by its first argument.  Linux charges an exec'd child the peak
# RSS of the process that spawned it, so the wait4 figure would show the
# benchmark's own memory whenever that is the larger.
CLI = """\
import runpy, sys
peak_file = sys.argv.pop(1)
try:
    runpy.run_module("tracemix.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        kb = next(ln.split()[1] for ln in status if ln.startswith("VmHWM:"))
    with open(peak_file, "w") as out:
        out.write(kb)
"""


def run_child(cmd, env, log):
    """Run cmd to completion; return (CPU seconds, wall seconds, exit code).
    CPU seconds are user plus system time of the child."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        limit = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        limit.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            limit.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, wall, proc.returncode


def _csv_row(path):
    header, row = Path(path).read_text().splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


def check_outputs(prep, ops):
    """Check one repetition's output files and score them; None when they
    cannot be read."""
    from tracemix import ingest, predict

    import scoring
    from workloads import learn_cut

    try:
        seq = ingest.load_artifact(prep.artifact)
        model = predict.load_model(prep.model)[0]
        ll = float(_csv_row(prep.eval_out)["heldout_loglik"])
        sims = ([_csv_row(f"{prep.sim_prefix}_{side}.csv")
                 for side in ("baseline", "preloading")]
                if prep.sim_prefix is not None else [])
    except (OSError, ValueError, KeyError) as exc:
        ops.record(False, f"reading outputs: {exc!r}")
        return None
    T = len(seq)
    cut = learn_cut(T)
    if prep.reads is not None:
        ops.record(int(seq.X.sum()) == prep.reads,
                   f"aggregate: X sums to {int(seq.X.sum())}, "
                   f"trace has {prep.reads} reads")
    ops.record(math.isfinite(ll), f"eval: log-likelihood {ll}")
    if sims:
        n_base, n_pre = (int(r["hits"]) + int(r["misses"]) for r in sims)
        ops.record(n_base == n_pre == prep.operate_blocks,
                   f"simulate: baseline {n_base} and preloading {n_pre} "
                   f"accesses, replayed slices hold {prep.operate_blocks}")
    path = scoring.viterbi(model.pi, model.pi0, model.mu, seq.X[:cut])
    return {"ari": scoring.adjusted_rand_index(prep.labels[:cut], path),
            "heldout_nll": -ll / (T - cut), "learn_slices": cut}


def run_subprocess(prep, env, work, ops):
    """One repetition with each command in its own interpreter; returns
    ({command: (CPU s, wall s)}, peak RSS in MB)."""
    times, rss = {}, []
    peak = work / "peak_kb"
    for argv in prep.argvs:
        cmd = [sys.executable, "-c", CLI, str(peak)] + argv
        log = work / f"{argv[0]}.log"
        peak.unlink(missing_ok=True)
        cpu, wall, code = run_child(cmd, env, log)
        if not ops.record(code == 0, f"{argv[0]} exited with {code}; see {log}"):
            return None
        times[argv[0]] = (cpu, wall)
        rss.append(int(peak.read_text()) / 1024.0)
    return times, max(rss)


def run_inprocess(prep, ops, tracer=None):
    """One repetition through tracemix.cli.main in this process; returns the
    CPU seconds of each command."""
    from tracemix import cli

    cpu = {}
    for argv in prep.argvs:
        sink = io.StringIO()
        started = time.process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        cpu[argv[0]] = time.process_time() - started
        if not ops.record(code == 0, f"{argv[0]} returned {code}: "
                          f"{sink.getvalue()[-500:]}"):
            return None
    return cpu


def repeat(seconds, body):
    """Call body(i) for i = 0, 1, ... until the next call would end after
    `seconds`, at least once; stop at the first call that returns None."""
    out = []
    started = time.perf_counter()
    longest = 0.0
    while not out or time.perf_counter() - started + longest <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        rep = body(len(out))
        if rep is None:
            break
        out.append(rep)
        longest = max(longest, time.perf_counter() - t0)
    return out


def reference_cpu():
    """CPU seconds of a fixed mix of interpreter, small-matrix and sorting
    work that does not touch tracemix: the run's yardstick for host speed."""
    started = time.process_time()
    rng = np.random.default_rng(0)
    words = {}
    for i in range(120_000):
        key = f"{i % 997},{i * 7 % 13}"
        words[key] = words.get(key, 0) + len(key.split(","))
    a = rng.random((48, 48))
    for _ in range(3000):
        a = np.log1p(a @ a.T / 48.0) + rng.dirichlet(np.ones(48))
    big = rng.random(2_000_000)
    for _ in range(3):
        big = np.sort(big)[::-1].copy()
    return time.process_time() - started


def rep_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def end_to_end(make, seconds, work, ops):
    """End-to-end metrics and, for the report only, the commands' wall times.

    Times are the CPU seconds of the command processes, not their wall
    time: on a shared virtual machine the wall time also holds the time the
    host gives the virtual CPU to other guests, which swings by a factor of
    two within minutes.  With BLAS pinned to one thread every command is a
    single-threaded process, so its CPU time is the wall time it takes on a
    core of its own.

    CPU time is not steady either: the host moves the virtual CPUs between
    fast and slow states within a second, and the share of slow ones drifts
    by a third or more over tens of minutes.  So every time is scaled to a
    host of fixed speed, by REF_CPU_S over the mean CPU time of a reference
    kernel that runs between the commands: a slower program still reads
    slower, a slower host does not."""
    env = child_env()
    setup, ref = [], []

    def body(i):
        # set-up and reference samples are spread over the run, like the
        # repetitions
        for _ in range(SETUP_PER_REP):
            cpu, _, code = run_child(
                [sys.executable, "-c", "import tracemix.cli"], env,
                work / "setup.log")
            if ops.record(code == 0, f"import tracemix.cli exited with {code}"):
                setup.append(cpu)
            ref.append(reference_cpu())
        prep = make(i)
        rep = run_subprocess(prep, env, work, ops)
        if rep is None:
            return None
        q = check_outputs(prep, ops)
        return None if q is None else (*rep, q)

    reps = repeat(seconds, body)
    if not reps or not setup:
        return {}, {}
    scale = REF_CPU_S / fmean(ref)
    pipeline = median([sum(c for c, _ in t.values()) for t, _, _ in reps])
    fit = median([t["fit"][0] for t, _, _ in reps])
    metrics = {
        "setup_s": median(setup) * scale,
        "pipeline_cpu_s": pipeline * scale,
        "fit_cpu_s": fit * scale,
        "peak_rss_mb": median([r for _, r, _ in reps]),
        "ari": median([q["ari"] for _, _, q in reps]),
        "heldout_nll": median([q["heldout_nll"] for _, _, q in reps]),
        "success_rate": (ops.attempted - ops.failed) / ops.attempted,
    }
    info = {f"{cmd}_wall_s": (median([t[cmd][1] for t, _, _ in reps]), "s")
            for cmd in reps[0][0]}
    info["pipeline_wall_s"] = (median([sum(w for _, w in t.values())
                                       for t, _, _ in reps]), "s")
    info["unscaled_setup_s"] = (median(setup), "s")
    info["unscaled_pipeline_cpu_s"] = (pipeline, "s")
    info["unscaled_fit_cpu_s"] = (fit, "s")
    info["reference_cpu_s"] = (fmean(ref), "s")
    return metrics, info


def per_layer(make, seconds, ops):
    """Alternate plain and traced in-process runs of each input.  Spans use
    the wall clock; command totals use this process's CPU time.  The tracing
    overhead is the traced total minus the plain total of the same commands;
    both run in this process, so interpreter start-up cancels out."""
    import layers
    from spans import Tracer

    def body(i):
        prep = make(i)
        plain = run_inprocess(prep, ops)
        if plain is None:
            return None
        q = check_outputs(prep, ops)
        if q is None:
            return None
        sweeps = layers.sweep_metrics(prep.diagnostics, q["learn_slices"])
        tracer = Tracer()
        states = layers.install(tracer)
        try:
            traced = run_inprocess(prep, ops, tracer)
        finally:
            tracer.restore()
        if traced is None or check_outputs(prep, ops) is None:
            return None
        m = layers.derive(tracer.totals(), tracer.counters, states)
        ops.record(m["gibbs.invariants_ok"] == 1,
                   "gibbs: a returned sampler state breaks row sums or stats")
        m.update(sweeps)
        for cmd in layers.COMMANDS:
            m[f"cli.{cmd}.cpu_s"] = plain.get(cmd, 0.0)
        m["trace.spans"] = len(tracer.spans)
        return m, sum(plain.values()), sum(traced.values())

    reps = repeat(seconds, body)
    if not reps:
        return {}, {}
    out = {k: median([m[k] for m, _, _ in reps]) for k in reps[0][0]}
    out["trace.overhead_s"] = (median([t for _, _, t in reps])
                               - median([p for _, p, _ in reps]))
    return out, {}


def machine_info():
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "tracemix" / "cli.py").is_file():
        print(f"error: no tracemix sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ops = Ops()
    made = []

    def make(i):
        # each repetition gets its own input, drawn from the run's seed
        made.append(WORKLOADS[args.workload](rep_seed(args.seed, i), work))
        return made[-1]

    try:
        if args.trace:
            metrics, info = per_layer(make, args.seconds, ops)
        else:
            metrics, info = end_to_end(make, args.seconds, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    if ops.failed == 0 and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ "
              f"from BENCHMARK.json", file=sys.stderr)
        return 3

    print(f"# workload {args.workload} seed {args.seed} repetitions "
          f"{len(made)} params {json.dumps(made[0].params if made else {})}")
    print(f"# machine {json.dumps(machine_info())}")
    for name in units:
        if name in metrics:
            print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in info.items():
        print(f"# {name} = {value:.6g} {unit} (not gated)")
    print(f"# operations attempted {ops.attempted} failed {ops.failed}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
