"""Print a sha256 of every file the benchmark's workloads make, so that two
trees, or two runs of one tree, can be compared for byte-identical outputs.

    PYTHONPATH=src python tests/output_digest.py SEED...

For each seed and each workload of perfbench/workloads.py, the inputs are
prepared there and the workload's commands run in this process through
cli.main, with --preload-log added to simulate.  Each recover-dense artifact
is also fitted and evaluated, with the workload's budget, under the kinds
that no workload fits (EXTRA_KINDS), so every kind's outputs are listed; their
files are named after the kind.  One line per file, in a fixed order:
workload, seed, file name, digest.  The generated trace is the input and is
not listed.

An .npz is hashed member by member (name, dtype, shape, bytes), so the zip
timestamps do not count.  A CSV is hashed without its wall_clock column and
with the run directory cut from every path in it.
"""

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracemix import cli  # noqa: E402

import workloads  # noqa: E402

EXTRA_KINDS = ("dp-mip", "hmm-dp-mmvp", "sparse-dp-mmvp")


def digest(path, work):
    """sha256 of one output file of a run in the directory work."""
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as z:
            for name in sorted(z.files):
                arr = z[name]
                h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    elif path.suffix == ".csv":
        text = path.read_text().replace(f"{work}/", "")
        rows = list(csv.reader(io.StringIO(text)))
        drop = rows[0].index("wall_clock") if "wall_clock" in rows[0] else None
        for row in rows:
            h.update(repr([v for i, v in enumerate(row) if i != drop]).encode())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_commands(label, argvs, work):
    """Run argvs in the directory work; stops the script when one fails."""
    for argv in argvs:
        if argv[0] == "simulate":
            argv = argv + ["--preload-log", str(work / "preload.log")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"{label}: {argv[0]} exited with {code}")


def run(name, seed):
    """The digest lines of one workload at one seed."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        prep = workloads.WORKLOADS[name](seed, work)
        inputs = set(work.iterdir())
        run_commands(f"{name} seed {seed}", prep.argvs, work)
        files = sorted(p for p in work.iterdir() if p not in inputs or p == prep.artifact)
        if name == "recover-dense":
            for kind in EXTRA_KINDS:
                outs = {field: work / f"{kind}-{getattr(prep, field).name}"
                        for field in ("model", "eval_out", "diagnostics")}
                run_commands(f"{name} seed {seed} {kind}", workloads._fit_eval(
                    dict(outs, artifact=prep.artifact), kind, prep.params["iters"],
                    prep.params["burn_in"], seed), work)
                files += sorted(outs.values())
        return [f"{name} {seed} {p.name} {digest(p, work)}" for p in files]


def main(seeds):
    for seed in seeds:
        for name in workloads.WORKLOADS:
            print("\n".join(run(name, seed)), flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main([int(s) for s in sys.argv[1:]]))
