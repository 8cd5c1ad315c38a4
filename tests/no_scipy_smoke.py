"""Run gen-trace -> aggregate, then fit -> eval -> simulate with every model
kind, through the command line with scipy made unimportable, so that any
scipy import on the run-time path fails the run.  Each kind is fitted with 2
sweeps, so the diagonal, dense and sparse branches of the sampler all run.

    PYTHONPATH=src python tests/no_scipy_smoke.py WORKDIR

Each kind writes model.npz, eval.csv and the sim_*.csv files into
WORKDIR/<kind>.  Exits 0 when every command does.
"""

import sys

sys.modules["scipy"] = None     # `import scipy` and `import scipy.x` now raise

import json
from pathlib import Path

from tracemix import cli, models


def main(work):
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    spec, trace, counts = work / "spec.json", work / "trace.csv", work / "counts.npz"
    spec.write_text(json.dumps({"T": 60, "seed": 1}))
    steps = [
        ["gen-trace", "--spec", str(spec), "--out", str(trace)],
        ["aggregate", "--format", "plain", "--trace", str(trace), "--out", str(counts)],
    ]
    for kind in models.ALL_KINDS:
        out = work / kind
        out.mkdir(exist_ok=True)
        model = out / "model.npz"
        steps += [
            ["fit", "--artifact", str(counts), "--out", str(model), "--kind", kind,
             "--iters", "2", "--burn-in", "1"],
            ["eval", "--artifact", str(counts), "--models", str(model),
             "--out", str(out / "eval.csv")],
            ["simulate", "--format", "plain", "--trace", str(trace), "--model", str(model),
             "--out-prefix", str(out / "sim")],
        ]
    for argv in steps:
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            print(f"{' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
