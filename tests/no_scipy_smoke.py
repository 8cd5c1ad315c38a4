"""Run gen-trace -> aggregate -> fit -> eval -> simulate through the command
line with scipy made unimportable, so that any scipy import on the run-time
path fails the run.

    PYTHONPATH=src python tests/no_scipy_smoke.py WORKDIR

Exits 0 when every command does.
"""

import sys

sys.modules["scipy"] = None     # `import scipy` and `import scipy.x` now raise

import json
from pathlib import Path

from tracemix import cli


def main(work):
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    spec, trace = work / "spec.json", work / "trace.csv"
    counts, model = work / "counts.npz", work / "model.npz"
    spec.write_text(json.dumps({"T": 60, "seed": 1}))
    steps = [
        ["gen-trace", "--spec", str(spec), "--out", str(trace)],
        ["aggregate", "--format", "plain", "--trace", str(trace), "--out", str(counts)],
        ["fit", "--artifact", str(counts), "--out", str(model),
         "--iters", "2", "--burn-in", "1"],
        ["eval", "--artifact", str(counts), "--models", str(model),
         "--out", str(work / "eval.csv")],
        ["simulate", "--format", "plain", "--trace", str(trace), "--model", str(model),
         "--out-prefix", str(work / "sim")],
    ]
    for argv in steps:
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            print(f"{argv[0]} exited with {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
