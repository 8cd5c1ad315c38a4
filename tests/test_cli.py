"""The command line end to end: aggregate -> fit -> simulate on small MSR
traces, checked against the reference parser and LRU in oracles.py."""

import csv
import math

import numpy as np
import pytest

from tracemix import cli, ingest

import oracles

TICKS = 10_000_000  # FILETIME ticks per second
ORIGIN = 128_166_372_000_000_000
NU = 30


def write_msr(path, rows):
    """rows: (seconds, op, first block, blocks) -> an MSR-format file."""
    with open(path, "w") as fh:
        for i, (sec, op, block, n) in enumerate(rows):
            tick = ORIGIN + round(sec * TICKS)
            fh.write(f"{tick},usr,0,{op},{block * 4096},{n * 4096},{100 + i}\n")


def motif_rows(slices, rng, writes=True):
    """Each slice reads one of two motifs plus a few noise blocks, with
    multi-block writes interleaved."""
    rows = []
    for t in range(slices):
        base = 5_000 if t % 2 == 0 else 9_000
        reads = [("Read", base + q, 1) for q in range(12)]
        reads += [("Read", int(b), 1) for b in rng.integers(0, 400, size=4)]
        if writes:
            reads += [("Write", int(b), int(n)) for b, n in
                      zip(rng.integers(0, 400, size=5), rng.integers(1, 6, size=5))]
        order = rng.permutation(len(reads))
        for i, q in enumerate(order):
            rows.append((t * NU + 1 + i * (NU - 2) / len(order), *reads[q]))
    return rows


def run(*argv):
    return cli.main([*argv, "--format", "msr", "--slice-secs", str(NU),
                     "--split", "0.5"])


def fit(tmp_path, trace):
    artifact, model = tmp_path / "counts.npz", tmp_path / "model.npz"
    assert run("aggregate", "--trace", str(trace), "--out", str(artifact),
               "--bins", "4") == cli.EXIT_OK
    assert run("fit", "--artifact", str(artifact), "--out", str(model),
               "--kind", "hmm-dp-mip", "--iters", "2", "--burn-in", "1",
               "--seed", "0") == cli.EXIT_OK
    return artifact, model


def sim_rows(prefix):
    out = {}
    for side in ("baseline", "preloading", "comparison"):
        with open(f"{prefix}_{side}.csv", newline="") as fh:
            out[side] = next(csv.DictReader(fh))
    return out


def operating_events(events, fraction=0.5):
    """The replayed part, recounted and rebased: the cut counts the slices up
    to the last read."""
    last_read = max(e.timestamp for e in events if e.op == "read")
    boundary = ingest.learn_cut(int(last_read // NU) + 1, fraction) * NU
    return [ingest.TraceEvent(e.timestamp - boundary, e.op, e.offset, e.size,
                              e.block_ids)
            for e in events if e.timestamp >= boundary]


def test_round_trip_matches_reference(tmp_path):
    trace = tmp_path / "trace.csv"
    write_msr(trace, motif_rows(10, np.random.default_rng(0)))
    artifact, model = fit(tmp_path, trace)
    prefix, log = tmp_path / "sim", tmp_path / "preload.log"
    assert run("simulate", "--trace", str(trace), "--model", str(model),
               "--cache-frac", "0.2", "--out-prefix", str(prefix),
               "--preload-log", str(log)) == cli.EXIT_OK

    events = oracles.reference_parse_trace(trace, format_id="msr")
    assert int(ingest.load_artifact(artifact).X.sum()) == \
        sum(e.op == "read" for e in events)

    rows = sim_rows(prefix)
    capacity = int(rows["comparison"]["capacity"])
    footprint = {b for e in events for b in e.block_ids}
    assert capacity == max(1, math.ceil(0.2 * len(footprint)))
    operate = operating_events(events)
    blocks = sum(len(e.block_ids) for e in operate if e.op == "read")
    for side in ("baseline", "preloading"):
        assert int(rows[side]["hits"]) + int(rows[side]["misses"]) == blocks
    base_hits = int(rows["baseline"]["hits"])
    assert base_hits > 0 and base_hits == sum(oracles.reference_lru(operate, capacity))
    # one preload before the first slice, then one per closed slice
    last_slice = int(max(e.timestamp for e in operate) // NU)
    assert len(log.read_text().splitlines()) == 1 + last_slice


def test_simulate_cuts_where_fit_cuts(tmp_path):
    # reads in slices 0-3, writes only in slices 4-7: fit learns on slices
    # 0-1, so simulate replays the reads of slices 2-3
    rng = np.random.default_rng(1)
    rows = motif_rows(4, rng, writes=False)
    rows += [(t * NU + 5, "Write", int(b), 2) for t in range(4, 8)
             for b in rng.integers(0, 400, size=3)]
    trace = tmp_path / "trace.csv"
    write_msr(trace, rows)
    _, model = fit(tmp_path, trace)
    prefix = tmp_path / "sim"
    assert run("simulate", "--trace", str(trace), "--model", str(model),
               "--cache-frac", "0.05", "--out-prefix", str(prefix)) == cli.EXIT_OK
    replayed = sum(1 for sec, op, _, _ in rows if op == "Read" and sec >= 2 * NU)
    assert replayed > 0
    for side in ("baseline", "preloading"):
        r = sim_rows(prefix)[side]
        assert int(r["hits"]) + int(r["misses"]) == replayed


def test_simulate_without_operating_reads_is_a_config_error(tmp_path, capsys):
    rng = np.random.default_rng(2)
    good = tmp_path / "good.csv"
    write_msr(good, motif_rows(6, rng))
    _, model = fit(tmp_path, good)
    # every read sits in slice 0; the later slices hold only writes
    rows = [(1 + i, "Read", 5_000 + i, 1) for i in range(10)]
    rows += [(t * NU + 5, "Write", 7, 4) for t in range(1, 4)]
    trace = tmp_path / "trace.csv"
    write_msr(trace, rows)
    capsys.readouterr()
    assert run("simulate", "--trace", str(trace), "--model", str(model)) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "config error" in out.err and "inf" not in out.out
