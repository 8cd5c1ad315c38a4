"""The command line end to end: aggregate -> fit -> simulate on small MSR
traces, checked against the reference parser and LRU in oracles.py."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from tracemix import cli, gibbs, ingest, synth

import oracles
from traces import trace_of

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


def operating_trace(events, fraction=0.5):
    """The replayed part of parsed events as a Trace, recounted and rebased:
    the cut counts the slices up to the last read."""
    last_read = max(e.timestamp for e in events if e.op == "read")
    boundary = ingest.learn_cut(int(last_read // NU) + 1, fraction) * NU
    return trace_of([(e.timestamp - boundary, e.op, e.offset, e.size)
                     for e in events if e.timestamp >= boundary])


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
    operate = list(operating_trace(events))
    blocks = sum(len(e.block_ids) for e in operate if e.op == "read")
    for side in ("baseline", "preloading"):
        assert int(rows[side]["hits"]) + int(rows[side]["misses"]) == blocks
    base_hits = int(rows["baseline"]["hits"])
    assert base_hits > 0 and base_hits == sum(oracles.reference_lru(operate, capacity))
    # one preload before the first slice, then one per closed slice
    last_slice = int(max(e.timestamp for e in operate) // NU)
    assert len(log.read_text().splitlines()) == 1 + last_slice


def test_fit_diagnostics_count_draws_and_acceptances(tmp_path, monkeypatch):
    trace, artifact = tmp_path / "trace.csv", tmp_path / "counts.npz"
    write_msr(trace, motif_rows(16, np.random.default_rng(3)))
    assert run("aggregate", "--trace", str(trace), "--out", str(artifact),
               "--bins", "4") == cli.EXIT_OK
    draws, accepted, scans = [0], [], [[]]
    real_y, real_sm, real_scan = gibbs.sample_y, gibbs.sample_split_merge, gibbs._allocation_scan

    def count_y(*args):
        draws[-1] += 1
        return real_y(*args)

    def count_sm(*args):
        accepted.append(real_sm(*args))
        draws.append(0)
        scans.append([])
        return accepted[-1]

    def count_scan(*args, actual_sides=None):
        scans[-1].append(actual_sides is None)
        return real_scan(*args, actual_sides=actual_sides)

    monkeypatch.setattr(gibbs, "sample_y", count_y)
    monkeypatch.setattr(gibbs, "sample_split_merge", count_sm)
    monkeypatch.setattr(gibbs, "_allocation_scan", count_scan)
    diagnostics = tmp_path / "diag.csv"
    assert run("fit", "--artifact", str(artifact), "--out", str(tmp_path / "m.npz"),
               "--kind", "dp-mmvp", "--iters", "4", "--burn-in", "2",
               "--seed", "0", "--diagnostics", str(diagnostics)) == cli.EXIT_OK
    with open(diagnostics, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["sweep", "joint_log_density", "K", "wall_clock",
                                 "y_draws", "split_merge_accepted", "splits_proposed",
                                 "splits_accepted", "merges_proposed", "merges_priced",
                                 "clusters_opened", "clusters_closed"]
    assert [int(r["sweep"]) for r in rows] == [1, 2, 3, 4]
    assert [int(r["y_draws"]) for r in rows] == draws[:-1]
    assert [int(r["split_merge_accepted"]) for r in rows] == accepted
    assert sum(draws) > 0
    for r, scanned in zip(rows, scans[:-1], strict=True):
        moves = {k: int(r[k]) for k in reader.fieldnames[6:]}
        # every split is scanned once; a merge only when it is priced
        assert moves["splits_proposed"] + moves["merges_proposed"] == 10
        assert moves["splits_proposed"] == sum(scanned)
        assert moves["merges_priced"] == len(scanned) - sum(scanned)
        assert moves["merges_priced"] <= moves["merges_proposed"]
        assert moves["splits_accepted"] <= min(moves["splits_proposed"],
                                               int(r["split_merge_accepted"]))
        assert int(r["split_merge_accepted"]) - moves["splits_accepted"] \
            <= moves["merges_priced"]


@pytest.mark.parametrize("kind", ["dp-mmvp", "sparse-hmm-dp-mmvp"])
def test_fit_diagnostics_count_clusters_opened_and_closed(tmp_path, monkeypatch, kind):
    # the columns count the clusters that the assignment step creates and
    # deletes in each sweep; split-merge's own clusters are not counted.  The
    # recovery fixture's correlated counts make the MMVP kinds open and close
    # clusters from the one-cluster start
    seq, _ = synth.gen_count_sequence(replace(synth.default_recovery_spec(seed=0), T=60))
    artifact = tmp_path / "counts.npz"
    ingest.save_artifact(seq, artifact)
    opened, closed, in_step = [0], [0], [False]
    step = "sample_z_hdp" if gibbs.is_temporal(kind) else "sample_z_dp"
    real_z, real_sm = getattr(gibbs, step), gibbs.sample_split_merge
    real_create, real_delete = gibbs._create_cluster, gibbs._delete_cluster

    def count_z(*args):
        in_step[0] = True
        try:
            return real_z(*args)
        finally:
            in_step[0] = False

    def count_create(*args):
        opened[-1] += in_step[0]
        return real_create(*args)

    def count_delete(*args):
        closed[-1] += in_step[0]
        return real_delete(*args)

    def next_sweep(*args):
        opened.append(0)
        closed.append(0)
        return real_sm(*args)

    monkeypatch.setattr(gibbs, step, count_z)
    monkeypatch.setattr(gibbs, "_create_cluster", count_create)
    monkeypatch.setattr(gibbs, "_delete_cluster", count_delete)
    monkeypatch.setattr(gibbs, "sample_split_merge", next_sweep)
    diagnostics = tmp_path / "diag.csv"
    assert cli.main(["fit", "--artifact", str(artifact), "--out", str(tmp_path / "m.npz"),
                     "--kind", kind, "--iters", "4", "--burn-in", "2",
                     "--seed", "1", "--diagnostics", str(diagnostics)]) == cli.EXIT_OK
    with open(diagnostics, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # split-merge runs after the sweep's assignments, so the first tallies
    # belong to sweep 1 and the last (empty) pair to no sweep
    assert [int(r["clusters_opened"]) for r in rows] == opened[:-1]
    assert [int(r["clusters_closed"]) for r in rows] == closed[:-1]
    assert sum(opened) > 0 and sum(closed) > 0
    assert opened[-1] == closed[-1] == 0


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


def test_a_byte_that_is_not_utf8_is_a_trace_error_naming_its_line(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rows = [f"{t}.0,read,{t * 4096},4096\n".encode() for t in range(0, 120, 7)]
    rows[2] = b"14.0,read,\xff,4096\n"
    trace.write_bytes(b"".join(rows))
    code = cli.main(["aggregate", "--format", "plain", "--trace", str(trace),
                     "--out", str(tmp_path / "counts.npz")])
    assert code == cli.EXIT_PARSE
    assert "trace error: line 3: byte 0xff is not UTF-8" in capsys.readouterr().err


def test_gen_trace_default_spec(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli.main(["gen-trace", "--out", str(out)]) == cli.EXIT_OK
    want = synth.gen_block_trace(synth.default_trace_spec())
    assert len(ingest.parse_trace(out, format_id="plain")) == len(want)
    assert f"wrote {len(want)} events over 400 slices" in capsys.readouterr().out


def test_gen_trace_spec_file(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "trace.csv"
    spec.write_text('{"T": 6, "motifs": [[1, 2], [3]], "pattern": [1, 0], '
                    '"noise_rate": 0, "seed": 4}')
    assert cli.main(["gen-trace", "--spec", str(spec), "--out", str(out)]) == cli.EXIT_OK
    trace = ingest.parse_trace(out, format_id="plain")
    assert (trace.offset // 4096).tolist() == [3, 1, 2] * 3


def test_simulate_replays_at_the_model_block_size(tmp_path, capsys):
    # a trace of 512-byte requests aggregated at 512-byte blocks: simulate
    # must replay it at 512 too, with or without the flag, and refuse 4096
    trace = tmp_path / "trace.csv"
    synth.write_trace_csv(synth.gen_block_trace(
        replace(synth.default_trace_spec(seed=1), T=120, block_size=512)), trace)
    artifact, model = tmp_path / "counts.npz", tmp_path / "model.npz"
    plain = ["--format", "plain", "--split", "0.5"]
    assert cli.main(["aggregate", "--trace", str(trace), "--out", str(artifact),
                     "--block-size", "512", *plain]) == cli.EXIT_OK
    assert cli.main(["fit", "--artifact", str(artifact), "--out", str(model),
                     "--kind", "hmm-dp-mip", "--iters", "4", "--burn-in", "2",
                     *plain]) == cli.EXIT_OK
    simulate = ["simulate", "--trace", str(trace), "--model", str(model), *plain]
    rows = []
    for flag in ([], ["--block-size", "512"]):
        prefix = tmp_path / f"sim{len(flag)}"
        assert cli.main([*simulate, *flag, "--out-prefix", str(prefix)]) == cli.EXIT_OK
        rows.append({side: {k: v for k, v in row.items() if k != "wall_clock"}
                     for side, row in sim_rows(prefix).items()})
    assert rows[0] == rows[1]
    events = oracles.reference_parse_trace(trace, format_id="plain", block_size=512)
    footprint = {b for e in events for b in e.block_ids}
    assert int(rows[0]["comparison"]["capacity"]) == math.ceil(0.05 * len(footprint))
    assert float(rows[0]["preloading"]["hitrate"]) > 0.5
    capsys.readouterr()
    assert cli.main([*simulate, "--block-size", "4096"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "4096" in err and "512" in err


@pytest.mark.parametrize("kind", gibbs.ALL_KINDS)
def test_fit_is_deterministic_given_its_seed(tmp_path, kind):
    trace, artifact = tmp_path / "trace.csv", tmp_path / "counts.npz"
    write_msr(trace, motif_rows(12, np.random.default_rng(5)))
    assert run("aggregate", "--trace", str(trace), "--out", str(artifact),
               "--bins", "4") == cli.EXIT_OK
    models = [tmp_path / "model0.npz", tmp_path / "model1.npz"]
    for model in models:
        assert run("fit", "--artifact", str(artifact), "--out", str(model),
                   "--kind", kind, "--iters", "2", "--burn-in", "1",
                   "--seed", "3") == cli.EXIT_OK
    assert models[0].read_bytes() == models[1].read_bytes()
