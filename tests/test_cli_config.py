"""Command-line settings that must fail as config errors before any work."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tracemix import cli, gibbs, ingest, predict, synth
from tracemix.ingest import BinningConfig, CountVectorSequence
from tracemix.models import Hyperparams


@pytest.mark.parametrize("chains", ["0", "-1"])
def test_fit_rejects_fewer_than_one_chain(tmp_path, capsys, chains):
    artifact, out = tmp_path / "counts.npz", tmp_path / "m.npz"
    X = np.array([[1, 0], [0, 2], [1, 1], [3, 0]])
    ingest.save_artifact(CountVectorSequence(
        X, [np.array(a, dtype=np.int64) for a in ([1], [2], [], [3])],
        BinningConfig(M=2, lba_lo=0, lba_hi=8192, nu=30.0)),
        artifact)
    code = cli.main(["fit", "--artifact", str(artifact), "--out", str(out),
                     "--iters", "2", "--burn-in", "1", "--chains", chains])
    assert code == cli.EXIT_CONFIG
    assert "chains must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"motifs": [[], [5]], "pattern": [0, 1, 7]},
    {"motifs": [[]], "pattern": [0]},
    {"T": 0},
    {"motifs": [[5], [6]], "pattern": [0, 2]},
    {"pattern": []},
    {"pattern": [1.0]},
    {"noise_block_range": None},
    {"motifs": [5]},
    {"T": 2.5},
    {"nu": "30"},
    {"block_size": True},
    {"pattern": 0},
    {"noise_block_range": [10, 5]},
    {"seed": "x"},
    {"seed": 1.5},
    {"seed": True},
    {"seed": -1},
])
def test_gen_trace_rejects_bad_spec(tmp_path, capsys, spec):
    path, out = tmp_path / "spec.json", tmp_path / "trace.csv"
    path.write_text(json.dumps(spec))
    assert cli.main(["gen-trace", "--spec", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    # the message names the offending field
    assert any(field in err for field in spec)
    assert not out.exists()


def test_gen_trace_rejects_a_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli.main(["gen-trace", "--seed", "-1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def save_counts(path, M=2):
    X = np.arange(8 * M).reshape(8, M) % 3
    A = [np.array([t], dtype=np.int64) for t in range(8)]
    ingest.save_artifact(CountVectorSequence(
        X, A, BinningConfig(M=M, lba_lo=0, lba_hi=8192, nu=30.0)), path)


def save_one_cluster_model(path, M):
    model = predict.FittedModel(
        K=1, pi=[[1.0]], pi0=[1.0], mu=np.ones((1, M)),
        Lambda=np.zeros((1, M, M)), lambda_hat=np.zeros(M),
        b=np.ones((1, M), dtype=np.int8), hp=Hyperparams(), kind=gibbs.HMM_DP_MIP)
    predict.save_model(model, predict.AccessMap({0: np.arange(3, dtype=np.int64)}),
                       BinningConfig(M=M, lba_lo=0, lba_hi=8192, nu=30.0), path)


def drop_field(path, name):
    with np.load(path) as z:
        kept = {key: z[key] for key in z.files if key != name}
    np.savez(path, **kept)


def test_fit_rejects_an_artifact_without_a_field(tmp_path, capsys):
    artifact, out = tmp_path / "counts.npz", tmp_path / "m.npz"
    save_counts(artifact)
    drop_field(artifact, "A_flat")
    code = cli.main(["fit", "--artifact", str(artifact), "--out", str(out),
                     "--iters", "2", "--burn-in", "1"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "A_flat" in err
    assert not out.exists()


def test_fit_rejects_an_artifact_whose_counts_miss_a_bin(tmp_path, capsys):
    # nine columns of counts under a ten-bin binning
    artifact, out = tmp_path / "counts.npz", tmp_path / "m.npz"
    save_counts(artifact, M=10)
    with np.load(artifact) as z:
        fields = dict(z)
    fields["X"] = fields["X"][:, :9]
    np.savez(artifact, **fields)
    code = cli.main(["fit", "--artifact", str(artifact), "--out", str(out),
                     "--iters", "2", "--burn-in", "1"])
    assert code == cli.EXIT_CONFIG
    assert "config error: X has 9 columns but the binning has M = 10" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_model_without_a_field(tmp_path, capsys):
    model, trace = tmp_path / "m.npz", tmp_path / "trace.csv"
    save_one_cluster_model(model, M=2)
    drop_field(model, "pi0")
    trace.write_text("".join(f"{t}.0,read,{t * 4096},4096\n" for t in range(0, 120, 7)))
    code = cli.main(["simulate", "--format", "plain", "--trace", str(trace),
                     "--model", str(model), "--out-prefix", str(tmp_path / "sim")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "pi0" in err
    assert not (tmp_path / "sim_baseline.csv").exists()


def test_eval_rejects_a_model_of_another_bin_count(tmp_path, capsys):
    artifact, model, out = tmp_path / "counts.npz", tmp_path / "m.npz", tmp_path / "eval.csv"
    save_counts(artifact, M=4)
    save_one_cluster_model(model, M=3)
    code = cli.main(["eval", "--artifact", str(artifact), "--models", str(model),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: model was fitted with 3 bins but the data has 4" in err
    assert not out.exists()


def test_eval_rejects_a_model_of_another_binning(tmp_path, capsys):
    # the same trace aggregated twice with ten bins: 30 s slices of 4096-byte
    # blocks for the fit, 10 s slices of 512-byte blocks for the eval
    trace = tmp_path / "trace.csv"
    synth.write_trace_csv(synth.gen_block_trace(
        replace(synth.default_trace_spec(seed=1), T=120)), trace)
    c30, c10, model = tmp_path / "c30.npz", tmp_path / "c10.npz", tmp_path / "m30.npz"
    plain = ["--format", "plain", "--split", "0.5"]
    for out, secs, block in ((c30, "30", "4096"), (c10, "10", "512")):
        assert cli.main(["aggregate", "--trace", str(trace), "--out", str(out),
                         "--slice-secs", secs, "--block-size", block, *plain]) == cli.EXIT_OK
    assert cli.main(["fit", "--artifact", str(c30), "--out", str(model),
                     "--kind", "hmm-dp-mip", "--iters", "2", "--burn-in", "1",
                     *plain]) == cli.EXIT_OK
    capsys.readouterr()
    code = cli.main(["eval", "--artifact", str(c10), "--models", str(model), *plain])
    assert code == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and str(model) in out.err
    assert "nu=30.0, block_size=4096" in out.err and "nu=10.0, block_size=512" in out.err
    assert cli.main(["eval", "--artifact", str(c30), "--models", str(model),
                     *plain]) == cli.EXIT_OK


def test_aggregate_needs_reads_in_the_learning_part(tmp_path, capsys):
    # the reads fall in slices 5 and 6 of 7, both past the learning cut, so
    # no address range can be learnt
    trace, out = tmp_path / "trace.csv", tmp_path / "counts.npz"
    trace.write_text("0,write,0,4096\n155,read,409600,4096\n185,read,819200,4096\n")
    code = cli.main(["aggregate", "--format", "plain", "--trace", str(trace),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "the learning part of the trace holds no reads" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_needs_two_read_slices(tmp_path, capsys):
    # every read sits in slice 0, so no learning cut leaves both parts
    # non-empty; later writes do not count as slices
    trace, out = tmp_path / "trace.csv", tmp_path / "counts.npz"
    trace.write_text("0.0,read,0,4096\n5.0,read,8192,4096\n95.0,write,0,4096\n")
    code = cli.main(["aggregate", "--format", "plain", "--trace", str(trace),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "at least 2 slices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("secs", ["0", "-30", "nan", "inf"])
def test_aggregate_rejects_a_slice_length_that_is_not_finite_and_positive(
        tmp_path, capsys, secs):
    trace, out = tmp_path / "trace.csv", tmp_path / "counts.npz"
    trace.write_text("".join(f"{t}.0,read,{t * 4096},4096\n" for t in range(0, 120, 7)))
    code = cli.main(["aggregate", "--format", "plain", "--trace", str(trace),
                     "--out", str(out), f"--slice-secs={secs}"])
    assert code == cli.EXIT_CONFIG
    assert "config error: slice_secs must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("secs", ["0", "-1", "nan"])
def test_fit_rejects_a_wall_clock_limit_that_is_not_positive(tmp_path, capsys, secs):
    argv = config_run_argv(tmp_path, "fit") + ["--iters", "2", "--burn-in", "1"]
    assert cli.main(argv + [f"--wall-clock-secs={secs}"]) == cli.EXIT_CONFIG
    assert "config error: wall_clock_limit must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out.npz").exists()
    # inf means no limit
    assert cli.main(argv + ["--wall-clock-secs=inf"]) == cli.EXIT_OK


@pytest.mark.parametrize("source", ["flag", "file"])
def test_fit_rejects_a_negative_seed_by_name(tmp_path, capsys, source):
    argv = config_run_argv(tmp_path, "fit") + ["--iters", "2", "--burn-in", "1"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1} if source == "file" else {}))
    extra = ["--seed", "-1"] if source == "flag" else []
    assert cli.main(["--config", str(config)] + argv + extra) == cli.EXIT_CONFIG
    assert ("config error: seed must be a non-negative integer, got -1"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.npz").exists()


def test_fit_config_takes_only_a_non_negative_integer_seed():
    gibbs.FitConfig(seed=np.int64(3))
    for seed in (-1, True, 1.0, "1"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            gibbs.FitConfig(seed=seed)


# the model and the artifact below are binned at 30 s slices, 4096-byte
# blocks and M bins, counting per request; only aggregate has --per-block
@pytest.mark.parametrize("command", ["simulate", "eval", "fit"])
@pytest.mark.parametrize("source, key, flag, value", [
    (source, *setting) for source in ("flag", "file") for setting in (
        ("slice_secs", "--slice-secs", 5.0), ("bins", "--bins", 3),
        ("block_size", "--block-size", 512))] + [("file", "per_block", None, True)])
def test_binning_settings_must_match_the_model_or_artifact(
        tmp_path, capsys, command, source, key, flag, value):
    M = 2
    model, artifact, trace = tmp_path / "m.npz", tmp_path / "counts.npz", tmp_path / "trace.csv"
    save_one_cluster_model(model, M=M)
    save_counts(artifact, M=M)
    trace.write_text("".join(f"{t}.0,read,{t * 4096},4096\n" for t in range(0, 120, 7)))
    argv = {"simulate": ["simulate", "--format", "plain", "--trace", str(trace),
                         "--model", str(model), "--out-prefix", str(tmp_path / "sim")],
            "eval": ["eval", "--artifact", str(artifact), "--models", str(model),
                     "--out", str(tmp_path / "eval.csv")],
            "fit": ["fit", "--artifact", str(artifact), "--out", str(tmp_path / "fit.npz"),
                    "--iters", "2", "--burn-in", "1"]}[command]
    # the values the files hold are accepted either way
    held = {"slice_secs": 30.0, "bins": M, "block_size": 4096, "per_block": False}[key]
    for given, want in ((held, cli.EXIT_OK), (value, cli.EXIT_CONFIG)):
        if source == "flag":
            options = [flag, str(given)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: given}))
            options = ["--config", str(config)]
        code = cli.main(options + argv if source == "file" else argv + options)
        err = capsys.readouterr().err
        assert code == want, err
    assert "config error" in err and key in err
    assert str(value) in err and str(held) in err


def config_run_argv(tmp_path, command):
    """argv of one command on a small trace or artifact in tmp_path; an
    aggregate needs "format": "plain" from the config file."""
    if command == "fit":
        artifact = tmp_path / "counts.npz"
        save_counts(artifact)
        return ["fit", "--artifact", str(artifact), "--out", str(tmp_path / "out.npz")]
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{t}.0,read,{t * 4096},4096\n" for t in range(0, 120, 7)))
    return ["aggregate", "--trace", str(trace), "--out", str(tmp_path / "out.npz")]


# each value has the wrong type for its key: a string or float for an int,
# a bool for an int or float, anything but true or false for per_block, and
# a name outside the choices for format and kind
@pytest.mark.parametrize("command, key, value", [
    ("fit", "iters", "3"), ("aggregate", "bins", 10.5), ("aggregate", "split", "0.5"),
    ("aggregate", "block_size", "4096"), ("fit", "wall_clock_secs", "60"),
    ("fit", "chains", True), ("aggregate", "per_block", "no"),
    ("aggregate", "format", "xyz"), ("aggregate", "bins", True),
    ("aggregate", "block_size", 4096.0), ("aggregate", "slice_secs", False),
    ("fit", "seed", 1.5), ("fit", "kind", 3)])
def test_config_file_values_must_have_the_type_of_their_default(
        tmp_path, capsys, command, key, value):
    argv = config_run_argv(tmp_path, command)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "plain", key: value}))
    code = cli.main(["--config", str(config)] + argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert f"config error: {key} must be" in err and repr(value) in err
    assert not (tmp_path / "out.npz").exists()


@pytest.mark.parametrize("command, config", [
    ("aggregate", {"block_size": None, "per_block": True, "slice_secs": 30}),
    ("fit", {"wall_clock_secs": 60, "iters": 2, "burn_in": 1, "chains": 1})])
def test_config_file_takes_an_int_for_a_float_and_null_for_block_size(
        tmp_path, capsys, command, config):
    argv = config_run_argv(tmp_path, command)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"format": "plain", **config}))
    assert cli.main(["--config", str(path)] + argv) == cli.EXIT_OK, capsys.readouterr().err


# only fit draws random numbers; gen-trace takes its own --seed
@pytest.mark.parametrize("argv", [
    ["aggregate", "--trace", "t.csv", "--out", "c.npz"],
    ["eval", "--artifact", "c.npz", "--models", "m.npz"],
    ["simulate", "--trace", "t.csv", "--model", "m.npz"]])
def test_only_fit_takes_a_seed_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "1"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_a_config_file_seed_feeds_fit(tmp_path):
    argv = config_run_argv(tmp_path, "fit") + ["--iters", "3", "--burn-in", "1",
                                               "--kind", "dp-mip"]
    models = {}
    for name, extra in (("flag", ["--seed", "5"]), ("file", []), ("default", [])):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5} if name == "file" else {}))
        assert cli.main(["--config", str(config)] + argv + extra) == cli.EXIT_OK
        models[name] = (tmp_path / "out.npz").read_bytes()
    assert models["file"] == models["flag"] != models["default"]
