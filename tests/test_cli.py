"""End-to-end command line coverage through main(argv)."""
import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from eegitnet import cli, training
from eegitnet.cli import main
from eegitnet.data import EPOCH_MAGIC, load_epochs, save_epochs
from eegitnet.model import MODEL_MAGIC, ArchConfig, load_model
from eegitnet.training import TrainConfig

SPEC = """\
# two separable rhythms on four channels
n_trials=24
n_channels=4
n_classes=2
fs=64
duration_s=1
noise_sigma=0.1
seed={seed}
class0.source0.center_freq=8
class0.source0.bandwidth=2
class0.source0.amplitude=1
class0.source0.mixing=1,0.5,0,0
class1.source0.center_freq=24
class1.source0.bandwidth=2
class1.source0.amplitude=1
class1.source0.mixing=0,0,0.5,1
"""

TRAIN_CFG = """\
train.max_epochs_cv=2
train.patience=1
train.extra_epochs_max=1
train.folds=2
train.batch_size=8
"""


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    seed = 0
    for stem in ("s01", "s02"):
        for part in ("train", "test"):
            spec = write(root / f"{stem}.{part}.spec", SPEC.format(seed=seed))
            out = root / f"{stem}.{part}.eegepoch"
            assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
            seed += 1
    return root


@pytest.fixture(scope="module")
def within_run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("within")
    cfg = write(out / "cfg", TRAIN_CFG)
    code = main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(out), "--config", cfg])
    assert code == 0
    return out


# ----------------------------------------------------------------------
# synth

def test_synth_writes_a_loadable_cohort(tmp_path, capsys):
    spec = write(tmp_path / "spec", SPEC.format(seed=5))
    out = tmp_path / "cohort.eegepoch"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    epochs = load_epochs(out)
    assert epochs.trials.shape == (24, 4, 64)
    assert epochs.fs == 64.0
    assert sorted(np.bincount(epochs.labels)) == [12, 12]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("n_trials=24\n", ""), "missing n_trials"),
    (lambda t: t.replace("fs=64\n", ""), "missing fs"),
    (lambda t: t + "volume=11\n", "unknown synth key"),
    (lambda t: t.replace("n_trials=24", "n_trials=lots"), "bad value"),
    (lambda t: t.replace("center_freq=24", "center_freq=40"), "Nyquist"),
    (lambda t: t + "class0.source2.center_freq=9\n", "source indices"),
    (lambda t: t + "class7.source0.center_freq=9\n", "class range"),
    # a source block's error names the block once, then the field
    (lambda t: t.replace("class0.source0.amplitude=1\n", ""),
     "error: class0.source0: source config is missing amplitude"),
    (lambda t: t + "class0.source0.phase=1\n",
     "error: class0.source0: unknown source keys: phase"),
    (lambda t: t.replace("mixing=1,0.5,0,0", "mixing=1,0.5"), "invalid synth spec"),
    (lambda t: t.replace("fs=64", "fs=nan"), "fs must be finite, got nan"),
    (lambda t: t.replace("fs=64", "fs=inf"), "fs must be finite, got inf"),
    (lambda t: t.replace("duration_s=1", "duration_s=nan"), "duration_s must be finite"),
    (lambda t: t.replace("duration_s=1", "duration_s=inf"), "duration_s must be finite, got inf"),
    (lambda t: t.replace("noise_sigma=0.1", "noise_sigma=nan"), "noise_sigma must be finite"),
    (lambda t: t.replace("center_freq=8", "center_freq=nan"), "center_freq must be finite"),
    (lambda t: t.replace("bandwidth=2\nclass0", "bandwidth=inf\nclass0"),
     "bandwidth must be finite"),
    (lambda t: t.replace("amplitude=1\nclass0", "amplitude=inf\nclass0"),
     "amplitude must be finite"),
    (lambda t: t.replace("mixing=1,0.5,0,0", "mixing=1,nan,0,0"), "mixing weights must be finite"),
    (lambda t: t.replace("seed=0\n", "seed=-1\n"), "invalid synth spec: seed must be >= 0"),
    (lambda t: t.replace("fs=64", "fs=100.3"),
     "invalid synth spec: fs=100.3 Hz is not exactly representable as float32"),
    (lambda t: t.replace("fs=64", "fs=100").replace("duration_s=1", "duration_s=0.001"),
     "under one sample"),
    (lambda t: t.replace("fs=64", "fs=100").replace("duration_s=1", "duration_s=0.03"),
     "Hz misses every frequency-grid point"),
])
def test_synth_rejects_bad_specs(tmp_path, capsys, mutate, fragment):
    spec = write(tmp_path / "spec", mutate(SPEC.format(seed=0)))
    out = tmp_path / "cohort.eegepoch"
    assert main(["synth", "--spec", spec, "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_config_parser_rejects_malformed_lines(tmp_path, capsys):
    spec = write(tmp_path / "spec", "n_trials 24\n")
    assert main(["synth", "--spec", spec, "--out", "x"]) == 2
    assert "expected key=value" in capsys.readouterr().err

    spec = write(tmp_path / "spec", "n_trials=24\nn_trials=12\n")
    assert main(["synth", "--spec", spec, "--out", "x"]) == 2
    assert "duplicate key" in capsys.readouterr().err

    assert main(["synth", "--spec", str(tmp_path / "nope"), "--out", "x"]) == 2


def test_config_that_is_not_utf8_names_file_and_line(tmp_path, capsys):
    spec = tmp_path / "spec"
    spec.write_bytes(b"n_trials=24\nn_channels=\xff4\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
    assert f"{spec}:2: not UTF-8 text" in capsys.readouterr().err


# ----------------------------------------------------------------------
# train

def test_train_within_outputs(within_run, capsys):
    files = set(os.listdir(within_run))
    assert {"config.effective", "table.csv", "summary.txt",
            "history_s01.csv", "history_s02.csv",
            "model_s01.itnetmdl", "model_s02.itnetmdl"} <= files
    assert "history_s01_pretrain.csv" not in files

    effective = (within_run / "config.effective").read_text()
    assert "train.max_epochs_cv=2" in effective
    assert "train.patience=1" in effective
    assert "arch.n_channels=4" in effective
    assert "arch.n_samples=64" in effective
    assert "arch.dropout_rate=0.4" in effective
    keys = [line.partition("=")[0] for line in effective.splitlines()]
    assert keys == ([f"train.{f.name}" for f in dataclasses.fields(TrainConfig)]
                    + [f"arch.{f.name}" for f in dataclasses.fields(ArchConfig)])

    table = (within_run / "table.csv").read_text().splitlines()
    assert table[0].startswith("subject,scenario,accuracy")
    assert len(table) == 3

    model = load_model(str(within_run / "model_s01.itnetmdl"))
    assert model.config.n_channels == 4


def test_train_stdout_is_jsonl(data_dir, tmp_path, capsys):
    cfg = write(tmp_path / "cfg", TRAIN_CFG)
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(tmp_path / "run"), "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert [r.get("subject") for r in records[:-1]] == ["s01", "s02"]
    assert set(records[-1]) == {"scenario", "mean_accuracy", "std_accuracy"}
    accs = [r["accuracy"] for r in records[:-1]]
    assert records[-1]["mean_accuracy"] == pytest.approx(np.mean(accs))


def test_train_seed_flag_overrides_config(data_dir, tmp_path):
    cfg = write(tmp_path / "cfg", TRAIN_CFG + "train.seed=3\n")
    out = tmp_path / "run"
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(out), "--config", cfg, "--seed", "9"]) == 0
    assert "train.seed=9" in (out / "config.effective").read_text()


def test_train_cross_finetuned_artifacts(data_dir, tmp_path, capsys):
    cfg = write(tmp_path / "cfg", TRAIN_CFG)
    out = tmp_path / "run"
    assert main(["train", "--scenario", "cross-ft", "--data", str(data_dir),
                 "--out", str(out), "--config", cfg]) == 0
    files = set(os.listdir(out))
    assert "history_s01_pretrain.csv" in files
    # pooled-subject regularization defaults on unless configured
    assert "arch.dropout_rate=0.2" in (out / "config.effective").read_text()
    assert "pool.s01=s02" in (out / "summary.txt").read_text()


def test_a_configured_architecture_overrides_the_scenario_default(data_dir, tmp_path,
                                                                 monkeypatch):
    def no_training(*args, **kwargs):
        raise ValueError("not trained")

    monkeypatch.setattr("eegitnet.cli.run_scenario", no_training)
    out = tmp_path / "run"
    cfg = write(tmp_path / "cfg", TRAIN_CFG + "arch.dropout_rate=0.3\n")
    assert main(["train", "--scenario", "cross", "--data", str(data_dir),
                 "--out", str(out), "--config", cfg]) == 3
    assert "arch.dropout_rate=0.3" in (out / "config.effective").read_text()


@pytest.mark.parametrize("extra,fragment", [
    ("train.optimizer=sgd\n", "unknown train keys"),
    ("arch.n_channels=8\n", "derived from the data"),
    ("train.base_lr=0\n", "bad training config"),
    ("epochs=3\n", "train. or arch."),
    ("train.seed=-3\n", "bad training config: seed must be >= 0"),
    ("arch.pool1=0\n", "bad architecture config"),
])
def test_train_config_errors(data_dir, tmp_path, capsys, extra, fragment):
    cfg = write(tmp_path / "cfg", TRAIN_CFG + extra)
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(tmp_path / "run"), "--config", cfg]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_rejects_a_non_finite_learning_rate(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write(tmp_path / "cfg", TRAIN_CFG + "train.base_lr=nan\n")
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(out), "--config", cfg]) == 2
    assert "base_lr and extra_lr must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_jobs_below_one(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(out), "--jobs", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_data_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--scenario", "within", "--data", str(empty),
                 "--out", str(tmp_path / "run")]) == 3
    assert "no *.train.eegepoch" in capsys.readouterr().err

    orphan = tmp_path / "orphan"
    orphan.mkdir()
    (orphan / "s01.train.eegepoch").write_bytes(b"NOTEPOCH")
    assert main(["train", "--scenario", "within", "--data", str(orphan),
                 "--out", str(tmp_path / "run")]) == 3
    assert "no matching" in capsys.readouterr().err

    unreadable = tmp_path / "unreadable"
    (unreadable / "s01.train.eegepoch").mkdir(parents=True)
    (unreadable / "s01.test.eegepoch").write_bytes(b"")
    assert main(["train", "--scenario", "within", "--data", str(unreadable),
                 "--out", str(tmp_path / "run")]) == 3
    assert f"cannot read {unreadable / 's01.train.eegepoch'}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_test_file_without_a_training_file(data_dir, tmp_path, capsys):
    # s02 would otherwise drop out of the cohort and out of s01's pool
    orphan = tmp_path / "orphan"
    orphan.mkdir()
    for name in ("s01.train.eegepoch", "s01.test.eegepoch", "s02.test.eegepoch"):
        (orphan / name).write_bytes((data_dir / name).read_bytes())
    assert main(["train", "--scenario", "cross", "--data", str(orphan),
                 "--out", str(tmp_path / "run")]) == 3
    assert "s02.test.eegepoch has no matching s02.train.eegepoch" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("char", [",", "=", "\n", "\r"])
def test_train_refuses_a_subject_name_its_outputs_cannot_hold(data_dir, tmp_path, capsys,
                                                              monkeypatch, char):
    # a comma would split the name over table.csv cells, '=' would end its
    # summary.txt key early, and a line break would split either line
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    for stem in ("s01", f"s{char}02"):
        for part in ("train", "test"):
            (cohort / f"{stem}.{part}.eegepoch").write_bytes(
                (data_dir / f"s01.{part}.eegepoch").read_bytes())
    loads = []
    monkeypatch.setattr(cli, "load_epochs", loads.append)
    out = tmp_path / "run"
    assert main(["train", "--scenario", "within", "--data", str(cohort),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{str(cohort / f's{char}02.train.eegepoch')!r}: a subject name holding" in err
    assert loads == []
    assert not out.exists()


def test_train_refuses_an_empty_test_session_before_training(data_dir, tmp_path, capsys,
                                                             monkeypatch):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("s01.train.eegepoch", "s01.test.eegepoch", "s02.train.eegepoch"):
        (bad / name).write_bytes((data_dir / name).read_bytes())
    test = load_epochs(str(data_dir / "s02.test.eegepoch"))
    save_epochs(dataclasses.replace(test, trials=test.trials[:0], labels=test.labels[:0]),
                str(bad / "s02.test.eegepoch"))
    fits = []
    monkeypatch.setattr(training, "fit_with_early_stopping",
                        lambda *args, **kwargs: fits.append(args))
    out = tmp_path / "run"
    assert main(["train", "--scenario", "within", "--data", str(bad), "--out", str(out),
                 "--config", write(tmp_path / "cfg", TRAIN_CFG)]) == 3
    assert "scenario failed: s02 test: nothing to evaluate" in capsys.readouterr().err
    assert fits == []


def test_train_rejects_corrupt_epoch_files(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "s01.train.eegepoch").write_bytes(b"NOTEPOCH" + b"\0" * 64)
    (broken / "s01.test.eegepoch").write_bytes(
        (data_dir / "s01.test.eegepoch").read_bytes())
    assert main(["train", "--scenario", "within", "--data", str(broken),
                 "--out", str(tmp_path / "run")]) == 3
    assert "bad epoch file" in capsys.readouterr().err


def test_train_rejects_non_finite_samples(data_dir, tmp_path, capsys):
    nan_dir = tmp_path / "nan"
    nan_dir.mkdir()
    blob = bytearray((data_dir / "s01.train.eegepoch").read_bytes())
    blob[-4:] = np.float32(np.nan).tobytes()  # the last sample of the last trial
    (nan_dir / "s01.train.eegepoch").write_bytes(blob)
    (nan_dir / "s01.test.eegepoch").write_bytes(
        (data_dir / "s01.test.eegepoch").read_bytes())
    assert main(["train", "--scenario", "within", "--data", str(nan_dir),
                 "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "bad epoch file for subject s01" in err
    assert "non-finite sample at trial 23, channel 3, sample 63" in err


def test_train_rejects_a_channel_name_that_is_not_utf8(data_dir, tmp_path, capsys):
    bad_dir = tmp_path / "latin"
    bad_dir.mkdir()
    blob = bytearray((data_dir / "s01.train.eegepoch").read_bytes())
    blob[len(EPOCH_MAGIC) + 26] = 0xFF  # the first byte of channel 0's name
    (bad_dir / "s01.train.eegepoch").write_bytes(blob)
    (bad_dir / "s01.test.eegepoch").write_bytes(
        (data_dir / "s01.test.eegepoch").read_bytes())
    assert main(["train", "--scenario", "within", "--data", str(bad_dir),
                 "--out", str(tmp_path / "run")]) == 3
    assert "bad epoch file for subject s01: channel 0 name is not UTF-8" in \
        capsys.readouterr().err


def test_train_rejects_mismatched_trial_lengths_before_training(data_dir, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for part in ("train", "test"):
        (mixed / f"s01.{part}.eegepoch").write_bytes(
            (data_dir / f"s01.{part}.eegepoch").read_bytes())
        spec = write(tmp_path / f"s02.{part}.spec",
                     SPEC.format(seed=9).replace("duration_s=1", "duration_s=1.5"))
        assert main(["synth", "--spec", spec, "--out", str(mixed / f"s02.{part}.eegepoch")]) == 0
    out = tmp_path / "run"
    assert main(["train", "--scenario", "within", "--data", str(mixed), "--out", str(out),
                 "--config", write(tmp_path / "cfg", TRAIN_CFG)]) == 3
    assert "trial length mismatch: s02 train has 96 samples, expected 64" \
        in capsys.readouterr().err
    assert not [n for n in os.listdir(out) if n.endswith(".itnetmdl")]


@pytest.mark.parametrize("target", ["file", "under_a_file"])
def test_train_reports_an_unwritable_out_before_training(data_dir, tmp_path, capsys,
                                                         monkeypatch, target):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker if target == "file" else blocker / "run"

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("eegitnet.cli.run_scenario", no_training)
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(out)]) == 3
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


def test_train_reports_results_it_cannot_write(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "table.csv").mkdir(parents=True)
    assert main(["train", "--scenario", "within", "--data", str(data_dir),
                 "--out", str(out), "--config", write(tmp_path / "cfg", TRAIN_CFG)]) == 3
    captured = capsys.readouterr()
    assert f"error: cannot write {out}: " in captured.err
    assert captured.out == ""


def test_cross_needs_two_subjects(data_dir, tmp_path, capsys):
    solo = tmp_path / "solo"
    solo.mkdir()
    for part in ("train", "test"):
        (solo / f"s01.{part}.eegepoch").write_bytes(
            (data_dir / f"s01.{part}.eegepoch").read_bytes())
    assert main(["train", "--scenario", "cross", "--data", str(solo),
                 "--out", str(tmp_path / "run")]) == 3
    assert ">= 2 subjects" in capsys.readouterr().err


# ----------------------------------------------------------------------
# explain

def test_explain_exports_the_atlas(within_run, tmp_path, capsys):
    out = tmp_path / "atlas"
    code = main(["explain", "--model", str(within_run / "model_s01.itnetmdl"),
                 "--out", str(out), "--fs", "64"])
    assert code == 0
    assert "valid below 32 Hz" in capsys.readouterr().out
    files = os.listdir(out)
    assert sum(f.startswith("spectrum_") for f in files) == 14
    assert sum(f.startswith("pattern_") for f in files) == 14
    assert "atlas.svg" in files


def test_explain_flag_validation(within_run, tmp_path, capsys):
    model = str(within_run / "model_s01.itnetmdl")
    assert main(["explain", "--model", model, "--out", str(tmp_path),
                 "--fs", "0"]) == 2
    assert main(["explain", "--model", model, "--out", str(tmp_path),
                 "--fs", "64", "--savgol-p", "99"]) == 2
    assert main(["explain", "--model", model, "--out", str(tmp_path),
                 "--fs", "64", "--pad-to", "4"]) == 2
    # refused before any DFT buffer is allocated
    assert main(["explain", "--model", model, "--out", str(tmp_path),
                 "--fs", "64", "--pad-to", "100000000"]) == 2
    assert "pad_to (100000000) must be <= 65536" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["file", "under_a_file"])
def test_explain_reports_an_unwritable_out(within_run, tmp_path, capsys, target):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker if target == "file" else blocker / "atlas"
    assert main(["explain", "--model", str(within_run / "model_s01.itnetmdl"),
                 "--out", str(out), "--fs", "64"]) == 3
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("fs", ["nan", "inf"])
def test_explain_rejects_a_non_finite_fs(within_run, tmp_path, capsys, fs):
    out = tmp_path / "atlas"
    assert main(["explain", "--model", str(within_run / "model_s01.itnetmdl"),
                 "--out", str(out), "--fs", fs]) == 2
    assert f"--fs must be a finite positive number, got {fs}" in capsys.readouterr().err
    assert not out.exists()


def test_explain_rejects_a_repeated_sidecar_key(within_run, tmp_path, capsys):
    model = tmp_path / "m.itnetmdl"
    model.write_bytes((within_run / "model_s01.itnetmdl").read_bytes())
    cfg = (within_run / "model_s01.itnetmdl.cfg").read_text()
    (tmp_path / "m.itnetmdl.cfg").write_text(cfg + "dropout_rate=0.9\n")
    assert main(["explain", "--model", str(model), "--out", str(tmp_path / "atlas"),
                 "--fs", "64"]) == 3
    assert "duplicate key 'dropout_rate'" in capsys.readouterr().err


def test_explain_rejects_a_sidecar_that_is_not_utf8(within_run, tmp_path, capsys):
    model = tmp_path / "m.itnetmdl"
    model.write_bytes((within_run / "model_s01.itnetmdl").read_bytes())
    cfg = (within_run / "model_s01.itnetmdl.cfg").read_bytes()
    (tmp_path / "m.itnetmdl.cfg").write_bytes(cfg.replace(b"pool1=4", b"pool1=\xff"))
    assert main(["explain", "--model", str(model), "--out", str(tmp_path / "atlas"),
                 "--fs", "64"]) == 3
    assert "m.itnetmdl.cfg:5: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("name, offset, payload, fragment", [
    (b"branch0.spatial.w", 0, b"\xff", "a parameter name is not UTF-8"),
    (b"branch0.spatial.w", len(b"branch0.spatial.w") + 18, np.float32(np.nan).tobytes(),
     "parameter branch0.spatial.w: non-finite value"),
    (b"tc0.bn0.running_var", len(b"tc0.bn0.running_var") + 6, np.float32(-1.0).tobytes(),
     "parameter tc0.bn0.running_var: negative variance"),
    (b"branch0.temporal.b", len(b"branch0.temporal.b") + 1, bytes([70]),
     "parameter branch0.temporal.b: rank 70 != 1"),
    (b"branch0.spatial.w", len(b"branch0.spatial.w") + 1,
     struct.pack("<B3I", 3, 0, 4_000_000_000, 4_000_000_000),
     "parameter branch0.spatial.w: rank 3 != 4"),
    (b"head.b", len(b"head.b"), bytes([1]),
     "parameter head.b: dtype float64 differs from the float32 of branch0.temporal.w"),
    (MODEL_MAGIC, len(MODEL_MAGIC), struct.pack("<I", 2), "unsupported model file version 2"),
], ids=["name-not-utf8", "non-finite-weight", "negative-variance", "rank-70",
        "huge-empty-extents", "mixed-dtypes", "version-2"])
def test_explain_rejects_bad_values_in_the_model_file(within_run, tmp_path, capsys, name,
                                                      offset, payload, fragment):
    # the offsets count from the array's name: its first byte, its dtype tag,
    # its rank, or its first value after the dtype tag, the rank and the
    # extents (four for a weight, one for a running variance)
    blob = bytearray((within_run / "model_s01.itnetmdl").read_bytes())
    at = blob.index(name) + offset
    blob[at:at + len(payload)] = payload
    model = tmp_path / "m.itnetmdl"
    model.write_bytes(blob)
    (tmp_path / "m.itnetmdl.cfg").write_bytes(
        (within_run / "model_s01.itnetmdl.cfg").read_bytes())
    out = tmp_path / "atlas"
    assert main(["explain", "--model", str(model), "--out", str(out), "--fs", "64"]) == 3
    assert f"bad model file: {fragment}" in capsys.readouterr().err
    assert not out.exists()


def test_explain_missing_or_corrupt_model(tmp_path, capsys):
    assert main(["explain", "--model", str(tmp_path / "no.itnetmdl"),
                 "--out", str(tmp_path), "--fs", "64"]) == 3
    bad = tmp_path / "bad.itnetmdl"
    bad.write_bytes(b"NOTMODEL" + b"\0" * 32)
    assert main(["explain", "--model", str(bad),
                 "--out", str(tmp_path), "--fs", "64"]) == 3
    assert "bad model file" in capsys.readouterr().err

    folder = tmp_path / "folder.itnetmdl"
    folder.mkdir()
    write(tmp_path / "folder.itnetmdl.cfg", "n_channels=4\nn_samples=64\nn_classes=2\n")
    assert main(["explain", "--model", str(folder),
                 "--out", str(tmp_path), "--fs", "64"]) == 3
    assert f"cannot read {folder}" in capsys.readouterr().err


# ----------------------------------------------------------------------
# plan

def test_plan_prints_kernel_and_reach(capsys):
    assert main(["plan", "--target-r", "91"]) == 0
    out = capsys.readouterr().out
    assert "kernel_extent=4" in out
    assert "receptive_field=91" in out

    assert main(["plan", "--target-r", "121"]) == 0
    assert "kernel_extent=5" in capsys.readouterr().out

    # a closed form, not a search: a 10^12-sample target answers at once
    assert main(["plan", "--target-r", "1000000000000"]) == 0
    out = capsys.readouterr().out
    assert "kernel_extent=33333333335" in out
    assert "receptive_field=1000000000021" in out


def test_plan_rejects_impossible_targets(capsys):
    assert main(["plan", "--target-r", "5", "--blocks", "0"]) == 2
    capsys.readouterr()
    # a field of 20,000 doubling blocks is refused before anything is printed
    assert main(["plan", "--target-r", "5", "--blocks", "20000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "receptive field exceeds 9223372036854775807 samples" in err


# ----------------------------------------------------------------------
# stats

TABLE_A = ("subject,scenario,accuracy\n"
           + "\n".join(f"s{i:02d},within,{a}" for i, a in enumerate(
               [84.38, 62.85, 89.93, 69.10, 74.31, 57.64, 88.54, 83.68, 80.21], 1))
           + "\n")
TABLE_B = ("subject,scenario,accuracy\n"
           + "\n".join(f"s{i:02d},within,{a}" for i, a in enumerate(
               [81.94, 56.94, 90.62, 67.01, 72.57, 58.68, 76.04, 81.25, 78.12], 1))
           + "\n")


def test_stats_wilcoxon_verdict(tmp_path, capsys):
    a = write(tmp_path / "a.csv", TABLE_A)
    b = write(tmp_path / "b.csv", TABLE_B)
    assert main(["stats", "--table", a, "--vs", b, "--test", "wilcoxon"]) == 0
    out = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert out["test"] == "wilcoxon_one_sided"
    assert out["n_pairs"] == "9"
    assert out["n_effective"] == "9"
    assert float(out["p_value"]) == 5 / 512
    assert out["significant_at_0.05"] == "yes"


def test_stats_ttest_verdict(tmp_path, capsys):
    a = write(tmp_path / "a.csv", TABLE_A)
    b = write(tmp_path / "b.csv", TABLE_B)
    assert main(["stats", "--table", a, "--vs", b, "--test", "ttest"]) == 0
    out = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert out["test"] == "paired_t_right"
    assert out["df"] == "8"
    assert 0.0 < float(out["p_value"]) < 0.05


def test_stats_table_errors(tmp_path, capsys):
    a = write(tmp_path / "a.csv", TABLE_A)
    assert main(["stats", "--table", a, "--vs", a, "--test", "wilcoxon"]) == 3
    assert "zero" in capsys.readouterr().err

    other = write(tmp_path / "c.csv",
                  "subject,accuracy\ns01,50\ns99,60\n" +
                  "\n".join(f"s{i:02d},50" for i in range(2, 9)))
    assert main(["stats", "--table", a, "--vs", other, "--test", "wilcoxon"]) == 3
    assert "different subjects" in capsys.readouterr().err

    headerless = write(tmp_path / "d.csv", "name,score\nx,1\n")
    assert main(["stats", "--table", headerless, "--vs", a,
                 "--test", "wilcoxon"]) == 3
    assert "header" in capsys.readouterr().err

    dup = write(tmp_path / "e.csv", "subject,accuracy\ns01,50\ns01,60\n")
    assert main(["stats", "--table", dup, "--vs", a, "--test", "ttest"]) == 3
    assert "duplicate subject" in capsys.readouterr().err

    latin = tmp_path / "f.csv"
    latin.write_bytes(b"subject,accuracy\ns01,50\ns\xff02,60\n")
    assert main(["stats", "--table", str(latin), "--vs", a, "--test", "ttest"]) == 3
    assert f"{latin}:3: not UTF-8 text" in capsys.readouterr().err

    blank = write(tmp_path / "g.csv", "\n  \n\n")
    assert main(["stats", "--table", blank, "--vs", a, "--test", "ttest"]) == 3
    assert f"{blank}: empty table" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_stats_refuses_a_non_finite_accuracy_by_its_line(tmp_path, capsys, cell):
    a = write(tmp_path / "a.csv", TABLE_A)
    b = write(tmp_path / "b.csv", TABLE_B.replace("76.04", cell))
    for test in ("wilcoxon", "ttest"):
        assert main(["stats", "--table", a, "--vs", b, "--test", test]) == 3
        assert capsys.readouterr().err == f"error: {b}:8: bad accuracy {cell!r}\n"


def test_an_unexpected_error_exits_4_with_its_type_and_message(monkeypatch, capsys):
    def fail(args):
        raise RuntimeError("the disk went away")

    monkeypatch.setattr(cli, "cmd_plan", fail)
    assert main(["plan", "--target-r", "91"]) == 4
    assert capsys.readouterr().err == "error: RuntimeError: the disk went away\n"


def test_module_entry_point():
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "eegitnet", "plan",
                           "--target-r", "91"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert "kernel_extent=4" in proc.stdout
