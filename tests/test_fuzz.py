"""Seeded corruption fuzzing of every file the command line reads.

Each target (an epoch file, a model file, its ``.cfg`` sidecar, a train
config and an accuracy table) gets ``MUTANTS`` mutants drawn from one fixed
seed: a bit flip, a byte set, an inserted byte, a deleted byte, or 1 to 8
appended bytes.  In a binary file half the positions fall on its structure
(headers, names, extents, labels) and half anywhere.

A binary mutant either loads and saves back to the same bytes, or raises the
``FormatError`` that the command line maps to exit 3.  A text mutant either
parses or raises the error that the command line maps to exit 2 or 3.  Every
``SAMPLE_EVERY``-th mutant also goes through ``main()``, which must exit 0, 2
or 3, never 4 (a runtime failure).
"""
import math
import struct

import numpy as np
import pytest

from eegitnet import cli
from eegitnet.data import SourceSpec, SynthSpec, load_epochs, save_epochs, synth_generate
from eegitnet.errors import FormatError
from eegitnet.model import (MODEL_MAGIC, ArchConfig, arch_config_from_items, build,
                            load_model, save_model)
from eegitnet.training import default_train_config

SEED = 1729
MUTANTS = 300
SAMPLE_EVERY = 25
KINDS = ("flip", "set", "insert", "delete", "append")

TRAIN_CFG = b"""\
# a tiny within run
train.max_epochs_cv=2
train.patience=1
train.extra_epochs_max=1
train.folds=2
train.batch_size=4
arch.dropout_rate=0.3
"""

TABLE = b"subject,accuracy\ns01,84.38\ns02,62.85\ns03,89.93\ns04,69.10\ns05,75.5\n"


def mutants(blob, target, structure=None):
    """``MUTANTS`` (label, bytes) pairs of ``blob``, the same on every run;
    ``structure`` lists the offsets that half the positions are drawn from."""
    rng = np.random.default_rng([SEED, target])
    out = []
    for _ in range(MUTANTS):
        kind = KINDS[rng.integers(len(KINDS))]
        b = bytearray(blob)
        if structure is not None and rng.random() < 0.5:
            at = int(rng.choice(structure))
        else:
            at = int(rng.integers(len(b)))
        if kind == "flip":
            b[at] ^= 1 << int(rng.integers(8))
        elif kind == "set":
            b[at] = int(rng.integers(256))
        elif kind == "insert":
            b.insert(at, int(rng.integers(256)))
        elif kind == "delete":
            del b[at]
        else:
            b += rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        out.append((f"{kind} at {at}", bytes(b)))
    return out


def model_structure(blob):
    """Offsets of a float32 model file's magic, version and entry headers."""
    at = len(MODEL_MAGIC) + 4
    offsets = list(range(at))
    while at < len(blob):
        n, = struct.unpack_from("<H", blob, at)
        rank = blob[at + n + 3]
        extents = struct.unpack_from(f"<{rank}I", blob, at + n + 4)
        head = n + 4 + 4 * rank
        offsets += range(at, at + head)
        at += head + 4 * math.prod(extents)
    return offsets


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The original targets, and a data directory holding one tiny subject."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = SynthSpec(n_trials=8, n_channels=4, n_classes=2, fs=64.0, duration_s=1.0,
                     sources=((SourceSpec(8.0, 2.0, 1.0, (1, 0.5, 0, 0)),),
                              (SourceSpec(24.0, 2.0, 1.0, (0, 0, 0.5, 1)),)),
                     noise_sigma=0.1, seed=1)
    data = root / "data"
    data.mkdir()
    for part in ("train", "test"):
        save_epochs(synth_generate(spec), data / f"s01.{part}.eegepoch")
    save_model(build(ArchConfig(n_channels=4, n_samples=64, n_classes=2), seed=2),
               root / "m.itnetmdl")
    (root / "train.cfg").write_bytes(TRAIN_CFG)
    (root / "table.csv").write_bytes(TABLE)
    return root


def run_all(cases, check, outcomes):
    """Apply ``check`` to every mutant; return the ones that escaped."""
    escaped = []
    for label, blob in cases:
        try:
            outcomes.add(check(blob))
        except Exception as exc:  # noqa: BLE001 - an escape is what the test looks for
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    return escaped


def assert_exits(tmp_path, cases, argv):
    """Run every ``SAMPLE_EVERY``-th mutant through ``main(argv(i, blob))``."""
    codes = {}
    for i, (label, blob) in enumerate(cases[::SAMPLE_EVERY]):
        codes[label] = cli.main(argv(tmp_path / f"cli{i}", blob))
    assert set(codes.values()) <= {0, 2, 3}, codes


def test_epoch_file_mutants(files, tmp_path):
    original = files / "data" / "s01.train.eegepoch"
    blob = original.read_bytes()
    cases = mutants(blob, 0, range(len(blob) - 4 * load_epochs(original).trials.size))
    path, back = tmp_path / "m.eegepoch", tmp_path / "back.eegepoch"

    def check(mutant):
        path.write_bytes(mutant)
        try:
            epochs = load_epochs(path)
        except FormatError as exc:
            return exc.code
        save_epochs(epochs, back)
        if back.read_bytes() != mutant:
            raise AssertionError("saved back to other bytes")
        return "loaded"

    outcomes = set()
    assert run_all(cases, check, outcomes) == []
    assert {"loaded", "truncated", "bad_value"} <= outcomes

    def argv(run, mutant):
        run.mkdir()
        (run / "s01.train.eegepoch").write_bytes(mutant)
        (run / "s01.test.eegepoch").write_bytes(blob)
        return ["train", "--scenario", "within", "--data", str(run), "--out",
                str(run / "out"), "--config", str(files / "train.cfg")]

    assert_exits(tmp_path, cases, argv)


def test_model_file_mutants(files, tmp_path):
    blob = (files / "m.itnetmdl").read_bytes()
    cfg = (files / "m.itnetmdl.cfg").read_bytes()
    cases = mutants(blob, 1, model_structure(blob))
    path, back = tmp_path / "m.itnetmdl", tmp_path / "back.itnetmdl"
    (tmp_path / "m.itnetmdl.cfg").write_bytes(cfg)

    def check(mutant):
        path.write_bytes(mutant)
        try:
            model = load_model(path)
        except FormatError as exc:
            return exc.code
        save_model(model, back)
        if back.read_bytes() != mutant:
            raise AssertionError("saved back to other bytes")
        return "loaded"

    outcomes = set()
    assert run_all(cases, check, outcomes) == []
    assert {"loaded", "truncated", "bad_value"} <= outcomes

    def argv(run, mutant):
        run.mkdir()
        (run / "m.itnetmdl").write_bytes(mutant)
        (run / "m.itnetmdl.cfg").write_bytes(cfg)
        return ["explain", "--model", str(run / "m.itnetmdl"), "--out", str(run / "atlas"),
                "--fs", "64"]

    assert_exits(tmp_path, cases, argv)


def test_model_sidecar_mutants(files, tmp_path):
    blob = (files / "m.itnetmdl").read_bytes()
    cfg = (files / "m.itnetmdl.cfg").read_bytes()
    cases = mutants(cfg, 2)
    path = tmp_path / "m.itnetmdl"
    path.write_bytes(blob)

    def check(mutant):
        (tmp_path / "m.itnetmdl.cfg").write_bytes(mutant)
        try:
            load_model(path)
        except FormatError as exc:
            return exc.code
        return "loaded"

    outcomes = set()
    assert run_all(cases, check, outcomes) == []
    assert {"loaded", "bad_value"} <= outcomes

    def argv(run, mutant):
        run.mkdir()
        (run / "m.itnetmdl").write_bytes(blob)
        (run / "m.itnetmdl.cfg").write_bytes(mutant)
        return ["explain", "--model", str(run / "m.itnetmdl"), "--out", str(run / "atlas"),
                "--fs", "64"]

    assert_exits(tmp_path, cases, argv)


def test_train_config_mutants(files, tmp_path):
    cases = mutants(TRAIN_CFG, 3)
    path = tmp_path / "train.cfg"

    def check(mutant):
        # the config steps of `train`, which maps a ValueError from the last
        # two to exit 2
        path.write_bytes(mutant)
        try:
            overrides, arch_items = cli._split_train_config(cli._read_kv(path), path)
        except cli.CliError as exc:
            return exc.code
        try:
            default_train_config("within", **overrides)
            arch_config_from_items({**arch_items, "n_channels": "4", "n_samples": "64",
                                    "n_classes": "2"})
        except ValueError:
            return cli.EXIT_USAGE
        return "parsed"

    outcomes = set()
    assert run_all(cases, check, outcomes) == []
    assert outcomes == {"parsed", cli.EXIT_USAGE}

    def argv(run, mutant):
        run.mkdir()
        (run / "train.cfg").write_bytes(mutant)
        return ["train", "--scenario", "within", "--data", str(files / "data"), "--out",
                str(run / "out"), "--config", str(run / "train.cfg")]

    assert_exits(tmp_path, cases, argv)


def test_stats_table_mutants(files, tmp_path):
    cases = mutants(TABLE, 4)
    path = tmp_path / "table.csv"

    def check(mutant):
        path.write_bytes(mutant)
        try:
            cli._read_accuracy_table(path)
        except cli.CliError as exc:
            return exc.code
        return "parsed"

    outcomes = set()
    assert run_all(cases, check, outcomes) == []
    assert outcomes == {"parsed", cli.EXIT_DATA}

    def argv(run, mutant):
        run.mkdir()
        (run / "table.csv").write_bytes(mutant)
        return ["stats", "--table", str(run / "table.csv"), "--vs", str(files / "table.csv"),
                "--test", "wilcoxon"]

    assert_exits(tmp_path, cases, argv)
