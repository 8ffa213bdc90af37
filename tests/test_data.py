"""Containers, the binary trial format, standardisation, and the generator."""
import ast
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.signal import welch

import eegitnet
from eegitnet.data import (EPOCH_MAGIC, EpochSet, SourceSpec, SynthSpec, _check_variance,
                           concat_epochs, load_epochs, montage_22, ring_layout, save_epochs,
                           standardize, synth_generate, window_samples)
from eegitnet.errors import FormatError
from eegitnet.ops import check_finite_trials
from oracles import standardize_reference, synth_generate_reference


def small_set(rng, n_trials=6, n_channels=3, n_samples=20, n_classes=2, fs=100.0, trials=None):
    if trials is None:
        trials = rng.standard_normal((n_trials, n_channels, n_samples)).astype(np.float32)
    labels = np.arange(n_trials) % n_classes
    names = tuple(f"ch{i}" for i in range(n_channels))
    xy = ring_layout(n_channels)
    classes = tuple(f"class{i}" for i in range(n_classes))
    return EpochSet(trials, labels, classes, names, xy, fs)


# ----------------------------------------------------------------------
# container validation

def test_epochset_validates_shapes(rng):
    good = small_set(rng)
    with pytest.raises(ValueError):
        EpochSet(good.trials[:, :, 0], good.labels, good.class_names,
                 good.channel_names, good.channel_xy, good.fs)
    with pytest.raises(ValueError):
        EpochSet(good.trials, good.labels[:-1], good.class_names,
                 good.channel_names, good.channel_xy, good.fs)
    with pytest.raises(ValueError):
        EpochSet(good.trials, good.labels + 5, good.class_names,
                 good.channel_names, good.channel_xy, good.fs)
    with pytest.raises(ValueError):
        EpochSet(good.trials, good.labels, good.class_names,
                 good.channel_names[:-1], good.channel_xy, good.fs)
    with pytest.raises(ValueError, match="channel name 'c1' appears twice"):
        EpochSet(good.trials, good.labels, good.class_names,
                 ("c1", "c1", "c3"), good.channel_xy, good.fs)
    with pytest.raises(ValueError, match="class name 'a' appears twice"):
        EpochSet(good.trials, good.labels, ("a", "a"),
                 good.channel_names, good.channel_xy, good.fs)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"fs must be positive and finite, got {bad}"):
            EpochSet(good.trials, good.labels, good.class_names,
                     good.channel_names, good.channel_xy, bad)
    for bad in (np.nan, np.inf):
        xy = good.channel_xy.copy()
        xy[1, 0] = bad
        with pytest.raises(ValueError, match="channel_xy of channel 1 is not finite"):
            EpochSet(good.trials, good.labels, good.class_names,
                     good.channel_names, xy, good.fs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_epochset_rejects_non_finite_trials(rng, bad):
    good = small_set(rng)
    trials = good.trials.copy()
    trials[4, 2, 17] = bad
    with pytest.raises(ValueError, match="trial 4, channel 2, sample 17"):
        EpochSet(trials, good.labels, good.class_names, good.channel_names,
                 good.channel_xy, good.fs)


def test_epochset_names_the_first_non_finite_sample_in_order(rng):
    good = small_set(rng)
    trials = good.trials.copy()
    trials[4, 0, 2] = np.inf
    trials[2, 1, 9] = np.nan
    trials[2, 2, 3] = -np.inf
    with pytest.raises(ValueError, match="trial 2, channel 1, sample 9"):
        EpochSet(trials, good.labels, good.class_names, good.channel_names,
                 good.channel_xy, good.fs)


def test_epochset_may_hold_no_trials(rng):
    good = small_set(rng)
    empty = EpochSet(good.trials[:0], good.labels[:0], good.class_names, good.channel_names,
                     good.channel_xy, good.fs)
    assert empty.n_trials == 0


@pytest.mark.parametrize("labels, trial", [([0, 1.5, 1], 1), ([0, 1, np.nan], 2),
                                           ([-0.5, 0, 1], 0)])
def test_epochset_refuses_labels_that_are_not_whole_numbers(rng, labels, trial):
    good = small_set(rng, n_trials=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused, not cast with a RuntimeWarning
        with pytest.raises(ValueError, match=f"label of trial {trial} is .+, not a whole number"):
            EpochSet(good.trials, labels, good.class_names, good.channel_names,
                     good.channel_xy, good.fs)


def test_epochset_keeps_whole_float_labels_and_an_empty_label_list(rng):
    good = small_set(rng, n_trials=3)
    whole = EpochSet(good.trials, [0.0, 1.0, 1.0], good.class_names, good.channel_names,
                     good.channel_xy, good.fs)
    assert whole.labels.dtype == np.uint32 and whole.labels.tolist() == [0, 1, 1]
    empty = EpochSet(good.trials[:0], [], good.class_names, good.channel_names,
                     good.channel_xy, good.fs)
    assert empty.labels.dtype == np.uint32 and empty.labels.size == 0


def test_finite_checks_build_no_mask(rng):
    # a bool mask of every sample would be a quarter of the trials' bytes
    trials = rng.standard_normal((64, 8, 375)).astype(np.float32)
    labels = np.arange(64) % 2
    _, peak = peak_bytes(lambda: EpochSet(trials, labels, ("a", "b"),
                                          tuple(f"ch{i}" for i in range(8)),
                                          ring_layout(8), 125.0))
    assert peak <= 0.05 * trials.nbytes, f"EpochSet peak {peak} bytes"
    _, peak = peak_bytes(lambda: check_finite_trials(trials[:, None]))
    assert peak <= 0.05 * trials.nbytes, f"check_finite_trials peak {peak} bytes"


def test_concat_requires_identical_metadata(rng):
    a = small_set(rng)
    b = small_set(rng)
    both = concat_epochs([a, b])
    assert both.n_trials == a.n_trials + b.n_trials
    np.testing.assert_array_equal(both.trials[:a.n_trials], a.trials)
    other_classes = EpochSet(a.trials, a.labels, ("x", "y"), a.channel_names,
                             a.channel_xy, a.fs)
    with pytest.raises(ValueError, match="label-space"):
        concat_epochs([a, other_classes])
    other_fs = EpochSet(a.trials, a.labels, a.class_names, a.channel_names,
                        a.channel_xy, 200.0)
    with pytest.raises(ValueError, match="[Ss]ampling"):
        concat_epochs([a, other_fs])


# ----------------------------------------------------------------------
# the binary trial container

def test_epoch_file_round_trip_is_bit_exact(tmp_path, rng):
    s = small_set(rng)
    path = tmp_path / "s.eegepoch"
    save_epochs(s, path)
    loaded = load_epochs(path)
    np.testing.assert_array_equal(loaded.trials, s.trials)
    np.testing.assert_array_equal(loaded.labels, s.labels)
    np.testing.assert_array_equal(loaded.channel_xy, s.channel_xy)
    assert loaded.class_names == s.class_names
    assert loaded.channel_names == s.channel_names
    assert loaded.fs == s.fs
    # a second save of the loaded set produces identical bytes
    path2 = tmp_path / "s2.eegepoch"
    save_epochs(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("fs", [100.3, 1e39])
def test_save_refuses_a_rate_float32_cannot_hold(tmp_path, rng, fs):
    # the container stores fs as float32: 100.3 would load back as
    # 100.30000305175781, and 1e39 does not fit at all
    s = small_set(rng, fs=fs)
    with pytest.raises(ValueError, match="not exactly representable as float32"):
        save_epochs(s, tmp_path / "s.eegepoch")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("fs", [250.0, float(np.float32(100.3))])
def test_a_rate_float32_holds_round_trips(tmp_path, rng, fs):
    path = tmp_path / "s.eegepoch"
    save_epochs(small_set(rng, fs=fs), path)
    assert load_epochs(path).fs == fs


def test_epoch_file_bad_magic(tmp_path, rng):
    path = tmp_path / "s.eegepoch"
    save_epochs(small_set(rng), path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTEPOCH"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        load_epochs(path)
    assert err.value.code == "bad_magic"


@pytest.mark.parametrize("keep", [4, 20, 60, 130])
def test_epoch_file_truncation(tmp_path, rng, keep):
    path = tmp_path / "s.eegepoch"
    save_epochs(small_set(rng), path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FormatError) as err:
        load_epochs(path)
    assert err.value.code in ("truncated", "bad_magic")


def test_epoch_file_extent_overflow(tmp_path, rng):
    import struct
    path = tmp_path / "s.eegepoch"
    save_epochs(small_set(rng), path)
    blob = bytearray(path.read_bytes())
    # inflate the declared trial count far past the element limit
    blob[12:16] = struct.pack("<I", 2 ** 31 - 1)
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        load_epochs(path)
    assert err.value.code == "extent_overflow"


def test_epoch_file_label_out_of_range(tmp_path, rng):
    import struct
    s = small_set(rng)
    path = tmp_path / "s.eegepoch"
    save_epochs(s, path)
    blob = bytearray(path.read_bytes())
    # labels start right after header + channel table + class names
    offset = len(blob) - 4 * s.n_trials - 4 * s.trials.size
    blob[offset:offset + 4] = struct.pack("<I", 99)
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        load_epochs(path)
    assert err.value.code == "bad_value"


def test_epoch_file_non_finite_sample(tmp_path, rng):
    s = small_set(rng)
    path = tmp_path / "s.eegepoch"
    save_epochs(s, path)
    blob = bytearray(path.read_bytes())
    # two bad samples; the error names the first in (trial, channel, sample) order
    data = len(blob) - 4 * s.trials.size
    for t, c, k in ((3, 1, 7), (5, 0, 0)):
        offset = data + 4 * ((t * s.n_channels + c) * s.n_samples + k)
        blob[offset:offset + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="trial 3, channel 1, sample 7") as err:
        load_epochs(path)
    assert err.value.code == "bad_value"


def test_epoch_file_channel_name_that_is_not_utf8(tmp_path, rng):
    path = tmp_path / "s.eegepoch"
    save_epochs(small_set(rng), path)
    blob = bytearray(path.read_bytes())
    blob[len(EPOCH_MAGIC) + 26] = 0xFF  # the first byte of channel 0's name
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="channel 0 name is not UTF-8") as err:
        load_epochs(path)
    assert err.value.code == "bad_value"


def _append_seven_bytes(blob, s):
    blob += b"\0" * 7


def _insert_a_sample(blob, s):
    # four bytes inside the data: every later sample would load shifted
    at = len(blob) - 4 * s.trials.size + 40
    blob[at:at] = np.float32(1.0).tobytes()


def _repeat_a_channel_name(blob, s):
    # "ch1" becomes "ch0": each name is a u16 length, 3 bytes, then 8 bytes of xy
    at = len(EPOCH_MAGIC) + 24 + 13 + 2
    blob[at:at + 3] = b"ch0"


def _repeat_a_class_name(blob, s):
    # "class1" becomes "class0": the class names follow the 3 channel entries
    at = len(EPOCH_MAGIC) + 24 + 3 * 13 + 8 + 2
    blob[at:at + 6] = b"class0"


def _nan_coordinate(blob, s):
    at = len(EPOCH_MAGIC) + 24 + 13 + 5   # channel 1's x
    blob[at:at + 4] = np.float32(np.nan).tobytes()


@pytest.mark.parametrize("corrupt, fragment", [
    (_append_seven_bytes, "7 bytes after the declared"),
    (_insert_a_sample, "4 bytes after the declared"),
    (_repeat_a_channel_name, "channel name 'ch0' appears twice"),
    (_repeat_a_class_name, "class name 'class0' appears twice"),
    (_nan_coordinate, "channel_xy of channel 1 is not finite"),
], ids=["trailing-bytes", "inserted-bytes", "repeated-channel-name", "repeated-class-name",
        "nan-coordinate"])
def test_epoch_file_bad_layout_or_channel_table(tmp_path, rng, corrupt, fragment):
    s = small_set(rng)
    path = tmp_path / "s.eegepoch"
    save_epochs(s, path)
    blob = bytearray(path.read_bytes())
    corrupt(blob, s)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=fragment) as err:
        load_epochs(path)
    assert err.value.code == "bad_value"


@pytest.mark.parametrize("fs", [0.0, -125.0, np.nan, np.inf])
def test_epoch_file_bad_sampling_rate(tmp_path, rng, fs):
    path = tmp_path / "s.eegepoch"
    save_epochs(small_set(rng), path)
    blob = bytearray(path.read_bytes())
    offset = len(EPOCH_MAGIC) + 20  # the rate follows the five header counts
    blob[offset:offset + 4] = np.float32(fs).tobytes()
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="fs must be positive") as err:
        load_epochs(path)
    assert err.value.code == "bad_value"


SCIPY_PROBE_SPEC = """\
n_trials=12
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


def test_no_subcommand_loads_any_scipy_module(tmp_path):
    # numpy is the only runtime dependency; the probe runs every subcommand
    # in a process of its own, so that what other tests import does not count
    probe = """
import json, os, sys
import eegitnet, eegitnet.cli
root = sys.argv[1]
def path(name):
    return os.path.join(root, name)
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
def run(*argv):
    assert eegitnet.cli.main(list(argv)) == 0, argv
    return loaded()
seen = {"import": loaded(), "plan": run("plan", "--target-r", "91")}
for test in ("wilcoxon", "ttest"):
    seen[test] = run("stats", "--table", path("a.csv"), "--vs", path("b.csv"), "--test", test)
os.mkdir(path("data"))
for part in ("train", "test"):
    seen["synth"] = run("synth", "--spec", path(f"{part}.spec"),
                        "--out", path(f"data/s01.{part}.eegepoch"))
seen["train"] = run("train", "--scenario", "within", "--data", path("data"),
                    "--out", path("run"), "--config", path("train.cfg"))
seen["explain"] = run("explain", "--model", path("run/model_s01.itnetmdl"),
                      "--out", path("atlas"), "--fs", "64")
print(json.dumps(seen))
"""
    for name, accuracies in (("a", [84.38, 62.85, 89.93, 69.10]),
                             ("b", [81.94, 56.94, 90.62, 67.01])):
        (tmp_path / f"{name}.csv").write_text("subject,accuracy\n" + "".join(
            f"s{i:02d},{acc}\n" for i, acc in enumerate(accuracies, 1)))
    for seed, part in enumerate(("train", "test")):
        (tmp_path / f"{part}.spec").write_text(SCIPY_PROBE_SPEC.format(seed=seed))
    (tmp_path / "train.cfg").write_text("train.max_epochs_cv=2\ntrain.patience=1\n"
                                        "train.extra_epochs_max=1\ntrain.folds=2\n"
                                        "train.batch_size=8\n")
    src = os.path.dirname(os.path.dirname(eegitnet.__file__))
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import", "plan", "wilcoxon", "ttest", "synth", "train", "explain"]
    assert seen == dict.fromkeys(seen, [])


def test_no_package_module_imports_scipy():
    src = os.path.dirname(eegitnet.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.split(".")[0] == "scipy"], (name, node.lineno)


def test_every_package_import_is_numpy_the_standard_library_or_the_package():
    src = os.path.dirname(eegitnet.__file__)
    allowed = sys.stdlib_module_names | {"numpy", "eegitnet"}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import (level > 0) names a module of the package
                modules = ["eegitnet"] if node.level else [node.module]
            else:
                continue
            assert {m.split(".")[0] for m in modules} <= allowed, (name, node.lineno)


def test_window_samples():
    assert window_samples(125.0, 3.0) == 375
    assert window_samples(250.0, 4.5) == 1125
    assert window_samples(250.0, 2.0) == 500


# ----------------------------------------------------------------------
# standardization

def test_standardize_zeroes_training_moments(rng):
    train = small_set(rng, n_trials=20, n_samples=50)
    test = small_set(rng, n_trials=8, n_samples=50)
    (train_z, test_z), stats = standardize(train, test)
    got_mean = train_z.trials.astype(np.float64).mean(axis=(0, 2))
    got_std = train_z.trials.astype(np.float64).std(axis=(0, 2))
    np.testing.assert_allclose(got_mean, 0.0, atol=1e-6)
    np.testing.assert_allclose(got_std, 1.0, rtol=1e-5)
    # the *same* affine map is applied to the test set
    ref = (test.trials.astype(np.float64) - stats.mean[:, None]) / stats.std[:, None]
    np.testing.assert_allclose(test_z.trials, ref.astype(np.float32), rtol=1e-6)


def test_standardize_statistics_come_from_train_only(rng):
    train = small_set(rng, n_trials=10, n_samples=40)
    shifted = EpochSet(train.trials + 100.0, train.labels, train.class_names,
                       train.channel_names, train.channel_xy, train.fs)
    (_, shifted_z), _ = standardize(train, shifted)
    # the shift survives because the test set never touches the statistics
    assert shifted_z.trials.mean() > 50


def test_standardize_rejects_flat_channel(rng):
    s = small_set(rng)
    flat = s.trials.copy()
    flat[:, 1, :] = 2.5
    bad = EpochSet(flat, s.labels, s.class_names, s.channel_names,
                   s.channel_xy, s.fs)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, std = standardize_reference(flat)
    assert std[1] == 0.0 and (np.delete(std, 1) > 0).all()
    with pytest.raises(ValueError, match="zero-variance channel\\(s\\): ch1$"):
        standardize(bad)


def verdict(rule, sessions):
    try:
        rule(sessions)
    except ValueError as exc:
        return str(exc)
    return None


def std_rule(sessions):
    """The float64 ``std == 0.0`` test over the sessions concatenated."""
    x = np.concatenate([s.trials for s in sessions])
    if x.size == 0:
        raise ValueError("training set is empty")
    flat = np.flatnonzero(x.std(axis=(0, 2), dtype=np.float64) == 0.0)
    if flat.size:
        names = ", ".join(sessions[0].channel_names[i] for i in flat)
        raise ValueError(f"zero-variance channel(s): {names}")


@pytest.mark.parametrize("sizes", [(3,), (2, 4), (0, 3, 0, 1), (1, 1, 1), (40, 0, 25)])
def test_the_flat_channel_rule_is_float64_std_equal_zero(rng, sizes):
    # channel 0 holds one value everywhere; channel 1 too, but for one sample
    # one float32 ulp up or down; channel 2 holds the value in even sessions
    # and its upper neighbour in odd ones; channel 3 is noise
    cases = 0
    for value in (0.0, -0.0, 1e-40, 1.4e-45, 3.4e38, -3.4e38, 0.1, -2.5):
        v = np.float32(value)
        for toward in (np.inf, -np.inf):
            for trial in (0, sum(sizes) - 1):
                x = np.full((sum(sizes), 4, 7), v, dtype=np.float32)
                x[trial, 1, 3] = np.nextafter(v, np.float32(toward))
                x[:, 3] = rng.standard_normal((sum(sizes), 7))
                parts = np.split(x, np.cumsum(sizes)[:-1])
                for k, part in enumerate(parts):
                    part[:, 2] = v if k % 2 == 0 else np.nextafter(v, np.float32(np.inf))
                sessions = [small_set(rng, n_trials=len(p), n_channels=4, n_samples=7, trials=p)
                            for p in parts]
                want = verdict(std_rule, sessions)
                assert want.startswith("zero-variance channel(s): ch0")
                assert verdict(_check_variance, sessions) == want, (value, toward, trial)
                cases += 1
    assert cases == 32


def test_the_flat_channel_rule_refuses_a_pool_without_samples(rng):
    empty = [small_set(rng, n_trials=0, n_channels=4, n_samples=7) for _ in range(3)]
    assert verdict(_check_variance, empty) == verdict(std_rule, empty) == "training set is empty"


@pytest.mark.parametrize("n_train, n_test, n_channels, n_samples, scale, offset", [
    (7, 0, 1, 33, 1.0, 0.0),
    (6, 5, 1, 1, 1.0, 0.0),
    (20, 9, 3, 101, 1e3, 5.0),
    (11, 4, 5, 9001, 1e-3, -2.0),
    (5, 3, 7, 375, 30.0, 1e4),
    (48, 16, 22, 1125, 1.0, 0.0),
], ids=["1ch", "1ch-1sample", "3ch-odd", "5ch-long", "large-offset", "paper-two-sets"])
def test_standardize_matches_the_float64_reference(rng, n_train, n_test, n_channels,
                                                   n_samples, scale, offset):
    def epochs(n):
        x = (rng.standard_normal((n, n_channels, n_samples)) * scale + offset)
        return small_set(rng, n_trials=n, n_channels=n_channels, n_samples=n_samples,
                         trials=x.astype(np.float32))

    sets = [epochs(n_train)] + ([epochs(n_test)] if n_test else [])
    out, stats = standardize(*sets)
    arrays, mean, std = standardize_reference(*(s.trials for s in sets))
    np.testing.assert_array_equal(stats.mean, mean, strict=True)
    np.testing.assert_array_equal(stats.std, std, strict=True)
    for got, want in zip(out, arrays, strict=True):
        np.testing.assert_array_equal(got.trials, want, strict=True)


# ----------------------------------------------------------------------
# electrode layouts

def test_montage_covers_22_unique_positions():
    names, xy = montage_22()
    assert len(names) == len(set(names)) == 22
    assert xy.shape == (22, 2)
    assert (np.linalg.norm(xy, axis=1) <= 1.0).all()
    assert "Cz" in names and "Fz" in names


def test_ring_layout_radius():
    xy = ring_layout(7)
    np.testing.assert_allclose(np.linalg.norm(xy, axis=1), 0.8, rtol=1e-6)
    assert ring_layout(1).shape == (1, 2)


# ----------------------------------------------------------------------
# synthetic generator

def two_source_spec(n_trials=40, noise=0.1, seed=3):
    return SynthSpec(
        n_trials=n_trials, n_channels=6, n_classes=2, fs=125.0, duration_s=3.0,
        sources=[
            [SourceSpec(10.0, 2.0, 1.0, (1.0, 0.7, 0.2, 0.0, 0.0, 0.0))],
            [SourceSpec(22.0, 2.0, 1.0, (0.0, 0.0, 0.1, 0.3, 1.0, 0.6))],
        ],
        noise_sigma=noise, seed=seed)


def test_synth_is_balanced_and_deterministic():
    spec = two_source_spec()
    a = synth_generate(spec)
    b = synth_generate(spec)
    np.testing.assert_array_equal(a.trials, b.trials)
    np.testing.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels)
    np.testing.assert_array_equal(counts, [20, 20])
    c = synth_generate(two_source_spec(seed=4))
    assert not np.array_equal(a.trials, c.trials)


def test_synth_plants_power_in_the_declared_band():
    epochs = synth_generate(two_source_spec(n_trials=20, noise=0.0))
    for label, (lo, hi) in ((0, (8.5, 11.5)), (1, (20.5, 23.5))):
        trials = epochs.trials[epochs.labels == label].astype(np.float64)
        # strongest channel of the mixing column
        ch = 0 if label == 0 else 4
        freqs, psd = welch(trials[:, ch, :], fs=125.0, nperseg=375, axis=-1)
        psd = psd.mean(axis=0)
        band = (freqs >= lo) & (freqs <= hi)
        assert psd[band].sum() > 1000 * psd[~band].sum(), f"class {label}"


def test_synth_channel_power_follows_mixing_column():
    epochs = synth_generate(two_source_spec(n_trials=20, noise=0.0))
    mix = np.asarray(two_source_spec().sources[0][0].mixing)
    trials = epochs.trials[epochs.labels == 0].astype(np.float64)
    rms = np.sqrt((trials ** 2).mean(axis=(0, 2)))
    corr = np.corrcoef(rms, np.abs(mix))[0, 1]
    assert corr > 0.99


def test_synth_noise_sigma_controls_floor():
    quiet = synth_generate(two_source_spec(noise=0.0, seed=8))
    noisy = synth_generate(two_source_spec(noise=0.5, seed=8))
    # channel 5 carries nothing for class 0 in the quiet set
    c0 = quiet.labels == 0
    assert np.abs(quiet.trials[c0][:, 5, :]).max() < 1e-6
    assert noisy.trials[noisy.labels == 0][:, 5, :].std() == pytest.approx(0.5, rel=0.1)


def test_synth_uses_montage_for_22_channels():
    spec = SynthSpec(
        n_trials=2, n_channels=22, n_classes=2, fs=125.0, duration_s=1.0,
        sources=[[SourceSpec(10.0, 2.0, 1.0, tuple([1.0] * 22))],
                 [SourceSpec(20.0, 2.0, 1.0, tuple([1.0] * 22))]],
        seed=0)
    epochs = synth_generate(spec)
    assert epochs.channel_names == montage_22()[0]


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="Nyquist"):
        SynthSpec(
            n_trials=4, n_channels=2, n_classes=2, fs=125.0, duration_s=1.0,
            sources=[[SourceSpec(70.0, 2.0, 1.0, (1.0, 0.0))],
                     [SourceSpec(10.0, 2.0, 1.0, (0.0, 1.0))]])
    with pytest.raises(ValueError, match="divide evenly"):
        SynthSpec(n_trials=5, n_channels=2, n_classes=2, fs=125.0, duration_s=1.0,
                  sources=[[SourceSpec(10.0, 2.0, 1.0, (1.0, 0.0))],
                           [SourceSpec(20.0, 2.0, 1.0, (0.0, 1.0))]])
    with pytest.raises(ValueError, match="mixing column"):
        SynthSpec(n_trials=4, n_channels=3, n_classes=2, fs=125.0, duration_s=1.0,
                  sources=[[SourceSpec(10.0, 2.0, 1.0, (1.0, 0.0))],
                           [SourceSpec(20.0, 2.0, 1.0, (0.0, 1.0))]])
    with pytest.raises(ValueError):
        SourceSpec(10.0, 2.0, 1.0, (0.0, 0.0))


def test_synth_rejects_band_between_grid_points():
    # 375 samples at 125 Hz -> grid spacing 1/3 Hz; this band misses it
    spec = SynthSpec(
        n_trials=2, n_channels=2, n_classes=2, fs=125.0, duration_s=3.0,
        sources=[[SourceSpec(10.17, 0.1, 1.0, (1.0, 0.0))],
                 [SourceSpec(20.0, 2.0, 1.0, (0.0, 1.0))]],
        seed=0)
    with pytest.raises(ValueError, match="grid"):
        synth_generate(spec)


@pytest.mark.parametrize("n_channels, fs, duration_s, noise, per_class", [
    (1, 125.0, 0.6, 0.1, 1),
    (3, 101.0, 1.0, 0.0, 2),
    (6, 125.0, 3.0, 0.3, 2),
    (22, 250.0, 4.5, 0.2, 1),
], ids=["1ch-75-samples", "3ch-odd-rate", "6ch-two-sources", "paper-shape"])
def test_synth_matches_the_float64_reference(n_channels, fs, duration_s, noise, per_class):
    mixing = np.random.default_rng(n_channels).standard_normal((2, per_class, n_channels))
    spec = SynthSpec(
        n_trials=8, n_channels=n_channels, n_classes=2, fs=fs, duration_s=duration_s,
        sources=[[SourceSpec(f + 6.0 * j, 2.0, 1.0 + j, tuple(mixing[ci, j]))
                  for j in range(per_class)] for ci, f in enumerate((10.0, 20.0))],
        noise_sigma=noise, seed=n_channels)
    trials, labels = synth_generate_reference(spec)
    epochs = synth_generate(spec)
    np.testing.assert_array_equal(epochs.trials, trials, strict=True)
    np.testing.assert_array_equal(epochs.labels, labels, strict=True)


def test_mixing_columns_are_normalized():
    src = SourceSpec(10.0, 2.0, 1.0, (3.0, 4.0))
    np.testing.assert_allclose(np.linalg.norm(src.mixing_array), 1.0, rtol=1e-12)
    np.testing.assert_allclose(src.mixing_array, [0.6, 0.8], rtol=1e-12)


# ----------------------------------------------------------------------
# allocations: each call holds about one float32 copy of the trials it
# returns, measured in multiples of the float32 bytes of the sets involved

def peak_bytes(fn):
    """``(fn(), peak bytes traced while it ran)``."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def paper_spec(n_trials, seed):
    mixing = np.random.default_rng(0).standard_normal((4, 22))
    return SynthSpec(n_trials=n_trials, n_channels=22, n_classes=4, fs=250.0, duration_s=4.5,
                     sources=[[SourceSpec(f, 2.0, 1.0, tuple(m))]
                              for f, m in zip((8.0, 12.0, 18.0, 26.0), mixing)],
                     noise_sigma=0.2, seed=seed)


def test_synth_generate_holds_one_float32_copy():
    epochs, peak = peak_bytes(lambda: synth_generate(paper_spec(48, 1)))
    assert peak <= 1.5 * epochs.trials.nbytes, f"peak {peak / epochs.trials.nbytes:.2f}x"


def test_standardize_holds_at_most_twice_its_sets():
    train, test = synth_generate(paper_spec(48, 1)), synth_generate(paper_spec(16, 2))
    size = train.trials.nbytes + test.trials.nbytes
    _, peak = peak_bytes(lambda: standardize(train, test))
    assert peak <= 2.0 * size, f"peak {peak / size:.2f}x"


def test_save_epochs_writes_the_trial_array_itself(tmp_path):
    epochs = synth_generate(paper_spec(48, 1))
    _, peak = peak_bytes(lambda: save_epochs(epochs, tmp_path / "s.eegepoch"))
    assert peak <= 0.1 * epochs.trials.nbytes, f"peak {peak / epochs.trials.nbytes:.2f}x"


def test_load_epochs_reads_into_the_trial_array(tmp_path):
    path = tmp_path / "s.eegepoch"
    save_epochs(synth_generate(paper_spec(48, 1)), path)
    epochs, peak = peak_bytes(lambda: load_epochs(path))
    assert peak <= 1.2 * epochs.trials.nbytes, f"peak {peak / epochs.trials.nbytes:.2f}x"
