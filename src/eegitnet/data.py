"""Trial containers, preprocessing, and the synthetic signal generator.

An :class:`EpochSet` holds fixed-length labeled multi-channel trials plus
the metadata needed downstream (channel names and scalp coordinates for
topographic rendering, class names, sampling rate).  Sets round-trip
through the ``EEGEPOCH`` binary container bit-exactly.

The synthetic generator plants band-limited sources with known mixing
columns so that classifier accuracy and the explainability outputs can be
checked against ground truth.

Each function keeps one float32 copy of the trials it returns.  The
generator sums each trial in float64 and stores it once; standardisation
takes float64 statistics from the float32 trials (``std``'s deviations are
its one float64 temporary) and writes its result a chunk of trials at a
time; the container is written from, and read into, the trial array
itself.  The results are bit-identical to working on a float64 copy of the
whole set.
"""
from __future__ import annotations

import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError
from .fileio import atomic_write, pack_string, read_exact, read_into, read_string
from .ops import _CHUNK_BYTES, check_finite_trials

EPOCH_MAGIC = b"EEGEPOCH"
EPOCH_VERSION = 1
_MAX_ELEMENTS = 2 ** 31  # sanity bound on declared payload size


# ----------------------------------------------------------------------
# containers

def check_labels(labels, n_classes):
    """``labels`` as integers, once each is checked to be a whole number in
    ``[0, n_classes)``; a ``ValueError`` names the first trial whose label
    is not."""
    labels = np.asarray(labels)
    whole = labels == np.trunc(labels)   # NaN is never whole
    bad = np.flatnonzero(~whole | (labels < 0) | (labels >= n_classes))
    if len(bad):
        t = bad[0]
        if not whole[t]:
            raise ValueError(f"label of trial {t} is {labels[t]}, not a whole number")
        raise ValueError(f"label of trial {t} is {labels[t]}; labels must lie in [0, {n_classes})")
    return labels.astype(np.intp, copy=False)


def check_labelled(trials, labels, n_classes, min_trials, what):
    """``labels`` as integers, once ``(trials, labels)``, ``what`` in messages,
    is checked to be a labelled set: one label per trial in a 1-D array, at
    least ``min_trials`` trials, and each label a class (:func:`check_labels`)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{what} needs a 1-D label array, got shape {labels.shape}")
    n = len(labels)
    if n != len(trials):
        raise ValueError(f"{what} holds {len(trials)} trials but {n} labels")
    if n < min_trials:
        raise ValueError(f"{what} needs at least {min_trials} trial{'s' * (min_trials > 1)}, got {n}")
    return check_labels(labels, n_classes)


@dataclass(frozen=True)
class EpochSet:
    """Labeled trials: (n_trials, n_channels, n_samples) float32 data.

    ``channel_xy`` are unit-disc scalp coordinates (x toward the right ear,
    y toward the nose), one row per channel.
    """

    trials: np.ndarray
    labels: np.ndarray
    class_names: tuple
    channel_names: tuple
    channel_xy: np.ndarray
    fs: float

    def __post_init__(self):
        trials = np.asarray(self.trials, dtype=np.float32)
        if trials.ndim != 3:
            raise ValueError(f"trials must be 3-D (trial, channel, sample), got {trials.ndim}-D")
        labels = check_labelled(trials, self.labels, len(self.class_names), 0, "the set")
        check_finite_trials(trials, axis="channel")
        xy = np.asarray(self.channel_xy, dtype=np.float32)
        if xy.shape != (trials.shape[1], 2):
            raise ValueError(
                f"channel_xy must be ({trials.shape[1]}, 2), got {tuple(xy.shape)}")
        if not np.isfinite(xy).all():
            raise ValueError(f"channel_xy of channel {np.argmin(np.isfinite(xy).all(axis=1))} "
                             "is not finite")
        if len(self.channel_names) != trials.shape[1]:
            raise ValueError(
                f"{len(self.channel_names)} channel names for {trials.shape[1]} channels")
        for kind, names in (("channel", self.channel_names), ("class", self.class_names)):
            seen = set()
            for name in names:
                if name in seen:
                    raise ValueError(f"{kind} name {name!r} appears twice")
                seen.add(name)
        if not 0 < self.fs < math.inf:
            raise ValueError(f"fs must be positive and finite, got {self.fs}")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "labels", labels.astype(np.uint32))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "channel_xy", xy)
        object.__setattr__(self, "fs", float(self.fs))

    @property
    def n_trials(self):
        return self.trials.shape[0]

    @property
    def n_channels(self):
        return self.trials.shape[1]

    @property
    def n_samples(self):
        return self.trials.shape[2]

    @property
    def n_classes(self):
        return len(self.class_names)


def check_compatible(sets, names=None):
    """Raise ``ValueError`` unless every set shares the first set's class
    names, channel names, sampling rate and trial length.  ``names`` label
    the sets in the message (default ``set 0``, ``set 1``, ...)."""
    sets = list(sets)
    if names is None:
        names = [f"set {i}" for i in range(len(sets))]
    first = sets[0]
    for name, other in zip(names[1:], sets[1:]):
        if other.class_names != first.class_names:
            raise ValueError(f"label-space mismatch: {name} has classes {other.class_names}, "
                             f"expected {first.class_names}")
        if other.channel_names != first.channel_names:
            raise ValueError(f"channel mismatch: {name} has channels {other.channel_names}, "
                             f"expected {first.channel_names}")
        if other.fs != first.fs:
            raise ValueError(f"sampling rate mismatch: {name} has {other.fs:g} Hz, "
                             f"expected {first.fs:g} Hz")
        if other.n_samples != first.n_samples:
            raise ValueError(f"trial length mismatch: {name} has {other.n_samples} samples, "
                             f"expected {first.n_samples}")


def concat_epochs(sets):
    """Stack several sets recorded with identical metadata into one."""
    sets = list(sets)
    if not sets:
        raise ValueError("no sets to concatenate")
    check_compatible(sets)
    return replace(sets[0],
                   trials=np.concatenate([s.trials for s in sets]),
                   labels=np.concatenate([s.labels for s in sets]))


# ----------------------------------------------------------------------
# EEGEPOCH container format

def save_epochs(epochs: EpochSet, path):
    """Write the set as an ``EEGEPOCH`` file: a header, then the labels and
    the trial array as they are in memory.  The sampling rate is stored as
    float32, so a rate float32 cannot hold exactly raises ``ValueError``
    before anything is written."""
    with np.errstate(over="ignore"):
        exact = float(np.float32(epochs.fs)) == epochs.fs
    if not exact:
        raise ValueError(f"fs={epochs.fs!r} Hz is not exactly representable as float32, "
                         "the container's sampling-rate type")
    header = [EPOCH_MAGIC,
              struct.pack("<IIIII", EPOCH_VERSION, epochs.n_trials, epochs.n_channels,
                          epochs.n_samples, epochs.n_classes),
              struct.pack("<f", epochs.fs)]
    for name, (x, y) in zip(epochs.channel_names, epochs.channel_xy):
        header.append(pack_string(name))
        header.append(struct.pack("<ff", x, y))
    for name in epochs.class_names:
        header.append(pack_string(name))
    atomic_write(path, b"".join(header),
                 np.ascontiguousarray(epochs.labels, dtype="<u4"),
                 np.ascontiguousarray(epochs.trials, dtype="<f4"))


def load_epochs(path) -> EpochSet:
    with open(path, "rb") as f:
        magic = f.read(len(EPOCH_MAGIC))
        if magic != EPOCH_MAGIC:
            raise FormatError("bad_magic", f"not an epoch container: magic {magic!r}")
        version, n_trials, n_channels, n_samples, n_classes = struct.unpack(
            "<IIIII", read_exact(f, 20, "the header"))
        if version != EPOCH_VERSION:
            raise FormatError("bad_value", f"unsupported container version {version}")
        if n_channels < 1 or n_samples < 1 or n_classes < 1:
            raise FormatError("bad_value", "channel, sample, and class counts must be >= 1")
        if n_trials * n_channels * n_samples > _MAX_ELEMENTS:
            raise FormatError("extent_overflow",
                              f"declared payload of {n_trials}x{n_channels}x{n_samples} "
                              "samples exceeds the format limit")
        fs, = struct.unpack("<f", read_exact(f, 4, "the sampling rate"))
        channel_names, xy = [], []
        for i in range(n_channels):
            channel_names.append(read_string(f, f"channel {i} name"))
            xy.append(struct.unpack("<ff", read_exact(f, 8, f"channel {i} coordinates")))
        class_names = [read_string(f, f"class {i} name") for i in range(n_classes)]
        # the labels and the samples fill the rest of the file exactly;
        # checked before either is read
        payload = 4 * n_trials * (1 + n_channels * n_samples)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left < payload:
            raise FormatError("truncated", f"file ends {payload - left} bytes short of "
                                           f"the declared {payload}-byte payload")
        if left > payload:
            raise FormatError("bad_value", f"{left - payload} bytes after the declared "
                                           f"{payload}-byte payload")
        labels = np.frombuffer(read_exact(f, 4 * n_trials, "the labels"), dtype="<u4")
        try:
            check_labels(labels, n_classes)
        except ValueError as exc:
            raise FormatError("bad_value", str(exc)) from None
        trials = np.empty((n_trials, n_channels, n_samples), dtype="<f4")
        read_into(f, trials, "the trial data")
    try:
        return EpochSet(trials, labels, class_names, channel_names,
                        np.asarray(xy, dtype=np.float32).reshape(n_channels, 2), fs)
    except ValueError as exc:
        # the shapes were checked above; what is left is a bad value in the
        # file: a non-finite sample or coordinate, a repeated channel or
        # class name or a sampling rate that is not positive and finite
        raise FormatError("bad_value", str(exc)) from None


# ----------------------------------------------------------------------
# preprocessing

ChannelStats = namedtuple("ChannelStats", ["mean", "std"])


def standardize(train: EpochSet, *others: EpochSet):
    """Shift/scale every channel to zero mean, unit variance on the training
    set, applying the same transform to any further sets.

    Returns ``(sets, stats)`` where ``sets`` is (train', others'...) and
    ``stats`` holds the per-channel mean/std the transform used.  Only the
    training trials contribute to the statistics.
    """
    stats = _channel_stats(train)
    out = tuple(apply_standardize(s, stats) for s in (train, *others))
    return out, stats


def _channel_stats(train: EpochSet) -> ChannelStats:
    """The per-channel mean and std that :func:`standardize` scales by;
    ``ValueError`` for an empty set or a zero-variance channel."""
    _check_variance([train])
    x = train.trials
    # float64 reductions over the float32 trials give the statistics of a
    # float64 copy bit for bit; only std's deviations are a float64 temporary
    mean = x.mean(axis=(0, 2), dtype=np.float64)
    std = x.std(axis=(0, 2), dtype=np.float64)
    return ChannelStats(mean, std)


def _check_variance(sessions):
    """Refuse sessions without samples, or name each channel whose float64 std
    over them all is zero, without concatenating them: whose ``min`` equals its
    ``max``.  Up to 2**29 equal float32 samples have an exact float64 mean, and
    two unequal ones give a deviation whose square does not underflow."""
    sessions = [s for s in sessions if s.trials.size]
    if not sessions:
        raise ValueError("training set is empty")
    lo = np.min([s.trials.min(axis=(0, 2)) for s in sessions], axis=0)
    hi = np.max([s.trials.max(axis=(0, 2)) for s in sessions], axis=0)
    flat = np.flatnonzero(lo == hi)
    if flat.size:
        names = ", ".join(sessions[0].channel_names[i] for i in flat)
        raise ValueError(f"zero-variance channel(s): {names}")


def apply_standardize(epochs: EpochSet, stats: ChannelStats) -> EpochSet:
    """``(x - mean) / std`` per channel, computed in float64 and stored into
    one float32 array a chunk of trials at a time."""
    x = epochs.trials
    mean, std = stats.mean[:, None], stats.std[:, None]
    z = np.empty_like(x)
    chunk = max(1, _CHUNK_BYTES // (8 * max(1, x.shape[1] * x.shape[2])))
    for a in range(0, len(x), chunk):
        block = x[a:a + chunk] - mean
        block /= std
        z[a:a + chunk] = block
    return replace(epochs, trials=z)


def window_samples(fs, duration_s):
    """Number of samples in a fixed window, e.g. 3 s at 125 Hz -> 375."""
    return int(round(fs * duration_s))


# ----------------------------------------------------------------------
# electrode layouts

_MONTAGE_22 = (
    ("Fz", 0.0, 0.60),
    ("FC3", -0.50, 0.30), ("FC1", -0.25, 0.30), ("FCz", 0.0, 0.30),
    ("FC2", 0.25, 0.30), ("FC4", 0.50, 0.30),
    ("C5", -0.75, 0.0), ("C3", -0.50, 0.0), ("C1", -0.25, 0.0), ("Cz", 0.0, 0.0),
    ("C2", 0.25, 0.0), ("C4", 0.50, 0.0), ("C6", 0.75, 0.0),
    ("CP3", -0.50, -0.30), ("CP1", -0.25, -0.30), ("CPz", 0.0, -0.30),
    ("CP2", 0.25, -0.30), ("CP4", 0.50, -0.30),
    ("P1", -0.25, -0.60), ("Pz", 0.0, -0.60), ("P2", 0.25, -0.60),
    ("POz", 0.0, -0.80),
)


def montage_22():
    """The default 22-electrode motor-cortex montage: (names, xy array)."""
    names = tuple(name for name, _, _ in _MONTAGE_22)
    xy = np.array([(x, y) for _, x, y in _MONTAGE_22], dtype=np.float32)
    return names, xy


def ring_layout(n):
    """Generic scalp coordinates for n channels: evenly spaced on a ring."""
    if n == 1:
        return np.zeros((1, 2), dtype=np.float32)
    angles = np.pi / 2 - 2 * np.pi * np.arange(n) / n
    return (0.8 * np.stack([np.cos(angles), np.sin(angles)], axis=1)).astype(np.float32)


def default_channels(n):
    """Channel names and scalp coordinates assumed for n channels when the
    data carries none: ``montage_22`` at 22, else ``chNN`` on a ring."""
    if n == 22:
        return montage_22()
    return tuple(f"ch{i + 1:02d}" for i in range(n)), ring_layout(n)


# ----------------------------------------------------------------------
# synthetic generator

def _require_finite(spec, names):
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


@dataclass(frozen=True)
class SourceSpec:
    """One planted source: a band-limited carrier spread over the channels
    by a fixed unit-norm mixing column.  Its fields are the keys of a
    ``classK.sourceJ`` block of a synth spec; ``mixing`` is comma-separated."""

    center_freq: float
    bandwidth: float
    amplitude: float
    mixing: tuple = field(metadata={"parse": _parse_floats})

    def __post_init__(self):
        _require_finite(self, ("center_freq", "bandwidth", "amplitude"))
        mixing = np.asarray(self.mixing, dtype=np.float64)
        if not np.isfinite(mixing).all():
            raise ValueError("mixing weights must be finite")
        norm = float(np.linalg.norm(mixing))
        if norm == 0.0:
            raise ValueError("mixing column must be nonzero")
        object.__setattr__(self, "mixing", tuple((mixing / norm).tolist()))
        if self.center_freq <= 0:
            raise ValueError("center_freq must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    @property
    def mixing_array(self):
        return np.asarray(self.mixing, dtype=np.float64)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic cohort: per-class source lists plus noise."""

    n_trials: int
    n_channels: int
    n_classes: int
    fs: float
    duration_s: float
    sources: tuple  # one tuple of SourceSpec per class
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sources",
                           tuple(tuple(class_sources) for class_sources in self.sources))
        _require_finite(self, ("fs", "duration_s", "noise_sigma"))
        if self.n_trials < 1 or self.n_channels < 1:
            raise ValueError("n_trials and n_channels must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if len(self.sources) != self.n_classes:
            raise ValueError(
                f"need one source list per class: {len(self.sources)} for {self.n_classes}")
        if self.n_trials % self.n_classes != 0:
            raise ValueError("n_trials must divide evenly across classes")
        for ci, class_sources in enumerate(self.sources):
            for src in class_sources:
                if len(src.mixing) != self.n_channels:
                    raise ValueError(
                        f"class {ci}: mixing column has {len(src.mixing)} weights "
                        f"for {self.n_channels} channels")
                if src.center_freq >= self.fs / 2:
                    raise ValueError(
                        f"class {ci}: center_freq {src.center_freq} Hz is not below "
                        f"the Nyquist rate {self.fs / 2} Hz")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if window_samples(self.fs, self.duration_s) < 1:
            raise ValueError(f"duration_s={self.duration_s:g} at fs={self.fs:g} Hz is under "
                             "one sample")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _band_noise(rng, n_samples, freqs, lo, hi):
    """Unit-RMS noise whose spectrum is confined to [lo, hi] Hz."""
    mask = (freqs >= lo) & (freqs <= hi)
    if not mask.any():
        raise ValueError(f"band [{lo:g}, {hi:g}] Hz misses every frequency-grid point")
    spectrum = np.fft.rfft(rng.standard_normal(n_samples))
    spectrum[~mask] = 0.0
    carrier = np.fft.irfft(spectrum, n=n_samples)
    return carrier / np.sqrt(np.mean(carrier * carrier))


def synth_generate(spec: SynthSpec) -> EpochSet:
    """Build a balanced labeled cohort from the recipe, bit-reproducible per
    seed: each trial sums its class's band-limited sources (carrier times
    mixing column times amplitude) plus white channel noise."""
    rng = np.random.default_rng(spec.seed)
    n_samples = window_samples(spec.fs, spec.duration_s)
    freqs = np.fft.rfftfreq(n_samples, 1.0 / spec.fs)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.uint32),
                       spec.n_trials // spec.n_classes)
    rng.shuffle(labels)
    trials = np.empty((spec.n_trials, spec.n_channels, n_samples), dtype=np.float32)
    for t, label in enumerate(labels):
        x = np.zeros((spec.n_channels, n_samples))   # summed in float64, stored once
        for src in spec.sources[label]:
            lo = max(src.center_freq - src.bandwidth / 2.0, 0.0)
            hi = min(src.center_freq + src.bandwidth / 2.0, spec.fs / 2.0)
            carrier = _band_noise(rng, n_samples, freqs, lo, hi)
            x += src.amplitude * np.outer(src.mixing_array, carrier)
        if spec.noise_sigma > 0:
            x += spec.noise_sigma * rng.standard_normal((spec.n_channels, n_samples))
        trials[t] = x
    channel_names, xy = default_channels(spec.n_channels)
    class_names = tuple(f"class{i}" for i in range(spec.n_classes))
    return EpochSet(trials, labels, class_names, channel_names, xy, spec.fs)
