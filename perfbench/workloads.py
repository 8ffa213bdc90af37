"""The benchmark's workloads.

Each workload is a single-process closed loop: one client runs a job, waits
for it to finish, checks its outputs and starts the next.  Inputs are made
from the seed alone; the package sees only those arrays and the files
written from them.

* ``desk-within``: the user's real job at the acceptance shape (8 ch x 375
  samples, 2 classes): the ``within`` protocol on one synthetic subject with
  10 folds and a fixed epoch budget, then save/load of the selected model,
  its filter atlas, and labelling of the test session.  Per-op overheads,
  per-epoch ``evaluate`` and the fold loop weigh most here.
* ``paper-train``: one ``fit_with_early_stopping`` at the paper-scale shape
  (22 ch x 1125 samples, 4 classes, batch 16) with a fixed epoch budget.
  The k=16/32/64 inception convolutions over 22 channels dominate.
* ``paper-predict``: a saved model and a paper-shape epoch file are read
  from disk, then every trial is labelled online (one trial per call to
  ``ITNetModel.predict``) and offline (``training.evaluate`` over the file
  at its default batch).  Only inference-mode ops run.

Patience is always ``max_epochs_cv - 1``, so early stopping never cuts an
epoch budget short and every job does the same work on every commit.

The package's functions are called through their modules
(``training.evaluate``, not a name imported from it) so the tracer's
wrappers see every call.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from eegitnet import data, explain, model as itnet, training
from eegitnet.data import SourceSpec, SynthSpec
from eegitnet.tensor import no_grad

# acceptance-shape cohort: 10 Hz vs 22 Hz sources on distinct mixing columns
DESK_MIX = ((0.9, 0.7, 0.4, 0.1, 0.0, 0.0, 0.0, 0.2),
            (0.0, 0.1, 0.2, 0.0, 0.3, 0.9, 0.8, 0.4))
DESK_FREQS = (10.0, 22.0)
DESK_NOISE = 0.177
DESK_TRIALS = 100            # per session (train and test)
DESK_EPOCHS = 3              # max_epochs_cv; patience is one less
DESK_EXTRA_EPOCHS = 1
DESK_FOLDS = 10
DESK_ACCURACY_FLOOR = 80.0   # percent, test session after the refit

# paper-scale cohort: 22 ch, 4.5 s at 250 Hz, one source per class
PAPER_FS = 250.0
PAPER_SECONDS = 4.5
PAPER_FREQS = (8.0, 12.0, 18.0, 26.0)
PAPER_NOISE = 0.2
PAPER_TRAIN = 48
PAPER_VAL = 16
PAPER_EPOCHS = 3
PAPER_LOSS_RTOL = 1e-3       # final train loss against the recorded value
PAPER_PREDICT_TRIALS = 64

LOGIT_ATOL = 1e-4            # batch-1 against batched logits
PROB_SUM_ATOL = 1e-5


class Checks:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@dataclass
class JobRecord:
    """Intervals of one job, as (start, end) readings of the workload's clock."""

    span: tuple                                    # the whole job
    online: list = field(default_factory=list)     # one per predict call
    offline: list = field(default_factory=list)    # (start, end, trials) per pass
    train: tuple = None                            # (start, end, trials presented)
    accuracy_pct: float = None


def desk_spec(n_trials, seed):
    sources = tuple((SourceSpec(f, 2.0, 1.0, mix),) for f, mix in zip(DESK_FREQS, DESK_MIX))
    return SynthSpec(n_trials=n_trials, n_channels=8, n_classes=2, fs=125.0,
                     duration_s=3.0, sources=sources, noise_sigma=DESK_NOISE, seed=seed)


def paper_spec(n_trials, seed, mixing_seed):
    mixing = np.random.default_rng(mixing_seed).standard_normal((len(PAPER_FREQS), 22))
    sources = tuple((SourceSpec(f, 2.0, 1.0, tuple(m)),) for f, m in zip(PAPER_FREQS, mixing))
    return SynthSpec(n_trials=n_trials, n_channels=22, n_classes=len(PAPER_FREQS),
                     fs=PAPER_FS, duration_s=PAPER_SECONDS, sources=sources,
                     noise_sigma=PAPER_NOISE, seed=seed)


def _sub_seed(seed, *key):
    """An integer seed derived from the benchmark seed and a purpose key."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _write_and_read(epochs, path, checks):
    data.save_epochs(epochs, path)
    back = data.load_epochs(path)
    checks.check(np.array_equal(back.trials, epochs.trials)
                 and np.array_equal(back.labels, epochs.labels),
                 f"epoch container round trip changed {os.path.basename(path)}")
    return back


def _save_load_save(model, path, checks):
    """Save, load and save again; the two files must be byte-identical."""
    itnet.save_model(model, path)
    loaded = itnet.load_model(path)
    again = path + ".again"
    itnet.save_model(loaded, again)
    same = all(_read(path + ext) == _read(again + ext) for ext in ("", ".cfg"))
    checks.check(same, f"model container not byte-stable: {os.path.basename(path)}")
    return loaded


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _losses_finite(history):
    return all(math.isfinite(v) for row in history
               for v in (row.train_loss, row.val_loss) if v is not None)


def _batched_logits(model, x):
    with no_grad():
        return model.forward_logits(x, mode="infer").data


def label_trials(model, x, y, expected, online_passes, offline_passes, checks, clock):
    """Label every trial online (one ``predict`` call per trial) and offline
    (``training.evaluate`` over all of them); both must agree with the
    ``expected`` batched labels.  Returns (online intervals, offline
    intervals with trial counts, offline accuracy)."""
    online = []
    for _ in range(online_passes):
        labels = np.empty(len(y), dtype=np.int64)
        for i in range(len(y)):
            t0 = clock()
            labels[i] = model.predict(x[i:i + 1])[0]
            online.append((t0, clock()))
        checks.check(np.array_equal(labels, expected), "online labels differ from batched labels")
    offline = []
    expected_acc = 100.0 * float(np.mean(expected == y))
    for _ in range(offline_passes):
        t0 = clock()
        loss, acc = training.evaluate(model, x, y)
        offline.append((t0, clock(), len(y)))
        checks.check(math.isfinite(loss) and acc == expected_acc,
                     f"evaluate gave loss {loss} and accuracy {acc}, expected {expected_acc}")
    return online, offline, acc


class Workload:
    """One benchmark workload: ``setup`` makes inputs and files, ``warmup``
    runs the job's shapes once untimed, ``job`` does one unit of work and
    times it with ``clock``."""

    name = ""

    def __init__(self, seed, workdir, clock=time.perf_counter):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.checks = Checks()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def job(self):
        raise NotImplementedError


class DeskWithin(Workload):
    name = "desk-within"

    def setup(self):
        train = data.synth_generate(desk_spec(DESK_TRIALS, _sub_seed(self.seed, 0)))
        test = data.synth_generate(desk_spec(DESK_TRIALS, _sub_seed(self.seed, 1)))
        self.train = _write_and_read(train, self.path("s01.train.eeg"), self.checks)
        self.test = _write_and_read(test, self.path("s01.test.eeg"), self.checks)
        (self.train_std, self.test_std), _ = data.standardize(self.train, self.test)
        self.arch = itnet.ArchConfig(n_channels=8, n_samples=375, n_classes=2)
        self.config = training.TrainConfig(
            max_epochs_cv=DESK_EPOCHS, patience=DESK_EPOCHS - 1,
            extra_epochs_max=DESK_EXTRA_EPOCHS, folds=DESK_FOLDS, batch_size=16,
            seed=_sub_seed(self.seed, 2))

    def warmup(self):
        model = itnet.build(self.arch, seed=0)
        n = DESK_TRIALS - DESK_TRIALS // DESK_FOLDS
        warm = training.TrainConfig(max_epochs_cv=2, patience=1, batch_size=16)
        training.fit_with_early_stopping(
            model, (self.train_std.trials[:n], self.train_std.labels[:n]),
            (self.test_std.trials, self.test_std.labels), warm)

    def job(self):
        t0 = self.clock()
        report = training.run_scenario("within", [(self.train, self.test)], self.arch,
                                       self.config)
        trained = self.clock()
        result = report.subjects[0]
        self.checks.check(result.accuracy >= DESK_ACCURACY_FLOOR,
                          f"test accuracy {result.accuracy}% below {DESK_ACCURACY_FLOOR}%")
        self.checks.check(_losses_finite(result.history), "non-finite loss in the history")
        self.checks.check(result.epochs_run == DESK_EPOCHS + DESK_EXTRA_EPOCHS
                          and len(result.history) == DESK_EPOCHS + DESK_EXTRA_EPOCHS,
                          f"selected fold ran {result.epochs_run} epochs")

        model = _save_load_save(result.model, self.path("model_s01.itnetmdl"), self.checks)
        atlas = explain.build_atlas(model, fs=self.train.fs,
                                    channel_names=self.train.channel_names,
                                    channel_xy=self.train.channel_xy)
        written = explain.export_atlas(atlas, self.path("atlas"))
        filters = self.arch.branch_filters
        self.checks.check(len(written) == 2 * filters + 1,
                          f"atlas wrote {len(written)} files for {filters} filters")

        test = self.test_std
        expected = np.argmax(_batched_logits(model, test.trials), axis=1)
        online, offline, acc = label_trials(model, test.trials, test.labels, expected,
                                            online_passes=5, offline_passes=5,
                                            checks=self.checks, clock=self.clock)
        self.checks.check(acc == result.accuracy,
                          f"loaded model scores {acc}%, trained model {result.accuracy}%")
        # every fold trains on all but its own trials; the refit on all of them
        presented = (DESK_FOLDS - 1) * DESK_TRIALS * DESK_EPOCHS + DESK_TRIALS * DESK_EXTRA_EPOCHS
        return JobRecord((t0, self.clock()), online, offline, (t0, trained, presented),
                         result.accuracy)


class PaperTrain(Workload):
    name = "paper-train"
    final_loss = None   # the first job's, which every later job must repeat

    def setup(self):
        mixing_seed = _sub_seed(self.seed, 0)
        train = data.synth_generate(paper_spec(PAPER_TRAIN, _sub_seed(self.seed, 1), mixing_seed))
        val = data.synth_generate(paper_spec(PAPER_VAL, _sub_seed(self.seed, 2), mixing_seed))
        (train, val), _ = data.standardize(train, val)
        self.train = _write_and_read(train, self.path("paper.train.eeg"), self.checks)
        self.val = _write_and_read(val, self.path("paper.val.eeg"), self.checks)
        arch = itnet.ArchConfig(n_channels=22, n_samples=1125, n_classes=len(PAPER_FREQS))
        self.model = _save_load_save(itnet.build(arch, seed=_sub_seed(self.seed, 3)),
                                     self.path("init.itnetmdl"), self.checks)
        self.initial = self.model.state_arrays()
        self.config = training.TrainConfig(max_epochs_cv=PAPER_EPOCHS,
                                           patience=PAPER_EPOCHS - 1, batch_size=16,
                                           seed=_sub_seed(self.seed, 4))

    def warmup(self):
        warm = training.TrainConfig(max_epochs_cv=2, patience=1, batch_size=16)
        n = 16
        training.fit_with_early_stopping(self.model, (self.train.trials[:n], self.train.labels[:n]),
                                         (self.val.trials, self.val.labels), warm)
        self.model.predict(self.val.trials[:1])

    def fit(self):
        """Train from the recorded initial state; returns the fit result."""
        self.model.load_state_arrays(self.initial)
        rng = np.random.default_rng(self.config.seed)
        return training.fit_with_early_stopping(
            self.model, (self.train.trials, self.train.labels),
            (self.val.trials, self.val.labels), self.config, rng)

    def job(self):
        model = self.model
        t0 = self.clock()
        fit = self.fit()
        trained = self.clock()
        self.checks.check(fit.epochs_run == PAPER_EPOCHS, f"fit ran {fit.epochs_run} epochs")
        self.checks.check(_losses_finite(fit.history), "non-finite loss in the history")
        loss = fit.history[-1].train_loss
        if self.final_loss is None:
            self.final_loss = loss
        self.checks.check(math.isclose(loss, self.final_loss, rel_tol=PAPER_LOSS_RTOL),
                          f"final train loss {loss} differs from the first job's {self.final_loss}")
        reference = reference_loss(self.seed)
        if reference is not None:
            self.checks.check(math.isclose(loss, reference, rel_tol=PAPER_LOSS_RTOL),
                              f"final train loss {loss} differs from the recorded {reference}")

        expected = np.argmax(_batched_logits(model, self.val.trials), axis=1)
        online, offline, acc = label_trials(model, self.val.trials, self.val.labels, expected,
                                            online_passes=4, offline_passes=2,
                                            checks=self.checks, clock=self.clock)
        return JobRecord((t0, self.clock()), online, offline,
                         (t0, trained, PAPER_TRAIN * PAPER_EPOCHS), acc)


class PaperPredict(Workload):
    name = "paper-predict"

    def setup(self):
        spec = paper_spec(PAPER_PREDICT_TRIALS, _sub_seed(self.seed, 1), _sub_seed(self.seed, 0))
        (epochs,), _ = data.standardize(data.synth_generate(spec))
        self.epochs = _write_and_read(epochs, self.path("paper.eeg"), self.checks)
        arch = itnet.ArchConfig(n_channels=22, n_samples=1125, n_classes=len(PAPER_FREQS))
        self.model = _save_load_save(itnet.build(arch, seed=_sub_seed(self.seed, 2)),
                                     self.path("paper.itnetmdl"), self.checks)

    def warmup(self):
        x, y = self.epochs.trials, self.epochs.labels
        logits = _batched_logits(self.model, x)
        self.model.predict(x[:1])
        # batch-1 and batched inference must agree; checked once per run
        single = np.concatenate([_batched_logits(self.model, x[i:i + 1]) for i in range(len(y))])
        self.checks.check(np.array_equal(np.argmax(single, axis=1), np.argmax(logits, axis=1)),
                          "batch-1 and batched argmax differ")
        self.checks.check(float(np.abs(single - logits).max()) <= LOGIT_ATOL,
                          f"batch-1 and batched logits differ by more than {LOGIT_ATOL}")
        with no_grad():
            probs = self.model.forward(x, mode="infer").data
        self.checks.check(float(np.abs(probs.sum(axis=1) - 1.0).max()) <= PROB_SUM_ATOL,
                          "class probabilities do not sum to 1")
        self.expected = np.argmax(logits, axis=1)

    def job(self):
        x, y = self.epochs.trials, self.epochs.labels
        t0 = self.clock()
        online, offline, _ = label_trials(self.model, x, y, self.expected,
                                          online_passes=1, offline_passes=1,
                                          checks=self.checks, clock=self.clock)
        # the model keeps its seeded initial weights, so accuracy means nothing here
        return JobRecord((t0, self.clock()), online, offline)


WORKLOADS = {w.name: w for w in (DeskWithin, PaperTrain, PaperPredict)}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference_losses.json")


def reference_loss(seed):
    """Final paper-train loss recorded for ``seed``, or None if not recorded."""
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f).get(str(seed))

