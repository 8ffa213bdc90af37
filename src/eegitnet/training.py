"""Training protocol and evaluation scenarios.

One labeled training session is consumed by ``k``-fold model selection with
early stopping, then the selected fold's model is refit on all labeled data
for a few extra epochs at a reduced learning rate.  Three scenarios wrap
that protocol: ``within`` (train and test on the same subject), ``cross``
(train on the pooled other subjects, never touching the target), and
``cross_finetuned`` (adapt the cross model with the target's training
session).

Everything is deterministic given (seed, config, data): every random
decision draws from a stream spawned off the config seed with a
(subject, phase, purpose, fold) key.
"""
from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import EpochSet, check_compatible, concat_epochs, standardize
from .fileio import csv_text, key_value_text
from .model import ArchConfig, ITNetModel, build
from .ops import softmax_cross_entropy
from .optim import Adam

SCENARIOS = ("within", "cross", "cross_finetuned")


@dataclass(frozen=True)
class TrainConfig:
    """Protocol knobs.  Defaults fit the within-subject regime; cross-subject
    runs conventionally shorten to 150 epochs with patience 15
    (see :func:`default_train_config`)."""

    max_epochs_cv: int = 500
    patience: int = 100
    extra_epochs_max: int = 50
    extra_lr: float = 1e-4
    base_lr: float = 1e-3
    batch_size: int = 16
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs_cv < 1:
            raise ValueError("max_epochs_cv must be >= 1")
        if not (1 <= self.patience < self.max_epochs_cv):
            raise ValueError("patience must satisfy 1 <= patience < max_epochs_cv")
        if self.extra_epochs_max < 0:
            raise ValueError("extra_epochs_max must be >= 0")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch statistics need 2+ trials)")
        if not (math.isfinite(self.base_lr) and math.isfinite(self.extra_lr)):
            raise ValueError("base_lr and extra_lr must be finite")
        if self.base_lr <= 0 or self.extra_lr < 0:
            raise ValueError("base_lr must be positive and extra_lr non-negative")


def default_train_config(scenario, **overrides):
    """The conventional epoch/patience budget for a scenario, with overrides."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    base = {}
    if scenario != "within":
        base.update(max_epochs_cv=150, patience=15)
    base.update(overrides)
    return TrainConfig(**base)


HistoryRow = namedtuple("HistoryRow",
                        ["epoch", "phase", "train_loss", "val_loss", "train_acc", "val_acc"])
FitResult = namedtuple("FitResult",
                       ["history", "best_epoch", "best_val_loss", "best_val_acc", "epochs_run"])
RefitResult = namedtuple("RefitResult", ["history", "monitor_curve"])


def _seed(config, *key):
    return np.random.SeedSequence(config.seed, spawn_key=tuple(key))


# ----------------------------------------------------------------------
# fold splitting

def stratified_kfold(labels, k, seed):
    """Partition trial indices into k folds with per-class balance.

    Within each class the indices are shuffled and dealt round-robin, so
    per-fold class counts differ from perfect proportion by at most one.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if len(idx) < k:
            raise ValueError(f"class {cls} has {len(idx)} trials, fewer than {k} folds")
        shuffled = rng.permutation(idx)
        for fi in range(k):
            folds[fi].extend(shuffled[fi::k])
    return [np.sort(np.asarray(f)) for f in folds]


# ----------------------------------------------------------------------
# epoch loops

def _batches(n, size, rng):
    """Shuffled index batches; a trailing singleton is folded into the
    previous batch so batch statistics stay defined."""
    order = rng.permutation(n)
    batches = [order[c:c + size] for c in range(0, n, size)]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _train_epoch(model, x, y, opt, rng, batch_size):
    n = len(y)
    total_loss = 0.0
    correct = 0
    for idx in _batches(n, batch_size, rng):
        xb, yb = x[idx], y[idx]
        logits = model.forward_logits(xb, mode="train", rng=rng)
        loss = softmax_cross_entropy(logits, yb)
        loss.backward()
        opt.step()
        opt.zero_grad()
        total_loss += loss.item() * len(idx)
        correct += int((np.argmax(logits.data, axis=1) == yb).sum())
    return total_loss / n, 100.0 * correct / n


def evaluate(model, x, y, batch_size=256):
    """Mean cross-entropy and accuracy (percent) in inference mode."""
    n = len(y)
    if n == 0:
        raise ValueError("nothing to evaluate")
    total_loss = 0.0
    correct = 0
    for c in range(0, n, batch_size):
        xb, yb = x[c:c + batch_size], y[c:c + batch_size]
        logits = model.forward_logits(xb, mode="infer")   # records no graph
        total_loss += softmax_cross_entropy(logits, yb).item() * len(yb)
        correct += int((np.argmax(logits.data, axis=1) == yb).sum())
    return total_loss / n, 100.0 * correct / n


# ----------------------------------------------------------------------
# protocol pieces

def fit_with_early_stopping(model, train, val, config: TrainConfig, rng=None):
    """Optimize until validation loss stops improving for ``patience`` epochs
    (or the epoch cap), then restore the best-validation-loss parameters.

    ``train``/``val`` are (trials, labels) pairs with disjoint trials.
    Returns the per-epoch history and which epoch was kept.
    """
    x, y = train
    vx, vy = val
    if len(vy) == 0:
        raise ValueError("validation set is empty")
    if len(y) < 2:
        raise ValueError("training split needs at least 2 trials")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    opt = Adam(model.parameters(), lr=config.base_lr)
    history = []
    best_loss = np.inf
    best_acc = 0.0
    best_epoch = 0
    best_state = None
    stale = 0
    for epoch in range(1, config.max_epochs_cv + 1):
        train_loss, train_acc = _train_epoch(model, x, y, opt, rng, config.batch_size)
        val_loss, val_acc = evaluate(model, vx, vy)
        history.append(HistoryRow(epoch, "cv", train_loss, val_loss, train_acc, val_acc))
        if val_loss < best_loss:
            best_loss, best_acc, best_epoch = val_loss, val_acc, epoch
            best_state = model.state_arrays()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best_state is None:
        raise FloatingPointError(
            f"no finite validation loss in {len(history)} epochs "
            f"(last train loss {history[-1].train_loss}, validation loss {history[-1].val_loss})")
    model.load_state_arrays(best_state)
    return FitResult(history, best_epoch, best_loss, best_acc, len(history))


def refit_extra_epochs(model, all_labeled, config: TrainConfig, rng=None,
                       monitor=None, epoch_offset=0):
    """Continue optimizing on the full labeled session at the reduced rate.

    ``monitor``, when given, is a (trials, labels) pair whose accuracy is
    recorded before refitting and after every epoch: it is read, never
    trained on.  History rows carry the ``extra`` phase tag and leave the
    validation columns empty (all labeled data is now training data).
    """
    x, y = all_labeled
    if rng is None:
        rng = np.random.default_rng(config.seed)
    opt = Adam(model.parameters(), lr=config.extra_lr)
    curve = []
    if monitor is not None:
        curve.append(evaluate(model, *monitor)[1])
    rows = []
    for e in range(1, config.extra_epochs_max + 1):
        train_loss, train_acc = _train_epoch(model, x, y, opt, rng, config.batch_size)
        rows.append(HistoryRow(epoch_offset + e, "extra", train_loss, None, train_acc, None))
        if monitor is not None:
            curve.append(evaluate(model, *monitor)[1])
    return RefitResult(rows, curve)


def _run_protocol(train_set: EpochSet, arch: ArchConfig, config: TrainConfig,
                  seed_key, init_state=None, monitor=None):
    """Fold selection plus refit on one standardized training session.

    ``seed_key`` namespaces every random stream; ``init_state``, when given,
    initializes every fold's model (used for fine-tuning).
    """
    x, y = train_set.trials, train_set.labels
    folds = stratified_kfold(y, config.folds, _seed(config, *seed_key, 0))
    all_idx = np.arange(len(y))
    results = []
    for fi, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        model = build(arch, seed=_seed(config, *seed_key, 1, fi))
        if init_state is not None:
            model.load_state_arrays(init_state)
        rng = np.random.default_rng(_seed(config, *seed_key, 2, fi))
        fit = fit_with_early_stopping(model, (x[train_idx], y[train_idx]),
                                      (x[val_idx], y[val_idx]), config, rng)
        results.append((model, fit))
    selected = max(range(len(folds)),
                   key=lambda i: (results[i][1].best_val_acc, -results[i][1].best_val_loss))
    model, fit = results[selected]
    refit_rng = np.random.default_rng(_seed(config, *seed_key, 3))
    refit = refit_extra_epochs(model, (x, y), config, refit_rng,
                               monitor=monitor, epoch_offset=fit.epochs_run)
    history = list(fit.history) + list(refit.history)
    return model, history, selected, len(history), refit.monitor_curve


# ----------------------------------------------------------------------
# scenarios

@dataclass
class SubjectResult:
    """One subject's outcome: ``accuracy`` is the final-epoch test accuracy
    (the headline number); ``best_accuracy`` is the best test accuracy seen
    across the refit phase, reported separately because selecting it
    inflates scores."""

    subject: str
    scenario: str
    accuracy: float
    best_accuracy: float
    selected_fold: int
    epochs_run: int
    history: list
    model: ITNetModel
    pool: tuple = ()
    pretrain_history: list = field(default_factory=list)


@dataclass
class ScenarioReport:
    scenario: str
    subjects: list
    mean: float
    std: float

    @classmethod
    def from_results(cls, scenario, results):
        accs = np.array([r.accuracy for r in results], dtype=np.float64)
        return cls(scenario, list(results), float(accs.mean()), float(accs.std()))


def _run_subject(scenario, si, names, subjects, arch, config):
    train, test = subjects[si]
    others = () if scenario == "within" else tuple(j for j in range(len(subjects)) if j != si)
    init_state, pre_history, phase = None, [], 0
    if scenario == "cross":
        train = concat_epochs([subjects[j][0] for j in others])
    elif scenario == "cross_finetuned":
        # pretrain on the pooled other subjects, then run the full protocol on
        # the target's training session starting every fold from that state
        (pool_std,), _ = standardize(concat_epochs([subjects[j][0] for j in others]))
        pre_model, pre_history, _, _, _ = _run_protocol(pool_std, arch, config, (si, 0))
        init_state, phase = pre_model.state_arrays(), 1
    (train_std, test_std), _ = standardize(train, test)
    model, history, fold, epochs, curve = _run_protocol(
        train_std, arch, config, (si, phase), init_state=init_state,
        monitor=(test_std.trials, test_std.labels))
    return SubjectResult(names[si], scenario, curve[-1], max(curve), fold, epochs,
                         history, model, pool=tuple(names[j] for j in others),
                         pretrain_history=pre_history)


def _run_subject_star(args):
    return _run_subject(*args)


def run_scenario(scenario, subjects, arch: ArchConfig, config: TrainConfig,
                 names=None, jobs=1) -> ScenarioReport:
    """Train and evaluate every subject under one scenario.

    ``subjects`` is a list of (train, test) EpochSet pairs sharing one label
    space.  Subjects are independent; ``jobs`` > 1 runs them in parallel
    worker processes (at most one per subject) without changing any result.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    subjects = list(subjects)
    if not subjects:
        raise ValueError("no subjects")
    if scenario != "within" and len(subjects) < 2:
        raise ValueError(f"{scenario} requires >= 2 subjects")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if names is None:
        names = [f"s{i + 1:02d}" for i in range(len(subjects))]
    elif len(names) != len(subjects):
        raise ValueError("one name per subject required")
    check_compatible([s for pair in subjects for s in pair],
                     [f"{name} {part}" for name in names for part in ("train", "test")])
    tasks = [(scenario, si, list(names), subjects, arch, config)
             for si in range(len(subjects))]
    if jobs > 1 and len(subjects) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(subjects))) as pool:
            results = list(pool.map(_run_subject_star, tasks))
    else:
        results = [_run_subject_star(t) for t in tasks]
    return ScenarioReport.from_results(scenario, results)


# ----------------------------------------------------------------------
# report serialization

def history_csv_text(history):
    return csv_text(HistoryRow._fields, history)


_REPORT_COLUMNS = ("subject", "scenario", "accuracy", "best_accuracy", "selected_fold",
                   "epochs_run")


def report_csv_text(report: ScenarioReport):
    return csv_text(_REPORT_COLUMNS,
                    ([getattr(r, c) for c in _REPORT_COLUMNS] for r in report.subjects))


def summary_text(report: ScenarioReport):
    items = {"scenario": report.scenario, "n_subjects": len(report.subjects),
             "mean_accuracy": report.mean, "std_accuracy": report.std}
    for r in report.subjects:
        items[f"accuracy.{r.subject}"] = r.accuracy
        if r.pool:
            items[f"pool.{r.subject}"] = "+".join(r.pool)
    return key_value_text(items)
