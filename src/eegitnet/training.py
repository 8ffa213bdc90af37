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

from .data import (EpochSet, _check_variance, check_compatible, check_labelled, concat_epochs,
                   standardize)
from .fileio import csv_text, key_value_text
from .model import ArchConfig, ITNetModel, build
from .ops import softmax_cross_entropy
from .optim import Adam
from .tensor import Tensor

EVAL_BATCH = 256   # trials per loss term in evaluate

# What each scenario runs, and with which defaults: its ``stages`` in order
# ("pool" trains on the other subjects' training sessions pooled, "target" on
# the subject's own, fine-tuned from the pool stage's model when both run),
# TrainConfig and ArchConfig field defaults, and the fewest subjects it needs.
_POOLED = dict(train=dict(max_epochs_cv=150, patience=15), arch=dict(dropout_rate=0.2),
               min_subjects=2)
SCENARIOS = {"within": dict(stages=("target",), train={}, arch={}, min_subjects=1),
             "cross": dict(stages=("pool",), **_POOLED),
             "cross_finetuned": dict(stages=("pool", "target"), **_POOLED)}


def _spec(scenario):
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {tuple(SCENARIOS)}")
    return SCENARIOS[scenario]


@dataclass(frozen=True)
class TrainConfig:
    """Protocol knobs.  Defaults fit the within-subject regime; a scenario
    may override them (see ``SCENARIOS`` and :func:`default_train_config`)."""

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch statistics need 2+ trials)")
        if not (math.isfinite(self.base_lr) and math.isfinite(self.extra_lr)):
            raise ValueError("base_lr and extra_lr must be finite")
        if self.base_lr <= 0 or self.extra_lr < 0:
            raise ValueError("base_lr must be positive and extra_lr non-negative")


def default_train_config(scenario, **overrides):
    """The conventional epoch/patience budget for a scenario, with overrides."""
    return TrainConfig(**{**_spec(scenario)["train"], **overrides})


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


def _epochs(model, train, config, lr, n_epochs, rng, what):
    """Train on the (trials, labels) pair ``train``, ``what`` in messages, at
    rate ``lr``; yield ``(epoch, loss, accuracy)`` after each of up to
    ``n_epochs`` epochs of shuffled batches.  The set needs at least 2 trials
    (batch statistics) and labels of the model's classes; its lag products
    and the optimizer are built once."""
    x, y = train
    y = check_labelled(x, y, model.config.n_classes, 2, what)
    n = len(y)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    x = model.lagged(x)
    opt = Adam(model.parameters(), lr=lr)
    for epoch in range(1, n_epochs + 1):
        total_loss, correct = 0.0, 0
        for idx in _batches(n, config.batch_size, rng):
            xb, yb = x[idx], y[idx]
            logits = model.forward_logits(xb, mode="train", rng=rng)
            loss = softmax_cross_entropy(logits, yb)
            loss.backward()
            opt.step()
            opt.zero_grad()
            total_loss += loss.item() * len(idx)
            correct += int((np.argmax(logits.data, axis=1) == yb).sum())
        yield epoch, total_loss / n, 100.0 * correct / n


def evaluate(model, x, y):
    """Mean cross-entropy and accuracy (percent) in inference mode: one
    pass over every trial, its loss summed over batches of ``EVAL_BATCH``
    trials."""
    y = check_labelled(x, y, model.config.n_classes, 1, "the evaluated set")
    n = len(y)
    logits = model.forward_logits(x, mode="infer").data   # records no graph
    total_loss = 0.0
    for c in range(0, n, EVAL_BATCH):
        yb = y[c:c + EVAL_BATCH]
        total_loss += softmax_cross_entropy(Tensor(logits[c:c + EVAL_BATCH]), yb).item() * len(yb)
    return total_loss / n, 100.0 * int((np.argmax(logits, axis=1) == y).sum()) / n


# ----------------------------------------------------------------------
# protocol pieces

def fit_with_early_stopping(model, train, val, config: TrainConfig, rng=None):
    """Optimize until validation loss stops improving for ``patience`` epochs
    (or the epoch cap), then restore the best-validation-loss parameters.

    ``train``/``val`` are (trials, labels) pairs with disjoint trials.
    Returns the per-epoch history and which epoch was kept.
    """
    check_labelled(*val, model.config.n_classes, 1, "the validation set")
    history, best_state = [], None
    best_loss, best_acc, best_epoch = np.inf, 0.0, 0
    for epoch, train_loss, train_acc in _epochs(model, train, config, config.base_lr,
                                                config.max_epochs_cv, rng, "the training set"):
        val_loss, val_acc = evaluate(model, *val)
        history.append(HistoryRow(epoch, "cv", train_loss, val_loss, train_acc, val_acc))
        if val_loss < best_loss:
            best_loss, best_acc, best_epoch = val_loss, val_acc, epoch
            best_state = model.state_arrays()
        elif epoch - best_epoch >= config.patience:
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
    curve = [] if monitor is None else [evaluate(model, *monitor)[1]]
    rows = []
    for e, train_loss, train_acc in _epochs(model, all_labeled, config, config.extra_lr,
                                            config.extra_epochs_max, rng, "the labeled set"):
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
    best = None   # (rank, fold, model, fit) of the best fold so far; the first wins a tie
    for fi, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, val_idx)
        model = build(arch, seed=_seed(config, *seed_key, 1, fi))
        if init_state is not None:
            model.load_state_arrays(init_state)
        rng = np.random.default_rng(_seed(config, *seed_key, 2, fi))
        fit = fit_with_early_stopping(model, (x[train_idx], y[train_idx]),
                                      (x[val_idx], y[val_idx]), config, rng)
        rank = (fit.best_val_acc, -fit.best_val_loss)
        if best is None or rank > best[0]:
            best = rank, fi, model, fit
    _, selected, model, fit = best
    refit_rng = np.random.default_rng(_seed(config, *seed_key, 3))
    refit = refit_extra_epochs(model, (x, y), config, refit_rng,
                               monitor=monitor, epoch_offset=fit.epochs_run)
    return model, list(fit.history) + list(refit.history), selected, refit.monitor_curve


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


def _run_subject(scenario, si, name, train, test, pool, arch, config):
    """One subject's stages in order (see ``SCENARIOS``), keyed ``(si, stage
    index)``: the pool stage trains on ``pool``, the other subjects' training
    sessions by name in subject order, the target stage on ``train``.  Without
    a pool stage ``pool`` is empty, and without a target stage ``train`` None."""
    init_state, pretrain = None, []
    for phase, stage in enumerate(SCENARIOS[scenario]["stages"]):
        if phase:   # fine-tune every fold from the previous stage's selected model
            init_state, pretrain = model.state_arrays(), history
        # the raw pooled copy is dropped once standardised, and the previous
        # stage's standardised sessions when rebound here, before any fit
        (train_std, test_std), _ = standardize(
            concat_epochs(list(pool.values())) if stage == "pool" else train, test)
        model, history, fold, curve = _run_protocol(
            train_std, arch, config, (si, phase), init_state=init_state,
            monitor=(test_std.trials, test_std.labels))
    return SubjectResult(name, scenario, curve[-1], max(curve), fold, len(history),
                         history, model, pool=tuple(pool), pretrain_history=pretrain)


def _check_sessions(scenario, name, train, test, pool, config):
    """Raise now what this subject's stages would raise only after training
    began: an empty test session, which every refit monitors; and in each
    stage's training sessions (the pool, or the target's own) a class with
    fewer trials than folds, or no trials or a zero-variance channel, each
    by the rule of the splitter or ``standardize`` that would raise it."""
    if test.n_trials == 0:
        raise ValueError(f"{name} test: nothing to evaluate")
    stages = {"pool": (f"{name} pool ({'+'.join(pool)})", list(pool.values())),
              "target": (f"{name} train", [train])}
    for session, sets in map(stages.get, SCENARIOS[scenario]["stages"]):
        try:
            stratified_kfold(np.concatenate([s.labels for s in sets]), config.folds, 0)
            _check_variance(sets)
        except ValueError as exc:
            raise ValueError(f"{session}: {exc}") from None


def check_subject_name(name, where=None):
    """Refuse a subject name that :func:`report_csv_text` and
    :func:`summary_text` cannot write: a comma would split it over table
    cells, '=' end its summary key early, and a line break split either
    line.  The message starts with ``where``, by default the name's repr."""
    if any(c in str(name) for c in ",=\r\n"):
        raise ValueError(f"{where or repr(name)}: a subject name holding ',', '=' or a line "
                         "break cannot be written to table.csv and summary.txt")


def run_scenario(scenario, subjects, arch: ArchConfig, config: TrainConfig,
                 names=None, jobs=1) -> ScenarioReport:
    """Train and evaluate every subject under one scenario.

    ``subjects`` is a list of (train, test) EpochSet pairs sharing one label
    space.  Subjects are independent; ``jobs`` > 1 runs them in parallel
    worker processes (at most one per subject) without changing any result.
    Each subject's task holds only the sessions its stages read, and every
    such session, and every name (:func:`check_subject_name`), is checked
    before the first fit.
    """
    spec = _spec(scenario)
    subjects = list(subjects)
    if not subjects:
        raise ValueError("no subjects")
    if len(subjects) < spec["min_subjects"]:
        raise ValueError(f"{scenario} requires >= {spec['min_subjects']} subjects")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if names is None:
        names = [f"s{i + 1:02d}" for i in range(len(subjects))]
    elif len(names) != len(subjects) or len(set(names)) != len(names):
        raise ValueError("one name per subject required")
    for name in names:
        check_subject_name(name)
    check_compatible([s for pair in subjects for s in pair],
                     [f"{name} {part}" for name in names for part in ("train", "test")])
    tasks = [(scenario, si, name, train if "target" in spec["stages"] else None, test,
              {other: subjects[j][0] for j, other in enumerate(names) if j != si}
              if "pool" in spec["stages"] else {}, arch, config)
             for si, (name, (train, test)) in enumerate(zip(names, subjects))]
    for _, _, name, train, test, pool, _, _ in tasks:
        _check_sessions(scenario, name, train, test, pool, config)
    if jobs > 1 and len(subjects) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(subjects))) as pool:
            results = list(pool.map(_run_subject, *zip(*tasks)))
    else:
        results = [_run_subject(*t) for t in tasks]
    accs = np.array([r.accuracy for r in results], dtype=np.float64)
    return ScenarioReport(scenario, results, float(accs.mean()), float(accs.std()))


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
