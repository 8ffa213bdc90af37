"""Fold splitting, early stopping, refitting, and the three scenarios."""
import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest

from eegitnet import cli, model as model_module, training
from eegitnet.data import EpochSet, SourceSpec, SynthSpec, default_channels, synth_generate
from eegitnet.model import ArchConfig, build
from eegitnet.training import (SCENARIOS, ScenarioReport, TrainConfig,
                               _batches, default_train_config, evaluate,
                               fit_with_early_stopping, history_csv_text,
                               refit_extra_epochs, report_csv_text,
                               run_scenario, stratified_kfold, summary_text)

ARCH = ArchConfig(n_channels=4, n_samples=64, n_classes=2)
FAST = TrainConfig(max_epochs_cv=3, patience=1, extra_epochs_max=1,
                   folds=2, batch_size=8, seed=1)


def tiny_subject(seed):
    """A cheap separable cohort member: 8 Hz vs 24 Hz on distinct channels."""
    def spec(s):
        return SynthSpec(
            n_trials=24, n_channels=4, n_classes=2, fs=64.0, duration_s=1.0,
            sources=(
                (SourceSpec(8.0, 2.0, 1.0, (1.0, 0.5, 0.0, 0.0)),),
                (SourceSpec(24.0, 2.0, 1.0, (0.0, 0.0, 0.5, 1.0)),),
            ),
            noise_sigma=0.1, seed=s)
    return synth_generate(spec(seed)), synth_generate(spec(seed + 1000))


@pytest.fixture(scope="module")
def cohort():
    return [tiny_subject(s) for s in range(3)]


def read_back(report, tmp_path):
    """The report's table as ``eegitnet stats`` reads it: subject -> accuracy."""
    path = tmp_path / f"{report.scenario}.csv"
    path.write_text(report_csv_text(report))
    return cli._read_accuracy_table(str(path))


# ----------------------------------------------------------------------
# configuration

def test_default_configs_per_scenario():
    w = default_train_config("within")
    assert (w.max_epochs_cv, w.patience) == (500, 100)
    for scenario in ("cross", "cross_finetuned"):
        c = default_train_config(scenario)
        assert (c.max_epochs_cv, c.patience) == (150, 15)
    assert default_train_config("cross", patience=3).patience == 3
    with pytest.raises(ValueError, match="scenario"):
        default_train_config("transfer")


@pytest.mark.parametrize("kwargs,match", [
    (dict(max_epochs_cv=0), "max_epochs_cv"),
    (dict(patience=0), "patience"),
    (dict(max_epochs_cv=10, patience=10), "patience"),
    (dict(extra_epochs_max=-1), "extra_epochs"),
    (dict(folds=1), "folds"),
    (dict(batch_size=1), "batch_size"),
    (dict(base_lr=0.0), "base_lr"),
    (dict(extra_lr=-1e-4), "extra_lr|base_lr"),
    (dict(base_lr=float("nan")), "finite"),
    (dict(base_lr=float("inf")), "finite"),
    (dict(extra_lr=float("inf")), "finite"),
    (dict(extra_lr=float("nan")), "finite"),
    (dict(extra_lr=float("-inf")), "finite"),
    (dict(seed=-1), "seed must be >= 0"),
])
def test_train_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        TrainConfig(**kwargs)


def test_scenarios_constant():
    assert set(SCENARIOS) == {"within", "cross", "cross_finetuned"}


# ----------------------------------------------------------------------
# fold splitting

def test_kfold_partitions_all_indices():
    labels = np.repeat([0, 1, 2], [24, 20, 16])
    folds = stratified_kfold(labels, 4, seed=7)
    assert len(folds) == 4
    merged = np.concatenate(folds)
    assert len(merged) == 60
    np.testing.assert_array_equal(np.sort(merged), np.arange(60))
    for f in folds:
        np.testing.assert_array_equal(f, np.sort(f))


def test_kfold_balances_every_class():
    labels = np.repeat([0, 1, 2], [24, 20, 16])
    folds = stratified_kfold(labels, 4, seed=7)
    for cls, total in ((0, 24), (1, 20), (2, 16)):
        counts = [int((labels[f] == cls).sum()) for f in folds]
        assert sum(counts) == total
        assert max(counts) - min(counts) <= 1, (cls, counts)


def test_kfold_is_seeded():
    labels = np.tile([0, 1], 20)
    a = stratified_kfold(labels, 5, seed=3)
    b = stratified_kfold(labels, 5, seed=3)
    c = stratified_kfold(labels, 5, seed=4)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))


def test_kfold_rejects_bad_inputs():
    with pytest.raises(ValueError, match="k must"):
        stratified_kfold([0, 1, 0, 1], 1, seed=0)
    with pytest.raises(ValueError, match="fewer than"):
        stratified_kfold([0, 0, 0, 1], 2, seed=0)


def test_batches_cover_everything_once():
    rng = np.random.default_rng(0)
    for n, size in ((16, 8), (17, 8), (5, 8), (23, 4)):
        batches = _batches(n, size, rng)
        merged = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(merged), np.arange(n))
        assert all(len(b) >= 2 for b in batches) or n == 1


def test_batches_fold_trailing_singleton():
    rng = np.random.default_rng(0)
    sizes = [len(b) for b in _batches(17, 8, rng)]
    assert sizes == [8, 9]
    assert [len(b) for b in _batches(16, 8, rng)] == [8, 8]
    assert [len(b) for b in _batches(1, 8, rng)] == [1]


# ----------------------------------------------------------------------
# early stopping and refit

def random_split(seed, n_train=20, n_val=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_train + n_val, 4, 64)).astype(np.float32)
    y = rng.integers(0, 2, size=n_train + n_val)
    y[:2] = [0, 1]  # both classes present
    return (x[:n_train], y[:n_train]), (x[n_train:], y[n_train:])


def test_early_stopping_restores_the_best_epoch():
    train, val = random_split(0)
    model = build(ARCH, seed=0)
    config = TrainConfig(max_epochs_cv=50, patience=1, folds=2)
    fit = fit_with_early_stopping(model, train, val, config,
                                  np.random.default_rng(0))
    # pure noise cannot keep improving for 50 epochs with patience 1
    assert fit.epochs_run < 50
    assert fit.epochs_run - fit.best_epoch == config.patience
    losses = [row.val_loss for row in fit.history]
    assert fit.best_val_loss == min(losses)
    assert losses.index(fit.best_val_loss) == fit.best_epoch - 1
    # the restored parameters reproduce the recorded best exactly
    val_loss, val_acc = evaluate(model, *val)
    assert val_loss == fit.best_val_loss
    assert val_acc == fit.best_val_acc


def test_early_stopping_reports_when_no_validation_loss_is_finite():
    train, val = random_split(2)
    bad_x = val[0].copy()
    bad_x[0] = np.finfo(np.float32).max   # finite, but the network overflows to NaN
    config = TrainConfig(max_epochs_cv=5, patience=2, folds=2)
    # a NaN loss never improves on the last, so patience runs out after 2 epochs
    with pytest.raises(FloatingPointError, match="no finite validation loss in 2 epochs"), \
            np.errstate(over="ignore", invalid="ignore"):
        fit_with_early_stopping(build(ARCH, seed=2), train, (bad_x, val[1]), config,
                                np.random.default_rng(2))


def test_early_stopping_honors_the_epoch_cap():
    train, val = random_split(1)
    model = build(ARCH, seed=1)
    fit = fit_with_early_stopping(model, train, val,
                                  TrainConfig(max_epochs_cv=3, patience=2, folds=2),
                                  np.random.default_rng(1))
    assert fit.epochs_run <= 3
    assert len(fit.history) == fit.epochs_run
    assert all(row.phase == "cv" for row in fit.history)
    assert [row.epoch for row in fit.history] == list(range(1, fit.epochs_run + 1))


def test_fit_rejects_degenerate_splits(monkeypatch):
    train, val = random_split(2)
    model = build(ARCH, seed=0)
    with pytest.raises(ValueError, match="validation"):
        fit_with_early_stopping(model, train, (val[0][:0], val[1][:0]), FAST)
    with pytest.raises(ValueError, match="at least 2"):
        fit_with_early_stopping(model, (train[0][:1], train[1][:1]), val, FAST)
    # the refit holds the fit's rule, before it builds any lag products,
    # and also when it would run no epoch
    built = []
    monkeypatch.setattr(model, "lagged", lambda x: built.append(x))
    for n in (0, 1):
        for config in (FAST, TrainConfig(extra_epochs_max=0, folds=2)):
            with pytest.raises(ValueError, match=f"at least 2 trials, got {n}"):
                refit_extra_epochs(model, (train[0][:n], train[1][:n]), config)
    assert built == []


def test_refit_rows_and_monitor_curve():
    train, val = random_split(3)
    model = build(ARCH, seed=2)
    config = TrainConfig(extra_epochs_max=2, folds=2)
    pre_acc = evaluate(model, *val)[1]
    refit = refit_extra_epochs(model, train, config,
                               np.random.default_rng(0), monitor=val,
                               epoch_offset=7)
    assert [row.epoch for row in refit.history] == [8, 9]
    assert all(row.phase == "extra" for row in refit.history)
    assert all(row.val_loss is None and row.val_acc is None
               for row in refit.history)
    assert len(refit.monitor_curve) == 3
    assert refit.monitor_curve[0] == pre_acc


def test_refit_can_be_disabled():
    train, val = random_split(4)
    model = build(ARCH, seed=2)
    before = model.state_arrays()
    refit = refit_extra_epochs(model, train, TrainConfig(extra_epochs_max=0, folds=2),
                               monitor=val)
    assert refit.history == []
    assert len(refit.monitor_curve) == 1
    after = model.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_evaluate_uniform_model():
    x = np.zeros((10, 4, 64), dtype=np.float32)
    y = np.array([0] * 6 + [1] * 4)
    loss, acc = evaluate(build(ARCH, seed=0), x, y)
    # zero input keeps every logit at zero: uniform softmax
    assert loss == pytest.approx(np.log(2.0), rel=1e-6)
    assert acc == 60.0
    with pytest.raises(ValueError, match="the evaluated set needs at least 1 trial, got 0"):
        evaluate(build(ARCH, seed=0), x[:0], y[:0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_rejects_a_non_finite_trial(bad):
    train, val = random_split(3)
    x = val[0].copy()
    x[5, 2, 40] = bad
    with pytest.raises(ValueError, match="non-finite sample at trial 5, electrode 2, sample 40"):
        evaluate(build(ARCH, seed=0), x, val[1])
    with pytest.raises(ValueError, match="trial 5"):
        fit_with_early_stopping(build(ARCH, seed=0), train, (x, val[1]),
                                TrainConfig(max_epochs_cv=2, patience=1))
    # past the first EVAL_BATCH trials, the trial is still named by its
    # index in the array passed
    x = np.zeros((300, 4, 64), dtype=np.float32)
    x[270, 1, 5] = bad
    with pytest.raises(ValueError, match="non-finite sample at trial 270, electrode 1, sample 5"):
        evaluate(build(ARCH, seed=0), x, np.zeros(300, dtype=int))
    # and past the first block of trials the folded network runs over
    block = model_module._CHUNK_BYTES // (ARCH.branch_filters * ARCH.n_samples * 4)
    x = np.zeros((2 * block + 3, 4, 64), dtype=np.float32)
    x[block + 7, 3, 60] = bad
    with pytest.raises(ValueError,
                       match=f"non-finite sample at trial {block + 7}, electrode 3, sample 60"):
        evaluate(build(ARCH, seed=0), x, np.zeros(len(x), dtype=int))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_training_trial_is_named_by_its_index_in_the_array_passed(bad):
    # the fit's trials are checked once, before the first shuffled batch
    (x, y), val = random_split(4, n_train=40)
    x = x.copy()
    x[37, 2, 10] = bad
    where = "non-finite sample at trial 37, electrode 2, sample 10"
    model = build(ARCH, seed=0)
    with pytest.raises(ValueError, match=where):
        fit_with_early_stopping(model, (x, y), val, TrainConfig(max_epochs_cv=2, patience=1))
    with pytest.raises(ValueError, match=where):
        refit_extra_epochs(model, (x, y), FAST)
    assert all(p.grad is None for p in model.parameters())


@pytest.mark.parametrize("label, why", [(-1, r"; labels must lie in \[0, 2\)"),
                                        (2, r"; labels must lie in \[0, 2\)"),
                                        (1.5, ", not a whole number"),
                                        (np.nan, ", not a whole number")],
                         ids=["minus-one", "n-classes", "one-and-a-half", "nan"])
@pytest.mark.parametrize("call", ["fit-train", "fit-val", "refit", "monitor", "evaluate"])
def test_labels_outside_the_models_classes_are_refused_before_any_step(monkeypatch, call,
                                                                        label, why):
    # named by the trial's index in the array passed, before the lag
    # products or the optimizer are built
    (x, y), (vx, vy) = random_split(6)
    y, vy = y.astype(np.float64), vy.astype(np.float64)
    (y if call in ("fit-train", "refit") else vy)[5] = label
    model = build(ARCH, seed=0)
    built = []
    monkeypatch.setattr(model, "lagged", lambda x: built.append(x))
    with pytest.raises(ValueError, match=f"label of trial 5 is [^;,]+{why}"):
        if call == "evaluate":
            evaluate(model, vx, list(vy))
        elif call in ("refit", "monitor"):
            refit_extra_epochs(model, (x, y), FAST, monitor=(vx, vy) if call == "monitor" else None)
        else:
            fit_with_early_stopping(model, (x, y), (vx, vy), FAST)
    assert built == []
    assert all(p.grad is None for p in model.parameters())


def test_whole_float_labels_are_read_as_their_classes():
    train, (vx, vy) = random_split(7)
    model = build(ARCH, seed=0)
    assert evaluate(model, vx, vy.astype(np.float64)) == evaluate(model, vx, vy)
    assert evaluate(model, vx, list(vy)) == evaluate(model, vx, vy)


def test_evaluating_a_paper_session_holds_under_8_mib_of_transient_memory():
    # the folded network runs over blocks of trials that fit the cache, so
    # no layer of the whole session is held at once
    arch = ArchConfig(n_channels=22, n_samples=1125, n_classes=4)
    model = build(arch, seed=0)
    x = np.random.default_rng(8).standard_normal((288, 22, 1125)).astype(np.float32)
    y = np.arange(288) % 4
    evaluate(model, x, y)   # folds the network once
    tracemalloc.start()
    try:
        evaluate(model, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, f"peak {peak / (1 << 20):.1f} MiB"


@pytest.mark.parametrize("call, trials, labels", [
    ("fit-train", 30, 40), ("fit-train", 40, 30), ("fit-val", 10, 12),
    ("refit", 30, 40), ("refit", 40, 30), ("evaluate", 30, 40), ("evaluate", 40, 30),
    # one label per trial, but as an (n, 1) column
    ("fit-train", 40, (40, 1)), ("fit-val", 12, (12, 1)), ("refit", 40, (40, 1)),
    ("evaluate", 40, (40, 1)),
])
def test_trials_and_labels_of_different_lengths_are_refused(monkeypatch, call, trials, labels):
    # refused before any lag product or forward pass, naming both lengths or
    # the labels' shape
    (x, y), (vx, vy) = random_split(5, n_train=40, n_val=12)
    shape = labels if isinstance(labels, tuple) else (labels,)
    x, y = (x, y) if call == "fit-val" else (x[:trials], y[:shape[0]].reshape(shape))
    vx, vy = (vx[:trials], vy[:shape[0]].reshape(shape)) if call == "fit-val" else (vx, vy)
    model = build(ARCH, seed=0)
    ran = []
    monkeypatch.setattr(model, "lagged", lambda x: ran.append("lagged"))
    monkeypatch.setattr(model, "forward_logits", lambda x, **kw: ran.append("forward"))
    match = (f"needs a 1-D label array, got shape \\({labels[0]}, 1\\)"
             if isinstance(labels, tuple) else f"{trials} trials but {labels} labels")
    with pytest.raises(ValueError, match=match):
        if call == "refit":
            refit_extra_epochs(model, (x, y), FAST)
        elif call == "evaluate":
            evaluate(model, x, y)
        else:
            fit_with_early_stopping(model, (x, y), (vx, vy), FAST)
    assert ran == []
    assert all(p.grad is None for p in model.parameters())


# ----------------------------------------------------------------------
# scenarios

def test_within_report_structure(cohort, tmp_path):
    report = run_scenario("within", cohort[:2], ARCH, FAST)
    assert read_back(report, tmp_path) == {r.subject: r.accuracy for r in report.subjects}
    assert isinstance(report, ScenarioReport)
    assert report.scenario == "within"
    assert [r.subject for r in report.subjects] == ["s01", "s02"]
    accs = [r.accuracy for r in report.subjects]
    assert report.mean == pytest.approx(np.mean(accs))
    assert report.std == pytest.approx(np.std(accs))
    for r in report.subjects:
        assert 0.0 <= r.accuracy <= 100.0
        assert r.best_accuracy >= r.accuracy
        assert r.pool == ()
        assert r.pretrain_history == []
        assert 0 <= r.selected_fold < FAST.folds
        assert r.epochs_run == len(r.history)
        phases = [row.phase for row in r.history]
        assert phases.count("extra") == FAST.extra_epochs_max
        assert set(phases) == {"cv", "extra"}


def test_within_is_deterministic(cohort):
    a = run_scenario("within", cohort[:1], ARCH, FAST)
    b = run_scenario("within", cohort[:1], ARCH, FAST)
    assert report_csv_text(a) == report_csv_text(b)
    assert a.subjects[0].history == b.subjects[0].history
    sa = a.subjects[0].model.state_arrays()
    sb = b.subjects[0].model.state_arrays()
    assert all(np.array_equal(sa[k], sb[k]) for k in sa)


def test_parallel_jobs_do_not_change_results(cohort):
    serial = run_scenario("within", cohort[:2], ARCH, FAST, jobs=1)
    parallel = run_scenario("within", cohort[:2], ARCH, FAST, jobs=2)
    assert report_csv_text(serial) == report_csv_text(parallel)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in a serial pool for the worker pool; it records each pool's
    worker count and the arguments of each task it maps, by parameter name."""
    started, tasks = [], []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks.extend(inspect.signature(fn).bind(*args).arguments for args in zip(*iterables))
            return map(fn, *iterables)

    monkeypatch.setattr(training, "ProcessPoolExecutor", SerialPool)
    return started, tasks


def test_worker_pool_is_capped_at_the_subject_count(cohort, serial_pool):
    started, _ = serial_pool
    run_scenario("within", cohort[:2], ARCH, FAST, jobs=500)
    assert started == [2]
    with pytest.raises(ValueError, match="jobs"):
        run_scenario("within", cohort[:2], ARCH, FAST, jobs=0)


def test_each_task_holds_only_its_subjects_sessions(cohort, serial_pool):
    # a within task holds its own two sessions; a cross task its test session
    # and the other subjects' training sessions, by name in subject order
    _, tasks = serial_pool
    names = ["s01", "s02", "s03"]
    run_scenario("within", cohort, ARCH, FAST, jobs=2)
    assert [(t["si"], t["name"]) for t in tasks] == list(enumerate(names))
    for t, (train, test) in zip(tasks, cohort):
        assert t["train"] is train and t["test"] is test and t["pool"] == {}
    tasks.clear()
    run_scenario("cross", cohort, ARCH, FAST, jobs=2)
    assert [(t["si"], t["name"]) for t in tasks] == list(enumerate(names))
    for si, (t, (_, test)) in enumerate(zip(tasks, cohort)):
        assert t["train"] is None and t["test"] is test
        assert list(t["pool"]) == names[:si] + names[si + 1:]
        assert all(t["pool"][names[j]] is cohort[j][0] for j in range(3) if j != si)


def test_the_first_of_the_best_folds_is_selected(cohort, monkeypatch):
    # folds rank by validation accuracy, then by lower validation loss; the
    # first of tied folds wins
    ranks = iter([(50.0, 0.7), (60.0, 0.9), (60.0, 0.8), (60.0, 0.8)])

    def fit(model, train, val, config, rng):
        acc, loss = next(ranks)
        return training.FitResult([training.HistoryRow(1, "cv", loss, loss, acc, acc)],
                                  1, loss, acc, 1)

    monkeypatch.setattr(training, "fit_with_early_stopping", fit)
    report = run_scenario("within", cohort[:1], ARCH, dataclasses.replace(FAST, folds=4))
    assert report.subjects[0].selected_fold == 2
    assert report.subjects[0].epochs_run == 1 + FAST.extra_epochs_max


def test_cross_pools_the_other_subjects(cohort, tmp_path):
    report = run_scenario("cross", cohort, ARCH, FAST)
    assert read_back(report, tmp_path) == {r.subject: r.accuracy for r in report.subjects}
    assert [r.pool for r in report.subjects] == [
        ("s02", "s03"), ("s01", "s03"), ("s01", "s02")]
    assert all(r.pretrain_history == [] for r in report.subjects)


def traced_subject_task(monkeypatch, scenario):
    """Run one subject's task on eight paper-shape pool sessions with the
    fits stubbed, so that what is traced is the data path.  Returns the
    pool's float32 bytes, the traced peak and the bytes live as each fit
    starts."""
    rng = np.random.default_rng(3)
    names, xy = default_channels(22)
    classes = ("a", "b", "c", "d")

    def session(n):
        return EpochSet(rng.standard_normal((n, 22, 1125)).astype(np.float32),
                        np.arange(n) % 4, classes, names, xy, 250.0)

    pool = {f"s{i:02d}": session(16) for i in range(2, 10)}
    train, test = session(8), session(8)
    live = []

    def fit(model, train, val, config, rng):
        live.append(tracemalloc.get_traced_memory()[0])
        return training.FitResult([training.HistoryRow(1, "cv", 1.0, 1.0, 50.0, 50.0)],
                                  1, 1.0, 50.0, 1)

    def refit(model, all_labeled, config, rng, monitor=None, epoch_offset=0):
        return training.RefitResult([], [50.0])

    monkeypatch.setattr(training, "fit_with_early_stopping", fit)
    monkeypatch.setattr(training, "refit_extra_epochs", refit)
    arch = ArchConfig(n_channels=22, n_samples=1125, n_classes=4)
    tracemalloc.start()
    try:
        training._run_subject(scenario, 0, "s01", None if scenario == "cross" else train,
                              test, pool, arch, dataclasses.replace(FAST, folds=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sum(s.trials.nbytes for s in pool.values()), peak, live


def test_a_cross_task_peaks_near_three_pools_and_trains_beside_two(monkeypatch):
    # the pool, its float64 deviations for the statistics, then the
    # standardised pool and one fold's copy, with the raw pool dropped
    pool_bytes, peak, live = traced_subject_task(monkeypatch, "cross")
    assert len(live) == 2
    assert peak <= 3.5 * pool_bytes, f"peak {peak / pool_bytes:.2f} pools"
    assert max(live) <= 2.5 * pool_bytes, f"{max(live) / pool_bytes:.2f} pools live in a fit"


def test_finetuning_drops_the_pool_before_the_target_protocol(monkeypatch):
    # two pretrain fits on the pool, then two on the target's 8 trials
    pool_bytes, peak, live = traced_subject_task(monkeypatch, "cross_finetuned")
    assert len(live) == 4
    assert peak <= 3.5 * pool_bytes, f"peak {peak / pool_bytes:.2f} pools"
    assert max(live[2:]) <= 0.5 * pool_bytes, \
        f"{max(live[2:]) / pool_bytes:.2f} pools live in a fine-tuning fit"


def test_finetuning_records_the_pretrain_phase(cohort, tmp_path):
    report = run_scenario("cross_finetuned", cohort[:2], ARCH, FAST,
                          names=["left", "right"])
    assert read_back(report, tmp_path) == {"left": report.subjects[0].accuracy,
                                           "right": report.subjects[1].accuracy}
    assert [r.subject for r in report.subjects] == ["left", "right"]
    for r in report.subjects:
        assert len(r.pool) == 1
        assert r.pretrain_history
        assert {row.phase for row in r.pretrain_history} == {"cv", "extra"}


def test_scenario_input_validation(cohort):
    with pytest.raises(ValueError, match="scenario"):
        run_scenario("between", cohort, ARCH, FAST)
    with pytest.raises(ValueError, match="no subjects"):
        run_scenario("within", [], ARCH, FAST)
    with pytest.raises(ValueError, match=">= 2 subjects"):
        run_scenario("cross", cohort[:1], ARCH, FAST)
    with pytest.raises(ValueError, match="one name per subject"):
        run_scenario("within", cohort[:2], ARCH, FAST, names=["only"])
    with pytest.raises(ValueError, match="one name per subject"):
        run_scenario("cross", cohort[:2], ARCH, FAST, names=["twin", "twin"])


@pytest.mark.parametrize("char", [",", "=", "\r", "\n"])
def test_a_subject_name_the_reports_cannot_hold_is_refused_before_any_check(
        cohort, monkeypatch, char):
    # a comma would split the name over report_csv_text cells, '=' would end
    # its summary_text key early, and a line break would split either line
    def refuse(*args, **kwargs):
        raise AssertionError("ran past the name check")

    monkeypatch.setattr(training, "_check_sessions", refuse)
    monkeypatch.setattr(training, "fit_with_early_stopping", refuse)
    for scenario in SCENARIOS:
        with pytest.raises(ValueError, match=re.escape(f"{f'a{char}b'!r}: a subject name")):
            run_scenario(scenario, cohort[:2], ARCH, FAST, names=["s01", f"a{char}b"])


def test_cohorts_must_share_label_and_channel_spaces(cohort):
    train, test = cohort[0]
    relabeled = dataclasses.replace(train, class_names=("x", "y"))
    with pytest.raises(ValueError, match="label-space"):
        run_scenario("cross", [cohort[1], (relabeled, test)], ARCH, FAST)
    renamed = dataclasses.replace(train, channel_names=("a", "b", "c", "d"))
    with pytest.raises(ValueError, match="channel"):
        run_scenario("cross", [cohort[1], (renamed, test)], ARCH, FAST)


@pytest.mark.parametrize("part, change, fragment", [
    # the second subject records 96-sample trials
    (0, lambda s: dataclasses.replace(s, trials=np.concatenate([s.trials, s.trials[:, :, :32]],
                                                               axis=2)),
     "trial length mismatch: s02 train"),
    # its test session was recorded at another sampling rate
    (1, lambda s: dataclasses.replace(s, fs=128.0), "sampling rate mismatch: s02 test"),
])
def test_incompatible_sets_fail_before_any_fit(cohort, monkeypatch, part, change, fragment):
    calls = []
    monkeypatch.setattr(training, "fit_with_early_stopping",
                        lambda *args, **kwargs: calls.append(args))
    second = list(cohort[1])
    second[part] = change(second[part])
    with pytest.raises(ValueError, match=fragment):
        run_scenario("within", [cohort[0], tuple(second)], ARCH, FAST)
    assert calls == []


def without_trials(s):
    return dataclasses.replace(s, trials=s.trials[:0], labels=s.labels[:0])


def one_trial_of_class_1(s):
    keep = np.concatenate([np.nonzero(s.labels == 0)[0], np.nonzero(s.labels == 1)[0][:1]])
    return dataclasses.replace(s, trials=s.trials[keep], labels=s.labels[keep])


def flat_channel_2(s):
    trials = s.trials.copy()
    trials[:, 2] = 0.0
    return dataclasses.replace(s, trials=trials)


@pytest.mark.parametrize("scenario, n, si, part, change, fragment", [
    # the refit monitors the test session, after every fold's fit
    ("within", 3, 1, 1, without_trials, "s02 test: nothing to evaluate"),
    ("cross", 3, 0, 1, without_trials, "s01 test: nothing to evaluate"),
    # the folds split s02's training session after s01's protocol
    ("within", 3, 1, 0, one_trial_of_class_1,
     "s02 train: class 1 has 1 trials, fewer than 2 folds"),
    # s02's pool is s01's training session, split after s01's protocol
    ("cross", 2, 0, 0, one_trial_of_class_1,
     r"s02 pool \(s01\): class 1 has 1 trials, fewer than 2 folds"),
    # the fine-tune splits and standardises s01's training session after its pretrain
    ("cross_finetuned", 3, 0, 0, one_trial_of_class_1,
     "s01 train: class 1 has 1 trials, fewer than 2 folds"),
    ("cross_finetuned", 3, 0, 0, flat_channel_2, "s01 train: zero-variance channel"),
    # s02's pool is the only one whose every session is flat on ch03; s01's
    # protocol runs before it is standardised
    ("cross", 3, (0, 2), 0, flat_channel_2,
     r"s02 pool \(s01\+s03\): zero-variance channel\(s\): ch03$"),
])
def test_a_session_a_later_stage_reads_is_checked_before_any_fit(
        cohort, monkeypatch, scenario, n, si, part, change, fragment):
    calls = []
    monkeypatch.setattr(training, "fit_with_early_stopping",
                        lambda *args, **kwargs: calls.append(args))
    subjects = [list(pair) for pair in cohort[:n]]
    for i in (si if isinstance(si, tuple) else (si,)):
        subjects[i][part] = change(subjects[i][part])
    with pytest.raises(ValueError, match=fragment):
        run_scenario(scenario, [tuple(pair) for pair in subjects], ARCH, FAST)
    assert calls == []


def test_the_finetuned_pretrain_is_the_cross_fit(cohort, monkeypatch):
    # every subject's pretrain repeats its cross fit row for row, and the
    # fine-tune starts from the model cross selected and refit
    cross = run_scenario("cross", cohort, ARCH, FAST)
    starts = []
    run_protocol = training._run_protocol

    def spy(*args, init_state=None, **kwargs):
        if init_state is not None:
            starts.append(init_state)
        return run_protocol(*args, init_state=init_state, **kwargs)

    monkeypatch.setattr(training, "_run_protocol", spy)
    finetuned = run_scenario("cross_finetuned", cohort, ARCH, FAST)
    assert len(starts) == len(cohort)
    for c, f, start in zip(cross.subjects, finetuned.subjects, starts):
        assert f.pretrain_history == c.history
        selected = c.model.state_arrays()
        assert start.keys() == selected.keys()
        assert all(np.array_equal(start[k], selected[k]) for k in selected)


# ----------------------------------------------------------------------
# report serialization

def test_history_csv_round_trips(cohort):
    report = run_scenario("within", cohort[:1], ARCH, FAST)
    text = history_csv_text(report.subjects[0].history)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,phase,train_loss,val_loss,train_acc,val_acc"
    assert len(lines) == len(report.subjects[0].history) + 1
    for line, row in zip(lines[1:], report.subjects[0].history):
        fields = line.split(",")
        assert int(fields[0]) == row.epoch
        assert fields[1] == row.phase
        assert float(fields[2]) == row.train_loss
        if row.phase == "extra":
            assert fields[3] == "" and fields[5] == ""
        else:
            assert float(fields[3]) == row.val_loss


def test_report_csv_and_summary(cohort):
    report = run_scenario("cross", cohort, ARCH, FAST)
    lines = report_csv_text(report).strip().splitlines()
    assert lines[0] == "subject,scenario,accuracy,best_accuracy,selected_fold,epochs_run"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "s01" and first[1] == "cross"
    assert float(first[2]) == report.subjects[0].accuracy

    summary = summary_text(report)
    assert f"mean_accuracy={report.mean!r}" in summary
    assert "pool.s01=s02+s03" in summary
    assert f"accuracy.s02={report.subjects[1].accuracy!r}" in summary
    assert "n_subjects=3" in summary
