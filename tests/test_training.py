"""Fold splitting, early stopping, refitting, and the three scenarios."""
import dataclasses

import numpy as np
import pytest

from eegitnet import training
from eegitnet.data import SourceSpec, SynthSpec, synth_generate
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
    bad_x[0, 0, 0] = np.nan
    config = TrainConfig(max_epochs_cv=5, patience=2, folds=2)
    # a NaN loss never improves on the last, so patience runs out after 2 epochs
    with pytest.raises(FloatingPointError, match="no finite validation loss in 2 epochs"):
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


def test_fit_rejects_degenerate_splits():
    train, val = random_split(2)
    model = build(ARCH, seed=0)
    with pytest.raises(ValueError, match="validation"):
        fit_with_early_stopping(model, train, (val[0][:0], val[1][:0]), FAST)
    with pytest.raises(ValueError, match="at least 2"):
        fit_with_early_stopping(model, (train[0][:1], train[1][:1]), val, FAST)


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
    with pytest.raises(ValueError, match="nothing"):
        evaluate(build(ARCH, seed=0), x[:0], y[:0])


# ----------------------------------------------------------------------
# scenarios

def test_within_report_structure(cohort):
    report = run_scenario("within", cohort[:2], ARCH, FAST)
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


def test_worker_pool_is_capped_at_the_subject_count(cohort, monkeypatch):
    import eegitnet.training as training
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(training, "ProcessPoolExecutor", SerialPool)
    run_scenario("within", cohort[:2], ARCH, FAST, jobs=500)
    assert started == [2]
    with pytest.raises(ValueError, match="jobs"):
        run_scenario("within", cohort[:2], ARCH, FAST, jobs=0)


def test_cross_pools_the_other_subjects(cohort):
    report = run_scenario("cross", cohort, ARCH, FAST)
    assert [r.pool for r in report.subjects] == [
        ("s02", "s03"), ("s01", "s03"), ("s01", "s02")]
    assert all(r.pretrain_history == [] for r in report.subjects)


def test_finetuning_records_the_pretrain_phase(cohort):
    report = run_scenario("cross_finetuned", cohort[:2], ARCH, FAST,
                          names=["left", "right"])
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
