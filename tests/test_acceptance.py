"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py``; each criterion prints
``[acceptance] <name>: PASS/FAIL (<measured detail>)`` directly to the
terminal even under output capture.  The training-based criteria share
one synthetic cohort and one trained model through module fixtures.
"""
import itertools
import time

import numpy as np
import pytest

from oracles import check_gradients, to_scalar
from eegitnet.data import (SourceSpec, SynthSpec, load_epochs, save_epochs,
                           synth_generate)
from eegitnet.explain import build_atlas, savgol_coeffs, savgol_smooth
from eegitnet.model import (ArchConfig, ITNetModel, build, load_model,
                            receptive_field_blocks, receptive_field_plain,
                            save_model)
from eegitnet.ops import (ConvSpec, avg_pool_time, batch_norm,
                          conv_temporal, dense, dropout, elu, flatten,
                          lag_statistics, softmax_cross_entropy)
from eegitnet.stats import rank_sum_counts, wilcoxon_one_sided
from eegitnet.tensor import Tensor
from eegitnet.training import TrainConfig, report_csv_text, run_scenario

# ----------------------------------------------------------------------
# shared synthetic cohort: 2 classes, 8 channels, 10 Hz vs 22 Hz sources
# on distinct mixing columns, noise tuned to ~6 dB mean channel SNR

FS = 125.0
CLASS_FREQS = (10.0, 22.0)
MIX_A = (0.9, 0.7, 0.4, 0.1, 0.0, 0.0, 0.0, 0.2)
MIX_B = (0.0, 0.1, 0.2, 0.0, 0.3, 0.9, 0.8, 0.4)
# unit-amplitude unit-norm sources spread power 1/8 per channel on average;
# sigma = sqrt(0.125 / 10**0.6) puts the mean channel SNR at +6 dB
NOISE_SIGMA = 0.177


def desk_spec(n_trials, seed):
    return SynthSpec(
        n_trials=n_trials, n_channels=8, n_classes=2, fs=FS, duration_s=3.0,
        sources=(
            (SourceSpec(CLASS_FREQS[0], 2.0, 1.0, MIX_A),),
            (SourceSpec(CLASS_FREQS[1], 2.0, 1.0, MIX_B),),
        ),
        noise_sigma=NOISE_SIGMA, seed=seed)


def timed(run):
    """``run()``'s result and its (wall, process CPU) seconds over one span:
    wall far above CPU means the machine was shared."""
    start, cpu = time.perf_counter(), time.process_time()
    result = run()
    return result, (time.perf_counter() - start, time.process_time() - cpu)


@pytest.fixture(scope="module")
def within_run():
    """One 200-trial subject (100 train + 100 test) under the within protocol."""
    subject = (synth_generate(desk_spec(100, seed=21)),
               synth_generate(desk_spec(100, seed=521)))
    arch = ArchConfig(n_channels=8, n_samples=375, n_classes=2)
    config = TrainConfig(max_epochs_cv=20, patience=4, extra_epochs_max=3,
                         folds=10, batch_size=16, seed=11)
    report, seconds = timed(lambda: run_scenario("within", [subject], arch, config))
    return report, seconds, subject


@pytest.fixture(scope="module")
def cross_run():
    """Four subjects sharing source structure, evaluated cross-subject."""
    subjects = [(synth_generate(desk_spec(60, seed=100 + i)),
                 synth_generate(desk_spec(60, seed=600 + i)))
                for i in range(4)]
    arch = ArchConfig(n_channels=8, n_samples=375, n_classes=2,
                      dropout_rate=0.2)
    config = TrainConfig(max_epochs_cv=10, patience=3, extra_epochs_max=2,
                         folds=4, batch_size=16, seed=13)
    return timed(lambda: run_scenario("cross", subjects, arch, config))


@pytest.fixture
def verdict(capsys):
    def emit(name, ok, detail):
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"{name}: {detail}"
    return emit


# ----------------------------------------------------------------------
# 1. parameter budget

def test_parameter_budget(verdict):
    model = build(ArchConfig(n_channels=22, n_samples=375, n_classes=4))
    n = model.param_count
    verdict("parameter-budget", 2500 <= n <= 4000,
            f"{n} trainable parameters, required range [2500, 4000]")


# ----------------------------------------------------------------------
# 2. receptive-field arithmetic

def test_receptive_field_math(verdict):
    blocks_91 = receptive_field_blocks(2, 4, 2, 4)
    plain_15 = receptive_field_plain(3, 2, 3)
    combos = 0
    sweep_ok = True
    for t, b, n in itertools.product(range(1, 9), range(2, 9), range(0, 6)):
        if not b < t:
            continue
        combos += 1
        if receptive_field_blocks(1, t, b, n) != receptive_field_plain(t, b, n):
            sweep_ok = False
    verdict("receptive-field-math",
            blocks_91 == 91 and plain_15 == 15 and sweep_ok and combos > 0,
            f"blocks(2,4,2,4)={blocks_91} (want 91), plain(3,2,3)={plain_15} "
            f"(want 15), single-layer-block equivalence on {combos} grid points")


# ----------------------------------------------------------------------
# 3. causality of the residual causal stack

def test_causal_stack_isolation(verdict):
    start = time.perf_counter()
    model = build(ArchConfig(n_channels=22, n_samples=375, n_classes=4,
                             dropout_rate=0.0), seed=4)
    r = model.config.receptive_field
    t_len = 120
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 14, 1, t_len)).astype(np.float32)

    def stack_out(arr):
        return model.tc_features(Tensor(arr), mode="infer").data

    base = stack_out(x)
    last = t_len - 1

    inside = x.copy()
    inside[0, 3, 0, last - (r - 1)] += 1.0  # newest sample still in reach
    changed = stack_out(inside)[0, :, 0, last]

    outside = x.copy()
    outside[0, 3, 0, last - r] += 1.0  # one sample beyond the reach
    unchanged = stack_out(outside)[0, :, 0, last]

    future_ok = True
    for cut in (30, 60, 100, t_len - 1):
        fut = x.copy()
        fut[0, :, 0, cut] += 1.0
        out = stack_out(fut)
        future_ok &= np.array_equal(out[..., :cut], base[..., :cut])

    elapsed = time.perf_counter() - start
    lag_in = not np.array_equal(changed, base[0, :, 0, last])
    lag_out = np.array_equal(unchanged, base[0, :, 0, last])
    verdict("causal-stack-isolation",
            lag_in and lag_out and future_ok and elapsed < 10.0,
            f"r={r}: lag {r - 1} perturbs last output ({lag_in}), lag {r} "
            f"bit-identical ({lag_out}), futures leave pasts bit-identical "
            f"({future_ok}); {elapsed:.2f}s < 10s")


# ----------------------------------------------------------------------
# 4. finite-difference gradient checks

def test_gradient_checks(verdict, rng):
    start = time.perf_counter()
    worst = {}

    x4 = rng.standard_normal((2, 3, 2, 8))
    worst["temporal-conv-same"] = check_gradients(
        lambda t: to_scalar(conv_temporal(t[0], ConvSpec(3, 1, "same", False, 2),
                                          t[1])),
        [x4, rng.standard_normal((2, 3, 1, 3)) * 0.5])
    worst["spatial-conv-depthwise"] = check_gradients(
        lambda t: to_scalar(conv_temporal(t[0], ConvSpec(2, 1, "valid", True, 3),
                                          t[1])),
        [x4, rng.standard_normal((3, 1, 2, 1)) * 0.5])
    worst["causal-conv-dilated"] = check_gradients(
        lambda t: to_scalar(conv_temporal(t[0], ConvSpec(3, 2, "causal", True, 3),
                                          t[1])),
        [x4, rng.standard_normal((3, 1, 1, 3)) * 0.5])
    worst["pointwise-conv"] = check_gradients(
        lambda t: to_scalar(conv_temporal(t[0], ConvSpec(1, 1, "same", False, 4),
                                          t[1])),
        [x4, rng.standard_normal((4, 3, 1, 1)) * 0.5])
    worst["batch-norm-train"] = check_gradients(
        lambda t: to_scalar(batch_norm(t[0], t[1], t[2])),
        [rng.standard_normal((4, 3, 2, 5)), 1.0 + 0.1 * rng.standard_normal(3),
         0.1 * rng.standard_normal(3)])
    # discarded: a dropped infer-mode norm check's draws, so later checks keep their inputs
    rng.standard_normal(3), rng.random(3)
    rng.standard_normal((4, 3, 2, 5)), rng.standard_normal(3), rng.standard_normal(3)
    worst["elu"] = check_gradients(
        lambda t: to_scalar(elu(t[0])),
        [rng.standard_normal((3, 4)) + 0.05])
    worst["avg-pool"] = check_gradients(
        lambda t: to_scalar(avg_pool_time(t[0], 3)),
        [rng.standard_normal((2, 3, 1, 10))])
    worst["dropout-train"] = check_gradients(
        lambda t: to_scalar(dropout(t[0], 0.4, np.random.default_rng(77))),
        [rng.standard_normal((3, 4, 1, 6))])
    worst["dense"] = check_gradients(
        lambda t: to_scalar(dense(t[0], t[1], t[2])),
        [rng.standard_normal((3, 5)), rng.standard_normal((5, 4)) * 0.5,
         rng.standard_normal(4) * 0.1])
    worst["flatten"] = check_gradients(
        lambda t: to_scalar(flatten(t[0])),
        [rng.standard_normal((2, 3, 1, 4))])
    y_fd = np.array([0, 1, 2, 0])
    worst["softmax-cross-entropy"] = check_gradients(
        lambda t: softmax_cross_entropy(t[0], y_fd),
        [rng.standard_normal((4, 3))])

    # one full forward through a small assembled model
    arch = ArchConfig(n_channels=2, n_samples=16, n_classes=2,
                      inception_branches=((1, 3), (2, 5)), tc_blocks=2,
                      tc_layers_per_block=1, tc_kernel=3, dilation_base=2,
                      pool1=2, pool2=2, dr_filters=3, dropout_rate=0.0)
    model = build(arch, seed=9, dtype=np.float64)
    names = sorted(model.params)
    x = rng.standard_normal((2, 1, 2, 16)) * 0.5
    labels = np.array([0, 1])

    def end_to_end(tensors):
        for name, leaf in zip(names, tensors[1:]):
            model.params[name] = leaf
        return softmax_cross_entropy(
            model.forward_logits(tensors[0], mode="train"), labels)

    worst["end-to-end"] = check_gradients(
        end_to_end, [x] + [model.params[n].data for n in names])
    # BN1 applied through the spatial sum to a temporal conv's output, its
    # moments from the input's lag statistics (drawn last, so the inputs of
    # the checks above are unchanged)
    temporal, spatial = ConvSpec(3, 1, "same", False, 3), ConvSpec(2, 1, "valid", True, 3)

    def bn1_through_sum(t):
        x, w, gamma, beta, bias, s = t
        u = conv_temporal(x, temporal, w)
        return to_scalar(batch_norm(u, gamma, beta, bias=bias,
                                    through=(conv_temporal(u, spatial, s), s, w,
                                             lag_statistics(x, [3]))))

    worst["batch-norm-through-sum"] = check_gradients(
        bn1_through_sum,
        [rng.standard_normal((4, 1, 2, 5)) + 0.5, rng.standard_normal((3, 1, 1, 3)) * 0.5,
         1.0 + 0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3),
         rng.standard_normal(3), rng.standard_normal((3, 1, 2, 1)) * 0.5])

    elapsed = time.perf_counter() - start
    top = max(worst.values())
    verdict("gradient-checks", top < 1e-3 and elapsed < 60.0,
            f"{len(worst)} checks (layer primitives + end-to-end), worst "
            f"relative error {top:.2e} < 1e-3; {elapsed:.1f}s < 60s")


# ----------------------------------------------------------------------
# 7. smoothing-coefficient exactness (cheap, runs before the training gates)

def test_savgol_exactness(verdict, rng):
    flat = savgol_coeffs(2, 0)
    flat_ok = list(flat) == [0.2] * 5

    offsets = np.arange(-2.0, 3.0)
    e = np.eye(5)
    oracle = np.array([np.linalg.lstsq(np.vander(offsets, 3, increasing=True),
                                       e[j], rcond=None)[0][0]
                       for j in range(5)])
    quad = savgol_coeffs(2, 2)
    quad_ref = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    quad_ok = (np.abs(quad - oracle).max() < 1e-10
               and np.abs(quad - quad_ref).max() < 1e-10)

    repro_ok = True
    for l in range(1, 7):
        for p in range(0, 2 * l + 1):
            t = np.linspace(-1, 1, 4 * l + 9)
            x = np.polyval(rng.standard_normal(p + 1), t)
            sm = savgol_smooth(x, l, p)
            scale = max(np.abs(x).max(), 1.0)
            if np.abs(sm[l:-l] - x[l:-l]).max() / scale >= 1e-9:
                repro_ok = False
    verdict("savgol-exactness", flat_ok and quad_ok and repro_ok,
            f"window-5 mean exact ({flat_ok}), quadratic vs least-squares "
            f"oracle within 1e-10 ({quad_ok}), polynomial reproduction for "
            f"p <= 2l, l <= 6 ({repro_ok})")


# ----------------------------------------------------------------------
# 8. signed-rank fidelity on the published accuracy columns

ITNET_COLUMN = [84.38, 62.85, 89.93, 69.10, 74.31, 57.64, 88.54, 83.68, 80.21]
EEGNET_COLUMN = [81.94, 56.94, 90.62, 67.01, 72.57, 58.68, 76.04, 81.25, 78.12]


def test_stats_fidelity(verdict):
    res = wilcoxon_one_sided(ITNET_COLUMN, EEGNET_COLUMN)
    exact_ok = res.p_value == 5 / 512
    rounded = f"{res.p_value:.3f}"

    dist_ok = True
    for n in range(1, 13):
        ranks = np.arange(1, n + 1, dtype=np.float64)
        counts = rank_sum_counts(ranks)
        brute = np.zeros_like(counts)
        for mask in range(2 ** n):
            s = sum(j + 1 for j in range(n) if mask >> j & 1)
            brute[2 * s] += 1
        if not np.array_equal(counts, brute):
            dist_ok = False
    verdict("stats-fidelity",
            exact_ok and rounded == "0.010" and dist_ok,
            f"p={res.p_value!r} == 5/512 ({exact_ok}), rounds to {rounded} "
            f"(want 0.010), recurrence matches 2^n enumeration for n <= 12 "
            f"({dist_ok})")


# ----------------------------------------------------------------------
# 5. learning at desk scale

def test_desk_scale_learning(verdict, within_run, cross_run):
    within_report, (within_s, within_cpu), _ = within_run
    cross_report, (cross_s, cross_cpu) = cross_run
    within_acc = within_report.subjects[0].accuracy
    cross_accs = [r.accuracy for r in cross_report.subjects]
    elapsed = within_s + cross_s
    verdict("desk-scale-learning",
            within_acc >= 90.0 and cross_report.mean > 60.0 and elapsed < 300.0,
            f"within-subject {within_acc:.1f}% >= 90%, cross-subject mean "
            f"{cross_report.mean:.1f}% > 60% (per subject "
            f"{[f'{a:.0f}' for a in cross_accs]}), training {elapsed:.0f}s < 300s, "
            f"process CPU {within_cpu + cross_cpu:.0f}s")


# ----------------------------------------------------------------------
# 6. explainability recovery on the trained model

def test_explainability_recovery(verdict, within_run):
    report, _, _ = within_run
    atlas = build_atlas(report.subjects[0].model, fs=FS)
    peaks = np.array([e.freqs[np.argmax(e.smoothed_spectrum)]
                      for e in atlas.entries])
    details = []
    ok = True
    for freq, mixing in zip(CLASS_FREQS, (MIX_A, MIX_B)):
        peak_hit = np.abs(peaks - freq).min() <= 2.0
        col = np.asarray(mixing) / np.linalg.norm(mixing)
        best_r = max(abs(np.corrcoef(e.pattern, col)[0, 1])
                     for e in atlas.entries if not e.degenerate)
        ok &= peak_hit and best_r >= 0.7
        details.append(f"{freq:g} Hz: nearest peak {peaks[np.abs(peaks - freq).argmin()]:.1f} Hz, "
                       f"best |r|={best_r:.2f}")
    verdict("explainability-recovery", ok,
            "; ".join(details) + " (need peak within 2 Hz and |r| >= 0.7)")


# ----------------------------------------------------------------------
# 9. round-trips and run determinism

def tiny_subject(seed):
    spec = SynthSpec(
        n_trials=24, n_channels=4, n_classes=2, fs=64.0, duration_s=1.0,
        sources=((SourceSpec(8.0, 2.0, 1.0, (1.0, 0.5, 0.0, 0.0)),),
                 (SourceSpec(24.0, 2.0, 1.0, (0.0, 0.0, 0.5, 1.0)),)),
        noise_sigma=0.1, seed=seed)
    return synth_generate(spec)


def test_roundtrip_and_determinism(verdict, within_run, tmp_path):
    report, _, subject = within_run

    epoch_path = tmp_path / "cohort.eegepoch"
    save_epochs(subject[0], epoch_path)
    first = epoch_path.read_bytes()
    reloaded = load_epochs(epoch_path)
    save_epochs(reloaded, epoch_path)
    epochs_ok = (epoch_path.read_bytes() == first
                 and np.array_equal(reloaded.trials, subject[0].trials)
                 and np.array_equal(reloaded.labels, subject[0].labels))

    model_path = tmp_path / "trained.itnetmdl"
    trained = report.subjects[0].model
    save_model(trained, model_path)
    first = model_path.read_bytes()
    remodel = load_model(model_path)
    save_model(remodel, model_path)
    model_ok = (model_path.read_bytes() == first
                and isinstance(remodel, ITNetModel)
                and all(np.array_equal(remodel.params[k].data,
                                       trained.params[k].data)
                        for k in trained.params))

    cohort = [(tiny_subject(0), tiny_subject(1000)),
              (tiny_subject(1), tiny_subject(1001))]
    arch = ArchConfig(n_channels=4, n_samples=64, n_classes=2)
    config = TrainConfig(max_epochs_cv=3, patience=1, extra_epochs_max=1,
                         folds=2, batch_size=8, seed=5)
    table_a = report_csv_text(run_scenario("within", cohort, arch, config))
    table_b = report_csv_text(run_scenario("within", cohort, arch, config))
    runs_ok = table_a == table_b

    verdict("roundtrip-and-determinism",
            epochs_ok and model_ok and runs_ok,
            f"epoch container byte-stable ({epochs_ok}), model container "
            f"byte-stable ({model_ok}), identical-seed runs give identical "
            f"accuracy tables ({runs_ok})")
