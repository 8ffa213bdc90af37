"""Tests of the benchmark's tracer: wrappers come off, spans nest, counts repeat.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import eegitnet
import run
import tracing
from eegitnet.model import ArchConfig, build
from eegitnet.ops import ConvSpec
from eegitnet.optim import Adam
from eegitnet.tensor import Tensor
from workloads import Checks, JobRecord

PATCHED_NAMESPACES = (eegitnet.model, eegitnet.ops, eegitnet.tensor, eegitnet.training,
                      eegitnet.data, eegitnet.explain, eegitnet.optim,
                      eegitnet.model.ITNetModel, eegitnet.tensor.Tensor, Adam)


def snapshot():
    return [dict(vars(ns)) for ns in PATCHED_NAMESPACES]


def test_uninstall_restores_every_original():
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(eegitnet)
    during = snapshot()
    changed = sum(during[i][k] is not v for i, ns in enumerate(before) for k, v in ns.items())
    assert changed == len(tracer._patches) > 0
    tracer.uninstall()
    after = snapshot()
    assert not tracer.installed
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items())


class _ProbeWorkload:
    """Records, at each phase, whether the tracer's wrappers are in place."""

    name = "probe"

    def __init__(self, original):
        self.original = original
        self.checks = Checks()
        self.clock = time.perf_counter
        self.seen = []

    def wrapped(self):
        return eegitnet.model.conv_temporal is not self.original

    def setup(self):
        self.seen.append(("setup", self.wrapped()))

    def warmup(self):
        self.seen.append(("warmup", self.wrapped()))

    def job(self):
        self.seen.append(("job", self.wrapped()))
        return JobRecord(span=(0.0, 1.0))


def test_every_wrapper_is_removed_before_an_untraced_job():
    original = eegitnet.model.conv_temporal
    workload = _ProbeWorkload(original)
    tracer = tracing.Tracer()
    metrics, _ = run.measure_traced(workload, 0.0, eegitnet, tracer)
    assert workload.seen == [("setup", True), ("warmup", False),
                             ("job", False), ("job", True)]
    assert eegitnet.model.conv_temporal is original
    assert not tracer.installed
    assert metrics["trace.overhead_s"] == (0.0, "s")


def test_wrappers_are_removed_when_a_traced_job_raises():
    original = eegitnet.model.conv_temporal

    class Failing(_ProbeWorkload):
        def job(self):
            if self.wrapped():
                raise RuntimeError("traced job fails")
            return super().job()

    workload = Failing(original)
    tracer = tracing.Tracer()
    assert run.measure_traced(workload, 0.0, eegitnet, tracer) is None
    assert eegitnet.model.conv_temporal is original
    assert workload.checks.failed == 1


def _train_steps(model, steps, batch=4):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, 1, 8, 375)).astype(np.float32)
    y = np.arange(batch) % 2
    opt = Adam(model.parameters())
    for _ in range(steps):
        # through the module, as training code calls it
        loss = eegitnet.training.softmax_cross_entropy(
            model.forward_logits(x, mode="train", rng=rng), y)
        loss.backward()
        opt.step()
        opt.zero_grad()


def _traced_job(steps):
    tracer = tracing.Tracer()
    model = build(ArchConfig(n_channels=8, n_samples=375, n_classes=2), seed=0)
    tracer.install(eegitnet)
    try:
        tracer.run = "job-0"
        _train_steps(model, steps)
    finally:
        tracer.uninstall()
    return tracer, tracer.layer_metrics(["job-0"], [1.0])


def test_layer_metrics_self_times_and_exact_counts():
    tracer, metrics = _traced_job(steps=2)
    for name, (value, unit) in metrics.items():
        if unit == "ms":
            assert value >= 0.0, name
    # computed work of the k=16 inception convolution: batch 4, 2 filters,
    # 8 electrodes x 375 samples of output, 16 taps each, one call per step
    assert metrics["ops.conv.inception_k16.calls"] == (2, "count")
    assert metrics["ops.conv.inception_k16.macs"] == (2 * 4 * 2 * 8 * 375 * 16, "count")
    assert metrics["ops.conv.spatial.calls"] == (2 * 3, "count")
    for geom in tracing.CONV_GEOMETRIES:
        assert metrics[f"ops.conv.{geom}.fwd_ms"][0] > 0.0, geom
        assert metrics[f"ops.conv.{geom}.bwd_ms"][0] > 0.0, geom
    assert len(tracer.step_ns) == 2 and metrics["training.step_ms_p50"][0] > 0.0
    _, again = _traced_job(steps=2)
    counts = {k: v for k, v in metrics.items() if v[1] in ("count", "B")}
    assert counts == {k: v for k, v in again.items() if v[1] in ("count", "B")}
    assert counts["tensor.tape_nodes"][0] > 0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0, 100, -1, "job-0"],
                    ["inner", 10, 40, 0, "job-0"],
                    ["leaf", 15, 25, 1, "job-0"],
                    ["inner", 50, 70, 0, "job-0"]]
    self_ns, total_ns = tracer.self_times_ns()
    assert self_ns["job-0"] == {"outer": 50, "inner": 40, "leaf": 10}
    assert total_ns["job-0"] == {"outer": 100, "inner": 50, "leaf": 10}


@pytest.mark.parametrize("padding,dilation,kh,kw,depthwise,expected", [
    ("same", 1, 1, 32, False, "inception_k32"),
    ("valid", 1, 8, 1, True, "spatial"),
    ("causal", 4, 1, 4, True, "causal_d4"),
    ("same", 1, 1, 1, False, "dr_1x1"),
])
def test_conv_geometry_names(padding, dilation, kh, kw, depthwise, expected):
    spec = ConvSpec(max(kh, kw), dilation, padding, depthwise, 2)
    assert tracing.conv_geometry(spec, Tensor(np.zeros((2, 1, kh, kw)))) == expected


def test_conv_work_matches_a_loop_count():
    x_shape, w_shape, out_shape = (2, 3, 1, 10), (4, 3, 1, 5), (2, 4, 1, 10)
    macs = sum(1 for _n in range(2) for _o in range(4) for _t in range(10)
               for _c in range(3) for _k in range(5))
    assert tracing.conv_work(x_shape, w_shape, out_shape, 4) == (macs, 2 * 3 * 10 * 5 * 4)


def _benchmark_names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[section]]


class _FixedWorkload(_ProbeWorkload):
    def job(self):
        super().job()
        start = self.clock()
        return JobRecord(span=(start, start + 1.0), online=[(start, start + 0.001)] * 2,
                         offline=[(start, start + 0.1, 4)])


def test_reported_metrics_match_benchmark_json():
    workload = _FixedWorkload(eegitnet.model.conv_temporal)
    metrics, _ = run.measure(workload, 0.0)
    assert list(metrics) == _benchmark_names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    metrics, _ = run.measure_traced(_FixedWorkload(eegitnet.model.conv_temporal), 0.0,
                                    eegitnet, tracing.Tracer())
    assert list(metrics) == _benchmark_names("per_layer")


def test_exits_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-predict",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
