"""Per-layer tracing from outside the package.

The tracer wraps the package's public functions at the names their callers
look up (module globals such as ``eegitnet.model.conv_temporal`` and
methods such as ``Tensor.backward``), records one span per call, and
restores every original on :meth:`Tracer.uninstall`.  Wrapping
``from_op`` hands the tracer each op's backward closure, so backward time
per op is recorded without touching the package.

Spans live in memory as ``(name, start_ns, end_ns, parent, run)`` rows and
are written out once, by :meth:`Tracer.write_spans`.  A span's self time is
its duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

CONV_GEOMETRIES = ("inception_k16", "inception_k32", "inception_k64", "spatial",
                   "causal_d1", "causal_d2", "causal_d4", "causal_d8", "dr_1x1")
PLAIN_OPS = ("batch_norm", "elu", "dropout", "avg_pool_time", "dense",
             "softmax_cross_entropy")


def conv_geometry(spec, weights):
    """Name of a convolution's geometry, as used in the metric names."""
    kh, kw = weights.shape[2], weights.shape[3]
    if spec.padding == "causal":
        return f"causal_d{spec.dilation}"
    if spec.padding == "valid" and spec.depthwise and kw == 1:
        return "spatial"
    if kh == 1 and kw == 1:
        return "dr_1x1"
    if spec.padding == "same" and kh == 1 and spec.dilation == 1:
        return f"inception_k{kw}"
    return f"k{kh}x{kw}_d{spec.dilation}_{spec.padding}"


def conv_work(x_shape, w_shape, out_shape, itemsize):
    """Multiply-accumulates and sliding-window bytes of one convolution call.

    Both are computed from the shapes, not measured: every output element
    takes ``filters_in_per_group * kh * kw`` products, and the window view
    holds ``kh * kw`` values per (trial, input filter, output position).
    """
    n, c_out, ho, wo = out_shape
    c_in = x_shape[1]
    taps = w_shape[2] * w_shape[3]
    macs = n * c_out * ho * wo * w_shape[1] * taps
    window_bytes = n * c_in * ho * wo * taps * itemsize
    return macs, window_bytes


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``run`` labels the spans recorded from now on (``setup``, ``job-3``...);
    spans of one run share that label.
    """

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent_index, run]
        self._open = []          # indices of spans not yet closed
        self.run = "setup"
        self.counts = defaultdict(lambda: defaultdict(int))   # run -> name -> count
        self.step_ns = []        # forward_train start to Adam.step end
        self.tape_nodes = []     # recorded nodes per backward call
        self._step_start = None
        self._patches = []

    # ------------------------------------------------------------------
    # spans
    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run])
        self._open.append(len(self.spans) - 1)

    def end(self):
        index = self._open.pop()
        self.spans[index][2] = time.perf_counter_ns()
        return self.spans[index]

    def current_op(self):
        """Stem of the innermost open span when it is an ``ops.*`` forward
        span (the op whose ``from_op`` call is in progress), else None."""
        if not self._open:
            return None
        name = self.spans[self._open[-1]][0]
        return name[:-len(".fwd")] if name.startswith("ops.") else None

    def count(self, name, value=1):
        self.counts[self.run][name] += value

    # ------------------------------------------------------------------
    # wrappers
    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _spanned(self, name):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
            return traced
        return wrap

    def install(self, pkg):
        """Wrap the package's layer entry points; ``pkg`` is the imported
        ``eegitnet`` package with its submodules loaded."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        model, ops, tensor, training = pkg.model, pkg.ops, pkg.tensor, pkg.training
        data, explain, optim = pkg.data, pkg.explain, pkg.optim

        for op in PLAIN_OPS:
            owner = training if op == "softmax_cross_entropy" else model
            self._patch(owner, op, self._spanned(f"ops.{op}.fwd"))
        self._patch(model, "conv_temporal", self._conv_wrapper)
        for owner in (ops, tensor):
            self._patch(owner, "from_op", self._from_op_wrapper)
        self._patch(tensor.Tensor, "backward", self._backward_wrapper)
        self._patch(optim.Adam, "step", self._adam_wrapper)
        self._patch(model.ITNetModel, "forward_logits", self._forward_wrapper)
        self._patch(model.ITNetModel, "state_arrays", self._spanned("model.state_arrays"))
        self._patch(model, "load_model", self._spanned("model.load_model"))
        self._patch(training, "evaluate", self._spanned("training.evaluate"))
        self._patch(training, "fit_with_early_stopping",
                    self._phase("training.fold_fit", lambda fit: fit.epochs_run))
        self._patch(training, "refit_extra_epochs",
                    self._phase("training.refit", lambda refit: len(refit.history)))
        self._patch(training, "standardize", self._spanned("data.standardize"))
        for name in ("synth_generate", "save_epochs", "load_epochs", "standardize"):
            self._patch(data, name, self._spanned(f"data.{name}"))
        for name in ("build_atlas", "export_atlas"):
            self._patch(explain, name, self._spanned(f"explain.{name}"))

    def uninstall(self):
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self):
        return bool(self._patches)

    def _conv_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(x, spec, weights):
            name = f"ops.conv.{conv_geometry(spec, weights)}"
            self.begin(name + ".fwd")
            try:
                out = fn(x, spec, weights)
            finally:
                self.end()
            macs, window = conv_work(x.shape, weights.shape, out.shape, x.data.itemsize)
            self.count(name + ".calls")
            self.count(name + ".macs", macs)
            self.count(name + ".window_bytes", window)
            return out
        return traced

    def _from_op_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(data, parents, backward_fn):
            op = self.current_op()
            if op is not None:
                inner = backward_fn

                def backward_fn(g):
                    self.begin(op + ".bwd")
                    try:
                        inner(g)
                    finally:
                        self.end()
            return fn(data, parents, backward_fn)
        return traced

    def _backward_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(root):
            self.tape_nodes.append(_tape_size(root))
            self.begin("tensor.backward")
            try:
                return fn(root)
            finally:
                self.end()
        return traced

    def _adam_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(opt):
            self.begin("optim.adam_step")
            try:
                return fn(opt)
            finally:
                span = self.end()
                if self._step_start is not None:
                    self.step_ns.append(span[2] - self._step_start)
                    self._step_start = None
        return traced

    def _forward_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(model, x, mode="infer", rng=None):
            self.begin(f"model.forward_{mode}")
            if mode == "train":
                self._step_start = self.spans[-1][1]
            try:
                return fn(model, x, mode=mode, rng=rng)
            finally:
                self.end()
        return traced

    def _phase(self, name, epochs_of):
        """Span a training phase and count the epochs its result reports."""
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end()
                self.count("training.epochs_run", epochs_of(result))
                return result
            return traced
        return wrap

    # ------------------------------------------------------------------
    # aggregation
    def self_times_ns(self):
        """(run -> span name -> summed self time, run -> name -> summed duration)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = defaultdict(lambda: defaultdict(int))
        total_ns = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, _, run) in enumerate(self.spans):
            self_ns[run][name] += end - start - child_ns[i]
            total_ns[run][name] += end - start
        return self_ns, total_ns

    def layer_metrics(self, job_runs, job_walls_s):
        """Per-layer metrics: the setup's share plus the mean over the traced
        jobs.  ``_ms`` metrics are self times; ``training.*`` phase times are
        inclusive; counts are per job."""
        self_ns, total_ns = self.self_times_ns()
        n_jobs = len(job_runs)

        def per_job(table, name):
            setup = table["setup"].get(name, 0)
            return setup + sum(table[r].get(name, 0) for r in job_runs) / n_jobs

        def count(name):
            return _exact(per_job(self.counts, name))

        def ms(name):
            return per_job(self_ns, name) / 1e6

        def seconds(name):
            return per_job(total_ns, name) / 1e9

        out = {}
        for geom in CONV_GEOMETRIES:
            stem = f"ops.conv.{geom}"
            out[f"{stem}.fwd_ms"] = (ms(stem + ".fwd"), "ms")
            out[f"{stem}.bwd_ms"] = (ms(stem + ".bwd"), "ms")
            for key in ("calls", "macs"):
                out[f"{stem}.{key}"] = (count(f"{stem}.{key}"), "count")
            out[f"{stem}.window_bytes"] = (count(stem + ".window_bytes"), "B")
        for op in PLAIN_OPS:
            out[f"ops.{op}.fwd_ms"] = (ms(f"ops.{op}.fwd"), "ms")
            out[f"ops.{op}.bwd_ms"] = (ms(f"ops.{op}.bwd"), "ms")
        out["tensor.backward_ms"] = (ms("tensor.backward"), "ms")
        nodes = statistics.median(self.tape_nodes) if self.tape_nodes else 0
        out["tensor.tape_nodes"] = (_exact(nodes), "count")
        out["optim.adam_step_ms"] = (ms("optim.adam_step"), "ms")
        for name in ("forward_train", "forward_infer", "state_arrays", "load_model"):
            out[f"model.{name}_ms"] = (ms(f"model.{name}"), "ms")
        step = statistics.median(self.step_ns) / 1e6 if self.step_ns else 0.0
        out["training.step_ms_p50"] = (step, "ms")
        evaluate_s = seconds("training.evaluate")
        out["training.evaluate_s"] = (evaluate_s, "s")
        out["training.evaluate_share"] = (evaluate_s / statistics.mean(job_walls_s), "ratio")
        out["training.fold_fit_s"] = (seconds("training.fold_fit"), "s")
        out["training.refit_s"] = (seconds("training.refit"), "s")
        out["training.epochs_run"] = (count("training.epochs_run"), "count")
        for name in ("synth_generate", "save_epochs", "load_epochs", "standardize"):
            out[f"data.{name}_ms"] = (ms(f"data.{name}"), "ms")
        for name in ("build_atlas", "export_atlas"):
            out[f"explain.{name}_ms"] = (ms(f"explain.{name}"), "ms")
        return out

    def write_spans(self, path):
        """One JSON object per line: name, start/end (ns from the first span),
        parent (line index, -1 for a root) and run id."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start - origin,
                                    "end_ns": end - origin, "parent": parent,
                                    "run": run}) + "\n")


def _tape_size(root):
    """Number of recorded nodes (those holding a backward closure) reachable
    from ``root``."""
    seen = {id(root)}
    stack = [root]
    nodes = 0
    while stack:
        node = stack.pop()
        if node._backward_fn is not None:
            nodes += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _exact(value):
    """An int when a count averaged over identical jobs is whole."""
    return int(value) if float(value).is_integer() else value
