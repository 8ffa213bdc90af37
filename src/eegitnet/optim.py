"""Adam with bias correction, matching the common Keras defaults."""
from __future__ import annotations

from itertools import groupby

import numpy as np

BETA1 = 0.9     # decay of the first-moment average
BETA2 = 0.999   # decay of the second-moment average
EPS = 1e-7      # added to the root of the second moment


class Adam:
    """First/second-moment adaptive steps over a fixed parameter list.

    Parameters are :class:`~eegitnet.tensor.Tensor` objects of one dtype;
    ``step`` reads each ``.grad`` and updates ``.data`` in place, then the
    caller zeroes the grads.  A parameter with no ``.grad`` is skipped.
    Moment buffers live here, keyed by list position, so a fresh optimizer
    means a fresh moment history; ``m[i]`` and ``v[i]`` are views into one
    flat array each.  ``step`` gathers the gradients into a flat array too,
    so each elementwise operation runs once per run of parameters with one.
    """

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(
                f"parameters of one dtype required, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float64
        self._ends = np.cumsum([0] + [p.data.size for p in self.params])
        self._m, self._v, self._g, self._update = np.zeros((4, self._ends[-1]), dtype)
        self.m, self.v, self._updates = (
            [flat[a:b].reshape(p.shape) for p, a, b in zip(self.params, self._ends, self._ends[1:])]
            for flat in (self._m, self._v, self._update))

    def step(self):
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        has_grad = [p.grad is not None for p in self.params]
        for live, run in groupby(range(len(self.params)), has_grad.__getitem__):
            if not live:
                continue
            run = list(run)
            a, b = self._ends[run[0]], self._ends[run[-1] + 1]
            g, m, v, step = self._g[a:b], self._m[a:b], self._v[a:b], self._update[a:b]
            np.concatenate([self.params[i].grad for i in run], axis=None, out=g)
            # m = BETA1 m + (1 - BETA1) g and v = BETA2 v + (1 - BETA2) g g,
            # p -= lr mhat / (sqrt(vhat) + EPS): the same operations in the
            # same order as the plain formula, written into place
            np.multiply(m, BETA1, out=m)
            m += (1.0 - BETA1) * g
            np.multiply(v, BETA2, out=v)
            gg = np.multiply(g, g)
            gg *= 1.0 - BETA2
            v += gg
            np.divide(m, bias1, out=step)
            np.multiply(step, self.lr, out=step)
            denom = np.divide(v, bias2, out=gg)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            for i in run:
                self.params[i].data -= self._updates[i]

    def zero_grad(self):
        for p in self.params:
            p.grad = None
