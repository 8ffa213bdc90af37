"""Adam with bias correction, matching the common Keras defaults."""
from __future__ import annotations

import numpy as np

BETA1 = 0.9     # decay of the first-moment average
BETA2 = 0.999   # decay of the second-moment average
EPS = 1e-7      # added to the root of the second moment


class Adam:
    """First/second-moment adaptive steps over a fixed parameter list.

    Parameters are :class:`~eegitnet.tensor.Tensor` objects; ``step`` reads
    each ``.grad`` and updates ``.data`` in place, then the caller zeroes the
    grads.  Moment buffers live here, keyed by list position, so a fresh
    optimizer means a fresh moment history.
    """

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            # m = BETA1 m + (1 - BETA1) g and v = BETA2 v + (1 - BETA2) g g,
            # p -= lr mhat / (sqrt(vhat) + EPS): the same operations in the
            # same order as the plain formula, written into place
            np.multiply(m, BETA1, out=m)
            m += (1.0 - BETA1) * g
            np.multiply(v, BETA2, out=v)
            gg = np.multiply(g, g)
            gg *= 1.0 - BETA2
            v += gg
            step = np.divide(m, bias1)
            np.multiply(step, self.lr, out=step)
            denom = np.divide(v, bias2, out=gg)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p.data -= step

    def zero_grad(self):
        for p in self.params:
            p.grad = None
