"""Adam against its plain formula, bit for bit."""
import numpy as np
import pytest

from eegitnet.optim import Adam
from eegitnet.tensor import Tensor


def _plain_adam_steps(params, grads, lr, b1=0.9, b2=0.999, eps=1e-7):
    """The update as a formula of whole arrays, one new array per operation."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, step_grads in enumerate(grads, start=1):
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for i, g in enumerate(step_grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            mhat = m[i] / bias1
            vhat = v[i] / bias2
            params[i] = params[i] - (lr * mhat / (np.sqrt(vhat) + eps)).astype(params[i].dtype)
    return params, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_matches_the_plain_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(21)
    shapes = [(8, 1, 1, 16), (8,), (14, 14, 1, 1), (42, 4)]
    start = [rng.standard_normal(s).astype(dtype) for s in shapes]
    grads = [[(rng.standard_normal(s) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
              for s in shapes] for _ in range(20)]
    params = [Tensor(p.copy(), requires_grad=True) for p in start]
    opt = Adam(params, lr=1e-3)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad = g.copy()
        opt.step()
        opt.zero_grad()
    want, m, v = _plain_adam_steps(start, grads, lr=1e-3)
    for i, p in enumerate(params):
        assert p.data.dtype == dtype
        np.testing.assert_array_equal(p.data, want[i])
        np.testing.assert_array_equal(opt.m[i], m[i])
        np.testing.assert_array_equal(opt.v[i], v[i])


def test_adam_skips_parameters_without_a_gradient():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    q.grad = np.ones(3, dtype=np.float32)
    opt.step()
    np.testing.assert_array_equal(p.data, 1.0)
    assert np.all(q.data < 1.0)
