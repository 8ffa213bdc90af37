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
    # over five steps: `never` has no gradient at all, `late` gets its first
    # at step 3, `mid` loses its gradient at step 4 and `always` has one
    # every step.  Each parameter with a gradient follows the plain formula
    # from its own moments, with the optimizer's step count in the bias
    # corrections; one without keeps its data and moments
    rng = np.random.default_rng(5)
    shapes = {"always": (4, 3), "never": (5,), "late": (2, 1, 3), "mid": (7,)}
    start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    params = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
    names = list(params)
    opt = Adam(params.values(), lr=1e-2)
    live_at = {"always": range(1, 6), "never": (), "late": range(3, 6), "mid": range(1, 4)}
    want = {name: (a.copy(), np.zeros_like(a), np.zeros_like(a)) for name, a in start.items()}
    for t in range(1, 6):
        for name, p in params.items():
            if t not in live_at[name]:
                continue
            g = rng.standard_normal(p.shape)
            p.grad = g.copy()
            data, m, v = want[name]
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            data = data - 1e-2 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-7)
            want[name] = data, m, v
        opt.step()
        opt.zero_grad()
        for i, name in enumerate(names):
            data, m, v = want[name]
            np.testing.assert_array_equal(params[name].data, data, err_msg=f"{name} at step {t}")
            np.testing.assert_array_equal(opt.m[i], m)
            np.testing.assert_array_equal(opt.v[i], v)
    np.testing.assert_array_equal(params["never"].data, start["never"])
    assert not opt.m[1].any() and not opt.v[1].any()


def test_adam_refuses_parameters_of_mixed_dtypes():
    params = [Tensor(np.ones(3, dtype=np.float32), requires_grad=True),
              Tensor(np.ones(2), requires_grad=True)]
    with pytest.raises(ValueError, match="one dtype"):
        Adam(params)
