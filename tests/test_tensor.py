"""Autodiff core: graph recording, reverse pass, primitive gradients."""
import numpy as np
import pytest

from eegitnet import tensor as T
from eegitnet.tensor import Tensor, no_grad

from oracles import check_gradients, to_scalar


def test_tensor_defaults_to_float32():
    t = Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    assert t.shape == (2, 2)
    assert not t.requires_grad


def test_float64_is_preserved():
    t = Tensor(np.zeros(3, dtype=np.float64))
    assert t.dtype == np.float64


def test_simple_chain_gradient():
    x = Tensor(3.0, requires_grad=True, dtype=np.float64)
    y = Tensor(4.0, requires_grad=True, dtype=np.float64)
    z = x * y + x
    z.backward()
    assert z.item() == 15.0
    assert x.grad == pytest.approx(5.0)  # y + 1
    assert y.grad == pytest.approx(3.0)  # x


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    sq = x * x
    z = sq + sq
    z.backward()
    assert x.grad == pytest.approx(8.0)  # d/dx 2x^2 = 4x


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_twice_is_an_error():
    x = Tensor(1.0, requires_grad=True)
    z = x * x
    z.backward()
    with pytest.raises(RuntimeError):
        z.backward()


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(4), requires_grad=True)
    with no_grad():
        y = to_scalar(x * 3.0)
    assert not y.requires_grad
    y.backward()  # walks an empty tape
    assert x.grad is None


def test_constant_leaf_gets_no_grad():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    c = Tensor(np.full(3, 2.0), dtype=np.float64)
    to_scalar(x * c, 1.0).backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


def test_broadcast_add_unbroadcasts_gradient(rng):
    a = rng.standard_normal((3, 1))
    b = rng.standard_normal((1, 4))
    check_gradients(lambda ts: to_scalar(ts[0] + ts[1]), [a, b])
    # and the shapes really reduce
    ta = Tensor(a, requires_grad=True, dtype=np.float64)
    tb = Tensor(b, requires_grad=True, dtype=np.float64)
    to_scalar(ta + tb, 1.0).backward()
    assert ta.grad.shape == (3, 1)
    assert tb.grad.shape == (1, 4)
    np.testing.assert_allclose(ta.grad, np.full((3, 1), 4.0))
    np.testing.assert_allclose(tb.grad, np.full((1, 4), 3.0))


def test_scalar_broadcast_mul(rng):
    a = rng.standard_normal((2, 3))
    s = np.array(1.7)
    check_gradients(lambda ts: to_scalar(ts[0] * ts[1]), [a, s])


def test_division_by_tensor_is_rejected():
    x = Tensor(np.ones(3))
    with pytest.raises(TypeError):
        x / Tensor(np.ones(3))


def test_reshape_round_trips_gradient(rng):
    a = rng.standard_normal((2, 6))
    check_gradients(lambda ts: to_scalar(ts[0].reshape(3, 4)), [a])


def test_flip_time_reverses_last_axis(rng):
    a = rng.standard_normal((2, 3, 5))
    flipped = T.flip_time(Tensor(a, dtype=np.float64))
    np.testing.assert_array_equal(flipped.data, a[..., ::-1])
    check_gradients(lambda ts: to_scalar(T.flip_time(ts[0]), np.arange(5.0)), [a])


def test_concat_channels_routes_gradients(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 5, 4))
    cat = T.concat_channels([Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)])
    assert cat.shape == (2, 8, 4)
    np.testing.assert_array_equal(cat.data[:, :3], a)
    np.testing.assert_array_equal(cat.data[:, 3:], b)
    weights = np.arange(2 * 8 * 4, dtype=np.float64).reshape(2, 8, 4)
    check_gradients(lambda ts: to_scalar(T.concat_channels(ts), weights), [a, b])


def test_deep_chain_does_not_recurse():
    # the reverse pass is iterative; a thousand-node chain must not blow the
    # Python recursion limit
    x = Tensor(1.0, requires_grad=True, dtype=np.float64)
    y = x
    for _ in range(1000):
        y = y + x
    y.backward()
    assert x.grad == pytest.approx(1001.0)
