"""Autodiff core: graph recording, reverse pass, the engine's two ops."""
import ast
import inspect
import sys
import weakref

import numpy as np
import pytest

from eegitnet import tensor as T
from eegitnet.ops import DeferredConv, FactoredGrad
from eegitnet.tensor import Tensor, accumulate, from_op, no_grad

from oracles import check_gradients, to_scalar


def test_tensor_defaults_to_float32():
    t = Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    assert t.shape == (2, 2)
    assert not t.requires_grad


def test_float64_is_preserved():
    t = Tensor(np.zeros(3, dtype=np.float64))
    assert t.dtype == np.float64


def _scaled(t, c):
    """``c * t`` for a constant ``c``, as an op recorded through ``from_op``."""
    def backward(g):
        accumulate(t, c * g)

    return from_op(c * t.data, (t,), backward)


def test_simple_chain_gradient():
    x = Tensor(3.0, requires_grad=True, dtype=np.float64)
    y = Tensor(4.0, requires_grad=True, dtype=np.float64)
    z = T.add(_scaled(T.add(x, y), 2.0), x)
    z.backward()
    assert z.item() == 17.0
    assert x.grad == pytest.approx(3.0)  # 2 + 1
    assert y.grad == pytest.approx(2.0)


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(2.0, requires_grad=True, dtype=np.float64)
    twice = T.add(x, x)
    z = T.add(_scaled(twice, 3.0), twice)
    z.backward()
    assert z.item() == 16.0
    assert x.grad == pytest.approx(8.0)  # d/dx (3 * 2x + 2x)


def test_walked_nodes_are_freed_before_earlier_ops_run():
    # once b's backward has run, nothing but the walk held b: its data must
    # be gone by the time the op that made a runs its backward
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    b_alive = []

    def a_backward(g):
        b_alive.append(b_data() is not None)
        accumulate(x, 2.0 * g)

    a = from_op(x.data * 2.0, (x,), a_backward)
    b = _scaled(a, 3.0)
    b_data = weakref.ref(b.data)
    loss = to_scalar(b, 1.0)
    del a, b
    loss.backward()
    assert b_alive == [False]
    np.testing.assert_allclose(x.grad, 6.0)


def test_first_gradient_is_a_fresh_array():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
    g = np.array([-0.0, 1.0, 2.0])
    accumulate(x, g)
    assert x.grad is not g and not np.shares_memory(x.grad, g)
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad.view(np.uint32), np.float32([0.0, 1.0, 2.0]).view(np.uint32))
    accumulate(x, g)
    np.testing.assert_array_equal(g, [-0.0, 1.0, 2.0])
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 4.0])


def test_a_fresh_gradient_is_adopted_without_a_copy():
    x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float32)
    g = np.full((2, 3), -0.0, dtype=np.float32)
    accumulate(x, g, fresh=True)
    assert x.grad is g
    accumulate(x, g, fresh=True)   # later touches add in place
    assert x.grad is g


@pytest.mark.parametrize("make", [
    lambda: np.ones((2, 6), dtype=np.float32)[:, :3],                  # a view
    lambda: np.ones((4, 3), dtype=np.float32)[1:3],                    # a contiguous view
    lambda: np.broadcast_to(np.ones(3, dtype=np.float32), (2, 3)),     # a broadcast
    lambda: np.ones((2, 3), dtype=np.float64),                         # another dtype
    lambda: np.ones((3, 2), dtype=np.float32).T,                       # not C-contiguous
])
def test_a_fresh_gradient_that_cannot_be_adopted_is_copied(make):
    x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float32)
    g = make()
    accumulate(x, g, fresh=True)
    assert not np.shares_memory(x.grad, g)
    assert x.grad.dtype == np.float32 and x.grad.shape == (2, 3)
    np.testing.assert_array_equal(x.grad, 1.0)


def _factored(rng):
    """A (C=2, H=3) by (N=4, C=2, T=5) factored gradient and its dense form."""
    grad = FactoredGrad(rng.standard_normal((2, 3)), rng.standard_normal((4, 2, 5)))
    return grad, np.einsum("ch,nct->ncht", grad.s, grad.g)


def _node(marked):
    """A recorded (4, 2, 3, 5) node whose value is a deferred convolution
    of a (4, 1, 3, 5) input (marked) or an array (unmarked)."""
    leaf = Tensor(np.zeros((4, 1, 3, 5)), requires_grad=True, dtype=np.float64)
    value = (DeferredConv(leaf.data, np.zeros((2, 1, 1)), 0, 5, 1) if marked
             else np.zeros((4, 2, 3, 5)))
    return from_op(value, (leaf,), lambda g: None)


def test_a_marked_node_keeps_its_first_gradient_factored(rng):
    # the op that makes a factored gradient sends it fresh, and the engine
    # takes a fresh gradient that is not an array as it is
    grad, _ = _factored(rng)
    node = _node(True)
    accumulate(node, grad, fresh=True)
    assert node.grad is grad


@pytest.mark.parametrize("target", ["leaf", "unmarked-node", "marked-node"])
def test_a_factored_gradient_elsewhere_is_made_dense(rng, target):
    # a factored gradient not sent fresh is copied into an array, whatever
    # the tensor's value: the engine does not look at it
    grad, want = _factored(rng)
    x = (Tensor(np.zeros((4, 2, 3, 5)), requires_grad=True, dtype=np.float64)
         if target == "leaf" else _node(target == "marked-node"))
    accumulate(x, grad)
    assert isinstance(x.grad, np.ndarray) and x.grad.shape == (4, 2, 3, 5)
    np.testing.assert_array_equal(x.grad, want)


@pytest.mark.parametrize("order", ["factored-then-dense", "dense-then-factored",
                                   "factored-twice"])
def test_a_second_gradient_makes_a_factored_one_dense(rng, order):
    # a deferred node keeps only its first gradient factored: a second one,
    # dense or factored, turns the sum into one array
    grad, want = _factored(rng)
    dense = rng.standard_normal((4, 2, 3, 5))
    first, second = {"factored-then-dense": (grad, dense), "dense-then-factored": (dense, grad),
                     "factored-twice": (grad, grad)}[order]
    node = _node(True)
    accumulate(node, first, fresh=first is grad)
    accumulate(node, second)
    assert isinstance(node.grad, np.ndarray)
    expected = 2 * want if order == "factored-twice" else want + dense
    np.testing.assert_array_equal(node.grad, expected)


def _deferred_node(rng, monkeypatch):
    """A recorded (2, 3, 4, 6) node whose value is a deferred convolution of
    a (2, 1, 4, 8) input with three 3-tap kernels, "valid", which the test
    may not build."""
    leaf = Tensor(rng.standard_normal((2, 1, 4, 8)), requires_grad=True, dtype=np.float64)
    value = DeferredConv(leaf.data, rng.standard_normal((3, 1, 3)), 0, 6, 1)
    node = from_op(value, (leaf,), lambda g: None)

    def build(self):
        raise AssertionError("the deferred value was built")

    monkeypatch.setattr(DeferredConv, "dense", build)
    return node


@pytest.mark.parametrize("fresh", [False, True])
def test_a_dense_gradient_to_a_deferred_node_accumulates(rng, monkeypatch, fresh):
    # the first dense gradient is copied (or adopted, when fresh) into an
    # array of the node's shape and dtype, and a second adds into it; the
    # node's value is never built
    node = _deferred_node(rng, monkeypatch)
    assert node.shape == (2, 3, 4, 6)
    first, second = rng.standard_normal((2, 2, 3, 4, 6))
    accumulate(node, first.copy() if fresh else first[...], fresh=fresh)
    assert isinstance(node.grad, np.ndarray) and node.grad.dtype == np.float64
    assert node.grad.shape == (2, 3, 4, 6) and not np.shares_memory(node.grad, first)
    np.testing.assert_array_equal(node.grad, first)
    accumulate(node, second)
    np.testing.assert_array_equal(node.grad, first + second)


def test_the_engine_holds_no_op_type():
    # the deferred convolution output and its factored gradient belong to
    # ops; the engine imports only the standard library and numpy
    assert not {"DeferredConv", "FactoredGrad"} & set(vars(T))
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(T))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no import found"
    assert all(name.split(".")[0] in sys.stdlib_module_names | {"numpy"}
               for name in imported), imported


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        T.add(x, x).backward()


def test_backward_twice_is_an_error():
    x = Tensor(1.0, requires_grad=True)
    z = T.add(x, x)
    z.backward()
    with pytest.raises(RuntimeError):
        z.backward()


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(4), requires_grad=True)
    with no_grad():
        y = to_scalar(T.add(x, x))
    assert not y.requires_grad
    y.backward()  # walks an empty tape
    assert x.grad is None


def test_constant_leaf_gets_no_grad():
    x = Tensor(np.ones((1, 3)), requires_grad=True, dtype=np.float64)
    c = Tensor(np.full((1, 3), 2.0), dtype=np.float64)
    to_scalar(T.concat_channels([T.add(x, c), c]), np.arange(6.0).reshape(1, 6)).backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, [[0.0, 1.0, 2.0]])


def test_division_by_tensor_is_rejected():
    x = Tensor(np.ones(3))
    with pytest.raises(TypeError):
        x / Tensor(np.ones(3))


def test_concat_channels_routes_gradients(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 5, 4))
    cat = T.concat_channels([Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)])
    assert cat.shape == (2, 8, 4)
    np.testing.assert_array_equal(cat.data[:, :3], a)
    np.testing.assert_array_equal(cat.data[:, 3:], b)
    weights = np.arange(2 * 8 * 4, dtype=np.float64).reshape(2, 8, 4)
    check_gradients(lambda ts: to_scalar(T.concat_channels(ts), weights), [a, b])


def test_add_refuses_unequal_shapes():
    # the engine does not broadcast: the residual join adds equal shapes
    with pytest.raises(ValueError, match="equal shapes"):
        T.add(Tensor(np.ones((3, 1))), Tensor(np.ones((1, 4))))


def test_deep_chain_does_not_recurse():
    # the reverse pass is iterative; a thousand-node chain must not blow the
    # Python recursion limit
    x = Tensor(1.0, requires_grad=True, dtype=np.float64)
    y = x
    for _ in range(1000):
        y = T.add(y, x)
    y.backward()
    assert x.grad == pytest.approx(1001.0)
