"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array together with the bookkeeping needed
for a single reverse pass: the tensors it was computed from and a closure
that routes the output gradient to them.  Recording happens implicitly
whenever an operation touches a tensor with ``requires_grad`` set, so the
forward pass *is* the tape.  Training code runs in float32; the gradient
check tests build float64 graphs.  Besides the plumbing the engine holds
only the two ops the model records outside ``ops``: the same-shape
:func:`add` of the residual join and :func:`concat_channels`.

The engine is single-threaded by design: one graph is walked at a time and
tensor data is never mutated once recorded (optimizers write only into leaf
parameters between passes).
"""
from __future__ import annotations

import contextlib

import numpy as np

_REAL_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """n-dimensional array of real32/real64 values plus autodiff bookkeeping.

    Attributes
    ----------
    data : numpy.ndarray
        Row-major values; an op's result as the op made it (:func:`from_op`).
    grad : numpy.ndarray or None
        Accumulated gradient, same shape as ``data``; allocated lazily.
    requires_grad : bool
        Leaf parameters set this; op outputs inherit it from their inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        data = np.asarray(data, dtype=dtype)
        self.data = data if data.dtype in _REAL_DTYPES else data.astype(np.float32)
        self.grad, self.requires_grad = None, bool(requires_grad)
        self._parents, self._backward_fn, self._backward_done = (), None, False

    # ------------------------------------------------------------------
    # introspection
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # ------------------------------------------------------------------
    # gradient plumbing
    def backward(self):
        """Reverse pass from a scalar, accumulating into ``.grad`` buffers.

        Each recorded graph may be walked once; a second call on the same
        output is rejected.  Intermediate nodes release their graph
        references as they are consumed, and the walk drops its own
        reference to each node once its closure has run.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar (got shape %r)" % (self.shape,))
        if self._backward_done:
            raise RuntimeError("backward already called on this tape")

        # Iterative topological sort; graphs here are deep (dozens of layers
        # per training step) so recursion is avoided.
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        # pop, so that a walked node is freed (data, gradient and closure)
        # as soon as nothing but the tape held it
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            fn = node._backward_fn
            if fn is not None:
                if node.grad is not None:
                    fn(node.grad)
                # free graph memory; leaves keep their (empty) bookkeeping
                node._parents, node._backward_fn = (), None
        self._backward_done = True


def from_op(data, parents, backward_fn):
    """Wrap an op result as the op made it (not converted, so it may be any
    value its readers can read), recording the graph edge when grads are live."""
    out = Tensor.__new__(Tensor)
    live = _grad_enabled and any(p.requires_grad for p in parents)
    out.data, out.grad, out.requires_grad, out._backward_done = data, None, live, False
    out._parents, out._backward_fn = (tuple(parents), backward_fn) if live else ((), None)
    return out


def accumulate(tensor, grad, fresh=False):
    """Add ``grad`` into ``tensor.grad`` (no-op for constants).

    ``fresh`` marks a gradient the caller has just built and holds nowhere
    else: on first touch the tensor takes it over as its gradient, without a
    copy, when it is not an array (an op's own form of a gradient, which
    that op reads back), or when it is an array that owns its memory, is
    writeable and C-contiguous, and matches the tensor's dtype and shape.
    Any other first gradient is copied into a new array.  A gradient that
    is not an array is made one (``np.asarray``) before a second is added.
    """
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        if fresh and (not isinstance(grad, np.ndarray) or (
                grad.flags.owndata and grad.flags.writeable and grad.flags.c_contiguous
                and grad.dtype == tensor.dtype and grad.shape == tensor.shape)):
            tensor.grad = grad
            return
        # first touch: ``grad + 0`` in a fresh array, never ``grad`` itself;
        # adding zero turns -0.0 into 0.0, as adding into zeros did
        tensor.grad = np.add(grad, 0, out=np.empty(tensor.shape, tensor.dtype),
                             casting="same_kind")
    else:
        if not isinstance(tensor.grad, np.ndarray):
            tensor.grad = np.asarray(tensor.grad)
        np.add(tensor.grad, grad, out=tensor.grad, casting="same_kind")


# ----------------------------------------------------------------------
# the two ops the model records outside ``ops``

def add(a, b):
    """Elementwise sum of two tensors of one shape (the residual join)."""
    if a.shape != b.shape:
        raise ValueError(f"add needs equal shapes, got {tuple(a.shape)} and {tuple(b.shape)}")
    out = a.data + b.data

    def backward(g):
        accumulate(a, g)
        accumulate(b, g)

    return from_op(out, (a, b), backward)


def concat_channels(tensors):
    """Concatenate along axis 1 (the filter/channel axis)."""
    out = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            accumulate(t, g[:, start:start + size])
            start += size

    return from_op(out, tuple(tensors), backward)

