"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array together with the bookkeeping needed
for a single reverse pass: the tensors it was computed from and a closure
that routes the output gradient to them.  Recording happens implicitly
whenever an operation touches a tensor with ``requires_grad`` set, so the
forward pass *is* the tape.  Training code runs in float32; the gradient
check tests build float64 graphs.  A tensor's value is an array, or a
:class:`DeferredConv` that builds its array only when read.  A gradient is
an array, or a rank-1 :class:`FactoredGrad` that only a tensor with a
deferred value keeps.  Besides the plumbing the engine holds only the two
ops the model records outside ``ops``: the same-shape :func:`add` of the
residual join and :func:`concat_channels`.

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


def _as_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in _REAL_DTYPES:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """n-dimensional array of real32/real64 values plus autodiff bookkeeping.

    Attributes
    ----------
    data : numpy.ndarray or DeferredConv
        Row-major values, or a convolution's factors that build them when
        read (:class:`DeferredConv`).
    grad : numpy.ndarray, FactoredGrad or None
        Accumulated gradient, same shape as ``data``; allocated lazily.  A
        tensor whose value is a :class:`DeferredConv` may hold a
        :class:`FactoredGrad` instead (see :func:`accumulate`).
    requires_grad : bool
        Leaf parameters set this; op outputs inherit it from their inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = data if isinstance(data, DeferredConv) else _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._backward_done = False

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
            if fn is not None and node.grad is not None:
                fn(node.grad)
            if fn is not None:
                # free graph memory; leaves keep their (empty) bookkeeping
                node._parents = ()
                node._backward_fn = None
        self._backward_done = True


def from_op(data, parents, backward_fn):
    """Wrap an op result, recording the graph edge when grads are live."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


class FactoredGrad:
    """The (N, C, H, T) gradient ``s[c, h] * g[n, c, t]``, kept as its two
    factors: ``s`` is (C, H) and ``g`` is (N, C, T).  It is what an
    electrode-spanning depthwise filter ``s`` sends back to its input."""

    __slots__ = ("s", "g")

    def __init__(self, s, g):
        self.s = s
        self.g = g

    def dense(self):
        """The gradient as one new (N, C, H, T) array."""
        return self.s[None, :, :, None] * self.g[:, :, None, :]


class DeferredConv(np.lib.mixins.NDArrayOperatorsMixin):
    """The (N, F, H, L) output of a dense temporal convolution of one input
    filter, kept as its factors: the (N, 1, H, T) input ``x``, the (F, 1, K)
    correlation-order ``taps`` with their ``dilation``, the ``left`` zeros
    read before ``x`` and the output ``length`` L.

    It answers ``shape``, ``ndim``, ``size``, ``nbytes``, ``dtype``,
    ``itemsize`` and ``len`` without building anything.  :meth:`dense`
    builds the array, once.  numpy reads it through ``__array__`` and the
    arithmetic operators; indexing and every other public attribute read it
    too.  A depthwise filter over the electrodes needs only :meth:`mixed`,
    and its backward sends the tensor holding this value a
    :class:`FactoredGrad`.
    """

    __slots__ = ("x", "taps", "left", "length", "dilation", "shape", "dtype", "size",
                 "itemsize", "nbytes", "_dense", "_mix", "_rows")
    ndim = 4

    def __init__(self, x, taps, left, length, dilation):
        self.x, self.taps, self.left, self.length, self.dilation = (x, taps, left, length,
                                                                    dilation)
        self.shape = (x.shape[0], taps.shape[0], x.shape[2], length)
        self.dtype = np.result_type(x, taps)
        self.size = int(np.prod(self.shape))
        self.itemsize = self.dtype.itemsize
        self.nbytes = self.size * self.itemsize
        self._dense = self._mix = self._rows = None

    def dense(self):
        """The output as one (N, F, H, L) array, built on the first call."""
        if self._dense is None:
            from .ops import band_conv, band_matrix   # ops imports this module
            self._dense = band_conv(self.x, band_matrix(self.taps, self.dilation), self.left,
                                    self.length)
        return self._dense

    def __array__(self, dtype=None, copy=None):
        a = self.dense()
        return a.astype(a.dtype if dtype is None else dtype, copy=bool(copy))

    def __getitem__(self, key):
        return self.dense()[key]

    def __len__(self):
        return self.shape[0]

    def __getattr__(self, name):
        # numpy's __array_*__ probes, copy and pickle find nothing here
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.dense(), name)

    def mixed(self, s):
        """The (N, F, T) rows ``Σ_h s[f, h] x[:, 0, h]`` for (F, H) electrode
        weights ``s``; the rows of the last ``s`` given are kept."""
        if self._mix is not s:
            self._mix, self._rows = s, np.matmul(s, self.x[:, 0])
        return self._rows


def accumulate(tensor, grad, fresh=False):
    """Add ``grad`` into ``tensor.grad`` (no-op for constants).

    ``fresh`` marks an array the caller has just built and holds nowhere
    else: on first touch the tensor takes it over as its gradient, without a
    copy, when it owns its memory, is writeable and C-contiguous, and matches
    the tensor's dtype and shape.  Any other first gradient is copied.

    A :class:`FactoredGrad` stays factored only as the first gradient of a
    tensor whose value is a :class:`DeferredConv`, whose op reads it
    factored; anywhere else, and as soon as a second gradient arrives, it is
    made :meth:`~FactoredGrad.dense`.
    """
    if not tensor.requires_grad:
        return
    if isinstance(grad, FactoredGrad):
        if tensor.grad is None and isinstance(tensor.data, DeferredConv):
            tensor.grad = grad
            return
        grad, fresh = grad.dense(), True
    if isinstance(tensor.grad, FactoredGrad):
        tensor.grad = tensor.grad.dense()
    if tensor.grad is None:
        flags = grad.flags
        if (fresh and flags.owndata and flags.writeable and flags.c_contiguous
                and grad.dtype == tensor.dtype and grad.shape == tensor.shape):
            tensor.grad = grad
            return
        # first touch: ``grad + 0`` in a fresh array, never ``grad`` itself;
        # adding zero turns -0.0 into 0.0, as adding into zeros did
        tensor.grad = np.add(grad, 0, out=np.empty(tensor.shape, tensor.dtype),
                             casting="same_kind")
    else:
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

