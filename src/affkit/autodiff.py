"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tensor that requires a gradient carries a tape node: its creation
index, its `grad_fn`, its parents' nodes and, for a leaf, the leaf Tensor
that receives `.grad`. A node's consumers are all created after it, so
`backward`, which pops nodes from a max-heap on the index, replays each
node after all of its consumers. Each `grad_fn` closes over only the
arrays its adjoint reads, so an intermediate that no backward reads is
freed as soon as its caller drops it. Everything is float64 so that
analytic gradients can be checked against central finite differences.
"""

import heapq
import itertools

import numpy as np

from . import kernels
from .errors import ContractError, DimensionError

_counter = itertools.count()
LAYER_NORM_EPS = 1e-5


class _Node:
    """Tape entry of a requires_grad Tensor; `leaf` is None for op outputs."""

    __slots__ = ("idx", "grad_fn", "parents", "leaf")

    def __init__(self, idx, grad_fn, parents, leaf):
        self.idx = idx
        self.grad_fn = grad_fn
        self.parents = parents  # one node per op input, None off the tape
        self.leaf = leaf


class Tensor:
    """A float64 array with an optional gradient buffer and tape node."""

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, requires_grad=False, _parents=(), _grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        idx = next(_counter)
        if _grad_fn is not None:
            self._node = _Node(idx, _grad_fn, _parents, None)
        elif requires_grad:
            self._node = _Node(idx, None, (), self)
        else:
            self._node = None

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (adjoint of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data, parents, grad_fn):
    """The output Tensor of an op, with a tape node if any parent has one."""
    nodes = tuple(p._node for p in parents)
    if all(n is None for n in nodes):
        return Tensor(data)
    return Tensor(data, _parents=nodes, _grad_fn=grad_fn)


# ---------------------------------------------------------------------------
# elementwise ops


def _binary(ufunc, a, b):
    """`a` and `b` as Tensors, and `ufunc` of their arrays; raises a
    DimensionError naming both shapes if they do not broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        return a, b, ufunc(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{ufunc.__name__}: shapes {a.shape} and "
                             f"{b.shape} do not broadcast")


def add(a, b):
    a, b, out = _binary(np.add, a, b)
    sa, sb = a.shape, b.shape

    def grad_fn(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _make(out, (a, b), grad_fn)


def mul(a, b):
    a, b, out = _binary(np.multiply, a, b)
    x, y = a.data, b.data

    def grad_fn(g):
        return (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape))

    return _make(out, (a, b), grad_fn)


def div(a, b):
    a, b, out = _binary(np.divide, a, b)
    x, y = a.data, b.data

    def grad_fn(g):
        ga = _unbroadcast(g / y, x.shape)
        gb = _unbroadcast(-g * x / (y * y), y.shape)
        return (ga, gb)

    return _make(out, (a, b), grad_fn)


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _make(a.data * c, (a,), grad_fn)


def sigmoid(a):
    a = _as_tensor(a)
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), grad_fn)


def gelu(a):
    """Exact (erf-based) GELU; smooth, so finite differences stay honest."""
    a = _as_tensor(a)
    x = a.data
    erf1 = np.empty(x.shape)
    out = kernels.gelu_forward(x, erf1)

    def grad_fn(g):
        return (kernels.gelu_grad(g, x, erf1),)

    return _make(out, (a,), grad_fn)


def log(a):
    a = _as_tensor(a)
    x = a.data
    out = np.log(x)

    def grad_fn(g):
        return (g / x,)

    return _make(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")
    x, y = a.data, b.data
    out = np.matmul(x, y)

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), x.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), y.shape)
        return (ga, gb)

    return _make(out, (a, b), grad_fn)


def reshape(a, shape):
    a = _as_tensor(a)
    orig = a.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _make(a.data.reshape(shape), (a,), grad_fn)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), grad_fn)


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along `axis`."""
    a = _as_tensor(a)
    shape = a.shape
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def grad_fn(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _make(a.data[idx], (a,), grad_fn)


def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    shape = a.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, (a,), grad_fn)


def mean(a, axis):
    a = _as_tensor(a)
    shape = a.shape
    n = shape[axis]
    out = a.data.mean(axis=axis)

    def grad_fn(g):
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, shape).copy(),)

    return _make(out, (a,), grad_fn)


def attention(q, k, v, n_heads, bias=None):
    """Multi-head attention softmax(q_h k_h^T + bias) v_h, heads merged back.

    q: (b, n, d); k, v: (b, m, d); bias: (b, m), added to the logits of
    every head and query, or None. The 1/sqrt(d / n_heads) scale is the
    caller's to fold into q. Returns (b, n, d). Besides the q, k and v
    arrays, only the (b, h, n, m) softmax output is kept for the backward
    pass.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 3 or k.data.ndim != 3:
        raise DimensionError(f"attention: q {q.shape} and k {k.shape} "
                             "must be (batch, tokens, d)")
    (b, n, d), m = q.shape, k.shape[1]
    if k.shape != (b, m, d) or v.shape != k.shape or d % n_heads:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape} and "
                             f"v {v.shape} with {n_heads} heads")
    parents = (q, k, v)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (b, m):
            raise DimensionError(
                f"attention: bias {bias.shape} is not ({b}, {m})")
        parents += (bias,)
    h, dh = n_heads, d // n_heads
    qd, kd, vd = q.data, k.data, v.data
    has_bias = bias is not None

    def heads(x, i):
        """(h, tokens, dh) view of element i of a (b, tokens, d) array."""
        return x[i].reshape(-1, h, dh).transpose(1, 0, 2)

    def merge(x):
        """(h, tokens, dh) -> (tokens, d)."""
        return x.transpose(1, 0, 2).reshape(-1, d)

    # One batch element at a time keeps each (h, n, m) block in cache
    # from the logits through the softmax to the product with v.
    probs = np.empty((b, h, n, m))
    out = np.empty((b, n, d))
    for i in range(b):
        p = np.matmul(heads(qd, i), heads(kd, i).transpose(0, 2, 1),
                      out=probs[i])
        if has_bias:
            p += bias.data[i]
        kernels.softmax_rows(p)
        out[i] = merge(np.matmul(p, heads(vd, i)))

    def grad_fn(g):
        dq = np.empty((b, n, d))
        dk, dv = np.empty((b, m, d)), np.empty((b, m, d))
        dbias = np.empty((b, m))
        for i in range(b):
            p, go = probs[i], heads(g, i)
            dv[i] = merge(np.matmul(p.transpose(0, 2, 1), go))
            dp = np.matmul(go, heads(vd, i).transpose(0, 2, 1))
            kernels.softmax_rows_grad(dp, p)
            if has_bias:
                dbias[i] = dp.sum(axis=(0, 1))
            dq[i] = merge(np.matmul(dp, heads(kd, i)))
            dk[i] = np.matmul(heads(qd, i).transpose(0, 2, 1),
                              dp).transpose(2, 0, 1).reshape(m, d)
        return (dq, dk, dv, dbias) if has_bias else (dq, dk, dv)

    return _make(out, parents, grad_fn)


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then apply the affine (gain, bias)."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    # np.var's own steps, with x - mean formed once and scaled in place.
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True)
                        + LAYER_NORM_EPS)
    xhat *= inv
    gd = gain.data
    out = xhat * gd + bias.data
    red = tuple(range(x.data.ndim - 1))

    def grad_fn(g):
        gg = g * gd
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return (gx, (g * xhat).sum(axis=red), g.sum(axis=red))

    return _make(out, (x, gain, bias), grad_fn)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss):
    """Accumulate gradients of a scalar `loss` into every requires_grad leaf.

    A node enters the max-heap on its first adjoint and leaves it after
    every consumer, created later, has added to that adjoint, so nodes
    run and adjoints are summed in strictly decreasing creation order.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        return

    adjoint = {root: np.ones_like(loss.data)}
    heap = [(-root.idx, root)]
    while heap:
        node = heapq.heappop(heap)[1]
        g = adjoint.pop(node)
        if node.grad_fn is None:
            # Only leaves keep a gradient, so every other adjoint is freed
            # once its grad_fn has run. Accumulation allocates, so the
            # adjoint can be aliased directly; nothing downstream mutates
            # gradient buffers in place.
            t = node.leaf
            t.grad = g if t.grad is None else t.grad + g
            continue
        for p, gp in zip(node.parents, node.grad_fn(g)):
            if p is None:
                continue
            if p in adjoint:
                adjoint[p] = adjoint[p] + gp
            else:
                adjoint[p] = gp
                heapq.heappush(heap, (-p.idx, p))


def zero_grads(params):
    for p in params.values():
        p.grad = None
