"""Minimal reverse-mode autodiff over float64 numpy arrays.

Tensors record the operation that produced them; `backward` replays the
tape in reverse creation order. Everything is float64 so that analytic
gradients can be checked against central finite differences.
"""

import itertools

import numpy as np

from . import kernels
from .errors import ContractError, DimensionError

_counter = itertools.count()
LAYER_NORM_EPS = 1e-5


class Tensor:
    """A float64 array with an optional gradient buffer and tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_idx")

    def __init__(self, data, requires_grad=False, _parents=(), _grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._grad_fn = _grad_fn
        self._idx = next(_counter)

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
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req,
                  _parents=parents if req else (),
                  _grad_fn=grad_fn if req else None)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _make(out, (a, b), grad_fn)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _make(out, (a, b), grad_fn)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), grad_fn)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data / b.data
    except ValueError:
        raise DimensionError(f"div: shapes {a.shape} and {b.shape} do not broadcast")

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
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
    erf1 = np.empty_like(a.data)
    out = kernels.gelu_forward(a.data, erf1)

    def grad_fn(g):
        return (kernels.gelu_grad(g, a.data, erf1),)

    return _make(out, (a,), grad_fn)


def log(a):
    a = _as_tensor(a)
    out = np.log(a.data)

    def grad_fn(g):
        return (g / a.data,)

    return _make(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} vs {b.shape}")
    out = np.matmul(a.data, b.data)

    def grad_fn(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
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
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(a.data[idx], (a,), grad_fn)


def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), grad_fn)


def mean(a, axis):
    a = _as_tensor(a)
    n = a.shape[axis]
    out = a.data.mean(axis=axis)

    def grad_fn(g):
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _make(out, (a,), grad_fn)


def attention(q, k, v, n_heads, bias=None):
    """Multi-head attention softmax(q_h k_h^T + bias) v_h, heads merged back.

    q: (b, n, d); k, v: (b, m, d); bias: (b, m), added to the logits of
    every head and query, or None. The 1/sqrt(d / n_heads) scale is the
    caller's to fold into q. Returns (b, n, d). Only the (b, h, n, m)
    softmax output is kept for the backward pass.
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
        p = np.matmul(heads(q.data, i), heads(k.data, i).transpose(0, 2, 1),
                      out=probs[i])
        if bias is not None:
            p += bias.data[i]
        kernels.softmax_rows(p)
        out[i] = merge(np.matmul(p, heads(v.data, i)))

    def grad_fn(g):
        dq = np.empty((b, n, d))
        dk, dv = np.empty((b, m, d)), np.empty((b, m, d))
        dbias = np.empty((b, m))
        for i in range(b):
            p, go = probs[i], heads(g, i)
            dv[i] = merge(np.matmul(p.transpose(0, 2, 1), go))
            dp = np.matmul(go, heads(v.data, i).transpose(0, 2, 1))
            kernels.softmax_rows_grad(dp, p)
            if bias is not None:
                dbias[i] = dp.sum(axis=(0, 1))
            dq[i] = merge(np.matmul(dp, heads(k.data, i)))
            dk[i] = np.matmul(heads(q.data, i).transpose(0, 2, 1),
                              dp).transpose(2, 0, 1).reshape(m, d)
        return (dq, dk, dv, dbias)[:len(parents)]

    return _make(out, parents, grad_fn)


def layer_norm(x, gain, bias):
    """Normalize over the last axis, then apply the affine (gain, bias)."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def grad_fn(g):
        gg = g * gain.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        red = tuple(range(x.data.ndim - 1))
        return (gx, (g * xhat).sum(axis=red), g.sum(axis=red))

    return _make(out, (x, gain, bias), grad_fn)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss):
    """Accumulate gradients of a scalar `loss` into every requires_grad leaf."""
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # Reachable subgraph, replayed strictly in reverse creation order.
    seen = {loss}
    stack = [loss]
    nodes = []
    while stack:
        t = stack.pop()
        nodes.append(t)
        for p in t._parents:
            if p.requires_grad and p not in seen:
                seen.add(p)
                stack.append(p)
    nodes.sort(key=lambda t: t._idx, reverse=True)

    adjoint = {loss: np.ones_like(loss.data)}
    for t in nodes:
        g = adjoint.pop(t, None)
        if g is None:
            continue
        if t._grad_fn is None:
            # Only leaves keep a gradient, so every other adjoint is freed
            # once its grad_fn has run. Accumulation allocates, so the
            # adjoint can be aliased directly; nothing downstream mutates
            # gradient buffers in place.
            t.grad = g if t.grad is None else t.grad + g
            continue
        grads = t._grad_fn(g)
        for p, gp in zip(t._parents, grads):
            if not p.requires_grad:
                continue
            if p in adjoint:
                adjoint[p] = adjoint[p] + gp
            else:
                adjoint[p] = gp


def zero_grads(params):
    for p in params.values():
        p.grad = None
