"""Helpers that only the tests use: the pinhole projection that inverts
`lifting.backproject`, the reader of `training.save_history` files, and
the softmax and transpose tape ops and the finite-difference gradient
checker that the gradient tests and the composed-attention reference
build on."""

import numpy as np

from affkit import kernels
from affkit.autodiff import _as_tensor, _make, backward, zero_grads
from affkit.errors import ContractError, NumericError


def project(point, intr):
    """Pinhole projection, the inverse of backproject."""
    x, y, z = point
    if z <= 0:
        raise ContractError("point behind the camera")
    return (intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy)


def load_history(path):
    history = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, loss = line.strip().split(",")
            history.append(float(loss))
    return history


def transpose(a, axes):
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def grad_fn(g):
        return (np.transpose(g, inv),)

    return _make(np.transpose(a.data, axes), (a,), grad_fn)


def softmax(a):
    """Numerically stable softmax along the last axis."""
    a = _as_tensor(a)
    out = kernels.softmax_rows(a.data.copy())

    def grad_fn(g):
        return (kernels.softmax_rows_grad(g.copy(), out),)

    return _make(out, (a,), grad_fn)


def finite_diff_check(fn, params, h=1e-5, samples_per_param=5, rng=None):
    """Max relative error between analytic and central-difference gradients.

    `fn` rebuilds the scalar loss from `params` (a dict of name -> Tensor);
    it is re-evaluated with coordinates perturbed by +/- h.
    """
    if not 1e-6 <= h <= 1e-4:
        raise ContractError(f"step h={h} outside [1e-6, 1e-4]")
    rng = rng or np.random.default_rng(0)
    loss = fn()
    if not np.isfinite(loss.data).all():
        raise NumericError("finite_diff_check: non-finite loss")
    zero_grads(params)
    backward(loss)

    worst = 0.0
    for p in params.values():
        flat = p.data.reshape(-1)
        gflat = (p.grad if p.grad is not None
                 else np.zeros_like(p.data)).reshape(-1)
        n = flat.size
        idxs = (range(n) if n <= samples_per_param
                else rng.choice(n, size=samples_per_param, replace=False))
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + h
            lo_hi = float(fn().data)
            flat[i] = keep - h
            lo_lo = float(fn().data)
            flat[i] = keep
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise NumericError("finite_diff_check: non-finite perturbed loss")
            cd = (lo_hi - lo_lo) / (2.0 * h)
            an = gflat[i]
            rel = abs(an - cd) / max(abs(an), abs(cd), 1e-8)
            worst = max(worst, rel)
    return worst
