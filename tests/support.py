"""Helpers that only the tests use: the pinhole projection that inverts
`lifting.backproject`, the per-pixel loop lifting that the array lifting
must match bit for bit, the reader of `training.save_history` files, and
the softmax and transpose tape ops and the finite-difference gradient
checker that the gradient tests and the composed-attention reference
build on."""

import numpy as np

from affkit import kernels
from affkit.autodiff import _as_tensor, _make, backward, zero_grads
from affkit.errors import ContractError, GeometryError, NumericError
from affkit.lifting import (STEP, Affordance3D, _fit_plane, _ray_plane,
                            backproject)


def project(point, intr):
    """Pinhole projection, the inverse of backproject."""
    x, y, z = point
    if z <= 0:
        raise ContractError("point behind the camera")
    return (intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy)


def loop_candidates(contact, depth_map, radius):
    """Valid-depth (x, y) within Chebyshev `radius`, one pixel at a time."""
    h, w = depth_map.shape
    cx = int(round(contact[0]))
    cy = int(round(contact[1]))
    x0, x1 = max(cx - radius, 0), min(cx + radius, w - 1)
    y0, y1 = max(cy - radius, 0), min(cy + radius, h - 1)
    valid = np.isfinite(depth_map) & (depth_map > 0)
    return [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)
            if valid[y, x]]


def loop_lift(contact, direction, depth_map, intr, radius):
    """`lift_contact` then `lift_direction` at `radius`, from the pixel loop,
    a `min` over (squared distance, depth, row-major index) and one
    `backproject` call per neighbourhood point."""
    pts = loop_candidates(contact, depth_map, radius)
    if not pts:
        raise GeometryError("no valid depth")
    w = depth_map.shape[1]
    best = min(pts, key=lambda p: (
        (p[0] - contact[0]) ** 2 + (p[1] - contact[1]) ** 2,
        depth_map[p[1], p[0]],
        p[1] * w + p[0]))
    c3d = backproject(best, float(depth_map[best[1], best[0]]), intr)

    a = np.asarray(direction, dtype=np.float64)
    a = a / np.linalg.norm(a)
    if len(pts) >= 3:
        cloud = [backproject(p, float(depth_map[p[1], p[0]]), intr)
                 for p in pts]
        normal, offset = _fit_plane(np.asarray(cloud))
    else:
        normal, offset = np.array([0.0, 0.0, 1.0]), float(c3d[2])
    p0 = _ray_plane(contact, intr, normal, offset)
    p1 = _ray_plane((contact[0] + STEP * a[0], contact[1] + STEP * a[1]),
                    intr, normal, offset)
    tau = p1 - p0
    norm = np.linalg.norm(tau)
    if norm < 1e-12:
        raise GeometryError("degenerate lifted direction")
    return Affordance3D(contact=c3d, direction=tuple(tau / norm))


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
