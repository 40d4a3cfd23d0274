"""Lift 2D affordances to 3D: contact backprojection and direction lifting."""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GeometryError

RADIUS = 5  # Chebyshev pixel radius of the contact's depth neighbourhood
STEP = 10.0  # pixels along the 2D direction to the second lifted ray


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        # Written so that a NaN fails too.
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ContractError(f"focal lengths must be positive and finite, "
                                f"got {self.fx!r} and {self.fy!r}")
        if not (abs(self.cx) < np.inf and abs(self.cy) < np.inf):
            raise ContractError(f"principal point must be finite, got "
                                f"({self.cx!r}, {self.cy!r})")


@dataclass(frozen=True)
class Affordance3D:
    contact: tuple  # (X, Y, Z) meters, camera frame
    direction: tuple  # unit (X, Y, Z), camera frame


def backproject(pixel, depth, intr):
    """Pinhole backprojection of pixel (u, v) at depth Z (camera frame)."""
    if depth <= 0:
        raise ContractError(f"depth must be positive, got {depth}")
    u, v = pixel
    return ((u - intr.cx) * depth / intr.fx,
            (v - intr.cy) * depth / intr.fy,
            float(depth))


def _candidates(contact, depth_map, radius):
    """Valid-depth (xs, ys, depths) within Chebyshev `radius`, row-major."""
    if not (abs(contact[0]) < np.inf and abs(contact[1]) < np.inf):
        raise ContractError(f"contact must be finite, got {tuple(contact)}")
    h, w = depth_map.shape
    cx = int(round(contact[0]))
    cy = int(round(contact[1]))
    x0, x1 = max(cx - radius, 0), min(cx + radius, w - 1)
    y0, y1 = max(cy - radius, 0), min(cy + radius, h - 1)
    if x1 < x0 or y1 < y0:  # a negative slice stop would wrap around
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    win = depth_map[y0:y1 + 1, x0:x1 + 1]
    ys, xs = np.nonzero(np.isfinite(win) & (win > 0))
    return xs + x0, ys + y0, win[ys, xs]


def lift_contact(contact, depth_map, intr, radius=RADIUS):
    """Backproject the nearest valid surface pixel around the 2D contact.

    Nearest by pixel-space distance to the (real-valued) contact; ties by
    smaller depth, then row-major index.
    """
    if radius < 0:
        raise ContractError("radius must be >= 0")
    xs, ys, zs = _candidates(contact, depth_map, radius)
    if not xs.size:
        raise GeometryError(
            f"no valid depth within radius {radius} of {tuple(contact)}")
    w = depth_map.shape[1]
    dx, dy = xs - contact[0], ys - contact[1]
    best = np.lexsort((ys * w + xs, zs, dx * dx + dy * dy))[0]
    return backproject((int(xs[best]), int(ys[best])), float(zs[best]), intr)


def _fit_plane(points):
    """Least-squares plane through 3D points: (unit normal, offset d), n.x = d."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    return normal, float(normal @ centroid)


def _ray_plane(pixel, intr, normal, offset):
    """Intersect the camera ray of `pixel` with the plane n.x = offset."""
    ray = np.array([(pixel[0] - intr.cx) / intr.fx,
                    (pixel[1] - intr.cy) / intr.fy, 1.0])
    denom = normal @ ray
    if abs(denom) < 1e-12:
        raise GeometryError("camera ray parallel to the local surface plane")
    return (offset / denom) * ray


def lift_direction(direction2d, contact3d, contact2d, depth_map, intr,
                   radius=RADIUS):
    """Lift a unit 2D direction onto the local surface plane.

    Fits a plane to the backprojected valid neighborhood of the contact
    (fronto-parallel fallback below 3 points), intersects the camera rays
    of the contact and of contact + STEP * direction with it, and returns
    the normalized difference.
    """
    a = np.asarray(direction2d, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ContractError(f"action direction must be finite, got {a}")
    if np.linalg.norm(a) < 1e-12:
        raise ContractError("zero action direction")
    a = a / np.linalg.norm(a)

    xs, ys, zs = _candidates(contact2d, depth_map, radius)
    if xs.size >= 3:
        # backproject's operations, in its order, on the whole window.
        cloud = np.stack([(xs - intr.cx) * zs / intr.fx,
                          (ys - intr.cy) * zs / intr.fy, zs], axis=1)
        normal, offset = _fit_plane(cloud)
    else:
        normal, offset = np.array([0.0, 0.0, 1.0]), float(contact3d[2])

    p0 = _ray_plane(contact2d, intr, normal, offset)
    p1 = _ray_plane((contact2d[0] + STEP * a[0], contact2d[1] + STEP * a[1]),
                    intr, normal, offset)
    tau = p1 - p0
    norm = np.linalg.norm(tau)
    if norm < 1e-12:
        raise GeometryError("degenerate lifted direction")
    return tuple(tau / norm)


def lift_affordance(affordance2d, depth_map, intr):
    """Full 2D -> 3D lift; the hand-off point to any execution stack."""
    c3d = lift_contact(affordance2d.contact, depth_map, intr)
    tau = lift_direction(affordance2d.direction, c3d, affordance2d.contact,
                         depth_map, intr)
    return Affordance3D(contact=c3d, direction=tau)
