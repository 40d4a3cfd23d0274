"""Lift 2D affordances to 3D: contact backprojection and direction lifting."""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GeometryError


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


def project(point, intr):
    """Pinhole projection, the inverse of backproject."""
    x, y, z = point
    if z <= 0:
        raise ContractError("point behind the camera")
    return (intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy)


def _valid_mask(depth_map):
    return np.isfinite(depth_map) & (depth_map > 0)


def _candidates(contact, depth_map, radius):
    """Valid-depth pixels within Chebyshev `radius` of the contact pixel."""
    h, w = depth_map.shape
    cx = int(round(contact[0]))
    cy = int(round(contact[1]))
    x0, x1 = max(cx - radius, 0), min(cx + radius, w - 1)
    y0, y1 = max(cy - radius, 0), min(cy + radius, h - 1)
    valid = _valid_mask(depth_map)
    out = []
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if valid[y, x]:
                out.append((x, y))
    return out


def lift_contact(contact, depth_map, intr, radius=5):
    """Backproject the nearest valid surface pixel around the 2D contact.

    Nearest by pixel-space distance to the (real-valued) contact; ties by
    smaller depth, then row-major index.
    """
    if radius < 0:
        raise ContractError("radius must be >= 0")
    pts = _candidates(contact, depth_map, radius)
    if not pts:
        raise GeometryError(
            f"no valid depth within radius {radius} of {tuple(contact)}")
    w = depth_map.shape[1]
    best = min(pts, key=lambda p: (
        (p[0] - contact[0]) ** 2 + (p[1] - contact[1]) ** 2,
        depth_map[p[1], p[0]],
        p[1] * w + p[0]))
    return backproject(best, float(depth_map[best[1], best[0]]), intr)


def _fit_plane(points):
    """Least-squares plane through 3D points: (unit normal, offset d), n.x = d."""
    pts = np.asarray(points)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
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
                   step=10.0, radius=5):
    """Lift a unit 2D direction onto the local surface plane.

    Fits a plane to the backprojected valid neighborhood of the contact
    (fronto-parallel fallback below 3 points), intersects the camera rays
    of the contact and of contact + step * direction with it, and returns
    the normalized difference.
    """
    a = np.asarray(direction2d, dtype=np.float64)
    if np.linalg.norm(a) < 1e-12:
        raise ContractError("zero action direction")
    a = a / np.linalg.norm(a)

    pts = _candidates(contact2d, depth_map, radius)
    if len(pts) >= 3:
        cloud = [backproject(p, float(depth_map[p[1], p[0]]), intr) for p in pts]
        normal, offset = _fit_plane(cloud)
    else:
        normal, offset = np.array([0.0, 0.0, 1.0]), float(contact3d[2])

    p0 = _ray_plane(contact2d, intr, normal, offset)
    p1 = _ray_plane((contact2d[0] + step * a[0], contact2d[1] + step * a[1]),
                    intr, normal, offset)
    tau = p1 - p0
    norm = np.linalg.norm(tau)
    if norm < 1e-12:
        raise GeometryError("degenerate lifted direction")
    return tuple(tau / norm)


def lift_affordance(affordance2d, depth_map, intr, radius=5, step=10.0):
    """Full 2D -> 3D lift; the hand-off point to any execution stack."""
    c3d = lift_contact(affordance2d.contact, depth_map, intr, radius=radius)
    tau = lift_direction(affordance2d.direction, c3d, affordance2d.contact,
                         depth_map, intr, step=step, radius=radius)
    return Affordance3D(contact=c3d, direction=tau)
