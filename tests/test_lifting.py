"""2D -> 3D lifting geometry."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affkit.errors import ContractError, GeometryError
from affkit.lifting import (RADIUS, Affordance3D, Intrinsics, _ray_plane,
                            backproject, lift_affordance, lift_contact,
                            lift_direction)
from affkit.memory import Affordance2D
from support import loop_lift, project

INTR = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)


def test_intrinsics_validation():
    with pytest.raises(ContractError):
        Intrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
    # Non-positive or non-finite focal lengths, non-finite principal points.
    for bad in (dict(fy=-1.0), dict(fx=np.nan), dict(fy=np.inf),
                dict(cx=np.nan), dict(cy=-np.inf)):
        with pytest.raises(ContractError):
            replace(INTR, **bad)


# ---------------------------------------------------------------------------
# backproject / project


def test_principal_ray():
    assert backproject((50.0, 50.0), 1.0, INTR) == (0.0, 0.0, 1.0)


def test_backproject_hand_formula():
    assert backproject((150.0, 50.0), 2.0, INTR) == (2.0, 0.0, 2.0)


def test_backproject_rejects_nonpositive_depth():
    with pytest.raises(ContractError):
        backproject((10.0, 10.0), 0.0, INTR)


@given(st.floats(0, 99), st.floats(0, 99), st.floats(0.1, 50))
@settings(max_examples=50, deadline=None)
def test_project_backproject_roundtrip(u, v, z):
    point = backproject((u, v), z, INTR)
    u2, v2 = project(point, INTR)
    assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9


# ---------------------------------------------------------------------------
# lift_contact


def test_contact_valid_at_pixel():
    depth = np.full((10, 10), 2.0)
    got = lift_contact((4.0, 7.0), depth, INTR)
    assert got == backproject((4.0, 7.0), 2.0, INTR)


def test_contact_single_valid_neighbor():
    depth = np.zeros((9, 9))
    depth[5, 3] = 1.5  # the only valid pixel
    got = lift_contact((4.0, 4.0), depth, INTR, radius=2)
    assert got == backproject((3.0, 5.0), 1.5, INTR)


def test_contact_no_valid_pixel():
    with pytest.raises(GeometryError):
        lift_contact((4.0, 4.0), np.zeros((9, 9)), INTR, radius=2)


def test_contact_invalid_includes_nan_and_negative():
    depth = np.full((5, 5), np.nan)
    depth[1, 1] = -3.0
    with pytest.raises(GeometryError):
        lift_contact((2.0, 2.0), depth, INTR, radius=2)


def test_contact_ring_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        depth = np.where(rng.random((11, 11)) < 0.4,
                         rng.uniform(0.5, 3.0, (11, 11)), 0.0)
        contact = tuple(rng.uniform(2, 8, size=2))
        radius = 3
        valid = [(x, y) for y in range(11) for x in range(11)
                 if depth[y, x] > 0
                 and abs(x - round(contact[0])) <= radius
                 and abs(y - round(contact[1])) <= radius]
        if not valid:
            with pytest.raises(GeometryError):
                lift_contact(contact, depth, INTR, radius=radius)
            continue
        best = min(valid, key=lambda p: (
            (p[0] - contact[0]) ** 2 + (p[1] - contact[1]) ** 2,
            depth[p[1], p[0]], p[1] * 11 + p[0]))
        got = lift_contact(contact, depth, INTR, radius=radius)
        assert got == backproject(best, float(depth[best[1], best[0]]), INTR)


def test_contact_radius_validation():
    with pytest.raises(ContractError):
        lift_contact((1.0, 1.0), np.ones((3, 3)), INTR, radius=-1)


@pytest.mark.parametrize("contact", [(np.nan, 1.0), (1.0, np.nan),
                                     (np.inf, 1.0), (1.0, -np.inf)])
def test_nonfinite_contact_rejected(contact):
    depth = np.ones((9, 9))
    with pytest.raises(ContractError):
        lift_contact(contact, depth, INTR)
    with pytest.raises(ContractError):
        lift_direction((1.0, 0.0), (0.0, 0.0, 1.0), contact, depth, INTR)


# ---------------------------------------------------------------------------
# lift_direction


def _flat_depth(z=2.0, shape=(101, 101)):
    return np.full(shape, z)


def test_fronto_parallel_x():
    intr = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)
    depth = _flat_depth()
    c3d = lift_contact((50.0, 50.0), depth, intr)
    tau = lift_direction((1.0, 0.0), c3d, (50.0, 50.0), depth, intr)
    np.testing.assert_allclose(tau, (1.0, 0.0, 0.0), atol=1e-9)


def test_fronto_parallel_y():
    depth = _flat_depth()
    c3d = lift_contact((50.0, 50.0), depth, INTR)
    tau = lift_direction((0.0, 1.0), c3d, (50.0, 50.0), depth, INTR)
    np.testing.assert_allclose(tau, (0.0, 1.0, 0.0), atol=1e-9)


def _tilted_depth(theta, intr, shape=(101, 101), z0=2.0):
    """Plane tilted about the vertical (Y) axis: Z = z0 + tan(theta) * X."""
    h, w = shape
    us = np.arange(w)[None, :].repeat(h, axis=0)
    t = np.tan(theta)
    # Z = z0 + t * X with X = (u - cx) Z / fx  =>  Z (1 - t (u - cx)/fx) = z0
    denom = 1.0 - t * (us - intr.cx) / intr.fx
    return z0 / denom


def test_tilted_plane_matches_analytic_oracle():
    theta = 0.3
    depth = _tilted_depth(theta, INTR)
    contact2d = (50.0, 50.0)
    c3d = lift_contact(contact2d, depth, INTR)
    tau = np.asarray(lift_direction((1.0, 0.0), c3d, contact2d, depth, INTR))

    # Analytic oracle: intersect both rays with the exact plane
    # n . x = d, n = (-sin t, 0, cos t), through (0, 0, z0).
    n = np.array([-np.sin(theta), 0.0, np.cos(theta)])
    d = n @ np.array([0.0, 0.0, 2.0])

    def hit(pixel):
        ray = np.array([(pixel[0] - INTR.cx) / INTR.fx,
                        (pixel[1] - INTR.cy) / INTR.fy, 1.0])
        return (d / (n @ ray)) * ray

    expected = hit((60.0, 50.0)) - hit((50.0, 50.0))
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(tau, expected, atol=1e-6)
    # Slope in the xz-plane is tan(theta).
    assert tau[1] == pytest.approx(0.0, abs=1e-9)
    assert tau[2] / tau[0] == pytest.approx(np.tan(theta), abs=1e-6)


def test_direction_antisymmetry():
    depth = _tilted_depth(0.25, INTR)
    c3d = lift_contact((40.0, 55.0), depth, INTR)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=2)
        a /= np.linalg.norm(a)
        tau_pos = np.asarray(lift_direction(a, c3d, (40.0, 55.0), depth, INTR))
        tau_neg = np.asarray(lift_direction(-a, c3d, (40.0, 55.0), depth, INTR))
        np.testing.assert_allclose(tau_neg, -tau_pos, atol=1e-9)


def test_direction_lies_in_fitted_plane():
    theta = 0.4
    depth = _tilted_depth(theta, INTR)
    c3d = lift_contact((50.0, 50.0), depth, INTR)
    tau = np.asarray(lift_direction((0.6, 0.8), c3d, (50.0, 50.0), depth, INTR))
    n = np.array([-np.sin(theta), 0.0, np.cos(theta)])
    assert abs(n @ tau) < 1e-6
    assert abs(np.linalg.norm(tau) - 1.0) < 1e-9


@given(st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_depth_scaling_leaves_direction_unchanged(lam):
    depth = _tilted_depth(0.2, INTR)
    c3d = lift_contact((50.0, 50.0), depth, INTR)
    base = np.asarray(lift_direction((1.0, 0.0), c3d, (50.0, 50.0), depth,
                                     INTR))
    c3d_s = lift_contact((50.0, 50.0), depth * lam, INTR)
    np.testing.assert_allclose(np.asarray(c3d_s), np.asarray(c3d) * lam,
                               rtol=1e-9)
    scaled = np.asarray(lift_direction((1.0, 0.0), c3d_s, (50.0, 50.0),
                                       depth * lam, INTR))
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_fronto_parallel_fallback_below_three_points():
    depth = np.zeros((9, 9))
    depth[4, 4] = 2.0
    depth[4, 5] = 2.0  # only 2 valid points -> fallback plane at contact Z
    c3d = lift_contact((4.0, 4.0), depth, INTR, radius=1)
    tau = lift_direction((1.0, 0.0), c3d, (4.0, 4.0), depth, INTR, radius=1)
    np.testing.assert_allclose(tau, (1.0, 0.0, 0.0), atol=1e-9)


def test_zero_direction_rejected():
    depth = _flat_depth()
    c3d = lift_contact((50.0, 50.0), depth, INTR)
    with pytest.raises(ContractError):
        lift_direction((0.0, 0.0), c3d, (50.0, 50.0), depth, INTR)


@pytest.mark.parametrize("direction", [(np.nan, 0.0), (0.0, np.nan),
                                       (np.inf, 1.0), (1.0, -np.inf)])
def test_nonfinite_direction_rejected(direction):
    depth = _flat_depth()
    c3d = lift_contact((50.0, 50.0), depth, INTR)
    with pytest.raises(ContractError):
        lift_direction(direction, c3d, (50.0, 50.0), depth, INTR)


def test_ray_parallel_to_plane():
    # Vertical plane with normal (1, 0, 0); the principal ray (0, 0, 1)
    # never meets it.
    with pytest.raises(GeometryError):
        _ray_plane((50.0, 50.0), INTR, np.array([1.0, 0.0, 0.0]), 1.0)


# ---------------------------------------------------------------------------
# lift_affordance


def test_lift_affordance_end_to_end():
    depth = _flat_depth(z=1.0)
    aff = Affordance2D(contact=(60.0, 50.0), direction=(0.0, 1.0))
    out = lift_affordance(aff, depth, INTR)
    assert isinstance(out, Affordance3D)
    np.testing.assert_allclose(out.contact, (0.1, 0.0, 1.0), atol=1e-12)
    np.testing.assert_allclose(out.direction, (0.0, 1.0, 0.0), atol=1e-9)


def _outcome(fn):
    """A lift's (element types, float64 bytes), or the type of its error."""
    try:
        out = fn()
    except (ContractError, GeometryError) as exc:
        return type(exc)
    values = out.contact + out.direction
    return [type(v) for v in values], np.asarray(values).tobytes()


def _lift(contact, direction, depth, intr, radius):
    c3d = lift_contact(contact, depth, intr, radius=radius)
    return Affordance3D(contact=c3d, direction=lift_direction(
        direction, c3d, contact, depth, intr, radius=radius))


def test_array_lifting_bitwise_equals_pixel_loop():
    """The window-array lifting gives the per-pixel loop's bytes.

    Tilted and curved surfaces with noise, some with depths rounded to
    make ties; NaN, zero and negative holes; real-valued and integer
    contacts, inside, straddling and wholly outside a non-square image.
    """
    rng = np.random.default_rng(0)
    intr = Intrinsics(fx=40.0, fy=44.0, cx=14.5, cy=10.0)
    h, w = 21, 29
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    outcomes = []
    for scene in range(12):
        depth = (2.0 + rng.uniform(-0.03, 0.03) * (us - 14)
                 + rng.uniform(-0.03, 0.03) * (vs - 10)
                 + rng.uniform(0, 2e-3) * (us - 14) ** 2
                 + rng.normal(0, 0.01, (h, w)))
        if scene % 3 == 0:
            depth = np.round(depth, 1)  # plateaus: ties on depth
        holes = rng.random((h, w))
        depth[holes < 0.15] = np.nan
        depth[(holes >= 0.15) & (holes < 0.3)] = 0.0
        depth[(holes >= 0.3) & (holes < 0.35)] = -1.0
        for _ in range(25):
            contact = tuple(rng.uniform(-12, w + 12, 2))
            if rng.random() < 0.5:
                contact = tuple(int(c) for c in np.round(contact))
            direction = rng.normal(size=2)
            direction = tuple(direction / np.linalg.norm(direction))
            aff = Affordance2D(contact=contact, direction=direction)
            for radius in range(7):
                want = _outcome(lambda: loop_lift(contact, direction, depth,
                                                  intr, radius))
                assert _outcome(lambda: _lift(contact, direction, depth, intr,
                                              radius)) == want, \
                    (scene, contact, radius)
                if radius == RADIUS:
                    assert _outcome(lambda: lift_affordance(
                        aff, depth, intr)) == want, (scene, contact)
                outcomes.append(want if isinstance(want, type) else "lifted")
    # Both outcomes occur often: lifts, and windows with no valid depth.
    assert outcomes.count("lifted") > 600
    assert outcomes.count(GeometryError) > 600
