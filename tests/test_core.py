"""Group operations, horizontal lines, frames, and invariant densities."""

import math

import numpy as np
import pytest

from conftest import random_line, random_motion
from h1geom import (
    HorizontalLine,
    Point,
    PshMotion,
    contact_form_at,
    levi_length,
    levi_length_fixed_plane,
    line_chart_image,
    line_direction,
    line_point_at,
    line_through,
    motion_affine,
    normalize_angle,
    psh_apply_line,
    psh_apply_point,
    psh_compose,
    psh_inverse,
)


def pt_close(a: Point, b: Point, tol: float) -> bool:
    scale = 1.0 + max(map(abs, (a.x, a.y, a.t, b.x, b.y, b.t)))
    return (
        abs(a.x - b.x) <= tol * scale
        and abs(a.y - b.y) <= tol * scale
        and abs(a.t - b.t) <= tol * scale
    )


def test_normalize_angle():
    assert normalize_angle(0.0) == 0.0
    assert abs(normalize_angle(2.0 * math.pi)) < 1e-12
    assert abs(normalize_angle(-math.pi / 4) - 7 * math.pi / 4) < 1e-12
    assert abs(normalize_angle(5.0 * math.pi) - math.pi) < 1e-12
    for k in range(-3, 4):
        v = normalize_angle(1.3 + 2.0 * math.pi * k)
        assert 0.0 <= v < 2.0 * math.pi
        assert abs(v - 1.3) < 1e-9


def test_apply_point_translation_example():
    out = psh_apply_point(PshMotion(1.0, 2.0, 3.0, 0.0), Point(4.0, 5.0, 6.0))
    assert (out.x, out.y, out.t) == (5.0, 7.0, 12.0)


def test_apply_point_rotation_example():
    out = psh_apply_point(PshMotion(0.0, 0.0, 0.0, math.pi / 2), Point(1.0, 0.0, 0.0))
    assert pt_close(out, Point(0.0, 1.0, 0.0), 1e-12)


def test_constructors_and_validation():
    ident = PshMotion.identity()
    assert (ident.a, ident.b, ident.c, ident.alpha) == (0.0, 0.0, 0.0, 0.0)
    tr = PshMotion.translation(1.0, 2.0, 3.0)
    assert (tr.a, tr.b, tr.c, tr.alpha) == (1.0, 2.0, 3.0, 0.0)
    rot = PshMotion.rotation(0.7)
    assert (rot.a, rot.b, rot.c) == (0.0, 0.0, 0.0) and abs(rot.alpha - 0.7) < 1e-15
    # alpha is stored normalized
    assert abs(PshMotion(0.0, 0.0, 0.0, 2.0 * math.pi + 1.0).alpha - 1.0) < 1e-12
    with pytest.raises(ValueError):
        PshMotion(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Point(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        HorizontalLine(-0.1, 0.0, 0.0)


def test_point_array_round_trip():
    pt = Point(1.5, -2.0, 0.25)
    arr = pt.as_array()
    assert arr.shape == (3,)
    back = Point.from_array(arr)
    assert (back.x, back.y, back.t) == (pt.x, pt.y, pt.t)


def test_compose_defining_property():
    rng = np.random.default_rng(101)
    for _ in range(500):
        m1, m2 = random_motion(rng, 2.0), random_motion(rng, 2.0)
        g = Point(*rng.uniform(-3.0, 3.0, 3))
        lhs = psh_apply_point(psh_compose(m1, m2), g)
        rhs = psh_apply_point(m1, psh_apply_point(m2, g))
        assert pt_close(lhs, rhs, 1e-12)


def test_compose_translation_example():
    m = psh_compose(PshMotion(1.0, 0.0, 0.0, 0.0), PshMotion(0.0, 1.0, 0.0, 0.0))
    assert (m.a, m.b, m.alpha) == (1.0, 1.0, 0.0)
    # noncommutative vertical correction: c = b1*a2' - a1*b2' = -1
    assert m.c == -1.0


def test_associativity():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        m1, m2, m3 = (random_motion(rng, 1.5) for _ in range(3))
        left = psh_compose(psh_compose(m1, m2), m3)
        right = psh_compose(m1, psh_compose(m2, m3))
        scale = 1.0 + max(abs(left.a), abs(left.b), abs(left.c))
        assert abs(left.a - right.a) <= 1e-12 * scale
        assert abs(left.b - right.b) <= 1e-12 * scale
        assert abs(left.c - right.c) <= 1e-12 * scale
        d = (left.alpha - right.alpha) % (2.0 * math.pi)
        assert min(d, 2.0 * math.pi - d) <= 1e-12


def test_inverse():
    rng = np.random.default_rng(55)
    ident = PshMotion.identity()
    for _ in range(500):
        m = random_motion(rng, 2.0)
        r = psh_compose(m, psh_inverse(m))
        assert abs(r.a) < 1e-12 and abs(r.b) < 1e-12 and abs(r.c) < 1e-12
        d = r.alpha % (2.0 * math.pi)
        assert min(d, 2.0 * math.pi - d) < 1e-12
        g = Point(*rng.uniform(-2.0, 2.0, 3))
        back = psh_apply_point(psh_inverse(m), psh_apply_point(m, g))
        assert pt_close(back, g, 1e-12)
        assert pt_close(psh_apply_point(ident, g), g, 0.0)


def test_matrix_matches_apply():
    rng = np.random.default_rng(303)
    for _ in range(200):
        m = random_motion(rng, 2.0)
        g = Point(*rng.uniform(-3.0, 3.0, 3))
        hom = m.matrix() @ np.array([1.0, g.x, g.y, g.t])
        img = psh_apply_point(m, g)
        assert hom[0] == 1.0
        assert np.allclose(hom[1:], img.as_array(), rtol=0.0, atol=1e-12 * 10)


def test_matrix_of_compose_is_product():
    rng = np.random.default_rng(304)
    for _ in range(200):
        m1, m2 = random_motion(rng, 2.0), random_motion(rng, 2.0)
        lhs = psh_compose(m1, m2).matrix()
        rhs = m1.matrix() @ m2.matrix()
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12 * 10)


def test_motion_affine():
    rng = np.random.default_rng(305)
    for _ in range(100):
        m = random_motion(rng, 2.0)
        a_mat, q = motion_affine(m)
        g = rng.uniform(-2.0, 2.0, 3)
        img = psh_apply_point(m, Point(*g))
        assert np.allclose(a_mat @ g + q, img.as_array(), atol=1e-12 * 10)


def test_line_point_at_examples():
    out = line_point_at(HorizontalLine(1.0, 0.0, 0.0), 2.0)
    assert (out.x, out.y, out.t) == (1.0, -2.0, 2.0)
    for theta in (0.3, 1.0, 4.0):
        g = HorizontalLine(0.0, theta, 0.0)
        for s in (-1.0, 0.5, 2.0):
            pt = line_point_at(g, s)
            assert abs(pt.x - s * math.sin(theta)) < 1e-15 * (1 + abs(s))
            assert abs(pt.y + s * math.cos(theta)) < 1e-15 * (1 + abs(s))
            assert pt.t == 0.0
    assert np.allclose(
        line_direction(HorizontalLine(2.0, 0.0, 0.0)), [0.0, -1.0, 2.0]
    )


def test_line_accessors():
    g = HorizontalLine(1.5, 0.25, -0.5)
    # s = 0 is the base point (p cos theta, p sin theta, t), exactly
    assert line_point_at(g, 0.0) == Point(1.5 * math.cos(0.25), 1.5 * math.sin(0.25), -0.5)
    assert np.array_equal(line_direction(g), [math.sin(0.25), -math.cos(0.25), 1.5])


def test_horizontality():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        g = random_line(rng)
        s = rng.uniform(-3.0, 3.0)
        pt = line_point_at(g, s)
        v = line_direction(g)
        scale = 1.0 + abs(pt.x) + abs(pt.y) + abs(v[2])
        assert abs(contact_form_at(pt, v)) <= 1e-12 * scale
    # the Reeb direction is not horizontal
    assert contact_form_at(Point(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)) == 1.0


def test_line_through():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        pt = Point(*rng.uniform(-2.0, 2.0, 3))
        theta = rng.uniform(-7.0, 7.0)
        g, s = line_through(pt, theta)
        assert g.p >= 0.0
        assert 0.0 <= g.theta < 2.0 * math.pi
        assert pt_close(line_point_at(g, s), pt, 1e-12)


def test_apply_line_example():
    g = psh_apply_line(PshMotion(1.0, 1.0, 1.0, 0.0), HorizontalLine(1.0, 0.0, 0.0))
    assert (g.p, g.theta) == (2.0, 0.0)
    assert g.t == 4.0


def test_apply_line_matches_pointwise_action():
    rng = np.random.default_rng(606)
    for _ in range(200):
        m = random_motion(rng, 2.0)
        g = random_line(rng)
        img = psh_apply_line(m, g)
        assert img.p >= 0.0
        ct, st = math.cos(img.theta), math.sin(img.theta)
        for s in rng.uniform(-3.0, 3.0, 10):
            q = psh_apply_point(m, line_point_at(g, s))
            # recover the parameter of q on the image line by projecting
            # its xy-offset from the base point onto the unit direction
            s_img = (q.x - img.p * ct) * st - (q.y - img.p * st) * ct
            assert pt_close(line_point_at(img, s_img), q, 1e-10)


def test_apply_line_canonicalizes():
    # pushing the footpoint across the origin flips the sheet
    g = psh_apply_line(PshMotion(-2.0, 0.0, 0.0, 0.0), HorizontalLine(1.0, 0.0, 0.5))
    assert g.p == 1.0
    assert abs(g.theta - math.pi) < 1e-12
    assert g.t == 0.5


def test_line_chart_image_is_smooth_chart():
    # same data as psh_apply_line before canonical folding
    p, th, t = line_chart_image(PshMotion(1.0, 1.0, 1.0, 0.0), 1.0, 0.0, 0.0)
    assert (p, th, t) == (2.0, 0.0, 4.0)
    p, th, t = line_chart_image(PshMotion(-2.0, 0.0, 0.0, 0.0), 1.0, 0.0, 0.5)
    assert p == -1.0 and th == 0.0 and t == 0.5


def _fd_jacobian(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    n = len(x)
    fx = np.asarray(f(x), dtype=float)
    jac = np.empty((len(fx), n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)
    return jac


def test_line_density_is_invariant():
    # dG = dp ^ dtheta ^ dt: the chart action of any motion has unit
    # Jacobian determinant
    rng = np.random.default_rng(404)
    for _ in range(20):
        m = random_motion(rng, 2.0)
        x0 = np.array(
            [rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-2.0, 2.0)]
        )
        jac = _fd_jacobian(lambda x: line_chart_image(m, *x), x0)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-6


def test_segment_density_is_invariant():
    # dK = dG ^ dh equals the Haar density of (Q, phi): the chart map
    # (p, theta, t, h) -> (Q, phi) has unit Jacobian determinant
    rng = np.random.default_rng(405)

    def chart(x):
        p, theta, t, h = x
        q = line_point_at(HorizontalLine(p, theta, t), h)
        return (q.x, q.y, q.t, theta + 0.5 * math.pi)

    for _ in range(20):
        x0 = np.array(
            [
                rng.uniform(0.3, 2.0),
                rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
            ]
        )
        jac = _fd_jacobian(chart, x0)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-6


def test_levi_length():
    assert levi_length(HorizontalLine(0.0, 0.7, 0.0), -1.0, 1.0) == 2.0
    assert levi_length(HorizontalLine(2.0, 0.0, 1.0), 0.5, 4.0) == 3.5
    with pytest.raises(ValueError):
        levi_length(HorizontalLine(1.0, 0.0, 0.0), 1.0, 0.0)


def test_levi_length_fixed_plane_agrees():
    assert abs(levi_length_fixed_plane(HorizontalLine(0.0, 0.7, 0.0), -1.0, 1.0) - 2.0) < 1e-12
    rng = np.random.default_rng(313)
    for _ in range(500):
        g = random_line(rng)
        s0 = rng.uniform(-2.0, 2.0)
        s1 = s0 + rng.uniform(0.0, 3.0)
        direct = levi_length(g, s0, s1)
        fixed = levi_length_fixed_plane(g, s0, s1)
        assert abs(direct - fixed) <= 1e-12 * (1.0 + direct)
    with pytest.raises(ValueError):
        levi_length_fixed_plane(HorizontalLine(1.0, 0.0, 0.0), 1.0, 0.0)
