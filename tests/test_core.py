"""Group operations, the line chart and its motion action, and invariant
densities."""

import math

import numpy as np
import pytest

from conftest import line_points, random_line, random_motion
from h1geom import (
    PshMotion,
    line_chart_image,
    motion_affine,
    psh_compose,
    psh_inverse,
)


def move(m: PshMotion, x) -> np.ndarray:
    """The motion applied to points x (..., 3) by its affine map."""
    a_mat, q = motion_affine(m)
    return np.asarray(x, dtype=float) @ a_mat.T + q


def assert_close(a, b, tol: float) -> None:
    a, b = np.asarray(a), np.asarray(b)
    scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
    assert np.all(np.abs(a - b) <= tol * scale)


def test_normalize_angle():
    # a motion stores alpha reduced to [0, 2 pi)
    def alpha(angle):
        return PshMotion(0.0, 0.0, 0.0, angle).alpha

    assert alpha(0.0) == 0.0
    assert abs(alpha(2.0 * math.pi)) < 1e-12
    assert abs(alpha(-math.pi / 4) - 7 * math.pi / 4) < 1e-12
    assert abs(alpha(5.0 * math.pi) - math.pi) < 1e-12
    for k in range(-3, 4):
        v = alpha(1.3 + 2.0 * math.pi * k)
        assert 0.0 <= v < 2.0 * math.pi
        assert abs(v - 1.3) < 1e-9


def test_apply_point_translation_example():
    out = move(PshMotion(1.0, 2.0, 3.0, 0.0), [4.0, 5.0, 6.0])
    assert out.tolist() == [5.0, 7.0, 12.0]


def test_apply_point_rotation_example():
    out = move(PshMotion(0.0, 0.0, 0.0, math.pi / 2), [1.0, 0.0, 0.0])
    assert_close(out, [0.0, 1.0, 0.0], 1e-12)


def test_constructors_and_validation():
    # alpha is stored normalized
    assert abs(PshMotion(0.0, 0.0, 0.0, 2.0 * math.pi + 1.0).alpha - 1.0) < 1e-12
    with pytest.raises(ValueError, match="PshMotion requires finite coordinates"):
        PshMotion(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="PshMotion requires finite coordinates"):
        PshMotion(0.0, 0.0, 0.0, math.inf)


def test_compose_defining_property():
    rng = np.random.default_rng(101)
    for _ in range(500):
        m1, m2 = random_motion(rng, 2.0), random_motion(rng, 2.0)
        g = rng.uniform(-3.0, 3.0, 3)
        assert_close(move(psh_compose(m1, m2), g), move(m1, move(m2, g)), 1e-12)


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
    ident = PshMotion(0.0, 0.0, 0.0, 0.0)
    for _ in range(500):
        m = random_motion(rng, 2.0)
        r = psh_compose(m, psh_inverse(m))
        assert abs(r.a) < 1e-12 and abs(r.b) < 1e-12 and abs(r.c) < 1e-12
        d = r.alpha % (2.0 * math.pi)
        assert min(d, 2.0 * math.pi - d) < 1e-12
        g = rng.uniform(-2.0, 2.0, 3)
        assert_close(move(psh_inverse(m), move(m, g)), g, 1e-12)
        assert np.array_equal(move(ident, g), g)


def test_matrix_of_compose_is_product():
    # the affine map of m1 after m2 is the product of theirs
    rng = np.random.default_rng(304)
    for _ in range(200):
        m1, m2 = random_motion(rng, 2.0), random_motion(rng, 2.0)
        (a12, q12), (a1, q1), (a2, q2) = map(motion_affine, (psh_compose(m1, m2), m1, m2))
        assert np.allclose(a12, a1 @ a2, rtol=0.0, atol=1e-12 * 10)
        assert np.allclose(q12, a1 @ q2 + q1, rtol=0.0, atol=1e-12 * 10)


def test_motion_affine():
    # the group law of the module docstring: rotate (x, y) by alpha, then
    # left-multiply by (a, b, c) in the polarized product
    rng = np.random.default_rng(305)
    for _ in range(100):
        m = random_motion(rng, 2.0)
        a_mat, q = motion_affine(m)
        g = rng.uniform(-2.0, 2.0, 3)
        ca, sa = math.cos(m.alpha), math.sin(m.alpha)
        x, y = g[0] * ca - g[1] * sa, g[0] * sa + g[1] * ca
        law = [m.a + x, m.b + y, m.c + g[2] + m.b * x - m.a * y]
        assert np.allclose(a_mat @ g + q, law, rtol=0.0, atol=1e-12 * 10)


def test_line_point_at_examples():
    # the chart of the module docstring, which line_points evaluates for
    # the tests: gamma(s) = (p cos + s sin, p sin - s cos, t + s p)
    assert line_points(1.0, 0.0, 0.0, 2.0).tolist() == [1.0, -2.0, 2.0]
    s = np.array([-1.0, 0.5, 2.0])
    for theta in (0.3, 1.0, 4.0):
        pts = line_points(0.0, theta, 0.0, s)
        assert pts.shape == (3, 3)
        assert np.all(np.abs(pts[:, 0] - s * math.sin(theta)) < 1e-15 * (1 + np.abs(s)))
        assert np.all(np.abs(pts[:, 1] + s * math.cos(theta)) < 1e-15 * (1 + np.abs(s)))
        assert np.all(pts[:, 2] == 0.0)


def test_horizontality():
    # Theta = dt + x dy - y dx annihilates the velocity (sin, -cos, p) at
    # every point of a line; one row of doubles per random_line and s
    rng = np.random.default_rng(808)
    u = rng.random((1000, 4))
    p, theta, t, s = (u * [2.0, 2.0 * np.pi, 4.0, 6.0] + [0.0, 0.0, -2.0, -3.0]).T
    x, y, _ = line_points(p, theta, t, s).T
    vx, vy = np.sin(theta), -np.cos(theta)
    scale = 1.0 + np.abs(x) + np.abs(y) + p
    assert np.all(np.abs(p + x * vy - y * vx) <= 1e-12 * scale)


def test_apply_line_example():
    # the translation (1, 1, 1) moves each line of normal angle 0 one unit
    # along its normal and lifts its base point by 1 + (2 p + 1), over the
    # broadcast shape of the chart arrays
    p, th, t = line_chart_image(
        PshMotion(1.0, 1.0, 1.0, 0.0), np.array([[1.0], [0.0]]), np.zeros(3), 0.0
    )
    assert p.shape == th.shape == t.shape == (2, 3)
    assert p.tolist() == [[2.0] * 3, [1.0] * 3]
    assert th.tolist() == [[0.0] * 3] * 2
    assert t.tolist() == [[4.0] * 3, [2.0] * 3]


def test_apply_line_matches_pointwise_action():
    # the motion maps the points of a line onto its chart image, on
    # either sheet of p'
    rng = np.random.default_rng(606)
    for _ in range(200):
        m = random_motion(rng, 2.0)
        g = random_line(rng)
        p, theta, _ = img = line_chart_image(m, *g)
        ct, st = np.cos(theta), np.sin(theta)
        q = move(m, line_points(*g, rng.uniform(-3.0, 3.0, 10)))
        # recover the parameter of q on the image line by projecting its
        # xy-offset from the base point onto the unit direction
        s_img = (q[:, 0] - p * ct) * st - (q[:, 1] - p * st) * ct
        assert_close(line_points(*img, s_img), q, 1e-10)


def test_line_chart_image_is_smooth_chart():
    # no folding onto p >= 0 and no reduction of theta
    p, th, t = line_chart_image(PshMotion(1.0, 1.0, 1.0, 0.0), 1.0, 0.0, 0.0)
    assert (p, th, t) == (2.0, 0.0, 4.0)
    p, th, t = line_chart_image(PshMotion(-2.0, 0.0, 0.0, 0.0), 1.0, 0.0, 0.5)
    assert p == -1.0 and th == 0.0 and t == 0.5
    _, th, _ = line_chart_image(PshMotion(0.0, 0.0, 0.0, 4.0), 1.0, 4.0, 0.0)
    assert th == 8.0


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
        return (*line_points(p, theta, t, h), theta + 0.5 * math.pi)

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


def test_levi_length_fixed_plane_agrees():
    # in the frame {X1(A), X2(A), T} of the start point A = gamma(s0) the
    # velocity (sin, -cos, p) has no T-part and a unit horizontal part, so
    # the segment's Levi length, measured in that one contact plane, is
    # s1 - s0; one row of doubles per random_line, s0 and s1 - s0
    rng = np.random.default_rng(313)
    u = rng.random((500, 5))
    p, theta, t, s0, ds = (u * [2.0, 2.0 * np.pi, 4.0, 4.0, 3.0] + [0.0, 0.0, -2.0, -2.0, 0.0]).T
    ax, ay, _ = line_points(p, theta, t, s0).T
    vx, vy = np.sin(theta), -np.cos(theta)
    assert np.all(np.abs(p - (vx * ay - vy * ax)) <= 1e-9 * (1.0 + p))
    assert np.all(np.abs(np.hypot(vx, vy) * ds - ds) <= 1e-12 * (1.0 + ds))
