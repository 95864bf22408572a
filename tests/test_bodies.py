"""Convex bodies: membership, exact chords, bounds, and rigid images."""

import itertools
import math

import numpy as np
import pytest

from conftest import make_acceptance_bodies, random_line, random_motion
from h1geom import (
    Ball,
    Box,
    CapabilityError,
    ChordInterval,
    Ellipsoid,
    HorizontalLine,
    Point,
    Polytope,
    PshMotion,
    line_point_at,
    motion_affine,
    p_area,
    psh_apply_line,
    transform_body,
)
from h1geom.bodies import _direction, _solve_chord_quadratic

BODIES = make_acceptance_bodies()


def unit_cube_polytope() -> Polytope:
    normals = np.vstack([np.eye(3), -np.eye(3)])
    offsets = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    return Polytope(normals, offsets)


def test_chord_interval():
    empty = ChordInterval.empty()
    assert empty.is_empty and empty.sigma == 0.0
    full = ChordInterval(-1.0, 2.0)
    assert not full.is_empty and full.sigma == 3.0
    grazing = ChordInterval(0.5, 0.5)
    assert grazing.sigma == 0.0 and not grazing.is_empty
    with pytest.raises(ValueError):
        ChordInterval(1.0, 0.0)
    with pytest.raises(ValueError):
        ChordInterval(math.nan, 0.0)


def test_direction_is_cos_and_sin_within_a_few_ulp():
    eps = np.finfo(float).eps
    ulp_pi = math.ulp(math.pi)
    special = [
        0.0,
        math.pi / 2,
        math.pi,
        3 * math.pi / 2,
        2 * math.pi - math.ulp(2 * math.pi),
        math.pi - ulp_pi,
        math.pi + ulp_pi,
        1e-300,
        -1e-300,
        -0.3,
        -math.pi / 2,
        -4.0,
        -50.0,
        2 * math.pi,
        2 * math.pi + 0.3,
        7.0,
        100.0,
        1e5,
    ]
    rng = np.random.default_rng(2723)
    theta = np.concatenate([special, rng.uniform(0.0, 2.0 * math.pi, 1_000_000)])
    ct, st = _direction(theta)
    assert np.all(np.abs(ct - np.cos(theta)) <= 4.0 * eps)
    assert np.all(np.abs(st - np.sin(theta)) <= 4.0 * eps)
    assert np.all(np.abs(ct * ct + st * st - 1.0) <= 4.0 * eps)
    # the face-plane lines of a box rely on den = +-0 at theta = 0
    c0, s0 = _direction(np.zeros(1))
    assert c0[0] == 1.0 and s0[0] == 0.0


def test_chord_kernels_call_no_sin_or_cos(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the direction comes from one half-angle tan")

    rng = np.random.default_rng(2724)
    bodies = dict(BODIES)
    bodies["polytope-image"] = transform_body(random_motion(rng, 1.0), BODIES["polytope"])
    bodies["ellipsoid-image"] = transform_body(random_motion(rng, 1.0), BODIES["ellipsoid"])
    p, theta, t = rng.uniform(0.0, 1.0, (3, 100))
    monkeypatch.setattr(np, "cos", refuse)
    monkeypatch.setattr(np, "sin", refuse)
    for name, body in bodies.items():
        assert body.chord_batch(p, theta, t)[2].any(), name
        assert not body.chord(HorizontalLine(0.0, 0.3, 0.0)).is_empty, name


def test_ball_chord_examples():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    for theta in (0.0, 0.9, math.pi / 2, 4.0):
        chord = ball.chord(HorizontalLine(0.0, theta, 0.0))
        assert abs(chord.s_in + 1.0) < 1e-12 and abs(chord.s_out - 1.0) < 1e-12
    assert ball.chord(HorizontalLine(2.0, 0.0, 0.0)).is_empty
    # chords above or below the equator never hit
    assert ball.chord(HorizontalLine(0.0, 0.0, 1.5)).is_empty


def test_ball_tangent_line_is_degenerate_hit():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    # at t = 0 the line with p = 1 grazes the equator
    chord = ball.chord(HorizontalLine(1.0, 0.3, 0.0))
    assert not chord.is_empty
    assert chord.sigma == 0.0
    assert ball.chord(HorizontalLine(1.0 + 1e-5, 0.3, 0.0)).is_empty
    # at every angle, however cos^2 + sin^2 rounds: the tangent point is
    # the base point (b = 0), so only the tolerance on c keeps the hit
    theta = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    for radius in (1.0, 0.65, 3.0):
        ball = Ball((0.0, 0.0, 0.0), radius)
        s_lo, s_hi, hit = ball.chord_batch(np.full_like(theta, radius), theta, 0.0 * theta)
        assert hit.all() and np.all(s_hi - s_lo <= 1e-6), radius
        miss = ball.chord_batch(np.full_like(theta, radius * (1.0 + 1e-9)), theta, 0.0 * theta)
        assert not miss[2].any(), radius
    # same contact through the scaled chart of an ellipsoid; rounding may
    # leave a sliver of chord no larger than sqrt(tolerance)
    ell = Ellipsoid((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
    chord = ell.chord(HorizontalLine(2.0, 0.9, 0.0))
    assert not chord.is_empty and chord.sigma <= 1e-6


def test_box_chord_example():
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    chord = box.chord(HorizontalLine(0.0, math.pi / 2, 0.0))
    assert abs(chord.s_in + 1.0) < 1e-12 and abs(chord.s_out - 1.0) < 1e-12
    # the line through x = p >= 0 along -y at height t
    chord = box.chord(HorizontalLine(0.5, 0.0, 0.25))
    assert not chord.is_empty
    mid = line_point_at(HorizontalLine(0.5, 0.0, 0.25), 0.5 * (chord.s_in + chord.s_out))
    assert box.contains(mid)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Ball((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Ball((0.0, math.nan, 0.0), 1.0)
    with pytest.raises(ValueError):
        Box((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Ellipsoid((0.0, 0.0, 0.0), (1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        Ellipsoid.from_linear((0.0, 0.0, 0.0), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Polytope(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        Polytope(np.vstack([np.eye(3), [[0.0, 0.0, 0.0]]]), np.ones(4))


def test_polytope_unbounded_and_empty_raise():
    slab = np.vstack([np.eye(3)[:2], -np.eye(3)[:2]])
    with pytest.raises(ValueError):
        Polytope(slab, np.ones(4))
    with pytest.raises(ValueError, match="unbounded"):
        Polytope([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [1.0, 0.0])
    contradictory = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        Polytope(contradictory, np.array([-1.0, -1.0]))
    cube = np.vstack([np.eye(3), -np.eye(3)])
    # the unit square at z = 0: bounded, but no interior
    with pytest.raises(ValueError, match="empty interior"):
        Polytope(cube, np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    # the cube cut off by x >= 2: full rank, no point at all
    with pytest.raises(ValueError, match="empty interior"):
        Polytope(np.vstack([cube, [-1.0, 0.0, 0.0]]), np.array([1, 1, 1, 0, 0, 0, -2.0]))
    # the positive octant: full rank, edges running to infinity
    with pytest.raises(ValueError, match="unbounded"):
        Polytope(-np.eye(3), np.zeros(3))


def test_polytope_vertices_on_more_than_three_planes():
    # a square pyramid whose apex lies on its four side planes, and the
    # octahedron |x| + |y| + |z| <= 1, whose six vertices lie on four
    pyramid = Polytope(
        [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]], [1, 1, 1, 1, 0]
    )
    octahedron = Polytope(list(itertools.product((-1.0, 1.0), repeat=3)), np.ones(8))
    for body, corners, triangles in (
        (pyramid, [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)], 6),
        (octahedron, np.vstack([np.eye(3), -np.eye(3)]), 8),
    ):
        v = body.vertices
        assert len(v) == len(corners)
        assert np.abs(np.sort(v, axis=0) - np.sort(np.asarray(corners, float), axis=0)).max() < 1e-15
        assert abs(body.volume_exact() - 4.0 / 3.0) <= 1e-15
        assert np.array_equal(body.interior_point(), v.mean(axis=0))
        patches = body.boundary_patches()
        assert len(patches) == triangles
        for patch in patches:
            # each triangle lies in its facet plane, with that plane's normal
            k = np.argmax(body.normals @ patch.normal)
            assert np.allclose(body.normals[k], patch.normal, rtol=0.0, atol=1e-15)
            for q in (patch.p0, patch.p1, patch.p2):
                assert abs(body.normals[k] @ q - body.offsets[k]) <= 1e-15


def test_polytope_cube_matches_box():
    cube = unit_cube_polytope()
    box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert abs(cube.volume_exact() - 1.0) < 1e-12
    assert len(cube.vertices) == 8
    rng = np.random.default_rng(1234)
    pts = rng.uniform(-0.5, 1.5, size=(5000, 3))
    assert np.array_equal(cube.contains_batch(pts), box.contains_batch(pts))
    p = rng.uniform(0.0, 1.5, 2000)
    theta = rng.uniform(0.0, 2.0 * math.pi, 2000)
    t = rng.uniform(-1.0, 2.0, 2000)
    lo_a, hi_a, hit_a = cube.chord_batch(p, theta, t)
    lo_b, hi_b, hit_b = box.chord_batch(p, theta, t)
    assert np.array_equal(hit_a, hit_b)
    assert np.allclose(lo_a[hit_a], lo_b[hit_b], atol=1e-9)
    assert np.allclose(hi_a[hit_a], hi_b[hit_b], atol=1e-9)


def test_interior_points_and_bounds():
    rng = np.random.default_rng(555)
    for name, body in BODIES.items():
        assert body.contains(Point(*body.interior_point()))
        b = body.bounds()
        c = body.interior_point()
        pts = c + rng.uniform(-3.0, 3.0, size=(4000, 3))
        inside = pts[body.contains_batch(pts)]
        assert len(inside) > 0, name
        assert np.all(np.hypot(inside[:, 0], inside[:, 1]) <= b.r_xy + 1e-9)
        assert np.all(inside[:, 2] >= b.z_min - 1e-9)
        assert np.all(inside[:, 2] <= b.z_max + 1e-9)


def test_chord_membership_consistency():
    # the set-level meaning of a chord: interior parameters are inside,
    # parameters just past the endpoints are outside
    rng = np.random.default_rng(321)
    n = 10_000
    for name, body in BODIES.items():
        p = rng.uniform(0.0, body.bounds().r_xy, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(body.bounds().z_min - 1.0, body.bounds().z_max + 1.0, n)
        s_lo, s_hi, hit = body.chord_batch(p, theta, t)
        solid = hit & ((s_hi - s_lo) > 1e-6)
        ct, st = np.cos(theta), np.sin(theta)

        def at(s):
            return np.stack(
                [p * ct + s * st, p * st - s * ct, t + s * p], axis=-1
            )

        eps = 1e-9 * (1.0 + np.abs(s_lo) + np.abs(s_hi))
        mid = at(0.5 * (s_lo + s_hi))
        assert body.contains_batch(mid[solid]).all(), name
        assert not body.contains_batch(at(s_hi + eps)[solid]).any(), name
        assert not body.contains_batch(at(s_lo - eps)[solid]).any(), name
        # missed lines have no inside points along a coarse sweep
        miss = ~hit
        for s in np.linspace(-3.0, 3.0, 7):
            assert not body.contains_batch(at(np.full(n, s))[miss]).any(), name


def test_polytope_chord_against_dense_sampling():
    poly = BODIES["polytope"]
    rng = np.random.default_rng(98)
    step = 1e-3
    grid = np.arange(-4.0, 4.0, step)
    checked = 0
    for _ in range(100):
        g = random_line(rng, p_max=1.8, t_max=1.5)
        pts = np.stack(
            [
                g.p * math.cos(g.theta) + grid * math.sin(g.theta),
                g.p * math.sin(g.theta) - grid * math.cos(g.theta),
                g.t + grid * g.p,
            ],
            axis=-1,
        )
        mask = poly.contains_batch(pts)
        chord = poly.chord(g)
        if not mask.any():
            assert chord.is_empty or chord.sigma <= 2.0 * step
            continue
        checked += 1
        s_in_dense = grid[mask][0]
        s_out_dense = grid[mask][-1]
        assert not chord.is_empty
        assert abs(chord.s_in - s_in_dense) <= 2.0 * step
        assert abs(chord.s_out - s_out_dense) <= 2.0 * step
    assert checked > 20


def test_transform_body_types():
    ball = Ball((0.2, -0.1, 0.3), 0.8)
    box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 0.5))

    vertical = PshMotion(0.0, 0.0, 2.0, 0.7)
    img = transform_body(vertical, ball)
    assert isinstance(img, Ball) and img.radius == ball.radius

    sheared = transform_body(PshMotion(1.0, 0.0, 0.0, 0.0), ball)
    assert isinstance(sheared, Ellipsoid)

    img = transform_body(PshMotion(0.0, 0.0, -1.0, 0.0), box)
    assert isinstance(img, Box)
    assert np.allclose(img.lo, [0.0, 0.0, -1.0]) and np.allclose(img.hi, [1.0, 2.0, -0.5])

    img = transform_body(PshMotion(0.5, 0.0, 0.0, 0.3), box)
    assert isinstance(img, Polytope)

    img = transform_body(PshMotion(0.1, 0.2, 0.3, 0.4), BODIES["polytope"])
    assert isinstance(img, Polytope)

    img = transform_body(PshMotion(0.1, 0.2, 0.3, 0.4), BODIES["ellipsoid"])
    assert isinstance(img, Ellipsoid)

    with pytest.raises(CapabilityError):
        transform_body(vertical, object())


def test_transform_preserves_volume():
    rng = np.random.default_rng(4321)
    for name, body in BODIES.items():
        for _ in range(3):
            m = random_motion(rng, 1.5)
            img = transform_body(m, body)
            v0, v1 = body.volume_exact(), img.volume_exact()
            assert abs(v0 - v1) <= 1e-8 * max(1.0, v0), name


def test_membership_equivariance():
    rng = np.random.default_rng(888)
    n = 10_000
    for name, body in BODIES.items():
        c = body.interior_point()
        pts = c + rng.uniform(-2.0, 2.0, size=(n, 3))
        for _ in range(3):
            m = random_motion(rng, 1.5)
            img = transform_body(m, body)
            a_mat, q = motion_affine(m)
            moved = pts @ a_mat.T + q
            assert np.array_equal(
                img.contains_batch(moved), body.contains_batch(pts)
            ), name


def test_chord_length_is_motion_invariant():
    rng = np.random.default_rng(777)
    n = 10_000
    for name, body in BODIES.items():
        m = random_motion(rng, 1.2)
        img = transform_body(m, body)
        lines = [random_line(rng, p_max=1.8, t_max=2.0) for _ in range(n)]
        p = np.array([g.p for g in lines])
        theta = np.array([g.theta for g in lines])
        t = np.array([g.t for g in lines])
        s_lo, s_hi, hit = body.chord_batch(p, theta, t)
        moved = [psh_apply_line(m, g) for g in lines]
        mp = np.array([g.p for g in moved])
        mtheta = np.array([g.theta for g in moved])
        mt = np.array([g.t for g in moved])
        m_lo, m_hi, m_hit = img.chord_batch(mp, mtheta, mt)
        solid = hit & ((s_hi - s_lo) > 1e-9)
        assert (m_hit[solid]).all(), name
        sigma = s_hi[solid] - s_lo[solid]
        sigma_img = m_hi[solid] - m_lo[solid]
        assert np.all(np.abs(sigma - sigma_img) <= 1e-10 * (1.0 + sigma)), name


def test_quadratic_form():
    e = BODIES["ellipsoid"]
    q = e.quadratic_form()
    assert q.shape == (4, 4) and np.allclose(q, q.T)

    def qval(pts):
        pts = np.atleast_2d(pts)
        hom = np.hstack([np.ones((len(pts), 1)), pts])
        return np.einsum("ni,ij,nj->n", hom, q, hom)

    assert qval(e.center)[0] < 0.0
    rng = np.random.default_rng(31)
    u = rng.normal(size=(200, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    on_boundary = e.center + u @ e.lin.T
    assert np.all(np.abs(qval(on_boundary)) < 1e-10)
    outside = e.center + 1.5 * (u @ e.lin.T)
    assert np.all(qval(outside) > 0.0)


def test_quadratic_form_of_rigid_image():
    # transformed quadrics stay exact: boundary points map to the zero
    # set of the image's quadratic form
    rng = np.random.default_rng(32)
    ball = Ball((0.1, 0.2, -0.3), 0.9)
    m = random_motion(rng, 1.5)
    img = transform_body(m, ball)
    assert isinstance(img, Ellipsoid)
    q = img.quadratic_form()
    a_mat, qvec = motion_affine(m)
    u = rng.normal(size=(500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    boundary = np.array([0.1, 0.2, -0.3]) + 0.9 * u
    moved = boundary @ a_mat.T + qvec
    hom = np.hstack([np.ones((len(moved), 1)), moved])
    vals = np.einsum("ni,ij,nj->n", hom, q, hom)
    assert np.all(np.abs(vals) < 1e-10)


def test_scalar_wrappers():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    assert ball.contains(Point(0.0, 0.0, 0.0))
    assert not ball.contains(Point(2.0, 0.0, 0.0))
    assert ball.contains(Point(1.0 + 1e-7, 0.0, 0.0), tol=1e-6)
    chord = ball.chord(HorizontalLine(0.5, 1.0, 0.0))
    assert isinstance(chord, ChordInterval)
    assert abs(chord.sigma - 2.0 * math.sqrt(1.0 - 0.25) / math.sqrt(1.25)) < 1e-12


def line_rays(p, theta, t) -> tuple[np.ndarray, np.ndarray]:
    """Base points and velocities (N, 3) of lines given by coordinate
    arrays, on the kernels' own directions: the reference formulas then
    check the kernels' arithmetic, not the rounding of cos and sin."""
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    ct, st = _direction(theta)
    base = np.stack(np.broadcast_arrays(p * ct, p * st, t), axis=-1)
    direction = np.stack(np.broadcast_arrays(st, -ct, p), axis=-1)
    return base, direction


def reference_ellipsoid_chords(body: Ellipsoid, p, theta, t):
    """The quadric chord from (N, 3) stacks: map the line's base point
    and velocity to the unit ball's frame and solve |w + s u|^2 = 1."""
    base, u = line_rays(p, theta, t)
    wq = (base - body.center) @ np.linalg.inv(body.lin).T
    uq = u @ np.linalg.inv(body.lin).T
    a = np.sum(uq * uq, axis=-1)
    b = 2.0 * np.sum(wq * uq, axis=-1)
    c = np.sum(wq * wq, axis=-1) - 1.0
    return _solve_chord_quadratic(a, b, c)


def full_quadric_chords(body: Ellipsoid, p, theta, t):
    """The quadric chord with every entry of M and c multiplied in and
    the discriminant's scale taken from b^2 and 4ac alone: the kernel
    that skips zero entries must give bitwise the same chords."""
    p = np.asarray(p, dtype=float)
    ct, st = _direction(theta)
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = body._metric.tolist()
    cx, cy, cz = body.center.tolist()
    w0 = p * ct - cx
    w1 = p * st - cy
    w2 = t - cz
    mu0 = m00 * st - m01 * ct + m02 * p
    mu1 = m01 * st - m11 * ct + m12 * p
    mu2 = m02 * st - m12 * ct + m22 * p
    a = st * mu0 - ct * mu1 + p * mu2
    b = 2.0 * (w0 * mu0 + w1 * mu1 + w2 * mu2)
    c = (
        w0 * (m00 * w0 + 2.0 * (m01 * w1 + m02 * w2))
        + w1 * (m11 * w1 + 2.0 * m12 * w2)
        + m22 * (w2 * w2)
        - 1.0
    )
    disc = b * b - 4.0 * a * c
    hit = disc >= -1e-12 * (b * b + np.abs(4.0 * a * c))
    sq = np.sqrt(np.maximum(np.where(hit, disc, 0.0), 0.0))
    return (-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a), hit


def test_ellipsoid_chords_match_stacked_reference():
    rng = np.random.default_rng(2718)
    quadrics = {
        "ellipsoid": BODIES["ellipsoid"],
        "ball": BODIES["ball"],
        "off-centre ball": Ball((0.4, -0.3, 0.2), 0.65),
    }
    for k in range(4):
        image = transform_body(random_motion(rng, 1.5), BODIES["ellipsoid"])
        quadrics[f"ellipsoid-image{k}"] = image
    n = 10_000
    for name, body in quadrics.items():
        b = body.bounds()
        p = rng.uniform(0.0, b.r_xy, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(b.z_min - 1.0, b.z_max + 1.0, n)
        # lines on the axis and lines at theta = 0 make products of +-0
        p[: n // 10] = 0.0
        theta[n // 10 : n // 5] = 0.0
        lo, hi, hit = body.chord_batch(p, theta, t)
        ref_lo, ref_hi, ref_hit = reference_ellipsoid_chords(body, p, theta, t)
        assert np.array_equal(hit, ref_hit), name
        assert hit.sum() > n // 20, name
        for s, ref in ((lo, ref_lo), (hi, ref_hi)):
            err = np.abs(s[hit] - ref[hit])
            assert np.all(err <= 1e-12 * (1.0 + np.abs(ref[hit]))), name
        # skipping zero entries of M and c changes no bit
        for got, want in zip((lo, hi, hit), full_quadric_chords(body, p, theta, t)):
            assert np.array_equal(got, want), name


def test_ball_is_the_ellipsoid_with_lin_r_identity():
    rng = np.random.default_rng(1618)
    n = 10_000
    for center, radius in (((0.0, 0.0, 0.0), 1.0), ((0.4, -0.3, 0.2), 0.65)):
        ball = Ball(center, radius)
        assert isinstance(ball, Ellipsoid) and type(ball) is Ball
        same = Ellipsoid.from_linear(center, radius * np.eye(3))
        p = rng.uniform(0.0, 2.0, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(-2.0, 2.0, n)
        for got, want in zip(ball.chord_batch(p, theta, t), same.chord_batch(p, theta, t)):
            assert np.array_equal(got, want)


def reference_polytope_chords(body: Polytope, p, theta, t):
    """The halfspace chord from (N, H) stacks: every line against every
    halfspace at once, entering and leaving ratios picked by np.where."""
    base, u = line_rays(p, theta, t)
    denom = u @ body.normals.T
    num = body.offsets - base @ body.normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / denom
    s_lo = np.max(np.where(denom < 0.0, ratio, -np.inf), axis=-1)
    s_hi = np.min(np.where(denom > 0.0, ratio, np.inf), axis=-1)
    feasible = np.all((denom != 0.0) | (num >= 0.0), axis=-1)
    hit = feasible & (s_lo <= s_hi) & np.isfinite(s_lo) & np.isfinite(s_hi)
    return s_lo, s_hi, hit


def reference_box_chords(lo, hi, p, theta, t):
    """The slab chord of the box [lo, hi]: clip the line against one
    axis slab at a time."""
    base, u = line_rays(p, theta, t)
    s_lo = np.full(len(base), -np.inf)
    s_hi = np.full(len(base), np.inf)
    for ax in range(3):
        d = u[:, ax]
        b = base[:, ax]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo[ax] - b) / d
            tb = (hi[ax] - b) / d
        parallel = d == 0.0
        in_slab = (b >= lo[ax]) & (b <= hi[ax])
        s_lo = np.where(
            parallel, np.where(in_slab, s_lo, np.inf), np.maximum(s_lo, np.minimum(ta, tb))
        )
        s_hi = np.where(
            parallel, np.where(in_slab, s_hi, -np.inf), np.minimum(s_hi, np.maximum(ta, tb))
        )
    return s_lo, s_hi, s_lo <= s_hi


def line_through(x, theta) -> HorizontalLine:
    """The horizontal line of direction angle theta (theta + pi if that
    makes p >= 0) through the point x = (p cos + s sin, p sin - s cos,
    t + s p)."""
    ct, st = math.cos(theta), math.sin(theta)
    p = x[0] * ct + x[1] * st
    s = x[0] * st - x[1] * ct
    if p < 0.0:
        p, theta = -p, theta + math.pi
    return HorizontalLine(p, theta % (2.0 * math.pi), x[2] - s * p)


def lines_arrays(lines):
    return tuple(np.array([getattr(g, k) for g in lines]) for k in ("p", "theta", "t"))


def random_planar_lines(rng, body: Polytope, n=10_000):
    """n lines over the body's window: a tenth at theta in {0, pi/2, pi,
    3 pi/2}, a tenth at p = 0 and a tenth with both."""
    b = body.bounds()
    p = rng.uniform(0.0, b.r_xy, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    t = rng.uniform(b.z_min - 1.0, b.z_max + 1.0, n)
    k = n // 10
    quarter_turns = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    theta[:k] = rng.choice(quarter_turns, k)
    theta[2 * k : 3 * k] = rng.choice(quarter_turns, k)
    p[k : 3 * k] = 0.0
    return p, theta, t


def vertex_lines(rng, body: Polytope, k=8):
    """k lines through each vertex, one of them at theta = 0."""
    lines = []
    for x in body.vertices:
        lines.append(line_through(x, 0.0))
        lines.extend(line_through(x, phi) for phi in rng.uniform(0.0, 2.0 * math.pi, k - 1))
    return lines


def face_plane_lines(body: Box):
    """Lines through the centre of each face that lie in its plane with
    den = +-0 and num = 0 exactly: theta = 0 (sin 0 = 0) on the faces
    normal to x that p >= 0 reaches, p = 0 on the faces normal to z."""
    lines = []
    for normal, offset in zip(body.normals, body.offsets):
        c = 0.5 * (body.lo + body.hi)
        if normal[0] != 0.0:
            c[0] = normal[0] * offset
            if c[0] >= 0.0:
                lines.append(HorizontalLine(c[0], 0.0, c[2] + c[1] * c[0]))
        elif normal[2] != 0.0:
            theta = math.atan2(c[0], -c[1]) % (2.0 * math.pi)
            lines.append(HorizontalLine(0.0, theta, normal[2] * offset))
    return lines


def planar_bodies():
    """The acceptance polytope, the unit cube as a Box, four seeded
    motion images of each, and an off-origin box."""
    rng = np.random.default_rng(3141)
    bodies = {"polytope": BODIES["polytope"], "box": BODIES["box"]}
    for k in range(4):
        for name in ("polytope", "box"):
            bodies[f"{name}-image{k}"] = transform_body(random_motion(rng, 1.5), BODIES[name])
    bodies["off-origin box"] = Box((0.3, -0.2, 0.1), (1.4, 0.9, 0.8))
    return bodies


def assert_chords_match(got, want, name):
    lo, hi, hit = got
    ref_lo, ref_hi, ref_hit = want
    assert np.array_equal(hit, ref_hit), name
    for s, ref in ((lo, ref_lo), (hi, ref_hi)):
        err = np.abs(s[hit] - ref[hit])
        assert np.all(err <= 1e-12 * (1.0 + np.abs(ref[hit]))), name


def test_polytope_chords_match_stacked_and_slab_references():
    rng = np.random.default_rng(2719)
    for name, body in planar_bodies().items():
        p, theta, t = random_planar_lines(rng, body)
        got = body.chord_batch(p, theta, t)
        assert got[2].sum() > len(p) // 50, name
        assert_chords_match(got, reference_polytope_chords(body, p, theta, t), name)
        if isinstance(body, Box):
            slab = reference_box_chords(body.lo, body.hi, p, theta, t)
            assert_chords_match(got, slab, name)


def test_box_chords_on_face_planes_and_vertices():
    # the axis faces make den an exact +-0: a line in a face plane meets
    # the box along the face, and the box's chords are bitwise the slab
    # kernel's
    rng = np.random.default_rng(2720)
    boxes = {
        "unit cube": BODIES["box"],
        "off-origin box": Box((0.3, -0.2, 0.1), (1.4, 0.9, 0.8)),
        "box about the origin": Box((-0.5, -0.4, -0.3), (0.6, 0.7, 0.8)),
    }
    for name, box in boxes.items():
        in_face = face_plane_lines(box)
        assert len(in_face) >= 3, name
        p, theta, t = lines_arrays(in_face + vertex_lines(rng, box))
        got = box.chord_batch(p, theta, t)
        assert got[2][: len(in_face)].all(), name
        assert_chords_match(got, reference_polytope_chords(box, p, theta, t), name)
        ref_lo, ref_hi, ref_hit = reference_box_chords(box.lo, box.hi, p, theta, t)
        assert np.array_equal(got[2], ref_hit), name
        assert np.array_equal(got[0][ref_hit], ref_lo[ref_hit]), name
        assert np.array_equal(got[1][ref_hit], ref_hi[ref_hit]), name


def test_polytope_chords_through_vertices_differ_only_on_the_boundary():
    # a line through a vertex, or in a tilted face's plane up to
    # round-off, touches the boundary only; there the two formulas may
    # round either way, but a chord one of them finds lies on the boundary
    rng = np.random.default_rng(2721)
    for name, body in planar_bodies().items():
        lines = vertex_lines(rng, body)
        for normal, offset in zip(body.normals, body.offsets):
            on_face = body.vertices[np.abs(body.vertices @ normal - offset) <= 1e-9]
            c = on_face.mean(axis=0)
            # through c, the direction (sin, -cos, p) is normal to n where
            # sin (n0 + n2 c1) + cos (n2 c0 - n1) = 0
            theta = math.atan2(normal[1] - normal[2] * c[0], normal[0] + normal[2] * c[1])
            lines.append(line_through(c, theta))
        p, theta, t = lines_arrays(lines)
        got = body.chord_batch(p, theta, t)
        want = reference_polytope_chords(body, p, theta, t)
        close = [
            np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)) for a, b in zip(got[:2], want[:2])
        ]
        differ = (got[2] != want[2]) | (got[2] & ~(close[0] & close[1]))
        for lo, hi, hit in (got, want):
            for s in (lo, hi, 0.5 * (lo + hi)):
                sel = differ & hit
                pts = np.stack(
                    [
                        p[sel] * np.cos(theta[sel]) + s[sel] * np.sin(theta[sel]),
                        p[sel] * np.sin(theta[sel]) - s[sel] * np.cos(theta[sel]),
                        t[sel] + s[sel] * p[sel],
                    ],
                    axis=-1,
                )
                slack = np.max(pts @ body.normals.T - body.offsets, axis=-1)
                assert np.all(np.abs(slack) <= 1e-9), name


def test_box_is_a_polytope_built_without_qhull(monkeypatch):
    import h1geom.bodies as bodies_module

    def refuse(*args, **kwargs):
        raise AssertionError("a Box is built from its corners")

    monkeypatch.setattr(bodies_module, "_hull_edges", refuse)
    box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert isinstance(box, Polytope) and type(box) is Box
    assert "chord_batch" in Box.__dict__ and "__init__" in Box.__dict__
    corners = {(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)}
    assert len(box.vertices) == 8
    assert {tuple(v) for v in box.vertices.tolist()} == corners
    off = Box((0.3, -0.2, 0.1), (1.4, 0.9, 0.8))
    assert {tuple(v) for v in off.vertices.tolist()} == {
        (x, y, z) for x in (0.3, 1.4) for y in (-0.2, 0.9) for z in (0.1, 0.8)
    }
    assert np.array_equal(box.interior_point(), [0.5, 0.5, 0.5])
    assert p_area(box).value == 5.5303914329284245
    assert box.volume_exact() == 1.0
