"""Convex bodies: membership, exact chords, support and reach, and rigid
images."""

import functools
import itertools
import math

import numpy as np
import pytest

from conftest import (
    cylinder,
    forget_line_pass,
    line_points,
    make_acceptance_bodies,
    quadratic_form,
    random_line,
    random_motion,
)
from h1geom import (
    Ball,
    Box,
    CapabilityError,
    ConvexBody,
    Ellipsoid,
    Polytope,
    PshMotion,
    estimate_line_measure,
    line_chart_image,
    motion_affine,
    p_area,
    transform_body,
)
from h1geom.bodies import _direction, _solve_chord_quadratic
from h1geom.estimators import line_window

BODIES = make_acceptance_bodies()


def inner_point(body) -> np.ndarray:
    """A point inside the body: an ellipsoid's centre or the mean of a
    polytope's vertices."""
    return body.center if isinstance(body, Ellipsoid) else body.vertices.mean(axis=0)


def unit_cube_polytope() -> Polytope:
    normals = np.vstack([np.eye(3), -np.eye(3)])
    offsets = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    return Polytope(normals, offsets)


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
        assert body.chord_batch(np.zeros(1), np.full(1, 0.3), np.zeros(1))[2][0], name


def test_ball_chord_examples():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    theta = np.array([0.0, 0.9, math.pi / 2, 4.0])
    s_lo, s_hi, hit = ball.chord_batch(np.zeros(4), theta, np.zeros(4))
    assert hit.all() and np.all(np.abs(s_lo + 1.0) < 1e-12) and np.all(np.abs(s_hi - 1.0) < 1e-12)
    # lines off the ball, or above or below the equator, never hit
    assert not ball.chord_batch(np.array([2.0, 0.0]), np.zeros(2), np.array([0.0, 1.5]))[2].any()


def test_ball_tangent_line_is_degenerate_hit():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    # at t = 0 the line with p = 1 grazes the equator, and p = 1 + 1e-5 misses
    s_lo, s_hi, hit = ball.chord_batch(np.array([1.0, 1.0 + 1e-5]), np.full(2, 0.3), np.zeros(2))
    assert hit.tolist() == [True, False]
    assert s_hi[0] - s_lo[0] == 0.0
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
    s_lo, s_hi, hit = ell.chord_batch(np.array([2.0]), np.array([0.9]), np.zeros(1))
    assert hit[0] and s_hi[0] - s_lo[0] <= 1e-6


def test_box_chord_example():
    box = Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    # the second line runs through x = p >= 0 along -y at height t
    s_lo, s_hi, hit = box.chord_batch(
        np.array([0.0, 0.5]), np.array([math.pi / 2, 0.0]), np.array([0.0, 0.25])
    )
    assert hit.all()
    assert abs(s_lo[0] + 1.0) < 1e-12 and abs(s_hi[0] - 1.0) < 1e-12
    mid = line_points(0.5, 0.0, 0.25, 0.5 * (s_lo[1] + s_hi[1]))
    assert box.contains_batch(mid[None])[0]


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


def _body_arrays(body):
    names = ("center", "lin", "_lin_inv", "_metric", "lo", "hi", "normals", "offsets",
             "_vertices", "_triangles", "_facet_normals")
    return {name: getattr(body, name) for name in names if hasattr(body, name)}


def test_bodies_are_values():
    # a body keeps its own copies of the caller's arrays: writing to them
    # afterwards leaves it as it was built, and its chords with it
    center, lin = np.array([0.1, -0.2, 0.3]), np.diag([1.0, 0.8, 1.2])
    lo, hi = np.zeros(3), np.ones(3)
    normals, offsets = np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)
    built = {
        "ellipsoid": (lambda: Ellipsoid.from_linear(center, lin), (center, lin)),
        "ball": (lambda: Ball(center, 1.0), (center,)),
        "box": (lambda: Box(lo, hi), (lo, hi)),
        "polytope": (lambda: Polytope(normals, offsets), (normals, offsets)),
    }
    p, theta, t = np.full(64, 0.3), np.linspace(0.0, 6.0, 64), np.linspace(-1.5, 1.5, 64)
    for name, (build, inputs) in built.items():
        body = build()
        before = {k: v.copy() for k, v in _body_arrays(body).items()}
        assert "center" in before or "normals" in before
        chords = body.chord_batch(p, theta, t)
        for a in inputs:
            a += 0.25
        for k, v in _body_arrays(body).items():
            assert np.array_equal(v, before[k]), (name, k)
        for a, b in zip(chords, body.chord_batch(p, theta, t)):
            np.testing.assert_array_equal(a, b)
        for a in inputs:
            a -= 0.25
        # and its own arrays refuse an in-place write
        for k, v in _body_arrays(body).items():
            with pytest.raises(ValueError):
                v[...] = 0.0
            assert not v.flags.writeable, (name, k)
        # nor can any attribute be rebound or deleted once set, so an
        # estimate after the refused rebinding is a fresh pass's
        before = estimate_line_measure(body, 20_000, 3)
        for k, v in vars(body).items():
            with pytest.raises(AttributeError):
                setattr(body, k, v + 5.0 if isinstance(v, (np.ndarray, float)) else v)
            with pytest.raises(AttributeError):
                delattr(body, k)
        again = estimate_line_measure(body, 20_000, 3)
        forget_line_pass()
        assert again == before == estimate_line_measure(body, 20_000, 3), name


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
        assert len(body._triangles) == triangles
        for corners, normal in zip(body._triangles, body._facet_normals):
            # each triangle lies in its facet plane, with that plane's normal
            k = np.argmax(body.normals @ normal)
            assert np.allclose(body.normals[k], normal, rtol=0.0, atol=1e-15)
            for q in corners:
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


def test_polytope_keeps_one_halfspace_per_facet():
    # the unit cube with a redundant halfspace and a repeated face (given
    # at twice the scale) keeps the cube's six halfspaces, so its chords
    # are bitwise the plain cube's; a rigid image keeps six as well.  The
    # vertex tolerance scales with the body, so a redundant halfspace far
    # from it changes nothing, however far
    cube = unit_cube_polytope()
    normals = np.vstack([cube.normals, [[1.0, 1.0, 1.0], [0.0, 2.0, 0.0]]])
    p, theta, t = random_planar_lines(np.random.default_rng(4474), cube)
    for far in (10.0, 1e9, 1e12):
        redundant = Polytope(normals, np.concatenate([cube.offsets, [far, 2.0]]))
        assert np.array_equal(redundant.normals, cube.normals)
        assert np.array_equal(redundant.offsets, cube.offsets)
        assert len(redundant.vertices) == 8
        for a, b in zip(redundant.chord_batch(p, theta, t), cube.chord_batch(p, theta, t)):
            assert np.array_equal(a, b)
        assert redundant.volume_exact() == pytest.approx(cube.volume_exact(), rel=1e-14, abs=0.0)
        assert p_area(redundant).value == pytest.approx(p_area(cube).value, rel=1e-14, abs=0.0)
        image = transform_body(random_motion(np.random.default_rng(4475), 1.0), redundant)
        assert len(image.normals) == 6
    # and so does the distance from the origin: a cube of side 1e-3 at
    # x = 1e6 builds, with its own volume
    side = 1e-3
    small = Polytope(cube.normals, [1e6 + side, side, side, -1e6, 0.0, 0.0])
    assert len(small.vertices) == 8 and len(small.normals) == 6
    assert small.volume_exact() == pytest.approx(side**3, rel=1e-6, abs=0.0)
    # a far halfspace widens _hull_edges' slack for a line parallel to a
    # plane, so the lines where a pentagonal prism's non-adjacent sides
    # meet, outside the prism, reach the ends; they are no vertices
    angle = 2.0 * math.pi * np.arange(5) / 5.0
    sides = np.column_stack([np.cos(angle), np.sin(angle), np.zeros(5)])
    normals = np.vstack([sides, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    offsets = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    prism = Polytope(normals, offsets)
    for far in (1e10, 1e12):
        redundant = Polytope(np.vstack([normals, [1.0, 1.0, 1.0]]), np.append(offsets, far))
        assert np.array_equal(redundant.vertices, prism.vertices)
        assert redundant.volume_exact() == prism.volume_exact()


def test_interior_points_and_bounds():
    rng = np.random.default_rng(555)
    for name, body in BODIES.items():
        c = inner_point(body)
        assert body.contains_batch(c[None])[0]
        r, z_min, z_max = cylinder(body)
        pts = c + rng.uniform(-3.0, 3.0, size=(4000, 3))
        inside = pts[body.contains_batch(pts)]
        assert len(inside) > 0, name
        assert np.all(np.hypot(inside[:, 0], inside[:, 1]) <= r + 1e-9)
        assert np.all(inside[:, 2] >= z_min - 1e-9)
        assert np.all(inside[:, 2] <= z_max + 1e-9)


def _sphere_points(count: int) -> np.ndarray:
    """``count`` points spread evenly over the unit sphere (a Fibonacci
    lattice): neighbours lie about sqrt(4 pi / count) apart."""
    z = 1.0 - (2.0 * np.arange(count) + 1.0) / count
    phi = np.arange(count) * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def test_support_against_vertices_and_boundary_points():
    # the acceptance bodies and three rigid images of each: a polytope's
    # support is the largest n.v over its vertices, a quadric's the
    # largest n.x over a dense set of boundary points c + L y, |y| = 1,
    # which falls short of it by at most about |L| spacing^2 / 2
    rng = np.random.default_rng(404)
    directions = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(40, 3))])
    directions[6:] /= np.linalg.norm(directions[6:], axis=1, keepdims=True)
    directions[-1] *= 2.5  # support is positively homogeneous
    sphere = _sphere_points(50_000)
    for name, body in BODIES.items():
        images = [transform_body(random_motion(rng, 1.0), body) for _ in range(3)]
        for k, b in enumerate([body, *images]):
            support = b.support(directions)
            assert support.shape == (len(directions),)
            if isinstance(b, Polytope):
                want = np.einsum("vk,nk->nv", b.vertices, directions).max(axis=1)
                np.testing.assert_allclose(support, want, rtol=0, atol=1e-12, err_msg=name)
                continue
            boundary = b.center + sphere @ b.lin.T
            assert np.allclose(b.contains_batch(boundary, tol=1e-12), True), (name, k)
            dense = (boundary @ directions.T).max(axis=0)
            reach = np.linalg.norm(b.lin, ord=2) * np.linalg.norm(directions, axis=1)
            gap = support - dense
            assert np.all(gap >= -1e-12 * reach), (name, k, gap.min())
            assert np.all(gap <= 1e-4 * reach), (name, k, gap.max())


class _SupportOnly(ConvexBody):
    """A body known only by its support function, as a new body kind
    would be before it grows any other query."""

    def __init__(self, body):
        self.body = body

    def support(self, directions):
        return self.body.support(directions)

    contains_batch = chord_batch = contains_body = horizontal_reach = volume_exact = None


def test_contains_body_table():
    # each inner in each outer, at the origin and moved 999 along x: the
    # decisions do not move with the pair, and the box that sticks out of
    # the outer box by 5e-7 is refused there
    poly = BODIES["polytope"]

    def pair_table(x):
        inners = {
            "ball": Ball((x, 0.0, 0.0), 0.4),
            "ellipsoid": Ellipsoid((x + 0.05, 0.0, 0.0), (0.4, 0.3, 0.35)),
            "box": Box((x - 0.3, -0.3, -0.3), (x + 0.3, 0.3, 0.3)),
            "box out": Box((x, -0.2, -0.2), (x + 0.5000005, 0.2, 0.2)),
        }
        outers = {
            "box": Box((x - 0.5, -0.5, -0.5), (x + 0.5, 0.5, 0.5)),
            "ball": Ball((x, 0.0, 0.0), 0.5),
            "polytope": Polytope(poly.normals, poly.offsets + x * poly.normals[:, 0]),
            "ellipsoid": Ellipsoid((x, 0.0, 0.0), (0.6, 0.45, 0.45)),
        }
        return {
            (o, i): outer.contains_body(inner)
            for o, outer in outers.items()
            for i, inner in inners.items()
        }

    nested = {
        ("box", "ball"), ("box", "ellipsoid"), ("box", "box"),
        ("ball", "ball"), ("ball", "ellipsoid"),
        ("polytope", "ball"), ("polytope", "ellipsoid"), ("polytope", "box"),
        ("polytope", "box out"),
        ("ellipsoid", "ball"), ("ellipsoid", "ellipsoid"),
    }
    for x in (0.0, 999.0):
        table = pair_table(x)
        assert len(table) == 16
        assert {pair for pair, inside in table.items() if inside} == nested, x
        assert all(type(inside) is bool for inside in table.values())
    # a polytope nests any body by its support; an ellipsoid nests only
    # polytopes and ellipsoids
    small = _SupportOnly(Ball((0.0, 0.0, 0.0), 0.4))
    assert poly.contains_body(small)
    assert not Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).contains_body(small)
    with pytest.raises(CapabilityError):
        Ball((0.0, 0.0, 0.0), 1.0).contains_body(small)


def test_chord_membership_consistency():
    # the set-level meaning of a chord: interior parameters are inside,
    # parameters just past the endpoints are outside
    rng = np.random.default_rng(321)
    n = 10_000
    for name, body in BODIES.items():
        r, z_min, z_max = cylinder(body)
        p = rng.uniform(0.0, r, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(z_min - 1.0, z_max + 1.0, n)
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
        mask = poly.contains_batch(line_points(*g, grid))
        (s_lo,), (s_hi,), (hit,) = poly.chord_batch(*(np.array([x]) for x in g))
        if not mask.any():
            assert not hit or s_hi - s_lo <= 2.0 * step
            continue
        checked += 1
        assert hit
        assert abs(s_lo - grid[mask][0]) <= 2.0 * step
        assert abs(s_hi - grid[mask][-1]) <= 2.0 * step
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
    # far images of the polytope are long in t with nearly parallel
    # facets, which pass closer to the vertices than 1e-9 of the extent:
    # each keeps all 12 vertices, and its volume up to the mapped
    # vertices' round-off
    poly = BODIES["polytope"]
    v0 = poly.volume_exact()
    for s in (1e4, 3e4, 1e5):
        img = transform_body(PshMotion(s, 0.3 * s, 0.1, 0.7), poly)
        assert len(img.vertices) == len(poly.vertices) == 12, s
        if s < 1e5:
            assert abs(img.volume_exact() - v0) <= 1e-7 * v0, s


def test_membership_equivariance():
    rng = np.random.default_rng(888)
    n = 10_000
    for name, body in BODIES.items():
        c = inner_point(body)
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
        lines = np.array([random_line(rng, p_max=1.8, t_max=2.0) for _ in range(n)]).T
        s_lo, s_hi, hit = body.chord_batch(*lines)
        # the unfolded image lines, with p' of either sign: a line and its
        # image share their chord's parameters
        moved = line_chart_image(m, *lines)
        assert (moved[0] < 0.0).any() and (moved[0] > 0.0).any(), name
        m_lo, m_hi, m_hit = img.chord_batch(*moved)
        solid = hit & ((s_hi - s_lo) > 1e-9)
        assert (m_hit[solid]).all(), name
        sigma = s_hi[solid] - s_lo[solid]
        sigma_img = m_hi[solid] - m_lo[solid]
        assert np.all(np.abs(sigma - sigma_img) <= 1e-10 * (1.0 + sigma)), name


def test_quadratic_form():
    e = BODIES["ellipsoid"]
    q = quadratic_form(e)
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
    q = quadratic_form(img)
    a_mat, qvec = motion_affine(m)
    u = rng.normal(size=(500, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    boundary = np.array([0.1, 0.2, -0.3]) + 0.9 * u
    moved = boundary @ a_mat.T + qvec
    hom = np.hstack([np.ones((len(moved), 1)), moved])
    vals = np.einsum("ni,ij,nj->n", hom, q, hom)
    assert np.all(np.abs(vals) < 1e-10)


def test_single_point_and_line_queries():
    ball = Ball((0.0, 0.0, 0.0), 1.0)
    points = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0 + 1e-7, 0.0, 0.0]])
    assert ball.contains_batch(points).tolist() == [True, False, False]
    assert ball.contains_batch(points[2:], tol=1e-6)[0]
    # at t = 0 the line meets the unit ball where p^2 + s^2 (1 + p^2) <= 1
    s_lo, s_hi, hit = ball.chord_batch(np.array([0.5]), np.array([1.0]), np.zeros(1))
    assert hit[0]
    assert abs(s_hi[0] - s_lo[0] - 2.0 * math.sqrt(1.0 - 0.25) / math.sqrt(1.25)) < 1e-12


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
    and velocity to the unit ball's frame and solve |w + s u|^2 = 1,
    a s^2 + 2 h s + c = 0 with h = w.u."""
    base, u = line_rays(p, theta, t)
    wq = (base - body.center) @ np.linalg.inv(body.lin).T
    uq = u @ np.linalg.inv(body.lin).T
    a = np.sum(uq * uq, axis=-1)
    h = np.sum(wq * uq, axis=-1)
    c = np.sum(wq * wq, axis=-1) - 1.0
    return _solve_chord_quadratic(a, h, c)


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
        r, z_min, z_max = cylinder(body)
        p = rng.uniform(0.0, r, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(z_min - 1.0, z_max + 1.0, n)
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


def line_through(x, theta) -> tuple[float, float, float]:
    """The chart (p, theta, t) of the horizontal line of direction angle
    theta (theta + pi if that makes p >= 0) through the point
    x = (p cos + s sin, p sin - s cos, t + s p)."""
    ct, st = math.cos(theta), math.sin(theta)
    p = x[0] * ct + x[1] * st
    s = x[0] * st - x[1] * ct
    if p < 0.0:
        p, theta = -p, theta + math.pi
    return p, theta % (2.0 * math.pi), x[2] - s * p


def lines_arrays(lines):
    return tuple(np.array(column) for column in zip(*lines))


def random_planar_lines(rng, body: Polytope, n=10_000):
    """n lines over the body's window: a tenth at theta in {0, pi/2, pi,
    3 pi/2}, a tenth at p = 0 and a tenth with both."""
    r, z_min, z_max = cylinder(body)
    p = rng.uniform(0.0, r, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    t = rng.uniform(z_min - 1.0, z_max + 1.0, n)
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
                lines.append((c[0], 0.0, c[2] + c[1] * c[0]))
        elif normal[2] != 0.0:
            theta = math.atan2(c[0], -c[1]) % (2.0 * math.pi)
            lines.append((0.0, theta, normal[2] * offset))
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


def left_sum(coeffs, arrays):
    """c0 a0 + c1 a1 + c2 a2 over the nonzero c, left to right from the
    first term, as the kernels add: no 0 + x turns a -0.0 into +0.0."""
    return functools.reduce(np.add, [c * a for c, a in zip(coeffs, arrays) if c])


def reference_facet_chords(body: Polytope, p, theta, t):
    """The per-facet clip: every line against every kept facet in order,
    side = +-inf by the sign of den routing each ratio, with neither
    slabs nor a bounding ball; the planar kernel's ends on a hit are
    bitwise these."""
    ct, st = _direction(theta)
    velocity = (st, ct, p)
    base = (p * ct, p * st, t)
    s_lo = np.full(len(p), -np.inf)
    s_hi = np.full(len(p), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for normal, d in zip(body.normals.tolist(), body.offsets.tolist()):
            den = left_sum((-normal[0], normal[1], -normal[2]), velocity)
            num = left_sum(normal, base) - d
            ratio = num / den
            side = np.copysign(np.inf, den)
            s_lo = np.fmax(s_lo, np.minimum(ratio, side))
            s_hi = np.fmin(s_hi, np.maximum(ratio, side))
    hit = (s_lo <= s_hi) & np.isfinite(s_lo) & np.isfinite(s_hi)
    return s_lo, s_hi, hit


def lines_through_points(x, theta):
    """The lines of direction angles theta through the points x (N, 3),
    as in ``line_through``."""
    ct, st = np.cos(theta), np.sin(theta)
    p = x[:, 0] * ct + x[:, 1] * st
    s = x[:, 0] * st - x[:, 1] * ct
    t = x[:, 2] - s * p
    flip = p < 0.0
    return np.abs(p), np.where(flip, theta + math.pi, theta) % (2.0 * math.pi), t


def bounding_ball_lines(rng, body: Polytope, n=4000):
    """Lines that test a planar kernel's cull and clip: through random
    points of the body and of the cube about the vertex centroid c (the
    cube's half-width 1.3 R, R the largest vertex distance from c),
    through points within 1e-3 R of each vertex, through each vertex
    tangent there to the spheres about c and about (0, 0, c3), in the
    plane of each facet through its centre, and grazing the cull's ball
    about (0, 0, c3) through the farthest vertex: t at either end of the
    ball's t-range for random (p, theta), and 1e-9 of its half-width
    inside and outside."""
    v = body.vertices
    c = v.mean(axis=0)
    radius = float(np.max(np.linalg.norm(v - c, axis=1)))
    inside = rng.dirichlet(np.ones(len(v)), n) @ v
    around = c + rng.uniform(-1.3 * radius, 1.3 * radius, (n, 3))
    lines = [lines_through_points(x, rng.uniform(0.0, 2.0 * math.pi, n)) for x in (inside, around)]
    near = np.repeat(v, 8, axis=0) + 1e-3 * radius * rng.normal(size=(8 * len(v), 3))
    lines.append(lines_through_points(near, rng.uniform(0.0, 2.0 * math.pi, len(near))))
    on_face = np.abs(v @ body.normals.T - body.offsets) <= 1e-9 * (1.0 + np.abs(body.offsets))
    centres = (on_face.T @ v) / on_face.sum(axis=0)[:, None]
    # through x the direction (sin, -cos, p) is normal to w where
    # sin (w0 + w2 x1) + cos (w2 x0 - w1) = 0
    axis = [0.0, 0.0, c[2]]
    for x, w in ((v, v - c), (v, v - axis), (centres, body.normals)):
        theta = np.arctan2(w[:, 1] - w[:, 2] * x[:, 0], w[:, 0] + w[:, 2] * x[:, 1])
        lines.append(lines_through_points(x, theta % (2.0 * math.pi)))
        lines.append(lines_through_points(x, (theta + math.pi) % (2.0 * math.pi)))
    # the line (p, theta, t) passes at distance d from (0, 0, c3) where
    # d^2 (1 + p^2) = p^2 (1 + p^2) + (t - c3)^2
    reach = float(np.max(np.linalg.norm(v - [0.0, 0.0, c[2]], axis=1)))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    p = rng.uniform(0.0, reach, n)
    half = np.sqrt((reach * reach - p * p) * (1.0 + p * p))
    for end in (-half, half):
        for scale in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            lines.append((p, theta, c[2] + scale * end))
    return tuple(np.concatenate(a) for a in zip(*lines))


def origin_face_lines(rng, n=2000):
    """The unit cube turned by 45 degrees about the y axis so that one
    face lies in the plane x + z = 0 (offset 0), and lines through points
    of that face with n.x0 = a x + a z cancelling to +0 from nonzero
    terms: t = -p cos exactly.  The face's own clip reads +0 - 0 = +0 for
    the numerator; the slab reads -0 - (+0) = -0."""
    a = math.sqrt(0.5)
    normals = [[a, 0.0, a], [-a, 0.0, -a], [a, 0.0, -a], [-a, 0.0, a], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    body = Polytope(normals, [1.0, 0.0, 0.5, 0.5, 0.5, 0.5])
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    p = rng.uniform(0.0, 0.3, n)
    ct, _ = _direction(theta)
    return body, (p, theta, -(p * ct))


def cull_bodies() -> dict:
    """The acceptance box and polytope, a rigid image of each at motion
    sizes 1, 10, 100 and 1000, the cube, the cube cut by x + y + z <= 2.5
    (three slabs and a lone facet) and the polytope translated to
    x = 1e3 ... 1e6, and the 200-halfspace polytope of
    ``facet_build_bodies``."""
    rng = np.random.default_rng(4481)
    poly = BODIES["polytope"]
    found = {"box": BODIES["box"], "polytope": poly}
    for scale in (1.0, 10.0, 1e2, 1e3):
        for name in ("box", "polytope"):
            motion = random_motion(rng, scale)
            found[f"{name}-image{scale:g}"] = transform_body(motion, BODIES[name])
    cut = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
    for x in (1e3, 1e4, 1e5, 1e6):
        shift = np.array([x, 0.0, 0.0])
        found[f"cube@{x:g}"] = Box(shift, shift + 1.0)
        cut_offsets = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.5]) + cut @ shift
        found[f"cut cube@{x:g}"] = Polytope(cut, cut_offsets)
        found[f"polytope@{x:g}"] = Polytope(poly.normals, poly.offsets + poly.normals @ shift)
    found["random-200"] = facet_build_bodies()["random-200"]
    return found


def assert_same_ends(got, want, name):
    """Ends equal as numbers, and bitwise wherever they are not zero: the
    slab and the order of the rows may give a zero end the other sign."""
    for a, b in zip(got, want):
        assert np.array_equal(a, b), name
        nonzero = b != 0.0
        assert np.array_equal(a[nonzero].view(np.uint8), b[nonzero].view(np.uint8)), name


def test_planar_chords_are_bitwise_the_per_facet_clip():
    # slabs, the rows clipped at once and the bounding-ball cull change no
    # hit and, but for the sign of a zero, no bit of a hit's ends; a culled
    # line is a miss with nan ends
    rng = np.random.default_rng(4482)
    for name, body in cull_bodies().items():
        p, theta, t = bounding_ball_lines(rng, body)
        lines = (p, theta, t)
        if isinstance(body, Box):
            in_face = lines_arrays(face_plane_lines(body))
            lines = tuple(np.concatenate(a) for a in zip(lines, in_face))
        got = body.chord_batch(*lines)
        ref_lo, ref_hi, ref_hit = reference_facet_chords(body, *lines)
        assert np.array_equal(got[2], ref_hit), name
        assert ref_hit.sum() >= len(p) // 8, name
        ends, ref_ends = [s[ref_hit] for s in got[:2]], [ref_lo[ref_hit], ref_hi[ref_hit]]
        assert_same_ends(ends, ref_ends, name)
        culled = np.isnan(got[0])
        assert np.array_equal(culled, np.isnan(got[1])) and not got[2][culled].any(), name
        if body._ball is None:
            assert not culled.any(), name
        else:
            assert culled.sum() > 500, name


def test_a_zero_end_may_take_the_other_sign():
    # on a face through the origin an end is 0, and n.x0 cancelling to +0
    # gives it the other sign in the slab than in the face's own clip
    body, lines = origin_face_lines(np.random.default_rng(4484))
    got = body.chord_batch(*lines)
    ref_lo, ref_hi, ref_hit = reference_facet_chords(body, *lines)
    assert np.array_equal(got[2], ref_hit) and ref_hit.all()
    assert_same_ends([s for s in got[:2]], [ref_lo, ref_hi], "origin face")
    zero = [np.flatnonzero(s == 0.0) for s in (ref_lo, ref_hi)]
    assert sum(len(z) for z in zero) == len(ref_hit)
    flipped = [np.signbit(a[z]) != np.signbit(b[z]) for a, b, z in zip(got[:2], (ref_lo, ref_hi), zero)]
    assert any(f.any() for f in flipped)


def test_opposite_facets_pair_into_slabs():
    # the pairing needs normals that are exact negatives, and a rigid image
    # of a box keeps all three pairs: it clips by slabs and runs no cull
    box, poly = BODIES["box"], BODIES["polytope"]
    assert box._slab_rows == 3 and len(box._row_offsets) == 3 and box._ball is None
    # the box's axis normals make three runs of one nonzero coordinate each
    assert [terms for _, terms in box._row_groups] == [(0,), (1,), (2,)]
    assert poly._slab_rows == 0 and len(poly._row_offsets) == 8 and poly._ball is not None
    rng = np.random.default_rng(4483)
    for scale in (1.0, 1e2, 1e3):
        for _ in range(20):
            image = transform_body(random_motion(rng, scale), box)
            assert type(image) is Polytope, scale
            assert image._slab_rows == 3 and len(image._row_offsets) == 3, scale
            assert image._ball is None, scale
    cut = Polytope(np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]]), [1, 1, 1, 0, 0, 0, 2.5])
    assert cut._slab_rows == 3 and len(cut._row_offsets) == 4 and cut._ball is not None


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
    assert p_area(box).value == 5.530391432928425
    assert box.volume_exact() == 1.0


def kernel_bodies() -> dict:
    """One body of every class with a chord kernel, off-centre and with
    tilted faces where the class allows them."""
    return {
        "ball": Ball((0.2, -0.1, 0.3), 0.9),
        "ellipsoid": BODIES["ellipsoid"],
        "box": Box((0.3, -0.2, 0.1), (1.4, 0.9, 0.8)),
        "polytope": BODIES["polytope"],
    }


def assert_same_bits(got, want, name):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name


def test_kernels_broadcast_bitwise():
    # a kernel writes into arrays of the broadcast shape: a scalar angle or
    # height, or a grid of (n, 1) against (1, m) inputs, gives bitwise the
    # chords of the explicit full arrays
    rng = np.random.default_rng(2731)
    n, m = 257, 9
    for name, body in kernel_bodies().items():
        p = rng.uniform(-2.0, 2.0, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(-2.0, 2.0, n)
        for k, scalar in ((1, 0.7), (1, 0.0), (2, -0.3)):
            args = [p, theta, t]
            args[k] = scalar
            full = list(args)
            full[k] = np.full(n, scalar)
            assert_same_bits(body.chord_batch(*args), body.chord_batch(*full), name)
        pc, tr = p[:, None], rng.uniform(-2.0, 2.0, (1, m))
        th = rng.uniform(0.0, 2.0 * math.pi, (1, m))
        flat = [a.ravel() for a in np.broadcast_arrays(pc, th, tr)]
        grid = body.chord_batch(pc, th, tr)
        assert_same_bits(grid, [a.reshape(n, m) for a in body.chord_batch(*flat)], name)


def test_kernels_return_fresh_arrays():
    # a kernel's buffers are made per call: no result shares memory with
    # the inputs or with the results of the next call
    rng = np.random.default_rng(2732)
    for name, body in kernel_bodies().items():
        args = [rng.uniform(-2.0, 2.0, 300) for _ in range(3)]
        first = body.chord_batch(*args)
        second = body.chord_batch(*args)
        assert_same_bits(first, second, name)
        for a in first:
            for b in (*second, *args):
                assert not np.shares_memory(a, b), name
        for a, b in itertools.combinations(first, 2):
            assert not np.shares_memory(a, b), name


def facet_build_bodies() -> dict:
    """The acceptance polytope, four seeded motion images of it, the cube
    with a duplicated and a redundant halfspace, the unit cube as a Box,
    and random polytopes of 8 to 200 halfspaces."""
    rng = np.random.default_rng(4471)
    found = {"polytope": BODIES["polytope"], "box": BODIES["box"]}
    for k in range(4):
        found[f"polytope-image{k}"] = transform_body(random_motion(rng, 1.5), BODIES["polytope"])
    normals = np.vstack([np.eye(3), -np.eye(3), [[2.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
    found["redundant cube"] = Polytope(normals, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0]))
    for h in (8, 20, 60, 200):
        normals = rng.normal(size=(h, 3))
        # six perturbed axis halfspaces keep it bounded
        normals[:6] = np.vstack([np.eye(3), -np.eye(3)]) + 0.2 * rng.normal(size=(6, 3))
        found[f"random-{h}"] = Polytope(normals, rng.uniform(0.5, 1.5, h))
    return found


@pytest.mark.parametrize("name, body", list(facet_build_bodies().items()))
def test_facet_fans_are_outward_and_tile_each_facet(name, body):
    from scipy.spatial import ConvexHull

    tris, normals = body._triangles, body._facet_normals
    centroid = body.vertices.mean(axis=0)
    a, b, c = (tris - centroid).transpose(1, 0, 2)
    # every fan tetrahedron on the centroid has a positive volume, and
    # each triangle turns counterclockwise about its outward normal
    assert np.all(np.sum(a * np.cross(b, c), axis=1) > 0.0), name
    area_vec = 0.5 * np.cross(b - a, c - a)
    assert np.all(np.sum(area_vec * normals, axis=1) > 0.0), name
    # every facet normal is a halfspace's, whose plane holds the triangle,
    # and points away from the centroid
    scale = max(1.0, float(np.abs(body.offsets).max()))
    for tri, n in zip(tris, normals):
        k = np.flatnonzero(np.all(body.normals == n, axis=1))
        assert len(k), name
        assert np.all(np.abs(tri @ n - body.offsets[k[0]]) <= 1e-9 * scale), name
        assert n @ (tri.mean(axis=0) - centroid) > 0.0, name
    # each plane's triangles sum to the area of its facet polygon: the 2-D
    # hull of the vertices on that plane, by qhull
    vertices = body.vertices
    seen = set()
    for n in np.unique(normals, axis=0):
        d = body.offsets[np.flatnonzero(np.all(body.normals == n, axis=1))[0]]
        on = vertices[np.abs(vertices @ n - d) <= 1e-9 * scale]
        key = tuple(sorted(map(tuple, on.round(12))))
        assert key not in seen, name  # one set of triangles per facet
        seen.add(key)
        e1 = on[1] - on[0]
        e1 /= np.linalg.norm(e1)
        frame = np.array([e1, np.cross(n, e1)])
        polygon = ConvexHull((on - on[0]) @ frame.T).volume
        mine = np.linalg.norm(area_vec[np.all(normals == n, axis=1)], axis=1).sum()
        assert abs(mine - polygon) <= 1e-12 * polygon, name


def test_chord_ends_are_ordered_on_every_hit():
    # s_lo <= s_hi on a hit with no clamp: the estimators take s_hi - s_lo
    # as the chord length as it is
    rng = np.random.default_rng(4472)
    bodies = dict(kernel_bodies())
    for name, body in kernel_bodies().items():
        for k in range(4):
            bodies[f"{name}-image{k}"] = transform_body(random_motion(rng, 1.5), body)
    assert {type(b).__name__ for b in bodies.values()} == {"Ball", "Ellipsoid", "Box", "Polytope"}
    for name, body in bodies.items():
        # the estimators' line window, over p of both signs
        w = line_window(body)
        n = 1 << 17
        p = rng.uniform(-w.p_max, w.p_max, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(w.t_lo, w.t_hi, n)
        s_lo, s_hi, hit = body.chord_batch(p, theta, t)
        assert hit.sum() > 1000, name
        assert np.all(s_lo[hit] <= s_hi[hit]), name
    # the tangent lines of test_ball_tangent_line_is_degenerate_hit
    theta = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    tangent = [(Ball((0.0, 0.0, 0.0), r), r) for r in (1.0, 0.65, 3.0)]
    tangent.append((Ellipsoid((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)), 2.0))
    for body, radius in tangent:
        s_lo, s_hi, hit = body.chord_batch(np.full_like(theta, radius), theta, 0.0 * theta)
        assert hit.any()
        assert np.all(s_lo[hit] <= s_hi[hit]), radius


def test_distinct_rows_keep_the_order_of_np_unique():
    # Polytope's vertices come out in np.unique's order of their packed
    # plane incidences, as they did when np.unique found them
    from h1geom.bodies import _distinct_rows

    rng = np.random.default_rng(4473)
    for rows, cols in ((1, 3), (12, 8), (40, 9), (300, 17), (64, 200)):
        base = rng.random((rows, cols)) < 0.3
        mask = base[rng.integers(0, rows, 2 * rows)]  # with repeated rows
        want = np.unique(np.packbits(mask, axis=1), axis=0, return_index=True)[1]
        assert np.array_equal(_distinct_rows(mask), want), (rows, cols)
