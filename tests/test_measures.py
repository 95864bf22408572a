"""Volume and p-Area: closed forms, adaptive quadrature, and the
independent voxel/triangulation oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from conftest import make_acceptance_bodies, random_motion
import h1geom.measures as measures
from h1geom import (
    Ball,
    Box,
    Ellipsoid,
    EllipsoidPatch,
    Polytope,
    QuadratureError,
    RectanglePatch,
    TrianglePatch,
    horizontal_normal_norm,
    p_area,
    p_area_triangulation_oracle,
    transform_body,
    volume,
    volume_voxel_oracle,
)

BODIES = make_acceptance_bodies()


def test_volume_exact_values():
    assert abs(volume(BODIES["ball"]).value - 4.0 * math.pi / 3.0) < 1e-12
    assert volume(BODIES["box"]).value == 1.0
    e = BODIES["ellipsoid"]
    expected = 4.0 * math.pi / 3.0 * float(np.prod(np.diag(e.lin)))
    assert abs(volume(e).value - expected) < 1e-12
    res = volume(BODIES["ball"])
    assert res.method == "exact"
    assert res.resolution == 0 and res.error_estimate == 0.0


def test_volume_quadrature_matches_exact():
    for name in ("ball", "ellipsoid"):
        body = BODIES[name]
        res = volume(body, method="quadrature")
        assert res.method == "quadrature"
        assert abs(res.value - body.volume_exact()) < 1e-5 * body.volume_exact()
    # flat faces make the flux midpoint rule exact up to rounding
    res = volume(BODIES["box"], method="quadrature")
    assert abs(res.value - 1.0) < 1e-9


def test_volume_method_validation():
    with pytest.raises(ValueError):
        volume(BODIES["ball"], method="montecarlo")


def test_voxel_oracle():
    res = volume_voxel_oracle(BODIES["ball"], resolution=200)
    assert res.method == "voxel-oracle"
    assert abs(res.value - 4.0 * math.pi / 3.0) < 0.01 * 4.0 * math.pi / 3.0
    with pytest.raises(ValueError):
        volume_voxel_oracle(BODIES["ball"], resolution=4)


def test_voxel_oracle_refines():
    # offset bodies so voxel faces are not aligned with body faces
    bodies = [
        BODIES["ball"],
        BODIES["ellipsoid"],
        Box((0.05, 0.1, -0.03), (1.13, 0.97, 1.08)),
    ]
    for body in bodies:
        errs = [
            abs(volume_voxel_oracle(body, resolution=r).value - body.volume_exact())
            for r in (25, 50, 100, 200)
        ]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.01 * body.volume_exact()


def test_p_area_ball_value():
    # reduce the sphere integral to a 1D profile: total = 2 pi times the
    # integral of sqrt(1 - z^4) dz over [-1, 1]
    profile, _ = integrate.quad(lambda z: math.sqrt(1.0 - z**4), -1.0, 1.0)
    expected = 2.0 * math.pi * profile
    res = p_area(BODIES["ball"])
    assert res.method == "quadrature"
    assert abs(res.value - expected) < 1e-9 * expected


def test_p_area_box_value():
    # four vertical faces have |N_H| = 1; top and bottom integrate the
    # cylinder radius sqrt(x^2 + y^2) over the unit square
    cap, _ = integrate.dblquad(
        lambda y, x: math.hypot(x, y), 0.0, 1.0, 0.0, 1.0
    )
    expected = 4.0 + 2.0 * cap
    res = p_area(BODIES["box"])
    assert abs(res.value - expected) < 1e-9 * expected


def test_p_area_triangulation_oracle_agrees():
    for name in ("ball", "ellipsoid"):
        quad = p_area(BODIES[name]).value
        tri = p_area_triangulation_oracle(BODIES[name], resolution=256)
        assert tri.method == "triangulation-oracle"
        assert abs(tri.value - quad) < 0.005 * quad
    with pytest.raises(ValueError):
        p_area_triangulation_oracle(BODIES["ball"], resolution=4)


def test_p_area_polytope_matches_box():
    # the six-halfspace polytope is the same set as the unit box, with
    # triangle patches instead of rectangles
    normals = np.vstack([np.eye(3), -np.eye(3)])
    offsets = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    poly = Polytope(normals, offsets)
    assert abs(p_area(poly).value - p_area(BODIES["box"]).value) < 1e-6


def test_p_area_vertical_translation_invariance():
    base = p_area(BODIES["ball"]).value
    lifted = p_area(Ball((0.0, 0.0, 1.0e6), 1.0)).value
    assert abs(lifted - base) < 1e-9 * base


def test_p_area_rigid_motion_invariance():
    rng = np.random.default_rng(2718)
    for name in ("ball", "ellipsoid", "box"):
        body = BODIES[name]
        base = p_area(body).value
        for _ in range(2):
            m = random_motion(rng, 1.5)
            moved = p_area(transform_body(m, body)).value
            assert abs(moved - base) < 5e-3 * base, name


def test_integrand_vanishes_at_characteristic_points():
    # poles of the unit sphere, where the tangent plane is the contact plane
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    normals = pts.copy()
    assert np.all(horizontal_normal_norm(pts, normals) == 0.0)
    # generic point: |N_H|^2 = n1^2 + n2^2 + (x n2 - y n1) 2 n3 + (x^2+y^2) n3^2
    pt = np.array([0.3, -0.2, 0.7])
    n = np.array([0.48, 0.6, 0.64])
    got = horizontal_normal_norm(pt, n)
    expected = math.hypot(n[0] + pt[1] * n[2], n[1] - pt[0] * n[2])
    assert abs(got - expected) < 1e-15


def test_patch_area_elements():
    rect = RectanglePatch(
        origin=(0.0, 0.0, 0.0), eu=(2.0, 0.0, 0.0), ev=(0.0, 0.0, 1.5), normal=(0.0, -1.0, 0.0)
    )
    u = np.array([0.25, 0.75])
    v = np.array([0.5, 0.5])
    pts, normals, jac = rect.evaluate(u, v)
    assert np.allclose(pts[0], [0.5, 0.0, 0.75])
    assert np.allclose(normals, [[0.0, -1.0, 0.0]] * 2)
    assert np.allclose(jac, 3.0)

    tri = TrianglePatch(
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), normal=(0.0, 0.0, 1.0)
    )
    # integral of the area element over the unit square equals the area
    grid = (np.arange(64) + 0.5) / 64
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    _, _, jac = tri.evaluate(uu, vv)
    assert abs(jac.mean() - 0.5) < 1e-12

    patch = EllipsoidPatch((0.0, 0.0, 0.0), np.diag([1.0, 2.0, 0.5]))
    pts, normals, jac = patch.evaluate(uu, vv)
    # normals are unit and outward
    assert np.allclose(np.linalg.norm(normals, axis=-1), 1.0)
    assert np.all(np.sum(pts * normals, axis=-1) > 0.0)
    # the area element integrates to the ellipsoid surface area; compare
    # against the degree-1.6 approximation accurate to 1.2 percent
    area = jac.mean()
    a, b, c = 1.0, 2.0, 0.5
    p = 1.6075
    knud = 4.0 * math.pi * (((a * b) ** p + (a * c) ** p + (b * c) ** p) / 3.0) ** (1.0 / p)
    assert abs(area - knud) < 0.015 * knud


def test_quadrature_error_when_budget_too_small():
    with pytest.raises(QuadratureError):
        p_area(BODIES["ellipsoid"], rel_tol=1e-13, max_resolution=32)


def test_measure_result_fields():
    res = p_area(BODIES["ball"])
    assert res.resolution >= 16
    assert res.error_estimate >= 0.0
    oracle = volume_voxel_oracle(BODIES["box"], resolution=64)
    assert oracle.resolution == 64
    assert oracle.error_estimate >= 0.0


CUBE_P_AREA = 4.0 + 2.0 * (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 3.0


def _tilted_cube(n3: float) -> Polytope:
    """The unit cube with its x = 1 facet tilted so that its unit normal
    has |n3| about n3: a near-vertical facet whose c = (n2/n3, -n1/n3)
    lies about 1/n3 away."""
    normals = np.array(
        [[1.0, 0.0, n3], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
         [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    )
    return Polytope(normals, np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))


def _planar_bodies() -> dict:
    rng = np.random.default_rng(31415)
    found = {"box": BODIES["box"], "polytope": BODIES["polytope"]}
    for name in ("box", "polytope"):
        for k in range(4):
            image = transform_body(random_motion(rng, 1.5), BODIES[name])
            assert isinstance(image, Polytope)
            found[f"{name}-image{k}"] = image
    for n3 in (1e-2, 1e-4, 1e-6, 1e-8):
        found[f"tilted-{n3:g}"] = _tilted_cube(n3)
    return found


PLANAR = _planar_bodies()


def test_p_area_cube_closed_form():
    res = p_area(BODIES["box"])
    assert (res.method, res.resolution, res.error_estimate) == ("exact", 0, 0.0)
    assert abs(res.value - CUBE_P_AREA) <= 1e-14 * CUBE_P_AREA
    # the same cube as a polytope has twelve triangle facets
    poly = Polytope(
        np.vstack([np.eye(3), -np.eye(3)]), np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    )
    assert abs(p_area(poly, method="exact").value - CUBE_P_AREA) <= 1e-14 * CUBE_P_AREA


def test_cube_images_keep_volume_and_p_area_to_round_off():
    # rigid images of the unit cube are polytopes whose vertices are
    # computed, not rounded, so their volume and closed-form p-Area are
    # the cube's to round-off
    rng = np.random.default_rng(2024)
    for _ in range(8):
        image = transform_body(random_motion(rng, 1.5), BODIES["box"])
        assert abs(volume(image).value - 1.0) <= 1e-13
        assert abs(p_area(image).value - CUBE_P_AREA) <= 1e-13 * CUBE_P_AREA


def qhull_polytope(normals, offsets):
    """Vertices, volume and a p_area-ready stand-in of {n.x <= d} built by
    scipy's qhull from a Chebyshev centre, as an oracle for the vertex
    enumeration of Polytope."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    scale = np.linalg.norm(normals, axis=1)
    n, d = normals / scale[:, None], offsets / scale
    centre = linprog(
        [0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([n, np.ones((len(d), 1))]),
        b_ub=d,
        bounds=[(None, None)] * 3 + [(0.0, None)],
        method="highs",
    ).x[:3]
    points = HalfspaceIntersection(np.hstack([n, -d[:, None]]), centre).intersections
    _, first = np.unique(np.round(points, 9), axis=0, return_index=True)
    hull = ConvexHull(points[first])
    patches = [
        TrianglePatch(*hull.points[simplex], eq[:3])
        for simplex, eq in zip(hull.simplices, hull.equations)
    ]
    return hull.points, hull.volume, SimpleNamespace(boundary_patches=lambda: patches)


def _qhull_cases():
    rng = np.random.default_rng(808)
    cases = {}
    for h in (8, 20, 60):
        for k in range(2):
            # six perturbed axis halfspaces keep it bounded
            normals = rng.normal(size=(h, 3))
            normals[:6] = np.vstack([np.eye(3), -np.eye(3)]) + 0.2 * rng.normal(size=(6, 3))
            cases[f"random-{h}-{k}"] = Polytope(normals, rng.uniform(0.5, 1.5, h))
    for name in ("polytope", "box"):
        for k in range(4):
            cases[f"{name}-image{k}"] = transform_body(random_motion(rng, 1.5), BODIES[name])
    return cases


@pytest.mark.parametrize("name, body", list(_qhull_cases().items()))
def test_polytope_matches_qhull(name, body):
    points, vol, oracle = qhull_polytope(body.normals, body.offsets)
    v = body.vertices
    dist = np.linalg.norm(v[:, None, :] - points[None, :, :], axis=-1)
    assert len(v) == len(points)
    assert dist.min(axis=1).max() <= 1e-12 and dist.min(axis=0).max() <= 1e-12
    assert abs(body.volume_exact() - vol) <= 1e-13 * vol
    exact = p_area(oracle, method="exact").value
    assert abs(p_area(body, method="exact").value - exact) <= 1e-13 * exact


def test_duplicated_and_redundant_halfspaces_leave_the_cube():
    # x <= 1 twice (once scaled), and x + y + z <= 3, which touches the
    # cube at one corner only: the facets are the cube's six squares
    normals = np.vstack([np.eye(3), -np.eye(3), [[2.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
    cube = Polytope(normals, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0]))
    assert len(cube.vertices) == 8
    assert len(cube.boundary_patches()) == 12
    assert abs(cube.volume_exact() - 1.0) <= 1e-15
    assert abs(p_area(cube).value - CUBE_P_AREA) <= 1e-14 * CUBE_P_AREA
    assert np.allclose(cube.interior_point(), 0.5, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("name", list(PLANAR))
def test_p_area_closed_form_within_quadrature_error_bar(name):
    # the quadrature's Richardson error estimate must bound its actual
    # error against the closed form, near-vertical facets included
    body = PLANAR[name]
    exact = p_area(body)
    quad = p_area(body, method="quadrature")
    assert exact.method == "exact" and quad.method == "quadrature"
    assert abs(exact.value - quad.value) <= quad.error_estimate


def test_p_area_planar_bodies_skip_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("planar body reached the quadrature")

    monkeypatch.setattr(measures, "_adaptive_surface_integral", no_quadrature)
    for body in PLANAR.values():
        assert p_area(body).method == "exact"


def test_p_area_fan_and_gauss_agree_where_they_meet():
    # facets whose centre c lies one to four projected diameters from
    # the centroid, where the two branches of the closed form hand over
    rng = np.random.default_rng(27)
    for _ in range(40):
        # |n3| > 0.5 keeps c, and so the facet, near the origin, where
        # rounding of the vertices does not blur the facet's geometry
        n = np.append(rng.uniform(-1.0, 1.0, 2), rng.choice([-1.0, 1.0]))
        n /= np.linalg.norm(n)
        e1 = np.cross(n, rng.normal(size=3))
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1) * rng.uniform(0.05, 1.0)
        centre = np.array([n[1] / n[2], -n[0] / n[2]])
        # slide the facet within its plane until its centroid sits at the
        # chosen distance from c
        diam = np.linalg.norm((e1 + e2)[:2])
        target = centre + rng.uniform(1.0, 4.0) * diam * np.array([1.0, 0.0])
        ab = np.linalg.solve(np.column_stack([e1[:2], e2[:2]]), target)
        origin = ab[0] * e1 + ab[1] * e2 - 0.5 * (e1 + e2)
        patch = RectanglePatch(origin, e1, e2, n)
        proj = measures._planar_vertices(patch)[:, :2]
        fan = measures._fan_distance_integral(proj - centre)
        gauss = measures._gauss_patch_p_area(patch)
        assert abs(fan - gauss) <= 1e-13 * gauss


def test_p_area_method_validation():
    with pytest.raises(ValueError):
        p_area(BODIES["ellipsoid"], method="exact")
    with pytest.raises(ValueError):
        p_area(BODIES["box"], method="montecarlo")
    res = p_area(BODIES["box"], method="quadrature")
    assert res.method == "quadrature" and res.resolution >= 16


def _spheroid_p_area(a: float, b: float) -> tuple[float, float]:
    """p-Area of the spheroid with semi-axes (a, a, b) centred on the
    t-axis, and quad's error bound: with X = (a sin psi cos phi,
    a sin psi sin phi, t0 + b cos psi), |N_H| dA is
    a^2 b sin^2 psi sqrt(1/a^2 + a^2 cos^2 psi / b^2) d psi d phi."""
    scale = 2.0 * math.pi * a * a * b
    value, err = integrate.quad(
        lambda psi: math.sin(psi) ** 2
        * math.sqrt(1.0 / a**2 + (a * math.cos(psi) / b) ** 2),
        0.0,
        math.pi,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return scale * value, scale * err


def _with_images(body, seed: int, count: int = 4) -> list:
    rng = np.random.default_rng(seed)
    images = [transform_body(random_motion(rng, 1.5), body) for _ in range(count)]
    return [body] + images


SPHEROIDS = [
    (1.0, 1.0), (0.5, 0.5), (2.0, 2.0), (1.0, 0.3), (0.3, 1.0), (0.05, 3.0), (1.5, 0.02)
]


@pytest.mark.parametrize("a, b", SPHEROIDS)
def test_p_area_error_bar_covers_spheroid_closed_form(a, b):
    # balls (a = b), prolate, oblate, needle- and disc-like spheroids, off
    # the origin along the t-axis, and four rigid images of each
    ref, ref_err = _spheroid_p_area(a, b)
    body = Ball((0.0, 0.0, 0.7), a) if a == b else Ellipsoid((0.0, 0.0, 0.7), (a, a, b))
    for image in _with_images(body, seed=int(1000 * a + b)):
        res = p_area(image)
        assert res.method == "quadrature"
        assert abs(res.value - ref) <= res.error_estimate + ref_err
        assert 0.0 < res.error_estimate <= 1e-6 * res.value


def test_p_area_spheroid_matches_ball_formula():
    # a = b is the ball formula 2 pi r^2 int sin^2 psi sqrt(1 + r^2 cos^2 psi)
    assert abs(_spheroid_p_area(1.0, 1.0)[0] - 10.9832489998) < 1e-9
    assert abs(_spheroid_p_area(2.0, 2.0)[0] - 54.2566258) < 1e-6


# the charted rule at resolution 2048 and the standard chart's midpoint
# Richardson step at 2048/4096 agree on this value to 4e-11
NEEDLE_P_AREA = 0.87722985372


def test_p_area_needle_within_error_bar():
    # a needle off the t-axis: its characteristic points lie inside the
    # standard chart's patches, where the forced path's Richardson step
    # holds only once its levels show the h^2 order
    needle = Ellipsoid((0.2, 0.1, 0.0), (2.0, 0.05, 0.05))
    for method in ("auto", "quadrature"):
        res = p_area(needle, method=method)
        assert abs(res.value - NEEDLE_P_AREA) <= res.error_estimate + 5e-11, method


def test_characteristic_points_are_the_chart_poles():
    # images of the acceptance ellipsoid, a linear map that reverses
    # orientation (det < 0), whose outward normal is still L^{-T} u, and
    # a large ball, where |L^T w| < |k| takes the other root formula, and
    # a ball far from the t-axis, where that formula would cancel
    reversing = Ellipsoid.from_linear(
        (0.3, -0.2, 0.1), [[0.9, 0.2, 0.1], [0.1, -0.7, 0.3], [0.0, 0.2, 1.1]]
    )
    others = [reversing, Ball((0.4, -0.3, 0.2), 2.0), Ball((1000.0, 0.0, 0.0), 1.0)]
    for image in _with_images(BODIES["ellipsoid"], seed=4242) + others:
        north, south = measures._characteristic_directions(image.center, image.lin)
        pts = image.center + np.array([north, south]) @ image.lin.T
        lifted = np.column_stack([np.ones(2), pts])
        homog = lifted @ image.quadratic_form()
        # on the surface, where the quadric's gradient is the normal
        assert np.all(np.abs(np.sum(homog * lifted, axis=1)) < 1e-12)
        normals = homog[:, 1:] / np.linalg.norm(homog[:, 1:], axis=1, keepdims=True)
        assert np.all(horizontal_normal_norm(pts, normals) < 1e-12)
        assert normals[0, 2] > 0.0 > normals[1, 2]
        chart = measures._CharacteristicChart(image.boundary_patches()[0])
        assert chart.beta > 0.0
        poles, pole_normals, _ = chart.evaluate(np.zeros(2), np.array([0.0, 1.0]))
        assert np.allclose(poles, pts, rtol=0.0, atol=1e-12)
        assert np.allclose(pole_normals, normals, rtol=0.0, atol=1e-12)


def test_characteristic_chart_area_element_and_normals():
    # central differences of the chart's points give its area element
    # and the normal direction, boosted charts (beta > 0) included
    bodies = [
        BODIES["ellipsoid"],
        Ball((0.3, -0.4, 0.2), 0.5),
        Ball((10.0, 0.0, 0.0), 1.0),
        Ellipsoid((0.2, 0.1, 0.0), (2.0, 0.05, 0.05)),
        BODIES["ball"],
    ]
    rng = np.random.default_rng(99)
    u, v = rng.uniform(0.05, 0.95, (2, 50))
    h = 1e-6
    for body in bodies:
        chart = measures._CharacteristicChart(body.boundary_patches()[0])
        pts, normals, jac = chart.evaluate(u, v)
        xu = (chart.evaluate(u + h, v)[0] - chart.evaluate(u - h, v)[0]) / (2.0 * h)
        xv = (chart.evaluate(u, v + h)[0] - chart.evaluate(u, v - h)[0]) / (2.0 * h)
        cross = np.cross(xu, xv)
        area = np.linalg.norm(cross, axis=1)
        assert np.allclose(jac, area, rtol=1e-6, atol=0.0)
        along = np.abs(np.sum(normals * cross, axis=1))
        assert np.allclose(along, area, rtol=1e-6, atol=0.0)
        assert np.all(np.sum((pts - body.center) * normals, axis=1) > 0.0)


def test_charted_p_area_within_forced_quadrature_error_bar():
    # bodies whose characteristic points are not antipodal on the sphere
    # chart, so the charted rule boosts them to the poles
    for body in (BODIES["ellipsoid"], Ball((0.3, -0.4, 0.2), 0.5)):
        charted = p_area(body)
        forced = p_area(body, method="quadrature")
        assert charted.resolution <= 64
        bar = charted.error_estimate + forced.error_estimate
        assert abs(charted.value - forced.value) <= bar


def test_quadrature_error_estimates_have_a_round_off_floor():
    # an error estimate of 0.0 is reserved for closed forms
    cases = [(Ball((0.0, 0.0, 0.2), 0.5), 0.5), (BODIES["ball"], 1.0)]
    for body, radius in cases:
        ref = _spheroid_p_area(radius, radius)[0]
        for image in _with_images(body, seed=7, count=2):
            for method in ("auto", "quadrature"):
                res = p_area(image, method=method)
                assert res.error_estimate >= 256.0 * np.finfo(float).eps * res.value
                assert abs(res.value - ref) <= res.error_estimate
