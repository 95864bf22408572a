"""Volume and p-Area: closed forms, the charted quadrature, and the
independent cross-checks, the line-space Crofton rule and the voxel
oracle."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import make_acceptance_bodies, quadratic_form, random_motion
import h1geom.measures as measures
from h1geom import (
    Ball,
    Box,
    Ellipsoid,
    Polytope,
    PshMotion,
    QuadratureError,
    horizontal_normal_norm,
    p_area,
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


def test_voxel_oracle_grids_the_body_box():
    # the only volume cross-check grids the body's own axis-aligned box,
    # so a body far from the t-axis gets the whole grid
    bodies = [
        BODIES["ball"],
        BODIES["ellipsoid"],
        Box((5.0, 5.0, 0.0), (6.0, 6.0, 1.0)),
        Ball((10.0, 0.0, 0.0), 1.0),
    ]
    for body in bodies:
        res = volume_voxel_oracle(body, resolution=128)
        assert abs(res.value - body.volume_exact()) <= 0.01 * body.volume_exact()


def test_voxel_error_estimate_covers_its_error():
    # the acceptance bodies and three rigid images of each, at the default
    # resolution: the bar, the volume of the cells whose corners disagree,
    # covers the trapezoid rule's error (the change from the half-resolution
    # grid missed on 5 of these 16)
    rng = np.random.default_rng(9)
    for name, body in BODIES.items():
        images = [transform_body(random_motion(rng, 1.0), body) for _ in range(3)]
        for k, image in enumerate([body, *images]):
            res = volume_voxel_oracle(image)
            assert abs(res.value - image.volume_exact()) <= res.error_estimate, (name, k)


def test_voxel_error_estimate_covers_thin_and_far_bodies():
    # thin bodies whose corners mostly miss them, and bodies far from the
    # t-axis; a box's lattice lies on its faces, so its bar is the floor
    bodies = [
        Ellipsoid((0.2, 0.1, 0.0), (2.0, 0.05, 0.05)),
        Ellipsoid((0.0, 0.0, 0.7), (1.5, 1.5, 0.02)),
        Box((5.0, 5.0, 0.0), (6.0, 6.0, 1.0)),
        Ball((10.0, 0.0, 0.0), 1.0),
    ]
    for body in bodies:
        for resolution in (8, 9, 32, 64):
            res = volume_voxel_oracle(body, resolution)
            assert abs(res.value - body.volume_exact()) <= res.error_estimate, (body, resolution)
    res = volume_voxel_oracle(bodies[2], 8)
    assert res.error_estimate == measures._ROUNDOFF * res.value


def test_volume_method_validation():
    # every body has a closed-form volume, and volume takes no method
    with pytest.raises(TypeError):
        volume(BODIES["ball"], method="quadrature")


def test_voxel_oracle(monkeypatch):
    res = volume_voxel_oracle(BODIES["ball"], resolution=200)
    assert res.method == "voxel-oracle"
    assert abs(res.value - 4.0 * math.pi / 3.0) < 0.01 * 4.0 * math.pi / 3.0
    with pytest.raises(ValueError):
        volume_voxel_oracle(BODIES["ball"], resolution=4)

    # a lattice of more than 2^32 points (1626^3 at resolution 1625) is
    # refused before the lattice's bounding box is even computed
    def no_lattice(body, directions):
        raise AssertionError("an oversized lattice reached the allocation")

    monkeypatch.setattr(type(BODIES["ball"]), "support", no_lattice)
    for resolution in (1625, 20_000):
        with pytest.raises(ValueError, match="2\\^32"):
            volume_voxel_oracle(BODIES["ball"], resolution=resolution)


def test_voxel_oracle_refines():
    # bodies whose faces are not aligned with the voxel faces: the grid
    # spans an axis-aligned box exactly, so that box is turned about the
    # t-axis
    bodies = [
        BODIES["ball"],
        BODIES["ellipsoid"],
        transform_body(PshMotion(0.0, 0.0, 0.0, 0.3), Box((0.05, 0.1, -0.03), (1.13, 0.97, 1.08))),
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


@pytest.mark.parametrize("name", ["box", "polytope"])
def test_planar_cross_checks_within_their_error_bars(name):
    # the line rule at the default tolerance and the voxel oracle against
    # the closed forms
    body = BODIES[name]
    res = p_area(body, method="line")
    assert res.error_estimate > 0.0
    assert abs(res.value - p_area(body).value) <= res.error_estimate
    vol = volume(body).value
    assert abs(volume_voxel_oracle(body).value - vol) <= 0.01 * vol


def test_p_area_polytope_matches_box():
    # the six-halfspace polytope is the same set as the unit box, with
    # vertices and facets found from its halfspaces instead of its corners
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


def test_quadrature_error_when_budget_too_small(monkeypatch):
    # levels 16 and 32 of each refined rule differ by more than 1e-13
    monkeypatch.setattr(measures, "_MAX_RESOLUTION", 32)
    for body, method in (
        (BODIES["ellipsoid"], "auto"),
        (BODIES["ellipsoid"], "line"),
        (BODIES["polytope"], "line"),
    ):
        with pytest.raises(QuadratureError):
            p_area(body, method=method, rel_tol=1e-13)


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
    res = p_area(poly)
    assert res.method == "exact"
    assert abs(res.value - CUBE_P_AREA) <= 1e-14 * CUBE_P_AREA


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
    """Vertices, volume and closed-form p-Area of {n.x <= d} built by
    scipy's qhull from a Chebyshev centre, as an oracle for the vertex
    enumeration of Polytope.  The p-Area sums qhull's triangles in
    measures._planar_p_area: the fan sum takes |.| per facet, so their
    orientation does not matter."""
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
    pa = measures._planar_p_area(hull.points[hull.simplices], hull.equations[:, :3])
    return hull.points, hull.volume, pa


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
    points, vol, exact = qhull_polytope(body.normals, body.offsets)
    v = body.vertices
    dist = np.linalg.norm(v[:, None, :] - points[None, :, :], axis=-1)
    assert len(v) == len(points)
    assert dist.min(axis=1).max() <= 1e-12 and dist.min(axis=0).max() <= 1e-12
    assert abs(body.volume_exact() - vol) <= 1e-13 * vol
    res = p_area(body)
    assert res.method == "exact"
    assert abs(res.value - exact) <= 1e-13 * exact


def test_duplicated_and_redundant_halfspaces_leave_the_cube():
    # x <= 1 twice (once scaled), and x + y + z <= 3, which touches the
    # cube at one corner only: the facets are the cube's six squares
    normals = np.vstack([np.eye(3), -np.eye(3), [[2.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
    cube = Polytope(normals, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0]))
    assert len(cube.vertices) == 8
    assert len(cube._triangles) == 12
    assert abs(cube.volume_exact() - 1.0) <= 1e-15
    assert abs(p_area(cube).value - CUBE_P_AREA) <= 1e-14 * CUBE_P_AREA
    assert np.allclose(cube.vertices.mean(axis=0), 0.5, rtol=0.0, atol=1e-15)


# the planar bodies and the qhull-checked random polytopes and images
LINE_PLANAR = {**PLANAR, **{f"qhull-{k}": body for k, body in _qhull_cases().items()}}


@pytest.mark.parametrize("name", list(LINE_PLANAR))
def test_p_area_closed_form_within_quadrature_error_bar(name):
    # the line rule, refined to round-off, agrees with the closed form to
    # 1e-12 and within its error estimate, near-vertical facets included
    body = LINE_PLANAR[name]
    exact = p_area(body)
    line = p_area(body, method="line", rel_tol=1e-12)
    assert exact.method == "exact" and line.method == "line-rule"
    diff = abs(exact.value - line.value)
    assert diff <= 1e-12 * exact.value
    assert diff <= line.error_estimate


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0, 0.0])
def test_bad_rel_tol_is_rejected_before_any_quadrature(monkeypatch, rel_tol):
    # a tolerance that no quadrature can meet (or test) raises at once,
    # for planar bodies and closed forms too, instead of running to
    # max_resolution and failing as a quadrature error
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a bad rel_tol reached the quadrature")

    monkeypatch.setattr(measures, "_refine", no_quadrature)
    for body in BODIES.values():
        for method in ("auto", "line"):
            with pytest.raises(ValueError, match="rel_tol"):
                p_area(body, method=method, rel_tol=rel_tol)


def test_p_area_planar_bodies_skip_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("planar body reached the quadrature")

    monkeypatch.setattr(measures, "_refine", no_quadrature)
    for body in PLANAR.values():
        assert p_area(body).method == "exact"


# the scalar planar closed form that the whole-array
# measures._planar_p_area replaced, kept as its reference: one triangle
# at a time, the fan sum in Python floats, the Gauss rule on the
# triangle's chart


def reference_fan_distance_integral(poly):
    """Integral of |q| over a plane polygon (k, 2) in cyclic order, as the
    signed sum of its edges' fan triangles on the origin."""
    total = 0.0
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        cross = float(a[0] * b[1] - a[1] * b[0])
        if cross == 0.0:
            continue
        edge = b - a
        length = math.hypot(edge[0], edge[1])
        h = cross / length
        prim_a, prim_b = (
            s * math.hypot(h, s) + h * h * math.asinh(s / abs(h))
            for s in (float(a @ edge) / length, float(b @ edge) / length)
        )
        total += h * (prim_b - prim_a) / 6.0
    return abs(total)


def reference_gauss_triangle_p_area(vertices, normal):
    """p-Area of a flat triangle by the 10-point tensor Gauss-Legendre
    rule on the chart X(u, v) = (1-u) p0 + u ((1-v) p1 + v p2), whose area
    element is u |(p1 - p0) x (p2 - p0)|."""
    p0, p1, p2 = vertices
    nodes, weights = np.polynomial.legendre.leggauss(10)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    edge = (1.0 - vv)[..., None] * p1 + vv[..., None] * p2
    pts = (1.0 - uu)[..., None] * p0 + uu[..., None] * edge
    jac = uu * np.linalg.norm(np.cross(p1 - p0, p2 - p0))
    normals = np.broadcast_to(normal, pts.shape)
    return float(weights @ (horizontal_normal_norm(pts, normals) * jac) @ weights)


def reference_planar_p_area(triangles, normals):
    """Sum over flat triangles: the fan formula where c lies within
    measures._FAN_REACH projected diameters of the facet's centroid,
    Gauss-Legendre otherwise (vertical facets included)."""
    total = 0.0
    for vertices, normal in zip(triangles, normals):
        n1, n2, n3 = normal
        proj = vertices[:, :2]
        mid = proj.mean(axis=0)
        diam = 2.0 * float(np.max(np.hypot(*(proj - mid).T)))
        reach = measures._FAN_REACH * diam * abs(n3)
        if math.hypot(n2 - n3 * mid[0], -n1 - n3 * mid[1]) <= reach:
            total += reference_fan_distance_integral(proj - (n2 / n3, -n1 / n3))
        else:
            total += reference_gauss_triangle_p_area(vertices, normal)
    return total


def _reference_cases() -> dict:
    cases = dict(PLANAR)
    cases.update(_qhull_cases())
    cases["cube-triangles"] = Polytope(
        np.vstack([np.eye(3), -np.eye(3)]), np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    )
    return cases


@pytest.mark.parametrize("name, body", list(_reference_cases().items()))
def test_planar_p_area_matches_scalar_reference(name, body):
    # the same closed form, triangle by triangle in Python, on the
    # triangles of the facets the array pass sums
    ref = reference_planar_p_area(body._triangles, body._facet_normals)
    got = measures._planar_p_area(body._triangles, body._facet_normals)
    assert abs(got - ref) <= 1e-14 * ref
    assert p_area(body).value == got


def test_p_area_fan_and_gauss_agree_where_they_meet(monkeypatch):
    # facets whose centre c lies one to four projected diameters from
    # the centroid, where the two branches of the closed form hand over;
    # the reach forces one branch on every facet: infinite for the fan,
    # zero for Gauss-Legendre
    rng = np.random.default_rng(27)
    triangles, normals = [], []
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
        a, b, c, d = origin, origin + e1, origin + e1 + e2, origin + e2
        triangles.append([[a, b, c], [a, c, d]])
        normals.append([n, n])
    values = {}
    for reach in (math.inf, 0.0):
        monkeypatch.setattr(measures, "_FAN_REACH", reach)
        values[reach] = [measures._planar_p_area(np.array(t), np.array(n))
                         for t, n in zip(triangles, normals)]
    for fan, gauss in zip(values[math.inf], values[0.0]):
        assert abs(fan - gauss) <= 1e-13 * gauss


def test_p_area_of_planar_bodies_builds_no_patch(monkeypatch):
    # a Polytope or a Box hands its stored triangles to the array pass,
    # and builds no surface chart
    def refuse(self, *args, **kwargs):
        raise AssertionError("p_area built a chart")

    monkeypatch.setattr(measures._CharacteristicChart, "__init__", refuse)
    for body in PLANAR.values():
        assert p_area(body).method == "exact"


def test_p_area_method_validation():
    # "auto" is already exact on every planar body: "exact" is no method
    for method in ("exact", "montecarlo", "quadrature"):
        for body in (BODIES["box"], BODIES["ellipsoid"]):
            with pytest.raises(ValueError, match="method"):
                p_area(body, method=method)
    res = p_area(BODIES["box"], method="line")
    assert res.method == "line-rule" and res.resolution >= 32


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
        # the line rule, refined to round-off
        line = p_area(image, method="line", rel_tol=1e-12)
        assert abs(line.value - ref) <= min(1e-12 * ref, line.error_estimate) + ref_err


def test_p_area_spheroid_matches_ball_formula():
    # a = b is the ball formula 2 pi r^2 int sin^2 psi sqrt(1 + r^2 cos^2 psi)
    assert abs(_spheroid_p_area(1.0, 1.0)[0] - 10.9832489998) < 1e-9
    assert abs(_spheroid_p_area(2.0, 2.0)[0] - 54.2566258) < 1e-6


# the charted rule at resolution 2048 and the standard chart's midpoint
# Richardson step at 2048/4096 agreed on this value to 4e-11
NEEDLE_P_AREA = 0.87722985372


def test_p_area_needle_within_error_bar():
    # a needle off the t-axis, whose |T| varies sharply in theta, so the
    # line rule needs a fine level
    needle = Ellipsoid((0.2, 0.1, 0.0), (2.0, 0.05, 0.05))
    for method in ("auto", "line"):
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
        homog = lifted @ quadratic_form(image)
        # on the surface, where the quadric's gradient is the normal
        assert np.all(np.abs(np.sum(homog * lifted, axis=1)) < 1e-12)
        normals = homog[:, 1:] / np.linalg.norm(homog[:, 1:], axis=1, keepdims=True)
        assert np.all(horizontal_normal_norm(pts, normals) < 1e-12)
        assert normals[0, 2] > 0.0 > normals[1, 2]
        chart = measures._CharacteristicChart(image)
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
        chart = measures._CharacteristicChart(body)
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
    # chart, so the charted rule boosts them to the poles, against the
    # line rule
    for body in (BODIES["ellipsoid"], Ball((0.3, -0.4, 0.2), 0.5)):
        charted = p_area(body)
        forced = p_area(body, method="line")
        assert charted.resolution <= 64
        bar = charted.error_estimate + forced.error_estimate
        assert abs(charted.value - forced.value) <= bar


def test_quadrature_error_estimates_have_a_round_off_floor():
    # an error estimate of 0.0 is reserved for closed forms
    cases = [(Ball((0.0, 0.0, 0.2), 0.5), 0.5), (BODIES["ball"], 1.0)]
    for body, radius in cases:
        ref = _spheroid_p_area(radius, radius)[0]
        for image in _with_images(body, seed=7, count=2):
            for method in ("auto", "line"):
                res = p_area(image, method=method)
                assert res.error_estimate >= 256.0 * np.finfo(float).eps * res.value
                assert abs(res.value - ref) <= res.error_estimate


# curved bodies and their images, thin ones (needle, disc) and one far
# from the t-axis
CURVED = {
    **{
        name if k == 0 else f"{name}-image{k - 1}": image
        for name in ("ball", "ellipsoid")
        for k, image in enumerate(_with_images(BODIES[name], seed=len(name)))
    },
    "needle": Ellipsoid((0.2, 0.1, 0.0), (2.0, 0.05, 0.05)),
    "disc": Ellipsoid((0.0, 0.0, 0.7), (1.5, 1.5, 0.02)),
    "far-ball": Ball((10.0, 0.0, 0.0), 1.0),
}


@pytest.mark.parametrize("name", list(CURVED))
def test_line_rule_matches_charted_p_area(name):
    # the Crofton identity to round-off: twice the p-Area is the measure
    # of the lines meeting the body, summed from its exact slices
    body = CURVED[name]
    charted = p_area(body, rel_tol=1e-10)
    line = p_area(body, method="line", rel_tol=1e-12)
    assert line.method == "line-rule"
    diff = abs(line.value - charted.value)
    assert diff <= 1e-12 * charted.value
    assert diff <= line.error_estimate
