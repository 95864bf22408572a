"""Lebesgue volume and sub-Riemannian perimeter of convex bodies.

The perimeter functional here is the p-Area: for a surface with Euclidean
unit normal n = (n1, n2, n3) at the point (x, y, t), the horizontal
projection of the normal in the left-invariant frame has components

    N_H = (n1 + y * n3,  n2 - x * n3)

and the p-Area is the integral of |N_H| against the Euclidean area
element.  It is invariant under the rigid motions of the Heisenberg
group, and it is the line measure's companion: the invariant measure of
horizontal lines meeting a convex body equals twice its p-Area.

Bodies expose their boundary as parametrized patches: flat triangles
(``Box``, ``Polytope`` and their images under rigid motions) or one
linear image of the sphere (balls, ellipsoids and their images).
``p_area`` is exact for planar bodies, whose boundary it takes as one
array of flat triangles: a polytope's stored facet fans, of which a box
has twelve.  A vertical facet has the constant |N_H| = |(n1, n2)|.
On any other facet with unit normal n,
|N_H| equals |n3| * |(x, y) - c| with c = (n2/n3, -n1/n3) and
dA = dx dy / |n3|, so the facet contributes the integral of the
distance to c over its xy-projection: a sum of closed-form fan terms
over its edges when c is near the facet, the 10-point Gauss-Legendre
rule farther out, where the fan terms cancel.  Each of the three
branches runs over all its facets in one array pass.

The integrand |N_H| vanishes at characteristic points (where the
tangent plane is the contact plane), and it has a cone-like kink there:
|N_H| = rho * h(phi) in polar coordinates about the point.  A grid cell
that contains the kink spoils the convergence order of any tensor rule.
Curved bodies (balls, ellipsoids and their images, whose boundary is
one ``EllipsoidPatch``) are therefore integrated on a sphere chart whose
poles are the body's two characteristic points, where the midpoint grid
is the periodic trapezoid rule of an analytic function and converges
spectrally.  The grid is evaluated as a column of u against a row of
v, so the chart's sines and cosines cost one per row or column, and its
points and normals come from one matrix product per grid.
``method='quadrature'`` forces the adaptive midpoint rule with
Richardson extrapolation on the standard patch charts instead, on
every body, as a cross-check; it stops only where three successive
levels show the h^2 order its error estimate assumes, so a kink inside
a patch costs resolution, not coverage.  ``p_area_triangulation_oracle``
and ``volume_voxel_oracle`` are slower, structurally independent
cross-checks used by the test suite.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurfacePatch",
    "TrianglePatch",
    "EllipsoidPatch",
    "MeasureResult",
    "QuadratureError",
    "horizontal_normal_norm",
    "volume",
    "p_area",
    "volume_voxel_oracle",
    "p_area_triangulation_oracle",
]

# evaluation is chunked so refinement never materializes huge grids
_CHUNK_POINTS = 1 << 16

# a planar facet's fan formula is used only when the centre c of its
# distance integrand lies within this many projected diameters of the
# facet's centroid.  Farther out the fan terms cancel (relative error
# about 1e-13 at 2 diameters, 1e-10 at 30, O(1) at 1e5), while the
# integrand is analytic on the facet and the 10-point Gauss-Legendre
# rule is within 2e-15 of a 40-digit reference from 2 diameters out
_FAN_REACH = 2.0
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)
# the same rule on [0, 1]
_GAUSS_U = 0.5 * (_GAUSS_NODES + 1.0)
_GAUSS_W = 0.5 * _GAUSS_WEIGHTS

# the adaptive rules start at this many cells per patch axis and double
# it until they meet their tolerance or reach the maximum
_MIN_RESOLUTION = 16
_MAX_RESOLUTION = 4096

# no quadrature result claims an error below this fraction of its value:
# summing 10^3 to 10^7 rounded terms loses more than a few ulp
_ROUNDOFF = 256.0 * float(np.finfo(float).eps)


# a x b = a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT] along the last axis
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a, b):
    """a x b along the last axis with the arithmetic of np.cross, which
    costs tens of microseconds a call in numpy 2."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested
    tolerance within the resolution budget."""


@dataclass(frozen=True)
class MeasureResult:
    """A measured value with provenance: the method that produced it
    ("exact", "quadrature", "voxel-oracle" or "triangulation-oracle"),
    the finest resolution used (0 for closed forms), and an error
    estimate (0.0 for closed forms)."""

    value: float
    method: str
    resolution: int
    error_estimate: float


class SurfacePatch(abc.ABC):
    """A smooth parametrized piece of a body's boundary over the unit
    square (u, v) in [0, 1]^2.

    ``evaluate`` maps parameter arrays to (points, normals, jacobian):
    points on the surface with shape (..., 3), outward Euclidean unit
    normals with shape (..., 3), and the area element |X_u x X_v| with
    shape (...).  Patches may collapse edges (triangles, sphere poles);
    the jacobian then vanishes on the collapsed set.
    """

    @abc.abstractmethod
    def evaluate(
        self, u: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError


class TrianglePatch(SurfacePatch):
    """A flat triangle mapped from the unit square by collapsing an edge:
    X(u, v) = (1-u) p0 + u ((1-v) p1 + v p2), so the area element is
    u * |(p1 - p0) x (p2 - p0)| and integrates to the triangle area."""

    def __init__(self, p0, p1, p2, normal) -> None:
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self.p2 = np.asarray(p2, dtype=float)
        n = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("TrianglePatch normal must be nonzero")
        self.normal = n / norm
        self._jac0 = float(
            np.linalg.norm(_cross(self.p1 - self.p0, self.p2 - self.p0))
        )

    def evaluate(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        edge = (1.0 - v)[..., None] * self.p1 + v[..., None] * self.p2
        pts = (1.0 - u)[..., None] * self.p0 + u[..., None] * edge
        shape = np.broadcast_shapes(u.shape, v.shape)
        normals = np.broadcast_to(self.normal, shape + (3,))
        jac = np.broadcast_to(u, shape) * self._jac0
        return pts, normals, jac


class EllipsoidPatch(SurfacePatch):
    """The boundary of a linear image of the unit ball, X = center + L n
    over the sphere chart n(u, v) = (sin(pi v) cos(2 pi u),
    sin(pi v) sin(2 pi u), cos(pi v)).

    The outward normal of the image surface is parallel to L^{-T} n (the
    gradient of the defining quadratic |L^{-1}(X - center)|^2), which
    points outward for any invertible L because (L^{-T} n) . (L n) = 1.
    """

    def __init__(self, center, lin) -> None:
        self.center = np.asarray(center, dtype=float)
        self.lin = np.asarray(lin, dtype=float)
        if self.lin.shape != (3, 3):
            raise ValueError("EllipsoidPatch needs a 3x3 linear map")
        self._lin_inv = np.linalg.inv(self.lin)

    def evaluate(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        phi = 2.0 * math.pi * u
        psi = math.pi * v
        sp, cp = np.sin(psi), np.cos(psi)
        sf, cf = np.sin(phi), np.cos(phi)
        n_sph = np.stack(
            np.broadcast_arrays(sp * cf, sp * sf, cp), axis=-1
        )
        pts = self.center + n_sph @ self.lin.T
        # chart partials through the linear map
        dn_du = np.stack(
            np.broadcast_arrays(
                -2.0 * math.pi * sp * sf,
                2.0 * math.pi * sp * cf,
                np.zeros_like(sp * sf),
            ),
            axis=-1,
        )
        dn_dv = np.stack(
            np.broadcast_arrays(
                math.pi * cp * cf, math.pi * cp * sf, -math.pi * sp
            ),
            axis=-1,
        )
        xu = dn_du @ self.lin.T
        xv = dn_dv @ self.lin.T
        jac = np.linalg.norm(_cross(xu, xv), axis=-1)
        grad = n_sph @ self._lin_inv
        gnorm = np.linalg.norm(grad, axis=-1, keepdims=True)
        normals = grad / gnorm
        return pts, normals, jac


def _characteristic_directions(center, lin) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors u+ and u- whose images center + lin u are the two
    characteristic points of the ellipsoid, u+ the one with n3 > 0.

    X = c + L u is characteristic when its normal L^{-T} u is parallel
    to (-y, x, 1) = J X + e3, J = [e3]_x: L^{-T} u = lam (J (X - c) + w)
    with w = J c + e3.  Multiplied by L^T this is (I - lam K) u = lam a
    with a = L^T w and K = L^T J L = [k]_x, k = det(L) L^{-1} e3.  As K
    is skew, (I - lam K)^{-1} = (I + lam K + lam^2 k k^T) / (1 + lam^2
    |k|^2), and since k . a = det(L), |u| = 1 reduces to
    det(L)^2 s^2 + (|a|^2 - |k|^2) s - 1 = 0 in s = lam^2: one positive
    root, and lam = +sqrt(s) (north), -sqrt(s) (south)."""
    # det(L) L^{-1} e3 is the third column of the adjugate of L
    k = _cross(lin[0], lin[1])
    det = float(lin[2] @ k)
    a = lin.T @ np.array([-center[1], center[0], 1.0])
    kk = float(k @ k)
    b = float(a @ a) - kk
    root = math.hypot(b, 2.0 * det)
    # the quadratic's positive root, in the form that does not cancel
    s = 2.0 / (b + root) if b >= 0.0 else (root - b) / (2.0 * det * det)
    ka = _cross(k, a)
    north, south = (
        lam * (a + lam * ka + s * det * k) / (1.0 + s * kk)
        for lam in (math.sqrt(s), -math.sqrt(s))
    )
    return north, south


class _CharacteristicChart(SurfacePatch):
    """The surface of an ``EllipsoidPatch`` over a sphere chart whose
    poles are the body's two characteristic points.

    With u+ and u- the characteristic directions (on the unit sphere of
    the patch's chart), a rotation R takes them to (-beta, 0,
    +-sqrt(1 - beta^2)) and the sphere boost of speed beta along the
    first axis, a Mobius map, takes those to the poles.  The chart is
    X = center + L R B^{-1}(q) over the standard sphere chart q(u, v),
    with B^{-1}(q) = (q1 - beta, r q2, r q3) / (1 - beta q1), r =
    sqrt(1 - beta^2), and the area factor (1 - beta^2) / (1 - beta q1)^2.
    Near a pole |N_H| dA = rho h(phi) rho d rho d phi with h smooth and
    nonzero, so on the double cover of the (psi, phi) torus the p-Area
    integrand is analytic and the midpoint grid (n even) is its
    periodic trapezoid rule."""

    def __init__(self, patch: EllipsoidPatch) -> None:
        north, south = _characteristic_directions(patch.center, patch.lin)
        e3 = north - south
        e3 /= math.sqrt(e3 @ e3)
        bisector = north + south
        bisector -= (bisector @ e3) * e3
        self.beta = 0.5 * math.sqrt(bisector @ bisector)
        if self.beta > 1e-12:
            e1 = -bisector / (2.0 * self.beta)
        else:
            # antipodal points (every body centred on the t-axis and its
            # images): no boost, and any axis orthogonal to e3; a kink
            # 1e-12 off the pole is far below any tolerance
            self.beta = 0.0
            axis = np.eye(3)[np.argmin(np.abs(e3))]
            e1 = axis - (axis @ e3) * e3
            e1 /= math.sqrt(e1 @ e1)
        rotation = np.array([e1, _cross(e3, e1), e3])
        self.center = patch.center
        self.lin = patch.lin @ rotation.T
        self._lin_inv = rotation @ patch._lin_inv
        # the rows of lin and the columns of its inverse, for one product
        # per grid: points are center + lin s and normals parallel to
        # lin^{-T} s for s on the unit sphere
        self._maps = np.vstack([self.lin, self._lin_inv.T])
        # |N_H| dA_X = |det L| |N_H(g)| dA_u for the unnormalised normal
        # g = L^{-T} u, and the standard chart has dA_u = 2 pi^2 sin(psi)
        det = abs(float(patch.lin[2] @ _cross(patch.lin[0], patch.lin[1])))
        self._area_scale = 2.0 * math.pi**2 * det * (1.0 - self.beta**2)

    def _images(self, u, v):
        """The chart's points and unnormalised normals at (u, v), as one
        array (6, ...) of x, y, t, g1, g2, g3, and its area element over
        |g| (the Jacobian of the boost and the sphere chart, times
        |det L|)."""
        phi = 2.0 * math.pi * np.asarray(u, dtype=float)
        psi = math.pi * np.asarray(v, dtype=float)
        sp = np.sin(psi)
        q1 = sp * np.cos(phi)
        inv = 1.0 / (1.0 - self.beta * q1)
        sphere = np.empty((3,) + inv.shape)
        np.multiply(q1 - self.beta, inv, out=sphere[0])
        inv_r = math.sqrt(1.0 - self.beta**2) * inv
        np.multiply(sp * np.sin(phi), inv_r, out=sphere[1])
        np.multiply(np.cos(psi), inv_r, out=sphere[2])
        images = (self._maps @ sphere.reshape(3, -1)).reshape((6,) + inv.shape)
        images[:3] += self.center.reshape((3,) + (1,) * inv.ndim)
        inv *= inv
        inv *= sp
        inv *= self._area_scale
        return images, inv

    def evaluate(self, u, v):
        images, weight = self._images(u, v)
        pts = np.moveaxis(images[:3], 0, -1)
        grad = np.moveaxis(images[3:], 0, -1)
        gnorm = np.linalg.norm(grad, axis=-1)
        return pts, grad / gnorm[..., None], weight * gnorm

    def p_area_density(self, u, v):
        """|N_H| times the area element at (u, v): with the normal
        g / |g|, |N_H| is |(g1 + y g3, g2 - x g3)| / |g|, so |g| cancels."""
        (x, y, _, g1, g2, g3), weight = self._images(u, v)
        nh1 = np.multiply(y, g3, out=y)
        nh1 += g1
        nh2 = np.multiply(x, g3, out=x)
        np.subtract(g2, nh2, out=nh2)
        density = np.hypot(nh1, nh2, out=nh1)
        density *= weight
        return density


def horizontal_normal_norm(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The p-Area integrand |N_H| = |(n1 + y n3, n2 - x n3)| for points
    (..., 3) and Euclidean unit normals (..., 3)."""
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    nh1 = normals[..., 0] + points[..., 1] * normals[..., 2]
    nh2 = normals[..., 1] - points[..., 0] * normals[..., 2]
    return np.hypot(nh1, nh2)


def _midpoint_sum(density, n: int) -> float:
    """Composite midpoint rule of density(u, v) over the unit square on an
    n x n grid.  The density sees a column of u against a row of v, so
    what depends on one parameter is computed once per row or column."""
    cell = 1.0 / n
    mid = (np.arange(n) + 0.5) * cell
    rows_per_chunk = max(1, _CHUNK_POINTS // n)
    total = 0.0
    for lo in range(0, n, rows_per_chunk):
        total += float(np.sum(density(mid[lo : lo + rows_per_chunk, None], mid[None, :])))
    return total * cell * cell


def _patch_density(patch: SurfacePatch, integrand):
    """integrand(points, normals) times the area element of the patch, as
    a function of (u, v)."""

    def density(u, v):
        pts, normals, jac = patch.evaluate(u, v)
        return integrand(pts, normals) * jac

    return density


def _adaptive_patch_integral(
    patch: SurfacePatch, integrand, tol_abs: float
) -> tuple[float, float, int]:
    """Refine the midpoint rule until the Richardson error estimate meets
    tol_abs; return (extrapolated value, error estimate, resolution).  The
    returned estimate is at least the round-off floor."""
    n = _MIN_RESOLUTION
    older = None
    density = _patch_density(patch, integrand)
    coarse = _midpoint_sum(density, n)
    while True:
        n *= 2
        fine = _midpoint_sum(density, n)
        diff = fine - coarse
        # midpoint rule converges at order h^2, so the h -> h/2 step
        # overestimates the remaining error by a factor 3.  A kink inside
        # the patch (a characteristic point) breaks that order until h
        # resolves it, so the step is trusted only where the last three
        # levels show it, their differences shrinking by 3 or more, or
        # where the difference is round-off
        err = abs(diff) / 3.0
        settled = abs(diff) <= _ROUNDOFF * abs(fine) or (
            older is not None and (coarse - older) / diff >= 3.0
        )
        if err <= tol_abs and settled:
            value = fine + diff / 3.0
            return value, max(err, _ROUNDOFF * abs(value)), n
        if n >= _MAX_RESOLUTION:
            raise QuadratureError(
                f"patch integral did not reach tolerance {tol_abs:.3e} at "
                f"resolution {n} (error estimate {err:.3e})"
            )
        older, coarse = coarse, fine


def _adaptive_surface_integral(body, integrand, rel_tol: float) -> MeasureResult:
    """integrand(points, normals) over the body's boundary patches, each
    refined by ``_adaptive_patch_integral`` to its share of rel_tol."""
    patches = body.boundary_patches()
    coarse = sum(_midpoint_sum(_patch_density(p, integrand), _MIN_RESOLUTION) for p in patches)
    scale = max(abs(coarse), 1e-12)
    tol_patch = rel_tol * scale / len(patches)
    value = 0.0
    err = 0.0
    res = _MIN_RESOLUTION
    for patch in patches:
        v, e, n = _adaptive_patch_integral(patch, integrand, tol_patch)
        value += v
        err += e
        res = max(res, n)
    return MeasureResult(value=value, method="quadrature", resolution=res, error_estimate=err)


def _charted_p_area(patch: EllipsoidPatch, rel_tol: float) -> MeasureResult:
    """p-Area of one ellipsoid patch by the midpoint rule on its
    characteristic-point chart, doubled until two levels agree to
    rel_tol.  The finer level is returned as it is: it converges
    spectrally, so a Richardson step would only move the coarse level's
    error into it, and the difference of the levels bounds its error."""
    chart = _CharacteristicChart(patch)
    n = _MIN_RESOLUTION
    coarse = _midpoint_sum(chart.p_area_density, n)
    while True:
        n *= 2
        fine = _midpoint_sum(chart.p_area_density, n)
        err = abs(fine - coarse)
        if err <= rel_tol * abs(fine):
            return MeasureResult(
                value=fine,
                method="quadrature",
                resolution=n,
                error_estimate=max(err, _ROUNDOFF * abs(fine)),
            )
        if n >= _MAX_RESOLUTION:
            raise QuadratureError(
                f"p-Area did not reach relative tolerance {rel_tol:.3e} at "
                f"resolution {n} (levels differ by {err:.3e})"
            )
        coarse = fine


def _check_rel_tol(rel_tol) -> None:
    """Reject a tolerance no quadrature can meet or test (nan, infinite,
    zero or negative) before any work is done."""
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")


def volume(body, method: str = "auto", rel_tol: float = 1e-6) -> MeasureResult:
    """Lebesgue volume of a convex body.

    ``method='auto'`` and ``'exact'`` return the body's closed form,
    which every body has.  ``'quadrature'`` integrates the divergence
    identity V = (1/3) * integral of (X . n) dA over the boundary patches
    with the adaptive midpoint rule, as a cross-check.  Raises ValueError
    unless ``rel_tol`` is finite and positive, and QuadratureError if the
    quadrature cannot meet it within ``_MAX_RESOLUTION`` cells per patch
    axis.
    """
    if method not in ("auto", "exact", "quadrature"):
        raise ValueError(f"unknown volume method {method!r}")
    _check_rel_tol(rel_tol)
    if method != "quadrature":
        return MeasureResult(
            value=body.volume_exact(), method="exact", resolution=0, error_estimate=0.0
        )

    def flux(pts, normals):
        return np.sum(pts * normals, axis=-1) / 3.0

    return _adaptive_surface_integral(body, flux, rel_tol)


def _planar_p_area(triangles: np.ndarray, normals: np.ndarray) -> float:
    """p-Area of a surface made of flat triangles (T, 3, 3) with outward
    unit normals (T, 3), every facet in one array pass of its branch.

    A vertical facet (n3 = 0) has the constant |N_H| = |(n1, n2)| and
    contributes its area times that.  On any other facet |N_H| equals
    |n3| |(x, y) - c| with c = (n2/n3, -n1/n3) and dA = dx dy / |n3|, so
    it contributes the integral of the distance to c over its
    xy-projection.  Where c lies within ``_FAN_REACH`` projected
    diameters of the facet's centroid that is the signed sum of the fan
    triangles (c, a, b) over the edges: with h the signed distance of c
    from the edge's line and s the coordinate along it, an edge gives
    (h/6) [s sqrt(h^2 + s^2) + h^2 asinh(s/|h|)] between a and b.
    Farther out the 10-point Gauss-Legendre rule runs on the chart
    X(u, v) = (1-u) p0 + u ((1-v) p1 + v p2), whose area element is
    u |(p1 - p0) x (p2 - p0)|."""
    n1, n2, n3 = normals.T
    xy = triangles[..., :2]
    mid = xy.mean(axis=1)
    spread = xy - mid[:, None, :]
    diam = 2.0 * np.hypot(spread[..., 0], spread[..., 1]).max(axis=1)
    # |c - mid| <= reach * diam, multiplied through by |n3|; false where
    # n3 = 0, as (n1, n2) is then a unit vector
    near = np.hypot(n2 - n3 * mid[:, 0], -n1 - n3 * mid[:, 1]) <= _FAN_REACH * diam * np.abs(n3)
    vertical = n3 == 0.0
    far = ~(near | vertical)
    total = 0.0
    if near.any():
        centre = np.column_stack([n2[near] / n3[near], -n1[near] / n3[near]])
        a = xy[near] - centre[:, None, :]
        b = np.roll(a, -1, axis=1)
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        edge = b - a
        length = np.hypot(edge[..., 0], edge[..., 1])
        # a fan triangle with cross = 0 is degenerate and adds nothing;
        # its h is 0 and its terms are dropped below
        with np.errstate(divide="ignore", invalid="ignore"):
            h = cross / length
            s = np.stack([np.sum(a * edge, axis=-1), np.sum(b * edge, axis=-1)]) / length
            prim = s * np.hypot(h, s) + h * h * np.arcsinh(s / np.abs(h))
        fan = np.where(cross != 0.0, h * (prim[1] - prim[0]) / 6.0, 0.0)
        total += float(np.abs(fan.sum(axis=1)).sum())
    if not near.all():
        # twice the triangles' areas
        d1 = triangles[:, 1] - triangles[:, 0]
        d2 = triangles[:, 2] - triangles[:, 0]
        jac = np.linalg.norm(_cross(d1, d2), axis=1)
        total += float(0.5 * np.sum(jac[vertical] * np.hypot(n1[vertical], n2[vertical])))
    if far.any():
        # axes (facet, u node, v node, coordinate)
        p0, p1, p2 = (xy[far, k, None, None, :] for k in range(3))
        u, v = _GAUSS_U[:, None, None], _GAUSS_U[:, None]
        pts = (1.0 - u) * p0 + u * ((1.0 - v) * p1 + v * p2)
        f1, f2, f3 = normals[far].T[..., None, None]
        nh = np.hypot(f1 + pts[..., 1] * f3, f2 - pts[..., 0] * f3)
        # nh[f, i, j] is at u_i, v_j; the area element is u_i jac_f
        total += float(jac[far] @ ((_GAUSS_W * _GAUSS_U) @ nh @ _GAUSS_W))
    return total


def _planar_facets(body):
    """The boundary of a planar body as flat triangles (T, 3, 3) and their
    outward unit normals (T, 3), or None when it is curved.  Every planar
    body is a Polytope: a Box is one, and so is every rigid image of one."""
    from .bodies import Polytope  # bodies imports this module

    if isinstance(body, Polytope):
        return body._triangles, body._facet_normals
    return None


def p_area(body, method: str = "auto", rel_tol: float = 1e-6) -> MeasureResult:
    """Sub-Riemannian perimeter (p-Area) of a convex body: the integral of
    |N_H| over the boundary.

    ``method='auto'`` is exact on planar bodies (boxes, polytopes and
    their images under rigid motions).  Every other body is an ellipsoid
    (balls, ellipsoids and their images), whose boundary is one ellipsoid
    patch; it is integrated on a sphere chart whose poles are its two
    characteristic points, the only kinks of |N_H|: the midpoint grid,
    doubled from ``_MIN_RESOLUTION`` cells per axis until two levels
    agree to ``rel_tol``, is then a spectrally convergent periodic
    trapezoid rule, and the finer level is returned with the difference
    of the levels as its error estimate.  ``'exact'`` (ValueError on a
    curved body) and ``'quadrature'`` force one path; ``'quadrature'`` is
    the adaptive midpoint rule with Richardson extrapolation on the
    standard patch charts, kept as an independent cross-check.

    Raises ValueError unless ``rel_tol`` is finite and positive, and
    QuadratureError if the quadrature cannot meet the tolerance within
    ``_MAX_RESOLUTION`` cells per patch axis.
    """
    if method not in ("auto", "exact", "quadrature"):
        raise ValueError(f"unknown p_area method {method!r}")
    _check_rel_tol(rel_tol)
    if method == "quadrature":
        return _adaptive_surface_integral(body, horizontal_normal_norm, rel_tol)
    facets = _planar_facets(body)
    if facets is not None:
        return MeasureResult(
            value=_planar_p_area(*facets), method="exact", resolution=0, error_estimate=0.0
        )
    if method == "exact":
        raise ValueError("body has no closed-form p-Area (curved boundary)")
    return _charted_p_area(body.boundary_patches()[0], rel_tol)


def _voxel_fraction(body, resolution: int) -> float:
    bounds = body.bounds()
    x_lo, x_hi = -bounds.r_xy, bounds.r_xy
    z_lo, z_hi = bounds.z_min, bounds.z_max
    hx = (x_hi - x_lo) / resolution
    hz = (z_hi - z_lo) / resolution
    xs = x_lo + (np.arange(resolution) + 0.5) * hx
    zs = z_lo + (np.arange(resolution) + 0.5) * hz
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    plane = np.column_stack([xx.ravel(), yy.ravel()])
    inside = 0
    for z in zs:
        pts = np.column_stack([plane, np.full(len(plane), z)])
        inside += int(np.count_nonzero(body.contains_batch(pts)))
    cell = hx * hx * hz
    return inside * cell


def volume_voxel_oracle(body, resolution: int = 128) -> MeasureResult:
    """Volume by counting voxel centers inside the body on a regular grid
    over the bounding box.  Structurally independent of ``volume``: uses
    only membership tests.  The error estimate is the change from the
    half-resolution grid."""
    if resolution < 8:
        raise ValueError("volume_voxel_oracle needs resolution >= 8")
    value = _voxel_fraction(body, resolution)
    coarse = _voxel_fraction(body, resolution // 2)
    return MeasureResult(
        value=value,
        method="voxel-oracle",
        resolution=resolution,
        error_estimate=abs(value - coarse),
    )


def _triangulation_value(body, resolution: int) -> float:
    total = 0.0
    grid = np.linspace(0.0, 1.0, resolution + 1)
    for patch in body.boundary_patches():
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        pts, _, _ = patch.evaluate(uu, vv)
        p00 = pts[:-1, :-1]
        p10 = pts[1:, :-1]
        p01 = pts[:-1, 1:]
        p11 = pts[1:, 1:]
        # two triangles per cell; the unnormalized area vector absorbs
        # both the triangle area and the unit normal, so degenerate
        # (collapsed) cells contribute exactly zero
        for a, b, c in ((p00, p10, p11), (p00, p11, p01)):
            area_vec = 0.5 * np.cross(b - a, c - a)
            centroid = (a + b + c) / 3.0
            nh1 = area_vec[..., 0] + centroid[..., 1] * area_vec[..., 2]
            nh2 = area_vec[..., 1] - centroid[..., 0] * area_vec[..., 2]
            total += float(np.sum(np.hypot(nh1, nh2)))
    return total


def p_area_triangulation_oracle(body, resolution: int = 128) -> MeasureResult:
    """p-Area by triangulating each boundary patch and summing
    |N_H(centroid)| * area over flat triangles.  Independent of the
    quadrature path: needs only boundary points, no normals or area
    elements.  The error estimate is the change from half resolution."""
    if resolution < 8:
        raise ValueError("p_area_triangulation_oracle needs resolution >= 8")
    value = _triangulation_value(body, resolution)
    coarse = _triangulation_value(body, resolution // 2)
    return MeasureResult(
        value=value,
        method="triangulation-oracle",
        resolution=resolution,
        error_estimate=abs(value - coarse),
    )
