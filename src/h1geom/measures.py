"""Lebesgue volume and sub-Riemannian perimeter of convex bodies.

The perimeter functional here is the p-Area: for a surface with Euclidean
unit normal n = (n1, n2, n3) at the point (x, y, t), the horizontal
projection of the normal in the left-invariant frame has components

    N_H = (n1 + y * n3,  n2 - x * n3)

and the p-Area is the integral of |N_H| against the Euclidean area
element.  It is invariant under the rigid motions of the Heisenberg
group, and it is the line measure's companion: the invariant measure of
horizontal lines meeting a convex body equals twice its p-Area.

``volume`` returns the body's closed form, which every body has.
``p_area`` is exact for planar bodies, whose boundary it takes as one
array of flat triangles from ``body.facets()``: a polytope's stored
facet fans, of which a box has twelve.  A vertical facet has the
constant |N_H| = |(n1, n2)|.  On any other facet with unit normal n,
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
Curved bodies (balls, ellipsoids and their images) are therefore
integrated on a sphere chart whose poles are the body's two
characteristic points, where the midpoint grid is the periodic
trapezoid rule of an analytic function and converges spectrally.  The
grid is evaluated as a column of u against a row of v, so the chart's
sines and cosines cost one per row or column, and its points and
normals come from one matrix product per grid.

``method='line'`` is the independent cross-check: the Crofton identity
itself, 2 pA = the integral over theta in [0, 2 pi) and p in P(theta)
of |T(p, theta)|, where a horizontal line (p, theta, t) meets the body
exactly when p lies in P(theta), the range of x . n over the body with
n = (cos theta, sin theta, 0), and t lies in T(p, theta), the range of
a . x over the slice {x . n = p} with a = e3 - p v and v = (sin theta,
-cos theta, 0): a . x = t along the line.  Its rules
(``_ellipsoid_line_rule``, ``_planar_line_rule``) work from those
slices and share no code with the surface rules.  ``volume_voxel_oracle``
is the volume's cross-check, from membership tests alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import _cross

__all__ = [
    "MeasureResult",
    "QuadratureError",
    "horizontal_normal_norm",
    "volume",
    "p_area",
    "volume_voxel_oracle",
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

# the refined rules start at this level (cells per chart axis, or theta
# nodes of the line rule) and double it until two levels agree to their
# tolerance or the level reaches the maximum
_MIN_RESOLUTION = 16
_MAX_RESOLUTION = 4096

# no quadrature result claims an error below this fraction of its value:
# summing 10^3 to 10^7 rounded terms loses more than a few ulp
_ROUNDOFF = 256.0 * float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Raised when a refined rule cannot reach the requested tolerance
    within the resolution budget."""


@dataclass(frozen=True)
class MeasureResult:
    """A measured value with provenance: the method that produced it
    ("exact", "quadrature" for the charted p-Area, "line-rule" or
    "voxel-oracle"), the finest resolution used (0 for closed forms), and
    an error estimate (0.0 for closed forms)."""

    value: float
    method: str
    resolution: int
    error_estimate: float


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


class _CharacteristicChart:
    """The surface of an ellipsoid X = center + L u, |u| = 1, over a
    sphere chart whose poles are the body's two characteristic points.

    With u+ and u- the characteristic directions (on the unit sphere), a rotation R takes them to (-beta, 0,
    +-sqrt(1 - beta^2)) and the sphere boost of speed beta along the
    first axis, a Mobius map, takes those to the poles.  The chart is
    X = center + L R B^{-1}(q) over the standard sphere chart q(u, v),
    with B^{-1}(q) = (q1 - beta, r q2, r q3) / (1 - beta q1), r =
    sqrt(1 - beta^2), and the area factor (1 - beta^2) / (1 - beta q1)^2.
    Near a pole |N_H| dA = rho h(phi) rho d rho d phi with h smooth and
    nonzero, so on the double cover of the (psi, phi) torus the p-Area
    integrand is analytic and the midpoint grid (n even) is its
    periodic trapezoid rule."""

    def __init__(self, body) -> None:
        north, south = _characteristic_directions(body.center, body.lin)
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
        self.center = body.center
        self.lin = body.lin @ rotation.T
        self._lin_inv = rotation @ body._lin_inv
        # the rows of lin and the columns of its inverse, for one product
        # per grid: points are center + lin s and normals parallel to
        # lin^{-T} s for s on the unit sphere
        self._maps = np.vstack([self.lin, self._lin_inv.T])
        # |N_H| dA_X = |det L| |N_H(g)| dA_u for the unnormalised normal
        # g = L^{-T} u, and the standard chart has dA_u = 2 pi^2 sin(psi)
        det = abs(float(body.lin[2] @ _cross(body.lin[0], body.lin[1])))
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
        """Points (..., 3), outward unit normals (..., 3) and the area
        element at the chart parameters (u, v) in [0, 1]^2."""
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


def _chunked_sum(term, count: int, width: int) -> float:
    """The sum of term(lo, hi) over consecutive ranges [lo, hi) of
    range(count), each of at most _CHUNK_POINTS // width items of
    ``width`` points."""
    step = max(1, _CHUNK_POINTS // width)
    total = 0.0
    for lo in range(0, count, step):
        total += term(lo, min(lo + step, count))
    return total


def _midpoint_sum(density, n: int) -> float:
    """Composite midpoint rule of density(u, v) over the unit square on an
    n x n grid.  The density sees a column of u against a row of v, so
    what depends on one parameter is computed once per row or column."""
    cell = 1.0 / n
    mid = (np.arange(n) + 0.5) * cell

    def rows(lo, hi):
        return float(np.sum(density(mid[lo:hi, None], mid[None, :])))

    return _chunked_sum(rows, n, n) * cell * cell


def _refine(rule, rel_tol: float, method: str) -> MeasureResult:
    """rule(n) at n = _MIN_RESOLUTION, doubled until two levels agree to
    rel_tol.  The finer level is returned as it is: every rule here
    converges spectrally, so a Richardson step would only move the
    coarser level's error into it, and the difference of the levels,
    never taken below the round-off floor, bounds its error.  Raises
    QuadratureError once the level reaches _MAX_RESOLUTION."""
    n = _MIN_RESOLUTION
    coarse = rule(n)
    while True:
        n *= 2
        fine = rule(n)
        err = abs(fine - coarse)
        if err <= rel_tol * abs(fine):
            return MeasureResult(
                value=fine,
                method=method,
                resolution=n,
                error_estimate=max(err, _ROUNDOFF * abs(fine)),
            )
        if n >= _MAX_RESOLUTION:
            raise QuadratureError(
                f"p-Area did not reach relative tolerance {rel_tol:.3e} at "
                f"resolution {n} (levels differ by {err:.3e})"
            )
        coarse = fine


@functools.lru_cache(maxsize=None)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the count-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(count)


def _ellipsoid_line_rule(body, n: int) -> float:
    """Half the Crofton integral of the ellipsoid X = c + L y, |y| <= 1,
    at level n: the midpoint rule on n theta nodes (the integrand is
    periodic) and n/2 Gauss-Legendre nodes on each of two pieces in u.

    With m = L^T n, P(theta) = n.c +- |m|.  The slice at p = n.c + delta
    is c + L y over m.y = delta, |y| <= 1, where a.x = a.c + b.y with
    b = L^T a, so |T| = 2 sqrt(1 - delta^2 / |m|^2) |b_perp|, b_perp the
    part of b orthogonal to m.  After p = n.c - |m| cos u, u in [0, pi],
    which absorbs the square-root ends of |T|, the p integral is 2 |m|
    times the integral of sin^2 u |b_perp|.  As b_perp = alpha + beta p
    is affine in p, |b_perp|^2 = |beta|^2 (p - p*)^2 + |alpha x beta|^2
    / |beta|^2 has a near-kink at p* when its minimum is small (every
    thin body has one), so u is split where p = p*."""
    lin, (c0, c1, _) = body.lin, body.center
    nodes, weights = _gauss_legendre(n // 2)

    def rows(lo, hi):
        theta = (np.arange(lo, hi) + 0.5) * (2.0 * math.pi / n)
        ct, st = np.cos(theta)[:, None], np.sin(theta)[:, None]
        m = ct * lin[0] + st * lin[1]
        mm = np.sum(m * m, axis=1, keepdims=True)
        # L^T e3 and -L^T v, each without its part along m
        alpha = lin[2] - (m @ lin[2])[:, None] / mm * m
        w = st * lin[0] - ct * lin[1]
        beta = np.sum(w * m, axis=1, keepdims=True) / mm * m - w
        bb = np.sum(beta * beta, axis=1)
        p_star = -np.sum(alpha * beta, axis=1) / bb
        floor = np.sum(_cross(alpha, beta) ** 2, axis=1) / bb
        mu = np.sqrt(mm[:, 0])
        # p - p* = offset - mu cos u
        offset = ct[:, 0] * c0 + st[:, 0] * c1 - p_star
        u_star = np.arccos(np.clip(offset / mu, -1.0, 1.0))
        # the pieces [0, u*] and [u*, pi] by centre and half-length
        half = np.column_stack([u_star, math.pi - u_star]) / 2.0
        centre = np.column_stack([u_star, math.pi + u_star]) / 2.0
        u = centre[..., None] + half[..., None] * nodes
        gap = offset[:, None, None] - mu[:, None, None] * np.cos(u)
        b_perp = np.sqrt(bb[:, None, None] * gap * gap + floor[:, None, None])
        inner = np.sum(half * ((np.sin(u) ** 2 * b_perp) @ weights), axis=1)
        return float(2.0 * (mu @ inner))

    # half of (2 pi / n) times the sum over the theta nodes
    return _chunked_sum(rows, n, n) * (math.pi / n)


def _planar_line_rule(triangles: np.ndarray, normals: np.ndarray, n: int) -> float:
    """Half the Crofton integral of a convex surface of flat triangles
    (T, 3, 3) with outward unit normals f (T, 3), at level n: n/2
    Gauss-Legendre theta nodes on each of seven pieces per triangle.

    A slice is a convex polygon, around which a . x rises and falls by
    |T| each, so |T| is half the sum of |a . dx| over its sides.  A side
    runs along d = n x f in each facet it crosses, and the part of it in
    one fan triangle adds |a . d| / |d| times the section's length.  By
    the coarea formula (|d| is the slope of x . n within the facet), the
    triangle's share of the p integral of |T| is half the integral over
    the triangle of |g|, g(x) = a(x . n) . d = d3 - (x . n) f3 =
    cos(theta) (f2 - x f3) - sin(theta) (f1 + y f3).  So g is linear on
    the triangle, -u . N_H(x) with u = (sin theta, -cos theta), and the
    integral of |g| is closed form in g's vertex values.  It is analytic
    in theta between the angles where g vanishes at a vertex (where the
    facet's turning point p = d3 / f3, at which a . d changes sign,
    crosses the vertex's x . n), two per vertex, and theta is split
    there."""
    d1 = triangles[:, 1] - triangles[:, 0]
    d2 = triangles[:, 2] - triangles[:, 0]
    area = 0.5 * np.linalg.norm(_cross(d1, d2), axis=1)
    # N_H at each vertex of each triangle, (T, 3) per component
    f1, f2, f3 = (normals[:, k, None] for k in range(3))
    nh1 = f1 + triangles[..., 1] * f3
    nh2 = f2 - triangles[..., 0] * f3
    zero = np.arctan2(nh2, nh1) % math.pi
    ends = np.zeros((len(area), 1))
    cuts = np.sort(np.hstack([ends, zero, zero + math.pi, ends + 2.0 * math.pi]), axis=1)
    half = np.diff(cuts, axis=1) / 2.0
    nodes, weights = _gauss_legendre(n // 2)

    def rows(lo, hi):
        theta = (cuts[lo:hi, :-1] + half[lo:hi])[..., None] + half[lo:hi, :, None] * nodes
        g = (
            np.cos(theta)[..., None] * nh2[lo:hi, None, None]
            - np.sin(theta)[..., None] * nh1[lo:hi, None, None]
        )
        total = g.sum(axis=-1)
        # |g| integrates as -g does: make at most one vertex positive
        sign = np.where(np.count_nonzero(g > 0.0, axis=-1) == 2, -1.0, 1.0)
        low, mid, top = np.moveaxis(np.sort(g * sign[..., None], axis=-1), -1, 0)
        total *= sign
        # the mean of |g| over the triangle: |mean g| where g keeps one
        # sign, else twice the mean of g+ (a corner triangle with g = top,
        # 0, 0 and sides cut at top / (top - mid), top / (top - low)) less
        # the mean of g
        lone = (top > 0.0) & (mid <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            corner = 2.0 * top**3 / ((top - mid) * (top - low))
        mean = np.where(lone, corner - total, np.abs(total)) / 3.0
        return float(area[lo:hi] @ np.sum(half[lo:hi] * (mean @ weights), axis=1))

    # the p integral of |T| is half the sum of the triangles' integrals,
    # and the p-Area half the Crofton integral
    return 0.25 * _chunked_sum(rows, len(area), 7 * (n // 2))


def _check_rel_tol(rel_tol) -> None:
    """Reject a tolerance no quadrature can meet or test (nan, infinite,
    zero or negative) before any work is done."""
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")


def volume(body) -> MeasureResult:
    """Lebesgue volume of a convex body: its closed form, which every body
    has.  ``volume_voxel_oracle`` is its cross-check."""
    return MeasureResult(
        value=body.volume_exact(), method="exact", resolution=0, error_estimate=0.0
    )


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


def p_area(body, method: str = "auto", rel_tol: float = 1e-6) -> MeasureResult:
    """Sub-Riemannian perimeter (p-Area) of a convex body: the integral of
    |N_H| over the boundary.

    ``method='auto'`` is exact on planar bodies (boxes, polytopes and
    their images under rigid motions).  Every other body is an ellipsoid
    (balls, ellipsoids and their images), integrated on a sphere chart
    whose poles are its two characteristic points, the only kinks of
    |N_H|: the midpoint grid, doubled from ``_MIN_RESOLUTION`` cells per
    axis until two levels agree to ``rel_tol``, is then a spectrally
    convergent periodic trapezoid rule, and the finer level is returned
    with the difference of the levels as its error estimate.  ``'line'``
    is the cross-check: half the Crofton integral of the slice ranges
    |T(p, theta)| over the lines' (p, theta), refined the same way to
    ``rel_tol`` and reported as ``"line-rule"``.

    Raises ValueError unless ``rel_tol`` is finite and positive, and
    QuadratureError if a refined rule cannot meet the tolerance by level
    ``_MAX_RESOLUTION``.
    """
    if method not in ("auto", "line"):
        raise ValueError(f"unknown p_area method {method!r}")
    _check_rel_tol(rel_tol)
    facets = body.facets()
    if method == "line":
        if facets is not None:
            return _refine(functools.partial(_planar_line_rule, *facets), rel_tol, "line-rule")
        return _refine(functools.partial(_ellipsoid_line_rule, body), rel_tol, "line-rule")
    if facets is not None:
        return MeasureResult(
            value=_planar_p_area(*facets), method="exact", resolution=0, error_estimate=0.0
        )
    chart = _CharacteristicChart(body)
    return _refine(functools.partial(_midpoint_sum, chart.p_area_density), rel_tol, "quadrature")


def volume_voxel_oracle(body, resolution: int = 128) -> MeasureResult:
    """Volume from membership tests alone, structurally independent of
    ``volume``: the product trapezoid rule on the (resolution + 1)^3
    corners of a regular lattice over the body's axis-aligned bounding
    box, each cell contributing the mean of its 8 corner indicators.  A
    cell whose corners all lie in the convex body lies in it, and one
    whose corners all lie outside it adds nothing unless the body enters
    it between its corners, so the error estimate is the volume of the
    cells whose corners disagree, never taken below the round-off
    floor.  A lattice of more than 2^32 points (resolution above 1624),
    as the grid method's cap, is refused before anything is allocated."""
    if resolution < 8:
        raise ValueError("volume_voxel_oracle needs resolution >= 8")
    if (resolution + 1) ** 3 > 1 << 32:
        raise ValueError(f"voxel resolution {resolution} asks for more than 2^32 lattice points")
    # the axis-aligned bounding box, from the body's support on +-e_i
    lo, hi = -body.support(-np.eye(3)), body.support(np.eye(3))
    xs, ys, zs = (np.linspace(a, b, resolution + 1) for a, b in zip(lo, hi))
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    plane = np.column_stack([xx.ravel(), yy.ravel(), np.empty(xx.size)])

    def corners(z):
        # per column of cells, how many of its 4 corners at height z lie in
        # the body
        plane[:, 2] = z
        inside = body.contains_batch(plane).reshape(xx.shape).astype(np.int8)
        return inside[:-1, :-1] + inside[1:, :-1] + inside[:-1, 1:] + inside[1:, 1:]

    total = mixed = 0
    below = corners(zs[0])
    for z in zs[1:]:
        above = corners(z)
        count = below + above
        total += int(count.sum(dtype=np.int64))
        mixed += int(np.count_nonzero((count > 0) & (count < 8)))
        below = above
    cell = float(np.prod((hi - lo) / resolution))
    value = total * cell / 8.0
    return MeasureResult(
        value=value,
        method="voxel-oracle",
        resolution=resolution,
        error_estimate=max(mixed * cell, _ROUNDOFF * value),
    )
