"""Euclidean-convex bodies and their chords along horizontal lines.

A convex body here is a compact convex subset of R^3 with nonempty
interior.  The central operation is ``chord``: the parameter interval
[s_in, s_out] along which a horizontal line (in the (p, theta, t) chart
of :mod:`h1geom.core`) meets the body.  Because the chart parameter is
the sub-Riemannian arclength, s_out - s_in is exactly the Levi length of
the chord, which is what the kinematic identities integrate.

All bodies support vectorized membership and chord queries; ``chord``
solves one quadratic (ellipsoids, of which a ball is the case
lin = r I, and their images under rigid motions) or clips the line
against one halfspace at a time (polytopes, of which a box is the case
of the six axis halfspaces, and their images), so chords are exact to
round-off, not root-finding approximations.  Both kernels take the
line's direction (cos theta, sin theta) from one half-angle tangent per
line (``_direction``), within a few ulp of cos and sin.  The ``tol`` of
``contains_batch`` inflates a quadric by the factor 1 + tol about its
center (r * tol in distance for a ball) and a box or polytope by tol in
distance.

A polytope finds its own vertices, facets and volume with numpy alone:
every pair of its planes meets in a line, and that line clipped against
all the halfspaces is a hull edge or nothing (``_hull_edges``).
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import HorizontalLine, Point, PshMotion, motion_affine
from .measures import EllipsoidPatch, RectanglePatch, SurfacePatch, TrianglePatch

__all__ = [
    "CapabilityError",
    "ChordInterval",
    "BoundingData",
    "ConvexBody",
    "Ball",
    "Ellipsoid",
    "Box",
    "Polytope",
    "transform_body",
]


class CapabilityError(Exception):
    """Raised when an operation is not supported for a body type."""


@dataclass(frozen=True)
class ChordInterval:
    """The parameter interval a line spends inside a body.

    ``s_in <= s_out``; tangential contact gives a degenerate interval
    with sigma == 0.  The empty chord is represented with NaN endpoints
    (query ``is_empty``, never the fields directly).
    """

    s_in: float
    s_out: float

    def __post_init__(self) -> None:
        if math.isnan(self.s_in) != math.isnan(self.s_out):
            raise ValueError("chord endpoints must be both NaN or both finite")
        if not math.isnan(self.s_in) and self.s_out < self.s_in:
            raise ValueError(f"chord needs s_in <= s_out, got [{self.s_in}, {self.s_out}]")

    @classmethod
    def empty(cls) -> "ChordInterval":
        return cls(math.nan, math.nan)

    @property
    def is_empty(self) -> bool:
        return math.isnan(self.s_in)

    @property
    def sigma(self) -> float:
        """Chord length in the Levi metric (0 for empty or tangent chords)."""
        if self.is_empty:
            return 0.0
        return self.s_out - self.s_in


@dataclass(frozen=True)
class BoundingData:
    """Cylindrical bounds: the body lies in {x^2 + y^2 <= r_xy^2,
    z_min <= t <= z_max}."""

    r_xy: float
    z_min: float
    z_max: float


def _combine(coeffs, arrays):
    """The sum of c * a over the nonzero coefficients c, left to right,
    or None when every c is zero: a face normal to an axis costs one
    product, not three, and a diagonal metric drops its cross terms."""
    terms = [c * a for c, a in zip(coeffs, arrays) if c]
    return sum(terms[1:], terms[0]) if terms else None


def _direction(theta):
    """(cos theta, sin theta) from one half-angle tangent per angle:
    with tau = tan(theta / 2) they are (1 - tau^2) / (1 + tau^2) and
    2 tau / (1 + tau^2), within a few ulp of np.cos / np.sin and exactly
    (1, 0) at theta = 0.  numpy's float64 tan is SIMD-vectorised where
    its sin and cos are not (numpy 2.4 on AVX-512), so this is several
    times cheaper."""
    # in place, so a batch holds three arrays where cos and sin hold two
    tau = np.tan(0.5 * np.asarray(theta, dtype=float))
    den = tau * tau
    ct = 1.0 - den
    den += 1.0
    ct /= den
    tau += tau
    tau /= den
    return ct, tau


def _solve_chord_quadratic(a, b, c):
    """Roots of a s^2 + b s + c = 0 for quadric chords, with a > 0 and
    c = (w^T M w) - 1.  Discriminants within -1e-12 * scale^2 of zero
    count as tangency (a zero-length chord) rather than a miss, so
    grazing lines are not dropped.  At tangency c is what is left of a
    sum near 1 after the - 1 cancels, so the scale counts that 1: a
    tangent line with b = 0 is a hit whichever way c rounds.  The clamp
    at zero gives a miss the (meaningless) roots of disc = 0."""
    bb = b * b
    ac4 = 4.0 * a * c
    disc = bb - ac4
    hit = disc >= -1e-12 * (bb + np.abs(ac4) + 4.0 * a)
    sq = np.sqrt(np.maximum(disc, 0.0))
    nb = -b
    a2 = 2.0 * a
    return (nb - sq) / a2, (nb + sq) / a2, hit


class ConvexBody(abc.ABC):
    """Interface shared by all bodies: membership, chords, bounds,
    boundary patches, and (when available) closed-form volume."""

    @abc.abstractmethod
    def contains_batch(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of points (N, 3) inside the body inflated by tol."""

    @abc.abstractmethod
    def chord_batch(
        self, p: np.ndarray, theta: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chord endpoints (s_lo, s_hi) and hit mask for line arrays.
        Where hit is False the endpoints are meaningless."""

    @abc.abstractmethod
    def bounds(self) -> BoundingData:
        ...

    @abc.abstractmethod
    def volume_exact(self) -> float | None:
        """Closed-form Lebesgue volume, or None if the body has none."""

    @abc.abstractmethod
    def boundary_patches(self) -> list[SurfacePatch]:
        ...

    @abc.abstractmethod
    def interior_point(self) -> np.ndarray:
        ...

    def contains(self, pt: Point, tol: float = 0.0) -> bool:
        mask = self.contains_batch(pt.as_array()[None, :], tol=tol)
        return bool(mask[0])

    def chord(self, line: HorizontalLine) -> ChordInterval:
        lo, hi, hit = self.chord_batch(
            np.array([line.p]), np.array([line.theta]), np.array([line.t])
        )
        if not hit[0]:
            return ChordInterval.empty()
        return ChordInterval(float(lo[0]), float(hi[0]))


class Ellipsoid(ConvexBody):
    """Image of the unit ball under x |-> center + lin @ x for an
    invertible 3x3 map.  Axis-aligned ellipsoids use the main
    constructor, balls are the case lin = r I (:class:`Ball`), and
    rigid-motion images of balls and ellipsoids arrive here through
    ``transform_body`` with a full linear part.

    ``contains_batch`` inflates the body by the factor 1 + tol about its
    center, so for a ball tol is r * tol in distance."""

    def __init__(self, center, semi_axes) -> None:
        semi = np.asarray(semi_axes, dtype=float).reshape(3)
        if not (np.isfinite(semi).all() and (semi > 0.0).all()):
            raise ValueError(f"Ellipsoid needs positive semi-axes, got {semi}")
        self._init_linear(center, np.diag(semi))

    @classmethod
    def from_linear(cls, center, lin) -> "Ellipsoid":
        obj = cls.__new__(cls)
        obj._init_linear(center, lin)
        return obj

    def _init_linear(self, center, lin) -> None:
        name = type(self).__name__
        self.center = np.asarray(center, dtype=float).reshape(3)
        self.lin = np.asarray(lin, dtype=float).reshape(3, 3)
        if not (np.isfinite(self.center).all() and np.isfinite(self.lin).all()):
            raise ValueError(f"{name} needs finite data")
        scale = np.linalg.norm(self.lin)
        if scale == 0.0 or abs(np.linalg.det(self.lin)) < 1e-12 * scale**3:
            raise ValueError(f"{name} linear map must be invertible")
        self._lin_inv = np.linalg.inv(self.lin)
        # the metric M of the body {x : (x - c)^T M (x - c) <= 1}
        self._metric = self._lin_inv.T @ self._lin_inv

    def contains_batch(self, points, tol=0.0):
        y = (np.asarray(points, dtype=float) - self.center) @ self._lin_inv.T
        return np.sum(y * y, axis=-1) <= (1.0 + tol) ** 2

    def chord_batch(self, p, theta, t):
        # the line is x(s) = x0 + s u with x0 = (p cos, p sin, t) and
        # u = (sin, -cos, p); with w = x0 - c the chord solves
        # (w + s u)^T M (w + s u) = 1, written out in the six entries of M.
        # Zero entries of M and c drop out (the diagonal ones of M are
        # positive), and every remaining sum keeps the association of the
        # full formula, so skipping a zero term never changes a bit
        p = np.asarray(p, dtype=float)
        ct, st = _direction(theta)
        (m00, m01, m02), (_, m11, m12), (_, _, m22) = self._metric.tolist()
        base = (p * ct, p * st, np.asarray(t, dtype=float))
        w0, w1, w2 = [x - c if c else x for x, c in zip(base, self.center.tolist())]
        # p cos and p sin are freed before the quadric terms are made
        del base
        velocity = (st, ct, p)
        mu0 = _combine((m00, -m01, m02), velocity)
        mu1 = _combine((m01, -m11, m12), velocity)
        mu2 = _combine((m02, -m12, m22), velocity)
        a = st * mu0 - ct * mu1 + p * mu2
        b = 2.0 * (w0 * mu0 + w1 * mu1 + w2 * mu2)
        q0 = m00 * w0
        cross = _combine((m01, m02), (w1, w2))
        if cross is not None:
            q0 = q0 + 2.0 * cross
        c = w0 * q0 + w1 * _combine((m11, 2.0 * m12), (w1, w2)) + m22 * (w2 * w2) - 1.0
        return _solve_chord_quadratic(a, b, c)

    def bounds(self):
        cx, cy, cz = self.center
        # max over the unit sphere of |(lin @ n)_xy| is the top 2x3
        # block's spectral norm; the z-extent is the bottom row's norm
        r_xy = math.hypot(cx, cy) + float(np.linalg.norm(self.lin[:2, :], ord=2))
        dz = float(np.linalg.norm(self.lin[2, :]))
        return BoundingData(r_xy=r_xy, z_min=cz - dz, z_max=cz + dz)

    def volume_exact(self):
        return 4.0 / 3.0 * math.pi * abs(float(np.linalg.det(self.lin)))

    def quadratic_form(self) -> np.ndarray:
        """Symmetric 4x4 matrix Q of the homogeneous quadric: with
        X = (1, x, y, t), the body is { X^T Q X <= 0 }.  Rigid-motion
        images of balls and ellipsoids stay exact in this form."""
        m = self._metric
        mc = m @ self.center
        q = np.empty((4, 4))
        q[0, 0] = float(self.center @ mc) - 1.0
        q[0, 1:] = -mc
        q[1:, 0] = -mc
        q[1:, 1:] = m
        return q

    def boundary_patches(self):
        return [EllipsoidPatch(self.center, self.lin)]

    def interior_point(self):
        return self.center.copy()


class Ball(Ellipsoid):
    """Euclidean ball of given center and radius: the ellipsoid with
    lin = radius * I."""

    def __init__(self, center, radius: float) -> None:
        self.radius = float(radius)
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"Ball needs a finite radius > 0, got {self.radius}")
        self._init_linear(center, self.radius * np.eye(3))

    # an entry of its own: perfbench/tracing.py times each body class's
    # chord_batch from the class __dict__
    chord_batch = Ellipsoid.chord_batch


# entries of the (pairs, H) arrays one chunk of plane pairs clips at once
_CLIP_ENTRIES = 1 << 16


def _hull_edges(normals, offsets, tol):
    """The edges of {x : normals @ x <= offsets}, normals of unit length,
    as their two end points (E, 2, 3).

    Each pair of non-parallel planes meets in a line x0 + s u, clipped
    here against every halfspace: n.(x0 + s u) <= d bounds s from above
    where n.u > 0 and from below where n.u < 0.  A plane parallel to the
    line within round-off (the pair's own two planes among them) clips
    nothing if the line lies inside it within ``tol`` and everything
    otherwise.  A non-empty clipped segment lies in two facets, so it is
    an edge of the polytope, or a vertex lying on more than three planes
    (both ends equal), and its two ends are vertices.  An edge with an
    infinite end raises ValueError (unbounded)."""
    i, j = np.triu_indices(len(offsets), 1)
    u = np.cross(normals[i], normals[j])
    sin = np.linalg.norm(u, axis=1)
    meet = sin > 1e-13
    i, j, sin = i[meet], j[meet], sin[meet, None]
    u = u[meet] / sin
    # the point of the line nearest the origin
    x0 = (
        offsets[i, None] * np.cross(normals[j], u) + offsets[j, None] * np.cross(u, normals[i])
    ) / sin
    edges = []
    step = max(1, _CLIP_ENTRIES // len(offsets))
    for lo in range(0, len(u), step):
        uc, xc = u[lo : lo + step], x0[lo : lo + step]
        den = uc @ normals.T
        num = offsets - xc @ normals.T
        par = np.abs(den) <= 1e-12
        ratio = num / np.where(par, 1.0, den)
        s_lo = np.where((den < 0.0) & ~par, ratio, -np.inf).max(axis=1)
        s_hi = np.where((den > 0.0) & ~par, ratio, np.inf).min(axis=1)
        edge = (s_lo <= s_hi) & ~(par & (num < -tol)).any(axis=1)
        s_lo, s_hi = s_lo[edge], s_hi[edge]
        if not (np.isfinite(s_lo).all() and np.isfinite(s_hi).all()):
            raise ValueError("Polytope is unbounded")
        uc, xc = uc[edge], xc[edge]
        edges.append(np.stack([xc + s_lo[:, None] * uc, xc + s_hi[:, None] * uc], axis=1))
    return np.concatenate(edges) if edges else np.empty((0, 2, 3))


class Polytope(ConvexBody):
    """Bounded intersection of halfspaces n_i . x <= d_i with nonempty
    interior.

    The vertices are the ends of the hull edges (``_hull_edges``): every
    pair of planes meets in a line, clipped against all H halfspaces, so
    a build costs O(H^3) time in chunks of bounded memory; on a 2-core
    x86-64 VM with numpy 2.4 it takes about 1, 2, 5, 15 and 90 ms at
    H = 8, 20, 50, 100 and 200.  Ends found from different edges are one
    vertex when they lie on the same set of planes (within 1e-9 of the
    largest |d_i|).  Each distinct plane holding at least three vertices
    is a facet, fanned into triangles in angular order; the volume is
    the sum of the fan tetrahedra against the vertex centroid, which is
    also ``interior_point()``.  A :class:`Box` knows its own corners."""

    def __init__(self, normals, offsets) -> None:
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float).reshape(-1)
        if normals.ndim != 2 or normals.shape[1] != 3 or len(normals) != len(offsets):
            raise ValueError("Polytope needs halfspaces as (H, 3) normals and (H,) offsets")
        if not (np.isfinite(normals).all() and np.isfinite(offsets).all()):
            raise ValueError("Polytope needs finite halfspace data")
        scales = np.linalg.norm(normals, axis=1)
        if (scales == 0.0).any():
            raise ValueError("Polytope halfspace normals must be nonzero")
        self.normals = normals / scales[:, None]
        self.offsets = offsets / scales
        if np.linalg.matrix_rank(self.normals) < 3:
            raise ValueError("Polytope is unbounded")
        tol = 1e-9 * float(np.abs(self.offsets).max())
        ends = _hull_edges(self.normals, self.offsets, tol).reshape(-1, 3)
        if not len(ends):
            raise ValueError("Polytope has empty interior")
        # ends of one vertex reached along different edges differ by
        # round-off only, and lie on the same planes
        active = np.abs(ends @ self.normals.T - self.offsets) <= tol
        _, first = np.unique(np.packbits(active, axis=1), axis=0, return_index=True)
        self._vertices, active = ends[first], active[first]
        self._centroid = self._vertices.mean(axis=0)
        if np.min(self.offsets - self.normals @ self._centroid) <= tol:
            raise ValueError("Polytope has empty interior")
        # duplicate halfspaces hold the same vertices: one facet per set
        _, planes = np.unique(np.packbits(active.T, axis=1), axis=0, return_index=True)
        triangles, facet_normals = [], []
        for k in np.sort(planes):
            ring = self._vertices[active[:, k]]
            if len(ring) < 3:
                continue
            rel = ring - ring.mean(axis=0)
            e1 = rel[0] / np.linalg.norm(rel[0])
            ring = ring[np.argsort(np.arctan2(rel @ np.cross(self.normals[k], e1), rel @ e1))]
            fan = np.stack([np.broadcast_to(ring[0], ring[2:].shape), ring[1:-1], ring[2:]], axis=1)
            triangles.append(fan)
            facet_normals.append(np.broadcast_to(self.normals[k], (len(fan), 3)))
        self._triangles = np.concatenate(triangles)
        self._facet_normals = np.concatenate(facet_normals)
        # each ring runs counterclockwise about its outward normal, so every
        # fan tetrahedron on the centroid has a positive volume
        a, b, c = (self._triangles - self._centroid).transpose(1, 0, 2)
        self._volume = float(np.sum(a * np.cross(b, c)) / 6.0)

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices.copy()

    def contains_batch(self, points, tol=0.0):
        pts = np.asarray(points, dtype=float)
        slack = pts @ self.normals.T - self.offsets
        return (slack <= tol).all(axis=-1)

    def chord_batch(self, p, theta, t):
        # the line x(s) = x0 + s u, x0 = (p cos, p sin, t), u = (sin, -cos, p),
        # meets n.x <= d where s den >= num, den = -n.u and num = n.x0 - d:
        # a lower bound num / den on entering halfspaces (den > 0), an
        # upper one on leaving halfspaces (den < 0).  side = +-inf by the
        # sign of den routes each ratio: min(ratio, side) is the ratio or
        # -inf, max(ratio, side) the ratio or +inf.  A line parallel to a
        # face (den = +-0) goes with the sign bit of its zero, so its
        # infinite ratio empties the chord when the line lies outside the
        # halfspace and drops out when inside; the NaN of a line in the
        # face plane is passed on by minimum / maximum and skipped by
        # fmax / fmin
        p = np.asarray(p, dtype=float)
        ct, st = _direction(theta)
        velocity = (st, ct, p)
        base = (p * ct, p * st, t)
        shape = np.broadcast_shapes(p.shape, np.shape(theta), np.shape(t))
        s_lo = np.full(shape, -np.inf)
        s_hi = np.full(shape, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for (n0, n1, n2), d in zip(self.normals.tolist(), self.offsets.tolist()):
                den = _combine((-n0, n1, -n2), velocity)
                ratio = (_combine((n0, n1, n2), base) - d) / den
                side = np.copysign(np.inf, den)
                np.fmax(s_lo, np.minimum(ratio, side), out=s_lo)
                np.fmin(s_hi, np.maximum(ratio, side), out=s_hi)
        hit = (s_lo <= s_hi) & np.isfinite(s_lo) & np.isfinite(s_hi)
        return s_lo, s_hi, hit

    def bounds(self):
        v = self._vertices
        return BoundingData(
            r_xy=float(np.max(np.hypot(v[:, 0], v[:, 1]))),
            z_min=float(np.min(v[:, 2])),
            z_max=float(np.max(v[:, 2])),
        )

    def volume_exact(self):
        return self._volume

    def boundary_patches(self):
        return [
            TrianglePatch(a, b, c, n) for (a, b, c), n in zip(self._triangles, self._facet_normals)
        ]

    def interior_point(self):
        return self._centroid.copy()


class Box(Polytope):
    """Axis-aligned box [lo, hi] componentwise: the polytope of the
    halfspaces x_i <= hi_i and -x_i <= -lo_i, built from its exact
    corners without ``_hull_edges``.  Its volume is the product of its sides and
    its boundary is six rectangles."""

    def __init__(self, lo, hi) -> None:
        self.lo = np.asarray(lo, dtype=float).reshape(3)
        self.hi = np.asarray(hi, dtype=float).reshape(3)
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("Box needs finite corners")
        if not (self.hi > self.lo).all():
            raise ValueError(f"Box needs hi > lo componentwise, got {self.lo}, {self.hi}")
        self.normals = np.vstack([np.eye(3), -np.eye(3)])
        self.offsets = np.concatenate([self.hi, -self.lo])
        self._vertices = np.array(list(itertools.product(*zip(self.lo, self.hi))))
        self._centroid = 0.5 * (self.lo + self.hi)

    # an entry of its own: perfbench/tracing.py times each body class's
    # chord_batch (and __init__) from the class __dict__
    chord_batch = Polytope.chord_batch

    def volume_exact(self):
        return float(np.prod(self.hi - self.lo))

    def boundary_patches(self):
        lo, hi = self.lo, self.hi
        size = hi - lo
        patches = []
        for ax in range(3):
            au, av = (ax + 1) % 3, (ax + 2) % 3
            eu = np.zeros(3)
            ev = np.zeros(3)
            eu[au] = size[au]
            ev[av] = size[av]
            for coord, sign in ((lo[ax], -1.0), (hi[ax], 1.0)):
                origin = lo.copy()
                origin[ax] = coord
                normal = np.zeros(3)
                normal[ax] = sign
                patches.append(RectanglePatch(origin, eu, ev, normal))
        return patches


def _transform_halfspaces(m: PshMotion, normals, offsets):
    """Push halfspaces n.x <= d through x |-> A x + q: the image is
    (A^{-T} n) . y <= d + (A^{-T} n) . q."""
    a_mat, q = motion_affine(m)
    a_inv_t = np.linalg.inv(a_mat).T
    new_normals = normals @ a_inv_t.T
    new_offsets = offsets + new_normals @ q
    return new_normals, new_offsets


def transform_body(m: PshMotion, body: ConvexBody) -> ConvexBody:
    """The image of a body under a rigid motion, as a body of the richest
    type that represents it exactly.

    Motions with a horizontal translation component shear the t-axis, so
    balls and boxes map to ellipsoids and polytopes in general; purely
    vertical translations (and rotations about the t-axis for balls)
    preserve the original type.
    """
    a_mat, q = motion_affine(m)
    vertical = m.a == 0.0 and m.b == 0.0
    if isinstance(body, Ball) and vertical:
        return Ball(a_mat @ body.center + q, body.radius)
    if isinstance(body, Ellipsoid):
        return Ellipsoid.from_linear(a_mat @ body.center + q, a_mat @ body.lin)
    if isinstance(body, Box) and vertical and m.alpha == 0.0:
        return Box(body.lo + q, body.hi + q)
    if isinstance(body, Polytope):
        return Polytope(*_transform_halfspaces(m, body.normals, body.offsets))
    raise CapabilityError(f"transform_body does not support {type(body).__name__}")
