"""Euclidean-convex bodies and their chords along horizontal lines.

A convex body here is a compact convex subset of R^3 with nonempty
interior.  The central operation is ``chord_batch``: for arrays of
horizontal lines (p, theta, t) in the chart of :mod:`h1geom.core`, the
parameter intervals [s_lo, s_hi] along which they meet the body, and
which of them do.  Because the chart parameter is the sub-Riemannian
arclength, s_hi - s_lo is exactly the Levi length of the chord, which is
what the kinematic identities integrate.

Membership (``contains_batch``), chords and the support function
(``support``) are vectorized queries, and callers ask them, not a
body's type: the voxel oracle's box is the support on +-e_i, the line
window's t-extent the support on +-e_3 (its p-extent is
``horizontal_reach``), the p-Area takes a planar body's ``facets``, and
``outer.contains_body(inner)`` decides nesting with the outer body's
own slack (a polytope by the inner body's support on its facet normals,
whatever the inner kind).  A body is a value: each attribute is set
once, and each array is read-only.  A chord solves one quadratic
(ellipsoids, of which a ball is the case lin = r I, and their images
under rigid motions) or clips the line against the facets, a pair of
opposite facets as one slab (polytopes, of which a box is the case of
the six axis halfspaces, and their images), so chords are exact to
round-off, not root-finding approximations.  A polytope with a facet
that has no opposite clips only the lines that meet its bounding ball
about a point of the t-axis.
Both kernels take the line's direction (cos theta, sin theta) from one
half-angle tangent per line (``_direction``), within a few ulp of cos
and sin.  The ``tol`` of ``contains_batch`` inflates a
quadric by the factor 1 + tol about its center (r * tol in distance for
a ball) and a box or polytope by tol in distance.

A polytope finds its own vertices, facets and volume with numpy alone:
every pair of its planes meets in a line, and that line clipped against
all the halfspaces is a hull edge or nothing (``_hull_edges``).
"""

from __future__ import annotations

import abc
import itertools
import math

import numpy as np

from .core import PshMotion, motion_affine

__all__ = [
    "CapabilityError",
    "ConvexBody",
    "Ball",
    "Ellipsoid",
    "Box",
    "Polytope",
    "transform_body",
]


# a x b = a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT] along the last axis
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a, b):
    """a x b along the last axis with the arithmetic of np.cross, which
    costs tens of microseconds a call in numpy 2."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


class CapabilityError(Exception):
    """Raised when an operation is not supported for a body type."""


def _combine(coeffs, arrays, out, scratch):
    """Write the sum of c * a over the nonzero coefficients c, left to
    right, into ``out`` (``scratch`` holds each later product) and return
    it, or None when every c is zero: a face normal to an axis costs one
    product, not three, and a diagonal metric drops its cross terms."""
    terms = [(c, a) for c, a in zip(coeffs, arrays) if c]
    if not terms:
        return None
    (c, a), *rest = terms
    np.multiply(c, a, out=out)
    for c, a in rest:
        out += np.multiply(c, a, out=scratch)
    return out


def _direction(theta, shape=None):
    """(cos theta, sin theta), broadcast to ``shape`` (theta's own by
    default), from one half-angle tangent per angle: with
    tau = tan(theta / 2) they are (1 - tau^2) / (1 + tau^2) and
    2 tau / (1 + tau^2), within a few ulp of np.cos / np.sin and exactly
    (1, 0) at theta = 0.  numpy's float64 tan is SIMD-vectorised where
    its sin and cos are not (numpy 2.4 on AVX-512), so this is several
    times cheaper."""
    # in place, so a batch holds three arrays where cos and sin hold two;
    # tan runs on one contiguous array of the full shape, so an angle
    # gives the same bits whatever it is broadcast against
    tau = np.multiply(0.5, theta, out=np.empty(np.shape(theta) if shape is None else shape))
    np.tan(tau, out=tau)
    den = np.multiply(tau, tau)
    ct = np.subtract(1.0, den)
    den += 1.0
    ct /= den
    tau += tau
    tau /= den
    return ct, tau


def _solve_chord_quadratic(a, h, c):
    """Roots (-h -+ sqrt(h^2 - ac)) / a of a s^2 + 2 h s + c = 0 for
    quadric chords, with a > 0 and c = (w^T M w) - 1.  Discriminants
    within -1e-12 * (|ac| + h^2 + a) of zero count as tangency (a
    zero-length chord) rather than a miss, so grazing lines are not
    dropped.  At tangency c is what is left of a sum near 1 after the
    - 1 cancels, so the scale counts that 1: a tangent line with h = 0 is
    a hit whichever way c rounds.  The clamp at zero gives a miss the
    (meaningless) roots of a zero discriminant.  With b = 2h this is the
    b^2 - 4ac form divided by powers of two, so its roots and hits are
    bitwise that form's barring overflow.

    h and c are overwritten: h becomes -h and c the discriminant."""
    hh = np.multiply(h, h)
    ac = np.multiply(a, c)
    disc = np.subtract(hh, ac, out=c)
    scale = np.abs(ac, out=ac)
    scale += hh
    scale += a
    scale *= -1e-12
    hit = disc >= scale
    sq = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    nh = np.negative(h, out=h)
    s_lo = np.subtract(nh, sq, out=scale)
    s_lo /= a
    s_hi = np.add(nh, sq, out=hh)
    s_hi /= a
    return s_lo, s_hi, hit


class ConvexBody(abc.ABC):
    """Interface shared by all bodies: membership, chords, support,
    nesting, horizontal reach, facets and closed-form volume.  A body is
    a value, which the estimators' last line pass is keyed on by
    identity: each attribute is set once, and an array becomes read-only
    as it is set, so a body keeps read-only copies of the arrays it is
    built from and derives."""

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"{type(self).__name__}.{name} is set: a body is a value")
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is set: a body is a value")

    @abc.abstractmethod
    def contains_batch(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of points (N, 3) inside the body inflated by tol."""

    @abc.abstractmethod
    def support(self, directions: np.ndarray) -> np.ndarray:
        """The support function: max over the body of n.x for each row n
        of an (N, 3) array of directions."""

    @abc.abstractmethod
    def contains_body(self, inner: ConvexBody) -> bool:
        """Whether ``inner`` lies in this body, decided exactly up to a
        slack of 1e-9 of this body's own size (not of its distance from
        the origin); CapabilityError for a pair it cannot decide."""

    @abc.abstractmethod
    def chord_batch(
        self, p: np.ndarray, theta: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chord endpoints (s_lo, s_hi) and hit mask for line arrays.
        Where hit is False the endpoints are meaningless; a polytope
        gives NaN, which raises no numpy warning in arithmetic, for a
        line that misses its bounding ball."""

    @abc.abstractmethod
    def horizontal_reach(self) -> float:
        """A bound on |(x, y)| over the body: the radius of a vertical
        cylinder about the t-axis that holds it."""

    def facets(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The boundary as flat triangles (T, 3, 3) and their outward unit
        normals (T, 3), or None for a curved body."""
        return None

    @abc.abstractmethod
    def volume_exact(self) -> float:
        """Closed-form Lebesgue volume."""


def _ellipsoid_reach_sq(inner: Ellipsoid, outer: Ellipsoid) -> float:
    """The maximum of |L_o^{-1} (x - c_o)|^2 over x in the inner
    ellipsoid (c_i, L_i): 1 when it touches the outer one from inside.

    By the S-lemma it is the minimum over lam > s_max^2 of
    lam + sum lam w_k^2 / (lam - s_k^2), with U S V^T the SVD of
    L_o^{-1} L_i and w = U^T L_o^{-1} (c_i - c_o).  That dual is convex
    in lam, so its derivative is bisected down to adjacent floats.
    Every lam > s_max^2 bounds the maximum from above: rounding can
    reject an inner body that touches, but not accept one that sticks
    out."""
    outer_inv = np.linalg.inv(outer.lin)
    u, s, _ = np.linalg.svd(outer_inv @ inner.lin)
    w = u.T @ (outer_inv @ (inner.center - outer.center))
    s2 = (s * s).tolist()
    w2 = (w * w).tolist()
    # s is sorted descending; the derivative is >= 0 from hi on
    lo = s2[0]
    hi = lo + math.sqrt(s2[0] * sum(w2))
    if hi == lo:
        return lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        slope = 1.0 - sum(a * b / (mid - a) ** 2 for a, b in zip(s2, w2))
        if slope >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi + sum(hi * b / (hi - a) for a, b in zip(s2, w2))


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
        self.center = np.array(center, dtype=float).reshape(3)
        self.lin = np.array(lin, dtype=float).reshape(3, 3)
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

    def support(self, directions):
        # n.c + |L^T n|: the max of n.(c + L y) over |y| <= 1
        directions = np.asarray(directions, dtype=float)
        return directions @ self.center + np.linalg.norm(directions @ self.lin, axis=1)

    def contains_body(self, inner):
        """A polytope by its vertices, an ellipsoid by the S-lemma, both
        in the body inflated by the factor 1 + 1e-9 about its center."""
        if isinstance(inner, Polytope):
            return bool(self.contains_batch(inner._vertices, tol=1e-9).all())
        if isinstance(inner, Ellipsoid):
            return _ellipsoid_reach_sq(inner, self) <= (1.0 + 1e-9) ** 2
        raise CapabilityError(
            f"nesting of {type(inner).__name__} in {type(self).__name__} is not supported"
        )

    def chord_batch(self, p, theta, t):
        # the line is x(s) = x0 + s u with x0 = (p cos, p sin, t) and
        # u = (sin, -cos, p); with w = x0 - c the chord solves
        # (w + s u)^T M (w + s u) = 1, written out in the six entries of M.
        # Zero entries of M and c drop out (the diagonal ones of M are
        # positive), and every remaining sum keeps the association of the
        # full formula, so skipping a zero term never changes a bit.  Each
        # product and sum is written into one of a few arrays of the
        # broadcast shape, made afresh per call
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(p.shape, np.shape(theta), t.shape)
        ct, st = _direction(theta, shape)
        (m00, m01, m02), (_, m11, m12), (_, _, m22) = self._metric.tolist()
        c0, c1, c2 = self.center.tolist()
        w0 = np.multiply(p, ct)
        if c0:
            w0 -= c0
        w1 = np.multiply(p, st)
        if c1:
            w1 -= c1
        w2 = np.subtract(t, c2, out=np.empty(shape)) if c2 else t
        velocity = (st, ct, p)
        tmp = np.empty(shape)
        mu0 = _combine((m00, -m01, m02), velocity, np.empty(shape), tmp)
        mu1 = _combine((m01, -m11, m12), velocity, np.empty(shape), tmp)
        mu2 = _combine((m02, -m12, m22), velocity, np.empty(shape), tmp)
        # a = st mu0 - ct mu1 + p mu2, into st
        a = np.multiply(st, mu0, out=st)
        a -= np.multiply(ct, mu1, out=tmp)
        a += np.multiply(p, mu2, out=tmp)
        # h = w0 mu0 + w1 mu1 + w2 mu2, half the linear coefficient, into mu0
        h = np.multiply(w0, mu0, out=mu0)
        h += np.multiply(w1, mu1, out=mu1)
        h += np.multiply(w2, mu2, out=mu2)
        # c = w0 q0 + w1 (m11 w1 + 2 m12 w2) + m22 w2^2 - 1 with
        # q0 = m00 w0 + 2 (m01 w1 + m02 w2), into mu1
        q0 = np.multiply(m00, w0, out=mu1)
        cross = _combine((m01, m02), (w1, w2), mu2, ct)
        if cross is not None:
            cross *= 2.0
            q0 += cross
        c = np.multiply(w0, q0, out=q0)
        row = _combine((m11, 2.0 * m12), (w1, w2), w0, ct)
        c += np.multiply(w1, row, out=row)
        square = np.multiply(w2, w2, out=tmp)
        c += np.multiply(m22, square, out=square)
        c -= 1.0
        return _solve_chord_quadratic(a, h, c)

    def horizontal_reach(self):
        # max over the unit sphere of |(lin @ n)_xy| is the top 2x3
        # block's spectral norm
        return math.hypot(*self.center[:2]) + float(np.linalg.norm(self.lin[:2, :], ord=2))

    def volume_exact(self):
        return 4.0 / 3.0 * math.pi * abs(float(np.linalg.det(self.lin)))


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
    u = _cross(normals[i], normals[j])
    sin = np.linalg.norm(u, axis=1)
    meet = sin > 1e-13
    i, j, sin = i[meet], j[meet], sin[meet, None]
    u = u[meet] / sin
    # the point of the line nearest the origin
    x0 = (
        offsets[i, None] * _cross(normals[j], u) + offsets[j, None] * _cross(u, normals[i])
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


def _distinct_rows(rows):
    """Index of the first of each set of equal rows of a boolean array,
    in the order np.unique(rows, axis=0, return_index=True) gives: the
    rows sorted as bytes after packing, with one stable lexsort."""
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T[::-1])
    packed = packed[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    return order[new]


# the bounding ball's radius is inflated by this share of its radius plus
# the centre's distance from the origin, |c3|, so that no line the clip
# would count as a hit is culled by the rounding of either test
_BALL_MARGIN = 1e-9


class Polytope(ConvexBody):
    """Bounded intersection of halfspaces n_i . x <= d_i with nonempty
    interior.

    The vertices are the ends of the hull edges (``_hull_edges``): every
    pair of planes meets in a line, clipped against all H halfspaces, so
    a build costs O(H^3) time in chunks of bounded memory.  Ends found
    from different edges are one vertex when they lie on the same set of
    planes (within 1e-9 of the ends' largest coordinate distance from
    their mean, plus 64 ulps of their largest coordinate), and an end
    outside a halfspace by more than that is dropped.  Each distinct
    plane holding at least three vertices is a facet, and only the
    facets are kept as ``normals`` and ``offsets``.  One lexsort of every
    (facet, vertex) incidence by facet and by angle about the facet's
    centre orders all the rings at once; each ring is fanned into
    triangles from its first vertex, and the volume is the sum of the fan
    tetrahedra against the vertex centroid.
    A :class:`Box` knows its own corners and its twelve face triangles.

    The chord kernel clips a line against all the facets at once, each
    pair of facets whose unit normals are exact negatives as one slab and
    every other facet alone.  With a facet left unpaired it first drops
    the lines that miss the bounding ball about (0, 0, c3), c3 the vertex
    centroid's height, through the farthest vertex, inflated by
    ``_BALL_MARGIN``; a dropped line reads hit False with NaN ends, and
    only the kept lines take a direction.  A body of slabs only (a box and
    its rigid images) skips that test, which costs it more than it saves.
    Every other line's hit is that of clipping one facet at a time, and so
    are its ends, bitwise, up to the sign of a zero end: where n.x0
    cancels to +0 on a face through the origin, and where two rows'
    ratios tie at zero."""

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
        normals = normals / scales[:, None]
        offsets = offsets / scales
        if np.linalg.matrix_rank(normals) < 3:
            raise ValueError("Polytope is unbounded")
        ends = _hull_edges(normals, offsets, 1e-9 * float(np.abs(offsets).max()))
        ends = ends.reshape(-1, 3)
        if not len(ends):
            raise ValueError("Polytope has empty interior")
        # the incidence tolerance scales with the body itself, not with its
        # distance from the origin or a far redundant halfspace: 1e-9 of the
        # ends' extent about their mean, plus their own round-off
        tol = 1e-9 * float(np.abs(ends - ends.mean(axis=0)).max())
        tol += 64.0 * np.finfo(float).eps * float(np.abs(ends).max())
        # _hull_edges keeps a line parallel to a plane it lies outside by
        # less than 1e-9 of the largest |d_i|, which a far redundant
        # halfspace makes large: the ends of such a line lie outside the
        # body by more than tol, and are no vertices
        slack = ends @ normals.T - offsets
        inside = (slack <= tol).all(axis=1)
        if not inside.any():
            raise ValueError("Polytope has empty interior")
        ends = ends[inside]
        # ends of one vertex reached along different edges differ by
        # round-off only, and lie on the same planes
        active = np.abs(slack[inside]) <= tol
        first = _distinct_rows(active)
        self._vertices, active = ends[first], active[first]
        centroid = self._vertices.mean(axis=0)
        if np.min(offsets - normals @ centroid) <= tol:
            raise ValueError("Polytope has empty interior")
        # duplicate halfspaces hold the same vertices: one facet per set,
        # and only the facets' halfspaces are kept, so a redundant one
        # costs no clip per line
        planes = np.sort(_distinct_rows(active.T))
        planes = planes[np.count_nonzero(active[:, planes], axis=0) >= 3]
        self.normals, self.offsets = normals[planes], offsets[planes]
        # the (facet, vertex) incidences, facet by facet, each ring ordered
        # by its angle about the ring's mean in the facet's own frame
        facet, vertex = np.nonzero(active[:, planes].T)
        count = np.bincount(facet)
        start = np.cumsum(count) - count
        ring = self._vertices[vertex]
        rel = ring - (np.add.reduceat(ring, start) / count[:, None])[facet]
        e1 = rel[start] / np.linalg.norm(rel[start], axis=1, keepdims=True)
        e2 = _cross(self.normals, e1)
        angle = np.arctan2(np.sum(rel * e2[facet], axis=1), np.sum(rel * e1[facet], axis=1))
        ring = ring[np.lexsort((angle, facet))]
        # fan each ring from its first vertex: one triangle per vertex
        # that is neither the first nor the last of its ring
        middle = np.ones(len(ring), dtype=bool)
        middle[start] = middle[start + count - 1] = False
        middle = np.flatnonzero(middle)
        self._triangles = np.stack([ring[start[facet[middle]]], ring[middle], ring[middle + 1]], axis=1)
        self._facet_normals = self.normals[facet[middle]]
        self._init_clip()
        # each ring runs counterclockwise about its outward normal, so every
        # fan tetrahedron on the centroid has a positive volume
        a, b, c = (self._triangles - centroid).transpose(1, 0, 2)
        self._volume = float(np.sum(a * _cross(b, c)) / 6.0)

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices.copy()

    def contains_batch(self, points, tol=0.0):
        pts = np.asarray(points, dtype=float)
        slack = pts @ self.normals.T - self.offsets
        return (slack <= tol).all(axis=-1)

    def support(self, directions):
        # the products contains_batch forms, so a nesting decided by the
        # support is the one each vertex's membership test gives
        return (self._vertices @ np.asarray(directions, dtype=float).T).max(axis=0)

    def contains_body(self, inner):
        # any body, by its support on the facet normals; the slack is 1e-9
        # of the largest distance of a vertex from the vertices' centroid
        v = self._vertices
        tol = 1e-9 * float(np.max(np.linalg.norm(v - v.mean(axis=0), axis=1)))
        return bool((inner.support(self.normals) - self.offsets <= tol).all())

    def _init_clip(self) -> None:
        """What the chord kernel reads of the kept facets, one row per
        clip.  A pair of facets n.x <= d and -n.x <= d' whose unit normals
        are exact negatives is one slab row, every other facet a lone
        row, and the ``_slab_rows`` slab rows come first.  Rows whose
        normals are zero in the same coordinates are kept together, and
        ``_row_groups`` lists each run with its nonzero coordinates, so an
        axis normal costs one product, not three.  ``_row_terms`` holds
        the coefficients of den = -n.u and of n.x0 as (2, 3, rows, 1)
        columns, ``_row_offsets`` d and ``_slab_offsets`` -d'.  ``_ball``
        is (c3, R^2) for the ball about (0, 0, c3), c3 the height of the
        vertex centroid and R the largest vertex distance from that point
        inflated by ``_BALL_MARGIN``; None for a body whose facets all
        pair, which the cull does not pay for."""
        normals = self.normals.tolist()
        # float equality, as 0.0 == -0.0; two facets never share a normal
        index = {tuple(n): k for k, n in enumerate(normals)}
        opposite = [index.get(tuple(-x for x in n), -1) for n in normals]
        zeros = [tuple(x == 0.0 for x in n) for n in normals]
        slabs = sorted((i for i, j in enumerate(opposite) if j > i), key=zeros.__getitem__)
        lone = sorted((k for k, j in enumerate(opposite) if j < 0), key=zeros.__getitem__)
        rows = slabs + lone
        n = self.normals[rows]
        self._row_terms = np.stack([n * [-1.0, 1.0, -1.0], n]).transpose(0, 2, 1)[..., None]
        self._row_offsets = self.offsets[rows, None]
        self._slab_offsets = -self.offsets[[opposite[i] for i in slabs], None]
        self._slab_rows = len(slabs)
        groups, start = [], 0
        for zero, run in itertools.groupby(rows, key=zeros.__getitem__):
            stop = start + len(list(run))
            groups.append((slice(start, stop), tuple(j for j in range(3) if not zero[j])))
            start = stop
        self._row_groups = tuple(groups)
        if not lone:
            self._ball = None
            return
        c3 = float(self._vertices[:, 2].mean())
        rel = self._vertices - [0.0, 0.0, c3]
        radius = math.sqrt(float(np.max(np.sum(rel * rel, axis=1))))
        radius += _BALL_MARGIN * (radius + abs(c3))
        self._ball = (c3, radius * radius)

    def chord_batch(self, p, theta, t):
        # the lines run flat; with a bounding ball only the lines that meet
        # it are clipped, and their direction (see _direction) is taken for
        # them alone: every other line reads hit False with NaN ends
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(p.shape, np.shape(theta), t.shape)
        p, theta, t = (np.broadcast_to(a, shape).reshape(-1) for a in (p, theta, t))
        if self._ball is None:
            return tuple(a.reshape(shape) for a in self._clip(p, theta, t))
        keep = np.flatnonzero(self._meets_ball(p, t))
        kept = self._clip(p.take(keep), theta.take(keep), t.take(keep))
        ends = []
        for part, fill in zip(kept, (np.nan, np.nan, False)):
            out = np.full(shape, fill, dtype=part.dtype)
            out.reshape(-1)[keep] = part
            ends.append(out)
        return tuple(ends)

    def _meets_ball(self, p, t):
        """Whether each line meets the bounding ball |x - c| <= R about
        c = (0, 0, c3).  With w = x0 - c = (p cos, p sin, t - c3), so that
        w.u = p (t - c3), the squared distance of c from the line times
        |u|^2 = 1 + p^2 is p^2 (1 + p^2) + (t - c3)^2: a sum of squares,
        with no difference of the large terms that |w|^2 |u|^2 - (w.u)^2
        would subtract, and free of theta."""
        c3, r2 = self._ball
        dist = np.multiply(p, p)
        scale = dist + 1.0
        dist *= scale
        height = np.subtract(t, c3)
        height *= height
        dist += height
        scale *= r2
        return dist <= scale

    def _clip(self, p, theta, t):
        # the line x(s) = x0 + s u, x0 = (p cos, p sin, t), u = (sin, -cos, p),
        # meets n.x <= d where s den >= num, den = -n.u and num = n.x0 - d:
        # a lower bound num / den on entering halfspaces (den > 0), an
        # upper one on leaving halfspaces (den < 0).  Each row gives two
        # ratios, and s is bounded below by the larger of their minima and
        # above by the smaller of their maxima.  A slab n.x <= d,
        # -n.x <= d' shares den and n.x0: its ratios are (n.x0 - d) / den
        # and -((-d' - n.x0) / den), the opposite facet's own
        # (-n.x0 - d') / (-den) with negation exact.  A lone facet's second
        # is side = +-inf by the sign of den, which routes its ratio:
        # min(ratio, side) is the ratio or -inf, max(ratio, side) the ratio
        # or +inf.  A line parallel to a face (den = +-0) goes with the
        # sign bit of its zero, so its infinite ratio empties the chord when
        # the line lies outside the halfspace and drops out when inside; the
        # NaN of a line in the face plane is passed on by minimum / maximum
        # and skipped by fmax / fmin.  All rows are computed at once, as
        # (rows, lines) arrays made afresh per call
        ct, st = _direction(theta)
        velocity = (st, ct, p)
        base = (np.multiply(p, ct), np.multiply(p, st), t)
        den, nx0, tmp = (np.empty((len(self._row_offsets), len(p))) for _ in range(3))
        for part, terms in self._row_groups:
            outs = (den[part], nx0[part])
            for out, coeffs, arrays in zip(outs, self._row_terms[:, :, part], (velocity, base)):
                j, *rest = terms
                np.multiply(coeffs[j], arrays[j], out=out)
                for j in rest:
                    out += np.multiply(coeffs[j], arrays[j], out=tmp[part])
        m = self._slab_rows
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.subtract(nx0, self._row_offsets, out=tmp)
            ratio /= den
            other = nx0
            np.subtract(self._slab_offsets, nx0[:m], out=other[:m])
            other[:m] /= den[:m]
            np.negative(other[:m], out=other[:m])
            np.copysign(np.inf, den[m:], out=other[m:])
            s_lo = np.fmax.reduce(np.minimum(ratio, other, out=den), axis=0, initial=-np.inf)
            s_hi = np.fmin.reduce(np.maximum(ratio, other, out=ratio), axis=0, initial=np.inf)
        hit = s_lo <= s_hi
        finite = np.isfinite(s_lo)
        hit &= finite
        hit &= np.isfinite(s_hi, out=finite)
        return s_lo, s_hi, hit

    def horizontal_reach(self):
        return float(np.max(np.hypot(self._vertices[:, 0], self._vertices[:, 1])))

    def facets(self):
        return self._triangles, self._facet_normals

    def volume_exact(self):
        return self._volume


# two triangles per face of a box, as indices into its corners in
# itertools.product order (corner 4 i + 2 j + k has x, y, t at the lo or hi
# end by i, j, k), each counterclockwise about its outward normal, and the
# faces in the order of the normals +x, +y, +t, -x, -y, -t
_BOX_FANS = np.array(
    [[4, 6, 7], [4, 7, 5], [2, 3, 7], [2, 7, 6], [1, 5, 7], [1, 7, 3],
     [0, 1, 3], [0, 3, 2], [0, 4, 5], [0, 5, 1], [0, 2, 6], [0, 6, 4]]
)


class Box(Polytope):
    """Axis-aligned box [lo, hi] componentwise: the polytope of the
    halfspaces x_i <= hi_i and -x_i <= -lo_i, built from its exact
    corners without ``_hull_edges``.  Its volume is the product of its
    sides, and it stores twelve face triangles, two per face."""

    def __init__(self, lo, hi) -> None:
        self.lo = np.array(lo, dtype=float).reshape(3)
        self.hi = np.array(hi, dtype=float).reshape(3)
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("Box needs finite corners")
        if not (self.hi > self.lo).all():
            raise ValueError(f"Box needs hi > lo componentwise, got {self.lo}, {self.hi}")
        self.normals = np.vstack([np.eye(3), -np.eye(3)])
        self.offsets = np.concatenate([self.hi, -self.lo])
        self._vertices = np.array(list(itertools.product(*zip(self.lo, self.hi))))
        self._triangles = self._vertices[_BOX_FANS]
        self._facet_normals = np.repeat(self.normals, 2, axis=0)
        self._init_clip()

    # an entry of its own: perfbench/tracing.py times each body class's
    # chord_batch (and __init__) from the class __dict__
    chord_batch = Polytope.chord_batch

    def volume_exact(self):
        return float(np.prod(self.hi - self.lo))


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
        # the facets n.x <= d map to (A^{-T} n).y <= d + (A^{-T} n).q
        normals = body.normals @ np.linalg.inv(a_mat)
        return Polytope(normals, body.offsets + normals @ q)
    raise CapabilityError(f"transform_body does not support {type(body).__name__}")
