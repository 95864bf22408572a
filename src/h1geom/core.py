"""Points, rigid motions, and horizontal lines of the 3D Heisenberg group.

The Heisenberg group H1 is R^3 = {(x, y, t)} with the polarized product

    (a, b, c) * (x, y, t) = (a + x, b + y, c + t + b*x - a*y).

The contact plane at a point is the kernel of the one-form
Theta = dt + x dy - y dx; it is spanned by the left-invariant frame
X1 = d/dx + y d/dt and X2 = d/dy - x d/dt, which the sub-Riemannian
(Levi) metric declares orthonormal.

Rigid motions form the group PSH(1): a rotation of the contact structure
by angle alpha about the t-axis, followed by left translation by
(a, b, c).  These are exactly the orientation-preserving isometries of
the Levi metric, and they act affinely on R^3 (see ``PshMotion.matrix``).

A horizontal line is a straight line whose velocity lies in the contact
plane at every point.  Lines not parallel to a contact plane through the
t-axis are charted by (p, theta, t):

    gamma(s) = (p cos(theta) + s sin(theta),
                p sin(theta) - s cos(theta),
                t + s * p)

so p >= 0 is the distance from the t-axis to the xy-projection, theta is
the angle of the projection's unit normal, and t is the height of the
base point (the point closest to the t-axis).  The density
dp ^ dtheta ^ dt is invariant under the PSH(1) action on lines, and
da ^ db ^ dc ^ dphi on motions factors as dG ^ dh over incident
(line, point-on-line) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "Point",
    "PshMotion",
    "HorizontalLine",
    "normalize_angle",
    "psh_apply_point",
    "psh_compose",
    "psh_inverse",
    "motion_affine",
    "line_point_at",
    "line_direction",
    "line_through",
    "line_chart_image",
    "psh_apply_line",
    "contact_form_at",
    "levi_length",
    "levi_length_fixed_plane",
]


def normalize_angle(angle: float) -> float:
    """Reduce an angle to the half-open interval [0, 2*pi)."""
    a = math.fmod(float(angle), TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:
        # fmod can land exactly on 2*pi after the correction above
        a = 0.0
    return a


def _check_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} requires finite coordinates, got {values}")


@dataclass(frozen=True)
class Point:
    """A point (x, y, t) of the Heisenberg group."""

    x: float
    y: float
    t: float

    def __post_init__(self) -> None:
        _check_finite("Point", self.x, self.y, self.t)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.t], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "Point":
        x, y, t = (float(v) for v in arr)
        return cls(x, y, t)


@dataclass(frozen=True)
class PshMotion:
    """A rigid motion of H1: rotate the contact structure by ``alpha`` about
    the t-axis, then left-translate by ``(a, b, c)``.

    ``alpha`` is stored normalized to [0, 2*pi).
    """

    a: float
    b: float
    c: float
    alpha: float

    def __post_init__(self) -> None:
        _check_finite("PshMotion", self.a, self.b, self.c, self.alpha)
        object.__setattr__(self, "alpha", normalize_angle(self.alpha))

    @classmethod
    def identity(cls) -> "PshMotion":
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def translation(cls, a: float, b: float, c: float) -> "PshMotion":
        return cls(a, b, c, 0.0)

    @classmethod
    def rotation(cls, alpha: float) -> "PshMotion":
        return cls(0.0, 0.0, 0.0, alpha)

    def matrix(self) -> np.ndarray:
        """The affine action on (1, x, y, t) as a 4x4 matrix.

        The rotation acts linearly on (x, y) and the left translation
        adds the twisted shear b*x' - a*y' to t, so the t-row couples to
        the rotated coordinates: (c, b cos a - a sin a, -(a cos a + b sin a), 1).
        """
        a, b, c, al = self.a, self.b, self.c, self.alpha
        ca, sa = math.cos(al), math.sin(al)
        return np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [a, ca, -sa, 0.0],
                [b, sa, ca, 0.0],
                [c, b * ca - a * sa, -(a * ca + b * sa), 1.0],
            ]
        )


@dataclass(frozen=True)
class HorizontalLine:
    """A horizontal line in the canonical chart (p, theta, t), with p >= 0.

    The chart map is gamma(s) = (p cos theta + s sin theta,
    p sin theta - s cos theta, t + s p); see the module docstring.
    Construction rejects p < 0; use ``psh_apply_line`` or ``line_through``
    to obtain canonical coordinates from other data.
    """

    p: float
    theta: float
    t: float

    def __post_init__(self) -> None:
        _check_finite("HorizontalLine", self.p, self.theta, self.t)
        if self.p < 0.0:
            raise ValueError(f"HorizontalLine needs p >= 0, got p={self.p}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


def psh_apply_point(m: PshMotion, pt: Point) -> Point:
    """Apply a rigid motion to a point: rotate (x, y) by alpha, then left
    multiply by (a, b, c)."""
    ca, sa = math.cos(m.alpha), math.sin(m.alpha)
    xr = pt.x * ca - pt.y * sa
    yr = pt.x * sa + pt.y * ca
    return Point(m.a + xr, m.b + yr, m.c + pt.t + m.b * xr - m.a * yr)


def psh_compose(m1: PshMotion, m2: PshMotion) -> PshMotion:
    """The motion acting as m1 after m2.

    Rotations commute past translations by rotating the offset:
    R_a L_Q = L_{R_a Q} R_a, which gives the semidirect-product rule below.
    """
    ca, sa = math.cos(m1.alpha), math.sin(m1.alpha)
    a2r = m2.a * ca - m2.b * sa
    b2r = m2.a * sa + m2.b * ca
    return PshMotion(
        m1.a + a2r,
        m1.b + b2r,
        m1.c + m2.c + m1.b * a2r - m1.a * b2r,
        m1.alpha + m2.alpha,
    )


def psh_inverse(m: PshMotion) -> PshMotion:
    """The inverse motion: undo the translation in rotated coordinates,
    then undo the rotation."""
    ca, sa = math.cos(m.alpha), math.sin(m.alpha)
    return PshMotion(
        -(m.a * ca + m.b * sa),
        m.a * sa - m.b * ca,
        -m.c,
        -m.alpha,
    )


def motion_affine(m: PshMotion) -> tuple[np.ndarray, np.ndarray]:
    """The affine action on column vectors: x |-> A @ x + q.

    A is the 3x3 linear part and q the translation, extracted from the
    homogeneous matrix.
    """
    mat = m.matrix()
    return mat[1:, 1:].copy(), mat[1:, 0].copy()


def line_point_at(line: HorizontalLine, s: float) -> Point:
    """The point of the line at arclength parameter s (Levi arclength;
    s = 0 is the base point closest to the t-axis)."""
    ct, st = math.cos(line.theta), math.sin(line.theta)
    return Point(
        line.p * ct + s * st,
        line.p * st - s * ct,
        line.t + s * line.p,
    )


def line_direction(line: HorizontalLine) -> np.ndarray:
    """The constant velocity (sin theta, -cos theta, p) of the chart
    parametrization; its xy-part is a unit vector."""
    return np.array([math.sin(line.theta), -math.cos(line.theta), line.p])


def line_through(pt: Point, theta: float) -> tuple[HorizontalLine, float]:
    """The horizontal line with normal angle theta passing through ``pt``.

    Returns the canonical line and the parameter s at which it meets the
    point.  The signed footpoint x cos(theta) + y sin(theta) may be
    negative; canonicalization flips (p, theta, s) -> (-p, theta + pi, -s)
    and keeps the base height t unchanged.
    """
    th = normalize_angle(theta)
    ct, st = math.cos(th), math.sin(th)
    p = pt.x * ct + pt.y * st
    s = pt.x * st - pt.y * ct
    t = pt.t - s * p
    if p < 0.0:
        p, th, s = -p, normalize_angle(th + math.pi), -s
    return HorizontalLine(p, th, t), s


def line_chart_image(
    m: PshMotion, p: float, theta: float, t: float
) -> tuple[float, float, float]:
    """The motion's action on line-chart coordinates, without folding back
    to the canonical p >= 0 sheet.

    The image of the line (p, theta, t) under m has normal angle
    theta' = theta + alpha; the translation shifts the footpoint by the
    component w of (a, b) along the new normal, and moving the base point
    along the line by the tangential component u changes the height by
    -u * (p + p'), while the fiber adds c.  In formulas, with
    w = a cos(theta') + b sin(theta') and u = a sin(theta') - b cos(theta'):

        p' = p + w,   theta' = theta + alpha,   t' = t + c - u * (2 p + w).

    theta' is reported un-normalized so the map is smooth in all arguments
    (used by Jacobian checks); ``psh_apply_line`` wraps this with
    canonicalization.
    """
    thp = theta + m.alpha
    ct, st = math.cos(thp), math.sin(thp)
    w = m.a * ct + m.b * st
    u = m.a * st - m.b * ct
    return p + w, thp, t + m.c - u * (2.0 * p + w)


def psh_apply_line(m: PshMotion, line: HorizontalLine) -> HorizontalLine:
    """Apply a rigid motion to a horizontal line, returning canonical
    coordinates.

    The image's point set equals the pointwise image of the line:
    psh_apply_line(m, g) traces the same points as
    {psh_apply_point(m, q) : q on g}.
    """
    p, th, t = line_chart_image(m, line.p, line.theta, line.t)
    if p < 0.0:
        # same point set, opposite orientation; base height is unchanged
        p, th = -p, th + math.pi
    return HorizontalLine(p, normalize_angle(th), t)


def contact_form_at(pt: Point, velocity) -> float:
    """Evaluate Theta = dt + x dy - y dx at ``pt`` on a tangent vector
    (vx, vy, vt).  Horizontal vectors give zero; the Reeb field d/dt
    gives one."""
    vx, vy, vt = (float(v) for v in velocity)
    return vt + pt.x * vy - pt.y * vx


def levi_length(line: HorizontalLine, s0: float, s1: float) -> float:
    """Levi-metric length of the segment gamma([s0, s1]).

    The chart velocity decomposes in the left-invariant frame as
    sin(theta) X1 - cos(theta) X2 at every point of the line, so the
    sub-Riemannian speed is identically 1 and the length is s1 - s0.
    """
    if s1 < s0:
        raise ValueError(f"levi_length needs s0 <= s1, got [{s0}, {s1}]")
    return float(s1 - s0)


def levi_length_fixed_plane(line: HorizontalLine, s0: float, s1: float) -> float:
    """Length of gamma([s0, s1]) measured in the single contact plane at
    the segment's start point A = gamma(s0).

    The velocity of a horizontal line is one constant vector, and it lies
    in the contact plane of A as it does at every point of the line, so
    the single plane's metric can measure the whole segment.  Decomposes
    the velocity in the frame {X1(A), X2(A), T}, checks the T-component
    vanishes, and scales the norm of the horizontal part by s1 - s0.
    Agrees with ``levi_length``.
    """
    if s1 < s0:
        raise ValueError(f"levi_length_fixed_plane needs s0 <= s1, got [{s0}, {s1}]")
    A = line_point_at(line, s0)
    v = line_direction(line)
    # v = vx X1(A) + vy X2(A) + tau T with tau = vt - (vx*A.y - vy*A.x)
    tau = v[2] - (v[0] * A.y - v[1] * A.x)
    if abs(tau) > 1e-9 * (1.0 + abs(v[2])):
        raise ValueError("segment velocity leaves the contact plane of its start point")
    return math.hypot(v[0], v[1]) * (s1 - s0)
