"""Rigid motions of the 3D Heisenberg group and their action on horizontal
lines.

The Heisenberg group H1 is R^3 = {(x, y, t)} with the polarized product

    (a, b, c) * (x, y, t) = (a + x, b + y, c + t + b*x - a*y).

The contact plane at a point is the kernel of the one-form
Theta = dt + x dy - y dx; it is spanned by the left-invariant frame
X1 = d/dx + y d/dt and X2 = d/dy - x d/dt, which the sub-Riemannian
(Levi) metric declares orthonormal.

Rigid motions form the group PSH(1): a rotation of the contact structure
by angle alpha about the t-axis, followed by left translation by
(a, b, c).  These are exactly the orientation-preserving isometries of
the Levi metric, and they act affinely on R^3 (see ``motion_affine``).

A horizontal line is a straight line whose velocity lies in the contact
plane at every point.  Lines not parallel to a contact plane through the
t-axis are charted by (p, theta, t):

    gamma(s) = (p cos(theta) + s sin(theta),
                p sin(theta) - s cos(theta),
                t + s * p)

so |p| is the distance from the t-axis to the xy-projection, theta is
the angle of the projection's normal, and t is the height of the base
point (the point closest to the t-axis).  The chart (p, theta, t) and
(-p, theta + pi, t) trace the same line in opposite directions; the
velocity (sin(theta), -cos(theta), p) is annihilated by Theta and has a
unit horizontal part, so s is the Levi arclength.  The density
dp ^ dtheta ^ dt is invariant under the PSH(1) action on lines
(``line_chart_image``), and da ^ db ^ dc ^ dphi on motions factors as
dG ^ dh over incident (line, point-on-line) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "PshMotion",
    "psh_compose",
    "psh_inverse",
    "motion_affine",
    "line_chart_image",
]


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
        values = (self.a, self.b, self.c, self.alpha)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"PshMotion requires finite coordinates, got {values}")
        alpha = math.fmod(float(self.alpha), TWO_PI)
        if alpha < 0.0:
            alpha += TWO_PI
        if alpha >= TWO_PI:
            # fmod can land exactly on 2*pi after the correction above
            alpha = 0.0
        object.__setattr__(self, "alpha", alpha)


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

    The rotation acts linearly on (x, y) and the left translation adds
    the twisted shear b*x' - a*y' to t, so A's t-row couples to the
    rotated coordinates: (b cos alpha - a sin alpha,
    -(a cos alpha + b sin alpha), 1), and q = (a, b, c).
    """
    a, b, ca, sa = m.a, m.b, math.cos(m.alpha), math.sin(m.alpha)
    a_mat = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [b * ca - a * sa, -(a * ca + b * sa), 1.0]])
    return a_mat, np.array([a, b, m.c], dtype=float)


def line_chart_image(m: PshMotion, p, theta, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The motion's action on line-chart coordinates, elementwise over
    arrays of lines, without folding back to a p >= 0 sheet.

    The image of the line (p, theta, t) under m has normal angle
    theta' = theta + alpha; the translation shifts the footpoint by the
    component w of (a, b) along the new normal, and moving the base point
    along the line by the tangential component u changes the height by
    -u * (p + p'), while the fiber adds c.  In formulas, with
    w = a cos(theta') + b sin(theta') and u = a sin(theta') - b cos(theta'):

        p' = p + w,   theta' = theta + alpha,   t' = t + c - u * (2 p + w).

    The three results have the inputs' broadcast shape.  p' takes either
    sign and theta' is not reduced mod 2*pi, so the map is smooth in all
    arguments and its Jacobian determinant is 1 (the invariance of
    dp ^ dtheta ^ dt).
    """
    p, theta, t = np.broadcast_arrays(p, theta, t)
    thp = theta + m.alpha
    ct, st = np.cos(thp), np.sin(thp)
    w = m.a * ct + m.b * st
    u = m.a * st - m.b * ct
    return p + w, thp, t + m.c - u * (2.0 * p + w)
