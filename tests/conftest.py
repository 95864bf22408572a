"""Shared fixtures and randomized-trial helpers for the test suite."""

import itertools

import numpy as np
import pytest

import h1geom.estimators as estimators
from h1geom import (
    Ball,
    Box,
    Ellipsoid,
    HorizontalLine,
    Polytope,
    PshMotion,
    p_area,
    volume,
)

# one fixed generator seed pins down the randomized acceptance bodies
ACCEPTANCE_SEED = 20250815


def make_acceptance_bodies() -> dict:
    """The four bodies the acceptance gate runs on: the unit ball, the
    unit cube at the origin corner, a randomly placed ellipsoid, and a
    random 8-facet polytope (a perturbed cube dual).  Construction order
    is fixed so the bodies are bit-reproducible."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    center = rng.uniform(-0.3, 0.3, 3)
    semi = rng.uniform(0.7, 1.1, 3)
    ellipsoid = Ellipsoid(center, semi)

    corners = np.array(
        list(itertools.product((-1.0, 1.0), repeat=3))
    ) / np.sqrt(3.0)
    pert = rng.normal(0.0, 0.08, (8, 3))
    normals = corners + pert
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.85, 1.15, 8)
    polytope = Polytope(normals, offsets)

    return {
        "ball": Ball((0.0, 0.0, 0.0), 1.0),
        "box": Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        "ellipsoid": ellipsoid,
        "polytope": polytope,
    }


def cylinder(body) -> tuple[float, float, float]:
    """(r, z_min, z_max) with the body inside |(x, y)| <= r,
    z_min <= t <= z_max: its horizontal reach and its support on -+e3."""
    low, high = body.support(np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]))
    return body.horizontal_reach(), -low, high


def quadratic_form(body) -> np.ndarray:
    """The symmetric 4x4 matrix Q of an ellipsoid's homogeneous quadric,
    from its center c and linear map L: with X = (1, x, y, t) the body
    is {X^T Q X <= 0}, that is (x - c)^T M (x - c) <= 1 with
    M = L^{-T} L^{-1}."""
    inv = np.linalg.inv(body.lin)
    m = inv.T @ inv
    mc = m @ body.center
    q = np.empty((4, 4))
    q[0, 0] = float(body.center @ mc) - 1.0
    q[0, 1:] = q[1:, 0] = -mc
    q[1:, 1:] = m
    return q


def forget_line_pass() -> None:
    """Empty the estimators' slot for the last line pass, so that the next
    line estimate draws its own lines: a test comparing two computations
    calls it before the second, which would otherwise read the first's."""
    estimators._last_pass = None


@pytest.fixture(autouse=True)
def fresh_line_pass():
    """No test reads a line pass left by an earlier one."""
    forget_line_pass()


def random_motion(rng: np.random.Generator, scale: float = 1.0) -> PshMotion:
    a, b, c = rng.uniform(-scale, scale, 3)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    return PshMotion(a, b, c, alpha)


def random_line(
    rng: np.random.Generator, p_max: float = 2.0, t_max: float = 2.0
) -> HorizontalLine:
    return HorizontalLine(
        rng.uniform(0.0, p_max),
        rng.uniform(0.0, 2.0 * np.pi),
        rng.uniform(-t_max, t_max),
    )


@pytest.fixture(scope="session")
def acceptance_bodies() -> dict:
    return make_acceptance_bodies()


@pytest.fixture(scope="session")
def acceptance_references(acceptance_bodies) -> dict:
    """Volume and p-Area per body, computed once by the measures module."""
    refs = {}
    for name, body in acceptance_bodies.items():
        refs[name] = (volume(body).value, p_area(body).value)
    return refs
