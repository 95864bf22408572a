"""Monte Carlo and grid estimators for the kinematic measure identities.

With lines charted by (p, theta, t) and the invariant density
dG = dp dtheta dt, three identities tie line statistics of a convex body
D to its Lebesgue volume V and sub-Riemannian perimeter pA:

    integral of sigma(g) dG            = 2 pi V            (chord integral)
    measure of lines meeting D         = 2 pA              (Crofton)
    measure of segments meeting D      = 2 pi V + 2 l pA   (kinematic)

where sigma is the chord length and the segment measure uses
dK = dG dh over segments of length l >= 0.  The identities count
oriented lines: the canonical chart p >= 0 visits each unoriented line
once, so the window measure carries a factor 2 (equivalently, p ranges
over both signs).

Estimators draw lines uniformly from a window (a chart box guaranteed to
contain every line meeting the body), evaluate exact chords, and scale
by the window's oriented measure.  The h coordinate of segments is
integrated in closed form: a segment of length l placed on a line with
chord [a, b] meets the body for h in an interval of length sigma + l and
lies inside it for max(sigma - l, 0).

Every estimator is one pass of ``_pass``: per fixed block it draws
lines, evaluates their chords and sums each array an integrand yields,
sub-block by sub-block in the order of numpy's pairwise summation.
A mean/std-error or a ratio (delta-method) finisher turns the sums into
an :class:`EstimateResult` with its reference, so a new identity = one
integrand + one reference.  Line measure, chord integral and the hit
measures at any number of lengths share one pass
(:func:`estimate_segment_hit_sweep`).

Randomness is counter-based (see :mod:`h1geom.rng`) and work is split
into fixed-size blocks, so results are bit-identical for a given
(seed, n) regardless of thread count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, HorizontalLine, PshMotion
from .bodies import CapabilityError, ConvexBody, Ellipsoid, Polytope, transform_body
from .measures import p_area, volume
from .rng import uniforms

__all__ = [
    "DEFAULT_SEED",
    "BLOCK",
    "ContainmentError",
    "LineWindow",
    "Segment",
    "EstimateResult",
    "InvarianceRow",
    "InvarianceReport",
    "SegmentHitSweep",
    "line_window",
    "estimate_line_measure",
    "estimate_chord_integral",
    "estimate_segment_hit_measure",
    "estimate_segment_hit_sweep",
    "estimate_segment_containment_measure",
    "estimate_mean_chord",
    "containment_probability",
    "invariance_check",
]

DEFAULT_SEED = 1729
# fixed work-block size; sharding by blocks keeps sums independent of
# the thread count
BLOCK = 1 << 16
# lines per sub-block: a block's lines, kernels and integrands run on
# sub-blocks of at most this many lines.  Their temporaries stay below
# the block's array of uniforms in size, and glibc's adaptive mmap/trim
# thresholds, raised by that array, then let the heap reuse them from
# one sub-block to the next instead of page-faulting fresh pages for
# multi-megabyte temporaries on every block
_SUB_BLOCK = 1 << 13
_STRATA = 64


class ContainmentError(Exception):
    """Raised when a body pair violates a required nesting."""


@dataclass(frozen=True)
class LineWindow:
    """A chart box {0 <= p <= p_max, 0 <= theta < 2 pi, t_lo <= t <= t_hi}
    of horizontal lines.

    ``chart_measure`` is its dp dtheta dt volume; ``measure`` doubles it
    to count oriented lines, which is the normalization the kinematic
    identities use.
    """

    p_max: float
    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.p_max)
            and math.isfinite(self.t_lo)
            and math.isfinite(self.t_hi)
        ):
            raise ValueError("LineWindow needs finite extents")
        if self.p_max <= 0.0 or self.t_hi <= self.t_lo:
            raise ValueError(
                f"LineWindow needs p_max > 0 and t_hi > t_lo, got "
                f"p_max={self.p_max}, t=[{self.t_lo}, {self.t_hi}]"
            )

    @property
    def chart_measure(self) -> float:
        return TWO_PI * self.p_max * (self.t_hi - self.t_lo)

    @property
    def measure(self) -> float:
        """Oriented-line measure of the window (twice the chart volume)."""
        return 2.0 * self.chart_measure

    def contains_line(self, line: HorizontalLine) -> bool:
        return (
            0.0 <= line.p <= self.p_max and self.t_lo <= line.t <= self.t_hi
        )


def line_window(body: ConvexBody, margin: float = 1e-9) -> LineWindow:
    """A window guaranteed to contain every line meeting the body.

    If a line meets the body at a point with cylinder coordinates
    |xy| <= r and height z, then p <= r (p is the distance of the
    projected line from the origin) and, since p^2 + s^2 <= r^2 at the
    meeting parameter s, the base height t = z - s p lies within r^2 of
    z.  The box is inflated by a relative margin so boundary cases stay
    strictly inside.
    """
    b = body.bounds()
    r = b.r_xy
    scale = max(1.0, r, r * r, abs(b.z_min), abs(b.z_max))
    pad = margin * scale
    return LineWindow(
        p_max=r + pad, t_lo=b.z_min - r * r - pad, t_hi=b.z_max + r * r + pad
    )


@dataclass(frozen=True)
class Segment:
    """A horizontal segment: the piece of ``line`` with parameter in
    [h, h + ell]."""

    line: HorizontalLine
    h: float
    ell: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and math.isfinite(self.ell)):
            raise ValueError("Segment needs finite h and ell")
        if self.ell < 0.0:
            raise ValueError(f"Segment needs ell >= 0, got {self.ell}")

    def hits(self, body: ConvexBody) -> bool:
        chord = body.chord(self.line)
        if chord.is_empty:
            return False
        return self.h <= chord.s_out and self.h + self.ell >= chord.s_in

    def contained_in(self, body: ConvexBody) -> bool:
        chord = body.chord(self.line)
        if chord.is_empty:
            return False
        return chord.s_in <= self.h and self.h + self.ell <= chord.s_out


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo (or grid) estimate with its uncertainty and, when a
    closed form or quadrature value exists, a reference to compare against.

    ``clamp_fraction`` is populated by the containment estimator: the
    fraction of hitting lines whose chord is shorter than the segment,
    where the integrand (sigma - ell) is clamped at zero and the linear
    formula 2 pi V - 2 ell pA stops being exact.
    """

    value: float
    std_error: float
    ci95: tuple[float, float]
    n_samples: int
    n_hits: int
    seed: int
    method: str
    reference: float | None = None
    reference_source: str | None = None
    clamp_fraction: float | None = None

    def z_score(self, reference: float | None = None) -> float:
        """Standardized deviation from a reference value."""
        ref = self.reference if reference is None else reference
        if ref is None:
            raise ValueError("no reference available for z_score")
        if self.std_error == 0.0:
            return 0.0 if self.value == ref else math.inf
        return (self.value - ref) / self.std_error


@dataclass(frozen=True)
class InvarianceRow:
    quantity: str
    value_original: float
    se_original: float
    value_transformed: float
    se_transformed: float
    z: float


@dataclass(frozen=True)
class InvarianceReport:
    """Estimates of invariant quantities before and after a rigid motion,
    with two-sample z statistics.  ``passed`` requires every |z| below
    ``threshold``."""

    motion: PshMotion
    n_samples: int
    seed: int
    threshold: float
    rows: list[InvarianceRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(abs(row.z) < self.threshold for row in self.rows)


@dataclass(frozen=True)
class SegmentHitSweep:
    """Segment hit measures at several lengths from one sample pass.

    ``rows[i]`` is the hit measure at ``ells[i]``.  The measure
    2 pi V + 2 ell pA is linear in ell: ``slope`` is the line measure
    (reference 2 pA) and ``intercept`` the chord integral (reference
    2 pi V) of the same lines.  Every estimate is bitwise what the
    standalone estimator returns for the same arguments.
    """

    ells: list[float]
    rows: list[EstimateResult]
    slope: EstimateResult
    intercept: EstimateResult


def _setup(body, window, n, seed, threads, method="mc") -> LineWindow:
    """Validate the arguments every estimator shares; return the
    caller's window or the body's own."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    if method not in ("mc", "grid"):
        raise ValueError(f"unknown method {method!r}")
    return window if window is not None else line_window(body)


def _check_ell(ell) -> float:
    ell = float(ell)
    if not math.isfinite(ell) or ell < 0.0:
        raise ValueError(f"ell must be finite and >= 0, got {ell}")
    return ell


def _pass(
    bodies, window, n, seed, stratify, threads, method, grid_res, integrand, streams=3
):
    """The one sample-and-sum pass behind every estimator.

    Lines come in fixed blocks: BLOCK consecutive Monte Carlo draws, or
    one p-slice of a tensor-product midpoint grid over the window.  Per
    sub-block of a block (see ``_split_sum``), ``integrand(chords, u)``
    receives each body's ``chord_batch`` triple on its lines and their
    uniforms (None on the grid) and yields arrays, each reduced to its
    sum as soon as it is made.  Block sums are added in block order, so
    the totals do not depend on the thread count.  Returns the totals
    and the line count.
    """
    if method == "grid":
        res = grid_res or max(8, int(round(n ** (1.0 / 3.0))))
        if res < 2:
            raise ValueError("grid resolution must be at least 2")
        mid = (np.arange(res) + 0.5) / res
        th_grid, t_grid = np.meshgrid(
            mid * TWO_PI, window.t_lo + mid * (window.t_hi - window.t_lo), indexing="ij"
        )
        th_flat, t_flat = th_grid.ravel(), t_grid.ravel()
        # p-slices of res^2 lines are too small to be worth a thread pool
        keys, n_lines, threads = mid * window.p_max, res**3, 1

        def draw(p):
            return p, th_flat.size

        def lines(p, part):
            return np.full(part.stop - part.start, p), th_flat[part], t_flat[part], None

    else:
        keys, n_lines = [(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)], n

        def draw(block):
            lo, hi = block
            return (lo, uniforms(seed, lo, hi - lo, streams)), hi - lo

        def lines(drawn, part):
            lo, u = drawn
            u = u[:, part]
            if stratify:
                # sample i draws theta from stratum i mod K, so every
                # contiguous index range covers the circle nearly uniformly
                index = np.arange(lo + part.start, lo + part.stop, dtype=np.float64)
                theta = (np.mod(index, float(_STRATA)) + u[0]) * (TWO_PI / _STRATA)
            else:
                theta = u[0] * TWO_PI
            t = window.t_lo + u[2] * (window.t_hi - window.t_lo)
            return u[1] * window.p_max, theta, t, u

    def block_sums(key):
        drawn, size = draw(key)

        def sums(part):
            p, theta, t, u = lines(drawn, part)
            chords = [body.chord_batch(p, theta, t) for body in bodies]
            return np.array([np.sum(a) for a in integrand(chords, u)], dtype=float)

        return _split_sum(sums, 0, size)

    if threads == 1:
        rows = map(block_sums, keys)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(block_sums, keys))
    return sum(rows), n_lines


def _split_sum(sums, lo, n):
    """``sums`` of the lines [lo, lo + n) of a block, taken in sub-blocks
    of at most _SUB_BLOCK lines.  The range is split where numpy's pairwise
    summation splits an array of length n, so each total is bitwise the
    sum over the whole range."""
    if n <= _SUB_BLOCK:
        return sums(slice(lo, lo + n))
    half = n // 2 - (n // 2) % 8
    return _split_sum(sums, lo, half) + _split_sum(sums, lo + half, n - half)


def _sigma(chord):
    """Chord lengths (zero off the body) and the hit mask of a
    ``chord_batch`` triple."""
    s_lo, s_hi, hit = chord
    return np.where(hit, np.maximum(s_hi - s_lo, 0.0), 0.0), hit


def _mean_se(s1, s2, n, w, method):
    """Window-scaled mean of an integrand and its standard error, from its
    sum and sum of squares over n lines; the grid has no error bar."""
    if method == "grid":
        return w * s1 / n, 0.0
    var = max(s2 - s1 * s1 / n, 0.0) / max(n - 1, 1)
    return w * (s1 / n), w * math.sqrt(var / n)


def _ratio_terms(x, y):
    yield from (x, y, x * x, y * y, x * y)


def _ratio(sums, n):
    """Ratio of two integrals on common samples, from the sums of
    ``_ratio_terms``, with a delta-method standard error."""
    sx, sy, sxx, syy, sxy = sums[:5]
    if sy <= 0.0:
        raise ValueError("no hits in the sample; enlarge n or check the window")
    mx, my = sx / n, sy / n
    r = mx / my
    denom = max(n - 1, 1)
    var_x = max(sxx - sx * sx / n, 0.0) / denom
    var_y = max(syy - sy * sy / n, 0.0) / denom
    cov = (sxy - sx * sy / n) / denom
    var_r = max(var_x - 2.0 * r * cov + r * r * var_y, 0.0) / (n * my * my)
    return r, math.sqrt(var_r)


def _result(value, se, n, hits, seed, method, reference, auto, clamp_fraction=None):
    """The one EstimateResult builder.  ``reference='auto'`` takes
    (value, source) from ``auto()``, None skips the reference, and any
    other value is the caller's."""
    if reference == "auto":
        ref_value, ref_source = auto()
    elif reference is None:
        ref_value, ref_source = None, None
    else:
        ref_value, ref_source = float(reference), "caller"
    return EstimateResult(
        value=value,
        std_error=se,
        ci95=(value - 1.96 * se, value + 1.96 * se),
        n_samples=n,
        n_hits=int(hits),
        seed=seed,
        method=method,
        reference=ref_value,
        reference_source=ref_source,
        clamp_fraction=clamp_fraction,
    )


def _measures(body):
    """Volume and p-Area of the body, each computed on first use."""
    return (
        functools.cache(lambda: volume(body).value),
        functools.cache(lambda: p_area(body).value),
    )


def _hit_reference(vol, pa, ell):
    return (
        TWO_PI * vol() + 2.0 * ell * pa(),
        "2*pi*measures.volume + 2*ell*measures.p_area",
    )


def _line_pass(body, ells, window, n, seed, stratify, threads, method, grid_res):
    """Line measure, chord integral and segment hit measure at each ell,
    from one pass over the same lines.  Returns ``finish(k, reference)``,
    which builds estimate k: 0 the line measure, 1 the chord integral,
    2 + i the hit measure at ``ells[i]``."""
    window = _setup(body, window, n, seed, threads, method)

    def integrand(chords, u):
        sigma, hit = _sigma(chords[0])
        # (f, f^2) per estimate; the indicator is its own square
        yield from (hit, hit, sigma, sigma * sigma)
        for ell in ells:
            f = (sigma + ell) * hit
            yield f
            yield f * f

    sums, n_lines = _pass(
        (body,), window, n, seed, stratify, threads, method, grid_res, integrand
    )
    vol, pa = _measures(body)
    refs = [
        lambda: (2.0 * pa(), "2 * measures.p_area(body)"),
        lambda: (TWO_PI * vol(), "2*pi * measures.volume(body)"),
    ] + [lambda ell=ell: _hit_reference(vol, pa, ell) for ell in ells]

    def finish(k, reference):
        value, se = _mean_se(
            sums[2 * k], sums[2 * k + 1], n_lines, window.measure, method
        )
        return _result(value, se, n_lines, sums[0], seed, method, reference, refs[k])

    return finish


def estimate_line_measure(
    body: ConvexBody,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    window: LineWindow | None = None,
    stratify: bool = False,
    threads: int = 1,
    method: str = "mc",
    grid_resolution: int | None = None,
    reference="auto",
) -> EstimateResult:
    """Invariant measure of oriented lines meeting the body.

    Crofton-type reference: twice the p-Area.  ``reference='auto'``
    computes it by quadrature; pass a float to supply your own or None
    to skip.
    """
    finish = _line_pass(
        body, (), window, n, seed, stratify, threads, method, grid_resolution
    )
    return finish(0, reference)


def estimate_chord_integral(
    body: ConvexBody,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    window: LineWindow | None = None,
    stratify: bool = False,
    threads: int = 1,
    method: str = "mc",
    grid_resolution: int | None = None,
    reference="auto",
) -> EstimateResult:
    """Integral of the chord length over oriented lines; equals
    2 pi V(body)."""
    finish = _line_pass(
        body, (), window, n, seed, stratify, threads, method, grid_resolution
    )
    return finish(1, reference)


def estimate_segment_hit_sweep(
    body: ConvexBody,
    ells,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    stratify: bool = False,
    threads: int = 1,
) -> SegmentHitSweep:
    """Kinematic measure of segments meeting the body at every length in
    ``ells``, with the slope and intercept of its linear law, all from
    one Monte Carlo sample pass.  Every estimate carries its reference,
    from one volume and one p-Area computation."""
    ells = [_check_ell(ell) for ell in ells]
    finish = _line_pass(body, ells, None, n, seed, stratify, threads, "mc", None)
    return SegmentHitSweep(
        ells=ells,
        rows=[finish(2 + i, "auto") for i in range(len(ells))],
        slope=finish(0, "auto"),
        intercept=finish(1, "auto"),
    )


def estimate_segment_hit_measure(
    body: ConvexBody,
    ell: float,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    window: LineWindow | None = None,
    stratify: bool = False,
    threads: int = 1,
    method: str = "mc",
    grid_resolution: int | None = None,
    reference="auto",
    marginalize_h: bool = True,
) -> EstimateResult:
    """Kinematic measure of segments of length ell meeting the body;
    equals 2 pi V + 2 ell pA.

    With ``marginalize_h`` (default) the segment offset h is integrated
    exactly: a segment meets the body iff h lies in an interval of
    length sigma + ell.  This is the one-length case of
    :func:`estimate_segment_hit_sweep`.  Setting it False samples h
    uniformly as a fourth coordinate, a slower direct check of the
    dK = dG dh factorization.
    """
    ell = _check_ell(ell)
    if marginalize_h:
        finish = _line_pass(
            body, (ell,), window, n, seed, stratify, threads, method, grid_resolution
        )
        return finish(2, reference)

    # direct 4D sampling over (p, theta, t, h); any chord parameter
    # satisfies p^2 + s^2 <= r_xy^2, so h in [-(r + ell), r] covers every
    # hitting segment
    window = _setup(body, window, n, seed, threads)
    if method != "mc":
        raise ValueError("direct h sampling is Monte Carlo only")
    h_lo, h_hi = -(window.p_max + ell), window.p_max
    h_len = h_hi - h_lo

    def integrand(chords, u):
        s_lo, s_hi, hit = chords[0]
        h = h_lo + u[3] * h_len
        f = (hit & (h <= s_hi) & (h + ell >= s_lo)).astype(float)
        yield f
        yield f * f

    sums, _ = _pass(
        (body,), window, n, seed, stratify, threads, "mc", None, integrand, streams=4
    )
    value, se = _mean_se(sums[0], sums[1], n, window.measure * h_len, "mc")

    def auto():
        return _hit_reference(*_measures(body), ell)

    return _result(value, se, n, sums[0], seed, "mc-4d", reference, auto)


def estimate_segment_containment_measure(
    body: ConvexBody,
    ell: float,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    window: LineWindow | None = None,
    stratify: bool = False,
    threads: int = 1,
    method: str = "mc",
    grid_resolution: int | None = None,
    reference="auto",
) -> EstimateResult:
    """Kinematic measure of segments of length ell contained in the body:
    the integral of max(sigma - ell, 0) over lines.

    Equals 2 pi V - 2 ell pA plus the clamp correction
    integral of max(ell - sigma, 0); the correction vanishes iff no
    hitting chord is shorter than ell (see ``clamp_fraction`` on the
    result).  A closed-form reference exists only at ell = 0, where the
    measure is the chord integral 2 pi V.
    """
    ell = _check_ell(ell)
    window = _setup(body, window, n, seed, threads, method)

    def integrand(chords, u):
        sigma, hit = _sigma(chords[0])
        f = np.maximum(sigma - ell, 0.0)
        yield from (f, f * f, hit, hit & (f == 0.0))

    sums, n_lines = _pass(
        (body,), window, n, seed, stratify, threads, method, grid_resolution, integrand
    )
    value, se = _mean_se(sums[0], sums[1], n_lines, window.measure, method)
    hits, clamped = sums[2], sums[3]
    clamp_fraction = None
    if method == "mc":
        clamp_fraction = clamped / hits if hits > 0 else 0.0

    def auto():
        if ell == 0.0:
            return TWO_PI * volume(body).value, "2*pi * measures.volume(body)"
        return None, None

    return _result(
        value, se, n_lines, hits, seed, method, reference, auto, clamp_fraction
    )


def estimate_mean_chord(
    body: ConvexBody,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    window: LineWindow | None = None,
    stratify: bool = False,
    threads: int = 1,
    reference="auto",
) -> EstimateResult:
    """Mean chord length over lines meeting the body: the ratio of the
    chord integral to the line measure, estimated on common samples with
    a delta-method standard error.  Reference: pi V / pA."""
    window = _setup(body, window, n, seed, threads)

    def integrand(chords, u):
        sigma, hit = _sigma(chords[0])
        yield from _ratio_terms(sigma, hit.astype(float))

    sums, _ = _pass((body,), window, n, seed, stratify, threads, "mc", None, integrand)
    value, se = _ratio(sums, n)

    def auto():
        ref = math.pi * volume(body).value / p_area(body).value
        return ref, "pi * measures.volume / measures.p_area"

    return _result(value, se, n, sums[1], seed, "mc", reference, auto)


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


def _nesting_tol(outer: ConvexBody) -> float:
    """The slack of the nesting check: 1e-9 of the outer body's size, not
    of its distance from the origin, so that a pair placed far from the
    t-axis is judged as it is at the origin.  A quadric's tol is a
    relative factor already; a box's or polytope's is a distance, scaled
    here by the largest distance of its vertices from their centroid."""
    if not isinstance(outer, Polytope):
        return 1e-9
    vertices = outer.vertices
    reach = np.linalg.norm(vertices - vertices.mean(axis=0), axis=1)
    return 1e-9 * float(np.max(reach))


def _nested(inner: ConvexBody, outer: ConvexBody, tol: float) -> bool:
    """Whether the inner body lies in the outer one inflated by tol (in
    the sense of ``contains_batch``), decided exactly: a box or polytope
    by its vertices, an ellipsoid by its support function n.c + |L^T n|
    on the halfspaces of a box or polytope and by the S-lemma inside an
    ellipsoid."""
    if isinstance(inner, Polytope):
        return bool(outer.contains_batch(inner.vertices, tol=tol).all())
    if isinstance(inner, Ellipsoid):
        if isinstance(outer, Ellipsoid):
            return _ellipsoid_reach_sq(inner, outer) <= (1.0 + tol) ** 2
        if isinstance(outer, Polytope):
            support = outer.normals @ inner.center + np.linalg.norm(
                outer.normals @ inner.lin, axis=1
            )
            return bool((support <= outer.offsets + tol).all())
    raise CapabilityError(
        f"nesting of {type(inner).__name__} in {type(outer).__name__} is not supported"
    )


def containment_probability(
    inner: ConvexBody,
    outer: ConvexBody,
    ell: float,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    stratify: bool = False,
    threads: int = 1,
    reference="auto",
) -> EstimateResult:
    """Probability that a random segment of length ell meeting the outer
    body also meets the inner one: the ratio of kinematic hit measures,
    estimated on common samples drawn from the outer body's window.

    Requires inner to be contained in outer, raising ContainmentError
    otherwise; nesting is decided exactly for every pair of body types.
    """
    ell = _check_ell(ell)
    window = _setup(outer, None, n, seed, threads)
    if not _nested(inner, outer, _nesting_tol(outer)):
        raise ContainmentError("inner body is not contained in the outer body")

    def integrand(chords, u):
        (sig_in, hit_in), (sig_out, hit_out) = map(_sigma, chords)
        yield from _ratio_terms((sig_in + ell) * hit_in, (sig_out + ell) * hit_out)
        yield hit_out

    sums, _ = _pass(
        (inner, outer), window, n, seed, stratify, threads, "mc", None, integrand
    )
    value, se = _ratio(sums, n)

    def auto():
        num = _hit_reference(*_measures(inner), ell)[0]
        den = _hit_reference(*_measures(outer), ell)[0]
        return num / den, "(2*pi*V + 2*ell*pA) inner over outer [measures]"

    return _result(value, se, n, sums[5], seed, "mc", reference, auto)


# invariant quantities and their estimate in a one-length line pass
_INVARIANTS = {"line_measure": 0, "chord_integral": 1, "segment_hit_measure_ell1": 2}


def invariance_check(
    body: ConvexBody,
    motion: PshMotion,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    stratify: bool = False,
    threads: int = 1,
    threshold: float = 4.0,
    quantities: tuple[str, ...] = (
        "line_measure",
        "chord_integral",
        "segment_hit_measure_ell1",
    ),
) -> InvarianceReport:
    """Estimate invariant quantities for the body and its image under a
    rigid motion, each in its own window, and compare with two-sample
    z statistics.  The quantities (line measure, chord integral, segment
    hit measure at ell = 1) are exactly invariant, so |z| beyond the
    threshold signals an implementation defect rather than noise.  One
    sample pass per body (seed for the body, seed + 1 for its image)
    serves every quantity."""
    unknown = [q for q in quantities if q not in _INVARIANTS]
    if unknown:
        raise ValueError(f"unknown invariance quantities {unknown}")
    passes = [
        _line_pass(b, (1.0,), None, n, s, stratify, threads, "mc", None)
        for b, s in ((body, seed), (transform_body(motion, body), seed + 1))
    ]
    rows = []
    for name in quantities:
        est_a, est_b = (finish(_INVARIANTS[name], None) for finish in passes)
        pooled = math.hypot(est_a.std_error, est_b.std_error)
        if pooled == 0.0:
            z = 0.0 if est_a.value == est_b.value else math.inf
        else:
            z = (est_a.value - est_b.value) / pooled
        rows.append(
            InvarianceRow(
                quantity=name,
                value_original=est_a.value,
                se_original=est_a.std_error,
                value_transformed=est_b.value,
                se_transformed=est_b.std_error,
                z=z,
            )
        )
    return InvarianceReport(
        motion=motion, n_samples=n, seed=seed, threshold=threshold, rows=rows
    )
