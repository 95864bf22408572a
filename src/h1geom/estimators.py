"""Monte Carlo and randomised quasi-Monte Carlo estimators for the
kinematic measure identities.

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
lines, evaluates their chords, and an integrand yields per-line values
f; the pass sums each value and each product of two, sub-block by
sub-block in the order of numpy's pairwise summation.  An estimate is a
coefficient vector c (the mean of c.f, its error from c^T G c with G
the product sums) or a ratio of two, so a new identity = one integrand
+ one reference.  Every line estimate reads one (hit, sigma) pass:
(1, 0) is the line measure, (0, 1) the chord integral, (ell, 1) the hit
measure at ell, and the mean chord is (0, 1) over (1, 0).

The grid method's blocks are randomly shifted copies of one Kronecker
point set (randomised QMC): each copy is an unbiased estimate, and
their spread is the standard error.  Randomness is counter-based (see
:mod:`h1geom.rng`) and work is split into fixed blocks whose sums are
added in block order, so results are bit-identical for a given
(seed, n).  Every pass runs its blocks one after another on the calling
thread: the estimators' ``threads`` keyword is validated and kept for
callers that pass it, but starts no threads, because on short numpy
calls two threads spent their time handing the interpreter lock back
and forth and ran slower than one.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    "grid_axis_resolution",
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
# fixed work-block size: the counter draws of a block and the order in
# which block sums are added depend on (seed, n) alone
BLOCK = 1 << 16
# lines per sub-block: a block's lines, kernels and integrands run on
# sub-blocks of at most this many lines.  Their temporaries stay below
# the block's array of uniforms in size, and glibc's adaptive mmap/trim
# thresholds, raised by that array, then let the heap reuse them from
# one sub-block to the next instead of page-faulting fresh pages for
# multi-megabyte temporaries on every block
_SUB_BLOCK = 1 << 13
# lines per grid sub-block: a grid has no block array to raise those
# thresholds, and at 4096 lines its (3, n) points stay below glibc's
# default 128 KiB mmap threshold, so one sub-block's memory is reused by
# the next instead of being returned to the system and faulted in again
_GRID_SUB_BLOCK = 1 << 12
# a grid's memory does not grow with its size, so nothing else stops a
# resolution that would run for days: at most 2^32 lines (res 1625)
_MAX_GRID_LINES = 1 << 32
_STRATA = 64
# the grid's shifted copies of the Kronecker set frac(i alpha), where
# alpha = phi^-(1, 2, 3) and phi = 1.22074... is the real root of
# x^4 = x + 1 (the "R3" set)
_SHIFTS = 16
_R3 = 1.2207440846057596 ** -np.arange(1.0, 4.0)[:, None]
_T15 = 2.131449545559776  # 97.5% quantile of Student's t, 15 degrees of freedom


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
    """A Monte Carlo or grid estimate with its standard error and, when a
    closed form or quadrature value exists, a reference.  A grid z score
    follows Student's t with _SHIFTS - 1 = 15 degrees of freedom, so
    ``ci95`` is value +/- 2.1314 std_error for the grid and +/- 1.96 for
    Monte Carlo.

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
        """Standardized deviation from a reference value; without an error
        bar, 0 on an exact match and infinite otherwise."""
        ref = self.reference if reference is None else reference
        if ref is None:
            raise ValueError("no reference available for z_score")
        return _z(self.value, ref, self.std_error)


def _z(value: float, reference: float, std_error: float) -> float:
    """The z score of :meth:`EstimateResult.z_score`, for any pair."""
    if std_error == 0.0:
        return 0.0 if value == reference else math.inf
    return (value - reference) / std_error


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
    caller's window or the body's own.  ``threads`` is checked to be a
    positive integer and otherwise unused: passes run on the calling
    thread."""
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


def grid_axis_resolution(n: int, resolution: int | None = None) -> int:
    """The per-axis resolution a grid pass uses: ``resolution``, or
    max(8, round(n^(1/3))) when it is None; below 2, or a grid of more
    than 2^32 lines, raises ValueError."""
    res = max(8, int(round(n ** (1.0 / 3.0)))) if resolution is None else resolution
    if res < 2:
        raise ValueError(f"grid resolution must be at least 2, got {res}")
    if res**3 > _MAX_GRID_LINES:
        raise ValueError(f"grid resolution {res} asks for {res**3:.3g} lines, more than 2^32")
    return res


def _pass(bodies, window, n, seed, stratify, method, grid_res, integrand, streams=3):
    """The one sample-and-sum pass behind every estimator.

    Lines come in fixed blocks of uniforms u: BLOCK consecutive Monte
    Carlo draws, or the grid's _SHIFTS shifts of max(1, res^3 // _SHIFTS)
    points, point i of shift r being frac(i alpha + U_r) with U_r drawn
    at counter r.  Per sub-block (see ``_split_sum``), ``integrand`` gets
    each body's ``chord_batch`` triple and the uniforms of its lines and
    yields m per-line value arrays f.  Returns the sums of each f_i and
    then of each product f_i f_j (i <= j, in combinations_with_replacement
    order), one row per block in block order, and the line count.  The
    blocks run one after another on the calling thread.
    """
    if method == "grid":
        res = grid_axis_resolution(n, grid_res)
        blocks = [(r, max(1, res**3 // _SHIFTS)) for r in range(_SHIFTS)]
        # the shifts randomise the grid; it takes no strata
        stratify = False
        shifts = uniforms(seed, 0, _SHIFTS, 3)
        leaf = _GRID_SUB_BLOCK

        def draw(r, size):
            # each sub-block makes its own points, so memory stays flat
            # however large a shift is
            def points(part):
                u = np.arange(part.start, part.stop) * _R3
                u += shifts[:, r, None]
                u -= np.floor(u)
                return u

            return points

    else:
        blocks = [(lo, min(BLOCK, n - lo)) for lo in range(0, n, BLOCK)]
        leaf = _SUB_BLOCK

        def draw(lo, size):
            # drawn whole: this array is what raises glibc's trim
            # threshold (see _SUB_BLOCK)
            u = uniforms(seed, lo, size, streams)
            return lambda part: u[:, part]

    def block_sums(block):
        lo, size = block
        points = draw(lo, size)

        def sums(part):
            v = points(part)
            if stratify:
                # sample i draws theta from stratum i mod K, so every
                # contiguous index range covers the circle nearly uniformly
                index = np.arange(lo + part.start, lo + part.stop, dtype=np.float64)
                theta = (np.mod(index, float(_STRATA)) + v[0]) * (TWO_PI / _STRATA)
            else:
                theta = v[0] * TWO_PI
            p = v[1] * window.p_max
            t = window.t_lo + v[2] * (window.t_hi - window.t_lo)
            chords = [body.chord_batch(p, theta, t) for body in bodies]
            f = [np.asarray(a, dtype=float) for a in integrand(chords, v)]
            pairs = itertools.combinations_with_replacement(f, 2)
            # values near the float range (a huge ell) overflow to inf or
            # nan sums, which _linear and the reports carry on
            with np.errstate(over="ignore", invalid="ignore"):
                return np.array([np.sum(a) for a in f] + [np.sum(a * b) for a, b in pairs])

        return _split_sum(sums, 0, size, leaf)

    rows = list(map(block_sums, blocks))
    return np.array(rows), sum(size for _, size in blocks)


def _split_sum(sums, lo, n, leaf):
    """``sums`` of the lines [lo, lo + n) of a block, taken in sub-blocks
    of at most ``leaf`` (>= 128) lines.  The range is split where numpy's
    pairwise summation splits an array of length n, so each total is
    bitwise the sum over the whole range."""
    if n <= leaf:
        return sums(slice(lo, lo + n))
    half = n // 2 - (n // 2) % 8
    return _split_sum(sums, lo, half, leaf) + _split_sum(sums, lo + half, n - half, leaf)


def _sigma(chord):
    """Chord lengths (zero off the body) and the hit mask of a
    ``chord_batch`` triple."""
    s_lo, s_hi, hit = chord
    return np.where(hit, np.maximum(s_hi - s_lo, 0.0), 0.0), hit


def _linear(rows, c, n, w, method):
    """Window-scaled mean of c.f over n lines, from the block sums
    ``rows``, and its standard error: by c^T G c for Monte Carlo, by the
    spread of the per-shift c.S for the grid."""
    c = np.asarray(c, dtype=float)
    m = len(c)
    total = sum(rows)
    # coefficients near the float range (a huge ell) overflow to an
    # infinite or nan estimate, which reports show as null and gates fail
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = c @ total[:m]
        if method == "grid":
            se = float(np.std(rows[:, :m] @ c, ddof=1)) * math.sqrt(_SHIFTS) / n
        else:
            g = np.empty((m, m))
            i, j = np.triu_indices(m)
            g[i, j] = g[j, i] = total[m:]
            var = max(c @ g @ c - s1 * s1 / n, 0.0) / max(n - 1, 1)
            se = math.sqrt(var / n)
        return w * (s1 / n), w * se


def _ratio(rows, a, b, n):
    """Ratio of the means of a.f and b.f on common samples, with the
    delta-method standard error: that of the mean of (a - r b).f over
    the mean of b.f."""
    s = sum(rows)[: len(a)]
    mx, my = np.dot(a, s) / n, np.dot(b, s) / n
    if my <= 0.0:
        raise ValueError("no hits in the sample; enlarge n or check the window")
    r = mx / my
    _, se = _linear(rows, np.subtract(a, np.multiply(r, b)), n, 1.0, "mc")
    return r, se / my


def _result(value, se, n, hits, seed, method, reference, auto, clamp_fraction=None):
    """The one EstimateResult builder.  ``reference='auto'`` takes
    (value, source) from ``auto()``, None skips the reference, and any
    other value is the caller's.  Value and error become Python floats,
    so a non-finite estimate's z score and relative error are nan without
    a numpy warning."""
    value, se = float(value), float(se)
    if reference == "auto":
        ref_value, ref_source = auto()
    elif reference is None:
        ref_value, ref_source = None, None
    else:
        ref_value, ref_source = float(reference), "caller"
    half = (_T15 if method == "grid" else 1.96) * se
    return EstimateResult(
        value=value,
        std_error=se,
        ci95=(value - half, value + half),
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


def _line_reference(vol, pa):
    return 2.0 * pa(), "2 * measures.p_area(body)"


def _chord_reference(vol, pa):
    return TWO_PI * vol(), "2*pi * measures.volume(body)"


def _hit_reference(vol, pa, ell):
    return (
        TWO_PI * vol() + 2.0 * ell * pa(),
        "2*pi*measures.volume + 2*ell*measures.p_area",
    )


def _mean_chord_reference(vol, pa):
    return math.pi * vol() / pa(), "pi * measures.volume / measures.p_area"


def _line_pass(body, window, n, seed, stratify, method, grid_res):
    """Every line estimate from one pass over ``window`` (as ``_setup``
    returns it) whose integrand yields (hit, sigma) per line.  Returns
    ``finish(c, reference, auto, over=None)``, which builds the mean of
    c.(hit, sigma) ((1, 0) the line measure, (0, 1) the chord integral,
    (ell, 1) the hit measure at ell) or, given ``over``, its ratio to the
    mean of over.(hit, sigma).  ``auto(vol, pa)`` gives the reference
    from the body's measures."""

    def integrand(chords, u):
        sigma, hit = _sigma(chords[0])
        yield from (hit, sigma)

    rows, n_lines = _pass(
        (body,), window, n, seed, stratify, method, grid_res, integrand
    )
    vol, pa = _measures(body)

    def finish(c, reference, auto, over=None):
        if over is None:
            value, se = _linear(rows, c, n_lines, window.measure, method)
        else:
            value, se = _ratio(rows, c, over, n_lines)
        hits = sum(rows[:, 0])
        return _result(
            value, se, n_lines, hits, seed, method, reference, lambda: auto(vol, pa)
        )

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
    window = _setup(body, window, n, seed, threads, method)
    finish = _line_pass(body, window, n, seed, stratify, method, grid_resolution)
    return finish((1.0, 0.0), reference, _line_reference)


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
    window = _setup(body, window, n, seed, threads, method)
    finish = _line_pass(body, window, n, seed, stratify, method, grid_resolution)
    return finish((0.0, 1.0), reference, _chord_reference)


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
    window = _setup(body, None, n, seed, threads)
    finish = _line_pass(body, window, n, seed, stratify, "mc", None)
    return SegmentHitSweep(
        ells=ells,
        rows=[
            finish((ell, 1.0), "auto", functools.partial(_hit_reference, ell=ell))
            for ell in ells
        ],
        slope=finish((1.0, 0.0), "auto", _line_reference),
        intercept=finish((0.0, 1.0), "auto", _chord_reference),
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
    window = _setup(body, window, n, seed, threads, method)
    if marginalize_h:
        finish = _line_pass(body, window, n, seed, stratify, method, grid_resolution)
        auto = functools.partial(_hit_reference, ell=ell)
        return finish((ell, 1.0), reference, auto)

    # direct 4D sampling over (p, theta, t, h); any chord parameter
    # satisfies p^2 + s^2 <= r_xy^2, so h in [-(r + ell), r] covers every
    # hitting segment
    if method != "mc":
        raise ValueError("direct h sampling is Monte Carlo only")
    h_lo, h_hi = -(window.p_max + ell), window.p_max
    h_len = h_hi - h_lo

    def integrand(chords, u):
        s_lo, s_hi, hit = chords[0]
        h = h_lo + u[3] * h_len
        yield hit & (h <= s_hi) & (h + ell >= s_lo)

    rows, _ = _pass(
        (body,), window, n, seed, stratify, "mc", None, integrand, streams=4
    )
    value, se = _linear(rows, (1.0,), n, window.measure * h_len, "mc")
    auto = functools.partial(_hit_reference, *_measures(body), ell)
    return _result(value, se, n, sum(rows[:, 0]), seed, "mc-4d", reference, auto)


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
        yield from (f, hit, hit & (f == 0.0))

    rows, n_lines = _pass(
        (body,), window, n, seed, stratify, method, grid_resolution, integrand
    )
    value, se = _linear(rows, (1.0, 0.0, 0.0), n_lines, window.measure, method)
    _, hits, clamped = sum(rows)[:3]
    clamp_fraction = clamped / hits if hits > 0 else 0.0

    def auto():
        return _chord_reference(*_measures(body)) if ell == 0.0 else (None, None)

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
    finish = _line_pass(body, window, n, seed, stratify, "mc", None)
    return finish((0.0, 1.0), reference, _mean_chord_reference, over=(1.0, 0.0))


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
        yield from ((sig_in + ell) * hit_in, (sig_out + ell) * hit_out, hit_out)

    rows, _ = _pass((inner, outer), window, n, seed, stratify, "mc", None, integrand)
    value, se = _ratio(rows, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), n)

    def auto():
        num = _hit_reference(*_measures(inner), ell)[0]
        den = _hit_reference(*_measures(outer), ell)[0]
        return num / den, "(2*pi*V + 2*ell*pA) inner over outer [measures]"

    return _result(value, se, n, sum(rows)[2], seed, "mc", reference, auto)


# invariant quantities as coefficients over a line pass's (hit, sigma)
_INVARIANTS = {
    "line_measure": (1.0, 0.0),
    "chord_integral": (0.0, 1.0),
    "segment_hit_measure_ell1": (1.0, 1.0),
}


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
        _line_pass(b, _setup(b, None, n, s, threads), n, s, stratify, "mc", None)
        for b, s in ((body, seed), (transform_body(motion, body), seed + 1))
    ]
    rows = []
    for name in quantities:
        a, b = (finish(_INVARIANTS[name], None, None) for finish in passes)
        z = _z(a.value, b.value, math.hypot(a.std_error, b.std_error))
        rows.append(InvarianceRow(name, a.value, a.std_error, b.value, b.std_error, z))
    return InvarianceReport(
        motion=motion, n_samples=n, seed=seed, threshold=threshold, rows=rows
    )
