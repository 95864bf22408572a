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

Estimators draw lines uniformly from the body's own window (a chart box
guaranteed to contain every line meeting it), evaluate exact chords, and
scale by the window's oriented measure; a containment estimate uses the
outer body's window, once ``outer.contains_body(inner)`` has found the
pair nested.  The h coordinate of segments is integrated in closed form:
a segment of length l placed on a line with chord [a, b] meets the body
for h in an interval of length sigma + l and lies inside it for
max(sigma - l, 0).

Every estimator is one pass of ``_pass``: per fixed block it draws
lines and evaluates their chords, and an integrand yields every
per-line array whose sum the estimate reads, its values f and the
products of them that their error needs.  The pass only sums these
arrays, sub-block by sub-block in the order of numpy's pairwise
summation.  An estimate is a coefficient vector c over the leading
values (the mean of c.f, its error from c^T G c) or a ratio of two, and
``gram``, a small matrix of column indices, picks G out of the sums.
Every line estimate reads one pass yielding (hit, sigma, sigma^2), with
gram [[0, 1], [1, 2]] (hit^2 is hit and hit sigma is sigma): (1, 0) is
the line measure, (0, 1) the chord integral, (ell, 1) the hit measure
at ell, and the mean chord is (0, 1) over (1, 0).

Consecutive line estimates of one body with the same (n, seed,
stratify, method, grid resolution) share that pass: ``_line_pass``
keeps the most recent one, with the body's references, in a single
slot keyed on the body's identity (bodies are immutable) and those
arguments, and any other line pass replaces it.  A shared estimate is
bitwise what a pass of its own gives.  The slot holds one pass, not
one per body, so estimates of several bodies taken in turns each draw
their own.

The references follow the same law: R = (2 pA, 2 pi V) is the reference
of (hit, sigma), so a line estimate with coefficients c has reference
c.R (and the mean chord c.R over (1, 0).R).  Adding a line identity thus
takes only its coefficients and a label naming the source of its
reference.  Any other identity takes its integrand and a zero-argument
callable returning its reference (value, source).  A single-body
estimate also takes a row of the CLI's ``_ESTIMATES`` table.

The grid method's blocks are randomly shifted copies of one Kronecker
point set (randomised QMC): each copy is an unbiased estimate, and
their spread is the standard error.  Each uniform is addressed by
(seed, sample index, stream): a block jumps its PCG64 streams ahead to
its first index (see :mod:`h1geom.rng`).  Work is split into fixed
blocks whose sums are added in block order, so results are
bit-identical for a given (seed, n).  Every pass runs its blocks one
after another on the calling thread: the estimators' ``threads``
keyword is validated and kept for callers that pass it, but starts no
threads, because on short numpy calls two threads spent their time
handing the interpreter lock back and forth and ran slower than one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, PshMotion
from .bodies import ConvexBody, transform_body
from .measures import p_area, volume
from .rng import uniforms

__all__ = [
    "DEFAULT_SEED",
    "BLOCK",
    "ContainmentError",
    "LineWindow",
    "EstimateResult",
    "InvarianceRow",
    "InvarianceReport",
    "line_window",
    "grid_axis_resolution",
    "estimate_line_measure",
    "estimate_chord_integral",
    "estimate_segment_hit_measure",
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
# lines per pass: a Monte Carlo pass lists its blocks before it draws a
# line, and a grid's memory does not grow with its size, so nothing else
# stops a sample count or a resolution (at most 1625) that would exhaust
# memory or run for days
_MAX_LINES = 1 << 32
_STRATA = 64
# the grid's shifted copies of the Kronecker set frac(i alpha), where
# alpha = phi^-(1, 2, 3) and phi = 1.22074... is the real root of
# x^4 = x + 1 (the "R3" set)
_SHIFTS = 16
_R3 = 1.2207440846057596 ** -np.arange(1.0, 4.0)[:, None]
_T15 = 2.131449545559776  # 97.5% quantile of Student's t, 15 degrees of freedom
# |z| at which an estimate fails against its reference, or an invariant
# quantity against its image under a motion
Z_GATE = 4.0
# a grid z follows t15, which crosses Z_GATE with probability 1.16e-3: the
# grid's gate is the t15 quantile whose two-sided tail is that of Z_GATE
# for a normal z, P(|N(0, 1)| > 4) = 6.3e-5
_GRID_Z_GATE = 5.48


class ContainmentError(Exception):
    """Raised when a body pair violates a required nesting."""


@dataclass(frozen=True)
class LineWindow:
    """A chart box {0 <= p <= p_max, 0 <= theta < 2 pi, t_lo <= t <= t_hi}
    of horizontal lines.

    ``measure`` is twice its dp dtheta dt volume, to count oriented
    lines, which is the normalization the kinematic identities use.
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
    def measure(self) -> float:
        """Oriented-line measure of the window (twice the chart volume)."""
        return 2.0 * (TWO_PI * self.p_max * (self.t_hi - self.t_lo))


def line_window(body: ConvexBody) -> LineWindow:
    """A window guaranteed to contain every line meeting the body.

    If a line meets the body at a point with cylinder coordinates
    |xy| <= r (r the body's ``horizontal_reach``) and height z in
    [z_min, z_max] (its support on -+e3), then p <= r (p is the distance
    of the projected line from the origin) and, since p^2 + s^2 <= r^2 at
    the meeting parameter s, the base height t = z - s p lies within r^2
    of z.  The box is inflated by 1e-9 of the body's scale so boundary
    cases stay strictly inside.
    """
    r = body.horizontal_reach()
    low, high = body.support(np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])).tolist()
    z_min = -low
    scale = max(1.0, r, r * r, abs(z_min), abs(high))
    pad = 1e-9 * scale
    return LineWindow(
        p_max=r + pad, t_lo=z_min - r * r - pad, t_hi=high + r * r + pad
    )


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

    def z_score(self) -> float:
        """Standardized deviation from the reference; without an error
        bar, 0 on an exact match and otherwise infinite with the sign of
        value - reference."""
        if self.reference is None:
            raise ValueError("no reference available for z_score")
        return _z(self.value, self.reference, self.std_error)

    @property
    def z_gate(self) -> float:
        """The |z| at which the estimate fails against its reference: the
        same false-alarm rate under the grid's error law as under Monte
        Carlo's."""
        return _GRID_Z_GATE if self.method == "grid" else Z_GATE


def _z(value: float, reference: float, std_error: float) -> float:
    """The z score of :meth:`EstimateResult.z_score`, for any pair."""
    if std_error == 0.0:
        return 0.0 if value == reference else math.copysign(math.inf, value - reference)
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
    ``threshold``, which is ``Z_GATE``."""

    motion: PshMotion
    n_samples: int
    seed: int
    threshold: float
    rows: list[InvarianceRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(abs(row.z) < self.threshold for row in self.rows)


def _setup(n, seed, threads, method="mc", stratify=False, grid_resolution=None) -> None:
    """Validate the arguments every estimator shares.  ``threads`` is
    checked to be a positive integer and otherwise unused: passes run on
    the calling thread.  An option the method ignores is an error:
    ``stratify`` with the grid, whose shifts randomise it, and a
    ``grid_resolution`` with Monte Carlo."""
    _check_n(n)
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    if method not in ("mc", "grid"):
        raise ValueError(f"unknown method {method!r}")
    if method == "grid" and stratify:
        raise ValueError("stratify is for Monte Carlo: the grid's random shifts randomise it")
    if method == "mc" and grid_resolution is not None:
        raise ValueError("a grid resolution needs method='grid'")


def _check_n(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > _MAX_LINES:
        raise ValueError(f"n = {n} asks for more than 2^32 lines")


def _check_ell(ell) -> float:
    ell = float(ell)
    if not math.isfinite(ell) or ell < 0.0:
        raise ValueError(f"ell must be finite and >= 0, got {ell}")
    return ell


def grid_axis_resolution(n: int, resolution: int | None = None) -> int:
    """The per-axis resolution a grid pass uses: ``resolution``, or
    max(8, round(n^(1/3))) when it is None; below 2, or a grid of more
    than 2^32 lines, raises ValueError, as does an n that is not a
    positive integer of at most 2^32."""
    _check_n(n)
    res = max(8, int(round(n ** (1.0 / 3.0)))) if resolution is None else resolution
    if res < 2:
        raise ValueError(f"grid resolution must be at least 2, got {res}")
    if res**3 > _MAX_LINES:
        raise ValueError(f"grid resolution {res} asks for {res**3:.3g} lines, more than 2^32")
    return res


def _pass(bodies, n, seed, stratify, method, grid_res, integrand):
    """The one sample-and-sum pass behind every estimator.

    Lines map three uniforms each into the window of the last of
    ``bodies`` (the outer body of a containment pair) and come in fixed
    blocks: BLOCK consecutive Monte Carlo draws, or the grid's _SHIFTS
    shifts of max(1, res^3 // _SHIFTS) points, point i of shift r being
    frac(i alpha + U_r) with U_r drawn at counter r.  Per sub-block (see
    ``_split_sum``), ``integrand`` gets each body's ``chord_batch``
    triple and yields the per-line arrays, float or boolean, whose sums
    the estimate reads; a boolean one is summed by counting, bitwise its
    sum as floats.  Returns the sums, one row per block in block order,
    the line count and the window's measure.  The blocks run one after
    another on the calling thread.
    """
    window = line_window(bodies[-1])
    if method == "grid":
        res = grid_axis_resolution(n, grid_res)
        blocks = [(r, max(1, res**3 // _SHIFTS)) for r in range(_SHIFTS)]
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
            u = uniforms(seed, lo, size, 3)
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
            t = v[2] * (window.t_hi - window.t_lo)
            t += window.t_lo
            chords = [body.chord_batch(p, theta, t) for body in bodies]
            # values near the float range (a huge ell) overflow to inf or
            # nan sums, which _linear and the reports carry on
            with np.errstate(over="ignore", invalid="ignore"):
                f = [
                    np.count_nonzero(a) if a.dtype == bool else np.sum(a)
                    for a in integrand(chords)
                ]
            return np.array(f, dtype=float)

        return _split_sum(sums, 0, size, leaf)

    rows = list(map(block_sums, blocks))
    return np.array(rows), sum(size for _, size in blocks), window.measure


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
    ``chord_batch`` triple.  On a hit s_lo <= s_hi already: the polytope
    kernel's hit test is that inequality, and the quadric's roots
    (-b -+ sqrt(disc)) / 2a with a > 0 round in order."""
    s_lo, s_hi, hit = chord
    return np.where(hit, np.subtract(s_hi, s_lo), 0.0), hit


def _linear(rows, c, gram, n, w, method):
    """Window-scaled mean of c.f over n lines, f the first len(c) columns
    of the block sums ``rows``, and its standard error: by c^T G c for
    Monte Carlo, G = total[gram] the sums of the products f_i f_j, by the
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
            var = max(c @ total[gram] @ c - s1 * s1 / n, 0.0) / max(n - 1, 1)
            se = math.sqrt(var / n)
        return w * (s1 / n), w * se


def _ratio(rows, a, b, gram, n):
    """Ratio of the means of a.f and b.f on common samples, with the
    delta-method standard error: that of the mean of (a - r b).f over
    the mean of b.f."""
    s = sum(rows)[: len(a)]
    # infinite sums (a huge ell) give an infinite or nan ratio, as in _linear
    with np.errstate(over="ignore", invalid="ignore"):
        mx, my = np.dot(a, s) / n, np.dot(b, s) / n
    if my <= 0.0:
        raise ValueError("no line of the sample meets the body; enlarge n")
    r = mx / my
    _, se = _linear(rows, np.subtract(a, np.multiply(r, b)), gram, n, 1.0, "mc")
    return r, se / my


def _result(value, se, n, hits, seed, method, reference, auto, clamp_fraction=None):
    """The one EstimateResult builder.  ``reference='auto'`` takes
    (value, source) from ``auto()``, None skips the reference, and any
    other value is the caller's.  Value, error and clamp fraction become
    Python floats, so a non-finite estimate's z score and relative error
    are nan without a numpy warning."""
    value, se = float(value), float(se)
    if clamp_fraction is not None:
        clamp_fraction = float(clamp_fraction)
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


def _references(body):
    """R = (2 pA, 2 pi V), the references of a line pass's (hit, sigma):
    the line estimate with coefficients c has reference c.R.  Each entry
    is a zero-argument callable that computes its quadrature or closed
    form on first use."""
    return (
        functools.cache(lambda: 2.0 * p_area(body).value),
        functools.cache(lambda: TWO_PI * volume(body).value),
    )


def _dot(c, refs):
    """c.R in Python floats, c0 R0 + c1 R1: a zero coefficient's entry is
    never computed, so the line measure reads no volume and the chord
    integral no p-Area."""
    value = 0.0
    for ci, ref in zip(c, refs):
        if ci:
            value += ci * ref()
    return value


# the reference sources of the line measure, the chord integral and the
# segment hit measure, each named by what computes it
_LINE_SOURCE = "2 * measures.p_area(body)"
_CHORD_SOURCE = "2*pi * measures.volume(body)"
_HIT_SOURCE = "2*pi*measures.volume + 2*ell*measures.p_area"

# the products of the line pass's (hit, sigma) among its sums (hit,
# sigma, sigma^2): hit^2 is hit and hit sigma is sigma (``_sigma`` zeroes
# sigma off the hits)
_LINE_GRAM = [[0, 1], [1, 2]]


# the most recent line pass, (body, key, (rows, n_lines, w, refs)) with
# key the other arguments that fix its lines, or None.  One entry, not a
# cache of many: consecutive line estimates of one body at one seed share
# their pass, and any other call draws its own
_last_pass = None


def _line_pass(body, n, seed, stratify, method, grid_res):
    """Every line estimate from one pass over the body's window whose
    integrand yields (hit, sigma, sigma^2) per line.
    Returns ``finish(c, reference, source, over=None)``, which builds the
    mean of c.(hit, sigma) ((1, 0) the line measure, (0, 1) the chord
    integral, (ell, 1) the hit measure at ell) or, given ``over``, its
    ratio to the mean of over.(hit, sigma).  Its automatic reference is
    c.R, or c.R / over.R, with R the body's ``_references``, labelled
    ``source``.

    The pass and R are kept in ``_last_pass`` until a line pass of
    another body (by identity, bodies being immutable) or other
    arguments replaces them; ``threads`` changes no bit and is not an
    argument.  The slot is read once and replaced by one assignment, so
    a concurrent caller sees the old entry or the new one, and its rows
    are read-only."""

    def integrand(chords):
        sigma, hit = _sigma(chords[0])
        yield from (hit, sigma, sigma * sigma)

    global _last_pass
    key = (n, seed, stratify, method, grid_res)
    entry = _last_pass
    if entry is None or entry[0] is not body or entry[1] != key:
        rows, n_lines, w = _pass((body,), n, seed, stratify, method, grid_res, integrand)
        rows.flags.writeable = False
        entry = (body, key, (rows, n_lines, w, _references(body)))
        _last_pass = entry
    rows, n_lines, w, refs = entry[2]

    def finish(c, reference, source, over=None):
        if over is None:
            value, se = _linear(rows, c, _LINE_GRAM, n_lines, w, method)
        else:
            value, se = _ratio(rows, c, over, _LINE_GRAM, n_lines)

        def auto():
            ref = _dot(c, refs)
            return (ref if over is None else ref / _dot(over, refs)), source

        return _result(value, se, n_lines, sum(rows[:, 0]), seed, method, reference, auto)

    return finish


def estimate_line_measure(
    body: ConvexBody,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
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
    _setup(n, seed, threads, method, stratify, grid_resolution)
    finish = _line_pass(body, n, seed, stratify, method, grid_resolution)
    return finish((1.0, 0.0), reference, _LINE_SOURCE)


def estimate_chord_integral(
    body: ConvexBody,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    stratify: bool = False,
    threads: int = 1,
    method: str = "mc",
    grid_resolution: int | None = None,
    reference="auto",
) -> EstimateResult:
    """Integral of the chord length over oriented lines; equals
    2 pi V(body)."""
    _setup(n, seed, threads, method, stratify, grid_resolution)
    finish = _line_pass(body, n, seed, stratify, method, grid_resolution)
    return finish((0.0, 1.0), reference, _CHORD_SOURCE)


def estimate_segment_hit_measure(
    body: ConvexBody,
    ell: float,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    stratify: bool = False,
    threads: int = 1,
    method: str = "mc",
    grid_resolution: int | None = None,
    reference="auto",
) -> EstimateResult:
    """Kinematic measure of segments of length ell meeting the body;
    equals 2 pi V + 2 ell pA.  The segment offset h is integrated
    exactly: a segment meets the body iff h lies in an interval of
    length sigma + ell.  The integrand is linear in ell line by line,
    so hit measures at several lengths, taken one after another with the
    same sampling arguments, read one shared pass (see ``_line_pass``),
    as the CLI's ``sweep`` does.
    """
    ell = _check_ell(ell)
    _setup(n, seed, threads, method, stratify, grid_resolution)
    finish = _line_pass(body, n, seed, stratify, method, grid_resolution)
    return finish((ell, 1.0), reference, _HIT_SOURCE)


def estimate_segment_containment_measure(
    body: ConvexBody,
    ell: float,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
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
    _setup(n, seed, threads, method, stratify, grid_resolution)

    def integrand(chords):
        sigma, hit = _sigma(chords[0])
        f = np.maximum(sigma - ell, 0.0)
        yield from (f, f * f, hit, hit & (f == 0.0))

    rows, n_lines, w = _pass((body,), n, seed, stratify, method, grid_resolution, integrand)
    value, se = _linear(rows, (1.0,), [[1]], n_lines, w, method)
    _, _, hits, clamped = sum(rows)
    clamp_fraction = clamped / hits if hits > 0 else 0.0

    def auto():
        return (_dot((0.0, 1.0), _references(body)), _CHORD_SOURCE) if ell == 0.0 else (None, None)

    return _result(
        value, se, n_lines, hits, seed, method, reference, auto, clamp_fraction
    )


def estimate_mean_chord(
    body: ConvexBody,
    n: int,
    seed: int = DEFAULT_SEED,
    *,
    stratify: bool = False,
    threads: int = 1,
    reference="auto",
) -> EstimateResult:
    """Mean chord length over lines meeting the body: the ratio of the
    chord integral to the line measure, estimated on common samples with
    a delta-method standard error.  Reference: pi V / pA."""
    _setup(n, seed, threads)
    finish = _line_pass(body, n, seed, stratify, "mc", None)
    source = "pi * measures.volume / measures.p_area"
    return finish((0.0, 1.0), reference, source, over=(1.0, 0.0))


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
    otherwise, as ``outer.contains_body(inner)`` decides it.
    """
    ell = _check_ell(ell)
    _setup(n, seed, threads)
    if not outer.contains_body(inner):
        raise ContainmentError("inner body is not contained in the outer body")

    def integrand(chords):
        (sig_in, hit_in), (sig_out, hit_out) = map(_sigma, chords)
        a, b = (sig_in + ell) * hit_in, (sig_out + ell) * hit_out
        yield from (a, b, hit_out, a * a, a * b, b * b)

    rows, _, _ = _pass((inner, outer), n, seed, stratify, "mc", None, integrand)
    value, se = _ratio(rows, (1.0, 0.0), (0.0, 1.0), [[3, 4], [4, 5]], n)

    def auto():
        num, den = (_dot((ell, 1.0), _references(b)) for b in (inner, outer))
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
) -> InvarianceReport:
    """Estimate invariant quantities for the body and its image under a
    rigid motion, each in its own window, and compare with two-sample
    z statistics.  The quantities (line measure, chord integral, segment
    hit measure at ell = 1, one row each in that order) are exactly
    invariant, so |z| at or beyond ``Z_GATE`` signals an implementation
    defect rather than noise.  One sample pass per body (seed for the
    body, seed + 1 for its image) serves every quantity."""
    _setup(n, seed, threads)
    passes = [
        _line_pass(b, n, s, stratify, "mc", None)
        for b, s in ((body, seed), (transform_body(motion, body), seed + 1))
    ]
    rows = []
    for name, coeffs in _INVARIANTS.items():
        a, b = (finish(coeffs, None, None) for finish in passes)
        z = _z(a.value, b.value, math.hypot(a.std_error, b.std_error))
        rows.append(InvarianceRow(name, a.value, a.std_error, b.value, b.std_error, z))
    return InvarianceReport(
        motion=motion, n_samples=n, seed=seed, threshold=Z_GATE, rows=rows
    )
