"""Monte Carlo and grid estimators for the kinematic identities."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

import h1geom.estimators as estimators
from conftest import make_acceptance_bodies, random_motion
from h1geom import (
    BLOCK,
    Ball,
    Box,
    ContainmentError,
    Ellipsoid,
    LineWindow,
    PshMotion,
    Segment,
    HorizontalLine,
    containment_probability,
    estimate_chord_integral,
    estimate_line_measure,
    estimate_mean_chord,
    estimate_segment_containment_measure,
    estimate_segment_hit_measure,
    estimate_segment_hit_sweep,
    invariance_check,
    line_through,
    line_window,
    p_area,
    transform_body,
    volume,
)
from h1geom.rng import uniforms

BALL = Ball((0.0, 0.0, 0.0), 1.0)
BOX = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
TWO_PI = 2.0 * math.pi


def test_line_window_examples():
    w = line_window(BALL)
    assert abs(w.p_max - 1.0) < 1e-6
    assert abs(w.t_lo + 2.0) < 1e-6 and abs(w.t_hi - 2.0) < 1e-6
    w = line_window(BOX)
    assert abs(w.p_max - math.sqrt(2.0)) < 1e-6
    assert abs(w.t_lo + 2.0) < 1e-6 and abs(w.t_hi - 3.0) < 1e-6


def test_line_window_measure():
    w = LineWindow(2.0, -1.0, 3.0)
    assert w.chart_measure == TWO_PI * 2.0 * 4.0
    assert w.measure == 2.0 * w.chart_measure
    assert w.contains_line(HorizontalLine(1.0, 0.3, 0.0))
    assert not w.contains_line(HorizontalLine(2.5, 0.3, 0.0))
    assert not w.contains_line(HorizontalLine(1.0, 0.3, 4.0))
    with pytest.raises(ValueError):
        LineWindow(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LineWindow(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        LineWindow(math.inf, 0.0, 1.0)


def test_window_contains_every_meeting_line():
    # every line through an interior point must fall inside the window
    rng = np.random.default_rng(5150)
    n = 1_000_000
    w = line_window(BALL)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    pts = pts[np.sum(pts * pts, axis=1) < 1.0]
    theta = rng.uniform(0.0, TWO_PI, len(pts))
    ct, st = np.cos(theta), np.sin(theta)
    p = pts[:, 0] * ct + pts[:, 1] * st
    s = pts[:, 0] * st - pts[:, 1] * ct
    t = pts[:, 2] - s * p
    p = np.abs(p)
    assert np.all(p <= w.p_max)
    assert np.all((t >= w.t_lo) & (t <= w.t_hi))
    # spot-check the vectorized chart math against line_through
    from h1geom import Point

    for i in rng.integers(0, len(pts), 1000):
        g, _ = line_through(Point(*pts[i]), float(theta[i]))
        assert abs(g.p - p[i]) < 1e-12
        assert abs(g.t - t[i]) < 1e-12
        assert w.contains_line(g)


def test_negative_control_body_outside_window():
    w = line_window(BALL)
    shifted = Ball((0.0, 0.0, 100.0), 1.0)
    est = estimate_line_measure(shifted, 20_000, seed=7, window=w)
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.n_hits == 0


def test_line_measure_matches_double_p_area():
    for body in (BALL, BOX):
        est = estimate_line_measure(body, 200_000, seed=11, threads=2)
        assert est.reference is not None
        assert "p_area" in est.reference_source
        assert abs(est.z_score()) < 4.0
        assert abs(est.value - est.reference) < 0.02 * est.reference


def test_chord_integral_matches_volume():
    for body in (BALL, BOX):
        est = estimate_chord_integral(body, 200_000, seed=13, threads=2)
        assert abs(est.reference - TWO_PI * volume(body).value) < 1e-12
        assert abs(est.z_score()) < 4.0


def test_scaling_to_larger_ball():
    big = Ball((0.0, 0.0, 0.0), 2.0)
    est = estimate_line_measure(big, 200_000, seed=17)
    assert abs(est.z_score()) < 4.0
    est = estimate_chord_integral(big, 200_000, seed=19)
    assert abs(est.value - TWO_PI * volume(big).value) < 4.0 * est.std_error


def test_hit_measure_at_zero_length_is_chord_integral():
    a = estimate_segment_hit_measure(BALL, 0.0, 100_000, seed=23)
    b = estimate_chord_integral(BALL, 100_000, seed=23)
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_hit_measure_monotone_in_length():
    values = [
        estimate_segment_hit_measure(BALL, ell, 100_000, seed=29).value
        for ell in (0.0, 0.5, 1.0)
    ]
    assert values[0] < values[1] < values[2]


def test_hit_containment_consistency_on_common_samples():
    # per sample, (sigma + ell) 1_hit - max(sigma - ell, 0) equals
    # 2 ell 1_hit minus the clamp defect max(ell - sigma, 0) 1_hit, so
    # the three estimates obey an exact two-sided bound
    ell = 0.5
    n = 100_000
    hit = estimate_segment_hit_measure(BALL, ell, n, seed=31)
    cont = estimate_segment_containment_measure(BALL, ell, n, seed=31)
    line = estimate_line_measure(BALL, n, seed=31)
    d = hit.value - cont.value - 2.0 * ell * line.value
    assert d <= 1e-9
    assert d >= -ell * line.value - 1e-9


def test_containment_measure_near_linear_for_short_segments():
    ell = 0.01
    est = estimate_segment_containment_measure(BALL, ell, 400_000, seed=37)
    linear = TWO_PI * volume(BALL).value - 2.0 * ell * p_area(BALL).value
    assert est.clamp_fraction is not None
    assert est.clamp_fraction < 1e-3
    assert abs(est.value - linear) < 0.002 * linear


def test_containment_measure_reference_only_at_zero():
    est = estimate_segment_containment_measure(BALL, 0.0, 50_000, seed=41)
    assert est.reference is not None and abs(est.z_score()) < 4.0
    est = estimate_segment_containment_measure(BALL, 0.5, 50_000, seed=41)
    assert est.reference is None


def test_mean_chord():
    est = estimate_mean_chord(BALL, 200_000, seed=43)
    ref = math.pi * volume(BALL).value / p_area(BALL).value
    assert abs(est.reference - ref) < 1e-12
    assert "measures" in est.reference_source
    assert abs(est.z_score()) < 4.0
    assert abs(est.value - ref) < 0.015 * ref


def test_containment_probability():
    inner = Ball((0.0, 0.0, 0.0), 0.5)
    est = containment_probability(inner, BALL, 0.0, 200_000, seed=47)
    assert abs(est.reference - 0.125) < 1e-9
    assert abs(est.z_score()) < 4.0

    same = containment_probability(BALL, BALL, 0.3, 10_000, seed=53)
    assert same.value == 1.0
    assert same.std_error == 0.0

    far = Ball((0.0, 0.0, 10.0), 0.5)
    with pytest.raises(ContainmentError):
        containment_probability(far, BALL, 0.0, 10_000, seed=59)


def test_containment_nesting_exact_for_polygonal_inner():
    # a cube centred in the unit ball whose corners stick out by 0.1% or
    # 0.02%: most of its boundary is inside, so only its vertices decide
    for excess in (1e-3, 2e-4):
        half = (1.0 + excess) / math.sqrt(3.0)
        cube = Box((-half,) * 3, (half,) * 3)
        with pytest.raises(ContainmentError):
            containment_probability(cube, BALL, 0.0, 1000, seed=67)
        # the same cube as a polytope, moved by a rigid motion with it
        motion = PshMotion(0.3, -0.2, 0.1, 0.7)
        moved = transform_body(motion, cube)
        with pytest.raises(ContainmentError):
            containment_probability(moved, transform_body(motion, BALL), 0.0, 1000)
    half = (1.0 - 1e-3) / math.sqrt(3.0)
    inside = Box((-half,) * 3, (half,) * 3)
    est = containment_probability(inside, BALL, 0.0, 20_000, seed=67)
    assert abs(est.z_score()) < 4.0


def test_containment_nesting_exact_for_curved_inner():
    # tips 0.05% outside the unit ball, between sparse boundary samples
    with pytest.raises(ContainmentError):
        containment_probability(
            Ellipsoid((0.0, 0.0, 0.0), (1.0005, 0.3, 0.3)), BALL, 0.0, 1000, seed=67
        )
    # an internally tangent ball is nested, the same ball moved by 1e-6
    # is not
    est = containment_probability(Ball((0.5, 0.0, 0.0), 0.5), BALL, 0.0, 20_000, seed=67)
    assert abs(est.z_score()) < 4.0
    with pytest.raises(ContainmentError):
        containment_probability(Ball((0.5 + 1e-6, 0.0, 0.0), 0.5), BALL, 0.0, 1000)

    # each inner ellipsoid touches its outer body from inside at scale 1
    rng = np.random.default_rng(68)
    bodies = make_acceptance_bodies()
    shape = transform_body(random_motion(rng), bodies["ellipsoid"]).lin
    pairs = []
    # a box or polytope: the support function on every halfspace
    poly = bodies["polytope"]
    box_normals = np.vstack([np.eye(3), -np.eye(3)])
    for outer, normals, offsets in (
        (poly, poly.normals, poly.offsets),
        (BOX, box_normals, np.concatenate([BOX.hi, -BOX.lo])),
    ):
        c = outer.interior_point()
        reach = np.linalg.norm(normals @ shape, axis=1)
        pairs.append((outer, c, np.min((offsets - normals @ c) / reach) * shape))
    # an ellipsoid: in the outer's unit-ball frame, the ellipsoid with
    # semi-axes (0.6, 0.5, 0.4) centred at (0.4, 0, 0) meets the sphere
    # only at (1, 0, 0), where its curvatures 0.6/0.5^2 and 0.6/0.4^2
    # exceed the sphere's 1; the frame is turned by a random rotation
    outer = Ellipsoid.from_linear(bodies["ellipsoid"].center, shape)
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    center = outer.center + shape @ rotation @ np.array([0.4, 0.0, 0.0])
    pairs.append((outer, center, shape @ rotation @ np.diag([0.6, 0.5, 0.4])))
    for outer, center, lin in pairs:
        containment_probability(Ellipsoid.from_linear(center, lin), outer, 0.0, 1000)
        with pytest.raises(ContainmentError):
            containment_probability(
                Ellipsoid.from_linear(center, (1.0 + 1e-6) * lin), outer, 0.0, 1000
            )


def test_containment_nesting_tolerance_is_translation_invariant():
    # both pairs stick out by 5e-7, far from the t-axis as at the origin
    for offset in (0.0, 999.0):
        pairs = [
            (
                Ball((offset + 1.5000005, 0.0, 0.0), 0.5),
                Ball((offset + 1.0, 0.0, 0.0), 1.0),
            ),
            (
                Box((offset + 0.5, 0.0, 0.0), (offset + 1.0000005, 0.5, 0.5)),
                Box((offset, 0.0, 0.0), (offset + 1.0, 1.0, 1.0)),
            ),
        ]
        for inner, outer in pairs:
            with pytest.raises(ContainmentError):
                containment_probability(inner, outer, 0.0, 1000)
    # an internally tangent ball far from the t-axis is still nested
    outer = Ball((1000.0, 0.0, 0.0), 1.0)
    assert estimators._nested(
        Ball((1000.5, 0.0, 0.0), 0.5), outer, estimators._nesting_tol(outer)
    )


def test_sub_block_sums_are_bitwise_whole_block_sums():
    # the pass sums a block in sub-blocks; split where numpy's pairwise
    # summation splits, the total is bitwise one np.sum over the block,
    # for the Monte Carlo and grid sub-block sizes and the smallest allowed
    rng = np.random.default_rng(71)
    for n in (1, 1000, 8192, 8193, 34464, 65535, BLOCK):
        a = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        for leaf in (128, estimators._GRID_SUB_BLOCK, estimators._SUB_BLOCK):
            total = estimators._split_sum(lambda part: np.array([np.sum(a[part])]), 0, n, leaf)
            assert total[0] == np.sum(a)


def test_determinism_across_threads_and_repeats():
    base = estimate_chord_integral(BALL, 120_000, seed=61)
    for threads in (3, 8):
        again = estimate_chord_integral(BALL, 120_000, seed=61, threads=threads)
        assert again.value == base.value
        assert again.std_error == base.std_error
    repeat = estimate_chord_integral(BALL, 120_000, seed=61)
    assert repeat.value == base.value
    strat = estimate_line_measure(BALL, 120_000, seed=61, stratify=True)
    for threads in (3, 8):
        again = estimate_line_measure(
            BALL, 120_000, seed=61, stratify=True, threads=threads
        )
        assert again.value == strat.value


def test_grid_sub_blocks_draw_the_whole_shift_bitwise(monkeypatch):
    # a grid shift is drawn sub-block by sub-block; with one sub-block per
    # shift (the whole shift drawn at once) every estimate is the same
    bodies = make_acceptance_bodies()

    def estimates(res):
        kw = dict(seed=5, method="grid", grid_resolution=res, reference=None)
        found = []
        for name in ("ball", "polytope"):
            body = bodies[name]
            found += [
                estimate_line_measure(body, 10, **kw),
                estimate_chord_integral(body, 10, **kw),
                estimate_segment_hit_measure(body, 0.7, 10, **kw),
                estimate_segment_containment_measure(body, 0.3, 10, **kw),
            ]
        return [(r.value, r.std_error, r.n_hits, r.n_samples) for r in found]

    # 8288 and 16384 lines per shift: three and four sub-blocks
    assert 51**3 // 16 > 2 * estimators._GRID_SUB_BLOCK
    split = {res: estimates(res) for res in (51, 64)}
    monkeypatch.setattr(estimators, "_GRID_SUB_BLOCK", 1 << 20)
    for res, found in split.items():
        assert found == estimates(res), res


def test_grid_memory_does_not_grow_with_resolution():
    # 2048 lines per shift at resolution 32, 131072 at 128
    peaks = {}
    for res in (32, 128):
        tracemalloc.start()
        try:
            estimate_line_measure(BALL, 10, method="grid", grid_resolution=res)
            peaks[res] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[128] <= 2 * peaks[32], peaks


def test_passes_run_on_the_calling_thread(monkeypatch):
    # threads stays a validated keyword, but every pass runs its blocks on
    # the caller's thread, whatever the count and the method
    seen = set()

    def recording(kernel):
        def chord_batch(self, p, theta, t):
            seen.add(threading.get_ident())
            return kernel(self, p, theta, t)

        return chord_batch

    for cls in (Ball, Ellipsoid):
        kernel = cls.__dict__["chord_batch"]
        monkeypatch.setattr(cls, "chord_batch", recording(kernel))
    kw = dict(seed=3, threads=2)
    motion = PshMotion(0.1, 0.2, 0.3, 0.4)
    inner = Ball((0.1, 0.0, 0.0), 0.5)
    estimate_line_measure(BALL, 200_000, reference=None, **kw)
    grid = estimate_line_measure(BALL, 100_000, method="grid", reference=None, **kw)
    assert grid.n_samples > BLOCK
    invariance_check(BALL, motion, 100_000, **kw)
    containment_probability(inner, BALL, 0.5, 100_000, reference=None, **kw)
    assert seen == {threading.get_ident()}

    for call in (
        lambda **k: estimate_line_measure(BALL, 10, **k),
        lambda **k: estimate_chord_integral(BALL, 10, **k),
        lambda **k: estimate_segment_hit_measure(BALL, 0.5, 10, **k),
        lambda **k: estimate_segment_hit_measure(
            BALL, 0.5, 10, marginalize_h=False, **k
        ),
        lambda **k: estimate_segment_hit_sweep(BALL, [0.0, 1.0], 10, **k),
        lambda **k: estimate_segment_containment_measure(BALL, 0.5, 10, **k),
        lambda **k: estimate_mean_chord(BALL, 10, **k),
        lambda **k: containment_probability(inner, BALL, 0.5, 10, **k),
        lambda **k: invariance_check(BALL, motion, 10, **k),
    ):
        for bad in (0, -1, 1.5, None):
            with pytest.raises(ValueError, match="threads"):
                call(threads=bad)


def test_stratification_reduces_error():
    # the box chord depends on theta, so theta strata shrink the spread
    # of the estimator across seeds; the plug-in SE stays conservative
    plain = [
        estimate_chord_integral(BOX, 20_000, seed=1000 + k).value
        for k in range(60)
    ]
    strat = [
        estimate_chord_integral(BOX, 20_000, seed=1000 + k, stratify=True).value
        for k in range(60)
    ]
    assert np.std(strat) < np.std(plain)
    est = estimate_chord_integral(BOX, 20_000, seed=1000, stratify=True)
    assert abs(est.z_score()) < 4.0


def test_grid_estimators(acceptance_bodies, acceptance_references):
    est = estimate_line_measure(BALL, 1, method="grid", grid_resolution=64)
    assert est.method == "grid"
    assert abs(est.value - est.reference) < 0.02 * est.reference
    est2 = estimate_line_measure(BALL, 1, method="grid", grid_resolution=64)
    assert est2.value == est.value
    est = estimate_chord_integral(BALL, 1, method="grid", grid_resolution=64)
    assert abs(est.value - est.reference) < 0.02 * est.reference

    # 16 shifts of res^3 // 16 points; the default res is round(n^(1/3)),
    # at least 8
    cases = ((1, 2, 16), (1, 5, 112), (1, None, 512), (10**5, None, 97328))
    for n, res, lines in cases:
        est = estimate_line_measure(BOX, n, method="grid", grid_resolution=res)
        assert est.n_samples == lines
    with pytest.raises(ValueError):
        estimate_line_measure(BALL, 1, method="grid", grid_resolution=1)

    # the shifts are the blocks of the pass: bitwise the same at any
    # thread count, stratified or not
    kw = dict(method="grid", grid_resolution=51, reference=None)
    for estimate in (
        lambda **k: estimate_line_measure(BOX, 1, **k),
        lambda **k: estimate_chord_integral(BOX, 1, **k),
        lambda **k: estimate_segment_hit_measure(BOX, 0.5, 1, **k),
        lambda **k: estimate_segment_containment_measure(BOX, 0.5, 1, **k),
    ):
        runs = [
            estimate(seed=7, threads=t, stratify=t == 3, **kw) for t in (1, 2, 3)
        ]
        assert len({(*_bits(e), e.clamp_fraction) for e in runs}) == 1
        assert runs[0].std_error > 0.0 and runs[0].n_samples == 132640
    assert 0.0 < runs[0].clamp_fraction < 1.0

    # coverage: the spread of the 16 shift estimates is an honest error
    # bar; z follows Student's t with 15 degrees of freedom (sd 1.07)
    for name, body in acceptance_bodies.items():
        vol, pa = acceptance_references[name]
        z = {"line": [], "chord": []}
        for seed in range(50):
            kw = dict(method="grid", grid_resolution=16)
            line = estimate_line_measure(body, 1, seed, reference=2.0 * pa, **kw)
            chord = estimate_chord_integral(body, 1, seed, reference=TWO_PI * vol, **kw)
            for key, est in (("line", line), ("chord", chord)):
                assert est.std_error > 0.0
                z[key].append(est.z_score())
        for key, scores in z.items():
            rms = math.sqrt(np.mean(np.square(scores)))
            assert 0.75 <= rms <= 1.4, (name, key, rms)


def test_direct_h_sampling_agrees_with_marginalized():
    ell = 0.7
    marg = estimate_segment_hit_measure(BALL, ell, 200_000, seed=71)
    direct = estimate_segment_hit_measure(
        BALL, ell, 200_000, seed=73, marginalize_h=False
    )
    assert direct.method == "mc-4d"
    gap = abs(direct.value - marg.value)
    assert gap < 4.0 * math.hypot(direct.std_error, marg.std_error)
    with pytest.raises(ValueError):
        estimate_segment_hit_measure(
            BALL, ell, 1000, seed=73, marginalize_h=False, method="grid"
        )


def test_invariance_check():
    report = invariance_check(
        BALL, PshMotion(0.0, 0.0, 1.5, 0.4), 50_000, seed=79
    )
    assert report.passed
    assert [row.quantity for row in report.rows] == [
        "line_measure",
        "chord_integral",
        "segment_hit_measure_ell1",
    ]
    rng = np.random.default_rng(83)
    report = invariance_check(
        BOX,
        random_motion(rng, 1.0),
        50_000,
        seed=89,
        quantities=("line_measure", "chord_integral"),
    )
    assert report.passed and len(report.rows) == 2
    with pytest.raises(ValueError):
        invariance_check(BALL, PshMotion.identity(), 1000, quantities=("volume",))


def _bits(est):
    return (est.value, est.std_error, est.n_hits)


@pytest.mark.parametrize("name", ["ball", "polytope"])
def test_pass_moments_match_line_by_line_formulas(name):
    # rebuild the lines as the pass maps its uniforms, then compute the
    # textbook estimates line by line: the sample mean and variance of
    # the hit measure's integrand, and the delta method for the mean chord
    body = make_acceptance_bodies()[name]
    n, seed, ell = BLOCK + 4321, 29, 0.7
    window = line_window(body)
    u = uniforms(seed, 0, n, 3)
    p, t = u[1] * window.p_max, window.t_lo + u[2] * (window.t_hi - window.t_lo)
    s_lo, s_hi, hit = body.chord_batch(p, u[0] * TWO_PI, t)
    sigma = np.where(hit, np.maximum(s_hi - s_lo, 0.0), 0.0)

    f = window.measure * (sigma + ell) * hit
    est = estimate_segment_hit_measure(body, ell, n, seed)
    assert est.value == pytest.approx(f.mean(), rel=1e-12)
    assert est.std_error == pytest.approx(f.std(ddof=1) / math.sqrt(n), rel=1e-12)

    r = sigma.mean() / hit.mean()
    cov = np.cov(sigma, hit.astype(float))
    var_r = (cov[0, 0] - 2.0 * r * cov[0, 1] + r * r * cov[1, 1]) / n
    est = estimate_mean_chord(body, n, seed)
    assert est.value == pytest.approx(r, rel=1e-12)
    assert est.std_error == pytest.approx(math.sqrt(var_r) / hit.mean(), rel=1e-12)


def test_sweep_rows_match_standalone_estimators():
    # one pass serves every length: each row, and the slope and intercept
    # of the linear law, equal the standalone estimators bitwise
    ells = [0.0, 0.5, 1.0, 0.5]
    n, seed = 3 * BLOCK + 17, 101
    runs = {}
    for threads in (1, 2):
        kw = dict(seed=seed, threads=threads)
        sweep = estimate_segment_hit_sweep(BOX, ells, n, **kw)
        assert sweep.ells == ells and len(sweep.rows) == len(ells)
        for ell, row in zip(ells, sweep.rows):
            assert _bits(row) == _bits(estimate_segment_hit_measure(BOX, ell, n, **kw))
        assert _bits(sweep.slope) == _bits(estimate_line_measure(BOX, n, **kw))
        assert _bits(sweep.intercept) == _bits(estimate_chord_integral(BOX, n, **kw))
        runs[threads] = [_bits(e) for e in (*sweep.rows, sweep.slope, sweep.intercept)]
        # the law is linear in ell line by line: each row is the chord
        # integral plus ell times the line measure of the same lines
        for ell, row in zip(ells, sweep.rows):
            line = sweep.intercept.value + ell * sweep.slope.value
            assert row.value == pytest.approx(line, rel=1e-14)
    assert runs[1] == runs[2]

    sweep = estimate_segment_hit_sweep(BALL, [0.0, 0.7], 2000, seed=seed)
    assert sweep.rows[1].reference == estimate_segment_hit_measure(
        BALL, 0.7, 2000, seed=seed
    ).reference
    assert sweep.slope.reference == estimate_line_measure(BALL, 2000).reference
    assert sweep.intercept.reference == estimate_chord_integral(BALL, 2000).reference
    with pytest.raises(ValueError):
        estimate_segment_hit_sweep(BALL, [0.5, -1.0], 1000)


def test_invariance_rows_match_standalone_estimators():
    motion = PshMotion(0.3, -0.2, 0.4, 1.1)
    n, seed = 2 * BLOCK + 5, 103
    image = transform_body(motion, BOX)
    kw = dict(threads=2, reference=None)
    standalone = {
        "line_measure": lambda b, s: estimate_line_measure(b, n, s, **kw),
        "chord_integral": lambda b, s: estimate_chord_integral(b, n, s, **kw),
        "segment_hit_measure_ell1": lambda b, s: estimate_segment_hit_measure(
            b, 1.0, n, s, **kw
        ),
    }
    report = invariance_check(BOX, motion, n, seed=seed, threads=2)
    assert len(report.rows) == 3
    for row in report.rows:
        a = standalone[row.quantity](BOX, seed)
        b = standalone[row.quantity](image, seed + 1)
        assert (row.value_original, row.se_original) == (a.value, a.std_error)
        assert (row.value_transformed, row.se_transformed) == (b.value, b.std_error)


def test_one_draw_per_block_per_body(monkeypatch):
    draws = []
    real = estimators.uniforms

    def counting(seed, start, count, streams):
        draws.append((seed, start))
        return real(seed, start, count, streams)

    monkeypatch.setattr(estimators, "uniforms", counting)
    n = 2 * BLOCK + 3
    blocks = [0, BLOCK, 2 * BLOCK]
    estimate_segment_hit_sweep(BALL, [0.0, 0.5, 1.0, 2.0], n, seed=5, threads=2)
    assert sorted(draws) == [(5, lo) for lo in blocks]
    draws.clear()
    invariance_check(BALL, PshMotion(0.1, 0.2, 0.3, 0.4), n, seed=5, threads=2)
    assert sorted(draws) == [(s, lo) for s in (5, 6) for lo in blocks]


def test_estimate_result_api():
    est = estimate_line_measure(BALL, 50_000, seed=97)
    lo, hi = est.ci95
    assert abs(lo - (est.value - 1.96 * est.std_error)) < 1e-12
    assert abs(hi - (est.value + 1.96 * est.std_error)) < 1e-12
    # a grid z follows Student's t with 15 degrees of freedom
    grid = estimate_line_measure(BALL, 4096, seed=97, method="grid")
    lo, hi = grid.ci95
    assert hi - grid.value == pytest.approx(2.131449545559776 * grid.std_error)
    assert grid.value - lo == pytest.approx(2.131449545559776 * grid.std_error)
    assert est.n_samples == 50_000
    assert 0 < est.n_hits < est.n_samples
    assert est.z_score(est.value) == 0.0
    bare = estimate_line_measure(BALL, 10_000, seed=97, reference=None)
    assert bare.reference is None
    with pytest.raises(ValueError):
        bare.z_score()
    fixed = estimate_line_measure(BALL, 10_000, seed=97, reference=20.0)
    assert fixed.reference == 20.0 and fixed.reference_source == "caller"


def test_validation_errors():
    with pytest.raises(ValueError):
        estimate_line_measure(BALL, 0)
    with pytest.raises(ValueError):
        estimate_line_measure(BALL, 1000, method="bogus")
    with pytest.raises(ValueError):
        estimate_line_measure(BALL, 1000, threads=0)
    with pytest.raises(ValueError):
        estimate_line_measure(BALL, 1000, seed=1.5)
    with pytest.raises(ValueError):
        estimate_segment_hit_measure(BALL, -1.0, 1000)
    with pytest.raises(ValueError):
        estimate_segment_containment_measure(BALL, math.inf, 1000)
    with pytest.raises(ValueError):
        containment_probability(BALL, BALL, -0.5, 1000)


def test_segment_class():
    g = HorizontalLine(0.0, 0.5, 0.0)
    assert Segment(g, -0.2, 0.4).hits(BALL)
    assert Segment(g, -0.2, 0.4).contained_in(BALL)
    assert Segment(g, 0.9, 0.4).hits(BALL)
    assert not Segment(g, 0.9, 0.4).contained_in(BALL)
    assert not Segment(g, 1.5, 0.4).hits(BALL)
    assert not Segment(HorizontalLine(2.0, 0.0, 0.0), 0.0, 1.0).hits(BALL)
    with pytest.raises(ValueError):
        Segment(g, 0.0, -1.0)
    with pytest.raises(ValueError):
        Segment(g, math.nan, 1.0)
