"""Monte Carlo and grid estimators for the kinematic identities."""

import math

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


def test_sub_block_sums_are_bitwise_whole_block_sums():
    # the pass sums a block in sub-blocks; split where numpy's pairwise
    # summation splits, the total is bitwise one np.sum over the block
    rng = np.random.default_rng(71)
    for n in (1, 1000, 8192, 8193, 34464, 65535, BLOCK):
        a = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        total = estimators._split_sum(lambda part: np.array([np.sum(a[part])]), 0, n)
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


def test_grid_estimators():
    est = estimate_line_measure(BALL, 1, method="grid", grid_resolution=64)
    assert est.method == "grid"
    assert abs(est.value - est.reference) < 0.02 * est.reference
    est2 = estimate_line_measure(BALL, 1, method="grid", grid_resolution=64)
    assert est2.value == est.value
    est = estimate_chord_integral(BALL, 1, method="grid", grid_resolution=64)
    assert abs(est.value - est.reference) < 0.02 * est.reference


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
