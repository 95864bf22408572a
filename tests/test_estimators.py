"""Monte Carlo and grid estimators for the kinematic identities."""

import dataclasses
import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import h1geom.cli as cli
import h1geom.estimators as estimators
from conftest import forget_line_pass, make_acceptance_bodies, random_motion
from h1geom import (
    Ball,
    Box,
    ContainmentError,
    Ellipsoid,
    PshMotion,
    containment_probability,
    estimate_chord_integral,
    estimate_line_measure,
    estimate_mean_chord,
    estimate_segment_containment_measure,
    estimate_segment_hit_measure,
    invariance_check,
    line_through,
    p_area,
    transform_body,
    volume,
)
from h1geom.estimators import BLOCK, LineWindow, line_window
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


def _cylinder_window(body):
    """The window of the cylinder that the bodies once gave as bounding
    data: r from the vertices' largest |(x, y)| or |c_xy| + |L[:2, :]|_2,
    the z-extent from the vertices or c_z -+ |L[2, :]|."""
    if isinstance(body, Ellipsoid):
        cx, cy, cz = body.center
        r = math.hypot(cx, cy) + float(np.linalg.norm(body.lin[:2, :], ord=2))
        dz = float(np.linalg.norm(body.lin[2, :]))
        z_min, z_max = cz - dz, cz + dz
    else:
        v = body.vertices
        r = float(np.max(np.hypot(v[:, 0], v[:, 1])))
        z_min, z_max = float(np.min(v[:, 2])), float(np.max(v[:, 2]))
    pad = 1e-9 * max(1.0, r, r * r, abs(z_min), abs(z_max))
    return LineWindow(p_max=r + pad, t_lo=z_min - r * r - pad, t_hi=z_max + r * r + pad)


def test_line_window_is_the_cylinder_window(acceptance_bodies):
    # the window from horizontal_reach and the support on -+e3 is bitwise
    # the cylinder's on the acceptance bodies and three images of each
    rng = np.random.default_rng(9)
    for name, body in acceptance_bodies.items():
        images = [transform_body(random_motion(rng, 1.0), body) for _ in range(3)]
        for k, b in enumerate([body, *images]):
            got, want = line_window(b), _cylinder_window(b)
            for field in ("p_max", "t_lo", "t_hi"):
                assert float(getattr(got, field)).hex() == float(getattr(want, field)).hex(), (
                    name, k, field,
                )


def test_line_window_measure():
    w = LineWindow(2.0, -1.0, 3.0)
    assert w.measure == 2.0 * (TWO_PI * 2.0 * 4.0)
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
        assert 0.0 <= g.p <= w.p_max and w.t_lo <= g.t <= w.t_hi


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
    forget_line_pass()
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
    est = estimate_segment_containment_measure(BALL, ell, 7_000_000, seed=37)
    linear = TWO_PI * volume(BALL).value - 2.0 * ell * p_area(BALL).value
    assert est.clamp_fraction is not None
    assert est.clamp_fraction < 1e-3
    # gated by the estimate's own error, at an n where the gate is
    # tighter than 0.2% of the linear value
    assert estimators.Z_GATE * est.std_error < 0.002 * linear
    assert abs(est.value - linear) < estimators.Z_GATE * est.std_error


def test_clamp_fraction_is_a_python_float():
    # like every other float of an estimate, not a numpy scalar
    for method in ("mc", "grid"):
        est = estimate_segment_containment_measure(BALL, 0.5, 4096, seed=5, method=method)
        assert type(est.clamp_fraction) is float
        assert 0.0 < est.clamp_fraction < 1.0


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
        c = outer.vertices.mean(axis=0)
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
    assert Ball((1000.0, 0.0, 0.0), 1.0).contains_body(Ball((1000.5, 0.0, 0.0), 0.5))


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
    # each run draws its own pass: the slot is emptied before it
    base = estimate_chord_integral(BALL, 120_000, seed=61)
    for threads in (3, 8):
        forget_line_pass()
        again = estimate_chord_integral(BALL, 120_000, seed=61, threads=threads)
        assert again.value == base.value
        assert again.std_error == base.std_error
    forget_line_pass()
    repeat = estimate_chord_integral(BALL, 120_000, seed=61)
    assert repeat.value == base.value
    strat = estimate_line_measure(BALL, 120_000, seed=61, stratify=True)
    for threads in (3, 8):
        forget_line_pass()
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
    forget_line_pass()
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
    forget_line_pass()
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
    # thread count.  The shifts randomise the grid, which takes no strata,
    # and a resolution is for the grid alone: each asked of the other
    # method is an error, not an option silently ignored
    kw = dict(method="grid", grid_resolution=51, reference=None)
    for estimate in (
        lambda **k: estimate_line_measure(BOX, 1, **k),
        lambda **k: estimate_chord_integral(BOX, 1, **k),
        lambda **k: estimate_segment_hit_measure(BOX, 0.5, 1, **k),
        lambda **k: estimate_segment_containment_measure(BOX, 0.5, 1, **k),
    ):
        runs = []
        for t in (1, 2, 3):
            forget_line_pass()
            runs.append(estimate(seed=7, threads=t, **kw))
        assert len({(*_bits(e), e.clamp_fraction) for e in runs}) == 1
        assert runs[0].std_error > 0.0 and runs[0].n_samples == 132640
        with pytest.raises(ValueError, match="stratify"):
            estimate(seed=7, stratify=True, **kw)
        with pytest.raises(ValueError, match="resolution"):
            estimate(seed=7, grid_resolution=51)
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


def test_monte_carlo_error_bars_cover(acceptance_bodies, acceptance_references):
    # 300 fixed seeds at n = 1000 per body and estimate: a z of an honest
    # error bar has rms near 1 (0.92 to 1.08 at two standard errors of
    # the rms when z is normal) and stays well inside 5.  Seeds are the
    # outer loop and each body's line estimates come together, plain then
    # stratified, so the four of them and the hit measures at three more
    # lengths (a sweep's rows) at one seed share one pass, as they do for
    # a user who keeps the seed
    estimates = {}
    for name, body in acceptance_bodies.items():
        vol, pa = acceptance_references[name]
        for stratify in (False, True):
            tag = " stratified" if stratify else ""
            for key, estimate, args, reference in (
                ("line", estimate_line_measure, (), 2.0 * pa),
                ("chord", estimate_chord_integral, (), TWO_PI * vol),
                ("hit at 1", estimate_segment_hit_measure, (1.0,), TWO_PI * vol + 2.0 * pa),
                ("mean chord", estimate_mean_chord, (), math.pi * vol / pa),
            ):
                estimates[name, key + tag] = functools.partial(
                    estimate, body, *args, 1000, reference=reference, stratify=stratify
                )
            # a sweep's rows, from the pass the estimates above share
            for ell in (0.5, 1.5, 4.0):
                estimates[name, f"sweep at {ell}{tag}"] = functools.partial(
                    estimate_segment_hit_measure, body, ell, 1000,
                    reference=TWO_PI * vol + 2.0 * ell * pa, stratify=stratify,
                )
        # the measure of segments inside the body at ell = 0 is 2 pi V
        estimates[name, "containment measure at 0"] = functools.partial(
            estimate_segment_containment_measure, body, 0.0, 1000, reference=TWO_PI * vol
        )
    # a ball well inside the unit ball: every segment meeting it meets
    # the outer one, so the ratio of their hit measures is exact
    inner = Ball((0.1, 0.05, 0.1), 0.3)
    for ell in (0.0, 0.5):
        hit_in, hit_out = (
            TWO_PI * volume(b).value + 2.0 * ell * p_area(b).value for b in (inner, BALL)
        )
        for stratify in (False, True):
            tag = " stratified" if stratify else ""
            estimates["ball in ball", f"containment at {ell}{tag}"] = functools.partial(
                containment_probability, inner, BALL, ell, 1000,
                reference=hit_in / hit_out, stratify=stratify,
            )
    z = {key: [] for key in estimates}
    for seed in range(300):
        for key, estimate in estimates.items():
            z[key].append(estimate(seed).z_score())
    for key, scores in z.items():
        rms = math.sqrt(np.mean(np.square(scores)))
        assert 0.75 <= rms <= 1.4, (key, rms)
        assert np.max(np.abs(scores)) < 5.0, (key, np.max(np.abs(scores)))


def test_direct_h_sampling_agrees_with_marginalized():
    # dK = dG dh checked directly on the lines the estimator draws (the
    # first three streams of a four-stream draw): h drawn as the fourth
    # uniform over [-(p_max + ell), p_max], which covers every segment
    # meeting the body since a chord parameter s has p^2 + s^2 <= r_xy^2,
    # scores the segment's hit indicator, whose mean over h is the
    # marginalized integrand (sigma + ell) 1_hit; a paired z compares them
    ell, n = 0.7, 200_000
    for body in (BALL, BOX):
        window = line_window(body)
        h_len = 2.0 * window.p_max + ell
        for seed in (73, 74, 75):
            u = uniforms(seed, 0, n, 4)
            p, t = u[1] * window.p_max, window.t_lo + u[2] * (window.t_hi - window.t_lo)
            s_lo, s_hi, hit = body.chord_batch(p, u[0] * TWO_PI, t)
            marginal = window.measure * np.where(hit, s_hi - s_lo + ell, 0.0)
            est = estimate_segment_hit_measure(body, ell, n, seed)
            assert est.value == pytest.approx(marginal.mean(), rel=1e-12)
            h = -(window.p_max + ell) + u[3] * h_len
            direct = window.measure * h_len * (hit & (h <= s_hi) & (h + ell >= s_lo))
            d = direct - marginal
            z = d.mean() / (d.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 4.0, (body, seed, z)


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
    assert report.threshold == 4.0
    rng = np.random.default_rng(83)
    report = invariance_check(BOX, random_motion(rng, 1.0), 50_000, seed=89)
    assert report.passed and len(report.rows) == 3


def _bits(est):
    return (est.value, est.std_error, est.n_hits)


@pytest.mark.parametrize("name", ["ball", "polytope"])
def test_pass_moments_match_line_by_line_formulas(name):
    # rebuild the lines as the pass maps its uniforms, then compute the
    # textbook estimates line by line with numpy's mean, std and cov: the
    # sample mean and variance of each linear estimate's integrand, and
    # the delta method for each ratio
    body = make_acceptance_bodies()[name]
    n, seed, ell = BLOCK + 4321, 29, 0.7
    window = line_window(body)
    u = uniforms(seed, 0, n, 3)
    p, t = u[1] * window.p_max, window.t_lo + u[2] * (window.t_hi - window.t_lo)
    theta = u[0] * TWO_PI

    def chords(b):
        s_lo, s_hi, hit = b.chord_batch(p, theta, t)
        return s_lo, s_hi, hit, np.where(hit, np.maximum(s_hi - s_lo, 0.0), 0.0)

    def check_mean(est, f):
        assert est.value == pytest.approx(f.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(f.std(ddof=1) / math.sqrt(n), rel=1e-12)

    def check_ratio(est, a, b):
        r = a.mean() / b.mean()
        cov = np.cov(a, b)
        var_r = (cov[0, 0] - 2.0 * r * cov[0, 1] + r * r * cov[1, 1]) / n
        assert est.value == pytest.approx(r, rel=1e-12)
        assert est.std_error == pytest.approx(math.sqrt(var_r) / b.mean(), rel=1e-12)

    s_lo, s_hi, hit, sigma = chords(body)
    check_mean(
        estimate_segment_hit_measure(body, ell, n, seed),
        window.measure * (sigma + ell) * hit,
    )
    check_ratio(estimate_mean_chord(body, n, seed), sigma, hit.astype(float))

    # the segment lies in the body for an h range of length max(sigma - ell, 0)
    inside = np.maximum(sigma - ell, 0.0)
    est = estimate_segment_containment_measure(body, ell, n, seed, reference=None)
    check_mean(est, window.measure * inside)
    clamped = np.count_nonzero(hit & (inside == 0.0))
    assert est.clamp_fraction == clamped / np.count_nonzero(hit) and clamped > 0

    # the outer body's window and lines serve both bodies
    inner = Ball((0.1, 0.05, 0.1), 0.3)
    *_, hit_in, sigma_in = chords(inner)
    est = containment_probability(inner, body, ell, n, seed, reference=None)
    check_ratio(est, (sigma_in + ell) * hit_in, (sigma + ell) * hit)
    assert est.n_hits == np.count_nonzero(hit)


def test_passes_forming_only_read_products_match_all_products(monkeypatch):
    # each estimator's integrand yields only the products its error reads
    # (and its gram takes an indicator's square or hit * sigma from the
    # value sums); a pass forming every product of the yielded arrays,
    # with G read from those products, gives bitwise the same estimates
    inner = Ball((0.1, 0.05, 0.1), 0.3)
    n, seed = BLOCK + 999, 47
    calls = [
        lambda: containment_probability(inner, BALL, 0.8, n, seed, reference=None),
        lambda: containment_probability(inner, BALL, 0.0, n, seed, reference=None),
        lambda: estimate_segment_containment_measure(BOX, 0.9, n, seed, reference=None),
        lambda: estimate_segment_containment_measure(BALL, 0.0, n, seed, reference=None),
        lambda: estimate_mean_chord(BOX, n, seed, reference=None),
        lambda: estimate_segment_hit_measure(BALL, 0.5, n, seed, reference=None),
    ]

    def fields(est):
        return (est.value, est.std_error, est.n_hits, est.clamp_fraction)

    read_only = [fields(call()) for call in calls]

    real_pass = estimators._pass

    def pairs(k):
        return [(i, j) for i in range(k) for j in range(i, k)]

    def all_products_pass(*args):
        *head, integrand, gram, hits, refs = args
        width = []

        def every_product(chords):
            f = list(integrand(chords))
            width[:] = [len(f)]
            return f + [f[i] * f[j] for i, j in pairs(len(f))]

        sums = real_pass(*head, every_product, gram, hits, refs)
        # G reads the products of the leading values from the added columns
        column = {p: width[0] + m for m, p in enumerate(pairs(width[0]))}
        m = range(len(gram))
        wide = [[column[min(i, j), max(i, j)] for j in m] for i in m]
        return dataclasses.replace(sums, gram=wide)

    monkeypatch.setattr(estimators, "_pass", all_products_pass)
    forget_line_pass()
    assert [fields(call()) for call in calls] == read_only
    assert read_only[2][3] > 0.0


def _fresh(estimate, *args, **kw):
    """``estimate`` from a pass of its own, not the slot's last one."""
    forget_line_pass()
    return estimate(*args, **kw)


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
        a = _fresh(standalone[row.quantity], BOX, seed)
        b = _fresh(standalone[row.quantity], image, seed + 1)
        assert (row.value_original, row.se_original) == (a.value, a.std_error)
        assert (row.value_transformed, row.se_transformed) == (b.value, b.std_error)


def _counting_draws(monkeypatch):
    """The (seed, start) of every ``uniforms`` call the estimators make
    from now on, in call order."""
    draws = []
    real = estimators.uniforms

    def counting(seed, start, count, streams):
        draws.append((seed, start))
        return real(seed, start, count, streams)

    monkeypatch.setattr(estimators, "uniforms", counting)
    return draws


def test_one_draw_per_block_per_body(monkeypatch, tmp_path):
    draws = _counting_draws(monkeypatch)
    n = 2 * BLOCK + 3
    blocks = [0, BLOCK, 2 * BLOCK]
    # a sweep's hit measures at every length and its fit read one pass
    body = tmp_path / "ball.json"
    body.write_text('{"kind": "ball", "center": [0, 0, 0], "radius": 1.0}')
    argv = ["sweep", "--body", str(body), "--ell-list", "0,0.5,1,2", "--n", str(n)]
    argv += ["--seed", "5", "--threads", "2", "--out", str(tmp_path / "sweep.json")]
    assert cli.main(argv) == 0
    assert draws == [(5, lo) for lo in blocks]
    draws.clear()
    # invariance reads one pass over the body (seed 5) and one over its
    # image (seed 6)
    invariance_check(BALL, PshMotion(0.1, 0.2, 0.3, 0.4), n, seed=5, threads=2)
    assert draws == [(5, lo) for lo in blocks] + [(6, lo) for lo in blocks]


def test_consecutive_line_estimates_of_one_body_share_their_pass(monkeypatch):
    draws = _counting_draws(monkeypatch)
    n, seed = BLOCK + 7, 11
    blocks = [(seed, 0), (seed, BLOCK)]
    for threads in (1, 2):
        estimate_line_measure(BOX, n, seed, threads=threads)
        estimate_chord_integral(BOX, n, seed, threads=threads)
        estimate_segment_hit_measure(BOX, 0.5, n, seed, threads=threads)
        estimate_mean_chord(BOX, n, seed, threads=threads)
    assert draws == blocks
    # any argument that moves the lines draws them again, and so does a
    # body equal to the last but not the same object; either replaces the
    # one entry, so the first pass is then drawn again too
    twin = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    grid = dict(method="grid")
    for again, drawn in (
        (lambda: estimate_chord_integral(BOX, n + 1, seed), blocks),
        (lambda: estimate_chord_integral(BOX, n, seed + 1), [(seed + 1, 0), (seed + 1, BLOCK)]),
        (lambda: estimate_chord_integral(BOX, n, seed, stratify=True), blocks),
        (lambda: estimate_chord_integral(twin, n, seed), blocks),
        # a grid pass draws its 16 shifts at once
        (lambda: estimate_chord_integral(BOX, n, seed, **grid), [(seed, 0)]),
    ):
        draws.clear()
        again()
        assert draws == drawn
        draws.clear()
        estimate_line_measure(BOX, n, seed)
        assert draws == blocks
    # and so does another grid resolution
    estimate_line_measure(BOX, n, seed, **grid)
    draws.clear()
    estimate_chord_integral(BOX, n, seed, **grid)
    assert draws == []
    estimate_chord_integral(BOX, n, seed, grid_resolution=9, **grid)
    assert draws == [(seed, 0)]
    # the estimators with their own integrands draw their own passes and
    # leave the last line pass in its slot
    estimate_line_measure(BOX, n, seed)
    draws.clear()
    own = []
    real_pass = estimators._pass
    monkeypatch.setattr(estimators, "_pass", lambda *args: own.append(real_pass(*args)) or own[-1])
    estimate_segment_containment_measure(BOX, 0.0, n, seed)
    containment_probability(Box((0.2,) * 3, (0.8,) * 3), BOX, 0.0, n, seed)
    estimate_line_measure(BOX, n, seed)
    assert draws == 2 * blocks and len(own) == 2
    # the sums every sharer reads cannot be written, nor can those of the
    # passes of their own
    for sums in (estimators._last_pass[2], *own):
        with pytest.raises(ValueError):
            sums.rows[0, 0] = 0.0


def test_interleaved_bodies_give_the_bits_of_fresh_runs():
    # the slot keeps one pass: estimates of bodies taken in turns, each
    # replacing the other's pass, are bitwise those of fresh runs
    bodies = make_acceptance_bodies()
    n, seed = 5000, 13
    calls = [
        lambda b: estimate_line_measure(b, n, seed),
        lambda b: estimate_chord_integral(b, n, seed),
        lambda b: estimate_segment_hit_measure(b, 0.4, n, seed),
        lambda b: estimate_mean_chord(b, n, seed),
    ]
    turns = [(name, call) for call in calls for name in bodies]
    interleaved = [_bits(call(bodies[name])) for name, call in turns]
    assert interleaved == [_bits(_fresh(call, bodies[name])) for name, call in turns]


def test_threads_sharing_the_slot_get_the_bits_of_fresh_runs():
    # more threads than cores, switching often, each taking the estimates
    # of two bodies at two seeds in turns, from its own starting point:
    # the slot is replaced all the time, by other threads' passes of the
    # same and of other arguments, and every estimate keeps its fresh bits
    bodies = make_acceptance_bodies()
    cases = [(name, seed) for name in ("ball", "polytope") for seed in (40, 41)]
    n = 3000

    def run(case):
        body, seed = bodies[case[0]], case[1]
        return [
            _bits(estimate(body, n, seed))
            for estimate in (estimate_line_measure, estimate_chord_integral, estimate_mean_chord)
        ]

    fresh = {case: _fresh(run, case) for case in cases}
    found, failed = [], []

    def worker(k):
        try:
            for i in range(48):
                case = cases[(k + i) % len(cases)]
                found.append((case, run(case)))
        except Exception as exc:  # reported by the main thread
            failed.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not failed, failed
    assert len(found) == 6 * 48
    for case, bits in found:
        assert bits == fresh[case], case


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
    assert dataclasses.replace(est, reference=est.value).z_score() == 0.0
    bare = estimate_line_measure(BALL, 10_000, seed=97, reference=None)
    assert bare.reference is None
    with pytest.raises(ValueError):
        bare.z_score()
    fixed = estimate_line_measure(BALL, 10_000, seed=97, reference=20.0)
    assert fixed.reference == 20.0 and fixed.reference_source == "caller"


def test_z_score_without_an_error_bar_has_the_sign_of_its_miss():
    # one line, which misses the ball: the estimate is 0 with no error bar
    est = estimate_line_measure(BALL, 1)
    assert est.value == 0.0 and est.std_error == 0.0
    assert est.z_score() == -math.inf
    assert estimate_line_measure(BALL, 1, reference=-1.0).z_score() == math.inf
    assert estimate_line_measure(BALL, 1, reference=0.0).z_score() == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        estimate_line_measure(BALL, 0)
    # a pass lists its blocks before it draws, so a count beyond 2^32 is
    # refused up front, for either method
    for method in ("mc", "grid"):
        with pytest.raises(ValueError, match="2\\^32"):
            estimate_line_measure(BALL, (1 << 32) + 1, method=method)
        with pytest.raises(ValueError, match="2\\^32"):
            estimate_segment_containment_measure(BALL, 0.0, 10**20, method=method)
    with pytest.raises(ValueError, match="2\\^32"):
        containment_probability(BALL, BALL, 0.0, 10**400)
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

