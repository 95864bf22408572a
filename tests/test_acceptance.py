"""End-to-end acceptance checks for the kinematic identities.

Every estimator is compared against an independently produced reference
(closed form, quadrature, or the line-space Crofton rule) at a fixed seed and
sample size.  Each test prints one summary line with the two numbers
being compared, so a verbose run reads as a checklist.
"""

import math

import numpy as np

from conftest import cylinder, forget_line_pass, random_motion
from h1geom import (
    Ball,
    HorizontalLine,
    containment_probability,
    estimate_chord_integral,
    estimate_line_measure,
    estimate_mean_chord,
    estimate_segment_hit_measure,
    invariance_check,
    levi_length,
    levi_length_fixed_plane,
    line_chart_image,
    line_direction,
    line_point_at,
    p_area,
    psh_compose,
    psh_inverse,
    volume,
)
from h1geom.estimators import DEFAULT_SEED

N = 1_000_000
THREADS = 4
SEED = DEFAULT_SEED


def announce(capsys, number: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")


def test_criterion_1_chord_integral_matches_volume(
    acceptance_bodies, acceptance_references, capsys
):
    # integral of the chord length over lines equals 2*pi*V for every body
    rows = []
    for name, body in acceptance_bodies.items():
        ref = 2.0 * math.pi * acceptance_references[name][0]
        est = estimate_chord_integral(body, N, seed=SEED, threads=THREADS)
        z = abs(est.value - ref) / est.std_error
        rel = abs(est.value - ref) / ref
        rows.append((z, rel, name, est.value, ref))
    z, rel, name, value, ref = max(rows)
    ok = all(z <= 3.0 and rel <= 0.01 for z, rel, *_ in rows)
    announce(
        capsys,
        1,
        ok,
        f"chord integral, worst of 4 bodies ({name}): "
        f"{value:.4f} vs 2*pi*V = {ref:.4f} (|z| = {z:.2f}, rel = {rel:.2%})",
    )
    for z, rel, name, *_ in rows:
        assert z <= 3.0, name
        assert rel <= 0.01, name


def test_criterion_2_line_measure_matches_twice_p_area(
    acceptance_bodies, acceptance_references, capsys
):
    # measure of lines meeting the body equals 2 * p-Area for every body
    rows = []
    for name, body in acceptance_bodies.items():
        ref = 2.0 * acceptance_references[name][1]
        est = estimate_line_measure(body, N, seed=SEED, threads=THREADS)
        z = abs(est.value - ref) / est.std_error
        rel = abs(est.value - ref) / ref
        rows.append((z, rel, name, est.value, ref))
    z, rel, name, value, ref = max(rows)
    ok = all(z <= 3.0 and rel <= 0.01 for z, rel, *_ in rows)
    announce(
        capsys,
        2,
        ok,
        f"line measure, worst of 4 bodies ({name}): "
        f"{value:.4f} vs 2*pA = {ref:.4f} (|z| = {z:.2f}, rel = {rel:.2%})",
    )
    for z, rel, name, *_ in rows:
        assert z <= 3.0, name
        assert rel <= 0.01, name


def test_criterion_2_p_area_agrees_with_line_rule(
    acceptance_bodies, acceptance_references, capsys
):
    # the p-Area reference itself is cross-checked against the line-space
    # Crofton rule, which integrates the exact slices of the body
    rows = []
    for name, body in acceptance_bodies.items():
        quad = acceptance_references[name][1]
        line = p_area(body, method="line").value
        rows.append((abs(quad - line) / line, name, quad, line))
    rel, name, quad, line = max(rows)
    ok = rel <= 1e-9
    announce(
        capsys,
        2,
        ok,
        f"p-area vs line rule, worst of 4 ({name}): "
        f"{quad:.15f} vs {line:.15f} (rel = {rel:.1e})",
    )
    for rel, name, *_ in rows:
        assert rel <= 1e-9, name


def test_criterion_3_segment_measure_linear_in_length(
    acceptance_bodies, acceptance_references, capsys
):
    # measure of segment positions hitting the unit ball is
    # 2*pi*V + 2*ell*pA; the sweep recovers both coefficients
    ball = acceptance_bodies["ball"]
    vol, pa = acceptance_references["ball"]
    ells = np.array([0.0, 0.5, 1.0])
    values, zs = [], []
    for ell in ells:
        ref = 2.0 * math.pi * vol + 2.0 * ell * pa
        est = estimate_segment_hit_measure(ball, ell, N, seed=SEED, threads=THREADS)
        values.append(est.value)
        zs.append(abs(est.value - ref) / est.std_error)
    slope, intercept = np.polyfit(ells, values, 1)
    slope_rel = abs(slope - 2.0 * pa) / (2.0 * pa)
    icept_rel = abs(intercept - 2.0 * math.pi * vol) / (2.0 * math.pi * vol)
    ok = max(zs) <= 3.0 and slope_rel <= 0.02 and icept_rel <= 0.01
    announce(
        capsys,
        3,
        ok,
        f"segment sweep on the ball: slope {slope:.4f} vs 2*pA = {2 * pa:.4f} "
        f"(rel = {slope_rel:.2%}), intercept {intercept:.4f} vs "
        f"2*pi*V = {2 * math.pi * vol:.4f} (rel = {icept_rel:.2%}), "
        f"max |z| = {max(zs):.2f}",
    )
    assert max(zs) <= 3.0
    assert slope_rel <= 0.02
    assert icept_rel <= 0.01


def test_criterion_4_mean_chord_of_unit_ball(
    acceptance_bodies, acceptance_references, capsys
):
    # mean chord = chord integral / line measure = pi * V / pA
    ball = acceptance_bodies["ball"]
    vol, pa = acceptance_references["ball"]
    ref = math.pi * vol / pa
    est = estimate_mean_chord(ball, N, seed=SEED, threads=THREADS)
    rel = abs(est.value - ref) / ref
    ok = rel <= 0.015
    announce(
        capsys,
        4,
        ok,
        f"mean chord of the unit ball: {est.value:.5f} vs "
        f"pi*V/pA = {ref:.5f} (rel = {rel:.2%})",
    )
    assert rel <= 0.015


def test_criterion_5_containment_probability_of_nested_balls(capsys):
    # P(random segment hitting Ball(1) also hits Ball(1/2)); at ell = 0
    # this is the ratio of volumes, 1/8
    inner = Ball((0.0, 0.0, 0.0), 0.5)
    outer = Ball((0.0, 0.0, 0.0), 1.0)
    est0 = containment_probability(inner, outer, 0.0, N, seed=SEED, threads=THREADS)
    z0 = abs(est0.value - 0.125) / est0.std_error

    num = 2.0 * math.pi * volume(inner).value + 1.0 * p_area(inner).value
    den = 2.0 * math.pi * volume(outer).value + 1.0 * p_area(outer).value
    ref5 = num / den
    est5 = containment_probability(inner, outer, 0.5, N, seed=SEED, threads=THREADS)
    z5 = abs(est5.value - ref5) / est5.std_error

    ok = z0 <= 3.0 and z5 <= 3.0
    announce(
        capsys,
        5,
        ok,
        f"nested balls: P(ell=0) {est0.value:.5f} vs 0.12500 (|z| = {z0:.2f}); "
        f"P(ell=0.5) {est5.value:.5f} vs {ref5:.5f} (|z| = {z5:.2f})",
    )
    assert z0 <= 3.0
    assert z5 <= 3.0


def test_criterion_6_estimates_invariant_under_motions(acceptance_bodies, capsys):
    # paired line-measure, chord-integral and segment-hit (ell = 1)
    # estimates before and after 20 random rigid motions
    rng = np.random.default_rng(20250816)
    worst = (0.0, "", 0.0, 0.0)
    passed = True
    for i in range(20):
        body = acceptance_bodies["box"] if i < 10 else acceptance_bodies["polytope"]
        motion = random_motion(rng, 1.2)
        rep = invariance_check(
            body,
            motion,
            200_000,
            seed=SEED + i,
            threads=THREADS,
        )
        passed = passed and rep.passed
        for row in rep.rows:
            if abs(row.z) > worst[0]:
                worst = (
                    abs(row.z),
                    row.quantity,
                    row.value_original,
                    row.value_transformed,
                )
    z, quantity, orig, moved = worst
    ok = passed and z < 4.0
    announce(
        capsys,
        6,
        ok,
        f"20 rigid motions, worst pair ({quantity}): "
        f"{orig:.4f} vs {moved:.4f} (|z| = {z:.2f}, gate 4)",
    )
    assert passed
    assert z < 4.0


def test_criterion_6_density_jacobians_are_unimodular(capsys):
    # numerical Jacobians of the line-chart action and of the
    # (p, theta, t, h) -> (point, direction angle) chart both have
    # determinant 1, so dG and dK are invariant densities
    def fd_jacobian(f, x, h=1e-5):
        x = np.asarray(x, dtype=float)
        fx = np.asarray(f(x), dtype=float)
        jac = np.empty((len(fx), len(x)))
        for j in range(len(x)):
            e = np.zeros(len(x))
            e[j] = h
            jac[:, j] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h)
        return jac

    rng = np.random.default_rng(606)
    worst_line = 0.0
    for _ in range(100):
        motion = random_motion(rng, 1.5)
        x0 = np.array(
            [rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-2, 2)]
        )
        det = np.linalg.det(fd_jacobian(lambda x: line_chart_image(motion, *x), x0))
        worst_line = max(worst_line, abs(det - 1.0))

    def frame_chart(x):
        p, theta, t, h = x
        q = line_point_at(HorizontalLine(p, theta, t), h)
        return (q.x, q.y, q.t, theta + 0.5 * math.pi)

    worst_frame = 0.0
    for _ in range(100):
        x0 = np.array(
            [
                rng.uniform(0.3, 2.0),
                rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
            ]
        )
        det = np.linalg.det(fd_jacobian(frame_chart, x0))
        worst_frame = max(worst_frame, abs(det - 1.0))

    worst = max(worst_line, worst_frame)
    ok = worst <= 1e-6
    announce(
        capsys,
        6,
        ok,
        f"density Jacobians at 200 configurations: "
        f"max |det - 1| = {worst:.2e} vs tolerance 1e-06",
    )
    assert worst_line <= 1e-6
    assert worst_frame <= 1e-6


def test_criterion_7_exact_identities(acceptance_bodies, capsys):
    # group axioms, horizontality, fixed-plane length, and the set-level
    # meaning of chords hold to near machine precision
    rng = np.random.default_rng(707)
    resid = 0.0

    # associativity and inverses
    for _ in range(10_000):
        m1, m2, m3 = (random_motion(rng, 1.5) for _ in range(3))
        left = psh_compose(psh_compose(m1, m2), m3)
        right = psh_compose(m1, psh_compose(m2, m3))
        scale = 1.0 + max(abs(left.a), abs(left.b), abs(left.c))
        resid = max(
            resid,
            abs(left.a - right.a) / scale,
            abs(left.b - right.b) / scale,
            abs(left.c - right.c) / scale,
        )
        d = (left.alpha - right.alpha) % (2.0 * math.pi)
        resid = max(resid, min(d, 2.0 * math.pi - d))
        back = psh_compose(m1, psh_inverse(m1))
        d = back.alpha % (2.0 * math.pi)
        resid = max(
            resid, abs(back.a), abs(back.b), abs(back.c), min(d, 2.0 * math.pi - d)
        )

    # line velocities are annihilated by the contact form
    # Theta = dt + x dy - y dx
    p = rng.uniform(0.0, 3.0, 10_000)
    theta = rng.uniform(0.0, 2.0 * math.pi, 10_000)
    s = rng.uniform(-3.0, 3.0, 10_000)
    x = p * np.cos(theta) + s * np.sin(theta)
    y = p * np.sin(theta) - s * np.cos(theta)
    contact = p + x * (-np.cos(theta)) - y * np.sin(theta)
    resid = max(resid, float(np.abs(contact).max()) / 4.0)

    # length measured in the fixed contact plane of the start point
    # agrees with the Levi length
    for _ in range(10_000):
        line = HorizontalLine(
            rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-2, 2)
        )
        s0 = rng.uniform(-2.0, 2.0)
        s1 = s0 + rng.uniform(0.0, 3.0)
        a = levi_length(line, s0, s1)
        b = levi_length_fixed_plane(line, s0, s1)
        resid = max(resid, abs(a - b) / (1.0 + a))

    # chords and membership describe the same solid set
    mismatches = 0
    for body in acceptance_bodies.values():
        n = 2500
        r, z_min, z_max = cylinder(body)
        p = rng.uniform(0.0, r, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        t = rng.uniform(z_min - 1.0, z_max + 1.0, n)
        s_lo, s_hi, hit = body.chord_batch(p, theta, t)
        ct, st = np.cos(theta), np.sin(theta)

        def at(sv):
            return np.stack([p * ct + sv * st, p * st - sv * ct, t + sv * p], axis=-1)

        solid = hit & ((s_hi - s_lo) > 1e-6)
        eps = 1e-9 * (1.0 + np.abs(s_lo) + np.abs(s_hi))
        mismatches += int((~body.contains_batch(at(0.5 * (s_lo + s_hi)))[solid]).sum())
        mismatches += int(body.contains_batch(at(s_hi + eps))[solid].sum())
        mismatches += int(body.contains_batch(at(s_lo - eps))[solid].sum())
        for sv in np.linspace(-3.0, 3.0, 7):
            mismatches += int(body.contains_batch(at(np.full(n, sv)))[~hit].sum())

    ok = resid <= 1e-10 and mismatches == 0
    announce(
        capsys,
        7,
        ok,
        f"exact identities over 10^4 trials each: max residual {resid:.2e} vs "
        f"1e-10; chord/membership mismatches {mismatches} vs 0",
    )
    assert resid <= 1e-10
    assert mismatches == 0


def test_criterion_8_deterministic_across_thread_counts(acceptance_bodies, capsys):
    # a fixed seed fixes every sample and the block sums are added in
    # block order, so the thread count cannot change any estimate bit;
    # each run draws its own pass (the slot of the last one is emptied)
    ball = acceptance_bodies["ball"]

    def fresh(estimate, **kw):
        forget_line_pass()
        return estimate(ball, 300_000, seed=SEED, **kw)

    runs = [fresh(estimate_chord_integral, threads=k) for k in (1, 3, 8)]
    same = all(
        r.value == runs[0].value and r.std_error == runs[0].std_error for r in runs
    )
    strat = [fresh(estimate_line_measure, stratify=True, threads=k) for k in (1, 4)]
    same_strat = strat[0].value == strat[1].value
    ok = same and same_strat
    announce(
        capsys,
        8,
        ok,
        f"threads 1/3/8 with one seed: {runs[0].value:.17g} vs "
        f"{runs[-1].value:.17g} (bitwise equal: {same and same_strat})",
    )
    assert same
    assert same_strat
