"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs in ``setup`` from the benchmark seed,
lists the calls of the k-th iteration in ``ops(k)`` (labels and
zero-argument callables into h1geom's public API, looked up at call time
so a tracer can wrap them), judges each call's output in ``check``, and
runs the thread-count comparison in ``post_checks``.  A label names one
operation: every call under one label gives the same values.

The four bodies are the acceptance bodies of the test suite (unit ball,
unit cube, random ellipsoid, random 8-facet polytope), drawn from the
suite's fixed generator seed.  The benchmark seed drives everything else:
the sampler seed of every estimate, the rigid motions and the inner body
of the containment run.  The random bodies are not re-drawn per seed
because the adaptive quadrature's cost depends on the shape: across 12
generator seeds the polytope's ``p_area`` took 0.44 to 1.11 s, which
would make reference-geometry and cli-mix times vary more between seeds
than any bound the benchmark could hold.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from h1geom import bodies, cli, estimators, measures
from h1geom.core import PshMotion

from tracing import TYPES

ACCEPTANCE_SEED = 20250815  # tests/conftest.py
Z_GATE = 4.0
# a 32^3 midpoint grid has no error bar; on the four bodies it lands
# within 0.25% of 2 pA, so 1% separates a sound grid from a broken one
GRID_REL_TOL = 0.01
# Polytope rounds its vertices to 1e-9, so closed-form volumes of
# polytope images agree with the original only to about that
EXACT_REL_TOL = 1e-8

SIZES = {
    # n: samples per estimate in mc-estimates; cli_n: the --n of cli-mix
    # commands, None for the CLI default that users run; motions: the
    # pool of rigid motions reference-geometry cycles through, one per
    # iteration
    "full": {"n": 1 << 17, "cli_n": None, "motions": 32},
    "tiny": {"n": 1 << 12, "cli_n": 1 << 12, "motions": 1},
}


def acceptance_specs() -> dict[str, dict]:
    """Body JSON specs of the acceptance bodies, built with the draws of
    ``tests/conftest.py::make_acceptance_bodies`` in the same order."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    center = rng.uniform(-0.3, 0.3, 3)
    semi = rng.uniform(0.7, 1.1, 3)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / np.sqrt(3.0)
    normals = corners + rng.normal(0.0, 0.08, (8, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.85, 1.15, 8)
    return {
        "ball": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "box": {"kind": "box", "min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]},
        "ellipsoid": {
            "kind": "ellipsoid",
            "center": center.tolist(),
            "semi_axes": semi.tolist(),
        },
        "polytope": {
            "kind": "polytope",
            "halfspaces": np.column_stack([normals, offsets]).tolist(),
        },
    }


def references(body) -> tuple[float, float]:
    return measures.volume(body).value, measures.p_area(body).value


class Outcome:
    """What the checks found in one call's output.

    ``values`` feed the determinism digest.  ``failures`` name every
    failed check; those in ``wrong`` are also value failures (a number
    that disagrees with its reference, a nonzero exit code, a failed
    invariance gate, non-determinism) and make the run incorrect, while
    the rest are report defects such as non-strict JSON."""

    def __init__(self, values=(), samples=0, rel_var=None):
        self.values = tuple(float(v) for v in values)
        self.samples = samples
        self.rel_var = rel_var
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def fail(self, what: str, wrong: bool = True) -> None:
        self.failures.append(what)
        if wrong:
            self.wrong.append(what)


def check_estimate(out: Outcome, label, value, std_error, reference) -> None:
    """|z| < 4 against the set-up reference; an estimate without an error
    bar fails the z check and is held to GRID_REL_TOL instead."""
    if std_error > 0.0:
        z = (value - reference) / std_error
        if not abs(z) < Z_GATE:
            out.fail(f"{label}: z = {z:+.2f} against reference {reference:.10g}")
        return
    out.fail(f"{label}: std_error = 0, estimate is not gated", wrong=False)
    rel = abs(value - reference) / abs(reference)
    if not rel <= GRID_REL_TOL:
        out.fail(f"{label}: rel error {rel:.3g} above {GRID_REL_TOL}")


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.scratch = scratch

    def draw_seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def draw_motion(self) -> PshMotion:
        a, b, c = (float(v) for v in self.rng.uniform(-1.0, 1.0, 3))
        return PshMotion(a, b, c, float(self.rng.uniform(0.0, 2.0 * math.pi)))

    def setup(self) -> None:
        """Build every input from the seed; may run several times."""
        raise NotImplementedError

    def ops(self, k: int) -> list[tuple[str, object]]:
        """The calls of iteration ``k``; the same for every k unless a
        workload cycles through its inputs."""
        raise NotImplementedError

    def check(self, label: str, result) -> Outcome:
        raise NotImplementedError

    def post_checks(self, first: dict) -> list[Outcome]:
        """Checks run once after the timed loop; ``first`` maps op labels
        to their results in the first iteration."""
        return []


class McEstimates(Workload):
    """Four estimators on each body at one n, one thread, plain sampling,
    with set-up references passed in as floats."""

    name = "mc-estimates"

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        specs = acceptance_specs()
        self.bodies = {t: cli.build_body(specs[t]) for t in TYPES}
        self.refs = {t: references(b) for t, b in self.bodies.items()}
        self.seeds = {t: self.draw_seed() for t in TYPES}

    def _calls(self, tname, threads):
        body, n, seed = self.bodies[tname], self.size["n"], self.seeds[tname]
        vol, pa = self.refs[tname]
        kw = {"threads": threads}
        return {
            "line_measure": lambda: estimators.estimate_line_measure(
                body, n, seed, reference=2.0 * pa, **kw
            ),
            "chord_integral": lambda: estimators.estimate_chord_integral(
                body, n, seed, reference=2.0 * math.pi * vol, **kw
            ),
            "segment_hit_ell1": lambda: estimators.estimate_segment_hit_measure(
                body, 1.0, n, seed, reference=2.0 * math.pi * vol + 2.0 * pa, **kw
            ),
            "mean_chord": lambda: estimators.estimate_mean_chord(
                body, n, seed, reference=math.pi * vol / pa, **kw
            ),
        }

    def ops(self, k):
        return [
            (f"{t}/{q}", call) for t in TYPES for q, call in self._calls(t, threads=1).items()
        ]

    def check(self, label, est) -> Outcome:
        out = Outcome((est.value, est.std_error), est.n_samples)
        if est.reference:
            out.rel_var = (est.std_error / est.reference) ** 2
        check_estimate(out, label, est.value, est.std_error, est.reference)
        return out

    def post_checks(self, first):
        outcomes = []
        for t in TYPES:
            est = self._calls(t, threads=2)["line_measure"]()
            ref = first[f"{t}/line_measure"]
            out = Outcome()
            if (est.value, est.std_error) != (ref.value, ref.std_error):
                out.fail(f"{t}/line_measure: threads=2 gives {est.value!r}, threads=1 {ref.value!r}")
            outcomes.append(out)
        return outcomes


class ReferenceGeometry(Workload):
    """Each body through seeded rigid motions; transform_body, volume and
    p_area on every image, checked against the original.

    Iteration k maps the four bodies through motion k of a pool of 32,
    cycling.  The quadrature's work depends on the image's orientation
    (per motion, the polytope's p_area takes 0.45 to 0.85 s), so a pool
    this size keeps the work of a run close to the same from seed to
    seed, while one iteration stays short enough for a run to hold
    about as many iterations as the pool has motions."""

    name = "reference-geometry"

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        specs = acceptance_specs()
        self.bodies = {t: cli.build_body(specs[t]) for t in TYPES}
        self.refs = {t: (measures.volume(b), measures.p_area(b)) for t, b in self.bodies.items()}
        self.motions = [self.draw_motion() for _ in range(self.size["motions"])]

    def ops(self, k):
        def image_measures(motion, body):
            image = bodies.transform_body(motion, body)
            return image, measures.volume(image), measures.p_area(image)

        k %= len(self.motions)
        m = self.motions[k]
        return [(f"{t}/motion{k}", lambda b=self.bodies[t]: image_measures(m, b)) for t in TYPES]

    def check(self, label, result) -> Outcome:
        _, vol, pa = result
        out = Outcome((vol.value, pa.value))
        for what, got, ref in zip(("volume", "p_area"), (vol, pa), self.refs[label.split("/")[0]]):
            tol = got.error_estimate + ref.error_estimate + EXACT_REL_TOL * abs(ref.value)
            if not abs(got.value - ref.value) <= tol:
                out.fail(f"{label}: {what} {got.value!r} vs original {ref.value!r} (tol {tol:.3g})")
        return out


class CliMix(Workload):
    """In-process CLI calls at two threads, the way a user runs them."""

    name = "cli-mix"
    COMMANDS = ("crofton", "chord-integral", "kinematic", "mean-chord", "sweep", "invariance", "crofton-grid")
    ELLS = (0.0, 0.5, 1.0, 1.5)

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        specs = acceptance_specs()
        radius = float(self.rng.uniform(0.4, 0.6))
        offset = self.rng.uniform(-0.2, 0.2, 3) / math.sqrt(3.0)
        specs["inner"] = {"kind": "ball", "center": offset.tolist(), "radius": radius}
        self.files = {}
        self.refs = {}
        for key, spec in specs.items():
            path = os.path.join(self.scratch, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            self.files[key] = path
            self.refs[key] = references(cli.build_body(spec))
        self.argvs = {}
        for t in TYPES:
            for cmd in self.COMMANDS:
                self.argvs[f"{t}/{cmd}"] = self._argv(cmd, t, self.draw_seed())
        self.argvs["inner/containment"] = self._argv("containment", "inner", self.draw_seed())

    def _argv(self, cmd, key, seed, threads=2, tag=""):
        argv = ["crofton" if cmd == "crofton-grid" else cmd]
        if key != "inner":
            argv += ["--body", self.files[key]]
        if self.size["cli_n"] is not None:
            argv += ["--n", str(self.size["cli_n"])]
        argv += ["--seed", str(seed), "--threads", str(threads)]
        argv += ["--out", os.path.join(self.scratch, f"{key}-{cmd}{tag}.out.json")]
        if cmd == "kinematic":
            argv += ["--ell", "1"]
        elif cmd == "sweep":
            argv += ["--ell-list", ",".join(str(e) for e in self.ELLS)]
        elif cmd == "invariance":
            m = self.draw_motion()
            # one token, so a leading minus sign is not read as an option
            argv.append("--motion=" + ",".join(repr(v) for v in (m.a, m.b, m.c, m.alpha)))
        elif cmd == "crofton-grid":
            argv += ["--method", "grid", "--resolution", "32"]
        elif cmd == "containment":
            argv += ["--inner", self.files["inner"], "--outer", self.files["ball"], "--ell", "1"]
        return argv

    def ops(self, k):
        return [(label, lambda argv=argv: run_cli(argv)) for label, argv in self.argvs.items()]

    def _expected(self, key, cmd, ell=1.0):
        vol, pa = self.refs[key]
        if cmd in ("crofton", "crofton-grid"):
            return 2.0 * pa
        if cmd == "chord-integral":
            return 2.0 * math.pi * vol
        if cmd == "mean-chord":
            return math.pi * vol / pa
        if cmd == "containment":
            inner, outer = self.refs["inner"], self.refs["ball"]
            return (2.0 * math.pi * inner[0] + 2.0 * ell * inner[1]) / (
                2.0 * math.pi * outer[0] + 2.0 * ell * outer[1]
            )
        return 2.0 * math.pi * vol + 2.0 * ell * pa  # kinematic, sweep rows

    def check(self, label, code) -> Outcome:
        key, cmd = label.split("/")
        argv = self.argvs[label]
        out = Outcome()
        if code != 0:
            out.fail(f"{label}: exit code {code}")
            return out
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            text = fh.read()
        try:
            json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            out.fail(f"{label}: report is not strict JSON ({exc})", wrong=False)
        report = json.loads(text)
        values = []
        if cmd == "sweep":
            for row in report["rows"]:
                values.append(row["value"])
                out.samples += row["n_samples"]
                ref = self._expected(key, cmd, row["ell"])
                check_estimate(out, f"{label}@{row['ell']}", row["value"], row["std_error"], ref)
        elif cmd == "invariance":
            for row in report["rows"]:
                values += [row["value_original"], row["value_transformed"]]
                out.samples += 2 * report["params"]["n"]
            if report["passed"] is not True:
                out.fail(f"{label}: invariance check did not pass")
        else:
            res = report["result"]
            values.append(res["value"])
            out.samples += res["n_samples"]
            check_estimate(out, label, res["value"], res["std_error"], self._expected(key, cmd))
        out.values = tuple(values)
        return out

    def post_checks(self, first):
        outcomes = []
        for t in TYPES:
            label = f"{t}/crofton"
            argv = self.argvs[label]
            seed = int(argv[argv.index("--seed") + 1])
            single = self._argv("crofton", t, seed, threads=1, tag="-threads1")
            out = Outcome()
            if run_cli(single) != 0:
                out.fail(f"{label}: threads=1 run failed")
            else:
                one, two = self._report_result(single), self._report_result(argv)
                if one != two:
                    out.fail(f"{label}: threads=1 gives {one!r}, threads=2 {two!r}")
            outcomes.append(out)
        return outcomes

    @staticmethod
    def _report_result(argv) -> dict:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            return json.load(fh)["result"]


def run_cli(argv) -> int:
    """Exit code of an in-process CLI call, argparse errors included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _reject_constant(name):
    raise ValueError(f"bare {name}")


WORKLOADS = {w.name: w for w in (McEstimates, ReferenceGeometry, CliMix)}
