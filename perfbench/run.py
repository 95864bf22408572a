"""Run one workload of the h1geom benchmark and print its metrics.

    python3 perfbench/run.py --workload mc-estimates --seed 1 --seconds 48 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` beside this directory, never from an installed copy.  One run
sets the workload up, then repeats its iteration, one call at a time in
one client, until ``--seconds`` would be exceeded, checking every
output.  Four more set-ups are spread over the run; ``setup_s`` is the
median of the five.  With
``--trace 1`` iterations alternate between untraced and traced, and the
per-layer metrics come from the traced ones.  ``wall_s`` is the median
wall time of the untraced timed iterations.

Human-readable lines come first: the environment, every metric by name
and unit, and any failed checks.  The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, holding
the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` ones (``--trace 1``).  The full result, and with tracing
the spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MAX_FAILURE_MESSAGES = 20


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str, scratch: str) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, size, scratch)
    repeats = SETUP_REPEATS if size == "full" else 1
    setup_times = []

    def set_up() -> float:
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return setup_times[-1]

    set_up()
    tracer = Tracer() if trace else None

    walls = {False: [], True: []}
    op_seconds = {}  # label -> seconds of each untraced timed call
    first_values = {}  # label -> values of its first call
    failed_labels = set()
    wrong = False
    messages = []
    first_results = first_outcomes = None
    started = None
    while True:
        # iteration 0 warms up and is not timed; with tracing, later
        # iterations alternate between untraced and traced, so the
        # overhead is measured against neighbouring untraced ones.  The
        # n-th traced iteration runs the same calls as the n-th untraced.
        timed = started is not None
        traced = timed and tracer is not None and len(walls[False]) > len(walls[True])
        ops = workload.ops(len(walls[traced]))
        labels = [label for label, _ in ops]
        if traced:
            tracer.install()
            root = tracer.open("harness.iteration")
        results = []
        t0 = time.perf_counter()
        for label, call in ops:
            t_op = time.perf_counter()
            results.append(call())
            if timed and not traced:
                op_seconds.setdefault(label, []).append(time.perf_counter() - t_op)
        wall = time.perf_counter() - t0
        if traced:
            tracer.close(root)
            tracer.uninstall()
        if timed:
            walls[traced].append(wall)

        outcomes = [workload.check(label, r) for label, r in zip(labels, results)]
        for label, outcome in zip(labels, outcomes):
            values = first_values.setdefault(label, outcome.values)
            if outcome.values != values:
                outcome.fail(f"{label}: values differ from its first call")
            if outcome.failures:
                failed_labels.add(label)
            wrong = wrong or bool(outcome.wrong)
            messages.extend(outcome.failures)
        if first_results is None:
            first_results = dict(zip(labels, results))
            first_outcomes = list(zip(labels, outcomes))

        if not timed:
            started = time.perf_counter()
            continue
        elapsed = time.perf_counter() - started
        # the other set-ups are spread over the run, one after the
        # iteration that passes each further share of --seconds, so that
        # setup_s sees the machine over the whole run as wall_s does;
        # their time does not count against --seconds
        if len(setup_times) < repeats and elapsed >= seconds * len(setup_times) / repeats:
            started += set_up()
            elapsed = time.perf_counter() - started
        if walls[False] and (walls[True] or tracer is None):
            if elapsed + statistics.median(walls[traced]) > seconds:
                break

    while len(setup_times) < repeats:
        set_up()

    # an operation is one label, however often it ran: it fails when any
    # check on any of its calls fails, so the counts do not depend on how
    # many iterations fit into the run
    post = workload.post_checks(first_results)
    attempted = len(first_values) + len(post)
    failed = len(failed_labels) + sum(bool(o.failures) for o in post)
    wrong = wrong or any(o.wrong for o in post)
    messages.extend(m for o in post for m in o.failures)

    wall_s = statistics.median(walls[False])
    samples = sum(o.samples for _, o in first_outcomes)
    rel = [
        (o.rel_var, statistics.median(op_seconds[label]))
        for label, o in first_outcomes
        if o.rel_var is not None
    ]
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples_per_s": samples / wall_s if samples else None,
        "rel_wnv_geomean": (
            math.exp(statistics.fmean(math.log(v * s) for v, s in rel)) if rel else None
        ),
        "fail_frac": failed / attempted,
    }
    spans = []
    if trace:
        metrics.update(layer_metrics(tracer.spans, len(walls[True])))
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        spans = [
            [s.name, s.t0, s.t1, s.c0, s.c1, s.tid, s.parent, s.attrs] for s in tracer.spans
        ]
    digest = hashlib.sha256(
        json.dumps([first_values[label] for label, _ in first_outcomes]).encode()
    ).hexdigest()
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "failures": list(dict.fromkeys(messages))[:MAX_FAILURE_MESSAGES],
        "digest": digest,
        "iterations": {"untraced": walls[False], "traced": walls[True]},
        "setup_times": setup_times,
        "metrics": metrics,
        "spans": spans,
    }


UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "rel_wnv_geomean": "s",
    "fail_frac": "ratio",
}


def report(result: dict, spec: dict, trace: bool) -> None:
    metrics = result["metrics"]
    print(
        f"h1geom benchmark: workload={result['workload']} seed={result['seed']} "
        f"size={result['size']} trace={int(trace)}"
    )
    print("environment: " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    its = result["iterations"]
    print(f"iterations: {len(its['untraced'])} untraced, {len(its['traced'])} traced")
    print(f"digest: {result['digest']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    print("end-to-end metrics:")
    for key, unit in UNITS.items():
        value = metrics[key]
        print(f"  {key:<40} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    walls = sorted(its["untraced"])
    line = f"wall_s is the median of {len(walls)} timed iterations"
    if len(walls) >= 20:
        # the highest percentile with at least ten samples beyond it
        line += f"; p{100 * (len(walls) - 10) // len(walls)} {walls[-11]:.6g} s"
    else:
        line += "; too few for a tail percentile with ten iterations beyond it"
    print(line)
    if trace:
        print("per-layer metrics (per traced iteration):")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {metrics.get(m['name'], 0.0):.6g} {m['unit']}")
        print(
            f"self times sum to {metrics['trace.self_sum_s']:.6g} s; "
            f"traced wall {metrics['trace.wall_s']:.6g} s"
        )
    for msg in result["failures"]:
        print(f"failed check: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the smoke test",
    )
    args = parser.parse_args(argv)

    if not (SRC / "h1geom" / "__init__.py").is_file():
        print(f"error: no h1geom sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import h1geom

    if Path(h1geom.__file__).resolve().parent != SRC / "h1geom":
        print(f"error: imported h1geom from {h1geom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["environment"] = environment()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(result["spans"]), encoding="utf-8")
    del result["spans"]
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    report(result, spec, bool(args.trace))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
        for m in listed
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
