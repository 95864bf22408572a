"""Command-line interface for kinematic measures of convex bodies.

Bodies are described by JSON files::

    {"kind": "ball", "center": [0, 0, 0], "radius": 1.0}
    {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1.0, 0.8, 1.2]}
    {"kind": "box", "min": [0, 0, 0], "max": [1, 1, 1]}
    {"kind": "polytope", "halfspaces": [[nx, ny, nz, d], ...]}

Every number is a JSON number: a string, true or false, NaN, Infinity
or an integer too large for a float is rejected, and so are unknown
keys.  Commands::

    volume          Lebesgue volume (closed form, or the voxel oracle)
    p-area          sub-Riemannian perimeter; --oracle reports the
                    line-space Crofton rule instead
    crofton         Monte Carlo line measure vs twice the p-Area
    chord-integral  Monte Carlo chord integral vs 2*pi*V
    mean-chord      ratio estimate of the mean chord vs pi*V/pA
    kinematic       segment hit measure at --ell vs 2*pi*V + 2*ell*pA
    containment     probability a segment hitting --outer hits --inner
    invariance      estimates before/after a rigid motion --motion a,b,c,alpha
    sweep           kinematic measure over --ell-list with a linear fit

Reports are JSON (default) or CSV via --format, written to stdout or
--out; a non-finite number is null (an empty CSV cell).  Output is
byte-identical across runs of the same configuration except for the
wall_time_s field.

Exit codes: 0 success; 2 configuration error (bad JSON/flags, a body
file number that is not a finite JSON number, a sampling flag the
method ignores, violated nesting, no line of the sample meets the body,
an --n or a grid of more than 2^32 lines or a voxel lattice of more than
2^32 points); 3 unsupported body/operation; 4 tolerance failure (estimate
beyond its method's gate, 4 standard errors of its reference for Monte
Carlo and 5.48 for the grid, whose z follows Student's t with 15
degrees of freedom; failed invariance; or non-convergent quadrature).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

import numpy as np

from .bodies import Ball, Box, CapabilityError, Ellipsoid, Polytope
from .core import PshMotion
from .estimators import (
    DEFAULT_SEED,
    ContainmentError,
    InvarianceRow,
    containment_probability,
    estimate_chord_integral,
    estimate_line_measure,
    estimate_mean_chord,
    estimate_segment_hit_measure,
    grid_axis_resolution,
    invariance_check,
)
from .measures import MeasureResult, QuadratureError, p_area, volume, volume_voxel_oracle

SCHEMA = "h1geom.report/1"

# The single-body estimate commands, one row each: the estimator, the
# help text, and whether the command takes --ell and
# --method/--resolution.  The estimator is named, not held: a command
# calls what this module's name is bound to when it runs, so a wrapper
# put there (a test's or a profiler's) sees the call.
_ESTIMATES = {
    "crofton": ("estimate_line_measure", "line measure vs 2 * p-Area", False, True),
    "chord-integral": ("estimate_chord_integral", "chord integral vs 2*pi*V", False, True),
    "mean-chord": ("estimate_mean_chord", "mean chord vs pi*V/pA", False, False),
    "kinematic": (
        "estimate_segment_hit_measure",
        "segment hit measure vs 2*pi*V + 2*ell*pA",
        True,
        True,
    ),
}


class ConfigError(Exception):
    """Invalid command-line or body-file input."""


def _require_fields(spec: dict, kind: str, fields: dict) -> dict:
    extra = set(spec) - set(fields) - {"kind"}
    if extra:
        raise ConfigError(f"unknown fields for {kind!r}: {sorted(extra)}")
    missing = set(fields) - set(spec)
    if missing:
        raise ConfigError(f"missing fields for {kind!r}: {sorted(missing)}")
    out = {}
    for name, checker in fields.items():
        out[name] = checker(name, spec[name])
    return out


def _number(name: str, value) -> float:
    """A JSON number as a finite float.  A string, a boolean (true is an
    int to Python) or any other value is rejected, and so is a number
    that overflows a float or is not finite (NaN, Infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, not {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is too large for a float") from exc
    if not math.isfinite(v):
        raise ConfigError(f"{name} must be finite")
    return v


def _vec3(name: str, value) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{name} must be a list of 3 numbers")
    return [_number(f"{name}[{i}]", v) for i, v in enumerate(value)]


def _positive(name: str, value) -> float:
    v = _number(name, value)
    if v <= 0.0:
        raise ConfigError(f"{name} must be positive")
    return v


def _positive_vec3(name: str, value) -> list[float]:
    vec = _vec3(name, value)
    if not all(v > 0.0 for v in vec):
        raise ConfigError(f"{name} must be positive componentwise")
    return vec


def _halfspaces(name: str, value) -> list[list[float]]:
    if not isinstance(value, list) or len(value) < 4:
        raise ConfigError(f"{name} must list at least 4 halfspaces [nx, ny, nz, d]")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ConfigError(f"{name}[{i}] must have 4 numbers [nx, ny, nz, d]")
        rows.append([_number(f"{name}[{i}]", v) for v in row])
    return rows


def build_body(spec: dict):
    """Construct a body from a validated JSON-style dict."""
    if not isinstance(spec, dict):
        raise ConfigError("body spec must be a JSON object")
    kind = spec.get("kind")
    if kind == "ball":
        data = _require_fields(spec, kind, {"center": _vec3, "radius": _positive})
        return Ball(data["center"], data["radius"])
    if kind == "ellipsoid":
        data = _require_fields(
            spec, kind, {"center": _vec3, "semi_axes": _positive_vec3}
        )
        return Ellipsoid(data["center"], data["semi_axes"])
    if kind == "box":
        data = _require_fields(spec, kind, {"min": _vec3, "max": _vec3})
        lo, hi = data["min"], data["max"]
        if not all(h > l for l, h in zip(lo, hi)):
            raise ConfigError("box needs max > min componentwise")
        return Box(lo, hi)
    if kind == "polytope":
        data = _require_fields(spec, kind, {"halfspaces": _halfspaces})
        rows = np.asarray(data["halfspaces"], dtype=float)
        try:
            return Polytope(rows[:, :3], rows[:, 3])
        except ValueError as exc:
            raise ConfigError(f"invalid polytope: {exc}") from exc
    raise ConfigError(
        f"unknown body kind {kind!r}; expected ball, ellipsoid, box, or polytope"
    )


def _load_body(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read body file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"body file {path} is not valid JSON: {exc}") from exc
    return spec, build_body(spec)


def _parse_motion(text: str) -> PshMotion:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--motion needs four comma-separated numbers a,b,c,alpha")
    try:
        a, b, c, alpha = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--motion needs numbers: {exc}") from exc
    return PshMotion(a, b, c, alpha)


def _parse_ell_list(text: str) -> list[float]:
    try:
        ells = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--ell-list needs numbers: {exc}") from exc
    if not ells or any(not math.isfinite(e) or e < 0.0 for e in ells):
        raise ConfigError("--ell-list needs nonnegative finite numbers")
    return ells


def _finite(x):
    """``x`` with every non-finite float in it, at any depth of dicts and
    lists, replaced by None: null in JSON, an empty CSV cell.  An estimate
    that overflows (a huge --ell) or an inexact one without an error bar
    (an infinite z score) thus leaves a valid report, which its gate
    fails."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {key: _finite(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(value) for value in x]
    return x


def _estimate_payload(est) -> dict:
    return {
        "value": est.value,
        "std_error": est.std_error,
        "ci95": [est.ci95[0], est.ci95[1]],
        "n_samples": est.n_samples,
        "n_hits": est.n_hits,
        "method": est.method,
    }


def _diagnostics(est) -> dict:
    if est.reference is None:
        return {}
    rel = (
        (est.value - est.reference) / est.reference if est.reference != 0.0 else None
    )
    return {"rel_error": rel, "z_score": est.z_score()}


_ESTIMATE_CSV_FIELDS = [
    "command",
    "ell",
    "value",
    "std_error",
    "ci_lo",
    "ci_hi",
    "n_samples",
    "n_hits",
    "seed",
    "method",
    "reference",
    "rel_error",
    "z_score",
]
_MEASURE_CSV_FIELDS = ["command", *(f.name for f in dataclasses.fields(MeasureResult))]
_INVARIANCE_CSV_FIELDS = [f.name for f in dataclasses.fields(InvarianceRow)]


def _estimate_csv_row(command: str, ell, est, diag: dict) -> dict:
    return {
        "command": command,
        "ell": "" if ell is None else ell,
        "value": est.value,
        "std_error": est.std_error,
        "ci_lo": est.ci95[0],
        "ci_hi": est.ci95[1],
        "n_samples": est.n_samples,
        "n_hits": est.n_hits,
        "seed": est.seed,
        "method": est.method,
        "reference": "" if est.reference is None else est.reference,
        "rel_error": diag.get("rel_error", ""),
        "z_score": diag.get("z_score", ""),
    }


def _render(report: dict, fmt: str, csv_rows: tuple[list[str], list[dict]]) -> str:
    if fmt == "json":
        text = json.dumps(_finite(report), sort_keys=True, indent=2, allow_nan=False)
        return text + "\n"
    fields, rows = csv_rows
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_finite(rows))
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sampling(args) -> tuple[dict, dict]:
    """The estimator keywords of a command's sampling flags and the
    report's ``params`` for them.  A command without --method runs Monte
    Carlo; a grid run's params add the per-axis resolution it uses."""
    kw = {"seed": args.seed, "stratify": args.stratify, "threads": args.threads}
    params = {"n": args.n, **kw, "method": "mc"}
    if "method" in args:
        kw.update(method=args.method, grid_resolution=args.resolution)
        params["method"] = args.method
        if args.method == "grid":
            params["resolution"] = grid_axis_resolution(args.n, args.resolution)
    return kw, params


def _measure_report(command: str, spec: dict, res) -> tuple[dict, tuple, int]:
    result = dataclasses.asdict(res)
    report = {"schema": SCHEMA, "command": command, "body": spec, "result": result}
    return report, (_MEASURE_CSV_FIELDS, [{"command": command, **result}]), 0


def _estimate_report(command, specs, params, estimates, fit=None):
    """The report, CSV rows and exit code of every estimate command.

    ``estimates`` pairs each estimate with its segment length (None for
    line estimates), and ``params`` is ``_sampling``'s.  One estimate
    fills ``result``, ``reference`` and ``diagnostics``; a sweep (``fit``
    given) lists its estimates as ``rows``.  Every estimate is gated
    against its reference: it fails at or beyond its method's z gate
    (``EstimateResult.z_gate``), as does an inexact estimate without an
    error bar.
    """
    report = {"schema": SCHEMA, "command": command, **specs}
    diags = [_diagnostics(est) for _, est in estimates]
    if fit is None:
        ((ell, est),) = estimates
        report["result"] = _estimate_payload(est)
        report["reference"] = {"value": est.reference, "source": est.reference_source}
        report["diagnostics"] = diags[0]
        if ell is not None:
            params["ell"] = ell
    else:
        params["ell_list"] = [ell for ell, _ in estimates]
        report["rows"] = [
            {**_estimate_payload(est), "ell": ell, "reference": est.reference}
            for ell, est in estimates
        ]
        report["fit"] = fit
    report["params"] = params
    code = 0
    for (_, est), diag in zip(estimates, diags):
        z = diag.get("z_score", 0.0)
        if not abs(z) < est.z_gate:
            report["tolerance_failure"] = (
                f"estimate {est.value:.6g} deviates from reference "
                f"{est.reference:.6g} by {z:+.2f} standard errors (gate {est.z_gate})"
            )
            code = 4
    rows = [
        _estimate_csv_row(command, ell, est, diag)
        for (ell, est), diag in zip(estimates, diags)
    ]
    return report, (_ESTIMATE_CSV_FIELDS, rows), code


def _cmd_volume(args):
    spec, body = _load_body(args.body)
    if args.method == "voxel":
        return _measure_report(
            "volume", spec, volume_voxel_oracle(body, args.resolution)
        )
    return _measure_report("volume", spec, volume(body))


def _cmd_p_area(args):
    spec, body = _load_body(args.body)
    method = "line" if args.oracle else "auto"
    return _measure_report("p-area", spec, p_area(body, method=method, rel_tol=args.tol))


def _cmd_estimate(args):
    """A single-body estimate command, as its ``_ESTIMATES`` row says."""
    spec, body = _load_body(args.body)
    kw, params = _sampling(args)
    estimate = globals()[_ESTIMATES[args.command][0]]
    ell = getattr(args, "ell", None)
    est = estimate(body, args.n, **kw) if ell is None else estimate(body, ell, args.n, **kw)
    return _estimate_report(args.command, {"body": spec}, params, [(ell, est)])


def _cmd_containment(args):
    inner_spec, inner = _load_body(args.inner)
    outer_spec, outer = _load_body(args.outer)
    kw, params = _sampling(args)
    est = containment_probability(inner, outer, args.ell, args.n, **kw)
    specs = {"inner": inner_spec, "outer": outer_spec}
    return _estimate_report("containment", specs, params, [(args.ell, est)])


def _cmd_invariance(args):
    spec, body = _load_body(args.body)
    motion = _parse_motion(args.motion)
    kw, params = _sampling(args)
    rep = invariance_check(body, motion, args.n, **kw)
    rows = [dataclasses.asdict(row) for row in rep.rows]
    report = {
        "schema": SCHEMA,
        "command": "invariance",
        "body": spec,
        "params": {
            **params,
            "motion": [motion.a, motion.b, motion.c, motion.alpha],
            "threshold": rep.threshold,
        },
        "rows": rows,
        "passed": rep.passed,
    }
    code = 0
    if not rep.passed:
        worst = max(rep.rows, key=lambda r: abs(r.z))
        report["tolerance_failure"] = (
            f"invariance violated: {worst.quantity} differs by z={worst.z:+.2f}"
        )
        code = 4
    return report, (_INVARIANCE_CSV_FIELDS, rows), code


def _cmd_sweep(args):
    spec, body = _load_body(args.body)
    ells = _parse_ell_list(args.ell_list)
    kw, params = _sampling(args)
    # line estimates of one body taken one after another share one pass,
    # and each is called by the name this module binds, as _ESTIMATES
    # rows are, so a wrapper put there sees it.  The law is
    # 2*pi*V + 2*ell*pA: its slope is the line measure and its intercept
    # the chord integral of the same lines
    estimates = [(ell, estimate_segment_hit_measure(body, ell, args.n, **kw)) for ell in ells]
    slope = estimate_line_measure(body, args.n, **kw)
    intercept = estimate_chord_integral(body, args.n, **kw)
    fit = {
        "slope": slope.value,
        "intercept": intercept.value,
        "slope_reference": slope.reference,
        "intercept_reference": intercept.reference,
    }
    return _estimate_report("sweep", {"body": spec}, params, estimates, fit)


def _positive_int(text: str) -> int:
    """The argparse type of --n and --threads."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_output(parser: argparse.ArgumentParser, body: bool = True) -> None:
    if body:
        parser.add_argument("--body", required=True, help="path to a body JSON file")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="format"
    )
    parser.add_argument("--out", default=None, help="write the report to this path")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    """The sampling flags, which only the estimate commands take."""
    parser.add_argument("--n", type=_positive_int, default=100_000, help="sample count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    parser.add_argument(
        "--stratify", action="store_true", help="stratify the angle coordinate (Monte Carlo only)"
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted and reported in params, but starts no threads: every "
        "pass runs on the calling thread",
    )


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("mc", "grid"),
        default="mc",
        help="Monte Carlo, or 16 randomly shifted copies of a Kronecker point set",
    )
    parser.add_argument(
        "--resolution",
        type=int,
        default=None,
        help="per-axis resolution for --method grid (only), about resolution^3 lines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h1geom",
        description="Kinematic measures of convex bodies under the "
        "Heisenberg rigid-motion group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="Lebesgue volume")
    _add_output(p)
    p.add_argument("--method", choices=("auto", "voxel"), default="auto")
    p.add_argument("--resolution", type=int, default=128, help="voxel resolution")
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("p-area", help="sub-Riemannian perimeter")
    _add_output(p)
    p.add_argument("--tol", type=float, default=1e-6, help="relative tolerance")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="report the line-space Crofton rule, refined to --tol, "
        "instead of the default p-Area",
    )
    p.set_defaults(func=_cmd_p_area)

    for command, (_, text, takes_ell, takes_method) in _ESTIMATES.items():
        p = sub.add_parser(command, help=text)
        _add_output(p)
        _add_sampling(p)
        if takes_method:
            _add_method(p)
        if takes_ell:
            p.add_argument("--ell", type=float, default=1.0, help="segment length")
        p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "containment", help="P(segment hitting outer also hits inner)"
    )
    _add_output(p, body=False)
    _add_sampling(p)
    p.add_argument("--inner", required=True, help="inner body JSON file")
    p.add_argument("--outer", required=True, help="outer body JSON file")
    p.add_argument("--ell", type=float, default=1.0, help="segment length")
    p.set_defaults(func=_cmd_containment)

    p = sub.add_parser("invariance", help="estimates before/after a rigid motion")
    _add_output(p)
    _add_sampling(p)
    p.add_argument(
        "--motion",
        default="0.5,-0.25,0.3,0.9",
        help="motion as a,b,c,alpha",
    )
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("sweep", help="kinematic measure over several ell values")
    _add_output(p)
    _add_sampling(p)
    p.add_argument(
        "--ell-list",
        default="0,0.5,1",
        dest="ell_list",
        help="comma-separated segment lengths",
    )
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser for every main() call: parse_args keeps no state between
    # calls, and building the parser costs milliseconds per command
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, csv_rows, code = args.func(args)
    except (ConfigError, ContainmentError, ValueError, MemoryError) as exc:
        # invalid numeric arguments surface from the library layer as
        # ValueError, and a request too large to allocate as MemoryError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    report["wall_time_s"] = time.perf_counter() - started
    _emit(_render(report, args.format, csv_rows), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
