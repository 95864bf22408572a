"""Command-line interface: reports, formats, determinism, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import h1geom.cli as cli
import h1geom.measures as measures
from h1geom import (
    DEFAULT_SEED,
    CapabilityError,
    EstimateResult,
    InvarianceReport,
    InvarianceRow,
    QuadratureError,
    estimate_chord_integral,
    estimate_line_measure,
    p_area,
    volume,
)
from h1geom.cli import main
from h1geom.estimators import BLOCK


@pytest.fixture()
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1.0}))
    return str(path)


@pytest.fixture()
def box_file(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"kind": "box", "min": [0, 0, 0], "max": [1, 1, 1]}))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        # one gate rule for every command: a report names a failed check
        # exactly when the command exits 4
        report = json.loads(captured.out)
        assert ("tolerance_failure" in report) == (code == 4), (argv, code)
    return code, captured.out, captured.err


def test_volume_command(capsys, ball_file):
    code, out, _ = run_cli(capsys, ["volume", "--body", ball_file])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "h1geom.report/1"
    assert report["result"]["method"] == "exact"
    assert abs(report["result"]["value"] - 4.0 * math.pi / 3.0) < 1e-12
    assert "wall_time_s" in report


def test_volume_voxel_method(capsys, ball_file):
    code, out, _ = run_cli(
        capsys, ["volume", "--body", ball_file, "--method", "voxel", "--resolution", "64"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["method"] == "voxel-oracle"
    assert report["result"]["resolution"] == 64


def test_p_area_command(capsys, ball_file):
    code, out, _ = run_cli(capsys, ["p-area", "--body", ball_file])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["method"] == "quadrature"
    quad_value = report["result"]["value"]

    code, out, _ = run_cli(capsys, ["p-area", "--body", ball_file, "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["method"] == "line-rule"
    assert abs(report["result"]["value"] - quad_value) <= report["result"]["error_estimate"]


def test_p_area_command_planar_bodies(capsys, tmp_path, box_file):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(
        json.dumps(
            {
                "kind": "polytope",
                "halfspaces": [
                    [1, 0, 0.3, 1], [-1, 0, 0, 0], [0, 1, 0, 1],
                    [0, -1, -0.2, 0], [0, 0, 1, 1], [0.1, 0, -1, 0],
                ],
            }
        )
    )
    # the unit cube with a redundant halfspace far from it is the box
    far_file = tmp_path / "far.json"
    cube = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]]
    far_file.write_text(json.dumps({"kind": "polytope", "halfspaces": [*cube, [1, 1, 1, 1e9]]}))
    values = []
    for path in (box_file, str(poly_file), str(far_file)):
        code, out, _ = run_cli(capsys, ["p-area", "--body", path])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["method"] == "exact"
        assert result["resolution"] == 0 and result["error_estimate"] == 0.0
        values.append(result["value"])

        code, out, _ = run_cli(capsys, ["p-area", "--body", path, "--oracle"])
        assert code == 0
        oracle = json.loads(out)["result"]
        assert oracle["method"] == "line-rule"
        assert abs(oracle["value"] - result["value"]) <= oracle["error_estimate"]
    assert values[2] == pytest.approx(values[0], rel=1e-12, abs=0.0)


def test_crofton_report_fields(capsys, ball_file):
    code, out, _ = run_cli(
        capsys, ["crofton", "--body", ball_file, "--n", "50000", "--seed", "42"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "crofton"
    assert report["params"]["n"] == 50000 and report["params"]["seed"] == 42
    result = report["result"]
    for key in ("value", "std_error", "ci95", "n_samples", "n_hits", "method"):
        assert key in result
    ref = report["reference"]
    assert ref["value"] == pytest.approx(2.0 * p_area(cli.Ball((0, 0, 0), 1.0)).value)
    assert "p_area" in ref["source"]
    diag = report["diagnostics"]
    assert abs(diag["z_score"]) < 4.0
    assert abs(diag["rel_error"]) < 0.05


def test_output_deterministic_modulo_wall_time(capsys, ball_file):
    argv = ["crofton", "--body", ball_file, "--n", "30000", "--seed", "5"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    strip = lambda s: re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": X', s)
    assert strip(out1) == strip(out2)
    _, out3, _ = run_cli(capsys, argv + ["--threads", "3"])
    r1, r3 = json.loads(out1), json.loads(out3)
    assert r1["result"]["value"] == r3["result"]["value"]


def test_main_reuses_one_parser_without_leaking_options(capsys, ball_file):
    assert cli.build_parser() is not cli.build_parser()
    plain = ["crofton", "--body", ball_file, "--n", "20000", "--seed", "5"]
    cli._parser.cache_clear()
    _, fresh, _ = run_cli(capsys, plain)
    code, _, _ = run_cli(capsys, plain + ["--method", "grid", "--resolution", "8"])
    assert code in (0, 4)
    _, again, _ = run_cli(capsys, plain)
    assert cli._parser() is cli._parser()
    assert json.loads(again)["result"]["method"] == "mc"
    strip = lambda s: re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": X', s)
    assert strip(again) == strip(fresh)


def test_csv_format(capsys, ball_file):
    code, out, _ = run_cli(
        capsys,
        ["chord-integral", "--body", ball_file, "--n", "20000", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli._ESTIMATE_CSV_FIELDS
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["command"] == "chord-integral"
    assert float(record["value"]) > 0.0
    assert int(record["n_samples"]) == 20000


def _key_tree(report):
    """The keys of a report at every depth: a dict maps each key to the
    tree of its value, a list of dicts becomes the list of their trees,
    and any other value is a leaf, None."""
    if isinstance(report, dict):
        return {key: _key_tree(value) for key, value in report.items()}
    if isinstance(report, list) and report and all(isinstance(v, dict) for v in report):
        return [_key_tree(value) for value in report]
    return None


_BALL_KEYS = dict.fromkeys(["kind", "center", "radius"])
_SAMPLING_KEYS = dict.fromkeys(["n", "seed", "stratify", "threads", "method"])
_RESULT_KEYS = dict.fromkeys(["value", "std_error", "ci95", "n_samples", "n_hits", "method"])
_SINGLE_KEYS = {
    "schema": None,
    "command": None,
    "body": _BALL_KEYS,
    "result": _RESULT_KEYS,
    "reference": dict.fromkeys(["value", "source"]),
    "diagnostics": dict.fromkeys(["rel_error", "z_score"]),
    "params": _SAMPLING_KEYS,
    "wall_time_s": None,
}
_ESTIMATE_HEADER = (
    "command,ell,value,std_error,ci_lo,ci_hi,n_samples,n_hits,seed,method,"
    "reference,rel_error,z_score"
)
# every estimate command's JSON key tree and CSV header, in full
_REPORT_SCHEMAS = {
    "crofton": ([], _SINGLE_KEYS, _ESTIMATE_HEADER),
    "crofton-grid": (
        ["--method", "grid"],
        {**_SINGLE_KEYS, "params": {**_SAMPLING_KEYS, "resolution": None}},
        _ESTIMATE_HEADER,
    ),
    "chord-integral": ([], _SINGLE_KEYS, _ESTIMATE_HEADER),
    "kinematic": ([], {**_SINGLE_KEYS, "params": {**_SAMPLING_KEYS, "ell": None}}, _ESTIMATE_HEADER),
    "mean-chord": ([], _SINGLE_KEYS, _ESTIMATE_HEADER),
    "containment": (
        [],
        {
            **{k: v for k, v in _SINGLE_KEYS.items() if k != "body"},
            "inner": _BALL_KEYS,
            "outer": _BALL_KEYS,
            "params": {**_SAMPLING_KEYS, "ell": None},
        },
        _ESTIMATE_HEADER,
    ),
    "sweep": (
        ["--ell-list", "0,0.5"],
        {
            "schema": None,
            "command": None,
            "body": _BALL_KEYS,
            "rows": [{**_RESULT_KEYS, "ell": None, "reference": None}] * 2,
            "fit": dict.fromkeys(["slope", "intercept", "slope_reference", "intercept_reference"]),
            "params": {**_SAMPLING_KEYS, "ell_list": None},
            "wall_time_s": None,
        },
        _ESTIMATE_HEADER,
    ),
    "invariance": (
        [],
        {
            "schema": None,
            "command": None,
            "body": _BALL_KEYS,
            "rows": [
                dict.fromkeys(
                    [
                        "quantity",
                        "value_original",
                        "se_original",
                        "value_transformed",
                        "se_transformed",
                        "z",
                    ]
                )
            ]
            * 3,
            "passed": None,
            "params": {**_SAMPLING_KEYS, "motion": None, "threshold": None},
            "wall_time_s": None,
        },
        "quantity,value_original,se_original,value_transformed,se_transformed,z",
    ),
}


@pytest.mark.parametrize("name", list(_REPORT_SCHEMAS))
def test_estimate_report_schemas(capsys, tmp_path, ball_file, name):
    # no estimate command drops or adds a report field or a CSV column
    flags, keys, header = _REPORT_SCHEMAS[name]
    if name == "containment":
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 0.5}))
        argv = ["containment", "--inner", str(inner), "--outer", ball_file]
    else:
        argv = ["crofton" if name == "crofton-grid" else name, "--body", ball_file]
    argv += [*flags, "--n", "4000"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert _key_tree(report) == keys
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0 and out.splitlines()[0] == header
    # the CSV rows hold the JSON report's values, cell for cell
    rows = list(csv.DictReader(io.StringIO(out)))
    expected = _csv_cells(report)
    assert [{key: row[key] for key in cells} for row, cells in zip(rows, expected)] == expected
    assert len(rows) == len(expected)


def _csv_cells(report):
    """The cells of each CSV row that a JSON report holds, as the CSV
    writer spells them: an estimate's interval is ci_lo and ci_hi, and a
    null is an empty cell.  A sweep's rows carry no diagnostics, so only
    their CSV rows give rel_error and z_score."""
    if report["command"] == "invariance":
        return [{key: _cell(value) for key, value in row.items()} for row in report["rows"]]
    params = report["params"]
    estimates = report.get("rows") or [
        {
            **report["result"],
            **report["diagnostics"],
            "ell": params.get("ell"),
            "reference": report["reference"]["value"],
        }
    ]
    rows = []
    for est in estimates:
        cells = {**est, "command": report["command"], "seed": params["seed"]}
        cells["ci_lo"], cells["ci_hi"] = cells.pop("ci95")
        rows.append({key: _cell(value) for key, value in cells.items()})
    return rows


def _cell(value):
    return "" if value is None else str(value)


def test_kinematic_and_grid_method(capsys, ball_file):
    code, out, _ = run_cli(
        capsys,
        ["kinematic", "--body", ball_file, "--ell", "0.5", "--n", "50000"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["params"]["ell"] == 0.5
    code, out, _ = run_cli(
        capsys,
        [
            "crofton",
            "--body",
            ball_file,
            "--method",
            "grid",
            "--resolution",
            "48",
            "--n",
            "1",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["method"] == "grid"
    assert abs(report["diagnostics"]["rel_error"]) < 0.05
    assert report["params"]["resolution"] == 48
    # the default resolution, round(n^(1/3)), is reported as used
    code, out, _ = run_cli(
        capsys, ["crofton", "--body", ball_file, "--method", "grid", "--n", "5000"]
    )
    assert code == 0 and json.loads(out)["params"]["resolution"] == 17
    code, out, _ = run_cli(capsys, ["crofton", "--body", ball_file, "--n", "5000"])
    assert code == 0 and "resolution" not in json.loads(out)["params"]


def test_mean_chord_command(capsys, ball_file):
    code, out, _ = run_cli(
        capsys, ["mean-chord", "--body", ball_file, "--n", "50000"]
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["result"]["value"] - 1.198) < 0.05


def test_containment_command(capsys, tmp_path, ball_file):
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 0.5}))
    code, out, _ = run_cli(
        capsys,
        [
            "containment",
            "--inner",
            str(inner),
            "--outer",
            ball_file,
            "--ell",
            "0",
            "--n",
            "50000",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["result"]["value"] - 0.125) < 0.02
    # violated nesting is a configuration error
    outside = tmp_path / "outside.json"
    outside.write_text(
        json.dumps({"kind": "ball", "center": [0, 0, 50], "radius": 0.5})
    )
    code, _, err = run_cli(
        capsys,
        [
            "containment",
            "--inner",
            str(outside),
            "--outer",
            ball_file,
            "--ell",
            "0",
            "--n",
            "1000",
        ],
    )
    assert code == 2
    assert "contained" in err


def test_invariance_command(capsys, box_file):
    code, out, _ = run_cli(
        capsys,
        [
            "invariance",
            "--body",
            box_file,
            "--motion",
            "0.3,0.1,-0.2,0.5",
            "--n",
            "40000",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["rows"]) == 3
    for row in report["rows"]:
        assert abs(row["z"]) < 4.0


def test_sweep_command(capsys, ball_file):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--body", ball_file, "--n", "100000", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli._ESTIMATE_CSV_FIELDS
    assert len(rows) == 4
    assert [r[1] for r in rows[1:]] == ["0.0", "0.5", "1.0"]

    code, out, _ = run_cli(
        capsys, ["sweep", "--body", ball_file, "--n", "100000"]
    )
    report = json.loads(out)
    fit = report["fit"]
    ball = cli.Ball((0, 0, 0), 1.0)
    assert abs(fit["slope"] - fit["slope_reference"]) < 0.05 * fit["slope_reference"]
    assert (
        abs(fit["intercept"] - fit["intercept_reference"])
        < 0.02 * fit["intercept_reference"]
    )
    assert fit["slope_reference"] == pytest.approx(2.0 * p_area(ball).value)
    assert fit["intercept_reference"] == pytest.approx(
        2.0 * math.pi * volume(ball).value
    )

    # the fit is the line measure and chord integral of the sweep's lines,
    # so a single or repeated length still recovers both coefficients
    slope = estimate_line_measure(ball, 100000, DEFAULT_SEED, reference=None)
    intercept = estimate_chord_integral(ball, 100000, DEFAULT_SEED, reference=None)
    for ell_list in ("1", "0.5,0.5,0.5"):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--body", ball_file, "--n", "100000", "--ell-list", ell_list],
        )
        assert code == 0
        fit = json.loads(out)["fit"]
        assert (fit["slope"], fit["intercept"]) == (slope.value, intercept.value)


def test_sweep_rows_match_standalone_commands(capsys, box_file):
    # each row of a sweep is the kinematic report at its length, and its
    # fit is the crofton and chord-integral reports, bitwise; each of
    # those commands loads its own body and so draws its own pass
    ells = [0.0, 0.5, 1.0, 0.5]
    runs = {}
    for threads in ("1", "2"):
        common = ["--body", box_file, "--n", str(3 * BLOCK + 17), "--seed", "101"]
        common += ["--threads", threads]

        def report(*argv):
            code, out, _ = run_cli(capsys, [*argv, *common])
            assert code == 0
            return json.loads(out)

        sweep = report("sweep", "--ell-list", ",".join(map(str, ells)))
        assert sweep["params"]["ell_list"] == ells
        for ell, row in zip(ells, sweep["rows"], strict=True):
            kinematic = report("kinematic", "--ell", str(ell))
            reference = kinematic["reference"]["value"]
            assert row == {**kinematic["result"], "ell": ell, "reference": reference}
        fit = sweep["fit"]
        for name, command in (("slope", "crofton"), ("intercept", "chord-integral")):
            standalone = report(command)
            assert fit[name] == standalone["result"]["value"]
            assert fit[f"{name}_reference"] == standalone["reference"]["value"]
        # the law is linear in ell line by line: each row is the chord
        # integral plus ell times the line measure of the same lines
        for ell, row in zip(ells, sweep["rows"]):
            line = fit["intercept"] + ell * fit["slope"]
            assert row["value"] == pytest.approx(line, rel=1e-14)
        runs[threads] = (sweep["rows"], fit)
    assert runs["1"] == runs["2"]


def test_out_file(tmp_path, capsys, ball_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["volume", "--body", ball_file, "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["command"] == "volume"


def test_config_errors(capsys, tmp_path, ball_file):
    missing = str(tmp_path / "nope.json")
    code, _, err = run_cli(capsys, ["volume", "--body", missing])
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["volume", "--body", str(bad)])
    assert code == 2 and "not valid JSON" in err

    unknown_field = tmp_path / "extra.json"
    unknown_field.write_text(
        json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1.0, "color": "red"})
    )
    code, _, err = run_cli(capsys, ["volume", "--body", str(unknown_field)])
    assert code == 2 and "unknown fields" in err

    unknown_kind = tmp_path / "kind.json"
    unknown_kind.write_text(json.dumps({"kind": "torus", "center": [0, 0, 0]}))
    code, _, err = run_cli(capsys, ["volume", "--body", str(unknown_kind)])
    assert code == 2 and "unknown body kind" in err

    negative = tmp_path / "neg.json"
    negative.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": -1}))
    code, _, err = run_cli(capsys, ["volume", "--body", str(negative)])
    assert code == 2 and "positive" in err

    thin = tmp_path / "thin.json"
    thin.write_text(
        json.dumps({"kind": "polytope", "halfspaces": [[1, 0, 0, 1], [-1, 0, 0, 0]]})
    )
    code, _, err = run_cli(capsys, ["volume", "--body", str(thin)])
    assert code == 2 and "halfspaces" in err

    code, _, err = run_cli(
        capsys, ["invariance", "--body", ball_file, "--motion", "1,2,3"]
    )
    assert code == 2 and "motion" in err

    code, _, err = run_cli(
        capsys, ["sweep", "--body", ball_file, "--ell-list", "0,-1"]
    )
    assert code == 2

    code, _, err = run_cli(
        capsys, ["kinematic", "--body", ball_file, "--ell", "-0.5", "--n", "1000"]
    )
    assert code == 2

    # a sample where no line hits the body has no ratio estimate
    code, _, err = run_cli(capsys, ["mean-chord", "--body", ball_file, "--n", "1"])
    assert code == 2 and "no line of the sample meets the body" in err
    code, _, err = run_cli(
        capsys,
        ["containment", "--inner", ball_file, "--outer", ball_file, "--n", "1"],
    )
    assert code == 2 and "no line of the sample meets the body" in err

    with pytest.raises(SystemExit) as exc:
        main(["crofton", "--body", ball_file, "--n", "0"])
    assert exc.value.code == 2
    # the measure commands take no sampling flags
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--body", ball_file, "--n", "5"])
    assert exc.value.code == 2


_BAD_INPUTS = {
    "array": ('[{"kind": "ball", "center": [0, 0, 0], "radius": 1}]', ["volume"]),
    "missing-field": ('{"kind": "ball", "center": [0, 0, 0]}', ["volume"]),
    "short-center": ('{"kind": "ball", "center": [0, 0], "radius": 1}', ["volume"]),
    "string-coordinate": ('{"kind": "ball", "center": [0, "a", 0], "radius": 1}', ["volume"]),
    "nan-radius": ('{"kind": "ball", "center": [0, 0, 0], "radius": NaN}', ["volume"]),
    "zero-semi-axis": (
        '{"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 0, 1]}', ["volume"]
    ),
    "flat-box": ('{"kind": "box", "min": [0, 0, 0], "max": [1, 0, 1]}', ["volume"]),
    "short-halfspace": (
        '{"kind": "polytope", "halfspaces": '
        '[[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 1]]}',
        ["volume"],
    ),
    "unbounded-polytope": (
        '{"kind": "polytope", "halfspaces": '
        '[[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1], [0, -1, 0, 1]]}',
        ["volume"],
    ),
    "motion-of-three": (None, ["invariance", "--n", "1000", "--motion", "1,2,3"]),
    "motion-of-letters": (None, ["invariance", "--n", "1000", "--motion", "a,b,c,d"]),
    "ell-list-letter": (None, ["sweep", "--n", "1000", "--ell-list", "x"]),
    "ell-list-negative": (None, ["sweep", "--n", "1000", "--ell-list", "-1"]),
    # options the method would ignore
    "grid-stratify": (None, ["crofton", "--method", "grid", "--resolution", "16", "--stratify"]),
    "mc-resolution": (None, ["crofton", "--n", "5000", "--resolution", "-3"]),
    # 1e6^3 lattice points, refused before any allocation
    "voxel-resolution-huge": (None, ["volume", "--method", "voxel", "--resolution", "1000000"]),
    # a report path that cannot be opened for writing
    "unwritable-out": (None, ["volume", "--out", os.path.join(os.devnull, "report.json")]),
    # a body or a motion near the float range: refused with no numpy warning
    "vast-ball-crofton": (
        '{"kind": "ball", "center": [0, 0, 0], "radius": 1e200}', ["crofton", "--n", "1000"]
    ),
    "motion-overflow": (None, ["invariance", "--n", "1000", "--motion", "1e200,0,0,0"]),
}

# every body-file number is a JSON number: a numeric string, a boolean
# (an int to Python) and an integer beyond the float range are each
# rejected in every body kind, not converted
_BAD_NUMBERS = {"string": '"1e1"', "boolean": "true", "huge-integer": "1" + "0" * 400}
_BODY_TEMPLATES = {
    "ball": '{{"kind": "ball", "center": [0, 0, 0], "radius": {}}}',
    "ellipsoid": '{{"kind": "ellipsoid", "center": [{}, 0, 0], "semi_axes": [1, 1, 1]}}',
    "box": '{{"kind": "box", "min": [0, 0, 0], "max": [1, {}, 1]}}',
    "polytope": (
        '{{"kind": "polytope", "halfspaces": [[1, 0, 0, 1], [-1, 0, 0, 1], '
        '[0, 1, 0, 1], [0, -1, 0, 1], [0, 0, 1, {}], [0, 0, -1, 1]]}}'
    ),
}
_BAD_INPUTS.update(
    (f"{kind}-{label}", (template.format(number), ["volume"]))
    for kind, template in _BODY_TEMPLATES.items()
    for label, number in _BAD_NUMBERS.items()
)


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_is_a_configuration_error(capsys, tmp_path, ball_file, case):
    # a body file or flag that fails its check exits 2 with one error line
    # and writes no report
    text, argv = _BAD_INPUTS[case]
    body = ball_file
    if text is not None:
        body = str(tmp_path / "body.json")
        with open(body, "w", encoding="utf-8") as fh:
            fh.write(text)
    code, out, err = run_cli(capsys, [argv[0], "--body", body, *argv[1:]])
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and out == ""


def test_ellipsoid_body_file(capsys, tmp_path):
    path = tmp_path / "ellipsoid.json"
    path.write_text(
        json.dumps({"kind": "ellipsoid", "center": [0.1, 0, 0.2], "semi_axes": [1, 0.8, 1.2]})
    )
    for argv in (["volume"], ["p-area"], ["crofton", "--n", "1000"]):
        code, out, _ = run_cli(capsys, [argv[0], "--body", str(path), *argv[1:]])
        assert code == 0 and json.loads(out)["body"]["kind"] == "ellipsoid"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_is_a_configuration_error(capsys, ball_file, monkeypatch, tol):
    # rejected before any quadrature runs, not reported as a tolerance
    # failure after it
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a bad --tol reached the quadrature")

    monkeypatch.setattr(measures, "_refine", no_quadrature)
    for oracle in ([], ["--oracle"]):
        code, out, err = run_cli(capsys, ["p-area", "--body", ball_file, "--tol", tol, *oracle])
        assert code == 2 and out == "" and "rel_tol" in err


def test_resolution_zero_is_rejected(capsys, ball_file):
    # 0 is a resolution, not "not given": it must not fall back to the
    # default grid or the 128-cell voxel oracle
    for argv in (
        ["crofton", "--body", ball_file, "--method", "grid"],
        ["volume", "--body", ball_file, "--method", "voxel"],
    ):
        for res in ("0", "1"):
            code, out, err = run_cli(capsys, argv + ["--resolution", res])
            assert code == 2 and out == "" and "resolution" in err


def test_capability_exit_code(capsys, ball_file, monkeypatch):
    def boom(*args, **kwargs):
        raise CapabilityError("unsupported body for this operation")

    monkeypatch.setattr(cli, "volume", boom)
    code, _, err = run_cli(capsys, ["volume", "--body", ball_file])
    assert code == 3
    assert "unsupported" in err


# each estimate command and the estimator it reports
_ESTIMATORS = {
    "crofton": "estimate_line_measure",
    "kinematic": "estimate_segment_hit_measure",
    "mean-chord": "estimate_mean_chord",
    "containment": "containment_probability",
}


@pytest.mark.parametrize("command", list(_ESTIMATORS))
def test_tolerance_exit_codes(capsys, ball_file, monkeypatch, command):
    def bad_quadrature(*args, **kwargs):
        raise QuadratureError("did not converge")

    monkeypatch.setattr(cli, "p_area", bad_quadrature)
    code, _, err = run_cli(capsys, ["p-area", "--body", ball_file])
    assert code == 4 and "converge" in err

    def skewed(*args, **kwargs):
        n = args[-1]
        return EstimateResult(
            value=30.0,
            std_error=0.1,
            ci95=(29.8, 30.2),
            n_samples=n,
            n_hits=n // 2,
            seed=kwargs.get("seed", 0),
            method="mc",
            reference=20.0,
            reference_source="2 * measures.p_area(body)",
        )

    monkeypatch.setattr(cli, _ESTIMATORS[command], skewed)
    if command == "containment":
        bodies = ["--inner", ball_file, "--outer", ball_file]
    else:
        bodies = ["--body", ball_file]
    code, out, _ = run_cli(capsys, [command, *bodies, "--n", "1000"])
    assert code == 4
    report = json.loads(out)
    assert "tolerance_failure" in report
    assert "standard errors" in report["tolerance_failure"]


def test_grid_estimates_are_gated_by_their_own_error_law(capsys, ball_file, monkeypatch):
    # a grid z follows Student's t with 15 degrees of freedom: this seed's
    # z = 4.19 lies past Monte Carlo's gate of 4 but inside the grid's 5.48
    grid = ["--method", "grid", "--resolution", "32"]
    argv = ["crofton", "--body", ball_file]
    code, out, _ = run_cli(capsys, [*argv, *grid, "--seed", "1064"])
    report = json.loads(out)
    assert round(report["diagnostics"]["z_score"], 2) == 4.19
    assert code == 0 and "tolerance_failure" not in report

    real = cli.estimate_line_measure

    def shifted(z):
        # the estimate with its reference moved to put it z errors off
        def estimate(*args, **kwargs):
            est = real(*args, **kwargs)
            return dataclasses.replace(est, reference=est.value - z * est.std_error)

        return estimate

    for method, z, gate, code_expected in (
        ("grid", 5.5, 5.48, 4),
        ("grid", -4.5, 5.48, 0),
        ("mc", 4.5, 4.0, 4),
        ("mc", -3.9, 4.0, 0),
    ):
        monkeypatch.setattr(cli, "estimate_line_measure", shifted(z))
        sampling = grid if method == "grid" else ["--method", "mc"]
        code, out, _ = run_cli(capsys, [*argv, *sampling, "--n", "4096"])
        report = json.loads(out)
        assert code == code_expected, (method, z)
        if code:
            assert report["tolerance_failure"].endswith(f"(gate {gate})")
        else:
            assert "tolerance_failure" not in report


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: bare {name}")


def test_reports_are_strict_json(capsys, ball_file, monkeypatch):
    # an estimate without an error bar that misses its reference has an
    # infinite z score: null in JSON, an empty cell in CSV, and a failed
    # gate
    def exact_but_off(body, n, **kwargs):
        return EstimateResult(
            value=21.0,
            std_error=0.0,
            ci95=(21.0, 21.0),
            n_samples=n,
            n_hits=n // 2,
            seed=kwargs["seed"],
            method="grid",
            reference=20.0,
            reference_source="2 * measures.p_area(body)",
        )

    monkeypatch.setattr(cli, "estimate_line_measure", exact_but_off)
    argv = ["crofton", "--body", ball_file, "--method", "grid"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 4
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["diagnostics"]["z_score"] is None
    assert "tolerance_failure" in report
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 4
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row))["z_score"] == ""

    def exact_but_different(body, motion, n, **kwargs):
        row = InvarianceRow("line_measure", 1.0, 0.0, 2.0, 0.0, math.inf)
        return InvarianceReport(motion, n, kwargs["seed"], 4.0, [row])

    monkeypatch.setattr(cli, "invariance_check", exact_but_different)
    code, out, _ = run_cli(capsys, ["invariance", "--body", ball_file])
    assert code == 4
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["rows"][0]["z"] is None and report["passed"] is False


def test_a_missed_estimate_without_an_error_bar_has_the_sign_of_its_miss(capsys, ball_file):
    # one line, which misses the ball: 0 against 21.9665, with no error bar
    code, out, _ = run_cli(capsys, ["crofton", "--body", ball_file, "--n", "1"])
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 4 and report["result"]["value"] == 0.0
    assert report["diagnostics"]["z_score"] is None
    assert " by -inf standard errors " in report["tolerance_failure"]


def test_overflowing_estimates_leave_a_strict_report(capsys, ball_file):
    # at ell = 1e300 the error term c^T G c overflows, at 1e308 the value
    # and its reference do too: those fields are null in JSON and empty in
    # CSV, and the gate fails
    argv = ["kinematic", "--body", ball_file, "--n", "1000", "--ell"]
    code, out, _ = run_cli(capsys, argv + ["1e300"])
    assert code == 4 and "tolerance_failure" in out
    report = json.loads(out, parse_constant=_reject_constant)
    result = report["result"]
    assert result["value"] > 0.0 and report["reference"]["value"] > 0.0
    assert result["std_error"] is None and result["ci95"] == [None, None]
    assert report["diagnostics"]["z_score"] is None

    code, out, _ = run_cli(capsys, argv + ["1e308"])
    assert code == 4
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["result"]["value"] is None and report["reference"]["value"] is None
    assert report["diagnostics"] == {"rel_error": None, "z_score": None}
    code, out, _ = run_cli(capsys, argv + ["1e308", "--format", "csv"])
    assert code == 4
    header, row = csv.reader(io.StringIO(out))
    row = dict(zip(header, row))
    assert row["value"] == row["std_error"] == row["ci_lo"] == row["reference"] == ""
    assert row["n_hits"] != ""

    sweep = ["sweep", "--body", ball_file, "--n", "1000", "--ell-list", "1,1e308"]
    code, out, _ = run_cli(capsys, sweep)
    assert code == 4
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert rows[0]["value"] > 0.0 and rows[1]["value"] is None
    assert rows[1]["reference"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_pass_sums_leave_a_strict_report(capsys, tmp_path, ball_file):
    # at ell = 1e300 the pass's products of per-line values overflow; that
    # gives an estimate without an error bar, not a numpy warning
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 0.3}))
    argv = ["containment", "--inner", str(small), "--outer", ball_file]
    code, out, err = run_cli(capsys, argv + ["--ell", "1e300", "--n", "1000"])
    assert code == 4 and "tolerance_failure" in out and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert 0.0 < report["result"]["value"] < 1.0
    assert report["result"]["std_error"] is None
    assert report["diagnostics"]["z_score"] is None
    # at ell = 1e308 the sums themselves are infinite: the ratio of their
    # means is nan, reported as null, again with no numpy warning
    code, out, err = run_cli(capsys, argv + ["--ell", "1e308", "--n", "1000"])
    assert code == 4 and "tolerance_failure" in out and err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["result"]["value"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_measures_leave_a_strict_report(capsys, tmp_path):
    # the volume of a ball of radius 1e200 overflows, exactly and on the
    # voxel lattice, and so does the p-Area of a box whose volume, 1e306,
    # is finite: each is a null value and a failed gate, with no warning
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1e200}))
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"kind": "box", "min": [0, 0, 0], "max": [1e102] * 3}))
    for argv in (
        ["volume", "--body", str(ball)],
        ["volume", "--body", str(ball), "--method", "voxel"],
        ["p-area", "--body", str(box)],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 4 and "tolerance_failure" in out and err == "", argv
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["result"]["value"] is None, argv
    code, out, _ = run_cli(capsys, ["volume", "--body", str(box)])
    assert code == 0 and json.loads(out)["result"]["value"] == 1e306
    # a charted p-Area that is not finite fails at its first level, not
    # after refining to the last
    ball.write_text(json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1e102}))
    for oracle in ([], ["--oracle"]):
        code, out, err = run_cli(capsys, ["p-area", "--body", str(ball), *oracle])
        assert code == 4 and out == ""
        assert f"not finite at resolution {measures._MIN_RESOLUTION} " in err


def test_polytope_commands_load_no_scipy(tmp_path):
    # the runtime needs numpy only: a fresh process that builds a polytope
    # and runs two commands on it imports no scipy module
    poly = tmp_path / "poly.json"
    cube = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]]
    poly.write_text(json.dumps({"kind": "polytope", "halfspaces": cube + [[1, 1, 1, 2.5]]}))
    script = (
        "import sys\n"
        "from h1geom.cli import main\n"
        f"assert main(['crofton', '--body', {str(poly)!r}, '--n', '4000']) == 0\n"
        f"assert main(['p-area', '--body', {str(poly)!r}]) == 0\n"
        "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"schema": "h1geom.report/1"') == 2


def test_oversized_grid_is_a_configuration_error(capsys, ball_file):
    # 10^15 lines: refused before any line is drawn
    argv = ["crofton", "--body", ball_file, "--method", "grid"]
    code, out, err = run_cli(capsys, argv + ["--resolution", "100000"])
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        "crofton --body BODY",
        "crofton --body BODY --method grid",
        "sweep --body BODY --ell-list 0,1",
        "invariance --body BODY",
        "containment --inner BODY --outer BODY",
    ],
    ids=["crofton", "crofton-grid", "sweep", "invariance", "containment"],
)
def test_oversized_sample_count_is_a_configuration_error(capsys, ball_file, command):
    # a pass lists its blocks before it draws a line, so a count beyond
    # 2^32 is refused up front, never allocated (10^400 is past the float
    # range that the grid's default resolution is computed in)
    argv = [ball_file if word == "BODY" else word for word in command.split()]
    for n in (str((1 << 32) + 1), "1" + "0" * 20, "1" + "0" * 400):
        code, out, err = run_cli(capsys, argv + ["--n", n])
        assert code == 2 and out == "" and "2^32" in err, (n, err)
