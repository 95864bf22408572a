"""Command-line interface: reports, formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import h1geom.cli as cli
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

    code, out, _ = run_cli(
        capsys, ["p-area", "--body", ball_file, "--oracle", "--resolution", "128"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["method"] == "triangulation-oracle"
    assert abs(report["result"]["value"] - quad_value) < 0.01 * quad_value


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
    for path in (box_file, str(poly_file)):
        code, out, _ = run_cli(capsys, ["p-area", "--body", path])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["method"] == "exact"
        assert result["resolution"] == 0 and result["error_estimate"] == 0.0

        code, out, _ = run_cli(
            capsys, ["p-area", "--body", path, "--oracle", "--resolution", "128"]
        )
        assert code == 0
        oracle = json.loads(out)["result"]["value"]
        assert abs(oracle - result["value"]) < 0.01 * result["value"]


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
    assert code == 2 and "no hits" in err
    code, _, err = run_cli(
        capsys,
        ["containment", "--inner", ball_file, "--outer", ball_file, "--n", "1"],
    )
    assert code == 2 and "no hits" in err

    with pytest.raises(SystemExit) as exc:
        main(["crofton", "--body", ball_file, "--n", "0"])
    assert exc.value.code == 2
    # the measure commands take no sampling flags
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--body", ball_file, "--n", "5"])
    assert exc.value.code == 2


def test_resolution_zero_is_rejected(capsys, ball_file):
    # 0 is a resolution, not "not given": it must not fall back to the
    # default grid or the 128-cell oracles
    for argv in (
        ["crofton", "--body", ball_file, "--method", "grid"],
        ["volume", "--body", ball_file, "--method", "voxel"],
        ["p-area", "--body", ball_file, "--oracle"],
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
