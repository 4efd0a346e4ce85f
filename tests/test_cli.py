"""End-to-end command-line checks, run in process via main(argv)."""

import dataclasses
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bnball import cli, shooting
from bnball.bubble import constants
from bnball.model import IntegrationFailed, Params


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def csv_text(records):
    """The CSV a sweep writes for solved records, built cell by cell."""
    lines = [",".join(cli.CSV_HEADER)]
    for record in records:
        row = cli.record_to_dict(record)
        cells = [cli._fmt_number(row[name]) for name in cli.CSV_COLUMNS]
        lines.append(",".join(cells + [""]))
    return "\n".join(lines) + "\n"


def one_row_csv(**overrides):
    """A records CSV of one row: valid nodal features, updated by
    `overrides`, and every other cell 1.0."""
    valid = dict(
        r_lambda=0.5, s_lambda=0.75, m_plus=1.0, m_minus=0.125, du_node=-1.0,
        du_boundary=1.0, sigma=0.5, rho=0.2, gamma=0.3,
    )
    row = {**dict.fromkeys(cli.CSV_COLUMNS, 1.0), **valid, **overrides}
    cells = [repr(float(row[name])) for name in cli.CSV_COLUMNS]
    return ",".join(cli.CSV_HEADER) + "\n" + ",".join(cells + [""]) + "\n"


def test_constants_payload_and_determinism(capsys):
    rc1, out1 = run(capsys, "constants", "--n", "7")
    rc2, out2 = run(capsys, "constants", "--n", "7")
    assert rc1 == rc2 == cli.EXIT_PASS
    assert out1 == out2  # byte-identical reruns
    payload = json.loads(out1)
    cst = constants(7)
    assert payload["n"] == 7
    assert payload["c1"] == cst.c1
    assert payload["c3"] == cst.c3
    assert payload["lambda1"] == cst.lambda1


def test_constants_invalid_dimension(capsys):
    rc, out = run(capsys, "constants", "--n", "4")
    assert rc == cli.EXIT_SOLVER
    assert json.loads(out)["error"] == "undefined-constants"


@pytest.mark.parametrize(
    "n, rc_expected", [(56, cli.EXIT_PASS), (400, cli.EXIT_SOLVER)]
)
def test_constants_high_dimension(capsys, n, rc_expected):
    """Past n = 55 the constants are still finite floats; once one is not,
    the dimension is undefined-constants, never a raw exception."""
    rc, out = run(capsys, "constants", "--n", str(n))
    assert rc == rc_expected
    payload = json.loads(out)
    if rc == cli.EXIT_PASS:
        assert all(math.isfinite(payload[name]) for name in payload)
    else:
        assert payload["error"] == "undefined-constants"
        assert "c1 is not a finite float" in payload["message"]


def test_sweep_high_dimension_writes_a_solved_row(capsys):
    """build_record needs constants(56); the point solves and is written."""
    rc, out = run(capsys, "sweep", "--n", "56", "--k", "1", "--lambda-grid", "1072")
    assert rc == cli.EXIT_PASS
    header, row = out.splitlines()
    cells = row.split(",")
    assert cells[0] == "1072.0"
    assert cells[-1] == ""
    assert math.isfinite(float(cells[cli.CSV_COLUMNS.index("green_dev")]))


def test_csv_header_frozen():
    assert cli.CSV_HEADER == (
        "lambda",
        "r_lambda",
        "s_lambda",
        "m_plus",
        "m_minus",
        "du_node",
        "du_boundary",
        "sigma",
        "rho",
        "gamma",
        "q1",
        "q2",
        "q3",
        "p1",
        "p2",
        "p3",
        "p4",
        "bubble_dev_plus",
        "bubble_dev_minus",
        "green_dev",
        "green_grad_dev",
        "energy",
        "nehari",
        "pohozaev_ball",
        "pohozaev_annulus",
        "error",
    )


def test_solve_payload(capsys):
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2", "--k", "2")
    assert rc == cli.EXIT_PASS
    payload = json.loads(out)
    assert sorted(payload) == [
        "a_star",
        "events",
        "features",
        "k",
        "lambda",
        "n",
        "profile",
        "residuals",
    ]
    assert payload["n"] == 7 and payload["k"] == 2
    assert payload["a_star"] > 0.0
    f = payload["features"]
    assert 0.0 < f["r_lambda"] < f["s_lambda"] < 1.0
    prof = payload["profile"]
    assert len(prof["knots"]) == len(prof["values"]) == len(prof["derivs"])
    assert any(e["kind"] == "zero-crossing" for e in payload["events"])
    assert abs(payload["residuals"]["nehari"]) < 1e-6


def test_solve_loose_rtol_certifies(capsys):
    """At rtol=1e-8 the boundary zero lands within ~1e-9 of r=1, well
    inside the 1e-6 bound on the Pruefer offset, so the solve certifies
    with one interior zero."""
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2", "--rtol", "1e-8")
    assert rc == cli.EXIT_PASS
    zeros = [
        e["r"] for e in json.loads(out)["events"] if e["kind"] == "zero-crossing"
    ]
    assert len([r for r in zeros if r < 1.0 - 1e-6]) == 1


def test_solve_rtol_below_solver_floor_is_raised_to_it(capsys):
    """solve_ivp runs no rtol below 100 eps; a smaller --rtol is raised to
    it for the whole solve, without a warning, so the output equals that
    of --rtol 100 eps."""
    outputs = []
    for rtol in ("1e-16", repr(100 * sys.float_info.epsilon)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2", "--rtol", rtol)
        assert rc == cli.EXIT_PASS
        assert not caught, [str(w.message) for w in caught]
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--lambda", "2"),
        ("sweep", "--lambda-grid", "2,1"),
        ("constants",),
    ],
)
def test_invalid_dimension_is_solver_error(capsys, argv):
    rc, out = run(capsys, *argv, "--n", "2")
    assert rc == cli.EXIT_SOLVER
    assert json.loads(out)["error"] == "invalid-dimension"


@pytest.mark.parametrize("lam", ["-1", "0"])
def test_solve_nonpositive_lambda_has_one_code(capsys, lam):
    """A negative lambda fails with the code of lambda = 0."""
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", lam)
    assert rc == cli.EXIT_SOLVER
    assert json.loads(out)["error"] == "nonpositive-lambda"


def test_solve_missing_dimension_is_usage_error(capsys):
    rc = cli.main(["solve", "--lambda", "2"])
    capsys.readouterr()
    assert rc == cli.EXIT_CONFIG


def test_solve_reports_solver_failure(capsys):
    rc, out = run(capsys, "solve", "--n", "4", "--lambda", "0.5")
    assert rc == cli.EXIT_SOLVER
    payload = json.loads(out)
    assert payload["error"] == "no-bracket-found"
    assert "lambda=0.5" in payload["message"]
    report = payload["report"]
    assert report["a_range_searched"] == [1e-3, 1e30]
    assert 0 < report["evaluations"] <= 20


@pytest.mark.parametrize("argv, code", [
    pytest.param(["--n", "7", "--lambda", "2", "--atol", "1e3"],
                 "no-bracket-found", id="n7-lam2"),
    pytest.param(["--n", "8", "--lambda", "2", "--atol", "1e5"],
                 "no-bracket-found", id="n8-lam2"),
    pytest.param(["--n", "7", "--lambda", "0.5", "--atol", "1e2"],
                 "no-bracket-found", id="n7-lam0.5"),
    pytest.param(["--n", "7", "--lambda", "2", "--k", "1", "--atol", "1e3"],
                 "no-bracket-found", id="n7-lam2-k1"),
    pytest.param(["--n", "7", "--lambda", "2", "--rtol", "1", "--atol", "1"],
                 "certification-failed", id="n7-lam2-rtol1-atol1"),
])
def test_solve_loose_atol_failure_is_classified(capsys, argv, code):
    """A loose atol moves the zero-trust floor into the search: below it
    no zero can be told from noise, so the shot returns inf.  Where the
    root lies below the floor, the bracket closes on the floor itself;
    that is no bracket, named with the floor and the atol (at k=1 every
    amplitude below a = 3.1e28 is below it).  Where the root lies above
    the floor (a* ~ 4.6e18 at atol 1), the search converges on it and
    rtol 1 fails certification."""
    rc, out = run(capsys, "solve", *argv)
    assert rc == cli.EXIT_SOLVER
    payload = json.loads(out)
    assert payload["error"] == code
    if code == "no-bracket-found":
        assert "zero-trust floor" in payload["message"]
        assert f"atol={float(argv[-1]):g}" in payload["message"]


@pytest.mark.parametrize("argv, a_star, r_lambda, energy", [
    pytest.param(["--n", "5", "--lambda", "20.14776"], 3.9043e4, 0.1131, None, id="n5"),
    pytest.param(["--n", "6", "--lambda", "22.4"], 7.9253e4, 0.1595, 1201.135, id="n6"),
])
def test_solve_low_dimension_branch(capsys, argv, a_star, r_lambda, energy):
    """In dimensions 5 and 6 the k=2 branch exists only in a narrow window
    of amplitudes below lambda_1 (Atkinson, Brezis and Peletier, 1990); the
    search finds a certified solution there, at n=6 the one of lower
    action."""
    rc, out = run(capsys, "solve", *argv)
    assert rc == cli.EXIT_PASS
    payload = json.loads(out)
    assert payload["a_star"] == pytest.approx(a_star, rel=1e-4)
    assert payload["features"]["r_lambda"] == pytest.approx(r_lambda, abs=1e-4)
    if energy is not None:
        assert payload["residuals"]["energy"] == pytest.approx(energy, abs=5e-4)


def test_solve_below_the_low_dimension_branch(capsys):
    """At n=5 no k=2 solution exists below lambda = 20.10: no bracket."""
    rc, out = run(capsys, "solve", "--n", "5", "--lambda", "19.7")
    assert rc == cli.EXIT_SOLVER
    assert json.loads(out)["error"] == "no-bracket-found"


def test_solve_huge_dimension_is_a_solver_failure(capsys):
    """lambda_1 brackets its Bessel zero at n = 40,000; the solve then fails
    with a classified error."""
    rc, out = run(capsys, "solve", "--n", "40000", "--lambda", "1")
    assert rc == cli.EXIT_SOLVER
    assert json.loads(out)["error"] == "integration-failed"


def test_error_payload_carries_last_radius():
    exc = IntegrationFailed("integration failed", last_radius=0.25)
    assert json.loads(cli._error_payload(exc)) == {
        "error": "integration-failed",
        "message": "integration failed",
        "last_radius": 0.25,
    }


def test_sweep_empty_grid_writes_header_only(capsys, tmp_path):
    out_path = tmp_path / "empty.csv"
    rc, out = run(
        capsys, "sweep", "--n", "7", "--lambda-grid", "", "--out", str(out_path)
    )
    assert rc == cli.EXIT_PASS
    assert out_path.read_text() == ",".join(cli.CSV_HEADER) + "\n"
    assert "0/0 points solved" in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_success_path(capsys, monkeypatch, tmp_path, sweep7, records7, fmt):
    """The CLI sweep writes one record per solved point and seeds each solve
    from the branch tangent of the previous solves, handing on the slope
    the previous solve measured."""
    solutions = {p.lam: p.solution for p in sweep7}
    seeds, slopes = [], []

    def fake_solve(params, k, *, a_seed=1.0, slope=shooting._SLOPE, **options):
        seeds.append(a_seed)
        slopes.append(slope)
        return solutions[params.lam]

    monkeypatch.setattr(shooting, "solve_nodal", fake_solve)
    out_path = tmp_path / f"records.{fmt}"
    rc, out = run(
        capsys, "sweep", "--n", "7", "--lambda-grid", "4,2,1,0.5,0.25",
        "--format", fmt, "--out", str(out_path),
    )
    assert rc == cli.EXIT_PASS
    assert "5/5 points solved" in out
    if fmt == "csv":
        expected = csv_text(records7)
    else:
        rows = [cli.record_to_dict(r) for r in records7]
        expected = cli.canonical_json({"n": 7, "k": 2, "records": rows})
    assert out_path.read_text() == expected

    # x = log a* along t = log lambda has the tangent -(1 - m/beta)/(2m) at
    # measured slope m; from the third point on the seed adds half the
    # difference quotient of the tangent.
    t = [math.log(p.lam) for p in sweep7]
    x = [math.log(p.solution.a_star) for p in sweep7]
    m = [p.solution.slope for p in sweep7]
    assert all(0.03 < slope < 0.06 for slope in m)
    tangent = [-(1.0 - mi / Params(n=7, lam=1.0).beta) / (2.0 * mi) for mi in m]
    want = [1.0, math.exp(x[0] + tangent[0] * (t[1] - t[0]))]
    for i in (1, 2, 3):
        dt = t[i + 1] - t[i]
        curvature = (tangent[i] - tangent[i - 1]) / (t[i] - t[i - 1])
        want.append(math.exp(x[i] + tangent[i] * dt + 0.5 * curvature * dt * dt))
    assert seeds == pytest.approx(want, rel=1e-13, abs=0.0)
    assert slopes == [shooting._SLOPE] + m[:4]

    rc, out = run(capsys, "verify", str(out_path), "--n", "7")
    assert rc == cli.EXIT_PASS
    assert "overall: PASS" in out


def test_sweep_has_no_annulus_option(capsys):
    # The Green-comparison window is fixed by the sweep contract.
    rc, _ = run(
        capsys, "sweep", "--n", "7", "--lambda-grid", "", "--annulus", "0.3,0.7"
    )
    assert rc == cli.EXIT_CONFIG


_SWEEP_ARGS = ["sweep", "--n", "7", "--lambda-grid", "2"]
_SOLVE_ARGS = ["solve", "--n", "7", "--lambda", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        _SWEEP_ARGS + ["--parallel", "2"],
        _SWEEP_ARGS + ["--no-warm-start"],
        _SOLVE_ARGS + ["--residual-tol", "1e-3"],
        _SOLVE_ARGS + ["--boundary-tol", "1e-3"],
        _SWEEP_ARGS + ["--residual-tol", "1e-3"],
        _SWEEP_ARGS + ["--boundary-tol", "1e-3"],
    ],
    ids=[
        "parallel",
        "no-warm-start",
        "solve-residual-tol",
        "solve-boundary-tol",
        "sweep-residual-tol",
        "sweep-boundary-tol",
    ],
)
def test_sweep_has_no_cold_modes(capsys, argv):
    # A sweep follows one branch by warm continuation; there is no cold
    # per-point mode to select.  Nor do solve or sweep take tolerances
    # other than --rtol and --atol.
    rc, _ = run(capsys, *argv)
    assert rc == cli.EXIT_CONFIG


def test_sweep_rejects_increasing_grid(capsys):
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", "1,2")
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "config-parse-error"


def test_verify_missing_records_file(capsys, tmp_path):
    missing = tmp_path / "nope.csv"
    rc, out = run(capsys, "verify", str(missing), "--n", "7")
    assert rc == cli.EXIT_CONFIG
    payload = json.loads(out)
    assert payload["error"] == "file-io-error"
    assert "nope.csv" in payload["message"]


def test_out_path_in_missing_directory(capsys, tmp_path, records7):
    """An unwritable --out prints only the error payload, verify's table
    included."""
    records = tmp_path / "records.csv"
    records.write_text(csv_text(records7))
    target = str(tmp_path / "no" / "such" / "dir" / "c.json")
    for argv in (["constants", "--n", "7"], ["verify", str(records), "--n", "7"]):
        rc, out = run(capsys, *argv, "--out", target)
        assert rc == cli.EXIT_CONFIG
        assert json.loads(out)["error"] == "file-io-error"


def test_sweep_json_failure_rows(capsys):
    rc, out = run(
        capsys, "sweep", "--n", "4", "--lambda-grid", "0.5", "--format", "json"
    )
    assert rc == cli.EXIT_SOLVER
    payload = json.loads(out)
    assert payload["n"] == 4
    (row,) = payload["records"]
    assert row["error"] == "no-bracket-found"
    assert row["q1"] is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_failure_row(capsys, fmt):
    """A point that fails keeps its lambda and error code; every other
    cell is empty (CSV) or null (JSON)."""
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", "40", "--format", fmt)
    assert rc == cli.EXIT_SOLVER
    if fmt == "csv":
        cells = ["40.0"] + [""] * (len(cli.CSV_COLUMNS) - 1) + ["invalid-lambda"]
        assert out == ",".join(cli.CSV_HEADER) + "\n" + ",".join(cells) + "\n"
    else:
        (row,) = json.loads(out)["records"]
        assert row["lambda"] == 40.0
        assert row["error"] == "invalid-lambda"
        assert all(row[name] is None for name in cli.CSV_COLUMNS[1:])


def test_sweep_records_that_cannot_be_built_are_failure_rows(capsys):
    """At n=4 both k=1 points solve, but the bubble constants their
    records need are undefined there: each row keeps its lambda and
    undefined-constants, and with no row solved the sweep exits 3."""
    rc, out = run(capsys, "sweep", "--n", "4", "--k", "1", "--lambda-grid", "12,10")
    assert rc == cli.EXIT_SOLVER
    empty = [""] * (len(cli.CSV_COLUMNS) - 1) + ["undefined-constants"]
    assert out == "\n".join([",".join(cli.CSV_HEADER), ",".join(["12.0"] + empty),
                             ",".join(["10.0"] + empty)]) + "\n"


def test_verify_skips_failure_rows(capsys, tmp_path, records7):
    """verify reads a sweep CSV that holds a failed point as the same
    sweep without that row: the same table and the same report."""
    clean, report = tmp_path / "clean.csv", tmp_path / "clean.json"
    clean.write_text(csv_text(records7))
    failed = ",".join(["3.0"] + [""] * (len(cli.CSV_COLUMNS) - 1) + ["no-bracket-found"])
    lines = csv_text(records7).splitlines()
    holed, holed_report = tmp_path / "holed.csv", tmp_path / "holed.json"
    holed.write_text("\n".join(lines[:3] + [failed] + lines[3:]) + "\n")
    rc, out = run(capsys, "verify", str(clean), "--n", "7", "--out", str(report))
    assert rc == cli.EXIT_PASS
    assert run(capsys, "verify", str(holed), "--n", "7", "--out", str(holed_report)) == (
        rc, out.replace(str(report), str(holed_report)))
    assert holed_report.read_bytes() == report.read_bytes()
    assert len(cli.load_records(str(holed), 7)) == len(records7)


def test_verify_round_trip_csv(capsys, tmp_path, records7):
    path = tmp_path / "records.csv"
    path.write_text(csv_text(records7))

    report_path = tmp_path / "report.json"
    rc, out = run(
        capsys, "verify", str(path), "--n", "7", "--out", str(report_path)
    )
    assert rc == cli.EXIT_PASS
    assert "overall: PASS" in out
    report = json.loads(report_path.read_text())
    assert report["overall_pass"] is True
    assert report["n"] == 7


@pytest.mark.parametrize(
    "field, value", [("q1", math.nan), ("q2", 0.0)], ids=["nan-q1", "zero-q2"]
)
def test_verify_fails_identity_on_nan_or_zero_q2(
    capsys, tmp_path, records7, field, value
):
    records = list(records7)
    records[-1] = dataclasses.replace(records[-1], **{field: value})
    path = tmp_path / "records.csv"
    path.write_text(csv_text(records))
    rc, out = run(capsys, "verify", str(path), "--n", "7")
    assert rc == cli.EXIT_VERIFY
    assert "overall: FAIL" in out


def test_verify_needs_three_records(capsys, tmp_path, records7):
    path = tmp_path / "short.csv"
    path.write_text(csv_text(records7[:2]))
    rc, out = run(capsys, "verify", str(path), "--n", "7")
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "insufficient-records"


def test_verify_json_records_of_another_dimension(capsys, tmp_path, records7):
    """A JSON sweep of n=7 verified as n=8 is an input error naming both."""
    path = tmp_path / "sweep.json"
    rows = [cli.record_to_dict(r) for r in records7]
    path.write_text(cli.canonical_json({"n": 7, "k": 2, "records": rows}))
    rc, out = run(capsys, "verify", str(path), "--n", "8")
    assert rc == cli.EXIT_CONFIG
    payload = json.loads(out)
    assert payload["error"] == "config-parse-error"
    assert "n=7" in payload["message"] and "n=8" in payload["message"]


def test_json_records_round_trip(tmp_path, records7):
    path = tmp_path / "records.json"
    rows = [cli.record_to_dict(r) for r in records7]
    path.write_text(cli.canonical_json({"n": 7, "k": 2, "records": rows}))
    loaded = cli.load_records(str(path), 7)
    assert len(loaded) == len(records7)
    for back, orig in zip(loaded, records7):
        assert back.lam == orig.lam
        assert back.q2 == orig.q2
        assert back.bubble_dev_minus == orig.bubble_dev_minus
        assert back.features.r_lambda == orig.features.r_lambda
        assert back.features.du_node == orig.features.du_node


def test_csv_records_round_trip(tmp_path, records7):
    path = tmp_path / "records.csv"
    path.write_text(csv_text(records7))
    loaded = cli.load_records(str(path), 7)
    for back, orig in zip(loaded, records7):
        assert back.q3 == orig.q3
        assert back.energy == orig.energy
        assert back.features.gamma == orig.features.gamma


def test_tolerance_environment_is_ignored(capsys, monkeypatch):
    """The tolerances come from the flags alone: variables that once
    overrode them change nothing."""
    rc, clean = run(capsys, "solve", "--n", "7", "--lambda", "2")
    assert rc == cli.EXIT_PASS
    monkeypatch.setenv("BNBALL_RTOL", "fast")
    monkeypatch.setenv("BNBALL_RESIDUAL_TOL", "nan")
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2")
    assert rc == cli.EXIT_PASS
    assert out == clean


def _no_solve(*args, **kwargs):
    raise AssertionError("a rejected configuration must not start a solve")


@pytest.mark.parametrize("grid", ["nan,1", "inf,1"])
def test_non_finite_lambda_grid_rejected(capsys, monkeypatch, grid):
    monkeypatch.setattr(shooting, "solve_nodal", _no_solve)
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", grid)
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "config-parse-error"


@pytest.mark.parametrize(
    "name, text",
    [
        ("records.json", "not json\n"),
        ("records.json", "{}\n"),
        ("records.json", "[1]\n"),
        ("records.json", '{"records": 1}\n'),
        (
            "records.csv",
            ",".join(cli.CSV_HEADER) + "\n" + "abc," * len(cli.CSV_COLUMNS) + "\n",
        ),
        ("records.csv", one_row_csv(r_lambda=0.75, s_lambda=0.5)),
        ("records.csv", one_row_csv(m_minus=-5.0)),
        ("records.csv", one_row_csv(**{"lambda": 0.0})),
        ("records.csv", one_row_csv(**{"lambda": -0.25})),
        ("records.csv", one_row_csv(**{"lambda": math.inf})),
    ],
    ids=[
        "not-json",
        "no-records-key",
        "row-not-object",
        "records-not-list",
        "non-numeric-cell",
        "node-beyond-minimum",
        "negative-m-minus",
        "lambda=0.0",
        "lambda=-0.25",
        "lambda=inf",
    ],
)
def test_verify_malformed_records(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    rc, out = run(capsys, "verify", str(path), "--n", "7")
    assert rc == cli.EXIT_CONFIG
    payload = json.loads(out)
    assert payload["error"] == "config-parse-error"
    assert name in payload["message"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (_SOLVE_ARGS + ["--rtol", "-1"], "config-parse-error"),
        (_SOLVE_ARGS + ["--atol", "0"], "config-parse-error"),
        (_SOLVE_ARGS + ["--rtol", "nan"], "config-parse-error"),
        (_SOLVE_ARGS + ["--rtol", "inf"], "config-parse-error"),
        (_SOLVE_ARGS + ["--atol", "nan"], "config-parse-error"),
        (_SOLVE_ARGS + ["--atol", "inf"], "config-parse-error"),
        (_SOLVE_ARGS + ["--k", "0"], "config-parse-error"),
        (_SWEEP_ARGS + ["--k", "0"], "config-parse-error"),
        (["sweep", "--n", "7", "--lambda-grid", "1,1"], "config-parse-error"),
        (["sweep", "--n", "7", "--lambda-grid", "1,x"], "config-parse-error"),
        (["sweep", "--n", "7", "--lambda-grid", ",", "--rtol", "-1"], "config-parse-error"),
        (["sweep", "--n", "7", "--lambda-grid", "2,-1"], "config-parse-error"),
        (["sweep", "--n", "7", "--lambda-grid=0,-2"], "config-parse-error"),
        (_SWEEP_ARGS + ["--format", "yaml"], None),  # argparse's usage error
    ],
    ids=["solve-rtol-1", "solve-atol0", "solve-rtol-nan", "solve-rtol-inf",
         "solve-atol-nan", "solve-atol-inf", "solve-k0", "sweep-k0", "sweep-grid-1,1",
         "sweep-grid-1,x", "sweep-grid-empty-rtol-1", "sweep-grid-2,-1", "sweep-grid-0,-2",
         "sweep-format-yaml"],
)
def test_rejected_setting_starts_no_shot(capsys, monkeypatch, argv, code):
    """Each setting is checked once, by argparse or the library (the
    tolerances first, in solve_nodal and continuation_sweep), and a
    rejected one exits 2 before any shot."""

    def no_shot(*args, **kwargs):
        raise AssertionError("a rejected setting must not start a shot")

    monkeypatch.setattr(shooting, "shot", no_shot)
    rc, out = run(capsys, *argv)
    assert rc == cli.EXIT_CONFIG
    if code is None:
        assert out == ""
    else:
        assert json.loads(out)["error"] == code


def test_canonical_json_scrubbing():
    @dataclasses.dataclass
    class Inner:
        x: float
        tags: tuple

    @dataclasses.dataclass
    class Outer:
        inner: Inner
        values: np.ndarray

    assert cli.canonical_json(float("nan")) == "null\n"
    assert cli.canonical_json(np.float64("nan")) == "null\n"
    assert cli.canonical_json(np.float64("-inf")) == "null\n"
    assert cli.canonical_json(np.float64(0.1)) == "0.1\n"
    assert cli.canonical_json(np.arange(3)) == "[\n  0,\n  1,\n  2\n]\n"
    assert cli.canonical_json(np.array([1.5, np.inf])) == "[\n  1.5,\n  null\n]\n"
    assert cli.canonical_json((1, "a", None, True)) == (
        '[\n  1,\n  "a",\n  null,\n  true\n]\n'
    )
    nested = Outer(Inner(np.float64(2.5), (np.int64(3), float("inf"))), np.zeros(1))
    assert cli.canonical_json(nested) == (
        '{\n  "inner": {\n    "tags": [\n      3,\n      null\n    ],\n'
        '    "x": 2.5\n  },\n  "values": [\n    0.0\n  ]\n}\n'
    )
    assert cli.canonical_json({"b": 1, "a": 2}).index('"a"') < cli.canonical_json(
        {"b": 1, "a": 2}
    ).index('"b"')


def _scrub(obj):
    """The builtin copy that canonical_json once handed to json.dumps."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _scrub(dataclasses.asdict(obj))
    if hasattr(obj, "tolist"):
        return _scrub(obj.tolist())
    return str(obj)


@dataclasses.dataclass
class _Leaf:
    x: object


@dataclasses.dataclass
class _Node:
    left: object
    right: object


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LEAVES = st.one_of(
    _FLOATS,
    st.integers(),
    st.text(),
    st.booleans(),
    st.none(),
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, st.integers(0, 6), elements=_FLOATS),
    hnp.arrays(np.int64, st.integers(0, 4)),
    hnp.arrays(np.float64, (2, 2), elements=_FLOATS),
    st.builds(_Leaf, _FLOATS | st.text()),
)
# A small key pool, so int and str keys often stringify equal.
_KEYS = st.sampled_from([0, 1, "0", "1", -1, "a", "é", "λ"]) | st.text()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_KEYS, children, max_size=5),
            st.builds(_Node, children, children),
        ),
        max_leaves=20,
    )
)
def test_canonical_json_matches_json_dumps_of_scrubbed_copy(obj):
    """canonical_json prints exactly what json.dumps prints for the
    builtin, JSON-safe copy of any payload, byte for byte."""
    want = json.dumps(_scrub(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert cli.canonical_json(obj) == want
