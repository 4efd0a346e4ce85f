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
from bnball.asymptotics import build_record
from bnball.bubble import constants
from bnball.model import ConfigError, IntegrationFailed, Params


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


def one_row_csv(**features):
    """A records CSV of one row: valid nodal features, updated by
    `features`, and every other cell 1.0."""
    valid = dict(
        r_lambda=0.5, s_lambda=0.75, m_plus=1.0, m_minus=0.125, du_node=-1.0,
        du_boundary=1.0, sigma=0.5, rho=0.2, gamma=0.3,
    )
    row = {**dict.fromkeys(cli.CSV_COLUMNS, 1.0), **valid, **features}
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
    inside the --boundary-tol default, so the solve certifies with one
    interior zero."""
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
    by extrapolating the previous two amplitudes."""
    solutions = {p.lam: p.solution for p in sweep7}
    seeds = []

    def fake_solve(params, k, *, a_seed=1.0, **options):
        seeds.append(a_seed)
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

    a = [p.solution.a_star for p in sweep7]
    assert seeds == [1.0, a[0]] + [a[i] * (a[i] / a[i - 1]) for i in (1, 2, 3)]

    rc, out = run(capsys, "verify", str(out_path), "--n", "7")
    assert rc == cli.EXIT_PASS
    assert "overall: PASS" in out


def test_sweep_has_no_annulus_option(capsys):
    # The Green-comparison window is fixed by the sweep contract.
    rc, _ = run(
        capsys, "sweep", "--n", "7", "--lambda-grid", "", "--annulus", "0.3,0.7"
    )
    assert rc == cli.EXIT_CONFIG


def test_sweep_rejects_negative_parallel(capsys):
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", "", "--parallel", "-1")
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "config-parse-error"


def test_sweep_parallel_workers_capped_at_grid(capsys, monkeypatch, sweep7, records7):
    solutions = {p.lam: p.solution for p in sweep7}
    monkeypatch.setattr(
        shooting, "solve_nodal", lambda params, k, **options: solutions[params.lam]
    )
    pools = []

    class FakePool:
        """Records the requested worker count and runs the jobs in process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", "4,2", "--parallel", "8")
    assert rc == cli.EXIT_PASS
    assert pools == [2]
    assert out == csv_text(records7[:2])
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", "", "--parallel", "8")
    assert rc == cli.EXIT_PASS
    assert out == ",".join(cli.CSV_HEADER) + "\n"
    assert pools == [2]  # no pool for an empty grid


def test_sweep_parallel_matches_cold_serial(capsys):
    """Both cold modes write the records of independent solves seeded at a=1."""
    expected = csv_text(
        build_record(shooting.solve_nodal(Params(n=7, lam=lam), 1, a_seed=1.0))
        for lam in (4.0, 2.0)
    )
    argv = ["sweep", "--n", "7", "--k", "1", "--lambda-grid", "4,2"]
    for mode in (["--no-warm-start"], ["--parallel", "2"]):
        rc, out = run(capsys, *argv, *mode)
        assert rc == cli.EXIT_PASS
        assert out == expected


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


def test_out_path_in_missing_directory(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "c.json"
    rc, out = run(capsys, "constants", "--n", "7", "--out", str(target))
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


def test_verify_needs_three_records(capsys, tmp_path, records7):
    path = tmp_path / "short.csv"
    path.write_text(csv_text(records7[:2]))
    rc, out = run(capsys, "verify", str(path), "--n", "7")
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "insufficient-records"


def test_json_records_round_trip(tmp_path, records7):
    path = tmp_path / "records.json"
    rows = [cli.record_to_dict(r) for r in records7]
    path.write_text(cli.canonical_json({"n": 7, "k": 2, "records": rows}))
    loaded = cli.load_records(str(path))
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
    loaded = cli.load_records(str(path))
    for back, orig in zip(loaded, records7):
        assert back.q3 == orig.q3
        assert back.energy == orig.energy
        assert back.features.gamma == orig.features.gamma


def test_env_override_must_be_numeric(capsys, monkeypatch):
    monkeypatch.setenv("BNBALL_RTOL", "fast")
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2")
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "config-parse-error"
    assert "BNBALL_RTOL" in json.loads(out)["message"]


def test_verify_and_constants_ignore_tolerance_overrides(
    capsys, monkeypatch, tmp_path, records7
):
    """verify and constants read no tolerance, so a bad override is moot."""
    rc, clean = run(capsys, "constants", "--n", "7")
    assert rc == cli.EXIT_PASS
    monkeypatch.setenv("BNBALL_RTOL", "abc")
    rc, out = run(capsys, "constants", "--n", "7")
    assert rc == cli.EXIT_PASS
    assert out == clean

    path = tmp_path / "records.csv"
    path.write_text(csv_text(records7))
    monkeypatch.delenv("BNBALL_RTOL")
    monkeypatch.setenv("BNBALL_ATOL", "-1")
    rc, out = run(capsys, "verify", str(path), "--n", "7")
    assert rc == cli.EXIT_PASS
    assert "overall: PASS" in out


def _no_solve(*args, **kwargs):
    raise AssertionError("a rejected configuration must not start a solve")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag", ["--rtol", "--atol", "--residual-tol", "--boundary-tol"]
)
def test_non_finite_tolerance_rejected(capsys, monkeypatch, flag, value):
    monkeypatch.setattr(shooting, "solve_nodal", _no_solve)
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2", flag, value)
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "config-parse-error"


@pytest.mark.parametrize("grid", ["nan,1", "inf,1"])
def test_non_finite_lambda_grid_rejected(capsys, monkeypatch, grid):
    monkeypatch.setattr(shooting, "solve_nodal", _no_solve)
    rc, out = run(capsys, "sweep", "--n", "7", "--lambda-grid", grid)
    assert rc == cli.EXIT_CONFIG
    assert json.loads(out)["error"] == "config-parse-error"


def test_non_finite_tolerance_from_environment(capsys, monkeypatch):
    monkeypatch.setattr(shooting, "solve_nodal", _no_solve)
    monkeypatch.setenv("BNBALL_RESIDUAL_TOL", "nan")
    rc, out = run(capsys, "solve", "--n", "7", "--lambda", "2")
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
    ],
    ids=[
        "not-json",
        "no-records-key",
        "row-not-object",
        "records-not-list",
        "non-numeric-cell",
        "node-beyond-minimum",
        "negative-m-minus",
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


def test_run_config_validation():
    with pytest.raises(ConfigError):
        cli.RunConfig(n=7, rtol=-1.0)
    with pytest.raises(ConfigError):
        cli.RunConfig(n=7, fmt="yaml")
    with pytest.raises(ConfigError):
        cli.RunConfig(n=7, k=0)
    with pytest.raises(ConfigError):
        cli.RunConfig(n=7, lambda_grid=(1.0, 1.0))


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
