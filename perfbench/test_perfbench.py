"""Tests of the benchmark itself:  python3 -m pytest perfbench

The sweep test runs one full traced reference sweep (~25 s).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import spans
import speed
import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert workloads.solve_cold_inputs(3) == workloads.solve_cold_inputs(3)
    assert workloads.solve_cold_inputs(3) != workloads.solve_cold_inputs(4)


def test_solve_cold_inputs_cover_the_documented_ranges():
    ref = workloads.Reference()
    seen_rtol = []
    for seed in range(50):
        inputs = workloads.solve_cold_inputs(seed)
        assert len(inputs) == 6
        assert {(i.n, i.k) for i in inputs} == {(7, 1), (8, 1), (7, 2), (8, 2)}
        for inp in inputs:
            assert 0.25 <= inp.lam <= 4.0
            assert 1e-11 <= inp.rtol <= 1e-8
            assert (inp.n, inp.k, inp.m) in ref.a_star
            seen_rtol.append(inp.rtol)
    assert min(seen_rtol) < 2e-11 and max(seen_rtol) > 5e-9


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ["bench.round", 0.0, 10.0, None, None],
        ["shooting.solve_nodal", 1.0, 7.0, 0, None],
        ["ode.integrate", 2.0, 5.0, 1, None],
        ["scipy.solve_ivp", 2.5, 4.5, 2, None],
        ["diagnostics.certify", 5.5, 6.5, 1, None],
        ["diagnostics.radial_norms", 5.6, 6.0, 4, None],
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 2.0, 0.6, 0.4])
    assert sum(selfs) == pytest.approx(10.0)
    assert spans.ancestor(tree, 5, "shooting.solve_nodal") == 1
    assert spans.ancestor(tree, 1, "diagnostics.certify") is None


def test_speed_probe_time_is_left_out_and_the_factor_is_a_local_mean():
    probe = speed.SpeedProbe()
    probe.samples = [(0.0, 0.06), (3.0, 3.03), (5.0, 5.015)]
    ref = speed.SpeedProbe.REFERENCE_S
    assert probe.factor(-10.0, 10.0) == pytest.approx(ref / 0.035)
    assert probe.factor(2.5, 3.5) == pytest.approx(ref / 0.03)
    assert probe.factor(20.0, 21.0) == pytest.approx(ref / 0.035)
    assert probe.work(0.0, 3.03) == pytest.approx(2.94)
    assert probe.work(3.01, 4.0) == pytest.approx(0.97)
    assert probe.work(1.0, 2.0) == pytest.approx(1.0)


def test_tracer_patches_every_name_and_restores_them():
    import bnball
    from bnball import ode, shooting

    original = ode.integrate
    tracer = spans.Tracer()
    with tracer.installed():
        assert ode.integrate is not original
        assert shooting.integrate is ode.integrate
        assert bnball.integrate is ode.integrate
        assert ode.solve_ivp.__wrapped__ is not None
    assert ode.integrate is original and shooting.integrate is original
    assert bnball.integrate is original


def _traced_round(name: str, tmp_path):
    workload = workloads.Workload(name, 0, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.ROUND_SPAN):
        ops = workload.round()
    assert all(op.error is None for op in ops), [op.error for op in ops]
    metrics = spans.layer_metrics(tracer.spans, 1, sum(o.bytes_written for o in ops), 0.0)
    return tracer.spans, metrics


def _check_counts_agree(trace, metrics):
    names = [s[0] for s in trace]
    certify = names.count("diagnostics.certify")
    norms = [i for i, n in enumerate(names) if n == "diagnostics.radial_norms"]
    scipy_spans = [s for s in trace if s[0] == spans.SCIPY_SPAN]
    # every integration is one scipy call, and the counters add up to the spans
    assert metrics["ode.integrate.calls"] == len(scipy_spans)
    assert metrics["ode.rhs_evals"] == sum(s[4]["nfev"] for s in scipy_spans)
    assert metrics["diagnostics.certify.calls"] == certify
    assert metrics["diagnostics.radial_norms.calls"] == len(norms)
    # radial norms are taken only by certify, the same number per certify
    per_certify = {}
    for i in norms:
        owner = spans.ancestor(trace, i, "diagnostics.certify")
        assert owner is not None
        per_certify[owner] = per_certify.get(owner, 0) + 1
    assert len(per_certify) == certify and len(set(per_certify.values())) == 1
    # per-layer self times account for the round
    layers = [k for k in metrics if k.endswith(".self_s")] + ["ode.scipy_s"]
    assert sum(metrics[k] for k in layers) == pytest.approx(metrics["trace.round_s"], rel=1e-9)
    return certify


def test_recertify_span_counts_agree_with_counters(tmp_path):
    trace, metrics = _traced_round("recertify", tmp_path)
    assert _check_counts_agree(trace, metrics) == 5 * workloads.RECERTIFY_PASSES
    assert metrics["shooting.solve_nodal.calls"] == 0
    assert metrics["ode.integrate.calls"] == 5 * workloads.RECERTIFY_PASSES


def test_sweep_span_counts_agree_with_counters(tmp_path):
    trace, metrics = _traced_round("sweep-warm", tmp_path)
    assert _check_counts_agree(trace, metrics) == 5
    assert metrics["shooting.solve_nodal.calls"] == 5
    assert metrics["shooting.solved_ratio"] == 1.0
    counters = spans.solve_counters(trace)
    assert [c["lambda"] for c in counters] == [4.0, 2.0, 1.0, 0.5, 0.25]
    assert sum(c["integrations"] for c in counters) == (
        metrics["shooting.proxy_integrations"] + metrics["shooting.final_integrations"])
    assert sum(c["rhs_evals"] for c in counters) == metrics["ode.rhs_evals"]
    assert metrics["cli.bytes_written"] > 0


def test_benchmark_json_schema():
    raw = BENCHMARK.read_bytes()
    assert len(raw) <= 64 * 1024
    doc = json.loads(raw)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"][0] == "python3" and len(doc["command"]) <= 32
    assert all(len(a) <= 200 for a in doc["command"])
    assert 1 <= len(doc["paths"]) <= 16
    for path in doc["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (workloads.ROOT / path).is_dir()
    assert any(doc["command"][1].startswith(p + "/") for p in doc["paths"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60

    assert 2 <= len(doc["workloads"]) <= 8
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]

    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(doc["end_to_end"]) <= 16
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])

    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["unit"] == spans.unit_of(m["name"]) and m["better"] in ("lower", "higher")
    produced = spans.layer_metrics([], 1, 0, 0.0)
    assert [m["name"] for m in doc["per_layer"]] == list(produced)


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recertify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.RECERTIFY_PASSES
    doc = json.loads(BENCHMARK.read_text())
    for m in doc["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]) and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in doc["end_to_end"]}


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recertify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
