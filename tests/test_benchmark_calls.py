"""The calls the benchmark makes still work.

perfbench runs three workloads.  sweep-warm drives `bnball sweep` over the
n=7 reference grid and `bnball verify` on its CSV through cli.main;
solve-cold drives seeded cold `bnball solve` calls; recertify rebuilds the
reference profiles from their stored amplitudes and calls integrate,
extract_features, certify, build_record, the three envelope checks and
rate_law_report directly.  Each checks what it gets against the stored
reference, so a failed benchmark operation means one of those paths
changed shape or result.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["sweep-warm", "solve-cold", "recertify"])
def test_benchmark_round_passes(monkeypatch, tmp_path, workload):
    """One round of the workload reports no failed operation."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    ref = workloads.Reference()
    if workload == "sweep-warm":
        ops = workloads.sweep_warm_round(ref, tmp_path)
    elif workload == "solve-cold":
        ops = workloads.solve_cold_round(ref, tmp_path, workloads.solve_cold_inputs(1))
    else:
        ops = [workloads.recertify_round(ref)]
    assert ops
    assert [(op.label, op.error) for op in ops if op.error is not None] == []
