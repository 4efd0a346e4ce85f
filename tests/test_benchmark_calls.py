"""The library calls the benchmark makes still work.

perfbench's recertify workload rebuilds the reference profiles from their
stored amplitudes and calls integrate, extract_features, certify,
build_record, the three envelope checks and rate_law_report directly; a
pass compares the records it builds with the stored ones.  A failed
benchmark operation means one of those calls changed shape or result.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_recertify_round_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    op = workloads.recertify_round(workloads.Reference())
    assert op.error is None
