"""perfbench: the bnball benchmark.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 20 --trace 0

Runs one workload (sweep-warm, solve-cold or recertify; see workloads.py)
on the bnball sources of this checkout, in rounds, until the next round
would end after --seconds (always at least one round).  Every operation is
checked against perfbench/reference.json.  Prints a report and, as its last
line, one JSON object with the keys correct, attempted, failed and metrics:

- --trace 0, the end-to-end metrics, untraced:
  setup_s      median of three fresh interpreters importing bnball and
               building the workload's inputs;
  wall_s       median wall time of one round (a sweep and its verify, a
               block of six solves, or five re-certification passes);
  op_s.p50     median wall time of one operation (a sweep point, a solve
               or a pass);
  peak_rss_mb  peak resident memory of the benchmark process.
  The three times are scaled to a reference host by speed.SpeedProbe,
  because this class of shared host changes speed by up to 2x within a
  minute; the unscaled times are in the result file.
- --trace 1, the per-layer metrics, per round, from spans around every
  public function of the bnball layers (spans.py).

An operation fails when the program reports an error or its output misses
its check; `correct` is false when any output was wrong, as opposed to a
reported error.  The full result (machine, commit, seed, operations, error
codes, per-solve counters) is written to .perfbench/results/; a traced run
also writes its spans there.  Exits 2 without a result when the checkout
has no bnball sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bnball benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args, probe) -> list[tuple[float, float, float]]:
    """(start, end, seconds) from spawning a fresh interpreter to having the inputs ready."""
    runs = []
    for _ in range(SETUP_RUNS):
        probe.sample()
        a = time.perf_counter()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()}")
        runs.append((a, time.perf_counter(), float(proc.stdout.split()[-1]) - t0))
    probe.sample()
    return runs


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_rounds(workload, seconds: float, tracer) -> list[tuple[float, float, list]]:
    """Whole rounds, as (start, end, ops), until the next one would end after `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            ops = workload.round()
        else:
            with tracer.span(spans.ROUND_SPAN):
                ops = workload.round()
        rounds.append((t0, time.perf_counter(), ops))
        pace = statistics.median(r[1] - r[0] for r in rounds)
        if time.perf_counter() - start + pace > seconds:
            return rounds


def end_to_end(probe, setup, rounds, ops) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled times behind them."""
    intervals = {
        "setup_s": setup,
        "round_s": [(a, b, probe.work(a, b)) for a, b, _ in rounds],
        "op_s": [(op.start, op.end, probe.work(op.start, op.end))
                 for op in ops if op.kind != "verify"],
    }
    raw = {k: [s for _, _, s in v] for k, v in intervals.items()}
    scaled = {k: statistics.median(s * probe.factor(a, b) for a, b, s in v)
              for k, v in intervals.items()}
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "wall_s": (scaled["round_s"], "s"),
        "op_s.p50": (scaled["op_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WHY:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WHY)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.Workload(args.workload, args.seed, OUT)
        print(time.monotonic())
        return 0

    # The traced run takes no speed samples: they would land inside spans.
    probe = None if args.trace else speed.SpeedProbe()
    setup = [] if args.trace else measure_setup(args, probe)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        workload = workloads.Workload(args.workload, args.seed, work, probe)
        with tracer.installed() if tracer else contextlib.nullcontext():
            rounds = run_rounds(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for _, _, round_ops in rounds for op in round_ops]
    failures = Counter(op.error for op in ops if op.error)
    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "machine": machine(),
        "reference_commit": workload.ref.doc["commit"],
        "rounds": [(a, b) for a, b, _ in rounds],
        "ops": [vars(op) for op in ops],
        "fail_share": sum(failures.values()) / len(ops),
        "failures": dict(failures),
    }
    if tracer:
        per_layer = spans.layer_metrics(tracer.spans, len(rounds),
                                        sum(op.bytes_written for op in ops), spans.span_cost())
        result["metrics"] = {name: {"value": value, "unit": spans.unit_of(name)}
                             for name, value in per_layer.items()}
        result["solve_counters"] = spans.solve_counters(tracer.spans)
    else:
        result["metrics"], result["unscaled"] = end_to_end(probe, setup, rounds, ops)
        result["setup_runs"] = setup
        result["speed_samples"] = probe.samples

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.dump(results / f"{stem}-spans.json")
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print_report(result)
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": result["metrics"],
    }))
    return 0


def print_report(result: dict) -> None:
    m = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']}: {result['why']}")
    print(f"machine: {m['nproc']} x {m['cpu']}; python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}; commit {result['commit']}")
    timed = sum(1 for op in result["ops"] if op["kind"] != "verify")
    print(f"rounds {len(result['rounds'])}, operations {len(result['ops'])} "
          f"({timed} timed), fail_share {result['fail_share']:.4g}")
    for code, count in sorted(result["failures"].items()):
        print(f"  failed x{count}: {code}")
    if "unscaled" in result:
        raw = {k: statistics.median(v) for k, v in result["unscaled"].items()}
        print(f"unscaled medians: setup {raw['setup_s']:.4g} s, round {raw['round_s']:.4g} s, "
              f"operation {raw['op_s']:.4g} s; {len(result['speed_samples'])} speed samples")
    for row in result.get("solve_counters", []):
        print(f"  solve n={row['n']} k={row['k']} lambda={row['lambda']:.6g} "
              f"rtol={row['rtol'] or 'default'} a_seed={row['a_seed']:.6g}: "
              f"{row['integrations']} integrations, {row['rhs_evals']} RHS evaluations, "
              f"{row['outcome']}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
