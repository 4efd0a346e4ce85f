"""Regenerate perfbench/reference.json from this checkout's bnball.

    python3 perfbench/make_reference.py [--out perfbench/reference.json]

Stores, together with the commit and the tolerances that produced them:
- a_star: cold k=1 and k=2 amplitudes at n=7 and n=8 on the quarter-octave
  lambda grid 2^(m/4), m in [-8, 8], solved at a tight rtol, which the
  solve-cold and sweep-warm checks compare against;
- sweep: the warm n=7 reference sweep at the default rtol, as the CLI runs
  it: each point's amplitude and record, which recertify rebuilds.

Takes about ten minutes on one core.  Only regenerate when a change is
meant to move the reference values, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import subprocess
import time

import workloads
from bnball import asymptotics, ode, shooting
from bnball.model import Params

REFERENCE_RTOL = 1e-12


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(workloads.REFERENCE_PATH))
    args = parser.parse_args()

    entries = []
    for n in (7, 8):
        for k in (1, 2):
            for m in range(-8, 9):
                t0 = time.perf_counter()
                lam = workloads.lambda_at(m)
                sol = shooting.solve_nodal(Params(n=n, lam=lam), k, rtol=REFERENCE_RTOL)
                entries.append({"n": n, "k": k, "m": m, "lambda": lam, "a_star": sol.a_star})
                print(f"n={n} k={k} lambda={lam:.6g} a*={sol.a_star!r} "
                      f"({time.perf_counter() - t0:.1f} s)", flush=True)

    grid = [workloads.lambda_at(m) for m in workloads.SWEEP_GRID_M]
    points = shooting.continuation_sweep(Params(n=workloads.SWEEP_N, lam=grid[0]), grid,
                                         workloads.SWEEP_K)
    sweep_points = []
    for p in points:
        if p.solution is None:
            raise SystemExit(f"reference sweep failed at lambda={p.lam}: {p.error}")
        record = asymptotics.build_record(p.solution)
        sweep_points.append({"lambda": p.lam, "a_star": p.solution.a_star,
                             "record": dataclasses.asdict(record)})

    import numpy
    import scipy

    doc = {
        "generated_by": "perfbench/make_reference.py",
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "a_star": {"rtol": REFERENCE_RTOL, "atol": ode.DEFAULT_ATOL, "warm_start": False,
                   "entries": entries},
        "sweep": {"n": workloads.SWEEP_N, "k": workloads.SWEEP_K, "rtol": ode.DEFAULT_RTOL,
                  "atol": ode.DEFAULT_ATOL, "warm_start": True, "points": sweep_points},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
