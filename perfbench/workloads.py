"""The perfbench workloads, their seeded inputs and their correctness checks.

sweep-warm  the paper's experiment through the user's path: `bnball sweep`
            over the n=7 reference grid, then `bnball verify` on its CSV.
solve-cold  a seeded block of six independent `bnball solve` calls, each
            starting from the cold seed a=1.
recertify   rebuild the reference-grid profiles from stored amplitudes and
            re-run features, certification, records, the criterion-8
            envelopes and the rate-law report; no shooting.

Every workload runs in rounds.  A round returns the operations it attempted
(`Op`), each timed and checked against `reference.json`.  Only solve-cold
draws its inputs from the seed; the other two are fixed by the paper's grid.  Importing this
module puts the checkout's `src/` first on the import path, so the package
under test is always the one built from this checkout's sources.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

if not (SRC / "bnball" / "__init__.py").is_file():
    raise ImportError(f"no bnball sources under {SRC}")
sys.path.insert(0, str(SRC))

import bnball  # noqa: E402
from bnball import asymptotics, cli, diagnostics, ode, shooting  # noqa: E402
from bnball.model import Error, Params, RegionEmpty  # noqa: E402

if Path(bnball.__file__).resolve().parent != SRC / "bnball":
    raise ImportError(f"bnball resolved to {bnball.__file__}, not to {SRC}")

from spans import patched  # noqa: E402
from speed import SpeedProbe  # noqa: E402

WHY = {
    "sweep-warm": (
        "the paper's certified n=7 lambda-sweep and verify through the CLI; "
        "warm seeds make shooting mostly bisection refinement"
    ),
    "solve-cold": (
        "seeded cold solves over n, k, lambda and rtol; the doubling bracket "
        "is half the work and loose rtol exposes misclassified failures"
    ),
    "recertify": (
        "rebuild and re-certify the stored reference profiles without "
        "shooting, so certify, records and envelopes dominate"
    ),
}

SWEEP_N = 7
SWEEP_K = 2
# Quarter-octave lambda grid: lambda = 2^(m/4), m in [-8, 8], i.e. [0.25, 4].
SWEEP_GRID_M = (8, 4, 0, -4, -8)
RESIDUAL_TOL = 1e-6
# Criterion 8 of the acceptance suite: envelope excess per extremum.
ENVELOPE_TOL = 1e-9
# Stored and recomputed records agree to this relative tolerance; the
# absolute floor covers residual fields that sit at rounding level.
RECORD_RTOL = 1e-8
RECORD_ATOL = 1e-10

# solve-cold block: three pairs of solves.  Each pair shares one draw
# (o, w) with o uniform in 0..4 and w uniform in [0, 1): the first member
# takes lambda-grid offset o and rtol fraction w of its strata, the second
# 4-o and 1-w.  Fixed strata and antithetic pairs keep the block's total
# work nearly seed-independent while the inputs cover lambda in [0.25, 4]
# and rtol in [1e-11, 1e-8] over seeds.
# Member: (n, k, m0, m_step, log10 rtol low, log10 rtol high);
# lambda = 2^((m0 + m_step * offset) / 4).
SOLVE_COLD_PAIRS = (
    ((7, 1, -8, 2, -9.5, -8.0), (8, 1, 0, 2, -11.0, -9.5)),
    ((7, 2, -8, 1, -9.5, -8.75), (8, 2, -4, 1, -11.0, -10.25)),
    ((7, 2, 0, 1, -8.75, -8.0), (8, 2, 4, 1, -10.25, -9.5)),
)


def lambda_at(m: int) -> float:
    return 2.0 ** (m / 4.0)


def a_star_band(rtol: float) -> float:
    """Relative band around the stored a* that a solve at rtol must hit.

    Measured cold solves move a* by up to ~160*rtol against rtol=1e-11;
    the band allows 1e3*rtol, still many orders below the spacing between
    neighbouring grid lambdas or between k=1 and k=2 amplitudes.
    """
    return max(1e-8, 1e3 * rtol)


@dataclass(frozen=True)
class SolveInput:
    n: int
    k: int
    m: int
    rtol: float

    @property
    def lam(self) -> float:
        return lambda_at(self.m)


def solve_cold_inputs(seed: int) -> list[SolveInput]:
    rng = random.Random(seed)
    inputs = []
    for pair in SOLVE_COLD_PAIRS:
        o = rng.randint(0, 4)
        w = rng.random()
        for (n, k, m0, step, lo, hi), oo, ww in zip(pair, (o, 4 - o), (w, 1.0 - w)):
            inputs.append(SolveInput(n, k, m0 + step * oo, 10.0 ** (lo + ww * (hi - lo))))
    return inputs


@dataclass
class Op:
    """One attempted operation: a sweep point, verify, a solve or a pass."""

    kind: str
    label: str
    start: float  # perf_counter times
    end: float
    error: str | None = None  # failure code; None when the operation passed
    wrong: bool = False  # the program produced an output that is incorrect
    bytes_written: int = 0


class Reference:
    """The stored reference values (see make_reference.py)."""

    def __init__(self, path: Path = REFERENCE_PATH):
        with open(path) as fh:
            self.doc = json.load(fh)
        self.a_star = {
            (e["n"], e["k"], e["m"]): e["a_star"] for e in self.doc["a_star"]["entries"]
        }
        self.sweep = self.doc["sweep"]

    def a_star_miss(self, n: int, k: int, m: int, a_star: float, rtol: float) -> str | None:
        ref = self.a_star[(n, k, m)]
        rel = abs(a_star - ref) / ref
        if rel <= a_star_band(rtol):
            return None
        return f"a*={a_star!r} is {rel:.2e} from reference {ref!r}"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """bnball.cli.main in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _error_code(rc: int, out: str) -> str:
    if rc == cli.EXIT_SOLVER:
        try:
            return json.loads(out)["error"]
        except (ValueError, KeyError):
            pass
    return f"exit-{rc}"


class _EntryClock:
    """Records the time of each call to the patched function."""

    def __init__(self, fn):
        self.fn = fn
        self.starts: list[float] = []

    def __call__(self, *args, **kwargs):
        self.starts.append(time.perf_counter())
        return self.fn(*args, **kwargs)


def sweep_warm_round(ref: Reference, work: Path) -> list[Op]:
    """`bnball sweep` over the reference grid, then `bnball verify`.

    A point runs from the entry of its solve to the entry of the next one
    (the last to the end of the sweep), so it includes its record.
    """
    grid = [lambda_at(m) for m in SWEEP_GRID_M]
    out = work / "sweep.csv"
    clock = _EntryClock(shooting.solve_nodal)
    argv = ["sweep", "--n", str(SWEEP_N), "--lambda-grid", ",".join(repr(x) for x in grid),
            "--out", str(out)]
    with patched({shooting.solve_nodal: clock}):
        rc, text = run_cli(argv)
        end = time.perf_counter()
    bounds = clock.starts + [end]
    rows = []
    if rc == cli.EXIT_PASS:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    size = out.stat().st_size if out.exists() else 0
    ops = []
    for i, m in enumerate(SWEEP_GRID_M):
        span = bounds[i:i + 2] if i + 1 < len(bounds) else [end, end]
        op = Op("point", f"lambda={lambda_at(m):g}", *span, bytes_written=size if i == 0 else 0)
        row = rows[i] if i < len(rows) else None
        if row is None:
            op.error = _error_code(rc, text)
        elif row["error"]:
            op.error = row["error"]
        elif float(row["lambda"]) != lambda_at(m):
            op.error, op.wrong = "wrong-lambda", True
        else:
            miss = ref.a_star_miss(SWEEP_N, SWEEP_K, m, float(row["m_plus"]), ode.DEFAULT_RTOL)
            if miss is None and not 0.0 < float(row["r_lambda"]) < 1.0:
                miss = f"node r_lambda={row['r_lambda']} outside (0, 1)"
            if miss:
                op.error, op.wrong = "a-star-or-node-mismatch", True
        ops.append(op)

    report = work / "report.json"
    t0 = time.perf_counter()
    rc, text = run_cli(["verify", str(out), "--n", str(SWEEP_N), "--out", str(report)])
    op = Op("verify", "verify", t0, time.perf_counter())
    if rc == cli.EXIT_VERIFY:
        op.error, op.wrong = "verify-fail", True
    elif rc != cli.EXIT_PASS:
        op.error = _error_code(rc, text)
    elif "overall: PASS" not in text or not json.loads(report.read_text())["overall_pass"]:
        op.error, op.wrong = "verify-not-pass", True
    else:
        op.bytes_written = report.stat().st_size
    ops.append(op)
    return ops


def solve_check(ref: Reference, inp: SolveInput, payload: dict) -> str | None:
    """Why a written solution is wrong, or None when it is correct."""
    if (payload["n"], payload["k"]) != (inp.n, inp.k) or payload["lambda"] != inp.lam:
        return "payload describes another problem"
    miss = ref.a_star_miss(inp.n, inp.k, inp.m, payload["a_star"], inp.rtol)
    if miss:
        return miss
    interior = [
        e for e in payload["events"]
        if e["kind"] == "zero-crossing" and e["r"] < 1.0 - 1e-6
    ]
    if len(interior) != inp.k - 1:
        return f"{len(interior)} interior zeros, wanted {inp.k - 1}"
    res = payload["residuals"]
    worst = max(abs(res[name]) for name in ("nehari", "pohozaev_ball", "pohozaev_annulus"))
    if not worst < RESIDUAL_TOL:
        return f"residual {worst:.2e} not below {RESIDUAL_TOL:g}"
    return None


def solve_cold_round(ref: Reference, work: Path, inputs: list[SolveInput]) -> list[Op]:
    ops = []
    for i, inp in enumerate(inputs):
        out = work / f"solve-{i}.json"
        argv = ["solve", "--n", str(inp.n), "--lambda", repr(inp.lam), "--k", str(inp.k),
                "--rtol", repr(inp.rtol), "--out", str(out)]
        t0 = time.perf_counter()
        rc, text = run_cli(argv)
        op = Op("solve", f"n={inp.n} k={inp.k} lambda={inp.lam:.6g} rtol={inp.rtol:.3g}",
                t0, time.perf_counter())
        if rc != cli.EXIT_PASS:
            op.error = _error_code(rc, text)
        else:
            op.bytes_written = out.stat().st_size
            with open(out) as fh:
                why = solve_check(ref, inp, json.load(fh))
            if why:
                op.error, op.wrong = f"wrong-solution: {why}", True
        ops.append(op)
    return ops


def _mismatch(got, want, path: str = "") -> str | None:
    if isinstance(want, dict):
        for key, val in want.items():
            miss = _mismatch(got.get(key) if isinstance(got, dict) else None, val, f"{path}.{key}")
            if miss:
                return miss
        return None
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return None
        if math.isclose(got, want, rel_tol=RECORD_RTOL, abs_tol=RECORD_ATOL):
            return None
    elif got == want:
        return None
    return f"{path.lstrip('.')}: {got!r} != {want!r}"


def recertify_pass(ref: Reference) -> list[dict]:
    """One re-certification pass; returns the records as plain dicts.

    Raises bnball errors and ValueError on a failed check.
    """
    records = []
    for point in ref.sweep["points"]:
        params = Params(n=ref.sweep["n"], lam=point["lambda"])
        profile = ode.integrate(params, point["a_star"], 1.0, rtol=ref.sweep["rtol"])
        features = shooting.extract_features(profile, params)
        residuals = diagnostics.certify(profile, params, features=features,
                                        residual_tol=RESIDUAL_TOL)
        sol = shooting.SignChangingSolution(params, ref.sweep["k"], point["a_star"],
                                            profile, features, residuals)
        records.append(asymptotics.build_record(sol))
        excess = [
            asymptotics.center_envelope_violation(sol) / features.m_plus,
            asymptotics.rescaled_envelope_violation(sol),
        ]
        with contextlib.suppress(RegionEmpty):
            excess.append(asymptotics.annulus_envelope_violation(sol).violation / features.m_minus)
        if max(excess) > ENVELOPE_TOL:
            raise ValueError(f"envelope excess {max(excess):.2e} at lambda={params.lam:g}")
    report = asymptotics.rate_law_report(records, ref.sweep["n"])
    if not report["overall_pass"]:
        raise ValueError("rate-law report does not pass")
    return [dataclasses.asdict(r) for r in records]


def recertify_round(ref: Reference) -> Op:
    op = Op("pass", "recertify", time.perf_counter(), math.nan)
    try:
        got = recertify_pass(ref)
    except Error as exc:
        op.error = exc.code
    except ValueError as exc:
        op.error, op.wrong = f"check-failed: {exc}", True
    else:
        want = [p["record"] for p in ref.sweep["points"]]
        miss = _mismatch(dict(enumerate(got)), dict(enumerate(want)))
        if miss:
            op.error, op.wrong = f"record-mismatch: {miss}", True
    op.end = time.perf_counter()
    return op


# A recertify round is several passes, so that wall_s (a round) and
# op_s.p50 (a pass) differ and a run still holds several rounds.
RECERTIFY_PASSES = 5


class Workload:
    """A named workload bound to its inputs; `round()` runs one round.

    With a probe, each round samples the host speed at its start and end
    and, when a sample is due, before each `bnball.ode.integrate` call.
    """

    def __init__(self, name: str, seed: int, work: Path, probe: SpeedProbe | None = None):
        if name not in WHY:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
        self.name = name
        self.seed = seed
        self.work = work
        self.ref = Reference()
        self.inputs = solve_cold_inputs(seed) if name == "solve-cold" else []
        self.probe = probe

    def round(self) -> list[Op]:
        if self.probe is None:
            return self._round()
        with self.probe.hooked(ode, "integrate"):
            self.probe.sample()
            ops = self._round()
            self.probe.sample()
        return ops

    def _round(self) -> list[Op]:
        if self.name == "sweep-warm":
            return sweep_warm_round(self.ref, self.work)
        if self.name == "solve-cold":
            return solve_cold_round(self.ref, self.work, self.inputs)
        return [recertify_round(self.ref) for _ in range(RECERTIFY_PASSES)]
