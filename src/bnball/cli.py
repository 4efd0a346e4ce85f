"""Command-line interface: solve, sweep, verify, constants.

sweep follows one branch: a single shooting.continuation_sweep over the
grid, each point seeded from the points solved before it.

Owns the persistence formats.  Sweep records go to CSV with a frozen
column order (or JSON); solutions and verification reports go to
canonical JSON (sorted keys, two-space indent, trailing newline), which
round-trips byte-identically; canonical_json prints it in one pass, each
float array as one join of reprs.  All numbers are serialized with
shortest round-trip precision, so downstream extrapolation is not
precision limited.

Exit codes: 0 pass, 2 config or input error, 3 solver error,
4 verification failure.

solve and sweep take their only accuracy settings, --rtol and --atol, as
flags; nothing is read from the environment.  Each cmd_* takes the parsed
namespace as it is, and the library checks each setting argparse does not.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import asymptotics, bubble, shooting
from .model import ConfigError, Error, FileIOError, NodalFeatures, Params
from .ode import DEFAULT_ATOL, DEFAULT_RTOL

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

_FEATURE_COLUMNS = tuple(f.name for f in dataclasses.fields(NodalFeatures))
_SCALAR_COLUMNS = tuple(
    f.name
    for f in dataclasses.fields(asymptotics.SweepRecord)
    if f.name not in ("lam", "features")
)
# The frozen CSV column order: "lambda", the nodal features, then the
# record's scalars.
CSV_COLUMNS = ("lambda",) + _FEATURE_COLUMNS + _SCALAR_COLUMNS
CSV_HEADER = CSV_COLUMNS + ("error",)


def _fmt_number(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def _render(obj, indent: str = "") -> str:
    """obj as canonical JSON, as json.dumps(sort_keys=True, indent=2) prints
    its builtin copy: dataclasses and arrays as dicts and lists, non-finite
    floats null, keys str() (of two that stringify equal, the later wins)."""
    # Floats first: they are most of a payload.  np.float64 is a float too.
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    inner = indent + "  "
    if isinstance(obj, dict):
        members = {str(k): v for k, v in obj.items()}
        items = [
            f"{encode_basestring_ascii(k)}: {_render(members[k], inner)}"
            for k in sorted(members)
        ]
    elif isinstance(obj, (list, tuple)):
        items = [_render(v, inner) for v in obj]
    elif isinstance(obj, (int, str)) or obj is None:
        return json.dumps(obj)  # bool is an int; json prints true/false
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _render(dataclasses.asdict(obj), indent)
    elif type(obj) is np.ndarray and obj.ndim == 1 and obj.dtype == np.float64:
        items = list(map(float.__repr__, obj.tolist()))
        for i in np.flatnonzero(~np.isfinite(obj)).tolist():
            items[i] = "null"
    elif hasattr(obj, "tolist"):
        return _render(obj.tolist(), indent)
    else:
        return encode_basestring_ascii(str(obj))
    open_, close = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return open_ + close
    return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{close}"


def canonical_json(obj) -> str:
    return _render(obj) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(exc: Error) -> str:
    payload = {"error": exc.code, "message": str(exc)}
    # structured context of the failure, where the error carries it
    if getattr(exc, "report", None):
        payload["report"] = exc.report
    if getattr(exc, "last_radius", None) is not None:
        payload["last_radius"] = exc.last_radius
    return canonical_json(payload)


def record_to_dict(record: asymptotics.SweepRecord) -> dict:
    f = record.features
    out = {"lambda": record.lam}
    out.update(
        (name, getattr(f, name) if f is not None else None) for name in _FEATURE_COLUMNS
    )
    out.update((name, getattr(record, name)) for name in _SCALAR_COLUMNS)
    out["error"] = None
    return out


def _record_from_mapping(row: dict) -> asymptotics.SweepRecord | None:
    """Rebuild a SweepRecord from one CSV/JSON row; None for failure rows."""
    err = row.get("error")
    if err:
        return None

    def num(name):
        v = row.get(name)
        if v is None or v == "":
            return math.nan
        return float(v)

    lam = num("lambda")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ConfigError(f"lambda must be finite and positive, got {lam}")
    feature_vals = {name: num(name) for name in _FEATURE_COLUMNS}
    features = None
    if all(math.isfinite(v) for v in feature_vals.values()):
        features = NodalFeatures(**feature_vals)
    return asymptotics.SweepRecord(
        lam=lam,
        features=features,
        **{name: num(name) for name in _SCALAR_COLUMNS},
    )


def load_records(path: str, n: int) -> list[asymptotics.SweepRecord]:
    """The records of a sweep file; one in JSON must be of dimension n."""
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                payload = json.load(fh)
            if isinstance(payload, dict) and payload.get("n", n) != n:
                raise ValueError(f"the records are of n={payload['n']!r}, not n={n}")
            rows = payload["records"] if isinstance(payload, dict) else payload
            out = [_record_from_mapping(r) for r in rows]
        else:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                out = [_record_from_mapping(r) for r in reader]
    except (AttributeError, KeyError, TypeError, ValueError, Error) as exc:
        # malformed JSON, a missing "records" key, records of another n, a
        # non-numeric cell, a lambda that is not finite and positive, or
        # feature cells that break the NodalFeatures invariants
        raise ConfigError(f"cannot read records from {path}: {exc!r}") from exc
    return [r for r in out if r is not None]


def _solution_payload(solution: shooting.SignChangingSolution) -> dict:
    profile = solution.profile
    return {
        "n": solution.params.n,
        "lambda": solution.params.lam,
        "k": solution.k,
        "a_star": solution.a_star,
        "features": solution.features,
        "residuals": solution.residuals,
        "profile": {
            "knots": profile.knots,
            "values": profile.values,
            "derivs": profile.derivs,
            "r_end": profile.r_end,
        },
        "events": [
            {"kind": e.kind, "r": e.r, "value": e.value} for e in profile.events
        ],
    }


def cmd_solve(args: argparse.Namespace) -> int:
    solution = shooting.solve_nodal(
        Params(n=args.n, lam=args.lam), args.k, rtol=args.rtol, atol=args.atol
    )
    _emit(canonical_json(_solution_payload(solution)), args.out)
    if args.out:
        print(f"wrote {args.out} (a_star={solution.a_star:.12g})")
    return EXIT_PASS


def _sweep_row(point: shooting.SweepPoint) -> dict:
    """The output row of one sweep point.

    A failed point, or a solved one whose record cannot be built, keeps its
    lambda and error code; its other fields are empty in both formats.
    """
    if point.solution is not None:
        try:
            return record_to_dict(asymptotics.build_record(point.solution))
        except Error as exc:
            error, detail = exc.code, str(exc)
    else:
        error, detail = point.error, point.detail
    return {
        **dict.fromkeys(CSV_COLUMNS), "lambda": point.lam, "error": error, "detail": detail
    }


def _parse_grid(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse lambda grid {raw!r}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.lambda_grid)
    points = shooting.continuation_sweep(
        Params(n=args.n, lam=0.0), grid, args.k, rtol=args.rtol, atol=args.atol
    )
    rows = [_sweep_row(p) for p in points]

    if args.format == "json":
        text = canonical_json({"n": args.n, "k": args.k, "records": rows})
    else:
        lines = [",".join(CSV_HEADER)]
        for row in rows:
            cells = [_fmt_number(row[name]) for name in CSV_COLUMNS]
            lines.append(",".join(cells + [row["error"] or ""]))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    solved = sum(1 for row in rows if row["error"] is None)
    if args.out:
        print(f"wrote {args.out} ({solved}/{len(grid)} points solved)")
    return EXIT_SOLVER if rows and not solved else EXIT_PASS


def _verdict_table(report: dict) -> str:
    rows = []
    head = f"{'quantity':<18}{'extrapolated':>16}{'limit':>16}{'rel.err':>10}  {'trend':<10}{'verdict':<8}"
    rows.append(head)
    rows.append("-" * len(head))
    for name, v in report["quantities"].items():
        trend = "dec" if v["gaps_strictly_decreasing"] else "non-mono"
        verdict = "PASS" if v["passed"] else ("FAIL" if v["gated"] else "info")
        rows.append(
            f"{name:<18}{v['extrapolated']:>16.8g}{v['limit']:>16.8g}"
            f"{v['relative_error']:>10.2e}  {trend:<10}{verdict:<8}"
        )
    for name, t in report["trends"].items():
        trend = "dec" if t["strictly_decreasing"] else "non-mono"
        tail = t["values"][-1]
        rows.append(
            f"{name:<18}{tail:>16.8g}{'-> 0':>16}{'':>10}  {trend:<10}"
            f"{'PASS' if t['passed'] else 'FAIL':<8}"
        )
    s = report["slope_log_m_minus"]
    rows.append(
        f"{'slope log M-':<18}{s['value']:>16.8g}{s['target']:>16.8g}"
        f"{abs(s['value'] - s['target']):>10.2e}  {'tail-3':<10}"
        f"{'PASS' if s['passed'] else 'FAIL':<8}"
    )
    i = report["identity_q3_q1_q2"]
    rows.append(
        f"{'q3*q1 = q2':<18}{i['max_relative_gap']:>16.2e}{'0':>16}{'':>10}  "
        f"{'all rows':<10}{'PASS' if i['passed'] else 'FAIL':<8}"
    )
    rows.append(f"overall: {'PASS' if report['overall_pass'] else 'FAIL'}")
    return "\n".join(rows) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    report = asymptotics.rate_law_report(load_records(args.records, args.n), args.n)
    table = _verdict_table(report)
    # written before the table is printed, so an unwritable --out prints
    # only the error payload
    if args.out:
        _emit(canonical_json(report), args.out)
        table += f"wrote {args.out}\n"
    sys.stdout.write(table)
    return EXIT_PASS if report["overall_pass"] else EXIT_VERIFY


def cmd_constants(args: argparse.Namespace) -> int:
    payload = dataclasses.asdict(bubble.constants(args.n))
    payload["n"] = args.n
    _emit(canonical_json(payload), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnball",
        description=(
            "Least-energy radial sign-changing solutions of the "
            "Brezis-Nirenberg problem on the unit ball, by node-targeted "
            "shooting, with asymptotic-law verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=False, need_grid=False):
        p.add_argument("--n", type=int, required=True, help="space dimension")
        if need_lambda:
            p.add_argument(
                "--lambda", dest="lam", type=float, required=True,
                help="linear coefficient, in (0, lambda_1)",
            )
        if need_grid:
            p.add_argument(
                "--lambda-grid", required=True,
                help="comma-separated, positive, finite and strictly decreasing, "
                "e.g. 4,2,1,0.5,0.25",
            )
        p.add_argument("--k", type=int, default=2, help="number of nodal regions")
        p.add_argument(
            "--rtol", type=float, default=DEFAULT_RTOL,
            help="relative tolerance of the shots, integration and search "
            "(default %(default)g)",
        )
        p.add_argument(
            "--atol", type=float, default=DEFAULT_ATOL,
            help="absolute tolerance of the shots and integration "
            "(default %(default)g)",
        )
        p.add_argument("--out", default=None, help="output path (stdout when absent)")

    p_solve = sub.add_parser("solve", help="solve one (n, lambda, k) problem")
    common(p_solve, need_lambda=True)
    p_solve.set_defaults(run=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve along a decreasing lambda grid")
    common(p_sweep, need_grid=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(run=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check rate laws over a records file")
    p_verify.add_argument("records", help="CSV or JSON produced by sweep")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(run=cmd_verify)

    p_const = sub.add_parser("constants", help="print the dimensional constants")
    p_const.add_argument("--n", type=int, required=True)
    p_const.add_argument("--out", default=None)
    p_const.set_defaults(run=cmd_constants)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ConfigError as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_CONFIG
    except Error as exc:
        sys.stdout.write(_error_payload(exc))
        return EXIT_SOLVER
    except OSError as exc:
        # unreadable records or unwritable --out target
        sys.stdout.write(_error_payload(FileIOError(str(exc))))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
