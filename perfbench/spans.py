"""In-memory spans and counters around the public functions of bnball.

A traced run replaces every public function of the layer modules (and
scipy's `solve_ivp` as `bnball.ode` calls it) by a wrapper that records a
span: name, start, end, parent and a few attributes.  Each function is
patched under every name a call can resolve through, so from-imports such
as `shooting.integrate` and the package's re-exports are covered, and
attribute lookups such as `cli` -> `shooting.solve_nodal` see the wrapper
too.  Spans live in memory; `Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "shooting", "ode", "diagnostics", "asymptotics", "bubble")
SCIPY_SPAN = "scipy.solve_ivp"
ROUND_SPAN = "bench.round"
ENVELOPES = (
    "asymptotics.center_envelope_violation",
    "asymptotics.rescaled_envelope_violation",
    "asymptotics.annulus_envelope_violation",
)


def _bnball_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bnball" or name.startswith("bnball."))]


@contextlib.contextmanager
def patched(replacements: dict):
    """Replace each key function by its value under every bnball name bound to it."""
    by_id = {id(orig): new for orig, new in replacements.items()}
    saved = []
    try:
        for mod in _bnball_modules():
            for name, val in list(vars(mod).items()):
                if id(val) in by_id:
                    saved.append((mod, name, val))
                    setattr(mod, name, by_id[id(val)])
        yield
    finally:
        for mod, name, val in reversed(saved):
            setattr(mod, name, val)


def public_functions(module) -> dict[str, object]:
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj for name, obj in vars(module).items()
        if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
    }


def _solve_attrs(args, kwargs, result):
    params = args[0]
    return {"n": params.n, "lambda": params.lam, "k": args[1],
            "rtol": kwargs.get("rtol"), "a_seed": kwargs.get("a_seed", 1.0)}


def _integrate_attrs(args, kwargs, result):
    return {"capped": kwargs.get("zero_cap") is not None}


def _scipy_attrs(args, kwargs, result):
    if result is None:
        return {"nfev": 0, "steps": 0}
    return {"nfev": int(result.nfev), "steps": int(result.t.size) - 1}


ATTRS = {
    "shooting.solve_nodal": _solve_attrs,
    "ode.integrate": _integrate_attrs,
    SCIPY_SPAN: _scipy_attrs,
}


class Tracer:
    """Spans as [name, start, end, parent index, attrs] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name: str):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            rec = self.spans[idx]
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                rec[4] = {"error": getattr(exc, "code", type(exc).__name__)}
                raise
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
                if attrs is not None:
                    rec[4] = {**(rec[4] or {}), **attrs(args, kwargs, result)}

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function and bnball's solve_ivp."""
        import bnball.ode

        replacements = {bnball.ode.solve_ivp: self.wrap(bnball.ode.solve_ivp, SCIPY_SPAN)}
        for layer in LAYERS:
            module = sys.modules[f"bnball.{layer}"]
            for name, fn in public_functions(module).items():
                replacements[fn] = self.wrap(fn, f"{layer}.{name}")
        with patched(replacements):
            yield

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def span_cost(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".p50")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def ancestor(spans, idx: int, name: str) -> int | None:
    """Index of the nearest enclosing span called `name`, or None."""
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][3]
    return None


def solve_counters(spans) -> list[dict]:
    """Integrations and RHS evaluations under each solve_nodal span."""
    rows = {}
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if name == "shooting.solve_nodal":
            rows[i] = {**attrs, "integrations": 0, "rhs_evals": 0, "steps": 0,
                       "outcome": attrs.get("error", "ok")}
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if name == SCIPY_SPAN:
            owner = ancestor(spans, i, "shooting.solve_nodal")
            if owner is not None:
                row = rows[owner]
                row["integrations"] += 1
                row["rhs_evals"] += attrs["nfev"]
                row["steps"] += attrs["steps"]
    return [rows[i] for i in sorted(rows)]


def layer_metrics(spans, rounds: int, bytes_written: int, span_cost: float) -> dict[str, float]:
    """The per-layer metrics of a traced run, per round."""
    selfs = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    durations = defaultdict(list)
    for (name, start, end, _, _), own in zip(spans, selfs):
        busy[name] += end - start
        calls[name] += 1
        layer_self[layer_of(name)] += own
        durations[name].append(end - start)

    solves = [s for s in spans if s[0] == "shooting.solve_nodal"]
    solved = sum(1 for s in solves if "error" not in s[4])
    in_solve = [i for i, s in enumerate(spans)
                if s[0] == "ode.integrate" and ancestor(spans, i, "shooting.solve_nodal") is not None]
    capped = sum(1 for i in in_solve if spans[i][4]["capped"])
    scipy_spans = [s for s in spans if s[0] == SCIPY_SPAN]
    rhs = sum(s[4]["nfev"] for s in scipy_spans)

    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "shooting.solve_nodal.calls": per_round(len(solves)),
        "shooting.solve_nodal.busy_s": per_round(busy["shooting.solve_nodal"]),
        "shooting.self_s": per_round(layer_self["shooting"]),
        "shooting.integrations_per_solve": ratio(len(in_solve), len(solves)),
        "shooting.proxy_integrations": per_round(capped),
        "shooting.final_integrations": per_round(len(in_solve) - capped),
        "shooting.solved_ratio": ratio(solved, len(solves)),
        "shooting.useful_ratio": ratio(solved, len(in_solve)),
        "ode.integrate.calls": per_round(calls["ode.integrate"]),
        "ode.integrate.busy_s": per_round(busy["ode.integrate"]),
        "ode.integrate.s_per_call.p50": (statistics.median(durations["ode.integrate"])
                                         if durations["ode.integrate"] else 0.0),
        "ode.rhs_evals": per_round(rhs),
        "ode.rhs_evals_per_call": ratio(rhs, len(scipy_spans)),
        "ode.steps": per_round(sum(s[4]["steps"] for s in scipy_spans)),
        "ode.scipy_s": per_round(layer_self["scipy"]),
        "ode.self_s": per_round(layer_self["ode"]),
        "diagnostics.certify.calls": per_round(calls["diagnostics.certify"]),
        "diagnostics.certify.busy_s": per_round(busy["diagnostics.certify"]),
        "diagnostics.radial_norms.calls": per_round(calls["diagnostics.radial_norms"]),
        "diagnostics.radial_norms.busy_s": per_round(busy["diagnostics.radial_norms"]),
        "diagnostics.self_s": per_round(layer_self["diagnostics"]),
        "asymptotics.build_record.busy_s": per_round(busy["asymptotics.build_record"]),
        "asymptotics.envelopes.busy_s": per_round(sum(busy[n] for n in ENVELOPES)),
        "asymptotics.rate_law_report.busy_s": per_round(busy["asymptotics.rate_law_report"]),
        "asymptotics.green_profile_gaps.busy_s": per_round(busy["asymptotics.green_profile_gaps"]),
        "asymptotics.self_s": per_round(layer_self["asymptotics"]),
        "bubble.lambda_1.calls": per_round(calls["bubble.lambda_1"]),
        "bubble.lambda_1.busy_s": per_round(busy["bubble.lambda_1"]),
        "bubble.constants.busy_s": per_round(busy["bubble.constants"]),
        "bubble.self_s": per_round(layer_self["bubble"]),
        "cli.self_s": per_round(layer_self["cli"]),
        "cli.bytes_written": per_round(bytes_written),
        "cli.load_records.busy_s": per_round(busy["cli.load_records"]),
        "bench.self_s": per_round(layer_self["bench"]),
        "trace.round_s": per_round(busy[ROUND_SPAN]),
        "trace.spans": per_round(len(spans)),
        "trace.overhead_s": per_round(len(spans) * span_cost),
    }
