"""Quantitative small-lambda laws of the two-region radial solutions.

As lambda -> 0 the positive inner part and the negative annular part of
the least-energy sign-changing solution blow up at the origin at two
separated speeds M+ and M-.  After the inner rescaling both parts go to
the standard bubble; scalar combinations of (M+, M-, r_lambda) and the
node/boundary fluxes converge to closed-form constants; away from the
origin the solution approaches a multiple of the ball's Green function;
and explicit bubble-shaped envelopes bound the profile pointwise.  This
module computes all of those quantities for one solution or a sweep of
them, so the limits can be checked as monotone-gap trends with Richardson
extrapolation (the limits come with no rate, so trends are the honest
desk-scale test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .bubble import bubble_eval, constants, normalized_mu
from .green import (
    unit_source_green_at_center,
    unit_source_green_gradient_at_center,
)
from .model import (
    ConfigError,
    EmptyWindow,
    EpsilonOutOfRange,
    InsufficientRecords,
    NodalFeatures,
    OutOfDomain,
    Params,
    RegionEmpty,
)

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class SweepRecord:
    """Scalar diagnostics of one accepted two-region solution.

    The q's converge to c3 = c1^2/c2 (q1, q2) and 1 (q3); p1, p3 converge
    to c1 and p2, p4 to c2.  Deviation fields are sup norms over the
    windows fixed by the sweep contract.  Fields are NaN when the solution
    carries no two-region features (k != 2).
    """

    lam: float
    features: NodalFeatures | None
    q1: float
    q2: float
    q3: float
    p1: float
    p2: float
    p3: float
    p4: float
    bubble_dev_plus: float
    bubble_dev_minus: float
    green_dev: float
    green_grad_dev: float
    energy: float
    nehari: float
    pohozaev_ball: float
    pohozaev_annulus: float


@dataclass(frozen=True)
class AnnulusEnvelope:
    """Result of the annular envelope check at one epsilon."""

    violation: float  # physical frame, scale M-
    rescaled_violation: float  # plateau envelope U_h, scale 1
    region: tuple[float, float]
    delta: float
    h: float
    epsilon: float


def _solution_parts(solution):
    profile = getattr(solution, "profile", solution)
    params = getattr(solution, "params", None) or profile.params
    features = getattr(solution, "features", None)
    return profile, params, features


def _need_features(solution) -> tuple:
    profile, params, features = _solution_parts(solution)
    if features is None:
        raise ConfigError("this diagnostic needs a two-region solution with features")
    return profile, params, features


def rescale_plus(solution, grid_y) -> np.ndarray:
    """Sample the rescaled positive part: u~+(y) = u(y M+^{-beta}) / M+.

    The domain is [0, sigma_lambda]; u~+(0) = 1 exactly because the center
    amplitude is the normalizing constant.
    """
    profile, params, f = _need_features(solution)
    y = np.atleast_1d(np.asarray(grid_y, dtype=float))
    if y.size == 0:
        raise EmptyWindow("empty rescaling grid")
    if y.min() < -_DOMAIN_SLACK or y.max() > f.sigma * (1.0 + _DOMAIN_SLACK):
        raise OutOfDomain(
            f"grid must lie in [0, sigma={f.sigma:.6g}], got "
            f"[{y.min():.6g}, {y.max():.6g}]"
        )
    scale = f.m_plus**params.beta
    vals = np.asarray(profile.u(np.clip(y, 0.0, None) / scale), dtype=float)
    return np.maximum(vals, 0.0) / f.m_plus


def rescale_minus(solution, grid_y) -> np.ndarray:
    """Sample the rescaled negative part: u~-(y) = max(-u, 0)(y M-^{-beta}) / M-.

    The natural domain is the rescaled annulus [rho_lambda, M-^beta]; the
    solution vanishes on the boundary, so beyond M-^beta the samples
    continue by zero exactly as the solution itself extends by zero
    outside the ball.  u~-(gamma_lambda) = 1 by construction: the
    evaluation is snapped at the minimum point, where roundoff in the
    radius map is second order anyway.
    """
    profile, params, f = _need_features(solution)
    y = np.atleast_1d(np.asarray(grid_y, dtype=float))
    if y.size == 0:
        raise EmptyWindow("empty rescaling grid")
    if y.min() < f.rho * (1.0 - 1e-12):
        raise OutOfDomain(
            f"grid must stay in the rescaled annulus y >= rho={f.rho:.6g}, "
            f"got min {y.min():.6g}"
        )
    scale = f.m_minus**params.beta
    outer = scale * profile.r_end
    vals = np.zeros_like(y)
    inside = y <= outer
    if np.any(inside):
        u = np.asarray(profile.u(y[inside] / scale), dtype=float)
        vals[inside] = np.maximum(-u, 0.0) / f.m_minus
    gamma = f.gamma
    snap = np.abs(y - gamma) <= 4.0 * np.finfo(float).eps * gamma
    vals[snap] = 1.0
    return vals


def bubble_deviation(y, samples, n: int, window: tuple[float, float] | None = None) -> float:
    """Sup distance of rescaled samples from the unit-height bubble."""
    y = np.asarray(y, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if window is None:
        mask = np.ones_like(y, dtype=bool)
    else:
        lo, hi = window
        if lo < y.min() - _DOMAIN_SLACK or hi > y.max() + _DOMAIN_SLACK:
            raise OutOfDomain(
                f"window [{lo:g}, {hi:g}] exceeds sample span "
                f"[{y.min():g}, {y.max():g}]"
            )
        mask = (y >= lo - _DOMAIN_SLACK) & (y <= hi + _DOMAIN_SLACK)
    if not np.any(mask):
        raise EmptyWindow(f"no samples in window {window}")
    ref = bubble_eval(n, normalized_mu(n), y[mask])
    return float(np.max(np.abs(samples[mask] - ref)))


def center_envelope_violation(solution) -> float:
    """Worst excess of u+ over its center envelope on [0, r_lambda].

    The envelope M+ {1 + (lambda + M+^{2 beta}) r^2 / (n(n-2))}^{-(n-2)/2}
    touches the solution at r = 0; a genuine solution stays below it, so
    the returned max is ~0 at the center and negative elsewhere.
    """
    profile, params, f = _need_features(solution)
    knots = np.asarray(profile.knots, dtype=float)
    rs = np.concatenate([[0.0], knots[knots <= f.r_lambda]])
    u = np.maximum(np.asarray(profile.u(rs), dtype=float), 0.0)
    coef = (params.lam + f.m_plus ** (2.0 * params.beta)) / (
        params.n * (params.n - 2.0)
    )
    env = f.m_plus * (1.0 + coef * rs * rs) ** (-(params.n - 2.0) / 2.0)
    return float(np.max(u - env))


def rescaled_envelope_violation(solution) -> float:
    """Worst excess of u~+ over the unit bubble envelope on [0, sigma]."""
    profile, params, f = _need_features(solution)
    knots = np.asarray(profile.knots, dtype=float)
    rs = np.concatenate([[0.0], knots[knots <= f.r_lambda]])
    y = f.m_plus**params.beta * rs
    vals = rescale_plus(solution, y)
    env = bubble_eval(params.n, normalized_mu(params.n), y)
    return float(np.max(vals - env))


def delta_of_epsilon(n: int, epsilon: float) -> float:
    """The unique delta in (0,1) with g(delta) = epsilon.

    g(s) = 1/(k-2) + s - ((k-1)/(k-2)) s^{(k-2)/(k-1)} with
    k = 2(n-1)/(n-2) decreases from g(0) = (n-2)/2 to g(1) = 0, so the
    root exists for every epsilon in (0, (n-2)/2) and moves toward 1 as
    epsilon shrinks.
    """
    if n < 3:
        raise EpsilonOutOfRange(f"need n >= 3, got {n}")
    top = (n - 2.0) / 2.0
    if not 0.0 < epsilon < top:
        raise EpsilonOutOfRange(
            f"epsilon must lie in (0, {top:g}) for n={n}, got {epsilon}"
        )
    k = 2.0 * (n - 1.0) / (n - 2.0)
    c0 = 1.0 / (k - 2.0)
    c1 = (k - 1.0) / (k - 2.0)
    p = (k - 2.0) / (k - 1.0)

    def g(s: float) -> float:
        return c0 + s - c1 * s**p - epsilon

    return float(brentq(g, 1e-300, 1.0, xtol=1e-15, rtol=8.9e-16))


def annulus_envelope_violation(solution, epsilon: float | None = None) -> AnnulusEnvelope:
    """Check the annular envelope of the negative part at one epsilon.

    In the physical frame the bound reads, on delta(eps)^{-1/n} s_lambda
    < r < 1,

        u-(r) <= M- {1 + (lambda + M-^{2 beta}) c(eps) r^2 / (n(n-2))}^{-(n-2)/2},

    with c(eps) = 2 eps / (n-2).  The rescaled form is the plateau
    envelope U_h: 1 up to h = delta^{-1/n} gamma_lambda, the c(eps)-widened
    bubble beyond it.  Both worst-case excesses are returned; the bound is
    proven for small lambda only, so a positive violation at the large end
    of a sweep is reported, not raised.
    """
    profile, params, f = _need_features(solution)
    n = params.n
    if epsilon is None:
        epsilon = (n - 2.0) / 4.0
    delta = delta_of_epsilon(n, epsilon)
    r_in = delta ** (-1.0 / n) * f.s_lambda
    if r_in >= 1.0:
        raise RegionEmpty(
            f"inner radius delta^(-1/n) s_lambda = {r_in:.6g} >= 1; "
            f"the annular region is empty at lambda={params.lam:g}"
        )
    c_eps = 2.0 * epsilon / (n - 2.0)
    K = n * (n - 2.0)
    knots = np.asarray(profile.knots, dtype=float)

    rs = knots[(knots > r_in) & (knots < 1.0)]
    uminus = np.maximum(-np.asarray(profile.u(rs), dtype=float), 0.0)
    coef = (params.lam + f.m_minus ** (2.0 * params.beta)) * c_eps / K
    env = f.m_minus * (1.0 + coef * rs * rs) ** (-(n - 2.0) / 2.0)
    violation = float(np.max(uminus - env)) if rs.size else -math.inf

    scale = f.m_minus**params.beta
    h = delta ** (-1.0 / n) * f.gamma
    ys = scale * knots[(knots >= f.r_lambda) & (knots <= 1.0)]
    tilde = rescale_minus(solution, ys)
    plateau = (1.0 + c_eps * ys * ys / K) ** (-(n - 2.0) / 2.0)
    u_h = np.where(ys <= h, 1.0, plateau)
    rescaled_violation = float(np.max(tilde - u_h)) if ys.size else -math.inf

    return AnnulusEnvelope(
        violation=violation,
        rescaled_violation=rescaled_violation,
        region=(float(r_in), 1.0),
        delta=delta,
        h=float(h),
        epsilon=float(epsilon),
    )


def green_profile_gaps(
    solution,
    annulus: tuple[float, float] = (0.2, 0.8),
    grid=None,
) -> tuple[float, float]:
    """Sup gaps between lambda^{-green_exp} u and its Green-function limit.

    Compares against c~ G(r) with the unit-source normalization of the
    kernel (see green module); the limit carries no usable rate, so
    callers check that these gaps shrink along a sweep rather than against
    an absolute tolerance.
    """
    profile, params, _ = _solution_parts(solution)
    r_in, r_out = float(annulus[0]), float(annulus[1])
    if not 0.0 < r_in < r_out < 1.0:
        raise OutOfDomain(
            f"annulus must satisfy 0 < r_in < r_out < 1, got ({r_in}, {r_out})"
        )
    if grid is None:
        grid = np.linspace(r_in, r_out, 121)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.min() < r_in - _DOMAIN_SLACK or grid.max() > r_out + _DOMAIN_SLACK:
            raise OutOfDomain("grid must lie inside the annulus")
    n = params.n
    cte = constants(n).c_tilde
    pref = params.lam ** (-params.green_exp)
    gref = np.array([cte * unit_source_green_at_center(n, r) for r in grid])
    dgref = np.array(
        [cte * unit_source_green_gradient_at_center(n, r) for r in grid]
    )
    u, du = profile.u_du(grid)
    u, du = pref * u, pref * du
    return float(np.max(np.abs(u - gref))), float(np.max(np.abs(du - dgref)))


def build_record(solution, *, bubble_samples: int = 801) -> SweepRecord:
    """Assemble the per-lambda scalar record from one accepted solution.

    The Green-limit gaps use green_profile_gaps' default annulus
    (0.2, 0.8), the window fixed by the sweep contract.
    """
    profile, params, f = _solution_parts(solution)
    res = solution.residuals
    lam = params.lam
    nan = math.nan
    if f is None:
        q = (nan,) * 7
        dev_plus = dev_minus = nan
    else:
        n = params.n
        e = params.rate_exp
        rn2 = f.r_lambda ** (n - 2.0)
        q1 = f.m_plus**e * rn2 * lam
        q2 = f.m_minus**e * lam
        q3 = f.m_minus**e / (f.m_plus**e * rn2)
        p1 = f.m_plus * abs(f.du_node) * f.r_lambda ** (n - 1.0)
        p2 = (
            f.m_plus ** (2.0 * params.beta)
            * f.r_lambda**n
            * f.du_node**2
            / lam
        )
        p3 = f.m_minus * abs(f.du_boundary)
        p4 = (
            f.m_minus ** (2.0 * params.beta)
            * (f.du_boundary**2 - f.du_node**2 * f.r_lambda**n)
            / lam
        )
        q = (q1, q2, q3, p1, p2, p3, p4)

        y_plus = np.linspace(0.0, min(f.sigma, 10.0), bubble_samples)
        dev_plus = bubble_deviation(
            y_plus, rescale_plus(solution, y_plus), n
        )
        start = max(2.0 * f.gamma, 0.5)
        y_minus = np.linspace(start, 10.0, bubble_samples)
        dev_minus = bubble_deviation(
            y_minus, rescale_minus(solution, y_minus), n
        )
    green_dev, green_grad_dev = green_profile_gaps(solution)
    return SweepRecord(
        lam=lam,
        features=f,
        q1=q[0],
        q2=q[1],
        q3=q[2],
        p1=q[3],
        p2=q[4],
        p3=q[5],
        p4=q[6],
        bubble_dev_plus=dev_plus,
        bubble_dev_minus=dev_minus,
        green_dev=green_dev,
        green_grad_dev=green_grad_dev,
        energy=res.energy,
        nehari=res.nehari,
        pohozaev_ball=res.pohozaev_ball,
        pohozaev_annulus=res.pohozaev_annulus,
    )


def _aitken(x1: float, x2: float, x3: float) -> float:
    denom = (x3 - x2) - (x2 - x1)
    if denom == 0.0:
        return x3
    return x3 - (x3 - x2) ** 2 / denom


def _gap_series(values, limit: float) -> list[float]:
    scale = abs(limit) if limit != 0.0 else 1.0
    return [abs(v - limit) / scale for v in values]


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


# Deviations that have collapsed to rounding noise cannot keep shrinking;
# a pair already at the floor counts as converged rather than stalled.
_TREND_FLOOR = 1e-12


def _decreasing_to_floor(seq, floor: float = _TREND_FLOOR) -> bool:
    return all(
        b < a or (a <= floor and b <= floor) for a, b in zip(seq, seq[1:])
    )


def _quantity_verdict(
    values: list[float],
    limit: float,
    *,
    tail: int | None,
    tolerance: float,
    gated: bool,
) -> dict:
    gaps = _gap_series(values, limit)
    window = gaps if tail is None else gaps[-tail:]
    decreasing = _strictly_decreasing(window)
    extrapolated = float(_aitken(*values[-3:]))
    scale = abs(limit) if limit != 0.0 else 1.0
    rel_err = float(abs(extrapolated - limit) / scale)
    return {
        "values": [float(v) for v in values],
        "limit": limit,
        "gaps": [float(g) for g in gaps],
        "gaps_strictly_decreasing": decreasing,
        "trend_window": "tail-3" if tail else "full",
        "extrapolated": extrapolated,
        "relative_error": rel_err,
        "tolerance": tolerance,
        "within_tolerance": rel_err <= tolerance,
        "passed": decreasing and rel_err <= tolerance,
        "gated": gated,
    }


def rate_law_report(records: list[SweepRecord], n: int) -> dict:
    """Trend-plus-extrapolation verdicts for every scalar law of a sweep.

    Needs at least three records at strictly decreasing lambda.  The
    gated subset (the q2/q3/p1/p3 limits, the two bubble deviations, both
    Green gaps, the energy level, and the log M- slope) decides
    overall_pass; the remaining quantities are reported for inspection
    but carry no veto, since no acceptance tolerance is attached to them.
    """
    recs = [r for r in records if r.features is not None and math.isfinite(r.q2)]
    if len(recs) < 3:
        raise InsufficientRecords(
            f"need at least 3 records with two-region features, got {len(recs)}"
        )
    lams = [r.lam for r in recs]
    if not _strictly_decreasing(lams):
        raise ConfigError("records must be ordered by strictly decreasing lambda")

    cst = constants(n)
    c1, c2, c3 = cst.c1, cst.c2, cst.c3
    exps = Params(n=n, lam=0.0)
    quantities = {
        "q1": _quantity_verdict(
            [r.q1 for r in recs], c3, tail=3, tolerance=0.10, gated=False
        ),
        "q2": _quantity_verdict(
            [r.q2 for r in recs], c3, tail=3, tolerance=0.10, gated=True
        ),
        "q3": _quantity_verdict(
            [r.q3 for r in recs], 1.0, tail=3, tolerance=0.10, gated=True
        ),
        "p1": _quantity_verdict(
            [r.p1 for r in recs], c1, tail=None, tolerance=0.10, gated=True
        ),
        "p2": _quantity_verdict(
            [r.p2 for r in recs], c2, tail=3, tolerance=0.10, gated=False
        ),
        "p3": _quantity_verdict(
            [r.p3 for r in recs], c1, tail=None, tolerance=0.10, gated=True
        ),
        "p4": _quantity_verdict(
            [r.p4 for r in recs], c2, tail=3, tolerance=0.10, gated=False
        ),
    }

    identity_gaps = [float(abs(r.q3 * r.q1 - r.q2) / abs(r.q2)) for r in recs]
    identity = {
        "max_relative_gap": max(identity_gaps),
        "tolerance": 1e-12,
        "passed": max(identity_gaps) <= 1e-12,
    }

    def trend(values, *, final_tol: float | None = None) -> dict:
        values = [float(v) for v in values]
        ok = _decreasing_to_floor(values)
        out = {
            "values": values,
            "strictly_decreasing": ok,
            "passed": ok,
        }
        if final_tol is not None:
            out["final"] = values[-1]
            out["final_tolerance"] = final_tol
            out["passed"] = ok and values[-1] < final_tol
        return out

    trends = {
        "bubble_dev_plus": trend(
            [r.bubble_dev_plus for r in recs], final_tol=5e-2
        ),
        "bubble_dev_minus": trend([r.bubble_dev_minus for r in recs]),
        "green_dev": trend([r.green_dev for r in recs]),
        "green_grad_dev": trend([r.green_grad_dev for r in recs]),
        "energy_gap": trend(
            [
                abs(r.energy - (2.0 / n) * cst.s_pow) / cst.s_pow
                for r in recs
            ]
        ),
    }
    speed = [r.features.m_plus / r.features.m_minus for r in recs]
    small_term = [
        r.features.m_minus ** (2.0 * exps.beta)
        * r.features.du_node**2
        * r.features.r_lambda**n
        / r.lam
        for r in recs
    ]
    informational = {
        "speed_ratio_increasing": all(b > a for a, b in zip(speed, speed[1:])),
        "speed_ratio": speed,
        "annulus_flux_small_term": small_term,
        "annulus_flux_small_term_decreasing": _strictly_decreasing(small_term),
        "node_flux_ratio": [
            abs(r.features.du_node) * r.features.r_lambda ** (n / 2.0)
            for r in recs
        ],
    }

    target_slope = -exps.green_exp
    tail_l = np.log([r.lam for r in recs[-3:]])
    tail_m = np.log([r.features.m_minus for r in recs[-3:]])
    slope_val = float(np.polyfit(tail_l, tail_m, 1)[0])
    slope = {
        "value": slope_val,
        "target": target_slope,
        "tolerance": 0.1,
        "passed": abs(slope_val - target_slope) <= 0.1,
    }

    gated_passes = (
        [v["passed"] for v in quantities.values() if v["gated"]]
        + [identity["passed"], slope["passed"]]
        + [t["passed"] for t in trends.values()]
    )
    return {
        "n": n,
        "lambda_grid": lams,
        "limits": {"c1": c1, "c2": c2, "c3": c3, "s_pow": cst.s_pow},
        "quantities": quantities,
        "identity_q3_q1_q2": identity,
        "trends": trends,
        "slope_log_m_minus": slope,
        "informational": informational,
        "overall_pass": all(gated_passes),
    }
