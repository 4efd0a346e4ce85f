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

The windows of a record are fixed, not options: the Green-limit gaps are
taken on 121 points over 0.2 <= r <= 0.8 against the unit-source kernel
times c~, and each bubble deviation on 801 rescaled samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .bubble import constants, delta
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
# The window of the Green-limit gaps, fixed by the sweep contract.
_GREEN_GRID = np.linspace(0.2, 0.8, 121)
# Samples per rescaled part in the bubble deviations of a record.
_BUBBLE_SAMPLES = 801
# The scalar laws of a record, in report order: the limit each converges
# to (a field of bubble.constants, or 1), the window of its gap trend (the
# last three records, or the whole sweep when None) and whether its
# verdict gates overall_pass.
_LAWS = {
    "q1": ("c3", 3, False),
    "q2": ("c3", 3, True),
    "q3": (1.0, 3, True),
    "p1": ("c1", None, True),
    "p2": ("c2", 3, False),
    "p3": ("c1", None, True),
    "p4": ("c2", 3, False),
}
# Largest relative error of a law's extrapolated limit.
_LAW_TOL = 0.10


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
    """Result of the annular envelope check at epsilon = (n-2)/4."""

    violation: float  # physical frame, scale M-
    rescaled_violation: float  # plateau envelope U_h, scale 1
    region: tuple[float, float]
    delta: float
    h: float
    epsilon: float


def _need_features(solution) -> tuple:
    if solution.features is None:
        raise ConfigError("this diagnostic needs a two-region solution with features")
    return solution.profile, solution.params, solution.features


def _rescaling_grid(grid_y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(grid_y, dtype=float))
    if y.size == 0:
        raise EmptyWindow("empty rescaling grid")
    return y


def _envelope(params: Params, M: float, c: float, r):
    """The bubble of height M widened by c at radii r, the physical-frame
    envelope M {1 + (lambda + M^{2 beta}) c r^2 / (n(n-2))}^{-(n-2)/2}."""
    n = params.n
    coef = (params.lam + M ** (2.0 * params.beta)) * c / (n * (n - 2.0))
    return M * (1.0 + coef * r * r) ** (-(n - 2.0) / 2.0)


def rescale_plus(solution, grid_y) -> np.ndarray:
    """Sample the rescaled positive part: u~+(y) = u(y M+^{-beta}) / M+.

    The domain is [0, sigma_lambda]; u~+(0) = 1 exactly because the center
    amplitude is the normalizing constant.
    """
    profile, _, f = _need_features(solution)
    y = _rescaling_grid(grid_y)
    if y.min() < -_DOMAIN_SLACK or y.max() > f.sigma * (1.0 + _DOMAIN_SLACK):
        raise OutOfDomain(
            f"grid must lie in [0, sigma={f.sigma:.6g}], got "
            f"[{y.min():.6g}, {y.max():.6g}]"
        )
    vals = profile.rescaled(f.m_plus).u(np.clip(y, 0.0, None))
    return np.maximum(vals, 0.0)


def rescale_minus(solution, grid_y) -> np.ndarray:
    """Sample the rescaled negative part: u~-(y) = max(-u, 0)(y M-^{-beta}) / M-.

    The natural domain is the rescaled annulus [rho_lambda, M-^beta]; the
    solution vanishes on the boundary, so beyond M-^beta the samples
    continue by zero exactly as the solution itself extends by zero
    outside the ball.  u~-(gamma_lambda) = 1 by construction: the
    evaluation is snapped at the minimum point, where roundoff in the
    radius map is second order anyway.
    """
    profile, _, f = _need_features(solution)
    y = _rescaling_grid(grid_y)
    if y.min() < f.rho * (1.0 - 1e-12):
        raise OutOfDomain(
            f"grid must stay in the rescaled annulus y >= rho={f.rho:.6g}, "
            f"got min {y.min():.6g}"
        )
    scaled = profile.rescaled(f.m_minus)
    vals = np.zeros_like(y)
    inside = y <= scaled.r_end
    if np.any(inside):
        vals[inside] = np.maximum(-scaled.u(y[inside]), 0.0)
    gamma = f.gamma
    snap = np.abs(y - gamma) <= 4.0 * np.finfo(float).eps * gamma
    vals[snap] = 1.0
    return vals


def bubble_deviation(y, samples, n: int) -> float:
    """Sup distance of rescaled samples from the unit-height bubble."""
    ref = delta(n, y)
    return float(np.max(np.abs(np.asarray(samples, dtype=float) - ref)))


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
    env = _envelope(params, f.m_plus, 1.0, rs)
    return float(np.max(u - env))


def rescaled_envelope_violation(solution) -> float:
    """Worst excess of u~+ over the unit bubble envelope on [0, sigma]."""
    profile, params, f = _need_features(solution)
    knots = np.asarray(profile.knots, dtype=float)
    rs = np.concatenate([[0.0], knots[knots <= f.r_lambda]])
    y = f.m_plus**params.beta * rs
    vals = rescale_plus(solution, y)
    env = delta(params.n, y)
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


def annulus_envelope_violation(solution) -> AnnulusEnvelope:
    """Check the annular envelope of the negative part at epsilon = (n-2)/4.

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
    env = _envelope(params, f.m_minus, c_eps, rs)
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


def green_profile_gaps(profile) -> tuple[float, float]:
    """Sup gaps between lambda^{-green_exp} u and its Green-function limit.

    Compares against c~ G(r) with the unit-source normalization of the
    kernel (see green module) on 121 points over 0.2 <= r <= 0.8, the
    window the sweep contract fixes; the limit carries no usable rate, so
    callers check that these gaps shrink along a sweep rather than against
    an absolute tolerance.
    """
    params = profile.params
    n = params.n
    cte = constants(n).c_tilde
    pref = params.lam ** (-params.green_exp)
    gref = np.array([cte * unit_source_green_at_center(n, r) for r in _GREEN_GRID])
    dgref = np.array(
        [cte * unit_source_green_gradient_at_center(n, r) for r in _GREEN_GRID]
    )
    u, du = profile.u_du(_GREEN_GRID)
    u, du = pref * u, pref * du
    return float(np.max(np.abs(u - gref))), float(np.max(np.abs(du - dgref)))


def build_record(solution) -> SweepRecord:
    """Assemble the per-lambda scalar record from one accepted solution.

    Each bubble deviation takes 801 samples; the Green-limit gaps use
    green_profile_gaps' fixed window.
    """
    params, f = solution.params, solution.features
    res = solution.residuals
    lam = params.lam
    if f is None:
        laws = dict.fromkeys(_LAWS, math.nan)
        dev_plus = dev_minus = math.nan
    else:
        n = params.n
        e = params.rate_exp
        rn2 = f.r_lambda ** (n - 2.0)
        laws = {
            "q1": f.m_plus**e * rn2 * lam,
            "q2": f.m_minus**e * lam,
            "q3": f.m_minus**e / (f.m_plus**e * rn2),
            "p1": f.m_plus * abs(f.du_node) * f.r_lambda ** (n - 1.0),
            "p2": f.m_plus ** (2.0 * params.beta) * f.r_lambda**n * f.du_node**2 / lam,
            "p3": f.m_minus * abs(f.du_boundary),
            "p4": f.m_minus ** (2.0 * params.beta)
            * (f.du_boundary**2 - f.du_node**2 * f.r_lambda**n)
            / lam,
        }

        y_plus = np.linspace(0.0, min(f.sigma, 10.0), _BUBBLE_SAMPLES)
        dev_plus = bubble_deviation(
            y_plus, rescale_plus(solution, y_plus), n
        )
        start = max(2.0 * f.gamma, 0.5)
        y_minus = np.linspace(start, 10.0, _BUBBLE_SAMPLES)
        dev_minus = bubble_deviation(
            y_minus, rescale_minus(solution, y_minus), n
        )
    green_dev, green_grad_dev = green_profile_gaps(solution.profile)
    return SweepRecord(
        lam=lam,
        features=f,
        **laws,
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
    values: list[float], limit: float, *, tail: int | None, gated: bool
) -> dict:
    scale = abs(limit) if limit != 0.0 else 1.0
    gaps = [float(abs(v - limit) / scale) for v in values]
    window = gaps if tail is None else gaps[-tail:]
    decreasing = _strictly_decreasing(window)
    extrapolated = float(_aitken(*values[-3:]))
    rel_err = float(abs(extrapolated - limit) / scale)
    return {
        "values": [float(v) for v in values],
        "limit": limit,
        "gaps": gaps,
        "gaps_strictly_decreasing": decreasing,
        "trend_window": "tail-3" if tail else "full",
        "extrapolated": extrapolated,
        "relative_error": rel_err,
        "tolerance": _LAW_TOL,
        "within_tolerance": rel_err <= _LAW_TOL,
        "passed": decreasing and rel_err <= _LAW_TOL,
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
    exps = Params(n=n, lam=0.0)
    quantities = {
        name: _quantity_verdict(
            [getattr(r, name) for r in recs],
            getattr(cst, limit) if isinstance(limit, str) else limit,
            tail=tail,
            gated=gated,
        )
        for name, (limit, tail, gated) in _LAWS.items()
    }

    # A NaN or infinite gap fails the identity; a zero q2 gives an infinite one.
    gaps = [abs(r.q3 * r.q1 - r.q2) / abs(r.q2) if r.q2 else math.inf for r in recs]
    worst_gap = float(np.max(gaps))
    identity = {
        "max_relative_gap": worst_gap,
        "tolerance": 1e-12,
        "passed": worst_gap <= 1e-12,
    }

    level = (2.0 / n) * cst.s_pow
    trends = {}
    for name, series, final_tol in (
        ("bubble_dev_plus", [r.bubble_dev_plus for r in recs], 5e-2),
        ("bubble_dev_minus", [r.bubble_dev_minus for r in recs], None),
        ("green_dev", [r.green_dev for r in recs], None),
        ("green_grad_dev", [r.green_grad_dev for r in recs], None),
        ("energy_gap", [abs(r.energy - level) / cst.s_pow for r in recs], None),
    ):
        values = [float(v) for v in series]
        ok = _decreasing_to_floor(values)
        trends[name] = {"values": values, "strictly_decreasing": ok, "passed": ok}
        if final_tol is not None:
            trends[name].update(
                final=values[-1],
                final_tolerance=final_tol,
                passed=ok and values[-1] < final_tol,
            )
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
        "limits": {"c1": cst.c1, "c2": cst.c2, "c3": cst.c3, "s_pow": cst.s_pow},
        "quantities": quantities,
        "identity_q3_q1_q2": identity,
        "trends": trends,
        "slope_log_m_minus": slope,
        "informational": informational,
        "overall_pass": all(gated_passes),
    }
