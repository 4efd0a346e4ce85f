"""Acceptance gate: twelve pass/fail criteria over the n=7 reference sweep.

Each test recomputes its criterion from the shared sweep fixtures rather
than trusting the report wiring, prints one `criterion NN PASS/FAIL` line,
and asserts it.  The lines are echoed in the terminal summary.
"""

import math
import time

import numpy as np

import conftest
from bnball.asymptotics import (
    annulus_envelope_violation,
    center_envelope_violation,
    rescaled_envelope_violation,
)
from bnball.bubble import constants, delta
from bnball.model import Params, RegionEmpty
from bnball.ode import integrate

# Deviation pairs already at rounding noise cannot keep strictly shrinking;
# treat both-below-floor as converged (bubble_dev_plus saturates near eps).
TREND_FLOOR = 1e-12


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _strict(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _strict_to_floor(seq) -> bool:
    return all(
        b < a or (a <= TREND_FLOOR and b <= TREND_FLOOR)
        for a, b in zip(seq, seq[1:])
    )


def _aitken(x1: float, x2: float, x3: float) -> float:
    return x3 - (x3 - x2) ** 2 / ((x3 - x2) - (x2 - x1))


def test_criterion_01_bubble_oracle():
    sups = {}
    t0 = time.perf_counter()
    for n in (7, 9):
        profile = integrate(Params(n=n, lam=0.0), 1.0, 10.0)
        y = np.linspace(0.0, 10.0, 2001)
        ref = delta(n, y)
        sups[n] = float(np.max(np.abs(profile.u(y) - ref)))
    dt = time.perf_counter() - t0
    ok = all(s < 1e-8 for s in sups.values()) and dt < 1.0
    _record(
        1,
        ok,
        f"sup|u - bubble| on [0,10]: n=7 {sups[7]:.2e}, n=9 {sups[9]:.2e} "
        f"(tol 1e-8); runtime {dt:.2f}s < 1s",
    )


def test_criterion_02_constants_against_beta_oracles():
    constants.cache_clear()
    t0 = time.perf_counter()
    computed = {n: constants(n) for n in conftest.BUBBLE_MOMENTS}
    dt = time.perf_counter() - t0

    worst = max(conftest.worst_moment_gap(n, cst) for n, cst in computed.items())
    ok = worst < 1e-12 and dt < 1.0
    _record(
        2,
        ok,
        f"c1, c2, c3, c~, S^(n/2) against the 50-digit table, n=5..10: worst "
        f"gap {worst:.2e} (tol 1e-12); runtime {dt:.3f}s < 1s",
    )


def test_criterion_03_certification(sweep7):
    worst_res = 0.0
    worst_energy = 0.0
    worst_boundary = 0.0
    for p in sweep7:
        sol = p.solution
        res = sol.residuals
        worst_res = max(
            worst_res,
            abs(res.nehari),
            abs(res.pohozaev_ball),
            abs(res.pohozaev_annulus),
        )
        prof = sol.profile
        u0, v0 = float(prof.values[0]), float(prof.derivs[0])
        ts = sol.params.two_star
        e0 = 0.5 * v0 * v0 + 0.5 * sol.params.lam * u0 * u0 + abs(u0) ** ts / ts
        worst_energy = max(worst_energy, res.e_monotone_violation / e0)
        worst_boundary = max(
            worst_boundary, abs(prof.u(prof.r_end)) / sol.a_star
        )
    ok = worst_res < 1e-6 and worst_energy <= 1e-9 and worst_boundary < 1e-9
    _record(
        3,
        ok,
        f"worst |residual| {worst_res:.2e} (tol 1e-6), energy rise "
        f"{worst_energy:.2e}*E0 (tol 1e-9), |u(1)| {worst_boundary:.2e}*u(0) "
        f"(tol 1e-9) over {len(sweep7)} solutions",
    )


def test_criterion_04_q2_to_c3(records7, consts7):
    q2 = [r.q2 for r in records7]
    gaps = [abs(v - consts7.c3) / consts7.c3 for v in q2]
    tail = gaps[-3:]
    extrap = _aitken(*q2[-3:])
    rel = abs(extrap - consts7.c3) / consts7.c3
    ok = _strict(tail) and rel <= 0.10
    _record(
        4,
        ok,
        f"q2 tail gaps {tail[0]:.3f} > {tail[1]:.3f} > {tail[2]:.3f}; "
        f"Richardson {extrap:.1f} vs c3 {consts7.c3:.1f} (rel {rel:.2%}, tol 10%)",
    )


def test_criterion_05_q3_to_one(records7):
    q3 = [r.q3 for r in records7]
    gaps = [abs(v - 1.0) for v in q3]
    tail = gaps[-3:]
    extrap = _aitken(*q3[-3:])
    rel = abs(extrap - 1.0)
    identity = max(
        abs(r.q3 * r.q1 - r.q2) / abs(r.q2) for r in records7
    )
    ok = _strict(tail) and rel <= 0.10 and identity <= 1e-12
    _record(
        5,
        ok,
        f"|q3-1| tail {tail[0]:.3f} > {tail[1]:.3f} > {tail[2]:.3f}; "
        f"extrapolated {extrap:.4f} (rel {rel:.2%}, tol 10%); "
        f"q3*q1=q2 to {identity:.1e} (tol 1e-12)",
    )


def test_criterion_06_fluxes_to_c1(records7, consts7):
    verdicts = []
    details = []
    for name in ("p1", "p3"):
        vals = [getattr(r, name) for r in records7]
        gaps = [abs(v - consts7.c1) / consts7.c1 for v in vals]
        extrap = _aitken(*vals[-3:])
        rel = abs(extrap - consts7.c1) / consts7.c1
        verdicts.append(_strict(gaps) and rel <= 0.10)
        details.append(f"{name}: gaps decreasing={_strict(gaps)}, rel {rel:.2%}")
    ok = all(verdicts)
    _record(6, ok, "; ".join(details) + " (tol 10%)")


def test_criterion_07_bubble_deviations(records7):
    plus = [r.bubble_dev_plus for r in records7]
    minus = [r.bubble_dev_minus for r in records7]
    ok = _strict_to_floor(plus) and plus[-1] < 5e-2 and _strict(minus)
    _record(
        7,
        ok,
        f"dev+ {plus[0]:.1e} -> {plus[-1]:.1e} (final tol 5e-2, floor 1e-12), "
        f"dev- {minus[0]:.1e} -> {minus[-1]:.1e} strictly decreasing",
    )


def test_criterion_08_pointwise_envelopes(sweep7):
    worst_center = -math.inf
    worst_rescaled = -math.inf
    worst_annulus = -math.inf
    checked = 0
    for p in sweep7:
        sol = p.solution
        f = sol.features
        worst_center = max(
            worst_center, center_envelope_violation(sol) / f.m_plus
        )
        worst_rescaled = max(worst_rescaled, rescaled_envelope_violation(sol))
        try:
            env = annulus_envelope_violation(sol)
        except RegionEmpty:
            continue
        checked += 1
        worst_annulus = max(worst_annulus, env.violation / f.m_minus)
    ok = (
        worst_center <= 1e-9
        and worst_rescaled <= 1e-9
        and (checked == 0 or worst_annulus <= 1e-9)
    )
    _record(
        8,
        ok,
        f"center envelope excess {worst_center:.1e}*M+ and rescaled "
        f"{worst_rescaled:.1e} (tol 1e-9); annulus excess {worst_annulus:.1e}*M- "
        f"on {checked}/{len(sweep7)} nonempty regions (tol 1e-9)",
    )


def test_criterion_09_green_limit_trends(records7):
    dev = [r.green_dev for r in records7]
    grad = [r.green_grad_dev for r in records7]
    ok = _strict(dev) and _strict(grad)
    _record(
        9,
        ok,
        f"green_dev {dev[0]:.3g} -> {dev[-1]:.3g}, green_grad_dev "
        f"{grad[0]:.3g} -> {grad[-1]:.3g}, both strictly decreasing",
    )


def test_criterion_10_blowup_rate_slope(records7):
    tail = records7[-3:]
    slope = float(
        np.polyfit(
            np.log([r.lam for r in tail]),
            np.log([r.features.m_minus for r in tail]),
            1,
        )[0]
    )
    target = -5.0 / 6.0
    ok = abs(slope - target) <= 0.1
    _record(
        10,
        ok,
        f"slope log M- vs log lambda = {slope:.4f} vs -5/6 = {target:.4f} "
        f"(gap {abs(slope - target):.3f}, tol 0.1)",
    )


def test_criterion_11_energy_levels(records7, consts7, k1_solutions):
    s = consts7.s_pow
    gaps2 = [abs(r.energy - (2.0 / 7.0) * s) / s for r in records7]
    g1 = {
        lam: abs(sol.residuals.energy - s / 7.0) / s
        for lam, sol in k1_solutions.items()
    }
    ok = _strict(gaps2) and g1[0.5] < g1[2.0]
    _record(
        11,
        ok,
        f"k=2 gap to (2/n)S^(n/2): {gaps2[0]:.2e} -> {gaps2[-1]:.2e} strictly "
        f"decreasing; k=1 gap to (1/n)S^(n/2): {g1[2.0]:.2e} -> {g1[0.5]:.2e}",
    )


def test_criterion_12_transform_exactness():
    profile = conftest.polynomial_profile((1.0, -3.0, 2.0), n=7, lam=2.0)
    worst = 0.0
    for M in (1e-2, 1.0, 1e4):
        worst = max(worst, *conftest.norm_invariance_check(profile, M))

    # lambda-absorbing frame and back: M = lambda^{(n-2)/4}, then 1/M
    M = profile.params.lam ** ((profile.params.n - 2) / 4)
    back = profile.rescaled(M).rescaled(1.0 / M)
    r, u, du = back.knots, back.values, back.derivs
    scale_r = np.max(np.abs(profile.knots))
    scale_u = np.max(np.abs(profile.values))
    scale_du = np.max(np.abs(profile.derivs))
    round_trip = max(
        float(np.max(np.abs(r - profile.knots))) / scale_r,
        float(np.max(np.abs(u - profile.values))) / scale_u,
        float(np.max(np.abs(du - profile.derivs))) / scale_du,
    )
    ok = worst < 1e-10 and round_trip <= 1e-14
    _record(
        12,
        ok,
        f"norm-invariance worst gap {worst:.1e} over M in {{1e-2,1,1e4}} "
        f"(tol 1e-10); lambda-absorb round trip {round_trip:.1e} (tol 1e-14)",
    )
