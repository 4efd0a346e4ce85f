"""Radial integrator: series start, events, and the lambda=0 bubble oracle."""

import ast
import dataclasses
import functools
import gc
import math
import operator
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput, rk_step
from scipy.optimize import brentq

from bnball import diagnostics, ode
from bnball.asymptotics import build_record
from bnball.bubble import delta
from bnball.model import (
    BlowUpDetected,
    ConfigError,
    Error,
    IntegrationFailed,
    OutOfDomain,
    Params,
    SingularPoint,
)
from bnball.ode import DEFAULT_ATOL, DEFAULT_RTOL, integrate
from bnball.shooting import continuation_sweep, extract_features, solve_nodal

# Below the first knot a profile evaluates the series integrate starts from;
# to second order u(r) = a - f(a) r^2/(2n), u'(r) = -f(a) r/n with
# f(a) = lambda a + |a|^(2*-2) a.  The first knot sits at 1e-6 for |a| = 1.
BELOW_START = 1e-7


def shoot(params, a, k, *, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Radius r_k of the k-th zero of u(0) = a, inside the ball or beyond:
    the r_k of its shot."""
    return ode.shot(params, a, k, rtol=rtol, atol=atol).r_k


def test_rhs_singular_origin():
    """The radial operator is singular at r=0, so no integration ends there."""
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1.0, 0.0)
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1.0, -1.0)


def test_stop_radius_inside_series_start():
    """|a|^beta r_stop at or below the series start would integrate inward,
    toward the singular origin; both integrators refuse it up front.  A
    shot runs out to SHOOT_END, so it refuses only amplitudes whose series
    start lies beyond that."""
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1e-20, 1.0)
    with pytest.raises(SingularPoint):
        integrate(Params(n=5, lam=0.5), 1e-20, 1.0, rtol=1e-8, atol=1e-10)
    with pytest.raises(SingularPoint, match=re.escape(f"r_stop = {ode.SHOOT_END:g}")):
        shoot(Params(n=7, lam=1.0), 1e-40, 1)
    # at n=3 the smallest shooting amplitude 1e-3 ends exactly on it
    with pytest.raises(SingularPoint):
        integrate(Params(n=3, lam=1.0), 1e-3, 1.0)


def test_taylor_start_bubble_case():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == pytest.approx(1.0 - 1e-14 / 14.0, rel=1e-15)
    assert profile.du(BELOW_START) == pytest.approx(-1e-7 / 7.0, rel=1e-15)


def test_taylor_start_negative_amplitude():
    # f(-1) = -1 - 1 = -2 at lambda=1
    profile = integrate(Params(n=7, lam=1.0), -1.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == pytest.approx(-1.0 + 2e-14 / 14.0, rel=1e-15)
    assert profile.du(BELOW_START) == pytest.approx(2e-7 / 7.0, rel=1e-15)


def test_taylor_start_zero_amplitude():
    """At a = 0 the series-start radius 1e-6 |a|^(-beta) is infinite, so the
    integrator refuses the amplitude rather than divide by zero."""
    with pytest.raises(SingularPoint, match="series-start radius inf"):
        integrate(Params(n=7, lam=1.0), 0.0, 1.0)


def test_zero_amplitude_profile():
    """No zero profile is built at a = 0: shooting refuses it like integrate."""
    with pytest.raises(SingularPoint, match="series-start radius inf"):
        shoot(Params(n=7, lam=1.0), 0.0, 1)


@pytest.mark.parametrize("n", [7, 9])
def test_bubble_oracle(n):
    """lambda=0 from a=1 reproduces the standard bubble to sup error < 1e-8."""
    profile = integrate(Params(n=n, lam=0.0), 1.0, 10.0)
    ys = np.linspace(0.0, 10.0, 2001)
    sup = float(np.max(np.abs(profile.u(ys) - delta(n, ys))))
    assert sup < 1e-8
    assert not profile.events  # the bubble is positive and strictly decreasing


def test_knots_strictly_increasing(sol7_lam2):
    knots = sol7_lam2.profile.knots
    assert np.all(np.diff(knots) > 0.0)
    assert knots[0] > 0.0


def test_oscillation_at_large_amplitude():
    # beyond the k=1 shooting amplitude the first zero sits inside the ball
    profile = integrate(Params(n=7, lam=2.0), 1e4, 1.0)
    zeros = profile.zero_crossings()
    assert len(zeros) >= 1
    assert zeros[0].r < 1.0


def test_sign_constant_between_crossings():
    profile = integrate(Params(n=7, lam=2.0), 1e4, 1.0)
    bounds = [profile.knots[0]]
    bounds += [e.r for e in profile.zero_crossings()]
    bounds += [profile.r_end]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = (profile.knots > lo * (1 + 1e-12)) & (profile.knots < hi * (1 - 1e-12))
        vals = profile.values[inside]
        if vals.size:
            assert np.all(vals > 0.0) or np.all(vals < 0.0)


def test_dense_output_matches_knots(sol7_lam2):
    profile = sol7_lam2.profile
    idx = np.arange(0, len(profile.knots), 97)
    vals = profile.u(profile.knots[idx])
    assert np.allclose(vals, profile.values[idx], rtol=1e-12, atol=0.0)


def test_events_located_on_dense_output(sol7_lam2):
    profile = sol7_lam2.profile
    for e in profile.zero_crossings():
        assert abs(float(profile.u(e.r))) <= 1e-9 * sol7_lam2.a_star


def test_untrusted_sign_structure_suppressed():
    """Below the noise floor (n<=6 at blow-up amplitude) no zero is reported.

    At n=4 the deviation signal scales as lambda/a^2 while the absolute
    noise floor scales as atol/a, so for huge amplitude any crossing of
    the numerical profile is noise; the integrator must not report it.
    """
    profile = integrate(Params(n=4, lam=0.5), 1e25, 1.0)
    assert not profile.zero_crossings()


def test_tolerance_tightening_converges():
    p = Params(n=7, lam=2.0)
    coarse = integrate(p, 1e4, 1.0, rtol=1e-8, atol=1e-10)
    fine = integrate(p, 1e4, 1.0, rtol=1e-12, atol=1e-14)
    r = np.linspace(0.1, 0.9, 17)
    gap = np.max(np.abs(coarse.u(r) - fine.u(r))) / 1e4
    assert gap < 1e-7


def _fails_without_warning(run, *args, **tolerances):
    """The IntegrationFailed that run(*args, **tolerances) raises, asserting
    that no warning of any kind is raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationFailed) as info:
            run(*args, **tolerances)
    assert not caught, [str(w.message) for w in caught]
    return info.value


def test_nan_state_is_integration_failure():
    """Steps far beyond the stability region overflow the right-hand side
    to a NaN dense output before the blow-up guard can fire; the stepper
    fails that step, without a warning, and reports the last accepted
    radius."""
    error = _fails_without_warning(
        integrate, Params(n=7, lam=1e4), 1.0, 1.0, rtol=1e3, atol=1e9
    )
    assert str(error) == "integration failed: Dense output of the step is not finite."
    assert 0.0 < error.last_radius < 1.0


def test_root_without_sign_change_is_integration_failure():
    """A step-end state and its polynomial may disagree in sign in the last
    bit, so brentq can find no sign change on the step; that is a
    classified failure, not brentq's ValueError."""
    step = (0.0, 1.0, 0.0, 0.0, [[0.0, 0.0]] * 7)
    message = r"^integration failed: f\(a\) and f\(b\) must have different signs"
    with pytest.raises(IntegrationFailed, match=message):
        ode._root(step, lambda y, step: 1.0)


def test_amplitude_must_be_finite():
    with pytest.raises(Exception):
        integrate(Params(n=7, lam=1.0), math.inf, 1.0)


def _numpy_scalar_rhs(params, a, y, s):
    """The deviation right-hand side as it ran on numpy float64 scalars."""
    n = params.n
    K = n * (n - 2.0)
    h = (n - 2.0) / 2.0
    p = params.two_star - 1.0
    lam = params.lam * abs(a) ** (-2.0 * params.beta)
    v, vp = s
    t = K / (K + y * y)
    d = t**h
    w = d + v
    if w > 0.0 and abs(v) < 0.5 * d:
        df = d * t * t * math.expm1(p * math.log1p(v / d))
    else:
        df = abs(w) ** (p - 1.0) * w - d * t * t
    return [vp, -(n - 1.0) / y * vp - lam * w - df]


def test_rhs_on_floats_matches_numpy_scalars():
    """The right-hand side computes on Python floats and returns, bit for
    bit, what the same formula gives on numpy scalars, in both branches.
    Every stage of a shot and of integrate's attempted step, and the pass
    over the extra stages of both, inline the same source lines as rhs."""
    rng = np.random.default_rng(20)
    stable = other = 0
    for n in (5, 6, 7, 8):
        for lam in (1e-3, 0.25, 2.0, 50.0):
            for a in (1e-3, 1.0, 3e5, 1e16, 1e28, -3.0):
                params = Params(n=n, lam=lam)
                dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
                ys = np.exp(rng.uniform(math.log(dev.y0), math.log(dev.y_end), 50))
                ds = dev.bubble(ys)[0]
                # v from far inside the stable branch to well past -delta
                vs = ds * rng.choice([-1.0, 1.0], 50) * 10.0 ** rng.uniform(-6, 1.5, 50)
                vps = rng.standard_normal(50) * 10.0 ** rng.uniform(-12, 2, 50)
                for y, v, vp in zip(ys, vs, vps):
                    got = dev.rhs(float(y), float(v), float(vp))
                    want = _numpy_scalar_rhs(params, a, np.float64(y), np.array([v, vp]))
                    assert [x.hex() for x in got] == [float(x).hex() for x in want]
                    d = dev.bubble(float(y))[0]
                    if d + v > 0.0 and abs(v) < 0.5 * d:
                        stable += 1
                    else:
                        other += 1
    assert stable > 500 and other > 500
    source = [line.strip() for line in ode._GENERATED["source"].splitlines()]
    size = len(ode._rhs_lines("y", "v", "vp", "out"))
    starts = [i for i, line in enumerate(source) if line.startswith("t = K / (K + ")]
    for i in starts:
        y = re.fullmatch(r"t = K / \(K \+ (\w+) \* \1\)", source[i]).group(1)
        v = re.fullmatch(r"w = d \+ (\w+)", source[i + 2]).group(1)
        out, vp = re.fullmatch(
            r"(\w+) = -n1 / \w+ \* (\w+) - lam \* w - df", source[i + size - 1]
        ).groups()
        block = [line.strip() for line in ode._rhs_lines(y, v, vp, out)]
        assert source[i:i + size] == block
    # the start, hinit's Euler step, 11 stages and the new state of the
    # shot, an attempt's 11 stages and new state, the extra-stage pass and
    # rhs itself; the shot leaves its 3 extra stages to the pass
    assert len(starts) == 28


def _branch(dev, y, v):
    """Which branch of the RHS source the state (y, v) takes."""
    d = dev.bubble(y)[0]
    w = d + v
    if w > 0.0 and abs(v) < 0.5 * d:
        return "expm1"
    if w != w:
        return "nan"
    try:
        abs(w) ** (dev.p - 1.0)
    except OverflowError:
        return "overflow"
    return "w<=0" if w <= 0.0 else "|v|>=d/2"


def test_rhs_pass_is_rhs_per_state():
    """The generated pass over integrate's extra stages writes, bit for bit,
    what the deviation's rhs returns for each state, to its two slots per
    state at the given offset and stride and nowhere else, on every branch
    of the RHS source: the expm1/log1p form, w <= 0, |v| >= d/2 with
    w > 0, a power |w|^(p-1) that overflows to inf, and a NaN state."""
    rng = np.random.default_rng(36)
    branches = {}
    for n, a in ((3, 10.0), (7, 1e19), (8, 3.0)):
        dev = ode._deviation(Params(n=n, lam=2.0), a, 1.0, DEFAULT_ATOL)
        radii = np.exp(rng.uniform(math.log(dev.y0), math.log(dev.y_end), 60)).tolist()
        d = dev.bubble(np.array(radii))[0]
        scales = [-3.0, -1.0, -0.7, -0.5, -1e-3, 1e-9, 0.3, 0.5, 2.0, 1e90, -1e90, math.nan]
        vs = d * rng.choice(scales, 60)
        vps = rng.standard_normal(60) * 10.0 ** rng.uniform(-12, 2, 60)
        states = np.column_stack([vs, vps]).tolist()
        offset, stride = 3, 5
        slots = np.full(offset + stride * len(radii), -7.25)
        ode._rhs_pass(dev.K, dev.h, dev.p, dev.n - 1.0, dev.lam_hat, radii, states,
                      memoryview(slots), offset, stride)
        want = np.full_like(slots, -7.25)
        for i, (y, (v, vp)) in enumerate(zip(radii, states)):
            want[offset + i * stride:offset + i * stride + 2] = dev.rhs(y, v, vp)
            branch = _branch(dev, y, v)
            branches[branch] = branches.get(branch, 0) + 1
        assert [x.hex() for x in slots.tolist()] == [x.hex() for x in want.tolist()]
    assert min(branches.get(b, 0) for b in
               ("expm1", "w<=0", "|v|>=d/2", "overflow", "nan")) >= 3, branches


# A shot whose power |w|^(p-1) overflows: n=3, zero 3 sought at a loose rtol.
# The run starts from the linear response, passes r=1 and fails near
# r = 140; the problem is trusted.  (From the series start, a = 10 at rtol
# 1e4 failed near r = 137; from the linear response it meets a step whose
# dense output is not finite instead.)
OVERFLOW_SHOT = (Params(n=3, lam=0.01), 1.0, 3)
OVERFLOW_SHOT_RTOL = 1e3
TOO_SMALL = "integration failed: step size becomes too small"
NOT_FINITE = "integration failed: Dense output of the step is not finite."


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_rhs_overflow_in_shoot_is_integration_failure():
    """|w|^(p-1) overflowing inside a shot gives inf without a warning; the
    trial steps it spoils are rejected until the step size becomes too
    small, a classified failure past r=1.  The marker restores a user's
    default filter over tier-1's error filter; the error path is the next
    test's."""
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(IntegrationFailed, match=f"^{TOO_SMALL}$") as info:
            shoot(*OVERFLOW_SHOT, rtol=OVERFLOW_SHOT_RTOL)
    assert not caught
    assert info.value.last_radius > 1.0


# An integration whose power overflows to a NaN dense output at loose
# tolerances.
OVERFLOW_INTEGRATE = (Params(n=4, lam=1e4), 1e28, 1.0)


@pytest.mark.parametrize("run, args, tolerances, message", [
    pytest.param(
        "shoot", OVERFLOW_SHOT, {"rtol": OVERFLOW_SHOT_RTOL},
        r"step size becomes too small$", id="shoot",
    ),
    pytest.param(
        "integrate", OVERFLOW_INTEGRATE, {"rtol": 1.0, "atol": 1.0},
        r"Dense output of the step is not finite\.", id="integrate",
    ),
])
def test_rhs_overflow_under_error_filter_is_integration_failure(
    run, args, tolerances, message
):
    """With every warning an error, the overflow is still a classified
    failure with a last radius, not leaked raw from solve_ivp: shoot ends
    as under the default filter, and integrate fails the step whose dense
    output is not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailed, match=message) as info:
            (shoot if run == "shoot" else integrate)(*args, **tolerances)
    assert info.value.last_radius is not None


def test_rhs_overflow_in_shoot_ends_alike_under_any_filter():
    """A failing run ends with the same class, message and radius under
    the default and the error filter: the shot whose power overflows (the
    float stepper raises no warning) and the integration that meets a NaN
    dense output (the stepper runs under np.errstate and fails that
    step)."""
    for run, args, tolerances, message in (
        (shoot, OVERFLOW_SHOT, {"rtol": OVERFLOW_SHOT_RTOL}, TOO_SMALL),
        (integrate, OVERFLOW_INTEGRATE, {"rtol": 1.0, "atol": 1.0}, NOT_FINITE),
    ):
        outcomes = []
        for action in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                with pytest.raises(Error) as info:
                    run(*args, **tolerances)
            outcomes.append(_error_outcome(info.value))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (IntegrationFailed, message)
        assert outcomes[0][2] is not None


@pytest.mark.parametrize("args, tolerances, budget, error, message", [
    pytest.param(OVERFLOW_SHOT, {"rtol": OVERFLOW_SHOT_RTOL}, ode.SHOOT_MAX_STEPS,
                 IntegrationFailed, TOO_SMALL, id="overflow"),
    # inf - inf in the stage sums gives NaN error norms, which reject their
    # trial steps; the run goes on to the blow-up guard, on a step whose
    # dense output is not finite
    pytest.param((Params(n=6, lam=1.13e16), 1.13e12, 3), {"rtol": 11.0, "atol": 35.0},
                 ode.SHOOT_MAX_STEPS, IntegrationFailed, NOT_FINITE, id="nan"),
    pytest.param((Params(n=7, lam=2.0), 1e4, 1), {}, 20,
                 IntegrationFailed, "integration failed: step budget spent", id="budget"),
    pytest.param((Params(n=7, lam=1e4), 1.0, 1), {"rtol": 1e3}, ode.SHOOT_MAX_STEPS,
                 BlowUpDetected, "|u| exceeded 1e+12 * |a| on the step from r = ",
                 id="blow-up"),
])
def test_shot_ends_alike_under_any_filter(monkeypatch, args, tolerances, budget, error,
                                          message):
    """Each way a shot can fail ends as the same error, message and radius
    under the default and the error warnings filter, without a warning:
    a classified failure at the radius reached (last_radius), a blown step
    whose dense output is not finite at its start radius, or the blow-up
    guard on the step whose start radius its message names."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", budget)
    outcomes = []
    for action in ("default", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(Error) as info:
                shoot(*args, **tolerances)
        assert not caught
        outcomes.append(_error_outcome(info.value))
    assert outcomes[0] == outcomes[1]
    kind, text, last_radius = outcomes[0]
    assert kind is error and text.startswith(message)
    if error is IntegrationFailed:
        assert last_radius > 0.0
    else:
        assert float(text[len(message):]) > 0.0


def test_rhs_overflow_in_integrate_is_integration_failure():
    """The same overflow in a full integration is a classified failure,
    without a warning, at the last accepted radius."""
    error = _fails_without_warning(integrate, *OVERFLOW_INTEGRATE, rtol=1.0, atol=1.0)
    assert 0.0 < error.last_radius < 1.0


# Shooting amplitudes a* at lambda = 2, keyed by (n, k): n = 7, 8 from the
# benchmark's cold reference solves (perfbench/reference.json), n = 5, 6
# from solve_nodal; all at rtol 1e-12.
A_STAR = {
    (5, 1): 122.01509544236896,
    (6, 1): 563.3163869273433,
    (7, 1): 2896.0889828723157,
    (7, 2): 4.253137119342074e19,
    (8, 1): 16122.93140813103,
    (8, 2): 1752977281187904.0,
}


def _binomial(x, k):
    out = Fraction(1)
    for i in range(k):
        out = out * (x - i) / (i + 1)
    return out


def _exact_series(n, lam_hat, terms):
    """v_0..v_terms of v = uhat - delta in z = y^2, in exact rational
    arithmetic: uhat = sum u_j z^j from 2(j+1)(2j+n) u_{j+1} = -lamhat u_j
    - (uhat^p)_j, uhat^p by the binomial series in uhat - 1, and delta_j =
    binom(-h, j) K^-j.  p and h are rational, lamhat is its float's exact
    value."""
    K, h, p = Fraction(n * (n - 2)), Fraction(n - 2, 2), Fraction(n + 2, n - 2)
    lam = Fraction(lam_hat)
    u = [Fraction(1)]
    for j in range(terms):
        w = [Fraction(0)] + u[1:]
        power, w_k = Fraction(0), [Fraction(1)] + [Fraction(0)] * j
        for k in range(j + 1):
            power += _binomial(p, k) * w_k[j]
            w_k = [sum(w_k[i] * w[m - i] for i in range(m + 1)) for m in range(j + 1)]
        u.append((-lam * u[j] - power) / (2 * (j + 1) * (2 * j + n)))
    return [float(u[j] - _binomial(-h, j) / K**j) for j in range(terms + 1)]


@pytest.mark.parametrize("n", range(3, 10))
def test_deviation_series_is_exact(n):
    """The float coefficients of the shot's series agree with the exact
    ones to 1e-14 relative, at lamhat = 1e-20 too, where uhat - delta
    cancels in every term, and its first two are integrate's start."""
    for lam_hat in (1e-20, 1e-6, 1.0, 20.0):
        # at a = 1 lamhat is lambda
        dev = ode._deviation(Params(n=n, lam=lam_hat), 1.0, ode.SHOOT_END, DEFAULT_ATOL)
        got = list(dev.series)
        want = _exact_series(n, lam_hat, ode.SERIES_TERMS)
        assert got[0] == want[0] == 0.0
        assert got[1:] == pytest.approx(want[1:], rel=1e-14, abs=0.0)
        p = Params(n=n, lam=1.0).two_star - 1.0
        assert got[1] == -lam_hat / (2.0 * n)
        assert got[2] == pytest.approx(
            lam_hat * (lam_hat + p + 1.0) / (8.0 * n * (n + 2.0)), rel=1e-15, abs=0.0
        )


@pytest.mark.parametrize("n, y_small", [(5, 0.1444), (7, 0.2002), (9, 0.2478)])
def test_series_start_matches_integration_from_scaled_start(n, y_small):
    """A shot starts where the series is exact to rounding: about 0.2 at
    n=7 for small lamhat, nearer the origin for large lamhat, never inside
    SCALED_START; its state agrees with stock DOP853 run from integrate's
    start at rtol 1e-13 to 4e-15 relative."""
    for lam_hat in (1e-20, 1e-6, 1.0, 20.0):
        dev = ode._deviation(Params(n=n, lam=lam_hat), 1.0, ode.SHOOT_END, 1e-40)
        y, state = dev.series_start()
        if lam_hat <= 1e-6:
            assert y == pytest.approx(y_small, abs=1e-4)
        elif lam_hat == 20.0:
            assert 0.06 < y < 0.1
        sol = solve_ivp(
            lambda t, s: np.array(dev.rhs(t, *s)), (dev.y0, y), dev.s0,
            method="DOP853", rtol=1e-13, atol=1e-300,
        )
        assert sol.t[-1] == y
        assert np.allclose(state, sol.y[:, -1], rtol=4e-15, atol=0.0)
    dev = ode._deviation(Params(n=n, lam=1e30), 1.0, ode.SHOOT_END, DEFAULT_ATOL)
    assert dev.series_start()[0] == ode.SCALED_START
    # a series that overflows (lamhat^8 beyond the float range, inf or NaN
    # coefficients) starts where integrate does
    for lam_hat in (1e42, 1e60):
        dev = ode._deviation(Params(n=n, lam=lam_hat), 1.0, ode.SHOOT_END, DEFAULT_ATOL)
        assert not math.isfinite(dev.series[-1])
        assert dev.series_start() == (dev.y0, dev.s0)


def test_series_start_lies_inside_the_shot():
    """An amplitude so small that the shot ends at a scaled radius below the
    series' own start radius (y_end = 0.158 here, against about 0.2) starts
    at half its end, not beyond it."""
    params, a = Params(n=7, lam=1e-20), 1e-17
    dev = ode._deviation(params, a, ode.SHOOT_END, DEFAULT_ATOL)
    assert dev.trusted and dev.y_end < 0.2
    assert dev.series_start()[0] == 0.5 * dev.y_end
    assert shoot(params, a, 1) == math.inf


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_shot_from_series_start_matches_scaled_start(monkeypatch, n, k):
    """At the least rtol a shot finds zero k, near r = 1, of 41 amplitudes
    a*(1 + d), d in [-1e-9, 1e-9], around the k-nodal a* where a shot from
    integrate's start at SCALED_START finds it, to 5e-12 relative.  Both
    runs carry the error the kink of |u|^(p-1) u costs zero k's step, which
    moves with where the zero falls in it: over this scan it reaches
    3.1e-12 at n=7, k=2 (8.3e-13 at n=8, k=2, 3e-14 for k=1)."""
    params, rtol = Params(n=n, lam=2.0), 2.3e-14
    amplitudes = A_STAR[(n, k)] * (1.0 + np.linspace(-1e-9, 1e-9, 41))
    got = [shoot(params, a, k, rtol=rtol) for a in amplitudes]
    monkeypatch.setattr(ode._Deviation, "series_start", lambda dev: (dev.y0, dev.s0))
    want = [shoot(params, a, k, rtol=rtol) for a in amplitudes]
    assert got == pytest.approx(want, rel=5e-12, abs=0.0)
    assert got == pytest.approx([1.0] * len(got), abs=5e-10)


def _from_series(dev, rtol):
    """A shot's start from the series, as shots started before the linear
    response: Deviation.shot_start's stand-in."""
    return (*dev.series_start(), 0.0)


@pytest.mark.parametrize("n, lam, a, k, rtol", [
    pytest.param(7, 2.0, 1.0, 2, DEFAULT_RTOL, id="cold-seed"),
    pytest.param(8, 0.5, 1.0, 1, 1e-8, id="cold-seed-n8"),
    pytest.param(7, 2.0, A_STAR[(7, 2)], 2, 100 * np.finfo(float).eps, id="rtol-100-eps"),
    pytest.param(8, 2.0, A_STAR[(8, 2)], 2, 100 * np.finfo(float).eps, id="rtol-100-eps-n8"),
])
def test_shot_start_is_the_series_start_beyond_the_table(monkeypatch, n, lam, a, k, rtol):
    """From the cold seed a = 1, where lamhat = lambda is far too large for
    the linear response, and at an rtol finer than the table's own error
    supports, a shot starts at series_start, from its state, with the
    first step hinit picks, and runs and records exactly as a shot that
    starts there by construction."""
    params = Params(n=n, lam=lam)
    dev = ode._deviation(params, a, ode.SHOOT_END, DEFAULT_ATOL)
    y_s, state = dev.series_start()
    assert dev.shot_start(rtol) == (y_s, state, 0.0)
    run = ode.shot(params, a, k, rtol=rtol)
    monkeypatch.setattr(ode._Deviation, "shot_start", _from_series)
    want = ode.shot(params, a, k, rtol=rtol)
    assert run.y0 == want.y0 == y_s
    assert (run.end, run.radius, run.row, run.nfev) == (want.end, want.radius, want.row,
                                                         want.nfev)
    assert run.record == want.record and run.r_k == want.r_k


def test_untrusted_shot_consults_no_table(monkeypatch):
    """An untrusted problem makes no run, as before the linear response:
    the shot neither starts nor builds or reads a table."""
    def no_table(n):
        pytest.fail("an untrusted shot read the linear response")

    monkeypatch.setattr(ode, "_linear_response", no_table)
    run = ode.shot(Params(n=5, lam=0.5), 1e28, 2)
    assert (run.y0, run.end, run.radius, run.row, run.nfev) == (None, "untrusted", None,
                                                                None, 0)
    assert not run.record and run.r_k == math.inf


def test_linear_response_built_by_the_first_shot():
    """Importing the package builds no table: _linear_response is empty in
    a fresh interpreter until a shot asks for one, which builds it once
    per dimension."""
    code = ("import bnball.ode as ode; from bnball.model import Params; "
            "before = ode._linear_response.cache_info().currsize; "
            "ode.shot(Params(n=7, lam=2.0), 4.25e19, 2); ode.shot(Params(n=7, lam=1.0), 4e22, 2); "
            "info = ode._linear_response.cache_info(); "
            "print(before, info.currsize, info.misses)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0", "1", "1"]


def _series_oracle(dev, y):
    """The state at y of a run from series_start stopped exactly on y, at
    the least rtol."""
    y_s, state = dev.series_start()
    record = bytearray()
    _, end, _, _ = ode._dop853(dev.K, dev.h, dev.p, dev.n - 1.0, dev.lam_hat, 0, y_s, *state,
                               0.0, y, y, 100 * np.finfo(float).eps, dev.atol_scaled,
                               ode.SHOOT_MAX_STEPS, record)
    assert end == "end"
    rows = np.frombuffer(record).reshape(-1, ode._ROW)
    assert rows[-1, 6] == y
    return tuple(rows[-1, 4:6].tolist())


@pytest.mark.parametrize("n", range(7, 13))
def test_shot_start_from_linear_response_is_within_a_tenth_of_rtol(n):
    """For lamhat from 1e-24 to 1e-8 and rtol from 1e-12 to 1e-8, wherever
    a shot starts from the linear response it starts at a grid radius of
    the table beyond the series start and inside r = 1, from lamhat times
    the table's recorded state there, with a first step that scales as
    rtol^(1/8); that state is within RESPONSE_SHARE = 0.1 rtol of a
    series-started run at 100 eps, relative to |v| with v' on the scale
    of v / y.  The start reaches past y = 2 somewhere at every n."""
    table = ode._linear_response(n)
    reach = 0.0
    for exponent in range(-24, -7):
        for rtol in (1e-8, 1e-10, 1e-12):
            # a = 1e30 puts r = 1 far out; lambda gives the wanted lamhat
            lam_hat, a = 10.0**exponent, 1e30
            params = Params(n=n, lam=lam_hat * a ** (4.0 / (n - 2.0)))
            dev = ode._deviation(params, a, ode.SHOOT_END, DEFAULT_ATOL)
            assert dev.lam_hat == pytest.approx(lam_hat, rel=1e-12)
            y, state, h0 = dev.shot_start(rtol)
            if h0 == 0.0:
                assert (y, state) == dev.series_start()
                continue
            j = table.radii.index(y)
            assert dev.series_start()[0] < y < dev.scale_r
            assert state == tuple(dev.lam_hat * x for x in table.states[j])
            assert h0 == table.steps[j] * (rtol / ode.RESPONSE_RTOL) ** 0.125
            assert ode._relative(y, state, _series_oracle(dev, y)) <= 0.1 * rtol
            reach = max(reach, y)
    assert reach > 2.0


# The k=2 a* of (n, lambda) = (7, 0.25), from the warm reference sweep.
A_STAR_7_QUARTER = 2.4997194204982147e28


@pytest.mark.parametrize("n, lam, a_star", [
    pytest.param(7, 2.0, A_STAR[(7, 2)], id="n7-lambda2"),
    pytest.param(7, 0.25, A_STAR_7_QUARTER, id="n7-lambda0.25"),
    pytest.param(8, 2.0, A_STAR[(8, 2)], id="n8-lambda2"),
])
@pytest.mark.parametrize("rtol", [1e-8, 1e-9, DEFAULT_RTOL])
def test_shot_from_linear_response_finds_zero_k_as_from_series(monkeypatch, n, lam, a_star,
                                                               rtol):
    """Around the k=2 a*, at 11 amplitudes a*(1 + d), d in [-1e-8, 1e-8],
    a shot from the linear response finds zero 2 within 3 rtol of a shot
    from the series start, with fewer RHS evaluations wherever it starts
    further out.  (At rtol 1e-11 and 1e-12, lambda = 0.25, each start's r_k
    carries tens of rtol of integration error, and the two differ by as
    much.)"""
    params = Params(n=n, lam=lam)
    amplitudes = a_star * (1.0 + np.linspace(-1e-8, 1e-8, 11))
    runs = [ode.shot(params, a, 2, rtol=rtol) for a in amplitudes]
    monkeypatch.setattr(ode._Deviation, "shot_start", _from_series)
    series = [ode.shot(params, a, 2, rtol=rtol) for a in amplitudes]
    for run, want in zip(runs, series):
        assert run.r_k == pytest.approx(want.r_k, rel=0.0, abs=3.0 * rtol)
        assert run.nfev < want.nfev if run.y0 > want.y0 else run.nfev == want.nfev
    # at n=8, rtol 1e-10, lamhat = 1.4e-10 is too large for the table
    started = any(run.y0 > want.y0 for run, want in zip(runs, series))
    assert started == ((n, rtol) != (8, DEFAULT_RTOL))


@pytest.mark.parametrize("n, lam, a_star, rtol", [
    pytest.param(7, 2.0, A_STAR[(7, 2)], DEFAULT_RTOL, id="n7-lambda2"),
    pytest.param(7, 0.25, A_STAR_7_QUARTER, 1e-8, id="n7-lambda0.25-rtol1e-8"),
    pytest.param(8, 2.0, A_STAR[(8, 2)], 1e-9, id="n8-lambda2-rtol1e-9"),
])
def test_shot_profile_core_is_the_series_run_clipped_at_the_start(monkeypatch, n, lam,
                                                                  a_star, rtol):
    """The profile of a shot from the linear response at y* is built from
    the rows of a run from series_start at the shot's rtol, stopped on y*,
    then the shot's own rows: below y* the rows are, bit for bit, those of
    a shot from the series start, but for the last, which ends exactly on
    y*; the first knot is the series start, below which the profile
    answers from the series, and the knots below y* are those of the
    series start shot's profile."""
    params = Params(n=n, lam=lam)
    passes, finish_steps = [], ode._finish_steps

    def recorded(dev, rows, events, **kwargs):
        passes.append(rows.copy())
        return finish_steps(dev, rows, events, **kwargs)

    monkeypatch.setattr(ode, "_finish_steps", recorded)
    run = ode.shot(params, a_star, 2, rtol=rtol)
    profile = run.profile()
    (rows,) = passes[-1:]
    dev, y_star = run.dev, run.y0
    y_s, state = dev.series_start()
    assert y_s < y_star
    core = bytearray()
    ode._dop853(dev.K, dev.h, dev.p, dev.n - 1.0, dev.lam_hat, 0, y_s, *state, 0.0, y_star,
                y_star, rtol, dev.atol_scaled, ode.SHOOT_MAX_STEPS, core)
    core = np.frombuffer(core).reshape(-1, ode._ROW)
    shot_rows = np.frombuffer(run.record).reshape(-1, ode._ROW)
    assert np.array_equal(rows, np.concatenate([core, shot_rows]))
    assert core[-1, 6] == y_star == shot_rows[0, 0]
    monkeypatch.setattr(ode._Deviation, "shot_start", _from_series)
    series_run = ode.shot(params, a_star, 2, rtol=rtol)
    series_profile = series_run.profile()
    series_rows = np.frombuffer(series_run.record).reshape(-1, ode._ROW)
    m = len(core) - 1
    assert np.array_equal(core[:m], series_rows[:m])
    assert core[m, 0] == series_rows[m, 0] and series_rows[m, 6] > y_star
    below = profile.knots < y_star / dev.scale_r
    assert profile.knots[0] == series_profile.knots[0] == y_s / dev.scale_r
    assert np.array_equal(profile.knots[below][:9 * m],
                          series_profile.knots[:9 * m])
    r = np.array([0.0, 0.5]) * profile.knots[0]
    assert np.array_equal(profile.u_du(r), series_profile.u_du(r))


# (n, lambda, a, k, rtol, atol, trusted): zero k of each k-nodal a* and of
# half and twice it, and the other of zeros 1 and 2 at a*; trusted is
# whether the zero-trust floor lets sign changes count.
SHOOT_CASES = [
    pytest.param(n, 2.0, factor * a_star, k, DEFAULT_RTOL, DEFAULT_ATOL, True,
                 id=f"n{n}-k{k}-x{factor:g}")
    for (n, k), a_star in A_STAR.items()
    for factor in (0.5, 1.0, 2.0)
] + [
    pytest.param(n, 2.0, a_star, 3 - k, DEFAULT_RTOL, DEFAULT_ATOL, True,
                 id=f"n{n}-k{k}-x1-zero{3 - k}")
    for (n, k), a_star in A_STAR.items()
] + [
    pytest.param(5, 0.5, 1e28, 2, DEFAULT_RTOL, DEFAULT_ATOL, False,
                 id="n5-untrusted"),
    pytest.param(6, 1e-10, 1e3, 1, DEFAULT_RTOL, DEFAULT_ATOL, False,
                 id="n6-untrusted"),
    # steps far beyond the stability region drive |u| over the blow-up bound
    pytest.param(7, 1e4, 1.0, 1, 1e3, DEFAULT_ATOL, True, id="n7-blow-up"),
]

# How far integrate runs beyond r=1 to find the zero shoot locates.
R_CHECK = 1.1


def _outcome(fn):
    try:
        return fn()
    except Error as exc:
        return type(exc)


@pytest.mark.parametrize("n, lam, a, k, rtol, atol, trusted", SHOOT_CASES)
def test_shoot_matches_integrate(n, lam, a, k, rtol, atol, trusted):
    """A shooting evaluation puts zero k where the full integration of the
    same amplitude out to r = 1.1 puts it, within 100 rtol relative, or
    both put it beyond r = 1.1; both end with the same error class, and an
    untrusted shot is inf where the integration reports no zero."""
    params = Params(n=n, lam=lam)
    r_k = _outcome(lambda: shoot(params, a, k, rtol=rtol, atol=atol))
    profile = _outcome(lambda: integrate(params, a, R_CHECK, rtol=rtol, atol=atol))
    assert ode._deviation(params, a, 1.0, atol).trusted == trusted
    if isinstance(profile, type):
        assert r_k is profile
        return
    zeros = profile.zero_crossings()
    if not trusted:
        assert r_k == math.inf and not zeros
    elif len(zeros) >= k:
        assert r_k == pytest.approx(zeros[k - 1].r, rel=100.0 * rtol, abs=0.0)
    else:
        assert R_CHECK * (1.0 - 100.0 * rtol) < r_k < math.inf


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_zero_radius_decreases_with_amplitude(n, k):
    """r_k strictly decreases in a over a log grid that brackets the k-nodal
    a*, twenty points per decade: the secant bracket of solve_nodal rests
    on that."""
    a_star = A_STAR[(n, k)]
    amplitudes = a_star * np.logspace(-2.0, 2.0, 81)
    radii = [shoot(Params(n=n, lam=2.0), a, k) for a in amplitudes]
    assert radii[0] > 1.0 > radii[-1]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_shoot_step_budget_is_integration_failure(monkeypatch):
    """dop853 running out of steps is a classified failure, not a warning
    with a truncated state."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", 20)
    with pytest.raises(IntegrationFailed) as info:
        shoot(Params(n=7, lam=2.0), 1e4, 1)
    assert 0.0 < info.value.last_radius < 1.0


def test_zero_error_scale_is_integration_failure():
    """At lambda = 0 the deviation is 0, and at a = 1e30 the scaled atol
    1e-300 / a underflows to 0, so the error scale atol_scaled + rtol |v|
    is 0.  A shot divides by it: a classified failure, not a raw
    ZeroDivisionError.  scipy's start of integrate divides by it and
    starts with a NaN step size, which is too small at once rather than
    rejected forever; an alarm fails the test if integrate hangs."""
    params, a, atol = Params(n=7, lam=0.0), 1e30, 1e-300
    assert ode._deviation(params, a, 1.0, atol).atol_scaled == 0.0
    with pytest.raises(IntegrationFailed, match="division by zero"):
        shoot(params, a, 1, atol=atol)

    def hang(signum, frame):
        raise TimeoutError("integrate did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(IntegrationFailed, match="less than spacing") as info:
            integrate(params, a, 1.0, atol=atol)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert info.value.last_radius == ode.SCALED_START / a**params.beta


def _integrates_nothing(*args, **kwargs):
    raise AssertionError("a rejected tolerance must not start an integration")


_TOLERANCE_RUNS = {
    "integrate": lambda **tol: integrate(Params(n=7, lam=2.0), A_STAR[(7, 2)], 1.0, **tol),
    "shoot": lambda **tol: shoot(Params(n=7, lam=2.0), A_STAR[(7, 2)], 2, **tol),
    "solve_nodal": lambda **tol: solve_nodal(Params(n=7, lam=2.0), 2, **tol),
    "continuation_sweep": lambda **tol: continuation_sweep(
        Params(n=7, lam=0.0), [2.0, 1.0], 2, **tol
    ),
}


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("run", list(_TOLERANCE_RUNS))
def test_tolerance_not_positive_and_finite_is_config_error(monkeypatch, run, name, value):
    """The one tolerance rule, ode.run_tolerances: integrate, shoot,
    solve_nodal and continuation_sweep each refuse an rtol or atol that is
    not positive and finite, with the command line's message, before
    anything is integrated."""
    monkeypatch.setattr(ode, "_dop853", _integrates_nothing)
    monkeypatch.setattr(ode, "solve_ivp", _integrates_nothing)
    with pytest.raises(ConfigError) as info:
        _TOLERANCE_RUNS[run](**{name: value})
    assert str(info.value) == f"{name} must be positive and finite, got {value}"


def _combination(coefficients, values):
    """The sum of c * x over the nonzero coefficients c, added in order."""
    return reduce(operator.add, [c * x for c, x in zip(coefficients, values) if c])


def _norm2(values):
    return reduce(operator.add, [x * x for x in values])


def _list_shoot(params, a, k, rtol, atol, max_steps=ode.SHOOT_MAX_STEPS):
    """shoot written as a plain loop: Hairer's dop853 over scipy's DOP853
    tableau in rows and columns, with a list-returning RHS, from the
    shot's own start (_Deviation.shot_start: the radius, the state and the
    first step, or hinit's where that is 0).  Below r = 1
    the step that would reach it is clipped to end there, and taken again
    in eighths, as the k-th crossing step is, where zero k lies ahead; the
    run ends at the later of zero k and r = 1.  Zero k is located by brentq on the
    dense output of its step that scipy's DOP853._dense_output_impl builds
    from the step's own 13 stage rows, as integrate locates an event,
    however the run ends after it; without it a blown step is named by its
    start unless that dense output is not finite.  The outcome (r_k in
    hex, or the class, message and last radius of the error) and the RHS
    evaluations of the stepping; none for an untrusted shot."""
    T = dop853_coefficients
    A, B, C = T.A.tolist(), T.B.tolist(), T.C.tolist()
    E3, E5 = T.E3.tolist(), T.E5.tolist()
    dev = ode._deviation(params, a, ode.SHOOT_END, atol)
    if not dev.trusted:
        return math.inf.hex(), 0
    rtol, atol = ode.run_tolerances(rtol, atol)[0], dev.atol_scaled

    def f(y, s):
        return list(dev.rhs(y, *s))

    def failed(message, y):
        return IntegrationFailed, f"integration failed: {message}", y / dev.scale_r

    y, s, h0 = dev.shot_start(rtol)
    s, y_end, y_stop = list(s), dev.y_end, dev.scale_r
    K = [f(y, s)] + [None] * (T.N_STAGES_EXTENDED - 1)
    hmax = y_end - y
    if h0 > 0.0:  # the linear response's first step
        h, nfev = min(h0, hmax), 1
    else:  # Hairer's hinit
        sk = [atol + rtol * abs(x) for x in s]
        dnf = _norm2([g / c for g, c in zip(K[0], sk)])
        dny = _norm2([x / c for x, c in zip(s, sk)])
        h = min(1e-6 if dnf <= 1e-10 or dny <= 1e-10 else math.sqrt(dny / dnf) * 0.01, hmax)
        f1 = f(y + h, [x + h * g for x, g in zip(s, K[0])])
        der2 = math.sqrt(_norm2([(g1 - g) / c for g1, g, c in zip(f1, K[0], sk)])) / h
        der12 = max(der2, math.sqrt(dnf))
        h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.125
        h, nfev = min(100.0 * h, h1, hmax), 2
    attempts, zeros, reject, last = 0, 0, False, False
    hlim, until = hmax, math.inf  # the cap on steps that re-take a step, up to its end
    zero = None  # the step on which u changes sign for the k-th time

    def stage(i):
        columns = [[g[c] for g in K[:i]] for c in range(2)]
        state = [x + h * _combination(A[i][:i], column) for x, column in zip(s, columns)]
        K[i] = f(y + C[i] * h, state)

    def located(outcome, step):
        """outcome(radius) of the root of u/a on step, (y, y_new, h, state,
        new state, stage rows), or why its dense output has none; None for
        no outcome and a finite one."""
        y, y_new, h, s, new, K = step
        with np.errstate(all="ignore"):
            solver = DOP853(lambda t, x: np.array(f(float(t), x.tolist())), y, np.array(s),
                            y_end)
            solver.K_extended[:T.N_STAGES + 1] = K[:T.N_STAGES + 1]
            solver.t_old, solver.t, solver.h_previous = y, y_new, h
            solver.y_old, solver.y, solver.f = np.array(s), np.array(new), np.array(K[T.N_STAGES])
            piece = solver._dense_output_impl()
        if not np.isfinite(piece.F).all():
            return failed(ode.NON_FINITE_STEP, y)
        if outcome is None:
            return None
        tol = 4 * np.finfo(float).eps
        try:
            root = brentq(lambda t: dev.signs(t, piece(t))[0], y, y_new, xtol=tol, rtol=tol)
        except ValueError as exc:
            return IntegrationFailed, f"integration failed: {exc}", None
        return outcome(root / dev.scale_r)

    def ended(failure):
        """r_k where zero k was found, else the failure."""
        return failure if zero is None else located(float.hex, zero)

    while True:
        if attempts >= max_steps:
            return ended(failed("step budget spent", y)), nfev
        if not 0.1 * h > y * 2.3e-16:
            return ended(failed("step size becomes too small", y)), nfev
        inside = y < y_stop
        if inside:
            if y + 1.01 * h - y_stop > 0.0:
                h, last = y_stop - y, True
        elif y + 1.01 * h - y_end > 0.0:
            h, last = y_end - y, True
        attempts += 1
        nfev += 11
        for i in range(1, T.N_STAGES):
            stage(i)
        columns = [[g[c] for g in K[:T.N_STAGES]] for c in range(2)]
        new = [x + h * _combination(B, column) for x, column in zip(s, columns)]
        sk = [atol + rtol * max(abs(x), abs(z)) for x, z in zip(s, new)]
        err = _norm2([_combination(E5, column) / c for column, c in zip(columns, sk)])
        err3 = _norm2([_combination(E3, column) / c for column, c in zip(columns, sk)])
        deno = err + 0.01 * err3
        err = h * err * math.sqrt(1.0 / (2.0 * (1.0 if deno <= 0.0 else deno)))
        if not err <= 1.0:
            h /= min(1.0 / 0.333, err**0.125 / 0.9)
            reject, last = True, False
            continue
        y_new = y_stop if inside and last else y + h
        K[T.N_STAGES] = f(y_new, new)
        nfev += 1
        w = dev.signs(y_new, new)[0]
        step = (y, y_new, h, s, new, list(K))
        if abs(w) >= ode.BLOWUP_BOUND:
            blown = located(None, step) or _error_outcome(ode._blow_up(y / dev.scale_r))
            return ended(blown), nfev
        crossed = (w < 0.0) != zeros % 2
        if zeros + 1 == k and until == math.inf and (crossed or inside and last):
            until, hlim, h, last = y + h, h / 8.0, h / 8.0, False
            continue
        if crossed:
            zeros += 1
            if zeros == k:
                zero = step
        if zero is not None and (last or not inside):
            return located(float.hex, zero), nfev
        if last and not inside:
            return math.inf.hex(), nfev
        last = False
        if y_new >= until:
            hlim, until = hmax, math.inf
        hnew = min(h / max(1.0 / 6.0, min(1.0 / 0.333, err**0.125 / 0.9)), hlim)
        if reject:
            hnew = min(hnew, h)
        y, s, K[0] = y_new, new, K[T.N_STAGES]
        h, reject = hnew, False


def _error_outcome(exc):
    return type(exc), str(exc), getattr(exc, "last_radius", None)


def _array_shoot(monkeypatch, params, a, k, rtol, atol):
    """shoot's outcome and RHS evaluations, in _list_shoot's form."""
    nfev = []
    stepper = ode._dop853

    def counted(*args):
        result = stepper(*args)
        nfev.append(result[0])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(ode, "_dop853", counted)
        try:
            outcome = shoot(params, a, k, rtol=rtol, atol=atol).hex()
        except Error as exc:
            outcome = _error_outcome(exc)
    return outcome, sum(nfev)


SHOOT_RTOLS = (1e-5, 1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_shoot_matches_list_rhs_bit_for_bit(monkeypatch, n):
    """shoot, whose right-hand side is inlined into generated straight-line
    stages, takes the steps, counts the RHS evaluations and returns the
    zero radius of the same DOP853 written as a plain loop over the tableau
    with a list-returning right-hand side, bit for bit."""
    radii = []
    for lam in (0.5, 10.0):
        for a in (10.0, 1e16, A_STAR.get((n, 2), 1e24), -3.0):
            for rtol in (1e-5, 1e-8, 1e-12):
                for k in (1, 2):
                    args = (Params(n=n, lam=lam), a, k, rtol, DEFAULT_ATOL)
                    want = _list_shoot(*args)
                    assert _array_shoot(monkeypatch, *args) == want
                    radii.append(float.fromhex(want[0]))
    finite = [r for r in radii if r < math.inf]
    assert min(finite) < 1.0 < max(finite)


@pytest.mark.parametrize("n, lam, a, k, rtol, error, message", [
    # the blown step, from r = 0.239833 to 0.550252, named by its start
    pytest.param(7, 1e4, 1.0, 1, 1e3, BlowUpDetected,
                 "|u| exceeded 1e+12 * |a| on the step from r = 0.239833", id="n7-blow-up"),
    pytest.param(3, 0.01, 1.0, 3, OVERFLOW_SHOT_RTOL, IntegrationFailed, TOO_SMALL,
                 id="n3-power-overflow"),
    pytest.param(5, 0.5, 1e28, 2, 1e-10, None, None, id="n5-untrusted"),
    pytest.param(6, 1e-10, 1e3, 2, 1e-8, None, None, id="n6-untrusted"),
])
@pytest.mark.parametrize("action", ["error", "default"])
def test_shoot_fails_as_list_rhs(monkeypatch, n, lam, a, k, rtol, error, message, action):
    """The blow-up guard and the overflow of |w|^(p-1) end exactly as in the
    plain loop with a list-returning RHS, under the RuntimeWarning filter
    of either action, the blow-up on the blown step, named by its start;
    an untrusted shot is inf at once, with no run."""
    args = (Params(n=n, lam=lam), a, k, rtol, DEFAULT_ATOL)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        want = _list_shoot(*args)
        assert _array_shoot(monkeypatch, *args) == want
    if error is None:
        assert want == (math.inf.hex(), 0)
    else:
        assert want[0][:2] == (error, message)


def test_retaken_step_without_sign_change_is_uncapped(monkeypatch):
    """At loose rtol a long step can change the sign of u through its error
    alone.  Taken again in eighths it does not, and past its end the run
    steps on uncapped, as in the plain loop, instead of in eighths until
    the step budget is spent."""
    args = (Params(n=9, lam=0.14), 7e17, 2, 40.0, 0.03)
    want = _list_shoot(*args)
    assert _array_shoot(monkeypatch, *args) == want
    # 289 RHS evaluations from the linear response at y = 331, 5,329 with
    # the cap kept past the step's end (641 and 45,365 from the series start)
    assert want[1] < 2_000


@pytest.mark.parametrize("rtol", SHOOT_RTOLS)
def test_shoot_step_budget_fails_as_list_rhs(monkeypatch, rtol):
    """Running out of steps ends at the same radius, with the same message
    and RHS evaluations, as in the plain loop."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", 20)
    args = (Params(n=7, lam=2.0), 1e4, 1, rtol, DEFAULT_ATOL)
    want = _list_shoot(*args, max_steps=20)
    assert want[0][0] is IntegrationFailed
    assert _array_shoot(monkeypatch, *args) == want


def _terms(node):
    """{name: c} of the products c * name in a generated expression."""
    terms = {}
    for product in ast.walk(node):
        if isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult):
            c, name = product.left, product.right
            if isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.USub):
                c = ast.Constant(-c.operand.value)
            if isinstance(c, ast.Constant) and isinstance(name, ast.Name):
                terms[name.id] = c.value
    return terms


def _function(name):
    """The generated function named name."""
    (function,) = [node for node in ast.walk(ast.parse(ode._GENERATED["source"]))
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def _sign_changes(dev, rows):
    """(step index, components of (u, u') that change sign, blown) of each
    step of a record on which u or u' changes sign by solve_ivp's rule for
    an event of direction 0 (while dev is trusted) or |u/a| ends at or
    beyond the blow-up bound, read from its start and end states on
    Python floats."""
    changes = []
    for i, (y0, v, vp, _, v1, vp1, y1) in enumerate(rows[:, :7].tolist()):
        (g, dg), (w, dw) = dev.signs(y0, (v, vp)), dev.signs(y1, (v1, vp1))
        signs = [c for c, (s0, s1) in enumerate(((g, w), (dg, dw)))
                 if dev.trusted and (s0 <= 0.0 <= s1 or s1 <= 0.0 <= s0)]
        blown = abs(w) >= ode.BLOWUP_BOUND
        if signs or blown:
            changes.append((i, signs, blown))
    return changes


def _assigned(function):
    """{name: every expression assigned to it} in a generated function."""
    assigned = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for name, expr in pairs:
                if isinstance(name, ast.Name):
                    assigned.setdefault(name.id, []).append(expr)
    return assigned


def test_generated_tableau_is_scipys():
    """The stages, the new state and both error estimates of the generated
    shot carry scipy's DOP853 coefficients exactly, with every zero entry
    of the tableau left out; the shot builds no extra stage and no dense
    row, and returns the row of the step on which it meets zero k or the
    blow-up guard: the step and its 13 stage rows in order, the row it
    records.  Each stage of integrate's
    attempted step carries C[s] in its radius and takes its stage sum on
    scipy's product K[:s].T.dot(A[s, :s]); the attempt makes exactly these
    11 products, the B, E5 and E3 products and the 2 norm dots, on scipy's
    coefficient arrays and views of the run's stage array.  Every product
    is written to the one 2-array the norms are taken on, and its two sums
    are read back through a memoryview of it before the next product."""
    T = dop853_coefficients
    shot = _function("_dop853")
    assigned = _assigned(shot)

    def terms(name):
        return [_terms(expr) for expr in assigned[name]]

    def combination(coefficients, suffix):
        return {f"k{j}{suffix}": c for j, c in enumerate(coefficients.tolist()) if c}

    for s in range(1, T.N_STAGES):
        assert terms(f"x{s}") == [{"hh": T.C[s]}]
        assert terms(f"v{s}") == [combination(T.A[s, :s], "v")]
        assert terms(f"k{s}v") == [combination(T.A[s, :s], "p")]
    assert terms("vnew") == [combination(T.B, "v")]
    assert terms("pnew") == [combination(T.B, "p")]
    for name, (E, suffix) in {"e1": (T.E5, "v"), "e2": (T.E5, "p"),
                              "e3": (T.E3, "v"), "e4": (T.E3, "p")}.items():
        assert combination(E, suffix) in terms(name)
    assert not {f"x{s}" for s in range(T.N_STAGES, T.N_STAGES_EXTENDED)} & set(assigned)
    assert "F" not in assigned
    assert [ast.unparse(x) for x in assigned[f"k{T.N_STAGES}v"]] == ["pnew"]
    rows = ", ".join(f"k{j}v, k{j}p" for j in range(T.N_STAGES + 1))
    assert [ast.unparse(x) for x in assigned["step"]] == [
        f"(y, v, vp, hh, vnew, pnew, xnew, {rows})"
    ]
    assert [ast.unparse(x) for x in assigned["zero"]] == ["None", "step"]
    returns = {node.value.elts[1].value: [ast.unparse(x) for x in node.value.elts[3:]]
               for node in ast.walk(shot) if isinstance(node, ast.Return)
               and isinstance(node.value, ast.Tuple)}
    assert returns["zero"] == ["zero"]
    assert returns["blow-up"] == ["step if zero is None else zero"]

    attempt = _function("attempt")
    assigned = _assigned(attempt)
    calls = [ast.unparse(node) for node in ast.walk(attempt) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id.startswith(("dot", "norm"))]
    stages = range(1, T.N_STAGES)
    products = [f"dot{s}(A{s}, out)" for s in stages] + [
        "dotb(B, out)", "dote5(E5, out)", "dote3(E3, out)"
    ]
    assert sorted(calls) == sorted(products + ["norm(out)", "norm(out)"])
    body = [ast.unparse(node) for node in attempt.body]
    assert [body[i + 1] for i, line in enumerate(body) if line in products] == [
        "sv, sp = o"
    ] * len(products)
    make = _function("_make_attempt")
    assert "o, norm = (memoryview(out), out.dot)" in [ast.unparse(x) for x in make.body]
    for s in stages:
        assert [_terms(x) for x in assigned[f"x{s}"]] == [{"hh": T.C[s]}]
        assert [ast.unparse(x) for x in assigned[f"v{s}"]] == ["v + hh * sv"]
        assert [ast.unparse(x) for x in assigned[f"k{s}v"]] == ["vp + hh * sp"]
        a = ode._GENERATED[f"A{s}"]
        assert np.array_equal(a, T.A[s, :s]) and np.shares_memory(a, DOP853.A)
    for name in ("B", "E5", "E3"):
        assert ode._GENERATED[name] is getattr(DOP853, name)

    views = []
    make_attempt = ode._make_attempt

    def capture(*args):
        views.append([dot.__self__ for dot in args[-2]])
        out = args[-1]
        assert out.shape == (2,) and out.dtype == float and out.flags.c_contiguous
        return make_attempt(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ode, "_make_attempt", capture)
        integrate(Params(n=7, lam=2.0), A_STAR[(7, 1)], 1.0)
    (views,) = views
    assert [view.shape for view in views] == [(2, s) for s in stages] + [
        (2, T.N_STAGES), (2, T.N_STAGES + 1), (2, T.N_STAGES + 1)
    ]
    assert all(view.base is views[0].base for view in views)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-12])
def test_one_step_matches_scipy_dop853(monkeypatch, n, k, rtol):
    """The step on which a shot locates its zero is scipy's DOP853 step of
    the same length from the state it started at, to its end: the new state and the
    dense-output rows, each a sum over the 16 stages, agree to 1e-14 of the
    sum of the magnitudes of their terms.  The rows the shot locates its
    zero on are, bit for bit, scipy's dense output of the shot's own 13
    stage rows."""
    params, a = Params(n=n, lam=2.0), A_STAR[(n, k)]
    dev = ode._deviation(params, a, ode.SHOOT_END, DEFAULT_ATOL)
    passes, finish_steps = [], ode._finish_steps

    def recorded(*args, **kwargs):
        passes.append((args, kwargs, finish_steps(*args, **kwargs)))
        return passes[-1][2]

    monkeypatch.setattr(ode, "_finish_steps", recorded)
    r_k = shoot(params, a, k, rtol=rtol)
    (((_, rows, events), kwargs, F),) = passes
    ((y, v, vp, h, v_new, vp_new, y1),) = rows[:, :7].tolist()
    stages = rows[0, 7:].reshape(-1, 2)
    # u, and u alone, changes sign on the one step, which is not blown, and
    # the pass locates u's root alone; a step clipped at r = 1 ends there
    # exactly
    assert _sign_changes(dev, rows) == [(0, [0], False)] and len(events) == 1
    assert kwargs == {"derivative": False}
    assert events[0].kind == "zero-crossing" and events[0].r == r_k
    assert y1 in (y + h, dev.scale_r)
    solver = DOP853(lambda t, s: np.array(dev.rhs(float(t), *s.tolist())), y,
                    np.array((v, vp)), dev.y_end)
    solver.K_extended[:len(stages)] = stages
    solver.t_old, solver.t, solver.h_previous = y, y1, h
    solver.y_old, solver.y = np.array((v, vp)), np.array((v_new, vp_new))
    solver.f = np.array(stages[-1])
    own = solver._dense_output_impl().F
    assert [x.hex() for x in F[0].ravel().tolist()] == [x.hex() for x in own.ravel().tolist()]
    # scipy's step from t = y of length h, and its dense output
    solver = DOP853(lambda t, s: np.array(dev.rhs(t, *s)), y, np.array((v, vp)), dev.y_end)
    y_new, f_new = rk_step(
        solver.fun, y, solver.y, solver.f, h, solver.A, solver.B, solver.C, solver.K
    )
    solver.t_old, solver.y_old, solver.h_previous = y, solver.y, h
    solver.t, solver.y, solver.f = y1, y_new, f_new
    want = solver.dense_output().F
    T, K = dop853_coefficients, np.abs(solver.K_extended)
    b = abs(h) * np.abs(T.B) @ K[:T.N_STAGES]
    magnitudes = np.vstack([
        b, b + abs(h) * K[0], 2.0 * b + abs(h) * (K[0] + K[T.N_STAGES]),
        abs(h) * np.abs(T.D) @ K,
    ])
    assert np.all(np.abs(F[0] - want) <= 1e-14 * magnitudes)


def test_finish_steps_without_derivative_locates_zero_crossings_alone(monkeypatch):
    """Asked for u's roots alone, as Shot.r_k asks on zero k's step, the
    end-of-run pass locates the zero crossings the full pass locates, bit
    for bit, and seeks no root of u': a record's steps on which u' changes
    sign give no derivative zero and no brentq call."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    passes = _passed_events(monkeypatch)
    integrate(params, a, 1.0)
    ((dev, rows, events),) = passes
    assert any(e.kind == "derivative-zero" for e in events)
    components, root = [], ode._root

    def located(step, g, dev, c):
        components.append(c)
        return root(step, g, dev, c)

    monkeypatch.setattr(ode, "_root", located)
    zeros = []
    with np.errstate(all="ignore"):
        F = ode._finish_steps(dev, rows, zeros, derivative=False)
    assert zeros == [e for e in events if e.kind == "zero-crossing"]
    assert components == [0] * len(zeros)
    assert F.shape == (len(rows), 7, 2)


def test_shot_r_k_fails_where_its_row_holds_no_zero_crossing():
    """A shot whose zero-k row holds no sign change of u (here the row of
    its first step, put in its place) raises integration-failed at the
    row's start radius, not a bare StopIteration or IndexError."""
    run = ode.shot(Params(n=7, lam=2.0), A_STAR[(7, 2)], 2)
    first = tuple(np.frombuffer(run.record)[:ode._ROW].tolist())
    with pytest.raises(IntegrationFailed) as info:
        dataclasses.replace(run, row=first).r_k
    assert info.value.last_radius == first[0] / run.dev.scale_r


@pytest.mark.parametrize("args, k, tolerances, error, shot_step", [
    pytest.param((Params(n=7, lam=1e4), 1.0), 1, {"rtol": 1e3}, BlowUpDetected,
                 "0.239833 to 0.550252", id="blow-up"),
    pytest.param((Params(n=6, lam=1.13e16), 1.13e12), 3, {"rtol": 11.0, "atol": 35.0},
                 IntegrationFailed, None, id="non-finite"),
])
def test_shoot_and_integrate_end_alike(monkeypatch, args, k, tolerances, error, shot_step):
    """A shot and an integration of the same input end in the same pass and
    raise the same class: a blown step whose dense output is not finite is
    integration-failed in both.  Otherwise each names the step it blew on
    by its start radius: the step from inside the blow-up bound to beyond
    it, on which no root is located; in the shot, from r = 0.239833 to
    0.550252 (integrate's steps follow numpy's products, so at this rtol
    its step moves with the BLAS kernel: 0.267551 to 0.559677 on the
    default one, 0.267547 to 0.559691 on Haswell's)."""
    passes, finish_steps = [], ode._finish_steps
    located, root = [], ode._root

    def finished(dev, rows, events, **kwargs):
        passes.append((dev, rows))
        return finish_steps(dev, rows, events, **kwargs)

    def recorded(step, *rest):
        located.append(step)
        return root(step, *rest)

    monkeypatch.setattr(ode, "_finish_steps", finished)
    monkeypatch.setattr(ode, "_root", recorded)
    ends = []
    for i, run in enumerate((lambda: shoot(*args, k, **tolerances),
                             lambda: integrate(*args, 1.0, **tolerances))):
        passes.clear()
        located.clear()
        with pytest.raises(Error) as info:
            run()
        ends.append(type(info.value))
        if error is not BlowUpDetected:
            assert str(info.value) == NOT_FINITE
            continue
        ((dev, rows),) = passes
        ((j, _, _),) = [change for change in _sign_changes(dev, rows) if change[2]]
        y0, v, vp, _, v1, vp1, y1 = rows[j, :7].tolist()
        assert abs(dev.signs(y0, (v, vp))[0]) < ode.BLOWUP_BOUND
        assert abs(dev.signs(y1, (v1, vp1))[0]) >= ode.BLOWUP_BOUND
        start, end = y0 / dev.scale_r, y1 / dev.scale_r
        assert i == 1 or f"{start:g} to {end:g}" == shot_step
        assert str(info.value) == f"|u| exceeded 1e+12 * |a| on the step from r = {start:g}"
        assert all(step[0] != y0 for step in located)
    assert ends == [error, error]


def test_recording_is_generated_from_the_shot():
    """The recording is the shot's own run: the source defines one
    stepper, _dop853, which commits a step to its record only from a step
    that starts below r = 1 (under `if inside`), twice: the blown step and
    every other accepted step.  The step that
    would reach r = 1 is clipped to end there exactly, and only while the
    run lies inside it: from r = 1 on, the last step is clipped at the
    shot's end by dop853's rule, and a start beyond r = 1 is never clipped
    back to it."""
    tree = ast.parse(ode._GENERATED["source"])
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_dop853")] == ["_dop853"]
    shot = _function("_dop853")
    parents = {child: node for node in ast.walk(shot) for child in ast.iter_child_nodes(node)}

    def conditions(node):
        """(test, branch) of each if around node, innermost first."""
        tests = []
        while node in parents:
            node, inner = parents[node], node
            if isinstance(node, ast.If):
                tests.append((ast.unparse(node.test), "else" if inner in node.orelse else "if"))
        return tests

    commits = [node for node in ast.walk(shot) if isinstance(node, ast.AugAssign)
               and ast.unparse(node) == "record += pack(*step)"]
    assert len(commits) == 2
    assert all(("inside", "if") in conditions(call) for call in commits)
    assigned = {name: [ast.unparse(x) for x in exprs] for name, exprs in _assigned(shot).items()}
    assert assigned["inside"] == ["y < y_stop"]
    assert assigned["xnew"] == ["y_stop if inside and last else y + hh"]
    clips = {ast.unparse(node.value): conditions(node) for node in ast.walk(shot)
             if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "(hh, last)"}
    assert clips == {
        "(y_stop - y, True)": [("y + 1.01 * hh - y_stop > 0.0", "if"), ("inside", "if")],
        "(y_end - y, True)": [("y + 1.01 * hh - y_end > 0.0", "if"), ("inside", "else")],
    }
    ends = {node.value.elts[1].value for node in ast.walk(shot)
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)}
    assert ends == {"step budget spent", "step size becomes too small", "blow-up", "zero",
                    "end"}


@pytest.mark.parametrize("n, k", list(A_STAR))
@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-12])
def test_record_shot_takes_the_shots_steps(monkeypatch, n, k, rtol):
    """Where zero k lies well inside the ball (at 10 a*), a shot's profile
    is built from the steps its r_k came from: the step on which r_k is
    located is one of the recorded steps, with the same 13 stage rows, bit
    for bit, and the profile's zero k, located on it, is r_k exactly, as
    shoot returns it.  The record runs on to r = 1, where its last step
    ends exactly, and finds the sign changes integrate finds, its zero
    crossings within 100 rtol of integrate's."""
    params, a = Params(n=n, lam=2.0), 10.0 * A_STAR[(n, k)]
    passes, finish_steps = [], ode._finish_steps

    def recorded(dev, rows, events, **kwargs):
        passes.append((rows[:, :7], rows[:, 7:].reshape(len(rows), -1, 2)))
        return finish_steps(dev, rows, events, **kwargs)

    monkeypatch.setattr(ode, "_finish_steps", recorded)
    run = ode.shot(params, a, k, rtol=rtol)
    r_k = run.r_k
    profile = run.profile()
    ((shot_steps, shot_stages), (taken, stages)) = passes
    (i,) = [j for j, step in enumerate(taken.tolist()) if step == shot_steps[0].tolist()]
    assert np.array_equal(stages[i], shot_stages[0])
    assert profile.zero_crossings()[k - 1].r == r_k == shoot(params, a, k, rtol=rtol)
    assert taken[-1][-1] == ode._deviation(params, a, 1.0, DEFAULT_ATOL).scale_r
    assert profile.r_end == profile.steps[-1] == 1.0
    monkeypatch.undo()
    full = integrate(params, a, 1.0, rtol=rtol)
    assert [e.kind for e in profile.events] == [e.kind for e in full.events]
    assert [e.r for e in profile.zero_crossings()] == pytest.approx(
        [e.r for e in full.zero_crossings()], rel=100.0 * rtol, abs=0.0
    )


def _shot_profile(*args, **tolerances):
    return ode.shot(*args, **tolerances).profile()


@pytest.mark.parametrize("args, tolerances, budget", [
    pytest.param((Params(n=7, lam=1e4), 1.0, 1), {"rtol": 1e3}, ode.SHOOT_MAX_STEPS,
                 id="blow-up"),
    pytest.param((Params(n=6, lam=1.13e16), 1.13e12, 3), {"rtol": 11.0, "atol": 35.0},
                 ode.SHOOT_MAX_STEPS, id="non-finite"),
    pytest.param((Params(n=7, lam=0.0), 1e30, 1), {"atol": 1e-300}, ode.SHOOT_MAX_STEPS,
                 id="zero-error-scale"),
    pytest.param((Params(n=7, lam=2.0), 1e4, 1), {}, 20, id="budget"),
])
def test_record_shot_fails_as_shoot(monkeypatch, args, tolerances, budget):
    """The profile of a shot that fails short of r = 1 fails as shoot
    does, with the same class, message and last radius, under the default
    and the error warnings filter, without a warning."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", budget)
    outcomes = set()
    for run in (shoot, _shot_profile):
        for action in ("default", "error"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(Error) as info:
                    run(*args, **tolerances)
            assert not caught
            outcomes.add(_error_outcome(info.value))
    assert len(outcomes) == 1


def test_record_shot_past_the_shot():
    """A shot that fails only beyond the ball (its power overflows near r =
    140) has a profile to r = 1 though its r_k raises; an untrusted one is
    inf at once and makes no run, so it records nothing and has no
    profile (integrate's profile of it has no sign events); an amplitude
    whose series start lies beyond r = 1 has no profile either, a
    SingularPoint."""
    overflow = ode.shot(*OVERFLOW_SHOT, rtol=OVERFLOW_SHOT_RTOL)
    with pytest.raises(IntegrationFailed, match=f"^{TOO_SMALL}$"):
        overflow.r_k
    assert overflow.profile().r_end == 1.0
    untrusted = (Params(n=5, lam=0.5), 1e28, 2)
    assert shoot(*untrusted) == math.inf
    run = ode.shot(*untrusted)
    assert run.end == "untrusted" and not run.record and run.row is None
    with pytest.raises(IntegrationFailed, match="integration failed: untrusted"):
        run.profile()
    assert not integrate(untrusted[0], untrusted[1], 1.0).events
    with pytest.raises(SingularPoint, match="series-start radius"):
        _shot_profile(Params(n=7, lam=1e-20), 1e-17, 1)


def test_shot_from_series_start_beyond_the_ball(monkeypatch):
    """At n=7, lambda=0.01, a=1e-3 the shot's series start lies at r = 2.42,
    beyond the ball.  The stepper then clips no step back to r = 1: it
    records nothing and steps by the shot's rules from its start to zero 1,
    at the r_k of the shots before the clip existed, bit for bit.  Its
    profile is a SingularPoint, as the series start allows no run out to
    r = 1."""
    params, a = Params(n=7, lam=0.01), 1e-3
    dev = ode._deviation(params, a, ode.SHOOT_END, DEFAULT_ATOL)
    assert dev.series_start()[0] / dev.scale_r == pytest.approx(2.4152, abs=1e-4)
    steps, stepper = [], ode._dop853

    def spied(*args):
        result = stepper(*args)
        steps.append(result[3:])
        return result

    monkeypatch.setattr(ode, "_dop853", spied)
    run = ode.shot(params, a, 1)
    assert run.end == "zero" and not run.record
    assert run.r_k.hex() == shoot(params, a, 1).hex() == "0x1.ae5537b559fe9p+5"
    (row,), _ = steps
    assert run.row is row and row[0] < row[6] and row[3] > 0.0
    with pytest.raises(SingularPoint, match="series-start radius 2.4152"):
        run.profile()


def test_recorded_profile_below_first_knot_is_its_series():
    """Below its first knot, the shot's series start, a shot's profile is
    the 8-term series the shot starts from, bit for bit, by the one Horner
    routine series_start takes its state from; the first knot gives the
    first sample exactly."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    profile = _shot_profile(params, a, 2)
    dev = ode._deviation(params, a, ode.SHOOT_END, DEFAULT_ATOL)
    y_s, state = dev.series_start()
    assert state == dev.series_state(y_s)
    r0 = profile.knots[0]
    assert r0 == y_s / dev.scale_r
    r = np.array([0.0, 0.3, 0.7]) * r0
    y = r * dev.scale_r
    want = dev.u_du(y, dev.series_state(y))
    assert np.array_equal(profile.u_du(r), want)
    for radius, x in zip(r.tolist(), y.tolist()):
        assert profile.u_du(radius) == dev.u_du(x, dev.series_state(x))
    assert [dev.series_state(x) for x in y.tolist()] == list(zip(*dev.series_state(y)))
    assert profile.u_du(0.0) == (a, 0.0)
    assert profile.u_du(r0) == (profile.values[0], profile.derivs[0])


@pytest.mark.parametrize("run", ["shoot", "integrate"])
def test_rtol_below_100_eps_runs_at_100_eps(run):
    """integrate and shoot raise an rtol below 100 eps to 100 eps, the
    least solve_ivp runs, without scipy's warning, and give exactly their
    result at 100 eps."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    call = shoot if run == "shoot" else integrate
    extra = (1.0,) if run == "integrate" else (2,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(params, a, *extra, rtol=1e-16)
    eps100 = 100 * np.finfo(float).eps
    want = call(params, a, *extra, rtol=eps100)
    assert ode.run_tolerances(1e-16, DEFAULT_ATOL) == (eps100, DEFAULT_ATOL)
    if run == "shoot":
        assert got.hex() == want.hex()
        return
    for name in ("knots", "values", "derivs", "steps"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.events == want.events and got.r_end == want.r_end


@pytest.mark.parametrize("n, lam, a, trusted", [
    pytest.param(n, 2.0, A_STAR[(n, 1)], True, id=f"n{n}-k1")
    for n in (5, 6, 7, 8)
] + [
    pytest.param(8, 2.0, A_STAR[(8, 2)], True, id="n8-k2"),
    pytest.param(5, 0.5, 1e28, False, id="n5-untrusted"),
])
def test_dense_output_matches_scipy(monkeypatch, n, lam, a, trusted):
    """The stacked step polynomials evaluate bit for bit as scipy's own
    OdeSolution over Dop853DenseOutput pieces built from the step radii
    and states solve_ivp returns and the coefficient rows F the end-of-run
    pass built, on and between step radii."""
    results, rows, stacked = [], [], []
    solve_ivp, step_polynomials = ode.solve_ivp, ode._StepPolynomials
    finish_steps = ode._finish_steps

    def capture(*args, **kwargs):
        results.append(solve_ivp(*args, **kwargs))
        return results[-1]

    def finished(*args, **kwargs):
        F = finish_steps(*args, **kwargs)
        rows.extend(F)
        return F

    def stack(*args):
        stacked.append(step_polynomials(*args))
        return stacked[-1]

    monkeypatch.setattr(ode, "solve_ivp", capture)
    monkeypatch.setattr(ode, "_finish_steps", finished)
    monkeypatch.setattr(ode, "_StepPolynomials", stack)
    params = Params(n=n, lam=lam)
    profile = integrate(params, a, 1.0)
    dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
    assert dev.trusted == trusted
    (result,), (pieces,) = results, stacked
    assert len(rows) == len(result.t) - 1
    sol = OdeSolution(result.t, [
        Dop853DenseOutput(*piece)
        for piece in zip(result.t[:-1], result.t[1:], result.y.T, rows)
    ])
    rng = np.random.default_rng(n)
    r0, r_end = profile.knots[0], profile.r_end
    random_radii = rng.uniform(r0, profile.knots[-1], 257)
    for r in (random_radii, profile.steps, profile.knots, r0, r_end, 1.0,
              rng.permutation(random_radii)):
        # A profile evaluates a scalar radius as a 1-element array; so does
        # the oracle, since numpy's scalar and array powers may differ in
        # the last bit.
        y = np.atleast_1d(r) * dev.scale_r
        want = dev.u_du(y, sol(y))
        assert np.array_equal(np.reshape(profile.u_du(r), np.shape(want)), want)
    # Step radii in the scaled variable are exact segment-boundary ties.
    assert np.array_equal(pieces(result.t), sol(result.t))
    for y in (result.t[0], result.t[1], result.t[-1]):
        assert np.array_equal(pieces(y), sol(y))


def test_step_polynomials_match_odesolution():
    """Pieces whose ends do not meet, read from a step record's radii and
    start states: on a step radius only the piece that OdeSolution picks
    gives its value, and beyond the ends the end pieces extrapolate; with
    rows that hold signed zeros, inf and NaN, too."""
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.5, 1.5, 9))
    ys, F = rng.normal(size=(9, 2)), rng.normal(size=(8, 7, 2))
    record = np.zeros((8, ode._ROW))
    record[:, 0], record[:, 1:3], record[:, 6] = ts[:-1], ys[:-1], ts[1:]
    y = np.concatenate([ts, rng.uniform(ts.min() - 1.0, ts.max() + 1.0, 64)])
    special = F.copy()
    spots = rng.random(F.shape) < 0.2
    special[spots] = rng.choice((0.0, -0.0, math.inf, -math.inf, math.nan), spots.sum())
    for rows in (F, special):
        sol = OdeSolution(ts, [
            Dop853DenseOutput(*piece) for piece in zip(ts[:-1], ts[1:], ys, rows)
        ])
        stacked = ode._StepPolynomials(record, rows)
        with np.errstate(all="ignore"):
            assert np.array_equal(stacked(y), sol(y), equal_nan=True)
            for t in y[:16]:
                assert np.array_equal(stacked(t), sol(t), equal_nan=True)
    with np.errstate(all="ignore"):
        assert not np.isfinite(stacked(y)).all()


def test_dense_state_is_scipys_dense_output():
    """The float evaluator that locates roots gives, bit for bit, scipy's
    Dop853DenseOutput at a scalar radius on random pieces: at both ends,
    inside, with signed zeros in the rows and with rows that are not
    finite."""
    rng = np.random.default_rng(31)
    special = (0.0, -0.0, math.inf, -math.inf, math.nan)
    non_finite = 0
    for trial in range(300):
        t_old = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 3))
        t = t_old + float(10.0 ** rng.uniform(-9, 1))
        y_old = rng.standard_normal(2) * 10.0 ** rng.uniform(-12, 12, 2)
        F = rng.standard_normal((7, 2)) * 10.0 ** rng.uniform(-15, 15, (7, 2))
        if trial % 3 == 0:  # some entries signed zeros, infinite or NaN
            spots = rng.random((7, 2)) < 0.2
            F[spots] = rng.choice(special, spots.sum())
        piece = Dop853DenseOutput(t_old, t, y_old, F)
        step = (t_old, t, *y_old.tolist(), F.tolist())
        for y in (t_old, t, *rng.uniform(t_old, t, 6).tolist()):
            with np.errstate(all="ignore"):
                want = [float(x).hex() for x in piece(y)]
            assert [x.hex() for x in ode._dense_state(y, step)] == want
            non_finite += "nan" in want or "inf" in want or "-inf" in want
    assert non_finite > 100


def _passed_events(monkeypatch):
    """(dev, rows, events) of each _finish_steps pass, in order of the
    passes; events is the list the pass fills."""
    passes, finish_steps = [], ode._finish_steps

    def finished(dev, rows, events, **kwargs):
        passes.append((dev, rows, events))
        return finish_steps(dev, rows, events, **kwargs)

    monkeypatch.setattr(ode, "_finish_steps", finished)
    return passes


@pytest.mark.parametrize("args, tolerances, roots", [
    pytest.param((Params(n=7, lam=2.0), A_STAR[(7, 2)], 1.0), {}, True, id="n7-k2"),
    pytest.param((Params(n=5, lam=0.5), 1e28, 1.0), {}, False, id="n5-untrusted"),
    # blows up before any sign change; the blown step is named, not located on
    pytest.param(
        (Params(n=7, lam=1e8), 1.0, 1.0), {"rtol": 100.0, "atol": 1e6}, False,
        id="n7-blow-up",
    ),
])
def test_dense_output_built_only_to_locate_roots(monkeypatch, args, tolerances, roots):
    """integrate passes no dense_output to its one solve_ivp call, and its
    end-of-run pass builds a step's float dense output (the piece of list
    rows _dense_state evaluates) only on a step where it locates a root,
    one per step: every float piece evaluated is one that brentq ran on,
    and brentq runs once per event, and not on a blown step, which is
    named rather than located on.  The profile's arrays of pieces go
    through _dense_state too, uncounted."""
    calls, evaluated, rooted = [], [], []
    solve_ivp, state, root = ode.solve_ivp, ode._dense_state, ode._root

    def capture(*args, **kwargs):
        calls.append(kwargs)
        return solve_ivp(*args, **kwargs)

    def evaluate(y, step):
        if isinstance(step[4], list):
            evaluated.append(step)
        return state(y, step)

    def located(step, g, *args):
        rooted.append(step)
        return root(step, g, *args)

    monkeypatch.setattr(ode, "solve_ivp", capture)
    monkeypatch.setattr(ode, "_dense_state", evaluate)
    monkeypatch.setattr(ode, "_root", located)
    passes = _passed_events(monkeypatch)
    try:
        integrate(*args, **tolerances)
        blown = False
    except BlowUpDetected:
        blown = True
    (kwargs,) = calls
    ((dev, rows, events),) = passes
    assert "dense_output" not in kwargs
    assert len(rooted) == len(events)
    # roots on each step on which u or u' changes sign, one per component,
    # and on no blown step
    changed = [(rows[i, 0], c) for i, changes, blown in _sign_changes(dev, rows)
               if not blown for c in changes]
    assert [(step[0], e.kind) for step, e in zip(rooted, events)] == [
        (y, ode._EVENT_KINDS[c]) for y, c in changed]
    assert blown == (args[0].lam == 1e8)  # the n7-blow-up input
    built = list({id(step): step for step in rooted}.values())
    assert {id(step) for step in evaluated} == {id(step) for step in built}
    assert len({step[0] for step in built}) == len(built)
    assert bool(built) == roots


def test_non_finite_dense_output_fails_ahead_of_later_steps(monkeypatch):
    """The dense output is built once solve_ivp has returned, after every
    step is taken.  A step whose dense output is NaN (its first extra stage
    is) still fails integrate as integration-failed at that step's start
    radius, with the events of the steps before it located and none of a
    later step."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
    calls, results, reached = [], [], []
    stock_solve_ivp = ode.solve_ivp

    def capture(*args, **kwargs):
        calls.append(kwargs)
        results.append(stock_solve_ivp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ode, "solve_ivp", capture)
    clean = integrate(params, a, 1.0)
    (result,) = results
    ys = result.t
    # step i follows the step that holds the first event
    i = int(np.searchsorted(ys, dev.scale_r * clean.events[0].r))
    nan_at = ys[i] + DOP853.C_EXTRA[0] * (ys[i + 1] - ys[i])
    assert any(e.r > ys[i + 1] / dev.scale_r for e in clean.events)

    # scipy's start calls the deviation's rhs and the extra stages go
    # through the generated pass; the attempted steps inline the RHS
    def rhs(y, v, vp):
        reached.append(y)
        return dev.rhs(y, v, vp)

    stock_pass = ode._rhs_pass

    def rhs_pass(K, h, p, n1, lam, radii, states, *slots):
        reached.extend(radii)
        states = [(math.nan, math.nan) if y == nan_at else s for y, s in zip(radii, states)]
        return stock_pass(K, h, p, n1, lam, radii, states, *slots)

    calls.clear()
    monkeypatch.setattr(ode, "_deviation", lambda *args: dataclasses.replace(dev, rhs=rhs))
    monkeypatch.setattr(ode, "_rhs_pass", rhs_pass)
    passes = _passed_events(monkeypatch)
    with pytest.raises(IntegrationFailed) as info:
        integrate(params, a, 1.0)
    assert str(info.value) == f"integration failed: {ode.NON_FINITE_STEP}"
    assert info.value.last_radius == ys[i] / dev.scale_r
    (kwargs,) = calls
    ((_, _, events),) = passes
    # the failing run's solve_ivp returned, with every step of the clean run
    assert len(results) == 2 and np.array_equal(results[1].t, ys)
    earlier = [e for e in clean.events if e.r <= ys[i] / dev.scale_r]
    assert earlier and events == earlier
    # the run took every step of the clean run before its dense output
    # was built: the extra stages of each step, the last one's too
    assert nan_at in reached
    assert len(reached) == 2 + 3 * (len(ys) - 1) and max(reached) > ys[-2]


@pytest.mark.parametrize("n, lam, a", [
    pytest.param(7, 2.0, A_STAR[(7, 1)], id="n7-k1"),
    pytest.param(7, 2.0, A_STAR[(7, 2)], id="n7-k2"),
    pytest.param(5, 0.5, 1e28, id="n5-untrusted"),
])
def test_integrate_rhs_calls_counted_in_its_nfev(monkeypatch, n, lam, a):
    """Each integrate makes exactly 2 + 12 attempts + 3 steps RHS
    evaluations (the start, every attempted step and the extra stages of
    every accepted step's dense output), and the nfev of its one solve_ivp
    call reports them all.  The start and the attempts run inside that
    call; the extra stages run after it returns, in the end-of-run pass.
    The start calls the deviation's rhs, the extra stages go through the
    generated pass over their states; each attempt (a call of the
    generated attempt) inlines 12.  The attempts are counted on stock
    DOP853 without dense output or events, which takes the same steps."""
    params = Params(n=n, lam=lam)
    dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
    calls = {True: 0, False: 0}  # RHS calls inside and outside solve_ivp
    attempts = {True: 0, False: 0}  # attempted steps inside and outside
    inside, results = False, []
    stock_solve_ivp, stock_make_attempt = ode.solve_ivp, ode._make_attempt
    stock_pass = ode._rhs_pass

    def capture(*args, **kwargs):
        nonlocal inside
        inside = True
        try:
            results.append(stock_solve_ivp(*args, **kwargs))
        finally:
            inside = False
        return results[-1]

    def rhs(*state):
        calls[inside] += 1
        return dev.rhs(*state)

    def rhs_pass(K, h, p, n1, lam, radii, *rest):
        calls[inside] += len(radii)
        return stock_pass(K, h, p, n1, lam, radii, *rest)

    def make_attempt(*args):
        attempt = stock_make_attempt(*args)

        def counted(*state):
            attempts[inside] += 1
            return attempt(*state)

        return counted

    monkeypatch.setattr(ode, "solve_ivp", capture)
    monkeypatch.setattr(ode, "_make_attempt", make_attempt)
    monkeypatch.setattr(ode, "_rhs_pass", rhs_pass)
    monkeypatch.setattr(ode, "_deviation", lambda *args: dataclasses.replace(dev, rhs=rhs))
    profile = integrate(params, a, 1.0)
    (result,) = results
    plain = solve_ivp(
        lambda y, s: np.array(dev.rhs(float(y), *s.tolist())),
        (dev.y0, dev.y_end),
        dev.s0,
        method="DOP853",
        rtol=ode.run_tolerances(DEFAULT_RTOL, DEFAULT_ATOL)[0],
        atol=dev.atol_scaled,
    )
    assert np.array_equal(plain.t, result.t)
    stock_attempts, rest = divmod(plain.nfev - 2, 12)
    steps = len(profile.steps) - 1
    assert rest == 0 and stock_attempts >= steps
    assert attempts == {True: stock_attempts, False: 0}
    assert calls == {True: 2, False: 3 * steps}
    assert result.nfev == 2 + 12 * stock_attempts + 3 * steps


def test_u_du_agrees_with_u_and_du(sol7_lam2):
    """One u_du call gives u and du at once, below the first knot too."""
    profile = sol7_lam2.profile
    r = np.array([0.5 * profile.knots[0], 0.3, 1.0])
    u, du = profile.u_du(r)
    assert np.array_equal(u, profile.u(r)) and np.array_equal(du, profile.du(r))
    assert profile.u_du(1.0) == (profile.u(1.0), profile.du(1.0))
    assert isinstance(profile.u_du(1.0)[0], float)


def test_u_du_beyond_r_end_is_out_of_domain():
    """A profile answers radii up to r_end and radial_norms' slack of
    1e-12 max(1, r_end) past it, and refuses radii beyond: the last step's
    polynomial gave u(1.5) = 7547.68 on the n=7 k=2 a* profile to r=1,
    where u(1) is 5.6e-10.  The rescaled view refuses them too."""
    profile = integrate(Params(n=7, lam=2.0), A_STAR[(7, 2)], 1.0)
    for view in (profile, profile.rescaled(10.0)):
        r_end = view.r_end
        view.u_du(np.array([0.5 * r_end, r_end, r_end + 0.5e-12 * max(1.0, r_end)]))
        for r in (1.5 * r_end, r_end + 2e-12 * max(1.0, r_end), np.array([0.5, 1.5]) * r_end):
            with pytest.raises(OutOfDomain, match="beyond r_end"):
                view.u_du(r)


@pytest.mark.parametrize(
    "lam, a", [(2.0, A_STAR[(7, 2)]), (0.0, 1.0)], ids=["n7-k2-a-star", "bubble"]
)
def test_profile_below_first_knot_is_start_series(lam, a):
    """Below its first knot, where integrate's run starts from the two-term
    truncation, its profile is the 8-term series, bit for bit, by the one
    Horner routine a shot's profile reads there too.  The series meets the
    dense output at the first knot, where u_du gives the first sample
    exactly."""
    params = Params(n=7, lam=lam)
    profile = integrate(params, a, 1.0)
    dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
    r0 = profile.knots[0]
    assert r0 == dev.y0 / dev.scale_r
    r = np.array([0.0, 0.3, 0.7]) * r0
    y = r * dev.scale_r
    assert np.array_equal(profile.u_du(r), dev.u_du(y, dev.series_state(y)))
    for radius, x in zip(r.tolist(), y.tolist()):
        assert profile.u_du(radius) == dev.u_du(x, dev.series_state(x))
    assert [dev.series_state(x) for x in y.tolist()] == list(zip(*dev.series_state(y)))
    assert profile.u_du(0.0) == (a, 0.0)
    assert profile.u_du(r0) == (profile.values[0], profile.derivs[0])


def test_u_du_below_zero_or_nan_is_out_of_domain():
    """A profile refuses radii below 0 by more than radial_norms' slack, and
    NaN: on the n=7 k=2 a* profile u_du(-0.5) gave 4.6e114, the origin's
    series far outside its range, and u_du(nan) gave NaN.  The slack itself
    is answered, and the rescaled view refuses them too."""
    profile = integrate(Params(n=7, lam=2.0), A_STAR[(7, 2)], 1.0)
    for view in (profile, profile.rescaled(10.0)):
        view.u_du(np.array([-0.5e-12 * max(1.0, view.r_end), 0.0, 0.5 * view.r_end]))
        for r in (-0.5, -1e-3, math.nan, np.array([0.5, math.nan]), np.array([0.5, -0.5])):
            with pytest.raises(OutOfDomain, match="outside"):
                view.u_du(r)


def test_series_computed_once_per_deviation(monkeypatch):
    """The series recurrence runs once per deviation: a profile's start and
    every later read below its first knot share one computation, and a shot
    computes it once for its start; an untrusted shot, which returns before
    its start, never does."""
    recurrence, calls = ode._Deviation.series.func, []

    def counted(dev):
        calls.append(dev)
        return recurrence(dev)

    series = functools.cached_property(counted)
    series.__set_name__(ode._Deviation, "series")
    monkeypatch.setattr(ode._Deviation, "series", series)
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    profile = integrate(params, a, 1.0)
    for r in (0.0, 0.5 * profile.knots[0], np.array([0.0, 0.3, 0.7]) * profile.knots[0]):
        profile.u_du(r)
    assert profile.u_du(0.0) == (a, 0.0)
    assert len(calls) == 1
    shoot(params, a, 2)
    assert len(calls) == 2
    assert shoot(Params(n=5, lam=0.5), 1e28, 2) == math.inf and len(calls) == 2


def test_first_knot_reads_the_first_sample():
    """u_du at the first knot is the first sample exactly, also at an
    amplitude whose start radius does not survive the round trip through
    the physical radius: knots[0] = fl(y0 / scale_r), and fl(knots[0] *
    scale_r) misses y0 in the last bit there.  Such amplitudes are found by a
    scan in the scaling's arithmetic alone, without integrating."""
    params = Params(n=7, lam=2.0)
    for a in 10.0 ** np.arange(-2.0, 18.0, 0.01):
        dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
        if dev.y0 / dev.scale_r * dev.scale_r != dev.y0:
            break
    else:
        pytest.fail("no amplitude whose start radius misses its round trip")
    profile = integrate(params, a, 1.0)
    assert profile.knots[0] == dev.y0 / dev.scale_r
    assert profile.u_du(profile.knots[0]) == (profile.values[0], profile.derivs[0])
    r = np.array([0.5 * profile.knots[0], profile.knots[0], profile.knots[1]])
    u, du = profile.u_du(r)
    assert (u[1:].tolist(), du[1:].tolist()) == (
        profile.values[:2].tolist(), profile.derivs[:2].tolist()
    )


def test_no_scipy_dense_output_after_integration(monkeypatch, sol7_lam2):
    """Once integrate returns, features, certify and build_record read the
    dense output only through the stacked step polynomials; no scipy
    interpolant is called."""
    calls = 0
    call_impl = Dop853DenseOutput._call_impl

    def counting(self, t):
        nonlocal calls
        calls += 1
        return call_impl(self, t)

    params = sol7_lam2.params
    profile = integrate(params, sol7_lam2.a_star, 1.0, rtol=DEFAULT_RTOL)
    monkeypatch.setattr(Dop853DenseOutput, "_call_impl", counting)
    features = extract_features(profile, params)
    residuals = diagnostics.certify(profile, params, features=features)
    build_record(dataclasses.replace(
        sol7_lam2, profile=profile, features=features, residuals=residuals
    ))
    assert calls == 0


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_deviation_bubble_matches_unit_bubble(n):
    """The integrator's (K/(K+y^2))^h form of the bubble agrees with
    bubble.delta's prefactor form to 8 eps relative."""
    dev = ode._deviation(Params(n=n, lam=2.0), 1.0, 1.0, DEFAULT_ATOL)
    ys = np.concatenate([np.linspace(0.0, 10.0, 1001), np.geomspace(10.0, 1e6, 1001)])
    got = dev.bubble(ys)[0]
    want = delta(n, ys)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)
    assert dev.bubble(0.0)[0] == 1.0 and delta(n, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_shoot_releases_its_solver():
    """Repeated shots hold on to nothing: over 200 shots the memory blocks
    Python has allocated grow by fewer than 20 in all (measured 1; 4,570,
    about 1.4 KB a shot by tracemalloc, on the scipy.integrate.ode dop853
    shots this stepper replaced).  Blocks are counted, not traced:
    tracemalloc slows the float stepping by two orders of magnitude.  What
    a shot keeps does not depend on its length, so a short shot (a = 10,
    zero 1 near r = 3) stands in for a*."""
    params, a = Params(n=7, lam=2.0), 10.0
    for _ in range(20):
        shoot(params, a, 1)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(200):
        shoot(params, a, 1)
    gc.collect()
    assert sys.getallocatedblocks() - before < 20


def test_integrate_leaves_no_step_rows_to_the_collector():
    """The float stepper drops the closures scipy's solver keeps over
    itself in __init__, right after scipy's start, and brentq gets its
    function's data as args, so reference counting frees each
    integration's stepper, rows and located steps: with the collector off,
    tracemalloc growth stays below 16 KB per integration of the n=7 k=2 a*
    (6.6 KB measured with the steps packed in one record; 12.0 KB with a
    tuple and a bytes object per step, 14.9 KB with a new array for each
    product and the extra stages one RHS call each, and 167 KB with scipy's
    closures kept, whose cycle holds the stepper and its rows)."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    integrate(params, a, 1.0)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            integrate(params, a, 1.0)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert growth / 5 < 16_000


@pytest.mark.parametrize(
    "lam, a, tolerances, error, message",
    [
        (2.0, A_STAR[(7, 2)], {}, None, None),
        (1e8, 1.0, dict(rtol=100.0, atol=1e6), BlowUpDetected, "exceeded"),
        (1e4, 1.0, dict(rtol=1e3, atol=1e9), IntegrationFailed, "not finite"),
        (0.0, 1e30, dict(atol=1e-300), IntegrationFailed, "Required step size"),
    ],
    ids=["success", "blow-up", "non-finite-step", "too-small-step"],
)
def test_stepper_freed_however_its_run_ends(monkeypatch, lam, a, tolerances, error, message):
    """The stepper holds no reference cycle: with the collector off, it is
    gone once integrate returns or raises, however its run ends."""
    steppers = []

    class Recording(ode._FloatDop853):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            steppers.append(weakref.ref(self))

    stock_solve_ivp = ode.solve_ivp

    def recording(*args, **kwargs):
        return stock_solve_ivp(*args, **dict(kwargs, method=Recording))

    monkeypatch.setattr(ode, "solve_ivp", recording)
    outcome = (None, None)
    gc.collect()
    gc.disable()
    try:
        try:
            integrate(Params(n=7, lam=lam), a, 1.0, **tolerances)
        except Error as exc:
            outcome = (type(exc), str(exc))
        (stepper,) = steppers
        freed = stepper() is None
    finally:
        gc.enable()
    assert outcome[0] is error
    assert message is None or message in outcome[1]
    assert freed


def test_shot_leaves_its_stepper_to_reference_counting():
    """With the collector off, each shot of the n=7 k=2 a* leaves fewer than
    16 memory blocks behind (measured 12.5: the NaN guard scipy's brentq
    wraps around the zero location, a closure over itself; 36.7 with the
    scipy.integrate.ode dop853 shot and the float stepper that located its
    zero)."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    shoot(params, a, 2)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(20):
            shoot(params, a, 2)
        growth = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert growth / 20 < 16
