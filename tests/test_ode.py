"""Radial integrator: series start, events, and the lambda=0 bubble oracle."""

import dataclasses
import gc
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate import ode as scipy_ode
from scipy.integrate._ivp.rk import Dop853DenseOutput

from bnball import diagnostics, ode
from bnball.asymptotics import build_record
from bnball.bubble import delta
from bnball.model import BlowUpDetected, Error, IntegrationFailed, Params, SingularPoint
from bnball.ode import DEFAULT_ATOL, DEFAULT_RTOL, integrate, shoot
from bnball.shooting import extract_features

# Below the first knot a profile evaluates the second-order series of the
# regular solution, u(r) = a - f(a) r^2/(2n), u'(r) = -f(a) r/n with
# f(a) = lambda a + |a|^(2*-2) a.  The first knot sits at 1e-6 for |a| = 1.
BELOW_START = 1e-7


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
    piece = Dop853DenseOutput(0.0, 1.0, np.zeros(2), np.zeros((7, 2)))
    message = r"^integration failed: f\(a\) and f\(b\) must have different signs"
    with pytest.raises(IntegrationFailed, match=message):
        ode._root(piece, lambda y, s: 1.0)


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
    """Both right-hand sides (f for shoot, rhs for integrate's stepper)
    compute on Python floats and return, bit for bit, what the same
    formula gives on numpy scalars, in both branches."""
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
                    s = np.array([v, vp])
                    got = dev.f(float(y), s)
                    assert type(got) is np.ndarray
                    assert got.dtype == np.float64 and got.shape == (2,)
                    got = got.tolist()
                    want = _numpy_scalar_rhs(params, a, np.float64(y), s)
                    assert [x.hex() for x in got] == [float(x).hex() for x in want]
                    # the float stepper's RHS is the same function
                    got = dev.rhs(float(y), float(v), float(vp))
                    assert [x.hex() for x in got] == [float(x).hex() for x in want]
                    d = dev.bubble(float(y))[0]
                    if d + v > 0.0 and abs(v) < 0.5 * d:
                        stable += 1
                    else:
                        other += 1
    assert stable > 500 and other > 500


# A shot whose power |w|^(p-1) overflows: n=3, zero 3 sought at a loose rtol.
# The run passes r=1 and fails near r = 136; the problem is trusted.
OVERFLOW_SHOT = (Params(n=3, lam=0.01), 10.0, 3)
OVERFLOW_SHOT_RTOL = 1e3


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_rhs_overflow_in_shoot_is_integration_failure():
    """|w|^(p-1) overflowing inside a shot gives inf without a warning, and
    the failed run reports dop853's own message.  The marker restores a
    user's default filter over tier-1's error filter; the error path is
    the next test's."""
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(
            IntegrationFailed, match=r"step size becomes too small \(return code -3\)"
        ) as info:
            shoot(*OVERFLOW_SHOT, rtol=OVERFLOW_SHOT_RTOL)
    assert not caught
    assert info.value.last_radius > 1.0


# An integration whose power overflows to a NaN dense output at loose
# tolerances, and a shot that passes zero 3 on the Fortran run and then
# meets a NaN dense output while _locate_zero's stepper locates it.
OVERFLOW_INTEGRATE = (Params(n=4, lam=1e4), 1e28, 1.0)
NAN_ZERO_LOCATION_SHOT = (Params(n=4, lam=2.0), 10.0, 3)


@pytest.mark.parametrize("run, args, tolerances, message", [
    pytest.param(
        "shoot", OVERFLOW_SHOT, {"rtol": OVERFLOW_SHOT_RTOL},
        r"dop853: step size becomes too small \(return code -3\)", id="shoot",
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
    failure with a last radius, not leaked raw from solve_ivp or as
    scipy's ValueError from the dop853 wrapper: shoot ends as under the
    default filter, and integrate fails the step whose dense output is
    not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailed, match=message) as info:
            getattr(ode, run)(*args, **tolerances)
    assert info.value.last_radius is not None


def test_rhs_overflow_in_shoot_ends_alike_under_any_filter():
    """A failing run ends with the same class, message and radius under
    the default and the error filter: the Fortran shot whose callback
    overflows (no warning is raised there), the integration and the zero
    location that meet a NaN dense output (the stepper runs under
    np.errstate and fails that step)."""
    not_finite = "integration failed: Dense output of the step is not finite."
    for run, args, tolerances, message in (
        (shoot, OVERFLOW_SHOT, {"rtol": OVERFLOW_SHOT_RTOL},
         "integration failed: dop853: step size becomes too small (return code -3)"),
        (integrate, OVERFLOW_INTEGRATE, {"rtol": 1.0, "atol": 1.0}, not_finite),
        # in a shot only _locate_zero's stepper fails a step this way
        (shoot, NAN_ZERO_LOCATION_SHOT, {"rtol": 20.0}, not_finite),
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
        got = dev.series()
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
        assert not math.isfinite(dev.series()[-1])
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
    """At the least rtol a shot finds zero k of the k-nodal a* where a shot
    from integrate's start at SCALED_START finds it, to 1e-12 relative."""
    params, a, rtol = Params(n=n, lam=2.0), A_STAR[(n, k)], 2.3e-14
    got = shoot(params, a, k, rtol=rtol)
    monkeypatch.setattr(ode._Deviation, "series_start", lambda dev: (dev.y0, dev.s0))
    want = shoot(params, a, k, rtol=rtol)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert got == pytest.approx(1.0, abs=1e-10)


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


def _list_shoot(params, a, k, rtol, atol):
    """shoot as it ran with a list-returning RHS and its solout through
    dev.bubble, from the same series start, zero k located by
    ode._locate_zero as in shoot: the outcome (r_k in hex, or the error)
    and dop853's counters iwork[16:20] (RHS calls, steps, accepted,
    rejected), none for an untrusted shot."""
    dev = ode._deviation(params, a, ode.SHOOT_END, atol)
    if not dev.trusted:
        return math.inf.hex(), []
    zeros, negative, blown_at = 0, False, None
    y0, s0 = dev.series_start()
    before = (y0, list(s0))

    def f(y, s):
        return list(dev.rhs(float(y), *s.tolist()))

    def solout(y, s):
        nonlocal zeros, negative, blown_at, before
        w = dev.bubble(float(y))[0] + float(s[0])
        if ode._blown_up(w):
            blown_at = y
            return -1
        if (w < 0.0) != negative:
            zeros += 1
            negative = not negative
            if zeros == k:
                return -1
        before = (y, [float(x) for x in s])
        return 0

    solver = scipy_ode(f).set_integrator(
        "dop853", rtol=rtol, atol=dev.atol_scaled, nsteps=ode.SHOOT_MAX_STEPS
    )
    solver.set_solout(solout)
    solver.set_initial_value(s0, y0)
    counters = solver._integrator.iwork[16:20]  # a view: read after the run
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings(
            "always", category=UserWarning, module="scipy.integrate._ode"
        )
        try:
            solver.integrate(dev.y_end)
        except ValueError as exc:
            return _error_outcome(ode._callback_failure(exc)), [counters.tolist()]
    if blown_at is not None:
        return _error_outcome(ode._blow_up(blown_at / dev.scale_r)), [counters.tolist()]
    if not solver.successful():
        reason = "; ".join(str(w.message) for w in caught)
        error = IntegrationFailed(
            f"integration failed: {reason} "
            f"(return code {solver.get_return_code()})",
            last_radius=solver.t / dev.scale_r,
        )
        return _error_outcome(error), [counters.tolist()]
    if zeros < k:
        return math.inf.hex(), [counters.tolist()]
    r_k = ode._locate_zero(dev, *before, solver.t, rtol)
    return r_k.hex(), [counters.tolist()]


def _error_outcome(exc):
    return type(exc), str(exc), getattr(exc, "last_radius", None)


def _array_shoot(monkeypatch, params, a, k, rtol, atol):
    """shoot's outcome and counters, in _list_shoot's form."""
    counters = []

    class Recorded(scipy_ode):
        def set_initial_value(self, *args):
            super().set_initial_value(*args)
            # a view, read after the run: shoot empties the integrator
            counters.append(self._integrator.iwork[16:20])
            return self

    with monkeypatch.context() as patch:
        patch.setattr(ode, "scipy_ode", Recorded)
        try:
            outcome = shoot(params, a, k, rtol=rtol, atol=atol).hex()
        except Error as exc:
            outcome = _error_outcome(exc)
    return outcome, [view.tolist() for view in counters]


SHOOT_RTOLS = (1e-5, 1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_shoot_matches_list_rhs_bit_for_bit(monkeypatch, n):
    """shoot, whose RHS fills one reused array and whose solout computes
    u/a inline, takes the steps and returns the zero radius of the same
    run with a list-returning RHS and solout through dev.bubble, bit for
    bit."""
    radii = []
    for lam in (0.5, 2.0, 10.0):
        for a in (10.0, 1e6, 1e16, A_STAR.get((n, 2), 1e24), -3.0):
            for rtol in SHOOT_RTOLS:
                for k in (1, 2):
                    args = (Params(n=n, lam=lam), a, k, rtol, DEFAULT_ATOL)
                    want = _list_shoot(*args)
                    assert _array_shoot(monkeypatch, *args) == want
                    radii.append(float.fromhex(want[0]))
    finite = [r for r in radii if r < math.inf]
    assert min(finite) < 1.0 < max(finite)


@pytest.mark.parametrize("n, lam, a, k, rtol, error", [
    pytest.param(7, 1e4, 1.0, 1, 1e3, BlowUpDetected, id="n7-blow-up"),
    pytest.param(3, 0.01, 10.0, 3, 1e3, IntegrationFailed, id="n3-power-overflow"),
    pytest.param(5, 0.5, 1e28, 2, 1e-10, None, id="n5-untrusted"),
    pytest.param(6, 1e-10, 1e3, 2, 1e-8, None, id="n6-untrusted"),
])
@pytest.mark.parametrize("action", ["error", "default"])
def test_shoot_fails_as_list_rhs(monkeypatch, n, lam, a, k, rtol, error, action):
    """The blow-up guard and the overflow of |w|^(p-1) (raised or only
    warned, by the RuntimeWarning filter) end exactly as with a
    list-returning RHS, message and counters too; an untrusted shot is
    inf at once, with no run."""
    args = (Params(n=n, lam=lam), a, k, rtol, DEFAULT_ATOL)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        want = _list_shoot(*args)
        assert _array_shoot(monkeypatch, *args) == want
    if error is None:
        assert want == (math.inf.hex(), [])
    else:
        assert want[0][0] is error


@pytest.mark.parametrize("rtol", SHOOT_RTOLS)
def test_shoot_step_budget_fails_as_list_rhs(monkeypatch, rtol):
    """Running out of steps ends at the same radius, with the same message
    and counters, as with a list-returning RHS."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", 20)
    args = (Params(n=7, lam=2.0), 1e4, 1, rtol, DEFAULT_ATOL)
    want = _list_shoot(*args)
    assert want[0][0] is IntegrationFailed
    assert _array_shoot(monkeypatch, *args) == want


@pytest.mark.parametrize("run", ["shoot", "integrate"])
def test_rtol_below_100_eps_runs_at_100_eps(run):
    """integrate and shoot raise an rtol below 100 eps to 100 eps, the
    least solve_ivp runs, without scipy's warning, and give exactly their
    result at 100 eps."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    call = getattr(ode, run)
    extra = (1.0,) if run == "integrate" else (2,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(params, a, *extra, rtol=1e-16)
    want = call(params, a, *extra, rtol=ode.run_rtol(0.0))
    assert ode.run_rtol(1e-16) == 100 * np.finfo(float).eps == ode.run_rtol(0.0)
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
    OdeSolution over Dop853DenseOutput pieces built from the same rows
    (t_old, h, F, y_old) the stepper recorded, on and between step
    radii."""
    results, rows, stacked = [], [], []
    solve_ivp, step_polynomials = ode.solve_ivp, ode._StepPolynomials

    def capture(*args, **kwargs):
        results.append(solve_ivp(*args, **kwargs))
        rows.extend(kwargs["rows"])
        return results[-1]

    def stack(*args):
        stacked.append(step_polynomials(*args))
        return stacked[-1]

    monkeypatch.setattr(ode, "solve_ivp", capture)
    monkeypatch.setattr(ode, "_StepPolynomials", stack)
    params = Params(n=n, lam=lam)
    profile = integrate(params, a, 1.0)
    dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
    assert dev.trusted == trusted
    (result,), (pieces,) = results, stacked
    assert [row[0] for row in rows] == result.t[:-1].tolist()
    assert [row[1] for row in rows] == np.diff(result.t).tolist()
    sol = OdeSolution(result.t, [
        Dop853DenseOutput(t_old, t, np.array(y_old), F)
        for (t_old, _, F, y_old), t in zip(rows, result.t[1:])
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
    """Pieces whose ends do not meet: on a step radius only the piece that
    OdeSolution picks gives its value, and beyond the ends the end pieces
    extrapolate."""
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.5, 1.5, 9))
    t_old, h = ts[:-1], ts[1:] - ts[:-1]
    F, y_old = rng.normal(size=(8, 7, 2)), rng.normal(size=(8, 2))
    sol = OdeSolution(ts, [
        Dop853DenseOutput(*row) for row in zip(t_old, ts[1:], y_old, F)
    ])
    stacked = ode._StepPolynomials(ts, t_old, h, F, y_old)
    y = np.concatenate([ts, rng.uniform(ts.min() - 1.0, ts.max() + 1.0, 64)])
    assert np.array_equal(stacked(y), sol(y))
    for t in y[:16]:
        assert np.array_equal(stacked(t), sol(t))


@pytest.mark.parametrize("args, tolerances, roots", [
    pytest.param((Params(n=7, lam=2.0), A_STAR[(7, 2)], 1.0), {}, True, id="n7-k2"),
    pytest.param((Params(n=5, lam=0.5), 1e28, 1.0), {}, False, id="n5-untrusted"),
    pytest.param(
        (Params(n=7, lam=1e8), 1.0, 1.0), {"rtol": 100.0, "atol": 1e6}, True,
        id="n7-blow-up",
    ),
])
def test_dense_output_built_only_to_locate_roots(monkeypatch, args, tolerances, roots):
    """integrate passes no dense_output to its one solve_ivp call, and the
    stepper builds a Dop853DenseOutput only on a step where it locates a
    root, one per step: every piece built is one that brentq ran on, and
    brentq runs once per event and once for the blow-up radius."""
    calls, built, rooted = [], [], []
    solve_ivp, piece, root = ode.solve_ivp, ode.Dop853DenseOutput, ode._root

    def capture(*args, **kwargs):
        calls.append(kwargs)
        return solve_ivp(*args, **kwargs)

    def build(*row):
        built.append(piece(*row))
        return built[-1]

    def located(step, g):
        rooted.append(step)
        return root(step, g)

    monkeypatch.setattr(ode, "solve_ivp", capture)
    monkeypatch.setattr(ode, "Dop853DenseOutput", build)
    monkeypatch.setattr(ode, "_root", located)
    try:
        integrate(*args, **tolerances)
        blown = False
    except BlowUpDetected:
        blown = True
    (kwargs,) = calls
    assert "dense_output" not in kwargs
    assert len(rooted) == len(kwargs["crossings"]) + blown
    assert {id(step) for step in rooted} == {id(step) for step in built}
    assert len({step.t_old for step in built}) == len(built)
    assert bool(built) == roots


def test_u_du_agrees_with_u_and_du(sol7_lam2):
    """One u_du call gives u and du at once, below the first knot too."""
    profile = sol7_lam2.profile
    r = np.array([0.5 * profile.knots[0], 0.3, 1.0])
    u, du = profile.u_du(r)
    assert np.array_equal(u, profile.u(r)) and np.array_equal(du, profile.du(r))
    assert profile.u_du(1.0) == (profile.u(1.0), profile.du(1.0))
    assert isinstance(profile.u_du(1.0)[0], float)


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
    """Repeated shots hold on to no integrator state: tracemalloc growth
    over 200 shots stays below 2 KB per shot.  What a shot keeps does not
    depend on its length, so a short shot (a = 10, zero 1 near r = 3)
    stands in for a*."""
    params, a = Params(n=7, lam=2.0), 10.0
    for _ in range(20):
        shoot(params, a, 1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            shoot(params, a, 1)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth / 200 < 2048


def test_integrate_leaves_no_step_rows_to_the_collector():
    """The float stepper drops the closures scipy's solver keeps over
    itself once its run ends, and brentq gets its function's data as
    args, so reference counting frees each integration's stepper, rows and
    located steps: with the collector off, tracemalloc growth stays below
    16 KB per integration of the n=7 k=2 a* (about 13 KB here, 28 KB with
    the stepper left in its cycle, 145 KB with its rows kept too).  Most of
    what remains is the tuples of the rows on CPython's tuple free lists, a
    fixed pool that does not grow with more integrations."""
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


def test_shot_leaves_its_stepper_to_reference_counting():
    """With the collector off, each shot of the n=7 k=2 a* grows tracemalloc
    by less than 3 KB (about 2.4 KB here; 14 KB with _locate_zero's
    stepper, and the deviation its located zero holds, left in cycles)."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    shoot(params, a, 2)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            shoot(params, a, 2)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert growth / 20 < 3_000
