"""integrate's float DOP853 stepper against stock DOP853 with event functions.

The oracle below is integrate as it ran on solve_ivp(method="DOP853") with
the blow-up guard and the sign changes of u and u' as event functions.
integrate must return the same profile bit for bit, with the same step
count and RHS evaluations, and fail with the same error and message; only
a step whose dense output is NaN ends differently, failed by the float
stepper before stock DOP853 would accept it.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bnball import ode
from bnball.model import Error, IntegrationFailed, Params
from bnball.ode import (
    BLOWUP_BOUND,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    DENSE_SAMPLES,
    Event,
    RadialProfile,
)


def _stock_integrate(params, a, r_stop, rtol, atol):
    """(profile, nfev) of integrate on stock DOP853 with event functions."""
    dev = ode._deviation(params, a, r_stop, atol)
    scale_r = dev.scale_r

    def ev_blow(y, s):
        return abs(ev_zero(y, s)) - BLOWUP_BOUND

    ev_blow.terminal = True
    ev_blow.direction = 1

    def ev_zero(y, s):
        return dev.bubble(float(y))[0] + float(s[0])

    def ev_dzero(y, s):
        return dev.bubble(float(y))[1] + float(s[1])

    try:
        sol = solve_ivp(
            # solve_ivp keeps each RHS result, and f reuses one array
            lambda y, s: np.array(dev.f(y, s)),
            (dev.y0, dev.y_end),
            dev.s0,
            method="DOP853",
            rtol=rtol,
            atol=dev.atol_scaled,
            dense_output=True,
            events=(ev_blow, ev_zero, ev_dzero) if dev.trusted else (ev_blow,),
        )
    except ValueError as exc:
        raise IntegrationFailed(f"integration failed: {exc}") from exc
    except RuntimeWarning as exc:
        raise ode._callback_failure(exc) from exc
    if sol.t_events[0].size > 0:
        raise ode._blow_up(sol.t_events[0][0] / scale_r)
    if not sol.success:
        last = sol.t[-1] / scale_r if sol.t.size else None
        raise IntegrationFailed(f"integration failed: {sol.message}", last_radius=last)

    def at_y(y):
        return dev.u_du(y, sol.sol(y))

    events = [
        Event(kind=kind, r=y / scale_r, value=at_y(y)[component])
        for kind, component, found in zip(
            ("zero-crossing", "derivative-zero"), (1, 0), sol.t_events[1:]
        )
        for y in found
    ]
    events.sort(key=lambda e: e.r)
    ys = sol.t
    fill = np.linspace(ys[:-1], ys[1:], DENSE_SAMPLES + 2, axis=1)[:, 1:-1]
    ys = np.sort(np.concatenate([ys, fill.ravel()]))
    values, derivs = at_y(ys)
    profile = RadialProfile(
        params=params,
        a=a,
        knots=ys / scale_r,
        values=values,
        derivs=derivs,
        events=events,
        r_end=sol.t[-1] / scale_r,
        dense=lambda r: at_y(np.asarray(r, dtype=float) * scale_r),
        steps=sol.t / scale_r,
    )
    return profile, sol.nfev


def _float_integrate(monkeypatch, params, a, r_stop, rtol, atol):
    """(profile, nfev) of integrate, reading nfev from its solve_ivp result."""
    results = []
    stock_solve_ivp = ode.solve_ivp

    def capture(*args, **kwargs):
        results.append(stock_solve_ivp(*args, **kwargs))
        return results[-1]

    with monkeypatch.context() as patch:
        patch.setattr(ode, "solve_ivp", capture)
        profile = ode.integrate(params, a, r_stop, rtol=rtol, atol=atol)
    (result,) = results
    return profile, result.nfev


def _outcome(run, *args):
    """run's result, or the class, message and last_radius of the Error it
    raises.

    Warnings are ignored: stock DOP853's array arithmetic warns on a NaN
    step where the float stepper, run under np.errstate, does not.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run(*args)
        except Error as exc:
            return type(exc), str(exc), getattr(exc, "last_radius", None)


def _assert_same(stock, got):
    (want, want_nfev), (profile, nfev) = stock, got
    assert nfev == want_nfev
    for name in ("knots", "values", "derivs", "steps"):
        assert np.array_equal(getattr(profile, name), getattr(want, name)), name
    assert profile.events == want.events
    assert profile.r_end == want.r_end
    r = np.linspace(want.knots[0], want.r_end, 101)
    assert np.array_equal(profile.u_du(r), want.u_du(r))


AMPLITUDES = (1e-2, 1e3, 1e8, 1e13, 1e18, 1e23, 1e28)
RTOLS = (1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_float_stepper_matches_stock_dop853(monkeypatch, n, lam):
    """Every amplitude and tolerance of the grid gives stock DOP853's
    profile bit for bit: knots, values, derivatives, steps, events, end
    radius, dense output and RHS evaluations."""
    params = Params(n=n, lam=lam)
    zeros = 0
    for a in AMPLITUDES:
        for rtol in RTOLS:
            args = (params, a, 1.0, rtol, DEFAULT_ATOL)
            stock = _outcome(_stock_integrate, *args)
            got = _outcome(_float_integrate, monkeypatch, *args)
            assert not isinstance(stock[0], type), stock
            _assert_same(stock, got)
            zeros += len(got[0].zero_crossings())
    # the grid exercises event location, not only plain stepping
    assert zeros > 0


@pytest.mark.parametrize("n, lam, a, rtol, atol, nan_step", [
    # steps far beyond the stability region drive |u| over the blow-up bound
    pytest.param(7, 1e8, 1.0, 100.0, 1e6, False, id="n7-blow-up"),
    pytest.param(5, 0.5, 1e28, DEFAULT_RTOL, DEFAULT_ATOL, False, id="n5-untrusted"),
    # the dense output of a step that passes error control is NaN
    pytest.param(7, 1e4, 1.0, 1e3, 1e9, True, id="nan-state"),
])
def test_float_stepper_fails_as_stock_dop853(
    monkeypatch, n, lam, a, rtol, atol, nan_step
):
    """The blow-up guard and an untrusted run without sign events end as
    they did on stock DOP853: the same profile, or the same error class,
    message and last radius.  Stock DOP853 accepts a step whose dense
    output is NaN and meets the NaN in brentq, at the step's start, while
    locating a sign change on it; the float stepper fails that step before
    accepting it, so it ends as integration-failed with that radius as its
    last radius."""
    args = (Params(n=n, lam=lam), a, 1.0, rtol, atol)
    stock = _outcome(_stock_integrate, *args)
    got = _outcome(_float_integrate, monkeypatch, *args)
    if nan_step:
        nan_at = re.fullmatch(
            r"integration failed: The function value at x=(\S+) is NaN; "
            r"solver cannot continue\.",
            stock[1],
        )
        assert nan_at, stock
        scale_r = ode._deviation(args[0], a, 1.0, atol).scale_r
        message = "integration failed: Dense output of the step is not finite."
        assert got == (IntegrationFailed, message, float(nan_at.group(1)) / scale_r)
    elif isinstance(stock[0], type):
        assert got == stock
    else:
        assert not got[0].events
        _assert_same(stock, got)


def test_one_solve_ivp_call_and_nfev_counts_rhs_calls(monkeypatch):
    """Each integrate makes one solve_ivp call, and the nfev it reports
    equals the calls of the deviation's float RHS, so the benchmark's RHS
    counter reads the real work."""
    results = []
    calls = 0
    stock_solve_ivp = ode.solve_ivp
    stock_deviation = ode._deviation

    def capture(*args, **kwargs):
        results.append(stock_solve_ivp(*args, **kwargs))
        return results[-1]

    def counted(*args):
        dev = stock_deviation(*args)

        def rhs(*state):
            nonlocal calls
            calls += 1
            return dev.rhs(*state)

        return dataclasses.replace(dev, rhs=rhs)

    monkeypatch.setattr(ode, "solve_ivp", capture)
    monkeypatch.setattr(ode, "_deviation", counted)
    for n, a in ((7, 2896.0889828723157), (7, 4.253137119342074e19), (5, 1e28)):
        results.clear()
        calls = 0
        profile = ode.integrate(Params(n=n, lam=2.0), a, 1.0)
        (result,) = results
        assert result.nfev == calls
        steps = len(profile.steps) - 1
        # 2 to start, 12 per attempted step, 3 per dense output
        rejected, rest = divmod(result.nfev - 2 - 15 * steps, 12)
        assert rejected >= 0 and rest == 0
