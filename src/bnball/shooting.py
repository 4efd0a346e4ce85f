"""Node-targeted shooting for radial sign-changing solutions.

On the unit ball the free parameter is the center amplitude a = u(0) > 0,
and the zeros of the radial solution move inward as a grows.  Each
evaluation is one ode.shot, whose r_k is the radius of the k-th zero,
beyond the ball too; the search solves P(x) = -log r_k(e^x) = 0 in
x = log a.  By the scaling of the equation, a profile whose k-th zero sits
at r_k solves the ball problem at lambda r_k^2, so P is smooth in x and
about 1 - r_k next to the root.  Each shot records its steps out to r = 1;
the converged amplitude's profile is built from its shot's record, and is
accepted by its Pruefer offset (Z - k) pi + atan2(s u(1), s u'(1)), s =
(-1)^Z, over its Z zeros: 0 when zero k sits on r = 1, about 1 - r_k next
to it, and about pi or 2 pi off for a miscounted pair of zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from . import bubble, diagnostics
from .model import (
    CertificationFailed,
    ConfigError,
    Error,
    InvalidLambda,
    MissingInteriorZero,
    MissingMinimum,
    NodalFeatures,
    NonconvergentBisection,
    NoBracketFound,
    NonpositiveLambda,
    Params,
    check_lambda_grid,
)
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, RadialProfile, run_tolerances, shot
from .ode import integrate  # noqa: F401  (shooting.integrate, which perfbench traces, stays)

_A_MIN = 1e-3
# The k=2 amplitude at n=7 is already ~1e16 for lambda of order 1 and grows
# as lambda decreases; the ceiling must sit far above the sweep's range.
_A_MAX = 1e30
# Bound on the Pruefer offset of the converged profile, i.e. on how far the
# k-th zero lies from r=1.
BOUNDARY_TOL = 1e-6
# Cap on the search's noise floor: at loose rtol it keeps the offset, which
# the certification residuals track at about 5 |P|, two decades below
# BOUNDARY_TOL and diagnostics.RESIDUAL_TOL.
_FLOOR_CAP = 1e-8
# dP/dlog a = -d log r_k / d log a assumed for the first step from a cold
# seed; measured slopes run from 0.03 to 0.23 (0.042-0.047 near the k=2 a*
# of the n=7 reference sweep).  A warm sweep passes the slope its previous
# solve measured instead.
_SLOPE = 0.1
# An evaluation enters the measured slope only when its |P| exceeds the
# noise floor by this factor.
_SLOPE_FLOOR_FACTOR = 100.0


def _pruefer(zeros: int, u1: float, du1: float, k: int) -> float:
    """The Pruefer offset from the zero count and the end state (u(1), u'(1))."""
    s = -1.0 if zeros % 2 else 1.0
    # s*u(1) >= 0 up to roundoff; taking the angle mod 2 pi keeps the offset
    # continuous should the last zero sit on r=1 and be miscounted.
    angle = math.atan2(s * u1, s * du1) % (2.0 * math.pi)
    return (zeros - k) * math.pi + angle


class _RootFound(Exception):
    """Raised with x by the residual at the first x inside its noise floor."""


@dataclass(frozen=True)
class SignChangingSolution:
    """A converged k-nodal radial solution.

    slope is dP/dlog a near a*, the chord through the two shooting
    evaluations nearest a* whose |P| clears the noise floor a hundredfold;
    NaN when fewer than two do (or the solution was not shot).
    """

    params: Params
    k: int
    a_star: float
    profile: RadialProfile
    features: NodalFeatures | None
    residuals: diagnostics.Residuals
    slope: float = math.nan


def solve_nodal(
    params: Params,
    k: int,
    *,
    a_seed: float = 1.0,
    slope: float = _SLOPE,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> SignChangingSolution:
    """Find the amplitude whose radial solution has exactly k nodal regions.

    Bracket the root of P = -log r_k in x = log a from a_seed, within a in
    [1e-3, 1e30], up while P < 0 and down while P > 0.  The first step
    assumes dP/dx = slope (0.1 unless a warm sweep measured it), later
    ones follow the secant through the last two points, or double the last
    step while an end is infinite or the secant slope is not positive.
    Then refine with brentq at xtol = rtol.  The first evaluation with |P|
    <= min(3 rtol, 1e-8) ends the search, and its amplitude is a*.  Below
    the zero-trust floor of this atol P is -inf; a bracket end there is
    bisected inward, and NoBracketFound is raised once the bracket is
    narrower than rtol.  Every evaluation is one ode.shot at
    run_tolerances(rtol, atol); a tolerance it rejects is a ConfigError
    before any other check, and k < 1 the next.  The profile at a* is
    built from the steps its shot recorded out to r = 1 (Shot.profile),
    with no second run.  Its Pruefer offset must satisfy |offset| <=
    BOUNDARY_TOL (1e-6), which
    bounds how far the k-th zero lies from r=1: a miss below pi/2 is
    integration error and raises CertificationFailed, a larger or NaN one
    (a miscounted pair of zeros) NonconvergentBisection.  The profile must
    also pass the Nehari / Pohozaev / energy-monotonicity certification at
    its default tolerances.  lambda must lie in (0, lambda_1): lambda <= 0 raises
    NonpositiveLambda, lambda >= lambda_1 InvalidLambda.
    """
    # One rtol for the evaluations, the integration, the floor and xtol.
    rtol, atol = run_tolerances(rtol, atol)
    if k < 1:
        raise ConfigError(f"nodal-region count k must be >= 1, got {k}")
    lam1 = bubble.lambda_1(params.n)
    if params.lam <= 0.0:
        raise NonpositiveLambda(f"lambda must be positive, got {params.lam}")
    if params.lam >= lam1:
        raise InvalidLambda(
            f"lambda={params.lam} outside the admissible range (0, {lam1:.6g}) "
            f"for n={params.n}"
        )

    # P reproduces only to a few rtol, so closer evaluations refine noise.
    floor = min(3.0 * rtol, _FLOOR_CAP)

    # x -> P of the evaluations the measured slope may use
    above_floor = {}
    # x -> the shot at x = log a, made once per x, so brentq evaluates the
    # bracket ends without a shot.  They go to residual as an argument:
    # brentq's NaN guard holds residual in a reference cycle.
    shots = {}

    def residual(x: float, shots: dict) -> float:
        if x not in shots:
            shots[x] = shot(params, math.exp(x), k, rtol=rtol, atol=atol)
        p = -math.log(shots[x].r_k)
        if abs(p) <= floor:
            raise _RootFound(x)
        if _SLOPE_FLOOR_FACTOR * floor < abs(p) < math.inf:
            above_floor[x] = p
        return p

    x_min, x_max = math.log(_A_MIN), math.log(_A_MAX)
    x = math.log(min(max(a_seed, _A_MIN), _A_MAX))
    try:
        p = residual(x, shots)
        step = -p / slope if math.isfinite(p) else math.log(2.0)
        while True:
            # P < 0: zero k lies beyond the ball (or cannot be told from
            # noise), so a is too small.
            up = p < 0.0
            if x == (x_max if up else x_min):
                report = {
                    "n": params.n,
                    "lambda": params.lam,
                    "k": k,
                    "a_range_searched": [_A_MIN, _A_MAX],
                    "evaluations": len(shots),
                }
                if up:
                    message = f"no amplitude up to {_A_MAX:g} pulls zero {k}"
                    report["gap_at_largest"] = p if math.isfinite(p) else None
                else:
                    message = f"every amplitude down to {_A_MIN:g} already has zero {k}"
                raise NoBracketFound(
                    f"{message} inside the ball at lambda={params.lam:g}, n={params.n}",
                    report=report,
                )
            x_next = min(max(x + step, x_min), x_max)
            p_next = residual(x_next, shots)
            if (p_next < 0.0) != up:
                break
            slope = (p_next - p) / (x_next - x)
            if math.isfinite(slope) and slope > 0.0:
                step = -p_next / slope
            else:
                step = 2.0 * (x_next - x)
            x, p = x_next, p_next

        # Below the zero-trust floor P is -inf; bisect such an end inward.
        while not (math.isfinite(p) and math.isfinite(p_next)):
            if abs(x_next - x) < rtol:
                raise NoBracketFound(
                    f"zero {k} reaches r=1 only at the zero-trust floor near "
                    f"a={math.exp(x):.6g}, where atol={atol:g} stops the count "
                    f"of zeros (lambda={params.lam:g}, n={params.n})"
                )
            x_mid = 0.5 * (x + x_next)
            p_mid = residual(x_mid, shots)
            if (p_mid < 0.0) == (p < 0.0):
                x, p = x_mid, p_mid
            else:
                x_next, p_next = x_mid, p_mid

        # brentq's own tolerance is the backstop should no evaluation land
        # inside the floor.
        x_star, result = brentq(
            residual, x, x_next, args=(shots,), xtol=rtol, full_output=True, disp=False
        )
    except _RootFound as found:
        (x_star,) = found.args
    else:
        if not result.converged:
            raise NonconvergentBisection(
                f"brentq did not converge on log a in [{min(x, x_next):.17g}, "
                f"{max(x, x_next):.17g}]: {result.flag}"
            )

    a_star = math.exp(x_star)
    # The shooting evaluations count zeros only at integrator steps; the
    # Pruefer offset of the full profile rejects a miscounted double crossing.
    run = shots.pop(x_star)
    del shots  # the other amplitudes' shots, before the profile is built
    profile = run.profile()
    del run
    offset = _pruefer(len(profile.zero_crossings()), *profile.u_du(1.0), k)
    # written so that a NaN offset is rejected too
    if not abs(offset) <= BOUNDARY_TOL:
        message = (
            f"converged amplitude {a_star:.17g} gives the profile a Pruefer "
            f"offset {offset:.3e} from zero {k} on r=1; wanted |offset| <= "
            f"{BOUNDARY_TOL:g}"
        )
        # Short of a quarter turn, the profile is at the root the search
        # converged on and integration error moved its k-th zero; a
        # miscounted pair of zeros (about pi or 2 pi) or a NaN offset is a
        # search defect.
        if abs(offset) < math.pi / 2.0:
            raise CertificationFailed(message)
        raise NonconvergentBisection(message)

    features = extract_features(profile, params) if k == 2 else None
    residuals = diagnostics.certify(profile, params, features=features)
    return SignChangingSolution(
        params=params,
        k=k,
        a_star=a_star,
        profile=profile,
        features=features,
        residuals=residuals,
        slope=_chord_slope(above_floor, x_star),
    )


def _chord_slope(evaluations: dict[float, float], x_star: float) -> float:
    """dP/dx of the chord through the two evaluations x -> P nearest x_star;
    NaN with fewer than two."""
    nearest = sorted(evaluations.items(), key=lambda e: abs(e[0] - x_star))[:2]
    if len(nearest) < 2:
        return math.nan
    (x0, p0), (x1, p1) = nearest
    return (p1 - p0) / (x1 - x0)


def extract_features(profile: RadialProfile, params: Params) -> NodalFeatures:
    """Scalar features of a two-nodal-region profile.

    The node is the first zero crossing and the minimum point comes from
    the recorded events; the derivative at the boundary from the dense
    output.  Whether the profile has the right number of zeros is
    solve_nodal's check.
    """
    crossings = profile.zero_crossings()
    if not crossings:
        raise MissingInteriorZero("expected an interior zero-crossing, found none")
    node = crossings[0]
    r_lambda = node.r
    minima = [e for e in profile.derivative_zeros() if r_lambda < e.r < 1.0]
    if not minima:
        raise MissingMinimum(
            f"no critical point of u in ({r_lambda:g}, 1); cannot place s_lambda"
        )
    # The annulus minimum; accepted solutions carry exactly one candidate.
    s_event = min(minima, key=lambda e: e.value)
    m_plus = profile.a
    m_minus = -s_event.value
    beta = params.beta
    return NodalFeatures(
        r_lambda=r_lambda,
        s_lambda=s_event.r,
        m_plus=m_plus,
        m_minus=m_minus,
        du_node=node.value,
        du_boundary=float(profile.du(1.0)),
        sigma=m_plus**beta * r_lambda,
        rho=m_minus**beta * r_lambda,
        gamma=m_minus**beta * s_event.r,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One lambda of a continuation sweep: a solution or a recorded failure."""

    lam: float
    solution: SignChangingSolution | None
    error: str | None
    detail: str | None = None


def continuation_sweep(
    params_base: Params,
    lambda_grid: list[float],
    k: int = 2,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[SweepPoint]:
    """Solve at each lambda of a decreasing grid, warm-starting the bracket.

    The one sweep loop, which `bnball sweep` runs.  Each point calls
    solve_nodal with the seed and first-step slope _warm_start takes from
    the points solved before it, along the branch tangent: the first point
    starts cold at a = 1.  Only the dimension of params_base is used.
    Every solve runs at rtol and atol.  Per-point failures are recorded
    and the sweep continues; a ConfigError is raised: a tolerance that is
    not positive and finite, or a grid that check_lambda_grid refuses (not
    finite, not positive or not strictly decreasing), before any solve,
    and k < 1.
    """
    rtol, atol = run_tolerances(rtol, atol)
    grid = [float(x) for x in lambda_grid]
    check_lambda_grid(grid)

    points: list[SweepPoint] = []
    solved: list[tuple[float, float, float]] = []  # (log lambda, a*, slope)
    for lam in grid:
        a_seed, slope = _warm_start(solved, math.log(lam), params_base.beta)
        try:
            sol = solve_nodal(
                Params(n=params_base.n, lam=lam), k, a_seed=a_seed, slope=slope,
                rtol=rtol, atol=atol,
            )
        except ConfigError:
            raise
        except Error as exc:
            points.append(
                SweepPoint(lam=lam, solution=None, error=exc.code, detail=str(exc))
            )
            continue
        solved.append((math.log(lam), sol.a_star, sol.slope))
        points.append(SweepPoint(lam=lam, solution=sol, error=None))
    return points


def _warm_start(
    solved: list[tuple[float, float, float]], t: float, beta: float
) -> tuple[float, float]:
    """Seed amplitude and first-step slope dP/dx at t = log lambda, from the
    (log lambda, a*, slope) of the points solved before it.

    By the scaling identity (a zero at r_k solves the ball problem at
    lambda r_k^2, with amplitude a r_k^(1/beta)), the branch x*(t) = log a*
    has the tangent x' = -(1 - m/beta) / (2m), m = dP/dx at a*.  The seed
    is x_i + x' dt + x'' dt^2 / 2 from the last solved point i, dt = t -
    t_i, where m is the last positive measured slope (_SLOPE before any)
    and x'' the difference quotient of x' over the last two points that
    measured one (0 with fewer); m is also the first-step slope.  The
    first point starts at a = 1.
    """
    if not solved:
        return 1.0, _SLOPE

    def tangent(m):
        return -(1.0 - m / beta) / (2.0 * m)

    measured = [(t_j, m_j) for t_j, _, m_j in solved if m_j > 0.0]
    m = measured[-1][1] if measured else _SLOPE
    curvature = 0.0
    if len(measured) >= 2:
        (t_h, m_h), (t_j, m_j) = measured[-2:]
        curvature = (tangent(m_j) - tangent(m_h)) / (t_j - t_h)
    t_i, a_i, _ = solved[-1]
    dt = t - t_i
    x = math.log(a_i) + tangent(m) * dt + 0.5 * curvature * dt * dt
    # the search's own clamp, before exp can overflow
    x = min(max(x, math.log(_A_MIN)), math.log(_A_MAX))
    return math.exp(x), m
