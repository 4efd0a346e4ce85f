"""Node-targeted shooting for radial sign-changing solutions.

For the boundary-value problem on the unit ball, the free parameter is the
center amplitude a = u(0) > 0.  The zeros of the radial solution move
inward as a grows (for admissible lambda they lie beyond the ball at small
a, where the equation is essentially linear, and shrink toward the origin
in the blow-up regime).  The shooting proxy is the Pruefer angle of
(u(1), u'(1)) unwrapped by the zero count,

    P(a) = (Z - k) pi + atan2(s u(1), s u'(1)),    s = (-1)^Z,

where Z is the number of zeros in the ball.  P is continuous in a (when a
zero passes r=1, Z gains one and the angle drops from pi to 0), and is 0
exactly when the k-th zero sits on r=1, leaving k-1 interior zeros, i.e. a
solution with exactly k nodal regions; next to that root P is about
r_k - 1.  The amplitude spans tens of decades, so the search runs in
x = log a: a geometric bracket from the seed, then brentq.  P reproduces
only to a few rtol between integrations, so the search stops at the
first shot with |P| inside that noise floor and takes its amplitude as
the root; brentq's xtol = rtol is the backstop.  Each evaluation of P is
one ode.shoot, which returns Z and (u(1), u'(1)) without events or dense
output; only the converged amplitude is integrated in full.

Far from the root the search needs only the sign of P and a rough value
for brentq's interpolation, so shots there run at the coarse tolerance
max(rtol, 1e-5), which takes about 0.3 of the RHS evaluations of a
shot at rtol = 1e-10.  A
coarse P is used only while |P| > 1e-2, where a coarse shot moves P by
about 5e-5 at most; below that, or when the coarse shot fails, the same
amplitude is shot again at rtol.  From the first shot with |P| <= 5e-2
on, every shot runs at rtol, so the noise-floor stop, far below 1e-2,
only ever reads a full-rtol shot.
"""

from __future__ import annotations

import functools
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
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, RadialProfile, integrate, run_rtol, shoot

_A_MIN = 1e-3
# The k=2 amplitude at n=7 is already ~1e16 for lambda of order 1 and grows
# as lambda decreases; the ceiling must sit far above the sweep's range.
_A_MAX = 1e30
# Bound on |P| at the converged amplitude, i.e. on how far the k-th zero
# lies from r=1.
BOUNDARY_TOL = 1e-6
# The coarse tier of the search: shots run at max(rtol, _COARSE_RTOL) until
# one returns |P| <= _COARSE_END, and a coarse P is used only when |P| >
# _COARSE_TRUST.  Over 687 shots of 48 cold solves, a shot at 1e-5 moved P
# by at most 5.3e-5 wherever |P| > 1e-2, and never changed its sign.
_COARSE_RTOL = 1e-5
_COARSE_TRUST = 1e-2
_COARSE_END = 5e-2


def _pruefer(zeros: int, u1: float, du1: float, k: int) -> float:
    """The proxy P from the zero count and the end state (u(1), u'(1))."""
    s = -1.0 if zeros % 2 else 1.0
    # s*u(1) >= 0 up to roundoff; taking the angle mod 2 pi keeps P
    # continuous should the last zero sit on r=1 and be miscounted.
    angle = math.atan2(s * u1, s * du1) % (2.0 * math.pi)
    return (zeros - k) * math.pi + angle


class _RootFound(Exception):
    """Raised by the proxy at the first shot inside its noise floor."""

    def __init__(self, x: float):
        super().__init__(x)
        self.x = x


@dataclass(frozen=True)
class SignChangingSolution:
    """A converged k-nodal radial solution."""

    params: Params
    k: int
    a_star: float
    profile: RadialProfile
    features: NodalFeatures | None
    residuals: diagnostics.Residuals


def solve_nodal(
    params: Params,
    k: int,
    *,
    a_seed: float = 1.0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    boundary_tol: float = BOUNDARY_TOL,
    residual_tol: float = diagnostics.RESIDUAL_TOL,
) -> SignChangingSolution:
    """Find the amplitude whose radial solution has exactly k nodal regions.

    Bracket the root of the Pruefer proxy P in x = log a by steps from
    a_seed that double in length each time (up while P < 0, down while
    P > 0), within a in [1e-3, 1e30]; then refine with brentq.  The first
    shot, in either phase, with |P| <= min(3 rtol, min(boundary_tol,
    residual_tol) / 100) ends the search and its amplitude is a*; brentq
    stops at xtol = rtol should none do so.  Until some shot returns
    |P| <= 5e-2, each amplitude is shot first at max(rtol, 1e-5), and
    again at rtol when that shot fails or gives |P| <= 1e-2; every later
    shot runs at rtol, so a* is the amplitude of a shot at rtol.  An rtol
    below 100 eps is raised to 100 eps, the least that solve_ivp runs.
    The profile at a* is integrated once.  P read from that profile's
    zero crossings and (u(1), u'(1)) must satisfy |P| <= boundary_tol:
    next to the root P is about 1 - r_k, so this bounds how far the k-th
    zero lies from r=1.  A miss below pi/2 is integration error at the
    converged root and raises CertificationFailed; a miscounted pair of
    zeros (|P| about pi or 2 pi) or a NaN offset raises
    NonconvergentBisection.  The profile must also pass the Nehari /
    Pohozaev / energy-monotonicity certification, otherwise the solution
    is rejected.  lambda must lie in (0, lambda_1):
    lambda <= 0 raises NonpositiveLambda, lambda >= lambda_1 InvalidLambda.
    """
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

    # One rtol for the shots, the integration, the floor and xtol.
    rtol = run_rtol(rtol)
    # The proxy reproduces only to a few rtol, with a slope of a few
    # hundredths in log a, so shots closer to the root than that refine
    # noise.  The search ends at the first shot inside that floor; the cap
    # keeps the offset, which the certification residuals track at about
    # 5 |P|, two decades below the acceptance tolerances at loose rtol.
    floor = min(3.0 * rtol, min(boundary_tol, residual_tol) / 100.0)
    rtol_c = max(rtol, _COARSE_RTOL)
    coarse = rtol_c > rtol

    def shot(x: float, tol: float) -> float:
        nonlocal coarse
        p = _pruefer(*shoot(params, math.exp(x), rtol=tol, atol=atol), k)
        if abs(p) <= _COARSE_END:
            coarse = False
        return p

    # Cached on x alone, so brentq sees one function; it evaluates the
    # bracket ends once more.
    @functools.lru_cache(maxsize=None)
    def evaluate(x: float) -> float:
        if coarse:
            try:
                p = shot(x, rtol_c)
            except Error:
                pass  # the shot at rtol classifies the failure
            else:
                if abs(p) > _COARSE_TRUST:
                    return p
        return shot(x, rtol)

    def proxy(x: float) -> float:
        p = evaluate(x)
        if abs(p) <= floor:
            raise _RootFound(x)
        return p

    x_min, x_max = math.log(_A_MIN), math.log(_A_MAX)
    x = math.log(min(max(a_seed, _A_MIN), _A_MAX))
    try:
        p = proxy(x)
        step = math.log(2.0)
        while True:
            # P < 0: zero k lies beyond the ball (or is absent), so a is too
            # small.
            up = p < 0.0
            if x == (x_max if up else x_min):
                report = {
                    "n": params.n,
                    "lambda": params.lam,
                    "k": k,
                    "a_range_searched": [_A_MIN, _A_MAX],
                    "evaluations": evaluate.cache_info().misses,
                }
                if up:
                    raise NoBracketFound(
                        f"no amplitude up to {_A_MAX:g} pulls zero {k} inside "
                        f"the ball at lambda={params.lam:g}, n={params.n}",
                        report={**report, "gap_at_largest": p},
                    )
                raise NoBracketFound(
                    f"every amplitude down to {_A_MIN:g} already has zero {k} "
                    f"inside the ball at lambda={params.lam:g}, n={params.n}",
                    report=report,
                )
            x_next = min(x + step, x_max) if up else max(x - step, x_min)
            p_next = proxy(x_next)
            if (p_next < 0.0) != up:
                break
            x, p = x_next, p_next
            step *= 2.0

        # brentq's own tolerance is the backstop should no shot land inside
        # the floor.
        x_star, result = brentq(
            proxy, x, x_next, xtol=rtol, full_output=True, disp=False
        )
    except _RootFound as found:
        x_star = found.x
    else:
        if not result.converged:
            raise NonconvergentBisection(
                f"brentq did not converge on log a in [{min(x, x_next):.17g}, "
                f"{max(x, x_next):.17g}]: {result.flag}"
            )

    a_star = math.exp(x_star)
    # The shooting evaluations count zeros only at integrator steps; the
    # same proxy on the full profile rejects a miscounted double crossing.
    profile = integrate(params, a_star, 1.0, rtol=rtol, atol=atol)
    offset = _pruefer(len(profile.zero_crossings()), *profile.u_du(1.0), k)
    # written so that a NaN offset is rejected too
    if not abs(offset) <= boundary_tol:
        message = (
            f"converged amplitude {a_star:.17g} gives the profile a Pruefer "
            f"offset {offset:.3e} from zero {k} on r=1; wanted |offset| <= "
            f"{boundary_tol:g}"
        )
        # Short of a quarter turn, the profile is at the root the search
        # converged on and integration error moved its k-th zero; a
        # miscounted pair of zeros (|P| about pi or 2 pi) or a NaN offset
        # is a search defect.
        if abs(offset) < math.pi / 2.0:
            raise CertificationFailed(message)
        raise NonconvergentBisection(message)

    features = extract_features(profile, params) if k == 2 else None
    residuals = diagnostics.certify(
        profile, params, features=features, residual_tol=residual_tol
    )
    return SignChangingSolution(
        params=params,
        k=k,
        a_star=a_star,
        profile=profile,
        features=features,
        residuals=residuals,
    )


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
    **solve_options,
) -> list[SweepPoint]:
    """Solve at each lambda of a decreasing grid, warm-starting the bracket.

    The amplitude grows as lambda shrinks, so the seed for the next point is
    the geometric extrapolation of the previous two converged amplitudes;
    solve_nodal's log-space bracket then starts one factor of 2 from it.
    Only the dimension of params_base is used.  solve_options are passed
    to every solve_nodal call (rtol, atol, boundary_tol, residual_tol).
    Per-point failures are recorded and the sweep continues.
    """
    grid = [float(x) for x in lambda_grid]
    check_lambda_grid(grid)

    points: list[SweepPoint] = []
    seeds: list[float] = []
    for lam in grid:
        if len(seeds) >= 2:
            a_seed = seeds[-1] * (seeds[-1] / seeds[-2])
        elif seeds:
            a_seed = seeds[-1]
        else:
            a_seed = 1.0
        try:
            sol = solve_nodal(
                Params(n=params_base.n, lam=lam), k, a_seed=a_seed, **solve_options
            )
        except Error as exc:
            points.append(
                SweepPoint(lam=lam, solution=None, error=exc.code, detail=str(exc))
            )
            continue
        seeds.append(sol.a_star)
        points.append(SweepPoint(lam=lam, solution=sol, error=None))
    return points
