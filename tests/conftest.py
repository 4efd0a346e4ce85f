"""Shared fixtures: the n=7 reference sweep, k=1 solutions, and profile builders."""

import numpy as np
import pytest

from bnball.asymptotics import build_record, rate_law_report
from bnball.bubble import constants
from bnball.diagnostics import radial_norms
from bnball.model import Params
from bnball.ode import Event, RadialProfile
from bnball.shooting import continuation_sweep, solve_nodal

# Reference grid for every trend check; strictly decreasing by contract.
ACCEPTANCE_GRID = (4.0, 2.0, 1.0, 0.5, 0.25)

# One line per acceptance criterion, echoed after the run summary so the
# verdicts stay visible without -s.
ACCEPTANCE_LINES = []

# The five constants of the unit-height bubble, (c1, c2, c3, c_tilde, S^{n/2}),
# to 50 digits for n = 5..10: the one oracle the package's closed forms are
# checked against.  Generated with mpmath 1.3.0 by direct quadrature of the
# moments (not through the Beta function); the rows at 60 and 80 digits
# agree to 1e-50 relative:
#
#     import mpmath as mp
#
#     def row(n, dps):
#         mp.mp.dps = dps
#         K, h = mp.mpf(n * (n - 2)), mp.mpf(n - 2) / 2
#         def moment(p):
#             f = lambda s: (K / (K + s * s)) ** (h * p) * s ** (n - 1)
#             return mp.quad(f, [0, mp.sqrt(K), 10 * mp.sqrt(K), mp.inf])
#         om = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
#         c1, c2 = moment(1 + 2 / h), 2 * moment(2)
#         c_tilde = om * c2 ** (h / (n - 4)) / c1 ** (mp.mpf(2) / (n - 4))
#         return c1, c2, c1 * c1 / c2, c_tilde, om * moment(2 + 2 / h)
#
#     for n in range(5, 11):
#         lo, hi = row(n, 60), row(n, 80)
#         assert all(abs(a - b) <= mp.mpf(10) ** -50 * abs(b) for a, b in zip(lo, hi))
#         print(n, [mp.nstr(v, 50) for v in hi])
BUBBLE_FIELDS = ("c1", "c2", "c3", "c_tilde", "s_pow")
BUBBLE_MOMENTS = {
    5: (
        "174.28425057933375983306694299020798248748147673812",
        "1026.6189773558205114162181949816658220198616691158",
        "29.587413314951990667118516528486922160055849956023",
        "28.50139539937104369957252344221342874495474887897",
        "844.36026476273855969378096266908516763248563858624",
    ),
    6: (
        "2304.0",
        "4608.0",
        "1152.0",
        "62.01255336059964035095263013420279040445057713177",
        "7143.8461471410785684297429914601614545927064855799",
    ),
    7: (
        "36235.988671485148260724885785814904421544945038615",
        "31127.773853175976342723413955947579435196562814262",
        "42182.48568604366879206995618466494054290932889312",
        "167.62610369572509235738069000239482060998232261789",
        "64343.757902225116922030863403783182916799529882359",
    ),
    8: (
        "663552.0",
        "265420.8",
        "1658880.0",
        "466.1138097841998911303282590724512126518162211957",
        "615580.92546470843079156624415481575219027846598364",
    ),
    9: (
        "13892805.739633121351046307801354959185019036736997",
        "2685223.4338974963417442903892351809380739536676616",
        "71878581.455337774900933301492704765027926122686322",
        "1305.3605539083927374127056847681107497290325920429",
        "6227742.2361704249310013115982751680297986204788262",
    ),
    10: (
        "327680000.0",
        "31207619.047619047619047619047619047619047619047619",
        "3440640000.0",
        "3666.5580311616135692559778745152741526576810842745",
        "66320456.554524488495459704017878954716577338325322",
    ),
}


def worst_moment_gap(n, cst):
    """Largest relative gap of cst's five bubble constants from the pinned
    50-digit row for dimension n."""
    return max(
        abs(getattr(cst, name) - float(ref)) / float(ref)
        for name, ref in zip(BUBBLE_FIELDS, BUBBLE_MOMENTS[n])
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sweep7():
    """Accepted k=2 solutions on the n=7 grid (warm-started continuation)."""
    points = continuation_sweep(
        Params(n=7, lam=ACCEPTANCE_GRID[0]), list(ACCEPTANCE_GRID), k=2
    )
    failed = [(p.lam, p.error) for p in points if p.solution is None]
    assert not failed, f"sweep failed at {failed}"
    return points


@pytest.fixture(scope="session")
def records7(sweep7):
    return [build_record(p.solution) for p in sweep7]


@pytest.fixture(scope="session")
def report7(records7):
    return rate_law_report(records7, 7)


@pytest.fixture(scope="session")
def sol7_lam2(sweep7):
    """The accepted (n=7, lambda=2, k=2) solution."""
    return next(p.solution for p in sweep7 if p.lam == 2.0)


@pytest.fixture(scope="session")
def k1_solutions():
    """Positive (k=1) solutions at the two energy-level check points."""
    return {lam: solve_nodal(Params(n=7, lam=lam), 1) for lam in (2.0, 0.5)}


@pytest.fixture(scope="session")
def consts7():
    return constants(7)


def polynomial_profile(coeffs, n=7, lam=2.0, r0=1e-6, samples=65, events=(), a=None):
    """RadialProfile of a polynomial fixture on [r0, 1].

    coeffs are ascending powers.  The profile evaluates the polynomial
    itself, so quadrature identities on such fixtures are testable down to
    roundoff.
    """
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    knots = np.linspace(r0, 1.0, samples)
    return RadialProfile(
        params=Params(n=n, lam=lam),
        a=float(poly(0.0)) if a is None else a,
        knots=knots,
        values=poly(knots),
        derivs=dpoly(knots),
        events=list(events),
        r_end=1.0,
        dense=lambda r: (poly(r), dpoly(r)),
        steps=knots,
    )


def nodal_fixture(n=7, lam=2.0):
    """u(r) = (1-2r)(1-r): node at 1/2, interior minimum at 3/4, u(1)=0."""
    events = [
        Event(kind="zero-crossing", r=0.5, value=-1.0),
        Event(kind="derivative-zero", r=0.75, value=-0.125),
    ]
    return polynomial_profile((1.0, -3.0, 2.0), n=n, lam=lam, events=events)


def norm_invariance_check(profile, M):
    """Quadrature check of the inner rescaling's norm identities.

    Returns relative gaps for: gradient-norm equality, critical-norm
    equality, and the L2 scaling law |u|_2^2 = M^{-(2*-2)} |u~|_2^2.  Both
    sides are computed independently by radial quadrature.
    """
    scaled = profile.rescaled(M)
    base = radial_norms(profile, profile.params)
    img = radial_norms(scaled, scaled.params)

    def gap(lhs, rhs):
        scale = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / scale if scale else 0.0

    return (
        gap(base.grad_sq, img.grad_sq),
        gap(base.crit_pow, img.crit_pow),
        gap(base.l2_sq, M ** (-(profile.params.two_star - 2.0)) * img.l2_sq),
    )
