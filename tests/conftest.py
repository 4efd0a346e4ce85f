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
