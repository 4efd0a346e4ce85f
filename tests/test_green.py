"""Dirichlet Green function of the unit ball: frozen values and identities."""

import numpy as np
import pytest

from bnball.green import (
    green_at_center,
    green_gradient_at_center,
    kappa,
    unit_source_green_at_center,
    unit_source_green_gradient_at_center,
)
from bnball.model import InvalidDimension, OutOfDomain

# kappa_7 = 1/(7*(2-7)*omega_7) with omega_7 = 16 pi^3 / 15, and
# G(1/2, 0) = kappa_7 * (2^5 - 1); both frozen from the closed forms.
KAPPA_7 = -0.00086388038660355775
G7_HALF = -0.026780291984710290


def green_two_point(n, x, y):
    """Oracle: the full two-point G(x,y) of the module docstring, for
    interior points x != y; green_at_center is its restriction to y = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2 = float((x - y) @ (x - y))
    refl = float(x @ x) * float(y @ y) + 1.0 - 2.0 * float(x @ y)
    p = -(n - 2.0) / 2.0
    return kappa(n) * (d2**p - refl**p)


def test_kappa_frozen():
    assert kappa(7) == pytest.approx(KAPPA_7, rel=1e-14)
    assert kappa(7) < 0.0


def test_kappa_rejects_low_dimension():
    with pytest.raises(InvalidDimension):
        kappa(2)


def test_center_value_frozen():
    assert green_at_center(7, 0.5) == pytest.approx(G7_HALF, rel=1e-14)
    assert green_at_center(7, 0.5) == pytest.approx(31.0 * kappa(7), rel=1e-15)


def test_center_value_negative_inside():
    for r in np.linspace(0.01, 0.99, 25):
        assert green_at_center(7, r) < 0.0


def test_center_domain_is_open():
    with pytest.raises(OutOfDomain):
        green_at_center(7, 0.0)
    with pytest.raises(OutOfDomain):
        green_at_center(7, 1.0)


def test_gradient_frozen_and_positive():
    g = green_gradient_at_center(7, 0.5)
    assert g == pytest.approx(kappa(7) * -320.0, rel=1e-14)
    for r in np.linspace(0.01, 0.99, 25):
        assert green_gradient_at_center(7, r) > 0.0


def test_gradient_matches_finite_differences():
    r = 0.5
    exact = green_gradient_at_center(7, r)

    def central(h):
        return (green_at_center(7, r + h) - green_at_center(7, r - h)) / (2.0 * h)

    d1, d2 = central(1e-4), central(1e-5)
    richardson = (100.0 * d2 - d1) / 99.0
    assert richardson == pytest.approx(exact, rel=1e-8)


def test_unit_source_is_n_times_kernel():
    assert unit_source_green_at_center(7, 0.3) == 7.0 * green_at_center(7, 0.3)
    assert unit_source_green_gradient_at_center(
        7, 0.3
    ) == 7.0 * green_gradient_at_center(7, 0.3)


def test_two_point_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(7)
        y = rng.standard_normal(7)
        x *= rng.uniform(0.1, 0.9) / np.linalg.norm(x)
        y *= rng.uniform(0.1, 0.9) / np.linalg.norm(y)
        assert green_two_point(7, x, y) == pytest.approx(
            green_two_point(7, y, x), rel=1e-12
        )


def test_two_point_reduces_to_center_kernel():
    x = np.zeros(7)
    x[0] = 0.5
    assert green_two_point(7, x, np.zeros(7)) == pytest.approx(G7_HALF, rel=1e-13)
    rng = np.random.default_rng(7)
    for r in np.linspace(0.05, 0.95, 19):
        x = rng.standard_normal(7)
        x *= r / np.linalg.norm(x)
        assert green_at_center(7, r) == pytest.approx(
            green_two_point(7, x, np.zeros(7)), rel=1e-13
        )


def test_two_point_vanishes_on_boundary():
    x = np.zeros(7)
    x[0] = 1.0
    y = np.full(7, 0.1)
    assert abs(green_two_point(7, x, y)) < 1e-12
