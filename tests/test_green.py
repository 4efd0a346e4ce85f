"""Dirichlet Green function of the unit ball: frozen values and identities."""

import numpy as np
import pytest

from bnball.bubble import omega_n
from bnball.green import (
    unit_source_green_at_center,
    unit_source_green_gradient_at_center,
)
from bnball.model import InvalidDimension, OutOfDomain

# kappa_7 = 1/(7*(2-7)*omega_7) with omega_7 = 16 pi^3 / 15, and
# G(1/2, 0) = kappa_7 * (2^5 - 1); both frozen from the closed forms.
KAPPA_7 = -0.00086388038660355775
G7_HALF = -0.026780291984710290


def kappa(n):
    """The surface-measure constant 1/(n(2-n)omega_n) of the oracle."""
    return 1.0 / (n * (2.0 - n) * omega_n(n))


def green_two_point(n, x, y):
    """Oracle: the two-point G(x,y) = kappa_n (|x-y|^{2-n} - (|x|^2|y|^2
    + 1 - 2 x.y)^{-(n-2)/2}) for interior points x != y; the unit-source
    kernel at the center is n times its restriction to y = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2 = float((x - y) @ (x - y))
    refl = float(x @ x) * float(y @ y) + 1.0 - 2.0 * float(x @ y)
    p = -(n - 2.0) / 2.0
    return kappa(n) * (d2**p - refl**p)


def test_oracle_kappa_frozen():
    assert kappa(7) == pytest.approx(KAPPA_7, rel=1e-14)


def test_low_dimension_rejected():
    with pytest.raises(InvalidDimension):
        unit_source_green_at_center(2, 0.5)
    with pytest.raises(InvalidDimension):
        unit_source_green_gradient_at_center(2, 0.5)


def test_center_value_frozen():
    g = unit_source_green_at_center(7, 0.5)
    assert g == pytest.approx(7.0 * G7_HALF, rel=1e-14)
    assert g == pytest.approx(7.0 * 31.0 * KAPPA_7, rel=1e-14)


def test_center_value_negative_inside():
    for r in np.linspace(0.01, 0.99, 25):
        assert unit_source_green_at_center(7, r) < 0.0


def test_center_domain_is_open():
    for fn in (unit_source_green_at_center, unit_source_green_gradient_at_center):
        with pytest.raises(OutOfDomain):
            fn(7, 0.0)
        with pytest.raises(OutOfDomain):
            fn(7, 1.0)


def test_gradient_frozen_and_positive():
    g = unit_source_green_gradient_at_center(7, 0.5)
    assert g == pytest.approx(7.0 * KAPPA_7 * -320.0, rel=1e-14)
    for r in np.linspace(0.01, 0.99, 25):
        assert unit_source_green_gradient_at_center(7, r) > 0.0


def test_gradient_matches_finite_differences():
    r = 0.5
    exact = unit_source_green_gradient_at_center(7, r)

    def central(h):
        return (
            unit_source_green_at_center(7, r + h)
            - unit_source_green_at_center(7, r - h)
        ) / (2.0 * h)

    d1, d2 = central(1e-4), central(1e-5)
    richardson = (100.0 * d2 - d1) / 99.0
    assert richardson == pytest.approx(exact, rel=1e-8)


def test_unit_source_is_n_times_kernel():
    """n kappa_n (r^{2-n} - 1) and its derivative, to the last bit."""
    k7, r = kappa(7), 0.3
    assert unit_source_green_at_center(7, r) == 7.0 * (k7 * (r**-5.0 - 1.0))
    assert unit_source_green_gradient_at_center(7, r) == 7.0 * (
        k7 * -5.0 * r**-6.0
    )


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
        assert unit_source_green_at_center(7, r) == pytest.approx(
            7.0 * green_two_point(7, x, np.zeros(7)), rel=1e-13
        )


def test_two_point_vanishes_on_boundary():
    x = np.zeros(7)
    x[0] = 1.0
    y = np.full(7, 0.1)
    assert abs(green_two_point(7, x, y)) < 1e-12
