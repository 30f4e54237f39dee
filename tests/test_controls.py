"""Piecewise-linear control paths and their exact L2 geometry."""

import numpy as np
import pytest

from extremals.controls import (ControlPath, l2_distance, l2_pairing,
                                random_smooth_controls)
from extremals.errors import DimensionError, GridMismatchError


def tent(T=1.0):
    return ControlPath(T, np.array([[0.0], [1.0], [0.0]]))


def test_interpolation_and_clipping():
    u = ControlPath(1.0, np.array([[0.0, 2.0], [1.0, 0.0]]))
    np.testing.assert_allclose(u.at(0.25), [0.25, 1.5])
    np.testing.assert_allclose(u.at(-5.0), [0.0, 2.0])
    np.testing.assert_allclose(u.at(9.0), [1.0, 0.0])
    s = np.array([0.0, 0.5, 1.0])
    assert u.at(s).shape == (3, 2)


def test_l2_norm_of_tent_matches_hand_integral():
    # int_0^1 tent^2 = 1/3 for the unit tent, its squared distance to 0.
    assert l2_distance(tent(), ControlPath.zero(1.0, 2, 1)) == \
        pytest.approx(1.0 / np.sqrt(3.0))


def test_distance_ignores_refinement():
    coarse = tent()
    t = np.linspace(0.0, 1.0, 9)
    fine = ControlPath(1.0, (1.0 - np.abs(2.0 * t - 1.0))[:, None])
    assert l2_distance(coarse, fine) == pytest.approx(0.0, abs=1e-12)
    shifted = ControlPath(1.0, fine.values + 1.0)
    assert l2_distance(coarse, shifted) == pytest.approx(1.0)


def test_pairing_is_symmetric_bilinear():
    rng = np.random.default_rng(8)
    a, b, c = random_smooth_controls(rng, 1.0, 16, 2, count=3)
    assert l2_pairing(a, b) == pytest.approx(l2_pairing(b, a), rel=1e-14)
    ab = ControlPath(1.0, a.values + b.values)
    assert l2_pairing(ab, c) == pytest.approx(
        l2_pairing(a, c) + l2_pairing(b, c), rel=1e-12)


def test_sup_norm_and_lipschitz_quotient():
    u = ControlPath(1.0, np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]))
    assert u.sup_norm == pytest.approx(5.0)
    assert u.lipschitz_quotient == pytest.approx(10.0)


def test_constructors_validate():
    with pytest.raises(DimensionError):
        ControlPath(1.0, np.zeros((1, 2)))  # a single node is not a path
    with pytest.raises(DimensionError):
        ControlPath(0.0, np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        ControlPath(1.0, np.array([[0.0], [np.nan]]))
    z = ControlPath.zero(2.0, 5, 3)
    assert (z.N, z.m, z.h) == (5, 3, pytest.approx(0.4))


def test_union_grid_rejects_mismatches():
    with pytest.raises(GridMismatchError):
        l2_distance(tent(1.0), tent(2.0))
    a = ControlPath.zero(1.0, 4, 1)
    b = ControlPath.zero(1.0, 4, 2)
    with pytest.raises(GridMismatchError):
        l2_pairing(a, b)


def test_random_controls_are_reproducible_and_scaled():
    draws1 = random_smooth_controls(np.random.default_rng(42), 1.0, 16, 2,
                                    count=4)
    draws2 = random_smooth_controls(np.random.default_rng(42), 1.0, 16, 2,
                                    count=4)
    assert len(draws1) == 4
    for u, w in zip(draws1, draws2):
        assert (u.N, u.m) == (16, 2)
        np.testing.assert_array_equal(u.values, w.values)
    big = random_smooth_controls(np.random.default_rng(42), 1.0, 16, 2,
                                 count=4, amplitude=10.0)
    np.testing.assert_allclose(big[0].values, 10.0 * draws1[0].values,
                               rtol=1e-14)
