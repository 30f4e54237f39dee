"""Each benchmark check passes on a correct input and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py

The correct inputs are closed-form: Heisenberg circles of winding k, whose
cost is k/2 and speed sqrt(k), and the control (1, s), whose Heisenberg
trajectory is (s, s^2/2, s^3/12) and is integrated exactly by RK4.
"""

import math

import numpy as np

import checks

T = 1.0


def circle(k, N=64):
    s = np.linspace(0.0, T, N + 1)
    return math.sqrt(k) * np.stack([np.cos(2 * math.pi * k * s),
                                    np.sin(2 * math.pi * k * s)], axis=1)


def ramp(N=16):
    s = np.linspace(0.0, T, N + 1)
    return np.stack([np.ones_like(s), s], axis=1)


def test_level():
    assert checks.check_level(1.0 + 1e-9)[0]
    assert checks.check_level(0.5)[0]
    assert not checks.check_level(0.73)[0]
    assert not checks.check_level(0.5 + 1e-4)[0]


def test_constant_speed():
    assert checks.check_constant_speed(circle(2), 1.0)[0]
    wrong = circle(2)
    wrong[10] *= 1.01
    assert not checks.check_constant_speed(wrong, 1.0)[0]
    assert not checks.check_constant_speed(circle(2), 0.5)[0]


def test_residuals():
    good = {"endpoint_gap": 1e-10, "hamiltonian_drift": 1e-9}
    assert checks.check_residuals(good, 1e-8)[0]
    assert not checks.check_residuals({**good, "endpoint_gap": 1e-7}, 1e-8)[0]
    assert not checks.check_residuals({**good, "hamiltonian_drift": 1e-5}, 1e-8)[0]


def test_same_level():
    assert checks.check_same_level(0.5 + 3e-10, 0.5 + 1e-11)[0]
    assert not checks.check_same_level(0.5, 1.0)[0]
    assert not checks.check_same_level(0.5, 0.51)[0]


def test_certificate():
    assert checks.check_certificate(True, 1.02)[0]
    assert not checks.check_certificate(True, 1.2)[0]
    assert not checks.check_certificate(False, 1.0)[0]


def test_heisenberg_endpoint_is_exact_on_the_ramp():
    end = checks.heisenberg_endpoint(ramp(), T, T, substeps=4)
    assert np.allclose(end, [1.0, 0.5, 1.0 / 12.0], atol=1e-14)


def test_round_trip():
    beta = [1.0, 0.5, 1.0 / 12.0]
    assert checks.check_round_trip(ramp(), T, T, 4, beta)[0]
    bent = ramp()
    bent[8, 1] += 1e-3
    assert not checks.check_round_trip(bent, T, T, 4, beta)[0]
    assert not checks.check_round_trip(ramp(), T, 0.99, 4, beta)[0]


def test_k_time():
    q = checks.lipschitz_quotient(ramp(), T)
    assert math.isclose(q, 1.0)
    assert checks.check_k_time(ramp(), T, 1.0)[0]
    assert not checks.check_k_time(ramp(), T, 0.9)[0]


def test_sample_path():
    values = ramp(4)
    s = np.array([0.0, 0.125, 0.6, 1.0])
    assert np.allclose(checks.sample_path(values, T, s)[:, 1], s)
