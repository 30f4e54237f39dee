"""Integration and the endpoint differential.

The kernel's forward/adjoint pair shares one set of quadrature weights, so
duality should hold to rounding, not to discretization. Several checks
below rely on systems whose flow is known in closed form.
"""

import numpy as np
import pytest

from extremals.controls import ControlPath, random_smooth_controls
from extremals.dynamics import (PSI_COND_FLAG, DifferentialKernel, adjoint_dE,
                                apply_dE, endpoint, gram_matrix, integrate,
                                integrate_batch, trapezoid_weights)
from extremals.errors import DivergenceError, GridMismatchError
from extremals.fields import parse_field_set
from extremals.lagrangian import parse_lagrangian
from extremals.shooting import _hamiltonian_flow

IDENTITY = parse_field_set("X1 = (1, 0)\nX2 = (0, 1)", 2, 2)
HEISENBERG = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
GRUSHIN = parse_field_set("X1 = (1, 0)\nX2 = (0, x1)", 2, 2)


def circle_control(N):
    t = np.linspace(0.0, 1.0, N + 1)
    return ControlPath(1.0, np.stack([np.cos(2 * np.pi * t),
                                      np.sin(2 * np.pi * t)], axis=-1))


def test_identity_flow_is_exact():
    u = ControlPath.constant(1.0, 8, [1.0, 0.0])
    traj = integrate(IDENTITY, u, np.zeros(2))
    np.testing.assert_allclose(traj.endpoint, [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(traj.states[:, 0], traj.times, atol=1e-14)
    assert len(traj.times) == 8 * 4 + 1


def test_heisenberg_circle_endpoint():
    # The unit circle control returns to the origin horizontally and lifts
    # by the enclosed area over 2, here 1/(4 pi). The sampled control only
    # approximates the circle, so accuracy improves with the grid.
    target = np.array([0.0, 0.0, 1.0 / (4.0 * np.pi)])
    err = []
    for N in (64, 256):
        e = endpoint(HEISENBERG, circle_control(N), np.zeros(3), substeps=8)
        err.append(float(np.linalg.norm(e - target)))
    assert err[0] < 2e-4
    assert err[1] < err[0] / 12.0  # roughly second order in the node count


def test_time_restriction_and_validation():
    u = ControlPath.constant(2.0, 10, [1.0, 0.0])
    half = integrate(IDENTITY, u, np.zeros(2), T=1.0)
    np.testing.assert_allclose(half.endpoint, [1.0, 0.0], atol=1e-14)
    with pytest.raises(Exception):
        integrate(IDENTITY, u, np.zeros(2), T=3.0)


def test_grushin_fundamental_solution_closed_form():
    # Constant control makes the variational coefficient constant, so
    # Psi(t) is the lower-triangular matrix exponential.
    u = ControlPath.constant(1.0, 16, [0.3, 0.8])
    kern = DifferentialKernel.build(GRUSHIN, u, np.zeros(2), substeps=4)
    psis = kern.psis
    assert np.linalg.cond(psis).max() < PSI_COND_FLAG
    for k in (0, len(kern.times) // 2, len(kern.times) - 1):
        t = kern.times[k]
        want = np.array([[1.0, 0.0], [0.8 * t, 1.0]])
        np.testing.assert_allclose(psis[k], want, atol=1e-12)


def test_trapezoid_weights_partition():
    times = np.linspace(0.0, 2.0, 33)
    w = trapezoid_weights(times)
    assert w.sum() == pytest.approx(2.0)
    assert w[0] == pytest.approx(w[-1]) == pytest.approx(2.0 / 32 / 2)


def test_identity_kernel_is_plain_quadrature():
    # For identity fields the kernel collapses to integrating v itself.
    rng = np.random.default_rng(0)
    v = random_smooth_controls(rng, 1.0, 32, 2, count=1)[0]
    u = ControlPath.zero(1.0, 32, 2)
    kern = DifferentialKernel.build(IDENTITY, u, np.zeros(2), 1.0, 4)
    got = kern.apply(v)
    vals = v.at(kern.times)
    want = trapezoid_weights(kern.times) @ vals
    np.testing.assert_allclose(got, want, atol=1e-13)
    lam = np.array([0.7, -0.2])
    adj = kern.adjoint(lam)
    np.testing.assert_allclose(adj.values, np.tile(lam, (len(kern.times), 1)),
                               atol=1e-13)
    np.testing.assert_allclose(kern.gram(), np.eye(2), atol=1e-12)


def test_duality_is_exact_not_approximate():
    rng = np.random.default_rng(4)
    u = random_smooth_controls(rng, 1.0, 24, 2, count=1)[0]
    kern = DifferentialKernel.build(HEISENBERG, u, np.zeros(3), 1.0, 4)
    w = trapezoid_weights(kern.times)
    for _ in range(10):
        lam = rng.standard_normal(3)
        v = random_smooth_controls(rng, 1.0, 24, 2, count=1)[0]
        forward = float(lam @ kern.apply(v))
        adj = kern.adjoint(lam).values
        backward = float(np.sum(w[:, None] * adj * v.at(kern.times)))
        assert forward == pytest.approx(backward, abs=1e-13)
    # A stack of directions maps to the stack of their images, bit for bit.
    stack = np.stack([v.at(kern.times) for v in random_smooth_controls(
        rng, 1.0, 24, 2, count=6)]).reshape(2, 3, len(kern.times), 2)
    images = kern.apply_values(stack)
    assert images.shape == (2, 3, 3)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(images[idx], kern.apply_values(stack[idx]))


def test_module_level_wrappers_agree():
    rng = np.random.default_rng(6)
    u, v = random_smooth_controls(rng, 1.0, 16, 2, count=2)
    kern = DifferentialKernel.build(HEISENBERG, u, np.zeros(3), 1.0, 4)
    np.testing.assert_allclose(apply_dE(HEISENBERG, u, np.zeros(3), v=v),
                               kern.apply(v), atol=1e-15)
    lam = np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(
        adjoint_dE(HEISENBERG, u, np.zeros(3), lam=lam).values,
        kern.adjoint(lam).values, atol=1e-15)
    np.testing.assert_allclose(gram_matrix(HEISENBERG, u, np.zeros(3)),
                               kern.gram(), atol=1e-15)


def test_probe_grid_mismatch_rejected():
    u = ControlPath.zero(1.0, 16, 2)
    # Directions defined on a shorter horizon cannot probe the full map.
    with pytest.raises(GridMismatchError):
        apply_dE(IDENTITY, u, np.zeros(2), v=ControlPath.zero(0.5, 16, 2))
    with pytest.raises(GridMismatchError):
        apply_dE(IDENTITY, u, np.zeros(2), v=ControlPath.zero(1.0, 16, 1))


def test_complex_step_through_the_integrator():
    # integrate_batch advertises complex safety; the imaginary part of a
    # complex-step endpoint must agree with the kernel's derivative.
    rng = np.random.default_rng(9)
    u, v = random_smooth_controls(rng, 1.0, 32, 2, count=2)
    tau = 1e-30
    ends = integrate_batch(HEISENBERG, u.values + 1j * tau * v.values[None],
                           np.zeros(3), 1.0, substeps=16)[-1]
    cs = ends[0].imag / tau
    analytic = apply_dE(HEISENBERG, u, np.zeros(3), v=v, substeps=16)
    assert np.linalg.norm(cs - analytic) / np.linalg.norm(analytic) < 1e-4


BLOWUP = parse_field_set("X1 = (x1^2)", 1, 1)


def test_finite_time_blowup_raises():
    # x' = x^2 from x = 1 blows up at s = 1; the guard trips one step of
    # h = 0.025 later.
    u = ControlPath.constant(1.2, 12, [1.0])
    with pytest.raises(DivergenceError) as info:
        integrate(BLOWUP, u, np.array([1.0]))
    assert info.value.time == 1.025


def test_fundamental_solution_blowup_raises():
    # X1 = (x1) from x = 0 keeps the state at 0 while Psi' = 30 Psi grows
    # by the RK4 factor 1 + z + z^2/2 + z^3/6 + z^4/24 per step, z = 30 h,
    # h = 1/48; the 45th step is the first past the guard.
    u = ControlPath.constant(1.0, 12, [30.0])
    with pytest.raises(DivergenceError) as info:
        DifferentialKernel.build(parse_field_set("X1 = (x1)", 1, 1), u,
                                 np.zeros(1))
    assert info.value.time == pytest.approx(45 / 48, rel=1e-12)


def test_stacked_flow_isolates_a_blowing_up_seed():
    # With L = u^2/2 the feedback is u = x^2 p and x^2 p is conserved, so
    # x' = (p0 x0^2) x^2: the seed p0 = 10 blows up at s = 1/10, where its
    # RK4 stages leave the guard; the others stay finite on [0, 1].
    L = parse_lagrangian("u1^2/2", 1, 1)
    p0 = np.array([[0.1], [10.0], [-0.5]])
    _, xs, ps, us, alive = _hamiltonian_flow(BLOWUP, L, np.ones(1), p0,
                                             1.0, 16)
    np.testing.assert_array_equal(alive, [True, False, True])
    for i in (0, 2):
        _, x1, p1, u1, alive1 = _hamiltonian_flow(BLOWUP, L, np.ones(1),
                                                  p0[i], 1.0, 16)
        assert alive1
        for got, want in ((xs, x1), (ps, p1), (us, u1)):
            np.testing.assert_allclose(got[:, i], want, rtol=0, atol=1e-12)


def test_feedback_newton_skips_a_dead_seed():
    # With the quartic cost the feedback needs the Newton loop. The seed
    # p0 = 30 blows up; once frozen, its stage residual sits at a roundoff
    # floor above tolerance, and it must not keep the batch iterating.
    def counted_flow(p0):
        L = parse_lagrangian("u1^2/2 + u1^4/4", 1, 1)
        grad_u = L.grad_u
        calls = []

        def counting(x, u):
            calls.append(1)
            return grad_u(x, u)

        L.grad_u = counting
        _, _, _, _, alive = _hamiltonian_flow(BLOWUP, L, np.ones(1),
                                              np.array(p0), 1.0, 16)
        return alive, len(calls)

    alive, calls = counted_flow([[0.1], [30.0], [-0.5]])
    np.testing.assert_array_equal(alive, [True, False, True])
    alive2, calls2 = counted_flow([[0.1], [-0.5]])
    np.testing.assert_array_equal(alive2, [True, True])
    assert calls <= 3 * calls2
