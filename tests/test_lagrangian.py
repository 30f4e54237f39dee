"""Running costs: derivatives, the fiber-derivative inverse, functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extremals.errors import (DiffeomorphismViolationError, DimensionError,
                              ParseError)
from extremals.expr import CompiledVector
from extremals.fields import parse_field_set
from extremals.lagrangian import (_affine_solve, _damped_newton,
                                  _folded_stage, _two_call_stage,
                                  legendre_inverse, parse_lagrangian,
                                  phi_from_samples, trapezoid)
from extremals.scenario import (resolve_scenario, scenario_fields,
                                scenario_lagrangian)
from extremals.shooting import _hamiltonian_flow, multi_start

from oracles import bisect_root

HEISENBERG = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
# Every entry of B and of both Jacobians is non-zero: three-term sums.
DENSE = parse_field_set("X1 = (1 + x1*x2*x3, sin(x1 + x2 + x3), x1^2 + x2*x3)\n"
                        "X2 = (x2 + cos(x1 - x3), x1*x2 - x3, "
                        "exp((x1 + x2 + x3)/3))", 3, 2)


def quadratic(n=2, m=2):
    return parse_lagrangian("(u1^2 + u2^2)/2", n, m)


def fiber_coefficients(L, x):
    """(g0, H) with d_uL(x, u) = g0(x) + H(x) u, for a cost affine in u."""
    zero = np.zeros(L.m)
    return L.grad_u(x, zero), L.hess_u(x, zero)


def test_value_and_derivatives_match_hand_formulas():
    L = parse_lagrangian("(u1^2 + u2^2)/2 + x1*u1 + x2^2", 2, 2)
    x = np.array([0.5, -1.0])
    u = np.array([2.0, 3.0])
    assert L.value(x, u) == pytest.approx(6.5 + 1.0 + 1.0)
    np.testing.assert_allclose(L.grad_x(x, u), [2.0, -2.0], atol=1e-15)
    np.testing.assert_allclose(L.grad_u(x, u), [2.5, 3.0], atol=1e-15)
    np.testing.assert_allclose(L.hess_u(x, u), np.eye(2), atol=1e-15)


def test_batched_evaluation():
    L = quadratic()
    x = np.zeros((5, 2))
    u = np.tile([1.0, 2.0], (5, 1))
    assert L.value(x, u).shape == (5,)
    np.testing.assert_allclose(L.value(x, u), 2.5)


def test_state_broadcasts_against_a_control_stack():
    # One x of shape (n,) against u of shape (B, m) is packed into one
    # (B, n + m) array: the same values as x repeated per row.
    L = parse_lagrangian("(u1^2 + u2^2)/2 + x1*u1 + x2^2*u2", 2, 2)
    x = np.array([0.5, -1.5])
    u = np.random.default_rng(2).normal(size=(6, 2))
    rows = np.tile(x, (6, 1))
    for fn in (L.value, L.grad_u, L.grad_x):
        np.testing.assert_array_equal(fn(x, u), fn(rows, u))
    np.testing.assert_array_equal(L.grad_u(x, u), u + [[0.5, 2.25]])
    with pytest.raises(DimensionError):
        L.value(np.zeros(3), u)


def test_nonsmooth_cost_evaluates_but_will_not_differentiate():
    L = parse_lagrangian("(x1^2 - 1)^2 + abs(u1^2 - 1)", 1, 1)
    assert L.value([0.0], [0.0]) == pytest.approx(2.0)
    with pytest.raises(ParseError):
        L.grad_u([0.0], [0.0])


def test_legendre_inverse_quadratic_is_identity():
    L = quadratic()
    rng = np.random.default_rng(12)
    z = rng.standard_normal((6, 2))
    u = legendre_inverse(L, np.zeros((6, 2)), z)
    np.testing.assert_allclose(u, z, atol=1e-12)


def test_legendre_inverse_quartic_against_bisection():
    # d_uL = 2u + u^3 for this cost; invert at z = 2 and compare with a
    # bracketing root finder that shares no code with the Newton path.
    L = parse_lagrangian("u1^2 + u1^4/4", 1, 1)
    root = bisect_root(lambda v: 2.0 * v + v ** 3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(0.7709169970592481, abs=1e-12)
    u = legendre_inverse(L, np.zeros(1), np.array([2.0]))
    assert float(u[0]) == pytest.approx(root, abs=1e-10)


def test_a_stalled_line_search_fails_the_feedback():
    # d_uL = u^3 - u has a vanishing Hessian at 1/sqrt(3). A Newton started
    # 1e-9 beside it steps about 2.6e8 away, and every halving down to
    # 2^-19 of that step raises the residual: the element fails at its
    # iterate instead of taking an untried 2^-20 step.
    L = parse_lagrangian("u1^4/4 - u1^2/2", 1, 1)
    u0 = np.array([1.0 / np.sqrt(3.0) + 1e-9])
    u, ok = _damped_newton(L, np.zeros((1, 1)), np.array([[0.5]]), u0[None])
    assert not ok[0]
    np.testing.assert_array_equal(u[0], u0)
    with pytest.raises(DiffeomorphismViolationError):
        legendre_inverse(L, np.zeros(1), np.array([0.5]), u0=u0)


def test_legendre_inverse_needs_a_convex_fiber():
    L = parse_lagrangian("u1", 1, 1)  # d_uL is constant, not invertible
    assert L.fiber_affine()
    with pytest.raises(DiffeomorphismViolationError):
        legendre_inverse(L, np.zeros(1), np.array([2.0]))


@pytest.mark.parametrize("text, affine", [
    ("(u1^2+u2^2)/2", True),
    ("(u1^2+u2^2)/2 + x1*u1 + x2^2", True),
    ("(1 + x1^2)*(u1^2+u2^2)/2", True),
    ("u1^2 + u1^4/4", False),
])
def test_fiber_affinity_is_read_off_the_expression(text, affine):
    assert parse_lagrangian(text, 2, 2).fiber_affine() is affine


def test_nonsmooth_cost_is_only_differentiated_for_feedback():
    L = scenario_lagrangian(resolve_scenario("gl"))
    assert L.value([0.0], [0.0]) == pytest.approx(2.0)
    with pytest.raises(ParseError):
        L.fiber_affine()
    with pytest.raises(ParseError):
        legendre_inverse(L, np.zeros(1), np.array([1.0]))


def test_closed_form_feedback_matches_the_newton():
    L = parse_lagrangian("(1 + x1^2)*(u1^2 + u1*u2 + u2^2)/2 + x2*u1 + x1^2",
                         2, 2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    z = 2.0 * rng.standard_normal((40, 2))
    u0 = np.zeros((40, 2))
    u, ok = _affine_solve(*fiber_coefficients(L, x), z, u0)
    u_newton, ok_newton = _damped_newton(L, x, z, u0)
    assert ok.all() and ok_newton.all()
    np.testing.assert_allclose(u, u_newton, rtol=0, atol=1e-12)
    np.testing.assert_allclose(legendre_inverse(L, x, z), u, rtol=0, atol=0)


coefficient = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: f"({v:.6f})")


@settings(max_examples=15, deadline=None)
@given(a=st.lists(coefficient, min_size=3, max_size=3),
       g=st.lists(coefficient, min_size=4, max_size=4),
       k=st.floats(0.0, 2.0).map(lambda v: f"{v:.6f}"),
       seed=st.integers(0, 2 ** 16))
def test_closed_form_agrees_with_newton_on_random_quadratics(a, g, k, seed):
    # H(x) = (1 + k x1^2) (A A^T + I) with A lower triangular, which keeps
    # every control Hessian symmetric positive definite.
    s11 = f"(1 + {a[0]}^2)"
    s12 = f"{a[0]}*{a[1]}"
    s22 = f"(1 + {a[1]}^2 + {a[2]}^2)"
    text = (f"(1 + {k}*x1^2)*({s11}*u1^2 + 2*{s12}*u1*u2 + {s22}*u2^2)/2"
            f" + ({g[0]} + {g[1]}*x2)*u1 + ({g[2]} + {g[3]}*x1*x2)*u2"
            " + x1^2")
    L = parse_lagrangian(text, 2, 2)
    assert L.fiber_affine()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (8, 2))
    z = rng.uniform(-3.0, 3.0, (8, 2))
    u0 = np.zeros((8, 2))
    u, ok = _affine_solve(*fiber_coefficients(L, x), z, u0)
    u_newton, ok_newton = _damped_newton(L, x, z, u0)
    assert ok.all() and ok_newton.all()
    np.testing.assert_allclose(u, u_newton, rtol=0, atol=1e-12)


def test_a_non_finite_momentum_fails_without_spreading_nan():
    # A non-finite component of z - g0 fails its element, and enters u only
    # through the entries of H^-1 that multiply it: the LU substitutions
    # turned (1, -inf) into (nan, -inf). The other elements keep their bits.
    L = parse_lagrangian("((1 + x1^2)*u1^2 + u1*u2 + 2*u2^2)/2", 1, 2)
    x = np.array([[0.0], [1.0], [0.5], [2.0]])
    z = np.array([[1.0, -np.inf], [2.0, 3.0], [np.inf, 1.0], [np.nan, 1.0]])
    g0, H = fiber_coefficients(L, x)
    u, ok = _affine_solve(g0, H, z, np.zeros((4, 2)))
    np.testing.assert_array_equal(ok, [False, True, False, False])
    H_inv = np.linalg.inv(H)
    with np.errstate(invalid="ignore"):
        for i in (0, 2, 3):
            bad = ~np.isfinite(z[i])
            want = H_inv[i][:, ~bad] @ z[i][~bad] + H_inv[i][:, bad] @ z[i][bad]
            np.testing.assert_allclose(u[i], want, rtol=1e-15)
    u1, ok1 = _affine_solve(g0[1:2], H[1:2], z[1:2], np.zeros((1, 2)))
    np.testing.assert_array_equal(u[1:2], u1)
    # H = I: the finite part is z itself.
    u, ok = _affine_solve(np.zeros(2), np.eye(2), np.array([1.0, -np.inf]),
                          np.zeros(2))
    assert not ok
    np.testing.assert_array_equal(u, [1.0, -np.inf])


def test_singular_fiber_fails_elementwise():
    # d2_uL = x1 vanishes at x1 = 0 only: that element fails, the others
    # are solved exactly.
    L = parse_lagrangian("x1*u1^2/2", 1, 1)
    assert L.fiber_affine()
    x = np.array([[1.0], [0.0], [2.0]])
    u, ok = _affine_solve(*fiber_coefficients(L, x), np.ones((3, 1)),
                          np.zeros((3, 1)))
    np.testing.assert_array_equal(ok, [True, False, True])
    np.testing.assert_allclose(u, [[1.0], [0.0], [0.5]], rtol=0, atol=1e-15)


def test_singular_fiber_leaves_the_regular_solves_untouched():
    # H = [[x1, x2], [x2, 1]] is singular where x1 = x2^2; every other
    # element gets the bits of its own solve, a singular one keeps u0.
    L = parse_lagrangian("(x1*u1^2 + 2*x2*u1*u2 + u2^2)/2 + x2*u2", 2, 2)
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.uniform(2.0, 3.0, 12), rng.uniform(-1.0, 1.0, 12)])
    x[[2, 7]] = [[0.25, 0.5], [1.0, -1.0]]
    z = rng.standard_normal((12, 2))
    u0 = rng.standard_normal((12, 2))
    u, ok = _affine_solve(*fiber_coefficients(L, x), z, u0)
    np.testing.assert_array_equal(ok, ~np.isin(np.arange(12), [2, 7]))
    for i in range(12):
        if ok[i]:
            H = np.array([[x[i, 0], x[i, 1]], [x[i, 1], 1.0]])
            want = np.linalg.solve(H, z[i] - [0.0, x[i, 1]])
            np.testing.assert_array_equal(u[i], want)
        else:
            np.testing.assert_array_equal(u[i], u0[i])


def test_singular_hessian_fails_only_its_own_newton():
    # d2_uL = x1 + 3 u1^2 vanishes at x1 = 0, u1 = 0, where the Newton
    # starts: that element fails, and each other one ends as it would alone.
    L = parse_lagrangian("x1*u1^2/2 + u1^4/4", 1, 1)
    assert not L.fiber_affine()
    x = np.array([[1.0], [0.0], [2.0]])
    z = np.array([[1.0], [1.0], [-3.0]])
    u, ok = _damped_newton(L, x, z, np.zeros((3, 1)))
    np.testing.assert_array_equal(ok, [True, False, True])
    for i in range(3):
        u_i, ok_i = _damped_newton(L, x[i:i + 1], z[i:i + 1], np.zeros((1, 1)))
        np.testing.assert_array_equal(u[i:i + 1], u_i)
        assert ok_i[0] == ok[i]


def test_feedback_solves_at_large_momenta():
    # The roundoff of d_uL(x, u) - z grows with |z|; an absolute tolerance
    # flags correct solves at |z| = 1e6 as failed.
    L = parse_lagrangian("(3*u1^2 + u1*u2 + 2*u2^2)/2 + x1*u1", 2, 2)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((200, 2))
    z = rng.standard_normal((200, 2))
    z *= 1e6 / np.linalg.norm(z, axis=-1, keepdims=True)
    u0 = np.zeros((200, 2))
    for name, (u, ok) in (
            ("closed form", _affine_solve(*fiber_coefficients(L, x), z, u0)),
            ("newton", _damped_newton(L, x, z, u0))):
        assert ok.all(), f"{name}: {np.count_nonzero(~ok)} flagged"
        np.testing.assert_allclose(L.grad_u(x, u), z, rtol=0, atol=1e-9 * 1e6)


SMOOTH_BUILT_INS = [(scenario_fields(sc), scenario_lagrangian(sc))
                    for sc in map(resolve_scenario, ("heisenberg", "grushin",
                                                     "martinet", "identity"))]
# Stacked (x, p, u) rows: uniform floats, whose sums round differently in
# another order, with a pattern of exact zeros of either sign and units,
# which exercise the zero and unit entries the generated stage drops. Code
# 0 in the pattern keeps the uniform float, code k > 0 puts SPECIAL[k - 1].
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0])
stage_point = st.builds(
    lambda seed, code: np.where(code > 0, SPECIAL[code - 1],
                                np.random.default_rng(seed).uniform(
                                    -10.0, 10.0, code.shape)),
    st.integers(0, 2 ** 32 - 1),
    arrays(np.int64, (3, 4, 3), elements=st.integers(0, len(SPECIAL))))


def _per_expression_stage(F, L, x, p, u):
    """z, xi' and p' from the field and cost evaluators and four einsums."""
    B = F.field_matrix(x)
    A = np.einsum("...i,...ijk->...jk", u, F.jacobian_stack(x))
    return (np.einsum("...nm,...n->...m", B, p),
            np.einsum("...nm,...m->...n", B, u),
            -np.einsum("...jk,...j->...k", A, p) + L.grad_x(x, u))


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _check_stage(F, L, point):
    # The two-call stage, which a flow takes unless the cost's control
    # Hessian is a constant (the built-ins' is: see the folded stage below).
    x, p, u = point[0, :, :F.n], point[1, :, :F.n], point[2, :, :F.m]
    pre, post = _two_call_stage(F, L)
    head = pre(np.concatenate((x, p), axis=-1))
    tail = post(np.concatenate((x, p, u), axis=-1))
    z, x_rate, p_rate = _per_expression_stage(F, L, x, p, u)
    _assert_same_bits(head[:, :F.m], z)
    _assert_same_bits(tail[:, :F.n], x_rate)
    _assert_same_bits(tail[:, F.n:], p_rate)
    if L.fiber_affine():
        g0, H = fiber_coefficients(L, x)
        _assert_same_bits(head[:, F.m:2 * F.m], g0)
        _assert_same_bits(head[:, 2 * F.m:].reshape(H.shape), H)
    else:
        assert head.shape == z.shape


@settings(max_examples=40, deadline=None)
@given(point=stage_point)
def test_flow_stage_is_the_per_expression_path_on_the_built_ins(point):
    for F, L in SMOOTH_BUILT_INS:
        _check_stage(F, L, point)


@settings(max_examples=25, deadline=None)
@given(point=stage_point,
       a=st.lists(coefficient, min_size=3, max_size=3),
       g=st.lists(coefficient, min_size=4, max_size=4))
def test_flow_stage_is_the_per_expression_path_on_random_quadratics(point, a,
                                                                     g):
    text = (f"(1 + x1^2)*((1 + {a[0]}^2)*u1^2 + 2*{a[0]}*{a[1]}*u1*u2"
            f" + (1 + {a[1]}^2 + {a[2]}^2)*u2^2)/2 + ({g[0]} + {g[1]}*x2)*u1"
            f" + ({g[2]} + {g[3]}*x1*x3)*u2 + sin(x3)*u2 + x1^2*x2")
    L = parse_lagrangian(text, 3, 2)
    assert L.fiber_affine()
    for F in (HEISENBERG, SMOOTH_BUILT_INS[2][0], DENSE):
        _check_stage(F, L, point)


@settings(max_examples=25, deadline=None)
@given(point=stage_point)
def test_flow_stage_of_a_quartic_cost_returns_only_z(point):
    L = parse_lagrangian("(u1^2 + u2^2)/2 + u1^4/4 + x2*u2^3", 3, 2)
    assert not L.fiber_affine()
    for F in (HEISENBERG, DENSE):
        _check_stage(F, L, point)


def _solved_between_two_calls(F, L, y):
    """u*, its flag and (xi', p') through pre, the closed-form solve, post."""
    pre, post = _two_call_stage(F, L)
    head = pre(y)
    m = F.m
    H = head[..., 2 * m:]
    u, ok = _affine_solve(head[..., m:2 * m], H.reshape(H.shape[:-1] + (m, m)),
                          head[..., :m], np.zeros(y.shape[:-1] + (m,)))
    return u, ok, post(np.concatenate((y, u), axis=-1))


@settings(max_examples=40, deadline=None)
@given(point=stage_point)
def test_folded_stage_is_the_solve_between_two_calls_on_the_built_ins(point):
    # H = I and g0 = 0: the folded stage's u* is z itself, which is the
    # solve's u to the bit, and xi', p' are post's at that u.
    for F, L in SMOOTH_BUILT_INS:
        fold = _folded_stage(F, L)
        assert isinstance(fold, CompiledVector)
        y = np.concatenate((point[0, :, :F.n], point[1, :, :F.n]), axis=-1)
        u, ok, rates = _solved_between_two_calls(F, L, y)
        assert ok.all()
        out = fold(y)
        _assert_same_bits(out[:, :F.m], u)
        _assert_same_bits(out[:, F.m:], rates)


@settings(max_examples=25, deadline=None)
@given(point=stage_point,
       a=st.lists(coefficient, min_size=3, max_size=3),
       g=st.lists(coefficient, min_size=4, max_size=4))
def test_folded_stage_matches_the_solve_on_random_constant_hessians(point, a,
                                                                     g):
    # A constant SPD H = I + R R^T, R = [[a0, 0], [a1, a2]], and g0(x) != 0:
    # H^-1 is applied as constants, the solve factors H, so the two agree
    # to roundoff.
    text = (f"((1 + {a[0]}^2)*u1^2 + 2*{a[0]}*{a[1]}*u1*u2"
            f" + (1 + {a[1]}^2 + {a[2]}^2)*u2^2)/2 + ({g[0]} + {g[1]}*x2)*u1"
            f" + ({g[2]} + {g[3]}*x1*x3)*u2 + sin(x3)*u2 + x1^2*x2")
    L = parse_lagrangian(text, 3, 2)
    for F in (HEISENBERG, SMOOTH_BUILT_INS[2][0], DENSE):
        fold = _folded_stage(F, L)
        assert isinstance(fold, CompiledVector)
        y = np.concatenate((point[0], point[1]), axis=-1)
        u, ok, rates = _solved_between_two_calls(F, L, y)
        assert ok.all()
        out = fold(y)
        for got, want in ((out[:, :2], u), (out[:, 2:], rates)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_singular_constant_hessian_keeps_the_solve():
    # u1^2/2 with two controls: H = diag(1, 0) is constant but singular, so
    # the stage keeps the two calls and every element of a flow dies at the
    # first stage; a multi-start then finds nothing, without raising.
    L = parse_lagrangian("u1^2/2", 3, 2)
    assert L.fiber_affine()
    assert _folded_stage(HEISENBERG, L) is None
    seeds = np.random.default_rng(3).normal(0.0, 1.0, (6, 3))
    *_, alive, _ = _hamiltonian_flow(HEISENBERG, L, np.zeros(3), seeds, 1.0,
                                     8)
    assert not alive.any()
    assert multi_start(HEISENBERG, L, np.zeros(3), np.array([0.3, 0.2, 0.05]),
                       1.0, seeds, N=8) == []
    # So does a constant H too ill-conditioned for the closed form's
    # roundoff to stay far below the solve's tolerance.
    L = parse_lagrangian("(u1^2 + 1e-9*u2^2)/2", 3, 2)
    assert _folded_stage(HEISENBERG, L) is None


def test_trapezoid_and_phi_from_samples():
    times = np.linspace(0.0, 1.0, 101)
    assert trapezoid(times, times) == pytest.approx(0.5)
    L = quadratic()
    x = np.zeros((101, 2))
    u = np.tile([1.0, 0.0], (101, 1))
    assert phi_from_samples(L, times, x, u) == pytest.approx(0.5)
