"""Integration and the endpoint differential.

The kernel's forward/adjoint pair shares one set of quadrature weights, so
duality should hold to rounding, not to discretization. Several checks
below rely on systems whose flow is known in closed form.
"""

import numpy as np
import pytest

from extremals import lagrangian
from extremals.controls import ControlPath, random_smooth_controls
from extremals.dynamics import (PSI_COND_FLAG, DifferentialKernel, _backtrack,
                                integrate, integrate_batch, trapezoid_weights)
from extremals.errors import DimensionError, DivergenceError, GridMismatchError
from extremals.expr import CompiledVector
from extremals.fields import parse_field_set
from extremals.lagrangian import parse_lagrangian
from extremals.scenario import resolve_scenario, scenario_fields
from extremals.shooting import _hamiltonian_flow

IDENTITY = parse_field_set("X1 = (1, 0)\nX2 = (0, 1)", 2, 2)
HEISENBERG = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
GRUSHIN = parse_field_set("X1 = (1, 0)\nX2 = (0, x1)", 2, 2)
MARTINET = parse_field_set("X1 = (1, 0, x2^2/2)\nX2 = (0, 1, 0)", 3, 2)


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
        e = integrate(HEISENBERG, circle_control(N), np.zeros(3),
                      substeps=8).endpoint
        err.append(float(np.linalg.norm(e - target)))
    assert err[0] < 2e-4
    assert err[1] < err[0] / 12.0  # roughly second order in the node count


def test_time_restriction_and_validation():
    u = ControlPath.constant(2.0, 10, [1.0, 0.0])
    half = integrate(IDENTITY, u, np.zeros(2), T=1.0)
    np.testing.assert_allclose(half.endpoint, [1.0, 0.0], atol=1e-14)
    with pytest.raises(Exception):
        integrate(IDENTITY, u, np.zeros(2), T=3.0)


def test_integrate_rejects_empty_grids():
    u = ControlPath.constant(1.0, 4, [1.0, 0.0])
    with pytest.raises(ValueError, match="substeps"):
        integrate(IDENTITY, u, np.zeros(2), substeps=0)
    with pytest.raises(ValueError, match="count N"):
        integrate_batch(IDENTITY, u.values[:1], np.zeros(2), 1.0)


def test_kernel_build_rejects_empty_grids():
    u = ControlPath.constant(1.0, 4, [1.0, 0.0])
    with pytest.raises(ValueError, match="substeps"):
        DifferentialKernel.build(IDENTITY, u, np.zeros(2), substeps=0)


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


def test_probe_grid_mismatch_rejected():
    for F, u in ((IDENTITY, ControlPath.zero(1.0, 16, 2)),
                 (HEISENBERG, ControlPath.constant(1.0, 16, [1.0, 0.5]))):
        kern = DifferentialKernel.build(F, u, np.zeros(F.n))
        # Directions defined on a shorter horizon cannot probe the full
        # map, nor can directions with another channel count.
        with pytest.raises(GridMismatchError):
            kern.apply(ControlPath.zero(0.5, 16, 2))
        with pytest.raises(GridMismatchError):
            kern.apply(ControlPath.zero(1.0, 16, 1))
        # The kernel checks its horizon as integrate does.
        with pytest.raises(GridMismatchError):
            DifferentialKernel.build(F, u, np.zeros(F.n), T=1.5)
        with pytest.raises(GridMismatchError):
            integrate(F, u, np.zeros(F.n), T=1.5)


def test_adjoint_rejects_a_multiplier_of_another_shape():
    # A length-1 multiplier would broadcast over the three state components.
    u = ControlPath.constant(1.0, 16, [1.0, 0.5])
    kern = DifferentialKernel.build(HEISENBERG, u, np.zeros(3))
    for lam in (np.ones(1), np.ones(2), np.ones(4), np.ones((1, 3)), 1.0):
        with pytest.raises(DimensionError):
            kern.adjoint(lam)
    assert kern.adjoint(np.ones(3)).values.shape == (65, 2)


def test_complex_step_through_the_integrator():
    # integrate_batch advertises complex safety, so the imaginary part of a
    # complex-step endpoint is the derivative of the discrete RK4 map. The
    # kernel's trapezoid quadrature is O(h^2) off that derivative: the
    # relative gap falls fourfold per doubling of the substeps.
    rng = np.random.default_rng(9)
    u, v = random_smooth_controls(rng, 1.0, 32, 2, count=2)
    tau = 1e-30
    for F in (GRUSHIN, HEISENBERG, MARTINET):
        gaps = []
        for substeps in (8, 16, 32, 64):
            ends = integrate_batch(F, u.values + 1j * tau * v.values[None],
                                   np.zeros(F.n), 1.0, substeps=substeps)[-1]
            cs = ends[0].imag / tau
            analytic = DifferentialKernel.build(F, u, np.zeros(F.n), 1.0,
                                                substeps).apply(v)
            gaps.append(np.linalg.norm(cs - analytic)
                        / np.linalg.norm(analytic))
        assert gaps[1] < 1e-4
        np.testing.assert_allclose(np.array(gaps[:-1]) / gaps[1:], 4.0,
                                   rtol=1e-3)


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


KERNEL_ARRAYS = ("times", "states", "psis", "weights", "kernels")


@pytest.mark.parametrize("name", ["identity", "heisenberg", "martinet",
                                  "grushin"])
def test_batched_kernels_equal_the_serial_builds(name):
    # One stacked RK4 loop, Jacobian call and Psi product per batch, yet
    # every element is the kernel its control gets alone, bit for bit, on
    # the grid horizon and off it.
    sc = resolve_scenario(name)
    F = scenario_fields(sc)
    x0 = np.asarray(sc.x0, dtype=float)
    us = random_smooth_controls(np.random.default_rng(4), sc.T, 16, sc.m,
                                count=5)
    for T in (sc.T, 0.71 * sc.T):
        kerns = DifferentialKernel.build_batch(F, us, x0, T, 4)
        assert len(kerns) == len(us)
        for u, kern in zip(us, kerns):
            alone = DifferentialKernel.build(F, u, x0, T, 4)
            assert kern.T == alone.T
            for a in KERNEL_ARRAYS:
                np.testing.assert_array_equal(getattr(kern, a),
                                              getattr(alone, a))


@pytest.mark.parametrize("name", ["heisenberg", "martinet"])
def test_each_element_of_a_batch_keeps_its_own_horizon(name):
    # Horizons T, 0.71 T and 0.3 T in one stack: every kernel is the one
    # its control and horizon get alone. The control (3e13, 0) drives x1
    # past the guard at the fourth fine node of its own grid on [0, 0.71 T].
    sc = resolve_scenario(name)
    F = scenario_fields(sc)
    x0 = np.asarray(sc.x0, dtype=float)
    us = random_smooth_controls(np.random.default_rng(6), sc.T, 16, sc.m,
                                count=3)
    wild = ControlPath.constant(sc.T, 16, [3e13, 0.0])
    horizons = [sc.T, 0.71 * sc.T, 0.3 * sc.T, 0.71 * sc.T]
    kerns = DifferentialKernel.build_batch(F, us + [wild], x0, horizons, 4)
    assert kerns[-1] is None
    for u, T, kern in zip(us, horizons, kerns):
        alone = DifferentialKernel.build(F, u, x0, T, 4)
        assert kern.T == alone.T == T
        for a in KERNEL_ARRAYS:
            np.testing.assert_array_equal(getattr(kern, a), getattr(alone, a))
    with pytest.raises(DivergenceError) as info:
        DifferentialKernel.build(F, wild, x0, horizons[-1], 4)
    assert info.value.time == 4 * (horizons[-1] / 64)


@pytest.mark.parametrize("name", ["identity", "heisenberg", "martinet",
                                  "grushin"])
def test_trajectories_hold_the_kernel_states(name):
    # integrate, integrate_batch and the kernel builds run one state loop,
    # so a chart's re-integration checks the map its Newton solved.
    sc = resolve_scenario(name)
    F = scenario_fields(sc)
    x0 = np.asarray(sc.x0, dtype=float)
    us = random_smooth_controls(np.random.default_rng(8), sc.T, 16, sc.m,
                                count=8)
    for T in (sc.T, 0.71 * sc.T):
        # integrate_batch reads its values as controls on [0, T].
        batch = integrate_batch(F, np.stack([u.values for u in us]), x0, T,
                                substeps=8)
        for i, u in enumerate(us):
            states = DifferentialKernel.build(F, u, x0, T, 8).states
            np.testing.assert_array_equal(integrate(F, u, x0, T, 8).states,
                                          states)
            on_T = ControlPath(T, u.values)
            np.testing.assert_array_equal(
                batch[:, i], DifferentialKernel.build(F, on_T, x0, T, 8).states)


def test_a_diverging_element_leaves_its_batch_alone():
    # Psi' = 30 Psi leaves the guard at step 45 of 48 (see above) while the
    # control 0.1 stays tame: the batch gives None for the first element
    # only, and the second is its own build.
    F = parse_field_set("X1 = (x1)", 1, 1)
    wild, tame = (ControlPath.constant(1.0, 12, [c]) for c in (30.0, 0.1))
    first, second = DifferentialKernel.build_batch(F, [wild, tame],
                                                   np.zeros(1))
    assert first is None
    alone = DifferentialKernel.build(F, tame, np.zeros(1))
    for a in KERNEL_ARRAYS:
        np.testing.assert_array_equal(getattr(second, a), getattr(alone, a))
    with pytest.raises(DivergenceError) as info:
        DifferentialKernel.build(F, wild, np.zeros(1))
    assert info.value.time == pytest.approx(45 / 48, rel=1e-12)
    # A state that leaves the guard (x' = x^2 from 1 dies at s = 1) drops
    # out of its batch the same way.
    short = ControlPath.constant(1.2, 12, [0.5])
    dead, live = DifferentialKernel.build_batch(
        BLOWUP, [ControlPath.constant(1.2, 12, [1.0]), short], np.ones(1))
    assert dead is None
    np.testing.assert_array_equal(
        live.kernels, DifferentialKernel.build(BLOWUP, short,
                                               np.ones(1)).kernels)


def test_a_batch_shares_one_control_grid():
    us = [ControlPath.constant(1.0, 16, [1.0, 0.0]),
          ControlPath.constant(1.0, 8, [1.0, 0.0])]
    with pytest.raises(GridMismatchError):
        DifferentialKernel.build_batch(HEISENBERG, us, np.zeros(3))
    with pytest.raises(DimensionError):
        DifferentialKernel.build_batch(
            HEISENBERG, [us[0], ControlPath.constant(1.0, 16, [1.0])],
            np.zeros(3))
    with pytest.raises(DimensionError, match="3 horizons for 2 controls"):
        DifferentialKernel.build_batch(HEISENBERG, us[:1] * 2, np.zeros(3),
                                       [1.0, 0.5, 0.3])
    assert DifferentialKernel.build_batch(HEISENBERG, [], np.zeros(3)) == []


def test_stacked_flow_isolates_a_blowing_up_seed():
    # With L = u^2/2 the feedback is u = x^2 p and x^2 p is conserved, so
    # x' = (p0 x0^2) x^2: the seed p0 = 10 blows up at s = 1/10, where its
    # RK4 stages leave the guard; the others stay finite on [0, 1].
    L = parse_lagrangian("u1^2/2", 1, 1)
    p0 = np.array([[0.1], [10.0], [-0.5]])
    _, xs, ps, us, alive, stages = _hamiltonian_flow(BLOWUP, L, np.ones(1),
                                                     p0, 1.0, 16)
    np.testing.assert_array_equal(alive, [True, False, True])
    for i in (0, 2):
        _, x1, p1, u1, alive1, stages1 = _hamiltonian_flow(
            BLOWUP, L, np.ones(1), p0[i], 1.0, 16)
        assert alive1
        for got, want in ((xs, x1), (ps, p1), (us, u1)):
            np.testing.assert_allclose(got[:, i], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stages[:, :, i], stages1, rtol=0,
                                   atol=1e-12)


def _folded_and_two_call_flows(monkeypatch, F, text, x0, p0, substeps):
    """Flows of one cost through the folded stage and through pre, the
    closed-form solve and post."""
    folded = parse_lagrangian(text, F.n, F.m)
    assert isinstance(lagrangian._folded_stage(F, folded), CompiledVector)
    two_call = parse_lagrangian(text, F.n, F.m)
    built = []
    two_call_stage = lagrangian._two_call_stage
    with monkeypatch.context() as patch:
        patch.setattr(lagrangian, "_folded_stage", lambda F, L: None)
        patch.setattr(lagrangian, "_two_call_stage",
                      lambda F, L: built.append(L) or two_call_stage(F, L))
        two_call.flow_stage(F)  # cached: the flow below takes two calls
    assert len(built) == 1 and built[0] is two_call
    return (_hamiltonian_flow(F, folded, x0, p0, 1.0, 16, substeps),
            _hamiltonian_flow(F, two_call, x0, p0, 1.0, 16, substeps))


def test_an_infeasible_feedback_dies_as_through_the_solve(monkeypatch):
    # L = u^2/2 + exp(x) u has H = 1: u* = x^2 p - exp(x) in closed form.
    # The seeds that run off die at the same step, frozen in the same
    # state, with the same controls recorded as through the solve, the
    # closing evaluation included; the values after death are compared too.
    p0 = np.linspace(-40.0, 40.0, 81)[:, None]
    for substeps in (1, 4):
        folded, two_call = _folded_and_two_call_flows(
            monkeypatch, BLOWUP, "u1^2/2 + exp(x1)*u1", np.ones(1), p0,
            substeps)
        assert 0 < np.count_nonzero(folded[4]) < len(p0)
        for got, want in zip(folded, two_call):
            np.testing.assert_array_equal(got, want)
    # There a non-finite u* also makes the next state non-finite, which the
    # blow-up guard catches. Here u*_2 = -exp(800) = -inf enters no rate,
    # as X2 = 0 and g0_2 is constant: only the check on u* itself, like
    # the solve's residual test, kills the elements, at the first stage.
    F = parse_field_set("X1 = (1, 0)\nX2 = (0, 0)", 2, 2)
    folded, two_call = _folded_and_two_call_flows(
        monkeypatch, F, "(u1^2 + u2^2)/2 + exp(800)*u2", np.zeros(2),
        np.array([[1.0, 0.0], [0.5, 2.0]]), 4)
    assert not folded[4].any()
    # The solve keeps u1 = z1 beside u2 = -inf, as the closed form does, in
    # the recorded controls and stage inputs alike.
    for got, want in zip(folded, two_call):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(folded[3][[0, -1], :, 0], [[1.0, 0.5]] * 2)


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
        _, _, _, _, alive, _ = _hamiltonian_flow(BLOWUP, L, np.ones(1),
                                                 np.array(p0), 1.0, 16)
        return alive, len(calls)

    alive, calls = counted_flow([[0.1], [30.0], [-0.5]])
    np.testing.assert_array_equal(alive, [True, False, True])
    alive2, calls2 = counted_flow([[0.1], [-0.5]])
    np.testing.assert_array_equal(alive2, [True, True])
    assert calls <= 3 * calls2


LINE_X = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 6.0], [-7.0, 0.25]])
LINE_STEP = np.array([[1.0, -1.0], [0.3, 0.5], [4.0, 4.0], [-0.7, 1.1]])


def _keeping(accepts, kept):
    """A trial from accepts(idx, x_try) -> mask that records what it keeps."""
    calls = []

    def trial(idx, x_try):
        calls.append((idx.copy(), x_try.copy()))
        better = accepts(idx, x_try)

        def keep(sel):
            kept.append((idx[sel], x_try[sel]))

        return better, keep

    return trial, calls


def _one_halving_per_round(accepts, x, step, todo, halvings):
    """The reference: one trial round per halving, on the pending rows."""
    x, pending = x.copy(), np.array(todo, dtype=bool)
    for k in range(halvings):
        idx = np.flatnonzero(pending)
        if not idx.size:
            break
        x_try = x[idx] - 0.5 ** k * step[idx]
        better = accepts(idx, x_try)
        x[idx[better]] = x_try[better]
        pending[idx[better]] = False
    return x, pending


def test_a_line_search_that_rejects_everything_keeps_its_iterates():
    kept = []
    trial, calls = _keeping(lambda idx, x_try: np.zeros(len(idx), bool), kept)
    todo = np.array([True, False, True, True])
    x, stuck = _backtrack(trial, LINE_X, LINE_STEP, todo, 7)
    # alpha = 1 on every pending row, then the six halvings of all three
    # rows in one call, each row's scales largest first.
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0][0], [0, 2, 3])
    np.testing.assert_array_equal(calls[0][1], LINE_X[[0, 2, 3]]
                                  - LINE_STEP[[0, 2, 3]])
    idx, x_try = calls[1]
    np.testing.assert_array_equal(idx, np.repeat([0, 2, 3], 6))
    scales = np.tile(0.5 ** np.arange(1, 7), 3)[:, None]
    np.testing.assert_array_equal(x_try, LINE_X[idx] - scales * LINE_STEP[idx])
    assert all(len(i) == 0 for i, _ in kept)
    np.testing.assert_array_equal(x, LINE_X)
    np.testing.assert_array_equal(stuck, todo)


def test_a_line_search_takes_each_element_s_first_accepted_halving():
    # Element i accepts exactly the scales 2^-k with k in accept[i], an
    # arbitrary set: the stacked rounds give each element its first
    # accepted halving, the scale the one-halving-per-round loop gives it,
    # in at most two trial calls, and keep one candidate per element, the
    # accepted one.
    for halvings in (1, 2, 4, 10):
        rng = np.random.default_rng(halvings)
        K = 40
        x0 = rng.normal(size=(K, 3))
        step = rng.normal(size=(K, 3))
        accept = [set(np.flatnonzero(rng.uniform(size=halvings) < q))
                  for q in rng.uniform(0.0, 0.6, K)]

        def accepts(idx, x_try):
            scale = (x0[idx] - x_try)[:, 0] / step[idx, 0]
            k = np.rint(-np.log2(scale)).astype(int)
            return np.array([kk in accept[i] for i, kk in zip(idx, k)], bool)

        todo = rng.uniform(size=K) < 0.8
        kept = []
        trial, calls = _keeping(accepts, kept)
        x, stuck = _backtrack(trial, x0, step, todo, halvings)
        want, want_stuck = _one_halving_per_round(accepts, x0, step, todo,
                                                  halvings)
        assert len(calls) <= 2
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(stuck, want_stuck)
        rows = np.concatenate([i for i, _ in kept])
        assert len(rows) == len(set(rows))
        np.testing.assert_array_equal(np.sort(rows),
                                      np.flatnonzero(todo & ~stuck))
        for i, x_kept in kept:
            np.testing.assert_array_equal(x_kept, x[i])


def test_a_line_search_never_evaluates_an_element_outside_its_mask():
    evaluated = []

    def trial(idx, x_try):
        evaluated.extend(idx)
        return x_try[:, 0] < 0.0, lambda sel: None

    todo = np.array([False, True, False, True])
    x, stuck = _backtrack(trial, LINE_X, LINE_STEP, todo, 4)
    assert set(evaluated) <= {1, 3}
    np.testing.assert_array_equal(x[[0, 2]], LINE_X[[0, 2]])
    np.testing.assert_array_equal(stuck, [False, True, False, False])
    np.testing.assert_array_equal(x[3], LINE_X[3] - LINE_STEP[3])
