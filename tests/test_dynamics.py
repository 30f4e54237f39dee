"""Integration and the endpoint differential.

The kernel's forward/adjoint pair shares one set of quadrature weights, so
duality should hold to rounding, not to discretization. Several checks
below rely on systems whose flow is known in closed form.
"""

import numpy as np
import pytest

from extremals import lagrangian, shooting
from extremals.controls import ControlPath, random_smooth_controls
from extremals.dynamics import (BLOWUP_GUARD, DEFAULT_SUBSTEPS, PSI_COND_FLAG,
                                DifferentialKernel, _backtrack,
                                _stage_controls, _step_matrices,
                                _step_products, _tree_product, fine_grid,
                                integrate, integrate_batch, trapezoid_weights)
from extremals.errors import DimensionError, DivergenceError, GridMismatchError
from extremals.expr import CompiledVector
from extremals.fields import parse_field_set
from extremals.lagrangian import parse_lagrangian
from extremals.scenario import (resolve_scenario, scenario_fields,
                                scenario_lagrangian)
from extremals.shooting import (JACOBIAN_BLOCK, _hamiltonian_flow,
                                _shooting_jacobian, make_seeds)

IDENTITY = parse_field_set("X1 = (1, 0)\nX2 = (0, 1)", 2, 2)
HEISENBERG = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
GRUSHIN = parse_field_set("X1 = (1, 0)\nX2 = (0, x1)", 2, 2)
MARTINET = parse_field_set("X1 = (1, 0, x2^2/2)\nX2 = (0, 1, 0)", 3, 2)
# Constants that are not powers of two, so that every product rounds.
THIRDS = parse_field_set("X1 = (1, 0, -0.3*x2)\nX2 = (0, 1, x1/3)", 3, 2)


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


def test_integrate_batch_checks_its_input_as_integrate_does():
    u = ControlPath.constant(1.0, 8, [1.0, 0.5])
    # A horizon outside (0, T]: backward, empty, endless or undefined.
    for T in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(GridMismatchError):
            integrate_batch(HEISENBERG, u.values[None], np.zeros(3), T)
    # Three channels for two fields, a stack of starts, no node axis.
    for values, x0 in ((np.ones((1, 9, 3)), np.zeros(3)),
                       (u.values[None], np.zeros((2, 3))),
                       (u.values[None], np.zeros(2)),
                       (np.ones(2), np.zeros(3))):
        with pytest.raises(DimensionError):
            integrate_batch(HEISENBERG, values, x0, 1.0)


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


def _array_states(F, u, x0, T, substeps):
    """RK4 over numpy arrays with B(xi) u by matmul and the controls read
    by ``ControlPath.at``: the reference for the generated state loop."""
    times, h = fine_grid(T, u.N, substeps)
    y = np.asarray(x0, dtype=float)
    out = [y]
    for s in times[:-1]:
        c = u.at(np.array([s, s + h / 2.0, s + h]))
        k1 = F.field_matrix(y) @ c[0]
        k2 = F.field_matrix(y + h / 2.0 * k1) @ c[1]
        k3 = F.field_matrix(y + h / 2.0 * k2) @ c[1]
        k4 = F.field_matrix(y + h * k3) @ c[2]
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("name", ["identity", "heisenberg", "martinet",
                                  "grushin", "gl"])
def test_the_generated_state_loop_is_rk4_over_arrays(name):
    # Only the rounding may differ: matmul and ControlPath.at round their
    # sums their own way, so the states agree to a few ulps of the
    # trajectory's size, on the control grid's horizon and off it.
    sc = resolve_scenario(name)
    F = scenario_fields(sc)
    x0 = np.asarray(sc.x0, dtype=float)
    for u in random_smooth_controls(np.random.default_rng(5), sc.T, 16,
                                    sc.m, count=3):
        for T in (sc.T, 0.71 * sc.T):
            want = _array_states(F, u, x0, T, 8)
            got = integrate(F, u, x0, T, 8).states
            np.testing.assert_allclose(
                got, want, rtol=0,
                atol=16 * np.finfo(float).eps * np.abs(want).max())


def _rk4_on_rates(F, x0, control, h):
    """RK4 over numpy arrays on the field set's compiled rates from x0,
    for the stage controls (M, 4, B, m) and steps (B,): the states
    (M+1, B, n) and the inputs (M, 4, B, n) of every RK4 stage."""
    M, _, B, _ = control.shape
    h = h[:, None]
    x = np.broadcast_to(x0, (B, F.n))
    states, inputs = [x], []
    for j in range(M):
        y, k = [x], []
        for s, scale in enumerate((h / 2.0, h / 2.0, h, None)):
            k.append(F._rates(np.concatenate((y[s], control[j, s]), axis=-1)))
            if scale is not None:
                y.append(x + scale * k[s])
        x = x + h / 6.0 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
        states.append(x)
        inputs.append(y)
    return np.array(states), np.array(inputs)


@pytest.mark.parametrize("name", ["identity", "heisenberg", "martinet",
                                  "grushin", "thirds"])
def test_stage_inputs_are_the_loops_to_the_bit(monkeypatch, name):
    # The kernel's stage inputs are re-formed from the loop's nodes with
    # the rates FieldSet._rates compiles. An RK4 over numpy arrays on those
    # rates takes the generated loop's operations: it reproduces the states
    # integrate_batch gives and the stage inputs _build_stack hands the
    # Jacobian, bit for bit. B(x) u by matmul rounds its sums otherwise.
    if name == "thirds":
        F, x0, T = THIRDS, np.zeros(3), 1.0
    else:
        sc = resolve_scenario(name)
        F, x0, T = scenario_fields(sc), np.asarray(sc.x0, dtype=float), sc.T
    values = np.stack([u.values for u in random_smooth_controls(
        np.random.default_rng(9), T, 16, F.m, count=3)])
    seen = []
    jacobian_stack = F.jacobian_stack
    monkeypatch.setattr(F, "jacobian_stack",
                        lambda x: seen.append(x) or jacobian_stack(x))
    for substeps in (1, 8):
        for t in (T, 0.71 * T):
            times, h = fine_grid(np.full(len(values), t), 16, substeps)
            states, inputs = _rk4_on_rates(
                F, x0, _stage_controls(values, t, times, h), h)
            np.testing.assert_array_equal(
                integrate_batch(F, values, x0, t, substeps), states)
            seen.clear()
            DifferentialKernel.build_batch(
                F, [ControlPath(t, v) for v in values], x0, t, substeps)
            np.testing.assert_array_equal(seen[0], inputs)


def _sequential_products(steps, start):
    """Y_0 = start and Y_{j+1} = steps[j] Y_j, one matmul per step."""
    out = np.empty((len(steps) + 1,) + steps.shape[1:-1] + start.shape[-1:])
    out[0] = start
    for j in range(len(steps)):
        np.matmul(steps[j], out[j], out=out[j + 1])
    return out


@pytest.mark.parametrize("M", [1, 2, 3, 7, 255, 256, 257])
@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("K", [1, 8])
def test_the_pair_scan_is_the_sequential_product(M, d, K):
    # Every node, odd and even, from the identity and from a (d, k) slice
    # as the shooting Jacobian starts: the scan only regroups the products,
    # so each node matches to rounding.
    rng = np.random.default_rng(M * 100 + d * 10 + K)
    steps = np.eye(d) + 0.05 * rng.standard_normal((M, K, d, d))
    for start in (np.eye(d), rng.standard_normal((d, d))[:, d // 2:]):
        got = _step_products(steps, start)
        want = _sequential_products(steps, start)
        assert got.shape == want.shape == (M + 1, K, d, start.shape[1])
        scale = np.abs(want).reshape(M + 1, -1).max(axis=1)
        err = np.abs(got - want).reshape(M + 1, -1).max(axis=1)
        assert np.all(err <= 1e-13 * scale)


@pytest.mark.parametrize("M", [1, 2, 3, 7, 65, 129])
@pytest.mark.parametrize("d", [3, 6])
@pytest.mark.parametrize("K", [1, 8])
def test_the_pair_tree_is_the_sequential_product(M, d, K):
    # The tree regroups the product of every step, an odd level's last
    # matrix carried up: the total matches the last sequential node to
    # rounding. 65 and 129 carry at every level above the first pairs.
    rng = np.random.default_rng(M * 100 + d * 10 + K)
    steps = np.eye(d) + 0.05 * rng.standard_normal((M, K, d, d))
    got = _tree_product(steps)
    want = _sequential_products(steps, np.eye(d))[-1]
    assert got.shape == want.shape == (K, d, d)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _recorded_rk4(F, L, y, h, M):
    """A plain numpy RK4 over ``L.flow_stage(F)`` from the states y (K, 2n),
    each stage warm-started from the u* before it and the first from 0, as
    the generated loops run it. Returns the nodes (M+1, K, 2n), their
    controls (M, K, m) and the recorded stage inputs (xi, p, u*),
    (4, M, K, 2n + m)."""
    stage = L.flow_stage(F)
    w = np.zeros(y.shape[:-1] + (F.m,))
    nodes, controls, inputs = [y], [], []
    for _ in range(M):
        ks, step = [], []
        for scale in (None, h / 2.0, h / 2.0, h):
            y_s = y if scale is None else y + scale * ks[-1]
            w, k = stage(y_s, w)
            assert np.isfinite(w).all()
            step.append(np.concatenate((y_s, w), axis=-1))
            ks.append(k)
        controls.append(step[0][..., 2 * F.n:])
        inputs.append(step)
        y = y + h / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
        nodes.append(y)
    return (np.stack(nodes), np.stack(controls),
            np.stack(inputs).swapaxes(0, 1))


def _jacobian_case(name):
    """(F, L, x0) for the step-product test: two built-ins, then on
    heisenberg the Newton stages of the x-dependent H = (1 + x1^2) I and of
    a quartic cost."""
    if name == "x_dependent":
        return (HEISENBERG, parse_lagrangian("(1 + x1^2)*(u1^2+u2^2)/2", 3, 2),
                np.zeros(3))
    if name == "quartic":
        return (HEISENBERG, parse_lagrangian("(u1^2 + u2^2)/2 + u1^4/4", 3, 2),
                np.zeros(3))
    sc = resolve_scenario(name)
    return scenario_fields(sc), scenario_lagrangian(sc), \
        np.asarray(sc.x0, dtype=float)


def _blockwise_tree(steps, start):
    """The product of the steps (M, K, d, d) applied to start (d, k) as the
    shooting Jacobian forms it: each run of JACOBIAN_BLOCK steps multiplied
    by adjacent pairs, an odd level's last matrix carried up, then applied
    to the product so far."""
    Y = np.broadcast_to(start, steps.shape[1:2] + start.shape)
    for j in range(0, len(steps), JACOBIAN_BLOCK):
        level = steps[j:j + JACOBIAN_BLOCK]
        while len(level) > 1:
            pairs = level[1::2] @ level[0:-1:2]
            level = (np.concatenate((pairs, level[-1:]))
                     if len(level) % 2 else pairs)
        Y = level[0] @ Y
    return Y


@pytest.mark.parametrize("name", ["heisenberg", "martinet", "x_dependent",
                                  "quartic"])
def test_the_shooting_jacobian_is_the_product_of_its_step_matrices(name):
    # The shooting Jacobian re-forms the stage inputs from the flow's nodes
    # and multiplies the step matrices from (0, I) a block at a time by a
    # pairwise tree: bit for bit that product over the stage inputs an RK4
    # records as it runs, and the sequential product to rounding. 128 steps
    # span two blocks of JACOBIAN_BLOCK; a batch of 9 warm-starts each later
    # stage from a u* that is not 0.
    F, L, x0 = _jacobian_case(name)
    n = F.n
    for N, substeps in ((128, 1), (16, 8)):
        h = fine_grid(1.0, N, substeps)[1]
        for seeds in (np.full((1, n), 0.5), make_seeds(n, 8, 1.0, seed=2)):
            flow = _hamiltonian_flow(F, L, x0, seeds, 1.0, N, substeps)
            assert flow[4].all()
            y0 = np.concatenate((np.broadcast_to(x0, seeds.shape), seeds),
                                axis=-1)
            nodes, controls, inputs = _recorded_rk4(F, L, y0, h, N * substeps)
            np.testing.assert_array_equal(
                np.concatenate(flow[1:3], axis=-1), nodes)
            np.testing.assert_array_equal(flow[3][:-1], controls)
            steps = _step_matrices(L.rate_jacobian(F)(inputs), h)
            start = np.eye(2 * n)[:, n:]
            got = _shooting_jacobian(F, L, flow[1:4], h)
            np.testing.assert_array_equal(
                got, _blockwise_tree(steps, start)[:, :n])
            want = _sequential_products(steps, start)[-1, :, :n]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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
    # Under the control 1e200 the second stage input has x2 near 1e198, so
    # martinet's x2^2/2 overflows before the first step is taken: the
    # element dies at that step, and nothing raises but the guard's error.
    wild = ControlPath.constant(1.0, 16, [1e200, 1e200])
    tame = random_smooth_controls(np.random.default_rng(3), 1.0, 16, 2,
                                  count=1)[0]
    with pytest.raises(DivergenceError) as info:
        integrate(MARTINET, wild, np.zeros(3))
    assert info.value.time == 1.0 / 64
    dead, live = DifferentialKernel.build_batch(MARTINET, [wild, tame],
                                                np.zeros(3))
    assert dead is None
    alone = DifferentialKernel.build(MARTINET, tame, np.zeros(3))
    for a in KERNEL_ARRAYS:
        np.testing.assert_array_equal(getattr(live, a), getattr(alone, a))


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
    _, xs, ps, us, alive = _hamiltonian_flow(BLOWUP, L, np.ones(1), p0,
                                             1.0, 16)
    np.testing.assert_array_equal(alive, [True, False, True])
    h = fine_grid(1.0, 16, DEFAULT_SUBSTEPS)[1]
    J = _shooting_jacobian(BLOWUP, L, [a[:, [0, 2]] for a in (xs, ps, us)],
                           h)
    for col, i in enumerate((0, 2)):
        _, x1, p1, u1, alive1 = _hamiltonian_flow(
            BLOWUP, L, np.ones(1), p0[i], 1.0, 16)
        assert alive1
        for got, want in ((xs, x1), (ps, p1), (us, u1)):
            np.testing.assert_allclose(got[:, i], want, rtol=0, atol=1e-12)
        J1 = _shooting_jacobian(BLOWUP, L, [a[:, None] for a in (x1, p1, u1)],
                                h)
        np.testing.assert_allclose(J[col], J1[0], rtol=0, atol=1e-12)


def _folded_and_newton_flows(monkeypatch, F, text, x0, p0, substeps):
    """Flows of one cost through the folded stage and through the Newton
    stage, which a second Lagrangian of the cost takes with the folded
    stage refused."""
    folded = parse_lagrangian(text, F.n, F.m)
    assert isinstance(lagrangian._folded_stage(F, folded), CompiledVector)
    newton = parse_lagrangian(text, F.n, F.m)
    with monkeypatch.context() as patch:
        patch.setattr(lagrangian, "_folded_stage", lambda F, L: None)
        newton.flow_loop(F)  # cached: the flow below takes the Newton stage
    return (_hamiltonian_flow(F, folded, x0, p0, 1.0, 16, substeps),
            _hamiltonian_flow(F, newton, x0, p0, 1.0, 16, substeps))


def test_an_infeasible_feedback_dies_as_through_the_solve(monkeypatch):
    # L = u^2/2 + exp(x) u has H = 1: u* = x^2 p - exp(x) in closed form.
    # The seeds that run off die at the same step, frozen in the same
    # state, with NaN controls after it, as through the Newton solve; where
    # the folded u* is infinite, the failed solve's is NaN. The
    # Newton may stop anywhere below LEGENDRE_TOL (1 + |z|), 1e-10, which
    # bounds how far the values part, the closing controls included.
    p0 = np.linspace(-40.0, 40.0, 81)[:, None]
    for substeps in (1, 4):
        folded, newton = _folded_and_newton_flows(
            monkeypatch, BLOWUP, "u1^2/2 + exp(x1)*u1", np.ones(1), p0,
            substeps)
        assert 0 < np.count_nonzero(folded[4]) < len(p0)
        np.testing.assert_array_equal(folded[4], newton[4])
        for got, want in zip(folded[:4], newton[:4]):
            finite = np.isfinite(got)
            np.testing.assert_array_equal(finite, np.isfinite(want))
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9,
                                       atol=0)
    # There a non-finite u* also makes the next state non-finite, which the
    # blow-up guard catches. Here u*_2 = -exp(800) = -inf enters no rate,
    # as X2 = 0 and g0_2 is constant: only the check on u* itself kills
    # the folded elements, and the failed solve the Newton's, at the first
    # stage.
    F = parse_field_set("X1 = (1, 0)\nX2 = (0, 0)", 2, 2)
    folded, newton = _folded_and_newton_flows(
        monkeypatch, F, "(u1^2 + u2^2)/2 + exp(800)*u2", np.zeros(2),
        np.array([[1.0, 0.0], [0.5, 2.0]]), 4)
    assert not folded[4].any() and not newton[4].any()
    for got, want in zip(folded[1:3], newton[1:3]):
        np.testing.assert_array_equal(got, want)
    # The folded flow keeps u1 = z1 beside u2 = -inf in the recorded
    # controls, as the closed form does; a failed Newton solve gives NaN.
    np.testing.assert_array_equal(folded[3][[0, -1], :, 0], [[1.0, 0.5]] * 2)
    assert np.isnan(newton[3]).all()


def _array_flow(F, L, x0, p0, N, substeps):
    """A plain numpy RK4 over ``L.flow_stage(F)`` on the whole batch of
    seeds p0 (B, n), each stage warm-started from the u* before it and
    the first from 0, with the flow's rule for a dead element: it dies at
    the step with a u* that is not finite or a new state component that
    is not finite or exceeds the guard, keeps its last state, has NaN
    controls after that step and, as closing control, the stage's at its
    frozen state from the warm start of that step. Returns the flow's
    (xs, ps, us, alive)."""
    stage = L.flow_stage(F)
    h = fine_grid(1.0, N, substeps)[1]
    M = N * substeps
    y = np.concatenate((np.broadcast_to(x0, p0.shape), p0), axis=-1)
    w = np.zeros(p0.shape[:-1] + (F.m,))
    ys, us = [y], []
    died = np.full(len(y), -1)
    # The dead elements' stages run on, and may overflow.
    with np.errstate(all="ignore"):
        for j in range(M):
            w1, k1 = stage(y, w)
            w2, k2 = stage(y + h / 2.0 * k1, w1)
            w3, k3 = stage(y + h / 2.0 * k2, w2)
            w4, k4 = stage(y + h * k3, w3)
            new = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ok = ((died < 0) & np.isfinite((w1, w2, w3, w4)).all(axis=(0, -1))
                  & (np.abs(new) <= BLOWUP_GUARD).all(axis=-1))
            died[(died < 0) & ~ok] = j + 1
            us.append(w1)
            y = np.where(ok[:, None], new, y)
            w = np.where(ok[:, None], w4, w)
            ys.append(y)
        us.append(stage(y, w)[0])
    ys, us = np.stack(ys), np.stack(us)
    for b in np.flatnonzero(died >= 0):
        us[died[b]:M, b] = np.nan
    alive = (died < 0) & np.isfinite(us[M]).all(axis=-1)
    return ys[..., :F.n], ys[..., F.n:], us, alive


def _flow_case(name):
    """(F, L, x0, seeds) for the generated-against-array flow test. Each
    seed family holds seeds that die: on heisenberg, martinet, grushin and
    thirds seeds of width 100 run off within a few steps, and the last
    row, a costate past the blow-up guard, dies at the first step
    everywhere. "x_dependent" and "quartic" take the Newton stage."""
    if name == "blowup":
        return (BLOWUP, parse_lagrangian("u1^2/2 + exp(x1)*u1", 1, 1),
                np.ones(1), np.linspace(-40.0, 40.0, 9)[:, None])
    if name in ("thirds", "x_dependent", "quartic"):
        F, x0 = THIRDS, np.zeros(3)
        L = parse_lagrangian({"thirds": "(2*u1^2 + 3*u2^2)/2",
                              "x_dependent": "(1 + x1^2)*(u1^2 + u2^2)/2",
                              "quartic": "(u1^2 + u2^2)/2 + u1^4/4"}[name],
                             3, 2)
    else:
        sc = resolve_scenario(name)
        F, L = scenario_fields(sc), scenario_lagrangian(sc)
        x0 = np.asarray(sc.x0, dtype=float)
    seeds = np.vstack([make_seeds(F.n, 4, 100.0, seed=2),
                       np.full((1, F.n), 2e12)])
    return F, L, x0, seeds


@pytest.mark.parametrize("name", ["identity", "heisenberg", "martinet",
                                  "grushin", "blowup", "thirds",
                                  "x_dependent", "quartic"])
def test_the_generated_flow_is_the_array_flow_to_the_bit(name):
    # Each batch runs on the generated loop and on a numpy RK4 over the
    # stage function of the whole batch (``_array_flow``). Every array the
    # flow returns is the same, NaN included, so the dead elements follow
    # the reference's rule. "blowup" has the x-dependent g0 = exp(x1),
    # "thirds" the H^-1 = diag(0.5, 1/3) whose u*_2 rounds in the generated
    # code; the Newton stages keep their u* in the loop and are run by the
    # stage function one element at a time.
    F, L, x0, seeds = _flow_case(name)
    assert L.flow_loop(F) is not None
    for batch in (seeds[:1], seeds):
        for substeps in (1, 8):
            generated = _hamiltonian_flow(F, L, x0, batch, 1.0, 16, substeps)
            array = _array_flow(F, L, x0, batch, 16, substeps)
            assert len(batch) == 1 or 0 < np.count_nonzero(array[3]) < len(batch)
            for got, want in zip(generated[1:], array):
                np.testing.assert_array_equal(got, want)


def test_feedback_newton_skips_a_dead_seed(monkeypatch):
    # With the quartic cost the feedback needs the Newton. The seed p0 = 30
    # blows up: its loop ends at its death step, which keeps no frozen
    # element iterating, and the live seeds get the flows they get without
    # it, bit for bit. RuntimeWarnings are errors in this suite, so the
    # dead seed overflows nothing on the way.
    L = parse_lagrangian("u1^2/2 + u1^4/4", 1, 1)
    rows = []
    run_loops = shooting._run_loops

    def counting(loop, runs, out):
        def counted(*args):
            ys = loop(*args)
            rows.append(len(ys) // out.shape[-1])
            return ys
        return run_loops(counted, runs, out)

    monkeypatch.setattr(shooting, "_run_loops", counting)
    _, xs, ps, us, alive = _hamiltonian_flow(
        BLOWUP, L, np.ones(1), np.array([[0.1], [30.0], [-0.5]]), 1.0, 16)
    np.testing.assert_array_equal(alive, [True, False, True])
    M = 16 * DEFAULT_SUBSTEPS
    k = rows[1]   # up to the death node, the last one a closing row
    assert rows[0] == rows[2] == M + 1 and 1 < k < M
    for a in (xs, ps):
        np.testing.assert_array_equal(a[k - 1:, 1], a[k - 1:k, 1].repeat(
            M + 2 - k, axis=0))
    assert np.isnan(us[k:M, 1]).all() and np.isfinite(us[:k - 1, 1]).all()
    _, *alone, alive2 = _hamiltonian_flow(
        BLOWUP, L, np.ones(1), np.array([[0.1], [-0.5]]), 1.0, 16)
    np.testing.assert_array_equal(alive2, [True, True])
    for got, want in zip((xs, ps, us), alone):
        np.testing.assert_array_equal(got[:, [0, 2]], want)


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
