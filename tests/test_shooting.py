"""Indirect shooting: analytic cases, branch discovery, costate formulas."""

import numpy as np
import pytest

from extremals import expr as ex
from extremals import lagrangian, shooting
from extremals.controls import ControlPath, l2_distance
from extremals.errors import DimensionError, NonConvergenceError
from extremals.fields import FieldSet, parse_field_set
from extremals.lagrangian import parse_lagrangian
from extremals.scenario import (resolve_scenario, scenario_fields,
                                scenario_lagrangian)
from extremals.shooting import (DEDUP_TOL, JAC_TRUNCATION,
                                _hamiltonian_flow, _truncated_step,
                                costate_from_lambda, extremality_residual,
                                make_seeds, multi_start, shoot_extremal,
                                shoot_extremals)

IDENTITY = parse_field_set("X1 = (1, 0)\nX2 = (0, 1)", 2, 2)
QUAD = parse_lagrangian("(u1^2 + u2^2)/2", 2, 2)
HEISENBERG = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
QUAD_3 = parse_lagrangian("(u1^2 + u2^2)/2", 3, 2)
QUARTIC_3 = parse_lagrangian("(u1^2 + u2^2)/2 + u1^4/4", 3, 2)
# An off-axis target breaks the rotation symmetry, so its extremals are
# isolated and these seeds converge to the default tolerance on 16 intervals.
OFF_AXIS = np.array([0.3, 0.2, 0.05])
OFF_AXIS_SEEDS = np.array([[0.3, 0.2, 1.0], [0.5, 0.0, 3.0], [0.0, 0.5, -2.0],
                           [0.1, 0.1, 0.1], [1.0, 1.0, 6.0]])


def _off_axis_solutions(L):
    sols = multi_start(HEISENBERG, L, np.zeros(3), OFF_AXIS, 1.0,
                       OFF_AXIS_SEEDS, N=16, substeps=4)
    assert sols
    single = shoot_extremal(HEISENBERG, L, np.zeros(3), OFF_AXIS, 1.0,
                            p0=OFF_AXIS_SEEDS[1], N=16, substeps=4)
    return sols + [single]


def test_straight_line_solution_details(identity_sol):
    sol = identity_sol
    assert sol.residuals["endpoint_gap"] < 1e-8
    assert sol.residuals["stationarity"] < 1e-10
    np.testing.assert_allclose(sol.lam, [1.0, 0.0], atol=1e-10)
    assert float(np.max(np.abs(sol.u_fine.values
                               - np.array([1.0, 0.0])))) < 1e-10
    # Straight flow: xi(s) = (s, 0).
    np.testing.assert_allclose(sol.xi.states[:, 0], sol.xi.times, atol=1e-10)


def test_truncated_step_matches_one_svd_per_jacobian():
    # Reference: one SVD and solve per Jacobian. Full-rank steps are the
    # same arithmetic on the same BLAS kernels, so they agree bit for bit;
    # a truncated step sums fewer products there, so its rounding may
    # differ, by the roundoff of U^T r amplified by the smallest kept
    # singular value.
    rng = np.random.default_rng(0)
    J = rng.normal(size=(300, 3, 3))
    J[::3, :, 2] = J[::3, :, 1] * (1.0 + 1e-6)          # one tiny singular value
    J[1::7] = np.einsum("bi,bj->bij", rng.normal(size=(43, 3)),
                        rng.normal(size=(43, 3)))      # rank one
    J[2::11] = 0.0
    r = rng.normal(size=(300, 3))
    got = _truncated_step(J, r)
    for i in range(len(J)):
        U, sv, Vt = np.linalg.svd(J[i])
        keep = sv > JAC_TRUNCATION * sv[0] if sv[0] > 0 else sv > 0
        want = Vt[keep].T @ ((U[:, keep].T @ r[i]) / sv[keep])
        if keep.all():
            np.testing.assert_array_equal(got[i], want)
        else:
            bound = float(np.linalg.norm(r[i]) / np.min(sv[keep], initial=np.inf))
            np.testing.assert_allclose(
                got[i], want, rtol=0, atol=12 * np.finfo(float).eps * bound)


def test_zero_branch_when_target_is_start():
    sol = shoot_extremal(IDENTITY, QUAD, np.zeros(2), np.zeros(2), 1.0)
    assert sol.phi == pytest.approx(0.0, abs=1e-16)
    np.testing.assert_allclose(sol.u.values, 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.p, 0.0, atol=1e-12)


def test_multi_start_checks_shapes():
    # A one-component target on the three-dimensional system is an error,
    # not a broadcast (0.5, 0.5, 0.5); so are a wrong start and a seed
    # stack of the wrong width.
    seeds = make_seeds(3, 2, 1.0)
    for x0, x, s in ((np.zeros(3), [0.5], seeds),
                     (np.zeros(2), OFF_AXIS, seeds),
                     (np.zeros(3), OFF_AXIS, seeds[:, :2])):
        with pytest.raises(DimensionError):
            multi_start(HEISENBERG, QUAD_3, x0, x, 1.0, s, N=16)


def test_multi_start_deduplicates_the_unique_extremal():
    seeds = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    sols = multi_start(IDENTITY, QUAD, np.zeros(2), np.array([1.0, 0.0]),
                       1.0, seeds)
    assert len(sols) == 1
    assert float(np.max(np.abs(sols[0].u.values
                               - np.array([1.0, 0.0])))) < 1e-8


def _fake_solutions(monkeypatch, specs):
    """multi_start on solutions (phi, |lam|, control value) in seed-row
    order, without shooting."""
    sols = [shooting.ExtremalSolution(
        u=ControlPath.constant(1.0, 4, [c, 0.0]), xi=None, p=None,
        lam=np.array([lam, 0.0]), phi=phi) for phi, lam, c in specs]
    monkeypatch.setattr(shooting, "_shoot_two_stage", lambda *a: None)
    monkeypatch.setattr(shooting, "_build_solution", lambda *a: list(sols))
    out = multi_start(IDENTITY, QUAD, np.zeros(2), np.ones(2), 1.0,
                      np.zeros((len(specs), 2)))
    return [next(i for i, s in enumerate(sols) if s is o) for o in out]


def test_multi_start_orders_a_level_by_seed_row(monkeypatch):
    # Rows 0, 2 and 3 lie on the level 0.5 up to roundoff, row 3 a copy of
    # row 0 with a larger |lam|. Sorting by the float phi kept row 3 and put
    # it first; the level and then the row give rows 0, 2, then 1.
    rows = _fake_solutions(monkeypatch, [(0.5 + 3e-16, 1.0, 1.0),
                                         (1.0, 1.0, 3.0),
                                         (0.5, 1.0, 2.0),
                                         (0.5 - 1e-15, 2.0, 1.0 + 1e-9)])
    assert rows == [0, 2, 1]


def test_a_cost_level_has_no_fixed_edges(monkeypatch):
    # Rows 0 and 2 are one extremal's cost 2 dedup_tol + 0.5 dedup_tol up to
    # roundoff, on either side of the half-way mark where rounding phi /
    # dedup_tol splits them: they share a level and come out by seed row,
    # ahead of row 1 on the level 1.0.
    half = 2.5 * DEDUP_TOL
    rows = _fake_solutions(monkeypatch, [(half * (1.0 + 1e-15), 1.0, 2.0),
                                         (1.0, 1.0, 3.0),
                                         (half * (1.0 - 1e-15), 1.0, 1.0)])
    assert rows == [0, 2, 1]


def test_multi_start_orders_rotated_copies_by_seed_row():
    # The symmetric heisenberg target has a circle of equal-cost extremals:
    # reversing the seeds reverses the copies on a level, bit for bit.
    sc = resolve_scenario("heisenberg")
    F, L = scenario_fields(sc), scenario_lagrangian(sc)
    seeds = make_seeds(3, 2, 8.0, seed=0)[1:]
    runs = [multi_start(F, L, np.zeros(3), np.asarray(sc.target), 1.0, s,
                        N=sc.N, substeps=sc.substeps) for s in (seeds,
                                                               seeds[::-1])]
    assert [len(r) for r in runs] == [2, 2]
    for got, want in zip(runs[0], runs[1][::-1]):
        np.testing.assert_array_equal(got.p0, want.p0)
        np.testing.assert_array_equal(got.u_fine.values, want.u_fine.values)


def test_make_seeds_shape_and_origin():
    seeds = make_seeds(3, 10, 5.0, seed=4)
    assert seeds.shape == (11, 3)
    np.testing.assert_array_equal(seeds[0], np.zeros(3))
    again = make_seeds(3, 10, 5.0, seed=4)
    np.testing.assert_array_equal(seeds, again)


def test_nonconvergence_reports_best_residual():
    F = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
    L = parse_lagrangian("(u1^2 + u2^2)/2", 3, 2)
    with pytest.raises(NonConvergenceError) as err:
        shoot_extremal(F, L, np.zeros(3), np.array([0.0, 0.0, 0.08]), 1.0,
                       p0=np.array([80.0, -30.0, 200.0]), N=16, max_iter=2)
    assert err.value.best_residual > 0.0


@pytest.mark.parametrize("L", [QUAD_3, QUARTIC_3], ids=["affine", "quartic"])
def test_batched_shoot_equals_the_serial_shoots(L):
    # The first three seeds converge alone; the batch must not change a bit
    # of their solutions, also where the feedback is a damped Newton.
    seeds = OFF_AXIS_SEEDS[:3]
    batch = shoot_extremals(HEISENBERG, L, np.zeros(3), OFF_AXIS, 1.0,
                            seeds, N=16, substeps=4)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        want = shoot_extremal(HEISENBERG, L, np.zeros(3), OFF_AXIS, 1.0,
                              p0=seed, N=16, substeps=4)
        for name in ("p0", "lam", "p"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        np.testing.assert_array_equal(got.u.values, want.u.values)
        np.testing.assert_array_equal(got.u_fine.values, want.u_fine.values)
        np.testing.assert_array_equal(got.xi.states, want.xi.states)
        assert (got.phi, got.iterations) == (want.phi, want.iterations)
        assert got.residuals == want.residuals


def test_batched_shoot_reports_the_row_that_failed():
    # Row 0 starts on an extremal; row 1 cannot converge in two iterations.
    bad = np.array([80.0, -30.0, 200.0])
    good = shoot_extremal(HEISENBERG, QUAD_3, np.zeros(3), OFF_AXIS, 1.0,
                          p0=OFF_AXIS_SEEDS[0], N=16).p0
    with pytest.raises(NonConvergenceError) as alone:
        shoot_extremal(HEISENBERG, QUAD_3, np.zeros(3), OFF_AXIS, 1.0,
                       p0=bad, N=16, max_iter=2)
    with pytest.raises(NonConvergenceError, match="row 1") as err:
        shoot_extremals(HEISENBERG, QUAD_3, np.zeros(3), OFF_AXIS, 1.0,
                        np.stack([good, bad]), N=16, max_iter=2)
    np.testing.assert_array_equal(err.value.best_p0, alone.value.best_p0)
    assert err.value.best_residual == alone.value.best_residual > 0.0


def test_winding_branches_found_from_random_seeds(heis, heis_sols64):
    # The vertical target supports a ladder of loop solutions; the seed
    # sweep has to surface at least the first two cost levels.
    phis = sorted(s.phi for s in heis_sols64)
    assert len(heis_sols64) >= 2
    assert phis[0] == pytest.approx(0.5, abs=5e-3)
    assert any(abs(p - 1.0) < 2e-2 for p in phis)
    for sol in heis_sols64:
        assert sol.residuals["endpoint_gap"] < heis.shoot_tol
    # Deduplication kept genuinely distinct controls.
    for i, a in enumerate(heis_sols64):
        for b in heis_sols64[i + 1:]:
            assert l2_distance(a.u, b.u) >= 1e-5


def test_coarse_extremals_match_oracle_in_sup_norm(heis_oracle_matches):
    for m in heis_oracle_matches:
        assert m["linf"] < 1e-4


def test_costate_constant_when_cost_ignores_state():
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    p = costate_from_lambda(IDENTITY, QUAD, u, np.zeros(2),
                            lam=np.array([1.0, 0.0]))
    assert not p.ill_conditioned
    assert float(np.max(np.abs(p.values - np.array([1.0, 0.0])))) < 1e-12


def test_costate_absorbs_linear_state_cost():
    # With L = |u|^2/2 + c x1 on identity fields the adjoint equation reads
    # p' = d_xL = c e1, so p(s) = lam - c (T - s) e1: the costate climbs
    # toward its terminal value lam at a constant rate.
    c = 0.3
    L = parse_lagrangian(f"(u1^2 + u2^2)/2 + {c}*x1", 2, 2)
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    lam = np.array([0.4, -0.2])
    p = costate_from_lambda(IDENTITY, L, u, np.zeros(2), lam=lam)
    want = lam[None, :] - np.stack(
        [c * (1.0 - p.times), np.zeros_like(p.times)], axis=-1)
    np.testing.assert_allclose(p.values, want, atol=1e-10)


def test_costate_formula_reproduces_shooting_costate(heis, heis_parts,
                                                     heis_sols64):
    # The gap between the transported costate and the one carried by the
    # Hamiltonian flow is dominated by the piecewise-linear control between
    # fine nodes and shrinks like h^2, so re-shoot on a finer grid before
    # asking for 1e-7 agreement.
    F, L, x0, target = heis_parts
    sol = shoot_extremal(F, L, x0, target, heis.T, p0=heis_sols64[0].p0,
                         N=64, tol=heis.shoot_tol, substeps=128)
    # u_fine already lives on the integration grid, so substeps stays 1 and
    # the two costates are sampled at identical times.
    p = costate_from_lambda(F, L, sol.u_fine, x0, lam=sol.lam, substeps=1)
    assert p.values.shape == sol.p.shape
    assert float(np.max(np.abs(p.values - sol.p))) < 1e-7


def test_extremality_residual_flags_feasibility_and_stationarity(identity_sol):
    res = extremality_residual(IDENTITY, QUAD, identity_sol.u_fine,
                               np.zeros(2), np.array([1.0, 0.0]),
                               lam=identity_sol.lam)
    assert res["feasibility"] < 1e-8
    assert res["stationarity"] < 1e-8
    off = extremality_residual(IDENTITY, QUAD, identity_sol.u_fine,
                               np.zeros(2), np.array([2.0, 0.0]),
                               lam=identity_sol.lam)
    assert off["feasibility"] == pytest.approx(1.0, abs=1e-8)


def test_solutions_are_the_flows_shooting_accepted():
    # Each solution carries the flow its shooting Newton accepted; for an
    # affine fiber derivative the feedback is elementwise closed form, so
    # that flow equals a fresh batch-of-one flow from p0 bit for bit.
    for sol in _off_axis_solutions(QUAD_3):
        times, xs, ps, us, alive = _hamiltonian_flow(
            HEISENBERG, QUAD_3, np.zeros(3), sol.p0[None], 1.0, 16, 4)
        assert alive[0]
        np.testing.assert_array_equal(sol.xi.times, times)
        np.testing.assert_array_equal(sol.xi.states, xs[:, 0])
        np.testing.assert_array_equal(sol.p, ps[:, 0])
        np.testing.assert_array_equal(sol.lam, ps[-1, 0])
        np.testing.assert_array_equal(sol.u_fine.values, us[:, 0])
        np.testing.assert_array_equal(sol.u.values, us[::4, 0])


def test_a_flow_makes_no_compiled_call(monkeypatch):
    # A constant control Hessian folds the feedback into one generated
    # evaluator, (xi, p) -> (u*, xi', p'), and an x-dependent one takes the
    # Newton stage. Both run their generated loop at every batch size, here
    # 20 seeds, and neither evaluates a field matrix or a Jacobian stack on
    # the way. Each loop keeps its node controls itself, the closing one
    # included, so neither flow makes a compiled call.
    calls = {"expr": 0, "field_matrix": 0, "jacobian_stack": 0}

    def counted(owner, attr, key):
        fn = getattr(owner, attr)

        def counting(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    x_dependent = parse_lagrangian("(1 + x1^2)*(u1^2+u2^2)/2", 3, 2)
    for L in (QUAD_3, x_dependent):
        # Deciding to fold evaluates H once; that is compilation, not a stage.
        L.flow_stage(HEISENBERG)
    counted(ex.CompiledVector, "__call__", "expr")
    counted(FieldSet, "field_matrix", "field_matrix")
    counted(FieldSet, "jacobian_stack", "jacobian_stack")
    seeds = np.tile(OFF_AXIS_SEEDS, (4, 1))
    assert len(seeds) >= 16

    def flow_calls(L):
        for key in calls:
            calls[key] = 0
        *_, alive = _hamiltonian_flow(HEISENBERG, L, np.zeros(3), seeds,
                                      1.0, 8, 2)
        assert alive.all()
        return calls

    for L in (QUAD_3, x_dependent):
        assert flow_calls(L) == {"expr": 0, "field_matrix": 0,
                                 "jacobian_stack": 0}


def test_building_solutions_runs_no_flow(monkeypatch):
    flow, build = shooting._hamiltonian_flow, shooting._build_solution
    flows = []
    during_build = []

    def counting_flow(*args, **kwargs):
        flows.append(1)
        return flow(*args, **kwargs)

    def counting_build(*args, **kwargs):
        before = len(flows)
        sols = build(*args, **kwargs)
        during_build.append(len(flows) - before)
        return sols

    monkeypatch.setattr(shooting, "_hamiltonian_flow", counting_flow)
    monkeypatch.setattr(shooting, "_build_solution", counting_build)
    _off_axis_solutions(QUAD_3)
    assert flows
    assert during_build == [0, 0]


def test_the_line_search_flows_only_the_pending_seeds(monkeypatch):
    # A line search makes one flow of alpha = 1 on the moving seeds, then at
    # most one more: every remaining halving of the seeds that flow rejected,
    # stacked, and nothing of the seeds it accepted.
    flow, backtrack = shooting._hamiltonian_flow, shooting._backtrack
    batches = []
    searches = []

    def recording_flow(F, L, x0, p0, *args, **kwargs):
        batches.append(np.shape(p0)[:-1])
        return flow(F, L, x0, p0, *args, **kwargs)

    def recording_backtrack(trial, x, step, todo, halvings):
        rounds = []

        def recording_trial(idx, x_try):
            before = len(batches)
            better, keep = trial(idx, x_try)
            rounds.append((batches[before:], idx, better))
            return better, keep

        searches.append((np.flatnonzero(todo), halvings, rounds))
        return backtrack(recording_trial, x, step, todo, halvings)

    monkeypatch.setattr(shooting, "_hamiltonian_flow", recording_flow)
    monkeypatch.setattr(shooting, "_backtrack", recording_backtrack)
    seeds = make_seeds(3, 11, 2.0, seed=4)
    multi_start(HEISENBERG, QUAD_3, np.zeros(3), OFF_AXIS, 1.0, seeds, N=16)
    assert searches
    second_rounds = 0
    for moving, halvings, rounds in searches:
        assert 1 <= len(rounds) <= 2
        flows, idx, better = rounds[0]
        np.testing.assert_array_equal(idx, moving)
        assert flows == [(len(moving),)]
        if len(rounds) == 2:
            second_rounds += 1
            flows, idx, _ = rounds[1]
            np.testing.assert_array_equal(
                idx, np.repeat(moving[~better], halvings - 1))
            assert flows == [(len(idx),)]
        else:
            assert better.all()
    assert second_rounds
    assert min(len(moving) for moving, _, _ in searches) < len(seeds)


FD_STEP = 1e-5


def _jacobian_and_central_differences(F, L, x0, p0, N, substeps):
    """The flow's exact d xi(T) / d p0 and its central differences with
    steps FD_STEP (1 + |p0|), for seeds p0 (k, n); and the endpoints of the
    2n probe flows."""
    _, xs, ps, us, alive = _hamiltonian_flow(F, L, x0, p0, 1.0, N, substeps)
    assert alive.all()
    J = shooting._shooting_jacobian(F, L, (xs, ps, us), 1.0 / (N * substeps))
    k, n = p0.shape
    delta = FD_STEP * (1.0 + np.linalg.norm(p0, axis=-1))
    shift = delta[:, None] * np.eye(n)[:, None]
    _, xs, *_ = _hamiltonian_flow(F, L, x0, np.concatenate(
        (p0 + shift, p0 - shift)), 1.0, N, substeps)
    ends = xs[-1]
    fd = ((ends[:n] - ends[n:]) / (2.0 * delta[:, None])).transpose(1, 2, 0)
    return J, fd, delta, ends


def _relative(J, fd):
    return np.linalg.norm(J - fd, axis=(1, 2)) / np.linalg.norm(J, axis=(1, 2))


@pytest.mark.parametrize("name", ["identity", "heisenberg", "martinet",
                                  "grushin", "off_diagonal"])
def test_the_shooting_jacobian_is_the_flow_s_derivative(name):
    # The step-matrix product differentiates the discrete flow itself, so
    # central differences meet it to their own error: O(FD_STEP^2), 1e-8
    # here, plus roundoff over FD_STEP. Horizon 1 on every built-in, and on
    # heisenberg with a constant H whose H^-1 is off-diagonal, which the
    # folded rate Jacobian carries as constants.
    sc = resolve_scenario("heisenberg" if name == "off_diagonal" else name)
    F, L = scenario_fields(sc), scenario_lagrangian(sc)
    if name == "off_diagonal":
        L = parse_lagrangian("(u1^2 + u1*u2 + u2^2)/2", 3, 2)
        assert lagrangian._folded_stage(F, L) is not None
    p0 = make_seeds(sc.n, 4, 3.0, seed=3)
    for substeps in (1, 4):
        J, fd, _, _ = _jacobian_and_central_differences(
            F, L, np.asarray(sc.x0, dtype=float), p0, 16, substeps)
        assert _relative(J, fd).max() <= 1e-7


def test_the_shooting_jacobian_of_an_x_dependent_hessian():
    # H = (1 + x1^2) I takes the Newton stage, whose one step from a warm
    # start is the closed form to roundoff, so the same bound holds.
    L = parse_lagrangian("(1 + x1^2)*(u1^2+u2^2)/2", 3, 2)
    assert lagrangian._folded_stage(HEISENBERG, L) is None
    for substeps in (1, 4):
        J, fd, _, _ = _jacobian_and_central_differences(
            HEISENBERG, L, np.zeros(3), OFF_AXIS_SEEDS, 16, substeps)
        assert _relative(J, fd).max() <= 1e-7


def test_the_shooting_jacobian_of_a_non_affine_cost(monkeypatch):
    # The damped Newton stops anywhere below LEGENDRE_TOL (1 + |z|), so the
    # flow is smooth in p0 only up to the endpoint error eps that stopping
    # leaves. The central difference carries at most eps / FD_STEP(1+|p0|)
    # of it, on top of its error on a smooth flow. eps is read off the same
    # flows with the tolerance at 1e-14: |J - fd| <= 1e-7 |J| + eps / delta.
    J, fd, delta, ends = _jacobian_and_central_differences(
        HEISENBERG, QUARTIC_3, np.zeros(3), OFF_AXIS_SEEDS, 16, 4)
    tight = parse_lagrangian("(u1^2 + u2^2)/2 + u1^4/4", 3, 2)
    monkeypatch.setattr(lagrangian, "LEGENDRE_TOL", 1e-14)
    J_tight, fd_tight, _, ends_tight = _jacobian_and_central_differences(
        HEISENBERG, tight, np.zeros(3), OFF_AXIS_SEEDS, 16, 4)
    eps = np.abs(ends - ends_tight).max(axis=(0, 2))
    assert eps.max() < 1e-9
    # With the Newton tight, the flow is smooth as for an affine cost.
    assert _relative(J_tight, fd_tight).max() <= 1e-7
    np.testing.assert_allclose(J, J_tight, rtol=0, atol=1e-9)
    bound = 1e-7 * np.linalg.norm(J, axis=(1, 2)) + eps / delta
    assert (np.linalg.norm(J - fd, axis=(1, 2)) <= bound).all()


def test_the_jacobian_is_formed_only_for_active_seeds(monkeypatch):
    # A seed's Jacobian is formed when its flow is accepted, the first flow
    # or a line-search trial's, and only if the seed iterates on from it:
    # each line search moves exactly the seeds whose Jacobians were formed
    # since the last one, from the flows of their current iterates. A
    # Newton iteration flows alpha = 1 and, when it is rejected, the
    # stacked halvings.
    jacobian, backtrack = shooting._shooting_jacobian, shooting._backtrack
    flow = shooting._hamiltonian_flow
    events = []

    def recording_jacobian(F, L, flow, h):
        # A flow's first node holds its p0 rows.
        events.append(("jacobian", flow[1][0].copy()))
        return jacobian(F, L, flow, h)

    def recording_backtrack(trial, x, step, todo, halvings):
        events.append(("moving", x[todo].copy()))
        return backtrack(trial, x, step, todo, halvings)

    def recording_flow(*args, **kwargs):
        events.append(("flow", None))
        return flow(*args, **kwargs)

    def recording_shoot(*args, **kwargs):
        events.append(("newton", None))
        return shoot(*args, **kwargs)

    shoot = shooting._shoot_batch
    monkeypatch.setattr(shooting, "_shooting_jacobian", recording_jacobian)
    monkeypatch.setattr(shooting, "_backtrack", recording_backtrack)
    monkeypatch.setattr(shooting, "_hamiltonian_flow", recording_flow)
    monkeypatch.setattr(shooting, "_shoot_batch", recording_shoot)
    seeds = make_seeds(3, 11, 2.0, seed=4)
    multi_start(HEISENBERG, QUAD_3, np.zeros(3), OFF_AXIS, 1.0, seeds, N=16)
    kinds = [kind for kind, _ in events]
    assert kinds.count("moving") > 0
    formed = []
    sizes = []
    for i, (kind, rows) in enumerate(events):
        if kind == "newton":
            formed = []
        elif kind == "jacobian":
            formed.append(rows)
        elif kind == "moving":
            # The same p0 rows, each once, in any order.
            done = np.concatenate(formed + [np.zeros((0, 3))])
            assert len(done) == len(rows)
            np.testing.assert_array_equal(np.unique(done, axis=0),
                                          np.unique(rows, axis=0))
            sizes.append(len(rows))
            formed = []
            tail = kinds[i + 1:] + ["newton"]
            iteration = tail[:min(tail.index(k) for k in ("moving", "newton")
                                  if k in tail)]
            assert 1 <= iteration.count("flow") <= 2
    assert min(sizes) < len(seeds)


def test_kept_flows_of_a_non_affine_cost_are_extremal():
    assert not QUARTIC_3.fiber_affine()
    for sol in _off_axis_solutions(QUARTIC_3):
        assert sol.residuals["endpoint_gap"] < 1e-8
        assert sol.residuals["stationarity"] < 1e-8
        assert sol.residuals["hamiltonian_drift"] < 1e-6


@pytest.mark.parametrize("kwargs, name", [({"N": 0}, "count N"),
                                          ({"substeps": 0}, "substeps")])
def test_shoot_extremal_rejects_empty_grids(kwargs, name):
    with pytest.raises(ValueError, match=name):
        shoot_extremal(IDENTITY, QUAD, np.zeros(2), np.array([1.0, 0.0]), 1.0,
                       **kwargs)
