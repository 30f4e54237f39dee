"""Indirect shooting: analytic cases, branch discovery, costate formulas."""

import numpy as np
import pytest

from extremals import expr as ex
from extremals import shooting
from extremals.controls import ControlPath, l2_distance
from extremals.errors import DimensionError, NonConvergenceError
from extremals.fields import FieldSet, parse_field_set
from extremals.lagrangian import parse_lagrangian
from extremals.shooting import (JAC_TRUNCATION, _hamiltonian_flow,
                                _truncated_step, costate_from_lambda,
                                extremality_residual, make_seeds, multi_start,
                                shoot_extremal, shoot_extremals)

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
    assert sol.converged
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


def test_a_flow_stage_is_two_compiled_calls(monkeypatch):
    # A constant control Hessian folds the feedback into one generated
    # evaluator, (xi, p) -> (u*, xi', p'); an x-dependent one keeps two,
    # z and the coefficients from one, xi' and p' from the other. Neither
    # evaluates a field matrix or a Jacobian stack on the way.
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
    N, substeps = 8, 2
    M = N * substeps
    for L, per_stage in ((QUAD_3, 1), (x_dependent, 2)):
        for key in calls:
            calls[key] = 0
        *_, alive = _hamiltonian_flow(HEISENBERG, L, np.zeros(3),
                                      OFF_AXIS_SEEDS, 1.0, N, substeps)
        assert alive.all()
        assert calls == {"expr": per_stage * (4 * M + 1), "field_matrix": 0,
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
    # Each halving flows the seeds whose trials were all rejected so far,
    # not the whole batch: a seed leaves the flows once its residual fell.
    flow, backtrack = shooting._hamiltonian_flow, shooting._backtrack
    batches = []
    rounds = []

    def recording_flow(F, L, x0, p0, *args, **kwargs):
        batches.append(np.shape(p0)[:-1])
        return flow(F, L, x0, p0, *args, **kwargs)

    def recording_backtrack(trial, x, step, todo, halvings):
        pending = np.array(todo)

        def recording_trial(idx, x_try):
            before = len(batches)
            better = trial(idx, x_try)
            rounds.append((batches[before:], np.flatnonzero(pending), idx))
            pending[idx[better]] = False
            return better

        return backtrack(recording_trial, x, step, todo, halvings)

    monkeypatch.setattr(shooting, "_hamiltonian_flow", recording_flow)
    monkeypatch.setattr(shooting, "_backtrack", recording_backtrack)
    seeds = make_seeds(3, 11, 2.0, seed=4)
    multi_start(HEISENBERG, QUAD_3, np.zeros(3), OFF_AXIS, 1.0, seeds, N=16)
    assert rounds
    for flows, pending, idx in rounds:
        np.testing.assert_array_equal(idx, pending)
        assert flows == [(len(pending),)]
    assert min(len(idx) for _, _, idx in rounds) < len(seeds)


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
