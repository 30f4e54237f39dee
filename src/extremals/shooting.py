"""Extremal solving by single shooting on the Hamiltonian system.

The flow integrated here is

    xi' = B(xi) u*,    p' = -A(xi, u*)^T p + d_xL(xi, u*),

with the feedback control u* = w(xi, B(xi)^T p) re-solved at every RK4
stage by ``lagrangian._legendre_newton``. For a cost whose d_uL is affine
in u, which covers every smooth built-in, that is one evaluator call and
one linear solve per stage; any other cost runs the masked damped Newton,
warm-started from the previous stage (one or two steps in practice) and
skipping the elements the flow has already frozen. The flow runs on the
RK4 integrator of ``dynamics``. The shooting unknown is p(0): forward
integration only, and the multiplier is read off as lam = p(T) on
convergence.

Everything is batched over seeds, including the final re-run of the flow
that builds the converged solutions. A blown-up or feedback-infeasible
batch element is frozen and marked dead in the integrator's alive mask instead
of raising, so one wild seed cannot take down a multi-start sweep; the
per-seed Newton uses least-squares steps because extremal families here are
routinely non-isolated (phase circles), which makes the shooting Jacobian
rank-deficient on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlPath, l2_distance
from .dynamics import (DEFAULT_SUBSTEPS, PSI_COND_FLAG, DifferentialKernel,
                       Trajectory, _rk4, fine_grid, integrate)
from .errors import DimensionError, NonConvergenceError
from .lagrangian import Lagrangian, _legendre_newton, trapezoid

SHOOT_TOL = 1e-8
SHOOT_MAX_ITER = 100
SHOOT_FD_STEP = 1e-6
SHOOT_MAX_HALVINGS = 10
DEDUP_TOL = 1e-5
STAGE_ONE_TOL = 1e-6
HANDOFF_TOL = 1e-3
POLISH_MAX_ITER = 30
JAC_TRUNCATION = 1e-3


@dataclass(frozen=True)
class CostatePath:
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # (M+1, n)
    ill_conditioned: bool = False

    @property
    def final(self):
        return self.values[-1]


@dataclass(frozen=True)
class ExtremalSolution:
    u: ControlPath
    xi: Trajectory
    p: np.ndarray = field(repr=False)       # (M+1, n) on xi.times
    lam: np.ndarray = None
    p0: np.ndarray = None
    phi: float = 0.0
    residuals: dict = None
    converged: bool = False
    iterations: int = 0
    x0: np.ndarray = None
    target: np.ndarray = None
    u_fine: ControlPath = None

    @property
    def T(self):
        return self.u.T

    @property
    def N(self):
        return self.u.N


def _hamiltonian_flow(F, L, x0, p0, T, N, substeps=DEFAULT_SUBSTEPS):
    """Batched feedback flow from stacked initial costates p0 (..., n).

    Returns (times, xs, ps, us, alive): arrays shaped (M+1,) + batch + (dim,);
    alive marks elements that stayed finite and feedback-solvable. Dead
    elements keep their last finite state.
    """
    p0 = np.asarray(p0, dtype=float)
    batch = p0.shape[:-1]
    times, h = fine_grid(T, N, substeps)
    M = len(times) - 1
    x = np.broadcast_to(np.asarray(x0, dtype=float), batch + (F.n,)).copy()
    alive = np.ones(batch, dtype=bool)
    w = np.zeros(batch + (F.m,))
    us = np.zeros((M + 1,) + batch + (F.m,))

    def rhs(j, stage, ys):
        nonlocal w, alive
        xv, pv = ys
        B = F.field_matrix(xv)
        w, ok = _legendre_newton(L, xv, np.einsum("...nm,...n->...m", B, pv),
                                 w, alive)
        alive &= ok
        if stage == 0:
            us[j] = w
        dx = np.einsum("...nm,...m->...n", B, w)
        dp = -np.einsum("...jk,...j->...k", F.a_matrix(xv, w), pv) + L.grad_x(xv, w)
        return dx, dp

    (xs, ps), _, _ = _rk4(rhs, (x, p0.copy()), h, M, alive)
    rhs(M, 0, (xs[-1], ps[-1]))
    return times, xs, ps, us, alive


def _truncated_step(J, r):
    """Truncated pseudo-inverse steps J^+ r for stacked (n, n) Jacobians.

    Symmetric targets leave an exact null direction whose discretized
    singular value is O(h^4) noise; a plain lstsq step would divide residual
    leakage by it and fling the iterate along the symmetry orbit. U^T is
    made C-ordered, the layout of one Jacobian's U[:, keep].T, so that numpy
    picks the same BLAS kernel.
    """
    U, sv, Vt = np.linalg.svd(J)
    keep = sv > JAC_TRUNCATION * sv[..., :1]
    ut_r = np.ascontiguousarray(np.swapaxes(U, -1, -2)) @ r[..., None]
    coeff = np.divide(ut_r[..., 0], sv, out=np.zeros_like(sv), where=keep)
    return (np.swapaxes(Vt, -1, -2) @ coeff[..., None])[..., 0]


def _shoot_batch(F, L, x0, x, T, N, p0, tol, max_iter, substeps):
    """Damped least-squares Newton on the batched shooting residual.

    Returns (p0, resid_norm, converged, iterations, failed) per element.
    """
    p0 = np.asarray(p0, dtype=float).copy()
    batch = p0.shape[:-1]
    n = F.n
    target = np.asarray(x, dtype=float)

    def residual(pts):
        _, xs, _, _, alive = _hamiltonian_flow(F, L, x0, pts, T, N, substeps)
        r = xs[-1] - target
        rn = np.linalg.norm(r, axis=-1)
        rn = np.where(alive, rn, np.inf)
        return r, rn

    r, rn = residual(p0)
    failed = ~np.isfinite(rn)
    iterations = np.zeros(batch, dtype=int)
    stall_rn = rn.copy()
    for it in range(max_iter):
        active = (rn >= tol) & ~failed
        if not np.any(active):
            break
        # Central-difference Jacobian, all probes in one batched flow:
        # probes 2k and 2k + 1 move p0 by +step and -step along axis k.
        step = SHOOT_FD_STEP * (1.0 + np.linalg.norm(p0, axis=-1))
        axes = np.eye(n).reshape((n,) + (1,) * len(batch) + (n,))
        shift = step[..., None] * axes
        probes = np.stack((p0 + shift, p0 - shift), axis=1)
        _, xs, _, _, alive = _hamiltonian_flow(
            F, L, x0, probes.reshape((2 * n,) + batch + (n,)), T, N, substeps)
        ends = xs[-1].reshape((n, 2) + batch + (n,))
        jac_ok = np.all(alive, axis=0)
        J = np.moveaxis((ends[:, 0] - ends[:, 1]) / (2.0 * step[..., None]), 0, -1)

        moving = active & jac_ok
        failed = failed | (active & ~jac_ok)
        # A zero Jacobian keeps no singular value: a zero step.
        delta = _truncated_step(np.where(moving[..., None, None], J, 0.0), r)

        alpha = np.ones(batch)
        accepted = ~moving
        best = p0.copy()
        best_r = r.copy()
        for _ in range(SHOOT_MAX_HALVINGS):
            cand = p0 - (alpha * moving)[..., None] * delta
            r_try, rn_try = residual(cand)
            better = moving & ~accepted & (rn_try < rn)
            best = np.where(better[..., None], cand, best)
            best_r = np.where(better[..., None], r_try, best_r)
            rn = np.where(better, rn_try, rn)
            accepted = accepted | better
            if np.all(accepted):
                break
            alpha = np.where(accepted, alpha, alpha / 2.0)
        stuck = moving & ~accepted
        failed = failed | stuck
        p0, r = best, best_r
        iterations = iterations + moving.astype(int)
        # Seeds that wander without real progress would otherwise burn the
        # whole iteration budget; anything that cannot even halve its
        # residual over 8 iterations will never cover 8 more decades.
        # Failed elements keep their best finite residual: a later polish
        # on a finer map may still rescue them from that point.
        if (it + 1) % 8 == 0:
            stalled = active & ~failed & (rn > 0.5 * stall_rn) & (rn >= tol)
            failed = failed | stalled
            stall_rn = rn.copy()
    converged = (rn < tol) & ~failed
    return p0, rn, converged, iterations, failed


def _build_solution(F, L, x0, x, T, N, p0, rn, iterations, substeps) -> list:
    """Converged extremals from stacked p0 (k, n), by one batched flow."""
    times, xs, ps, us, _ = _hamiltonian_flow(F, L, x0, p0, T, N, substeps)
    sols = []
    for i in range(len(p0)):
        xi_s = xs[:, i].copy()
        p_s = ps[:, i].copy()
        u_s = us[:, i].copy()
        lam = p_s[-1].copy()

        coarse = ControlPath(T, u_s[::max(1, (len(times) - 1) // N)])
        fine = ControlPath(T, u_s)
        phi = trapezoid(L.value(xi_s, u_s), times)

        stat = float(np.max(np.linalg.norm(
            L.grad_u(xi_s, u_s) - F.momentum(xi_s, p_s), axis=-1)))
        h_vals = (np.einsum("jm,jm->j", F.momentum(xi_s, p_s), u_s)
                  - L.value(xi_s, u_s))
        drift = float(np.max(np.abs(h_vals - h_vals[0])) / (1.0 + abs(h_vals[0])))
        residuals = {
            "endpoint_gap": float(rn[i]),
            "stationarity": stat,
            "hamiltonian_drift": drift,
        }
        sols.append(ExtremalSolution(
            u=coarse, xi=Trajectory(times=times, states=xi_s), p=p_s, lam=lam,
            p0=p0[i].copy(), phi=float(phi), residuals=residuals,
            converged=True, iterations=int(iterations[i]),
            x0=np.asarray(x0, dtype=float), target=np.asarray(x, dtype=float),
            u_fine=fine))
    return sols


def _shoot_two_stage(F, L, x0, x, T, N, seeds, tol, max_iter, substeps):
    """Coarse-substep Newton first, then polish candidates on the fine map.

    The feedback flow with substeps=1 reaches the same basins at a quarter
    of the cost, but its endpoint map carries an O(h^4) defect, and for
    symmetric targets that defect is a hard residual floor no iteration
    can cross. Stage one is therefore only a warm-start generator: every
    iterate that got near some basin is handed to the fine map, and
    convergence is judged there alone.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if substeps <= 1:
        return _shoot_batch(F, L, x0, x, T, N, seeds, tol, max_iter, substeps)
    stage_tol = max(tol, STAGE_ONE_TOL)
    p1, rn1, conv1, it1, _ = _shoot_batch(
        F, L, x0, x, T, N, seeds, stage_tol, max_iter, 1)
    p_out = p1.copy()
    rn_out = rn1.copy()
    conv_out = np.zeros(len(seeds), dtype=bool)
    iters = it1.copy()
    failed = np.ones(len(seeds), dtype=bool)
    idx = np.nonzero(np.isfinite(rn1) & (rn1 < HANDOFF_TOL))[0]
    if idx.size:
        p2, rn2, conv2, it2, failed2 = _shoot_batch(
            F, L, x0, x, T, N, p1[idx], tol, POLISH_MAX_ITER, substeps)
        p_out[idx] = p2
        rn_out[idx] = rn2
        conv_out[idx] = conv2
        iters[idx] += it2
        failed[idx] = failed2 | ~conv2
    return p_out, rn_out, conv_out, iters, failed


def shoot_extremal(F, L: Lagrangian, x0, x, T, p0=None, N=64,
                   tol=SHOOT_TOL, max_iter=SHOOT_MAX_ITER,
                   substeps=DEFAULT_SUBSTEPS) -> ExtremalSolution:
    """Newton on p(0) driving the feedback flow's endpoint to x."""
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    if x0.shape != (F.n,) or x.shape != (F.n,):
        raise DimensionError(f"x0 and x must have shape ({F.n},)")
    p0 = np.zeros(F.n) if p0 is None else np.asarray(p0, dtype=float)
    pf, rn, conv, iters, _ = _shoot_two_stage(
        F, L, x0, x, T, N, p0[None], tol, max_iter, substeps)
    if not conv[0]:
        best = float(rn[0]) if np.isfinite(rn[0]) else float("inf")
        raise NonConvergenceError(
            f"shooting did not reach endpoint tolerance {tol:g} "
            f"(best residual {best:.3e})",
            best_residual=best, best_p0=pf[0])
    return _build_solution(F, L, x0, x, T, N, pf, rn, iters, substeps)[0]


def make_seeds(n, count, scale, seed=0):
    """Default seed family: the origin plus Gaussian costates of width scale."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.zeros((1, n)), rng.normal(0.0, scale, size=(count, n))])


def multi_start(F, L: Lagrangian, x0, x, T, seeds, N=64, tol=SHOOT_TOL,
                max_iter=SHOOT_MAX_ITER, substeps=DEFAULT_SUBSTEPS,
                dedup_tol=DEDUP_TOL):
    """Batched shooting from every seed; distinct converged extremals.

    Solutions are deduplicated by exact piecewise-linear L2 distance on the
    controls (tie-break toward smaller |lam|) and sorted by (phi, |lam|).
    Returns a list; empty means no seed converged.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    pf, rn, conv, iters, _ = _shoot_two_stage(
        F, L, np.asarray(x0, float), np.asarray(x, float), T, N, seeds,
        tol, max_iter, substeps)
    sols = _build_solution(F, L, x0, x, T, N, pf[conv], rn[conv], iters[conv],
                           substeps) if conv.any() else []
    sols.sort(key=lambda s: (s.phi, float(np.linalg.norm(s.lam))))
    kept = []
    for s in sols:
        if all(l2_distance(s.u, k.u) >= dedup_tol for k in kept):
            kept.append(s)
    return kept


def costate_from_lambda(F, L: Lagrangian, u: ControlPath, x0, T=None,
                        lam=None, substeps=DEFAULT_SUBSTEPS) -> CostatePath:
    """Closed-form costate: transport lam back and absorb the d_xL source.

    p(s) = (Psi(s)^-1)^T [ Psi(T)^T lam - int_s^T Psi(r)^T d_xL(xi, u) dr ],
    evaluated with a reversed cumulative trapezoid on the fine grid.
    """
    T = u.T if T is None else float(T)
    lam = np.asarray(lam, dtype=float)
    kern = DifferentialKernel.build(F, u, x0, T, substeps)
    times, states, psis = kern.times, kern.states, kern.psis
    u_nodes = u.at(times)
    gx = L.grad_x(states, u_nodes)
    integrand = np.einsum("jnk,jn->jk", psis, gx)
    dt = np.diff(times)
    cells = dt[:, None] * (integrand[:-1] + integrand[1:]) / 2.0
    tail = np.zeros_like(integrand)
    tail[:-1] = np.cumsum(cells[::-1], axis=0)[::-1]
    rhs = psis[-1].T @ lam - tail
    p = np.linalg.solve(np.transpose(psis, (0, 2, 1)), rhs[..., None])[..., 0]
    conds = np.linalg.cond(psis)
    return CostatePath(times=times, values=p,
                       ill_conditioned=bool(np.max(conds) > PSI_COND_FLAG))


def extremality_residual(F, L: Lagrangian, u: ControlPath, x0, x, T=None,
                         lam=None, substeps=DEFAULT_SUBSTEPS):
    """Feasibility and stationarity of (u, lam) as a candidate extremal."""
    T = u.T if T is None else float(T)
    traj = integrate(F, u, np.asarray(x0, float), T, substeps)
    feas = float(np.linalg.norm(traj.endpoint - np.asarray(x, dtype=float)))
    cost = costate_from_lambda(F, L, u, x0, T, lam, substeps)
    u_nodes = u.at(traj.times)
    gap = L.grad_u(traj.states, u_nodes) - F.momentum(traj.states, cost.values)
    return {"feasibility": feas,
            "stationarity": float(np.max(np.linalg.norm(gap, axis=-1)))}
