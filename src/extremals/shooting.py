"""Extremal solving by single shooting on the Hamiltonian system.

The flow integrated here is

    xi' = B(xi) u*,    p' = -A(xi, u*)^T p + d_xL(xi, u*),

with the feedback control u* = w(xi, B(xi)^T p) re-solved at every RK4
stage, on the stacked state y = (xi, p). ``_hamiltonian_flow`` runs one
RK4 loop for every cost, ``Lagrangian.flow_loop``: straight-line
Python-float code generated per field set, run once per element at every
batch size. A heisenberg step takes about 1.6 us with the folded stage of
every smooth built-in and 5 to 7 us with the Newton stage of an
x-dependent H or a quartic cost (2-core x86-64 box, Python 3.11.7, numpy
2.4.6). An element dies at the step where a feedback solve fails, a u* is
not finite or the new state leaves the blow-up guard. It then keeps its
last state at every later node, its controls after that step are NaN, and
its closing control is the stage's at its frozen state.

The shooting unknown is p(0): forward integration only, and the
multiplier is read off as lam = p(T) on convergence.

A Newton iteration runs no probe flow. A flow keeps only its nodes
(xi, p, u*), and ``_shooting_jacobian`` alone forms the inputs of the four
RK4 stage calls of each step, from the nodes of the flows it
differentiates. It reads d xi(T) / d p0 off the product of the RK4 step
matrices of the variational equation, with the stage-rate Jacobian of
``Lagrangian.rate_jacobian``: the exact derivative of the discrete
shooting map, as HamPath takes it from the variational system (Caillau,
Cots & Gergaud, Optim. Methods Softw. 27(2), 2012). Over a folded stage
the rate Jacobian is one generated evaluator with no solve, and each
block's step matrices are multiplied by ``dynamics._tree_product``, a
pairwise tree of batched matmuls: a heisenberg Jacobian of 64 steps takes
about 0.2 ms at one seed and 0.3 ms at three, against 0.39 and 0.74 ms
with a solve on H = I per stage and one matmul per step (2-core x86-64
box, Python 3.11.7, numpy 2.4.6). It is formed when a seed's flow is
accepted, the first one or a line-search trial's, and only where the seed
iterates on from it, a block of steps at a time, so rejected trials and
polish flows form no stage input. The line search,
``dynamics._backtrack``, then flows alpha = 1 for the moving seeds and,
for those it rejects, every remaining halving in one stacked flow: one
sequential flow per iteration, two when a full step is rejected.

Everything is batched over seeds: ``shoot_extremals`` returns one extremal
per row of a p(0) stack, ``shoot_extremal`` is its batch-of-one case, and
``multi_start`` keeps the distinct converged extremals of a seed family. A
solution is built from the flow its shooting Newton accepted, never re-run.
A blown-up or feedback-infeasible batch element is frozen and marked dead
instead of raising, so one wild seed cannot take down a multi-start sweep;
the per-seed Newton uses least-squares steps because extremal families here
are routinely non-isolated (phase circles), which makes the shooting
Jacobian rank-deficient on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlPath, l2_distance
from .dynamics import (DEFAULT_SUBSTEPS, PSI_COND_FLAG,
                       DifferentialKernel, Trajectory, _backtrack,
                       _run_loops, _step_matrices, _tree_product, fine_grid)
from .errors import DimensionError, NonConvergenceError
from .lagrangian import Lagrangian, trapezoid

SHOOT_TOL = 1e-8
SHOOT_MAX_ITER = 100
SHOOT_MAX_HALVINGS = 10
DEDUP_TOL = 1e-5
STAGE_ONE_TOL = 1e-6
HANDOFF_TOL = 1e-3
POLISH_MAX_ITER = 30
JAC_TRUNCATION = 1e-3
JACOBIAN_BLOCK = 64


@dataclass(frozen=True)
class CostatePath:
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # (M+1, n)
    ill_conditioned: bool = False


@dataclass(frozen=True)
class ExtremalSolution:
    u: ControlPath
    xi: Trajectory
    p: np.ndarray = field(repr=False)       # (M+1, n) on xi.times
    lam: np.ndarray = None
    p0: np.ndarray = None
    phi: float = 0.0
    residuals: dict = None
    iterations: int = 0
    u_fine: ControlPath = None

    @property
    def T(self):
        return self.u.T

    @property
    def N(self):
        return self.u.N


def _hamiltonian_flow(F, L, x0, p0, T, N, substeps=DEFAULT_SUBSTEPS):
    """Batched feedback flow from stacked initial costates p0 (..., n).

    Integrates the stacked state y = (xi, p), shaped batch + (2n,), and
    returns (times, xs, ps, us, alive): views shaped (M+1,) + batch +
    (dim,) of the node rows (xi, p, u*), us the controls at the nodes,
    which are RK4 stage 0's; alive marks elements that stayed finite and
    feedback-solvable. The nodes are all a flow keeps:
    ``_shooting_jacobian`` re-forms the stage inputs from them.

    ``Lagrangian.flow_loop`` runs once per element, whatever the batch.
    Over a folded stage one stage call on all nodes then gives us, the
    closing control included: the loop's operations on its expressions,
    so its bits; a Newton stage's loop keeps us itself. Dead elements
    follow the module docstring's rule.
    """
    p0 = np.asarray(p0, dtype=float)
    batch = p0.shape[:-1]
    times, h = fine_grid(T, N, substeps)
    M = len(times) - 1
    n, m = F.n, F.m
    B = int(np.prod(batch))
    y = np.empty((B, 2 * n))
    y[:, :n] = np.asarray(x0, dtype=float)
    y[:, n:] = p0.reshape(B, n)
    stage, folded, loop = L._flow(F)
    rows = np.empty((M + 1, B, 2 * n + m))
    ys, us = rows[..., :2 * n], rows[..., 2 * n:]
    died = _run_loops(loop, ((start, range(M), float(h))
                             for start in y.tolist()),
                      rows if folded is None else ys)
    if folded is not None:
        # A frozen dead element's controls may overflow; its death step
        # reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            us[:] = stage(ys, None)[0]
    for b in np.flatnonzero(died >= 0):
        us[died[b]:M, b] = np.nan
    alive = (died < 0) & np.isfinite(us[M]).all(axis=-1)
    rows = rows.reshape((M + 1,) + batch + (2 * n + m,))
    return (times, rows[..., :n], rows[..., n:2 * n], rows[..., 2 * n:],
            alive.reshape(batch))


def _shooting_jacobian(F, L, flow, h):
    """d xi(T) / d p0 (K, n, n) of K discrete flows with step h.

    flow = (xs, ps, us) holds the flows' nodes, shaped (M+1, K, dim). The
    inputs (xi, p, u*) of each step's four RK4 stage calls are re-formed
    from them: the stage at the node y, warm-started from its u*, gives
    k1, then y + (h/2) k1, y + (h/2) k2 and y + h k3 give the rest, each
    warm-started from the u* before it. That is the flow's arithmetic,
    and its bits, since the feedback solve ends each element as in a
    batch of one and takes no step from a solved warm start. The
    stage-rate Jacobians give the RK4 step matrices of the variational
    equation, and their product, started from d y(0) / d p0 = (0, I), is
    the derivative of the flow's own RK4 map.
    Both are formed JACOBIAN_BLOCK steps at a time, so the memory held
    does not grow with the horizon. Each block's steps are multiplied by
    ``dynamics._tree_product``, about log2 JACOBIAN_BLOCK batched matmuls,
    and the block's product is applied to the product so far in one more;
    it differs from a fold of one matmul per step by rounding only. No
    prefix is formed, as ``dynamics._step_products``' pair scan would.
    """
    n = F.n
    xs, ps, us = (a[:-1] for a in flow)   # the nodes each step starts from
    stage, jacobian = L.flow_stage(F), L.rate_jacobian(F)
    Y = np.zeros(us.shape[1:2] + (2 * n, n))
    Y[:, n:] = np.eye(n)
    for j in range(0, len(us), JACOBIAN_BLOCK):
        block = slice(j, j + JACOBIAN_BLOCK)
        y = np.concatenate((xs[block], ps[block]), axis=-1)
        w, k = stage(y, us[block])
        inputs = [np.concatenate((y, w), axis=-1)]
        for scale in (h / 2.0, h / 2.0, h):
            yi = y + scale * k
            w, k = stage(yi, w)
            inputs.append(np.concatenate((yi, w), axis=-1))
        Y = _tree_product(_step_matrices(jacobian(np.stack(inputs)), h)) @ Y
    return Y[:, :n]


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
    """Damped least-squares Newton on the shooting residual of seeds (k, n).

    Returns (p0, resid_norm, converged, iterations) per element and the
    (xs, ps, us) of the flow behind each residual, batch on axis 1.
    """
    p0 = np.asarray(p0, dtype=float).copy()
    k, n = p0.shape
    h = fine_grid(T, N, substeps)[1]
    # The exact Jacobian of each seed's accepted flow, formed when the flow
    # is accepted and only if the seed iterates on from it.
    J = np.full((k, n, n), np.nan)

    def residual(pts):
        _, xs, ps, us, alive = _hamiltonian_flow(F, L, x0, pts, T, N,
                                                 substeps)
        rn = np.linalg.norm(xs[-1] - x, axis=-1)
        return np.where(alive, rn, np.inf), (xs, ps, us)

    def differentiate(rows, flow, cols):
        """Form J of the seed rows, whose accepted flows are the columns
        cols of this flow, where the seed iterates on: where its residual
        is finite and at least tol."""
        on = (rn[rows] >= tol) & np.isfinite(rn[rows])
        if on.any():
            c = cols[on]
            J[rows[on]] = _shooting_jacobian(
                F, L, [a[:, c] for a in flow], h)

    rn, flow = residual(p0)
    differentiate(np.arange(k), flow, np.arange(k))
    xs = flow[0]   # the line search keeps the flow arrays in place
    failed = ~np.isfinite(rn)
    iterations = np.zeros(k, dtype=int)
    stall_rn = rn.copy()

    def trial(idx, p_try):
        rn_try, flow_try = residual(p_try)

        def keep(sel):
            rn[idx[sel]] = rn_try[sel]
            for kept, new in zip(flow, flow_try):
                kept[..., idx[sel], :] = new[..., sel, :]
            differentiate(idx[sel], flow_try, sel)

        return rn_try < rn[idx], keep

    for it in range(max_iter):
        active = (rn >= tol) & ~failed
        if not np.any(active):
            break
        jac_ok = np.isfinite(J).all(axis=(1, 2))
        moving = active & jac_ok
        failed = failed | (active & ~jac_ok)
        # A zero Jacobian keeps no singular value: a zero step.
        delta = _truncated_step(np.where(moving[:, None, None], J, 0.0),
                                xs[-1] - x)
        p0, stuck = _backtrack(trial, p0, delta, moving, SHOOT_MAX_HALVINGS)
        failed = failed | stuck
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
    return p0, rn, converged, iterations, flow[:3]


def _build_solution(F, L, T, N, shot, substeps) -> list:
    """The converged extremals of a ``_shoot_two_stage`` result, assembled
    from the flows its Newton accepted; no flow is run again."""
    p0, rn, conv, iterations, (xs, ps, us) = shot
    times, _ = fine_grid(T, N, substeps)
    sols = []
    for i in np.flatnonzero(conv):
        xi_s, p_s, u_s = (a[:, i].copy() for a in (xs, ps, us))
        coarse = ControlPath(T, u_s[::max(1, (len(times) - 1) // N)])
        fine = ControlPath(T, u_s)
        phi = trapezoid(L.value(xi_s, u_s), times)

        z = F.momentum(xi_s, p_s)
        stat = float(np.max(np.linalg.norm(L.grad_u(xi_s, u_s) - z, axis=-1)))
        h_vals = np.einsum("jm,jm->j", z, u_s) - L.value(xi_s, u_s)
        drift = float(np.max(np.abs(h_vals - h_vals[0])) / (1.0 + abs(h_vals[0])))
        residuals = {
            "endpoint_gap": float(rn[i]),
            "stationarity": stat,
            "hamiltonian_drift": drift,
        }
        sols.append(ExtremalSolution(
            u=coarse, xi=Trajectory(times=times, states=xi_s), p=p_s,
            lam=p_s[-1].copy(),
            p0=p0[i].copy(), phi=float(phi), residuals=residuals,
            iterations=int(iterations[i]), u_fine=fine))
    return sols


def _shoot_two_stage(F, L, x0, x, T, N, seeds, tol, max_iter, substeps):
    """Coarse-substep Newton first, then polish candidates on the fine map.

    The feedback flow with substeps=1 reaches the same basins at a quarter
    of the cost, but its endpoint map carries an O(h^4) defect, and for
    symmetric targets that defect is a hard residual floor no iteration
    can cross. Stage one is therefore only a warm-start generator: every
    iterate that got near some basin is handed to the fine map, and
    convergence is judged there alone. x0 and x must have shape (n,) and
    the seeds (k, n), k > 0.
    """
    x0, x, seeds = (np.asarray(a, dtype=float) for a in (x0, x, seeds))
    if x0.shape != (F.n,) or x.shape != (F.n,) or seeds.ndim != 2 \
            or seeds.shape[1] != F.n or not len(seeds):
        raise DimensionError(f"x0 and x must have shape ({F.n},) and p0 "
                             f"(k, {F.n}) with k > 0")
    if substeps <= 1:
        return _shoot_batch(F, L, x0, x, T, N, seeds, tol, max_iter, substeps)
    stage_tol = max(tol, STAGE_ONE_TOL)
    p0, rn, _, iters, _ = _shoot_batch(
        F, L, x0, x, T, N, seeds, stage_tol, max_iter, 1)
    conv = np.zeros(len(seeds), dtype=bool)
    # Only polished elements can converge, so only their fine flows are kept.
    flow = tuple(np.zeros((N * substeps + 1, len(seeds), dim))
                 for dim in (F.n, F.n, F.m))
    idx = np.flatnonzero(np.isfinite(rn) & (rn < HANDOFF_TOL))
    if idx.size:
        p0[idx], rn[idx], conv[idx], it2, flow2 = _shoot_batch(
            F, L, x0, x, T, N, p0[idx], tol, POLISH_MAX_ITER, substeps)
        iters[idx] += it2
        for out, kept in zip(flow, flow2):
            out[:, idx] = kept
    return p0, rn, conv, iters, flow


def shoot_extremals(F, L: Lagrangian, x0, x, T, p0, N=64, tol=SHOOT_TOL,
                    max_iter=SHOOT_MAX_ITER,
                    substeps=DEFAULT_SUBSTEPS) -> list:
    """One batched Newton on p(0) per row of the (k, n) stack p0.

    Returns the k extremals in row order, each as its batch of one would;
    raises NonConvergenceError (best residual and p0) for the first failure.
    """
    shot = _shoot_two_stage(F, L, x0, x, T, N, p0, tol, max_iter, substeps)
    pf, rn, conv = shot[:3]
    if not conv.all():
        i = int(np.argmin(conv))
        best = float(rn[i]) if np.isfinite(rn[i]) else float("inf")
        raise NonConvergenceError(
            f"shooting from p0 row {i} did not reach endpoint tolerance "
            f"{tol:g} (best residual {best:.3e})",
            best_residual=best, best_p0=pf[i])
    return _build_solution(F, L, T, N, shot, substeps)


def shoot_extremal(F, L: Lagrangian, x0, x, T, p0=None, N=64,
                   tol=SHOOT_TOL, max_iter=SHOOT_MAX_ITER,
                   substeps=DEFAULT_SUBSTEPS) -> ExtremalSolution:
    """Newton on p(0) driving the feedback flow's endpoint to x: the
    batch-of-one case of ``shoot_extremals``, from p0 = 0 by default."""
    p0 = np.zeros((1, F.n)) if p0 is None else np.asarray(p0, dtype=float)[None]
    return shoot_extremals(F, L, x0, x, T, p0, N, tol, max_iter, substeps)[0]


def make_seeds(n, count, scale, seed=0):
    """Default seed family: the origin plus Gaussian costates of width scale."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.zeros((1, n)), rng.normal(0.0, scale, size=(count, n))])


def multi_start(F, L: Lagrangian, x0, x, T, seeds, N=64, tol=SHOOT_TOL,
                max_iter=SHOOT_MAX_ITER, substeps=DEFAULT_SUBSTEPS,
                dedup_tol=DEDUP_TOL):
    """Batched shooting from every seed; distinct converged extremals.

    Solutions are deduplicated by exact piecewise-linear L2 distance on the
    controls, keeping the one with the smaller |lam| of a close pair on one
    cost level. They come out by cost level, then by seed row. A level is a
    run of costs that, sorted, lie closer than ``dedup_tol`` each to the
    next, so it has no fixed edges: a roundoff-level change of phi neither
    reorders nor splits the extremals of one level. Returns a list; empty
    means no seed converged.
    """
    shot = _shoot_two_stage(F, L, x0, x, T, N, seeds, tol, max_iter, substeps)
    sols = _build_solution(F, L, T, N, shot, substeps)
    # _build_solution keeps seed row order, so a list index orders rows.
    phi = np.array([s.phi for s in sols])
    order = np.argsort(phi, kind="stable")
    level = np.empty(len(sols), dtype=int)
    level[order] = np.cumsum(np.diff(phi[order], prepend=phi[order[:1]])
                             >= dedup_tol)
    kept = []
    for i in sorted(range(len(sols)), key=lambda i: (
            level[i], float(np.linalg.norm(sols[i].lam)), i)):
        if all(l2_distance(sols[i].u, sols[k].u) >= dedup_tol for k in kept):
            kept.append(i)
    return [sols[i] for i in sorted(kept, key=lambda i: (level[i], i))]


def costate_from_lambda(F, L: Lagrangian, u: ControlPath, x0, T=None,
                        lam=None, substeps=DEFAULT_SUBSTEPS) -> CostatePath:
    """Closed-form costate: transport lam back and absorb the d_xL source.

    p(s) = (Psi(s)^-1)^T [ Psi(T)^T lam - int_s^T Psi(r)^T d_xL(xi, u) dr ],
    evaluated with a reversed cumulative trapezoid on the fine grid.
    """
    kern = DifferentialKernel.build(F, u, x0, T, substeps)
    conds = np.linalg.cond(kern.psis)
    return CostatePath(times=kern.times,
                       values=_costate_with_kernel(L, kern, u, lam),
                       ill_conditioned=bool(np.max(conds) > PSI_COND_FLAG))


def _costate_with_kernel(L: Lagrangian, kern, u: ControlPath, lam):
    """``costate_from_lambda``'s values (M+1, n) on an already built kernel."""
    lam = np.asarray(lam, dtype=float)
    times, states, psis = kern.times, kern.states, kern.psis
    gx = L.grad_x(states, u.at(times))
    integrand = np.einsum("jnk,jn->jk", psis, gx)
    dt = np.diff(times)
    cells = dt[:, None] * (integrand[:-1] + integrand[1:]) / 2.0
    tail = np.zeros_like(integrand)
    tail[:-1] = np.cumsum(cells[::-1], axis=0)[::-1]
    rhs = psis[-1].T @ lam - tail
    return np.linalg.solve(np.transpose(psis, (0, 2, 1)), rhs[..., None])[..., 0]


def extremality_residual(F, L: Lagrangian, u: ControlPath, x0, x, T=None,
                         lam=None, substeps=DEFAULT_SUBSTEPS):
    """Feasibility and stationarity of (u, lam) as a candidate extremal,
    both read off one endpoint-differential kernel."""
    kern = DifferentialKernel.build(F, u, x0, T, substeps)
    feas = float(np.linalg.norm(kern.endpoint - np.asarray(x, dtype=float)))
    p = _costate_with_kernel(L, kern, u, lam)
    gap = L.grad_u(kern.states, u.at(kern.times)) - F.momentum(kern.states, p)
    return {"feasibility": feas,
            "stationarity": float(np.max(np.linalg.norm(gap, axis=-1)))}
