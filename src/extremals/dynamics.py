"""Integration of the affine system and the endpoint map's differential.

The state equation is xi' = sum_i u_i(s) X_i(xi) = B(xi) u(s). Everything
here runs on a fine grid of M = N * substeps RK4 steps laid uniformly over
the horizon [0, s], where N is the control grid count; sub-stepping
separates control resolution from ODE accuracy. The fine grid nests in the
control grid only when T * substeps / s is a whole number, as for s = T.
For any other horizon some RK4 steps straddle a kink of the piecewise-linear
control and lose order there.

Every integration, here and in the Hamiltonian flow of ``shooting``, runs
through one batched RK4 integrator, ``_rk4``. It takes a stage right-hand side
over a tuple of state arrays and keeps an alive mask over the batch: an
element dies when any of its components turns non-finite or leaves the
blow-up guard, and is then frozen at its last state. The callers here raise
``DivergenceError`` at the first death; the Hamiltonian flow keeps the mask.
The fundamental solution Psi below is not integrated in that loop but
multiplied out from the RK4 step matrices of its linear equation.

The differential of the endpoint map and its adjoint come from the
variational equation: with Psi the fundamental solution of Psi' = A(s) Psi,
A(s) = sum_i u_i(s) dX_i(xi(s)), and B(s) the matrix of field columns along
the trajectory,

    dE(u) v      = integral of Psi(T) Psi(s)^-1 B(s) v(s) ds,
    adjoint term = B(s)^T (Psi(s)^-1)^T Psi(T)^T lam.

Both use the same trapezoid weights on the same fine grid, so the duality
pairing <adjoint(lam), v> = lam . dE(v) is exact by transposition of the
quadrature sum; that identity is load-bearing for the Gram-based singularity
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controls import ControlPath
from .errors import DimensionError, DivergenceError, GridMismatchError

BLOWUP_GUARD = 1e12
DEFAULT_SUBSTEPS = 4
PSI_COND_FLAG = 1e12


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # (M+1, n)

    @property
    def endpoint(self):
        return self.states[-1]


def _interp_rows(values, T, s):
    """Piecewise-linear evaluation of (..., N+1, m) node values at times s."""
    N = values.shape[-2] - 1
    pos = np.clip(np.asarray(s, dtype=float), 0.0, T) * (N / T)
    idx = np.minimum(pos.astype(int), N - 1)
    w = (pos - idx)[:, None]
    lo = values[..., idx, :]
    hi = values[..., idx + 1, :]
    return np.moveaxis(lo + w * (hi - lo), -2, 0)


def _stage_controls(values, T_path, times, h):
    """Controls (M, 4, ..., m) at RK4 stage 0..3 of each step j, read at
    node j, the step's midpoint (stages 1 and 2) or node j + 1."""
    nodes = _interp_rows(values, T_path, times)
    half = _interp_rows(values, T_path, times[:-1] + h / 2.0)
    return np.stack((nodes[:-1], half, half, nodes[1:]), axis=1)


def _rk4(rhs, ys, h, M, alive=None):
    """The one fixed-step RK4 loop, batched over a tuple of state arrays.

    ``rhs(j, stage, ys)`` returns the derivatives of ``ys`` at RK4 stage
    0..3 of step j. All arrays in ``ys`` share the batch axes of ``ys[0]``,
    all but its last. An element dies when one of its components turns
    non-finite or exceeds BLOWUP_GUARD, or when ``rhs`` clears it in an
    ``alive`` mask the caller shares with it; it then keeps its last state,
    and the run stops once no element is left.

    Returns (trajectories, alive, died): node values shaped (M+1,) + y.shape
    per array, the final mask, and the step at which each element died
    (-1 while alive), so it died near s = died * h.
    """
    batch = ys[0].shape[:-1]
    shared = alive is not None
    alive = alive if shared else np.ones(batch, dtype=bool)
    died = np.full(batch, -1)
    outs = tuple(np.empty((M + 1,) + y.shape, dtype=y.dtype) for y in ys)
    for out, y in zip(outs, ys):
        out[0] = y
    for j in range(M):
        k1 = rhs(j, 0, ys)
        k2 = rhs(j, 1, [y + (h / 2.0) * k for y, k in zip(ys, k1)])
        k3 = rhs(j, 2, [y + (h / 2.0) * k for y, k in zip(ys, k2)])
        k4 = rhs(j, 3, [y + h * k for y, k in zip(ys, k3)])
        new = [y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
               for y, a, b, c, d in zip(ys, k1, k2, k3, k4)]
        # NaN fails every comparison, so one max per array guards the batch;
        # between guard trips only rhs can clear a mask, and only a shared one.
        if not (all([np.abs(y).max() <= BLOWUP_GUARD for y in new])
                and (not shared or alive.all())):
            for y in new:
                alive &= np.abs(y).reshape(batch + (-1,)).max(axis=-1) <= BLOWUP_GUARD
            died[~alive & (died < 0)] = j + 1
            new = [np.where(alive.reshape(batch + (1,) * (y.ndim - len(batch))),
                            y, old) for y, old in zip(new, ys)]
            if not alive.any():
                for out, y in zip(outs, new):
                    out[j + 1:] = y
                return outs, alive, died
        ys = new
        for out, y in zip(outs, ys):
            out[j + 1] = y
    return outs, alive, died


def _raise_if_dead(alive, died, h):
    if not np.all(alive):
        s = int(np.min(died[~alive])) * h
        raise DivergenceError(
            f"trajectory exceeded blow-up guard {BLOWUP_GUARD:g} near s = {s:.6g}",
            time=s)


def fine_grid(T, N, substeps=DEFAULT_SUBSTEPS):
    M = N * substeps
    return np.linspace(0.0, T, M + 1), T / M


def _integrate_states(F, values, T_path, x0, T, N, substeps):
    """Fine grid and RK4 states (M+1, ..., n) for node values (..., N+1, m)."""
    times, h = fine_grid(T, N, substeps)
    control = _stage_controls(values, T_path, times, h)
    x = np.asarray(x0, dtype=np.result_type(x0, control))
    x = np.broadcast_to(x, values.shape[:-2] + (x.shape[-1],)).copy()

    def rhs(j, stage, ys):
        return (np.einsum("...nm,...m->...n", F.field_matrix(ys[0]),
                          control[j, stage]),)

    (states,), alive, died = _rk4(rhs, (x,), h, len(times) - 1)
    _raise_if_dead(alive, died, h)
    return times, states


def integrate(F, u: ControlPath, x0, T=None, substeps=DEFAULT_SUBSTEPS) -> Trajectory:
    """RK4 solution on [0, T] (default T = u.T); M = u.N * substeps steps."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (F.n,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({F.n},)")
    if u.m != F.m:
        raise DimensionError(f"control has {u.m} channels, fields expect {F.m}")
    T = u.T if T is None else float(T)
    if not 0.0 < T <= u.T * (1.0 + 1e-12):
        raise GridMismatchError(f"horizon {T} outside the control domain [0, {u.T}]")
    times, states = _integrate_states(F, u.values, u.T, x0, T, u.N, substeps)
    return Trajectory(times=times, states=states)


def integrate_batch(F, values, x0, T, N=None, substeps=DEFAULT_SUBSTEPS):
    """States (M+1, ..., n) for a batch of node-value arrays (..., N+1, m).

    Accepts complex values: the RK4 recursion is polynomial in the data, so
    complex-step directional derivatives of the endpoint and of running
    costs are exact to machine precision.
    """
    values = np.asarray(values)
    N = values.shape[-2] - 1 if N is None else N
    return _integrate_states(F, values, T, x0, T, N, substeps)[1]


def endpoint(F, u, x0, T=None, substeps=DEFAULT_SUBSTEPS):
    return integrate(F, u, x0, T, substeps).endpoint


def trapezoid_weights(times):
    dt = np.diff(times)
    w = np.zeros(len(times))
    w[:-1] += dt / 2.0
    w[1:] += dt / 2.0
    return w


class DifferentialKernel:
    """Precomputed integral kernel of dE at a fixed (u, x0, T).

    Holds the fine grid with its RK4 states and Psi, and K(s) = Psi(T)
    Psi(s)^-1 B(s) with the trapezoid weights. ``apply_values`` maps one
    direction sampled on the fine grid, (M+1, m), or a stack of them,
    (..., M+1, m), to the images (..., n) in one einsum, as adjoints and the
    Gram operator are. Built once, applied many times.
    """

    def __init__(self, T, times, states, psis, weights, kernels):
        self.T = T
        self.times = times
        self.states = states
        self.psis = psis
        self.weights = weights
        self.kernels = kernels  # (M+1, n, m)

    @classmethod
    def build(cls, F, u: ControlPath, x0, T=None, substeps=DEFAULT_SUBSTEPS):
        """RK4 states and Psi, Psi(0) = I, on the fine grid, then K.

        The state loop records its stage states; one batched Jacobian call
        gives A at all 4M of them, and Psi_{j+1} = Phi_j Psi_j with Phi_j the
        RK4 step matrix of the linear equation Psi' = A Psi.
        """
        T = u.T if T is None else float(T)
        times, h = fine_grid(T, u.N, substeps)
        M = len(times) - 1
        control = _stage_controls(u.values, u.T, times, h)
        x = np.asarray(x0, dtype=float).copy()
        stages = np.empty((M, 4, F.n), dtype=np.result_type(x, control))

        def rhs(j, stage, ys):
            stages[j, stage] = ys[0]
            return (F.field_matrix(ys[0]) @ control[j, stage],)

        (states,), alive, died = _rk4(rhs, (x,), h, M)
        _raise_if_dead(alive, died, h)
        A = np.einsum("jsi,jsikl->sjkl", control, F.jacobian_stack(stages))
        eye = np.eye(F.n)
        k1 = A[0]
        k2 = A[1] @ (eye + (h / 2.0) * k1)
        k3 = A[2] @ (eye + (h / 2.0) * k2)
        k4 = A[3] @ (eye + h * k3)
        steps = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        psis = np.empty((M + 1, F.n, F.n), dtype=steps.dtype)
        psis[0] = eye
        for j in range(M):
            np.matmul(steps[j], psis[j], out=psis[j + 1])
        # The joint loop would have stopped at the first Psi beyond the guard.
        blown = ~(np.abs(psis).reshape(M + 1, -1).max(axis=1) <= BLOWUP_GUARD)
        _raise_if_dead(~blown, np.arange(M + 1), h)
        B = F.field_matrix(states)
        inv_b = np.linalg.solve(psis, B)          # Psi(s)^-1 B(s), batched
        kernels = np.einsum("nk,jkm->jnm", psis[-1], inv_b)
        return cls(T, times, states, psis, trapezoid_weights(times), kernels)

    @property
    def endpoint(self):
        return self.states[-1]

    def apply_values(self, v_values):
        """dE(u) v from samples (..., M+1, m) of v on the fine grid."""
        return np.einsum("j,jnm,...jm->...n", self.weights, self.kernels,
                         v_values)

    def apply(self, v: ControlPath):
        return self.apply_values(v.at(self.times))

    def adjoint_values(self, lam):
        return np.einsum("jnm,n->jm", self.kernels, lam)

    def adjoint(self, lam) -> ControlPath:
        return ControlPath(self.T, self.adjoint_values(lam))

    def gram(self):
        return np.einsum("j,jam,jbm->ab", self.weights, self.kernels,
                         self.kernels)


def _check_probe(u, v, T):
    if v.m != u.m:
        raise GridMismatchError(f"direction has {v.m} channels, control has {u.m}")
    if v.T < T * (1.0 - 1e-12):
        raise GridMismatchError(f"direction horizon {v.T} shorter than {T}")


def apply_dE(F, u, x0, T=None, v=None, substeps=DEFAULT_SUBSTEPS):
    """Directional derivative of the endpoint map at u in direction v."""
    T = u.T if T is None else float(T)
    _check_probe(u, v, T)
    return DifferentialKernel.build(F, u, x0, T, substeps).apply(v)


def adjoint_dE(F, u, x0, T=None, lam=None, substeps=DEFAULT_SUBSTEPS):
    """The path s -> B(s)^T (Psi(s)^-1)^T Psi(T)^T lam on the fine grid."""
    lam = np.asarray(lam, dtype=float)
    return DifferentialKernel.build(F, u, x0, T, substeps).adjoint(lam)


def gram_matrix(F, u, x0, T=None, substeps=DEFAULT_SUBSTEPS):
    """G_jk = <adjoint_dE(e_j), adjoint_dE(e_k)>_L2; symmetric PSD."""
    return DifferentialKernel.build(F, u, x0, T, substeps).gram()
