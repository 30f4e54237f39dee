"""Integration of the affine system and the endpoint map's differential.

The state equation is xi' = sum_i u_i(s) X_i(xi) = B(xi) u(s). Everything
here runs on a fine grid of M = N * substeps RK4 steps laid uniformly over
the horizon [0, s], where N is the control grid count; sub-stepping
separates control resolution from ODE accuracy. The fine grid nests in the
control grid only when T * substeps / s is a whole number, as for s = T.
For any other horizon some RK4 steps straddle a kink of the piecewise-linear
control and lose order there. Each element of a batch may carry its own
horizon, and then has its own fine grid and step.

The state equation has one loop on it, ``_states``, shared by
``integrate``, ``integrate_batch`` and the kernel builds, so a trajectory
and a kernel of one control hold the same states bit for bit. It runs each
control alone through the RK4 loop its field set generated at construction
(``fields._state_loop``): straight-line Python-float code for the rates
sum_i u_i X_i(xi), the stage inputs, the RK4 combination
y + (h/6) (k1 + 2 k2 + 2 k3 + k4) and the blow-up guard. The loop keeps
only the node states. A kernel build, the one reader of the stage
inputs, re-forms them for the elements it builds from their nodes, in
three batched calls of the field set's compiled rates
(``FieldSet._rates``): the loop's expressions and operations, so the
loop's stage inputs bit for bit. An element dies when any of its
components turns non-finite or leaves the guard, and is then frozen at
its last state; ``integrate`` and ``integrate_batch`` raise
``DivergenceError`` at the first death. Over numpy arrays a heisenberg
step at batch one cost about 21 us, nearly all of it dispatch on (1, 3)
arrays; the generated loop takes about 1.4 us per step, conversions
included (1.9 us while it kept its stage inputs, on the same box). The
array loop's cost hardly grows with the batch, so it would win only from
about 22 controls integrated together, more than a chart query or a
chart build integrates at once (2-core x86-64 box, Python 3.11.7, numpy
2.4.6).

The Hamiltonian flow of every cost runs the loop ``Lagrangian.flow_loop``
generates, one element at a time; over a folded stage its RK4 text comes
from ``fields._rk4_loop``, the emitter of the state loop, and
``_run_loops`` runs every generated loop, so a dead element is frozen by
one rule in each. The RK4 step matrices of a linear equation
Y' = A(s) Y (``_step_matrices``) give Psi below and the exact shooting
Jacobian of ``shooting``, the derivative of the discrete flow whose stage
inputs gave A. Psi is their
product by a pair scan (``_step_products``): 2 log2 M batched matmuls, 16
at M = 256, instead of M, for about twice the arithmetic. Kernels are
built in small stacks (one per chart query, eight chart probes), where
the scan is not slower. The shooting Jacobian needs only the total
product, not every prefix: ``_tree_product`` multiplies adjacent pairs
level by level, ceil(log2 M) batched matmuls for the arithmetic of M - 1
products. Over 512 heisenberg-sized steps (6 x 6) in the Jacobian's
blocks of 64, the trees and one matmul per block take 0.10 ms against
0.48 ms for one matmul per step at one seed, and 2.6 against 2.8 ms at
117 seeds, where the scan takes 18.6 ms (2-core x86-64 box, Python
3.11.7, numpy 2.4.6, one BLAS thread). The one line search of the
shooting and chart Newtons is ``_backtrack``: it tries the full step,
then every remaining halving of the rejected elements stacked in one
second trial. The feedback Newton, written out in generated code, picks
the same scale one halving at a time.

The differential of the endpoint map and its adjoint come from the
variational equation: with Psi the fundamental solution of Psi' = A(s) Psi,
A(s) = sum_i u_i(s) dX_i(xi(s)), and B(s) the matrix of field columns along
the trajectory,

    dE(u) v      = integral of Psi(T) Psi(s)^-1 B(s) v(s) ds,
    adjoint term = B(s)^T (Psi(s)^-1)^T Psi(T)^T lam.

Both use the same trapezoid weights on the same fine grid, so the duality
pairing <adjoint(lam), v> = lam . dE(v) is exact by transposition of the
quadrature sum; that identity is load-bearing for the Gram-based singularity
tests. The sum is a quadrature of the continuous formula, not the derivative
of the discrete RK4 endpoint map that complex-step or finite differences of
``integrate_batch`` see: the two differ by O(h^2) in the fine step h, so
their relative gap falls fourfold per doubling of ``substeps`` (2.1e-6 at 8
substeps to 3.4e-8 at 64 on a random smooth grushin pair, N = 32).

``DifferentialKernel`` is the one handle on dE. Its build checks (u, x0, T)
as ``integrate`` does, ``apply`` checks each direction against u and T, and
``adjoint`` checks that the multiplier has the state's shape (n,).
``DifferentialKernel.build_batch`` builds the kernels of a stack of controls
on one grid together, each over its own horizon: one ``_states`` loop over
the stack, one Jacobian call over every stage state of every surviving
element and one stacked Psi product. It gives None where an element's state
or Psi left the guard, and each kernel equals its control's own build bit
for bit; ``build`` is its batch of one and raises ``DivergenceError``
instead. A caller that has judged a stack by the endpoints of its own
``_states`` run passes that run, cut down by ``_take``, to build the
kernels of the controls it keeps without a second state loop.
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
    """Node values (B, N+1, m) on [0, T], interpolated at times s (..., B)."""
    N = values.shape[-2] - 1
    pos = np.clip(s, 0.0, T) * (N / T)
    idx = np.minimum(pos.astype(int), N - 1)
    w = (pos - idx)[..., None]
    b = np.arange(len(values))
    lo = values[b, idx]
    return lo + w * (values[b, idx + 1] - lo)


def _stage_controls(values, T_path, times, h):
    """Controls (M, 4, B, m) at RK4 stage 0..3 of each step j, read at
    node j, the step's midpoint (stages 1 and 2) or node j + 1."""
    nodes = _interp_rows(values, T_path, times)
    half = _interp_rows(values, T_path, times[:-1] + h / 2.0)
    return np.stack((nodes[:-1], half, half, nodes[1:]), axis=1)


def _backtrack(trial, x, step, todo, halvings):
    """Backtracking line search (Nocedal & Wright, 2nd ed., section 3.1) on
    the rows of x (K, d), with the trials of each round evaluated together.

    Each element of ``todo`` tries x - step. The elements it rejects then
    try all their remaining scales 2^-1 ... 2^-(halvings-1) in one second
    round, and each keeps its largest accepted scale. Every trial is judged
    against the residual of its element's iterate, so that is the scale a
    loop of one halving per round picks, in at most two rounds.

    ``trial(idx, x_try)`` evaluates the candidates x_try of the elements
    idx in one call; an element appears once per scale, largest scale
    first. It returns (better, keep): the mask of the candidates whose
    residual fell below their iterate's, and ``keep(sel)``, which stores
    what the caller needs of the candidates sel, at most one per element.
    Returns x with the accepted steps taken, and the mask of stuck
    elements, whose every trial was rejected; they keep their iterate.
    """
    x, pending = x.copy(), np.array(todo, dtype=bool)
    for scales in (0.5 ** np.arange(min(halvings, 1)),
                   0.5 ** np.arange(1, halvings)):
        idx = np.flatnonzero(pending)
        if not (idx.size and scales.size):
            break
        elements = np.repeat(idx, len(scales))
        x_try = x[elements] - np.tile(scales, len(idx))[:, None] * step[elements]
        better, keep = trial(elements, x_try)
        better = better.reshape(len(idx), len(scales))
        won = better.any(axis=1)
        sel = np.flatnonzero(won) * len(scales) + better[won].argmax(axis=1)
        keep(sel)
        x[elements[sel]] = x_try[sel]
        pending[elements[sel]] = False
    return x, pending


def _step_matrices(A, h):
    """RK4 step matrices of the linear equation Y' = A(s) Y.

    A holds A at the four stages of each step, shaped (4, M, ..., d, d),
    and h broadcasts against one stage's stack. Step j maps Y at node j to
    Y at node j + 1, exactly as RK4 maps it, so a product of steps is the
    derivative of the discrete flow whose stages gave A.
    """
    eye = np.eye(A.shape[-1])
    k1 = A[0]
    k2 = A[1] @ (eye + (h / 2.0) * k1)
    k3 = A[2] @ (eye + (h / 2.0) * k2)
    k4 = A[3] @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_products(steps, start):
    """Y_0 = start and Y_{j+1} = steps[j] Y_j, stacked (M + 1, ..., d, k).

    A pair scan (Ladner & Fischer 1980; Blelloch 1990) forms the prefix
    products P_j = steps[j-1] ... steps[0]: ``_prefix_products`` pairs
    adjacent steps, recurses on the pairs and fills the even nodes, two
    batched matmuls per halving, so 2 log2 M calls (16 at M = 256) replace
    M, for about twice the arithmetic. Y_j = P_j start is one more call.
    Each Y_j differs from the sequential product by rounding only, about
    1e-15 of Psi's size on the built-ins. At (256, 1, 3, 3) the product
    takes 0.05 ms against 0.25 ms sequentially, at (256, 8, 3, 3) 0.19
    against 0.31 ms. Over many columns the doubled arithmetic outweighs
    the saved calls; the shooting Jacobian, which needs only Y_M, takes
    ``_tree_product`` of the steps instead (see the module docstring).
    """
    out = np.empty((len(steps) + 1,) + steps.shape[1:-1] + start.shape[-1:],
                   dtype=np.result_type(steps, start))
    out[0] = start
    np.matmul(_prefix_products(steps), start, out=out[1:])
    return out


def _prefix_products(steps):
    """The prefix products steps[j] ... steps[0], j < M, of a stack
    (M, ..., d, d), by the pair scan described in ``_step_products``."""
    if len(steps) == 1:
        return steps
    # pairs[i] = steps[2i+1] steps[2i] and its prefix is the odd node 2i+1.
    odd = _prefix_products(steps[1::2] @ steps[0:-1:2])
    out = np.empty_like(steps)
    out[0] = steps[0]
    out[1::2] = odd
    even = steps[2::2]
    out[2::2] = even @ odd[:len(even)]
    return out


def _tree_product(steps):
    """The total product steps[M-1] ... steps[0] of a stack (M, ..., d, d)
    by a pairwise tree: each level multiplies adjacent pairs in one batched
    matmul and carries an odd level's last matrix to the next, so
    ceil(log2 M) calls replace M - 1. Unlike ``_prefix_products`` it forms
    no prefix, about half the scan's arithmetic; the result differs from
    the sequential product by rounding only."""
    while len(steps) > 1:
        pairs = steps[1::2] @ steps[0:-1:2]
        steps = np.concatenate((pairs, steps[-1:])) if len(steps) % 2 \
            else pairs
    return steps[0]


def _raise_if_dead(died, h):
    if np.any(died >= 0):
        s = float(np.min((died * h)[died >= 0]))
        raise DivergenceError(
            f"trajectory exceeded blow-up guard {BLOWUP_GUARD:g} near s = {s:.6g}",
            time=s)


def fine_grid(T, N, substeps=DEFAULT_SUBSTEPS):
    """Times (M+1,) and step h of M = N * substeps RK4 steps on [0, T]; for
    T (B,), times (M+1, B) and h (B,), each column its own horizon's grid."""
    if N < 1:
        raise ValueError(f"grid count N must be at least 1, got {N}")
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    M = N * substeps
    return np.linspace(0.0, T, M + 1), T / M


def _states(F, values, T_path, x0, T, substeps):
    """The one state loop: RK4 from x0 (n,) over [0, T], T one horizon or
    one per element, for the node values (B, N+1, m) of B controls on
    [0, T_path], each integrated alone by the field set's generated loop.

    Returns (times, h, control, states, died): the grids (M+1, B) and
    steps (B,), the stage controls (M, 4, B, m), the states (M+1, B, n)
    and the node at which each element left the guard, -1 while alive. A
    dead element keeps its last state. The loop keeps nothing but the
    nodes; ``_build_stack`` re-forms the stage inputs of the elements it
    builds kernels of.
    """
    times, h = fine_grid(np.broadcast_to(T, len(values)),
                         values.shape[-2] - 1, substeps)
    control = _stage_controls(values, T_path, times, h)
    x = np.asarray(x0, dtype=np.result_type(x0, control))
    (M, _, B, _), n = control.shape, F.n
    states = np.empty((M + 1, B, n), x.dtype)
    start = x.tolist()
    runs = ((start, control[:, :, b].reshape(M, -1).tolist(), float(h[b]))
            for b in range(B))
    died = _run_loops(F._loop, runs, states)
    return times, h, control, states, died


def _run_loops(loop, runs, out):
    """Runs ``loop``, a generated RK4 loop (``fields._rk4_loop``), once per
    item (start, steps, h) of runs and puts element b's node states in
    out[:, b], out shaped (M+1, B, d). Returns the node at which each
    element's loop ended early, -1 where it took all M steps. An element
    that ended early keeps its last state at every later node."""
    died = np.full(out.shape[1], -1)
    d = out.shape[-1]
    for b, (start, steps, h) in enumerate(runs):
        ys = loop(start, steps, h, BLOWUP_GUARD)
        k = len(ys) // d
        out[:k, b] = np.array(ys, out.dtype).reshape(k, d)
        if k < len(out):
            died[b] = k
            out[k:, b] = out[k - 1, b]
    return died


def _take(run, idx):
    """The elements idx of a ``_states`` run, as a run of their own."""
    times, h, control, states, died = run
    return (times[:, idx], h[idx], control[:, :, idx], states[:, idx],
            died[idx])


def _checked_start(F, m, T_path, x0, T):
    """(x0, T) as floats, T defaulting to T_path, checked against F and a
    control of m channels on [0, T_path]."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (F.n,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({F.n},)")
    if m != F.m:
        raise DimensionError(f"control has {m} channels, fields expect {F.m}")
    T = T_path if T is None else float(T)
    if not (np.isfinite(T) and 0.0 < T <= T_path * (1.0 + 1e-12)):
        raise GridMismatchError(f"horizon {T} outside the control domain "
                                f"[0, {T_path}]")
    return x0, T


def integrate(F, u: ControlPath, x0, T=None, substeps=DEFAULT_SUBSTEPS) -> Trajectory:
    """RK4 solution on [0, T] (default T = u.T); M = u.N * substeps steps."""
    x0, T = _checked_start(F, u.m, u.T, x0, T)
    times, h, _, states, died = _states(F, u.values[None], u.T, x0, T,
                                        substeps)
    _raise_if_dead(died, h)
    return Trajectory(times=times[:, 0], states=states[:, 0])


def integrate_batch(F, values, x0, T, substeps=DEFAULT_SUBSTEPS):
    """States (M+1, ..., n) from x0 (n,) for a batch of node-value arrays
    (..., N+1, m) of controls on [0, T], N read from their shape; x0 and
    T are checked as ``integrate`` checks them.

    Accepts complex values: the RK4 recursion is polynomial in the data, so
    complex-step directional derivatives of the endpoint and of running
    costs are exact to machine precision.
    """
    values = np.asarray(values)
    if values.ndim < 2:
        raise DimensionError(f"node values have shape {values.shape}, "
                             "expected (..., N+1, m)")
    x0, T = _checked_start(F, values.shape[-1], T, x0, T)
    _, h, _, states, died = _states(
        F, values.reshape((-1,) + values.shape[-2:]), T, x0, T, substeps)
    _raise_if_dead(died, h)
    return states.reshape((len(states),) + values.shape[:-2] + (-1,))


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
        """The kernel of one control: the batch-of-one ``build_batch``, with
        ``DivergenceError`` at the time its state or Psi left the guard."""
        (kern,), died, h = cls._build_stack(F, [u], x0, T, substeps)
        _raise_if_dead(died, h)
        return kern

    @classmethod
    def build_batch(cls, F, paths, x0, T=None, substeps=DEFAULT_SUBSTEPS,
                    run=None):
        """Kernels of a stack of controls on one grid (same N and u.T), all
        from x0 over [0, T], T one horizon or one per path: one kernel per
        path, or None where that path's state or Psi left the blow-up guard.
        Each kernel equals the one ``build`` gives its path alone, bit for
        bit. ``run`` is the paths' own ``_states`` run, when the caller has
        already made it (``_take`` picks elements out of a larger one); the
        state loop is then not run again."""
        return (cls._build_stack(F, paths, x0, T, substeps, run)[0] if paths
                else [])

    @classmethod
    def _build_stack(cls, F, paths, x0, T, substeps, run=None):
        """RK4 states and Psi, Psi(0) = I, on the fine grid, then K.

        ``_states`` runs the whole stack, unless ``run`` holds that run.
        The RK4 stage inputs (M, 4, K, n) of the K surviving elements are
        re-formed from their nodes: the node, then the node plus h/2, h/2
        or h times the rates ``FieldSet._rates`` gives at the input before,
        the loop's own bits. One batched Jacobian call on them gives A at
        all 4M stages, and Psi_{j+1} = Phi_j Psi_j, formed by the pair scan of
        ``_step_products``, with Phi_j the RK4 step matrix of the linear
        equation Psi' = A Psi (``_step_matrices``).
        Returns (kernels, died, h): died (B,) is the fine step at which each
        element's state or Psi first left the guard, -1 for a kernel.
        """
        u = paths[0]
        horizons = [T] * len(paths) if np.ndim(T) == 0 else T
        if len(horizons) != len(paths):
            raise DimensionError(f"{len(horizons)} horizons for "
                                 f"{len(paths)} controls")
        starts = [_checked_start(F, p.m, p.T, x0, t)
                  for p, t in zip(paths, horizons)]
        for p in paths[1:]:
            if p.N != u.N or p.T != u.T:
                raise GridMismatchError(
                    f"a batch shares one control grid: N = {p.N} on "
                    f"[0, {p.T}] against N = {u.N} on [0, {u.T}]")
        T = [t for _, t in starts]
        if run is None:
            run = _states(F, np.stack([p.values for p in paths]), u.T,
                          starts[0][0], np.array(T), substeps)
        times, h, control, states, died = run
        died = died.copy()
        M = len(times) - 1
        kernels = [None] * len(paths)
        live = np.flatnonzero(died < 0)
        if live.size == 0:
            return kernels, died, h
        x, c, step = states[:-1, live], control[:, :, live], h[live, None]
        inputs = np.empty((M, 4, live.size, F.n), states.dtype)
        inputs[:, 0] = x
        for s, scale in enumerate((step / 2.0, step / 2.0, step)):
            k = F._rates(np.concatenate((inputs[:, s], c[:, s]), axis=-1))
            np.add(x, scale * k, out=inputs[:, s + 1])
        A = np.einsum("jsbi,jsbikl->sjbkl", c, F.jacobian_stack(inputs))
        psis = _step_products(_step_matrices(A, step[:, :, None]),
                              np.eye(F.n))
        # The joint loop would have stopped at the first Psi beyond the guard.
        blown = ~(np.abs(psis).reshape(M + 1, live.size, -1).max(axis=2)
                  <= BLOWUP_GUARD)
        died[live] = np.where(blown.any(axis=0), blown.argmax(axis=0), -1)
        keep = died[live] < 0
        ok = live[keep]
        st = np.ascontiguousarray(states[:, ok].swapaxes(0, 1))   # (K, M+1, n)
        ps = np.ascontiguousarray(psis[:, keep].swapaxes(0, 1))
        inv_b = np.linalg.solve(ps, F.field_matrix(st))  # Psi(s)^-1 B(s), batched
        kern = np.einsum("bnk,bjkm->bjnm", ps[:, -1], inv_b)
        times = np.ascontiguousarray(times.T)   # (B, M+1)
        for i, b in enumerate(ok):
            kernels[b] = cls(T[b], times[b], st[i], ps[i],
                             trapezoid_weights(times[b]), kern[i])
        return kernels, died, h

    @property
    def endpoint(self):
        return self.states[-1]

    def apply_values(self, v_values):
        """dE(u) v from samples (..., M+1, m) of v on the fine grid."""
        return np.einsum("j,jnm,...jm->...n", self.weights, self.kernels,
                         v_values)

    def apply(self, v: ControlPath):
        if v.m != self.kernels.shape[-1]:
            raise GridMismatchError(f"direction has {v.m} channels, control "
                                    f"has {self.kernels.shape[-1]}")
        if v.T < self.T * (1.0 - 1e-12):
            raise GridMismatchError(f"direction horizon {v.T} shorter than "
                                    f"{self.T}")
        return self.apply_values(v.at(self.times))

    def adjoint_values(self, lam):
        """Adjoint samples (M+1, m) for a multiplier lam of shape (n,)."""
        lam = np.asarray(lam)
        n = self.kernels.shape[1]
        if lam.shape != (n,):
            raise DimensionError(f"multiplier has shape {lam.shape}, "
                                 f"expected ({n},)")
        return np.einsum("jnm,n->jm", self.kernels, lam)

    def adjoint(self, lam) -> ControlPath:
        return ControlPath(self.T, self.adjoint_values(lam))

    def gram(self):
        return np.einsum("j,jam,jbm->ab", self.weights, self.kernels,
                         self.kernels)

