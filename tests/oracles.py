"""Independent reference computations used by the test suite.

Nothing here calls the package's integrators, adjoints, shooting, or chart
machinery. The collocation oracle builds its own transcription of the
Heisenberg steering problem from scratch so the two sides are free to
disagree.
"""

import functools

import numpy as np

from extremals import expr as ex

COMPLEX_STEP = 1e-30


def control_l2(T, a, b):
    """Exact L2 distance between two piecewise-linear node arrays."""
    d = np.asarray(a) - np.asarray(b)
    h = T / (len(d) - 1)
    d0, d1 = d[:-1], d[1:]
    seg = np.sum(d0 * d0 + d0 * d1 + d1 * d1, axis=-1) * h / 3.0
    return float(np.sqrt(max(seg.sum(), 0.0)))


def bisect_root(f, lo, hi, tol=1e-14, max_iter=200):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def term_size(e, cols, memo):
    """e's value at the points cols and a bound on the size of the terms
    it is computed from: the first-order roundoff of every node in units
    of the machine epsilon, so a sum that cancels keeps its terms' size.
    Constants are float64, so a power of one is taken as numpy takes it."""
    if id(e) not in memo:
        if isinstance(e, ex.Const):
            v = np.float64(e.value)
            size = abs(v)
        elif isinstance(e, ex.Var):
            v = cols[e.index]
            size = np.abs(v)
        elif isinstance(e, (ex.Add, ex.Mul)):
            parts = [term_size(t, cols, memo) for t in
                     (e.terms if isinstance(e, ex.Add) else e.factors)]
            join = np.add if isinstance(e, ex.Add) else np.multiply
            v = functools.reduce(join, (v for v, _ in parts))
            size = functools.reduce(join, (size for _, size in parts))
        elif isinstance(e, ex.Pow):
            b, b_size = term_size(e.base, cols, memo)
            v = b ** e.exponent
            size = np.abs(v) + abs(e.exponent) * np.abs(b) ** (
                e.exponent - 1.0) * b_size
        else:
            a, a_size = term_size(e.arg, cols, memo)
            v = getattr(np, e.name)(a)
            # |sin'| and |cos'| are at most 1; exp' is exp.
            size = np.abs(v) * (1.0 + a_size) if e.name == "exp" \
                else np.abs(v) + a_size
        memo[id(e)] = (e, v, size)
    return memo[id(e)][1:]


def _f(x, u):
    """Heisenberg right-hand side, batched over leading axes."""
    return np.stack([u[..., 0], u[..., 1],
                     (x[..., 0] * u[..., 1] - x[..., 1] * u[..., 0]) / 2.0],
                    axis=-1)


def _bt(x, w):
    """B(x)^T w for the Heisenberg frame."""
    return np.stack([w[..., 0] - x[..., 1] * w[..., 2] / 2.0,
                     w[..., 1] + x[..., 0] * w[..., 2] / 2.0], axis=-1)


def _at(u, w):
    """(d f/d x)^T w; only the area row depends on the state."""
    return np.stack([w[..., 2] * u[..., 1] / 2.0,
                     -w[..., 2] * u[..., 0] / 2.0,
                     np.zeros_like(w[..., 2])], axis=-1)


class HeisenbergCollocationOracle:
    """Hermite-Simpson transcription of the Heisenberg steering problem.

    Decision variables are interior and terminal states, node controls,
    midpoint controls, one multiplier per collocation defect, and one for
    the endpoint condition. The first-order system is the gradient of

        sum_j (h/6) (L_{j-1} + 4 L_mid + L_j)
          - sum_j mu_j . defect_j - nu . (x_M - target)

    with L = |u|^2 / 2 and the compressed Hermite interpolant supplying
    the midpoint state. The gradient is assembled analytically (checked
    against a complex-step derivative of the scalar above), the KKT
    matrix by complex step of the gradient, and the solve is a damped
    Newton iteration with a minimum-norm step because rotating every
    control and state about the vertical axis is an exact symmetry.
    """

    def __init__(self, x0, target, T, M):
        self.x0 = np.asarray(x0, dtype=float)
        self.target = np.asarray(target, dtype=float)
        self.T = float(T)
        self.M = int(M)
        self.h = self.T / self.M
        M = self.M
        self.sizes = (3 * M, 2 * (M + 1), 2 * M, 3 * M, 3)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.dim = int(self.offsets[-1])
        self.n_primal = int(self.offsets[3])

    def _unpack(self, z):
        lead = z.shape[:-1]
        o, M = self.offsets, self.M
        xs = z[..., o[0]:o[1]].reshape(lead + (M, 3))
        us = z[..., o[1]:o[2]].reshape(lead + (M + 1, 2))
        vs = z[..., o[2]:o[3]].reshape(lead + (M, 2))
        mus = z[..., o[3]:o[4]].reshape(lead + (M, 3))
        nu = z[..., o[4]:o[5]]
        return xs, us, vs, mus, nu

    def pack(self, xs, us, vs, mus, nu):
        parts = [np.reshape(p, np.shape(p)[:-2] + (-1,)) for p in
                 (xs, us, vs, mus)]
        return np.concatenate(parts + [nu], axis=-1)

    def _interval_data(self, xs, us, vs):
        lead = xs.shape[:-2]
        x_first = np.broadcast_to(self.x0, lead + (1, 3)).astype(xs.dtype)
        X = np.concatenate([x_first, xs], axis=-2)
        a, b = X[..., :-1, :], X[..., 1:, :]
        ua, ub = us[..., :-1, :], us[..., 1:, :]
        fa, fb = _f(a, ua), _f(b, ub)
        xm = (a + b) / 2.0 + (self.h / 8.0) * (fa - fb)
        fm = _f(xm, vs)
        return a, b, ua, ub, fa, fb, xm, fm

    def lagrangian(self, z):
        xs, us, vs, mus, nu = self._unpack(z)
        a, b, ua, ub, fa, fb, xm, fm = self._interval_data(xs, us, vs)
        h = self.h
        w = np.full(self.M + 1, h / 3.0)
        w[0] = w[-1] = h / 6.0
        cost = (np.sum(w * np.sum(us * us, axis=-1) / 2.0, axis=-1)
                + np.sum((2.0 * h / 3.0) * np.sum(vs * vs, axis=-1) / 2.0,
                         axis=-1))
        defect = b - a - (h / 6.0) * (fa + 4.0 * fm + fb)
        gap = b[..., -1, :] - self.target
        return (cost - np.sum(mus * defect, axis=(-2, -1))
                - np.sum(nu * gap, axis=-1))

    def residual(self, z):
        """Gradient of the scalar above in every variable, batched."""
        xs, us, vs, mus, nu = self._unpack(z)
        a, b, ua, ub, fa, fb, xm, fm = self._interval_data(xs, us, vs)
        h, M = self.h, self.M

        atv_mu = _at(vs, mus)                     # (..., M, 3)
        gx_b = (-mus + (h / 6.0) * (_at(ub, mus)
                + 4.0 * (atv_mu / 2.0 - (h / 8.0) * _at(ub, atv_mu))))
        gx_a = (mus + (h / 6.0) * (_at(ua, mus)
                + 4.0 * (atv_mu / 2.0 + (h / 8.0) * _at(ua, atv_mu))))

        gx = gx_b.copy()
        gx[..., :-1, :] += gx_a[..., 1:, :]
        gx[..., -1, :] -= nu

        w = np.full(M + 1, h / 3.0)
        w[0] = w[-1] = h / 6.0
        gu = w[:, None] * us
        gu_a = (h / 6.0) * (_bt(a, mus) + (h / 2.0) * _bt(a, atv_mu))
        gu_b = (h / 6.0) * (_bt(b, mus) - (h / 2.0) * _bt(b, atv_mu))
        gu[..., :-1, :] += gu_a
        gu[..., 1:, :] += gu_b

        gv = (2.0 * h / 3.0) * (vs + _bt(xm, mus))

        defect = b - a - (h / 6.0) * (fa + 4.0 * fm + fb)
        gmu = -defect
        gnu = -(b[..., -1, :] - self.target)
        return self.pack(gx, gu, gv, gmu, gnu)

    def check_gradient(self, z, count=40, seed=0):
        """Max mismatch between residual() and a complex-step derivative."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.dim, size=min(count, self.dim), replace=False)
        probes = np.tile(z.astype(complex), (len(idx), 1))
        probes[np.arange(len(idx)), idx] += 1j * COMPLEX_STEP
        grad = self.lagrangian(probes).imag / COMPLEX_STEP
        return float(np.max(np.abs(grad - self.residual(z)[idx])))

    def warm_start(self, times_fine, u_fine, x_fine):
        """Initial z from a refined trajectory: states and controls are
        interpolated, multipliers fitted by least squares (the gradient
        is linear in them)."""
        M, h = self.M, self.h
        t_nodes = np.arange(M + 1) * h
        t_mids = t_nodes[:-1] + h / 2.0
        us = np.stack([np.interp(t_nodes, times_fine, u_fine[:, k])
                       for k in range(2)], axis=-1)
        vs = np.stack([np.interp(t_mids, times_fine, u_fine[:, k])
                       for k in range(2)], axis=-1)
        xs = np.stack([np.interp(t_nodes[1:], times_fine, x_fine[:, k])
                       for k in range(3)], axis=-1)
        z = self.pack(xs, us, vs, np.zeros((M, 3)), np.zeros(3))

        nmult = 3 * M + 3
        probes = np.tile(z, (nmult + 1, 1))
        probes[1:, self.n_primal:] += np.eye(nmult)
        R = self.residual(probes)
        base = R[0, :self.n_primal]
        cols = (R[1:, :self.n_primal] - base).T
        fit, *_ = np.linalg.lstsq(cols, -base, rcond=None)
        z[self.n_primal:] = fit
        return z

    def _rotation_generator(self, z):
        """Tangent of the exact symmetry: rotate controls, states, and
        multipliers about the vertical axis."""
        xs, us, vs, mus, nu = self._unpack(z)

        def spin(w):
            out = w.copy()
            out[..., 0] = -w[..., 1]
            out[..., 1] = w[..., 0]
            if w.shape[-1] == 3:
                out[..., 2] = 0.0
            return out

        return self.pack(spin(xs), spin(us), spin(vs), spin(mus), spin(nu))

    def hessian(self, z, chunk=512):
        """Jacobian of the residual by complex step, assembled in chunks."""
        K = np.empty((self.dim, self.dim))
        for lo in range(0, self.dim, chunk):
            hi = min(lo + chunk, self.dim)
            probes = np.tile(z.astype(complex), (hi - lo, 1))
            probes[np.arange(hi - lo), np.arange(lo, hi)] += 1j * COMPLEX_STEP
            K[lo:hi] = self.residual(probes).imag / COMPLEX_STEP
        return K

    def solve(self, z0, tol=1e-11, max_iter=40):
        z = np.asarray(z0, dtype=float).copy()
        r = self.residual(z)
        rn = float(np.max(np.abs(r)))
        its = 0
        for _ in range(max_iter):
            if rn < tol:
                break
            its += 1
            K = self.hessian(z)
            # Pin the phase direction so the KKT matrix becomes regular;
            # the step is then the minimum-norm one on the quotient.
            zeta = self._rotation_generator(z)
            bordered = np.zeros((self.dim + 1, self.dim + 1))
            bordered[:-1, :-1] = K.T
            bordered[:-1, -1] = zeta
            bordered[-1, :-1] = zeta
            rhs = np.concatenate([r, [0.0]])
            try:
                delta = np.linalg.solve(bordered, rhs)[:-1]
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(K.T, r, rcond=None)
            alpha = 1.0
            for _ in range(12):
                r_try = self.residual(z - alpha * delta)
                rn_try = float(np.max(np.abs(r_try)))
                if rn_try < rn:
                    z = z - alpha * delta
                    r, rn = r_try, rn_try
                    break
                alpha /= 2.0
            else:
                break
        xs, us, vs, mus, nu = self._unpack(z)
        defect = np.max(np.abs(self.residual(z)[self.offsets[3]:self.offsets[4]]))
        info = {"residual": rn, "iterations": its,
                "defect": float(defect),
                "endpoint_gap": float(np.max(np.abs(xs[-1] - self.target)))}
        return z, info

    def control_on_half_grid(self, z):
        """Node and midpoint controls interleaved on the h/2 grid."""
        _, us, vs, _, _ = self._unpack(z)
        out = np.empty((2 * self.M + 1, 2))
        out[::2] = us
        out[1::2] = vs
        return out


def fd_endpoint_directional(F, u_values, x0, T, v_values, eps, substeps=4):
    """Central finite difference of the endpoint map along v."""
    from extremals.dynamics import integrate_batch
    stacked = np.stack([u_values + eps * v_values, u_values - eps * v_values])
    ends = integrate_batch(F, stacked, np.asarray(x0, float), T,
                           substeps=substeps)[-1]
    return (ends[0] - ends[1]) / (2.0 * eps)
