"""Lagrangian evaluation, fiber-derivative inversion, Hamiltonian, cost.

A Lagrangian is one scalar expression over x1..xn, u1..um. Its gradients and
the control Hessian are produced by exact symbolic differentiation and
compiled on first use; evaluation is batched numpy throughout.

The map z -> w(x, z) inverting d_uL(x, .) masks instead of raising: each
solve returns the solution with a per-element flag telling whether its
residual reached LEGENDRE_TOL (1 + |z|), relative as the roundoff of
d_uL(x, u) - z grows with |z|. When no entry of the control Hessian depends
on u, as for every cost quadratic in u, d_uL(x, u) = g0(x) + H(x) u is
affine in u and the inverse is the linear solve u = H(x)^-1 (z - g0(x)),
``_affine_solve``; this is decided symbolically on the first solve. Any
other cost goes through ``_damped_newton``, a damped Newton iteration on
the shared line search ``dynamics._backtrack``; ``_fiber_solve`` picks.

The Hamiltonian flow in ``shooting`` gets its stage, one function for
every cost, from ``Lagrangian.flow_stage``. When H is moreover a constant
matrix with a condition number small enough for the roundoff of its
solves to stay far below the tolerance, H^-1 is computed once at compile
time and the stage is one generated evaluator that returns
u* = H^-1 (z - g0(xi)) with the rates. Otherwise the stage is two
evaluators with the solve in between, and it clears the flow's alive mask
where the solve fails. ``legendre_inverse`` raises a diffeomorphism
violation there rather than patching over, because every downstream
construction assumes the fiber derivative is invertible.
``Lagrangian.rate_jacobian`` differentiates the stage's rates, with du*/dy
from the implicit-function formula, for the exact shooting Jacobian.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .dynamics import _backtrack
from .errors import DiffeomorphismViolationError, DimensionError, EvaluationError

LEGENDRE_TOL = 1e-10
LEGENDRE_MAX_ITER = 25
LEGENDRE_MAX_HALVINGS = 20


class Lagrangian:
    """Compiled running cost L(x, u) with lazily built derivatives."""

    def __init__(self, n, m, expression: ex.Expr, source=""):
        self.n = n
        self.m = m
        self.expression = expression
        self.source = source
        self._value = ex.compile_vector([expression], n + m)
        self._grad_x = None
        self._grad_u = None
        self._hess_u = None
        self._fiber = None
        self._affine = None
        self._stages = {}
        self._rate_jacobians = {}

    def _pack(self, x, u):
        """(x, u) broadcast together and stacked on the last axis."""
        x = np.asarray(x)
        u = np.asarray(u)
        if x.shape[-1] != self.n or u.shape[-1] != self.m:
            raise DimensionError(
                f"expected x(...,{self.n}) and u(...,{self.m}), "
                f"got {x.shape} and {u.shape}")
        batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        return np.concatenate((np.broadcast_to(x, batch + (self.n,)),
                               np.broadcast_to(u, batch + (self.m,))), axis=-1)

    def value(self, x, u):
        out = self._value(self._pack(x, u))[..., 0]
        if not np.all(np.isfinite(out)):
            raise EvaluationError("Lagrangian evaluated to a non-finite value")
        return out

    def grad_x(self, x, u):
        if self._grad_x is None:
            exprs = [self.expression.diff(k) for k in range(self.n)]
            self._grad_x = ex.compile_vector(exprs, self.n + self.m)
        return self._grad_x(self._pack(x, u))

    def _fiber_exprs(self):
        """d_uL and the row-major d2_uL as expression lists."""
        if self._fiber is None:
            grad = [self.expression.diff(self.n + k) for k in range(self.m)]
            hess = [g.diff(self.n + k) for g in grad for k in range(self.m)]
            self._fiber = (grad, hess)
        return self._fiber

    def grad_u(self, x, u):
        if self._grad_u is None:
            self._grad_u = ex.compile_vector(self._fiber_exprs()[0],
                                             self.n + self.m)
        return self._grad_u(self._pack(x, u))

    def hess_u(self, x, u):
        if self._hess_u is None:
            self._hess_u = ex.compile_vector(self._fiber_exprs()[1],
                                             self.n + self.m)
        flat = self._hess_u(self._pack(x, u))
        return flat.reshape(flat.shape[:-1] + (self.m, self.m))

    def fiber_affine(self):
        """Whether d_uL is affine in u, decided symbolically on first call.

        It is when the u-derivative of every control-Hessian entry folds to
        zero. Like every derivative, this raises for a non-smooth cost.
        """
        if self._affine is None:
            hess = self._fiber_exprs()[1]
            self._affine = all(h.diff(self.n + k) == ex.Const(0.0)
                               for h in hess for k in range(self.m))
        return self._affine

    def flow_stage(self, F):
        """The Hamiltonian flow's stage for F, (y, w, alive) -> (u*, rates).

        Generated once per field set F over the stacked state y = (xi, p),
        with the rates (xi', p') at the feedback u*: one ``_folded_stage``
        call, or else ``_two_call_stage``'s ``pre``, ``_fiber_solve`` from
        the warm start w and ``post``, which clears ``alive`` where the
        solve fails and lets the damped Newton skip the cleared elements.
        """
        if F not in self._stages:
            self._stages[F] = _stage(F, self)
        return self._stages[F]

    def rate_jacobian(self, F):
        """The Jacobian of a flow stage's rates (xi', p') in y = (xi, p).

        Returns a function of the stage inputs (xi, p, u*) stacked on the
        last axis, (..., 2n + m), to the matrices (..., 2n, 2n), generated
        once per field set F from the symbolic derivatives of the stage.
        u* enters through the implicit-function derivative of
        d_uL(xi, u*) = z(xi, p): du*/dy = H(xi, u*)^-1 d/dy (z - d_uL(xi, u))
        at fixed u. This one formula serves the folded stage, the closed-form
        solve and the damped Newton alike. An element whose H is singular
        gets NaN.
        """
        if F not in self._rate_jacobians:
            self._rate_jacobians[F] = _rate_jacobian(F, self)
        return self._rate_jacobians[F]


_ZERO = ex.Const(0.0)


def _dot(pairs, einsum=False):
    """Sum of entry * operand over (entry, operand) pairs, in index order.

    Symbolically zero entries are dropped and unit entries multiply
    nothing. An einsum sums from a +0.0 accumulator, so its zero sums are
    never -0.0; ``einsum`` keeps that by adding 0.0 last, which changes
    nothing else. The generated code keeps that accumulator wherever a
    -0.0 could reach it, and drops it only where another term is never
    -0.0 (``expr.CompiledVector``).
    """
    terms = tuple(b if a == ex.Const(1.0) else ex.Mul((a, b))
                  for a, b in pairs if a != _ZERO)
    if not terms:
        return _ZERO
    if einsum:
        return ex.Add(terms + (_ZERO,))
    return terms[0] if len(terms) == 1 else ex.Add(terms)


def _stage_exprs(F, L: Lagrangian):
    """x, z and the rates (xi', p') of a flow stage for the field set F.

    The variables are x1..xn, p1..pn, u1..um at indices 0..2n+m-1. z is
    B(xi)^T p; xi' = B u and p' = -(sum_i u_i dX_i)^T p + d_xL. Products
    and sums are grouped as the einsums over ``FieldSet.field_matrix`` and
    ``jacobian_stack`` group them, with symbolically zero terms dropped,
    so the values are those einsums' bits.
    """
    n, m = F.n, F.m
    x = [ex.Var(f"x{k + 1}", k) for k in range(n)]
    p = [ex.Var(f"p{k + 1}", n + k) for k in range(n)]
    u = [ex.Var(f"u{k + 1}", 2 * n + k) for k in range(m)]
    X = F.components  # X[i][j] = (X_i)_j = B[j, i]
    z = [_dot(((X[i][j], p[j]) for j in range(n)), True) for i in range(m)]
    # A[j][k] = sum_i u_i d(X_i)_j / dx_k.
    A = [[_dot((X[i][j].diff(k), u[i]) for i in range(m)) for k in range(n)]
         for j in range(n)]
    rates = [_dot(((X[i][j], u[i]) for i in range(m)), True)
             for j in range(n)]
    for k in range(n):
        # p'_k = -(A^T p)_k + d_xL_k; a zero d_xL_k is added as the einsum
        # path adds it, and then stands in for the accumulator of A^T p.
        gx = ex.substitute(L.expression.diff(k), x + u)
        At_p = _dot(((A[j][k], p[j]) for j in range(n)), gx != _ZERO)
        rates.append(gx if At_p == _ZERO
                     else ex.Add((ex.Mul((ex.Const(-1.0), At_p)), gx)))
    return x, z, rates


def _rate_jacobian(F, L: Lagrangian):
    """``Lagrangian.rate_jacobian``: one evaluator of the partial
    derivatives at fixed u, then H^-1 and the chain rule in numpy."""
    n, m = F.n, F.m
    d = 2 * n
    x, z, rates = _stage_exprs(F, L)
    u = [ex.Var(f"u{k + 1}", d + k) for k in range(m)]
    grad, hess = L._fiber_exprs()
    gap = [ex.add(z[i], ex.mul(ex.Const(-1.0), ex.substitute(grad[i], x + u)))
           for i in range(m)]
    exprs = [r.diff(k) for r in rates for k in range(d + m)]
    exprs += [g.diff(k) for g in gap for k in range(d)]
    exprs += [ex.substitute(e, x + u) for e in hess]
    evaluate = ex.compile_vector(exprs, d + m)

    def jacobian(v):
        out = evaluate(v)
        batch = out.shape[:-1]
        f = out[..., :d * (d + m)].reshape(batch + (d, d + m))
        dgap = out[..., d * (d + m):d * (d + 2 * m)].reshape(batch + (m, d))
        H = out[..., d * (d + 2 * m):].reshape(batch + (m, m))
        du, _ = _solve_or(H, dgap, np.nan)
        return f[..., :d] + f[..., d:] @ du

    return jacobian


def _stage(F, L: Lagrangian):
    """The function ``Lagrangian.flow_stage`` returns for F."""
    n, m = F.n, F.m
    folded = _folded_stage(F, L)
    if folded is not None:
        def stage(y, w, alive):
            out = folded(y)
            return out[..., :m], out[..., m:]
        return stage
    pre, post = _two_call_stage(F, L)

    def stage(y, w, alive):
        head = pre(y)
        u, ok = _fiber_solve(L, y[..., :n], head[..., :m], w, alive,
                             head[..., m:])
        alive &= ok
        return u, post(np.concatenate((y, u), axis=-1))
    return stage


def _two_call_stage(F, L: Lagrangian):
    """(pre, post): the stage as two evaluators with the feedback between.

    ``pre(y)`` returns z and, when d_uL is affine in u, then g0(xi) and the
    row-major H(xi); ``post`` takes (xi, p, u) stacked and returns
    (xi', p').
    """
    n, m = F.n, F.m
    x, pre, post = _stage_exprs(F, L)
    if L.fiber_affine():
        grad, hess = L._fiber_exprs()
        pre += [ex.substitute(e, x + [_ZERO] * m) for e in grad + hess]
    return ex.compile_vector(pre, 2 * n), ex.compile_vector(post, 2 * n + m)


def _folded_stage(F, L: Lagrangian):
    """The one-evaluator stage y -> (u*, xi', p'), or None.

    It exists when d_uL(x, u) = g0(x) + H u with a constant H whose solves
    keep their roundoff, about m eps cond(H) |z|, far below LEGENDRE_TOL
    (1 + |z|). H^-1 is computed once and its entries enter the generated
    code as constants: zero entries and symbolically zero g0 components
    are dropped and unit entries multiply nothing, so H = I gives u* = z,
    the bits of the solve. u* is computed once and reused by xi' and p'.
    The flow's test that u* is finite is its only one: unlike the solve's
    residual test, it keeps an element whose |g0| exceeds about
    1e6 (1 + |z|), where the roundoff of z - g0 alone is above the
    tolerance.
    A singular or ill-conditioned constant H, an x-dependent H and a cost
    not affine in u keep the two-call stage and its per-element test.
    """
    n, m = F.n, F.m
    if not L.fiber_affine():
        return None
    grad, hess = L._fiber_exprs()
    if any(e.diff(k) != _ZERO for e in hess for k in range(n)):
        return None
    with np.errstate(all="ignore"):
        g0, H = (f(np.zeros(n), np.zeros(m)) for f in (L.grad_u, L.hess_u))
        if not np.all(np.isfinite(H)):
            return None
        cond = np.linalg.cond(H)
    if not cond * m * np.finfo(float).eps < LEGENDRE_TOL / 100:
        return None
    H_inv = np.linalg.inv(H)
    x, z, rates = _stage_exprs(F, L)
    for k in range(m):
        if any(grad[k].diff(j) != _ZERO for j in range(n)) or g0[k] != 0.0:
            g0_k = ex.substitute(grad[k], x + [_ZERO] * m)
            z[k] = ex.Add((z[k], ex.Mul((ex.Const(-1.0), g0_k))))
    # Output i is u*_i, which the rates read as the variable 2n + i.
    u_star = [_dot((ex.Const(float(H_inv[i, k])), z[k]) for k in range(m))
              for i in range(m)]
    return ex.compile_vector(u_star + rates, 2 * n)


def parse_lagrangian(text, n, m) -> Lagrangian:
    """Parse one scalar expression over x1..xn, u1..um.

    ``abs`` is accepted so that non-smooth benchmark costs can be evaluated;
    differentiating such a Lagrangian raises, which keeps the solver paths
    honest about their smoothness requirement.
    """
    names = [f"x{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(m)]
    expression = ex.parse_scalar(text, names, allow_abs=True)
    return Lagrangian(n, m, expression, source=text)


def _affine_solve(g0, H, z, u0):
    """(u, ok) for g0 + H u = z: u0 where H is singular, ok where the
    residual is below LEGENDRE_TOL (1 + |z|).

    An element with a non-finite component of z - g0 fails. The LU
    substitutions would carry that component into every later one as NaN,
    so it is left out of the solve and enters u only through the entries
    of H^-1 that multiply it, as in the closed form; the rest of u stays
    finite.
    """
    rhs = z - g0
    bad = ~np.isfinite(rhs)
    u, solved = _solve_or(H, np.where(bad, 0.0, rhs)[..., None],
                          u0[..., None])
    u = u[..., 0]
    failed = bad.any(axis=-1)
    hit = failed & solved
    # inf - inf is NaN here, in u and in the residual of a failed element.
    with np.errstate(invalid="ignore"):
        if np.any(hit):
            H_inv = np.linalg.inv(
                np.broadcast_to(H, rhs.shape + rhs.shape[-1:])[hit])
            carry = bad[hit][..., None, :] & (H_inv != 0.0)
            u[hit] += np.where(carry, H_inv * rhs[hit][..., None, :],
                               0.0).sum(axis=-1)
        rn = _norm(np.einsum("...ij,...j->...i", H, u) + g0 - z)
    return u, solved & ~failed & (rn < LEGENDRE_TOL * (1.0 + _norm(z)))


def _norm(v):
    """np.linalg.norm(v, axis=-1) to the bit, without its argument handling."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _solve_or(H, rhs, fallback):
    """(H^-1 rhs, regular) per batch element for rhs (..., m, k); fallback
    where H is singular."""
    try:
        return np.linalg.solve(H, rhs), True
    except np.linalg.LinAlgError:
        # slogdet factors H as solve does: a zero sign marks the elements
        # with the exactly zero pivot solve raised for.
        regular = np.linalg.slogdet(H)[0] != 0.0
        H = np.where(regular[..., None, None], H, np.eye(H.shape[-1]))
        x = np.linalg.solve(H, rhs)
        return np.where(regular[..., None, None], x, fallback), regular


def _damped_newton(L: Lagrangian, x, z, u0, live=True):
    """Damped Newton on d_uL(x, u) = z for costs not affine in u.

    ``_backtrack`` halves each element's step, on the flattened batch, until
    its residual norm falls, and the residual of the accepted trial is kept.
    Elements outside ``live`` (a flow's frozen dead elements, whose residual
    can sit at a roundoff floor above tolerance), elements whose residual is
    non-finite, whose line search stalls or whose Newton step is singular or
    non-finite fail at their iterate and hold up nothing. Converged elements
    stop, so each ends as in a batch of one.
    """
    batch = np.broadcast_shapes(x.shape[:-1], z.shape[:-1], u0.shape[:-1])
    x, z, u = (np.broadcast_to(a, batch + a.shape[-1:])
               .reshape(-1, a.shape[-1]).copy() for a in (x, z, u0))
    tol = LEGENDRE_TOL * (1.0 + _norm(z))
    r = L.grad_u(x, u) - z
    rn = _norm(r)
    live = np.isfinite(rn) & np.ravel(live)

    def trial(idx, u_try):
        r_try = L.grad_u(x[idx], u_try) - z[idx]
        rn_try = _norm(r_try)

        def keep(sel):
            r[idx[sel]], rn[idx[sel]] = r_try[sel], rn_try[sel]

        return rn_try < rn[idx], keep

    for _ in range(LEGENDRE_MAX_ITER):
        todo = live & (rn >= tol)
        if not np.any(todo):
            break
        step, regular = _solve_or(L.hess_u(x, u), r[..., None], 0.0)
        step = step[..., 0]
        live &= (regular & np.isfinite(step).all(axis=-1)) | ~todo
        u, stuck = _backtrack(trial, u, step, todo & live,
                              LEGENDRE_MAX_HALVINGS)
        live &= ~stuck
    return u.reshape(batch + (L.m,)), (live & (rn < tol)).reshape(batch)


def _fiber_solve(L: Lagrangian, x, z, u0, live=True, fiber=None):
    """(u, ok) for d_uL(x, u) = z: ``_affine_solve`` on g0 and the row-major
    H, stacked in ``fiber`` or else read at u = 0, for a cost affine in u,
    and ``_damped_newton`` from u0 over ``live`` for any other."""
    if not L.fiber_affine():
        return _damped_newton(L, x, z, u0, live)
    m = L.m
    if fiber is None:
        zero = np.zeros(m)
        return _affine_solve(L.grad_u(x, zero), L.hess_u(x, zero), z, u0)
    H = fiber[..., m:]
    return _affine_solve(fiber[..., :m], H.reshape(H.shape[:-1] + (m, m)),
                         z, u0)


def legendre_inverse(L: Lagrangian, x, z, u0=None):
    """Solve d_uL(x, u) = z for u; a Newton starts from u0 (default 0).

    Raises a diffeomorphism violation if any batch element fails to reach
    tolerance: a singular control Hessian or a stalled line search, whose
    LEGENDRE_MAX_HALVINGS trials were all rejected.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    u0 = np.zeros(L.m) if u0 is None else np.asarray(u0, dtype=float)
    u, ok = _fiber_solve(L, x, z, u0)
    if not np.all(ok):
        rn = np.linalg.norm(L.grad_u(x, u) - z, axis=-1)
        raise DiffeomorphismViolationError(
            "fiber-derivative inversion did not reach tolerance "
            f"{LEGENDRE_TOL:g} (1 + |z|)",
            residual=float(np.max(rn)))
    return u


def trapezoid(values, times):
    dt = np.diff(times)
    return float(np.sum(dt * (values[..., :-1] + values[..., 1:]) / 2.0))


def phi_from_samples(L: Lagrangian, times, x_nodes, u_nodes):
    """Trapezoid value of the running cost from explicit node samples."""
    return trapezoid(L.value(x_nodes, u_nodes), times)
