"""Lagrangian evaluation, fiber-derivative inversion, Hamiltonian, cost.

A Lagrangian is one scalar expression over x1..xn, u1..um. Its gradients and
the control Hessian are produced by exact symbolic differentiation and
compiled on first use; evaluation is batched numpy throughout.

The Hamiltonian flow in ``shooting`` runs one generated RK4 loop per field
set, ``Lagrangian.flow_loop``, for every differentiable cost. Its rates are
the exact derivatives of the Hamiltonian <B(xi)^T p, u> - L(xi, u) at the
feedback u* solving d_uL(xi, u) = z, z = B(xi)^T p, and how u* is solved
is decided here alone: this module hands each RK4 stage, as code, to
``fields._rk4_loop``, which writes the rest of the loop and its node rows
(xi, p, u*) for every cost. Where d_uL(x, u) = g0(x) + H u with a constant
H whose solves keep their roundoff far below LEGENDRE_TOL (1 + |z|), as for
every smooth built-in, H^-1 enters the generated code as constants and
u* = H^-1 (z - g0(xi)) in closed form: the folded stage. For any other
cost, an x-dependent H or a cost not affine in u, each RK4 stage solves u*
by a damped Newton written out in its code (``_newton_lines``),
warm-started from the stage before, and a failed solve ends the element.
``legendre_inverse`` runs the same Newton element by element and raises a
diffeomorphism violation where it fails rather than patching over,
because every downstream construction assumes the fiber derivative is
invertible. ``Lagrangian.rate_jacobian`` differentiates the stage rates
for the exact shooting Jacobian, in one generated evaluator of the chain
rule through u*: H^-1 enters as constants over the folded stage and by
the Newton's elimination otherwise.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .errors import DiffeomorphismViolationError, DimensionError, EvaluationError
from .fields import _rk4_loop, _tuple

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
        self._flows = {}
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
        """The Hamiltonian flow's stage for F, (y, w) -> (u*, rates).

        Generated once per field set F over stacked states y = (xi, p),
        with the rates (xi', p') at the feedback u*: one call of the
        folded evaluator, or else the loop's Newton stage element by
        element from the warm starts w, with u* NaN where it fails.
        """
        return self._flow(F)[0]

    def flow_loop(self, F):
        """The Hamiltonian flow's generated RK4 loop for F, run one element
        at a time by ``dynamics._run_loops``: ``fields._rk4_loop`` over the
        code of the folded or the Newton stage (``_stage``). For every cost
        it keeps the row (xi, p, u*) of each node, u* the control of RK4
        stage 0 there, the closing row included.
        """
        return self._flow(F)[2]

    def _flow(self, F):
        """(stage, folded evaluator or None, loop) for F, built once."""
        if F not in self._flows:
            self._flows[F] = _stage(F, self)
        return self._flows[F]

    def rate_jacobian(self, F):
        """The Jacobian of a flow stage's rates (xi', p') in y = (xi, p).

        Returns a function of the stage inputs (xi, p, u*) stacked on the
        last axis, (..., 2n + m), to the matrices (..., 2n, 2n), generated
        once per field set F from the symbolic derivatives of the stage as
        one evaluator of the chain rule through u* (``_rate_jacobian``).
        Over a Newton stage u* enters through the implicit-function
        derivative of d_uL(xi, u*) = z(xi, p), and an element whose H has a
        zero pivot gets a non-finite Jacobian. The folded and the Newton
        forms agree to roundoff where both apply.
        """
        if F not in self._rate_jacobians:
            self._rate_jacobians[F] = _rate_jacobian(F, self)
        return self._rate_jacobians[F]


_ZERO = ex.Const(0.0)


def _stage_exprs(F, L: Lagrangian):
    """x, z and the rates (xi', p') of a flow stage for the field set F.

    The variables are x1..xn, p1..pn, u1..um at indices 0..2n+m-1. z is
    B(xi)^T p, and the rates are Hamilton's equations of the Hamiltonian
    h(xi, p, u) = <z, u> - L(xi, u), from its exact derivatives:
    xi' = dh/dp = B u and p' = -dh/dxi = -(sum_i u_i dX_i)^T p + d_xL,
    with symbolically zero terms dropped.
    """
    n, m = F.n, F.m
    x = [ex.Var(f"x{k + 1}", k) for k in range(n)]
    p = [ex.Var(f"p{k + 1}", n + k) for k in range(n)]
    u = [ex.Var(f"u{k + 1}", 2 * n + k) for k in range(m)]
    X = F.components  # X[i][j] = (X_i)_j = B[j, i]
    z = [ex.add(*(ex.mul(X[i][j], p[j]) for j in range(n))) for i in range(m)]
    h = ex.add(*(ex.mul(u[i], z[i]) for i in range(m)),
               ex.mul(ex.Const(-1.0), ex.substitute(L.expression, x + u)))
    rates = [h.diff(n + k) for k in range(n)]
    rates += [ex.mul(ex.Const(-1.0), h.diff(k)) for k in range(n)]
    return x, z, rates


def _rate_jacobian(F, L: Lagrangian):
    """``Lagrangian.rate_jacobian`` as one generated evaluator: entry
    (r, k) is the chain rule dR_r/dy_k + sum_i dR_r/du_i du*_i/dy_k, with
    the rates R read at the input u* as the loop computed it.

    The folded stage's u* = H^-1 (z - g0(xi)) is an expression in y with
    H^-1 as constants, so du*/dy is its derivative. A Newton stage's du*/dy
    is the implicit-function derivative, ``_eliminated`` H applied to the
    columns d/dy (z - d_uL(xi, u)) at fixed u. Symbolically zero terms
    drop out.
    """
    m, d = F.m, 2 * F.n
    folded = L._flow(F)[1]
    if folded is not None:
        u_star, rates = folded.exprs[:m], folded.exprs[m:]
        du = [[e.diff(k) for e in u_star] for k in range(d)]
    else:
        x, z, rates = _stage_exprs(F, L)
        u = [ex.Var(f"u{k + 1}", d + k) for k in range(m)]
        grad, hess = L._fiber_exprs()
        gap = [ex.add(z[i], ex.mul(ex.Const(-1.0),
                                   ex.substitute(grad[i], x + u)))
               for i in range(m)]
        du = _eliminated([ex.substitute(e, x + u) for e in hess],
                         [[g.diff(k) for g in gap] for k in range(d)])
    evaluate = ex.compile_vector(
        [ex.add(r.diff(k), *(ex.mul(r.diff(d + i), du[k][i])
                             for i in range(m)))
         for r in rates for k in range(d)], d + m)

    def jacobian(v):
        out = evaluate(v)
        return out.reshape(out.shape[:-1] + (d, d))

    return jacobian


def _stage(F, L: Lagrangian):
    """(stage, folded, loop): the functions ``Lagrangian.flow_stage`` and
    ``Lagrangian.flow_loop`` return for F, and the folded evaluator, None
    for a Newton stage.

    The loop is ``fields._rk4_loop`` on y = (xi, p) with ``range(M)`` for
    its steps, each RK4 stage's code the stage's: over a folded stage the
    folded evaluator's lowering at the stage input, its u* the values, so
    a step does a numpy RK4's arithmetic over the evaluator bit for bit;
    otherwise ``_newton_stage``'s lines.
    """
    m, d = F.m, 2 * F.n
    folded = _folded_stage(F, L)
    if folded is None:
        code, stage = _newton_stage(F, L)
    else:
        def code(s, y, w):
            lines, outputs = ex.scalar_code(folded.exprs, y)
            return lines, outputs[:m], outputs[m:]

        def stage(y, w):
            out = folded(y)
            return out[..., :m], out[..., m:]
    return stage, folded, _rk4_loop(d, m, ["_j"], code)


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
    not affine in u take the Newton stage and its per-element test.
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
    rows = [[z[k] if h == 1.0 else ex.Mul((ex.Const(float(h)), z[k]))
             for k, h in enumerate(row) if h != 0.0] for row in H_inv]
    u_star = [ex.Add(tuple(t)) if len(t) > 1 else t[0] if t else _ZERO
              for t in rows]
    return ex.compile_vector(u_star + rates, 2 * n)


def _eliminated(H, columns):
    """H^-1 applied to each column, as expressions: Gaussian elimination
    without pivoting on the row-major m x m expression list H, whose
    pivot reciprocals and row multipliers every column shares.

    A zero pivot makes its reciprocal infinite and the columns non-finite.
    H is a control Hessian, symmetric and, where the cost is strictly
    convex, positive definite, which needs no pivoting.
    """
    m = len(columns[0])
    A = [list(H[i * m:(i + 1) * m]) for i in range(m)]
    cols = [list(c) for c in columns]
    minus = ex.Const(-1.0)
    inverse = []
    for k in range(m):
        inverse.append(ex.power(A[k][k], -1))
        for i in range(k + 1, m):
            f = ex.mul(minus, A[i][k], inverse[k])
            A[i][k + 1:] = [ex.add(a, ex.mul(f, b))
                            for a, b in zip(A[i][k + 1:], A[k][k + 1:])]
            for c in cols:
                c[i] = ex.add(c[i], ex.mul(f, c[k]))
    for c in cols:
        for k in reversed(range(m)):
            c[k] = ex.mul(ex.add(c[k], *(ex.mul(minus, A[k][j], c[j])
                                         for j in range(k + 1, m))),
                          inverse[k])
    return cols


def _products(e):
    """e with each power of a whole exponent from 3 to 8 written as a
    product of its base's factors: Python floats multiply far faster than
    ``expr.scalar_code`` takes such a power, through numpy, and the
    Newton's arithmetic need match no other code's."""
    if isinstance(e, ex.Pow):
        base = _products(e.base)
        k = e.exponent
        return ex.Mul((base,) * int(k)) if k in range(3, 9) \
            else ex.Pow(base, k)
    if isinstance(e, ex.Add):
        return ex.Add(tuple(map(_products, e.terms)))
    if isinstance(e, ex.Mul):
        return ex.Mul(tuple(map(_products, e.factors)))
    if isinstance(e, ex.Func):
        return ex.Func(e.name, _products(e.arg))
    return e


def _newton_lines(L: Lagrangian, x, u):
    """The damped Newton on d_uL(x, u) = z as lines of Python code.

    The lines read the locals x (n names), _z0.. (z) and u (m names, the
    warm start) and leave the last iterate in u; it solves the equation
    where ``_rr < _tol`` holds after them. Each iteration solves
    H(x, u) s = r, r = d_uL(x, u) - z, by ``_eliminated``, and tries
    u - a s for a = 1, 1/2, ... over LEGENDRE_MAX_HALVINGS scales,
    keeping the first whose |r| falls below the iterate's: the scale
    ``dynamics._backtrack`` picks. The solve stops where
    |r| < LEGENDRE_TOL (1 + |z|), relative as the roundoff of
    d_uL(x, u) - z grows with |z|, and fails where a step is not finite
    (s - s is then not 0), every scale is rejected or LEGENDRE_MAX_ITER
    steps do not reach the tolerance. |r| and the tolerance are compared
    squared. Each ``expr.scalar_code`` block is read only by the lines
    that follow it, so its temporaries may reuse another block's names.
    """
    n, m = L.n, L.m
    grad, hess = ([_products(e) for e in exprs] for exprs in L._fiber_exprs())
    z, r, s, c, q = ([f"_{v}{i}" for i in range(m)] for v in "zrscq")

    def block(exprs, names, out):
        lines, outputs = ex.scalar_code(exprs, names)
        return lines + [f"{_tuple(out)} = {_tuple(outputs)}"]

    def residual(u, r, rr):
        gap = [ex.add(g, ex.mul(ex.Const(-1.0), ex.Var(z[i], n + m + i)))
               for i, g in enumerate(grad)]
        out = [ex.Var(r[i], n + 2 * m + i) for i in range(m)]
        norm = ex.add(*(ex.mul(v, v) for v in out))
        return block(gap + [norm], x + u + z, r + [rr])

    rhs = [ex.Var(r[i], n + m + i) for i in range(m)]
    step = block(_eliminated(hess, [rhs])[0], x + u + r, s)
    full = [f"{c[i]} = {u[i]} - {s[i]}" for i in range(m)]
    trial = [f"{c[i]} = {u[i]} - _a * {s[i]}" for i in range(m)]
    return ([f"_tol = {LEGENDRE_TOL!r} * (1.0 + ("
             + " + ".join(f"{v} * {v}" for v in z) + ") ** 0.5)",
             "_tol = _tol * _tol"]
            + residual(u, r, "_rr")
            + [f"_i = {LEGENDRE_MAX_ITER}",
               "while _i and not _rr < _tol:",
               "    _i -= 1"]
            + [f"    {line}" for line in step]
            + ["    if " + " + ".join(f"({v} - {v})" for v in s)
               + " != 0.0:",
               "        break"]
            + [f"    {line}" for line in full + residual(c, q, "_qq")]
            + ["    if not _qq < _rr:",
               "        _a = 0.5",
               f"        for _k in range({LEGENDRE_MAX_HALVINGS - 1}):"]
            + [f"            {line}" for line in trial + residual(c, q, "_qq")]
            + ["            if _qq < _rr:",
               "                break",
               "            _a = _a * 0.5",
               "        else:",
               "            break",
               f"    {_tuple(u + r + ['_rr'])} = {_tuple(c + q + ['_qq'])}"])


def _row_function(name, args, lines, out):
    """Source of ``name(rows)``: for each row, the locals args, then lines;
    returns the outputs out of every row in one flat list."""
    return "\n".join([f"def {name}(_rows):", "    _out = []",
                      f"    for {', '.join(args)} in _rows:"]
                     + [f"        {line}" for line in lines]
                     + [f"        _out += {_tuple(out)}", "    return _out"])


def _failed(u):
    """Lines that make u NaN where the ``_newton_lines`` before them failed."""
    return ["if not _rr < _tol:", f"    {' = '.join(u)} = nan"]


def _newton_stage(F, L: Lagrangian):
    """(code, stage) of a Newton stage, whose u* every RK4 stage solves in
    generated code from the u* of the stage before it.

    ``code(s, y, w)`` is the stage as ``fields._rk4_loop`` takes it: lines
    that compute z = B(xi)^T p at the stage input y, run ``_newton_lines``
    in _u0.. from the warm start w and make u* NaN where the solve fails,
    then u* and the rates at it. The stage function runs the same lines
    one element at a time (``_stages``), the loop's arithmetic bit for bit,
    with u* NaN where the solve fails: the flow's first stage from its
    node control re-forms the loop's, as a solved warm start takes no step.
    """
    n, m, d = F.n, F.m, 2 * F.n
    _, z, rates = _stage_exprs(F, L)
    u = [f"_u{i}" for i in range(m)]

    def code(s, y, w):
        z_lines, z_out = ex.scalar_code(z, y)
        rate_lines, rate_out = ex.scalar_code(rates, y + u)
        return (z_lines + [f"_z{i} = {e}" for i, e in enumerate(z_out)]
                + [f"{_tuple(u)} = {_tuple(w)}"] + _newton_lines(L, y[:n], u)
                + _failed(u) + rate_lines, u, rate_out)

    y, w = [f"_y{j}" for j in range(d)], [f"_w{i}" for i in range(m)]
    lines, u_out, k_out = code(0, y, w)
    stages = ex.scalar_function(
        _row_function("_stages", y + w, lines, u_out + k_out), "_stages")

    def stage(y, w):
        batch = y.shape[:-1]
        rows = np.concatenate((y, np.broadcast_to(w, batch + (m,))), axis=-1)
        out = np.array(stages(rows.reshape(-1, d + m).tolist()),
                       dtype=float).reshape(batch + (m + d,))
        return out[..., :m], out[..., m:]

    return code, stage


def parse_lagrangian(text, n, m) -> Lagrangian:
    """Parse one scalar expression over x1..xn, u1..um.

    ``abs`` is accepted so that non-smooth benchmark costs can be evaluated;
    differentiating such a Lagrangian raises, which keeps the solver paths
    honest about their smoothness requirement.
    """
    names = [f"x{k + 1}" for k in range(n)] + [f"u{k + 1}" for k in range(m)]
    expression = ex.parse_scalar(text, names, allow_abs=True)
    return Lagrangian(n, m, expression, source=text)


def legendre_inverse(L: Lagrangian, x, z, u0=None):
    """Solve d_uL(x, u) = z for u, element by element with the damped
    Newton the flow's stages run (``_newton_lines``), from u0 (default 0).

    Raises a diffeomorphism violation if any batch element fails to reach
    tolerance: a zero pivot of the control Hessian, a stalled line search,
    whose LEGENDRE_MAX_HALVINGS trials were all rejected, or
    LEGENDRE_MAX_ITER steps that do not reach it.
    """
    n, m = L.n, L.m
    args = [f"_x{j}" for j in range(n)] + [f"_{v}{i}" for v in "zu"
                                           for i in range(m)]
    u0 = np.zeros(m) if u0 is None else u0
    parts = [np.asarray(a, dtype=float) for a in (x, z, u0)]
    if [a.shape[-1:] for a in parts] != [(n,), (m,), (m,)]:
        raise DimensionError(f"expected x(...,{n}), z(...,{m}) and "
                             f"u0(...,{m}), got {[a.shape for a in parts]}")
    solve = ex.scalar_function(_row_function(
        "_solve", args, _newton_lines(L, args[:n], args[n + m:])
        + _failed(args[n + m:]), args[n + m:]), "_solve")
    batch = np.broadcast_shapes(*(a.shape[:-1] for a in parts))
    rows = np.concatenate([np.broadcast_to(a, batch + a.shape[-1:])
                           for a in parts], axis=-1)
    u = np.array(solve(rows.reshape(-1, n + 2 * m).tolist()),
                 dtype=float).reshape(batch + (m,))
    failed = np.count_nonzero(np.isnan(u).any(axis=-1))
    if failed:
        raise DiffeomorphismViolationError(
            f"fiber-derivative inversion did not reach tolerance "
            f"{LEGENDRE_TOL:g} (1 + |z|) at {failed} of "
            f"{rows.size // (n + 2 * m)} points")
    return u


def trapezoid(values, times):
    dt = np.diff(times)
    return float(np.sum(dt * (values[..., :-1] + values[..., 1:]) / 2.0))


def phi_from_samples(L: Lagrangian, times, x_nodes, u_nodes):
    """Trapezoid value of the running cost from explicit node samples."""
    return trapezoid(L.value(x_nodes, u_nodes), times)
