"""Vector field families, Lie brackets, and the bracket-generating rank test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DimensionError

LIE_RANK_TOL = 1e-9
BRACKET_NODE_CAP = ex.NODE_CAP
ZERO = ex.Const(0.0)


class FieldSet:
    """m symbolic vector fields X_1..X_m on R^n with exact derivatives.

    ``components[i][j]`` is the j-th component of X_i as an expression in
    x1..xn. Instances are immutable by convention; all evaluators are
    compiled once at construction. B(x) and the Jacobians broadcast over
    leading batch axes. The state loop ``_loop`` (see ``_state_loop``)
    integrates xi' = B(xi) u for one control at a time in straight-line
    Python-float code: at batch one a 256-step heisenberg loop costs about
    0.20 ms against about 5.3 ms for the same loop over numpy arrays, while
    the array loop, whose cost hardly grows with the batch, wins only from
    about 22 controls integrated together. The loop keeps only the node
    states; ``_rates``, its rates over (x, u), re-forms the rest bit for bit.
    """

    def __init__(self, n, m, components, source=None):
        if m > n:
            raise DimensionError(f"m = {m} fields exceed state dimension n = {n}")
        if len(components) != m or any(len(c) != n for c in components):
            raise DimensionError("components must form an m x n grid")
        self.n = n
        self.m = m
        self.components = tuple(tuple(c) for c in components)
        self.source = source

        # B(x)[j, i] = (X_i)_j, matching xi' = B(xi) u.
        self._b = ex.compile_vector(
            [self.components[i][j] for j in range(n) for i in range(m)], n)
        # dX_i stacked: jac(x)[i, j, k] = d(X_i)_j / dx_k.
        self._jac = ex.compile_vector(
            [self.components[i][j].diff(k)
             for i in range(m) for j in range(n) for k in range(n)], n)
        self._loop = _state_loop(n, m, self.components)
        # The loop's rates over (x, u), for the stage inputs of a kernel.
        self._rates = ex.compile_vector(_rates(
            self.components, [ex.Var(f"x{j + 1}", j) for j in range(n)],
            [ex.Var(f"u{i + 1}", n + i) for i in range(m)]), n + m)

    # -- evaluation ------------------------------------------------------

    def _state(self, x):
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise DimensionError(f"state has dimension {x.shape[-1]}, expected {self.n}")
        return x

    def field_matrix(self, x):
        """B(x) with shape (..., n, m)."""
        out = self._b(self._state(x))
        return out.reshape(out.shape[:-1] + (self.n, self.m))

    def jacobian_stack(self, x):
        """All dX_i(x), shape (..., m, n, n)."""
        out = self._jac(self._state(x))
        return out.reshape(out.shape[:-1] + (self.m, self.n, self.n))

    def momentum(self, x, p):
        """Z(x, p) = (<p, X_i(x)>)_i, shape (..., m)."""
        return np.einsum("...nm,...n->...m", self.field_matrix(x), p)


def _rates(components, y, u):
    """The rates sum_i u_i X_i(y) at the state y and the controls u.

    A zero component adds no term: u_i * 0.0 would move only the sign of an
    exact zero. The others are built raw, as ``substitute`` builds:
    ``ex.mul``, which moves a constant factor to the front, and
    ``field_matrix(x) @ u`` would round differently."""
    rates = []
    for j in range(len(y)):
        terms = tuple(ex.Mul((c, ex.substitute(X[j], y)))
                      for c, X in zip(u, components) if X[j] != ZERO)
        rates.append(ex.Add(terms) if terms else ZERO)
    return rates


def _state_loop(n, m, components):
    """The generated RK4 loop of xi' = sum_i u_i X_i(xi) for one control.

    ``_loop(y, steps, h, guard)`` integrates from the state y, a list of
    n numbers, with step h, taking for each step of ``steps`` the controls
    of its four RK4 stages, one list of 4m numbers. Each stage's rates are
    ``_rates`` at the stage input, the expressions ``FieldSet._rates``
    compiles, and the loop is ``_rk4_loop``'s: it returns the node states,
    flat, and ends early at the first step whose new state leaves
    ``guard``.
    """
    names = ([f"_x{j}" for j in range(n)]
             + [f"_u{s}_{i}" for s in range(4) for i in range(m)])

    def stage(s, y):
        u = [ex.Var(f"u{i + 1}_{s}", n + s * m + i) for i in range(m)]
        return [], _rates(components, y, u)

    return _rk4_loop(n, names, stage)


def _rk4_loop(d, names, stage):
    """One generated RK4 loop ``_loop(y, steps, h, guard)`` on a state of
    d components, in straight-line Python-number code.

    ``names`` are the locals of the loop's variables: the d components of
    the state, then the numbers each item of ``steps`` unpacks to. For RK4
    stage s = 0..3 at the stage input y, a list of d expressions,
    ``stage(s, y)`` returns (values, rates): numbers the loop requires to
    be finite (the flow's u*), and the d rates. A step computes the stage
    inputs y + (h/2) k1, y + (h/2) k2 and y + h k3 and the new state
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4), with the operations and the
    operation order of a numpy RK4 over arrays, as one ``expr.scalar_code``
    lowering.

    The loop starts from the state y, a list of d numbers, and returns the
    node states, flat; an evaluator of the same rates re-forms the stage
    inputs from them bit for bit. It ends early at the first step with a
    value that is not finite or a new state component that is not finite
    or exceeds ``guard`` in modulus; that step's state is not kept.
    """
    x = [ex.Var(f"x{j + 1}", j) for j in range(d)]
    half, h, sixth = (ex.Var(v, len(names) + k)
                      for k, v in enumerate(("half", "h", "sixth")))
    two = ex.Const(2.0)
    values, ks, y = [], [], x
    for s, step in enumerate((half, half, h, None)):
        v, k = stage(s, y)
        values += v
        ks.append(k)
        if step is not None:
            y = [ex.Add((x[j], ex.Mul((step, k[j])))) for j in range(d)]
    k1, k2, k3, k4 = ks
    new = [ex.Add((x[j], ex.Mul((sixth, ex.Add((
        k1[j], ex.Mul((two, k2[j])), ex.Mul((two, k3[j])), k4[j]))))))
        for j in range(d)]
    lines, outputs = ex.scalar_code(values + new,
                                    names + ["_half", "_h", "_sixth"])

    def tup(items):
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    ys = tup(names[:d])
    body = list(lines)
    if values:
        # Checked before the state moves on: a value may be a state local.
        body += ["if not (" + " and ".join(
            f"abs({v}) < inf" for v in outputs[:len(values)]) + "):",
                 "    return _states"]
    body += [
        # Each new component reads the old state: all are evaluated first.
        f"{ys} = _new = {tup(outputs[len(values):])}",
        "if not (" + " and ".join(f"abs({v}) <= _guard"
                                  for v in names[:d]) + "):",
        "    return _states",
        "_states += _new"]
    source = "\n".join([
        "def _loop(_y, _steps, _h, _guard):",
        f"    {ys} = _y",
        "    _half = _h / 2.0",
        "    _sixth = _h / 6.0",
        "    _states = list(_y)",
        f"    for {', '.join(names[d:])} in _steps:"]
        + [f"        {line}" for line in body]
        + ["    return _states"])
    return ex.scalar_function(source, "_loop")


def parse_field_set(text, n, m):
    """Parse ``Xi = (...)`` statements into a FieldSet."""
    comps = ex.parse_field_statements(text, n, m)
    return FieldSet(n, m, comps, source=text)


def lie_bracket(X, Y, n):
    """[X, Y] = dY(x) X(x) - dX(x) Y(x), computed symbolically.

    X and Y are sequences of n expressions; the result is again n exact
    expressions. A node cap guards combinatorial growth in deep nestings.
    """
    comps = []
    for k in range(n):
        terms = []
        for j in range(n):
            terms.append(ex.mul(Y[k].diff(j), X[j]))
            terms.append(ex.mul(ex.Const(-1.0), X[k].diff(j), Y[j]))
        comps.append(ex.add(*terms))
    ex.check_node_cap(comps, BRACKET_NODE_CAP)
    return tuple(comps)


@dataclass(frozen=True)
class LieRankResult:
    rank: int
    depth: int
    basis: np.ndarray  # (rank, n) independent evaluated bracket vectors
    satisfied: bool    # rank == n
    max_depth: int

    def summary(self):
        status = "satisfied" if self.satisfied else f"unverified at depth {self.max_depth}"
        return f"rank {self.rank} at depth {self.depth} ({status})"


def _matrix_rank(rows, tol):
    if not rows:
        return 0
    sv = np.linalg.svd(np.asarray(rows), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def lie_rank(F, x, max_depth=10, tol=LIE_RANK_TOL):
    """Recursive bracket-generating span test at the point x.

    Level 1 holds the generators; level d+1 adds brackets of each generator
    with every level-d field. Rank counts singular values above ``tol``
    relative to the largest. Never raises on failure: an unsatisfied result
    simply reports rank < n at max_depth.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    x = np.asarray(x, dtype=float)
    generators = [tuple(F.components[i]) for i in range(F.m)]
    level = list(generators)
    vectors = []   # evaluated rows in discovery order
    basis_rows = []
    rank = 0
    depth_achieved = 1
    depth = 0
    while depth < max_depth:
        depth += 1
        for fld in level:
            vec = np.array([c.eval(tuple(x)) for c in fld], dtype=float)
            vectors.append(vec)
            new_rank = _matrix_rank(basis_rows + [vec], tol)
            if new_rank > rank:
                basis_rows.append(vec)
                rank = new_rank
                depth_achieved = depth
        if rank >= F.n or depth == max_depth:
            break
        level = [lie_bracket(g, w, F.n) for g in generators for w in level]
    basis = np.array(basis_rows) if basis_rows else np.zeros((0, F.n))
    return LieRankResult(rank=rank, depth=depth_achieved, basis=basis,
                         satisfied=rank == F.n, max_depth=max_depth)
