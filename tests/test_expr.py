"""Expression mini-language: parsing, exact derivatives, guard rails."""

import ast
import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extremals import expr as ex
from extremals.errors import ExpressionGrowthError, ParseError
from extremals.lagrangian import _folded_stage
from extremals.scenario import (resolve_scenario, scenario_fields,
                                scenario_lagrangian)

from oracles import term_size

COMPLEX_STEP = 1e-30


def test_parse_and_eval_polynomial():
    e = ex.parse_scalar("(x1^2 - 1)^2 + x1*x2", ["x1", "x2"])
    assert e.eval((2.0, 3.0)) == pytest.approx(15.0)
    assert e.eval((0.0, 7.0)) == pytest.approx(1.0)


def test_constants_and_functions():
    e = ex.parse_scalar("sin(pi*x1) + exp(0) + cos(0)", ["x1"])
    assert e.eval((0.5,)) == pytest.approx(3.0, abs=1e-15)


def test_unary_minus_and_precedence():
    e = ex.parse_scalar("-x1^2 + 2*x1 - 1", ["x1"])
    # -x1^2 must parse as -(x1^2), not (-x1)^2.
    assert e.eval((3.0,)) == pytest.approx(-4.0)


def test_fractional_power():
    e = ex.parse_scalar("x1^0.5", ["x1"])
    assert e.eval((4.0,)) == pytest.approx(2.0)


def test_derivatives_match_complex_step():
    names = ["x1", "x2", "u1"]
    e = ex.parse_scalar("sin(2*x1)*exp(x2/3) + x1^3*u1 + cos(u1*x2)", names)
    ds = [e.diff(k) for k in range(3)]
    rng = np.random.default_rng(5)
    for _ in range(20):
        pt = rng.uniform(-2.0, 2.0, size=3)
        for k in range(3):
            bumped = pt.astype(complex)
            bumped[k] += 1j * COMPLEX_STEP
            want = e.eval(tuple(bumped)).imag / COMPLEX_STEP
            got = ds[k].eval(tuple(pt))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_derivative_of_linear_is_constant():
    e = ex.parse_scalar("3*x1 + 2", ["x1"])
    d = e.diff(0)
    assert isinstance(d, ex.Const)
    assert d.value == pytest.approx(3.0)


def test_abs_gated_behind_flag():
    with pytest.raises(ParseError):
        ex.parse_scalar("abs(u1)", ["u1"])
    e = ex.parse_scalar("abs(u1^2 - 1)", ["u1"], allow_abs=True)
    assert e.eval((2.0,)) == pytest.approx(3.0)
    with pytest.raises(ParseError):
        e.diff(0)


@pytest.mark.parametrize("bad", [
    "x1 +",
    "(x1",
    "x9",
    "x1 $ 2",
    "foo(x1)",
    "",
])
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        ex.parse_scalar(bad, ["x1"])


def test_parse_components_count_and_eval():
    comps = ex.parse_components("(1, 0, -x2/2)", 3, ["x1", "x2", "x3"])
    assert len(comps) == 3
    assert comps[2].eval((0.0, 4.0, 0.0)) == pytest.approx(-2.0)
    with pytest.raises(ParseError):
        ex.parse_components("(1, 0)", 3, ["x1", "x2", "x3"])


def test_compiled_vector_broadcasts():
    # One array with the variables on its last axis, any batch shape in
    # front; complex entries pass through, as complex-step oracles need.
    comps = ex.parse_components("(x1 + x2, x1*x2, sin(x2)/x1, 3)", 4,
                                ["x1", "x2"])
    fn = ex.compile_vector(comps, 2)
    rng = np.random.default_rng(4)
    a = (rng.uniform(0.5, 2.0, size=(3, 5, 2))
         + 1j * rng.uniform(-1.0, 1.0, size=(3, 5, 2)))
    out = fn(a)
    assert out.shape == (3, 5, 4)
    assert out.dtype == np.complex128
    cols = tuple(np.moveaxis(a, -1, 0))
    for j, e in enumerate(comps):
        np.testing.assert_array_equal(out[..., j], e.eval(cols))


def test_node_cap_guard():
    e = ex.parse_scalar("(x1 + 1)^2 * (x1 - 1)^2", ["x1"])
    with pytest.raises(ExpressionGrowthError):
        ex.check_node_cap([e], cap=3)
    ex.check_node_cap([e], cap=ex.NODE_CAP)  # the default cap is roomy


def test_str_round_trips_through_parser():
    e = ex.parse_scalar("sin(2*x1)*x2 + x1^3/4", ["x1", "x2"])
    again = ex.parse_scalar(str(e), ["x1", "x2"])
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = tuple(rng.uniform(-1.5, 1.5, size=2))
        assert again.eval(pt) == pytest.approx(e.eval(pt), rel=1e-14)


# -- the generator ----------------------------------------------------------
#
# Random expression DAGs: each new node combines earlier ones, so subtrees
# repeat both as shared objects and as equal copies, with negative
# constants, -1 factors, +0.0 and -0.0 terms, unit factors, powers and
# sin/cos/exp. Add and Mul are built raw, as ``substitute`` and the flow
# stage build them, so none of this is folded away before compilation.

CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0]) \
    | st.floats(-4.0, 4.0)
NVARS = 3


def _size(e, memo):
    """Tree size of e, shared subtrees counted at each use."""
    if id(e) not in memo:
        kids = (e.terms if isinstance(e, ex.Add) else
                e.factors if isinstance(e, ex.Mul) else
                (e.base,) if isinstance(e, ex.Pow) else
                (e.arg,) if isinstance(e, ex.Func) else ())
        memo[id(e)] = 1 + sum(_size(k, memo) for k in kids)
    return memo[id(e)]


def _negated(e):
    return ex.Mul((ex.Const(-1.0), e))


@st.composite
def expression_dags(draw):
    pool = [ex.Var(f"x{i + 1}", i) for i in range(NVARS)]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["const", "add", "mul", "neg", "pow",
                                     "func", "copy"]))
        pick = st.sampled_from(pool)
        operand = st.one_of(pick, pick.map(_negated), CONSTANTS.map(ex.Const))
        if kind == "const":
            e = ex.Const(draw(CONSTANTS))
        elif kind == "add":
            e = ex.Add(tuple(draw(st.lists(operand, min_size=2, max_size=4))))
        elif kind == "mul":
            e = ex.Mul(tuple(draw(st.lists(operand, min_size=2, max_size=3))))
        elif kind == "neg":
            e = _negated(draw(pick))
        elif kind == "pow":
            e = ex.Pow(draw(pick), draw(st.sampled_from([2.0, 3.0, -1.0])))
        elif kind == "func":
            e = ex.Func(draw(st.sampled_from(["sin", "cos", "exp"])),
                        draw(pick))
        else:
            # An equal copy that is another object.
            e = ex.substitute(draw(pick), pool[:NVARS])
        pool.append(e)
    outputs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    memo = {}
    assume(sum(_size(e, memo) for e in outputs) <= 2000)
    return outputs


# Every row of +-0.0 and +-1.0, where sums cancel exactly, then uniform rows.
SPECIAL_ROWS = np.stack(np.meshgrid(*[[0.0, -0.0, 1.0, -1.0]] * NVARS),
                        axis=-1).reshape(-1, NVARS)


def _quiet(fn):
    """fn() with numpy's floating-point warnings silenced."""
    with np.errstate(all="ignore"):
        return fn()


def _evaluated(exprs, a):
    cols = tuple(np.moveaxis(a, -1, 0))
    return [_quiet(lambda: e.eval(cols)) for e in exprs]


def _scalar_evaluated(exprs, a):
    """exprs by the code of ``scalar_code``, on each row of a (rows, k)
    held as Python numbers; outputs on the last axis."""
    names = [f"_x{i}" for i in range(NVARS)]
    lines, outputs = ex.scalar_code(exprs, names)
    fn = ex.scalar_function("\n    ".join(
        [f"def _fn({', '.join(names)}):"] + lines
        + [f"return [{', '.join(outputs)}]"]), "_fn")
    return np.array([fn(*row) for row in a.tolist()])


def _assert_eval_bits(exprs, a):
    """The compiled exprs, and their scalar code, equal Expr.eval on the
    rows a, bit for bit."""
    want = _evaluated(exprs, a)
    compiled = _quiet(lambda: ex.compile_vector(exprs, NVARS)(a))
    # Python's float power and division raise where float64 does not; the
    # scalar code must not, so no warning is silenced around it.
    for got in (compiled, _scalar_evaluated(exprs, a)):
        for j, w in enumerate(want):
            w = np.broadcast_to(w, got.shape[:-1])
            np.testing.assert_array_equal(got[..., j], w)
            # Signed zeros included; IEEE leaves the sign of a NaN open.
            number = ~np.isnan(w)
            np.testing.assert_array_equal(np.signbit(got[..., j])[number],
                                          np.signbit(w)[number])


def _parsed(text):
    return [ex.parse_scalar(text, [f"x{i + 1}" for i in range(NVARS)])]


@settings(max_examples=300, deadline=None)
@given(exprs=expression_dags(), seed=st.integers(0, 2 ** 32 - 1))
# Constant powers Python's float power cannot take fold as float64 does,
# and a non-finite exponent evaluates as numpy takes it.
@example(exprs=_parsed("x1^1e400"), seed=0)
@example(exprs=_parsed("x1^(1e400-1e400)"), seed=0)
@example(exprs=_parsed("(x1^1e200)^1e200"), seed=0)
@example(exprs=_parsed("(-2)^0.5 + x1"), seed=0)
@example(exprs=_parsed("1e308^2 + x1"), seed=0)
@example(exprs=_parsed("0^(-1) + x1"), seed=0)
# Where Python's float arithmetic raises and float64 does not: powers of
# constants the lowering folds, a square that overflows, and a reciprocal
# of x1 = 0 and x1 = -0.
@example(exprs=[ex.Pow(ex.Const(0.0), -1.0)], seed=0)
@example(exprs=[ex.Pow(ex.Const(1e200), 2.0)], seed=0)
@example(exprs=[ex.Pow(ex.Var("x1", 0), -1.0)], seed=0)
@example(exprs=[ex.Pow(ex.Mul((ex.Const(1e200), ex.Var("x1", 0))), 2.0)],
         seed=0)
@example(exprs=[ex.Pow(ex.Var("x1", 0), 3.0), ex.Pow(ex.Var("x2", 1), 0.5),
                ex.Func("exp", ex.Mul((ex.Const(1e3), ex.Var("x3", 2))))],
         seed=0)
def test_generated_code_is_expr_eval_to_the_bit(exprs, seed):
    _assert_eval_bits(exprs, np.concatenate((
        SPECIAL_ROWS,
        np.random.default_rng(seed).uniform(-2.0, 2.0, (8, NVARS)))))


X1, X2, X3 = (ex.Var(f"x{i + 1}", i) for i in range(NVARS))
ZERO, MINUS_ZERO = ex.Const(0.0), ex.Const(-0.0)
# One case per rewrite, each where a signed zero would show a slip.
CORNERS = [
    ex.Mul((X1, ex.Const(-1.0))),
    ex.Mul((ex.Const(-0.5), X1)),
    ex.Mul((ex.Const(-0.5), X1, X2)),
    ex.Mul((X1, ex.Const(-2.0), X2)),
    ex.Mul((ex.Const(2.0), ex.Const(-0.5), X1)),
    ex.Mul((ex.Const(1.0), X1)),
    ex.Add((_negated(X1), _negated(X2))),
    ex.Add((_negated(X1), X2, _negated(X3))),
    ex.Add((X1, _negated(X2))),
    ex.Add((ex.Const(-3.0), X1)),
    ex.Add((X1, ZERO)),
    ex.Add((ZERO, X1, X2)),
    ex.Add((X1, MINUS_ZERO)),
    ex.Add((_negated(X1), ZERO)),
    ex.Add((ex.Add((X1, ZERO)), ZERO)),
    ex.Add((ex.Add((X1, _negated(ex.Add((X2, ZERO))))), ZERO)),
    ex.Add((ex.Add((_negated(X1), ZERO)), X2, ZERO)),
    ex.Pow(_negated(X1), 2.0),
    ex.Func("sin", _negated(X1)),
    ex.Add((ex.Mul((ex.Const(0.5), X1)), ex.Mul((ex.Const(-0.5), X1)))),
    # Constant runs: a negative base, and a product that overflows to inf.
    ex.Mul((ex.Pow(ex.Const(-2.0), 2.0), X1)),
    ex.Mul((ex.Const(1e300), ex.Const(1e300), X1)),
]


def _corner_id(e):
    """str(e) with -0 written 0: x1 + 0 and x1 + -0 share a name, which
    pytest numbers."""
    return str(e).replace("((-1e999)^(-1))", "0")


@pytest.mark.parametrize("corner", CORNERS, ids=_corner_id)
def test_generated_code_keeps_each_rewrite_to_the_bit(corner):
    _assert_eval_bits([corner, ex.Mul((corner, X3))], SPECIAL_ROWS)


# Powers of a constant base that Python's float power cannot take, built
# without ``power``: directly, and by ``substitute`` pinning x1 = 0, as the
# flow stage pins u = 0.
CONSTANT_POWERS = [
    ex.Pow(ZERO, -1.0),
    ex.Pow(ex.Const(1e200), 2.0),
    ex.substitute(ex.parse_scalar("x1^-1 + u1^2", ["x1", "u1"]), [ZERO, X2]),
]


@pytest.mark.parametrize("e", CONSTANT_POWERS, ids=str)
def test_a_constant_power_is_taken_in_float64(e):
    # float64 overflows and divides by zero to inf, as ``power`` folds both.
    assert np.all(_quiet(lambda: e.eval(tuple(SPECIAL_ROWS.T))) == np.inf)
    out = ex.compile_vector([e], NVARS)(SPECIAL_ROWS)
    np.testing.assert_array_equal(out[:, 0], np.inf)
    _assert_eval_bits([e, ex.Mul((e, X3))], SPECIAL_ROWS)


@settings(max_examples=200, deadline=None)
@given(exprs=expression_dags(), seed=st.integers(0, 2 ** 32 - 1))
# A product by 0.0 is an exact complex zero, whose reciprocal numpy takes
# to NaN with a warning, on arrays as in Expr.eval.
@example(exprs=[ex.Pow(ex.Mul((ex.Var("x1", 0), ZERO)), -1.0)], seed=0)
def test_generated_code_agrees_with_expr_eval_on_complex_inputs(exprs, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, (7, NVARS)) * rng.choice([-1.0, 1.0], (7, NVARS))
    a = a + 1j * COMPLEX_STEP * rng.uniform(-1.0, 1.0, a.shape)
    want = _evaluated(exprs, a)
    # The array code warns where Expr.eval does; the scalar code must not.
    compiled = _quiet(lambda: ex.compile_vector(exprs, NVARS)(a))
    for got in (compiled, _scalar_evaluated(exprs, a)):
        for j, w in enumerate(want):
            w = np.broadcast_to(w, got.shape[:-1])
            finite = np.isfinite(w)
            # Real and complex-step parts alike, each to its own roundoff.
            for part in (np.real, np.imag):
                np.testing.assert_allclose(part(got[..., j])[finite],
                                           part(w)[finite], rtol=1e-12,
                                           atol=0)


@settings(max_examples=200, deadline=None)
@given(exprs=expression_dags(), seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_derivatives_match_the_complex_step(exprs, seed):
    # Im e(x + i h e_k) / h is e's k-th derivative up to O(h^2) and
    # roundoff, with no cancellation in h. The DAGs' powers are integral,
    # so every point is on the real branch; points where e, its step or
    # its derivative is not finite are left out, and so are those where
    # two steps disagree: there the imaginary parts underflow.
    a = np.random.default_rng(seed).uniform(-2.0, 2.0, (8, NVARS))
    for e in exprs:
        derivatives = [e.diff(k) for k in range(NVARS)]
        grad = ex.compile_vector(derivatives, NVARS)
        fn = ex.compile_vector([e], NVARS)
        value = _quiet(lambda: fn(a)[:, 0])
        memo = {}
        with np.errstate(all="ignore"):
            want, coarse = (np.stack(
                [fn(a + 1j * h * np.eye(NVARS)[k])[:, 0].imag / h
                 for k in range(NVARS)], axis=-1)
                for h in (COMPLEX_STEP, 1e-20))
            got = grad(a)
            size = np.stack([np.broadcast_to(
                term_size(d, tuple(a.T), memo)[1], a.shape[:1])
                for d in derivatives], axis=-1)
        # A derivative that cancels, as that of x1 * x1^-1, keeps the
        # roundoff of its terms: the absolute floor is 1e-10 of their size,
        # and what the step resolves above the smallest normal float.
        with np.errstate(all="ignore"):
            bound = 1e-10 * (np.abs(want) + size) \
                + np.finfo(float).smallest_normal / COMPLEX_STEP
            close = np.abs(got - want) <= bound
            finite = np.isfinite(value) & np.isfinite(want).all(axis=-1) \
                & np.isfinite(got).all(axis=-1) \
                & np.isfinite(bound).all(axis=-1) \
                & (np.abs(coarse - want) <= bound).all(axis=-1)
        assume(finite.any())
        assert close[finite].all(), (got[finite], want[finite])


def _as_read(e):
    """e as the parser builds it from str(e): sums and products nested in
    their own kind print flat and are read left to right, and every node
    goes through the folding constructors."""
    if isinstance(e, (ex.Add, ex.Mul)):
        fold = ex.add if isinstance(e, ex.Add) else ex.mul

        def leaves(x):
            if type(x) is not type(e):
                return [x]
            kids = x.terms if isinstance(x, ex.Add) else x.factors
            return [leaf for k in kids for leaf in leaves(k)]

        return functools.reduce(fold, map(_as_read, leaves(e)))
    if isinstance(e, ex.Pow):
        return ex.power(_as_read(e.base), e.exponent)
    if isinstance(e, ex.Func):
        return ex.func(e.name, _as_read(e.arg))
    return e


@settings(max_examples=300, deadline=None)
@given(exprs=expression_dags())
# ^ is right-associative: x1^3^(-1) would read back as x1^(1/3).
@example(exprs=[ex.Pow(ex.Pow(ex.Var("x1", 0), 3.0), -1.0)])
# -0 keeps its sign, which a reciprocal turns into that of an infinity.
@example(exprs=[ex.Pow(ex.Const(-0.0), -1.0)])
def test_printed_expressions_parse_back_to_their_trees(exprs):
    # Exact, not a comparison of values: folding reorders sums, so a value
    # check fails on cancellations such as -x1 + 2.2e-311 + x1.
    names = [f"x{i + 1}" for i in range(NVARS)]
    for e in exprs:
        assert ex.parse_scalar(str(e), names) == _as_read(e)


def test_non_finite_constants_print_and_parse_back():
    for text in ("1e400*x1", "x1 - 1e400", "x1 + 1e400 - 1e400"):
        e = ex.parse_scalar(text, ["x1"])
        again = ex.parse_scalar(str(e), ["x1"])
        assert str(again) == str(e)
        np.testing.assert_array_equal(again.eval((2.0,)), e.eval((2.0,)))


@pytest.mark.parametrize("text", ["1e400*0*x1", "0*1e400*x1", "x1*1e400*0",
                                  "(1e400-1e400)*0*x1", "1e-200*1e-200*x1"])
def test_a_zero_constant_factor_folds_the_product_to_zero(text):
    # Folded in order, 0 * inf would leave NaN * x1; a zero factor gives
    # 0 whatever the other constants are, as beside a variable.
    assert ex.parse_scalar(text, ["x1"]) == ex.Const(0.0)


def test_a_non_finite_constant_compiles():
    e = ex.parse_scalar("x1 + 1e400 - x2*1e400", ["x1", "x2"])
    a = np.array([[1.0, 2.0], [0.0, -1.0]])
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(ex.compile_vector([e], 2)(a)[:, 0],
                                      e.eval(tuple(a.T)))


def test_an_output_may_read_an_earlier_one():
    x1, x2 = ex.Var("x1", 0), ex.Var("x2", 1)
    z = ex.Add((x1, ex.Mul((ex.Const(-0.5), x2)), ex.Const(0.0)))
    fn = ex.compile_vector([z, ex.Add((ex.Var("z", 2), ex.Const(0.0))),
                            ex.Mul((ex.Var("z", 2), x2))], 2)
    a = np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 2.0]])
    out = fn(a)
    want = z.eval(tuple(a.T))
    for j in range(2):
        np.testing.assert_array_equal(out[:, j], want)
        np.testing.assert_array_equal(np.signbit(out[:, j]), np.signbit(want))
    np.testing.assert_array_equal(out[:, 2], want * a[:, 1])
    with pytest.raises(ValueError, match="earlier output"):
        ex.compile_vector([ex.Var("z", 2)], 2)


def test_the_heisenberg_stage_is_generated_lean():
    # Machine-independent counts of the emitted code: 0.5 * x1 and 0.5 * x2
    # (inputs 0 and 1) are computed once each, no sign is multiplied in,
    # no sum adds a 0.0 and the stage makes 13 numpy operations, and the
    # all-constant Jacobian stack of the fields is one copy of its template
    # row, with no store per output.
    sc = resolve_scenario("heisenberg")
    F, L = scenario_fields(sc), scenario_lagrangian(sc)
    source = _folded_stage(F, L).source
    assert source.count("0.5 * _v0") == 1
    assert source.count("0.5 * _v1") == 1
    assert "-1.0 *" not in source
    assert "(-1.0)" not in source
    nodes = list(ast.walk(ast.parse(source)))
    assert not any(isinstance(n, ast.Constant) and type(n.value) is float
                   and n.value == 0.0 for n in nodes)
    # Arithmetic, a ufunc writing an output, or a negation of a non-literal.
    operations = [n for n in nodes if isinstance(n, (ast.BinOp, ast.Call))
                  or isinstance(n, ast.UnaryOp)
                  and not isinstance(n.operand, ast.Constant)]
    assert len(operations) <= 13
    body = F._jac.source.splitlines()[1:]
    assert body == ["    _out[...] = _k"]
