"""Expression mini-language: parsing, exact derivatives, guard rails."""

import numpy as np
import pytest

from extremals import expr as ex
from extremals.errors import ExpressionGrowthError, ParseError

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
