"""Vector field families: evaluation, exact brackets, the rank filtration."""

import numpy as np
import pytest

from extremals import expr as ex
from extremals.errors import DimensionError, ParseError
from extremals.fields import FieldSet, lie_bracket, lie_rank, parse_field_set
from extremals.lagrangian import (_folded_stage, _stage_exprs,
                                  parse_lagrangian)

HEISENBERG = """
X1 = (1, 0, -x2/2)
X2 = (0, 1, x1/2)
"""


def test_field_matrix_matches_hand_values():
    F = parse_field_set(HEISENBERG, 3, 2)
    x = np.array([0.3, -0.7, 2.0])
    B = F.field_matrix(x)
    want = np.array([[1.0, 0.0], [0.0, 1.0], [0.35, 0.15]])
    np.testing.assert_allclose(B, want, atol=1e-15)
    np.testing.assert_allclose(F.field_matrix(x)[..., :, 0], want[:, 0],
                               atol=1e-15)


def test_jacobians_are_exact():
    F = parse_field_set(HEISENBERG, 3, 2)
    x = np.array([1.0, 2.0, 3.0])
    d1 = F.jacobian_stack(x)[..., 0, :, :]
    d2 = F.jacobian_stack(x)[..., 1, :, :]
    want1 = np.zeros((3, 3))
    want1[2, 1] = -0.5
    want2 = np.zeros((3, 3))
    want2[2, 0] = 0.5
    np.testing.assert_allclose(d1, want1, atol=1e-15)
    np.testing.assert_allclose(d2, want2, atol=1e-15)


def test_momentum_and_costate_rate():
    F = parse_field_set(HEISENBERG, 3, 2)
    x = np.array([0.5, -0.25, 0.0])
    p = np.array([1.0, 2.0, 4.0])
    # <p, X_i(x)> channel by channel.
    z = F.momentum(x, p)
    np.testing.assert_allclose(z, [1.0 + 4.0 * 0.125, 2.0 + 4.0 * 0.25],
                               atol=1e-15)
    # The flow stage's p' = -A^T p + d_xL with A = u1 dX1 + u2 dX2, whose
    # only entries are A[2, 0] = u2/2 and A[2, 1] = -u1/2; d_xL = (0, 0, u1).
    L = parse_lagrangian("(u1^2 + u2^2)/2 + x3*u1", 3, 2)
    _, z_exprs, rates = _stage_exprs(F, L)
    pre, post = ex.compile_vector(z_exprs, 6), ex.compile_vector(rates, 8)
    u = np.array([2.0, -1.0])
    out = post(np.concatenate((x, p, u)))
    np.testing.assert_array_equal(out[:3], [2.0, -1.0, 0.125 * 2.0 - 0.25])
    np.testing.assert_array_equal(out[3:], [-(-0.5 * 4.0), -(-1.0 * 4.0), 2.0])
    np.testing.assert_array_equal(pre(np.concatenate((x, p)))[:2], z)
    # The folded stage solves u* = z - (x3, 0) itself, here z as x3 = 0,
    # and returns post's rates at u*.
    y = np.concatenate((x, p))
    out = _folded_stage(F, L)(y)
    np.testing.assert_array_equal(out[:2], z)
    np.testing.assert_array_equal(out[2:], post(np.concatenate((y, z))))


def test_heisenberg_bracket_is_vertical():
    F = parse_field_set(HEISENBERG, 3, 2)
    br = lie_bracket(F.components[0], F.components[1], 3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = tuple(rng.uniform(-3.0, 3.0, size=3))
        vals = [c.eval(x) for c in br]
        np.testing.assert_allclose(vals, [0.0, 0.0, 1.0], atol=1e-15)


def test_bracket_antisymmetry():
    F = parse_field_set("X1 = (x2, x1^2)\nX2 = (1, x1*x2)", 2, 2)
    ab = lie_bracket(F.components[0], F.components[1], 2)
    ba = lie_bracket(F.components[1], F.components[0], 2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = tuple(rng.uniform(-2.0, 2.0, size=2))
        np.testing.assert_allclose([c.eval(x) for c in ab],
                                   [-c.eval(x) for c in ba], atol=1e-12)


def test_rank_filtration_depths():
    cases = [
        ("X1 = (1, 0)\nX2 = (0, 1)", 2, 2, (0.0, 0.0), 2, 1),
        (HEISENBERG, 3, 2, (0.0, 0.0, 0.0), 3, 2),
        ("X1 = (1, 0, x2^2/2)\nX2 = (0, 1, 0)", 3, 2, (0.0, 0.0, 0.0), 3, 3),
        ("X1 = (1, 0)\nX2 = (0, x1)", 2, 2, (0.0, 0.0), 2, 2),
    ]
    for text, n, m, x, rank, depth in cases:
        res = lie_rank(parse_field_set(text, n, m), np.asarray(x))
        assert (res.rank, res.depth) == (rank, depth)
        assert res.satisfied


def test_grushin_off_the_singular_line():
    # Away from x1 = 0 the two fields already span the plane.
    F = parse_field_set("X1 = (1, 0)\nX2 = (0, x1)", 2, 2)
    res = lie_rank(F, np.array([1.0, 0.0]))
    assert (res.rank, res.depth) == (2, 1)


def test_rank_deficient_family_reported():
    F = parse_field_set("X1 = (1, 0)", 2, 1)
    res = lie_rank(F, np.zeros(2))
    assert res.rank == 1
    assert not res.satisfied


def test_dimension_validation():
    with pytest.raises(DimensionError):
        FieldSet(1, 2, [[ex.Const(1.0)], [ex.Const(0.0)]])
    with pytest.raises(ParseError):
        parse_field_set("X1 = (1, 0)", 2, 2)  # X2 missing
    with pytest.raises(ParseError):
        parse_field_set("X1 = (1, 0, 0)\nX2 = (0, 1, 0)", 2, 2)  # arity 3
