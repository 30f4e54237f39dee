"""Dictionary, basis selection, and inversion chart tests.

The geometric content lives on two anchors: the identity system, where the
chart math is hand-checkable, and a loop control on the three-dimensional
nilpotent system, where nothing is axis-aligned and the probe certification
has to do real work.
"""

import itertools
import json

import numpy as np
import pytest

from extremals.controls import ControlPath
from extremals.dynamics import DEFAULT_SUBSTEPS, DifferentialKernel, integrate
from extremals.errors import BasisDeficiencyError, ChartConstructionError
from extremals.fields import parse_field_set
from extremals.inversion import (Dictionary, build_chart, chart_eval,
                                 chart_eval_full, chart_from_dict,
                                 chart_lipschitz_estimate, default_dictionary,
                                 select_basis)
from extremals.reports import canonical_json

IDENTITY = parse_field_set("X1 = (1, 0)\nX2 = (0, 1)", 2, 2)
HEISENBERG = parse_field_set("X1 = (1, 0, -x2/2)\nX2 = (0, 1, x1/2)", 3, 2)
MARTINET = parse_field_set("X1 = (1, 0, x2^2/2)\nX2 = (0, 1, 0)", 3, 2)


def loop_control(N=32):
    t = np.linspace(0.0, 1.0, N + 1)
    return ControlPath(1.0, np.stack([np.cos(2 * np.pi * t),
                                      np.sin(2 * np.pi * t)], axis=-1))


def test_default_dictionary_layout():
    d = default_dictionary(2, 1.0, k_max=2)
    # Two constants, then sin and cos per channel for each frequency.
    assert isinstance(d, Dictionary)
    assert len(d) == 2 + 2 * 2 * 2
    assert d.directions[0].source == "(1, 0)"
    assert d.directions[1].source == "(0, 1)"
    assert d.directions[0].lip == 0.0
    assert d.directions[2].lip == pytest.approx(np.pi)
    times = np.linspace(0.0, 1.0, 5)
    v = d.directions[2].values(times)
    assert v.shape == (5, 2)
    np.testing.assert_allclose(v[:, 0], np.sin(np.pi * times), atol=1e-15)
    np.testing.assert_allclose(v[:, 1], 0.0, atol=1e-15)


def test_select_basis_matches_exhaustive_search():
    # The greedy pivoting should land on (a permutation of) the volume
    # maximizer when the dictionary is small enough to enumerate.
    u = loop_control()
    x0 = np.zeros(3)
    dic = default_dictionary(2, 1.0, k_max=2)
    basis = select_basis(HEISENBERG, u, x0, 0.7, dic)
    assert len(basis.indices) == 3
    assert len(set(basis.indices)) == 3
    kern = DifferentialKernel.build(HEISENBERG, u, x0, 0.7, DEFAULT_SUBSTEPS)
    images = np.stack([kern.apply_values(d.values(kern.times))
                       for d in dic.directions], axis=1)
    best = max(abs(np.linalg.det(images[:, list(sub)]))
               for sub in itertools.combinations(range(len(dic)), 3))
    assert abs(basis.det) == pytest.approx(best, rel=1e-9)
    np.testing.assert_allclose(basis.phi, images[:, list(basis.indices)])


def test_select_basis_reports_deficiency():
    # Constants alone cannot reach rank 3.
    with pytest.raises(BasisDeficiencyError, match="rank 2 of 3"):
        select_basis(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                     default_dictionary(2, 1.0, k_max=0))
    # No dictionary helps at a singular anchor: the straight control on the
    # flat system has a rank-2 endpoint differential.
    with pytest.raises(BasisDeficiencyError):
        select_basis(MARTINET, ControlPath.constant(1.0, 32, [1.0, 0.0]),
                     np.zeros(3), 1.0, default_dictionary(2, 1.0))


def test_identity_chart_is_exact():
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    chart = build_chart(IDENTITY, u, np.zeros(2), 1.0)
    # r_init = 0.1 (1 + |endpoint|) survives certification unshrunk, and the
    # selected basis is the pair of constants with unit determinant.
    assert chart.r == pytest.approx(0.2)
    assert chart.det_anchor == pytest.approx(1.0, abs=1e-12)
    assert chart.k_time == 0.0
    np.testing.assert_allclose(chart.anchor_endpoint, [1.0, 0.0], atol=1e-12)
    path, alpha, det, iters = chart_eval_full(chart, chart.t,
                                              chart.anchor_endpoint)
    assert iters == 0
    np.testing.assert_allclose(alpha, 0.0, atol=1e-12)
    assert float(np.max(np.abs(path.values - u.values))) == 0.0
    # An interior target: straight answer, machine-precision round trip.
    beta = chart.anchor_endpoint + np.array([0.05, -0.03])
    out = chart_eval(chart, 0.9, beta)
    traj = integrate(IDENTITY, out, np.zeros(2), 0.9, substeps=chart.substeps)
    assert float(np.linalg.norm(traj.states[-1] - beta)) < 1e-12


def test_build_chart_builds_the_anchor_kernel_once(monkeypatch):
    # Basis selection and the anchor endpoint share one kernel; the probes
    # build kernels of emitted controls, never of the anchor control itself.
    u = loop_control()
    build = DifferentialKernel.build
    anchor_builds = []

    def counting(cls, F, control, *args, **kwargs):
        if control is u:
            anchor_builds.append(control)
        return build(F, control, *args, **kwargs)

    monkeypatch.setattr(DifferentialKernel, "build", classmethod(counting))
    chart = build_chart(HEISENBERG, u, np.zeros(3), 0.7, substeps=8)
    assert len(anchor_builds) == 1
    basis = select_basis(HEISENBERG, u, np.zeros(3), 0.7,
                         default_dictionary(2, 1.0), substeps=8)
    assert len(anchor_builds) == 2
    assert basis.indices == chart.basis.indices
    assert basis.det == chart.det_anchor


def test_chart_rejects_targets_outside_the_ball():
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    chart = build_chart(IDENTITY, u, np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="outside the certified"):
        chart_eval(chart, 1.0, chart.anchor_endpoint + np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="domain"):
        chart_eval_full(chart, 0.0, chart.anchor_endpoint, enforce=False)
    with pytest.raises(ValueError):
        build_chart(IDENTITY, u, np.zeros(2), 1.5)


@pytest.fixture(scope="module")
def loop_chart():
    return build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                       dictionary=default_dictionary(2, 1.0, k_max=3))


def test_loop_chart_certification(loop_chart):
    chart = loop_chart
    assert chart.r == pytest.approx(0.1265368833220682, rel=1e-9)
    assert abs(chart.det_anchor) == pytest.approx(0.026480958533911258,
                                                  rel=1e-9)
    assert chart.det_floor == pytest.approx(0.1 * abs(chart.det_anchor))
    # Declared time regularity covers the anchor plus the basis budget.
    assert chart.k_time > chart.u.lipschitz_quotient
    assert np.isfinite(chart.lipschitz_est["k"])
    assert chart.lipschitz_est["k"] > 0.0
    # Probe well inside the ball, then integrate the emitted control.
    rng = np.random.default_rng(3)
    raw = rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    s = chart.t + 0.6 * chart.r * raw[0]
    beta = chart.anchor_endpoint + 0.6 * chart.r * raw[1:]
    path, alpha, det, iters = chart_eval_full(chart, s, beta)
    assert iters <= 8
    assert abs(det) >= chart.det_floor
    assert path.m == chart.u.m
    assert path.lipschitz_quotient <= chart.k_time * (1.0 + 1e-9)
    traj = integrate(HEISENBERG, path, np.zeros(3), s, substeps=chart.substeps)
    assert float(np.linalg.norm(traj.states[-1] - beta)) < 1e-9


def test_chart_newton_builds_one_kernel_per_iterate(loop_chart, monkeypatch):
    # Every full Newton step is accepted on this query, so each iterate
    # after the first takes the kernel its line-search trial built.
    build = DifferentialKernel.build
    builds = []

    def counting(cls, F, control, *args, **kwargs):
        builds.append(control)
        return build(F, control, *args, **kwargs)

    monkeypatch.setattr(DifferentialKernel, "build", classmethod(counting))
    chart = loop_chart
    s = chart.t + 0.3 * chart.r
    beta = chart.anchor_endpoint + np.array([0.2, -0.1, 0.1]) * chart.r
    _, _, _, iters = chart_eval_full(chart, s, beta)
    assert iters >= 2
    assert len(builds) == iters + 1


def test_chart_serialization_round_trip(loop_chart):
    chart = loop_chart
    blob = canonical_json(chart.to_dict("anchor.csv"))
    rebuilt = chart_from_dict(json.loads(blob), HEISENBERG, loop_control())
    assert rebuilt.r == chart.r
    assert rebuilt.det_anchor == chart.det_anchor
    assert rebuilt.det_floor == chart.det_floor
    assert rebuilt.k_time == chart.k_time
    assert rebuilt.basis.indices == chart.basis.indices
    # Same Newton problem, same answer, bit for bit.
    s = chart.t + 0.3 * chart.r
    beta = chart.anchor_endpoint.copy()
    p1, a1, _, _ = chart_eval_full(chart, s, beta)
    p2, a2, _, _ = chart_eval_full(rebuilt, s, beta)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(p1.values, p2.values)


def test_rebuilt_chart_keeps_its_basis_determinant():
    # The basis images come from the chart's own discretization, as every
    # probe and query does, so a chart rebuilt from its JSON form off the
    # default 4 substeps reproduces the determinant bit for bit.
    chart = build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                        substeps=8)
    rebuilt = chart_from_dict(json.loads(canonical_json(chart.to_dict())),
                              HEISENBERG, loop_control())
    assert rebuilt.basis.det == chart.basis.det


def test_chart_lipschitz_estimate_agrees_with_probe_reading(loop_chart):
    est = chart_lipschitz_estimate(loop_chart, probes=25, seed=5,
                                   differential_points=4)
    assert set(est) == {"k_hat", "ell_hat"}
    assert np.isfinite(est["k_hat"]) and est["k_hat"] > 0.0
    assert np.isfinite(est["ell_hat"]) and est["ell_hat"] > 0.0
    # The Monte-Carlo value reading should sit near the construction-time
    # probe reading; the differential reading is allowed to be much more
    # conservative.
    ratio = est["k_hat"] / loop_chart.lipschitz_est["k"]
    assert 0.5 < ratio < 3.0


def test_build_chart_fails_cleanly_when_uncertifiable():
    # det_tol = 1 demands the probe determinant never drop below the anchor
    # value; on the curved system some probe always loses volume, so the
    # radius collapses to underflow.
    with pytest.raises(ChartConstructionError, match="certification failed"):
        build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                    dictionary=default_dictionary(2, 1.0, k_max=3),
                    det_tol=1.0)
