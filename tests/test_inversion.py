"""Dictionary, basis selection, and inversion chart tests.

The geometric content lives on two anchors: the identity system, where the
chart math is hand-checkable, and a loop control on the three-dimensional
nilpotent system, where nothing is axis-aligned and the probe certification
has to do real work.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from extremals import expr, inversion
from extremals.controls import ControlPath
from extremals.dynamics import DEFAULT_SUBSTEPS, DifferentialKernel, integrate
from extremals.errors import (BasisDeficiencyError, ChartConstructionError,
                              DimensionError)
from extremals.fields import parse_field_set
from extremals.inversion import (CHART_NEWTON_MAX_HALVINGS,
                                 CHART_NEWTON_MAX_ITER, Dictionary,
                                 _probe_targets, _solve_alpha,
                                 build_chart, chart_eval,
                                 chart_eval_full, chart_from_dict,
                                 default_dictionary, select_basis)
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
    kern = DifferentialKernel.build(HEISENBERG, u, x0, 0.7, DEFAULT_SUBSTEPS)
    basis = select_basis(kern, dic)
    assert len(basis.indices) == 3
    assert len(set(basis.indices)) == 3
    images = np.stack([kern.apply_values(d.values(kern.times))
                       for d in dic.directions], axis=1)
    best = max(abs(np.linalg.det(images[:, list(sub)]))
               for sub in itertools.combinations(range(len(dic)), 3))
    assert abs(basis.det) == pytest.approx(best, rel=1e-9)
    np.testing.assert_allclose(basis.phi, images[:, list(basis.indices)])


def test_select_basis_reports_deficiency():
    # Constants alone cannot reach rank 3.
    with pytest.raises(BasisDeficiencyError, match="rank 2 of 3"):
        select_basis(DifferentialKernel.build(HEISENBERG, loop_control(),
                                              np.zeros(3), 0.7),
                     default_dictionary(2, 1.0, k_max=0))
    # No dictionary helps at a singular anchor: the straight control on the
    # flat system has a rank-2 endpoint differential.
    with pytest.raises(BasisDeficiencyError):
        select_basis(DifferentialKernel.build(
            MARTINET, ControlPath.constant(1.0, 32, [1.0, 0.0]), np.zeros(3)),
            default_dictionary(2, 1.0))


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


def count_builds(monkeypatch, record):
    """Have both kernel entry points pass each call's controls to record."""
    build, build_batch = DifferentialKernel.build, DifferentialKernel.build_batch

    def counting(cls, F, control, *args, **kwargs):
        record([control])
        return build(F, control, *args, **kwargs)

    def counting_batch(cls, F, controls, *args, **kwargs):
        record(controls)
        return build_batch(F, controls, *args, **kwargs)

    monkeypatch.setattr(DifferentialKernel, "build", classmethod(counting))
    monkeypatch.setattr(DifferentialKernel, "build_batch",
                        classmethod(counting_batch))


def test_build_chart_builds_the_anchor_kernel_once(monkeypatch):
    # Basis selection and the anchor endpoint share one kernel; the probes
    # build kernels of emitted controls, never of the anchor control itself.
    u = loop_control()
    anchor_builds = []
    count_builds(monkeypatch, lambda controls: anchor_builds.extend(
        c for c in controls if c is u))
    chart = build_chart(HEISENBERG, u, np.zeros(3), 0.7, substeps=8)
    assert len(anchor_builds) == 1
    basis = select_basis(DifferentialKernel.build(HEISENBERG, u, np.zeros(3),
                                                  0.7, 8),
                         default_dictionary(2, 1.0))
    assert len(anchor_builds) == 2
    assert basis.indices == chart.basis.indices
    assert basis.det == chart.det_anchor


def test_build_chart_rejects_zero_substeps():
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    with pytest.raises(ValueError, match="substeps"):
        build_chart(IDENTITY, u, np.zeros(2), 1.0, substeps=0)


def test_dictionary_directions_compile_once(monkeypatch):
    compile_vector = expr.compile_vector
    compiled = []

    def counting(exprs, nvars):
        compiled.append(exprs)
        return compile_vector(exprs, nvars)

    monkeypatch.setattr(expr, "compile_vector", counting)
    dictionary = default_dictionary(2, 1.0, k_max=3)
    assert len(compiled) == len(dictionary)
    charts = [build_chart(HEISENBERG, loop_control(), np.zeros(3), t,
                          dictionary=dictionary) for t in (0.3, 0.7)]
    assert len(compiled) == len(dictionary)
    # Rebuilding a chart compiles each of its n basis directions once.
    blob = canonical_json(charts[1].to_dict())
    rebuilt = chart_from_dict(json.loads(blob), HEISENBERG, loop_control())
    assert len(compiled) == len(dictionary) + 3
    np.testing.assert_array_equal(rebuilt.basis.phi, charts[1].basis.phi)


def test_chart_rejects_targets_outside_the_ball():
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    chart = build_chart(IDENTITY, u, np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="outside the certified"):
        chart_eval(chart, 1.0, chart.anchor_endpoint + np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="domain"):
        chart_eval_full(chart, 0.0, chart.anchor_endpoint)
    # A NaN coordinate lies in no domain and no ball.
    with pytest.raises(ValueError, match="domain"):
        chart_eval(chart, np.nan, chart.anchor_endpoint)
    with pytest.raises(ValueError, match="outside the certified"):
        chart_eval(chart, 1.0, chart.anchor_endpoint + np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        build_chart(IDENTITY, u, np.zeros(2), 1.5)


def test_chart_rejects_targets_of_another_dimension():
    u = ControlPath.constant(1.0, 32, [1.0, 0.0])
    chart = build_chart(IDENTITY, u, np.zeros(2), 1.0)
    for beta in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
        with pytest.raises(DimensionError, match="target has shape"):
            chart_eval_full(chart, 1.0, beta)


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
    builds = []
    count_builds(monkeypatch, builds.append)
    chart = loop_chart
    s = chart.t + 0.3 * chart.r
    beta = chart.anchor_endpoint + np.array([0.2, -0.1, 0.1]) * chart.r
    _, _, _, iters = chart_eval_full(chart, s, beta)
    assert iters >= 2
    assert len(builds) == iters + 1


def test_build_chart_solves_its_probes_in_batches(monkeypatch):
    # The 2n+2 probes, the time-shifted one included, share one batched
    # Newton: one anchor build, then one build per Newton round, where
    # solving the eight probes one by one took 26 and one batch per horizon 9.
    calls = []
    count_builds(monkeypatch, calls.append)
    build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7, substeps=8)
    assert len(calls) <= 5
    assert len(calls[1]) == 8


def assert_stack_equals_serial_queries(proto, s, betas):
    """One Newton on the stack of targets gives each the iterates, the
    determinant and the control that a query on ``proto`` gives it alone."""
    alpha, paths, det, ok, iters = _solve_alpha(proto, s, betas)
    assert ok.all()
    for k in range(len(s)):
        q_path, q_alpha, q_det, q_iters = chart_eval_full(proto, s[k],
                                                          betas[k])
        assert (det[k], iters[k]) == (q_det, q_iters)
        np.testing.assert_array_equal(alpha[k], q_alpha)
        np.testing.assert_array_equal(paths[k].values, q_path.values)


def test_batched_probes_equal_serial_queries():
    # The probes of the finished chart, the time-shifted one among them,
    # solved as one stack on the proto chart.
    chart = build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                        substeps=8)
    proto = dataclasses.replace(chart, r=float("inf"), k_time=float("inf"),
                                lipschitz_est={})
    s, betas = zip(*_probe_targets(chart.t, chart.anchor_endpoint, chart.r,
                                   chart.u.T))
    assert len(s) == 8 and s[-1] == chart.t + chart.r
    assert_stack_equals_serial_queries(proto, s, betas)


def test_a_mixed_horizon_stack_equals_serial_queries(loop_chart):
    # Six interior targets of the loop chart at six different horizons.
    rng = np.random.default_rng(11)
    d = rng.standard_normal((6, 4))
    d *= 0.8 * loop_chart.r / np.linalg.norm(d, axis=1, keepdims=True)
    s = loop_chart.t + d[:, 0]
    assert len(set(s)) == 6
    assert_stack_equals_serial_queries(loop_chart, s,
                                       loop_chart.anchor_endpoint + d[:, 1:])


def test_a_stack_of_targets_gets_the_iterates_each_gets_alone():
    # On the martinet loop some full Newton steps are rejected: only those
    # trials are halved, in a sub-batch, and each target stops on its own
    # (the anchor endpoint at once, the others after 4 or 5 iterations).
    chart = build_chart(MARTINET, loop_control(), np.zeros(3), 0.7,
                        dictionary=default_dictionary(2, 1.0, k_max=3),
                        r_init=0.005)
    proto = dataclasses.replace(chart, r=float("inf"))
    betas = chart.anchor_endpoint + np.array([[0.0, 0.0, 0.0],
                                              [-0.1, -0.05, 0.0],
                                              [-0.18, -0.02, -0.1],
                                              [0.21, 0.02, -0.17]])
    s = np.full(len(betas), chart.t)
    alpha, paths, det, ok, iters = _solve_alpha(proto, s, betas)
    assert ok.all()
    assert iters[0] == 0 < iters[1:].min()
    for k in range(len(betas)):
        a1, (p1,), d1, ok1, it1 = _solve_alpha(proto, s[:1], betas[k:k + 1])
        assert (det[k], ok[k], iters[k]) == (d1[0], ok1[0], it1[0])
        np.testing.assert_array_equal(alpha[k], a1[0])
        np.testing.assert_array_equal(paths[k].values, p1.values)


def test_a_rejected_line_search_fails_its_target(monkeypatch):
    # anchor + 0.08 (1, 1, 1) is out of the martinet loop chart's reach:
    # once all CHART_NEWTON_MAX_HALVINGS trials of a step are rejected, the
    # target fails at its last iterate. Taking the smallest step and going
    # on instead cost 239 kernels here, and 1117 to certify the chart. A
    # line search integrates its trials in at most two state loops, alpha =
    # 1 and then every remaining halving stacked, judges them by their
    # endpoints and builds a kernel only for the trial it keeps: 159 kernels
    # to certify the chart (254 with a kernel for every trial), and for the
    # stuck target one per iterate, 5 (24).
    kernels = []
    count_builds(monkeypatch, kernels.extend)
    chart = build_chart(MARTINET, loop_control(), np.zeros(3), 0.7,
                        dictionary=default_dictionary(2, 1.0, k_max=3))
    assert chart.r == pytest.approx(0.007856234808287217, rel=1e-12)
    assert len(kernels) < 300
    kernels.clear()
    runs = []
    states = inversion._states

    def recording_states(F, values, *args):
        runs.append(values)
        return states(F, values, *args)

    monkeypatch.setattr(inversion, "_states", recording_states)
    proto = dataclasses.replace(chart, r=float("inf"))
    beta = chart.anchor_endpoint + 0.08
    (alpha,), (path,), _, (ok,), (iters,) = _solve_alpha(
        proto, [chart.t], beta[None])
    assert not ok and iters < CHART_NEWTON_MAX_ITER
    assert len(kernels) == iters + 1 <= 30
    np.testing.assert_array_equal(path.values, proto.emit(alpha).values)
    # Per line search one trial of alpha = 1 and, when it is rejected, one
    # of the remaining halvings. The stuck search tried all
    # CHART_NEWTON_MAX_HALVINGS scales of one step from the last iterate,
    # largest first, and rejected each.
    sizes = [len(r) for r in runs]
    assert sizes[-2:] == [1, CHART_NEWTON_MAX_HALVINGS - 1]
    assert all(k == 1 or (k == CHART_NEWTON_MAX_HALVINGS - 1 and prev == 1)
               for prev, k in zip(sizes, sizes[1:]))
    tried = [v - path.values for v in np.concatenate(runs[-2:])]
    assert len(tried) == CHART_NEWTON_MAX_HALVINGS
    for k, d in enumerate(tried):
        np.testing.assert_allclose(d, tried[0] / 2.0 ** k, rtol=0,
                                   atol=1e-14 * np.abs(tried[0]).max())

    def gap(values):
        end = integrate(MARTINET, ControlPath(path.T, values), np.zeros(3),
                        chart.t, substeps=chart.substeps).endpoint
        return float(np.linalg.norm(end - beta))

    assert min(map(gap, np.concatenate(runs[-2:]))) >= gap(path.values)


def test_a_trial_whose_psi_blows_up_is_rejected(monkeypatch):
    # A trial is judged by its endpoint, but its kernel is None where Psi
    # left the guard: that trial is then rejected and the next better one
    # of its target kept, as when a kernel was built for every trial. Psi is
    # made to blow up for the first two trials kept: the full step, and the
    # first halving the stacked round picks in its place.
    chart = build_chart(MARTINET, loop_control(), np.zeros(3), 0.7,
                        dictionary=default_dictionary(2, 1.0, k_max=3),
                        r_init=0.005)
    proto = dataclasses.replace(chart, r=float("inf"))
    s, beta = [chart.t], chart.anchor_endpoint + [-0.1, -0.05, 0.0]
    build_batch = DifferentialKernel.build_batch
    kept = []

    def psi_blows_twice(cls, F, controls, *args, **kwargs):
        kerns = build_batch(F, controls, *args, **kwargs)
        if kwargs.get("run") is not None:
            kept.append(controls[0].values)
            if len(kept) <= 2:
                kerns[0] = None
        return kerns

    monkeypatch.setattr(DifferentialKernel, "build_batch",
                        classmethod(psi_blows_twice))
    _, (path,), _, (ok,), _ = _solve_alpha(proto, s, beta[None])
    assert ok
    end = integrate(MARTINET, path, np.zeros(3), chart.t,
                    substeps=chart.substeps).endpoint
    assert float(np.linalg.norm(end - beta)) < 1e-9
    full, first, second = (v - chart.u.values for v in kept[:3])
    np.testing.assert_allclose(first, full / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(second, full / 4.0, rtol=0, atol=1e-15)


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


def test_build_chart_fails_cleanly_when_uncertifiable():
    # det_tol = 1 demands the probe determinant never drop below the anchor
    # value; on the curved system some probe always loses volume, so the
    # radius collapses to underflow.
    with pytest.raises(ChartConstructionError, match="certification failed"):
        build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                    dictionary=default_dictionary(2, 1.0, k_max=3),
                    det_tol=1.0)


@pytest.mark.parametrize("key, value", [
    ("r_init", np.nan), ("r_init", np.inf), ("r_init", 0.0),
    ("det_tol", np.nan), ("det_tol", np.inf), ("det_tol", -1.0),
    ("det_tol", 0.0)])
def test_build_chart_rejects_a_radius_or_floor_that_certifies_nothing(
        key, value):
    # A NaN floor fails no determinant test and a negative one passes every
    # determinant; a NaN or infinite radius probes no sphere. Each is bad
    # input, named as such, not a chart.
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        build_chart(HEISENBERG, loop_control(), np.zeros(3), 0.7,
                    **{key: value})
