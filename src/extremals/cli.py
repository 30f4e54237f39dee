"""Command-line entry point.

Every subcommand takes a scenario (a built-in name or a path to a .scn
file), writes CSV/JSON outputs with deterministic bytes into --out, and
optionally mirrors the JSON report to stdout with --json.

Exit codes: 0 success, 1 validation problem (bad scenario, bad arguments),
2 solver non-convergence, 3 certificate or chart-construction failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (costate_bound_check, lipschitz_certificate,
                       singularity_report)
from .controls import ControlPath, random_smooth_controls
from .dynamics import DifferentialKernel, integrate, integrate_batch
from .errors import (BasisDeficiencyError, CertificateFailure,
                     ChartConstructionError, ChartIntegrityError,
                     DiffeomorphismViolationError, DimensionError,
                     DivergenceError, EvaluationError, ExpressionGrowthError,
                     GridMismatchError, NonConvergenceError, ParseError,
                     ScenarioError)
from .fields import lie_rank
from .inversion import build_chart, chart_eval_full, chart_from_dict, default_dictionary
from .lagrangian import phi_from_samples
from .reports import (canonical_json, ensure_dir, read_control_csv, write_control_csv,
                      write_costate_csv, write_json, write_trajectory_csv)
from .scenario import resolve_scenario, scenario_control, scenario_fields, scenario_lagrangian
from .shooting import make_seeds, multi_start, shoot_extremal

_VALIDATION_ERRORS = (ScenarioError, ParseError, DimensionError,
                      GridMismatchError, ExpressionGrowthError, ValueError)
_SOLVER_ERRORS = (NonConvergenceError, DivergenceError,
                  DiffeomorphismViolationError, ChartIntegrityError,
                  EvaluationError)
_CERTIFICATE_ERRORS = (CertificateFailure, ChartConstructionError,
                       BasisDeficiencyError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ScenarioError(message)


def _context(args):
    sc = resolve_scenario(args.scenario)
    if args.grid is not None:
        if args.grid < 1:
            raise ScenarioError("--grid must be at least 1")
        sc = type(sc)(**{**sc.__dict__, "N": args.grid})
    if args.seed is not None:
        sc = type(sc)(**{**sc.__dict__, "seed": args.seed})
    out = ensure_dir(args.out)
    return sc, out


def _require_target(sc):
    if sc.target is None:
        raise ScenarioError(f"scenario '{sc.name}' needs a 'target' for this "
                            "subcommand")
    return np.asarray(sc.target, dtype=float)


def _solution_payload(sol, files=None):
    payload = {
        "lambda": [float(v) for v in sol.lam],
        "p0": [float(v) for v in sol.p0],
        "phi": sol.phi,
        "residuals": dict(sol.residuals),
        "iterations": sol.iterations,
        "grid": sol.N,
    }
    if files:
        payload["files"] = files
    return payload


def cmd_simulate(sc, out, args):
    F = scenario_fields(sc)
    u = scenario_control(sc)
    traj = integrate(F, u, np.asarray(sc.x0, dtype=float), substeps=sc.substeps)
    traj_file = os.path.join(out, f"{sc.name}_trajectory.csv")
    ctrl_file = os.path.join(out, f"{sc.name}_control.csv")
    write_trajectory_csv(traj_file, traj.times, traj.states)
    write_control_csv(ctrl_file, u)
    report = {
        "scenario": sc.name,
        "subcommand": "simulate",
        "T": sc.T, "N": sc.N,
        "endpoint": [float(v) for v in traj.endpoint],
        "files": {"trajectory": os.path.basename(traj_file),
                  "control": os.path.basename(ctrl_file)},
    }
    lines = [f"endpoint = {traj.endpoint}"]
    return 0, report, lines


def cmd_lie_rank(sc, out, args):
    F = scenario_fields(sc)
    result = lie_rank(F, np.asarray(sc.x0, dtype=float))
    report = {
        "scenario": sc.name,
        "subcommand": "lie-rank",
        "rank": result.rank,
        "depth": result.depth,
        "satisfied": result.satisfied,
        "basis_size": len(result.basis),
    }
    return 0, report, [result.summary()]


def cmd_endpoint_jacobian(sc, out, args):
    F = scenario_fields(sc)
    u = scenario_control(sc)
    x0 = np.asarray(sc.x0, dtype=float)
    rng = np.random.default_rng(sc.seed)
    kern = DifferentialKernel.build(F, u, x0, sc.T, sc.substeps)
    probes = random_smooth_controls(rng, sc.T, sc.N, sc.m, count=5)
    eps = 1e-6 * (1.0 + u.sup_norm)
    entries = []
    worst = 0.0
    for i, v in enumerate(probes):
        analytic = kern.apply(v)
        bumped = np.stack([u.values + eps * v.values,
                           u.values - eps * v.values])
        ends = integrate_batch(F, bumped, x0, sc.T, substeps=sc.substeps)[-1]
        fd = (ends[0] - ends[1]) / (2.0 * eps)
        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        rel = float(np.linalg.norm(analytic - fd)) / denom
        worst = max(worst, rel)
        entries.append({"direction": i,
                        "analytic": [float(a) for a in analytic],
                        "finite_difference": [float(a) for a in fd],
                        "rel_error": rel})
    report = {
        "scenario": sc.name,
        "subcommand": "endpoint-jacobian",
        "max_rel_error": worst,
        "probes": entries,
    }
    return 0, report, [f"max relative error over {len(probes)} probes: {worst:.3e}"]


def _run_multi_start(sc, F, L):
    x0 = np.asarray(sc.x0, dtype=float)
    target = _require_target(sc)
    scale = sc.seeds_scale * float(np.linalg.norm(target - x0)) / sc.T
    seeds = make_seeds(sc.n, sc.seeds_count, scale, seed=sc.seed)
    sols = multi_start(F, L, x0, target, sc.T, seeds, N=sc.N,
                       tol=sc.shoot_tol, substeps=sc.substeps,
                       dedup_tol=sc.dedup_tol)
    return sols, len(seeds)


def cmd_solve_extremal(sc, out, args):
    F = scenario_fields(sc)
    L = scenario_lagrangian(sc)
    sols, attempts = _run_multi_start(sc, F, L)
    payloads = []
    for i, sol in enumerate(sols):
        stem = f"{sc.name}_sol{i}"
        files = {"control": f"{stem}_control.csv",
                 "trajectory": f"{stem}_trajectory.csv",
                 "costate": f"{stem}_costate.csv"}
        write_control_csv(os.path.join(out, files["control"]), sol.u)
        write_trajectory_csv(os.path.join(out, files["trajectory"]),
                             sol.xi.times, sol.xi.states)
        write_costate_csv(os.path.join(out, files["costate"]),
                          sol.xi.times, sol.p)
        payloads.append(_solution_payload(sol, files))
    report = {
        "scenario": sc.name,
        "subcommand": "solve-extremal",
        "seed": sc.seed,
        "attempts": attempts,
        "distinct": len(sols),
        "solutions": payloads,
    }
    lines = [f"{len(sols)} distinct extremal(s) from {attempts} seeds"]
    for i, sol in enumerate(sols):
        lines.append(f"  [{i}] phi = {sol.phi:.9g}, |lambda| = "
                     f"{float(np.linalg.norm(sol.lam)):.6g}, endpoint gap = "
                     f"{sol.residuals['endpoint_gap']:.2e}")
    code = 0 if sols else 2
    return code, report, lines


def cmd_check_singular(sc, out, args):
    F = scenario_fields(sc)
    u = scenario_control(sc)
    rep = singularity_report(F, u, np.asarray(sc.x0, dtype=float), sc.T,
                             threshold=sc.singular_threshold)
    report = {"scenario": sc.name, "subcommand": "check-singular"}
    report.update(rep.to_dict())
    verdict = "singular" if rep.singular else "non-singular"
    return 0, report, [f"{verdict} (ratio {rep.ratio:.3e})"]


def cmd_certify_lipschitz(sc, out, args):
    F = scenario_fields(sc)
    L = scenario_lagrangian(sc)
    sols, attempts = _run_multi_start(sc, F, L)
    if not sols:
        return 2, {"scenario": sc.name, "subcommand": "certify-lipschitz",
                   "attempts": attempts, "distinct": 0}, \
            ["no converged extremal to certify"]
    x0 = np.asarray(sc.x0, dtype=float)
    target = _require_target(sc)
    refined = [shoot_extremal(F, L, x0, target, sc.T, p0=s.p0, N=2 * sc.N,
                              tol=sc.shoot_tol, substeps=sc.substeps)
               for s in sols]
    cert = lipschitz_certificate(sols, refined)
    bounds = costate_bound_check(sols)
    report = {
        "scenario": sc.name,
        "subcommand": "certify-lipschitz",
        "grid": sc.N,
        "refined_grid": 2 * sc.N,
        "certificate": cert.to_dict(),
        "bounds": bounds.to_dict(),
    }
    lines = [
        f"sup phi = {cert.sup_phi:.9g}, K_bound = {cert.K_bound:.9g}, "
        f"K_lip = {cert.K_lip:.9g}",
        f"grid stability {cert.grid_stability:.4f}; certified: {cert.certified}",
    ]
    code = 0 if cert.certified else 3
    return code, report, lines


def cmd_build_chart(sc, out, args):
    F = scenario_fields(sc)
    L = scenario_lagrangian(sc)
    t = args.anchor_time if args.anchor_time is not None else sc.anchor_time
    if t is None:
        raise ScenarioError("build-chart needs --anchor-time or an "
                            "anchor_time scenario key")
    sols, _ = _run_multi_start(sc, F, L)
    if not sols:
        return 2, {"scenario": sc.name, "subcommand": "build-chart"}, \
            ["no extremal to anchor the chart on"]
    anchor = sols[0]
    x0 = np.asarray(sc.x0, dtype=float)
    dictionary = default_dictionary(sc.m, sc.T, k_max=sc.k_max)
    chart = build_chart(F, anchor.u, x0, t, dictionary,
                        r_init=sc.r_init, det_tol=sc.det_tol,
                        probe_seed=sc.seed, substeps=sc.substeps)
    ctrl_file = f"{sc.name}_chart_anchor.csv"
    write_control_csv(os.path.join(out, ctrl_file), anchor.u)
    report = {
        "scenario": sc.name,
        "subcommand": "build-chart",
        "chart": chart.to_dict(control_ref=ctrl_file),
    }
    write_json(os.path.join(out, f"{sc.name}_chart.json"), report)
    lines = [f"chart at t = {chart.t:g}: radius {chart.r:.6g}, "
             f"|det| floor {chart.det_floor:.3e}, k = {chart.k_time:.6g}"]
    return 0, report, lines


def cmd_eval_chart(sc, out, args):
    if args.chart is None or args.point is None:
        raise ScenarioError("eval-chart needs --chart and --point")
    F = scenario_fields(sc)
    import json as _json
    try:
        with open(args.chart) as fh:
            stored = _json.load(fh)
        chart_dict = (stored.get("chart", stored) if isinstance(stored, dict)
                      else None)
        if not isinstance(chart_dict, dict):
            raise ScenarioError(f"chart JSON {args.chart} is not an object")
        anchor_path = os.path.join(os.path.dirname(os.path.abspath(args.chart)),
                                   chart_dict["control_ref"])
        u = read_control_csv(anchor_path)
        chart = chart_from_dict(chart_dict, F, u)
    except OSError as e:
        raise ScenarioError(f"cannot read chart: {e}") from e
    except KeyError as e:
        raise ScenarioError(f"chart JSON {args.chart} lacks the key {e}") from e
    except TypeError as e:
        raise ScenarioError(f"chart JSON {args.chart} holds a value of the "
                            f"wrong type: {e}") from e
    parts = [float(c) for c in args.point.split(",")]
    if len(parts) != sc.n + 1:
        raise ScenarioError(f"--point expects s,{sc.n} coordinates")
    s, beta = parts[0], np.asarray(parts[1:])
    path, alpha, det, iters = chart_eval_full(chart, s, beta)
    end = integrate(F, path, chart.x0, s, substeps=chart.substeps).endpoint
    resid = float(np.linalg.norm(end - beta))
    ctrl_file = f"{sc.name}_chart_control.csv"
    write_control_csv(os.path.join(out, ctrl_file), path)
    report = {
        "scenario": sc.name,
        "subcommand": "eval-chart",
        "s": s,
        "beta": [float(b) for b in beta],
        "alpha": [float(a) for a in alpha],
        "det": det,
        "iterations": iters,
        "round_trip_residual": resid,
        "lipschitz_quotient": path.lipschitz_quotient,
        "files": {"control": ctrl_file},
    }
    return 0, report, [f"alpha = {alpha}, round trip residual {resid:.2e}"]


def cmd_gl_values(sc, out, args):
    L = scenario_lagrangian(sc)
    if sc.n != 1 or sc.m != 1:
        raise ScenarioError("gl-values expects a scalar scenario (n = m = 1)")
    times = np.linspace(0.0, sc.T, sc.N + 1)
    half = sc.T / 2.0
    zero = np.zeros((sc.N + 1, 1))
    phi_zero = phi_from_samples(L, times, zero, zero)
    tent = (1.0 - np.abs(times - half))[:, None]
    # Sampled slope of the tent: +-1 with the jump placed between nodes,
    # so the non-smooth cost term vanishes at every node, matching the
    # discontinuous-velocity limit path.
    slope = np.where(times < half, 1.0, -1.0)[:, None]
    phi_plus = phi_from_samples(L, times, tent, slope)
    phi_minus = phi_from_samples(L, times, -tent, -slope)
    report = {
        "scenario": sc.name,
        "subcommand": "gl-values",
        "N": sc.N,
        "phi_zero": phi_zero,
        "phi_tent_plus": phi_plus,
        "phi_tent_minus": phi_minus,
    }
    lines = [f"phi_zero = {phi_zero:.12g}",
             f"phi_tent_plus = {phi_plus:.12g}",
             f"phi_tent_minus = {phi_minus:.12g}"]
    return 0, report, lines


_COMMANDS = {
    "simulate": cmd_simulate,
    "lie-rank": cmd_lie_rank,
    "endpoint-jacobian": cmd_endpoint_jacobian,
    "solve-extremal": cmd_solve_extremal,
    "check-singular": cmd_check_singular,
    "certify-lipschitz": cmd_certify_lipschitz,
    "build-chart": cmd_build_chart,
    "eval-chart": cmd_eval_chart,
    "gl-values": cmd_gl_values,
}


def build_parser():
    parser = _Parser(prog="extremals",
                     description="Constrained extremals of control systems: "
                                 "solve, certify, invert locally.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="built-in name or path to a .scn file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="override the scenario grid N")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout")
        if name in ("build-chart", "eval-chart"):
            p.add_argument("--anchor-time", type=float, default=None)
        if name == "eval-chart":
            p.add_argument("--chart", default=None,
                           help="chart JSON written by build-chart")
            p.add_argument("--point", default=None,
                           help="comma-separated s,beta coordinates")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise ScenarioError("missing subcommand; see --help")
        sc, out = _context(args)
        code, report, lines = _COMMANDS[args.subcommand](sc, out, args)
        report_path = os.path.join(
            out, f"{sc.name}_{args.subcommand.replace('-', '_')}.json")
        write_json(report_path, report)
        if args.json:
            sys.stdout.write(canonical_json(report))
        else:
            for line in lines:
                print(line)
        return code
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2
    except _CERTIFICATE_ERRORS as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
