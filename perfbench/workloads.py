"""One benchmark workload in one fresh process.

    python3 perfbench/workloads.py --workload certify --seed 1 --seconds 55 --trace 0
    python3 perfbench/workloads.py --workload certify --setup-only

``perfbench/run.py`` starts this script with ``src`` on the import path and
BLAS pinned to one thread; it prints one JSON record as its last line. Set-up
(imports, scenario resolution, compilation of every evaluator the workload
uses) is timed from before numpy is imported. The workload then repeats
whole rounds of the same operations until the next round would overrun
``--seconds``; every round runs at least once. With ``--trace 1`` the
library's public functions are wrapped after set-up and the per-layer
metrics are read from the spans.

Workloads (see README.md for why each exists):

- certify: Heisenberg multi-start from a fixed seed family, one re-shoot per
  distinct extremal on the doubled grid, the Lipschitz certificate and the
  costate bounds. ``--seed`` turns the seed costates by a quarter turn about
  the x3 axis, a symmetry of the problem, so every run does the same work
  on different input numbers.
- chart: Heisenberg inversion charts around the scenario's own circle
  control, then chart_eval_full at random targets inside each ball.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

# numpy and the library are imported inside the functions below, so that
# the set-up timing includes their import.

# certify
SEED_COUNT = 2                   # make_seeds adds the origin: 3 seeds
# chart
CHART_N = 32
ANCHORS = (0.3, 0.7)
QUERIES = 4                      # per anchor and round
QUERY_RADIUS = 0.8               # share of the certified radius
MAX_FAILURE_NOTES = 5


class Run:
    """Operation counts, check outcomes and timing samples of one run."""

    def __init__(self, errors):
        self.errors = errors
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []
        self.samples = {}

    def op(self, fn, *args, **kwargs):
        """Run one library operation; returns (result, seconds) or
        (None, seconds) when it raised a library error."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self.errors as e:
            self.failed += 1
            self._note(f"{getattr(fn, '__name__', fn)} failed: {e}")
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def check(self, outcome, label):
        ok, detail = outcome
        if not ok:
            self.correct = False
            self._note(f"{label}: {detail}")

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def _note(self, text):
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(text)


# -- certify ----------------------------------------------------------------

def setup_certify():
    import numpy as np
    from extremals import scenario

    sc = scenario.resolve_scenario("heisenberg")
    F = scenario.scenario_fields(sc)
    L = scenario.scenario_lagrangian(sc)
    zx, zu = np.zeros((1, sc.n)), np.zeros((1, sc.m))
    L.value(zx, zu), L.grad_x(zx, zu), L.grad_u(zx, zu), L.hess_u(zx, zu)
    return {"sc": sc, "F": F, "L": L}


def quarter_turn(k):
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][k % 4]
    return [[c, -s, 0], [s, c, 0], [0, 0, 1]]


def round_certify(ctx, run, seed, index):
    import numpy as np
    import checks as chk
    from extremals import analysis, shooting

    sc, F, L = ctx["sc"], ctx["F"], ctx["L"]
    x0 = np.asarray(sc.x0, dtype=float)
    target = np.asarray(sc.target, dtype=float)
    scale = sc.seeds_scale * float(np.linalg.norm(target - x0)) / sc.T
    seeds = shooting.make_seeds(sc.n, SEED_COUNT, scale, seed=sc.seed) \
        @ np.asarray(quarter_turn(seed + index), dtype=float).T

    sols, solve_s = run.op(shooting.multi_start, F, L, x0, target, sc.T, seeds,
                           N=sc.N, tol=sc.shoot_tol, substeps=sc.substeps,
                           dedup_tol=sc.dedup_tol)
    if sols is None:
        return
    run.check((len(sols) > 0, "no extremal converged"), "multi_start")
    if not sols:
        return
    for s in sols:
        run.check(chk.check_level(s.phi), "cost level")
        run.check(chk.check_constant_speed(s.u_fine.values, s.phi), "speed")
        run.check(chk.check_residuals(s.residuals, sc.shoot_tol), "residuals")

    refine_s = 0.0
    refined = []
    for s in sols:
        r, dt = run.op(shooting.shoot_extremal, F, L, x0, target, sc.T,
                       p0=s.p0, N=2 * sc.N, tol=sc.shoot_tol,
                       substeps=sc.substeps)
        refine_s += dt
        if r is None:
            return
        refined.append(r)

    def certify():
        return (analysis.lipschitz_certificate(sols, refined),
                analysis.costate_bound_check(sols))

    out, dt = run.op(certify)
    refine_s += dt
    if out is None:
        return
    cert, bounds = out
    for s, r in zip(sols, refined):
        run.check(chk.check_same_level(s.phi, r.phi), "refined level")
        run.check(chk.check_constant_speed(r.u_fine.values, r.phi), "refined speed")
        run.check(chk.check_residuals(r.residuals, sc.shoot_tol), "refined residuals")
    run.check(chk.check_certificate(cert.certified, cert.grid_stability),
              "certificate")
    run.check((bounds.finite, "costate bounds not finite"), "bounds")
    run.sample("main_s", solve_s)
    run.sample("refine_s", refine_s)
    run.sample("item_ms", 1e3 * refine_s / len(sols))


# -- chart ------------------------------------------------------------------

def setup_chart():
    from extremals import inversion, scenario

    sc = scenario.resolve_scenario("heisenberg")
    F = scenario.scenario_fields(sc)
    u = scenario.scenario_control(sc, N=CHART_N)
    dictionary = inversion.default_dictionary(sc.m, sc.T, k_max=sc.k_max)
    return {"sc": sc, "F": F, "u": u, "dictionary": dictionary}


def ball_target(rng, chart, T):
    """A target (s, beta) drawn uniformly from the ball of QUERY_RADIUS
    times the certified radius around the chart centre, reflected in time
    when s would leave (0, T]."""
    import numpy as np

    d = rng.standard_normal(chart.n + 1)
    d /= float(np.linalg.norm(d))
    rad = QUERY_RADIUS * chart.r * rng.uniform() ** (1.0 / (chart.n + 1))
    s = chart.t + rad * d[0]
    if s <= 1e-6 or s > T:
        s = chart.t - rad * d[0]
    return s, chart.anchor_endpoint + rad * d[1:]


def round_chart(ctx, run, seed, index):
    import numpy as np
    import checks as chk
    from extremals import inversion

    sc, F, u = ctx["sc"], ctx["F"], ctx["u"]
    x0 = np.asarray(sc.x0, dtype=float)
    build_s = 0.0
    for a, t in enumerate(ANCHORS):
        chart, dt = run.op(inversion.build_chart, F, u, x0, t, ctx["dictionary"],
                           r_init=sc.r_init, det_tol=sc.det_tol,
                           probe_seed=sc.seed, substeps=sc.substeps)
        build_s += dt
        if chart is None:
            return
        rng = np.random.default_rng([seed, index, a])
        for _ in range(QUERIES):
            s, beta = ball_target(rng, chart, sc.T)
            out, dt = run.op(inversion.chart_eval_full, chart, s, beta)
            if out is None:
                continue
            path = out[0]
            run.sample("item_ms", 1e3 * dt)
            run.check(chk.check_round_trip(path.values, path.T, s,
                                           chart.substeps, beta, x0),
                      f"round trip at s={s:.6g}")
            run.check(chk.check_k_time(path.values, path.T, chart.k_time),
                      "k_time")
    run.sample("main_s", build_s)


WORKLOADS = {
    "certify": (setup_certify, round_certify),
    "chart": (setup_chart, round_chart),
}


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", default=None,
                   help="where a traced run writes its spans (.npz)")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    setup, one_round = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    ctx = setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        counters = spans.LayerCounters(tracer)
        tracer.install()

    import numpy as np
    from extremals.errors import ExtremalsError

    run = Run((ExtremalsError, ValueError, np.linalg.LinAlgError))
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds == 0 or time.perf_counter() - start + last <= args.seconds:
        r0 = time.perf_counter()
        one_round(ctx, run, args.seed, rounds)
        last = time.perf_counter() - r0
        rounds += 1
    elapsed = time.perf_counter() - start

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.correct,
        "notes": run.notes,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "main_s": _mean(run.samples.get("main_s", [])),
        "item_ms": _mean(run.samples.get("item_ms", [])),
        "samples": run.samples,
    }
    if tracer is not None:
        table = spans.SpanTable(tracer)
        record["per_layer"] = spans.per_layer_metrics(table, counters, rounds)
        record["spans"] = len(table.dur)
        if args.trace_file:
            os.makedirs(os.path.dirname(os.path.abspath(args.trace_file)),
                        exist_ok=True)
            tracer.save(args.trace_file)
    print(json.dumps(record))
    return 0 if math.isfinite(record["main_s"]) else 1


if __name__ == "__main__":
    sys.exit(main())
