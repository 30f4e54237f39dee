"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py perfbench/out/base
    python3 perfbench/compare.py perfbench/out/base perfbench/out/change

A set is a directory of run records written by ``run.py --out DIR``. For
each workload and end-to-end metric of BENCHMARK.json the command prints
each set's median and quartiles and the spread (quartile distance over the
median). Given two sets, it pairs runs by seed and also prints the share of
pairs the second set wins and a verdict against the metric's bound:

- better: the second set wins at least 9 pairs in 10 and its median differs
  by more than the first set's quartile distance; when a set spreads wider
  than the bound, only if every run of the second set beats every run of
  the first;
- worse: the median got worse by more than the bound (when a set spreads
  wider than the bound, only if every run is worse);
- unresolved: a set spreads wider than the bound and neither of the above;
- no change: otherwise.

The spread of ``setup_s`` is reported but not held to its bound.

Comparing an untraced set with a traced set of the same code reads off the
tracing overhead on main_s and item_ms.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
# Set-up time is taken from a few short processes; like the benchmark's
# acceptance rule, the comparison holds its median shift to the bound but
# not its spread.
SETUP = "setup_s"


def load_set(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(a, b, bound, lower_is_better, spread_bounded=True):
    """Verdict for set b against baseline a, and the share of pairs b wins
    (a and b are aligned lists of paired values)."""
    sign = 1.0 if lower_is_better else -1.0
    sa = [sign * x for x in a]          # lower score is better
    sb = [sign * y for y in b]
    wins = sum(y < x for x, y in zip(sa, sb)) / len(sa)
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    change = sign * (mb - ma) / ma      # positive is worse
    if spread_bounded and max(spread(a), spread(b)) > bound:
        if max(sb) < min(sa):
            return "better", wins
        if min(sb) > max(sa) and change > bound:
            return "worse", wins
        return "unresolved", wins
    if wins >= WIN_SHARE and change < 0 and abs(mb - ma) > qa3 - qa1:
        return "better", wins
    if change > bound:
        return "worse", wins
    return "no change", wins


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs), attempted


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sets", nargs="+", help="one or two run directories")
    args = p.parse_args(argv)
    if len(args.sets) > 2:
        p.error("give one or two run directories")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load_set(d) for d in args.sets]
    verdicts = []
    for w in (w["name"] for w in spec["workloads"]):
        if not all(w in s for s in sets):
            continue
        seeds = sorted(set.intersection(*(set(s[w]) for s in sets)))
        if not seeds:
            continue
        runs = [[s[w][k] for k in seeds] for s in sets]
        shares = "; ".join(f"failed {f}/{a}" for f, a in map(failed_share, runs))
        print(f"{w}: {len(seeds)} runs per set, {shares}")
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [[r[name] for r in rs] for rs in runs]
            cells = []
            for vs in values:
                q1, med, q3 = quartiles(vs)
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] "
                             f"spread {spread(vs):6.1%}")
            line = f"  {name:12s} {m['unit']:3s} " + " | ".join(cells)
            if len(values) == 2:
                v, wins = verdict(values[0], values[1], m["bound"],
                                  m["better"] == "lower",
                                  spread_bounded=name != SETUP)
                change = statistics.median(values[1]) / statistics.median(values[0]) - 1
                line += f" | {change:+.1%} wins {wins:.0%} -> {v}"
                verdicts.append(v)
            else:
                steady = "" if name == SETUP else (
                    " steady" if spread(values[0]) < m["bound"] else " NOT STEADY")
                line += f" (bound {m['bound']:.0%}){steady}"
            print(line)
    if verdicts:
        print("overall:", "no change" if set(verdicts) == {"no change"}
              else ", ".join(sorted(set(verdicts))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
