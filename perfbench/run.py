"""Benchmark entry point: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from ``src``. The
command times set-up in SETUP_PROBES short processes plus the workload's
own, runs the workload in one process (``perfbench/workloads.py``), writes
the full record to ``--out`` and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``). It exits non-zero, printing no result,
when the library is missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
BLAS_THREADS = 1          # at most nproc; one thread keeps runs comparable
CHILD_TIMEOUT_S = 150   # for all processes of one run together


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, timeout):
    """Run workloads.py with ``args``; returns its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py")] + args,
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "out"),
                   help="directory for the run record and the span file")
    args = p.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choices: {names}")
    if not os.path.isdir(os.path.join(ROOT, "src", "extremals")):
        sys.stderr.write("src/extremals not found: run from a checkout of "
                         "the repository\n")
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [run_child(["--workload", args.workload, "--setup-only"],
                            remaining())["setup_s"]
                  for _ in range(SETUP_PROBES)]
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            child_args += ["--trace-file", os.path.join(args.out, f"{stem}.npz")]
        record = run_child(child_args, remaining())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        sys.stderr.write(f"benchmark run failed: {e}\n")
        return 1

    setups.append(record["setup_s"])
    record["setup_s"] = statistics.median(setups)
    record["setup_samples"] = setups
    record["machine"] = machine()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = record["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = record
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
