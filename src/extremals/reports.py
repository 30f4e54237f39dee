"""CSV and JSON emission with deterministic bytes.

All floats in CSV go through %.17g so a written value reads back as the
identical float64. JSON is emitted with sorted keys, fixed indentation, and
no timestamps; identical inputs therefore produce identical bytes, which the
CLI leans on for its reproducibility guarantee.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .controls import ControlPath
from .errors import ScenarioError


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def _write_table(path, header, times, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s, row in zip(times, rows):
            cells = [f"{s:.17g}"] + [f"{v:.17g}" for v in row]
            fh.write(",".join(cells) + "\n")


def write_control_csv(path, u: ControlPath):
    header = ["s"] + [f"u{k + 1}" for k in range(u.m)]
    _write_table(path, header, u.times, u.values)


def write_trajectory_csv(path, times, states):
    n = states.shape[-1]
    header = ["s"] + [f"x{k + 1}" for k in range(n)]
    _write_table(path, header, times, states)


def write_costate_csv(path, times, values):
    n = values.shape[-1]
    header = ["s"] + [f"p{k + 1}" for k in range(n)]
    _write_table(path, header, times, values)


def read_control_csv(path) -> ControlPath:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("s,"):
        raise ScenarioError(f"{path}: not a control CSV (missing header)")
    if len(lines) < 3:
        raise ScenarioError(f"{path}: a control CSV needs at least two samples")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    times, values = data[:, 0], data[:, 1:]
    T = float(times[-1])
    expected = np.linspace(0.0, T, len(times))
    if not np.allclose(times, expected, atol=1e-12 * max(1.0, T)):
        raise ScenarioError(f"{path}: control grid is not uniform on [0, T]")
    return ControlPath(T, values)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
