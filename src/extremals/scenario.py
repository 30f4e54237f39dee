"""Scenario files: flat key = value text with indented expression blocks.

A scenario bundles everything one run needs: dimensions, the field set, the
Lagrangian, initial and target states, horizon, grid, seeds, and solver
knobs. The format is deliberately small:

    name = heisenberg
    n = 3
    m = 2
    fields:
        X1 = (1, 0, -x2/2)
        X2 = (0, 1, x1/2)
    lagrangian = (u1^2 + u2^2)/2
    x0 = 0, 0, 0

A `key:` line opens a block whose indented lines become the value; anything
else is `key = value`. Comments start with '#'. Unknown keys are rejected so
typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import expr as ex
from .controls import ControlPath
from .errors import ParseError, ScenarioError
from .fields import FieldSet, parse_field_set
from .lagrangian import Lagrangian, parse_lagrangian

BUILTIN_NAMES = ("identity", "heisenberg", "martinet", "grushin", "gl",
                 "heisenberg_quartic")


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    m: int
    fields_text: str
    lagrangian_text: str
    x0: tuple
    T: float
    N: int
    target: tuple = None
    control_text: str = None
    seed: int = 0
    seeds_count: int = 50
    seeds_scale: float = 1.0
    shoot_tol: float = 1e-8
    dedup_tol: float = 1e-5
    singular_threshold: float = 1e-8
    k_max: int = 8
    det_tol: float = 0.1
    r_init: float = None
    anchor_time: float = None
    substeps: int = 4
    source_path: str = None


_INT_KEYS = {"n", "m", "N", "seed", "seeds_count", "k_max", "substeps"}
_FLOAT_KEYS = {"T", "seeds_scale", "shoot_tol", "dedup_tol",
               "singular_threshold", "det_tol", "r_init", "anchor_time"}
_VEC_KEYS = {"x0", "target"}
_TEXT_KEYS = {"name": "name", "fields": "fields_text",
              "lagrangian": "lagrangian_text", "control": "control_text"}


def _parse_entries(text):
    entries = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].rstrip()
        i += 1
        if not line.strip():
            continue
        if line.endswith(":") and "=" not in line:
            key = line[:-1].strip()
            block = []
            while i < len(lines):
                nxt = lines[i].split("#", 1)[0].rstrip()
                if nxt.strip() and not nxt.startswith((" ", "\t")):
                    break
                if nxt.strip():
                    block.append(nxt.strip())
                i += 1
            if not block:
                raise ScenarioError(f"block key '{key}' has no content")
            value = "\n".join(block)
        elif "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
        else:
            raise ScenarioError(f"cannot parse scenario line: {raw!r}")
        if key in entries:
            raise ScenarioError(f"duplicate scenario key '{key}'")
        entries[key] = value
    return entries


def parse_scenario(text, source_path=None) -> Scenario:
    entries = _parse_entries(text)
    known = ({k.name for k in dc_fields(Scenario)} | set(_TEXT_KEYS)) - {
        "fields_text", "lagrangian_text", "control_text", "source_path"}
    for key in entries:
        if key not in known:
            raise ScenarioError(f"unknown scenario key '{key}'")

    kwargs = {"source_path": source_path}
    for key, value in entries.items():
        if key in _TEXT_KEYS:
            kwargs[_TEXT_KEYS[key]] = value
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ScenarioError(f"key '{key}' expects an integer, got {value!r}")
        elif key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ScenarioError(f"key '{key}' expects a number, got {value!r}")
        elif key in _VEC_KEYS:
            try:
                kwargs[key] = tuple(float(c) for c in value.split(","))
            except ValueError:
                raise ScenarioError(f"key '{key}' expects comma-separated numbers")

    for required in ("name", "n", "m", "fields_text", "lagrangian_text",
                     "x0", "T", "N"):
        if required not in kwargs:
            human = {"fields_text": "fields", "lagrangian_text": "lagrangian"}
            raise ScenarioError(
                f"scenario is missing required key "
                f"'{human.get(required, required)}'")

    sc = Scenario(**kwargs)
    if sc.n < 1 or sc.m < 1:
        raise ScenarioError("dimensions must be at least 1")
    if sc.m > sc.n:
        raise ScenarioError(f"m = {sc.m} exceeds n = {sc.n}")
    if not 0 < sc.T < np.inf:
        raise ScenarioError("horizon T must be positive and finite")
    if sc.N < 1 or sc.substeps < 1:
        raise ScenarioError("grid N and substeps must be at least 1")
    if len(sc.x0) != sc.n:
        raise ScenarioError(f"x0 has {len(sc.x0)} components, expected {sc.n}")
    if sc.target is not None and len(sc.target) != sc.n:
        raise ScenarioError(
            f"target has {len(sc.target)} components, expected {sc.n}")
    return sc


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}")
    return parse_scenario(text, source_path=str(path))


def builtin_scenario(name) -> Scenario:
    if name not in BUILTIN_NAMES:
        raise ScenarioError(
            f"unknown built-in scenario '{name}'; choices: "
            + ", ".join(BUILTIN_NAMES))
    ref = importlib.resources.files("extremals.scenarios") / f"{name}.scn"
    return parse_scenario(ref.read_text(), source_path=f"builtin:{name}")


def resolve_scenario(spec) -> Scenario:
    """Accept either a built-in name or a path to a .scn file."""
    if spec in BUILTIN_NAMES:
        return builtin_scenario(spec)
    return load_scenario(spec)


def scenario_fields(sc: Scenario) -> FieldSet:
    try:
        return parse_field_set(sc.fields_text, sc.n, sc.m)
    except ParseError as e:
        raise ScenarioError(f"bad field set in scenario '{sc.name}': {e}")


def scenario_lagrangian(sc: Scenario) -> Lagrangian:
    try:
        return parse_lagrangian(sc.lagrangian_text, sc.n, sc.m)
    except ParseError as e:
        raise ScenarioError(f"bad Lagrangian in scenario '{sc.name}': {e}")


def scenario_control(sc: Scenario, N=None) -> ControlPath:
    """Sample the scenario's control expressions on the coarse grid."""
    if sc.control_text is None:
        raise ScenarioError(
            f"scenario '{sc.name}' defines no control; this subcommand "
            "needs a 'control' key")
    N = sc.N if N is None else N
    try:
        comps = ex.parse_components(sc.control_text, sc.m, ["s"])
    except ParseError as e:
        raise ScenarioError(f"bad control in scenario '{sc.name}': {e}")
    fn = ex.compile_vector(comps, 1)
    times = np.linspace(0.0, sc.T, N + 1)
    return ControlPath(sc.T, fn(times[:, None]))
