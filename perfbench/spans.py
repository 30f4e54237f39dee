"""Span tracing around the library's public functions and methods.

``Tracer.install`` replaces every public function of each ``extremals``
module, and every public method of the classes those modules define, by a
wrapper that records one span per call: name, start, end and the span that
was open when the call began (its parent). Names imported into other
modules are replaced there too, so calls between layers are seen as well as
calls from the benchmark. Two private steps of ``shooting`` (PRIVATE) are
wrapped as well. Spans are kept in flat arrays in memory and written out
once, when the run ends. Nothing is wrapped unless a run asks for tracing.

A layer is a module under ``src/extremals``; a span's self time is its
duration minus the durations of its children, which nest inside it because
the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

import numpy as np

# The expression tree is walked recursively while compiling; its node
# methods are part of set-up, not of the evaluation the layers time.
SKIP_CLASSES = {"Expr", "Const", "Var", "Add", "Mul", "Pow", "Func"}
KEEP_DUNDER = {"__call__"}
# Private functions that are layer steps in their own right: the batched
# Hamiltonian flow, and the per-solution re-run of it after shooting.
PRIVATE = {"shooting": ("_hamiltonian_flow", "_build_solution")}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # qualified name -> hook(fn, args, kwargs, result, top_level)
        self.hooks = {}
        self.t0 = perf_counter()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, qualname, fn):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, hooks = self.start, self.end, self.hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(perf_counter())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            hook = hooks.get(qualname)
            if hook is not None:
                hook(fn, args, kwargs, result, stack[-1] < 0)
            return result

        return wrapper

    def install(self, package="extremals"):
        pkg = importlib.import_module(package)
        modules = [importlib.import_module(f"{package}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and name not in SKIP_CLASSES):
                    self._wrap_class(layer, obj)
        # Rebind every module-level reference to a wrapped function.
        for mod in [pkg] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in KEEP_DUNDER:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(qual, attr.__func__)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(qual, attr))

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, starts, ends (seconds
        from tracer creation)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64) - self.t0,
                np.frombuffer(self.end, dtype=np.float64) - self.t0)

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


class SpanTable:
    """Per-name aggregates of a finished trace."""

    def __init__(self, tracer: Tracer):
        name_id, parent, start, end = tracer.arrays()
        self.names = tracer.names
        self.name_id = name_id
        self.parent = parent
        dur = end - start
        self.dur = dur
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.self_time = dur - child
        k = len(self.names)
        self.calls = np.bincount(name_id, minlength=k)
        self.inclusive = np.bincount(name_id, weights=dur, minlength=k)
        self.exclusive = np.bincount(name_id, weights=self.self_time, minlength=k)

    def _id(self, name):
        return self.names.index(name) if name in self.names else None

    def count(self, name):
        i = self._id(name)
        return 0 if i is None else int(self.calls[i])

    def total_s(self, name):
        i = self._id(name)
        return 0.0 if i is None else float(self.inclusive[i])

    def self_s(self, name):
        i = self._id(name)
        return 0.0 if i is None else float(self.exclusive[i])

    def layer_self_s(self, layer):
        return float(sum(self.exclusive[i] for i, n in enumerate(self.names)
                         if n.split(".", 1)[0] == layer))

    def top_level(self, name):
        """Mask of the spans of ``name`` called directly by the benchmark."""
        i = self._id(name)
        if i is None:
            return np.zeros(len(self.dur), dtype=bool)
        return (self.name_id == i) & (self.parent < 0)

    def nested_under(self, mask, name):
        """Mask of the ``name`` spans nested under the top-level spans in
        ``mask``."""
        i = self._id(name)
        if i is None:
            return np.zeros(len(self.dur), dtype=bool)
        # Pointer doubling: each span ends at its outermost enclosing span.
        top = np.where(self.parent < 0, np.arange(len(self.parent)), self.parent)
        while not np.array_equal(top[top], top):
            top = top[top]
        return (self.name_id == i) & mask[top] & ~mask


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class LayerCounters:
    """Counts read from the arguments and results of traced calls."""

    def __init__(self, tracer: Tracer):
        self.steps = 0
        self.seeds = 0
        self.distinct = 0
        self.newton_iterations = 0
        self.chart_newton_iterations = 0
        tracer.hooks.update({
            "dynamics.DifferentialKernel.build": self._build,
            "shooting.multi_start": self._multi_start,
            "shooting.shoot_extremal": self._shoot_extremal,
            "inversion.chart_eval_full": self._chart_eval,
        })

    def _build(self, fn, args, kwargs, result, top):
        a = _bound(fn, args, kwargs)
        self.steps += a["u"].N * a["substeps"]

    def _multi_start(self, fn, args, kwargs, result, top):
        a = _bound(fn, args, kwargs)
        self.seeds += len(np.atleast_2d(a["seeds"]))
        self.distinct += len(result)
        self.newton_iterations += sum(s.iterations for s in result)

    def _shoot_extremal(self, fn, args, kwargs, result, top):
        self.newton_iterations += result.iterations

    def _chart_eval(self, fn, args, kwargs, result, top):
        if top:
            self.chart_newton_iterations += result[3]


def _ratio(a, b, scale=1.0):
    return scale * a / b if b else 0.0


# Ratios; every other per-layer metric is a count or a time per round, so
# runs that fit a different number of rounds stay comparable.
RATIOS = {"expr.us_per_call", "dynamics.kernel_build_ms",
          "dynamics.us_per_step", "shooting.distinct_per_seed",
          "shooting.refine_ms_per_extremal", "inversion.kernel_builds_per_eval"}


def per_layer_metrics(table: SpanTable, counters: LayerCounters, rounds):
    """The per-layer metrics named in BENCHMARK.json, from one trace."""
    t = table
    expr_calls = t.count("expr.CompiledVector.__call__")
    builds = t.count("dynamics.DifferentialKernel.build")
    refine_calls = t.count("shooting.shoot_extremal")
    evals = t.top_level("inversion.chart_eval_full")
    n_evals = int(np.count_nonzero(evals))
    seeds = counters.seeds
    metrics = {
        "expr.calls": expr_calls,
        "expr.us_per_call": _ratio(t.self_s("expr.CompiledVector.__call__"),
                                   expr_calls, 1e6),
        "expr.self_s": t.layer_self_s("expr"),
        "fields.field_matrix.calls": t.count("fields.FieldSet.field_matrix"),
        "fields.jacobian_stack.calls": t.count("fields.FieldSet.jacobian_stack"),
        "fields.self_s": t.layer_self_s("fields"),
        "lagrangian.grad_u.calls": t.count("lagrangian.Lagrangian.grad_u"),
        "lagrangian.hess_u.calls": t.count("lagrangian.Lagrangian.hess_u"),
        "lagrangian.self_s": t.layer_self_s("lagrangian"),
        "dynamics.kernel_builds": builds,
        "dynamics.kernel_build_ms": _ratio(
            t.total_s("dynamics.DifferentialKernel.build"), builds, 1e3),
        "dynamics.steps": counters.steps,
        "dynamics.us_per_step": _ratio(
            t.total_s("dynamics.DifferentialKernel.build"), counters.steps, 1e6),
        "dynamics.self_s": t.layer_self_s("dynamics"),
        "shooting.multi_start_s": t.total_s("shooting.multi_start"),
        "shooting.seeds": seeds,
        "shooting.distinct": counters.distinct,
        "shooting.distinct_per_seed": _ratio(counters.distinct, seeds),
        "shooting.newton_iterations": counters.newton_iterations,
        "shooting.flows": t.count("shooting._hamiltonian_flow"),
        "shooting.build_solution_s": float(np.sum(t.dur[t.nested_under(
            t.top_level("shooting.multi_start"), "shooting._build_solution")])),
        "shooting.refine_calls": refine_calls,
        "shooting.refine_ms_per_extremal": _ratio(
            t.total_s("shooting.shoot_extremal"), refine_calls, 1e3),
        "controls.l2_distance.calls": t.count("controls.l2_distance"),
        "analysis.certificate_s": (t.total_s("analysis.lipschitz_certificate")
                                   + t.total_s("analysis.costate_bound_check")),
        "inversion.select_basis_s": t.total_s("inversion.select_basis"),
        "inversion.build_chart_s": t.total_s("inversion.build_chart"),
        "inversion.chart_eval_s": float(np.sum(t.dur[evals])),
        "inversion.newton_iterations": counters.chart_newton_iterations,
        "inversion.kernel_builds_per_eval": _ratio(int(np.count_nonzero(
            t.nested_under(evals, "dynamics.DifferentialKernel.build"))),
            n_evals),
    }
    return {k: v if k in RATIOS else v / rounds for k, v in metrics.items()}
