"""Local inversion charts for the endpoint map.

A chart is anchored at a time t and control u. It fixes n dictionary
directions v_1..v_n whose endpoint images span R^n, then maps a nearby
target (s, beta) to the control u + sum_i alpha_i v_i whose trajectory
reaches beta at time s, with alpha found by Newton. The inverse-function
argument behind this is non-constructive; here the chart radius is earned
by a probe-certified trust region: shrink r until every probe on the
(s, beta) sphere both solves and keeps the basis determinant away from
zero.

Basis directions are smooth expressions in s, but the control actually
emitted is their sampling on the anchor's own grid, so a chart evaluation
and a later re-integration of its output see the identical piecewise-linear
object. The Newton Jacobian is assembled from the same sampled directions,
which makes the round trip exact up to solver tolerance, not up to
quadrature. Each Newton iterate's endpoint and Jacobian come from one
``DifferentialKernel``: the kernel the line search built for the accepted
trial is the next iterate's kernel.

The Newton runs on a stack of targets (s, beta), each with its own horizon
s. It builds the kernels of all their starting iterates with one
``DifferentialKernel.build_batch`` call. Each line-search trial
(``dynamics._backtrack``) integrates all its candidates in one state loop,
judges them by their endpoints, and builds kernels only for the
candidates it keeps. Every target stops on its own, with the iterates it
would get alone. A query is the batch of one.
``build_chart`` solves its 2n+2 sphere probes, the time-shifted one
included, as one stack. Each probe then passes the checks a user query
gets after its Newton (converged, determinant floor, time constant), on a
proto chart with an unbounded radius and time constant and the final
determinant floor, so a probe passes exactly what a query inside the
finished chart must pass.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .controls import ControlPath, l2_distance
from .dynamics import (DEFAULT_SUBSTEPS, DifferentialKernel, _backtrack,
                       _states, _take, fine_grid)
from .errors import (BasisDeficiencyError, ChartConstructionError,
                     ChartIntegrityError, DimensionError)

RANK_TOL = 1e-9
CHART_NEWTON_TOL = 1e-9
CHART_NEWTON_MAX_ITER = 30
CHART_NEWTON_MAX_HALVINGS = 10
CHART_MAX_HALVINGS = 20
CHART_MIN_RADIUS = 1e-8
DET_TOL = 0.1


@dataclass(frozen=True)
class DictionaryDirection:
    """One m-channel control direction: expressions in s with a known
    time-Lipschitz constant."""
    exprs: tuple = field(repr=False)
    lip: float = 0.0
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_sampler",
                           ex.compile_vector(list(self.exprs), 1))

    def values(self, times):
        return self._sampler(np.asarray(times, dtype=float)[..., None])


@dataclass(frozen=True)
class Dictionary:
    directions: tuple

    def __len__(self):
        return len(self.directions)


def default_dictionary(m, T, k_max=8) -> Dictionary:
    """Constants per channel, then sin/cos(k pi s / T) per channel."""
    dirs = []

    def direction(channel, text, lip):
        comps = [ex.Const(0.0)] * m
        comps[channel] = ex.parse_scalar(text, ["s"])
        parts = ["0"] * m
        parts[channel] = text
        return DictionaryDirection(exprs=tuple(comps), lip=lip,
                                   source="(" + ", ".join(parts) + ")")

    for c in range(m):
        dirs.append(direction(c, "1", 0.0))
    for k in range(1, k_max + 1):
        w = k * math.pi / T
        for c in range(m):
            dirs.append(direction(c, f"sin({w!r}*s)", w))
            dirs.append(direction(c, f"cos({w!r}*s)", w))
    return Dictionary(directions=tuple(dirs))


@dataclass(frozen=True)
class SelectedBasis:
    directions: tuple
    indices: tuple
    phi: np.ndarray = field(repr=False)  # (n, n), column k = dE(v_k)

    @property
    def det(self):
        return float(np.linalg.det(self.phi))


def _images(kern, directions):
    """Endpoint images (n, D) of the directions under the kernel's dE."""
    return kern.apply_values(np.stack([d.values(kern.times)
                                       for d in directions])).T


def select_basis(kern, dictionary: Dictionary) -> SelectedBasis:
    """Greedy volume-maximizing pick of n dictionary directions at the
    anchor whose ``DifferentialKernel`` is ``kern``.

    Computes the endpoint image of every dictionary direction once, then
    does modified Gram-Schmidt pivoting on the image columns. Runs out of
    usable columns -> basis deficiency (singular anchor or a dictionary
    that is too small).
    """
    images = _images(kern, dictionary.directions)
    n = images.shape[0]
    resid = images.copy()
    chosen = []
    scale = float(np.max(np.linalg.norm(images, axis=0), initial=0.0))
    for _ in range(n):
        norms = np.linalg.norm(resid, axis=0)
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= RANK_TOL * max(scale, 1.0):
            raise BasisDeficiencyError(
                f"dictionary exhausted at rank {len(chosen)} of {n}: "
                "the endpoint differential looks singular at this anchor")
        chosen.append(j)
        q = resid[:, j] / norms[j]
        resid = resid - np.outer(q, q @ resid)
    return SelectedBasis(
        directions=tuple(dictionary.directions[j] for j in chosen),
        indices=tuple(chosen),
        phi=images[:, chosen])


@dataclass(frozen=True)
class InversionChart:
    F: object = field(repr=False)
    x0: np.ndarray = field(repr=False)
    t: float = 0.0
    u: ControlPath = None
    anchor_endpoint: np.ndarray = None
    basis: SelectedBasis = None
    r: float = 0.0
    det_anchor: float = 0.0
    det_floor: float = 0.0
    k_time: float = 0.0
    lipschitz_est: dict = None
    probe_seed: int = 0
    substeps: int = DEFAULT_SUBSTEPS

    @property
    def n(self):
        return self.F.n

    @functools.cached_property
    def basis_coarse(self):
        """The basis directions sampled on the anchor grid, (n, N+1, m)."""
        return np.stack([v.values(self.u.times) for v in self.basis.directions])

    def distance(self, s, beta):
        d = np.asarray(beta, dtype=float) - self.anchor_endpoint
        return math.hypot(float(s) - self.t, float(np.linalg.norm(d)))

    def emit(self, alpha):
        values = self.u.values + np.einsum("i,ijm->jm", alpha, self.basis_coarse)
        return ControlPath(self.u.T, values)

    def to_dict(self, control_ref=""):
        return {
            "anchor_time": self.t,
            "anchor_endpoint": [float(b) for b in self.anchor_endpoint],
            "x0": [float(b) for b in self.x0],
            "radius": self.r,
            "det_anchor": self.det_anchor,
            "det_floor": self.det_floor,
            "k_time": self.k_time,
            "lipschitz_est": dict(self.lipschitz_est),
            "probe_seed": self.probe_seed,
            "substeps": self.substeps,
            "basis": [{"source": d.source, "lip": d.lip, "index": i}
                      for d, i in zip(self.basis.directions, self.basis.indices)],
            "control_ref": control_ref,
        }


def chart_from_dict(d, F, u: ControlPath) -> InversionChart:
    """Rebuild a chart from its JSON form plus the anchor control."""
    m = u.m
    dirs = []
    for entry in d["basis"]:
        comps = ex.parse_components(entry["source"], m, ["s"])
        dirs.append(DictionaryDirection(exprs=tuple(comps), lip=entry["lip"],
                                        source=entry["source"]))
    t = float(d["anchor_time"])
    x0 = np.asarray(d["x0"], dtype=float)
    substeps = int(d["substeps"])
    kern = DifferentialKernel.build(F, u, x0, t, substeps)
    basis = SelectedBasis(
        directions=tuple(dirs),
        indices=tuple(int(e["index"]) for e in d["basis"]),
        phi=_images(kern, dirs))
    return InversionChart(
        F=F, x0=x0, t=t, u=u,
        anchor_endpoint=np.asarray(d["anchor_endpoint"], dtype=float),
        basis=basis, r=float(d["radius"]),
        det_anchor=float(d["det_anchor"]), det_floor=float(d["det_floor"]),
        k_time=float(d["k_time"]), lipschitz_est=dict(d["lipschitz_est"]),
        probe_seed=int(d["probe_seed"]), substeps=substeps)


def _solve_alpha(chart: InversionChart, s, betas):
    """Newton on alpha, from 0, for E_s(u + sum alpha_i v_i) = beta, for a
    stack of targets with one horizon s (K,) and one endpoint betas (K, n)
    each.

    Returns (alpha, paths, det, converged, iterations): alpha (K, n), the
    emitted paths, and (K,) arrays. The Jacobian is the basis-image matrix
    at the current iterate, so convergence certifies the round trip on the
    emitted piecewise-linear control itself. The starting iterates' kernels
    come from one ``build_batch`` call. A line search of ``_backtrack``
    then makes at most two trials, alpha = 1 and every remaining halving
    stacked; a trial runs the state loop ``_states`` once over its
    candidates and judges them by their endpoints, which a kernel of the
    same control reproduces bit for bit, and builds kernels, from that same
    run, only for the candidates it keeps. An iterate the line search
    accepted keeps the control and kernel of its trial; a target whose
    CHART_NEWTON_MAX_HALVINGS trials were all rejected fails at its last
    iterate. Each target stops on its own and gets the iterates a Newton
    run on it alone would give.
    """
    s = np.asarray(s, dtype=float)
    K = len(s)
    alpha = np.zeros((K, chart.n))
    paths = [chart.emit(a) for a in alpha]
    times, _ = fine_grid(s, chart.u.N, chart.substeps)
    basis_fine = [np.stack([ControlPath(chart.u.T, vals).at(times[:, k])
                            for vals in chart.basis_coarse]) for k in range(K)]
    det = np.zeros(K)
    converged = np.zeros(K, dtype=bool)
    iterations = np.full(K, CHART_NEWTON_MAX_ITER)
    kerns = DifferentialKernel.build_batch(chart.F, paths, chart.x0, s,
                                           chart.substeps)
    done = np.array([kern is None for kern in kerns])
    iterations[done] = 0
    gn = np.zeros(K)

    def trial(ks, alpha_try):
        controls = [chart.emit(a) for a in alpha_try]
        run = _states(chart.F, np.stack([c.values for c in controls]),
                      chart.u.T, chart.x0, s[ks], chart.substeps)
        _, _, _, states, _, died = run
        better = np.array([died[i] < 0 and
                           np.linalg.norm(states[-1, i] - betas[k]) < gn[k]
                           for i, k in enumerate(ks)], dtype=bool)
        # A kernel only for the trial each target keeps, its first better
        # one; a trial whose Psi left the guard is rejected after all, and
        # the next better one of its target takes its place.
        built = {}
        while True:
            cand = np.flatnonzero(better)
            first = cand[np.unique(ks[cand], return_index=True)[1]]
            picks = [i for i in first if i not in built]
            if not picks:
                break
            for i, kern in zip(picks, DifferentialKernel.build_batch(
                    chart.F, [controls[i] for i in picks], chart.x0,
                    s[ks[picks]], chart.substeps, run=_take(run, picks))):
                built[i] = kern
                better[i] = kern is not None

        def keep(sel):
            for i in sel:
                kerns[ks[i]], paths[ks[i]] = built[i], controls[i]

        return better, keep

    for it in range(CHART_NEWTON_MAX_ITER):
        step = np.zeros_like(alpha)
        for k in np.flatnonzero(~done):
            g = kerns[k].endpoint - betas[k]
            gn[k] = np.linalg.norm(g)
            phi = kerns[k].apply_values(basis_fine[k]).T
            det[k] = np.linalg.det(phi)
            if gn[k] < CHART_NEWTON_TOL or abs(det[k]) < 1e-14:
                converged[k] = gn[k] < CHART_NEWTON_TOL
                done[k] = True
                iterations[k] = it
            else:
                step[k] = np.linalg.solve(phi, g)
        if done.all():
            break
        alpha, stuck = _backtrack(trial, alpha, step, ~done,
                                  CHART_NEWTON_MAX_HALVINGS)
        done |= stuck
        iterations[stuck] = it
    return alpha, paths, det, converged, iterations


def _check_target(chart: InversionChart, s, beta):
    """A query's checks on its target: in the domain and the certified ball."""
    # Negated comparisons, so that a NaN coordinate fails them.
    if not 0.0 < s <= chart.u.T * (1.0 + 1e-12):
        raise ValueError(f"time {s} outside the anchor control's domain")
    if not chart.distance(s, beta) <= chart.r * (1.0 + 1e-9):
        raise ValueError(
            f"target ({s}, {beta}) is outside the certified "
            f"chart ball of radius {chart.r:g} around "
            f"({chart.t:g}, {chart.anchor_endpoint})")


def _check_solutions(chart: InversionChart, s, paths, det, converged):
    """The checks each Newton solution of a stack passes, in order, to be
    returned by a query on ``chart``, and each sphere probe of a chart."""
    for s_k, path, det_k, ok in zip(s, paths, det, converged):
        if not ok:
            raise ChartIntegrityError(
                f"Newton failed inside the certified ball at (s={s_k:.6g}); "
                "the chart radius is no longer trustworthy")
        if abs(det_k) < chart.det_floor:
            raise ChartIntegrityError(
                f"basis determinant {det_k:.3e} fell below the floor "
                f"{chart.det_floor:.3e}")
        if path.lipschitz_quotient > chart.k_time * (1.0 + 1e-9):
            raise ChartIntegrityError(
                f"emitted control Lipschitz quotient "
                f"{path.lipschitz_quotient:.3e} exceeds the declared "
                f"constant {chart.k_time:.3e}")


def chart_eval_full(chart: InversionChart, s, beta):
    """``chart_eval`` that also returns alpha, the basis determinant and the
    Newton iteration count."""
    s = float(s)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (chart.n,):
        raise DimensionError(f"target has shape {beta.shape}, "
                             f"expected ({chart.n},)")
    _check_target(chart, s, beta)
    alpha, paths, det, ok, iterations = _solve_alpha(chart, [s], beta[None])
    _check_solutions(chart, [s], paths, det, ok)
    return paths[0], alpha[0], float(det[0]), int(iterations[0])


def chart_eval(chart: InversionChart, s, beta) -> ControlPath:
    """Control steering x0 to beta in time s, within the certified ball."""
    path, _, _, _ = chart_eval_full(chart, s, beta)
    return path


def _probe_targets(t, anchor_endpoint, r, T):
    """Center, +-r along each target axis, and one time-shifted probe."""
    n = len(anchor_endpoint)
    probes = [(t, anchor_endpoint.copy())]
    for k in range(n):
        e = np.zeros(n)
        e[k] = r
        probes.append((t, anchor_endpoint + e))
        probes.append((t, anchor_endpoint - e))
    if t + r <= T:
        probes.append((t + r, anchor_endpoint.copy()))
    elif t - r > 0.0:
        probes.append((t - r, anchor_endpoint.copy()))
    return probes


def build_chart(F, u: ControlPath, x0, t, dictionary=None, r_init=None,
                det_tol=DET_TOL, probe_seed=0,
                substeps=DEFAULT_SUBSTEPS) -> InversionChart:
    """Probe-certified trust-region construction around (t, E_t(u)).

    Halves the radius until every sphere probe passes a query on the proto
    chart: its Newton solves with the basis determinant held above
    det_tol * |det at anchor|. Radius underflow is a construction failure,
    reported with the last failing radius.
    """
    x0 = np.asarray(x0, dtype=float)
    t = float(t)
    if not 0.0 < t <= u.T * (1.0 + 1e-12):
        raise ValueError(f"anchor time {t} outside the control's domain")
    dictionary = default_dictionary(u.m, u.T) if dictionary is None else dictionary
    kern = DifferentialKernel.build(F, u, x0, t, substeps)
    basis = select_basis(kern, dictionary)
    det_anchor = basis.det
    anchor_endpoint = kern.endpoint.copy()
    if r_init is None:
        r_init = 0.1 * (1.0 + float(np.linalg.norm(anchor_endpoint)))
    if r_init <= 0.0:
        raise ValueError("chart radius must be positive")

    proto = InversionChart(
        F=F, x0=x0, t=t, u=u, anchor_endpoint=anchor_endpoint, basis=basis,
        r=float("inf"), det_anchor=det_anchor,
        det_floor=det_tol * abs(det_anchor), k_time=float("inf"),
        lipschitz_est={}, probe_seed=probe_seed, substeps=substeps)

    r = float(r_init)
    for _ in range(CHART_MAX_HALVINGS + 1):
        s, betas = zip(*_probe_targets(t, anchor_endpoint, r, u.T))
        try:
            alpha, paths, det, ok, _ = _solve_alpha(proto, s, betas)
            _check_solutions(proto, s, paths, det, ok)
            break
        except ChartIntegrityError:
            r /= 2.0
        if r < CHART_MIN_RADIUS:
            raise ChartConstructionError(
                f"probe certification failed down to radius {r:g} "
                f"at anchor t={t:g}")
    else:
        raise ChartConstructionError(
            f"probe certification failed after {CHART_MAX_HALVINGS} halvings "
            f"at anchor t={t:g}")

    alpha_bound = 2.0 * np.max(np.abs(alpha), axis=0) + 1e-9
    k_time = u.lipschitz_quotient + float(
        sum(b * d.lip for b, d in zip(alpha_bound, basis.directions)))

    # Crude value/differential Lipschitz readings from the certified probes.
    k_hat = 0.0
    ell_hat = 0.0
    for k in range(1, len(s)):
        d = proto.distance(s[k], betas[k])
        if d < 1e-12:
            continue
        k_hat = max(k_hat, l2_distance(paths[k], paths[0]) / d)
        ell_hat = max(ell_hat, float(np.linalg.norm(alpha[k])) / d)

    return dataclasses.replace(proto, r=r, k_time=k_time,
                               lipschitz_est={"k": k_hat, "ell": ell_hat})
