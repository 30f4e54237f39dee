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
``DifferentialKernel`` build: the kernel the line search built for the
accepted trial is the next iterate's kernel.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .controls import ControlPath, l2_distance
from .dynamics import DEFAULT_SUBSTEPS, DifferentialKernel, fine_grid
from .errors import (BasisDeficiencyError, ChartConstructionError,
                     ChartIntegrityError, DivergenceError)

RANK_TOL = 1e-9
CHART_NEWTON_TOL = 1e-9
CHART_NEWTON_MAX_ITER = 30
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

    def sampler(self):
        return ex.compile_vector(list(self.exprs), 1)

    def values(self, times):
        return self.sampler()((np.asarray(times, dtype=float),))


@dataclass(frozen=True)
class Dictionary:
    directions: tuple
    T: float
    k_max: int = 8

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
    return Dictionary(directions=tuple(dirs), T=T, k_max=k_max)


@dataclass(frozen=True)
class SelectedBasis:
    directions: tuple
    indices: tuple
    phi: np.ndarray = field(repr=False)  # (n, n), column k = dE(v_k)

    @property
    def det(self):
        return float(np.linalg.det(self.phi))


def select_basis(F, u: ControlPath, x0, t, dictionary: Dictionary,
                 substeps=DEFAULT_SUBSTEPS) -> SelectedBasis:
    """Greedy volume-maximizing pick of n dictionary directions.

    Computes the endpoint image of every dictionary direction once, then
    does modified Gram-Schmidt pivoting on the image columns. Runs out of
    usable columns -> basis deficiency (singular anchor or a dictionary
    that is too small).
    """
    kern = DifferentialKernel.build(F, u, np.asarray(x0, dtype=float), t,
                                    substeps)
    return _select_with_kernel(kern, dictionary)


def _select_with_kernel(kern, dictionary: Dictionary) -> SelectedBasis:
    """``select_basis`` on an already built anchor kernel."""
    images = kern.apply_values(np.stack(
        [d.values(kern.times) for d in dictionary.directions])).T  # (n, D)
    n, D = images.shape
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
    basis_coarse: np.ndarray = field(repr=False, default=None)  # (n, N+1, m)
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
    if substeps < 1:
        raise ValueError(f"chart substeps must be at least 1, got {substeps}")
    kern = DifferentialKernel.build(F, u, x0, t, substeps)
    basis = SelectedBasis(
        directions=tuple(dirs),
        indices=tuple(int(e["index"]) for e in d["basis"]),
        phi=kern.apply_values(np.stack([v.values(kern.times) for v in dirs])).T)
    coarse = np.stack([v.values(u.times) for v in dirs], axis=0)
    return InversionChart(
        F=F, x0=x0, t=t, u=u,
        anchor_endpoint=np.asarray(d["anchor_endpoint"], dtype=float),
        basis=basis, basis_coarse=coarse, r=float(d["radius"]),
        det_anchor=float(d["det_anchor"]), det_floor=float(d["det_floor"]),
        k_time=float(d["k_time"]), lipschitz_est=dict(d["lipschitz_est"]),
        probe_seed=int(d["probe_seed"]), substeps=substeps)


def _solve_alpha(chart: InversionChart, s, beta, alpha0):
    """Newton on alpha for E_s(u + sum alpha_i v_i) = beta.

    Returns (alpha, path, det, converged, iterations). The Jacobian is the
    basis-image matrix at the current iterate, so convergence certifies the
    round trip on the emitted piecewise-linear control itself. An iterate
    the line search accepted keeps the kernel built for it; a kernel is
    built anew only when no trial was accepted.
    """
    beta = np.asarray(beta, dtype=float)
    alpha = np.zeros(chart.n) if alpha0 is None else np.asarray(alpha0, float).copy()
    path = chart.emit(alpha)
    times, _ = fine_grid(s, chart.u.N, chart.substeps)
    basis_fine = np.stack([ControlPath(chart.u.T, vals).at(times)
                           for vals in chart.basis_coarse])
    det = 0.0
    kern = None
    for it in range(CHART_NEWTON_MAX_ITER):
        if kern is None:
            try:
                kern = DifferentialKernel.build(chart.F, path, chart.x0, s,
                                                chart.substeps)
            except DivergenceError:
                return alpha, path, det, False, it
        g = kern.endpoint - beta
        gn = float(np.linalg.norm(g))
        phi = kern.apply_values(basis_fine).T
        det = float(np.linalg.det(phi))
        if gn < CHART_NEWTON_TOL:
            return alpha, path, det, True, it
        if abs(det) < 1e-14:
            return alpha, path, det, False, it
        step = np.linalg.solve(phi, g)
        scale = 1.0
        kern = None
        for _ in range(10):
            try:
                trial = DifferentialKernel.build(
                    chart.F, chart.emit(alpha - scale * step), chart.x0, s,
                    chart.substeps)
            except DivergenceError:
                scale /= 2.0
                continue
            if float(np.linalg.norm(trial.endpoint - beta)) < gn:
                kern = trial
                break
            scale /= 2.0
        alpha = alpha - scale * step
        path = chart.emit(alpha)
    return alpha, path, det, False, CHART_NEWTON_MAX_ITER


def chart_eval_full(chart: InversionChart, s, beta, alpha0=None, enforce=True):
    s = float(s)
    if enforce and chart.distance(s, beta) > chart.r * (1.0 + 1e-9):
        raise ValueError(
            f"target ({s}, {np.asarray(beta)}) is outside the certified "
            f"chart ball of radius {chart.r:g} around "
            f"({chart.t:g}, {chart.anchor_endpoint})")
    if s <= 0.0 or s > chart.u.T * (1.0 + 1e-12):
        raise ValueError(f"time {s} outside the anchor control's domain")
    alpha, path, det, ok, iters = _solve_alpha(chart, s, beta, alpha0)
    if not ok:
        raise ChartIntegrityError(
            f"Newton failed inside the certified ball at (s={s:.6g}); "
            "the chart radius is no longer trustworthy")
    if enforce:
        if abs(det) < chart.det_floor:
            raise ChartIntegrityError(
                f"basis determinant {det:.3e} fell below the floor "
                f"{chart.det_floor:.3e}")
        if path.lipschitz_quotient > chart.k_time * (1.0 + 1e-9):
            raise ChartIntegrityError(
                f"emitted control Lipschitz quotient {path.lipschitz_quotient:.3e} "
                f"exceeds the declared constant {chart.k_time:.3e}")
    return path, alpha, det, iters


def chart_eval(chart: InversionChart, s, beta, alpha0=None) -> ControlPath:
    """Control steering x0 to beta in time s, within the certified ball."""
    path, _, _, _ = chart_eval_full(chart, s, beta, alpha0)
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

    Halves the radius until every sphere probe Newton-solves with the basis
    determinant held above det_tol * |det at anchor|; radius underflow is a
    construction failure, reported with the last failing radius.
    """
    x0 = np.asarray(x0, dtype=float)
    t = float(t)
    if not 0.0 < t <= u.T * (1.0 + 1e-12):
        raise ValueError(f"anchor time {t} outside the control's domain")
    dictionary = default_dictionary(u.m, u.T) if dictionary is None else dictionary
    kern = DifferentialKernel.build(F, u, x0, t, substeps)
    basis = _select_with_kernel(kern, dictionary)
    det_anchor = basis.det
    anchor_endpoint = kern.endpoint.copy()
    if r_init is None:
        r_init = 0.1 * (1.0 + float(np.linalg.norm(anchor_endpoint)))
    if r_init <= 0.0:
        raise ValueError("chart radius must be positive")

    proto = InversionChart(
        F=F, x0=x0, t=t, u=u, anchor_endpoint=anchor_endpoint, basis=basis,
        basis_coarse=np.stack([v.values(u.times) for v in basis.directions]),
        r=float("nan"), det_anchor=det_anchor,
        det_floor=det_tol * abs(det_anchor), k_time=float("inf"),
        lipschitz_est={}, probe_seed=probe_seed, substeps=substeps)

    r = float(r_init)
    for _ in range(CHART_MAX_HALVINGS + 1):
        results = []
        ok = True
        for (s, beta) in _probe_targets(t, anchor_endpoint, r, u.T):
            try:
                path, alpha, det, _ = chart_eval_full(proto, s, beta,
                                                      enforce=False)
            except (ChartIntegrityError, DivergenceError):
                ok = False
                break
            if abs(det) < det_tol * abs(det_anchor):
                ok = False
                break
            results.append((s, beta, path, alpha))
        if ok:
            break
        r /= 2.0
        if r < CHART_MIN_RADIUS:
            raise ChartConstructionError(
                f"probe certification failed down to radius {r:g} "
                f"at anchor t={t:g}")
    else:
        raise ChartConstructionError(
            f"probe certification failed after {CHART_MAX_HALVINGS} halvings "
            f"at anchor t={t:g}")

    alpha_mag = np.max(np.abs(np.stack([a for (_, _, _, a) in results])), axis=0)
    alpha_bound = 2.0 * alpha_mag + 1e-9
    k_time = u.lipschitz_quotient + float(
        sum(b * d.lip for b, d in zip(alpha_bound, basis.directions)))

    # Crude value/differential Lipschitz readings from the certified probes.
    k_hat = 0.0
    ell_hat = 0.0
    center_path = results[0][2]
    for (s, beta, path, alpha) in results[1:]:
        d = math.hypot(s - t, float(np.linalg.norm(beta - anchor_endpoint)))
        if d < 1e-12:
            continue
        k_hat = max(k_hat, l2_distance(path, center_path) / d)
        ell_hat = max(ell_hat, float(np.linalg.norm(alpha)) / d)

    return dataclasses.replace(proto, r=r, k_time=k_time,
                               lipschitz_est={"k": k_hat, "ell": ell_hat})


def chart_lipschitz_estimate(chart: InversionChart, probes=60, seed=None,
                             differential_points=8):
    """Monte-Carlo Lipschitz readings over random interior targets.

    k_hat: worst L2-vs-parameter quotient over all probe pairs. ell_hat:
    worst pairwise variation of finite-difference chart Jacobians over a
    subset of probes (Jacobians cost n+1 evaluations each). Degenerate
    pairs are skipped.
    """
    rng = np.random.default_rng(chart.probe_seed if seed is None else seed)
    n = chart.n
    pts = [(chart.t, chart.anchor_endpoint.copy())]
    while len(pts) < probes:
        raw = rng.normal(size=n + 1)
        raw /= np.linalg.norm(raw)
        rad = 0.9 * chart.r * rng.uniform() ** (1.0 / (n + 1))
        s = chart.t + rad * raw[0]
        if not 0.0 < s <= chart.u.T:
            continue
        pts.append((s, chart.anchor_endpoint + rad * raw[1:]))

    paths = []
    alphas = []
    alpha0 = None
    for (s, beta) in pts:
        path, alpha, _, _ = chart_eval_full(chart, s, beta, alpha0)
        paths.append(path)
        alphas.append(alpha)
        alpha0 = alpha

    k_hat = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i][0] - pts[j][0],
                           float(np.linalg.norm(pts[i][1] - pts[j][1])))
            if d < 1e-12:
                continue
            k_hat = max(k_hat, l2_distance(paths[i], paths[j]) / d)

    ell_hat = 0.0
    if differential_points >= 2:
        eps = 1e-5 * chart.r
        jacs = []
        kept = []
        for idx in range(min(differential_points, len(pts))):
            s, beta = pts[idx]
            if chart.distance(s, beta) > 0.98 * chart.r:
                continue
            cols = []
            s_step = eps if s + eps <= chart.u.T else -eps
            ref = paths[idx].values
            p_s, _, _, _ = chart_eval_full(chart, s + s_step, beta, alphas[idx])
            cols.append((p_s.values - ref) / s_step)
            for k in range(n):
                e = np.zeros(n)
                e[k] = eps
                p_b, _, _, _ = chart_eval_full(chart, s, beta + e, alphas[idx])
                cols.append((p_b.values - ref) / eps)
            jacs.append(np.stack(cols, axis=-1))
            kept.append(idx)
        for a in range(len(jacs)):
            for b in range(a + 1, len(jacs)):
                i, j = kept[a], kept[b]
                d = math.hypot(pts[i][0] - pts[j][0],
                               float(np.linalg.norm(pts[i][1] - pts[j][1])))
                if d < 1e-12:
                    continue
                ell_hat = max(ell_hat,
                              float(np.linalg.norm(jacs[a] - jacs[b])) / d)
    return {"k_hat": k_hat, "ell_hat": ell_hat}
