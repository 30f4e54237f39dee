"""Piecewise-linear control paths on uniform grids over [0, T]."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GridMismatchError


@dataclass(frozen=True)
class ControlPath:
    """R^m-valued control, (N+1) node samples interpreted piecewise-linearly."""

    T: float
    values: np.ndarray = field(repr=False)  # (N+1, m)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2:
            raise DimensionError("control values must be (N+1) x m with N >= 1")
        if not np.all(np.isfinite(vals)):
            raise DimensionError("control samples must be finite")
        if not 0 < self.T < np.inf:
            raise DimensionError("horizon T must be positive and finite")
        object.__setattr__(self, "values", vals)

    @property
    def N(self):
        return self.values.shape[0] - 1

    @property
    def m(self):
        return self.values.shape[1]

    @property
    def h(self):
        return self.T / self.N

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.N + 1)

    def at(self, s):
        """Evaluate the interpolant at times s (scalar or array), clip to [0,T]."""
        s = np.asarray(s, dtype=float)
        pos = np.clip(s, 0.0, self.T) / self.h
        idx = np.minimum(pos.astype(int), self.N - 1)
        w = pos - idx
        lo = self.values[idx]
        hi = self.values[idx + 1]
        return lo + w[..., None] * (hi - lo)

    @property
    def sup_norm(self):
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    @property
    def lipschitz_quotient(self):
        """Max adjacent-node difference quotient; exactly Lip of the interpolant."""
        d = np.linalg.norm(np.diff(self.values, axis=0), axis=1)
        return float(d.max() / self.h)

    @classmethod
    def constant(cls, T, N, vec):
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(T, np.tile(vec, (N + 1, 1)))

    @classmethod
    def zero(cls, T, N, m):
        return cls(T, np.zeros((N + 1, m)))


def _union_times(a: ControlPath, b: ControlPath):
    if abs(a.T - b.T) > 1e-12 * max(1.0, a.T):
        raise GridMismatchError(f"horizons differ: {a.T} vs {b.T}")
    if a.m != b.m:
        raise GridMismatchError(f"channel counts differ: {a.m} vs {b.m}")
    t = np.union1d(a.times, b.times)
    return t


def l2_distance(a: ControlPath, b: ControlPath):
    """Exact L2 distance between two interpolants (union-grid quadrature)."""
    t = _union_times(a, b)
    d = a.at(t) - b.at(t)
    d0, d1 = d[:-1], d[1:]
    seg = np.sum(d0 * d0 + d0 * d1 + d1 * d1, axis=1) * np.diff(t) / 3.0
    return float(np.sqrt(max(seg.sum(), 0.0)))


def l2_pairing(a: ControlPath, b: ControlPath):
    """Trapezoid L2 pairing on the union grid.

    This is the quadrature used by the endpoint-differential machinery, so
    adjoint/forward duality holds to machine precision rather than to an
    O(h^2) mismatch. For the exact product integral use l2_distance-style
    formulas instead.
    """
    t = _union_times(a, b)
    y = np.sum(a.at(t) * b.at(t), axis=1)
    dt = np.diff(t)
    return float(np.sum((y[:-1] + y[1:]) * dt) / 2.0)


def random_smooth_controls(rng, T, N, m, count, modes=3, amplitude=1.0):
    """Band-limited random controls sampled on the grid.

    Sum of a constant and the first ``modes`` sin/cos pairs with Gaussian
    coefficients decaying like 1/k. Smooth probes keep quadrature error in
    differential cross-checks at the h^2 scale instead of the O(h) scale that
    white-noise node samples would produce.
    """
    t = np.linspace(0.0, T, N + 1)
    out = []
    for _ in range(count):
        vals = np.tile(rng.normal(0.0, amplitude, size=m), (N + 1, 1))
        for k in range(1, modes + 1):
            ck = rng.normal(0.0, amplitude / k, size=m)
            sk = rng.normal(0.0, amplitude / k, size=m)
            phase = k * np.pi * t[:, None] / T
            vals = vals + np.cos(phase) * ck + np.sin(phase) * sk
        out.append(ControlPath(T, vals))
    return out
