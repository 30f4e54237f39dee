"""Correctness checks for the benchmark workloads.

Every check rests on mathematics rather than on a stored copy of earlier
output, and returns ``(ok, detail)`` so that a run can report what failed.
The checks import nothing from the library: the Heisenberg endpoint used for
the chart round trip is integrated here from fields written out by hand.

Heisenberg facts used below (fields X1 = (1, 0, -x2/2), X2 = (0, 1, x1/2),
cost |u|^2 / 2, T = 1, target (0, 0, 1/(4 pi))):

- an extremal runs k times round a circle at constant speed; to enclose
  the signed area 1/(4 pi) the circle has radius 1 / (2 pi sqrt(k)), so the
  k loops are sqrt(k) long, the speed is |u| = sqrt(k) = sqrt(2 phi) and
  the cost is phi = k / 2;
- the chart's round trip is exact on the library's discretized endpoint
  map, so the re-integration below repeats that discretization (RK4 on
  N * substeps uniform steps over [0, s]) with the fields written out here.
"""

from __future__ import annotations

import math

import numpy as np

LEVEL_TOL = 1e-6          # cost off the nearest k/2 level
SPEED_TOL = 1e-6          # relative deviation of |u| from sqrt(2 phi)
DRIFT_TOL = 1e-6          # relative Hamiltonian drift along an extremal
STABILITY_TOL = 0.05      # certificate grid stability within 5 % of 1
ROUND_TRIP_TOL = 1e-9     # chart round trip, the chart Newton tolerance


def _result(ok, detail):
    return bool(ok), detail


def heisenberg_level(phi):
    """Nearest closed-form level index k >= 1 and the distance to k/2."""
    k = max(1, int(round(2.0 * phi)))
    return k, abs(phi - k / 2.0)


def check_level(phi):
    k, gap = heisenberg_level(phi)
    return _result(gap < LEVEL_TOL, f"phi {phi:.12g} is {gap:.2e} from level {k}/2")


def check_constant_speed(u_values, phi):
    """Every fine-grid control sample has speed sqrt(2 phi)."""
    speed = np.linalg.norm(np.asarray(u_values, dtype=float), axis=-1)
    want = math.sqrt(2.0 * phi)
    dev = float(np.max(np.abs(speed - want))) / want
    return _result(dev < SPEED_TOL, f"speed deviates {dev:.2e} from sqrt(2 phi)")


def check_residuals(residuals, shoot_tol):
    gap = residuals["endpoint_gap"]
    drift = residuals["hamiltonian_drift"]
    return _result(gap < shoot_tol and drift < DRIFT_TOL,
                   f"endpoint gap {gap:.2e} (tol {shoot_tol:g}), "
                   f"Hamiltonian drift {drift:.2e}")


def check_same_level(phi, phi_refined):
    k, _ = heisenberg_level(phi)
    k_ref, gap = heisenberg_level(phi_refined)
    return _result(k == k_ref and gap < LEVEL_TOL,
                   f"level {k}/2 refined to {phi_refined:.12g}")


def check_certificate(certified, grid_stability):
    return _result(certified and abs(grid_stability - 1.0) <= STABILITY_TOL,
                   f"certified {certified}, grid stability {grid_stability:.4f}")


def sample_path(u_values, T, times):
    """Piecewise-linear control with nodes on a uniform grid of [0, T],
    sampled at ``times``: shape times.shape + (m,)."""
    u = np.asarray(u_values, dtype=float)
    grid = np.linspace(0.0, T, len(u))
    return np.stack([np.interp(times, grid, u[:, c]) for c in range(u.shape[1])],
                    axis=-1)


def heisenberg_endpoint(u_values, T, s, substeps, x0=(0.0, 0.0, 0.0)):
    """RK4 endpoint at time s of the Heisenberg system driven by the
    piecewise-linear control with nodes ``u_values`` on a uniform grid of
    [0, T], on the fine grid the library's endpoint map uses: N * substeps
    uniform steps over [0, s], control sampled at the RK4 stage times."""
    u = np.asarray(u_values, dtype=float)
    M = (len(u) - 1) * substeps
    h = s / M

    def rate(x, c):
        return np.array([c[0], c[1], 0.5 * (x[0] * c[1] - x[1] * c[0])])

    x = np.asarray(x0, dtype=float)
    for j in range(M):
        t = j * h
        ua, um, ub = (sample_path(u, T, t + d) for d in (0.0, h / 2.0, h))
        k1 = rate(x, ua)
        k2 = rate(x + (h / 2.0) * k1, um)
        k3 = rate(x + (h / 2.0) * k2, um)
        k4 = rate(x + h * k3, ub)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def check_round_trip(u_values, T, s, substeps, beta, x0=(0.0, 0.0, 0.0)):
    end = heisenberg_endpoint(u_values, T, s, substeps, x0)
    gap = float(np.linalg.norm(end - np.asarray(beta, dtype=float)))
    return _result(gap < ROUND_TRIP_TOL, f"round trip misses beta by {gap:.2e}")


def lipschitz_quotient(u_values, T):
    u = np.asarray(u_values, dtype=float)
    h = T / (len(u) - 1)
    return float(np.max(np.linalg.norm(np.diff(u, axis=0), axis=1)) / h)


def check_k_time(u_values, T, k_time):
    q = lipschitz_quotient(u_values, T)
    return _result(q <= k_time * (1.0 + 1e-9),
                   f"Lipschitz quotient {q:.6g} against k_time {k_time:.6g}")
