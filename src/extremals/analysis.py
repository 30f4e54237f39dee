"""Singularity detection and family-level regularity certificates.

A control is singular when the differential of the endpoint map fails to be
surjective; numerically that is a rank drop of the Gram matrix of adjoint
directions, read off its spectrum. The minimal eigenvector of a singular
Gram matrix is the abnormal multiplier candidate: it annihilates the image
of dE up to the reported residual.

The certificates below are family certificates over a finite solution list,
not proofs about the full extremal set. They check that the quantities the
regularity chain needs (cost bound, sup bound, Lipschitz bound) are finite
and stable under one grid doubling, and they fail exactly when stability
breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import ControlPath
from .dynamics import DEFAULT_SUBSTEPS, DifferentialKernel

SINGULARITY_THRESHOLD = 1e-8
STABILITY_WINDOW = (0.5, 2.0)


@dataclass(frozen=True)
class GramReport:
    sigma_min: float
    sigma_max: float
    ratio: float
    singular: bool
    abnormal_candidate: np.ndarray
    threshold: float

    def to_dict(self):
        cand = (None if self.abnormal_candidate is None
                else [float(c) for c in self.abnormal_candidate])
        return {"sigma_min": self.sigma_min, "sigma_max": self.sigma_max,
                "ratio": self.ratio, "singular": self.singular,
                "abnormal_candidate": cand, "threshold": self.threshold}


def singularity_report(F, u: ControlPath, x0, T=None,
                       threshold=SINGULARITY_THRESHOLD,
                       substeps=DEFAULT_SUBSTEPS) -> GramReport:
    """Classify u via the spectrum of the endpoint-differential Gram matrix."""
    G = DifferentialKernel.build(F, u, x0, T, substeps).gram()
    evals, evecs = np.linalg.eigh(G)
    evals = np.clip(evals, 0.0, None)
    s_min, s_max = float(evals[0]), float(evals[-1])
    ratio = s_min / s_max if s_max > 0.0 else 0.0
    singular = ratio < threshold
    candidate = None
    if singular:
        candidate = evecs[:, 0].copy()
        # Orient deterministically: first nonzero component positive.
        nz = np.nonzero(np.abs(candidate) > 1e-12)[0]
        if len(nz) and candidate[nz[0]] < 0:
            candidate = -candidate
    return GramReport(sigma_min=s_min, sigma_max=s_max, ratio=float(ratio),
                      singular=bool(singular), abnormal_candidate=candidate,
                      threshold=threshold)


def _lip_value(u: ControlPath):
    """Lipschitz reading of one control: max node quotient plus |u(T)|."""
    return u.lipschitz_quotient + float(np.linalg.norm(u.values[-1]))


@dataclass(frozen=True)
class LipschitzCertificate:
    sup_phi: float
    K_bound: float
    K_lip: float
    chain_status: dict
    grid_stability: float
    certified: bool
    per_solution: tuple

    def to_dict(self):
        return {"sup_phi": self.sup_phi, "K_bound": self.K_bound,
                "K_lip": self.K_lip, "chain_status": dict(self.chain_status),
                "grid_stability": self.grid_stability,
                "certified": self.certified,
                "per_solution": [dict(d) for d in self.per_solution]}


def lipschitz_certificate(solutions, refined) -> LipschitzCertificate:
    """Certify cost/sup/Lipschitz bounds over a family and its refinement.

    solutions and refined must align index-wise, the latter recomputed at a
    doubled grid. For the all-zero family both Lipschitz readings vanish and
    the stability ratio is defined as 1.
    """
    if len(solutions) != len(refined):
        raise ValueError("refined family must align with the base family")
    per = []
    for s in solutions:
        per.append({"phi": s.phi, "sup_norm": s.u.sup_norm,
                    "lip": _lip_value(s.u),
                    "lam_norm": float(np.linalg.norm(s.lam))})
    sup_phi = max((d["phi"] for d in per), default=0.0)
    k_bound = max((d["sup_norm"] for d in per), default=0.0)
    k_lip = max((d["lip"] for d in per), default=0.0)
    k_lip_ref = max((_lip_value(s.u) for s in refined), default=0.0)
    if k_lip == 0.0 and k_lip_ref == 0.0:
        stability = 1.0
    elif k_lip == 0.0:
        stability = float("inf")
    else:
        stability = k_lip_ref / k_lip
    lo, hi = STABILITY_WINDOW
    chain = {
        "phi_bounded": bool(np.isfinite(sup_phi)),
        "sup_norm_bounded": bool(np.isfinite(k_bound)),
        "equi_lipschitz": bool(np.isfinite(k_lip) and lo <= stability <= hi),
    }
    return LipschitzCertificate(
        sup_phi=float(sup_phi), K_bound=float(k_bound), K_lip=float(k_lip),
        chain_status=chain, grid_stability=float(stability),
        certified=all(chain.values()), per_solution=tuple(per))


@dataclass(frozen=True)
class BoundReport:
    r_traj: float
    r_costate: float
    finite: bool
    per_solution: tuple

    def to_dict(self):
        return {"r_traj": self.r_traj, "r_costate": self.r_costate,
                "finite": self.finite,
                "per_solution": [dict(d) for d in self.per_solution]}


def costate_bound_check(solutions) -> BoundReport:
    """Smallest common ball radii containing all trajectories and costates."""
    per = []
    for s in solutions:
        per.append({
            "traj_radius": float(np.max(np.linalg.norm(s.xi.states, axis=-1))),
            "costate_radius": float(np.max(np.linalg.norm(s.p, axis=-1))),
        })
    r_traj = max((d["traj_radius"] for d in per), default=0.0)
    r_cost = max((d["costate_radius"] for d in per), default=0.0)
    return BoundReport(r_traj=r_traj, r_costate=r_cost,
                       finite=bool(np.isfinite(r_traj) and np.isfinite(r_cost)),
                       per_solution=tuple(per))
