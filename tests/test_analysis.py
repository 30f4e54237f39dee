"""Singularity reports and family certificates."""

import math

import numpy as np
import pytest

from extremals.analysis import (costate_bound_check, lipschitz_certificate,
                                singularity_report)
from extremals.controls import ControlPath
from extremals.dynamics import DifferentialKernel
from extremals.scenario import (resolve_scenario, scenario_control,
                                scenario_fields)


@pytest.fixture(scope="module")
def martinet():
    sc = resolve_scenario("martinet")
    return sc, scenario_fields(sc)


def test_straight_martinet_control_is_singular(martinet):
    sc, F = martinet
    rep = singularity_report(F, scenario_control(sc),
                             np.asarray(sc.x0, dtype=float), sc.T)
    assert rep.singular
    assert rep.ratio == pytest.approx(0.0, abs=1e-14)
    # Riding the singular surface x2 = 0 annihilates exactly the vertical
    # direction, and the candidate is normalized with a deterministic sign.
    np.testing.assert_allclose(rep.abnormal_candidate, [0.0, 0.0, 1.0],
                               atol=1e-12)
    assert rep.sigma_max > rep.sigma_min >= 0.0


def test_pushed_off_the_singular_surface(martinet):
    sc, F = martinet
    t = np.linspace(0.0, 1.0, 65)
    u = ControlPath(1.0, np.stack([np.ones_like(t), 0.4 * np.sin(np.pi * t)],
                                  axis=-1))
    rep = singularity_report(F, u, np.zeros(3), 1.0)
    assert not rep.singular
    assert rep.abnormal_candidate is None


def test_heisenberg_circle_is_not_singular():
    sc = resolve_scenario("heisenberg")
    rep = singularity_report(scenario_fields(sc), scenario_control(sc),
                             np.asarray(sc.x0, dtype=float), sc.T)
    assert not rep.singular
    assert 1e-3 < rep.ratio < 1.0
    assert rep.ratio == pytest.approx(0.024, rel=0.3)


def test_gram_ratio_reads_the_kernel_at_the_given_substeps():
    # check-singular passes the scenario's substeps (8 for heisenberg);
    # the report's spectrum is that of the kernel built with them.
    sc = resolve_scenario("heisenberg")
    F, u = scenario_fields(sc), scenario_control(sc)
    x0 = np.asarray(sc.x0, dtype=float)
    rep = singularity_report(F, u, x0, sc.T, substeps=8)
    evals = np.clip(np.linalg.eigvalsh(
        DifferentialKernel.build(F, u, x0, sc.T, substeps=8).gram()), 0.0, None)
    assert (rep.sigma_min, rep.sigma_max) == (evals[0], evals[-1])
    assert rep.ratio == evals[0] / evals[-1]
    assert rep.ratio != singularity_report(F, u, x0, sc.T).ratio


def test_certificate_chain_on_the_loop_family(heis_sols64, heis_refined128):
    cert = lipschitz_certificate(heis_sols64, heis_refined128)
    assert set(cert.chain_status) == {"phi_bounded", "sup_norm_bounded",
                                      "equi_lipschitz"}
    assert cert.certified
    assert cert.sup_phi >= max(s.phi for s in heis_sols64) - 1e-12
    # Loop controls have |u| = sqrt(2 phi), so the sup bound tracks the
    # deepest branch the seed sweep reached.
    assert cert.K_bound == pytest.approx(math.sqrt(2.0 * cert.sup_phi),
                                         rel=1e-3)
    assert cert.K_lip > cert.K_bound
    assert 0.5 <= cert.grid_stability <= 2.0
    assert len(cert.per_solution) == len(heis_sols64)


def test_certificate_requires_aligned_families(heis_sols64, heis_refined128):
    with pytest.raises(ValueError):
        lipschitz_certificate(heis_sols64, heis_refined128[:-1])


def test_certificate_of_the_zero_family():
    class Stub:
        def __init__(self):
            self.phi = 0.0
            self.u = ControlPath.zero(1.0, 8, 2)
            self.lam = np.zeros(2)

    cert = lipschitz_certificate([Stub()], [Stub()])
    assert cert.grid_stability == 1.0
    assert cert.certified


def test_costate_bounds_are_finite_radii(heis_sols64):
    rep = costate_bound_check(heis_sols64)
    assert rep.finite
    assert rep.r_traj > 0.0
    assert rep.r_costate > 0.0
    assert len(rep.per_solution) == len(heis_sols64)
    worst = max(d["costate_radius"] for d in rep.per_solution)
    assert rep.r_costate == pytest.approx(worst)
