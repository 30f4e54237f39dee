"""Shared fixtures.

The multi-start runs and the collocation re-solves are the expensive parts
of the suite, so they are session-scoped and shared between the acceptance
checks and the module tests.
"""

import math

import numpy as np
import pytest

from extremals.scenario import (resolve_scenario, scenario_fields,
                                scenario_lagrangian)
from extremals.shooting import (make_seeds, multi_start, shoot_extremal,
                                shoot_extremals)

from oracles import HeisenbergCollocationOracle

SMOOTH_BUILTINS = ("identity", "heisenberg", "martinet", "grushin")


def seed_scale(sc):
    gap = float(np.linalg.norm(np.asarray(sc.target) - np.asarray(sc.x0)))
    return sc.seeds_scale * gap / sc.T


@pytest.fixture
def announce(capsys):
    """Print a summary line that survives pytest's capture."""
    def _emit(line):
        with capsys.disabled():
            print(line, flush=True)
    return _emit


@pytest.fixture(scope="session")
def heis():
    return resolve_scenario("heisenberg")


@pytest.fixture(scope="session")
def heis_parts(heis):
    return (scenario_fields(heis), scenario_lagrangian(heis),
            np.asarray(heis.x0, dtype=float),
            np.asarray(heis.target, dtype=float))


@pytest.fixture(scope="session")
def heis_sols64(heis, heis_parts):
    F, L, x0, target = heis_parts
    seeds = make_seeds(heis.n, heis.seeds_count, seed_scale(heis),
                       seed=heis.seed)
    sols = multi_start(F, L, x0, target, heis.T, seeds, N=64,
                       tol=heis.shoot_tol, substeps=heis.substeps,
                       dedup_tol=heis.dedup_tol)
    assert sols, "no extremal converged on the default grid"
    return sols


@pytest.fixture(scope="session")
def heis_refined128(heis, heis_parts, heis_sols64):
    F, L, x0, target = heis_parts
    return shoot_extremals(F, L, x0, target, heis.T,
                           np.stack([s.p0 for s in heis_sols64]), N=128,
                           tol=heis.shoot_tol, substeps=heis.substeps)


@pytest.fixture(scope="session")
def heis_sols32(heis, heis_parts):
    F, L, x0, target = heis_parts
    seeds = make_seeds(heis.n, 20, seed_scale(heis), seed=heis.seed)
    sols = multi_start(F, L, x0, target, heis.T, seeds, N=32,
                       tol=heis.shoot_tol, substeps=heis.substeps,
                       dedup_tol=heis.dedup_tol)
    assert sols, "no extremal converged on the coarse grid"
    return sols


@pytest.fixture(scope="session")
def heis_oracle_matches(heis, heis_parts, heis_sols32):
    """Each coarse-grid extremal re-solved as a stationary point of the
    independent collocation system, with control distances measured at the
    sample times the two grids share."""
    F, L, x0, target = heis_parts
    orc = HeisenbergCollocationOracle(x0, target, heis.T, M=384)
    matches = []
    for sol in heis_sols32:
        z0 = orc.warm_start(sol.xi.times, sol.u_fine.values, sol.xi.states)
        z, info = orc.solve(z0)
        node_u = orc._unpack(z)[1]
        m_fine = len(sol.xi.times) - 1
        g = math.gcd(orc.M, m_fine)
        du = node_u[::orc.M // g] - sol.u_fine.values[::m_fine // g]
        d2 = np.sum(du * du, axis=-1)
        w = np.full(g + 1, heis.T / g)
        w[0] = w[-1] = 0.5 * heis.T / g
        matches.append({
            "sol": sol,
            "info": info,
            "l2": float(np.sqrt(np.sum(w * d2))),
            "linf": float(np.sqrt(np.max(d2))),
        })
    return matches


@pytest.fixture(scope="session")
def identity_sol():
    sc = resolve_scenario("identity")
    F, L = scenario_fields(sc), scenario_lagrangian(sc)
    return shoot_extremal(F, L, np.asarray(sc.x0, dtype=float),
                          np.asarray(sc.target, dtype=float), sc.T, N=sc.N)
