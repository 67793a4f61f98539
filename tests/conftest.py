"""Shared helpers: independent dense oracles and builders.

The Born oracle builds the full joint operator for every (a, l, x, e)
combination and never touches the steering-operator fast path; the
post-measurement oracle projects the dense joint state and traces Eve out
instead of contracting source by source; the noise-scan oracle builds and
validates the noisy scenario and its Born table at every level instead of
mixing the expanded factors of its two endpoints.  Each pair of routes
checks the other.
"""

from itertools import product

import numpy as np
import pytest

from starcert.certify import NOISE_MODELS, _scan_report
from starcert.config import DEFAULT_TOL
from starcert.measurements import Povm
from starcert.network import (
    Scenario,
    assemble_joint_state,
    born_table,
    effects_from_observable,
)
from starcert.presets import (
    random_density_matrix,
    random_observable_triple,
    random_povm,
    random_projective_measurement,
)
from starcert.tensor import kron, kron_all, partial_trace


def born_oracle(scenario: Scenario, e: int) -> np.ndarray:
    """p(a, l | x, e) with shape (2^N, K, 3^N), by direct trace evaluation."""
    n = scenario.n_parties
    rho = assemble_joint_state(scenario)
    effects_by_party = []
    for triple in scenario.alice_observables:
        per_input = [effects_from_observable(a) for a in triple.observables()]
        effects_by_party.append(per_input)
    r_effects = scenario.eve[e].effects
    k = len(r_effects)
    out = np.empty((2**n, k, 3**n))
    for x in product(range(3), repeat=n):
        x_idx = int("".join(map(str, x)), 3)
        for a in product(range(2), repeat=n):
            a_idx = int("".join(map(str, a)), 2)
            alice_op = kron_all(
                [effects_by_party[i][x[i]][a[i]] for i in range(n)]
            )
            for l, r in enumerate(r_effects):
                op = kron_all([alice_op, r])
                out[a_idx, l, x_idx] = np.trace(rho @ op).real
    return out


def post_measurement_oracle(scenario: Scenario, l: int, e: int) -> np.ndarray:
    """Normalized Alice state after Eve's outcome l under input e, on the dense joint state."""
    n = scenario.n_parties
    rho = assemble_joint_state(scenario)
    d_a = int(np.prod(scenario.alice_dims))
    projected = rho @ kron(np.eye(d_a, dtype=complex), scenario.eve[e].effects[l])
    dims = list(scenario.alice_dims) + list(scenario.eve_dims)
    reduced = partial_trace(projected, dims, keep=range(n))
    return reduced / np.trace(reduced).real


def noise_scan_oracle(scenario: Scenario, model: str, grid, reference_effects=None,
                      mode: str = "projective", tol=DEFAULT_TOL):
    """``noise_scan`` with the noisy scenario and its Born table rebuilt at every level."""
    levels = sorted(float(v) for v in grid)
    tables = (born_table(NOISE_MODELS[model](scenario, v), tol) for v in levels)
    return _scan_report(model, scenario.n_parties, levels, tables, reference_effects, mode, tol)


def random_scenario_with_dims(alice_dims, eve_dims, rng):
    """Random scenario with the given per-party Alice and Eve dimensions."""
    n = len(alice_dims)
    d_e = int(np.prod(eve_dims))
    ranks = [1] * (2**n - 1) + [d_e - 2**n + 1]
    return Scenario(
        n_parties=n,
        sources=tuple(random_density_matrix(a * b, rng) for a, b in zip(alice_dims, eve_dims)),
        alice_observables=tuple(random_observable_triple(a, rng) for a in alice_dims),
        eve=(Povm(tuple(random_projective_measurement(d_e, ranks, rng))),
             Povm(random_povm(d_e, 3, rng).effects)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
