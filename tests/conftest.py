"""Shared helpers: independent dense oracles and builders.

The Born oracle builds the full joint operator for every (a, l, x, e)
combination and never touches the steering-operator fast path; the
post-measurement oracle projects the dense joint state and traces Eve out
instead of contracting source by source; the dense-table oracle builds the
(a, l, x) table of the Born factors, checks it entry by entry and
contracts its correlators from the transposed table, instead of reading
the factors; the noise-scan oracle builds and
validates the noisy scenario and its Born table at every level, and reads
each table on its own, instead of mixing the expanded factors of its two
endpoints and reading stacks of levels; the Bell-operator and
SOS oracles expand every term of the family by hand instead of reading
``bell.bell_terms``.  Each pair of routes checks the other.
"""

import importlib
import os
from itertools import product

# One BLAS thread, as in CI, unless the caller chose otherwise: the dense
# oracles multiply thousands of small matrices, which a second thread slows
# badly when another process holds the other core.  BLAS reads these when
# numpy is first imported, so they are set before that.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

import starcert.network
from starcert.bell import BellOutcomeLabel, SosResiduals, bell_values, tilde_observables
from starcert.certify import (
    NOISE_MODELS,
    ScanReport,
    ScanRow,
    check_part2,
)
from starcert.config import DEFAULT_TOL, Tolerances
from starcert.errors import DimensionError, ValidationError
from starcert.measurements import Povm
from starcert.network import (
    _PARTY_MAP,
    _ROTATED_MAP,
    Scenario,
    _contract_parties,
    assemble_joint_state,
    born_table,
    effects_from_observable,
)
from starcert.presets import (
    random_density_matrix,
    random_hermitian,
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


def dense_table_oracle(n: int, coeffs, w_maps, tol: Tolerances = DEFAULT_TOL):
    """Tables p_e (2^N, K_e, 3^N), correlator tensors T_e and P(l | e) of Born factors.

    The (a, l, x) route: each zero-cut table is built, checked entry by
    entry (raising the first failing check) and transposed back for its
    correlators.
    """
    # (l, x_1, a_1, ..., x_N, a_N) -> (a_1..a_N, l, x_1..x_N)
    order = [2 + 2 * i for i in range(n)] + [0] + [1 + 2 * i for i in range(n)]
    tables = []
    for c in coeffs:
        raw = _contract_parties(c, w_maps).reshape((len(c),) + (3, 2) * n)
        p = raw.transpose(order).reshape(2**n, len(c), 3**n)
        p[np.abs(p) < 1e-16] = 0.0
        tables.append(p)
    # each check is written to pass only on the good side of its cut, so a NaN fails it
    for e, p in enumerate(tables):
        if not p.min() >= -tol.probability:
            raise ValidationError(f"negative probability {p.min():.3e} in table e={e}")
        if not np.abs(p.sum(axis=(0, 1)) - 1).max() <= tol.structural:
            raise ValidationError(f"probabilities for e={e} do not sum to 1 per input")
        pbar = p.sum(axis=0)
        if not np.abs(pbar - pbar[:, :1]).max() <= tol.structural:
            raise ValidationError(f"signaling to Eve detected in table e={e}")
    if not np.abs(tables[0].sum(axis=1) - tables[1].sum(axis=1)).max() <= tol.structural:
        raise ValidationError("Alice marginals depend on Eve's input (signaling)")
    tensors = [correlators_from_table(n, p) for p in tables]
    return tables, tensors, [p[..., 0].sum(axis=0) for p in tables]


def correlators_from_table(n: int, p: np.ndarray) -> np.ndarray:
    """Correlator tensor T[l, j_1..j_N] of a (2^N, K, 3^N) table, contracted from its transpose."""
    # (a_1..a_N, l, x_1..x_N) -> (l, x_1, a_1, ..., x_N, a_N)
    perm = [n] + [ax for i in range(n) for ax in (n + 1 + i, i)]
    raw = p.reshape((2,) * n + (p.shape[1],) + (3,) * n).transpose(perm)
    return _contract_parties(raw, [_ROTATED_MAP] + [_PARTY_MAP] * (n - 1))


def _scan_report(model: str, n: int, levels, tables, reference_effects, mode: str,
                 tol: Tolerances) -> ScanReport:
    """Part-1 (and optionally part-2) metrics of one table per level."""
    rows = []
    for v, table in zip(levels, tables):
        values = bell_values(table)
        pbar_dev = float(np.max(np.abs(table.outcome_weights(0) - 2.0**-n)))
        part2_res = None
        if reference_effects is not None:
            part2 = check_part2(table, reference_effects, mode, tol)
            part2_res = min(max(part2.residuals_plain), max(part2.residuals_conjugate))
        rows.append(ScanRow(
            level=v,
            bell_values=tuple(values.tolist()),
            min_bell=float(np.nanmin(values)),
            pbar_deviation=pbar_dev,
            part2_max_residual=part2_res,
        ))
    mins = [r.min_bell for r in rows]
    monotone = all(b >= a - tol.acceptance for a, b in zip(mins, mins[1:]))
    return ScanReport(model=model, rows=tuple(rows), bell_monotone=monotone)


def noise_scan_oracle(scenario: Scenario, model: str, grid, reference_effects=None,
                      mode: str = "projective", tol=DEFAULT_TOL):
    """``noise_scan`` with the noisy scenario and its Born table rebuilt at every level."""
    levels = sorted(float(v) for v in grid)
    tables = (born_table(NOISE_MODELS[model](scenario, v), tol) for v in levels)
    return _scan_report(model, scenario.n_parties, levels, tables, reference_effects, mode, tol)


def _embed(ops_by_party: dict, dims) -> np.ndarray:
    """Operator acting as ops_by_party[i] on slot i and identity elsewhere."""
    factors = [
        ops_by_party.get(i, np.eye(d, dtype=complex)) for i, d in enumerate(dims)
    ]
    return kron_all(factors)


def bell_operator_oracle(label: BellOutcomeLabel, observables) -> np.ndarray:
    """The Bell expression as a Hermitian operator on the joint Alice space."""
    observables = list(observables)
    n = len(observables)
    if label.n != n:
        raise DimensionError(f"label has {label.n} bits, got {n} observable triples")
    dims = [t.dim for t in observables]
    bits = label.bits
    a1_tilde_minus, a1_tilde_plus = tilde_observables(observables[0].a0, observables[0].a1)

    op = (n - 1) * (-1) ** bits[0] * _embed(
        {0: a1_tilde_plus, **{i: observables[i].a1 for i in range(1, n)}}, dims
    )
    for i in range(1, n):
        op = op + (-1) ** (bits[0] + bits[i]) * _embed(
            {0: a1_tilde_minus, i: observables[i].a0}, dims
        )
    for i in range(1, n):
        slots = {0: observables[0].a2, i: observables[i].a2}
        for j in range(1, n):
            if j != i:
                slots[j] = observables[j].a1
        op = op - (-1) ** bits[i] * _embed(slots, dims)
    return op


def sos_residuals_oracle(label: BellOutcomeLabel, observables, state: np.ndarray) -> SosResiduals:
    """Norms of the SOS operators applied to a joint Alice state."""
    observables = list(observables)
    n = len(observables)
    dims = [t.dim for t in observables]
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.size != int(np.prod(dims)):
        raise DimensionError(
            f"state dim {state.size} does not match joint observable dim {int(np.prod(dims))}"
        )
    bits = label.bits
    a1_tilde_minus, a1_tilde_plus = tilde_observables(observables[0].a0, observables[0].a1)

    p_op = (-1) ** bits[0] * _embed({0: a1_tilde_plus}, dims) - _embed(
        {i: observables[i].a1 for i in range(1, n)}, dims
    )
    r_norms = []
    q_norms = []
    for i in range(1, n):
        r_op = (-1) ** (bits[0] + bits[i]) * _embed({0: a1_tilde_minus}, dims) - _embed(
            {i: observables[i].a0}, dims
        )
        slots = {i: observables[i].a2}
        for j in range(1, n):
            if j != i:
                slots[j] = observables[j].a1
        q_op = (-1) ** bits[i] * _embed({0: observables[0].a2}, dims) + _embed(slots, dims)
        r_norms.append(float(np.linalg.norm(r_op @ state)))
        q_norms.append(float(np.linalg.norm(q_op @ state)))
    return SosResiduals(
        p_norm=float(np.linalg.norm(p_op @ state)),
        r_norms=tuple(r_norms),
        q_norms=tuple(q_norms),
    )


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


def expansion_measurements(d: int, rng):
    """(K, kind, measurement, its dense effects) on C^d for the basis-expansion tests.

    K is 1 and just below, at and above a boundary between the outcome chunks
    of ``network._basis_expansion``: the first boundary past d outcomes, so
    that a complete rank-one ``Povm`` with K outcomes exists.  Each K gives a
    dense stack of random Hermitian matrices and, for K >= d, a rank-one
    ``Povm`` (the rows of a random isometry) and the dense ``Povm`` of its
    effects.
    """
    step = max(1, starcert.network._STEP_ENTRIES // (2 * d * d))
    edge = step * -(-(d + 1) // step)
    for k in (1, edge - 1, edge, edge + 1):
        stack = np.array([random_hermitian(d, rng) for _ in range(k)])
        yield k, "dense stack", stack, stack
        if k >= d:
            z = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
            rank_one = Povm.rank_one(np.linalg.qr(z)[0])
            yield k, "rank-one Povm", rank_one, rank_one.effects
            yield k, "dense Povm", Povm(rank_one.effects), rank_one.effects


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def one_entry_chunks(monkeypatch):
    """Cut every noise-scan stack to one level and every non-negativity chunk to one outcome."""
    for module in ("starcert.network", "starcert.certify"):
        monkeypatch.setattr(importlib.import_module(module), "_CHUNK_ENTRIES", 1)
