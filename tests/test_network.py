import functools
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    born_oracle,
    correlators_from_table,
    dense_table_oracle,
    random_scenario_with_dims,
)
from starcert.bell import BellOutcomeLabel, bell_value
from starcert.config import DEFAULT_TOL
from starcert.errors import ConditioningError, DimensionError, ValidationError
from starcert.jsonio import (
    load_scenario,
    matrix_from_json,
    matrix_to_json,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from starcert.measurements import Povm, ghz_basis_measurement
from starcert.network import (
    BinaryObservableTriple,
    CorrelationTable,
    Scenario,
    _born_factors,
    _check_factors,
    assemble_joint_state,
    born_table,
    effects_from_observable,
)
from starcert.presets import (
    conjugate_scenario,
    depolarize_effects,
    ideal_scenario,
    random_povm,
    random_scenario,
)
from starcert.tensor import PAULI_X, PAULI_Y, PAULI_Z, kron_all


def test_observable_triple_rejects_nonhermitian():
    with pytest.raises(ValueError):
        BinaryObservableTriple(np.array([[0, 1], [0, 0]]), PAULI_X, PAULI_Y)


def test_observable_triple_rejects_large_spectrum():
    with pytest.raises(ValidationError):
        BinaryObservableTriple(2 * PAULI_Z, PAULI_X, PAULI_Y)


def test_observable_triple_rejects_mixed_dims():
    with pytest.raises(DimensionError):
        BinaryObservableTriple(PAULI_Z, PAULI_X, np.eye(3))


def test_eve_measurement_requires_completeness():
    with pytest.raises(ValidationError):
        Povm((np.eye(2) / 2, np.eye(2) / 3))


def test_eve_measurement_requires_psd():
    with pytest.raises(ValidationError):
        Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))


def test_scenario_rejects_wrong_e0_outcome_count():
    scen = ideal_scenario(2)
    effects = scen.eve[0].effects
    merged = (effects[0] + effects[1], *effects[2:])
    with pytest.raises(ValidationError, match="2\\^N"):
        Scenario(
            n_parties=2,
            sources=scen.sources,
            alice_observables=scen.alice_observables,
            eve=(Povm(merged), scen.eve[1]),
        )


def test_scenario_accepts_vector_sources():
    scen = ideal_scenario(2)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    s = Scenario(
        n_parties=2,
        sources=(phi, phi),
        alice_observables=scen.alice_observables,
        eve=scen.eve,
    )
    npt.assert_allclose(s.sources[0], np.outer(phi, phi), atol=1e-12)


def test_effects_from_observable():
    m0, m1 = effects_from_observable(PAULI_Z)
    npt.assert_allclose(m0, np.diag([1.0, 0.0]))
    npt.assert_allclose(m1, np.diag([0.0, 1.0]))


def test_assemble_joint_state_groups_factors(rng):
    # two distinguishable product sources: joint must be A1 A2 (x) E1 E2
    a1 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    a2 = np.diag([0.5, 0.5])
    e2 = np.diag([1.0, 0.0])
    scen = ideal_scenario(2)
    s = Scenario(
        n_parties=2,
        sources=(np.kron(a1, e1), np.kron(a2, e2)),
        alice_observables=scen.alice_observables,
        eve=scen.eve,
    )
    joint = assemble_joint_state(s)
    expected = np.kron(np.kron(a1, a2), np.kron(e1, e2))
    npt.assert_allclose(joint, expected, atol=1e-12)


# (alice_dims, eve_dims) with some Eve factor other than a qubit
NON_QUBIT_DIMS = [
    pytest.param((2, 3), (4, 2), id="a23-e42"),
    pytest.param((3, 2), (2, 3), id="a32-e23"),
    pytest.param((2, 2, 2), (3, 2, 2), id="a222-e322"),
]


@pytest.mark.parametrize("alice_dims, eve_dims", [
    pytest.param((2, 2), (2, 2), id="qubits-n2"),
    pytest.param((2, 2, 2), (2, 2, 2), id="qubits-n3"),
    *NON_QUBIT_DIMS,
])
def test_born_table_matches_bruteforce_oracle(alice_dims, eve_dims, rng):
    scen = random_scenario_with_dims(alice_dims, eve_dims, rng)
    table = born_table(scen)
    for e, got in ((0, table.p0), (1, table.p1)):
        npt.assert_allclose(got, born_oracle(scen, e), atol=1e-12)


@pytest.mark.parametrize("alice_dims, eve_dims", NON_QUBIT_DIMS)
def test_born_table_invariant_under_conjugation(alice_dims, eve_dims, rng):
    # the sqrt2 Im basis coefficients flip sign under entrywise conjugation
    scen = random_scenario_with_dims(alice_dims, eve_dims, rng)
    table, conj = born_table(scen), born_table(conjugate_scenario(scen))
    npt.assert_allclose(conj.p0, table.p0, atol=1e-12)
    npt.assert_allclose(conj.p1, table.p1, atol=1e-12)


# (N, mixed): a qutrit factor at N = 3 would take the dense oracle over a second
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from([(2, False), (2, True), (3, False)]))
def test_born_table_matches_born_oracle_on_random_scenarios(seed, case):
    (n, mixed), rng = case, np.random.default_rng(seed)
    alice_dims, eve_dims = [2] * n, [2] * n
    if mixed:
        alice_dims[rng.integers(n)] = 3
        eve_dims[rng.integers(n)] = 3
    scen = random_scenario_with_dims(tuple(alice_dims), tuple(eve_dims), rng)
    table = born_table(scen)
    for e, got in ((0, table.p0), (1, table.p1)):
        expected = born_oracle(scen, e)
        npt.assert_allclose(got, expected, rtol=0, atol=1e-12)
        npt.assert_allclose(table.correlator_tensor(e),
                            correlators_from_table(n, expected), rtol=0, atol=1e-12)


def _tampered(kind, e, coeffs, w_maps):
    """Born factors with one defect that makes exactly the check ``kind`` fail first."""
    coeffs, w_maps = [c.copy() for c in coeffs], [w.copy() for w in w_maps]
    eps = 1e-6
    if kind == "negated-row":
        coeffs[e][1] *= -1
    elif kind == "scaled-row":
        coeffs[e][1] *= 1.5
    elif kind == "w-row":
        # party 1's W[x=1, a=0] gains an off-diagonal basis component: the
        # effects' sum has none, so only Eve's marginal per input moves
        d = int(np.sqrt(w_maps[0].shape[1]))
        w_maps[0][2, d] += eps
    elif kind == "alice-marginal":
        # a direction of party 1 that its a-summed maps (all the reduced
        # state of its Eve factor) cannot see, times the identity elsewhere
        w, u = w_maps[0][0], w_maps[0][0] + w_maps[0][1]
        delta = [w - (w @ u) / (u @ u) * u]
        for m in w_maps[1:]:
            d = int(np.sqrt(m.shape[1]))
            delta.append((np.arange(d * d) < d).astype(float))
        coeffs[e][0] += eps * functools.reduce(np.multiply.outer, delta).reshape(
            coeffs[e].shape[1:])
    return coeffs, w_maps


TAMPERS = [
    pytest.param(None, None, None, id="intact"),
    pytest.param("negated-row", 0, "negative probability", id="negated-row-e0"),
    pytest.param("negated-row", 1, "negative probability", id="negated-row-e1"),
    pytest.param("scaled-row", 0, "do not sum to 1", id="scaled-row-e0"),
    pytest.param("scaled-row", 1, "do not sum to 1", id="scaled-row-e1"),
    pytest.param("w-row", None, "signaling to Eve detected in table e=0", id="w-row"),
    pytest.param("alice-marginal", 1, "Alice marginals depend", id="alice-marginal-e1"),
]

CROSS_ROUTE_DIMS = [
    *(pytest.param((2,) * n, (2,) * n, id=f"qubits-n{n}") for n in (2, 3, 4, 5)),
    *NON_QUBIT_DIMS,
]


@pytest.mark.parametrize("kind, e, message", TAMPERS)
@pytest.mark.parametrize("alice_dims, eve_dims", CROSS_ROUTE_DIMS)
def test_factor_route_matches_dense_table_oracle(alice_dims, eve_dims, kind, e, message, rng):
    scen = random_scenario_with_dims(alice_dims, eve_dims, rng)
    n = scen.n_parties
    coeffs, w_maps = _tampered(kind, e, *_born_factors(scen)[:2])
    if message is not None:
        with pytest.raises(ValidationError, match=message) as expected:
            dense_table_oracle(n, coeffs, w_maps)
        with pytest.raises(ValidationError) as raised:
            CorrelationTable(n, coeffs, w_maps)
        assert str(raised.value) == str(expected.value)
        return
    table = CorrelationTable(n, coeffs, w_maps)
    for e, (p, tensor, weights) in enumerate(zip(*dense_table_oracle(n, coeffs, w_maps))):
        npt.assert_allclose(table.correlator_tensor(e), tensor, rtol=0, atol=1e-12)
        npt.assert_allclose(table.outcome_weights(e), weights, rtol=0, atol=1e-12)
        npt.assert_allclose((table.p0, table.p1)[e], p, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, e, message", TAMPERS[:3])
@pytest.mark.parametrize("alice_dims, eve_dims", CROSS_ROUTE_DIMS[:2] + NON_QUBIT_DIMS[-1:])
def test_factor_route_matches_dense_table_oracle_one_outcome_chunks(
        one_entry_chunks, alice_dims, eve_dims, kind, e, message, rng):
    test_factor_route_matches_dense_table_oracle(alice_dims, eve_dims, kind, e, message, rng)


def test_born_table_matches_oracle_ideal():
    scen = ideal_scenario(2, eve_second=ghz_basis_measurement(2))
    table = born_table(scen)
    npt.assert_allclose(table.p0, born_oracle(scen, 0), atol=1e-12)
    npt.assert_allclose(table.p1, born_oracle(scen, 1), atol=1e-12)


def _dense_factors(n: int, p: np.ndarray) -> np.ndarray:
    """Born factors c (K, 6, ..., 6) of a (2^N, K, 3^N) table, for identity maps w_i.

    Party i's axis packs (x_i, a_i) as 2 x_i + a_i, the row order of ``w_i``.
    """
    k = p.shape[1]
    # (a_1..a_N, l, x_1..x_N) -> (l, x_1, a_1, ..., x_N, a_N)
    perm = [n] + [ax for i in range(n) for ax in (n + 1 + i, i)]
    view = p.reshape((2,) * n + (k,) + (3,) * n).transpose(perm)
    return np.ascontiguousarray(view).reshape((k,) + (6,) * n)


def dense_table(n: int, p0, p1) -> CorrelationTable:
    """A ``CorrelationTable`` of (2^N, K_e, 3^N) tables: c_e is the transposed table, w_i = 1."""
    return CorrelationTable(n, [_dense_factors(n, np.asarray(p, dtype=float)) for p in (p0, p1)],
                            [np.eye(6)] * n)


def test_table_validation_flags_signaling():
    scen = ideal_scenario(2)
    table = born_table(scen)
    bad = table.p0.copy()
    bad[:, :, 0] = bad[:, :, 1]  # breaks normalization consistency per input
    bad[0, 0, 0] += 0.2
    bad[1, 0, 0] -= 0.2
    with pytest.raises(ValidationError):
        dense_table(2, bad, table.p1)


def signed_sum(p: np.ndarray, l: int, x) -> float:
    """<A_{1,x_1} A_{2,x_2} R_l> of a (4, K, 9) table by an explicit signed sum over a."""
    return sum((-1) ** (a1 + a2) * p[2 * a1 + a2, l, 3 * x[0] + x[1]]
               for a1 in (0, 1) for a2 in (0, 1))


def test_correlator_against_direct_sum(rng):
    table = born_table(random_scenario(2, rng))
    for e, p in enumerate((table.p0, table.p1)):
        tensor = table.correlator_tensor(e)
        for l in range(table.outcome_count(e)):
            for x2 in range(3):
                # party 1 is rotated: (A_0 -+ A_1)/sqrt2, then A_2
                e0, e1 = signed_sum(p, l, (0, x2)), signed_sum(p, l, (1, x2))
                assert tensor[l, 0, x2] == pytest.approx((e0 - e1) / np.sqrt(2), abs=1e-12)
                assert tensor[l, 1, x2] == pytest.approx((e0 + e1) / np.sqrt(2), abs=1e-12)
                assert tensor[l, 2, x2] == pytest.approx(signed_sum(p, l, (2, x2)), abs=1e-12)


def test_correlator_marginalizes_none(rng):
    table = born_table(random_scenario(2, rng))
    p = table.p0
    tensor = table.correlator_tensor(0)
    for l in range(table.outcome_count(0)):
        # slot 3 sums the party's outcomes; every input gives the same sum (no signaling)
        for x1 in range(3):
            by_sum = sum((-1) ** a2 * p[2 * a1 + a2, l, 3 * x1 + 2]
                         for a1 in (0, 1) for a2 in (0, 1))
            assert tensor[l, 3, 2] == pytest.approx(by_sum, abs=1e-12)
        for x2 in range(3):
            weight = sum(p[a, l, x2] for a in range(4))
            assert tensor[l, 3, 3] == pytest.approx(weight, abs=1e-12)
    npt.assert_allclose(table.outcome_weights(0), tensor[:, 3, 3], rtol=0, atol=0)


def dense_correlator_oracle(scenario: Scenario, e: int) -> np.ndarray:
    """T[l, j_1..j_N] by direct traces against the assembled joint state.

    Index 3 is the identity; party 1's indices 0 and 1 are the rotated
    pair (A_0 -+ A_1)/sqrt2.
    """
    n = scenario.n_parties
    rho = assemble_joint_state(scenario)
    d_a = int(np.prod(scenario.alice_dims))
    d_e = rho.shape[0] // d_a
    r4 = rho.reshape(d_a, d_e, d_a, d_e)
    slots = []
    for i, triple in enumerate(scenario.alice_observables):
        a0, a1, a2 = triple.observables()
        if i == 0:
            a0, a1 = (a0 - a1) / np.sqrt(2), (a0 + a1) / np.sqrt(2)
        slots.append((a0, a1, a2, np.eye(triple.dim)))
    effects = scenario.eve[e].effects
    out = np.empty((len(effects),) + (4,) * n)
    for idx in itertools.product(range(4), repeat=n):
        alice = kron_all([slots[i][j] for i, j in enumerate(idx)])
        for l, r in enumerate(effects):
            out[(l,) + idx] = np.einsum("aebf,ba,fe->", r4, alice, r).real
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_correlator_tensor_matches_dense_trace_oracle(n, rng):
    for _ in range(2):
        scen = random_scenario(n, rng)
        table = born_table(scen)
        for e in (0, 1):
            npt.assert_allclose(
                table.correlator_tensor(e), dense_correlator_oracle(scen, e), atol=1e-12
            )


@pytest.mark.parametrize("n", [2, 3])
def test_correlator_tensor_matches_dense_trace_oracle_one_outcome_at_a_time(
        one_entry_chunks, n, rng):
    test_correlator_tensor_matches_dense_trace_oracle(n, rng)


def check_stacks(p0, p1):
    """The factor checks on (L, 2^N, K, 3^N) stacks, stored as ``CorrelationTable`` stores them."""
    coeffs = [np.stack([_dense_factors(2, p) for p in stack]) for stack in (p0, p1)]
    _check_factors(2, coeffs, [np.eye(6)[None]] * 2, DEFAULT_TOL)


def test_stacked_table_checks_report_the_first_failing_level():
    table = born_table(ideal_scenario(2))
    p0, p1 = np.stack([table.p0] * 4), np.stack([table.p1] * 4)
    p0[3, 0, 0, 0] = -0.5  # an earlier check fails on a later level
    # level 2 moves mass between Eve's outcomes for one input: totals and
    # Alice marginals hold, Eve's marginal now depends on x
    p0[2, 0, 0, 1] -= 0.01
    p0[2, 0, 1, 1] += 0.01
    with pytest.raises(ValidationError, match="signaling to Eve detected in table e=0"):
        check_stacks(p0, p1)
    with pytest.raises(ValidationError, match="signaling to Eve detected in table e=0"):
        dense_table(2, p0[2], p1[2])
    with pytest.raises(ValidationError, match=r"negative probability -5\.000e-01 in table e=0"):
        check_stacks(p0[3:], p1[3:])
    check_stacks(p0[:2], p1[:2])


def test_conditional_correlator_raises_on_zero_probability():
    # e=1 outcome l=1 has the zero effect, so its Bell value cannot be conditioned
    table = born_table(ideal_scenario(2, eve_second=(np.eye(4), np.zeros((4, 4)))))
    with pytest.raises(ConditioningError, match="cannot condition on outcome l=1, e=1"):
        bell_value(table, BellOutcomeLabel((0, 1)), e=1)


def test_pbar_uniform_for_ideal():
    table = born_table(ideal_scenario(3))
    for l in range(8):
        assert table.pbar(l, 0) == pytest.approx(1 / 8, abs=1e-12)


def test_matrix_json_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    npt.assert_allclose(matrix_from_json(matrix_to_json(m), "m"), m)


def test_matrix_from_json_rejects_bad_entries():
    with pytest.raises(ValidationError, match="doc.m"):
        matrix_from_json({"dim": 2, "entries": [[0, 0]] * 3}, "doc.m")


def test_scenario_json_round_trip(tmp_path):
    scen = ideal_scenario(2, eve_second=ghz_basis_measurement(2))
    path = tmp_path / "scen.json"
    save_scenario(scen, path)
    loaded = load_scenario(path)
    assert loaded.n_parties == scen.n_parties
    for a, b in zip(loaded.sources, scen.sources):
        npt.assert_allclose(a, b)
    for ta, tb in zip(loaded.alice_observables, scen.alice_observables):
        for ma, mb in zip(ta.observables(), tb.observables()):
            npt.assert_allclose(ma, mb)
    for ea, eb in zip(loaded.eve, scen.eve):
        for ma, mb in zip(ea.effects, eb.effects):
            npt.assert_allclose(ma, mb)
    # serialized form is stable under a round trip
    assert scenario_to_json(loaded) == scenario_to_json(scen)


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(path)


def test_scenario_from_json_reports_path():
    doc = scenario_to_json(ideal_scenario(2))
    doc["sources"][1]["entries"] = doc["sources"][1]["entries"][:-1]
    with pytest.raises(ValidationError, match="sources\\[1\\]"):
        scenario_from_json(doc)


def test_conjugate_and_depolarize_match_the_per_effect_expressions(rng):
    scen = ideal_scenario(2, eve_second=random_povm(4, 3, rng))
    v = 0.3
    for e, (conj, noisy) in enumerate(zip(conjugate_scenario(scen).eve,
                                          depolarize_effects(scen, v).eve)):
        for l, m in enumerate(scen.eve[e].effects):
            npt.assert_allclose(conj.effects[l], np.conj(m), rtol=0, atol=1e-15)
            want = v * m + (1 - v) * np.trace(m).real / 4 * np.eye(4)
            npt.assert_allclose(noisy.effects[l], want, rtol=0, atol=1e-15)
