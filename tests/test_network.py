import functools
import itertools
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    born_oracle,
    correlators_from_table,
    dense_table_oracle,
    expansion_measurements,
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
    _basis_expansion,
    _basis_operators,
    _born_factors,
    _check_factors,
    _conditioned_coefficients,
    _contract_parties,
    _real_maps,
    _steering_factors,
    assemble_joint_state,
    born_table,
    effects_from_observable,
)
from starcert.presets import (
    conjugate_scenario,
    depolarize_effects,
    ideal_scenario,
    PHI_PLUS,
    random_povm,
    random_scenario,
    random_state_vector,
)
from starcert.tensor import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _hermitian_basis,
    _pair_indices,
    hermitian_part,
    kron_all,
)


def test_observable_triple_rejects_nonhermitian():
    with pytest.raises(ValueError):
        BinaryObservableTriple(np.array([[0, 1], [0, 0]]), PAULI_X, PAULI_Y)


def test_observable_triple_rejects_large_spectrum():
    with pytest.raises(ValidationError):
        BinaryObservableTriple(2 * PAULI_Z, PAULI_X, PAULI_Y)


def test_observable_triple_names_the_first_faulty_observable():
    # a0's spectrum fails before a1's Hermiticity is looked at
    with pytest.raises(ValidationError, match=r"^observable a0 has spectral radius 2 > 1$"):
        BinaryObservableTriple(2 * PAULI_Z, np.array([[0, 1], [0, 0]]), PAULI_Y)


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


def test_scenario_rejects_a_pure_source_just_off_unit_norm():
    scen = ideal_scenario(2)
    with pytest.raises(ValidationError,
                       match=r"^sources\[0\]: state vector norm 1\.000001 deviates from 1$"):
        Scenario(n_parties=2, sources=(np.array([1 + 1e-6, 0, 0, 0]), scen.sources[1]),
                 alice_observables=scen.alice_observables, eve=scen.eve)


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
    elif kind == "nan-coefficient":
        coeffs[e][1].flat[0] = np.nan
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
    pytest.param("nan-coefficient", 0, "^negative probability nan in table e=0$",
                 id="nan-coefficient-e0"),
    pytest.param("nan-coefficient", 1, "^negative probability nan in table e=1$",
                 id="nan-coefficient-e1"),
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
    _check_factors(coeffs, [np.eye(6)[None]] * 2, DEFAULT_TOL)


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


def _per_matrix_coefficients(m, dims):
    """One operator's Hermitian-basis coefficients, one complex tensordot per factor."""
    t = np.asarray(m, dtype=complex).reshape(dims * 2)
    for remaining, d in zip(range(len(dims), 0, -1), dims):
        t = np.tensordot(t, _hermitian_basis(d).reshape(d * d, d, d), axes=([0, remaining], [1, 2]))
    return t.real


@pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2,) * 5,
                                  (3,), (2, 3), (3, 3)])
def test_born_factor_expansion_matches_a_complex_tensordot(dims, rng):
    # Two or more factors match bit for bit.  One factor is a two-row real
    # matmul against the reference's complex vector product, and the two BLAS
    # kernels may fuse a multiply-add differently (seen at d = 2): one
    # rounding of each term's size is allowed there.
    for k, kind, meas, effects in expansion_measurements(int(np.prod(dims)), rng):
        rows = _basis_expansion(meas, dims, _hermitian_basis)
        assert rows.shape == (k,) + tuple(d * d for d in dims)
        want = np.array([_per_matrix_coefficients(m, dims) for m in effects])
        if len(dims) > 1:
            assert np.array_equal(rows, want), (k, kind)
        else:
            allowed = 2 * np.finfo(float).eps * np.linalg.norm(effects, axis=(1, 2))
            assert (np.abs(rows - want).max(axis=1) <= allowed).all(), (k, kind)
        # the last effect alone, and the inverse back to the effects
        npt.assert_allclose(_basis_expansion(effects[k - 1:], dims, _hermitian_basis),
                            rows[k - 1:], rtol=0, atol=1e-14)
        npt.assert_allclose(_basis_operators(rows, dims, _hermitian_basis), effects, rtol=0,
                            atol=1e-13)


@pytest.mark.parametrize("alice_dims, eve_dims", [((2, 2), (2, 3)), ((2, 2, 2), (2, 2, 2))])
def test_born_factors_expand_each_eve_measurement(alice_dims, eve_dims, rng):
    scenarios = [random_scenario_with_dims(alice_dims, eve_dims, rng)]
    if len(set(eve_dims)) == 1:  # rank-one measurements on both inputs
        scenarios.append(ideal_scenario(len(eve_dims), eve_second=ghz_basis_measurement(3)))
    for scen in scenarios:
        coeffs = _born_factors(scen)[0]
        for c, meas in zip(coeffs, scen.eve):
            for row, m in zip(c, meas.effects):
                assert np.array_equal(row, _per_matrix_coefficients(m, eve_dims))


@pytest.mark.parametrize("shared", ["coefficients", "maps"])
def test_contract_parties_broadcasts_a_shared_level_on_either_side(shared, rng):
    # one (1, K, ...) stack against per-level maps, or per-level stacks against (1, m, k) maps
    levels, dims, rows = 3, (4, 9, 4), (6, 4, 3)
    t = rng.normal(size=(1 if shared == "coefficients" else levels, 5) + dims)
    maps = [rng.normal(size=(1 if shared == "maps" else levels, m, d)) for m, d in zip(rows, dims)]
    expected = np.einsum("vlabc,vxa,vyb,vzc->vlxyz", np.broadcast_to(t, (levels,) + t.shape[1:]),
                         *(np.broadcast_to(m, (levels,) + m.shape[1:]) for m in maps))
    npt.assert_allclose(_contract_parties(t, maps), expected, rtol=0, atol=1e-12)


# The per-party loops that the stacked steps replace, kept as their reference.

def _per_party_steering_factors(sources, triples, eve_dims):
    d_max = max(eve_dims)
    ops = np.zeros((len(sources), 6, d_max, d_max), dtype=complex)
    for w, rho, triple, d_e in zip(ops, sources, triples, eve_dims):
        d_a = triple.dim
        effects = np.stack(effects_from_observable(np.stack(triple.observables())), axis=1)
        w[:, :d_e, :d_e] = np.einsum("aebf,kba->kef", rho.reshape(d_a, d_e, d_a, d_e),
                                     effects.reshape(6, d_a, d_a))
    w_maps = [np.ascontiguousarray((w[:, :d, :d].reshape(6, d * d) @ _hermitian_basis(d).T).real)
              for w, d in zip(ops, eve_dims)]
    eigs = np.linalg.eigvalsh(hermitian_part(ops))
    return w_maps, np.stack([np.maximum(eigs, 0.0).sum(axis=-1),
                             np.maximum(-eigs, 0.0).sum(axis=-1), np.sqrt((eigs**2).sum(axis=-1))])


def _per_party_conditioned_coefficients(scenario, c):
    maps = [_basis_expansion(rho[None], (d_a, d_e), _hermitian_basis)[0]
            for rho, d_a, d_e in zip(scenario.sources, scenario.alice_dims, scenario.eve_dims)]
    return _contract_parties(c, maps)


def _per_party_basis_operators(coeffs, dims, basis):
    maps, select, sign = _real_maps(basis, dims)
    k, d = len(coeffs), int(np.prod(dims))
    parts = np.zeros((k, 2 * len(sign)))
    parts[:, select] = coeffs.reshape(k, -1) * sign
    t = _contract_parties(parts.reshape(2 * k, -1), [np.linalg.inv(m) for m in maps])
    out = np.empty((k, d * d), dtype=complex)
    out[:, _pair_indices(dims)[0]] = t[0::2].reshape(k, -1) + 1j * t[1::2].reshape(k, -1)
    return out.reshape(k, d, d)


def _mixed_source_scenario(alice_dims, eve_dims, rng):
    """A random scenario whose every other source is given as a pure-state vector."""
    scen = random_scenario_with_dims(alice_dims, eve_dims, rng)
    sources = [random_state_vector(a * b, rng) if i % 2 else rho
               for i, (a, b, rho) in enumerate(zip(alice_dims, eve_dims, scen.sources))]
    return replace(scen, sources=tuple(sources))


@pytest.mark.parametrize("alice_dims, eve_dims", [
    pytest.param((2, 2), (2, 2), id="qubits-n2"),
    pytest.param((2, 2, 2), (2, 2, 2), id="qubits-n3"),
    *NON_QUBIT_DIMS,
])
def test_party_stacks_match_the_per_party_loops_bit_for_bit(alice_dims, eve_dims, rng):
    scen = _mixed_source_scenario(alice_dims, eve_dims, rng)
    triples = scen.alice_observables
    for sources in (scen.sources, [np.eye(len(rho)) / len(rho) for rho in scen.sources]):
        (w_maps, s), (want_maps, want_s) = (
            f(sources, triples, eve_dims)
            for f in (_steering_factors, _per_party_steering_factors))
        assert all(np.array_equal(w, want) for w, want in zip(w_maps, want_maps, strict=True))
        assert np.array_equal(s, want_s)
    c = _born_factors(scen)[0][1]
    coeffs = _conditioned_coefficients(scen, c)
    assert np.array_equal(coeffs, _per_party_conditioned_coefficients(scen, c))
    assert np.array_equal(_basis_operators(coeffs, alice_dims, _hermitian_basis),
                          _per_party_basis_operators(coeffs, alice_dims, _hermitian_basis))


SOURCE_FAULTS = {
    "off-norm vector": (np.array([1 + 1e-6, 0, 0, 0]),
                        "sources[1]: state vector norm 1.000001 deviates from 1"),
    "non-Hermitian": (np.outer(PHI_PLUS, PHI_PLUS) + np.diag([1e-3, 0.0, 0.0], 1),
                      "sources[1] is not Hermitian (defect 1.414e-03 > 1.0e-10)"),
    "off-trace": (1.001 * np.outer(PHI_PLUS, PHI_PLUS),
                  "sources[1]: density operator trace 1.0009999999999997 is not 1"),
    "not PSD": (np.diag([1.5, -0.5, 0.0, 0.0]),
                "sources[1]: density operator is not positive semi-definite"),
    "NaN vector entry": (np.array([np.nan, 0, 0, 1]),
                         "sources[1]: state vector contains NaN or Inf entries"),
    "inf matrix entry": (np.diag([np.inf, 0.0, 0.0, 0.0]), "matrix contains NaN or Inf entries"),
    "non-square matrix": (np.zeros((4, 2)), "expected a square matrix, got shape (4, 2)"),
    "empty vector": (np.zeros(0), "sources[1]: state vector must have at least one amplitude"),
    "string": ("abc", "complex() arg is a malformed string"),
}


@pytest.mark.parametrize("first, later", itertools.permutations(SOURCE_FAULTS, 2))
def test_stacked_source_check_names_the_first_faulty_source(first, later):
    # a different fault in a later source: the one-stack check still names source 1's
    scen = ideal_scenario(4)
    sources = list(scen.sources)
    sources[1], sources[3] = SOURCE_FAULTS[first][0], SOURCE_FAULTS[later][0]
    with pytest.raises(ValueError) as raised:
        replace(scen, sources=tuple(sources))
    assert str(raised.value) == SOURCE_FAULTS[first][1]


def test_source_check_names_the_first_faulty_source_across_shape_groups():
    # the vectors are the first stack, but the matrix stack's fault comes first in party order
    sources = (PHI_PLUS, SOURCE_FAULTS["non-Hermitian"][0], SOURCE_FAULTS["off-norm vector"][0],
               np.outer(PHI_PLUS, PHI_PLUS))
    with pytest.raises(ValueError) as raised:
        replace(ideal_scenario(4), sources=sources)
    assert str(raised.value) == SOURCE_FAULTS["non-Hermitian"][1]


def test_a_vector_inside_the_norm_cut_is_accepted():
    # its norm is off by 0.995e-10, inside the cut of 1e-10
    v = np.array([1 + 0.995e-10, 0, 0, 0])
    scen = replace(ideal_scenario(2), sources=(v, PHI_PLUS))
    assert np.array_equal(scen.sources[0], np.outer(v, v.conj()))


def test_a_nan_coefficient_fails_the_table_checks():
    coeffs, w_maps = _born_factors(ideal_scenario(2))[:2]
    coeffs = [c.copy() for c in coeffs]  # the Povms' held coefficients are read-only
    coeffs[0][0].flat[0] = np.nan
    with pytest.raises(ValidationError, match=r"^negative probability nan in table e=0$"):
        CorrelationTable(2, coeffs, w_maps)


def test_a_nan_bound_proves_nothing_and_the_table_is_streamed():
    # a source whose Hermitian part overflows, set past Scenario's check: the steering
    # spectra, hence the bound, are NaN, and one table entry is -1.768e307
    scen = ideal_scenario(2)
    bad = np.zeros((4, 4), dtype=complex)
    bad[:2, :2] = [[0.5, 1e308], [1e308, 0.5]]
    object.__setattr__(scen, "sources", (scen.sources[0], bad))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError,
                           match=r"^negative probability -1\.768e\+307 in table e=0$"):
            born_table(scen)
