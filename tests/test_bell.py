import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcert.bell import (
    BellOutcomeLabel,
    _ghz_rows,
    all_labels,
    bell_operator,
    bell_terms,
    bell_value,
    bell_values,
    classical_bound_bruteforce,
    classical_bound_formula,
    ghz_vector,
    ideal_observables,
    max_bell_eigenvalue,
    quantum_bound,
    sos_residuals,
    tilde_observables,
)
from starcert.certify import check_part1, post_measurement_state
from starcert.config import DEFAULT_TOL
from starcert.errors import DimensionError
from starcert.measurements import Povm, ghz_basis_measurement
from starcert.network import Scenario, born_table
from starcert.presets import (
    ideal_scenario,
    random_observable_triple,
    random_scenario,
    random_state_vector,
)
from starcert.tensor import reorder_factors

from conftest import (
    bell_operator_oracle,
    post_measurement_oracle,
    random_scenario_with_dims,
    sos_residuals_oracle,
)

SQRT2 = np.sqrt(2)


def test_label_packing():
    lab = BellOutcomeLabel((1, 0, 1))
    assert lab.value == 5
    assert BellOutcomeLabel.from_value(5, 3) == lab
    assert len(all_labels(3)) == 8
    with pytest.raises(ValueError):
        BellOutcomeLabel((2, 0))


def test_all_labels_is_one_tuple_per_n_in_order_of_value():
    labels = all_labels(5)
    assert labels is all_labels(5) and isinstance(labels, tuple)
    assert [lab.value for lab in labels] == list(range(32))


def test_bounds_formulas():
    assert classical_bound_formula(2) == pytest.approx(SQRT2 + 1)
    assert quantum_bound(4) == 9.0


def test_classical_bound_matches_formula_all_labels():
    for n in (2, 3):
        result = classical_bound_bruteforce(n)
        npt.assert_allclose(
            result.per_label_maxima, classical_bound_formula(n), atol=1e-12
        )
        assert result.strategy.shape == (n, 3)
        assert set(np.unique(result.strategy)) <= {-1.0, 1.0}


def test_tilde_observables():
    t0, t1 = tilde_observables(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]))
    npt.assert_allclose(t0, SQRT2 * np.diag([1.0, -1.0]))
    npt.assert_allclose(t1, np.zeros((2, 2)))


def test_ideal_observables_algebra():
    # at the quantum bound {A_0, A_1} = 0 and A_j^2 = 1
    for triple in ideal_observables(3):
        a0, a1, a2 = triple.observables()
        assert np.linalg.norm(a0 @ a1 + a1 @ a0) < 1e-12
        for a in (a0, a1, a2):
            assert np.linalg.norm(a @ a - np.eye(triple.dim)) < 1e-12


def test_ghz_vectors_orthonormal():
    for n in (2, 3):
        vectors = [ghz_vector(lab) for lab in all_labels(n)]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        npt.assert_allclose(gram, np.eye(2**n), atol=1e-12)


def test_ghz_vector_explicit():
    npt.assert_allclose(
        ghz_vector(BellOutcomeLabel((0, 0))), np.array([1, 0, 0, 1]) / SQRT2
    )
    npt.assert_allclose(
        ghz_vector(BellOutcomeLabel((1, 0))), np.array([0, -1, 1, 0]) / SQRT2
    )


@pytest.mark.parametrize("n", range(2, 6))
def test_ghz_rows_of_any_range_are_those_of_the_whole_basis(n):
    rows = _ghz_rows(n, 0, 2**n)
    for first in range(2**n):
        for count in range(1, 2**n - first + 1):
            assert _ghz_rows(n, first, count).tobytes() == rows[first:first + count].tobytes()


def test_bell_value_ideal_reaches_quantum_bound():
    for n in (2, 3):
        table = born_table(ideal_scenario(n))
        for lab in all_labels(n):
            assert bell_value(table, lab) == pytest.approx(quantum_bound(n), abs=1e-9)


def test_bell_value_agrees_with_operator_route():
    # black-box route (correlators) vs white-box route (operator trace)
    n = 2
    scen = ideal_scenario(n, visibility=0.85)
    table = born_table(scen)
    obs = scen.alice_observables
    for lab in all_labels(n):
        op = bell_operator(lab, obs)
        rho = post_measurement_state(scen, lab.value, 0)
        white = float(np.trace(op @ rho).real)
        assert bell_value(table, lab) == pytest.approx(white, abs=1e-10)


def test_ghz_vector_is_bell_operator_top_eigenvector():
    for n in (2, 3):
        obs = ideal_observables(n)
        for lab in all_labels(n):
            op = bell_operator(lab, obs)
            v = ghz_vector(lab)
            npt.assert_allclose(op @ v, quantum_bound(n) * v, atol=1e-9)


def test_max_bell_eigenvalue_ideal():
    assert max_bell_eigenvalue(
        BellOutcomeLabel((0, 1)), ideal_observables(2)
    ) == pytest.approx(3.0, abs=1e-9)


def test_bell_coefficients_reproduce_max_eigenvalue_on_ideal():
    for n in (2, 3):
        support, coeffs = bell_terms(n)
        assert support.shape == (2 * n - 1, n)
        assert len({tuple(row) for row in support}) == 2 * n - 1
        assert coeffs.shape == (2**n, 2 * n - 1)
        scen = ideal_scenario(n)
        table = born_table(scen)
        for lab in all_labels(n):
            top = max_bell_eigenvalue(lab, scen.alice_observables)
            assert bell_value(table, lab) == pytest.approx(top, abs=1e-9)


def test_bell_coefficients_match_operator_on_random_observables(rng):
    for dims in ((2, 2), (2, 2, 2), (3, 2, 4)):
        obs = [random_observable_triple(d, rng) for d in dims]
        psi = random_state_vector(int(np.prod(dims)), rng)
        for lab in all_labels(len(dims)):
            npt.assert_allclose(
                bell_operator(lab, obs), bell_operator_oracle(lab, obs), rtol=0, atol=1e-12
            )
            got, want = sos_residuals(lab, obs, psi), sos_residuals_oracle(lab, obs, psi)
            npt.assert_allclose(
                (got.p_norm,) + got.r_norms + got.q_norms,
                (want.p_norm,) + want.r_norms + want.q_norms,
                rtol=0, atol=1e-12,
            )


def test_sos_identity_random_draws(rng):
    for n in (2, 3):
        for _ in range(10):
            obs = [random_observable_triple(2, rng) for _ in range(n)]
            psi = random_state_vector(2**n, rng)
            lab = all_labels(n)[int(rng.integers(2**n))]
            res = sos_residuals(lab, obs, psi)
            op = bell_operator(lab, obs)
            expected = 2 * (quantum_bound(n) - np.vdot(psi, op @ psi).real)
            assert res.weighted_square_sum() == pytest.approx(expected, abs=1e-10)


def test_sos_residuals_vanish_on_ideal():
    for n in (2, 3):
        obs = ideal_observables(n)
        for lab in all_labels(n):
            res = sos_residuals(lab, obs, ghz_vector(lab))
            assert res.max_residual() < 1e-9


def test_evaluate_bell_flags():
    tol = DEFAULT_TOL.acceptance
    table = born_table(ideal_scenario(2))
    report = check_part1(table, 2)
    assert report.bell_values[0] == bell_value(table, BellOutcomeLabel((0, 0)))
    assert report.bell_passed and abs(report.bell_values[0] - quantum_bound(2)) <= tol
    report2 = check_part1(born_table(ideal_scenario(2, visibility=0.5)), 2)
    assert not report2.bell_passed and abs(report2.bell_values[0] - quantum_bound(2)) > tol


def test_bell_value_rejects_labels_outside_the_table():
    table = born_table(ideal_scenario(2))
    # e = 1 is the one-outcome measurement: label 01 has value 1 >= K_1
    with pytest.raises(DimensionError, match="outcome l=1 out of range for e=1"):
        bell_value(table, BellOutcomeLabel((0, 1)), e=1)
    with pytest.raises(DimensionError, match="label has 3 bits, table has N=2"):
        bell_value(table, BellOutcomeLabel((0, 0, 0)))


def test_bell_value_with_noneve_outcome_conditioning():
    # conditioning on the e=1 single-outcome measurement gives value for e=1
    table = born_table(ideal_scenario(2, eve_second=ghz_basis_measurement(2)))
    lab = BellOutcomeLabel((0, 0))
    assert bell_value(table, lab, e=1) == pytest.approx(3.0, abs=1e-9)


def zero_effect_scenario(rng):
    """Random N = 2 scenario whose two Eve measurements both have a zero effect at l = 1."""
    scen = random_scenario_with_dims((2, 2), (2, 2), rng)
    eve = Povm((np.diag([1.0, 1.0, 0.0, 0.0]), np.zeros((4, 4)),
                np.diag([0.0, 0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0])))
    return Scenario(n_parties=2, sources=scen.sources,
                    alice_observables=scen.alice_observables, eve=(eve, eve))


BATCHED_CASES = {
    "random-n2": lambda rng: random_scenario(2, rng),
    "random-n3": lambda rng: random_scenario(3, rng),
    "dims-23-42": lambda rng: random_scenario_with_dims((2, 3), (4, 2), rng),
    "dims-32-23": lambda rng: random_scenario_with_dims((3, 2), (2, 3), rng),
    "dims-222-322": lambda rng: random_scenario_with_dims((2, 2, 2), (3, 2, 2), rng),
    "zero-effect-n2": zero_effect_scenario,
}


@pytest.mark.parametrize("name", list(BATCHED_CASES))
def test_bell_values_match_operator_on_post_measurement_states(name, rng):
    # batched correlator route against Tr[B_l rho_l] on the dense joint state
    scen = BATCHED_CASES[name](rng)
    table = born_table(scen)
    labels = all_labels(scen.n_parties)
    for e in (0, 1):
        values = bell_values(table, e)
        effects = scen.eve[e].effects
        assert len(values) == min(len(labels), len(effects))
        for l, value in enumerate(values):
            if not np.any(effects[l]):
                assert np.isnan(value)
                continue
            op = bell_operator_oracle(labels[l], scen.alice_observables)
            white = np.trace(op @ post_measurement_oracle(scen, l, e)).real
            assert value == pytest.approx(white, abs=1e-10)


def relabel_parties(scen, perm):
    """``scen`` with party k played by its party perm[k] (perm[0] = 0), and the
    e = 0 effects moved to the matching permutation of the label bits."""
    n = scen.n_parties

    def move(m):
        return reorder_factors(m, scen.eve_dims, perm)

    def relabel(l):
        bits = [(l >> (n - 1 - i)) & 1 for i in range(n)]
        return sum(bits[p] << (n - 1 - k) for k, p in enumerate(perm))

    effects0 = [None] * 2**n
    for l, m in enumerate(scen.eve[0].effects):
        effects0[relabel(l)] = move(m)
    relabelled = Scenario(
        n_parties=n,
        sources=tuple(scen.sources[p] for p in perm),
        alice_observables=tuple(scen.alice_observables[p] for p in perm),
        eve=(Povm(tuple(effects0)), Povm(tuple(map(move, scen.eve[1].effects)))),
    )
    return relabelled, [relabel(l) for l in range(2**n)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bell_values_invariant_under_relabelling_parties(seed, data):
    n = data.draw(st.sampled_from([2, 3, 4]), label="n")
    perm = [0] + data.draw(st.permutations(range(1, n)), label="perm")
    rng = np.random.default_rng(seed)
    dims = [data.draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n))
            for _ in range(2)]
    scen = random_scenario_with_dims(dims[0], dims[1], rng)
    relabelled, moved = relabel_parties(scen, perm)
    table, other = born_table(scen), born_table(relabelled)
    npt.assert_allclose(bell_values(other)[moved], bell_values(table), rtol=0, atol=1e-12)
    npt.assert_allclose(other.outcome_weights(0)[moved], table.outcome_weights(0),
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("bits, n", [((0, 1, 1), 2), ((1, 1, 1), 2), ((1, 0), 3)])
def test_sos_residuals_rejects_a_label_of_the_wrong_length(bits, n):
    psi = ghz_vector(BellOutcomeLabel((0,) * n))
    with pytest.raises(DimensionError, match=f"label has {len(bits)} bits, got {n}"):
        sos_residuals(BellOutcomeLabel(bits), ideal_observables(n), psi)
