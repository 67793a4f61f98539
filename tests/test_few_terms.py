"""Rank-one Born coefficients built from their nonzero amplitudes, against the dense route.

``measurements._few_term_expansion`` must give ``network._basis_expansion``'s
coefficients to rounding, and the same signed zeros, on every measurement
it may take: GHZ bases, embedded trines, random sparse rank-one POVMs on
qubits and on other dimensions, and rows of zeros.  The bound is
(N + 2) u ||v_l||^2 per outcome (u = 2^-53): one rounding of each of a
term's N + 2 factors.  Worst seen: 1.02 u ||v_l||^2 here, and 1.15 u on a
wider seeded corpus of sparse POVMs (dims (2, 2, 3)).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcert import measurements
from starcert.measurements import (
    MixedStateSpec,
    Povm,
    _few_term_expansion,
    _few_terms_pay,
    embed_rank1_povm,
    ghz_basis_measurement,
    trine_povm,
)
from starcert.network import _basis_expansion
from starcert.tensor import _hermitian_basis

U = np.finfo(float).eps / 2


def assert_matches_dense(povm: Povm, dims: tuple) -> np.ndarray:
    """Both routes' coefficients agree within (N + 2) u ||v_l||^2, with equal signed zeros."""
    dense = _basis_expansion(povm, dims, _hermitian_basis)
    few = _few_term_expansion(povm.vectors, dims)
    assert few.shape == dense.shape
    gap = np.abs(few - dense).reshape(len(few), -1).max(axis=1)
    bound = (len(dims) + 2) * U * np.linalg.norm(povm.vectors, axis=1) ** 2
    assert (gap <= bound).all(), (gap / U).max()
    zeros = (few == 0) & (dense == 0)
    assert np.array_equal(np.signbit(few[zeros]), np.signbit(dense[zeros]))
    return few


def sparse_rank_one_povm(dims: tuple, rng, zero_rows: int = 0) -> Povm:
    """A complete rank-one POVM whose rows each live on a random group of 1 to 4 basis vectors.

    Each group of g indices gets the g + (0, 1 or 2) rows of a random
    isometry, so the groups' rows sum to the identity; ``zero_rows`` rows of
    zeros are added, and the rows are shuffled.
    """
    d = int(np.prod(dims))
    cuts = np.cumsum(rng.integers(1, 5, size=d))
    rows = [np.zeros((zero_rows, d), dtype=complex)]
    for group in np.split(rng.permutation(d), cuts[cuts < d]):
        k = len(group) + int(rng.integers(0, 3))
        block = np.zeros((k, d), dtype=complex)
        block[:, group] = np.linalg.qr(rng.standard_normal((k, len(group)))
                                       + 1j * rng.standard_normal((k, len(group))))[0]
        rows.append(block)
    v = np.concatenate(rows)
    return Povm.rank_one(v[rng.permutation(len(v))])


def random_spec(d: int, rank: int, rng) -> MixedStateSpec:
    """A seeded spec on C^d of the given rank, its weights bounded away from 0."""
    basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    weights = rng.uniform(0.5, 1.0, size=rank)
    return MixedStateSpec(d, tuple(weights / weights.sum()), tuple(basis.T[:rank]))


@pytest.mark.parametrize("n", range(2, 8))
def test_ghz_coefficients_are_bit_identical_to_the_dense_route(n):
    povm = ghz_basis_measurement(n)
    few = assert_matches_dense(povm, (2,) * n)
    assert few.tobytes() == _basis_expansion(povm, (2,) * n, _hermitian_basis).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "pure"])
def test_embedded_trines_match_the_dense_route(d, kind, rng):
    rank = {"full-rank": d, "rank-deficient": d - 1, "pure": 1}[kind]
    trine = trine_povm(random_spec(d, rank, rng))
    smallest = (2 * d - 1).bit_length()
    for n in sorted({max(2, smallest), 5, 7}):
        assert_matches_dense(embed_rank1_povm(trine, n), (2,) * n)


@pytest.mark.parametrize("dims", [(2,) * n for n in range(2, 8)] + [(4, 2), (2, 3), (3, 2, 2)],
                         ids=str)
def test_random_sparse_povms_match_the_dense_route(dims, rng):
    for zero_rows in (0, 1, 3):
        assert_matches_dense(sparse_rank_one_povm(dims, rng, zero_rows), dims)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dims=st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3).map(tuple))
def test_seeded_sparse_povms_match_the_dense_route(seed, dims):
    rng = np.random.default_rng(seed)
    assert_matches_dense(sparse_rank_one_povm(dims, rng, int(rng.integers(0, 2))), dims)


def test_a_zero_row_expands_to_the_dense_routes_signed_zeros():
    povm = Povm.rank_one(np.concatenate([np.zeros((1, 8)), np.eye(8)]))
    few = assert_matches_dense(povm, (2, 2, 2))
    assert few.tobytes() == _basis_expansion(povm, (2, 2, 2), _hermitian_basis).tobytes()
    assert not few[0].any() and np.signbit(few[0]).any()


@pytest.mark.parametrize("n", [5, 6])
def test_rank_one_povms_with_dense_vectors_keep_the_dense_route(n, rng, monkeypatch):
    d = 2**n
    z = rng.standard_normal((d + 2, d)) + 1j * rng.standard_normal((d + 2, d))
    povm = Povm.rank_one(np.linalg.qr(z)[0])
    assert not _few_terms_pay(povm.vectors, (2,) * n)

    def refuse(*args):
        raise AssertionError("dense vectors took the few-term route")
    monkeypatch.setattr(measurements, "_few_term_expansion", refuse)
    held = povm._born_coefficients((2,) * n)
    assert held.tobytes() == _basis_expansion(povm, (2,) * n, _hermitian_basis).tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_ghz_and_trine_measurements_take_the_few_term_route_from_n5(n, rng):
    trine = embed_rank1_povm(trine_povm(random_spec(2, 2, rng)), n)
    for povm in (ghz_basis_measurement(n), trine):
        assert _few_terms_pay(povm.vectors, (2,) * n) == (n >= 5)
