import numpy as np
import numpy.testing as npt
import pytest

from starcert.errors import CapacityError, ContractViolation, DimensionError
from starcert.tensor import (
    PAULI_X,
    PAULI_Y,
    as_operator,
    as_state,
    dagger,
    hermitian_defects,
    hermitian_eig,
    is_psd,
    kron,
    kron_all,
    numerical_rank,
    operator_stack,
    partial_trace,
    reorder_factors,
    require_hermitian,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_as_operator_rejects_nonsquare():
    with pytest.raises(DimensionError):
        as_operator(np.zeros((2, 3)))


def test_as_operator_rejects_nan():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ContractViolation):
        as_operator(m)


def test_as_state_norm_check():
    as_state([1, 0])
    with pytest.raises(ContractViolation):
        as_state([1, 1])


def test_kron_matches_numpy(rng):
    a = random_complex(rng, (3, 3))
    b = random_complex(rng, (4, 4))
    npt.assert_allclose(kron(a, b), np.kron(a, b))


def test_kron_capacity_cap():
    big = np.eye(4096, dtype=complex)
    with pytest.raises(CapacityError):
        kron(big, np.eye(2))


def test_kron_all_associates(rng):
    mats = [random_complex(rng, (2, 2)) for _ in range(3)]
    npt.assert_allclose(kron_all(mats), np.kron(np.kron(mats[0], mats[1]), mats[2]))


def test_partial_trace_against_einsum(rng):
    dims = [2, 3, 2]
    d = int(np.prod(dims))
    m = random_complex(rng, (d, d))
    t = m.reshape(dims + dims)
    # keep factor 1 only
    expected = np.einsum("iajibj->ab", t)
    npt.assert_allclose(partial_trace(m, dims, keep=[1]), expected, atol=1e-12)
    # keep factors 0 and 2
    expected2 = np.einsum("aibcid->abcd", t).reshape(4, 4)
    npt.assert_allclose(partial_trace(m, dims, keep=[0, 2]), expected2, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    m = random_complex(rng, (8, 8))
    reduced = partial_trace(m, [2, 2, 2], keep=[0])
    npt.assert_allclose(np.trace(reduced), np.trace(m))


def test_partial_trace_of_product(rng):
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    npt.assert_allclose(
        partial_trace(np.kron(a, b), [2, 3], keep=[0]), a * np.trace(b), atol=1e-12
    )


def test_reorder_factors_swap(rng):
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    swapped = reorder_factors(np.kron(a, b), [2, 3], [1, 0])
    npt.assert_allclose(swapped, np.kron(b, a), atol=1e-12)


def test_reorder_factors_identity_permutation(rng):
    m = random_complex(rng, (8, 8))
    npt.assert_allclose(reorder_factors(m, [2, 2, 2], [0, 1, 2]), m)


def test_reorder_factors_rejects_bad_permutation():
    with pytest.raises(DimensionError):
        reorder_factors(np.eye(4), [2, 2], [0, 0])


def test_dagger_conjugate():
    npt.assert_allclose(dagger(PAULI_Y), PAULI_Y)


def test_hermitian_eig_reconstructs(rng):
    z = random_complex(rng, (6, 6))
    h = (z + z.conj().T) / 2
    vals, vecs = hermitian_eig(h)
    npt.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-10)
    assert np.all(np.diff(vals) <= 1e-12)  # descending


def test_hermitian_eig_rejects_nonhermitian(rng):
    with pytest.raises(ContractViolation):
        hermitian_eig(random_complex(rng, (3, 3)))


def test_is_psd():
    assert is_psd(np.diag([1.0, 0.0, 2.0]))
    assert not is_psd(np.diag([1.0, -0.1]))
    assert is_psd(np.diag([1.0, -1e-12]))  # within slack


def test_require_hermitian():
    npt.assert_array_equal(require_hermitian(PAULI_X), PAULI_X)
    # ||M - M^dagger|| of [[0, 1], [0, 0]] is sqrt2
    with pytest.raises(ContractViolation, match=r"effect is not Hermitian \(defect 1\.414e\+00"):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), what="effect")
    require_hermitian(PAULI_Y + 1e-13 * PAULI_X @ PAULI_Y)  # within the default slack


def test_numerical_rank():
    assert numerical_rank(np.diag([1.0, 0.5, 0.0, 0.0])) == 2
    with pytest.raises(ContractViolation, match="indeterminate"):
        numerical_rank(np.diag([1.0, 1e-8]))


def test_operator_stack_takes_a_read_only_stack_and_copies_anything_else(rng):
    frozen = random_complex(rng, (3, 4, 4))
    frozen.flags.writeable = False
    assert operator_stack(frozen) is frozen
    writeable = random_complex(rng, (3, 4, 4))
    copied = operator_stack(writeable)
    assert copied is not writeable and not np.shares_memory(copied, writeable)
    npt.assert_array_equal(copied, writeable)
    npt.assert_array_equal(operator_stack([np.eye(2), PAULI_X]), np.stack([np.eye(2), PAULI_X]))


@pytest.mark.parametrize("matrices", [
    [], [np.eye(2), np.eye(3)], [np.zeros((2, 3))], [np.eye(2)[0]], [np.diag([1.0, np.nan])],
    np.zeros((2, 0, 0)), "ab",
], ids=["empty", "mixed-dims", "non-square", "vector", "nan", "zero-dim", "string"])
def test_operator_stack_refuses_what_as_operator_or_one_dim_refuses(matrices):
    assert operator_stack(matrices) is None


@pytest.mark.parametrize("k, d", [(9, 64), (3, 200), (20, 16)],
                         ids=["steps-of-4", "steps-of-1", "one-step"])
def test_hermitian_defects_of_a_stack_match_each_matrix_alone(k, d, rng):
    stack = random_complex(rng, (k, d, d))
    stack = stack + stack.conj().swapaxes(1, 2) + 1e-9 * random_complex(rng, (k, d, d))
    defects = hermitian_defects(stack)
    assert defects.tolist() == [hermitian_defects(m[None])[0] for m in stack]
    npt.assert_allclose(defects, [np.linalg.norm(m - m.conj().T) for m in stack], rtol=1e-12)
