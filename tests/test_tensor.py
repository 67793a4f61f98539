import numpy as np
import numpy.testing as npt
import pytest

from starcert.errors import CapacityError, ContractViolation, DimensionError, StarcertError
from starcert.tensor import (
    PAULI_X,
    PAULI_Y,
    as_operator,
    as_state,
    check_hermitian,
    hermitian_defects,
    kron,
    kron_all,
    numerical_ranks,
    operator_stack,
    partial_trace,
    psd_within,
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


def test_as_state_rejects_an_empty_or_non_finite_vector():
    npt.assert_array_equal(as_state([[1, 1]]), [1, 1])  # flattened; the norm is not checked
    with pytest.raises(DimensionError, match="^state vector must have at least one amplitude$"):
        as_state([])
    with pytest.raises(ContractViolation, match="^psi contains NaN or Inf entries$"):
        as_state([1, np.inf], "psi")


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


def test_psd_within():
    assert psd_within(np.diag([1.0, 0.0, 2.0]), 1e-10)
    assert not psd_within(np.diag([1.0, -0.1]), 1e-10)
    assert psd_within(np.diag([1.0, -1e-12]), 1e-10)  # within slack


def test_psd_within_refuses_a_non_finite_hermitian_part_and_reads_each_matrix_of_a_stack():
    # numpy's Cholesky returns a NaN factor for this one without raising
    assert not psd_within(np.array([[0.5, np.inf], [np.inf, 0.5]]), 1e-10)
    stack = np.array([np.eye(2), np.diag([1.0, -0.1]), [[0.5, np.inf], [np.inf, 0.5]], np.eye(2)])
    npt.assert_array_equal(psd_within(stack, 1e-10), [True, False, False, True])
    npt.assert_array_equal(psd_within(stack[[0, 3]], 1e-10), [True, True])


def test_require_hermitian():
    npt.assert_array_equal(require_hermitian(PAULI_X), PAULI_X)
    # ||M - M^dagger|| of [[0, 1], [0, 0]] is sqrt2
    with pytest.raises(ContractViolation, match=r"effect is not Hermitian \(defect 1\.414e\+00"):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), what="effect")
    require_hermitian(PAULI_Y + 1e-13 * PAULI_X @ PAULI_Y)  # within the default slack


def test_numerical_ranks():
    spectra = np.linalg.eigvalsh(np.stack([np.diag([1.0, 0.5, 0.0, 0.0]), np.eye(4)]))
    assert numerical_ranks(spectra).tolist() == [2, 4]
    with pytest.raises(ContractViolation, match="indeterminate"):
        numerical_ranks(np.linalg.eigvalsh(np.diag([1.0, 1e-8])[None]))


def test_check_hermitian_names_the_first_faulty_matrix_in_order():
    stack = np.stack([PAULI_X] * 5)
    stack[1, 0, 1] += 1e-9 / np.sqrt(2)  # ||M - M^dagger|| = 1e-9
    stack[3, 0, 1] += 1 / np.sqrt(2)
    check_hermitian(stack[:3], 1e-8)
    with pytest.raises(ContractViolation,
                       match=r"^matrix is not Hermitian \(defect 1\.000e-09 > 1\.0e-10\)$"):
        check_hermitian(stack, 1e-10)
    with pytest.raises(ContractViolation, match=r"^m3 is not Hermitian \(defect 1\.000e\+00"):
        check_hermitian(stack, 1e-8, [f"m{k}" for k in range(5)])


def test_operator_stack_takes_a_read_only_stack_and_copies_anything_else(rng):
    frozen = random_complex(rng, (3, 4, 4))
    frozen.flags.writeable = False
    assert operator_stack(frozen) is frozen
    writeable = random_complex(rng, (3, 4, 4))
    copied = operator_stack(writeable)
    assert copied is not writeable and not np.shares_memory(copied, writeable)
    npt.assert_array_equal(copied, writeable)
    npt.assert_array_equal(operator_stack([np.eye(2), PAULI_X]), np.stack([np.eye(2), PAULI_X]))


def _stacked_one_at_a_time(matrices, what):
    """The matrices checked alone, in order, then stacked; or the (class, message) raised."""
    try:
        ops = [as_operator(m) for m in matrices]
        for i, m in enumerate(ops):
            if m.shape[0] != ops[0].shape[0]:
                raise DimensionError(f"{what} {i} has dim {m.shape[0]}, expected {ops[0].shape[0]}")
        return np.stack(ops)
    except StarcertError as exc:
        return type(exc), str(exc)


STACK_JUNK = [np.zeros((2, 3)), np.ones(2), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0]),
              np.zeros((0, 0)), "ab", np.eye(2), np.eye(3), [[1, 2], [3]], None]


@pytest.mark.parametrize("seed", range(120))
def test_operator_stack_raises_what_checking_one_matrix_at_a_time_raises(seed):
    rng = np.random.default_rng([19, seed])
    d = int(rng.integers(1, 4))
    matrices = list(random_complex(rng, (int(rng.integers(1, 6)), d, d)))
    for _ in range(int(rng.integers(0, 3))):
        matrices[int(rng.integers(len(matrices)))] = STACK_JUNK[int(rng.integers(len(STACK_JUNK)))]
    if seed % 4 == 0 and all(isinstance(m, np.ndarray) and m.shape == (d, d) for m in matrices):
        matrices = np.array(matrices)
        matrices.flags.writeable = bool(seed % 8)
    expected = _stacked_one_at_a_time(matrices, "effect")
    try:
        actual = operator_stack(matrices, "effect")
    except StarcertError as exc:
        actual = type(exc), str(exc)
    if isinstance(expected, tuple):
        assert actual == expected
    else:
        assert actual.dtype == complex and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("matrices", [[], (), np.zeros((0, 2, 2))], ids=["list", "tuple", "array"])
def test_operator_stack_refuses_an_empty_list(matrices):
    with pytest.raises(DimensionError, match="^need at least one effect$"):
        operator_stack(matrices, "effect")


@pytest.mark.parametrize("k, d", [(9, 64), (3, 200), (20, 16)],
                         ids=["steps-of-4", "steps-of-1", "one-step"])
def test_hermitian_defects_of_a_stack_match_each_matrix_alone(k, d, rng):
    stack = random_complex(rng, (k, d, d))
    stack = stack + stack.conj().swapaxes(1, 2) + 1e-9 * random_complex(rng, (k, d, d))
    defects = hermitian_defects(stack)
    assert defects.tolist() == [hermitian_defects(m[None])[0] for m in stack]
    npt.assert_allclose(defects, [np.linalg.norm(m - m.conj().T) for m in stack], rtol=1e-12)
