"""Dense complex linear algebra on multi-qubit (and general finite) spaces.

All functions are pure: they accept and return plain ``numpy`` arrays with
dtype complex128 and never mutate their arguments.  Operators are square
row-major matrices, states are one-dimensional vectors.  A list of matrices
is checked as one stack: ``operator_stack`` and ``check_hermitian`` raise
the error of its first faulty matrix, in order.  The operator bases and
the pair layout of operators on a product space, which the Born factors
and the Pauli expansion are contracted from, live here too;
``_pair_layout`` also reads a ``Povm``'s rank-one vectors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import CapacityError, ContractViolation, DimensionError

# Largest operator this kernel will build: 2^24 entries (dim 4096).
MAX_ENTRIES = 2**24

# Entries per step of a batched check (256 KB of complex128), or per chunk
# of the real basis expansion (128 KB of float64), so that a step's
# temporaries stay in cache: one step over a large stack, such as 128
# effects at N = 7, is bound by memory traffic instead.
_STEP_ENTRIES = 2**14

# Single-qubit constants.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_operator(entries) -> np.ndarray:
    """Validate and normalize a square complex matrix.

    Rejects entries that are not numbers, ragged rows, non-square shapes
    and non-finite entries.
    """
    try:
        m = np.asarray(entries, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"expected a square matrix of numbers ({exc})") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ContractViolation("matrix contains NaN or Inf entries")
    return m


def operator_stack(matrices, what: str = "matrix") -> np.ndarray:
    """Square matrices of one dimension with finite entries as one complex (K, d, d) array.

    One conversion and one finiteness check for the whole stack.  A read-only
    complex array, such as a decoded file's or a ``Povm``'s, is taken as it
    is; anything else is copied once.  Otherwise the first fault in order
    raises (``_stack_one_at_a_time``).
    """
    adopt = (isinstance(matrices, np.ndarray) and matrices.dtype == complex
             and not matrices.flags.writeable)
    try:
        stack = matrices if adopt else np.array(matrices, dtype=complex)
    except (TypeError, ValueError):
        return _stack_one_at_a_time(matrices, what)
    if (stack.ndim == 3 and 0 not in stack.shape and stack.shape[1] == stack.shape[2]
            and np.isfinite(stack).all()):
        return stack
    return _stack_one_at_a_time(matrices, what)


def _stack_one_at_a_time(matrices, what: str) -> np.ndarray:
    """``operator_stack`` of matrices checked one at a time, in order.

    The first fault raises: ``as_operator``'s shape or finiteness error, then
    ``{what} i has dim d_i, expected d_0``.  An empty list raises too, and
    so does a scalar or a 0-d array, which is no list at all.
    """
    if not np.iterable(matrices):
        raise DimensionError(f"expected a list of square matrices, got shape {np.shape(matrices)}")
    ops = [as_operator(m) for m in matrices]
    if not ops:
        raise DimensionError(f"need at least one {what}")
    for i, m in enumerate(ops):
        if m.shape[0] != ops[0].shape[0]:
            raise DimensionError(f"{what} {i} has dim {m.shape[0]}, expected {ops[0].shape[0]}")
    return np.stack(ops)


def hermitian_defects(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms ||M - M^dagger|| (K,) of a non-empty (K, d, d) stack.

    One batched norm per step of at most ``_STEP_ENTRIES`` entries, or of
    one matrix.  Each norm reduces its own row, so a single matrix, the
    stack ``m[None]``, gets the same defect as inside any stack.
    """
    step = max(1, _STEP_ENTRIES // stack[0].size)
    return np.concatenate([
        np.linalg.norm((s - s.conj().swapaxes(-1, -2)).reshape(len(s), -1), axis=1)
        for s in (stack[k:k + step] for k in range(0, len(stack), step))
    ])


def hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2 of each matrix of a (K, d, d) stack."""
    return (stack + stack.conj().swapaxes(-1, -2)) / 2


def as_state(amplitudes, what: str = "state vector") -> np.ndarray:
    """Validate a flattened, non-empty vector of finite entries.

    The one finite-vector check: NaN fails every comparison, so a norm or
    Gram test alone never rejects a NaN entry.
    """
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size < 1:
        raise DimensionError(f"{what} must have at least one amplitude")
    if not np.isfinite(v).all():
        raise ContractViolation(f"{what} contains NaN or Inf entries")
    return v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product of two square operators."""
    a = as_operator(a)
    b = as_operator(b)
    dim = a.shape[0] * b.shape[0]
    if dim * dim > MAX_ENTRIES:
        raise CapacityError(
            f"kron result would have {dim * dim} entries, above the {MAX_ENTRIES} cap"
        )
    return np.kron(a, b)


def kron_all(factors) -> np.ndarray:
    """Left-to-right tensor product of a sequence of operators."""
    factors = list(factors)
    if not factors:
        raise DimensionError("kron_all needs at least one factor")
    out = as_operator(factors[0])
    for f in factors[1:]:
        out = kron(out, f)
    return out


def partial_trace(m: np.ndarray, factor_dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Factor 0 is the most significant index block (big-endian ordering).
    The result keeps the surviving factors in their original order.
    """
    m = as_operator(m)
    dims = [int(d) for d in factor_dims]
    if any(d < 1 for d in dims):
        raise DimensionError("factor dimensions must be positive")
    total = int(np.prod(dims))
    if total != m.shape[0]:
        raise DimensionError(
            f"product of factor dims {dims} is {total}, matrix dim is {m.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} outside 0..{n - 1}")
    t = m.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    # Trace highest index first so lower axis numbers stay valid.
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(kept_dim, kept_dim)


def reorder_factors(m: np.ndarray, factor_dims, permutation) -> np.ndarray:
    """Permute the tensor factors of an operator.

    ``permutation[k]`` is the old position of the factor that ends up at
    position ``k`` of the result.
    """
    m = as_operator(m)
    dims = [int(d) for d in factor_dims]
    n = len(dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise DimensionError("factor dims do not match matrix dim")
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"{perm} is not a permutation of 0..{n - 1}")
    t = m.reshape(dims + dims)
    axes = perm + [p + n for p in perm]
    t = t.transpose(axes)
    return t.reshape(m.shape)


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL.structural, what: str = "matrix") -> np.ndarray:
    """``as_operator(m)``, raising unless it is Hermitian within ``tol`` (``check_hermitian``)."""
    m = as_operator(m)
    check_hermitian(m[None], tol, what)
    return m


def check_hermitian(stack: np.ndarray, tol: float, what="matrix") -> None:
    """Raise if a matrix of a non-empty (K, d, d) stack has a Hermiticity defect above ``tol``.

    The first such matrix in order names its own ``hermitian_defects``
    entry; ``what`` names every matrix, or is a sequence of K names.
    """
    for k, defect in enumerate(hermitian_defects(stack).tolist()):
        if defect > tol:
            raise not_hermitian(what if isinstance(what, str) else what[k], defect, tol)


def not_hermitian(what: str, defect: float, tol: float) -> ContractViolation:
    """The error of the matrix ``what``, whose Hermiticity defect exceeds ``tol``."""
    return ContractViolation(f"{what} is not Hermitian (defect {defect:.3e} > {tol:.1e})")


def psd_within(h: np.ndarray, tol: float):
    """Whether each Hermitian matrix of h (..., d, d) is PSD within tol: Cholesky of h + 10 tol 1.

    One batched call, or one per matrix if it fails.  A non-finite factor,
    which numpy returns without an error for an inf in ``h``, is not PSD.
    """
    try:
        factors = np.linalg.cholesky(h + 10 * tol * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        return np.array([psd_within(m, tol) for m in h]) if h.ndim > 2 else False
    return np.isfinite(factors).all(axis=(-2, -1))


def numerical_ranks(eigenvalues: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Ranks (K,) of Hermitian PSD matrices from ascending spectra (K, d), cut at ``tol.rank``.

    Raises if an eigenvalue magnitude sits inside (tol.rank/10, tol.rank*10),
    i.e. too close to the cut to call: the first such matrix in order names
    its greatest such eigenvalue.
    """
    mags = np.abs(eigenvalues[:, ::-1])
    borderline = (mags > tol.rank / 10) & (mags < tol.rank * 10)
    if borderline.any():
        k = int(np.argmax(borderline.any(axis=1)))
        raise ContractViolation(
            f"indeterminate rank: eigenvalue magnitude {mags[k][borderline[k]][0]:.3e} "
            f"too close to threshold {tol.rank:.1e}"
        )
    return (mags >= tol.rank).sum(axis=1)


@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis B_b of d x d operators, as a read-only (d^2, d^2) map.

    Row b is conj(B_b) flattened, so it sends a flattened operator X to
    Tr[B_b X]: X[k, k] for the diagonal units, then sqrt2 Re X[j, k] and
    sqrt2 Im X[j, k] for each j < k.  These coefficients are real for
    Hermitian X, and Tr[X Y] is their dot product.  Each row is purely real
    or purely imaginary, as ``network._real_maps`` needs.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    b = d
    for j in range(d):
        for k in range(j + 1, d):
            basis[b, j, k] = basis[b, k, j] = 1 / np.sqrt(2.0)
            basis[b + 1, j, k], basis[b + 1, k, j] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            b += 2
    basis = basis.reshape(d * d, d * d)
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=None)
def _pair_indices(dims: tuple):
    """Read-only gather indices of the pair layout of operators on the factors ``dims``.

    Position ((f_1 e_1), ..., (f_N e_N)) of the layout holds entry (f, e) of
    the d x d operator, d = prod(dims): ``order`` is its flat index f d + e,
    and ``rows`` and ``cols`` are f and e.
    """
    n, d = len(dims), int(np.prod(dims))
    pairs = [ax for i in range(n) for ax in (i, n + i)]
    order = np.arange(d * d).reshape(dims * 2).transpose(pairs).reshape(-1)
    rows, cols = np.divmod(order, d)
    for a in (order, rows, cols):
        a.flags.writeable = False
    return order, rows, cols


def _pair_layout(meas, dims: tuple, outcomes: slice) -> np.ndarray:
    """R[l, (f_1 e_1) ... (f_N e_N)], flattened and contiguous, of the ``outcomes`` of ``meas``.

    ``meas`` is a (K, d, d) stack or a ``Povm`` of effects R_l[f, e], and
    ``dims`` factor d.  Each row is gathered through ``_pair_indices``: a
    dense effect's entries in pair order, or, for a rank-one ``Povm``, the
    products v_l[f] conj(v_l[e]) of its vector legs, so that its dense
    effects are never built.
    """
    order, rows, cols = _pair_indices(dims)
    v = getattr(meas, "vectors", None)
    if v is None:
        stack = getattr(meas, "effects", meas)
        return np.take(stack.reshape(len(stack), -1)[outcomes], order, axis=1)
    v = v[outcomes]
    layout = np.take(v, rows, axis=1)
    layout *= np.take(v.conj(), cols, axis=1)
    return layout
