"""Dense complex linear algebra on multi-qubit (and general finite) spaces.

All functions are pure: they accept and return plain ``numpy`` arrays with
dtype complex128 and never mutate their arguments.  Operators are square
row-major matrices, states are one-dimensional unit vectors.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import CapacityError, ContractViolation, DimensionError

# Largest operator this kernel will build: 2^24 entries (dim 4096).
MAX_ENTRIES = 2**24

# Single-qubit constants.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_operator(entries) -> np.ndarray:
    """Validate and normalize a square complex matrix.

    Rejects non-square shapes and non-finite entries.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ContractViolation("matrix contains NaN or Inf entries")
    return m


def as_state(amplitudes, tol: float | None = 1e-12, what: str = "state vector") -> np.ndarray:
    """Validate a flattened vector of finite entries, of norm 1 within ``tol`` unless it is None.

    The one finite-vector check: NaN fails every comparison, so a norm or
    Gram test alone never rejects a NaN entry.
    """
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size < 1:
        raise DimensionError(f"{what} must have at least one amplitude")
    if not np.isfinite(v).all():
        raise ContractViolation(f"{what} contains NaN or Inf entries")
    norm = np.linalg.norm(v)
    if tol is not None and abs(norm - 1.0) > tol:
        raise ContractViolation(f"state vector norm {norm} deviates from 1 beyond {tol}")
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


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m, dtype=complex)).T


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL.structural, what: str = "matrix") -> np.ndarray:
    m = as_operator(m)
    defect = float(np.linalg.norm(m - dagger(m)))
    if defect > tol:
        raise ContractViolation(f"{what} is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return m


def hermitian_eig(m: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the corresponding matrix columns.
    Within degenerate clusters the eigenvector basis is arbitrary (but
    deterministic for a given input); compare spectral projectors, not
    individual degenerate vectors.
    """
    m = require_hermitian(m, tol.structural)
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order]


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOL.structural) -> bool:
    """Positive semi-definiteness within ``tol`` (Cholesky with shift).

    Much cheaper than a full eigendecomposition for large matrices.
    """
    m = require_hermitian(m, max(tol, 1e-8))
    h = (m + dagger(m)) / 2
    shifted = h + 10 * tol * np.eye(h.shape[0])
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return False


def numerical_rank(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of a Hermitian PSD matrix by eigenvalue thresholding at ``tol.rank``.

    Raises if an eigenvalue magnitude sits inside (tol.rank/10, tol.rank*10),
    i.e. too close to the cut to call.
    """
    vals, _ = hermitian_eig(m, tol)
    mags = np.abs(vals)
    borderline = (mags > tol.rank / 10) & (mags < tol.rank * 10)
    if np.any(borderline):
        raise ContractViolation(
            f"indeterminate rank: eigenvalue magnitude {mags[borderline][0]:.3e} "
            f"too close to threshold {tol.rank:.1e}"
        )
    return int(np.sum(mags >= tol.rank))
