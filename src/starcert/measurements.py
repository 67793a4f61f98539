"""Construction and validation of the measurements the certifier targets.

Covers the Pauli coefficient tensors used by the certification conditions,
the GHZ-basis measurement, embedding/completion of projective measurements
and rank-one extremal POVMs into N-qubit space, and the trine POVM that
remotely prepares an arbitrary full-rank mixed state.

Pauli index convention (deliberately nonstandard, keep it in mind when
reading coefficient tensors): sigma_0 = Z, sigma_1 = X, sigma_2 = Y,
sigma_3 = identity.  Index j in {0, 1, 2} pairs with a party's observable
A_j; index 3 marginalizes the party.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ContractViolation, DimensionError, ValidationError
from .tensor import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_operator,
    as_state,
    hermitian_eig,
    require_hermitian,
)

PAULI_BASIS = (PAULI_Z, PAULI_X, PAULI_Y, ID2)
# Stacked basis, indexed [j, row, column].
_BASIS = np.stack(PAULI_BASIS)


@dataclass(frozen=True)
class PauliCoeffTensor:
    """Real coefficients of a Hermitian 2^n x 2^n matrix in the Pauli basis."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4,) * self.n:
            raise DimensionError(f"coefficient tensor must have shape {(4,) * self.n}")
        object.__setattr__(self, "coeffs", c)

    def conjugated(self) -> "PauliCoeffTensor":
        """Coefficients of the entrywise conjugate: Y slots flip sign."""
        return PauliCoeffTensor(self.n, self.coeffs * _conjugation_signs(self.n))


@lru_cache(maxsize=None)
def _conjugation_signs(n: int) -> np.ndarray:
    """Read-only (4,) * n tensor of +-1: -1 for each index with an odd number of Y (2) slots."""
    signs = reduce(np.multiply.outer, [np.array([1.0, 1.0, -1.0, 1.0])] * n, np.ones(()))
    signs.flags.writeable = False
    return signs


def _qubit_operator(m, n: int, tol: Tolerances) -> np.ndarray:
    """``m`` as a complex Hermitian 2^n x 2^n matrix, raising otherwise."""
    m = require_hermitian(as_operator(m), tol.structural)
    if m.shape[0] != 2**n:
        raise DimensionError(f"matrix dim {m.shape[0]} is not 2^{n}")
    return m


def _pauli_stack(stack: np.ndarray, n: int) -> np.ndarray:
    """Pauli coefficients (K, 4, ..., 4) of a (K, 2^n, 2^n) stack of Hermitian matrices.

    c[k, j_1..j_n] = Tr[(sigma_{j_1} (x) ... (x) sigma_{j_n}) m_k] / 2^n, contracted
    one qubit at a time for the whole stack: each step traces the leading row
    and column qubit of the remaining operators against the stacked basis.
    """
    t = stack.reshape((len(stack),) + (2,) * (2 * n))
    for remaining in range(n, 0, -1):
        # Tr(sigma m) = sum_{r,c} m[r, c] sigma[c, r]
        t = np.tensordot(t, _BASIS, axes=([1, remaining + 1], [2, 1]))
    return t.real / 2**n


def pauli_coeffs(m: np.ndarray, n: int, tol: Tolerances = DEFAULT_TOL) -> PauliCoeffTensor:
    """Expand a Hermitian matrix on n qubits in the Pauli basis: ``_pauli_stack`` of one matrix."""
    return PauliCoeffTensor(n, _pauli_stack(_qubit_operator(m, n, tol)[None], n)[0])


def reconstruct_from_coeffs(f: PauliCoeffTensor) -> np.ndarray:
    """Inverse of ``pauli_coeffs``."""
    t = f.coeffs.astype(complex)
    for _ in range(f.n):
        t = np.tensordot(t, _BASIS, axes=([0], [0]))
    # axes are now (row_1, col_1, ..., row_n, col_n)
    t = t.transpose(list(range(0, 2 * f.n, 2)) + list(range(1, 2 * f.n, 2)))
    return t.reshape(2**f.n, 2**f.n)


class Povm:
    """A generalized measurement: Hermitian PSD effects summing to the identity.

    This is the one measurement type: references, the embedded and trine
    POVMs, and both of Eve's measurements in a ``Scenario``.  ``effects`` is
    one read-only (K, d, d) array: the validated copy of the input for a
    dense ``Povm``, or, for one built by ``rank_one`` from the read-only rows
    ``vectors`` (K, d) of a factor with R_l = v_l v_l^dagger, built on first
    read.  ``vectors`` is None for a dense ``Povm``.  ``extreme_eigenvalues``
    (K, 2), read-only, holds the least and the greatest eigenvalue of each
    effect's Hermitian part, as the validation found them; being read-only,
    the effects cannot drift from them.
    """

    def __init__(self, effects, tol: Tolerances = DEFAULT_TOL):
        stack, diag = _validated_stack(effects, tol)
        if not diag.passed:
            raise ValidationError(
                f"invalid POVM: Hermiticity defect {max(diag.hermiticity_defects):.3e}, "
                f"min eigenvalue {min(diag.min_eigenvalues):.3e}, "
                f"completeness residual {diag.completeness_residual:.3e} "
                f"(tolerance {tol.structural:.1e})"
            )
        extremes = np.array([diag.min_eigenvalues, diag.max_eigenvalues]).T
        for a in (stack, extremes):
            a.flags.writeable = False
        self._effects, self.vectors, self.tol = stack, None, tol
        self.extreme_eigenvalues = extremes

    @classmethod
    def rank_one(cls, vectors, tol: Tolerances = DEFAULT_TOL) -> "Povm":
        """The POVM R_l = v_l v_l^dagger of the rows of ``vectors`` (K, d).

        Each v v^dagger is Hermitian with eigenvalues ||v||^2 and 0, so it is
        PSD by construction; finite entries and completeness,
        ||V^T V^* - 1|| = ||sum_l v_l v_l^dagger - 1|| within
        ``tol.structural``, are all that is left to check.
        """
        v = np.array(vectors, dtype=complex)
        if v.ndim != 2:
            raise DimensionError(f"rank-one factor must be (outcomes, dim), got shape {v.shape}")
        as_state(v, None, "rank-one factor")
        residual = float(np.linalg.norm(v.T @ v.conj() - np.eye(v.shape[1])))
        if residual > tol.structural:
            raise ValidationError(
                f"invalid POVM: rank-one factor, completeness residual {residual:.3e} "
                f"(tolerance {tol.structural:.1e})"
            )
        extremes = np.zeros((len(v), 2))
        extremes[:, 1] = np.linalg.norm(v, axis=1) ** 2
        for a in (v, extremes):
            a.flags.writeable = False
        povm = cls.__new__(cls)
        povm._effects, povm.vectors, povm.tol = None, v, tol
        povm.extreme_eigenvalues = extremes
        return povm

    @property
    def effects(self) -> np.ndarray:
        if self._effects is None:
            self._effects = self.vectors[:, :, None] * self.vectors.conj()[:, None, :]
            self._effects.flags.writeable = False
        return self._effects

    @property
    def dim(self) -> int:
        return (self._effects if self.vectors is None else self.vectors).shape[-1]

    @property
    def outcome_count(self) -> int:
        return len(self.extreme_eigenvalues)


@dataclass(frozen=True)
class PovmDiagnostics:
    hermiticity_defects: tuple
    min_eigenvalues: tuple
    max_eigenvalues: tuple
    completeness_residual: float
    passed: bool


def validate_povm(effects, tol: Tolerances = DEFAULT_TOL) -> PovmDiagnostics:
    """Per-effect Hermiticity defect and extreme eigenvalues, and the completeness residual.

    The effects are stacked once: one batched norm gives every Frobenius
    defect ||M - M^dagger||, and one batched ``eigvalsh`` of the Hermitian
    parts every least and greatest eigenvalue.  The defects, minus the least
    eigenvalues and the residual must each lie within ``tol.structural``.
    """
    return _validated_stack(effects, tol)[1]


def _validated_stack(effects, tol: Tolerances):
    """The effects stacked into a new (K, d, d) array, and ``validate_povm``'s diagnostics."""
    effects = [as_operator(m) for m in effects]
    if not effects:
        raise ValidationError("POVM needs at least one effect")
    dim = effects[0].shape[0]
    for i, m in enumerate(effects):
        if m.shape[0] != dim:
            raise DimensionError(f"effect {i} has dim {m.shape[0]}, expected {dim}")
    stack = np.stack(effects)
    adjoint = stack.conj().swapaxes(1, 2)
    defects = np.linalg.norm((stack - adjoint).reshape(len(effects), -1), axis=1)
    eigs = np.linalg.eigvalsh((stack + adjoint) / 2)
    residual = float(np.linalg.norm(stack.sum(axis=0) - np.eye(dim)))
    passed = bool(
        defects.max() <= tol.structural
        and eigs[:, 0].min() >= -tol.structural
        and residual <= tol.structural
    )
    return stack, PovmDiagnostics(tuple(defects.tolist()), tuple(eigs[:, 0].tolist()),
                                  tuple(eigs[:, -1].tolist()), residual, passed)


def ghz_basis_measurement(n: int) -> Povm:
    """The 2^n rank-one projectors onto the GHZ-like basis."""
    from .bell import all_labels, ghz_vector  # local import avoids a cycle

    if n < 2:
        raise DimensionError("GHZ basis needs at least two parties")
    return Povm.rank_one([ghz_vector(label) for label in all_labels(n)])


def _embed_block(m: np.ndarray, dim: int) -> np.ndarray:
    """Zero-pad a D x D operator into the top-left block of dim x dim.

    The standard-basis embedding |i> -> |binary(i)> is exactly this padding.
    """
    out = np.zeros((dim, dim), dtype=complex)
    d = m.shape[0]
    out[:d, :d] = m
    return out


def embed_projective(effects, n: int, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Embed mutually orthogonal projections on C^D into n qubits.

    Appends the complement projector M_perp = 1 - sum(embedded) unless the
    input already resolves the full space.
    """
    effects = [require_hermitian(as_operator(m), tol.structural) for m in effects]
    if not effects:
        raise DimensionError("projective measurement needs at least one effect")
    d = effects[0].shape[0]
    dim = 2**n
    if d > dim:
        raise DimensionError(f"cannot embed dim {d} into 2^{n} = {dim}")
    for i, p in enumerate(effects):
        if p.shape[0] != d:
            raise DimensionError(f"effect {i} has dim {p.shape[0]}, expected {d}")
        if np.linalg.norm(p @ p - p) > 100 * tol.structural:
            raise ContractViolation(f"effect {i} is not a projection")
        for j in range(i):
            if np.linalg.norm(effects[j] @ p) > 100 * tol.structural:
                raise ContractViolation(f"effects {j} and {i} are not orthogonal")
    embedded = [_embed_block(p, dim) for p in effects]
    perp = np.eye(dim) - sum(embedded)
    if np.linalg.norm(perp) > tol.structural:
        embedded.append(perp)
    return Povm(tuple(embedded), tol)


def embed_rank1_povm(povm: Povm, n: int, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """Embed a complete rank-one POVM on C^D into n qubits, as a rank-one factor.

    Pads each v_l with zeros and appends the unused basis vectors
    e_{2^n - 1}, ..., e_D, which span the complement of the embedded block;
    the completed measurement stays extremal whenever the input is.
    """
    d = povm.dim
    dim = 2**n
    if d > dim:
        raise DimensionError(f"cannot embed dim {d} into 2^{n} = {dim}")
    v = np.zeros((povm.outcome_count, dim), dtype=complex)
    v[:, :d] = _rank_one_factor(povm, tol)  # raises on a non-rank-one or zero effect
    return Povm.rank_one(np.concatenate([v, np.eye(dim)[::-1][:dim - d]]), tol)


@dataclass(frozen=True)
class ExtremalityCertificate:
    extremal: bool
    gram_min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.extremal


def _rank_one_factor(povm: Povm, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rows v_l (K, d) with R_l = v_l v_l^dagger, raising on an effect that is not rank-one or zero.

    A dense ``Povm`` is factored through each effect's eigendecomposition:
    v_l is the top eigenvector scaled by the square root of its eigenvalue.
    """
    v = povm.vectors
    if v is None:
        rows = []
        for i, m in enumerate(povm.effects):
            vals, vecs = hermitian_eig(m, tol)
            if len(vals) > 1 and abs(vals[1]) >= tol.rank:
                raise ContractViolation(
                    f"effect {i} is not rank-one (second eigenvalue {vals[1]:.3e})"
                )
            rows.append(np.sqrt(max(vals[0], 0.0)) * vecs[:, 0])
        v = np.array(rows)
    zero = np.linalg.norm(v, axis=1) ** 2 <= tol.rank  # ||v v^dagger|| = ||v||^2
    if zero.any():
        raise ContractViolation(f"effect {int(np.argmax(zero))} is numerically zero")
    return v


def is_extremal_rank1(povm: Povm, tol: Tolerances = DEFAULT_TOL) -> ExtremalityCertificate:
    """Extremality test for a rank-one POVM.

    A rank-one POVM is extremal iff its effects are linearly independent as
    operators.  Since Tr[(v_k v_k^dagger)(v_l v_l^dagger)] = |<v_k|v_l>|^2,
    the Gram matrix of the Frobenius-normalized effects is
    |<v_k|v_l>|^2 / (||v_k||^2 ||v_l||^2), read from the rank-one factor; the
    certificate is its minimal eigenvalue.
    """
    v = _rank_one_factor(povm, tol)
    sq = np.linalg.norm(v, axis=1) ** 2
    gram = np.abs(v.conj() @ v.T) ** 2 / np.outer(sq, sq)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    return ExtremalityCertificate(extremal=min_eig > tol.rank, gram_min_eigenvalue=min_eig)


@dataclass(frozen=True)
class MixedStateSpec:
    """Spectral description of a full-rank target state on C^d."""

    d: int
    weights: tuple
    vectors: tuple

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        vectors = tuple(as_state(v, None, f"vector {k}") for k, v in enumerate(self.vectors))
        if len(weights) != len(vectors):
            raise ValidationError("need one weight per eigenvector")
        if not all(np.isfinite(weights)):
            raise ValidationError(f"weights must be finite, got {weights}")
        if any(w <= 0 for w in weights):
            raise ValidationError("weights must be strictly positive")
        if abs(sum(weights) - 1) > 1e-12:
            raise ValidationError(f"weights sum to {sum(weights)}, expected 1")
        for k, v in enumerate(vectors):
            if v.size != self.d:
                raise DimensionError(f"vector {k} has dim {v.size}, expected {self.d}")
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        if np.linalg.norm(gram - np.eye(len(vectors))) > DEFAULT_TOL.structural:
            raise ValidationError("eigenvectors are not orthonormal within tolerance")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @property
    def rank(self) -> int:
        return len(self.weights)

    def density_matrix(self) -> np.ndarray:
        rho = np.zeros((self.d, self.d), dtype=complex)
        for w, v in zip(self.weights, self.vectors):
            rho += w * np.outer(v, v.conj())
        return rho


def trine_povm(spec: MixedStateSpec, tol: Tolerances = DEFAULT_TOL) -> Povm:
    """The 3d-outcome rank-one POVM on C^{2d} that prepares ``spec`` remotely.

    Component k contributes three effects; the first one is p_k |psi_k><psi_k|,
    so the (k, 1) outcomes reconstruct the target state.  Companion vectors
    live in a second d-dimensional block, which makes them orthogonal to every
    eigenvector by construction.
    """
    if spec.rank != spec.d:
        raise ValidationError(
            f"trine construction needs a full-rank state: got rank {spec.rank} on C^{spec.d}"
        )
    d = spec.d
    dim = 2 * d
    rows = []
    for k, (p, v) in enumerate(zip(spec.weights, spec.vectors)):
        if p <= tol.probability:
            raise ValidationError(f"weight p_{k} = {p} too small for the trine construction")
        psi = np.concatenate([v, np.zeros(d, dtype=complex)])
        phi = np.concatenate([np.zeros(d, dtype=complex), v])
        tau2 = np.sqrt((1 - p) / (2 - p)) * psi + np.sqrt(1 / (2 - p)) * phi
        tau3 = -np.sqrt((1 - p) / (2 - p)) * psi + np.sqrt(1 / (2 - p)) * phi
        # effects p |psi><psi| and (2 - p)/2 |tau><tau|
        rows += [np.sqrt(p) * psi, np.sqrt((2 - p) / 2) * tau2, np.sqrt((2 - p) / 2) * tau3]
    return Povm.rank_one(rows, tol)


def trine_preparation_outcomes(spec: MixedStateSpec):
    """Indices of the (k, 1) effects inside ``trine_povm``'s effect list."""
    return [3 * k for k in range(spec.rank)]
