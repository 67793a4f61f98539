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

from .bell import SQRT2
from .config import DEFAULT_TOL, Tolerances
from .errors import ContractViolation, DimensionError, ValidationError
from .network import _FACTOR_SLACK, _basis_expansion, _basis_operators, _first_fault
from .tensor import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_state,
    check_hermitian,
    hermitian_defects,
    hermitian_part,
    operator_stack,
    require_hermitian,
)

# Row j is sigma_j^T flattened, over 2: it sends a flattened X to Tr[sigma_j X] / 2.
_PAULI_MAP = np.stack((PAULI_Z, PAULI_X, PAULI_Y, ID2)).transpose(0, 2, 1).reshape(4, 4) / 2
_PAULI_MAP.flags.writeable = False


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


def _pauli_map(d: int) -> np.ndarray:
    """``_PAULI_MAP``, the one-qubit map of ``_pauli_expansion`` (d = 2)."""
    return _PAULI_MAP


def _pauli_expansion(meas, n: int) -> np.ndarray:
    """Pauli coefficients (K, 4, ..., 4) of a (K, 2^n, 2^n) stack or a ``Povm`` on n qubits.

    The ``_basis_expansion`` with ``_PAULI_MAP`` on every qubit, in real
    arithmetic: rows Z, X and identity are real, and row Y is imaginary.
    """
    return _basis_expansion(meas, (2,) * n, _pauli_map)


def pauli_coeffs(m: np.ndarray, n: int, tol: Tolerances = DEFAULT_TOL) -> PauliCoeffTensor:
    """Expand a Hermitian matrix on n qubits in the Pauli basis: its ``_pauli_expansion``."""
    m = require_hermitian(m, tol.structural)
    if m.shape[0] != 2**n:
        raise DimensionError(f"matrix dim {m.shape[0]} is not 2^{n}")
    return PauliCoeffTensor(n, _pauli_expansion(m[None], n)[0])


def reconstruct_from_coeffs(f: PauliCoeffTensor) -> np.ndarray:
    """Inverse of ``pauli_coeffs``: ``_basis_operators`` with ``_PAULI_MAP`` on every qubit."""
    return _basis_operators(f.coeffs[None], (2,) * f.n, _pauli_map)[0]


class Povm:
    """A generalized measurement: Hermitian PSD effects summing to the identity.

    This is the one measurement type: references, the embedded and trine
    POVMs, and both of Eve's measurements in a ``Scenario``.  ``effects`` is
    one read-only (K, d, d) array: for a dense ``Povm``, the validated input,
    copied unless it already is a read-only complex stack (a decoded file's
    or another ``Povm``'s), or, for one built by ``rank_one`` from the
    read-only rows ``vectors`` (K, d) of a factor with R_l = v_l v_l^dagger,
    built on first read.  ``vectors`` is None for a dense ``Povm``.
    ``spectrum``, read-only, holds the ascending eigenvalues the validation
    found: the (K, 2) rows (0, ||v_l||^2) of a rank-one factor, whether held
    or read from dense effects (``_factor_spectrum``), or else the (K, d)
    ``eigvalsh`` of the effects' Hermitian parts.  Rounding alone separates
    them from the effects: a row of a dense effect lies within
    ``_FACTOR_SLACK`` d u ||v_l||^2 (u = 2^-53) of its exact eigenvalues,
    and ``eigvalsh`` within order d u ||R_l||.
    """

    def __init__(self, effects, tol: Tolerances = DEFAULT_TOL):
        """Validate the stacked effects: the first faulty one in order raises, then completeness."""
        stack = operator_stack(effects, "effect")
        defects = hermitian_defects(stack)
        parts = hermitian_part(stack)
        # an entry near the float64 limit can overflow a Hermitian part: its spectrum is NaN
        undefined = ~np.isfinite(parts).all(axis=(1, 2))
        spectrum = None if undefined.any() else _factor_spectrum(parts, tol)
        if spectrum is None:
            parts[undefined] = 0.0
            spectrum = np.linalg.eigvalsh(parts)
            spectrum[undefined] = np.nan
        faulty = (defects > tol.structural) | ~(spectrum[:, 0] >= -tol.structural)
        if faulty.any():
            k = int(np.argmax(faulty))
            low = (f"min eigenvalue {spectrum[k, 0]:.3e}" if not np.isnan(spectrum[k, 0])
                   else "eigenvalues cannot be computed")
            raise ValidationError(f"invalid POVM: effect {k}: Hermiticity defect "
                                  f"{defects[k]:.3e}, {low} (tolerance {tol.structural:.1e})")
        residual = float(np.linalg.norm(stack.sum(axis=0) - np.eye(stack.shape[1])))
        if residual > tol.structural:
            raise ValidationError(f"invalid POVM: completeness residual {residual:.3e} "
                                  f"(tolerance {tol.structural:.1e})")
        for a in (stack, spectrum):
            a.flags.writeable = False
        self._effects, self.vectors, self.tol, self.spectrum = stack, None, tol, spectrum

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
        as_state(v, "rank-one factor")
        residual = float(np.linalg.norm(v.T @ v.conj() - np.eye(v.shape[1])))
        if residual > tol.structural:
            raise ValidationError(
                f"invalid POVM: rank-one factor, completeness residual {residual:.3e} "
                f"(tolerance {tol.structural:.1e})"
            )
        spectrum = np.stack([np.zeros(len(v)), np.linalg.norm(v, axis=1) ** 2], axis=1)
        for a in (v, spectrum):
            a.flags.writeable = False
        povm = cls.__new__(cls)
        povm._effects, povm.vectors, povm.tol, povm.spectrum = None, v, tol, spectrum
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
        return len(self.spectrum)

    @property
    def extreme_eigenvalues(self) -> np.ndarray:
        """(K, 2), read-only: the least and the greatest eigenvalue of each effect."""
        extremes = self.spectrum[:, [0, -1]]
        extremes.flags.writeable = False
        return extremes


def _factor_spectrum(parts: np.ndarray, tol: Tolerances):
    """The (K, 2) rows (0, ||v_l||^2) of Hermitian parts H_l = v_l v_l^dagger to rounding, or None.

    A complete rank-one POVM on C^d has at least d effects, so a shorter
    stack is None at once.  v is H[:, j] / sqrt(H[j, j]) at H's largest
    diagonal entry j, exact for H = w w^dagger up to a phase of w.  Each H
    is accepted when ||H - v v^dagger||_F <= _FACTOR_SLACK d u ||v||^2,
    within ``tol.structural`` too; then, by Weyl's inequality, every exact
    eigenvalue of H lies that close to 0 or ||v||^2, so H passes the PSD
    check that ``eigvalsh`` would make.  Any other stack, a zero or a
    negative effect among them, is None: ``Povm`` then takes the full
    spectrum.
    """
    k, d = parts.shape[:2]
    if k < d:
        return None
    rows = np.arange(k)
    diagonal = parts.diagonal(axis1=1, axis2=2).real
    j = diagonal.argmax(axis=1)
    top = diagonal[rows, j]
    if not (top > 0).all():
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a huge off-diagonal entry is refused
        v = parts[rows, :, j] / np.sqrt(top)[:, None]
        residual = v[:, :, None] * v.conj()[:, None, :]
        residual -= parts
        flat, real = residual.view(float).reshape(k, -1), v.view(float)
        squares = np.einsum("ki,ki->k", flat, flat)
        spectrum = np.zeros((k, 2))
        spectrum[:, 1] = np.einsum("ki,ki->k", real, real)
    cut = np.minimum(_FACTOR_SLACK * d * np.finfo(float).eps / 2 * spectrum[:, 1], tol.structural)
    return spectrum if (squares <= cut * cut).all() else None


def ghz_basis_measurement(n: int) -> Povm:
    """The 2^n rank-one projectors onto the GHZ-like basis."""
    if n < 2:
        raise DimensionError("GHZ basis needs at least two parties")
    # Row l is bell.ghz_vector of label l: 1/sqrt2 at l, (-1)^{l_1}/sqrt2 at its complement
    # 2^n - 1 - l, so the diagonal and the anti-diagonal.  Basic slices of the flat array
    # set both: integer index arithmetic would page in numpy code no other step runs.
    dim = 2**n
    v = np.zeros((dim, dim), dtype=complex)
    flat = v.reshape(-1)
    flat[::dim + 1] = 1 / SQRT2
    anti = flat[dim - 1:-1:dim - 1]
    anti[:dim // 2] = 1 / SQRT2
    anti[dim // 2:] = -1 / SQRT2
    return Povm.rank_one(v)


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
    effects = operator_stack(effects, "effect")
    check_hermitian(effects, tol.structural)
    d = effects.shape[1]
    dim = 2**n
    if d > dim:
        raise DimensionError(f"cannot embed dim {d} into 2^{n} = {dim}")
    for i, p in enumerate(effects):
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


def _check_effects_hermitian(povm: Povm, tol: Tolerances) -> None:
    """Check a held ``Povm``'s effects for Hermiticity at ``tol.structural``.

    A rank-one ``Povm`` is Hermitian by construction, and the validation of
    a dense one bounded each defect by its own ``tol.structural``, so it is
    checked again only when that was looser than the run's.
    """
    if povm.vectors is None and povm.tol.structural > tol.structural:
        check_hermitian(povm.effects, tol.structural)


def _rank_one_factor(povm: Povm, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rows v_l (K, d) with R_l = v_l v_l^dagger, raising on an effect that is not rank-one or zero.

    A dense ``Povm`` (``_check_effects_hermitian``) is factored through one
    batched eigendecomposition of its effects' Hermitian parts: v_l is the
    top eigenvector scaled by the square root of its eigenvalue.  The first
    faulty effect raises, by its first failing check (``_first_fault``).
    """
    v, checks = povm.vectors, []
    if v is None:
        _check_effects_hermitian(povm, tol)
        vals, vecs = np.linalg.eigh(hermitian_part(povm.effects))
        # each effect's second-largest eigenvalue; a 1 x 1 effect has none
        second = vals[:, -2:-1]
        checks.append(((np.abs(second) < tol.rank).all(axis=1), lambda k: ContractViolation(
            f"effect {k} is not rank-one (second eigenvalue {second[k, 0]:.3e})")))
        v = np.sqrt(np.maximum(vals[:, -1], 0.0))[:, None] * vecs[:, :, -1]
    norms = np.linalg.norm(v, axis=1) ** 2  # ||v v^dagger|| = ||v||^2
    checks.append((norms > tol.rank, lambda k: ContractViolation(f"effect {k} is numerically zero")))
    fault = _first_fault(checks)
    if fault:
        raise fault[1]
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
        vectors = tuple(as_state(v, f"vector {k}") for k, v in enumerate(self.vectors))
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
