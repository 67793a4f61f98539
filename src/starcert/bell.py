"""The 2^N-member Bell expression family, its bounds, and SOS diagnostics.

Each expression is labelled by an N-bit string l = l_1...l_N (party 1 owns
the leading bit).  The classical bound is (sqrt(2)+1)(N-1), the quantum
bound 3(N-1); both are label-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ConditioningError, DimensionError
from .network import BinaryObservableTriple, CorrelationTable
from .tensor import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermitian_eig,
    kron,
    kron_all,
    require_hermitian,
)

SQRT2 = math.sqrt(2.0)


def classical_bound_formula(n: int) -> float:
    return (SQRT2 + 1.0) * (n - 1)


def quantum_bound(n: int) -> float:
    return 3.0 * (n - 1)


@dataclass(frozen=True)
class BellOutcomeLabel:
    """N-bit outcome label; ``value`` packs the bits with l_1 most significant."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits) or len(bits) < 2:
            raise DimensionError(f"label bits must be >= 2 binary digits, got {self.bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        out = 0
        for b in self.bits:
            out = 2 * out + b
        return out

    @classmethod
    def from_value(cls, value: int, n: int) -> "BellOutcomeLabel":
        if not 0 <= value < 2**n:
            raise DimensionError(f"label value {value} out of range for N={n}")
        return cls(tuple((value >> (n - 1 - i)) & 1 for i in range(n)))


def all_labels(n: int):
    return [BellOutcomeLabel.from_value(v, n) for v in range(2**n)]


@dataclass(frozen=True)
class BellEvaluation:
    label: BellOutcomeLabel
    value: float
    classical_bound: float
    quantum_bound: float
    violated: bool
    maximal: bool


@dataclass(frozen=True)
class SosResiduals:
    """Norms of the SOS terms applied to a state.

    The weighted square sum (N-1)*p^2 + sum(r^2) + sum(q^2) equals
    2*[3(N-1) - <Bell operator>] for unitary dichotomic observables.
    """

    p_norm: float
    r_norms: tuple
    q_norms: tuple

    @property
    def n(self) -> int:
        return len(self.r_norms) + 1

    def weighted_square_sum(self) -> float:
        return (
            (self.n - 1) * self.p_norm**2
            + sum(r**2 for r in self.r_norms)
            + sum(q**2 for q in self.q_norms)
        )

    def max_residual(self) -> float:
        return max((self.p_norm,) + self.r_norms + self.q_norms)


def tilde_observables(a0: np.ndarray, a1: np.ndarray):
    """Rotated pair ((a0 - a1)/sqrt2, (a0 + a1)/sqrt2) for party 1."""
    a0 = require_hermitian(np.asarray(a0, dtype=complex), what="a0")
    a1 = require_hermitian(np.asarray(a1, dtype=complex), what="a1")
    if a0.shape != a1.shape:
        raise DimensionError(f"shape mismatch {a0.shape} vs {a1.shape}")
    return (a0 - a1) / SQRT2, (a0 + a1) / SQRT2


def ideal_observables(n: int):
    """The qubit observables achieving the quantum bound.

    Party 1 measures ((X+Z)/sqrt2, (X-Z)/sqrt2, Y); every other party
    measures (Z, X, Y).
    """
    if n < 2:
        raise DimensionError("need at least two external parties")
    first = BinaryObservableTriple(
        (PAULI_X + PAULI_Z) / SQRT2, (PAULI_X - PAULI_Z) / SQRT2, PAULI_Y
    )
    rest = BinaryObservableTriple(PAULI_Z, PAULI_X, PAULI_Y)
    return [first] + [rest] * (n - 1)


def ghz_vector(label: BellOutcomeLabel) -> np.ndarray:
    """GHZ-like vector (|l_1...l_N> + (-1)^{l_1} |complement>)/sqrt2."""
    n = label.n
    v = np.zeros(2**n, dtype=complex)
    idx = label.value
    v[idx] = 1 / SQRT2
    v[2**n - 1 - idx] += (-1) ** label.bits[0] / SQRT2
    return v


@lru_cache(maxsize=None)
def bell_terms(n: int):
    """The whole family as one read-only (support, coeffs) table.

    ``support`` is (2N-1, N): row k holds the correlator-tensor indices of
    term k, in the index basis of ``CorrelationTable.correlator_tensor``
    (j < 3 selects A_j, 3 the identity; party 1's 0 and 1 select the rotated
    pair (A_0 -+ A_1)/sqrt2).  Row 0 is the P term (1, ..., 1), rows
    1..N-1 the R_i terms (0 on parties 1 and i, 3 elsewhere), rows N..2N-2
    the Q_i terms (2 on parties 1 and i, 1 elsewhere).  ``coeffs`` is
    (2^N, 2N-1): label l weighs them by (N-1) s_1, s_1 s_i and -s_i, with
    s_i = (-1)^{l_i}, so expression l is
    (-1)^{l_1} [(N-1) A~_{1,1} prod_{i>1} A_{i,1}
                + sum_{i>1} (-1)^{l_i} A~_{1,0} A_{i,0}]
    - sum_{i>1} (-1)^{l_i} A_{1,2} A_{i,2} prod_{j>1, j != i} A_{j,1}.
    """
    support = np.ones((2 * n - 1, n), dtype=int)
    for i in range(1, n):
        support[i] = 3
        support[i, [0, i]] = 0
        support[n - 1 + i, [0, i]] = 2
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    s = (1 - 2 * bits).astype(float)
    coeffs = np.concatenate([(n - 1) * s[:, :1], s[:, :1] * s[:, 1:], -s[:, 1:]], axis=1)
    support.flags.writeable = False
    coeffs.flags.writeable = False
    return support, coeffs


def _bell_values(n: int, t: np.ndarray, weights: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Bell values of correlator tensors t (..., K, 4, ..., 4) with weights P(l|e) (..., K).

    Covers the first min(2^N, K) labels.  Label l's value is its coefficient
    row dotted with the support entries of the correlator tensor of outcome
    l, divided by P(l | e); it is NaN where P(l | e) is too small to
    condition on.
    """
    support, coeffs = bell_terms(n)
    k = min(len(coeffs), weights.shape[-1])
    raw = (t[(Ellipsis, slice(k), *support.T)] * coeffs[:k]).sum(axis=-1)
    weights = weights[..., :k]
    values = np.full(raw.shape, np.nan)
    np.divide(raw, weights, out=values, where=weights > tol.probability)
    return values


def bell_values(table: CorrelationTable, e: int = 0) -> np.ndarray:
    """Bell values of the first min(2^N, K_e) labels on outcomes of Eve's input e.

    Label l's value is NaN where P(l | e) is too small to condition on.
    """
    return _bell_values(table.n, table.correlator_tensor(e), table.outcome_weights(e), table.tol)


def bell_value(table: CorrelationTable, label: BellOutcomeLabel, e: int = 0) -> float:
    """Bell value of one label, raising ConditioningError where ``bell_values`` is NaN."""
    if label.n != table.n:
        raise DimensionError(f"label has {label.n} bits, table has N={table.n}")
    p = table.pbar(label.value, e)
    if p <= table.tol.probability:
        raise ConditioningError(
            f"cannot condition on outcome l={label.value}, e={e}: probability {p:.3e}"
        )
    return float(bell_values(table, e)[label.value])


@dataclass(frozen=True)
class ClassicalBoundResult:
    bound: float
    strategy: np.ndarray          # (N, 3) array of +-1 signs, argmax for l = 0
    per_label_maxima: np.ndarray  # one maximum per label value


def _deterministic_values(n: int) -> np.ndarray:
    """Signs s[t, i, j] for all 8^N deterministic strategies.

    Strategy index t packs one bit per (party, input); party 1 sits in the
    lowest bits so that it varies innermost in the enumeration.
    """
    t = np.arange(8**n)
    signs = np.empty((len(t), n, 3))
    for i in range(n):
        for j in range(3):
            signs[:, i, j] = 1 - 2 * ((t >> (3 * i + j)) & 1)
    return signs


def classical_bound_bruteforce(n: int) -> ClassicalBoundResult:
    """Exact maximum over all local deterministic strategies, for every label."""
    if not 2 <= n <= 5:
        raise DimensionError("exhaustive classical bound supports 2 <= N <= 5")
    s = _deterministic_values(n)
    # A strategy's value contracts the family's terms with the outcome
    # products; slots[t, i, j] is party i's index-j value (party 1 rotated,
    # index 3 the identity's 1).
    slots = np.concatenate([s, np.ones((8**n, n, 1))], axis=2)
    slots[:, 0, 0] = (s[:, 0, 0] - s[:, 0, 1]) / SQRT2
    slots[:, 0, 1] = (s[:, 0, 0] + s[:, 0, 1]) / SQRT2
    support, coeffs = bell_terms(n)
    terms = np.ones((8**n, len(support)))
    for i, js in enumerate(support.T):
        terms *= slots[:, i, js]
    values = terms @ coeffs.T
    per_label = values.max(axis=0)
    best = int(np.argmax(values[:, 0]))
    return ClassicalBoundResult(
        bound=float(per_label[0]),
        strategy=s[best].copy(),
        per_label_maxima=per_label,
    )


def _party_slots(observables):
    """Per party (A_0, A_1, A_2, 1) in correlator-tensor index order; party 1 rotated."""
    slots = []
    for i, triple in enumerate(observables):
        a0, a1, a2 = triple.observables()
        if i == 0:
            a0, a1 = tilde_observables(a0, a1)
        slots.append((a0, a1, a2, np.eye(triple.dim, dtype=complex)))
    return slots


def _label_terms(label: BellOutcomeLabel, observables: list):
    """``bell_terms``' support, the label's coefficient row and the party slots."""
    if label.n != len(observables):
        raise DimensionError(f"label has {label.n} bits, got {len(observables)} observable triples")
    support, coeffs = bell_terms(label.n)
    return support, coeffs[label.value], _party_slots(observables)


def bell_operator(label: BellOutcomeLabel, observables) -> np.ndarray:
    """The Bell expression as a Hermitian operator on the joint Alice space."""
    support, coeffs, slots = _label_terms(label, list(observables))
    return sum(
        c * kron_all([slots[i][j] for i, j in enumerate(row)])
        for c, row in zip(coeffs, support)
    )


def sos_residuals(label: BellOutcomeLabel, observables, state: np.ndarray) -> SosResiduals:
    """Norms of the SOS operators applied to a joint Alice state.

    Term k of ``bell_terms`` gives sign(c_k) X_k (x) 1 - 1 (x) Y_k, with X_k
    party 1's factor and Y_k the product of the others.
    """
    observables = list(observables)
    support, coeffs, slots = _label_terms(label, observables)
    dims = [t.dim for t in observables]
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.size != int(np.prod(dims)):
        raise DimensionError(
            f"state dim {state.size} does not match joint observable dim {int(np.prod(dims))}"
        )
    eye_rest = np.eye(state.size // dims[0], dtype=complex)
    norms = []
    for c, row in zip(coeffs, support):
        y = kron_all([slots[i][j] for i, j in enumerate(row) if i > 0])
        op = np.sign(c) * kron(slots[0][row[0]], eye_rest) - kron(slots[0][3], y)
        norms.append(float(np.linalg.norm(op @ state)))
    n = label.n
    return SosResiduals(p_norm=norms[0], r_norms=tuple(norms[1:n]), q_norms=tuple(norms[n:]))


def _evaluation(label: BellOutcomeLabel, value: float, tol: Tolerances) -> BellEvaluation:
    """One label's value with its bounds and verdict flags; NaN flags neither."""
    beta_c = classical_bound_formula(label.n)
    beta_q = quantum_bound(label.n)
    return BellEvaluation(
        label=label,
        value=value,
        classical_bound=beta_c,
        quantum_bound=beta_q,
        violated=value > beta_c + tol.acceptance,
        maximal=abs(value - beta_q) <= tol.acceptance,
    )


def max_bell_eigenvalue(label: BellOutcomeLabel, observables,
                        tol: Tolerances = DEFAULT_TOL) -> float:
    op = bell_operator(label, observables)
    vals, _ = hermitian_eig(op, tol)
    return float(vals[0])
