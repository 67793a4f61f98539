"""Star-network scenario description and Born-rule behavior computation.

A scenario has N external parties ("Alices"), each holding three dichotomic
observables, a central party ("Eve") with two measurements, and N independent
bipartite sources, one per Alice-Eve pair.  ``born_table`` evaluates the full
behavior p(a, l | x, e) exactly.

Conventions:
  * tensor factor 0 is the most significant index block (big-endian),
  * party 1 owns the leading bit of outcome strings,
  * Eve's first measurement (e = 0) has exactly 2^N outcomes,
  * the correlator tensor T[l, j_1..j_N] of ``CorrelationTable`` uses the
    Pauli index convention of ``measurements``: index j in {0, 1, 2} pairs
    with observable A_j (Z, X, Y on the ideal qubits), index 3 marginalizes
    the party, and party 1 is rotated, so its indices 0 and 1 select
    (A_0 - A_1)/sqrt2 and (A_0 + A_1)/sqrt2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ConditioningError, DimensionError, ValidationError
from .tensor import as_operator, is_psd, kron_all, reorder_factors, require_hermitian


@dataclass(frozen=True)
class BinaryObservableTriple:
    """One party's three dichotomic observables A_0, A_1, A_2."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        dims = set()
        for name in ("a0", "a1", "a2"):
            m = require_hermitian(as_operator(getattr(self, name)), what=f"observable {name}")
            object.__setattr__(self, name, m)
            dims.add(m.shape[0])
            # dichotomic contract: A = M_0 - M_1 forces spectrum within [-1, 1]
            top = np.linalg.norm(m, ord=2)
            if top > 1 + DEFAULT_TOL.spectral:
                raise ValidationError(
                    f"observable {name} has spectral radius {top:.6g} > 1"
                )
        if len(dims) != 1:
            raise DimensionError(f"observables of one party must share a dimension, got {dims}")

    @property
    def dim(self) -> int:
        return self.a0.shape[0]

    def observables(self):
        return (self.a0, self.a1, self.a2)


def _as_density_operator(state, path: str) -> np.ndarray:
    """Accept a pure-state vector or a density matrix; return a density matrix."""
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        norm = np.linalg.norm(arr)
        if abs(norm - 1) > 1e-10:
            raise ValidationError(f"{path}: state vector norm {norm} deviates from 1")
        return np.outer(arr, arr.conj())
    rho = require_hermitian(as_operator(arr), what=path)
    if abs(np.trace(rho).real - 1) > DEFAULT_TOL.structural:
        raise ValidationError(f"{path}: density operator trace {np.trace(rho).real} is not 1")
    if not is_psd(rho, DEFAULT_TOL.structural):
        raise ValidationError(f"{path}: density operator is not positive semi-definite")
    return rho


@dataclass(frozen=True)
class Scenario:
    """Full description of the star network.

    ``sources[i]`` is a density operator on the i-th Alice-Eve pair with the
    Alice factor first; its Alice dimension is fixed by ``alice_observables[i]``.
    ``eve`` holds the two central measurements as ``measurements.Povm``s
    (e = 0 with exactly 2^N outcomes, e = 1 with K <= 4^N outcomes).
    """

    n_parties: int
    sources: tuple
    alice_observables: tuple
    eve: tuple

    def __post_init__(self):
        n = int(self.n_parties)
        if n < 2:
            raise ValidationError("n_parties must be at least 2")
        object.__setattr__(self, "n_parties", n)
        if len(self.sources) != n or len(self.alice_observables) != n:
            raise DimensionError("need one source and one observable triple per party")
        if len(self.eve) != 2:
            raise ValidationError("eve must hold exactly two measurements (e = 0, 1)")
        sources = tuple(
            _as_density_operator(s, f"sources[{i}]") for i, s in enumerate(self.sources)
        )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "alice_observables", tuple(self.alice_observables))
        object.__setattr__(self, "eve", tuple(self.eve))
        for i, (rho, triple) in enumerate(zip(sources, self.alice_observables)):
            d_a = triple.dim
            if rho.shape[0] % d_a != 0:
                raise DimensionError(
                    f"sources[{i}] dim {rho.shape[0]} is not a multiple of the "
                    f"party dimension {d_a}"
                )
        d_e_total = int(np.prod(self.eve_dims))
        for e, meas in enumerate(self.eve):
            if meas.dim != d_e_total:
                raise DimensionError(
                    f"eve measurement e={e} acts on dim {meas.dim}, "
                    f"sources imply {d_e_total}"
                )
        if self.eve[0].outcome_count != 2**n:
            raise ValidationError(
                f"Eve's first measurement must have exactly 2^N = {2**n} outcomes, "
                f"got {self.eve[0].outcome_count}; scenarios with 2^N - 1 outcomes are "
                "rejected deliberately (the outcome label l runs over all N-bit strings)"
            )
        # 4^N is the outcome cap of any extremal measurement on Eve's space;
        # embedded references can exceed 2^N through their completion outcomes
        if self.eve[1].outcome_count > 4**n:
            raise ValidationError(
                f"Eve's second measurement may have at most 4^N = {4**n} outcomes"
            )

    @property
    def alice_dims(self) -> tuple:
        return tuple(t.dim for t in self.alice_observables)

    @property
    def eve_dims(self) -> tuple:
        return tuple(
            rho.shape[0] // t.dim for rho, t in zip(self.sources, self.alice_observables)
        )


def effects_from_observable(a: np.ndarray):
    """Dichotomic effects (M_0, M_1) = ((1 + A)/2, (1 - A)/2)."""
    eye = np.eye(a.shape[0])
    return (eye + a) / 2, (eye - a) / 2


def assemble_joint_state(scenario: Scenario) -> np.ndarray:
    """Joint density operator reordered to A_1...A_N (x) E_1...E_N.

    This is the dense reference route used by the test oracles; the
    production paths (``born_table``, ``post_measurement_state``) contract
    the sources one at a time and never form it.
    """
    rho = kron_all(scenario.sources)
    dims = []
    for d_a, d_e in zip(scenario.alice_dims, scenario.eve_dims):
        dims.extend([d_a, d_e])
    n = scenario.n_parties
    # factors currently alternate A_i, E_i; bring all A's to the front
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    return reorder_factors(rho, dims, perm)


def _party_map(rotated: bool) -> np.ndarray:
    """M[j, (x, a)] with <A_j> = sum_{x,a} M[j, (x, a)] p(a|x); row 3 sums input 0's outcomes.

    ``rotated`` (party 1) replaces rows 0 and 1 by (row 0 -+ row 1)/sqrt2.
    """
    m = np.zeros((4, 3, 2))
    m[[0, 1, 2], [0, 1, 2]] = (1.0, -1.0)
    m[3, 0] = 1.0
    if rotated:
        m[:2] = np.array([m[0] - m[1], m[0] + m[1]]) / np.sqrt(2.0)
    return m.reshape(4, 6)


_PARTY_MAP = _party_map(rotated=False)
_ROTATED_MAP = _party_map(rotated=True)


def _contract_parties(t: np.ndarray, maps) -> np.ndarray:
    """out[..., l, m_1..m_N] = sum_k t[..., l, k_1..k_N] prod_i maps[i][..., m_i, k_i].

    Each map is (m_i, k_i), or (L, m_i, k_i) with one map per level; ``t``
    has as many leading level axes as the maps, then the axis l.  One
    batched matmul per party on the (..., l, k_i, rest) view of ``t``; the
    new axis m_i goes to the end, so after N steps the axes are back in
    party order without a transpose in between.  The axes of ``t`` after l
    may be any that flatten to (k_1, ..., k_N); a non-contiguous ``t`` is
    copied by the first step only, and that copy is freed after it.
    """
    lead = t.shape[:maps[0].ndim - 1]
    for m in maps:
        t = np.matmul(t.reshape(lead + (m.shape[-1], -1)).swapaxes(-1, -2),
                      m.swapaxes(-1, -2)[..., None, :, :])
    return t.reshape(lead + tuple(m.shape[-2] for m in maps))


# A noise scan's stack of levels and a correlator's chunk of outcomes hold
# about this many table entries (512 KB of float64): enough that 33 levels
# at N = 3 share the fixed cost of each numpy call, while the transposed copy
# a correlator contraction makes stays small however many outcomes Eve has
# (the e = 0 table alone is 286 MB at N = 7).
_CHUNK_ENTRIES = 2**16


def _check_tables(n: int, p0: np.ndarray, p1: np.ndarray, tol: Tolerances) -> None:
    """The checks of ``CorrelationTable`` on (L, 2^N, K, 3^N) stacks, all levels at once.

    Raises what the tables of the levels, built one at a time, would raise
    first: the first failing check, in the order below, of the first
    failing level.
    """
    first, error = len(p0), None

    def check(failed, make_error):
        nonlocal first, error
        if failed[:first].any():
            first = int(np.argmax(failed))
            error = make_error(first)

    for e, p in enumerate((p0, p1)):
        if p.shape[1] != 2**n or p.shape[3] != 3**n:
            # the same at every level, so it fails at level 0
            check(np.ones(1, bool),
                  lambda i: DimensionError(f"table for e={e} has wrong shape {p.shape[1:]}"))
            break
        low = p.min(axis=(1, 2, 3))
        check(low < -tol.probability,
              lambda i: ValidationError(f"negative probability {low[i]:.3e} in table e={e}"))
        totals = p.sum(axis=(1, 2))
        check(np.abs(totals - 1).max(axis=1) > tol.structural,
              lambda i: ValidationError(f"probabilities for e={e} do not sum to 1 per input"))
        # Eve's marginal must not depend on the Alice inputs
        pbar = p.sum(axis=1)
        check(np.abs(pbar - pbar[..., :1]).max(axis=(1, 2)) > tol.structural,
              lambda i: ValidationError(f"signaling to Eve detected in table e={e}"))
    else:
        # Alice marginals must not depend on Eve's input
        check(np.abs(p0.sum(axis=2) - p1.sum(axis=2)).max(axis=(1, 2)) > tol.structural,
              lambda i: ValidationError("Alice marginals depend on Eve's input (signaling)"))
    if error is not None:
        raise error


def _outcome_weights(p: np.ndarray) -> np.ndarray:
    """P(l | e) of a (..., 2^N, K, 3^N) table stack, from the Alice input 0."""
    return p[..., 0].sum(axis=-2)


def _correlators(n: int, p: np.ndarray) -> np.ndarray:
    """Correlator tensors T[v, l, j_1..j_N] of an (L, 2^N, K, 3^N) table stack.

    Contracts as many outcomes l at a time as fit in ``_CHUNK_ENTRIES`` table
    entries, and at least one, so it never copies the whole table.
    """
    levels, k = p.shape[0], p.shape[2]
    step = max(1, _CHUNK_ENTRIES // (levels * 6**n))
    # (v, a_1..a_N, l, x_1..x_N) -> (v, l, x_1, a_1, ..., x_N, a_N)
    perm = [0, n + 1] + [ax for i in range(n) for ax in (n + 2 + i, 1 + i)]
    view = p.reshape((levels,) + (2,) * n + (k,) + (3,) * n)
    maps = [_ROTATED_MAP] + [_PARTY_MAP] * (n - 1)
    out = np.empty((levels, k) + (4,) * n)
    for s in range(0, k, step):
        raw = view[(slice(None),) * (n + 1) + (slice(s, s + step),)].transpose(perm)
        tensor = _contract_parties(raw.reshape((-1,) + raw.shape[2:]), maps)
        out[:, s:s + step] = tensor.reshape((levels, -1) + (4,) * n)
    return out


@dataclass(frozen=True)
class CorrelationTable:
    """The behavior p(a, l | x, e) for all inputs and outcomes.

    ``p0`` has shape (2^N, 2^N, 3^N) indexed by (a, l, x) for e = 0, ``p1``
    has shape (2^N, K, 3^N) for e = 1.  The ``a`` index packs the Alice
    outcome bits with party 1 most significant; ``x`` packs the inputs in
    base 3 the same way.
    """

    n: int
    p0: np.ndarray
    p1: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)
    _tensors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_tables(self.n, self.p0[None], self.p1[None], self.tol)

    def _table(self, e: int) -> np.ndarray:
        if e == 0:
            return self.p0
        if e == 1:
            return self.p1
        raise DimensionError(f"Eve input e={e} out of range")

    def outcome_count(self, e: int) -> int:
        return self._table(e).shape[1]

    def prob(self, a_bits, l: int, x_inputs, e: int) -> float:
        a = _pack(a_bits, 2, self.n)
        x = _pack(x_inputs, 3, self.n)
        t = self._table(e)
        if not 0 <= l < t.shape[1]:
            raise DimensionError(f"outcome l={l} out of range for e={e}")
        return float(t[a, l, x])

    def outcome_weights(self, e: int) -> np.ndarray:
        """P(l | e) for every outcome l of Eve's input e."""
        return _outcome_weights(self._table(e))

    def pbar(self, l: int, e: int) -> float:
        """Probability that Eve observes outcome l under input e."""
        if not 0 <= l < self.outcome_count(e):
            raise DimensionError(f"outcome l={l} out of range for e={e}")
        return float(self.outcome_weights(e)[l])

    def correlator_tensor(self, e: int) -> np.ndarray:
        """T[l, j_1..j_N] = <A~_{1,j_1} A_{2,j_2} ... A_{N,j_N} R_{l|e}>, built once per e.

        Index j in {0, 1, 2} selects observable A_j and index 3 marginalizes
        the party (its input is fixed to 0, irrelevant by no-signaling).
        Party 1 is rotated: its indices 0 and 1 select (A_0 -+ A_1)/sqrt2.
        """
        if e not in self._tensors:
            tensor = _correlators(self.n, self._table(e)[None])[0]
            tensor.flags.writeable = False
            self._tensors[e] = tensor
        return self._tensors[e]

    def correlator(self, settings, l: int, e: int) -> float:
        """<prod_i A_{i, settings[i]} R_{l|e}>; ``None`` entries mean identity.

        Parties with setting ``None`` are marginalized (their input is
        irrelevant by no-signaling and fixed to 0 here).
        """
        if len(settings) != self.n:
            raise DimensionError(f"need {self.n} settings, got {len(settings)}")
        if not 0 <= l < self.outcome_count(e):
            raise DimensionError(f"outcome l={l} out of range for e={e}")
        _pack([0 if s is None else s for s in settings], 3, self.n)  # range check
        idx = tuple(3 if s is None else int(s) for s in settings)
        t = self.correlator_tensor(e)[l]
        if idx[0] >= 2:
            return float(t[idx])
        # undo party 1's rotation: A_0 = (A~_1 + A~_0)/sqrt2, A_1 = (A~_1 - A~_0)/sqrt2
        return float((t[(1,) + idx[1:]] + (-1) ** idx[0] * t[(0,) + idx[1:]]) / np.sqrt(2.0))

    def conditioning_weight(self, l: int, e: int) -> float:
        """P(l|e), raising ConditioningError when it is too small to divide by."""
        p = self.pbar(l, e)
        if p <= self.tol.probability:
            raise ConditioningError(
                f"cannot condition on outcome l={l}, e={e}: probability {p:.3e}"
            )
        return p

    def conditional_correlator(self, settings, l: int, e: int) -> float:
        """Correlator conditioned on Eve's outcome l (division by P(l|e))."""
        return self.correlator(settings, l, e) / self.conditioning_weight(l, e)


def _pack(digits, base: int, n: int) -> int:
    digits = list(digits)
    if len(digits) != n:
        raise DimensionError(f"expected {n} digits, got {len(digits)}")
    out = 0
    for d in digits:
        d = int(d)
        if not 0 <= d < base:
            raise DimensionError(f"digit {d} out of range for base {base}")
        out = out * base + d
    return out


def _steering_operators(scenario: Scenario):
    """Per party: W[x, a] = Tr_A[rho_i (M_{a|x} (x) 1_E)], an operator on E_i."""
    out = []
    for rho, triple, d_a, d_e in zip(
        scenario.sources, scenario.alice_observables, scenario.alice_dims, scenario.eve_dims
    ):
        r4 = rho.reshape(d_a, d_e, d_a, d_e)
        w = np.empty((3, 2, d_e, d_e), dtype=complex)
        for x, a_obs in enumerate(triple.observables()):
            for a, m in enumerate(effects_from_observable(a_obs)):
                w[x, a] = np.einsum("aebf,ba->ef", r4, m)
        out.append(w)
    return out


@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis B_b of d x d operators, as a read-only (d^2, d^2) map.

    Row b is conj(B_b) flattened, so it sends a flattened operator X to
    Tr[B_b X]: X[k, k] for the diagonal units, then sqrt2 Re X[j, k] and
    sqrt2 Im X[j, k] for each j < k.  These coefficients are real for
    Hermitian X, and Tr[X Y] is their dot product.
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


def _born_factors(scenario: Scenario):
    """Real Hermitian-basis coefficients of the Born table: ([c_0, c_1], w_maps).

    ``c_e[l, b_1..b_N]`` expands Eve's effect R_{l|e}, party by party in
    complex arithmetic with the real part kept; ``w_maps[i][(x, a), b]``
    expands party i's steering operator W[x, a].  The table is linear in each.
    """
    n = scenario.n_parties
    d_es = scenario.eve_dims
    bases = [_hermitian_basis(d) for d in d_es]
    w_maps = [
        np.ascontiguousarray((w.reshape(6, d * d) @ basis.T).real)
        for w, basis, d in zip(_steering_operators(scenario), bases, d_es)
    ]
    # R[l, f_1..f_N, e_1..e_N] -> R[l, (f_1 e_1), ..., (f_N e_N)]
    pairs = [0] + [ax for i in range(n) for ax in (1 + i, 1 + n + i)]
    coeffs = []
    for meas in scenario.eve:
        r = np.stack(meas.effects).reshape((meas.outcome_count,) + d_es * 2).transpose(pairs)
        coeffs.append(np.ascontiguousarray(_contract_parties(r, bases).real))
    return coeffs, w_maps


def _table_from_factors(n: int, coeffs, w_maps) -> list:
    """Zero-cut (L, 2^N, K_e, 3^N) stacks p = sum_b c_{l,b} prod_i w_{i,b_i}, one per e.

    Every factor has a leading level axis of length L; party 1 is
    contracted first, and one transpose gives the (v, a, l, x) layout.
    """
    # (v, l, (x_1 a_1), ..., (x_N a_N)) -> (v, a_1..a_N, l, x_1..x_N)
    order = [0] + [3 + 2 * i for i in range(n)] + [1] + [2 + 2 * i for i in range(n)]
    tables = []
    for c in coeffs:
        levels, n_out = c.shape[:2]
        raw = _contract_parties(c, w_maps).reshape((levels, n_out) + (3, 2) * n)
        table = raw.transpose(order).reshape(levels, 2**n, n_out, 3**n)
        del raw  # at N = 7 it is as large as the table
        table[np.abs(table) < 1e-16] = 0.0
        tables.append(table)
    return tables


def born_table(scenario: Scenario, tol: Tolerances = DEFAULT_TOL) -> CorrelationTable:
    """Exact behavior of the scenario via Born's rule.

    Exploits source independence: p = Tr[(prod_i W^{(i)}_{a_i|x_i}) R_{l|e}]
    with the steering operators W living on Eve's factors only.  Each W and
    each R_l is expanded in the orthonormal Hermitian product basis of
    ``_hermitian_basis`` (``_born_factors``), so p is a real contraction of
    the coefficients (``_table_from_factors``, here on a stack of one level).
    """
    coeffs, w_maps = _born_factors(scenario)
    p0, p1 = _table_from_factors(
        scenario.n_parties, [c[None] for c in coeffs], [w[None] for w in w_maps]
    )
    return CorrelationTable(n=scenario.n_parties, p0=p0[0], p1=p1[0], tol=tol)
