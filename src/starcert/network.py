"""Star-network scenario description and Born-rule behavior computation.

A scenario has N external parties ("Alices"), each holding three dichotomic
observables, a central party ("Eve") with two measurements, and N independent
bipartite sources, one per Alice-Eve pair.  ``born_table`` evaluates the full
behavior p(a, l | x, e) exactly, as Born factors: real coefficients c_e of
each Eve effect and per-party maps w_i of the steering operators, with
p = sum_b c_e[l, b] prod_i w_i[(x_i, a_i), b_i].  Every check and every
correlator tensor is a contraction of these factors, save non-negativity,
which ``born_table`` proves from the spectra of its validated inputs when
it can; the (a, l, x) table, 2^N 6^N entries per outcome, is materialised
only when a caller reads it.

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionError, ValidationError
from .tensor import as_operator, as_state, is_psd, kron_all, reorder_factors, require_hermitian


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
        norm = np.linalg.norm(as_state(arr, None, f"{path}: state vector"))
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


# The non-negativity check expands a chunk of outcomes (and a noise scan's
# stack of levels) to about this many entries of the (a, l, x) layout
# (512 KB of float64): enough that 33 levels at N = 3 share the fixed cost
# of each numpy call, while the check never holds a whole table however many
# outcomes Eve has (the e = 0 table alone would be 286 MB at N = 7).
_CHUNK_ENTRIES = 2**16


def _correlators(c: np.ndarray, w_maps) -> np.ndarray:
    """T[..., l, j_1..j_N] = sum_b c[..., l, b] prod_i (M_i w_i)[..., j_i, b_i] of Born factors."""
    maps = [_ROTATED_MAP] + [_PARTY_MAP] * (len(w_maps) - 1)
    return _contract_parties(c, [m @ w for m, w in zip(maps, w_maps)])


def _outcome_weights(n: int, t: np.ndarray) -> np.ndarray:
    """P(l | e) of correlator tensors t (..., K, 4, ..., 4): every party marginalized."""
    return t[(Ellipsis,) + (3,) * n]


def _least_entries(c: np.ndarray, w_maps) -> np.ndarray:
    """min over (a, l, x) of each level's table, (L,), streamed over chunks of outcomes."""
    levels, k = c.shape[:2]
    step = max(1, _CHUNK_ENTRIES // (levels * 6**len(w_maps)))
    return np.min([_contract_parties(c[:, s:s + step], w_maps).reshape(levels, -1).min(axis=1)
                   for s in range(0, k, step)], axis=0)


def _lower_bounds(w_maps, spectra) -> list:
    """Per Eve input, a lower bound (L,) on each level's least computed table entry.

    ``spectra`` is ``_born_factors``' third item with a leading level axis:
    s (L, 3, N, 6) holds Tr W_+, Tr W_- and ||W||_F of each party's steering
    operators W = W_+ - W_- (Jordan parts), and r_e (L, 2, K_e) holds
    min(0, lambda_min(R_l)) and max(0, lambda_max(R_l)) of Eve's effects, all
    of Hermitian parts.  X = prod_i W_i[x_i, a_i] has the Jordan parts
    X_+- = the sum of the products with an even (odd) number of factors
    W_{i,-}, so Tr X_+- grows with every Tr W_{i,+-} and is at most its value
    at P_i = max_{x,a} Tr W_{i,+} and M_i = max_{x,a} Tr W_{i,-}; then
    p = Tr[X R] >= min(0, lambda_min) Tr X_+ - max(0, lambda_max) Tr X_-.
    Every input is convex in a noise scan's level (Weyl's inequality, the
    triangle inequality), so mixing two endpoints' spectra bounds each level.

    The rounding allowance gamma_k sqrt(d_E) ||R_l||_2 prod_i max ||W_i||_F,
    gamma_k = k u / (1 - k u), k = N (D + 1) + d_E with D the largest local
    basis size and d_E Eve's dimension, is subtracted.  The contraction of
    the factors errs by at most gamma_{N (D + 1)} ||R||_F prod_i ||W_i||_F,
    and ||R||_F <= sqrt(d_E) ||R||_2; the basis expansions and the
    eigenvalues err by order d_E u ||R||_2 prod_i ||W_i||_1, and
    ||W_i||_1 <= sqrt(d_i) ||W_i||_F.  So the bound holds for the computed
    table, not only the exact one.
    """
    s, *r = spectra
    plus, minus, fro = s.max(axis=-1).transpose(1, 2, 0)
    positive, negative = 1.0, 0.0
    for p_i, m_i in zip(plus, minus):
        positive, negative = positive * p_i + negative * m_i, positive * m_i + negative * p_i
    dims = [w.shape[-1] for w in w_maps]
    d_e = float(np.prod(np.sqrt(dims)))
    k = len(dims) * (max(dims) + 1) + d_e
    u = np.finfo(float).eps / 2
    allowance = k * u / (1 - k * u) * np.sqrt(d_e) * fro.prod(axis=0)
    # ||R_l||_2 = max(-min(0, lambda_min), max(0, lambda_max))
    return [(low * positive[:, None] - high * negative[:, None]
             - allowance[:, None] * np.maximum(-low, high)).min(axis=-1)
            for low, high in (r_e.transpose(1, 0, 2) for r_e in r)]


def _check_factors(n: int, coeffs, w_maps, tol: Tolerances, spectra=None) -> None:
    """The checks of ``CorrelationTable`` on stacks of L levels, read from the Born factors.

    ``coeffs[e]`` is (L, K_e, D_1, ..., D_N) and ``w_maps[i]`` is (L, 6, D_i),
    or (1, 6, D_i) for maps shared by every level.  Raises what the tables of
    the levels, built and checked one at a time, would raise first: the first
    failing check, in the order below, of the first failing level.

    Non-negativity streams every table entry (``_least_entries``) unless
    ``spectra``, which only ``born_table`` and ``noise_scan`` pass for
    factors they expanded from validated objects, give a lower bound
    (``_lower_bounds``) that clears -``tol.probability`` on every level.
    """
    first, error = len(coeffs[0]), None

    def check(failed, make_error):
        nonlocal first, error
        if failed[:first].any():
            first = int(np.argmax(failed))
            error = make_error(first)

    bounds = None if spectra is None else _lower_bounds(w_maps, spectra)
    # u_i[..., x, b] = sum_a w_i[..., (x, a), b]: each party's outcome summed out
    sums = [w.reshape(w.shape[:-2] + (3, 2, w.shape[-1])).sum(axis=-2) for w in w_maps]
    for e, c in enumerate(coeffs):
        levels, k = c.shape[:2]
        if bounds is None or (bounds[e] < -tol.probability).any():
            low = _least_entries(c, w_maps)
            low[np.abs(low) < 1e-16] = 0.0  # the zero cut of the (a, l, x) view
            check(low < -tol.probability,
                  lambda i: ValidationError(f"negative probability {low[i]:.3e} in table e={e}"))
        # pbar[v, l, x] = sum_a p(a, l | x, e): Eve's marginal per Alice input
        pbar = _contract_parties(c, sums).reshape(levels, k, -1)
        check(np.abs(pbar.sum(axis=1) - 1).max(axis=1) > tol.structural,
              lambda i: ValidationError(f"probabilities for e={e} do not sum to 1 per input"))
        check(np.abs(pbar - pbar[..., :1]).max(axis=(1, 2)) > tol.structural,
              lambda i: ValidationError(f"signaling to Eve detected in table e={e}"))
    # Alice marginals must not depend on Eve's input
    alice = [_contract_parties(c.sum(axis=1, keepdims=True), w_maps).reshape(len(c), -1)
             for c in coeffs]
    check(np.abs(alice[0] - alice[1]).max(axis=1) > tol.structural,
          lambda i: ValidationError("Alice marginals depend on Eve's input (signaling)"))
    if error is not None:
        raise error


def _dense_table(n: int, c: np.ndarray, w_maps) -> np.ndarray:
    """The zero-cut, read-only (2^N, K, 3^N) table of one Eve input's Born factors.

    p[a, l, x] = sum_b c[l, b] prod_i w_i[(x_i, a_i), b_i].
    """
    k = len(c)
    raw = _contract_parties(c, w_maps).reshape((k,) + (3, 2) * n)
    # (l, x_1, a_1, ..., x_N, a_N) -> (a_1..a_N, l, x_1..x_N)
    order = [2 + 2 * i for i in range(n)] + [0] + [1 + 2 * i for i in range(n)]
    table = np.ascontiguousarray(raw.transpose(order)).reshape(2**n, k, 3**n)
    table[np.abs(table) < 1e-16] = 0.0
    table.flags.writeable = False
    return table


class CorrelationTable:
    """The behavior p(a, l | x, e) for all inputs and outcomes, held as Born factors.

    Per Eve input e it holds real coefficients c_e = ``coeffs[e]`` (K_e, D_1, ..., D_N),
    and per party a map w_i = ``w_maps[i]`` (6, D_i) shared by both inputs, with
    p(a, l | x, e) = sum_b c_e[l, b] prod_i w_i[(x_i, a_i), b_i].
    ``born_table`` builds it from the Hermitian-basis expansion of
    ``_born_factors``.  The constructor checks the factors and marks them
    read-only; only ``born_table`` passes ``_spectra``, which lets the check
    prove non-negativity from the spectra instead of streaming every entry.

    The checks, the correlator tensors and the outcome weights read the
    factors.  ``p0`` and ``p1`` are the (a, l, x) view, (2^N, K_e, 3^N),
    materialised (zero-cut, read-only) only when first read: ``a`` packs the
    Alice outcome bits with party 1 most significant, and ``x`` packs the
    inputs in base 3 the same way.
    """

    def __init__(self, n: int, coeffs, w_maps, tol: Tolerances = DEFAULT_TOL, *, _spectra=None):
        _check_factors(n, [c[None] for c in coeffs], [w[None] for w in w_maps], tol, _spectra)
        for a in (*coeffs, *w_maps):
            a.flags.writeable = False
        self.n, self.tol = n, tol
        self._coeffs, self._w_maps = tuple(coeffs), tuple(w_maps)
        self._tensors, self._tables = {}, {}

    def _factors(self, e: int) -> np.ndarray:
        if e not in (0, 1):
            raise DimensionError(f"Eve input e={e} out of range")
        return self._coeffs[e]

    def _table(self, e: int) -> np.ndarray:
        if e not in self._tables:
            self._tables[e] = _dense_table(self.n, self._factors(e), self._w_maps)
        return self._tables[e]

    @property
    def p0(self) -> np.ndarray:
        return self._table(0)

    @property
    def p1(self) -> np.ndarray:
        return self._table(1)

    def outcome_count(self, e: int) -> int:
        return len(self._factors(e))

    def outcome_weights(self, e: int) -> np.ndarray:
        """P(l | e) for every outcome l of Eve's input e."""
        return _outcome_weights(self.n, self.correlator_tensor(e))

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
            tensor = _correlators(self._factors(e), self._w_maps)
            tensor.flags.writeable = False
            self._tensors[e] = tensor
        return self._tensors[e]


def _steering_operators(scenario: Scenario) -> np.ndarray:
    """W[i, (x, a)] = Tr_A[rho_i (M_{a|x} (x) 1_E)], party i's operators on E_i, as (N, 6, d, d).

    Each is zero-padded to the largest Eve factor d, so that one batched
    ``eigvalsh`` reads them all; padding adds only zero eigenvalues.
    """
    d_max = max(scenario.eve_dims)
    out = np.zeros((scenario.n_parties, 3, 2, d_max, d_max), dtype=complex)
    for w, rho, triple, d_a, d_e in zip(
        out, scenario.sources, scenario.alice_observables, scenario.alice_dims,
        scenario.eve_dims
    ):
        r4 = rho.reshape(d_a, d_e, d_a, d_e)
        for x, a_obs in enumerate(triple.observables()):
            for a, m in enumerate(effects_from_observable(a_obs)):
                w[x, a, :d_e, :d_e] = np.einsum("aebf,ba->ef", r4, m)
    return out.reshape(scenario.n_parties, 6, d_max, d_max)


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
    """Real Hermitian-basis coefficients of the Born table: ([c_0, c_1], w_maps, spectra).

    ``c_e[l, b_1..b_N]`` expands Eve's effect R_{l|e}, party by party in
    complex arithmetic with the real part kept; ``w_maps[i][(x, a), b]``
    expands party i's steering operator W[x, a].  The table is linear in each.
    A rank-one measurement enters as its two vector legs: R_l[f, e] =
    v_l[f] conj(v_l[e]) is formed by one broadcast product straight in the
    pair layout the contraction reads, so its dense effects are never built.
    ``spectra`` are the inputs of ``_lower_bounds``: the Jordan-part traces
    and norms of the steering operators from one batched ``eigvalsh``, and per
    Eve input the extreme eigenvalues its ``Povm`` was validated with.
    """
    n = scenario.n_parties
    d_es = scenario.eve_dims
    bases = [_hermitian_basis(d) for d in d_es]
    ops = _steering_operators(scenario)
    w_maps = [
        np.ascontiguousarray((w[:, :d, :d].reshape(6, d * d) @ basis.T).real)
        for w, basis, d in zip(ops, bases, d_es)
    ]
    eigs = np.linalg.eigvalsh((ops + ops.conj().swapaxes(-1, -2)) / 2)
    spectra = [np.stack([np.maximum(eigs, 0.0).sum(axis=-1), np.maximum(-eigs, 0.0).sum(axis=-1),
                         np.sqrt((eigs**2).sum(axis=-1))])]
    # R[l, f_1..f_N, e_1..e_N] -> R[l, (f_1 e_1), ..., (f_N e_N)]
    pairs = [0] + [ax for i in range(n) for ax in (1 + i, 1 + n + i)]
    # a vector on the row legs f_i, and one on the column legs e_i, of the pairs
    rows = [x for d in d_es for x in (d, 1)]
    cols = [x for d in d_es for x in (1, d)]
    coeffs = []
    for meas in scenario.eve:
        k, v = meas.outcome_count, meas.vectors
        if v is None:
            r = meas.effects.reshape((k,) + d_es * 2).transpose(pairs)
        else:
            r = v.reshape([k] + rows) * v.conj().reshape([k] + cols)
        coeffs.append(np.ascontiguousarray(_contract_parties(r, bases).real))
        lowest, highest = meas.extreme_eigenvalues.T
        spectra.append(np.stack([np.minimum(lowest, 0.0), np.maximum(highest, 0.0)]))
    return coeffs, w_maps, spectra


def born_table(scenario: Scenario, tol: Tolerances = DEFAULT_TOL) -> CorrelationTable:
    """Exact behavior of the scenario via Born's rule.

    Exploits source independence: p = Tr[(prod_i W^{(i)}_{a_i|x_i}) R_{l|e}]
    with the steering operators W living on Eve's factors only.  Each W and
    each R_l is expanded in the orthonormal Hermitian product basis of
    ``_hermitian_basis`` (``_born_factors``), and the table holds those real
    coefficients: its checks and correlators contract them directly, and no
    (a, l, x) table is formed unless ``p0``/``p1`` are read.
    """
    coeffs, w_maps, spectra = _born_factors(scenario)
    return CorrelationTable(scenario.n_parties, coeffs, w_maps, tol,
                            _spectra=[s[None] for s in spectra])
