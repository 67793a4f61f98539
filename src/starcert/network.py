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
from itertools import product

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionError, ValidationError
from .tensor import (
    _STEP_ENTRIES,
    _hermitian_basis,
    _pair_indices,
    _pair_layout,
    as_operator,
    as_state,
    hermitian_defects,
    hermitian_part,
    kron_all,
    not_hermitian,
    operator_stack,
    psd_within,
    reorder_factors,
)


@dataclass(frozen=True)
class BinaryObservableTriple:
    """One party's three dichotomic observables A_0, A_1, A_2."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        """Each A Hermitian, spectrum in [-1, 1]; the first faulty A raises its first fault."""
        stack, tol = operator_stack(self.observables(), "observable"), DEFAULT_TOL
        # the spectral norm of each A is its largest singular value
        defects, radii = hermitian_defects(stack), np.linalg.svd(stack, compute_uv=False)[:, 0]
        fault = _first_fault([
            (defects <= tol.structural,
             lambda k: not_hermitian(f"observable a{k}", defects[k], tol.structural)),
            (radii <= 1 + tol.spectral, lambda k: ValidationError(
                f"observable a{k} has spectral radius {radii[k]:.6g} > 1")),
        ])
        if fault:
            raise fault[1]
        for k, m in enumerate(stack):
            object.__setattr__(self, f"a{k}", m)

    @property
    def dim(self) -> int:
        return self.a0.shape[0]

    def observables(self):
        return (self.a0, self.a1, self.a2)


def _first_fault(checks):
    """The first faulty item k and its error, by that item's first failing check, or None.

    ``checks`` lists (passed, error) in check order: ``passed`` marks the items
    that pass, so a NaN fails every cut, and ``error(k)`` is item k's error.
    """
    passed = np.array([p for p, _ in checks])
    if not passed.all():
        k = int(np.argmin(passed.all(axis=0)))
        return k, checks[int(np.argmin(passed[:, k]))][1](k)


def _party_groups(*dims) -> dict:
    """The parties grouped by their dims, {(dims[0][i], dims[1][i], ...): [i, ...]}, in order."""
    groups = {}
    for i, key in enumerate(zip(*dims)):
        groups.setdefault(key, []).append(i)
    return groups


def _density_operators(sources) -> tuple:
    """Every source as a density operator; the sources of one shape are checked once, as a stack.

    A vector v becomes v v^dagger and a matrix is taken as it is.  The
    checks, in order: a non-empty vector or square matrix of finite numbers
    (``as_state``, ``as_operator``), then a vector's unit norm, or a
    matrix's Hermiticity, unit trace and PSD (``psd_within``).  The first
    faulty source in party order raises, by its first failing check; one
    that is no array of numbers is its own party's fault.
    """
    tol, out, faults = DEFAULT_TOL.structural, [None] * len(sources), {}
    for i, s in enumerate(sources):
        try:
            out[i] = np.asarray(s, dtype=complex)
        except (TypeError, ValueError) as exc:
            faults[i] = exc
    groups = _party_groups([getattr(a, "shape", None) for a in out])
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries are refused, not warned of
        for (shape,), parties in groups.items():
            if shape is None:
                continue
            stack = np.array([out[i] for i in parties])
            vector = len(shape) == 1 and shape[0] > 0
            matrix = len(shape) == 2 and shape[0] == shape[1] > 0
            well_formed, entries = np.ones(len(parties), bool), {}
            if not (vector or matrix) or not np.isfinite(stack).all():
                for k, (i, a) in enumerate(zip(parties, stack)):
                    try:
                        (as_state(a, f"sources[{i}]: state vector") if a.ndim == 1
                         else as_operator(a))
                    except ValueError as exc:
                        well_formed[k], entries[k] = False, exc
            checks = [(well_formed, entries.get)]
            if vector:
                norm = np.linalg.norm(stack, axis=1)
                checks.append((np.abs(norm - 1) <= tol, lambda k: ValidationError(
                    f"sources[{parties[k]}]: state vector norm {norm[k]} deviates from 1")))
                for i, rho in zip(parties, stack[:, :, None] * stack.conj()[:, None, :]):
                    out[i] = rho
            elif matrix:
                defect, trace = hermitian_defects(stack), stack.trace(axis1=1, axis2=2).real
                checks += [
                    (defect <= tol,
                     lambda k: not_hermitian(f"sources[{parties[k]}]", defect[k], tol)),
                    (np.abs(trace - 1) <= tol, lambda k: ValidationError(
                        f"sources[{parties[k]}]: density operator trace {trace[k]} is not 1")),
                    (psd_within(hermitian_part(stack), tol), lambda k: ValidationError(
                        f"sources[{parties[k]}]: density operator is not positive semi-definite")),
                ]
            fault = _first_fault(checks)
            if fault:
                faults[parties[fault[0]]] = fault[1]
    if faults:
        raise faults[min(faults)]
    return tuple(out)


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
        object.__setattr__(self, "sources", _density_operators(self.sources))
        object.__setattr__(self, "alice_observables", tuple(self.alice_observables))
        object.__setattr__(self, "eve", tuple(self.eve))
        for i, (rho, triple) in enumerate(zip(self.sources, self.alice_observables)):
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
    """Dichotomic effects (M_0, M_1) = ((1 + A)/2, (1 - A)/2), of one A or of each of a stack."""
    eye = np.eye(a.shape[-1])
    return (eye + a) / 2, (eye - a) / 2


def assemble_joint_state(scenario: Scenario) -> np.ndarray:
    """Joint density operator reordered to A_1...A_N (x) E_1...E_N.

    This is the dense reference route used by the test oracles; the
    production paths (``born_table``, ``_conditioned_coefficients``)
    expand the sources, stacked by their dims, and never form it.
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


def _contract_parties(t: np.ndarray, maps, trailing: tuple = ()) -> np.ndarray:
    """out[..., l, r, m_1..m_N] = sum_k t[..., l, k_1..k_N, r] prod_i maps[i][..., m_i, k_i].

    Each map is (m_i, k_i), or (L, m_i, k_i) with one map per level; ``t``
    has as many leading level axes as the maps, then the axis l, and a level
    axis of length 1 on either side is shared and broadcasts.  One batched
    matmul per party on the (..., l, k_i, rest) view of ``t``; the new axis
    m_i goes to the end, so after N steps the axes are back in party order
    without a transpose in between.  The axes of ``t`` after l may be any
    that flatten to (k_1, ..., k_N) and then the ``trailing`` axes r, such
    as the (re, im) pair of a complex array's float view; r comes out ahead
    of the m axes.  A non-contiguous ``t`` is copied by the first step only,
    and that copy is freed after it.
    """
    axes = maps[0].ndim - 1
    for m in maps:
        t = np.matmul(t.reshape(t.shape[:axes] + (m.shape[-1], -1)).swapaxes(-1, -2),
                      m.swapaxes(-1, -2)[..., None, :, :])
    return t.reshape(t.shape[:axes] + trailing + tuple(m.shape[-2] for m in maps))


# The non-negativity check expands a chunk of outcomes (and a noise scan's
# stack of levels) to about this many entries of the (a, l, x) layout
# (512 KB of float64): enough that 33 levels at N = 3 share the fixed cost
# of each numpy call, while the check never holds a whole table however many
# outcomes Eve has (the e = 0 table alone would be 286 MB at N = 7).
_CHUNK_ENTRIES = 2**16

# The zero cut of the (a, l, x) view and of its streamed minimum.  Not a
# ``Tolerances`` field: it is float64 rounding (2^-53), not a run's allowance,
# and ``p0``/``p1`` must not change with the run's tolerances.
_ZERO_CUT = 1e-16

# ``Povm`` reads the spectrum of a dense effect R = H from its rank-one factor
# v when ||H - v v^dagger||_F <= _FACTOR_SLACK d u ||v||^2 (u = 2^-53).  The
# residual is about u ||v||^2 for a factor written out in float64 (at most
# 4.5 u ||v||^2 over 1,800 random rank-one POVMs on C^1 to C^16); d keeps
# the cut the order of ``eigvalsh``'s own error.  Not a ``Tolerances``
# field: it is rounding, and ``_lower_bounds``' allowance covers it.
_FACTOR_SLACK = 4


def _correlators(c: np.ndarray, w_maps) -> np.ndarray:
    """T[..., l, j_1..j_N] = sum_b c[..., l, b] prod_i (M_i w_i)[..., j_i, b_i] of Born factors."""
    maps = [_ROTATED_MAP] + [_PARTY_MAP] * (len(w_maps) - 1)
    return _contract_parties(c, [m @ w for m, w in zip(maps, w_maps)])


def _outcome_weights(n: int, t: np.ndarray) -> np.ndarray:
    """P(l | e) of correlator tensors t (..., K, 4, ..., 4): every party marginalized."""
    return t[(Ellipsis,) + (3,) * n]


def _least_entries(c: np.ndarray, w_maps) -> np.ndarray:
    """min over (a, l, x) of each level's table, (L,), streamed over chunks of outcomes."""
    levels, k = max(len(c), len(w_maps[0])), c.shape[1]
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
    gamma_k = k u / (1 - k u), k = N (D + 1) + (1 + _FACTOR_SLACK) d_E with
    D the largest local basis size and d_E Eve's dimension, is subtracted.
    The contraction of the factors errs by at most
    gamma_{N (D + 1)} ||R||_F prod_i ||W_i||_F, and
    ||R||_F <= sqrt(d_E) ||R||_2; the basis expansions and the eigenvalues
    err by order d_E u ||R||_2 prod_i ||W_i||_1, and
    ||W_i||_1 <= sqrt(d_i) ||W_i||_F.  Eigenvalues read from a dense
    effect's rank-one factor (``Povm``) are off by at most
    _FACTOR_SLACK d_E u ||v||^2 <= gamma_{_FACTOR_SLACK d_E} ||R||_2, which
    moves the bound by that times prod_i max ||W_i||_1.  So the bound holds
    for the computed table, not only the exact one.
    """
    s, *r = spectra
    plus, minus, fro = s.max(axis=-1).transpose(1, 2, 0)
    positive, negative = 1.0, 0.0
    for p_i, m_i in zip(plus, minus):
        positive, negative = positive * p_i + negative * m_i, positive * m_i + negative * p_i
    dims = [w.shape[-1] for w in w_maps]
    d_e = float(np.prod(np.sqrt(dims)))
    k = len(dims) * (max(dims) + 1) + (1 + _FACTOR_SLACK) * d_e
    u = np.finfo(float).eps / 2
    allowance = k * u / (1 - k * u) * np.sqrt(d_e) * fro.prod(axis=0)
    # ||R_l||_2 = max(-min(0, lambda_min), max(0, lambda_max))
    return [(low * positive[:, None] - high * negative[:, None]
             - allowance[:, None] * np.maximum(-low, high)).min(axis=-1)
            for low, high in (r_e.transpose(1, 0, 2) for r_e in r)]


def _outcome_sums(w_maps) -> list:
    """u_i[..., x, b] = sum_a w_i[..., (x, a), b]: each party's outcome summed out."""
    return [w.reshape(w.shape[:-2] + (3, 2, w.shape[-1])).sum(axis=-2) for w in w_maps]


def _check_levels(tol: Tolerances, w_maps, spectra, stack, pbars, alices) -> None:
    """The checks of ``CorrelationTable`` on L levels: raise what their tables would raise first.

    That is the first failing check, in the order below, of the first
    failing level (``_first_fault``); a NaN fails every check.  Per Eve
    input e, ``pbars[e]`` (L, K_e, 3^N) holds pbar[v, l, x] =
    sum_a p(a, l | x, e) and ``alices[e]`` (L, 6^N) the Alice marginals.
    Non-negativity streams every entry (``_least_entries``) of the
    coefficient stack ``stack(e)`` (L, K_e, D_1..D_N) unless ``spectra``,
    passed only for factors expanded from validated objects, give a bound
    (``_lower_bounds``) that clears -``tol.probability`` on every level; a
    NaN bound clears nothing.
    """
    bounds = None if spectra is None else _lower_bounds(w_maps, spectra)
    checks = []
    for e, pbar in enumerate(pbars):
        if bounds is None or not (bounds[e] >= -tol.probability).all():
            low = _least_entries(stack(e), w_maps)
            low[np.abs(low) < _ZERO_CUT] = 0.0
            checks.append((low >= -tol.probability, lambda i, e=e, low=low: ValidationError(
                f"negative probability {low[i]:.3e} in table e={e}")))
        checks += [
            (np.abs(pbar.sum(axis=1) - 1).max(axis=1) <= tol.structural,
             lambda i, e=e: ValidationError(f"probabilities for e={e} do not sum to 1 per input")),
            (np.abs(pbar - pbar[..., :1]).max(axis=(1, 2)) <= tol.structural,
             lambda i, e=e: ValidationError(f"signaling to Eve detected in table e={e}")),
        ]
    checks.append((np.abs(alices[0] - alices[1]).max(axis=1) <= tol.structural,
                   lambda i: ValidationError("Alice marginals depend on Eve's input (signaling)")))
    fault = _first_fault(checks)
    if fault:
        raise fault[1]


def _check_factors(coeffs, w_maps, tol: Tolerances, spectra=None) -> None:
    """``_check_levels`` of stacks of L levels' Born factors, contracted here.

    ``coeffs[e]`` is (L, K_e, D_1, ..., D_N) and ``w_maps[i]`` is (L, 6, D_i),
    or either is one level, (1, ...), that every level shares.
    """
    sums = _outcome_sums(w_maps)
    levels = max(len(coeffs[0]), len(w_maps[0]))
    _check_levels(tol, w_maps, spectra, coeffs.__getitem__,
                  [_contract_parties(c, sums).reshape(levels, c.shape[1], -1) for c in coeffs],
                  [_contract_parties(c.sum(axis=1, keepdims=True), w_maps).reshape(levels, -1)
                   for c in coeffs])


def _dense_table(n: int, c: np.ndarray, w_maps) -> np.ndarray:
    """The zero-cut, read-only (2^N, K, 3^N) table of one Eve input's Born factors.

    p[a, l, x] = sum_b c[l, b] prod_i w_i[(x_i, a_i), b_i].
    """
    k = len(c)
    raw = _contract_parties(c, w_maps).reshape((k,) + (3, 2) * n)
    # (l, x_1, a_1, ..., x_N, a_N) -> (a_1..a_N, l, x_1..x_N)
    order = [2 + 2 * i for i in range(n)] + [0] + [1 + 2 * i for i in range(n)]
    table = np.ascontiguousarray(raw.transpose(order)).reshape(2**n, k, 3**n)
    table[np.abs(table) < _ZERO_CUT] = 0.0
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
        _check_factors([c[None] for c in coeffs], [w[None] for w in w_maps], tol, _spectra)
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


def _steering_factors(sources, triples, eve_dims: tuple):
    """Party i's steering map w_i (6, D_i) and the spectra s (3, N, 6) of its operators.

    w_i[(x, a)] expands W = Tr_A[rho_i (M_{a|x} (x) 1_E)], one ``einsum``
    over the stacked parties of each distinct (d_A, d_E), in the basis of
    ``_hermitian_basis``; s is Tr W_+, Tr W_- and ||W||_F, from one batched
    ``eigvalsh`` of the W zero-padded to one size.
    """
    d_max = max(eve_dims)
    ops = np.zeros((len(sources), 6, d_max, d_max), dtype=complex)
    w_maps = [None] * len(sources)
    for (d_a, d_e), parties in _party_groups([t.dim for t in triples], eve_dims).items():
        rho = np.stack([sources[i] for i in parties]).reshape(-1, d_a, d_e, d_a, d_e)
        observables = np.stack([triples[i].observables() for i in parties])
        effects = np.stack(effects_from_observable(observables), axis=2)
        w = np.einsum("gaebf,gkba->gkef", rho, effects.reshape(-1, 6, d_a, d_a))
        ops[parties, :, :d_e, :d_e] = w
        maps = np.ascontiguousarray((w.reshape(-1, 6, d_e * d_e) @ _hermitian_basis(d_e).T).real)
        for i, m in zip(parties, maps):
            w_maps[i] = m
    eigs = np.linalg.eigvalsh(hermitian_part(ops))
    return w_maps, np.stack([np.maximum(eigs, 0.0).sum(axis=-1),
                             np.maximum(-eigs, 0.0).sum(axis=-1), np.sqrt((eigs**2).sum(axis=-1))])


@lru_cache(maxsize=None)
def _real_maps(basis, dims: tuple):
    """Real forms of the maps ``basis(d)`` of ``dims``, for ``_basis_expansion`` and its inverse.

    Row m of each complex map is purely real or purely imaginary: it is D[m]
    or i D[m] with D real.  So prod_i basis(d_i)[m_i, k_i] is i^s(m) times
    prod_i D_i[m_i, k_i], where s(m) counts the imaginary rows among the
    m_i, and Re(i^s (X + iY)) is X, -Y, -X or Y for s = 0, 1, 2, 3 mod 4.
    Returns the maps D_i, and per flattened m the index into the (re, im)
    pair of the real contraction (``select``) and the sign, all read-only.
    The tables are built once per dims in plain Python: numpy's integer and
    outer ufuncs would page in about 0.2 MB of library code that no other
    step of a run executes.
    """
    maps, imaginary = [], []
    for d in dims:
        imaginary.append([not row.real.any() for row in basis(d)])
        maps.append(np.array([row.imag if i else row.real
                              for row, i in zip(basis(d), imaginary[-1])]))
    s = [sum(rows) for rows in product(*imaginary)]
    select = np.array([m + s_m % 2 * len(s) for m, s_m in enumerate(s)])
    sign = np.array([1.0 if (s_m + 1) % 4 < 2 else -1.0 for s_m in s])
    for a in (*maps, select, sign):
        a.flags.writeable = False
    return maps, select, sign


def _basis_expansion(meas, dims: tuple, basis, outcomes: slice = slice(None)) -> np.ndarray:
    """Real coefficients c[l, m_1..m_N] = Re sum_k R_l[k] prod_i basis(d_i)[m_i, k_i].

    ``meas`` is a (K, d, d) stack or a ``Povm``, of which the rows
    ``outcomes`` (a slice of step 1) are expanded, ``dims`` factor d, and
    ``basis(d_i)`` is a cached (m_i, d_i^2) complex map whose rows are each
    purely real or purely imaginary (``_real_maps``).  The work is real: the
    float view (re, im) of each outcome's ``_pair_layout`` is contracted
    party by party with the real maps, and each coefficient keeps the part
    and sign that its count of imaginary rows picks.  That is the real part
    of the complex contraction, product for product.  Outcomes go in chunks
    whose float layouts hold at most ``_STEP_ENTRIES`` entries (128 KB; one
    chunk at N <= 4 for up to 32 outcomes), so that a chunk's temporaries
    stay in cache and are reused from the heap instead of faulting in fresh
    pages; each chunk writes its rows of the one output array.
    """
    maps, select, sign = _real_maps(basis, dims)
    rows = range(len(getattr(meas, "spectrum", meas)))[outcomes]  # of a Povm, or of the stack
    out = np.empty((len(rows), len(sign)))
    # a basis is square, so a layout row has one (re, im) pair per coefficient
    step = max(1, _STEP_ENTRIES // (2 * len(sign)))
    for s in range(0, len(rows), step):
        chunk = rows[s:s + step]
        layout = _pair_layout(meas, dims, slice(chunk.start, chunk.stop)).view(float)
        t = _contract_parties(layout, maps, (2,))
        np.take(t.reshape(len(t), -1), select, axis=1, out=out[s:s + step])
    out *= sign
    return out.reshape((len(rows),) + tuple(len(m) for m in maps))


def _basis_operators(coeffs: np.ndarray, dims: tuple, basis) -> np.ndarray:
    """Operators (K, d, d) of real coefficients (K, m_1..m_N): the inverse of ``_basis_expansion``.

    Row m of the product map is i^s(m) prod_i D_i[m_i] (``_real_maps``), so
    the inverse sends a[m] to i^-s(m) a[m], which is real for even s and
    imaginary for odd s with ``_real_maps``' sign, then through prod_i D_i^-1:
    one real stack of both parts, scattered from the pair layout to (row, column).
    """
    maps, select, sign = _real_maps(basis, dims)
    k, d = len(coeffs), int(np.prod(dims))
    parts = np.zeros((k, 2 * len(sign)))
    parts[:, select] = coeffs.reshape(k, -1) * sign
    # parties of equal dims have equal maps: each distinct one is inverted once
    inverses = {d: np.linalg.inv(m) for d, m in dict(zip(dims, maps)).items()}
    t = _contract_parties(parts.reshape(2 * k, -1), [inverses[d] for d in dims])
    out = np.empty((k, d * d), dtype=complex)
    out[:, _pair_indices(dims)[0]] = t[0::2].reshape(k, -1) + 1j * t[1::2].reshape(k, -1)
    return out.reshape(k, d, d)


def _conditioned_coefficients(scenario: Scenario, c: np.ndarray) -> np.ndarray:
    """Coefficients (K, m_1..m_N) of the Alice states that Eve's rows c (K, D_1..D_N) condition.

    With c of R_l and r_i (d_a^2, d_e^2) of source i expanded in the bases
    of ``_hermitian_basis``, Tr_E[(1 (x) R_l) rho] has the real coefficients
    sum_b c[l, b] prod_i r_i[m_i, b_i] in the Alice product basis.
    """
    maps = [None] * scenario.n_parties
    for dims, parties in _party_groups(scenario.alice_dims, scenario.eve_dims).items():
        stack = np.stack([scenario.sources[i] for i in parties])
        for i, r in zip(parties, _basis_expansion(stack, dims, _hermitian_basis)):
            maps[i] = r
    return _contract_parties(c, maps)


def _born_factors(scenario: Scenario):
    """Real Hermitian-basis coefficients of the Born table: ([c_0, c_1], w_maps, spectra).

    ``c_e[l, b_1..b_N]`` expands Eve's effect R_{l|e} in the product basis
    of ``_hermitian_basis`` (``_basis_expansion``, in real arithmetic), and
    ``w_maps[i][(x, a), b]`` expands party i's steering operator W[x, a] in
    the basis of its Eve factor (``_steering_factors``).  The table is
    linear in each.  ``spectra`` are the inputs of ``_lower_bounds``: the
    steering operators' spectra s of ``_steering_factors``, and per Eve
    input the extreme eigenvalues its ``Povm`` was validated with.
    """
    d_es = scenario.eve_dims
    w_maps, s = _steering_factors(scenario.sources, scenario.alice_observables, d_es)
    coeffs, spectra = [], [s]
    for meas in scenario.eve:
        coeffs.append(_basis_expansion(meas, d_es, _hermitian_basis))
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
