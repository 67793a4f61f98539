"""Three-part certification pipeline.

Part 1 checks that every Bell expression in the family reaches its quantum
bound with uniform outcome weights.  Part 2 checks the algebraic conditions
tying Eve's second measurement to a reference (projective or rank-one
extremal POVM), in both the plain and the conjugated branch.  Part 3
compares post-measurement states against a target state up to complex
conjugation.

Branch semantics: "Plain" means the actual object matches the reference as
given, "Conjugate" means it matches the entrywise conjugate.  When both
match (real references) the tie resolves to Plain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from string import ascii_letters

import numpy as np

from .bell import _bell_values, _evaluation, all_labels, bell_values
from .config import DEFAULT_TOL, Tolerances
from .errors import ConditioningError, ContractViolation, DimensionError
from .measurements import (
    MixedStateSpec,
    _conjugation_signs,
    _embed_block,
    _pauli_stack,
    _qubit_operator,
    trine_preparation_outcomes,
)
from .network import (
    _CHUNK_ENTRIES,
    CorrelationTable,
    Scenario,
    _born_factors,
    _check_factors,
    _correlators,
    _outcome_weights,
    born_table,
)
from .presets import depolarize_effects, depolarize_sources
from .tensor import as_state, kron, numerical_rank, partial_trace

PLAIN = "Plain"
CONJUGATE = "Conjugate"
NO_BRANCH = "None"

CERTIFIED = "Certified"
FAILED = "Failed"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ConjugationBranch:
    branch: str                 # Plain | Conjugate | None
    distance: float             # distance of the matched branch, or min of both

    def matched(self) -> bool:
        return self.branch != NO_BRANCH


@dataclass(frozen=True)
class Part1Report:
    evaluations: tuple          # one BellEvaluation per label, value NaN on conditioning failure
    pbar: tuple                 # P(l | e=0) per label
    bell_passed: bool
    pbar_passed: bool

    @property
    def passed(self) -> bool:
        return self.bell_passed and self.pbar_passed


@dataclass(frozen=True)
class Part2Report:
    mode: str                   # projective | povm
    residuals_plain: tuple      # per e=1 outcome
    residuals_conjugate: tuple
    branch: str
    passed: bool

    def max_residual(self) -> float:
        if self.branch == CONJUGATE:
            return max(self.residuals_conjugate)
        return max(self.residuals_plain)


@dataclass(frozen=True)
class Part3Report:
    outcomes: tuple             # e=1 outcome indices used for preparation
    probabilities: tuple        # observed P(l | e=1) per outcome
    expected_probabilities: tuple
    total_probability: float    # sum over the preparation outcomes
    branch: ConjugationBranch
    prob_passed: bool
    state_passed: bool

    @property
    def passed(self) -> bool:
        return self.prob_passed and self.state_passed


@dataclass(frozen=True)
class CertificationReport:
    part1: Part1Report
    part2: Part2Report | None
    part3: Part3Report | None
    verdict: str
    tolerances: Tolerances


def check_part1(table: CorrelationTable, n: int, tol: Tolerances = DEFAULT_TOL) -> Part1Report:
    """Maximal violation of every Bell expression with uniform P(l | e=0)."""
    if table.n != n:
        raise DimensionError(f"table has N={table.n}, expected {n}")
    if table.outcome_count(0) != 2**n:
        raise DimensionError(f"table has {table.outcome_count(0)} e=0 outcomes, expected {2**n}")
    # a vanishing outcome cannot certify anything: its NaN value is not maximal
    evaluations = tuple(
        _evaluation(label, v, tol) for label, v in zip(all_labels(n), bell_values(table).tolist())
    )
    pbar = table.outcome_weights(0)
    return Part1Report(
        evaluations=evaluations,
        pbar=tuple(pbar.tolist()),
        bell_passed=all(ev.maximal for ev in evaluations),
        pbar_passed=bool(np.all(np.abs(pbar - 2.0**-n) <= tol.acceptance)),
    )


def _branch_from_residuals(plain, conjugate, tol: Tolerances) -> str:
    """Resolve a single branch for all outcomes; ties go to Plain."""
    if max(plain) <= tol.acceptance:
        return PLAIN
    if max(conjugate) <= tol.acceptance:
        return CONJUGATE
    return NO_BRANCH


def _require_mode(mode: str) -> None:
    if mode not in ("projective", "povm"):
        raise DimensionError(f"unknown certification mode {mode!r}")


def _reference_terms(effects, n: int, k_out: int, mode: str, tol: Tolerances) -> tuple:
    """Plain and conjugated Pauli coefficient rows (K, 4^N) of the reference, and its ranks.

    Every effect is checked before the counts, and the counts before the
    one stacked expansion; the ranks are None in povm mode.
    """
    effects = [_qubit_operator(m, n, tol) for m in effects]
    ranks = [numerical_rank(m, tol) for m in effects] if mode == "projective" else None
    if len(effects) != k_out:
        what = "coefficient tensor" if ranks is None else "rank"
        raise DimensionError(f"need one {what} per e=1 outcome ({k_out}), got {len(effects)}")
    plain = _pauli_stack(np.stack(effects), n)
    return plain.reshape(k_out, -1), (plain * _conjugation_signs(n)).reshape(k_out, -1), ranks


def _part2_residuals(mode: str, n: int, t: np.ndarray, terms) -> tuple:
    """Plain and conjugated residuals (..., K) of e = 1 correlator tensors t (..., K, 4, ..., 4)."""
    plain, conj, ranks = terms
    t = t.reshape(t.shape[:-n] + (-1,))

    def residuals(coeffs):
        if mode == "projective":
            sums = np.where(np.abs(coeffs) > 1e-14, coeffs * t, 0.0).sum(axis=-1)
            return np.abs(sums - np.asarray(ranks) / 2.0**n)
        return np.abs(t - coeffs).max(axis=-1)

    return residuals(plain), residuals(conj)


def check_part2(table: CorrelationTable, reference_effects, mode: str,
                tol: Tolerances = DEFAULT_TOL) -> Part2Report:
    """Eve's e = 1 measurement against the reference effects, in both branches.

    Projective mode compares each outcome's coefficient-weighted expectation
    sum with r_l / 2^N; povm mode matches every Pauli coefficient.
    """
    _require_mode(mode)
    terms = _reference_terms(reference_effects, table.n, table.outcome_count(1), mode, tol)
    residuals = _part2_residuals(mode, table.n, table.correlator_tensor(1), terms)
    res_plain, res_conj = (tuple(r.tolist()) for r in residuals)
    branch = _branch_from_residuals(res_plain, res_conj, tol)
    return Part2Report(
        mode=mode,
        residuals_plain=res_plain,
        residuals_conjugate=res_conj,
        branch=branch,
        passed=branch != NO_BRANCH,
    )


@lru_cache(maxsize=None)
def _einsum_path(spec: str, *shapes) -> list:
    """``einsum``'s contraction order for ``spec`` on operands of these shapes, searched once."""
    return np.einsum_path(spec, *map(np.empty, shapes), optimize=True)[0]


def post_measurement_state(scenario: Scenario, l: int, e: int,
                           tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Normalized Alice state conditioned on Eve's outcome l under input e.

    Contracts Eve's effect R with each source in turn,
    rho_A[a_1..a_N, b_1..b_N] = sum_{r,c} R[r, c] prod_i rho_i[a_i c_i, b_i r_i]
    with r and c running over Eve's row and column indices, so no operator
    on the joint Alice-Eve space is formed.  A rank-one R = v v^dagger
    enters as its two vector legs v[r] and conj(v[c]).
    """
    if e not in (0, 1):
        raise DimensionError(f"Eve input e={e} out of range")
    meas = scenario.eve[e]
    if not 0 <= l < meas.outcome_count:
        raise DimensionError(f"outcome l={l} out of range for e={e}")
    n = scenario.n_parties
    d_as, d_es = scenario.alice_dims, scenario.eve_dims
    a, b, r, c = (ascii_letters[k * n:(k + 1) * n] for k in range(4))
    if meas.vectors is None:
        legs, effect = f"{r}{c},", [meas.effects[l].reshape(d_es * 2)]
    else:
        v = meas.vectors[l].reshape(d_es)
        legs, effect = f"{r},{c},", [v, v.conj()]
    spec = legs + ",".join(map("".join, zip(a, c, b, r))) + f"->{a}{b}"
    sources = [rho.reshape((da, de) * 2) for rho, da, de in zip(scenario.sources, d_as, d_es)]
    dim = int(np.prod(d_as))
    operands = effect + sources
    path = _einsum_path(spec, *(op.shape for op in operands))
    rho = np.einsum(spec, *operands, optimize=path).reshape(dim, dim)
    p = float(np.trace(rho).real)
    if p <= tol.probability:
        raise ConditioningError(f"outcome l={l}, e={e} has probability {p:.3e}")
    rho = rho / p
    return (rho + rho.conj().T) / 2


def match_up_to_conjugation(actual: np.ndarray, reference: np.ndarray,
                            tol: Tolerances = DEFAULT_TOL) -> ConjugationBranch:
    """Compare a state to a reference (x) junk factor, in both branches."""
    actual = np.asarray(actual, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    d_act = actual.shape[0]
    d_ref = reference.shape[0]
    if d_act % d_ref != 0:
        raise DimensionError(
            f"actual dim {d_act} is not a multiple of reference dim {d_ref}"
        )
    d_junk = d_act // d_ref
    trace = np.trace(reference)
    if not trace.real > 0:
        raise ContractViolation(f"reference trace {trace.real:.3e} is not positive")
    ref_n = reference / trace
    if d_junk == 1:
        candidates = [ref_n, ref_n.conj()]
    else:
        junk = partial_trace(actual, [d_ref, d_junk], keep=[1])
        candidates = [kron(ref_n, junk), kron(ref_n.conj(), junk)]
    d_plain = float(np.linalg.norm(actual - candidates[0]))
    d_conj = float(np.linalg.norm(actual - candidates[1]))
    branch = _branch_from_residuals([d_plain], [d_conj], tol)
    distance = {PLAIN: d_plain, CONJUGATE: d_conj}.get(branch, min(d_plain, d_conj))
    return ConjugationBranch(branch, distance)


def _part3_from_outcomes(scenario: Scenario, table: CorrelationTable, outcomes,
                         expected_probs, reference: np.ndarray,
                         tol: Tolerances) -> Part3Report:
    """Shared part-3 core: outcome probabilities plus weighted state average."""
    n = scenario.n_parties
    d_a = int(np.prod(scenario.alice_dims))
    if reference.shape[0] > d_a:
        raise DimensionError(
            f"target state dim {reference.shape[0]} exceeds the Alice space dim {d_a}"
        )
    probs = [table.pbar(l, 1) for l in outcomes]
    prob_passed = all(
        abs(p - q) <= tol.acceptance for p, q in zip(probs, expected_probs)
    )
    total = float(sum(probs))
    if abs(total - 2.0**-n) > tol.acceptance:
        prob_passed = False
    avg = np.zeros((d_a, d_a), dtype=complex)
    for l, p in zip(outcomes, probs):
        avg += p * post_measurement_state(scenario, l, 1, tol)
    avg /= total
    target = _embed_block(reference, d_a)
    branch = match_up_to_conjugation(avg, target, tol)
    return Part3Report(
        outcomes=tuple(outcomes),
        probabilities=tuple(probs),
        expected_probabilities=tuple(expected_probs),
        total_probability=total,
        branch=branch,
        prob_passed=prob_passed,
        state_passed=branch.matched(),
    )


def certify_state_preparation(scenario: Scenario, spec: MixedStateSpec,
                              table: CorrelationTable = None,
                              tol: Tolerances = DEFAULT_TOL) -> Part3Report:
    """Mixed-state preparation via the trine construction.

    Expects Eve's second measurement to be the embedded trine POVM of
    ``spec``; outcome (k, 1) sits at effect index 3k and must occur with
    probability p_k / 2^N.
    """
    if table is None:
        table = born_table(scenario, tol)
    n = scenario.n_parties
    outcomes = trine_preparation_outcomes(spec)
    if max(outcomes) >= table.outcome_count(1):
        raise DimensionError(
            "Eve's second measurement has too few outcomes for this state spec"
        )
    expected = [w / 2.0**n for w in spec.weights]
    return _part3_from_outcomes(
        scenario, table, outcomes, expected, spec.density_matrix(), tol
    )


def certify_pure_preparation(scenario: Scenario, psi: np.ndarray,
                             table: CorrelationTable = None,
                             tol: Tolerances = DEFAULT_TOL) -> Part3Report:
    """Pure-state preparation: outcome 0 of an embedded rank-one projection."""
    psi = as_state(psi, None, "target state")
    if table is None:
        table = born_table(scenario, tol)
    n = scenario.n_parties
    reference = np.outer(psi, psi.conj())
    return _part3_from_outcomes(scenario, table, [0], [2.0**-n], reference, tol)


def _resolve_verdict(part1: Part1Report, part2: Part2Report | None,
                     part3: Part3Report | None) -> str:
    if not part1.bell_passed:
        return FAILED
    if part2 is not None and not part2.passed:
        return FAILED
    if part3 is not None and not part3.passed:
        return FAILED
    if not part1.pbar_passed:
        # Bell values maximal but the outcome weights deviate: the two
        # hypotheses are reported separately rather than conflated.
        return INCONCLUSIVE
    return CERTIFIED


def certify(scenario: Scenario, reference_effects, mode: str,
            tol: Tolerances = DEFAULT_TOL,
            state_spec: MixedStateSpec = None) -> CertificationReport:
    """Full pipeline: part 1, part 2 in the requested mode, optional part 3."""
    _require_mode(mode)
    table = born_table(scenario, tol)
    part1 = check_part1(table, scenario.n_parties, tol)
    part2 = check_part2(table, reference_effects, mode, tol)
    part3 = None
    if state_spec is not None:
        part3 = certify_state_preparation(scenario, state_spec, table, tol)
        if part3.branch.matched() and part2.passed and part3.branch.branch != part2.branch:
            # inconsistent branches across pipeline stages cannot certify
            part3 = replace(part3, branch=ConjugationBranch(NO_BRANCH, part3.branch.distance),
                            state_passed=False)
    verdict = _resolve_verdict(part1, part2, part3)
    return CertificationReport(
        part1=part1, part2=part2, part3=part3, verdict=verdict, tolerances=tol
    )


# ---------------------------------------------------------------------------
# Noise scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    level: float
    bell_values: tuple          # per label, NaN when conditioning fails
    min_bell: float
    pbar_deviation: float       # max |P(l|0) - 2^-N|
    part2_max_residual: float | None


@dataclass(frozen=True)
class ScanReport:
    model: str
    rows: tuple
    bell_monotone: bool         # min Bell value non-decreasing in the level


# Each model maps (scenario, v) to the scenario with every source (isotropic)
# or every Eve effect (effects) X replaced by the convex mixture
# v X + (1 - v) X_0, where X_0 depends on X alone.  noise_scan relies on this:
# the Born-table factors are linear in X, so it expands the scenario and its
# v = 0 image once and mixes their factors at each level.
NOISE_MODELS = {
    "isotropic": depolarize_sources,
    "effects": depolarize_effects,
}


def noise_scan(scenario: Scenario, model: str, grid,
               reference_effects=None, mode: str = "projective",
               tol: Tolerances = DEFAULT_TOL) -> ScanReport:
    """Part-1 (and optionally part-2) metrics along a noise grid.

    The scenario and its v = 0 image are built and expanded once; level v
    is read from the mixed Born factors v f_1 + (1 - v) f_0, which are those
    of the noisy scenario (see ``NOISE_MODELS``).  The sorted grid
    is walked in chunks of levels, and each chunk's mixed factors are
    checked and contracted as one stack, with no (a, l, x) table.
    """
    _require_mode(mode)
    if model not in NOISE_MODELS:
        raise DimensionError(f"unknown noise model {model!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise DimensionError("noise grid must not be empty")
    if any(not 0 <= v <= 1 for v in grid):
        raise DimensionError("noise levels must lie in [0, 1]")
    n = scenario.n_parties
    levels = sorted(grid)
    ends = _born_factors(scenario), _born_factors(NOISE_MODELS[model](scenario, 0.0))
    terms = None
    if reference_effects is not None:
        terms = _reference_terms(reference_effects, n, scenario.eve[1].outcome_count, mode, tol)
    # levels per chunk: the non-negativity check expands one level's factors
    # to (K_0 + K_1) 6^N entries
    step = max(1, _CHUNK_ENTRIES // (sum(len(c) for c in ends[0][0]) * 6**n))
    rows = []
    for s in range(0, len(levels), step):
        v = np.array(levels[s:s + step])
        # the factors, and the spectra that bound them, of each level: v f_1 + (1 - v) f_0
        coeffs, w_maps, spectra = (
            [np.multiply.outer(v, a) + np.multiply.outer(1 - v, b) for a, b in zip(f1, f0)]
            for f1, f0 in zip(*ends)
        )
        _check_factors(n, coeffs, w_maps, tol, spectra)
        t0 = _correlators(coeffs[0], w_maps)
        weights = _outcome_weights(n, t0)
        values = _bell_values(n, t0, weights, tol)
        part2 = [None] * len(v)
        if terms is not None:
            res_plain, res_conj = _part2_residuals(mode, n, _correlators(coeffs[1], w_maps), terms)
            part2 = np.minimum(res_plain.max(axis=-1), res_conj.max(axis=-1)).tolist()
        lows = np.nanmin(values, axis=-1).tolist()
        devs = np.abs(weights - 2.0**-n).max(axis=-1).tolist()
        rows += [
            ScanRow(level=level, bell_values=tuple(row), min_bell=low, pbar_deviation=dev,
                    part2_max_residual=res)
            for level, row, low, dev, res in zip(levels[s:s + step], values.tolist(), lows,
                                                 devs, part2)
        ]
    mins = [r.min_bell for r in rows]
    monotone = all(b >= a - tol.acceptance for a, b in zip(mins, mins[1:]))
    return ScanReport(model=model, rows=tuple(rows), bell_monotone=monotone)
