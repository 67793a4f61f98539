"""Three-part certification pipeline.

Part 1 checks that every Bell expression in the family reaches its quantum
bound with uniform outcome weights.  Part 2 checks the algebraic conditions
tying Eve's second measurement to a reference (projective or rank-one
extremal POVM), in both the plain and the conjugated branch.  Part 3
compares the Alice states conditioned on Eve's preparation outcomes with a
target state up to complex conjugation; it reads them, like every check,
from the Born factors: the table's e = 1 rows contracted with the sources'
real expansions, then turned back into operators in one real step.

Branch semantics: "Plain" means the actual object matches the reference as
given, "Conjugate" means it matches the entrywise conjugate.  When both
match (real references) the tie resolves to Plain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bell import _bell_numerators, _bell_values, bell_values, quantum_bound
from .config import DEFAULT_TOL, Tolerances
from .errors import ConditioningError, ContractViolation, DimensionError
from .measurements import (
    MixedStateSpec,
    Povm,
    _conjugation_signs,
    _embed_block,
    _check_effects_hermitian,
    _pauli_expansion,
    trine_preparation_outcomes,
)
from .network import (
    _CHUNK_ENTRIES,
    CorrelationTable,
    Scenario,
    _basis_expansion,
    _basis_operators,
    _born_factors,
    _check_factors,
    _check_levels,
    _conditioned_coefficients,
    _contract_parties,
    _correlators,
    _outcome_sums,
    _outcome_weights,
    _steering_factors,
    born_table,
)
from .presets import depolarize_effects, depolarize_sources
from .tensor import _hermitian_basis, as_state, numerical_ranks

# Projective mode drops the reference's Pauli coefficients at or below this
# magnitude from its sums, as rounding: the expansion of an effect on C^d
# errs by order d u, 1.4e-14 at N = 7.  Not a ``Tolerances`` field: it is
# float64 rounding, not a run's allowance, so a run's residuals do not move
# with its tolerances; ``perfbench/spans.py``'s ``ZERO_COEFF`` mirrors it.
_COEFF_CUT = 1e-14

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
    bell_values: tuple          # per label, NaN on conditioning failure
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
        return _branch_value(self.branch, max(self.residuals_plain), max(self.residuals_conjugate))


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
    values, pbar = bell_values(table), table.outcome_weights(0)
    return Part1Report(
        bell_values=tuple(values.tolist()),
        pbar=tuple(pbar.tolist()),
        # a vanishing outcome cannot certify anything: its NaN value is not maximal
        bell_passed=bool(np.all(np.abs(values - quantum_bound(n)) <= tol.acceptance)),
        pbar_passed=bool(np.all(np.abs(pbar - 2.0**-n) <= tol.acceptance)),
    )


def _branch_value(branch: str, plain: float, conjugate: float) -> float:
    """The matched branch's value, or the smaller of the two when neither matches."""
    return {PLAIN: plain, CONJUGATE: conjugate}.get(branch, min(plain, conjugate))


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


def _reference_terms(reference, n: int, k_out: int, mode: str, tol: Tolerances) -> tuple:
    """Plain and conjugated Pauli coefficient rows (K, 4^N) of the reference, and its ranks.

    A reference that is not a ``Povm`` is validated as one, once, at
    ``tol``.  Then one check sequence runs: 2^N, the outcome count,
    Hermiticity (``_check_effects_hermitian``), the ranks from its spectrum
    in projective mode, and only then the expansion.
    """
    if not isinstance(reference, Povm):
        reference = Povm(reference, tol)
    if reference.dim != 2**n:
        raise DimensionError(f"matrix dim {reference.dim} is not 2^{n}")
    if reference.outcome_count != k_out:
        raise DimensionError(f"reference outcome count {reference.outcome_count} differs "
                             f"from Eve's e=1 outcome count {k_out}")
    _check_effects_hermitian(reference, tol)
    ranks = numerical_ranks(reference.spectrum, tol) if mode == "projective" else None
    plain = _pauli_expansion(reference, n)
    if mode == "projective":  # its sums weigh only the coefficients above the cut
        plain[np.abs(plain) <= _COEFF_CUT] = 0.0
    return plain.reshape(k_out, -1), (plain * _conjugation_signs(n)).reshape(k_out, -1), ranks


def _part2_residuals(mode: str, n: int, t: np.ndarray, terms) -> tuple:
    """Plain and conjugated residuals (..., K) of e = 1 correlator tensors t (..., K, 4, ..., 4)."""
    plain, conj, ranks = terms
    t = t.reshape(t.shape[:-n] + (-1,))
    if mode == "projective":
        return tuple(np.abs((c * t).sum(axis=-1) - ranks / 2.0**n) for c in (plain, conj))
    return tuple(np.abs(t - c).max(axis=-1) for c in (plain, conj))


def check_part2(table: CorrelationTable, reference_effects, mode: str,
                tol: Tolerances = DEFAULT_TOL) -> Part2Report:
    """Eve's e = 1 measurement against the reference, a ``Povm`` or its effects, in both branches.

    Projective mode compares each outcome's coefficient-weighted expectation
    sum with r_l / 2^N; povm mode matches every Pauli coefficient.  Effects
    that are not a ``Povm`` are validated as one at ``tol``, and refused as
    ``Povm`` refuses them.
    """
    _require_mode(mode)
    terms = _reference_terms(reference_effects, table.n, table.outcome_count(1), mode, tol)
    residuals = _part2_residuals(mode, table.n, table.correlator_tensor(1), terms)
    res_plain, res_conj = (tuple(r.tolist()) for r in residuals)
    branch = _branch_from_residuals(res_plain, res_conj, tol)
    return Part2Report(mode=mode, residuals_plain=res_plain, residuals_conjugate=res_conj,
                       branch=branch, passed=branch != NO_BRANCH)


def _conditioned_states(scenario: Scenario, c: np.ndarray, outcomes, e: int,
                        tol: Tolerances) -> tuple:
    """Unnormalised Alice states (K, D, D) that Eve's Born-factor rows c condition, and P(l | e).

    Each probability is its state's trace; the first of ``outcomes`` at or
    below ``tol.probability`` raises ``ConditioningError``.
    """
    states = _basis_operators(_conditioned_coefficients(scenario, c), scenario.alice_dims,
                              _hermitian_basis)
    probs = np.trace(states, axis1=1, axis2=2).real
    low = probs <= tol.probability
    if low.any():
        i = int(np.argmax(low))
        raise ConditioningError(f"outcome l={outcomes[i]}, e={e} has probability {probs[i]:.3e}")
    return states, probs


def post_measurement_state(scenario: Scenario, l: int, e: int,
                           tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Normalized Alice state conditioned on Eve's outcome l under input e.

    ``_conditioned_states`` of the Born-factor expansion of R_l alone: no
    operator on the joint Alice-Eve space is formed.
    """
    if e not in (0, 1):
        raise DimensionError(f"Eve input e={e} out of range")
    meas = scenario.eve[e]
    if not 0 <= l < meas.outcome_count:
        raise DimensionError(f"outcome l={l} out of range for e={e}")
    c = _basis_expansion(meas, scenario.eve_dims, _hermitian_basis, slice(l, l + 1))
    states, probs = _conditioned_states(scenario, c, [l], e, tol)
    return states[0] / probs[0]


def match_up_to_conjugation(actual: np.ndarray, reference: np.ndarray,
                            tol: Tolerances = DEFAULT_TOL) -> ConjugationBranch:
    """Compare a state to a reference of the same dimension, in both branches."""
    actual = np.asarray(actual, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if actual.shape[0] != reference.shape[0]:
        raise DimensionError(
            f"actual dim {actual.shape[0]} differs from reference dim {reference.shape[0]}"
        )
    trace = np.trace(reference)
    if not trace.real > 0:
        raise ContractViolation(f"reference trace {trace.real:.3e} is not positive")
    ref_n = reference / trace
    d_plain = float(np.linalg.norm(actual - ref_n))
    d_conj = float(np.linalg.norm(actual - ref_n.conj()))
    branch = _branch_from_residuals([d_plain], [d_conj], tol)
    return ConjugationBranch(branch, _branch_value(branch, d_plain, d_conj))


def certify_state_preparation(scenario: Scenario, spec: MixedStateSpec,
                              table: CorrelationTable = None,
                              tol: Tolerances = DEFAULT_TOL) -> Part3Report:
    """Remote preparation of ``spec``, of any rank, via the trine construction.

    Expects Eve's second measurement to be the embedded ``trine_povm`` of
    ``spec``; outcome (k, 1) sits at effect index 3k (0 for a pure spec) and
    must occur with probability p_k / 2^N, and the outcomes' total with
    2^-N.  One ``_conditioned_states`` of the table's e = 1 rows gives every
    state and probability; their average, the unnormalised states' sum over
    the total, must match the target up to conjugation.
    """
    if table is None:
        table = born_table(scenario, tol)
    n = scenario.n_parties
    outcomes = trine_preparation_outcomes(spec)
    if max(outcomes) >= table.outcome_count(1):
        raise DimensionError(
            "Eve's second measurement has too few outcomes for this state spec"
        )
    d_a = int(np.prod(scenario.alice_dims))
    if spec.d > d_a:
        raise DimensionError(f"target state dim {spec.d} exceeds the Alice space dim {d_a}")
    states, probs = _conditioned_states(scenario, table._factors(1)[outcomes], outcomes, 1, tol)
    probs = probs.tolist()
    expected = [w / 2.0**n for w in spec.weights]
    prob_passed = all(
        abs(p - q) <= tol.acceptance for p, q in zip(probs, expected)
    )
    total = float(sum(probs))
    if abs(total - 2.0**-n) > tol.acceptance:
        prob_passed = False
    avg = states.sum(axis=0) / total
    branch = match_up_to_conjugation(avg, _embed_block(spec.density_matrix(), d_a), tol)
    return Part3Report(
        outcomes=tuple(outcomes),
        probabilities=tuple(probs),
        expected_probabilities=tuple(expected),
        total_probability=total,
        branch=branch,
        prob_passed=prob_passed,
        state_passed=branch.matched(),
    )


def certify_pure_preparation(scenario: Scenario, psi: np.ndarray,
                             table: CorrelationTable = None,
                             tol: Tolerances = DEFAULT_TOL) -> Part3Report:
    """Pure-state preparation: ``certify_state_preparation`` of the rank-one spec psi / ||psi||.

    psi is first divided by its largest real or imaginary part, so the norm
    of any finite target is finite.
    """
    psi = as_state(psi, "target state")
    scale = max(np.abs(psi.real).max(), np.abs(psi.imag).max())
    if not scale > 0:
        raise ContractViolation("target state is zero")
    psi = psi / scale
    spec = MixedStateSpec(psi.size, (1.0,), (psi / np.linalg.norm(psi),))
    return certify_state_preparation(scenario, spec, table, tol)


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
    """Full pipeline: part 1, part 2 in the requested mode, optional part 3.

    A ``reference_effects`` of None runs no part 2 and reports ``part2=None``,
    as in ``noise_scan``; parts 2 and 3 must agree on the branch only when
    both ran.  An unknown ``mode`` raises either way.
    """
    _require_mode(mode)
    table = born_table(scenario, tol)
    part1 = check_part1(table, scenario.n_parties, tol)
    part2 = part3 = None
    if reference_effects is not None:
        part2 = check_part2(table, reference_effects, mode, tol)
    if state_spec is not None:
        part3 = certify_state_preparation(scenario, state_spec, table, tol)
        if (part3.branch.matched() and part2 is not None and part2.passed
                and part3.branch.branch != part2.branch):
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
# v X + (1 - v) Tr[X] 1/d with white noise.  noise_scan builds none of these
# scenarios: the Born factors are linear in X, so level v reads the factors
# v f_1 + (1 - v) f_0 of the scenario's own (f_1) and of its v = 0 image
# (f_0, which each model's reader builds itself); each model mixes only the
# factor it changes.  Under effects Eve's coefficients mix, so every quantity a
# scan reads is affine in v and is read from the two ends' contractions.  Under
# isotropic the steering maps mix and Eve's coefficients are shared, so the
# table is a degree-N polynomial in v, and each level's maps are contracted.
NOISE_MODELS = {
    "isotropic": depolarize_sources,
    "effects": depolarize_effects,
}


def _mix(v: np.ndarray, one: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """v one + (1 - v) zero for each level of v, stacked (L, ...); ``zero`` broadcasts."""
    out = np.multiply.outer(v, one)
    out += np.multiply.outer(1 - v, zero)
    return out


def _isotropic_chunks(n: int, levels, scenario: Scenario, factors, both: bool, tol: Tolerances):
    """An ``isotropic`` scan: each chunk of levels mixes the steering maps, checks and contracts.

    The v = 0 end replaces every source by the white 1/d, whose steering
    maps and spectra ``_steering_factors`` reads as it reads the scenario's
    own.  Eve's factors are equal at both ends and go in once, as shared
    (1, ...) stacks.  A chunk holds as many levels as the non-negativity
    check could expand within ``_CHUNK_ENTRIES`` entries, (K_0 + K_1) 6^N
    per level.  Yields the levels v, their Bell numerators and weights
    P(l | 0) (L, K_0) and, if ``both``, [their e = 1 correlator tensors
    (L, K_1, 4, ..., 4)].
    """
    coeffs, w_maps1, (s1, *r) = factors
    white = [np.eye(len(rho)) / len(rho) for rho in scenario.sources]
    w_maps0, s0 = _steering_factors(white, scenario.alice_observables, scenario.eve_dims)
    coeffs, r = [c[None] for c in coeffs], [r_e[None] for r_e in r]
    step = max(1, _CHUNK_ENTRIES // (sum(c.shape[1] for c in coeffs) * 6**n))
    for s in range(0, len(levels), step):
        v = np.array(levels[s:s + step])
        w_maps = [_mix(v, a, b) for a, b in zip(w_maps1, w_maps0)]
        _check_factors(coeffs, w_maps, tol, [_mix(v, s1, s0), *r])
        t0, *t1 = [_correlators(c, w_maps) for c in coeffs[:1 + both]]
        yield v, _bell_numerators(n, t0), _outcome_weights(n, t0), t1


def _effects_chunks(n: int, levels, scenario: Scenario, factors, both: bool, tol: Tolerances):
    """An ``effects`` scan, as ``_isotropic_chunks``, each level mixed from the two ends.

    The v = 0 end sends each effect R_l to Tr[R_l] 1/d_E, so each c_e[l] to
    u_e[l] t, u_e[l] = Tr R_l / d_E, whose one eigenvalue is u_e[l]; the
    steering maps stay.  Here t, the product of the t_i, expands the
    identity (t_i: 1 on the d_i diagonal units of party i's
    ``_hermitian_basis``, 0 elsewhere), so Tr[X] = c . t.  Every quantity Q
    a level reads is linear in Eve's coefficients, so it is contracted once
    per end, whatever the number of levels: Q_1 from the scenario's factors
    c_e, and Q_0 = u_e (x) Q(t) from t alone; c_e^0 = u_e (x) t is never
    formed.  A chunk of levels holds at most ``_CHUNK_ENTRIES`` coefficient
    entries, (K_0 + K_1) D_1..D_N per level, which bound its other mixed
    arrays too.  Its mixed marginals and spectra go through every check, and
    where the bound falls short its mixed factors are streamed.
    """
    coeffs, w_maps, (s, *r) = factors
    t = np.zeros(coeffs[0].shape[1:])
    t[tuple(slice(d) for d in scenario.eve_dims)] = 1.0
    units = [c.reshape(len(c), -1) @ t.ravel() / scenario.eve[0].dim for c in coeffs]
    r0 = [np.stack([np.minimum(u, 0.0), np.maximum(u, 0.0)]) for u in units]
    sums = _outcome_sums(w_maps)
    q_tensor = _correlators(t[None], w_maps)[0]
    q_alice, *alices = _contract_parties(
        np.stack([t] + [c.sum(axis=0) for c in coeffs]), w_maps).reshape(3, -1)
    q_marginal = _contract_parties(t[None], sums).ravel()
    t0 = _correlators(coeffs[0], w_maps)
    # (Q_1, Q_0) per Eve input of her marginals per Alice input, of the Alice
    # marginals and of the extreme eigenvalues, then e = 0's Bell numerators
    # and weights, and with a reference the e = 1 correlator tensors
    pairs = ([(_contract_parties(c, sums).reshape(len(c), -1), np.multiply.outer(u, q_marginal))
              for c, u in zip(coeffs, units)]
             + [(a, u.sum() * q_alice) for a, u in zip(alices, units)] + list(zip(r, r0))
             + [(_bell_numerators(n, t0),
                 units[0] * _bell_numerators(n, np.broadcast_to(q_tensor, t0.shape))),
                (_outcome_weights(n, t0), units[0] * _outcome_weights(n, q_tensor))]
             + [(_correlators(coeffs[1], w_maps), np.multiply.outer(units[1], q_tensor))][:both])
    maps = [w[None] for w in w_maps]
    step = max(1, _CHUNK_ENTRIES // sum(c.size for c in coeffs))
    for i in range(0, len(levels), step):
        v = np.array(levels[i:i + step])
        pbar0, pbar1, alice0, alice1, r_0, r_1, raw, weights, *t1 = [_mix(v, *q) for q in pairs]
        _check_levels(tol, maps, [s[None], r_0, r_1],
                      lambda e: _mix(v, coeffs[e], np.multiply.outer(units[e], t)),
                      [pbar0, pbar1], [alice0, alice1])
        yield v, raw, weights, t1


def noise_scan(scenario: Scenario, model: str, grid,
               reference_effects=None, mode: str = "projective",
               tol: Tolerances = DEFAULT_TOL) -> ScanReport:
    """Part-1 (and optionally part-2) metrics along a noise grid.

    The scenario is expanded once into its Born factors f_1, and each
    model's reader builds those f_0 of its v = 0 image in closed form: no
    noisy scenario is built.  Level v is read from v f_1 + (1 - v) f_0,
    the factors of the noisy scenario (see ``NOISE_MODELS``), and every
    level passes the checks of ``CorrelationTable``: a failing scan raises
    the error of its first failing level.  Under ``effects`` each quantity
    is affine in v, so the factors are contracted once per end and each
    level mixes the contracted ends (``_effects_chunks``).  Under
    ``isotropic`` only the steering maps mix, in chunks of levels contracted
    as stacks (``_isotropic_chunks``).  No (a, l, x) table is formed.
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
    factors = _born_factors(scenario)
    terms = None if reference_effects is None else _reference_terms(
        reference_effects, n, scenario.eve[1].outcome_count, mode, tol)
    chunks = _effects_chunks if model == "effects" else _isotropic_chunks
    rows = []
    for v, raw, weights, t1 in chunks(n, levels, scenario, factors, terms is not None, tol):
        values = _bell_values(raw, weights, tol)
        part2 = [None] * len(v)
        if terms is not None:
            res_plain, res_conj = _part2_residuals(mode, n, t1[0], terms)
            part2 = np.minimum(res_plain.max(axis=-1), res_conj.max(axis=-1)).tolist()
        lows = np.nanmin(values, axis=-1).tolist()
        devs = np.abs(weights - 2.0**-n).max(axis=-1).tolist()
        rows += [
            ScanRow(level=level, bell_values=tuple(row), min_bell=low, pbar_deviation=dev,
                    part2_max_residual=res)
            for level, row, low, dev, res in zip(v.tolist(), values.tolist(), lows, devs, part2)
        ]
    mins = [r.min_bell for r in rows]
    monotone = all(b >= a - tol.acceptance for a, b in zip(mins, mins[1:]))
    return ScanReport(model=model, rows=tuple(rows), bell_monotone=monotone)
