"""Ready-made scenarios, tamperings, and seeded random generators.

The ideal scenario reaches the quantum bound of every Bell expression in
the family: each source emits a two-qubit maximally entangled state, party
1 measures the rotated X/Z pair plus Y, every other party measures Z, X, Y,
and Eve's first measurement is the GHZ-like basis.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .bell import _ghz_rows, ideal_observables
from .errors import DimensionError
from .measurements import Povm, ghz_basis_measurement
from .network import BinaryObservableTriple, Scenario

PHI_PLUS = _ghz_rows(2, 0, 1)[0]  # (|00> + |11>)/sqrt2


@lru_cache(maxsize=None)
def _phi_plus_source() -> np.ndarray:
    """|Phi+><Phi+|, read-only, built once on first use."""
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    rho.flags.writeable = False
    return rho


@lru_cache(maxsize=None)
def _trivial_measurement(n: int) -> Povm:
    """The one-outcome measurement {1} on Eve's 2^N dims, built and validated once per N."""
    return Povm((np.eye(2**n, dtype=complex),))


def ideal_scenario(n: int, eve_second=None, visibility: float = 1.0) -> Scenario:
    """The maximally violating scenario, optionally with isotropic sources.

    ``eve_second`` supplies Eve's e = 1 measurement: a ``Povm``, stored as
    it is, or a plain effect sequence; the default is the trivial one-outcome
    measurement, which suffices for part-1 runs.  The sources, the observable
    triples and the default e = 1 measurement are shared, read-only
    constants, built once per process on first use; the Scenario is new and
    validates them on every call.
    """
    if not 0 <= visibility <= 1:
        raise DimensionError(f"visibility {visibility} outside [0, 1]")
    if eve_second is None:
        eve_second = _trivial_measurement(n)
    elif not isinstance(eve_second, Povm):
        eve_second = Povm(tuple(eve_second))
    scenario = Scenario(
        n_parties=n,
        sources=(_phi_plus_source(),) * n,
        alice_observables=tuple(ideal_observables(n)),
        eve=(ghz_basis_measurement(n), eve_second),
    )
    return scenario if visibility == 1 else depolarize_sources(scenario, visibility)


def conjugate_scenario(scenario: Scenario) -> Scenario:
    """Entrywise conjugate of every state, observable, and effect."""
    return Scenario(
        n_parties=scenario.n_parties,
        sources=tuple(np.conj(s) for s in scenario.sources),
        alice_observables=tuple(
            BinaryObservableTriple(*(np.conj(a) for a in t.observables()))
            for t in scenario.alice_observables
        ),
        eve=tuple(
            Povm(np.conj(meas.effects), meas.tol) if meas.vectors is None
            else Povm.rank_one(np.conj(meas.vectors), meas.tol)
            for meas in scenario.eve
        ),
    )


# ---------------------------------------------------------------------------
# Tamperings (each one flips a certification verdict to Failed)
# ---------------------------------------------------------------------------

def flip_observable_sign(scenario: Scenario, party: int, which: int) -> Scenario:
    """Negate one observable of one party."""
    triples = list(scenario.alice_observables)
    obs = list(triples[party].observables())
    obs[which] = -obs[which]
    triples[party] = BinaryObservableTriple(*obs)
    return replace(scenario, alice_observables=tuple(triples))


def swap_eve_effects(scenario: Scenario, e: int, i: int, j: int) -> Scenario:
    """Swap two effects of one Eve measurement (keeps it a valid POVM)."""
    eve = list(scenario.eve)
    effects = list(eve[e].effects)
    effects[i], effects[j] = effects[j], effects[i]
    eve[e] = Povm(tuple(effects), eve[e].tol)
    return replace(scenario, eve=tuple(eve))


def depolarize_sources(scenario: Scenario, visibility: float, parties=None) -> Scenario:
    """Mix each source in ``parties`` (all by default) with white noise: v rho + (1 - v) 1/d."""
    sources = list(scenario.sources)
    for i in range(scenario.n_parties) if parties is None else parties:
        d = sources[i].shape[0]
        sources[i] = visibility * sources[i] + (1 - visibility) * np.eye(d) / d
    return replace(scenario, sources=tuple(sources))


def depolarize_effects(scenario: Scenario, visibility: float) -> Scenario:
    """Mix every Eve effect with white noise of its trace: v R + (1 - v) Tr[R] 1/d."""
    eve = []
    for meas in scenario.eve:
        traces = np.trace(meas.effects, axis1=1, axis2=2).real / meas.dim
        effects = visibility * meas.effects
        effects += (1 - visibility) * traces[:, None, None] * np.eye(meas.dim)
        eve.append(Povm(effects, meas.tol))
    return replace(scenario, eve=tuple(eve))


def depolarize_one_source(scenario: Scenario, i: int, visibility: float) -> Scenario:
    return depolarize_sources(scenario, visibility, parties=(i,))


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the draw is Haar distributed
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_dichotomic_observable(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random unitary observable U diag(+-1) U^dagger (never proportional to 1)."""
    while True:
        signs = rng.integers(0, 2, size=dim) * 2 - 1
        if len(set(signs.tolist())) == 2:
            break
    u = random_unitary(dim, rng)
    return u @ np.diag(signs.astype(complex)) @ u.conj().T


def random_observable_triple(dim: int, rng: np.random.Generator) -> BinaryObservableTriple:
    return BinaryObservableTriple(
        random_dichotomic_observable(dim, rng),
        random_dichotomic_observable(dim, rng),
        random_dichotomic_observable(dim, rng),
    )


def random_projective_measurement(d: int, rank_profile, rng: np.random.Generator):
    """Orthogonal projections on C^d with the given ranks (summing to d)."""
    ranks = [int(r) for r in rank_profile]
    if sum(ranks) != d or any(r < 1 for r in ranks):
        raise DimensionError(f"rank profile {ranks} does not resolve C^{d}")
    u = random_unitary(d, rng)
    effects = []
    start = 0
    for r in ranks:
        block = u[:, start:start + r]
        effects.append(block @ block.conj().T)
        start += r
    return effects


def random_rank1_extremal_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """A random complete rank-one POVM; extremal for generic draws.

    Rank-one vectors are squashed through S^{-1/2} with S their frame
    operator, which enforces completeness while preserving rank one.
    """
    if not d <= n_outcomes <= d * d:
        raise DimensionError(f"need d <= outcomes <= d^2, got {n_outcomes} on C^{d}")
    vectors = [random_state_vector(d, rng) for _ in range(n_outcomes)]
    s = sum(np.outer(v, v.conj()) for v in vectors)
    vals, vecs = np.linalg.eigh(s)
    s_inv_half = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return Povm.rank_one([s_inv_half @ v for v in vectors])


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """A random full-rank POVM via normalized Wishart effects."""
    raw = []
    for _ in range(n_outcomes):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(z @ z.conj().T)
    s = sum(raw)
    vals, vecs = np.linalg.eigh(s)
    s_inv_half = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    effects = tuple(s_inv_half @ m @ s_inv_half for m in raw)
    return Povm(effects)


def random_mixed_state_spec(d: int, rng: np.random.Generator):
    """A full-rank state spec with Haar eigenvectors and Dirichlet weights."""
    from .measurements import MixedStateSpec

    weights = rng.dirichlet(np.ones(d))
    weights = weights / weights.sum()
    u = random_unitary(d, rng)
    return MixedStateSpec(
        d=d,
        weights=tuple(float(w) for w in weights),
        vectors=tuple(u[:, k].copy() for k in range(d)),
    )


def random_scenario(n: int, rng: np.random.Generator) -> Scenario:
    """A fully random qubit-source scenario (generic, not violating)."""
    sources = tuple(random_density_matrix(4, rng) for _ in range(n))
    triples = tuple(random_observable_triple(2, rng) for _ in range(n))
    dim_e = 2**n
    eve0 = Povm(tuple(random_projective_measurement(dim_e, [1] * dim_e, rng)))
    eve1 = random_povm(dim_e, 2, rng)
    return Scenario(
        n_parties=n, sources=sources, alice_observables=triples, eve=(eve0, eve1)
    )


def symmetric_trine_qubit_povm() -> Povm:
    """The three-outcome symmetric rank-one POVM on one qubit."""
    theta = 2 * np.pi * np.arange(3) / 3
    return Povm.rank_one(np.sqrt(2 / 3) * np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=1))
