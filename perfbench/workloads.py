"""Seeded job generator and per-job output checker for the starcert benchmark.

Inputs are built with numpy alone, straight into the JSON file formats the
CLI documents, so the program under test never makes its own inputs.  Every
expected exit code, verdict, branch and value follows from the construction:

* the ideal star scenario (maximally entangled sources, the optimal
  observables, GHZ-basis first measurement) reaches the quantum bound
  3(N-1) of every Bell expression with uniform outcome weights 2^-N;
* steering through a maximally entangled source transposes Eve's effect, so
  a scenario holding the entrywise conjugate of the reference certifies on
  the Plain branch and one holding the reference itself on the Conjugate
  branch (all references here are complex, so the branches never tie);
* depolarising Eve's effects with visibility v scales every conditional
  correlator, hence every Bell value, by v.

Each job draws from its own stream ``default_rng([seed, workload, job])``,
so job k is the same for a given seed however many jobs a run completes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("certify-n4", "prepare-n5", "scan-n3")

# The CLI's default acceptance tolerance: every analytic value must hold to it.
TOL = 1e-9

SQRT2 = math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / SQRT2

# certify-n4 job kinds, repeated in this order: 6 povm-mode to 2
# projective-mode jobs.  Per-job call counts depend only on the kind, so
# per-job counts over whole cycles repeat exactly.
CERTIFY_CYCLE = ("trine", "rank1", "projective", "trine",
                 "rank1", "trine", "rank1", "projective")
# Ranks of the random projective references on C^16 (12 outcomes).
PROJECTIVE_RANKS = (1,) * 8 + (2,) * 4
VARIANTS = ("plain", "conjugate", "flip", "swap")

CYCLE = {"certify-n4": len(CERTIFY_CYCLE), "prepare-n5": 4, "scan-n3": 4}
SCAN_LEVELS = 41


@dataclass
class Job:
    """One CLI invocation: its input files, argv and what it must report."""

    workload: str
    job_id: int
    argv: list
    files: dict = field(default_factory=dict)   # path -> JSON document
    expect: dict = field(default_factory=dict)

    def write(self) -> None:
        for path, doc in self.files.items():
            with open(path, "w") as fh:
                fh.write(json.dumps(doc))

    def remove(self) -> None:
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)


# ---------------------------------------------------------------------------
# Building blocks (numpy only)
# ---------------------------------------------------------------------------

def _matrix_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    entries = np.stack([m.real.ravel(), m.imag.ravel()], axis=1)
    return {"dim": int(m.shape[0]), "entries": entries.tolist()}


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ghz_effects(n: int) -> list:
    """Projectors onto (|l> + (-1)^{l_1} |complement of l>)/sqrt2, l over N bits."""
    dim = 2**n
    effects = []
    for value in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[value] = 1 / SQRT2
        v[dim - 1 - value] += (-1) ** ((value >> (n - 1)) & 1) / SQRT2
        effects.append(np.outer(v, v.conj()))
    return effects


def _ideal_observables(n: int) -> list:
    first = [(PAULI_X + PAULI_Z) / SQRT2, (PAULI_X - PAULI_Z) / SQRT2, PAULI_Y]
    return [first] + [[PAULI_Z, PAULI_X, PAULI_Y] for _ in range(n - 1)]


def _scenario_doc(n: int, eve1, flip=None, swap=None) -> dict:
    """The ideal scenario with Eve's second measurement ``eve1``.

    ``flip=(party, which)`` negates one observable; ``swap=(i, j)`` swaps two
    effects of Eve's second measurement.
    """
    observables = _ideal_observables(n)
    if flip is not None:
        party, which = flip
        observables[party] = list(observables[party])
        observables[party][which] = -observables[party][which]
    eve1 = list(eve1)
    if swap is not None:
        i, j = swap
        eve1[i], eve1[j] = eve1[j], eve1[i]
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    return {
        "n_parties": n,
        "sources": [_matrix_doc(rho)] * n,
        "alice_observables": [[_matrix_doc(a) for a in t] for t in observables],
        "eve_measurements": [[_matrix_doc(m) for m in meas]
                             for meas in (_ghz_effects(n), eve1)],
    }


def _random_spec(rng: np.random.Generator):
    """A full-rank qubit state: weights (w, 1-w) and Haar eigenvectors.

    w stays inside [0.05, 0.95]: the trine construction needs every weight
    well above the rank threshold.
    """
    w = 0.05 + 0.9 * float(rng.random())
    u = _random_unitary(2, rng)
    return (w, 1.0 - w), (u[:, 0], u[:, 1])


def _trine_effects(weights, vectors) -> list:
    """The 3d-outcome rank-one POVM on C^{2d} that prepares the state remotely."""
    d = len(vectors[0])
    effects = []
    for p, v in zip(weights, vectors):
        psi = np.concatenate([v, np.zeros(d, dtype=complex)])
        phi = np.concatenate([np.zeros(d, dtype=complex), v])
        tau2 = math.sqrt((1 - p) / (2 - p)) * psi + math.sqrt(1 / (2 - p)) * phi
        tau3 = -math.sqrt((1 - p) / (2 - p)) * psi + math.sqrt(1 / (2 - p)) * phi
        effects.append(p * np.outer(psi, psi.conj()))
        effects.append((2 - p) / 2 * np.outer(tau2, tau2.conj()))
        effects.append((2 - p) / 2 * np.outer(tau3, tau3.conj()))
    return effects


def _embedded_trine(n: int, rng: np.random.Generator) -> list:
    """Trine POVM of a random qubit state in the top-left block, completed by
    the standard-basis projectors of the unused subspace."""
    weights, vectors = _random_spec(rng)
    dim = 2**n
    effects = []
    for m in _trine_effects(weights, vectors):
        out = np.zeros((dim, dim), dtype=complex)
        out[:m.shape[0], :m.shape[0]] = m
        effects.append(out)
    for k in range(2 * len(vectors), dim):
        out = np.zeros((dim, dim), dtype=complex)
        out[k, k] = 1.0
        effects.append(out)
    return effects


def _random_rank1_povm(dim: int, count: int, rng: np.random.Generator) -> list:
    """Random rank-one vectors squashed by S^{-1/2}, S their frame operator."""
    vs = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    s = vs.T @ vs.conj()
    vals, vecs = np.linalg.eigh(s)
    s_inv_half = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    ws = vs @ s_inv_half.T
    return [np.outer(w, w.conj()) for w in ws]


def _random_projective(dim: int, ranks, rng: np.random.Generator) -> list:
    u = _random_unitary(dim, rng)
    effects, start = [], 0
    for r in ranks:
        block = u[:, start:start + r]
        effects.append(block @ block.conj().T)
        start += r
    return effects


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, job_id: int) -> np.random.Generator:
    return np.random.default_rng(
        [int(seed) & (2**64 - 1), WORKLOADS.index(workload), job_id + 1]
    )


def _certify_job(job_id: int, rng, workdir: str) -> Job:
    n = 4
    kind = CERTIFY_CYCLE[job_id % len(CERTIFY_CYCLE)]
    variant = VARIANTS[int(rng.integers(len(VARIANTS)))]
    if kind == "trine":
        reference = _embedded_trine(n, rng)
    elif kind == "rank1":
        reference = _random_rank1_povm(2**n, 20, rng)
    else:
        ranks = list(PROJECTIVE_RANKS)
        rng.shuffle(ranks)
        reference = _random_projective(2**n, ranks, rng)
    conj = [m.conj() for m in reference]
    eve1 = reference if variant == "conjugate" else conj
    scenario = _scenario_doc(
        n, eve1,
        flip=(1, 0) if variant == "flip" else None,
        swap=(0, 1) if variant == "swap" else None,
    )
    base = os.path.join(workdir, f"job{job_id}")
    scen_path, ref_path = base + ".scenario.json", base + ".reference.json"
    mode = "projective" if kind == "projective" else "povm"
    certified = variant in ("plain", "conjugate")
    # Negating party 2's first observable turns its +1 term in every Bell
    # expression into -1.
    bell = 3.0 * (n - 1) - (2.0 if variant == "flip" else 0.0)
    return Job(
        workload="certify-n4",
        job_id=job_id,
        argv=["certify", "--scenario", scen_path, "--reference", ref_path,
              "--mode", mode, "--format", "structured"],
        files={
            scen_path: scenario,
            ref_path: {"dim": 2**n, "effects": [_matrix_doc(m) for m in reference]},
        },
        expect={
            "n": n, "kind": kind, "variant": variant, "mode": mode,
            "exit_code": 0 if certified else 1,
            "verdict": "Certified" if certified else "Failed",
            "branch": {"plain": "Plain", "conjugate": "Conjugate"}.get(variant, "None"),
            "bell": bell,
            "outcomes": len(reference),
        },
    )


def _prepare_job(job_id: int, rng, workdir: str) -> Job:
    n = 5
    weights, vectors = _random_spec(rng)
    path = os.path.join(workdir, f"job{job_id}.statespec.json")
    doc = {
        "d": 2,
        "weights": list(weights),
        "vectors": [[[float(z.real), float(z.imag)] for z in v] for v in vectors],
    }
    return Job(
        workload="prepare-n5",
        job_id=job_id,
        argv=["prepare-state", "--n", str(n), "--state-spec", path,
              "--format", "structured"],
        files={path: doc},
        expect={
            "n": n, "exit_code": 0, "verdict": "Certified", "branch": "Conjugate",
            "probabilities": [w / 2.0**n for w in weights],
        },
    )


def _scan_job(job_id: int, rng, workdir: str) -> Job:
    n = 3
    levels = [0.0, 1.0] + rng.random(SCAN_LEVELS - 2).tolist()
    rng.shuffle(levels)
    return Job(
        workload="scan-n3",
        job_id=job_id,
        argv=["scan", "--n", str(n), "--noise", "effects",
              "--grid", ",".join(repr(v) for v in levels), "--format", "structured"],
        expect={"n": n, "exit_code": 0, "levels": sorted(levels)},
    )


_MAKERS = {"certify-n4": _certify_job, "prepare-n5": _prepare_job, "scan-n3": _scan_job}


def make_job(workload: str, seed: int, job_id: int, workdir: str) -> Job:
    """Job ``job_id`` of ``workload`` for ``seed``; job -1 is the warm-up job."""
    return _MAKERS[workload](job_id, _rng(workload, seed, job_id), workdir)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_strict(text: str):
    """Parse JSON, rejecting the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(actual, expected) -> bool:
    return isinstance(actual, (int, float)) and abs(actual - expected) <= TOL


def _check_certify(doc, exp) -> str | None:
    n = exp["n"]
    part1, part2 = doc["part1"], doc["part2"]
    if not all(_close(v, exp["bell"]) for v in part1["bell_values"]):
        return f"Bell values {part1['bell_values']} != {exp['bell']}"
    if len(part1["pbar"]) != 2**n or not all(_close(p, 2.0**-n) for p in part1["pbar"]):
        return "outcome weights are not 2^-N"
    if part2["mode"] != exp["mode"]:
        return f"mode {part2['mode']!r}"
    if part2["branch"] != exp["branch"]:
        return f"branch {part2['branch']!r}, expected {exp['branch']!r}"
    residuals = {"Plain": part2["residuals_plain"],
                 "Conjugate": part2["residuals_conjugate"]}.get(exp["branch"])
    if residuals is not None and (
            len(residuals) != exp["outcomes"] or max(residuals) > TOL):
        return f"matched-branch residuals {residuals}"
    return None


def _check_prepare(doc, exp) -> str | None:
    part3 = doc["part3"]
    if doc["n"] != exp["n"] or doc["part1_passed"] is not True:
        return "part 1 did not pass"
    if not _close(part3["total_probability"], 2.0**-exp["n"]):
        return f"total probability {part3['total_probability']} != 2^-N"
    probs = part3["probabilities"]
    if len(probs) != len(exp["probabilities"]) or not all(
            _close(p, q) for p, q in zip(probs, exp["probabilities"])):
        return f"probabilities {probs} != {exp['probabilities']}"
    if part3["branch"] != exp["branch"]:
        return f"branch {part3['branch']!r}, expected {exp['branch']!r}"
    if not _close(part3["distance"], 0.0) or part3["passed"] is not True:
        return f"state distance {part3['distance']}"
    return None


def _check_scan(doc, exp) -> str | None:
    n, rows = exp["n"], doc["rows"]
    levels = [row["level"] for row in rows]
    if levels != exp["levels"]:
        return "scan levels differ from the grid"
    for row in rows:
        bell = 3.0 * (n - 1) * row["level"]
        if len(row["bell_values"]) != 2**n or not all(
                _close(v, bell) for v in row["bell_values"]):
            return f"Bell values at level {row['level']} != {bell}"
        if not _close(row["min_bell"], bell) or not _close(row["pbar_deviation"], 0.0):
            return f"row at level {row['level']} off its analytic value"
        if row["part2_max_residual"] is not None:
            return "part-2 residual reported without a reference"
    if not _close(rows[-1]["min_bell"], 3.0 * (n - 1)):
        return "the quantum bound is not reached at level 1"
    if doc["bell_monotone"] is not True:
        return "bell_monotone is not true"
    return None


_CHECKS = {"certify-n4": _check_certify, "prepare-n5": _check_prepare,
           "scan-n3": _check_scan}


def check(job: Job, exit_code, stdout: str) -> str | None:
    """Why the job's result is wrong, or None when it matches ``job.expect``."""
    exp = job.expect
    if exit_code != exp["exit_code"]:
        return f"exit code {exit_code!r}, expected {exp['exit_code']}"
    try:
        doc = parse_strict(stdout)
    except ValueError as exc:
        return f"report is not strict JSON: {exc}"
    if "verdict" in exp and doc.get("verdict") != exp["verdict"]:
        return f"verdict {doc.get('verdict')!r}, expected {exp['verdict']!r}"
    try:
        return _CHECKS[job.workload](doc, exp)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"report lacks an expected field: {exc!r}"
