"""Simulator and certifier for star-network quantum self-testing.

N external parties each share an independent bipartite source with one
central party; the package computes exact Born-rule behaviors, evaluates a
family of 2^N Bell expressions with classical and quantum bounds, checks
measurement-certification conditions in projective and POVM modes, and
verifies remote preparation of arbitrary states up to complex conjugation.
"""

from .bell import (
    BellEvaluation,
    BellOutcomeLabel,
    SosResiduals,
    all_labels,
    bell_operator,
    bell_value,
    classical_bound_bruteforce,
    classical_bound_formula,
    ghz_vector,
    ideal_observables,
    max_bell_eigenvalue,
    quantum_bound,
    sos_residuals,
    tilde_observables,
)
from .certify import (
    CertificationReport,
    ConjugationBranch,
    certify,
    certify_pure_preparation,
    certify_state_preparation,
    check_part1,
    check_part2,
    match_up_to_conjugation,
    noise_scan,
    post_measurement_state,
)
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    CapacityError,
    ConditioningError,
    ContractViolation,
    DimensionError,
    StarcertError,
    ValidationError,
)
from .jsonio import load_mixed_state_spec, load_povm, load_scenario, save_scenario
from .measurements import (
    MixedStateSpec,
    PauliCoeffTensor,
    Povm,
    embed_projective,
    embed_rank1_povm,
    ghz_basis_measurement,
    is_extremal_rank1,
    pauli_coeffs,
    reconstruct_from_coeffs,
    trine_povm,
    validate_povm,
)
from .network import (
    BinaryObservableTriple,
    CorrelationTable,
    Scenario,
    assemble_joint_state,
    born_table,
)
from .presets import conjugate_scenario, ideal_scenario

__version__ = "0.1.0"
