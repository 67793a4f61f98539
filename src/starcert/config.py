"""Centralized numerical tolerances.

Every module takes its thresholds from a single Tolerances record so that a
run can tighten or relax all checks consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    structural: float = 1e-10   # Hermiticity, completeness, PSD slack
    spectral: float = 1e-9      # eigendecomposition residuals
    acceptance: float = 1e-9    # Bell values, probabilities, state distances
    rank: float = 1e-8          # numerical rank decisions
    probability: float = 1e-12  # conditioning / zero-probability cutoff

    def __post_init__(self) -> None:
        for name in ("structural", "spectral", "acceptance", "rank", "probability"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"tolerance {name!r} must be positive and finite, got {value}")


DEFAULT_TOL = Tolerances()
