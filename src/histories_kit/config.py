"""Global numeric tolerance bundle.

All algebraic checks (hermiticity, unitarity, projector idempotency,
commutation, PDI orthogonality/completeness) share one knob so reports can
state exactly what was enforced. It bounds max-entry norms, or for members
built from orthonormal bases the Gram-block Frobenius norms that bound them.
The remaining knobs cover eigenvalue grouping, probability-table sums, and
spectral reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerances:
    algebraic: float = 1e-10      # max-entry norm for operator identities
    eigen_grouping: float = 1e-8  # span of a merged eigenvalue group per unit of max(1, ||H||)
    probability: float = 1e-12    # probability sums / zero-probability guards
    reconstruction: float = 1e-9  # spectral round-trip defect per unit of max(1, max|H|)

    def as_dict(self) -> dict[str, float]:
        return {
            "algebraic": self.algebraic,
            "eigen_grouping": self.eigen_grouping,
            "probability": self.probability,
            "reconstruction": self.reconstruction,
        }


# Single shared instance; the CLI may override `algebraic` from --tol or the
# HISTORIES_KIT_TOL environment variable before running queries.
TOLERANCES = Tolerances()
