"""Numeric tolerance bundle, scoped per context, and the one check on it.

All algebraic checks (hermiticity, unitarity, projector idempotency,
commutation, PDI orthogonality/completeness) share one knob so reports can
state exactly what was enforced: max-entry norms, but a spectral norm for a
matrix-built projector, Frobenius norms of one Gram matrix for a PDI, and
the Frobenius norm of each pair's commutator for commuting PDIs.
The remaining knobs cover eigenvalue grouping, probability-table sums, and
spectral reconstruction. `tolerances()` returns the frozen bundle in force in
the current thread or task; `with override(...)` replaces it for that block
only, so an override never leaks into another caller.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

__all__ = ["TOLERANCES", "Tolerances", "override", "tolerances"]


@dataclass(frozen=True)
class Tolerances:
    algebraic: float = 1e-10      # in the norms named above; PDI commutators in Frobenius
    eigen_grouping: float = 1e-8  # span of a merged eigenvalue group per unit of max(1, ||H||)
    probability: float = 1e-12    # probability sums / zero-probability guards
    reconstruction: float = 1e-9  # spectral round-trip defect per unit of max(1, max|H|)


# The defaults, in force wherever no override is active.
TOLERANCES = Tolerances()

_CURRENT: ContextVar[Tolerances] = ContextVar("tolerances", default=TOLERANCES)


def tolerances() -> Tolerances:
    return _CURRENT.get()


@contextmanager
def override(**fields: float):
    token = _CURRENT.set(replace(_CURRENT.get(), **fields))
    try:
        yield
    finally:
        _CURRENT.reset(token)


def check(defect: float, limit: float, error: type[Exception], message: str) -> None:
    """Raise error, naming defect and limit, unless defect < limit (NaN fails)."""
    if not defect < limit:
        raise error(f"{message} (defect {defect:.3g}, tolerance {limit:g})")
