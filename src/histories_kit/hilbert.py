"""Dense complex linear algebra and projector/PDI calculus.

Everything lives on finite-dimensional Hilbert spaces (the spec language
accepts dimensions up to `dsl.MAX_DIM` = 1024), so storage is dense numpy
throughout. Algebraic identities on matrices are checked in max-entry norm
against the shared tolerance bundle. A projector built from orthonormal
columns V (P = VV-dagger: `Ket.projector`, `spectral_decompose`) keeps V and
is certified by V-dagger V = I instead; a PDI of such projectors is certified
from one Gram matrix of the stacked bases, whose block Frobenius norms are
upper bounds on the max-entry defects of the projector products. Degenerate
eigenspaces are kept whole: spectral decomposition yields one rank-k
projector per distinct eigenvalue, and all equality reasoning is done on
projector matrices, never on individual eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .config import check, tolerances
from .errors import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidPDIError,
    NonCommutingError,
    NonUnitDirectionError,
    NotHermitianError,
    UnknownNameError,
    VerificationFailedError,
)

__all__ = [
    "Ket",
    "Operator",
    "Projector",
    "PDI",
    "PDIValidation",
    "Observable",
    "GridWavefunction",
    "Region",
    "tensor_product",
    "tensor_state",
    "spectral_decompose",
    "pdi_validate",
    "common_refinement",
    "possesses",
    "region_projector",
    "builtin_operator",
    "commutator_defect",
    "commutes",
    "pdi_compatible",
    "partial_trace",
]

# Norm below which an amplitude vector is treated as the (rejected) zero vector.
ZERO_NORM_CUTOFF = 1e-12


def _normalized_vector(values) -> np.ndarray:
    """Read-only unit vector along values; NaN, infinite and (effectively)
    zero vectors are rejected, as is one whose norm overflows."""
    vec = np.array(values, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise ValueError(f"amplitudes must be finite with a finite norm, got norm {norm!r}")
    if norm < ZERO_NORM_CUTOFF:
        raise ValueError("cannot normalize an (effectively) zero vector into a state")
    vec = vec / norm
    vec.setflags(write=False)
    return vec


def _frozen_matrix(values) -> np.ndarray:
    mat = np.array(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized state vector. Constructors normalize; zero and non-finite
    vectors are rejected."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized_vector(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def inner(self, other: "Ket") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"ket dims differ: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> "Projector":
        """[psi] = |psi><psi|."""
        return Projector.from_basis(self.amplitudes.reshape(-1, 1))


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on kets of matching dimension."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_matrix(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def _check_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"operator dims differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.entries - other.entries)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_dim(other)
        return Operator(self.entries @ other.entries)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries)

    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Raw matrix-vector product; callers wrap in Ket when appropriate."""
        return self.entries @ np.asarray(vec, dtype=complex)

    def expectation(self, state: Ket) -> complex:
        if state.dim != self.dim:
            raise DimensionMismatchError(f"state dim {state.dim} vs operator dim {self.dim}")
        return complex(np.vdot(state.amplitudes, self.entries @ state.amplitudes))

    def hermiticity_defect(self) -> float:
        """Max-entry norm of A - A-dagger."""
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def unitarity_defect(self) -> float:
        """Max-entry norm of A-dagger A - I."""
        return float(np.abs(self.entries.conj().T @ self.entries - np.eye(self.dim)).max())

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() < tolerances().algebraic

    def is_unitary(self) -> bool:
        return self.unitarity_defect() < tolerances().algebraic


def commutator_defect(a: "Operator | Projector", b: "Operator | Projector") -> float:
    """Max-entry norm of AB - BA; callers compare it with their tolerance."""
    return float(np.abs(a.entries @ b.entries - b.entries @ a.entries).max())


def commutes(a: Operator, b: Operator) -> bool:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"operator dims differ: {a.dim} vs {b.dim}")
    return commutator_defect(a, b) < tolerances().algebraic


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector: op = op-dagger and op squared = op, entrywise.

    `basis` is None for a projector built from a matrix. `from_basis` sets it
    to the (d, r) isometry V with op = V V-dagger, which `pdi_validate` uses in
    place of dense products.
    """

    op: Operator
    basis: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_basis(cls, basis) -> "Projector":
        """Projector onto the span of orthonormal columns, P = V V-dagger.

        The columns are certified by max|V-dagger V - I| < tolerance, which
        costs O(d r^2) instead of the O(d^3) idempotency product.
        """
        vecs = np.array(basis, dtype=complex)
        if vecs.ndim != 2 or vecs.shape[1] < 1:
            raise ValueError(f"expected a (d, r) basis with r >= 1, got shape {vecs.shape}")
        adjoint = vecs.conj().T
        gram = adjoint @ vecs
        diagonal = gram.reshape(-1)[:: vecs.shape[1] + 1]
        diagonal -= 1.0
        defect = float(np.abs(gram).max())
        check(defect, tolerances().algebraic, ValueError, "basis columns are not orthonormal")
        proj = vecs @ adjoint
        proj = proj + proj.conj().T  # (P + P-dagger) / 2 scrubs rounding asymmetry
        proj *= 0.5
        proj.setflags(write=False)
        vecs.setflags(write=False)
        # both arrays are fresh and owned here, so skip Operator's defensive copy
        op = object.__new__(Operator)
        object.__setattr__(op, "entries", proj)
        made = object.__new__(cls)
        object.__setattr__(made, "op", op)
        object.__setattr__(made, "basis", vecs)
        return made

    def __post_init__(self):
        ent = self.op.entries
        tol = tolerances().algebraic
        check(self.op.hermiticity_defect(), tol, ValueError, "not a projector: hermiticity")
        check(float(np.abs(ent @ ent - ent).max()), tol, ValueError, "not a projector: idempotency")

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def rank(self) -> int:
        # trace of a projector is its rank
        return int(round(float(np.trace(self.entries).real)))

    def complement(self) -> "Projector":
        return Projector(Operator(np.eye(self.dim) - self.entries))


@dataclass(frozen=True)
class PDIValidation:
    """Defect report for a candidate projective decomposition of the identity.

    Defects are max-entry norms of P_j P_k (j != k), P_j^2 - P_j and
    sum(P_j) - I, except that a pair or member whose projectors all carry a
    basis reports the Frobenius norm of its block of V-dagger V - I, an upper
    bound on the same max-entry defect.
    """

    orthogonality_defect: float
    idempotency_defect: float
    completeness_defect: float
    tolerance: float
    passes: bool


def _gram_block_defects(bases: list[np.ndarray]) -> tuple[float, float]:
    """(orthogonality, idempotency) bounds from G = V-dagger V of stacked bases.

    With V_j-dagger V_k the (j, k) block of G, P_j P_k = V_j G_jk V_k-dagger.
    The rows of an isometry have norm at most 1 (up to its certified defect),
    so every entry of P_j P_k is at most the spectral norm of G_jk, which is
    at most its Frobenius norm; likewise P_j^2 - P_j = V_j (G_jj - I) V_j-dagger.
    """
    count = len(bases)
    stacked = np.concatenate(bases, axis=1)
    size = stacked.shape[1]
    gram = stacked.conj().T @ stacked
    diagonal = gram.reshape(-1)[:: size + 1]
    diagonal -= 1.0
    sq = np.square(np.abs(gram))
    if count != size:  # some member has rank > 1: sum each block
        starts = list(accumulate([b.shape[1] for b in bases[:-1]], initial=0))
        sq = np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)
    diagonal = sq.reshape(-1)[:: count + 1]
    idem = float(diagonal.max())
    diagonal[:] = 0.0
    return math.sqrt(sq.max()), math.sqrt(idem)


def pdi_validate(projectors: "PDI | Sequence[Projector]") -> PDIValidation:
    """Report max pairwise-product, idempotency, and sum-to-identity defects.

    Members that carry a basis (`Projector.from_basis`) are checked together
    through one Gram matrix in O(d^3) and report Frobenius-norm upper bounds
    (see `PDIValidation`); a pair involving a member built from a bare matrix
    is multiplied out densely, as is the idempotency of such a member.
    """
    if isinstance(projectors, PDI):
        projs = projectors.projectors
    else:
        projs = tuple(projectors)
    if not projs:
        raise ValueError("empty projector list")
    dim = projs[0].dim
    for p in projs:
        if p.dim != dim:
            raise DimensionMismatchError("projectors have mixed dimensions")
    bases = [p.basis for p in projs if p.basis is not None]
    ortho, idem = _gram_block_defects(bases) if bases else (0.0, 0.0)
    for j, p in enumerate(projs):
        if p.basis is not None:
            continue
        ent = p.entries
        idem = max(idem, float(np.abs(ent @ ent - ent).max()))
        for k, q in enumerate(projs):  # each pair once, earlier member on the left
            if k > j:
                ortho = max(ortho, float(np.abs(ent @ q.entries).max()))
            elif q.basis is not None:
                ortho = max(ortho, float(np.abs(q.entries @ ent).max()))
    total = np.zeros((dim, dim), dtype=complex)
    for p in projs:
        total += p.entries
    diagonal = total.reshape(-1)[:: dim + 1]
    diagonal -= 1.0
    complete = float(np.abs(total).max())
    tol = tolerances().algebraic
    return PDIValidation(
        orthogonality_defect=ortho,
        idempotency_defect=idem,
        completeness_defect=complete,
        tolerance=tol,
        passes=ortho < tol and idem < tol and complete < tol,
    )


@dataclass(frozen=True, eq=False)
class PDI:
    """Ordered list of mutually orthogonal projectors summing to the identity."""

    projectors: tuple[Projector, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        projs = tuple(self.projectors)
        labels = self.labels
        if labels is None:
            labels = tuple(str(i) for i in range(len(projs)))
        else:
            labels = tuple(str(l) for l in labels)
        if len(labels) != len(projs):
            raise ValueError(f"{len(projs)} projectors but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
        report = pdi_validate(projs)
        if not report.passes:
            raise InvalidPDIError(
                "not a decomposition of the identity: "
                f"orthogonality {report.orthogonality_defect:.3g}, "
                f"idempotency {report.idempotency_defect:.3g}, "
                f"completeness {report.completeness_defect:.3g} "
                f"(tolerance {report.tolerance:g})"
            )
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def __len__(self) -> int:
        return len(self.projectors)

    def items(self):
        return zip(self.labels, self.projectors)

    def by_label(self, label: str) -> Projector:
        try:
            return self.projectors[self.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None


@dataclass(frozen=True, eq=False)
class Observable:
    """Spectral form: strictly distinct eigenvalues, one eigenspace projector each."""

    eigenvalues: tuple[float, ...]
    pdi: PDI

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if len(vals) != len(self.pdi):
            raise ValueError("one eigenvalue per projector required")
        gap = tolerances().eigen_grouping
        for hi, lo in zip(vals, vals[1:]):
            if not hi - lo > gap:  # also rejects NaN eigenvalues
                raise ValueError(f"eigenvalues must be strictly descending with gap > {gap:g}")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.pdi.dim

    def operator(self) -> Operator:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for val, proj in zip(self.eigenvalues, self.pdi.projectors):
            total += val * proj.entries
        return Operator(total)


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Normalized wavefunction sampled on a 1-D grid, with optional named regions."""

    amplitudes: np.ndarray
    regions: dict[str, "Region"] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized_vector(self.amplitudes))
        for name, region in self.regions.items():
            if max(region.indices, default=0) >= self.points:
                raise IndexOutOfRangeError(f"region {name!r} exceeds grid of {self.points} points")

    @property
    def points(self) -> int:
        return self.amplitudes.shape[0]

    def as_ket(self) -> Ket:
        return Ket(self.amplitudes)


@dataclass(frozen=True)
class Region:
    """Set of grid indices; duplicates are rejected rather than silently merged."""

    indices: frozenset[int]

    def __init__(self, indices):
        seq = [int(i) for i in indices]
        if len(seq) != len(set(seq)):
            raise ValueError("duplicate grid indices in region")
        if any(i < 0 for i in seq):
            raise IndexOutOfRangeError("negative grid index")
        object.__setattr__(self, "indices", frozenset(seq))


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product, left factor outermost."""
    return Operator(np.kron(a.entries, b.entries))


def tensor_state(a: Ket, b: Ket) -> Ket:
    return Ket(np.kron(a.amplitudes, b.amplitudes))


def spectral_decompose(h: Operator) -> Observable:
    """Group the spectrum of a Hermitian operator into distinct eigenspaces.

    Eigenvalues within the grouping gap, `eigen_grouping` per unit of
    max(1, ||H||), merge at their mean into a single eigenspace so degenerate
    spectra do not split under floating-point jitter; each projector covers
    the full eigenspace (rank k, not k rank-1 pieces). The gap bounds the
    span of a group, so near-equal eigenvalues never chain: a run of
    neighbours each within the gap whose ends lie farther apart has no
    grouping within tolerance and raises AmbiguousSpectrumError. Eigenvalues
    come back sorted descending.
    """
    tol = tolerances()
    check(h.hermiticity_defect(), tol.algebraic, NotHermitianError, "operator is not Hermitian")
    evals, evecs = np.linalg.eigh(h.entries)
    ascending = evals.tolist()
    gap = tol.eigen_grouping * max(1.0, -ascending[0], ascending[-1])
    # eigh sorts ascending, so each group is a run of neighbours at most gap apart
    cuts = [i for i in range(1, len(ascending)) if ascending[i] - ascending[i - 1] > gap]
    bounds = list(zip([0] + cuts, cuts + [len(ascending)]))
    values = []
    projectors = []
    shift = 0.0  # farthest any eigenvalue moves onto its group's mean
    for lo, hi in reversed(bounds):  # descending eigenvalue order
        if ascending[hi - 1] - ascending[lo] > gap:
            raise AmbiguousSpectrumError(
                f"eigenvalues {ascending[lo]:.6g}..{ascending[hi - 1]:.6g} chain within the "
                f"grouping gap {gap:.3g} but span more than it"
            )
        value = ascending[lo] if hi - lo == 1 else float(np.mean(evals[lo:hi]))
        shift = max(shift, value - ascending[lo], ascending[hi - 1] - value)
        values.append(value)
        projectors.append(Projector.from_basis(evecs[:, lo:hi]))
    obs = Observable(tuple(values), PDI(tuple(projectors)))
    # rounding in eigh and in the rebuilt sum scales with the largest entry; moving
    # eigenvalues onto their group's mean moves each entry by at most `shift` more
    scale = max(1.0, float(np.abs(h.entries).max()))
    defect = float(np.abs(obs.operator().entries - h.entries).max())
    limit = tol.reconstruction * scale + shift
    check(defect, limit, VerificationFailedError, "spectral reconstruction")
    return obs


def common_refinement(p: PDI, q: PDI) -> PDI:
    """All nonzero products P^j Q^k, defined only when every pair commutes.

    Labels concatenate ("jk"); rank-0 products are dropped. A noncommuting
    pair means the two decompositions admit no common refinement, which is
    reported with the offending labels.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError(f"PDI dims differ: {p.dim} vs {q.dim}")
    tol = tolerances().algebraic
    for lj, pj in p.items():
        for lk, qk in q.items():
            defect = commutator_defect(pj, qk)
            if defect >= tol:
                raise NonCommutingError(
                    f"projectors {lj!r} and {lk!r} do not commute "
                    f"(defect {defect:.3g}): no common refinement",
                    pair=(lj, lk),
                )
    projectors = []
    labels = []
    for lj, pj in p.items():
        for lk, qk in q.items():
            product = pj.entries @ qk.entries
            rank = int(round(float(np.trace(product).real)))
            if rank == 0:
                continue
            product = (product + product.conj().T) / 2.0
            projectors.append(Projector(Operator(product)))
            labels.append(f"{lj}{lk}")
    return PDI(tuple(projectors), tuple(labels))


def possesses(k: Ket, p: Projector) -> bool:
    """Property possession: P|psi> = |psi> within tolerance."""
    if k.dim != p.dim:
        raise DimensionMismatchError(f"ket dim {k.dim} vs projector dim {p.dim}")
    residual = float(np.linalg.norm(p.entries @ k.amplitudes - k.amplitudes))
    return residual < tolerances().algebraic


def region_projector(grid_size: int, r: Region) -> Projector:
    """Diagonal 0/1 projector masking amplitudes outside the region."""
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    if any(i >= grid_size for i in r.indices):
        raise IndexOutOfRangeError(
            f"region index {max(r.indices)} out of range for grid of {grid_size} points"
        )
    mask = np.zeros(grid_size)
    mask[sorted(r.indices)] = 1.0
    return Projector(Operator(np.diag(mask).astype(complex)))


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def builtin_operator(name, dim: int = 2) -> Operator:
    """Named operator ("I", "X", "Y", "Z") or spin along a unit 3-direction.

    A sequence of three reals is read as a direction w and yields
    w . sigma = wx*X + wy*Y + wz*Z; the direction must be unit length to
    within 1e-9. `dim` applies only to "I".
    """
    if isinstance(name, str):
        if name == "I":
            return Operator(np.eye(dim, dtype=complex))
        if name in _PAULI:
            return Operator(_PAULI[name])
        raise UnknownNameError(f"unknown operator name {name!r}")
    w = np.asarray(name, dtype=float).reshape(-1)
    if w.shape[0] != 3:
        raise UnknownNameError("direction must have exactly three components")
    norm = float(np.linalg.norm(w))
    check(abs(norm - 1.0), 1e-9, NonUnitDirectionError, f"direction norm {norm!r} differs from 1")
    return Operator(w[0] * _PAULI["X"] + w[1] * _PAULI["Y"] + w[2] * _PAULI["Z"])


def pdi_compatible(p: "PDI | Projector", q: "PDI | Projector") -> bool:
    """True iff every projector of p commutes with every projector of q."""

    def _projs(x):
        return x.projectors if isinstance(x, PDI) else (x,)

    tol = tolerances().algebraic
    for a in _projs(p):
        for b in _projs(q):
            if a.dim != b.dim:
                raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
            if commutator_defect(a, b) >= tol:
                return False
    return True


def partial_trace(op: Operator, dims: tuple[int, int], keep: int) -> Operator:
    """Trace out one factor of a bipartite operator; keep=0 keeps the left."""
    da, db = dims
    if op.dim != da * db:
        raise DimensionMismatchError(f"operator dim {op.dim} is not {da}*{db}")
    blocks = op.entries.reshape(da, db, da, db)
    if keep == 0:
        return Operator(np.einsum("ijkj->ik", blocks))
    if keep == 1:
        return Operator(np.einsum("ijil->jl", blocks))
    raise ValueError("keep must be 0 or 1")
