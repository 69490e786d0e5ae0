"""Dense complex linear algebra and projector/PDI calculus.

Everything lives on finite-dimensional Hilbert spaces (the spec language
accepts dimensions up to `dsl.MAX_DIM` = 1024). Operators are dense matrices,
checked in max-entry norm against the shared tolerance bundle. A projector is
stored as an orthonormal basis V of its subspace alone; the one projection,
`_projections`, forms (v V-conj) V-transpose, every Born weight is read from
it, and VV-dagger is built only on read. Given columns are certified by
V-dagger V = I, and a matrix is factored once with `eigh` and certified by the
distance of its eigenvalues from {0, 1}. A PDI is one isometry W whose column
blocks are its members: it stacks their bases once and certifies W once, from
one Gram matrix whose block Frobenius norms bound the max-entry defects of the
projector products and yield the completeness defect in closed form. Members
that a PDI is built from inside this module (eigenspaces, refinements) are
certified by that Gram alone. Commutation of two PDIs is read pair by pair, in
Frobenius norm, from one overlap matrix of their W, which also yields their
common refinement. Degenerate eigenspaces are kept whole: spectral
decomposition yields one rank-k projector per distinct eigenvalue, and all
equality reasoning is done on subspaces, never on individual eigenvectors.
An operator built as a sum of d real-weighted projectors on d kets has
stated its spectral form, and is decomposed from those kets and weights
instead of by `eigh`.

One freeze rule holds across the package: every array a result holds, or a
property such as `Projector.entries` returns, goes through `_frozen` and is
backed by immutable bytes, so no caller can make it writeable again and
change an answer that a cache shares with other callers. `np.array(x)`
gives an editable copy. A PDI member's basis is a read-only view of the
PDI's W. A mapping a result holds is its own `_FrozenMap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .config import Tolerances, check, tolerances
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
    "pdi_compatible",
    "partial_trace",
]

# Norm below which an amplitude vector is treated as the (rejected) zero vector.
ZERO_NORM_CUTOFF = 1e-12


def _frozen(values, dtype=None) -> np.ndarray:
    """values as an array backed by immutable bytes: unlike an array that owns
    its data, it cannot be made writeable again. An array already so backed is
    returned as it is; any other, a view of a frozen array included, is copied."""
    arr = np.asarray(values, dtype=dtype)
    if isinstance(arr.base, bytes):
        return arr
    return np.ndarray(arr.shape, arr.dtype, arr.tobytes())


class _FrozenMap(dict):
    """A dict copy that refuses every change with TypeError, yet reads, pickles
    and deep-copies as a dict (so a walk over dict values reaches it too)."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _normalized_vector(values) -> np.ndarray:
    """Immutable unit vector along values; NaN, infinite and (effectively)
    zero vectors are rejected, as is one whose norm overflows."""
    vec = np.asarray(values, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise ValueError(f"amplitudes must be finite with a finite norm, got norm {norm!r}")
    if norm < ZERO_NORM_CUTOFF:
        raise ValueError("cannot normalize an (effectively) zero vector into a state")
    return _frozen(vec / norm)


def _check_dims(label: str, dim: int, other: int) -> None:
    """The one dimension guard: raise DimensionMismatchError, naming both
    dimensions, unless the operands live on one space (a bipartite check
    passes d_A * d_B as one of them)."""
    if dim != other:
        raise DimensionMismatchError(f"{label} dims differ: {dim} vs {other}")


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
        _check_dims("ket", self.dim, other.dim)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> "Projector":
        """[psi] = |psi><psi|."""
        return Projector.from_basis(self.amplitudes.reshape(-1, 1))


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on kets of matching dimension."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.entries, complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "Operator") -> "Operator":
        _check_dims("operator", self.dim, other.dim)
        return Operator(self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_dims("operator", self.dim, other.dim)
        return Operator(self.entries - other.entries)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_dims("operator", self.dim, other.dim)
        return Operator(self.entries @ other.entries)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(-self.entries)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Raw matrix-vector product; callers wrap in Ket when appropriate."""
        return self.entries @ np.asarray(vec, dtype=complex)

    def expectation(self, state: Ket) -> complex:
        _check_dims("state and operator", state.dim, self.dim)
        return complex(np.vdot(state.amplitudes, self.entries @ state.amplitudes))

    def hermiticity_defect(self) -> float:
        """Max-entry norm of A - A-dagger."""
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def unitarity_defect(self) -> float:
        """Max-entry norm of A-dagger A - I."""
        return float(np.abs(self.entries.conj().T @ self.entries - np.eye(self.dim)).max())


def commutator_defect(a: Operator, b: Operator) -> float:
    """Max-entry norm of AB - BA; callers compare it with their tolerance."""
    _check_dims("operator", a.dim, b.dim)
    x, y = a.entries, b.entries
    return float(np.abs(x @ y - y @ x).max())


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector P = V V-dagger, stored as its basis V alone.

    `basis` is the (d, r) isometry V whose columns span the subspace (r = 0
    for the zero projector). `from_basis` takes V as given; `Projector(op)`
    factors a matrix once with `eigh`, V being the eigenvectors whose
    eigenvalues exceed 1/2. `entries` (the symmetrised V V-dagger, immutable)
    and `op` are built afresh on every read, for callers that need them.
    """

    basis: np.ndarray

    def __init__(self, op: Operator):
        tol = tolerances().algebraic
        check(op.hermiticity_defect(), tol, ValueError, "not a projector: hermiticity")
        evals, evecs = np.linalg.eigh(op.entries)
        # the largest distance of an eigenvalue from {0, 1} is ||P - V V-dagger||_2
        defect = float(np.minimum(np.abs(evals), np.abs(1.0 - evals)).max())
        check(defect, tol, ValueError, "not a projector: idempotency")
        object.__setattr__(self, "basis", _frozen(evecs[:, evals > 0.5]))

    @classmethod
    def from_basis(cls, basis) -> "Projector":
        """Projector onto the span of orthonormal columns, P = V V-dagger.

        The columns are certified by max|V-dagger V - I| < tolerance, which
        costs O(d r^2) instead of the O(d^3) idempotency product.
        """
        vecs = _frozen(basis, complex)
        if vecs.ndim != 2:
            raise ValueError(f"expected a (d, r) basis, got shape {vecs.shape}")
        gram = vecs.conj().T @ vecs
        diagonal = gram.reshape(-1)[:: vecs.shape[1] + 1]
        diagonal -= 1.0
        defect = float(np.abs(gram).max(initial=0.0))
        check(defect, tolerances().algebraic, ValueError, "basis columns are not orthonormal")
        return cls._of(vecs)

    @classmethod
    def _of(cls, basis: np.ndarray) -> "Projector":
        """Projector on basis as it is: the caller certifies its columns."""
        made = object.__new__(cls)
        object.__setattr__(made, "basis", basis)
        return made

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def entries(self) -> np.ndarray:
        proj = self.basis @ self.basis.conj().T
        proj = proj + proj.conj().T  # (P + P-dagger) / 2 scrubs rounding asymmetry
        proj *= 0.5
        return _frozen(proj)

    @property
    def op(self) -> Operator:
        return Operator(self.entries)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """P v through `_projections`, O(d r) per vector; vec is (d,) or (d, n)."""
        return _projections((self,), np.asarray(vec).T)[..., 0, :].T

    def complement(self) -> "Projector":
        # the last d - r columns of a complete QR of V span the orthogonal complement
        return Projector.from_basis(np.linalg.qr(self.basis, mode="complete")[0][:, self.rank :])


def _projections(members: Sequence[Projector], rows: np.ndarray) -> np.ndarray:
    """The one projection: out[..., j, :] = (rows V_j-conj) V_j-transpose, P_j of each row."""
    out = np.empty((*rows.shape[:-1], len(members), rows.shape[-1]), dtype=complex)
    for j, p in enumerate(members):
        out[..., j, :] = (rows @ p.basis.conj()) @ p.basis.T
    return out


@dataclass(frozen=True)
class PDIValidation:
    """Defect report for a candidate projective decomposition of the identity.

    With V_j the basis of member j, W the stacked bases and G = W-dagger W,
    the defects are the largest Frobenius norm of an off-diagonal block
    V_j-dagger V_k of G, the largest of a diagonal block V_j-dagger V_j - I,
    and ||W W-dagger - I||_F. Each bounds the max-entry norm of P_j P_k,
    P_j^2 - P_j and sum(P_j) - I respectively.
    """

    orthogonality_defect: float
    idempotency_defect: float
    completeness_defect: float
    tolerance: float
    passes: bool


def _stacked(members: Sequence[Projector]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The members' bases side by side as one W, and the column at which each
    member's block ends."""
    if not members:
        raise ValueError("empty projector list")
    dim = members[0].dim
    for p in members:
        _check_dims("projector", dim, p.dim)
    ends = tuple(accumulate(p.rank for p in members))
    return np.concatenate([p.basis for p in members], axis=1), ends


def _blocks(ends: tuple[int, ...]):
    """The (start, end) columns of each block of a W whose blocks end at ends."""
    return zip((0, *ends), ends)


def _block_sums(sq: np.ndarray, ends: tuple[int, ...]) -> np.ndarray:
    """The blocks of sq, its rows and columns cut at the block ends, each
    summed; empty blocks are left out."""
    starts = [lo for lo, hi in _blocks(ends) if hi > lo]
    if len(starts) == sq.shape[0]:
        return sq
    return np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)


def pdi_validate(projectors: "PDI | Sequence[Projector]") -> PDIValidation:
    """Report orthogonality, idempotency and completeness defects from one Gram matrix.

    With G_jk = V_j-dagger V_k the (j, k) block of G, P_j P_k = V_j G_jk V_k-dagger
    and P_j^2 - P_j = V_j (G_jj - I) V_j-dagger. The rows of an isometry have
    norm at most 1, so every entry of either is at most the spectral norm of
    the block, which is at most its Frobenius norm. Completeness needs no sum
    of d x d matrices: ||W W-dagger - I||_F^2 = ||G - I||_F^2 + d - sum(rank).
    Rank-0 members are exactly zero and add nothing to any defect. A PDI's
    own W is read; a list of projectors is stacked. Costs O(d r^2) for
    r = sum(rank), at most O(d^3).
    """
    if isinstance(projectors, PDI):
        stacked, ends = projectors._basis, projectors._ends
    else:
        stacked, ends = _stacked(tuple(projectors))
    dim, size = stacked.shape
    gram = stacked.conj().T @ stacked
    diagonal = gram.reshape(-1)[:: size + 1]
    diagonal -= 1.0
    sq = np.square(np.abs(gram))
    complete = math.sqrt(max(0.0, float(sq.sum()) + (dim - size)))
    sq = _block_sums(sq, ends)
    diagonal = sq.reshape(-1)[:: sq.shape[0] + 1]
    idem = math.sqrt(float(diagonal.max(initial=0.0)))
    diagonal[:] = 0.0
    ortho = math.sqrt(float(sq.max(initial=0.0)))
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
    """Ordered list of mutually orthogonal projectors summing to the identity.

    The members' bases are stacked once into one isometry W, `_basis`, whose
    column blocks end at `_ends`; `pdi_validate` certifies W, and each member
    is rebound to a read-only view of its block. `_positions` maps each label
    to its position, for every lookup by label."""

    projectors: tuple[Projector, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        projs = tuple(self.projectors)
        labels = range(len(projs)) if self.labels is None else self.labels
        labels = tuple(str(l) for l in labels)
        if len(labels) != len(projs):
            raise ValueError(f"{len(projs)} projectors but {len(labels)} labels")
        positions = _FrozenMap((label, i) for i, label in enumerate(labels))
        if len(positions) != len(labels):
            raise ValueError("duplicate outcome labels")
        basis, ends = _stacked(projs)
        basis = _frozen(basis)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_ends", ends)
        projs = tuple(Projector._of(basis[:, lo:hi]) for lo, hi in _blocks(ends))
        object.__setattr__(self, "projectors", projs)
        report = pdi_validate(self)
        if not report.passes:
            raise InvalidPDIError(
                "not a decomposition of the identity: "
                f"orthogonality {report.orthogonality_defect:.3g}, "
                f"idempotency {report.idempotency_defect:.3g}, "
                f"completeness {report.completeness_defect:.3g} "
                f"(tolerance {report.tolerance:g})"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_positions", positions)

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def __len__(self) -> int:
        return len(self.projectors)

    def items(self):
        return zip(self.labels, self.projectors)

    def by_label(self, label: str) -> Projector:
        return self.projectors[self._positions[label]]


@dataclass(frozen=True, eq=False)
class Observable:
    """Spectral form: strictly distinct eigenvalues, one eigenspace projector each.

    `shift` bounds how far the decomposed operator's eigenvalues moved to reach
    `eigenvalues` (a merged group moves onto its mean), so `operator()` lies
    within `shift` of the decomposed operator in the spectral norm.
    """

    eigenvalues: tuple[float, ...]
    pdi: PDI
    shift: float = 0.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if len(vals) != len(self.pdi):
            raise ValueError("one eigenvalue per projector required")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"eigenvalues must be finite, got {vals!r}")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(f"shift must be finite and nonnegative, got {self.shift!r}")
        gap = tolerances().eigen_grouping
        for hi, lo in zip(vals, vals[1:]):
            if hi - lo <= gap:
                raise ValueError(f"eigenvalues must be strictly descending with gap > {gap:g}")
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.pdi.dim

    def operator(self) -> Operator:
        """W diag(f) W-dagger, with W the PDI's stacked eigenspace bases."""
        stacked = self.pdi._basis
        weights = np.repeat(self.eigenvalues, [p.rank for p in self.pdi.projectors])
        return Operator((stacked * weights) @ stacked.conj().T)


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Normalized wavefunction sampled on a 1-D grid, with optional named regions."""

    amplitudes: np.ndarray
    regions: dict[str, "Region"] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized_vector(self.amplitudes))
        object.__setattr__(self, "regions", _FrozenMap(self.regions))
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two kets or of two matrices, formed by one broadcast product.
    Both operands spell out every axis, as np.kron's do: for an operand that is
    broadcast implicitly, numpy can pick a complex multiply loop that rounds
    differently."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product, left factor outermost."""
    return Operator(_kron(a.entries, b.entries))


def tensor_state(a: Ket, b: Ket) -> Ket:
    return Ket(_kron(a.amplitudes, b.amplitudes))


def _projector_sum(
    kets: Sequence[np.ndarray], weights: Sequence[complex], rest: np.ndarray | None = None
) -> Operator:
    """sum_j c_j |k_j><k_j| (+ rest) as one product K diag(c) K-dagger over the
    stacked kets K, symmetrised when every c is real.

    A sum of exactly d real-weighted terms with no other operator term states
    its spectral form: the weights and the kets' own (immutable) amplitude
    arrays are recorded on the operator, outside its dataclass fields, and
    `spectral_decompose` reads its eigenpairs from them instead of from `eigh`.
    """
    k = np.array(kets).T
    # the unit-norm check that Projector.from_basis runs on one ket
    defect = float(np.abs(np.einsum("ij,ij->j", k.conj(), k) - 1.0).max())
    check(defect, tolerances().algebraic, ValueError, "basis columns are not orthonormal")
    c = np.array(weights, dtype=complex)
    real = not c.imag.any()
    combined = (k * (c.real if real else c)) @ k.conj().T
    del k  # hold no second d x d matrix beside the sum
    if real:
        combined += combined.conj().T
        combined *= 0.5
    if rest is not None:
        combined += rest
    op = Operator(combined)
    if real and rest is None and len(kets) == op.dim:
        vars(op)["_declared"] = (_frozen(c.real), tuple(kets))
    return op


def spectral_decompose(h: Operator) -> Observable:
    """Group the spectrum of a Hermitian operator into distinct eigenspaces.

    Eigenvalues within the grouping gap, `eigen_grouping` per unit of
    max(1, ||H||), merge at their mean into a single eigenspace so degenerate
    spectra do not split under floating-point jitter; each projector covers
    the full eigenspace (rank k, not k rank-1 pieces). The gap bounds the
    span of a group, so near-equal eigenvalues never chain: a run of
    neighbours each within the gap whose ends lie farther apart has no
    grouping within tolerance and raises AmbiguousSpectrumError, and one past
    the float range raises ValueError. Eigenvalues come back sorted descending.

    The eigenpairs come from `eigh`, or, for an operator `_projector_sum`
    built from d real-weighted kets, from those kets and weights: the PDI's
    Gram certifies the kets and the reconstruction check the values. Kets
    that fail the Gram, or weights that chain, leave the decision to `eigh`.

    The result is memoized on `h` (outside its dataclass fields), keyed by the
    tolerance bundle in force, for as long as `h` lives: a later call under
    the same bundle returns the same immutable Observable, one under another
    bundle decomposes afresh, and a failure is never stored, so it raises
    again. The memo relies on `h.entries` never changing, which holds
    because they are backed by immutable bytes.
    """
    tol = tolerances()
    memo = vars(h).setdefault("_spectra", {})
    if tol in memo:
        return memo[tol]
    check(h.hermiticity_defect(), tol.algebraic, NotHermitianError, "operator is not Hermitian")
    obs = None
    declared = vars(h).get("_declared")
    if declared is not None:
        weights, kets = declared
        order = np.argsort(weights, kind="stable")
        try:
            obs = _grouped(h, tol, weights[order], np.stack([kets[i] for i in order], axis=1))
        except (InvalidPDIError, AmbiguousSpectrumError):
            pass  # not an orthonormal eigenbasis, or no grouping of it: eigh decides
    if obs is None:
        obs = _grouped(h, tol, *np.linalg.eigh(h.entries))
    return memo.setdefault(tol, obs)  # a thread that stored first wins the race


def _grouped(h: Operator, tol: Tolerances, evals: np.ndarray, evecs: np.ndarray) -> Observable:
    """The Observable of h from its eigenpairs, evals ascending with evecs'
    columns: grouped under the bundle tol, and certified by the PDI's Gram
    and by reconstruction."""
    if not np.isfinite(evals).all():
        raise ValueError("operator spectrum overflows the float range")
    ascending = evals.tolist()
    gap = tol.eigen_grouping * max(1.0, -ascending[0], ascending[-1])
    # evals are sorted ascending, so each group is a run of neighbours at most gap apart
    cuts = [i for i in range(1, len(ascending)) if ascending[i] - ascending[i - 1] > gap]
    bounds = list(zip([0] + cuts, cuts + [len(ascending)]))
    values = []
    projectors = []
    shift = 0.0  # farthest any eigenvalue moves onto its group's mean
    for lo, hi in reversed(bounds):  # descending eigenvalue order
        span = ascending[hi - 1] - ascending[lo]
        if span > gap:
            raise AmbiguousSpectrumError(
                f"eigenvalues {ascending[lo]!r}..{ascending[hi - 1]!r} chain within the "
                f"grouping gap {gap:.3g} but span {span:.3g}, more than it"
            )
        value = ascending[lo] if hi - lo == 1 else float(np.mean(evals[lo:hi]))
        shift = max(shift, value - ascending[lo], ascending[hi - 1] - value)
        values.append(value)
        projectors.append(Projector._of(evecs[:, lo:hi]))  # certified by the PDI's Gram
    obs = Observable(tuple(values), PDI(tuple(projectors)), shift)
    # rounding in eigh and in the rebuilt sum scales with the largest entry; moving
    # eigenvalues onto their group's mean moves each entry by at most `shift` more
    scale = max(1.0, float(np.abs(h.entries).max()))
    defect = float(np.abs(obs.operator().entries - h.entries).max())
    limit = tol.reconstruction * scale + shift
    check(defect, limit, VerificationFailedError, "spectral reconstruction")
    return obs


def common_refinement(p: PDI, q: PDI) -> PDI:
    """All nonzero products P^j Q^k, defined only when all pairs commute.

    Labels join the members' labels as "j&k"; rank-0 products are dropped. A
    noncommuting pair means the two decompositions admit no common refinement;
    the first in p-major order is reported with its labels.
    """
    overlaps, defects = _commutator_defects(p, q)
    clash = np.argwhere(~(defects < tolerances().algebraic))  # NaN clashes too
    if len(clash):
        j, k = clash[0]
        lj, lk = p.labels[j], q.labels[k]
        raise NonCommutingError(
            f"projectors {lj!r} and {lk!r} do not commute "
            f"(defect {defects[j, k]:.3g}): no common refinement",
            pair=(lj, lk),
        )
    projectors = []
    labels = []
    for lj, pj, (top, bottom) in zip(p.labels, p.projectors, _blocks(p._ends)):
        for lk, (lo, hi) in zip(q.labels, _blocks(q._ends)):
            # P Q = V_p M V_q-dagger for this block M of the overlaps: its rank is
            # tr(P Q) = ||M||_F^2, and V_p times M's leading left singular vectors
            # spans it; the refinement's Gram certifies those columns
            middle = overlaps[top:bottom, lo:hi]
            rank = round(float(np.vdot(middle, middle).real))
            if rank:
                u = np.linalg.svd(middle, full_matrices=False)[0]
                projectors.append(Projector._of(pj.basis @ u[:, :rank]))
                labels.append(f"{lj}&{lk}")
    return PDI(tuple(projectors), tuple(labels))


def possesses(k: Ket, p: Projector) -> bool:
    """Property possession: P|psi> = |psi> within tolerance."""
    _check_dims("ket and projector", k.dim, p.dim)
    residual = float(np.linalg.norm(p.apply(k.amplitudes) - k.amplitudes))
    return residual < tolerances().algebraic


def region_projector(grid_size: int, r: Region) -> Projector:
    """Diagonal 0/1 projector masking amplitudes outside the region; its basis
    is the region's coordinate axes."""
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    if any(i >= grid_size for i in r.indices):
        raise IndexOutOfRangeError(
            f"region index {max(r.indices)} out of range for grid of {grid_size} points"
        )
    return Projector.from_basis(np.eye(grid_size, dtype=complex)[:, sorted(r.indices)])


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


def _commutator_defects(p: PDI | Projector, q: PDI | Projector) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps M = V_p-dagger W_q of the stacked member bases (a lone P counts
    as {P, 1 - P}) and every ||[P_j, Q_k]||_F, O(d^3) in all. V_p is unitary,
    so C_k = M_k M_k-dagger is Q_k in p's coordinates and ||[P_j, Q_k]||_F^2 is
    twice the sum of row j's off-diagonal blocks of C_k, summed directly: the
    row total minus its diagonal block would cancel catastrophically."""
    _check_dims("PDI", p.dim, q.dim)
    (wp, ends_p), (wq, ends_q) = (
        (x._basis, x._ends) if isinstance(x, PDI) else _stacked((x, x.complement())) for x in (p, q)
    )
    overlaps = wp.conj().T @ wq
    live = [j for j, (lo, hi) in enumerate(_blocks(ends_p)) if hi > lo]  # rank-0 members commute
    defects = np.zeros((len(ends_p), len(ends_q)))
    for k, (lo, hi) in enumerate(_blocks(ends_q)):
        cols = overlaps[:, lo:hi]
        blocks = _block_sums(np.square(np.abs(cols @ cols.conj().T)), ends_p)
        np.fill_diagonal(blocks, 0.0)
        defects[live, k] = np.sqrt(2.0 * blocks.sum(axis=1))
    return overlaps, defects


def pdi_compatible(p: "PDI | Projector", q: "PDI | Projector") -> bool:
    """True iff every ||[P, Q]||_F, P of p and Q of q, is below tolerance."""
    return bool((_commutator_defects(p, q)[1] < tolerances().algebraic).all())


def partial_trace(op: Operator, dims: tuple[int, int], keep: int) -> Operator:
    """Trace out one factor of a bipartite operator; keep=0 keeps the left."""
    da, db = dims
    _check_dims("operator and factor product", op.dim, da * db)
    blocks = op.entries.reshape(da, db, da, db)
    if keep == 0:
        return Operator(np.einsum("ijkj->ik", blocks))
    if keep == 1:
        return Operator(np.einsum("ijil->jl", blocks))
    raise ValueError("keep must be 0 or 1")
