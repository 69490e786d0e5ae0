"""History families over a time grid and the projective measurement model.

A family fixes an initial state, unitary propagators between successive
times, and one PDI per later time; a history picks one event label per time,
and a history set is held as one (H, n) array of event positions. Chain
vectors K(Y)|psi0> are built by alternately applying propagators and event
projectors (the initial event is [psi0], which acts trivially on psi0),
level by level over the prefix tree of the histories, one (nodes, d) array
per time. Each level stacks every event's projection of each moved row, so
row parent * n_t + event is that child's node, n_t being the number of
events at time t; an exhaustive family keeps every row, and a subset the
distinct nodes its histories reach, so each shared prefix is propagated once.
Off-diagonal chain-vector inner products are the decoherence functional;
the family is consistent when every off-diagonal modulus falls below the
algebraic tolerance, and only then are squared chain norms handed out as
probabilities. The largest off-diagonal modulus is found by scanning the
nonzero chains in decreasing norm order, one block of Gram rows at a time,
and stopping where Cauchy-Schwarz (|<y|z>| <= |y||z|) shows that no entry
not yet formed can exceed the maximum so far. The check holds O(H*d) memory
plus one row block for H histories. When the maximum lies among the largest
chains, as it does for two-qubit families with kron(sigma, sigma)
propagators and Z events, the scan forms one 256 x 256 block (65,536
entries) where a full scan forms 8.4 M at H = 4096 and 134 M at H = 16,384;
mutually orthogonal chains are still scanned in full. The dense H x H Gram
matrix is assembled, at O(H^2), only when `ConsistencyReport.gram` is read.

A family caches its scan and its position array. Probabilities and
conditional probabilities read the scan's weights: a conditional sums them
under boolean masks over the position array, with the built-in `sum` in
history order, so it equals the sum over the probability table bit for bit
without building that table. The scan holds no label tuples: a report's
`histories` and a probability table's keys are built when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .config import check, tolerances
from .errors import (
    InconsistentFamilyError,
    PointerTooSmallError,
    UnknownLabelError,
    VerificationFailedError,
    ZeroProbabilityConditionError,
)
from .hilbert import (
    PDI,
    Ket,
    Observable,
    Operator,
    Projector,
    _check_dims,
    _frozen,
    _kron,
    _projections,
    tensor_state,
)

__all__ = [
    "TimeGrid",
    "HistoryFamily",
    "ConsistencyReport",
    "ProbabilityTable",
    "MeasurementModel",
    "StandardFamilies",
    "build_measurement_model",
    "chain_vector",
    "consistency_check",
    "family_probabilities",
    "conditional_probability",
    "standard_families",
]


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Times t0..tn with n unitary propagators; propagator i maps t(i-1) to ti."""

    labels: tuple[str, ...]
    propagators: tuple[Operator, ...]

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        props = tuple(self.propagators)
        if len(labels) < 2:
            raise ValueError("a time grid needs at least two times")
        if len(props) != len(labels) - 1:
            raise ValueError(f"{len(labels)} times require {len(labels) - 1} propagators")
        dim = props[0].dim
        tol = tolerances().algebraic
        for i, u in enumerate(props, start=1):
            _check_dims("propagator", dim, u.dim)
            check(u.unitarity_defect(), tol, ValueError, f"propagator {i} is not unitary")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "propagators", props)

    @property
    def dim(self) -> int:
        return self.propagators[0].dim

    @property
    def steps(self) -> int:
        return len(self.propagators)


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """Initial state plus one event PDI per later time.

    `histories` is None for the implicit full cartesian product of event
    labels, or an explicit subset; the probability left in omitted histories
    is always reported, never silently dropped.
    """

    grid: TimeGrid
    initial: Ket
    event_pdis: tuple[PDI, ...]
    histories: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        pdis = tuple(self.event_pdis)
        if len(pdis) != self.grid.steps:
            raise ValueError(
                f"{self.grid.steps} post-initial times require {self.grid.steps} event PDIs"
            )
        _check_dims("initial state and grid", self.initial.dim, self.grid.dim)
        for pdi in pdis:
            _check_dims("event PDI and grid", pdi.dim, self.grid.dim)
        object.__setattr__(self, "event_pdis", pdis)
        if self.histories is not None:
            chosen = tuple(_checked_history(h, pdis) for h in self.histories)
            if not chosen:
                raise ValueError("explicit history subset is empty")
            if len(set(chosen)) != len(chosen):
                raise ValueError("duplicate history in explicit subset")
            object.__setattr__(self, "histories", chosen)

    @property
    def n_times(self) -> int:
        return len(self.event_pdis)

    @property
    def exhaustive(self) -> bool:
        return self.histories is None

    def all_histories(self) -> tuple[tuple[str, ...], ...]:
        if self.histories is not None:
            return self.histories
        return tuple(product(*(pdi.labels for pdi in self.event_pdis)))

    @cached_property
    def _label_index(self) -> np.ndarray:
        """(H, n) event positions of every history, rows in all_histories()
        order (itertools.product order for an exhaustive family), in the
        smallest unsigned type that holds them; built on first use and kept
        immutable."""
        sizes = [len(pdi) for pdi in self.event_pdis]
        dtype = np.min_scalar_type(max(sizes) - 1)
        if self.histories is None:
            index = np.indices(sizes, dtype=dtype).reshape(len(sizes), -1).T
        else:
            at = [pdi._positions for pdi in self.event_pdis]
            index = np.array([[p[l] for p, l in zip(at, h)] for h in self.histories], dtype)
        return _frozen(index)

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(chains, weights, max_offdiag), free of any tolerance; built on first
        use and kept, as the family is frozen and the arrays immutable."""
        chains = _chain_matrix(self)
        weights, max_offdiag = _gram_scan(chains)
        return _frozen(chains), _frozen(weights), max_offdiag


def _checked_history(history, pdis: tuple[PDI, ...]) -> tuple[str, ...]:
    """The history as label strings; UnknownLabelError unless it picks one
    known label per time."""
    labels = tuple(str(l) for l in history)
    if len(labels) != len(pdis):
        raise UnknownLabelError(
            f"history {labels} picks {len(labels)} events but the family has {len(pdis)} times"
        )
    for label, pdi in zip(labels, pdis):
        if label not in pdi._positions:
            raise UnknownLabelError(f"no event labeled {label!r} at that time")
    return labels


# Gram rows per block of the norm-ordered off-diagonal scan, which stops at
# the Cauchy-Schwarz cut; a block holds at most _GRAM_BLOCK x H complex
# entries (16 MiB at H = 4096), and only one block is held at a time.
_GRAM_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Consistency verdict plus the chain vectors it was computed from.

    `chains` holds one chain vector per history, as rows in `histories`
    order, and `weights` their squared norms (the Gram diagonal). The label
    tuples of `histories` are built on first read, and the dense Gram matrix
    on each access to `gram`, at O(H^2) time and memory.
    """

    _family: HistoryFamily
    chains: np.ndarray
    weights: np.ndarray
    max_offdiag: float
    consistent: bool
    tolerance: float

    @cached_property
    def histories(self) -> tuple[tuple[str, ...], ...]:
        return self._family.all_histories()

    @property
    def gram(self) -> np.ndarray:
        return _frozen(self.chains.conj() @ self.chains.T)


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Extended-Born-rule weights keyed by history label tuples."""

    probabilities: dict[tuple[str, ...], float]
    total: float
    omitted: float
    exhaustive: bool


def _chain_matrix(fam: HistoryFamily) -> np.ndarray:
    """Chain vectors as rows, propagating each kept prefix-tree node once.

    Each level moves the rows kept at the last one by propagator t, and
    `_projections` stacks every event's projection of each moved row, so
    row parent * n_t + event is that child's node code. An exhaustive family
    keeps every row, in all_histories() order; a subset keeps the distinct
    codes its histories reach, and the last np.unique inverse puts the chains
    back in its history order.
    """
    subset = not fam.exhaustive
    rows = fam.initial.amplitudes[None, :]
    inverse = np.zeros(1, dtype=np.intp)  # every history starts at the root, node 0
    for t, (pdi, prop) in enumerate(zip(fam.event_pdis, fam.grid.propagators)):
        rows = _projections(pdi.projectors, rows @ prop.entries.T).reshape(-1, fam.grid.dim)
        if subset:
            codes = inverse * len(pdi) + fam._label_index[:, t]
            nodes, inverse = np.unique(codes, return_inverse=True)
            rows = rows[nodes]
    return rows[inverse] if subset else rows


def _gram_scan(chains: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared chain norms and the largest |<K(Y)|K(Z)>| over Y != Z.

    Exactly-zero chains have exactly-zero inner products, so they are
    skipped with weight exactly 0. The live chains are sorted by decreasing
    norm and scanned one block of _GRAM_BLOCK rows at a time: the block's own
    square first, then its columns up to `cut`. Every row y of the block
    starting at s has |y| <= norm[s], so by Cauchy-Schwarz a column z with
    norm[s] |z| < worst cannot raise the maximum `worst`; once `cut` falls
    inside the block, no later pair can either and the scan stops.
    """
    live = np.flatnonzero(chains.any(axis=1))
    rows = chains[live]
    parts = rows.view(float)
    squares = np.einsum("ij,ij->i", parts, parts)
    weights = np.zeros(len(chains))
    weights[live] = squares
    norms = np.sqrt(squares)
    small = squares < np.finfo(float).tiny
    if small.any():
        # the squared norm underflowed: rescale by the largest |entry| so a
        # live chain never gets a zero (and so always pruned) bound
        peak = np.abs(rows[small]).max(axis=1)
        norms[small] = peak * np.linalg.norm(rows[small] / peak[:, None], axis=1)
    order = np.argsort(-norms, kind="stable")
    rows, norms = rows[order], norms[order]
    ascending = -norms  # searchsorted keys
    # A pruned pair must have a computed |<y|z>| no larger than `worst`. With
    # u the unit roundoff and d the row length, the computed modulus of a
    # d-term complex inner product is at most |y||z| (1 + (d+3)u), a computed
    # norm is at least the true one times 1 - (d+1)u (2d squares summed, one
    # square root), and the bound worst / (norm[s] slack) is itself off by
    # 2u. Together that is (3d+7)u to first order; the slack takes about
    # twice it, so a pair can be pruned only when its entry cannot exceed
    # `worst`.
    slack = 1.0 + 4 * (rows.shape[1] + 4) * np.finfo(float).eps
    worst = 0.0
    for start in range(0, len(rows), _GRAM_BLOCK):
        end = min(start + _GRAM_BLOCK, len(rows))
        head = rows[start:end].conj()
        block = head @ rows[start:end].T
        np.fill_diagonal(block, 0.0)
        worst = max(worst, float(np.abs(block).max()))
        bound = worst / (norms[start] * slack)
        cut = int(np.searchsorted(ascending, -bound, side="right"))
        if cut <= end:
            break
        worst = max(worst, float(np.abs(head @ rows[end:cut].T).max()))
    return weights, worst


def chain_vector(fam: HistoryFamily, history) -> np.ndarray:
    """Unnormalized chain vector of one history. It equals the history's row of
    `consistency_check(fam).chains`, the rows every reported number comes from,
    to within rounding: a one-row product may take another BLAS kernel than the
    scan's batched one, so its squared norm can miss the reported weight in the last bit."""
    one = HistoryFamily(fam.grid, fam.initial, fam.event_pdis, histories=[history])
    return _chain_matrix(one)[0]


def consistency_check(fam: HistoryFamily) -> ConsistencyReport:
    """Chain vectors of every history; consistent iff all off-diagonals vanish.

    This is the medium decoherence condition: the full complex modulus of
    every off-diagonal Gram entry must fall below the algebraic tolerance.
    The Gram matrix itself is never held; see `_gram_scan`. The family scans
    once; the tolerances in force are applied to that scan on every call.
    """
    chains, weights, max_offdiag = fam._scan
    tol = tolerances()
    if fam.exhaustive:
        # The weights of an exhaustive family sum to 1, consistent or not: each
        # last-time sum collapses by completeness and each propagator keeps the
        # norm. Per step, a propagator accepted at max|U-dagger U - I| < algebraic
        # moves the total by up to ||U-dagger U - I||_2 <= d algebraic, and a
        # PDI's Frobenius certificates (completeness and idempotency) by up to
        # 2 algebraic; reconstruction absorbs rounding and higher orders.
        total = float(weights.sum())
        limit = tol.reconstruction + fam.grid.steps * (fam.grid.dim + 2) * tol.algebraic
        message = f"exhaustive family weights sum to {total!r}, not 1"
        check(abs(total - 1.0), limit, VerificationFailedError, message)
    return ConsistencyReport(
        _family=fam,
        chains=chains,
        weights=weights,
        max_offdiag=max_offdiag,
        consistent=max_offdiag < tol.algebraic,
        tolerance=tol.algebraic,
    )


def _consistent_report(fam: HistoryFamily) -> ConsistencyReport:
    """The family's consistency report; InconsistentFamilyError unless it is
    consistent, as probabilities are defined only then."""
    report = consistency_check(fam)
    if not report.consistent:
        raise InconsistentFamilyError(
            f"family is inconsistent (max off-diagonal {report.max_offdiag:.3g}, "
            f"tolerance {report.tolerance:g}); probabilities are undefined",
            report=report,
        )
    return report


def _probabilities(fam: HistoryFamily) -> tuple[np.ndarray, float, float]:
    """(weights, total, omitted) of a consistent family, in history order; the
    total is their built-in `sum` in that order."""
    weights = _consistent_report(fam).weights
    total = float(sum(weights.tolist()))
    return weights, total, 0.0 if fam.exhaustive else max(0.0, 1.0 - total)


def family_probabilities(fam: HistoryFamily) -> ProbabilityTable:
    """Squared chain norms of a consistent family, with omitted mass reported."""
    weights, total, omitted = _probabilities(fam)
    probs = dict(zip(fam.all_histories(), weights.tolist()))
    return ProbabilityTable(probs, total, omitted, fam.exhaustive)


def _check_event(fam: HistoryFamily, time_index: int, label) -> int:
    """The position of event `label` at the 1-based time; UnknownLabelError
    unless the family has that event."""
    if not 1 <= time_index <= fam.n_times:
        raise UnknownLabelError(f"time index {time_index} outside 1..{fam.n_times}")
    position = fam.event_pdis[time_index - 1]._positions.get(str(label))
    if position is None:
        raise UnknownLabelError(f"no event labeled {label!r} at time {time_index}")
    return position


def conditional_probability(fam: HistoryFamily, given, target) -> float:
    """Pr(target | given) for events (time_index, label), time_index 1-based.

    Works for retrodiction (target earlier than given) and prediction alike;
    conditioning on a zero-probability event is an error, not a NaN. Both
    events are validated before any probability is computed.
    """
    given_at, target_at = [_check_event(fam, *event) for event in (given, target)]
    weights = _consistent_report(fam).weights
    in_given = fam._label_index[:, given[0] - 1] == given_at
    # the built-in sum in history order, as over the ProbabilityTable, so the
    # result is the table's bit for bit (np.sum would pair the terms)
    pr_given = sum(weights[in_given].tolist())
    if pr_given <= tolerances().probability:
        raise ZeroProbabilityConditionError(
            f"conditioning event {str(given[1])!r} at time {given[0]} has probability "
            f"{pr_given:.3g}"
        )
    in_target = fam._label_index[:, target[0] - 1] == target_at
    pr_joint = sum(weights[in_given & in_target].tolist())
    return pr_joint / pr_given


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Controlled-pointer-shift model of a projective measurement.

    The interaction unitary sends (eigenspace j) x |Phi0> to
    (eigenspace j) x |Phi(j+1)>, so pointer position j+1 records outcome j.
    The pointer PDI carries one projector per outcome plus an explicit
    "rest" projector so completeness holds exactly.
    """

    observable: Observable
    system_dim: int
    pointer_dim: int
    t: Operator
    pointer_pdi: PDI
    pointer_states: tuple[Ket, ...]

    @property
    def full_dim(self) -> int:
        return self.system_dim * self.pointer_dim


def build_measurement_model(f: Observable, pointer_dim: int) -> MeasurementModel:
    """Build the interaction unitary and pointer PDI for measuring f."""
    n_outcomes = len(f.eigenvalues)
    if pointer_dim <= n_outcomes:
        raise PointerTooSmallError(
            f"{n_outcomes} outcomes need pointer dimension > {n_outcomes} "
            f"(ready state plus one position per outcome), got {pointer_dim}"
        )
    ds, dm = f.dim, pointer_dim
    shift = np.zeros((dm, dm), dtype=complex)
    for m in range(dm):
        shift[(m + 1) % dm, m] = 1.0
    t_full = np.zeros((ds * dm, ds * dm), dtype=complex)
    for j, proj in enumerate(f.pdi.projectors):
        t_full += _kron(proj.entries, np.linalg.matrix_power(shift, j + 1))
    t_op = Operator(t_full)
    tol = tolerances().algebraic
    message = "constructed interaction operator is not unitary"
    check(t_op.unitarity_defect(), tol, VerificationFailedError, message)

    eye_s = np.eye(ds)
    eye_m = np.eye(dm)
    pointer_states = tuple(Ket(eye_m[k]) for k in range(dm))
    # pointer position k + 1 records outcome k; "rest" spans the ready position
    # and every position beyond the last outcome
    positions = [[k + 1] for k in range(n_outcomes)] + [[0, *range(n_outcomes + 1, dm)]]
    pointer_projs = [Projector.from_basis(_kron(eye_s, eye_m[:, cols])) for cols in positions]
    labels = [str(k) for k in range(n_outcomes)] + ["rest"]
    pointer_pdi = PDI(tuple(pointer_projs), tuple(labels))

    # the defining property: pointer position k fires iff the system entered
    # through eigenspace k
    for j, proj in enumerate(f.pdi.projectors):
        reached = t_full @ _kron(proj.basis, eye_m[:, :1])
        for k, mk in enumerate(pointer_projs[:-1]):
            expected = reached if j == k else 0.0
            defect = float(np.abs(mk.apply(reached) - expected).max())
            message = f"pointer projector {k} fails on eigenspace {j}"
            check(defect, tol, VerificationFailedError, message)
    return MeasurementModel(
        observable=f,
        system_dim=ds,
        pointer_dim=dm,
        t=t_op,
        pointer_pdi=pointer_pdi,
        pointer_states=pointer_states,
    )


@dataclass(frozen=True, eq=False)
class StandardFamilies:
    f_u: HistoryFamily
    f1: HistoryFamily
    f2: HistoryFamily


def standard_families(model: MeasurementModel, psi0: Ket) -> StandardFamilies:
    """The unitary family and the two measurement families for one model run.

    All three share the grid t0, t1, t2 with an identity propagator into t1
    and the interaction unitary into t2, starting from psi0 x Phi0.

      f_u: unitary images [Psi1], [Psi2] at t1/t2, complements included as
           real (zero-probability) events;
      f1:  {[psi0] x I, rest} at t1 and the pointer PDI at t2, built as an
           explicit subset keeping only the [psi0] branch (the omitted rest
           branch carries zero probability, which the table reports);
      f2:  {[phi^j] x I} at t1 and the pointer PDI at t2, the family whose
           probabilities are delta(j,k) |c_k|^2.
    """
    _check_dims("state and system", psi0.dim, model.system_dim)
    phi0 = model.pointer_states[0]
    psi_full = tensor_state(psi0, phi0)
    full = model.full_dim
    identity = Operator(np.eye(full, dtype=complex))
    grid = TimeGrid(("t0", "t1", "t2"), (identity, model.t))
    eye_m = np.eye(model.pointer_dim)

    psi1 = psi_full  # identity propagator into t1
    psi2 = Ket(model.t.apply(psi_full.amplitudes))
    p1 = psi1.projector()
    p2 = psi2.projector()
    f_u = HistoryFamily(
        grid,
        psi_full,
        (
            PDI((p1, p1.complement()), ("psi1", "rest")),
            PDI((p2, p2.complement()), ("psi2", "rest")),
        ),
    )

    p_psi0 = Projector.from_basis(_kron(psi0.amplitudes[:, None], eye_m))
    f1_t1 = PDI((p_psi0, p_psi0.complement()), ("psi0", "rest"))
    f1 = HistoryFamily(
        grid,
        psi_full,
        (f1_t1, model.pointer_pdi),
        histories=tuple(("psi0", k) for k in model.pointer_pdi.labels),
    )

    f2_t1 = PDI(
        tuple(
            Projector.from_basis(_kron(proj.basis, eye_m))
            for proj in model.observable.pdi.projectors
        ),
        model.observable.pdi.labels,
    )
    f2 = HistoryFamily(grid, psi_full, (f2_t1, model.pointer_pdi))
    return StandardFamilies(f_u=f_u, f1=f1, f2=f2)
