"""History families over a time grid and the projective measurement model.

A family fixes an initial state, unitary propagators between successive
times, and one PDI per later time; a history picks one event label per time.
Chain vectors K(Y)|psi0> are built by alternately applying propagators and
event projectors (the initial event is [psi0], which acts trivially on
psi0). They are built level by level over the prefix tree of the
histories, one (prefixes, d) array per time, so each shared prefix is
propagated once. Off-diagonal chain-vector inner products are the
decoherence functional; the family is consistent when every off-diagonal
modulus falls below the algebraic tolerance, and only then are squared chain
norms handed out as probabilities. The largest off-diagonal modulus is
streamed over blocks of Gram rows with exactly-zero chains skipped, so the
check holds O(H*d) memory plus one row block for H histories; the dense
H x H Gram matrix is assembled, at O(H^2), only when `ConsistencyReport.gram`
is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .config import check, tolerances
from .errors import (
    DimensionMismatchError,
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
    tensor_product,
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
            if u.dim != dim:
                raise DimensionMismatchError("propagators have mixed dimensions")
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
        if self.initial.dim != self.grid.dim:
            raise DimensionMismatchError("initial state dimension differs from grid dimension")
        for pdi in pdis:
            if pdi.dim != self.grid.dim:
                raise DimensionMismatchError("event PDI dimension differs from grid dimension")
        object.__setattr__(self, "event_pdis", pdis)
        if self.histories is not None:
            chosen = tuple(tuple(str(l) for l in h) for h in self.histories)
            if len(set(chosen)) != len(chosen):
                raise ValueError("duplicate history in explicit subset")
            for h in chosen:
                if len(h) != len(pdis):
                    raise UnknownLabelError(f"history {h} must pick one label per time")
                for label, pdi in zip(h, pdis):
                    if label not in pdi.labels:
                        raise UnknownLabelError(f"no event labeled {label!r} at that time")
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


# Gram rows per block of the streamed off-diagonal scan; a block holds at
# most _GRAM_BLOCK x H complex entries (16 MiB at H = 4096).
_GRAM_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Consistency verdict plus the chain vectors it was computed from.

    `chains` holds one chain vector per history, as rows in `histories`
    order, and `weights` their squared norms (the Gram diagonal). The dense
    Gram matrix is assembled only on access to `gram`, at O(H^2) time and
    memory.
    """

    histories: tuple[tuple[str, ...], ...]
    chains: np.ndarray
    weights: np.ndarray
    max_offdiag: float
    consistent: bool
    tolerance: float

    @property
    def gram(self) -> np.ndarray:
        gram = self.chains.conj() @ self.chains.T
        gram.setflags(write=False)
        return gram


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Extended-Born-rule weights keyed by history label tuples."""

    probabilities: dict[tuple[str, ...], float]
    total: float
    omitted: float
    exhaustive: bool


def _chain_matrix(fam: HistoryFamily, histories=None) -> np.ndarray:
    """Chain vectors as rows, propagating each prefix-tree node once.

    `histories` None stands for every history, with rows in all_histories()
    order; otherwise it is a sequence of valid label tuples, rows come out in
    that order, and only the prefixes they contain are built. Level t holds
    one vector per distinct length-t prefix: its parent's vector moved by
    propagator t, then projected by its own event at time t. Vectors are kept
    as a stack of (d, 1) columns so each operator acts through the same
    matrix-vector product as on a single history, which keeps the result
    bit-identical to chaining one history at a time.
    """
    cols = fam.initial.amplitudes[None, :, None]
    prefixes: list[tuple[str, ...]] = [()]
    for t, (pdi, prop) in enumerate(zip(fam.event_pdis, fam.grid.propagators)):
        moved = prop.entries @ cols
        if histories is None:
            n_events = len(pdi.projectors)
            parents = np.repeat(np.arange(len(cols)), n_events)
            events = np.tile(np.arange(n_events), len(cols))
        else:
            parent_index = {prefix: i for i, prefix in enumerate(prefixes)}
            prefixes = list(dict.fromkeys(h[: t + 1] for h in histories))
            parents = np.array([parent_index[p[:-1]] for p in prefixes], dtype=np.intp)
            events = np.array([pdi.labels.index(p[-1]) for p in prefixes], dtype=np.intp)
        cols = np.empty((len(parents), fam.grid.dim, 1), dtype=complex)
        for j, proj in enumerate(pdi.projectors):
            chosen = events == j
            cols[chosen] = proj.entries @ moved[parents[chosen]]
    return cols[:, :, 0]


def _gram_scan(chains: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram diagonal and largest |<K(Y)|K(Z)>| over Y != Z, by row blocks.

    Exactly-zero chains have exactly-zero inner products, so they are
    skipped: their diagonal entries stay 0.0 and the maximum is unchanged.
    The Gram matrix is Hermitian, so each block covers only the columns from
    its own first row on, and the block's own diagonal is the Gram diagonal.
    """
    live = np.flatnonzero(chains.any(axis=1))
    rows = chains[live]
    diag = np.zeros(len(chains), dtype=complex)
    worst = 0.0
    for start in range(0, len(rows), _GRAM_BLOCK):
        block = rows[start : start + _GRAM_BLOCK].conj() @ rows[start:].T
        own = np.arange(len(block))
        diag[live[start : start + _GRAM_BLOCK]] = block[own, own]
        block[own, own] = 0.0
        worst = max(worst, float(np.abs(block).max()))
    return diag, worst


def chain_vector(fam: HistoryFamily, history) -> np.ndarray:
    """Unnormalized chain vector; its squared norm is the history weight."""
    labels = tuple(str(l) for l in history)
    if len(labels) != fam.n_times:
        raise UnknownLabelError(
            f"history picks {len(labels)} events but the family has {fam.n_times} times"
        )
    for label, pdi in zip(labels, fam.event_pdis):
        if label not in pdi.labels:
            raise UnknownLabelError(f"no event labeled {label!r} at that time")
    return _chain_matrix(fam, [labels])[0]


def consistency_check(fam: HistoryFamily) -> ConsistencyReport:
    """Chain vectors of every history; consistent iff all off-diagonals vanish.

    This is the medium decoherence condition: the full complex modulus of
    every off-diagonal Gram entry must fall below the algebraic tolerance.
    The Gram matrix itself is never held; see `_gram_scan`.
    """
    histories = fam.all_histories()
    chains = _chain_matrix(fam, fam.histories)
    diag, max_offdiag = _gram_scan(chains)
    tol = tolerances()
    message = "gram diagonal is not a real nonnegative weight vector"
    check(-float(diag.real.min()), tol.probability, VerificationFailedError, message)
    check(float(np.abs(diag.imag).max()), tol.probability, VerificationFailedError, message)
    if fam.exhaustive:
        excess = float(diag.real.sum()) - 1.0
        message = "exhaustive family weights exceed 1"
        check(excess, tol.reconstruction, VerificationFailedError, message)
    weights = diag.real
    chains.setflags(write=False)
    weights.setflags(write=False)
    return ConsistencyReport(
        histories=histories,
        chains=chains,
        weights=weights,
        max_offdiag=max_offdiag,
        consistent=max_offdiag < tol.algebraic,
        tolerance=tol.algebraic,
    )


def family_probabilities(fam: HistoryFamily) -> ProbabilityTable:
    """Squared chain norms of a consistent family, with omitted mass reported."""
    report = consistency_check(fam)
    if not report.consistent:
        raise InconsistentFamilyError(
            f"family is inconsistent (max off-diagonal {report.max_offdiag:.3g}, "
            f"tolerance {report.tolerance:g}); probabilities are undefined",
            report=report,
        )
    probs = {h: float(w) for h, w in zip(report.histories, report.weights)}
    total = float(sum(probs.values()))
    if fam.exhaustive:
        message = f"exhaustive family total {total!r} differs from 1"
        check(abs(total - 1.0), tolerances().reconstruction, VerificationFailedError, message)
        omitted = 0.0
    else:
        omitted = max(0.0, 1.0 - total)
    return ProbabilityTable(
        probabilities=probs, total=total, omitted=omitted, exhaustive=fam.exhaustive
    )


def conditional_probability(fam: HistoryFamily, given, target) -> float:
    """Pr(target | given) for events (time_index, label), time_index 1-based.

    Works for retrodiction (target earlier than given) and prediction alike;
    conditioning on a zero-probability event is an error, not a NaN. Both
    events are validated before any probability is computed.
    """
    for time_index, label in (given, target):
        if not 1 <= time_index <= fam.n_times:
            raise UnknownLabelError(f"time index {time_index} outside 1..{fam.n_times}")
        if str(label) not in fam.event_pdis[time_index - 1].labels:
            raise UnknownLabelError(f"no event labeled {label!r} at time {time_index}")
    table = family_probabilities(fam)
    gi, gl = given[0] - 1, str(given[1])
    ti, tl = target[0] - 1, str(target[1])
    pr_given = sum(p for h, p in table.probabilities.items() if h[gi] == gl)
    if pr_given <= tolerances().probability:
        raise ZeroProbabilityConditionError(
            f"conditioning event {gl!r} at time {given[0]} has probability {pr_given:.3g}"
        )
    pr_joint = sum(
        p for h, p in table.probabilities.items() if h[gi] == gl and h[ti] == tl
    )
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
        t_full += np.kron(proj.entries, np.linalg.matrix_power(shift, j + 1))
    t_op = Operator(t_full)
    tol = tolerances().algebraic
    message = "constructed interaction operator is not unitary"
    check(t_op.unitarity_defect(), tol, VerificationFailedError, message)

    pointer_states = tuple(Ket(np.eye(dm)[k]) for k in range(dm))
    eye_s = np.eye(ds)
    pointer_projs = []
    labels = []
    rest = np.eye(ds * dm, dtype=complex)
    for k in range(n_outcomes):
        mk = np.kron(eye_s, np.outer(np.eye(dm)[k + 1], np.eye(dm)[k + 1]))
        rest -= mk
        pointer_projs.append(Projector(Operator(mk)))
        labels.append(str(k))
    pointer_projs.append(Projector(Operator(rest)))
    labels.append("rest")
    pointer_pdi = PDI(tuple(pointer_projs), tuple(labels))

    # the defining property: pointer position k fires iff the system entered
    # through eigenspace k
    ready = np.outer(np.eye(dm)[0], np.eye(dm)[0])
    for j, proj in enumerate(f.pdi.projectors):
        reached = t_full @ np.kron(proj.entries, ready)
        for k, mk in enumerate(pointer_projs[:-1]):
            expected = reached if j == k else 0.0
            defect = float(np.abs(mk.entries @ reached - expected).max())
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
    if psi0.dim != model.system_dim:
        raise DimensionMismatchError(
            f"state dim {psi0.dim} differs from system dim {model.system_dim}"
        )
    phi0 = model.pointer_states[0]
    psi_full = tensor_state(psi0, phi0)
    full = model.full_dim
    identity = Operator(np.eye(full, dtype=complex))
    grid = TimeGrid(("t0", "t1", "t2"), (identity, model.t))
    eye_m = Operator(np.eye(model.pointer_dim, dtype=complex))

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

    p_psi0 = Projector(tensor_product(psi0.projector().op, eye_m))
    f1_t1 = PDI((p_psi0, p_psi0.complement()), ("psi0", "rest"))
    f1 = HistoryFamily(
        grid,
        psi_full,
        (f1_t1, model.pointer_pdi),
        histories=tuple(("psi0", k) for k in model.pointer_pdi.labels),
    )

    f2_t1 = PDI(
        tuple(
            Projector(tensor_product(proj.op, eye_m))
            for proj in model.observable.pdi.projectors
        ),
        model.observable.pdi.labels,
    )
    f2 = HistoryFamily(grid, psi_full, (f2_t1, model.pointer_pdi))
    return StandardFamilies(f_u=f_u, f1=f1, f2=f2)
