"""CHSH experiment engine: operator construction, classical strategy bounds,
the fixed-setting hidden-variable model, correlator-polytope feasibility,
and EPR-Bohm singlet calculus (joint probabilities, collapse conditionals,
no-signaling verification).

Local models fill a 4-D cross-polytope of correlator tables (Fine, PRL 48,
291, 1982), so the witness mixture of a feasible table has a closed form.

Correlators are always assembled the way a laboratory would assemble them:
one Born-rule average per setting pair over the common refinement of the two
commuting one-party decompositions, then combined with the CHSH signs. The
direct operator expectation is computed alongside as a cross-check. Every
joint is read from one table T[j, k] = Re<P_j psi|Q_k psi>, the Born weight
of the refinement's member P_j Q_k: E(a,b) sums f_a f_b T, the fixed-setting
model's prior is T, and Bob's marginal is T summed over Alice's outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .config import check, tolerances
from .errors import (
    MalformedLocalPDIError,
    NonCommutingABError,
    VerificationFailedError,
    ZeroProbabilityOutcomeError,
)
from .hilbert import (
    PDI,
    Ket,
    Observable,
    Operator,
    Projector,
    _check_dims,
    _FrozenMap,
    _frozen,
    builtin_operator,
    partial_trace,
    spectral_decompose,
    tensor_product,
)

__all__ = [
    "CHSHOperators",
    "SettingPair",
    "LHVModel",
    "CorrelationData",
    "DeterministicStrategy",
    "CHSHValue",
    "DeterministicBoundReport",
    "FeasibilityReport",
    "CollapseResult",
    "NoSignalingReport",
    "NeonSetup",
    "chsh_operator",
    "chsh_value",
    "lhv_deterministic_bound",
    "lambda_model_fixed_settings",
    "lhv_feasibility",
    "singlet_state",
    "joint_probabilities",
    "collapse_conditional",
    "no_signaling_check",
    "neon_setup",
    "sigma_zx",
    "singlet_chsh_operators",
    "SINGLET_OPTIMAL_ANGLES_DEG",
]

# Default measurement directions in the z-x plane, degrees from +z, chosen so
# the canonical sign pattern E00+E01+E10-E11 reaches magnitude 2*sqrt(2) on
# the singlet (the assignment order matters; this one gives -2*sqrt(2)).
SINGLET_OPTIMAL_ANGLES_DEG = ((90.0, 0.0), (45.0, 135.0))

# Squares-to-identity check is looser than the algebraic tolerance because
# squaring doubles rounding noise on the +-1 eigenvalue scale.
SQUARE_IDENTITY_TOL = 1e-9


def _chsh(e00, e01, e10, e11):
    """The canonical CHSH combination E00 + E01 + E10 - E11, summed left to
    right, of numbers or of operators."""
    return e00 + e01 + e10 - e11


@dataclass(frozen=True, eq=False)
class CHSHOperators:
    """Two +-1-valued settings per party, each product A_aB_b Hermitian (for
    Hermitian A, B that is [A, B] = 0); the products are formed once, A-major."""

    a0: Operator
    a1: Operator
    b0: Operator
    b1: Operator

    def __post_init__(self):
        ops = {"A0": self.a0, "A1": self.a1, "B0": self.b0, "B1": self.b1}
        tol = tolerances().algebraic
        for name, op in ops.items():
            _check_dims(f"A0 and {name}", self.a0.dim, op.dim)
            check(op.hermiticity_defect(), tol, ValueError, f"{name} is not Hermitian")
            # a Hermitian A squares to I exactly when it is unitary
            message = f"{name} does not square to identity; eigenvalues must lie in {{+1,-1}}"
            check(op.unitarity_defect(), SQUARE_IDENTITY_TOL, ValueError, message)
        # With D = A - A-dagger, A-dagger A - I = A^2 - I - DA and AB - (AB)-dagger =
        # [A, B] + B D_A + D_B A-dagger, so with s = max|D| the checked defects lie within
        # d s_A max|A| of max|A^2 - I| and d (s_A max|B| + s_B max|A|) of max|[A, B]|;
        # no slack is added, as products carry s near 1e-13 at d = 1024 (a 2e-10 slack)
        products = []
        for an, bn in product(("A0", "A1"), ("B0", "B1")):
            m = ops[an] @ ops[bn]
            message = f"{an}{bn} is not Hermitian; Alice's operators must commute with Bob's"
            check(m.hermiticity_defect(), tol, NonCommutingABError, message)
            products.append(m)
        object.__setattr__(self, "_products", tuple(products))

    @property
    def dim(self) -> int:
        return self.a0.dim

    def alice(self, setting: int) -> Operator:
        return (self.a0, self.a1)[setting]

    def bob(self, setting: int) -> Operator:
        return (self.b0, self.b1)[setting]


@dataclass(frozen=True)
class SettingPair:
    a: int
    b: int

    def __post_init__(self):
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ValueError("settings are 0 or 1")


@dataclass(frozen=True, eq=False)
class CorrelationData:
    """2x2 correlator table E(a,b) plus the canonical CHSH combination."""

    e: np.ndarray
    chsh: float = 0.0

    def __post_init__(self):
        table = _frozen(self.e, float)
        if table.shape != (2, 2):
            raise ValueError("correlator table must be 2x2")
        if not np.isfinite(table).all():
            raise ValueError(f"correlator entries must be finite: {table.tolist()}")
        if float(np.abs(table).max()) > 1 + tolerances().probability:
            raise ValueError(f"correlator magnitude exceeds 1: {table.tolist()}")
        object.__setattr__(self, "e", table)
        object.__setattr__(self, "chsh", float(_chsh(*table.flat)))


@dataclass(frozen=True)
class DeterministicStrategy:
    """One +-1 assignment per setting per party."""

    a0: int
    a1: int
    b0: int
    b1: int

    def __post_init__(self):
        for v in (self.a0, self.a1, self.b0, self.b1):
            if v not in (1, -1):
                raise ValueError("strategy entries are +1 or -1")

    def chsh(self) -> int:
        return _chsh(*self.correlators())

    def correlators(self) -> tuple[int, int, int, int]:
        return (self.a0 * self.b0, self.a0 * self.b1, self.a1 * self.b0, self.a1 * self.b1)


@dataclass(frozen=True, eq=False)
class LHVModel:
    """Finite hidden-variable model: prior over lambda and per-setting responses.

    Response tables map a setting index to the vector Pr(outcome = +1 | lambda)
    over the lambda list; only the settings the model actually covers are
    present (a fixed-setting model carries exactly one per party).
    """

    lambdas: tuple[str, ...]
    prior: np.ndarray
    resp_a: dict[int, np.ndarray]
    resp_b: dict[int, np.ndarray]

    def __post_init__(self):
        lambdas = tuple(str(l) for l in self.lambdas)
        prior = np.asarray(self.prior, dtype=float).reshape(-1)
        if prior.shape[0] != len(lambdas):
            raise ValueError("one prior entry per lambda required")
        if not np.isfinite(prior).all():
            raise ValueError("prior probabilities must be finite")
        tol = tolerances().probability
        if float(prior.min()) < -tol:
            raise ValueError("negative prior probability")
        if abs(float(prior.sum()) - 1.0) > tol:
            raise ValueError(f"prior sums to {float(prior.sum())!r}, not 1")
        prior = _frozen(np.clip(prior, 0.0, None))

        def _clean(table: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
            out = {}
            for setting, resp in table.items():
                vec = np.asarray(resp, dtype=float).reshape(-1)
                if vec.shape[0] != len(lambdas):
                    raise ValueError("one response entry per lambda required")
                if not np.isfinite(vec).all():
                    raise ValueError("response probabilities must be finite")
                if float(vec.min()) < -tol or float(vec.max()) > 1 + tol:
                    raise ValueError("response probabilities must lie in [0, 1]")
                out[int(setting)] = _frozen(np.clip(vec, 0.0, 1.0))
            return _FrozenMap(out)

        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "resp_a", _clean(self.resp_a))
        object.__setattr__(self, "resp_b", _clean(self.resp_b))

    def _responses(self, s: SettingPair) -> tuple[np.ndarray, np.ndarray]:
        if s.a not in self.resp_a or s.b not in self.resp_b:
            raise ValueError(f"model does not cover setting pair ({s.a}, {s.b})")
        return self.resp_a[s.a], self.resp_b[s.b]

    def joint(self, s: SettingPair) -> np.ndarray:
        """2x2 outcome table, rows A in (+1,-1), columns B in (+1,-1): entry
        (j, k) sums prior * (A's response j) * (B's response k) over lambda."""
        pa, pb = self._responses(s)
        weighted = np.stack([pa, 1 - pa]) * self.prior
        return (weighted[:, None, :] * np.stack([pb, 1 - pb])).sum(axis=2)

    def correlator(self, s: SettingPair) -> float:
        """E(a, b): the joint table summed with the sign of the outcome product."""
        t = self.joint(s)
        return float(t[0, 0] - t[0, 1] - t[1, 0] + t[1, 1])

    def correlation_data(self) -> CorrelationData:
        e = np.zeros((2, 2))
        for a, b in product((0, 1), repeat=2):
            e[a, b] = self.correlator(SettingPair(a, b))
        return CorrelationData(e)


def chsh_operator(ops: CHSHOperators) -> Operator:
    """S = A0 B0 + A0 B1 + A1 B0 - A1 B1, summed from the four products that
    `ops` formed and checked Hermitian when it was built."""
    return _chsh(*ops._products)


def _joint_table(psi: np.ndarray, p: PDI, q: PDI) -> np.ndarray:
    """T[j, k] = Re<P_j psi|Q_k psi>, the Born weight of P_j Q_k when p and q
    commute; a rank-0 member gives a zero row or column."""
    left = np.array([pj.apply(psi) for pj in p.projectors])
    right = np.array([qk.apply(psi) for qk in q.projectors])
    return (left.conj() @ right.T).real


@dataclass(frozen=True, eq=False)
class CHSHValue:
    correlations: CorrelationData
    direct_expectation: float
    observables: tuple[tuple[Observable, Observable], ...]  # ((A0,A1),(B0,B1))


def chsh_value(state: Ket, ops: CHSHOperators) -> CHSHValue:
    """Four per-setting Born averages plus the direct <S> cross-check.

    E(a,b) sums eigenvalue products over the common refinement of the two
    setting decompositions; by linearity the signed sum must match the
    direct expectation, which is verified here rather than assumed.
    """
    _check_dims("state and operator", state.dim, ops.dim)
    obs_a = (spectral_decompose(ops.a0), spectral_decompose(ops.a1))
    obs_b = (spectral_decompose(ops.b0), spectral_decompose(ops.b1))
    e = np.zeros((2, 2))
    for a, b in product((0, 1), repeat=2):
        table = _joint_table(state.amplitudes, obs_a[a].pdi, obs_b[b].pdi)
        # entry by entry, A-major: a cancelling S (singlet, Alice 0/90 deg) rounds by this order
        e[a, b] = np.sum(np.outer(obs_a[a].eigenvalues, obs_b[b].eigenvalues) * table)
    corr = CorrelationData(e)
    direct = float(chsh_operator(ops).expectation(state).real)
    # E(a,b) is <A'B'>, with A' the decomposed A (within s_a of it, ||A'|| = m_a the
    # largest |eigenvalue|), so |<A'B'> - <AB>| <= ||A' - A|| ||B|| + ||A'|| ||B' - B||
    # <= s_a (m_b + s_b) + m_a s_b; S adds four such terms to the rounding
    a_side, b_side = (
        [(o.shift, max(map(abs, o.eigenvalues))) for o in side] for side in (obs_a, obs_b)
    )
    limit = tolerances().algebraic + sum(
        s_a * (m_b + s_b) + m_a * s_b for (s_a, m_a), (s_b, m_b) in product(a_side, b_side)
    )
    message = f"per-setting sum {corr.chsh!r} disagrees with direct expectation {direct!r}"
    check(abs(corr.chsh - direct), limit, VerificationFailedError, message)
    return CHSHValue(
        correlations=corr,
        direct_expectation=direct,
        observables=(obs_a, obs_b),
    )


@dataclass(frozen=True, eq=False)
class DeterministicBoundReport:
    max_s: float
    min_s: float
    argmax: tuple[DeterministicStrategy, ...]
    strategies: tuple[DeterministicStrategy, ...]
    note: str


def lhv_deterministic_bound() -> DeterministicBoundReport:
    """Exhaustive 16-strategy enumeration of the classical CHSH bound.

    Every deterministic strategy lands on +-2; by convexity no mixture of
    them can exceed the vertex maximum.
    """
    strategies = tuple(
        DeterministicStrategy(*vals) for vals in product((1, -1), repeat=4)
    )
    values = [s.chsh() for s in strategies]
    max_s = float(max(values))
    min_s = float(min(values))
    argmax = tuple(s for s, v in zip(strategies, values) if v == max_s)
    return DeterministicBoundReport(
        max_s=max_s,
        min_s=min_s,
        argmax=argmax,
        strategies=strategies,
        note=(
            "mixed models are convex combinations of the 16 deterministic "
            "strategies, so |S| cannot exceed the vertex maximum of 2"
        ),
    )


def _sign_label(value: float) -> str:
    return "+" if value > 0 else "-"


def lambda_model_fixed_settings(state: Ket, ops: CHSHOperators, s: SettingPair) -> LHVModel:
    """Hidden-variable model valid for one setting pair only.

    lambda ranges over the joint outcomes of that pair; its prior is the Born
    joint probability and the responses are deterministic readouts of the
    matching component. The model reproduces the quantum joints for its own
    settings exactly, and for nothing else, which is the whole obstruction.
    """
    _check_dims("state and operator", state.dim, ops.dim)
    obs_a = spectral_decompose(ops.alice(s.a))
    obs_b = spectral_decompose(ops.bob(s.b))
    table = _joint_table(state.amplitudes, obs_a.pdi, obs_b.pdi)
    lambdas, resp_a, resp_b = [], [], []
    born = np.zeros((2, 2))
    # lambda runs over the eigenvalue pairs A-major, the order of table's entries
    for (j, fa), (k, fb) in product(enumerate(obs_a.eigenvalues), enumerate(obs_b.eigenvalues)):
        lambdas.append(_sign_label(fa) + _sign_label(fb))
        resp_a.append(1.0 if fa > 0 else 0.0)
        resp_b.append(1.0 if fb > 0 else 0.0)
        born[0 if fa > 0 else 1, 0 if fb > 0 else 1] += table[j, k]
    model = LHVModel(
        lambdas=tuple(lambdas),
        prior=np.maximum(table, 0.0).reshape(-1),
        resp_a={s.a: np.array(resp_a)},
        resp_b={s.b: np.array(resp_b)},
    )
    # the reproduction property is part of this function's contract
    defect = float(np.abs(model.joint(s) - born).max())
    message = "lambda model misses the Born joints"
    check(defect, tolerances().probability, VerificationFailedError, message)
    return model


# Correlator-polytope vertices: sign vectors with product +1. Each is realized
# by a deterministic strategy (global outcome flips collapse the 16 strategies
# onto these 8 correlator points). The first four, v_1..v_4 =
# (1,1,1,1), (1,1,-1,-1), (1,-1,1,-1), (1,-1,-1,1), are mutually orthogonal,
# and entry 7 - i is the negation of entry i.
_VERTEX_SIGNS = tuple(
    signs for signs in product((1, -1), repeat=4) if signs[0] * signs[1] * signs[2] * signs[3] == 1
)
_VERTICES = np.array(_VERTEX_SIGNS, dtype=float)

_ODD_SIGNS = tuple(
    signs for signs in product((1, -1), repeat=4) if signs[0] * signs[1] * signs[2] * signs[3] == -1
)


def _vertex_strategy(signs: tuple[int, int, int, int]) -> DeterministicStrategy:
    # fix a0 = +1; the products then pin the rest
    b0 = signs[0]
    b1 = signs[1]
    a1 = signs[2] * b0
    return DeterministicStrategy(1, a1, b0, b1)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    feasible: bool
    max_combination: float
    violated_signs: tuple[int, int, int, int] | None
    violated_value: float | None
    mixture: tuple[tuple[DeterministicStrategy, float], ...] | None


def lhv_feasibility(corr: CorrelationData) -> FeasibilityReport:
    """Decide whether any local hidden-variable model matches the correlators.

    The 2-setting/2-outcome correlator polytope is exactly the region where
    all eight odd-sign CHSH combinations stay within [-2, 2] (given each
    |E| <= 1, which CorrelationData enforces); the verdict is that scan.

    The polytope is the 4-D cross-polytope conv{+-v_i} over the four
    orthogonal even sign vectors v_i (Fine, PRL 48, 291, 1982), so
    E = sum_i c_i v_i with c_i = <E, v_i>/4, and E is feasible iff
    sum_i |c_i| <= 1. The witness puts weight |c_i| on sign(c_i) v_i and
    splits the slack 1 - sum_i |c_i| evenly over +-v_1; it is checked to
    reproduce E with weights summing to 1.
    """
    flat = corr.e.reshape(-1)
    worst_value = 0.0
    worst_signs = None
    for signs in _ODD_SIGNS:
        value = float(np.dot(signs, flat))
        if abs(value) > abs(worst_value):
            worst_value = value
            worst_signs = signs
    if abs(worst_value) > 2 + tolerances().probability:
        return FeasibilityReport(
            feasible=False,
            max_combination=abs(worst_value),
            violated_signs=worst_signs,
            violated_value=worst_value,
            mixture=None,
        )

    coords = _VERTICES[:4] @ flat / 4.0
    weights = np.zeros(len(_VERTEX_SIGNS))
    for i, c in enumerate(coords):
        weights[i if c >= 0 else 7 - i] = abs(c)
    # sum |c_i| may exceed 1 by the scan's tolerance; weights stay >= 0
    slack = max(0.0, 1.0 - float(np.abs(coords).sum()))
    weights[0] += slack / 2
    weights[7] += slack / 2
    defect = max(
        float(np.abs(weights @ _VERTICES - flat).max()), abs(float(weights.sum()) - 1.0)
    )
    check(defect, 1e-9, VerificationFailedError, "vertex mixture misses the correlators")
    return FeasibilityReport(
        feasible=True,
        max_combination=abs(worst_value),
        violated_signs=None,
        violated_value=None,
        mixture=tuple(
            (_vertex_strategy(signs), float(w))
            for signs, w in zip(_VERTEX_SIGNS, weights)
            if w > 0
        ),
    )


def singlet_state() -> Ket:
    """(|01> - |10>)/sqrt(2)."""
    return Ket(np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2))


def joint_probabilities(state: Ket, alice_basis: PDI, bob_basis: PDI) -> np.ndarray:
    """Pr(j,k) = |(V_j x W_k)-dagger psi|^2, V_j x W_k being a basis of A_j x B_k."""
    _check_dims("state and factor product", state.dim, alice_basis.dim * bob_basis.dim)
    psi = state.amplitudes
    table = np.zeros((len(alice_basis), len(bob_basis)))
    for j, pj in enumerate(alice_basis.projectors):
        for k, qk in enumerate(bob_basis.projectors):
            amps = np.kron(pj.basis, qk.basis).conj().T @ psi
            table[j, k] = float(np.vdot(amps, amps).real)
    total = float(table.sum())
    message = f"joint table sums to {total!r}"
    check(abs(total - 1.0), tolerances().probability, VerificationFailedError, message)
    return _frozen(table)


@dataclass(frozen=True, eq=False)
class CollapseResult:
    collapsed: Ket
    outcome_probability: float
    conditional_probability: float


def collapse_conditional(state: Ket, alice_outcome: Projector, bob_event: Projector) -> CollapseResult:
    """Collapse on Alice's local outcome, then read Bob's conditional probability.

    The collapsed state is (P_a x I)|psi> renormalized; the identity
    Pr(a) * Pr(b|a) = Pr(a, b) is what makes this a bookkeeping device rather
    than dynamics, and callers can verify it against joint_probabilities.
    """
    da, db = alice_outcome.dim, bob_event.dim
    _check_dims("state and factor product", state.dim, da * db)
    psi = state.amplitudes
    lifted_a = np.kron(alice_outcome.basis, np.eye(db))
    projected = lifted_a @ (lifted_a.conj().T @ psi)
    pr_a = float(np.vdot(psi, projected).real)
    if pr_a <= tolerances().probability:
        raise ZeroProbabilityOutcomeError(
            f"Alice outcome has probability {pr_a:.3g}; collapse undefined"
        )
    collapsed = Ket(projected / math.sqrt(pr_a))
    lifted_b = np.kron(np.eye(da), bob_event.basis)
    kept = lifted_b @ (lifted_b.conj().T @ collapsed.amplitudes)
    cond = float(np.vdot(collapsed.amplitudes, kept).real)
    return CollapseResult(
        collapsed=collapsed,
        outcome_probability=pr_a,
        conditional_probability=cond,
    )


@dataclass(frozen=True, eq=False)
class NoSignalingReport:
    bob_marginals: tuple[np.ndarray, ...]
    max_deviation: float
    dynamics_max_deviation: float | None
    passes: bool
    tolerance: float


def _local_form_defect(proj: Projector, dims: tuple[int, int], side: int) -> float:
    """Max-entry distance from P x I (side 0) or I x Q (side 1) form."""
    full = proj.op
    traced = dims[1 - side]
    local = partial_trace(full, dims, keep=side).entries / traced
    eye = np.eye(traced)
    rebuilt = np.kron(local, eye) if side == 0 else np.kron(eye, local)
    return float(np.abs(rebuilt - full.entries).max())


def no_signaling_check(
    state: Ket,
    alice_pdis: list[PDI],
    bob_pdi: PDI,
    dims: tuple[int, int],
    dynamics: tuple[Operator, Operator] | None = None,
) -> NoSignalingReport:
    """Bob's outcome distribution must not depend on Alice's choice of PDI.

    All PDIs live on the full space and must have one-sided product form,
    enforced to the algebraic tolerance. With `dynamics` given, the product
    unitary T_a x T_b is applied first and the marginals are re-verified:
    independent local dynamics must not open a signaling channel either.
    """
    da, db = dims
    _check_dims("state and factor product", state.dim, da * db)
    if not alice_pdis:
        raise ValueError("at least one Alice PDI required")
    tol = tolerances()
    sides = [(0, "Alice", "(P x I)", pdi) for pdi in alice_pdis] + [(1, "Bob", "(I x Q)", bob_pdi)]
    for side, party, form, pdi in sides:
        for label, proj in pdi.items():
            defect = _local_form_defect(proj, dims, side)
            message = f"{party} projector {label!r} is not of {form} form"
            check(defect, tol.algebraic, MalformedLocalPDIError, message)

    def _marginals(psi: np.ndarray) -> tuple[tuple[np.ndarray, ...], float]:
        per_choice = [_frozen(_joint_table(psi, pdi, bob_pdi).sum(axis=0)) for pdi in alice_pdis]
        deviation = 0.0
        for m1, m2 in combinations(per_choice, 2):
            deviation = max(deviation, float(np.abs(m1 - m2).max()))
        return tuple(per_choice), deviation

    marginals, deviation = _marginals(state.amplitudes)
    dyn_deviation = None
    if dynamics is not None:
        ta, tb = dynamics
        _check_dims("T_a and Alice factor", ta.dim, da)
        _check_dims("T_b and Bob factor", tb.dim, db)
        for name, u in (("T_a", ta), ("T_b", tb)):
            check(u.unitarity_defect(), tol.algebraic, ValueError, f"{name} is not unitary")
        evolved = np.kron(ta.entries, tb.entries) @ state.amplitudes
        _, dyn_deviation = _marginals(evolved)
    limit = tol.probability
    passes = deviation <= limit and (dyn_deviation is None or dyn_deviation <= limit)
    return NoSignalingReport(
        bob_marginals=marginals,
        max_deviation=deviation,
        dynamics_max_deviation=dyn_deviation,
        passes=passes,
        tolerance=limit,
    )


@dataclass(frozen=True, eq=False)
class NeonSetup:
    ops: CHSHOperators
    m: tuple[tuple[Operator, Operator], tuple[Operator, Operator]]
    s: Operator
    top_eigenstate: Ket


def neon_setup() -> NeonSetup:
    """Spin-3/2 ground-state construction: two qubit factors standing in for
    the four hyperfine levels, products M_jk, the CHSH operator, and the
    eigenstate with eigenvalue 2*sqrt(2) (phase fixed so the first
    appreciable amplitude is real positive)."""
    eye2 = builtin_operator("I", 2)
    z = builtin_operator("Z")
    x = builtin_operator("X")
    ops = CHSHOperators(
        a0=tensor_product(z, eye2),
        a1=tensor_product(x, eye2),
        b0=tensor_product(eye2, x),
        b1=tensor_product(eye2, z),
    )
    m = (ops._products[:2], ops._products[2:])
    s = chsh_operator(ops)
    obs = spectral_decompose(s)
    top_proj = obs.pdi.projectors[0]  # eigenvalues sorted descending
    if top_proj.rank != 1:
        raise VerificationFailedError("top eigenvalue of S is not simple")
    vec = top_proj.basis[:, 0]
    lead = int(np.argmax(np.abs(vec) > 1e-8))
    vec = vec * (np.conj(vec[lead]) / np.abs(vec[lead]))
    return NeonSetup(ops=ops, m=m, s=s, top_eigenstate=Ket(vec))


def sigma_zx(theta_rad: float) -> Operator:
    """Spin component along (sin t, 0, cos t): the z-x measurement plane."""
    return builtin_operator((math.sin(theta_rad), 0.0, math.cos(theta_rad)))


def singlet_chsh_operators(
    alice_deg: tuple[float, float] = SINGLET_OPTIMAL_ANGLES_DEG[0],
    bob_deg: tuple[float, float] = SINGLET_OPTIMAL_ANGLES_DEG[1],
) -> CHSHOperators:
    """Lift z-x plane spin directions (given in degrees) to two-qubit CHSH operators."""
    eye2 = builtin_operator("I", 2)
    a0, a1 = (sigma_zx(math.radians(t)) for t in alice_deg)
    b0, b1 = (sigma_zx(math.radians(t)) for t in bob_deg)
    return CHSHOperators(
        a0=tensor_product(a0, eye2),
        a1=tensor_product(a1, eye2),
        b0=tensor_product(eye2, b0),
        b1=tensor_product(eye2, b1),
    )
