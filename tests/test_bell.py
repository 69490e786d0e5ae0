"""CHSH operators, classical bounds, hidden-variable models, EPR calculus."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories_kit import bell
from histories_kit.bell import (
    SINGLET_OPTIMAL_ANGLES_DEG,
    CHSHOperators,
    CorrelationData,
    DeterministicStrategy,
    LHVModel,
    SettingPair,
    chsh_operator,
    chsh_value,
    collapse_conditional,
    joint_probabilities,
    lambda_model_fixed_settings,
    lhv_deterministic_bound,
    lhv_feasibility,
    neon_setup,
    no_signaling_check,
    sigma_zx,
    singlet_chsh_operators,
    singlet_state,
)
from histories_kit.config import TOLERANCES
from histories_kit.errors import (
    MalformedLocalPDIError,
    NonCommutingABError,
    VerificationFailedError,
    ZeroProbabilityOutcomeError,
)
from histories_kit.hilbert import (
    PDI,
    Ket,
    Operator,
    Projector,
    builtin_operator,
    spectral_decompose,
    tensor_product,
)

ROOT8 = 2 * math.sqrt(2)
Z = builtin_operator("Z")
X = builtin_operator("X")
I2 = builtin_operator("I", 2)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)

# <S> eigenstate for eigenvalue +2*sqrt(2): (cos pi/8, sin pi/8, -sin pi/8, cos pi/8)/sqrt(2)
TOP_STATE = (0.6532814824381883, 0.2705980500730985, -0.2705980500730985, 0.6532814824381883)


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(v)


def lift_local_pdi(local, side):
    eye = np.eye(2)
    projs = [
        Projector(Operator(np.kron(p.entries, eye) if side == 0 else np.kron(eye, p.entries)))
        for p in local.projectors
    ]
    return PDI(projs, labels=local.labels)


class TestCHSHOperators:
    def test_neon_operators_validate(self):
        setup = neon_setup()
        assert setup.ops.dim == 4

    def test_rejects_cross_party_noncommuting(self):
        with pytest.raises(NonCommutingABError):
            CHSHOperators(
                a0=tensor_product(Z, I2),
                a1=tensor_product(X, I2),
                b0=tensor_product(X, I2),  # acts on Alice's factor
                b1=tensor_product(I2, Z),
            )

    def test_rejects_non_involution(self):
        half = Operator(0.5 * np.kron(Z.entries, np.eye(2)))
        with pytest.raises(ValueError):
            CHSHOperators(
                a0=half,
                a1=tensor_product(X, I2),
                b0=tensor_product(I2, X),
                b1=tensor_product(I2, Z),
            )

    def test_rejects_product_that_is_not_hermitian(self):
        # A0 is Hermitian within 9.9e-11 and commutes with B0 exactly, yet A0B0's
        # skew is 2.8e-10; the setup was once accepted, and then sampling A0B0
        # raised NotHermitianError
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h8 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
        a0 = Operator(np.kron(Z.entries, np.eye(8)) + 1.4e-10 * np.kron(k, h8))
        b = Operator(np.kron(np.eye(2), h8))
        assert a0.hermiticity_defect() == pytest.approx(9.9e-11, rel=1e-3)
        assert np.abs(a0.entries @ b.entries - b.entries @ a0.entries).max() == 0.0
        assert (a0 @ b).hermiticity_defect() == pytest.approx(2.8e-10, rel=1e-3)
        with pytest.raises(NonCommutingABError, match="^A0B0 is not Hermitian"):
            CHSHOperators(a0, Operator(np.kron(X.entries, np.eye(8))), b, b)

    def test_setting_accessors(self):
        ops = neon_setup().ops
        assert ops.alice(0) is ops.a0
        assert ops.bob(1) is ops.b1
        with pytest.raises(ValueError):
            SettingPair(2, 0)


def random_involution(rng, dim):
    """V diag(+-1) V-dagger for a random unitary V, made exactly Hermitian."""
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = (v * rng.choice([-1.0, 1.0], dim)) @ v.conj().T
    return (u + u.conj().T) / 2


def reference_premise_failure(ops):
    """The premises as checked by squaring each operator and forming both
    products of each commutator: (error class, name) of the first failure."""
    named = dict(zip(("A0", "A1", "B0", "B1"), (op.entries for op in ops)))
    eye = np.eye(ops[0].dim)
    for name, x in named.items():
        if not np.abs(x - x.conj().T).max() < TOLERANCES.algebraic:
            return ValueError, name
        if not np.abs(x @ x - eye).max() < bell.SQUARE_IDENTITY_TOL:
            return ValueError, name
    for an, bn in itertools.product(("A0", "A1"), ("B0", "B1")):
        x, y = named[an], named[bn]
        if not np.abs(x @ y - y @ x).max() < TOLERANCES.algebraic:
            return NonCommutingABError, an + bn
    return None, None


class TestPremiseDifferential:
    """CHSHOperators reads its premises from `unitarity_defect` and from the
    skew of each product A_aB_b. On exactly Hermitian operands these are the
    square and commutator defects up to rounding, so the verdicts agree."""

    @staticmethod
    def operators(seed, da, db, moved, scale):
        # Alice acts on the first factor and Bob on the second, except that each
        # operator named in `moved` sits on the other party's factor; A1 is scaled
        rng = np.random.default_rng(seed)
        ops = []
        for name in ("A0", "A1", "B0", "B1"):
            if name.startswith("A") != (name in moved):
                ops.append(np.kron(random_involution(rng, da), np.eye(db)))
            else:
                ops.append(np.kron(np.eye(da), random_involution(rng, db)))
        ops[1] = scale * ops[1]
        return [Operator(x) for x in ops]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([2, 3, 4]),
        # with A1 and B1 moved, A0B1 and A1B0 fail and A-major order meets A0B1 first
        st.sampled_from([(), ("B0",), ("B1",), ("A1", "B1")]),
        st.sampled_from([1.0, 1 + 3e-10, 1 + 6e-10, 1.5]),
    )
    def test_verdicts_match_reference(self, seed, da, db, moved, scale):
        ops = self.operators(seed, da, db, moved, scale)
        error, name = reference_premise_failure(ops)
        if error is None:
            CHSHOperators(*ops)
            return
        with pytest.raises(Exception) as info:
            CHSHOperators(*ops)
        assert type(info.value) is error
        assert str(info.value).startswith(f"{name} ")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([2, 3, 4]),
        st.lists(st.floats(0.0, 1e-12), min_size=4, max_size=4),
    )
    def test_skewed_defects_stay_within_bound(self, seed, da, db, skews):
        # D = A - A-dagger moves A-dagger A - I from A^2 - I by DA, and the product's
        # skew from [A, B] by B D_A + D_B A-dagger; each max entry grows at most d-fold
        rng = np.random.default_rng([seed, 1])
        ops = []
        for op, s in zip(self.operators(seed, da, db, (), 1.0), skews):
            k = rng.standard_normal(op.entries.shape) + 1j * rng.standard_normal(op.entries.shape)
            k = k - k.conj().T
            ops.append(Operator(op.entries + s * k / np.abs(k).max()))
        d = ops[0].dim
        skew = [op.hermiticity_defect() for op in ops]
        peak = [float(np.abs(op.entries).max()) for op in ops]
        eps = np.finfo(float).eps
        for x, s_x, m_x in zip(ops, skew, peak):
            square = float(np.abs(x.entries @ x.entries - np.eye(d)).max())
            rounding = 4 * d * d * eps * m_x * m_x
            assert abs(x.unitarity_defect() - square) <= d * s_x * m_x + rounding
        for (a, s_a, m_a), (b, s_b, m_b) in itertools.product(
            zip(ops[:2], skew[:2], peak[:2]), zip(ops[2:], skew[2:], peak[2:])
        ):
            commutator = float(np.abs(a.entries @ b.entries - b.entries @ a.entries).max())
            rounding = 4 * d * d * eps * m_a * m_b
            bound = d * (s_a * m_b + s_b * m_a) + rounding
            assert abs((a @ b).hermiticity_defect() - commutator) <= bound
        assert reference_premise_failure(ops) == (None, None)
        CHSHOperators(*ops)


class TestNeonSpectrum:
    def test_s_spectrum(self):
        setup = neon_setup()
        obs = spectral_decompose(setup.s)
        flat = []
        for ev, proj in zip(obs.eigenvalues, obs.pdi.projectors):
            flat.extend([ev] * proj.rank)
        assert len(flat) == 4
        assert abs(flat[0] - ROOT8) < 1e-9
        assert abs(flat[1]) < 1e-9 and abs(flat[2]) < 1e-9
        assert abs(flat[3] + ROOT8) < 1e-9

    def test_top_eigenstate_phase_and_value(self):
        setup = neon_setup()
        amps = setup.top_eigenstate.amplitudes
        assert np.abs(amps.imag).max() < 1e-12
        assert np.abs(amps.real - np.array(TOP_STATE)).max() < 1e-10
        assert abs(setup.s.expectation(setup.top_eigenstate).real - ROOT8) < 1e-10

    def test_product_observables_commutator_structure(self):
        # each M_jk fails to commute with the two sharing one setting index,
        # but the diagonal pairs (M00,M11) and (M01,M10) commute
        m = neon_setup().m
        flat = {(j, k): m[j][k] for j in (0, 1) for k in (0, 1)}

        def comm(a, b):
            return float(np.abs(a.entries @ b.entries - b.entries @ a.entries).max())

        for (j1, k1), (j2, k2) in (
            ((0, 0), (0, 1)),
            ((0, 0), (1, 0)),
            ((0, 1), (1, 1)),
            ((1, 0), (1, 1)),
        ):
            assert comm(flat[(j1, k1)], flat[(j2, k2)]) > 1.9
        assert comm(flat[(0, 0)], flat[(1, 1)]) < 1e-12
        assert comm(flat[(0, 1)], flat[(1, 0)]) < 1e-12

    def test_m_holds_the_products_a_major(self):
        setup = neon_setup()
        for j, k in itertools.product((0, 1), repeat=2):
            product = setup.ops.alice(j).entries @ setup.ops.bob(k).entries
            assert np.array_equal(setup.m[j][k].entries, product)

    def test_s_commutes_with_no_product_observable(self):
        setup = neon_setup()
        for row in setup.m:
            for mjk in row:
                defect = np.abs(
                    setup.s.entries @ mjk.entries - mjk.entries @ setup.s.entries
                ).max()
                assert defect > 1.9


class TestCHSHValue:
    def test_settings_sum_matches_direct(self):
        setup = neon_setup()
        value = chsh_value(setup.top_eigenstate, setup.ops)
        assert abs(value.correlations.chsh - value.direct_expectation) < 1e-10
        assert abs(value.direct_expectation - ROOT8) < 1e-10

    def test_correlator_table(self):
        setup = neon_setup()
        value = chsh_value(setup.top_eigenstate, setup.ops)
        e = value.correlations.e
        r = 1 / math.sqrt(2)
        assert np.abs(e - np.array([[r, r], [r, -r]])).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agreement_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        state = random_ket(rng, 4)
        value = chsh_value(state, neon_setup().ops)
        assert abs(value.correlations.chsh - value.direct_expectation) < 1e-10

    @staticmethod
    def merged_alice_ops():
        # Alice's a has eigenvalues 1 and 1 - 4.5e-10, merged at their mean (shift 2.25e-10)
        a = Operator(np.diag([1.0, 0.99999999955]))
        a0 = tensor_product(a, I2)
        return CHSHOperators(a0, Operator(-a0.entries), tensor_product(I2, X), tensor_product(I2, Z))

    def test_merged_eigenvalue_shift_widens_the_check(self):
        # the per-setting sum reads 0 and the direct <S> -4.32e-10, beyond `algebraic` alone
        value = chsh_value(Ket(np.array([0.1, 0.7, 0.7, 0.1])), self.merged_alice_ops())
        assert value.observables[0][0].shift == pytest.approx(2.25e-10, rel=1e-3)
        assert abs(value.correlations.chsh) < 1e-12
        assert abs(value.correlations.chsh - value.direct_expectation) > 1e-10

    def test_corrupted_joint_table_raises(self, monkeypatch):
        joint_table = bell._joint_table

        def corrupted(*args):
            table = joint_table(*args)
            table[0, 0] += 1e-6
            return table

        monkeypatch.setattr(bell, "_joint_table", corrupted)
        with pytest.raises(VerificationFailedError, match="per-setting sum"):
            chsh_value(Ket(np.array([0.1, 0.7, 0.7, 0.1])), self.merged_alice_ops())

    @staticmethod
    def skewed_alice_ops():
        # A0 is Hermitian within k = 9.8e-11, and eigh reads one triangle of it, so
        # the decomposed A0' lies up to d k from A0; P swaps neighbours and R
        # reverses, and both commute with the all-ones J8, so every premise holds
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        swaps = np.kron(np.eye(4), X.entries)
        a0 = Operator(np.kron(Z.entries, np.eye(8)) + 4.9e-11 * np.kron(k, np.ones((8, 8))))
        a1 = tensor_product(X, Operator(np.eye(8)))
        b0, b1 = (Operator(np.kron(np.eye(2), m)) for m in (swaps, np.eye(8)[::-1]))
        return CHSHOperators(a0, a1, b0, b1)

    def test_operand_skew_widens_the_check(self):
        # the per-setting sum misses the direct <S> by 7.84e-10, beyond `algebraic`
        # and every merge shift (at most 1e-15 here), but within the one-triangle
        # distance
        ops = self.skewed_alice_ops()
        assert ops.a0.hermiticity_defect() == pytest.approx(9.8e-11, rel=1e-3)
        value = chsh_value(Ket(np.ones(16)), ops)
        assert max(o.shift for side in value.observables for o in side) < 1e-15
        defect = abs(value.correlations.chsh - value.direct_expectation)
        assert defect == pytest.approx(7.84e-10, rel=1e-2)

    def test_dropped_term_still_raises_on_skewed_operands(self, monkeypatch):
        joint_table = bell._joint_table
        calls = []

        def dropped(*args):
            table = joint_table(*args)
            if not calls:  # the (0, 0) setting loses one joint outcome
                table[np.unravel_index(np.argmax(table), table.shape)] = 0.0
            calls.append(args)
            return table

        monkeypatch.setattr(bell, "_joint_table", dropped)
        with pytest.raises(VerificationFailedError, match="per-setting sum"):
            chsh_value(Ket(np.ones(16)), self.skewed_alice_ops())

    def test_chsh_operator_matches_manual_combination(self):
        ops = neon_setup().ops
        s = chsh_operator(ops)
        manual = (
            ops.a0.entries @ ops.b0.entries
            + ops.a0.entries @ ops.b1.entries
            + ops.a1.entries @ ops.b0.entries
            - ops.a1.entries @ ops.b1.entries
        )
        assert np.abs(s.entries - manual).max() < 1e-12


class TestCorrelationData:
    def test_chsh_combination(self):
        corr = CorrelationData(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert corr.chsh == 4.0

    def test_magnitude_guard(self):
        with pytest.raises(ValueError):
            CorrelationData(np.array([[1.5, 0.0], [0.0, 0.0]]))

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            CorrelationData(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_finite_guard(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CorrelationData(np.array([[bad, 0.0], [0.0, 0.0]]))

    def test_chsh_is_not_an_argument(self):
        # the combination is always computed from e, so passing one is refused
        # rather than silently overwritten
        table = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(TypeError):
            CorrelationData(table, 5.0)
        with pytest.raises(TypeError):
            CorrelationData(table, chsh=5.0)


class TestDeterministicBound:
    def test_sixteen_strategies_max_two(self):
        report = lhv_deterministic_bound()
        assert len(report.strategies) == 16
        assert report.max_s == 2.0
        assert report.min_s == -2.0
        assert len(report.argmax) == 8

    def test_every_strategy_hits_plus_minus_two(self):
        values = {s.chsh() for s in lhv_deterministic_bound().strategies}
        assert values == {2, -2}

    def test_specific_strategy_value(self):
        # a0 b0 + a0 b1 + a1 b0 - a1 b1 at (+1, -1, +1, +1) = 1 + 1 - 1 + 1
        assert DeterministicStrategy(1, -1, 1, 1).chsh() == 2

    def test_strategy_entries_validated(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(0, 1, 1, 1)


class TestLambdaModel:
    def test_reproduces_born_joints_for_its_settings(self):
        setup = neon_setup()
        pair = SettingPair(0, 0)
        model = lambda_model_fixed_settings(setup.top_eigenstate, setup.ops, pair)
        assert model.lambdas == ("++", "+-", "-+", "--")
        assert abs(float(model.prior.sum()) - 1) < 1e-12
        e_model = model.correlator(pair)
        e_quantum = chsh_value(setup.top_eigenstate, setup.ops).correlations.e[0, 0]
        assert abs(e_model - e_quantum) < 1e-12

    def test_does_not_cover_other_settings(self):
        setup = neon_setup()
        model = lambda_model_fixed_settings(setup.top_eigenstate, setup.ops, SettingPair(0, 0))
        with pytest.raises(ValueError):
            model.joint(SettingPair(0, 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_joints_match_on_random_states(self, seed, pair_index):
        rng = np.random.default_rng(seed)
        state = random_ket(rng, 4)
        pair = SettingPair(pair_index // 2, pair_index % 2)
        ops = neon_setup().ops
        model = lambda_model_fixed_settings(state, ops, pair)
        # Born joint from projective weights
        obs_a = spectral_decompose(ops.alice(pair.a))
        obs_b = spectral_decompose(ops.bob(pair.b))
        psi = state.amplitudes
        born = np.zeros((2, 2))
        for fa, pa in zip(obs_a.eigenvalues, obs_a.pdi.projectors):
            for fb, pb in zip(obs_b.eigenvalues, obs_b.pdi.projectors):
                born[0 if fa > 0 else 1, 0 if fb > 0 else 1] += float(
                    np.vdot(psi, pa.entries @ (pb.entries @ psi)).real
                )
        assert np.abs(model.joint(pair) - born).max() < 1e-12

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            LHVModel(("a", "b"), np.array([0.7, 0.7]), {0: np.ones(2)}, {0: np.ones(2)})
        with pytest.raises(ValueError):
            LHVModel(("a",), np.array([1.0]), {0: np.array([1.5])}, {0: np.array([1.0])})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_prior_or_response_rejected(self, bad):
        ones = {0: np.ones(2)}
        with pytest.raises(ValueError, match="finite"):
            LHVModel(("a", "b"), np.array([bad, 1.0]), ones, ones)
        with pytest.raises(ValueError, match="finite"):
            LHVModel(("a", "b"), np.array([0.5, 0.5]), ones, {0: np.array([1.0, bad])})
        with pytest.raises(ValueError, match="finite"):
            LHVModel(("a", "b"), np.array([0.5, 0.5]), {0: np.array([bad, 1.0])}, ones)


class TestInputGuards:
    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda: LHVModel(("a", "b"), [1.0], {}, {}), "one prior entry per lambda"),
            (
                lambda: LHVModel(("a", "b"), [1.5, -0.5], {}, {}),
                "negative prior probability",
            ),
            (
                lambda: LHVModel(("a",), [1.0], {0: [1.0, 0.0]}, {0: [1.0]}),
                "one response entry per lambda",
            ),
            (
                lambda: no_signaling_check(
                    singlet_state(), [], lift_local_pdi(spectral_decompose(Z).pdi, 1), (2, 2)
                ),
                "at least one Alice PDI",
            ),
        ],
        ids=["prior-length", "negative-prior", "response-length", "no-alice-pdi"],
    )
    def test_rejected_with_reason(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()


class TestFeasibility:
    def test_quantum_correlators_infeasible(self):
        setup = neon_setup()
        corr = chsh_value(setup.top_eigenstate, setup.ops).correlations
        report = lhv_feasibility(corr)
        assert not report.feasible
        assert abs(report.max_combination - ROOT8) < 1e-9
        assert report.violated_signs is not None
        assert report.mixture is None

    def test_feasible_tables_get_mixtures(self):
        # an interior table, and one on the CHSH facet E00 + E01 + E10 - E11 = 2
        for table in ([[0.5, 0.3], [0.2, -0.1]], [[0.5, 0.7], [0.6, -0.2]]):
            corr = CorrelationData(np.array(table))
            report = lhv_feasibility(corr)
            assert report.feasible
            rebuilt = np.zeros((2, 2))
            total = 0.0
            for strategy, weight in report.mixture:
                assert weight > 0
                total += weight
                rebuilt += weight * np.array(strategy.correlators(), dtype=float).reshape(2, 2)
            assert abs(total - 1) < 1e-9
            assert np.abs(rebuilt - corr.e).max() < 1e-8

    def test_vertices_feasible(self):
        for strategy in lhv_deterministic_bound().strategies:
            corr = CorrelationData(np.array(strategy.correlators(), dtype=float).reshape(2, 2))
            assert lhv_feasibility(corr).feasible

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lhv_model_tables_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(6))
        model = LHVModel(
            lambdas=tuple(f"l{i}" for i in range(6)),
            prior=prior,
            resp_a={0: rng.uniform(size=6), 1: rng.uniform(size=6)},
            resp_b={0: rng.uniform(size=6), 1: rng.uniform(size=6)},
        )
        report = lhv_feasibility(model.correlation_data())
        assert report.feasible
        rebuilt = np.zeros(4)
        for strategy, weight in report.mixture:
            rebuilt += weight * np.array(strategy.correlators(), dtype=float)
        assert np.abs(rebuilt.reshape(2, 2) - model.correlation_data().e).max() < 1e-8

    def test_all_sign_patterns_checked(self):
        # violation hidden from the canonical pattern but caught by another
        corr = CorrelationData(np.array([[1.0, 1.0], [-1.0, 1.0]]))
        report = lhv_feasibility(corr)
        assert not report.feasible
        assert abs(report.violated_value) == 4.0


# every deterministic strategy's correlators (E00, E01, E10, E11), one per column
STRATEGY_CORRELATORS = np.array(
    [s.correlators() for s in lhv_deterministic_bound().strategies], dtype=float
).T
ODD_SIGNS = [s for s in itertools.product((1, -1), repeat=4) if np.prod(s) == -1]


def lp_feasible(flat):
    """Reference verdict: is E a convex mixture of the 16 deterministic strategies?"""
    linprog = pytest.importorskip("scipy.optimize").linprog
    result = linprog(
        np.zeros(16),
        A_eq=np.vstack([STRATEGY_CORRELATORS, np.ones(16)]),
        b_eq=np.append(flat, 1.0),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    assert result.status in (0, 2), result.message  # solved or infeasible
    return result.status == 0


def sample_table(rng, kind):
    if kind == "uniform":
        return rng.uniform(-1, 1, size=4)
    if kind == "lhv_model":
        return STRATEGY_CORRELATORS @ rng.dirichlet(np.full(16, 0.3))
    if kind == "vertex":
        return STRATEGY_CORRELATORS[:, rng.integers(16)].copy()
    # a random point of a CHSH facet (a mixture of the four vertices v with
    # <u, v> = 2 for an odd sign pattern u), scaled so |CHSH| = 2 (1 +- 1e-6)
    u = np.array(ODD_SIGNS[rng.integers(8)], dtype=float)
    facet = STRATEGY_CORRELATORS[:, u @ STRATEGY_CORRELATORS == 2]
    point = facet @ rng.dirichlet(np.ones(facet.shape[1]))
    return point * (1.0 + (1e-6 if kind == "outside" else -1e-6))


class TestFeasibilityAgainstLP:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["uniform", "lhv_model", "vertex", "inside", "outside"]),
        st.integers(0, 2**32 - 1),
    )
    def test_verdict_and_witness_match_linear_program(self, kind, seed):
        flat = sample_table(np.random.default_rng(seed), kind)
        assume(np.abs(flat).max() <= 1.0)
        report = lhv_feasibility(CorrelationData(flat.reshape(2, 2)))
        assert report.feasible == lp_feasible(flat)
        if kind in ("lhv_model", "vertex", "inside"):
            assert report.feasible
        if kind == "outside":
            assert not report.feasible
        if report.feasible:
            weights = np.array([w for _, w in report.mixture])
            rebuilt = sum(
                w * np.array(strategy.correlators(), dtype=float)
                for strategy, w in report.mixture
            )
            assert weights.min() > 0
            assert abs(weights.sum() - 1) < 1e-9
            assert np.abs(rebuilt - flat).max() < 1e-9


class TestSingletCalculus:
    def test_correlator_law(self):
        state = singlet_state()
        eye = np.eye(2)
        for ta, tb in [(0, 0), (45, 0), (90, 30), (200, 77.5)]:
            a = sigma_zx(math.radians(ta))
            b = sigma_zx(math.radians(tb))
            op = Operator(np.kron(a.entries, eye) @ np.kron(eye, b.entries))
            expected = -math.cos(math.radians(ta - tb))
            assert abs(op.expectation(state).real - expected) < 1e-10

    def test_optimal_angles_reach_tsirelson(self):
        value = chsh_value(singlet_state(), singlet_chsh_operators())
        assert abs(abs(value.correlations.chsh) - ROOT8) < 1e-10
        assert SINGLET_OPTIMAL_ANGLES_DEG == ((90.0, 0.0), (45.0, 135.0))

    def test_same_basis_joints_anticorrelate(self):
        pz = spectral_decompose(Z).pdi
        table = joint_probabilities(singlet_state(), pz, pz)
        assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert table[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert table[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_mixed_basis_joints_uniform(self):
        pz = spectral_decompose(Z).pdi
        px = spectral_decompose(X).pdi
        table = joint_probabilities(singlet_state(), pz, px)
        assert np.abs(table - 0.25).max() < 1e-12

    def test_product_state_joint(self):
        state = Ket(np.array([1, 0, 0, 0], dtype=complex))
        pz = spectral_decompose(Z).pdi
        table = joint_probabilities(state, pz, pz)
        assert table[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestCollapse:
    def test_collapse_equals_joint(self):
        state = singlet_state()
        pz = spectral_decompose(Z).pdi
        joints = joint_probabilities(state, pz, pz)
        res = collapse_conditional(state, pz.projectors[0], pz.projectors[1])
        assert abs(res.outcome_probability - 0.5) < 1e-12
        assert abs(res.conditional_probability - 1.0) < 1e-12
        assert abs(res.outcome_probability * res.conditional_probability - joints[0, 1]) < 1e-12

    def test_collapsed_state_is_product(self):
        state = singlet_state()
        pz = spectral_decompose(Z).pdi
        res = collapse_conditional(state, pz.projectors[0], pz.projectors[0])
        assert np.abs(res.collapsed.amplitudes - np.array([0, 1, 0, 0])).max() < 1e-12

    def test_zero_probability_outcome(self):
        state = Ket(np.array([0, 0, 1, 0], dtype=complex))  # |1>|0>
        pz = spectral_decompose(Z).pdi
        with pytest.raises(ZeroProbabilityOutcomeError):
            collapse_conditional(state, pz.projectors[0], pz.projectors[0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_identity_on_random_bases(self, seed):
        rng = np.random.default_rng(seed)
        ta, tb = rng.uniform(0, 2 * math.pi, size=2)
        pa = spectral_decompose(sigma_zx(ta)).pdi
        pb = spectral_decompose(sigma_zx(tb)).pdi
        state = singlet_state()
        joints = joint_probabilities(state, pa, pb)
        for j, a_proj in enumerate(pa.projectors):
            for k, b_proj in enumerate(pb.projectors):
                res = collapse_conditional(state, a_proj, b_proj)
                product_rule = res.outcome_probability * res.conditional_probability
                assert abs(product_rule - joints[j, k]) < 1e-12


def random_local_bases(rng, dim):
    """Bases of a random 3-member PDI of `dim`: each column of a random unitary
    joins one of three members, so members may be degenerate or rank 0."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    groups = rng.integers(0, 3, size=dim)
    return [q[:, groups == g] for g in range(3)]


class TestJointTable:
    """Bell-layer joints against dense Born weights, beyond qubit pairs."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_matches_dense_born_weights(self, da, db, seed):
        rng = np.random.default_rng(seed)
        state = random_ket(rng, da * db)
        psi = state.amplitudes
        eye_a, eye_b = np.eye(da), np.eye(db)
        alice = [random_local_bases(rng, da) for _ in range(2)]
        bob = [random_local_bases(rng, db) for _ in range(2)]

        alice_pdis = [
            PDI([Projector.from_basis(np.kron(v, eye_b)) for v in bases]) for bases in alice
        ]
        bob_pdi = PDI([Projector.from_basis(np.kron(eye_a, w)) for w in bob[0]])
        report = no_signaling_check(state, alice_pdis, bob_pdi, (da, db))
        dense = np.array(
            [np.vdot(psi, np.kron(eye_a, w @ w.conj().T) @ psi).real for w in bob[0]]
        )
        for marginal in report.bob_marginals:
            assert np.abs(marginal - dense).max() < 1e-12

        # +-1 observables sum_j f_j P_j over the same local members
        signs = [[rng.choice([-1.0, 1.0], size=3) for _ in range(2)] for _ in range(2)]
        local = [
            [sum(f * v @ v.conj().T for f, v in zip(fs, bases)) for fs, bases in zip(fss, party)]
            for fss, party in zip(signs, (alice, bob))
        ]
        ops = CHSHOperators(
            *(Operator(np.kron(a, eye_b)) for a in local[0]),
            *(Operator(np.kron(eye_a, b)) for b in local[1]),
        )
        e = chsh_value(state, ops).correlations.e
        for a, b in itertools.product((0, 1), repeat=2):
            expected = sum(
                fa * fb * np.vdot(psi, np.kron(va @ va.conj().T, wb @ wb.conj().T) @ psi).real
                for fa, va in zip(signs[0][a], alice[a])
                for fb, wb in zip(signs[1][b], bob[b])
            )
            assert abs(e[a, b] - expected) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_factor_joints_and_collapse(self, da, db, seed):
        # the factor PDIs themselves, whose members may be degenerate or rank 0
        rng = np.random.default_rng(seed)
        state = random_ket(rng, da * db)
        psi = state.amplitudes
        alice, bob = (
            PDI([Projector.from_basis(v) for v in random_local_bases(rng, d)]) for d in (da, db)
        )
        joints = joint_probabilities(state, alice, bob)
        pairs = itertools.product(enumerate(alice.projectors), enumerate(bob.projectors))
        for (j, pa), (k, qb) in pairs:
            dense = np.vdot(psi, np.kron(pa.entries, qb.entries) @ psi).real
            assert abs(joints[j, k] - dense) < 1e-12
            if pa.rank == 0:
                with pytest.raises(ZeroProbabilityOutcomeError):
                    collapse_conditional(state, pa, qb)
                continue
            res = collapse_conditional(state, pa, qb)
            assert abs(res.outcome_probability * res.conditional_probability - joints[j, k]) < 1e-12


class TestNoSignaling:
    def test_singlet_marginals_invariant(self):
        state = singlet_state()
        alice = [
            lift_local_pdi(spectral_decompose(Z).pdi, 0),
            lift_local_pdi(spectral_decompose(X).pdi, 0),
        ]
        bob = lift_local_pdi(spectral_decompose(Z).pdi, 1)
        report = no_signaling_check(state, alice, bob, (2, 2))
        assert report.passes
        assert report.max_deviation <= 1e-12
        assert report.dynamics_max_deviation is None

    def test_local_dynamics_do_not_signal(self):
        state = singlet_state()
        theta = 0.61
        rot = Operator(
            np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
                dtype=complex,
            )
        )
        alice = [
            lift_local_pdi(spectral_decompose(Z).pdi, 0),
            lift_local_pdi(spectral_decompose(X).pdi, 0),
        ]
        bob = lift_local_pdi(spectral_decompose(X).pdi, 1)
        report = no_signaling_check(state, alice, bob, (2, 2), dynamics=(rot, rot))
        assert report.passes
        assert report.dynamics_max_deviation <= 1e-12

    def test_malformed_local_pdi_rejected(self):
        state = singlet_state()
        entangled = PDI(
            [
                Ket(np.array([1, 0, 0, 1], dtype=complex)).projector(),
                Projector(
                    Operator(np.eye(4, dtype=complex))
                    - Ket(np.array([1, 0, 0, 1], dtype=complex)).projector().op
                ),
            ]
        )
        bob = lift_local_pdi(spectral_decompose(Z).pdi, 1)
        with pytest.raises(MalformedLocalPDIError):
            no_signaling_check(state, [entangled], bob, (2, 2))

    def test_nonunitary_dynamics_rejected(self):
        state = singlet_state()
        alice = [lift_local_pdi(spectral_decompose(Z).pdi, 0)]
        bob = lift_local_pdi(spectral_decompose(Z).pdi, 1)
        shrink = Operator(np.diag([1.0, 0.5]).astype(complex))
        with pytest.raises(ValueError):
            no_signaling_check(state, alice, bob, (2, 2), dynamics=(shrink, shrink))
