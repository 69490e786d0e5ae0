"""History families, chain vectors, consistency, and the measurement model."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histories_kit.config import TOLERANCES, override
from histories_kit.errors import (
    DimensionMismatchError,
    InconsistentFamilyError,
    PointerTooSmallError,
    UnknownLabelError,
    VerificationFailedError,
    ZeroProbabilityConditionError,
)
from histories_kit import histories
from histories_kit.hilbert import (
    PDI,
    Ket,
    Operator,
    Projector,
    builtin_operator,
    spectral_decompose,
    tensor_state,
)
from histories_kit.histories import (
    HistoryFamily,
    TimeGrid,
    build_measurement_model,
    chain_vector,
    conditional_probability,
    consistency_check,
    family_probabilities,
    standard_families,
)

Z = builtin_operator("Z")
EYE2 = Operator(np.eye(2, dtype=complex))


def ket(*amps):
    return Ket(np.array(amps, dtype=complex))


def z_model(pointer_dim=3):
    return build_measurement_model(spectral_decompose(Z), pointer_dim=pointer_dim)


def interference_family():
    plus = ket(1, 1)
    minus = ket(1, -1)
    return HistoryFamily(
        grid=TimeGrid(("t0", "t1", "t2"), (EYE2, EYE2)),
        initial=ket(1, 0),
        event_pdis=(
            PDI([plus.projector(), minus.projector()], labels=("plus", "minus")),
            PDI([ket(1, 0).projector(), ket(0, 1).projector()], labels=("0", "1")),
        ),
    )


class TestTimeGrid:
    def test_requires_two_times(self):
        with pytest.raises(ValueError):
            TimeGrid(("t0",), ())

    def test_propagator_count(self):
        with pytest.raises(ValueError):
            TimeGrid(("t0", "t1"), ())

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            TimeGrid(("t0", "t1"), (Operator(np.diag([1.0, 0.5]).astype(complex)),))


class TestHistoryFamily:
    def test_pdi_count_must_match_grid(self):
        with pytest.raises(ValueError):
            HistoryFamily(
                grid=TimeGrid(("t0", "t1", "t2"), (EYE2, EYE2)),
                initial=ket(1, 0),
                event_pdis=(spectral_decompose(Z).pdi,),
            )

    def test_explicit_subset_validation(self):
        grid = TimeGrid(("t0", "t1"), (EYE2,))
        pdi = spectral_decompose(Z).pdi
        with pytest.raises(UnknownLabelError):
            HistoryFamily(grid, ket(1, 0), (pdi,), histories=(("nope",),))
        with pytest.raises(ValueError):
            HistoryFamily(grid, ket(1, 0), (pdi,), histories=(("0",), ("0",)))

    def test_empty_explicit_subset_rejected(self):
        grid = TimeGrid(("t0", "t1"), (EYE2,))
        pdi = spectral_decompose(Z).pdi
        with pytest.raises(ValueError, match="explicit history subset is empty"):
            HistoryFamily(grid, ket(1, 0), (pdi,), histories=[])

    def test_all_histories_cartesian(self):
        fam = interference_family()
        assert len(fam.all_histories()) == 4
        assert fam.exhaustive


class TestChainVector:
    def test_eigenstate_projector_returns_initial(self):
        # single-time family whose event is the initial state's own projector
        fam = HistoryFamily(
            grid=TimeGrid(("t0", "t1"), (EYE2,)),
            initial=ket(1, 0),
            event_pdis=(spectral_decompose(Z).pdi,),
        )
        vec = chain_vector(fam, ("0",))
        assert np.allclose(vec, fam.initial.amplitudes)

    def test_propagator_applied_before_event(self):
        x = builtin_operator("X")
        fam = HistoryFamily(
            grid=TimeGrid(("t0", "t1"), (x,)),
            initial=ket(1, 0),
            event_pdis=(spectral_decompose(Z).pdi,),
        )
        assert np.linalg.norm(chain_vector(fam, ("0",))) < 1e-15
        assert abs(np.linalg.norm(chain_vector(fam, ("1",))) - 1) < 1e-12

    def test_unknown_label(self):
        fam = interference_family()
        with pytest.raises(UnknownLabelError):
            chain_vector(fam, ("plus", "weird"))
        with pytest.raises(UnknownLabelError):
            chain_vector(fam, ("plus",))

    def test_256_events_at_the_first_time(self):
        # positions of 256 events need a uint8 index, while a node code at the
        # first time is a position too: the code must not take the index's type
        d = 256
        coordinates = PDI([Projector.from_basis(np.eye(d)[:, [i]]) for i in range(d)])
        grid = TimeGrid(("t0", "t1"), (Operator(np.eye(d, dtype=complex)),))
        amplitudes = np.zeros(d)
        amplitudes[[0, d - 1]] = 0.6, 0.8
        fam = HistoryFamily(grid, Ket(amplitudes), (coordinates,), histories=[("255",), ("0",)])
        assert fam._label_index.dtype == np.uint8
        assert consistency_check(fam).weights.tolist() == pytest.approx([0.64, 0.36])
        assert np.linalg.norm(chain_vector(fam, ("255",))) ** 2 == pytest.approx(0.64)


class TestConsistency:
    def test_interference_family_is_inconsistent(self):
        report = consistency_check(interference_family())
        assert not report.consistent
        assert abs(report.max_offdiag - 0.25) < 1e-12
        assert report.tolerance == TOLERANCES.algebraic

    def test_gram_shape_and_diagonal(self):
        report = consistency_check(interference_family())
        assert report.gram.shape == (4, 4)
        diag = np.diag(report.gram).real
        assert diag.min() >= -1e-15
        assert abs(diag.sum() - 1) < 1e-12

    def test_probabilities_refused_when_inconsistent(self):
        with pytest.raises(InconsistentFamilyError) as exc:
            family_probabilities(interference_family())
        assert exc.value.report.max_offdiag > 0.2

    def test_orthogonal_outcomes_consistent(self):
        fam = HistoryFamily(
            grid=TimeGrid(("t0", "t1"), (EYE2,)),
            initial=ket(1, 1),
            event_pdis=(spectral_decompose(Z).pdi,),
        )
        report = consistency_check(fam)
        assert report.consistent
        table = family_probabilities(fam)
        assert abs(table.probabilities[("0",)] - 0.5) < 1e-12
        assert abs(table.probabilities[("1",)] - 0.5) < 1e-12
        assert table.exhaustive and table.omitted == 0.0

    def test_family_scans_once(self):
        fam = standard_families(z_model(), ket(0.6, 0.8)).f2
        with mock.patch.object(histories, "_gram_scan", wraps=histories._gram_scan) as scan:
            assert consistency_check(fam).consistent
            family_probabilities(fam)
            for cond, event in (((1, "0"), (2, "0")), ((2, "1"), (1, "1")), ((2, "0"), (1, "1"))):
                conditional_probability(fam, given=cond, target=event)
        assert scan.call_count == 1

    @pytest.mark.parametrize("field", ["weights", "chains"])
    def test_shared_scan_cannot_be_overwritten(self, assert_frozen, field):
        # the report's arrays are the family's cached scan, which every later
        # probs and conditional query reads
        fam = HistoryFamily(
            grid=TimeGrid(("t0", "t1"), (EYE2,)),
            initial=ket(0.6, 0.8),
            event_pdis=(spectral_decompose(Z).pdi,),
        )
        assert_frozen(getattr(consistency_check(fam), field))
        table = family_probabilities(fam).probabilities
        assert table == {("0",): pytest.approx(0.36), ("1",): pytest.approx(0.64)}
        assert np.array_equal(consistency_check(fam).chains, [[0.6, 0.0], [0.0, 0.8]])

    def test_cached_verdict_follows_override(self):
        fam = interference_family()
        assert not consistency_check(fam).consistent
        with override(algebraic=0.5):
            report = consistency_check(fam)
            assert report.consistent and report.tolerance == 0.5
            assert family_probabilities(fam).total == pytest.approx(1.0)
        assert not consistency_check(fam).consistent

    def test_near_unitary_propagator_keeps_total(self):
        # max|U-dagger U - I| = 9.9e-11 passes the grid, yet the weights of
        # this d = 16 family sum to 1 + 1.58e-9
        d = 16
        u = np.ones(d) / 4.0
        prop = Operator(np.eye(d) + 7.9e-10 * np.outer(u, u))
        assert prop.unitarity_defect() < TOLERANCES.algebraic
        fam = HistoryFamily(
            grid=TimeGrid(("t0", "t1"), (prop,)),
            initial=Ket(np.ones(d, dtype=complex)),
            event_pdis=(PDI([Ket(row).projector() for row in np.eye(d, dtype=complex)]),),
        )
        assert consistency_check(fam).consistent
        assert family_probabilities(fam).total == pytest.approx(1.0 + 1.58e-9, abs=1e-11)

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_corrupted_total_raises(self, factor):
        fam = interference_family()
        real_scan = histories._gram_scan

        def corrupted(chains):
            weights, max_offdiag = real_scan(chains)
            return weights * factor, max_offdiag

        with mock.patch.object(histories, "_gram_scan", corrupted):
            with pytest.raises(VerificationFailedError, match="weights sum to"):
                consistency_check(fam)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


def random_pdi(rng, d):
    if rng.random() < 0.5:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return spectral_decompose(Operator(a + a.conj().T)).pdi
    # coordinate projectors onto a random partition of the basis; with
    # identity propagators they give exactly-zero chain vectors
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(1, d), replace=False))
    parts = np.split(rng.permutation(d), cuts)
    return PDI(
        [Projector(Operator(np.diag(np.isin(np.arange(d), part)).astype(complex))) for part in parts]
    )


def random_family(seed, subset):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    props = tuple(
        random_unitary(rng, d) if rng.random() < 0.5 else Operator(np.eye(d, dtype=complex))
        for _ in range(n)
    )
    fam = HistoryFamily(
        grid=TimeGrid(tuple(f"t{i}" for i in range(n + 1)), props),
        initial=Ket(rng.standard_normal(d) + 1j * rng.standard_normal(d)),
        event_pdis=tuple(random_pdi(rng, d) for _ in range(n)),
    )
    if not subset:
        return fam
    every = fam.all_histories()
    picked = rng.choice(len(every), size=rng.integers(1, len(every) + 1), replace=False)
    return HistoryFamily(fam.grid, fam.initial, fam.event_pdis, histories=[every[i] for i in picked])


def reference_chains(fam):
    """One history at a time, straight from the definition K(Y) = P_n U_n ... P_1 U_1."""
    chains = []
    for history in fam.all_histories():
        vec = fam.initial.amplitudes
        for label, pdi, prop in zip(history, fam.event_pdis, fam.grid.propagators):
            vec = pdi.by_label(label).entries @ (prop.entries @ vec)
        chains.append(vec)
    return np.array(chains)


class TestConsistencyDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_dense_reference(self, seed, subset):
        fam = random_family(seed, subset)
        chains = reference_chains(fam)
        gram = chains.conj() @ chains.T
        offdiag = np.abs(gram - np.diag(np.diag(gram)))
        max_offdiag = float(offdiag.max()) if len(chains) > 1 else 0.0
        report = consistency_check(fam)
        assert len(report.histories) == len(chains)
        assert report.max_offdiag == pytest.approx(max_offdiag, rel=0, abs=1e-12)
        assert report.consistent == (max_offdiag < report.tolerance)
        np.testing.assert_allclose(report.weights, np.diag(gram).real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.gram, gram, rtol=0, atol=1e-12)
        for history, vec in zip(fam.all_histories(), chains):
            np.testing.assert_allclose(chain_vector(fam, history), vec, rtol=0, atol=1e-12)
        if subset:
            self.check_subset_chains(fam, report.chains)

    @staticmethod
    def check_subset_chains(fam, chains):
        # Given every history as a shuffled subset, each level takes every node
        # code, as the exhaustive family does, so the chains are its rows byte for
        # byte, in the subset's order.
        full = HistoryFamily(fam.grid, fam.initial, fam.event_pdis)
        full_chains = consistency_check(full).chains
        every = full.all_histories()
        order = np.random.default_rng(len(every)).permutation(len(every))
        shuffled = HistoryFamily(full.grid, full.initial, full.event_pdis, [every[i] for i in order])
        assert consistency_check(shuffled).chains.tobytes() == full_chains[order].tobytes()
        # Listed in product order, the subset walk keeps every stacked row and
        # its last inverse is the identity, so it yields the exhaustive chains.
        in_order = HistoryFamily(full.grid, full.initial, full.event_pdis, every)
        assert consistency_check(in_order).chains.tobytes() == full_chains.tobytes()
        # A proper subset builds fewer rows per level, and a BLAS product over one
        # row can round apart from one over many, so its chains and chain_vector
        # (one row per level) match the exhaustive rows to rounding only.
        rows = dict(zip(every, full_chains))
        for history, vec in zip(fam.all_histories(), chains):
            np.testing.assert_allclose(vec, rows[history], rtol=0, atol=64 * np.finfo(float).eps)
            np.testing.assert_allclose(
                chain_vector(fam, history), rows[history], rtol=0, atol=64 * np.finfo(float).eps
            )


def divmod_chains(fam):
    """Exhaustive chains as the builder made them before each level was stacked:
    node codes split by divmod, and each event's rows gathered from the moved
    parents and scattered under a boolean mask."""
    rows = fam.initial.amplitudes[None, :]
    for pdi, prop in zip(fam.event_pdis, fam.grid.propagators):
        moved = rows @ prop.entries.T
        n_events = len(pdi)
        parents, events = np.divmod(np.arange(len(rows) * n_events), n_events)
        rows = np.empty((len(parents), fam.grid.dim), dtype=complex)
        for j, proj in enumerate(pdi.projectors):
            chosen = events == j
            rows[chosen] = (moved[parents[chosen]] @ proj.basis.conj()) @ proj.basis.T
    return rows


class TestStackedChains:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(0)  # 12 of its 24 chains are exactly zero
    def test_equal_divmod_builder_byte_for_byte(self, seed):
        fam = random_family(seed, subset=False)
        assert consistency_check(fam).chains.tobytes() == divmod_chains(fam).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_report_histories_are_the_family_histories(self, seed, subset):
        fam = random_family(seed, subset)
        report = consistency_check(fam)
        assert report.histories == fam.all_histories()
        assert type(report.histories) is tuple and type(report.histories[0]) is tuple
        assert len(report.histories) == len(report.weights)


def scan_rows(seed, kind):
    """Up to 400 chain-like rows of length 1..8 for the pruned Gram scan.

    "spread": log-normal norms; "ties": copies of a few rows times unit
    phases, so norms tie exactly and the maximum is a Cauchy-Schwarz
    equality; "parallel": large mutually orthogonal coordinate rows, two
    small parallel rows that hold the maximum (again an equality), and many
    tiny rows. Every kind gets some exactly-zero rows.
    """
    rng = np.random.default_rng(seed)
    h, d = int(rng.integers(0, 401)), int(rng.integers(1, 9))
    is_complex = rng.random() < 0.5

    def draw(n, dim):
        x = rng.standard_normal((n, dim)).astype(complex)
        return x + 1j * rng.standard_normal((n, dim)) if is_complex else x

    phases = np.array([1, -1, 1j, -1j]) if is_complex else np.array([1.0, -1.0])
    if kind == "spread":
        rows = draw(h, d) * np.exp(rng.uniform(0, 5) * rng.standard_normal(h))[:, None]
    elif kind == "ties":
        base = draw(int(rng.integers(1, 6)), d)
        rows = base[rng.integers(0, len(base), size=h)] * rng.choice(phases, size=h)[:, None]
    else:
        d = max(d, 3)
        big = int(rng.integers(1, d - 1))
        large = np.zeros((big, d), dtype=complex)
        large[np.arange(big), np.arange(big)] = 10.0 ** rng.uniform(2, 4, size=big)
        direction = np.zeros(d, dtype=complex)
        direction[big:] = draw(1, d - big)[0]
        direction /= np.linalg.norm(direction)
        small = np.outer(rng.uniform(0.5, 2, size=2) * rng.choice(phases, size=2), direction)
        rows = np.concatenate([large, small, 1e-8 * draw(h, d)])
        rows = rows[rng.permutation(len(rows))]
    rows[rng.random(len(rows)) < rng.uniform(0, 0.5)] = 0.0
    return rows


class TestGramScan:
    @pytest.mark.parametrize("block", [1, 2, 3, 256])
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["spread", "ties", "parallel"]))
    # entries that cancel: the scan (row by row at block 1) and the dense
    # product round the maximum 12 ulps apart
    @example(6706, "spread")
    def test_matches_dense_gram(self, block, seed, kind):
        chains = scan_rows(seed, kind)
        with mock.patch.object(histories, "_GRAM_BLOCK", block):
            weights, max_offdiag = histories._gram_scan(chains)
        gram = chains.conj() @ chains.T
        diag = np.diag(gram).real.copy()
        np.fill_diagonal(gram, 0.0)
        expected = float(np.abs(gram).max(initial=0.0))
        # As in _gram_scan's pruning comment, with u the unit roundoff and d
        # the row length, each computed |<y|z>| lies within (d+3)u |y||z| of
        # the exact modulus, however its d products are grouped. Every pair
        # Y != Z has |y||z| <= n1 n2, the two largest chain norms, so each
        # computed maximum lies within (d+3)u n1 n2 of the exact maximum and
        # the two within 2(d+3)u n1 n2 of each other. Relative to the maximum
        # that is unbounded when entries cancel, so no ulp count holds.
        top = np.sort(np.linalg.norm(chains, axis=1))[::-1]
        n1n2 = top[0] * top[1] if len(top) > 1 else 0.0
        u = np.finfo(float).eps / 2
        assert abs(max_offdiag - expected) <= 2 * (chains.shape[1] + 3) * u * n1n2
        # both weights sum 2d rounded squares, in different orders: each is
        # within 2d eps of the exact value
        eps = np.finfo(float).eps
        assert np.all(np.abs(weights - diag) <= 4 * chains.shape[1] * eps * diag)
        assert np.all(weights[~chains.any(axis=1)] == 0.0)

    def test_underflowing_norm_is_not_pruned(self):
        # the last row's squared norm underflows to 0, yet it holds the maximum
        chains = np.array([[1, 0, 0], [2e-200, 0.5, 0], [0, 1e-170, 0]], dtype=complex)
        with mock.patch.object(histories, "_GRAM_BLOCK", 1):
            weights, max_offdiag = histories._gram_scan(chains)
        assert max_offdiag == 5e-171
        assert weights.tolist() == [1.0, 0.25, 0.0]


def coordinate_family(seed, subset):
    """A consistent family: coordinate PDIs of 2 or 3 members and propagators
    that permute the basis with phases, so each basis component of the
    initial state follows exactly one history."""
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(3, 7)), int(rng.integers(1, 5))
    props = []
    for _ in range(n):
        perm = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
        props.append(Operator(perm))
    pdis = []
    for _ in range(n):
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(1, 3)), replace=False))
        parts = np.split(rng.permutation(d), cuts)
        members = [np.diag(np.isin(np.arange(d), part)).astype(complex) for part in parts]
        labels = [f"e{j}" for j in rng.permutation(len(parts))]
        pdis.append(PDI([Projector(Operator(m)) for m in members], labels=labels))
    fam = HistoryFamily(
        grid=TimeGrid(tuple(f"t{i}" for i in range(n + 1)), tuple(props)),
        initial=Ket(rng.standard_normal(d) + 1j * rng.standard_normal(d)),
        event_pdis=tuple(pdis),
    )
    if not subset:
        return fam
    every = fam.all_histories()
    picked = rng.choice(len(every), size=rng.integers(1, len(every) + 1), replace=False)
    return HistoryFamily(fam.grid, fam.initial, fam.event_pdis, histories=[every[i] for i in picked])


def table_sums(fam, given, target):
    """Pr(given) and Pr(given and target), summed over the probability table
    history by history."""
    table = family_probabilities(fam)
    gi, gl = given[0] - 1, str(given[1])
    ti, tl = target[0] - 1, str(target[1])
    pr_given = sum(p for h, p in table.probabilities.items() if h[gi] == gl)
    pr_joint = sum(
        p for h, p in table.probabilities.items() if h[gi] == gl and h[ti] == tl
    )
    return pr_given, pr_joint


class TestConditional:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_table_sums_bit_for_bit(self, seed, subset):
        fam = coordinate_family(seed, subset)
        assert consistency_check(fam).consistent
        events = [(t, l) for t, pdi in enumerate(fam.event_pdis, start=1) for l in pdi.labels]
        # every ordered pair: prediction, retrodiction and same-time events
        for given in events:
            for target in events:
                pr_given, pr_joint = table_sums(fam, given, target)
                if pr_given > TOLERANCES.probability:
                    got = conditional_probability(fam, given=given, target=target)
                    assert got == pr_joint / pr_given
                    continue
                with pytest.raises(ZeroProbabilityConditionError) as exc_info:
                    conditional_probability(fam, given=given, target=target)
                message = f"conditioning event {given[1]!r} at time {given[0]} has probability"
                assert str(exc_info.value) == f"{message} {pr_given:.3g}"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_label_index_decodes_to_histories(self, assert_frozen, seed, subset):
        fam = random_family(seed, subset)
        index = fam._label_index
        assert index.shape == (len(fam.all_histories()), fam.n_times)
        assert_frozen(index)
        decoded = [
            tuple(pdi.labels[i] for pdi, i in zip(fam.event_pdis, row)) for row in index.tolist()
        ]
        assert decoded == list(fam.all_histories())

    def test_prediction_and_retrodiction(self):
        model = z_model()
        fams = standard_families(model, ket(0.6, 0.8))
        # prediction: pointer outcome given system eigenspace at t1
        assert conditional_probability(fams.f2, given=(1, "0"), target=(2, "0")) == pytest.approx(1.0)
        # retrodiction: eigenspace at t1 given pointer at t2
        assert conditional_probability(fams.f2, given=(2, "1"), target=(1, "1")) == pytest.approx(1.0)
        assert conditional_probability(fams.f2, given=(2, "1"), target=(1, "0")) == pytest.approx(0.0)

    def test_zero_probability_condition(self):
        model = z_model()
        fams = standard_families(model, ket(0.6, 0.8))
        with pytest.raises(ZeroProbabilityConditionError):
            conditional_probability(fams.f2, given=(2, "rest"), target=(1, "0"))

    def test_event_validation(self):
        model = z_model()
        fams = standard_families(model, ket(0.6, 0.8))
        with pytest.raises(UnknownLabelError, match=r"^time index 3 outside 1\.\.2$"):
            conditional_probability(fams.f2, given=(3, "0"), target=(1, "0"))
        with pytest.raises(UnknownLabelError, match="^no event labeled 'zzz' at time 2$"):
            conditional_probability(fams.f2, given=(2, "zzz"), target=(1, "0"))
        # the given event is checked first; a label keeps its own repr
        with pytest.raises(UnknownLabelError, match="^no event labeled 5 at time 1$"):
            conditional_probability(fams.f2, given=(1, 5), target=(1, "zzz"))

    def test_events_validated_before_consistency(self):
        # a bad event is reported as such even when the family is inconsistent
        with pytest.raises(UnknownLabelError):
            conditional_probability(interference_family(), given=(3, "0"), target=(1, "plus"))
        # and the target is checked before the given event's probability
        fams = standard_families(z_model(), ket(0.6, 0.8))
        with pytest.raises(UnknownLabelError, match="^no event labeled 'zzz' at time 1$"):
            conditional_probability(fams.f2, given=(2, "rest"), target=(1, "zzz"))

    def test_inconsistent_family_error_matches_probs(self):
        message = (
            r"^family is inconsistent \(max off-diagonal 0\.25, tolerance 1e-10\); "
            r"probabilities are undefined$"
        )
        fam = interference_family()
        with pytest.raises(InconsistentFamilyError, match=message) as from_probs:
            family_probabilities(fam)
        with pytest.raises(InconsistentFamilyError, match=message) as from_conditional:
            conditional_probability(fam, given=(2, "0"), target=(1, "plus"))
        assert from_conditional.value.report.max_offdiag == from_probs.value.report.max_offdiag

    def test_zero_probability_message(self):
        fams = standard_families(z_model(), ket(0.6, 0.8))
        message = "^conditioning event 'rest' at time 2 has probability 0$"
        with pytest.raises(ZeroProbabilityConditionError, match=message):
            conditional_probability(fams.f2, given=(2, "rest"), target=(1, "0"))


class TestMeasurementModel:
    def test_pointer_must_exceed_outcomes(self):
        with pytest.raises(PointerTooSmallError):
            build_measurement_model(spectral_decompose(Z), pointer_dim=2)

    def test_interaction_is_unitary(self):
        model = z_model(pointer_dim=5)
        t = model.t.entries
        assert np.abs(t.conj().T @ t - np.eye(model.full_dim)).max() < 1e-12

    def test_pointer_records_outcome(self):
        # T (|phi_j> x |Phi_0>) = |phi_j> x |Phi_{j+1}>
        model = z_model()
        ready = model.pointer_states[0].amplitudes
        for j, proj in enumerate(model.observable.pdi.projectors):
            phi_j = proj.entries[:, np.argmax(np.diag(proj.entries.real))]
            before = np.kron(phi_j, ready)
            after = model.pointer_states[j + 1].amplitudes
            expected = np.kron(phi_j, after)
            assert np.abs(model.t.entries @ before - expected).max() < 1e-12

    def test_pointer_pdi_has_rest(self):
        model = z_model(pointer_dim=4)
        assert model.pointer_pdi.labels == ("0", "1", "rest")
        assert model.pointer_pdi.by_label("rest").rank == 2 * (4 - 2)

    @pytest.mark.parametrize("system_dim, pointer_dim", [(2, 3), (2, 5), (3, 6)])
    def test_pointer_pdi_matches_dense_construction(self, system_dim, pointer_dim):
        # reference: I x |k+1><k+1| per outcome k, and the rest as I minus their sum
        obs = spectral_decompose(Operator(np.diag(np.arange(system_dim, 0, -1)).astype(complex)))
        model = build_measurement_model(obs, pointer_dim)
        position = np.eye(pointer_dim)
        rest = np.eye(system_dim * pointer_dim, dtype=complex)
        expected = []
        for k in range(system_dim):
            mk = np.kron(np.eye(system_dim), np.outer(position[k + 1], position[k + 1]))
            rest -= mk
            expected.append(mk)
        expected.append(rest)
        assert len(model.pointer_pdi) == len(expected)
        for proj, dense in zip(model.pointer_pdi.projectors, expected):
            assert np.abs(proj.entries - dense).max() <= 1e-15


class TestStandardFamilies:
    def test_unitary_family_single_history(self):
        fams = standard_families(z_model(), ket(0.6, 0.8))
        table = family_probabilities(fams.f_u)
        assert table.probabilities[("psi1", "psi2")] == pytest.approx(1.0, abs=1e-12)
        assert all(
            p == pytest.approx(0.0, abs=1e-12)
            for h, p in table.probabilities.items()
            if h != ("psi1", "psi2")
        )

    def test_f1_pointer_marginals(self):
        fams = standard_families(z_model(), ket(1, 1))
        table = family_probabilities(fams.f1)
        assert not table.exhaustive
        assert table.omitted == pytest.approx(0.0, abs=1e-12)
        assert table.probabilities[("psi0", "0")] == pytest.approx(0.5, abs=1e-12)
        assert table.probabilities[("psi0", "1")] == pytest.approx(0.5, abs=1e-12)

    def test_f2_diagonal(self):
        c0, c1 = 0.6, 0.8
        fams = standard_families(z_model(), ket(c0, c1))
        table = family_probabilities(fams.f2)
        assert table.probabilities[("0", "0")] == pytest.approx(c0**2, abs=1e-12)
        assert table.probabilities[("1", "1")] == pytest.approx(c1**2, abs=1e-12)
        assert table.probabilities[("0", "1")] == pytest.approx(0.0, abs=1e-12)
        assert table.probabilities[("1", "0")] == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_input_concentrates(self):
        fams = standard_families(z_model(), ket(1, 0))
        table = family_probabilities(fams.f2)
        assert table.probabilities[("0", "0")] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_f2_matches_born_weights_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = Ket(amps)
        fams = standard_families(z_model(), psi)
        table = family_probabilities(fams.f2)
        weights = np.abs(psi.amplitudes) ** 2
        for j in range(2):
            for k in range(2):
                expected = weights[j] if j == k else 0.0
                assert table.probabilities[(str(j), str(k))] == pytest.approx(
                    expected, abs=1e-10
                )

    def test_three_outcome_observable(self):
        diag = Operator(np.diag([1.0, 0.0, -1.0]).astype(complex))
        model = build_measurement_model(spectral_decompose(diag), pointer_dim=4)
        psi = ket(2, 1, 2)  # weights 4/9, 1/9, 4/9
        fams = standard_families(model, psi)
        table = family_probabilities(fams.f2)
        assert table.probabilities[("0", "0")] == pytest.approx(4 / 9, abs=1e-12)
        assert table.probabilities[("1", "1")] == pytest.approx(1 / 9, abs=1e-12)
        assert table.probabilities[("2", "2")] == pytest.approx(4 / 9, abs=1e-12)
