"""Deterministic counter-based sampling and empirical CHSH estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_kit.bell import neon_setup, singlet_state
from histories_kit.config import TOLERANCES
from histories_kit.errors import ProbabilityNormalizationError
from histories_kit.hilbert import (
    PDI,
    Ket,
    Operator,
    Projector,
    builtin_operator,
    spectral_decompose,
)
from histories_kit.sampler import (
    RunConfig,
    _mix,
    empirical_chsh,
    sample_pdi,
    uniform_stream,
)

PLUS = Ket(np.array([1, 1], dtype=complex) / math.sqrt(2))
PZ = spectral_decompose(builtin_operator("Z")).pdi


class TestUniformStream:
    def test_range_and_determinism(self):
        a = uniform_stream(42, 0, 1000)
        b = uniform_stream(42, 0, 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0
        assert a.max() < 1.0

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_stream(1, 0, 100), uniform_stream(2, 0, 100))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 500),
        st.integers(0, 500),
    )
    def test_partition_property(self, seed, k, m):
        # stream(s, 0, k+m) == concat(stream(s, 0, k), stream(s, k, m)), exactly
        whole = uniform_stream(seed, 0, k + m)
        parts = np.concatenate([uniform_stream(seed, 0, k), uniform_stream(seed, k, m)])
        assert np.array_equal(whole, parts)

    def test_empty_stream(self):
        assert uniform_stream(7, 0, 0).shape == (0,)

    def test_splitmix64_known_answers(self):
        # published splitmix64 outputs for seed 0 (Steele, Lea, Flood, OOPSLA 2014)
        known = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        counters = np.array(
            [(i * 0x9E3779B97F4A7C15) % 2**64 for i in (1, 2, 3)], dtype=np.uint64
        )
        assert [int(x) for x in _mix(counters)] == known
        assert uniform_stream(0, 0, 3).tolist() == [(v >> 11) * 2.0**-53 for v in known]

    def test_roughly_uniform(self):
        xs = uniform_stream(2020, 0, 100000)
        hist, _ = np.histogram(xs, bins=10, range=(0, 1))
        assert hist.min() > 9000
        assert hist.max() < 11000


class TestRunConfig:
    def test_validation(self):
        RunConfig(shots=1, seed=0)
        with pytest.raises(ValueError):
            RunConfig(shots=0, seed=0)
        with pytest.raises(ValueError):
            RunConfig(shots=10, seed=-1)
        with pytest.raises(ValueError):
            RunConfig(shots=10, seed=2**64)


class TestSamplePDI:
    def test_frozen_counts_plus_state(self):
        # spectral PDI labels are branch indices; index 0 holds eigenvalue +1
        result = sample_pdi(PLUS, PZ, RunConfig(shots=100000, seed=42))
        assert result.counts == {"0": 50064, "1": 49936}
        assert result.shots == 100000

    def test_frozen_counts_singlet_mixed_basis(self):
        basis = PDI(
            [Ket(v).projector() for v in np.eye(4, dtype=complex)],
            labels=("b00", "b01", "b10", "b11"),
        )
        result = sample_pdi(singlet_state(), basis, RunConfig(shots=50000, seed=7))
        assert result.counts == {"b00": 0, "b01": 25158, "b10": 24842, "b11": 0}

    def test_counts_cover_all_labels_and_sum_to_shots(self):
        result = sample_pdi(PLUS, PZ, RunConfig(shots=3, seed=0))
        assert set(result.counts) == set(PZ.labels)
        assert sum(result.counts.values()) == 3

    def test_probabilities_match_born_weights(self):
        state = Ket(np.array([0.6, 0.8], dtype=complex))
        result = sample_pdi(state, PZ, RunConfig(shots=10, seed=1))
        assert result.probabilities[PZ.labels[0]] == pytest.approx(0.36, abs=1e-12)
        assert result.probabilities[PZ.labels[1]] == pytest.approx(0.64, abs=1e-12)

    def test_numeric_labels_give_statistics(self):
        # index labels parse as floats, so the fallback mean counts branch "1"
        result = sample_pdi(PLUS, PZ, RunConfig(shots=1000, seed=5))
        assert result.counts == {"0": 517, "1": 483}
        assert result.empirical_mean == pytest.approx(0.483, abs=1e-12)
        assert result.std_error == pytest.approx(0.0158022466757, abs=1e-10)

    def test_values_mapping_overrides_labels(self):
        result = sample_pdi(
            PLUS, PZ, RunConfig(shots=1000, seed=5), values={"0": 1.0, "1": -1.0}
        )
        assert result.empirical_mean == pytest.approx(0.034, abs=1e-12)

    def test_non_numeric_labels_without_values(self):
        basis = PDI([Ket(v).projector() for v in np.eye(2, dtype=complex)], labels=("up", "dn"))
        result = sample_pdi(PLUS, basis, RunConfig(shots=100, seed=5))
        assert result.empirical_mean is None
        assert result.std_error is None

    def test_values_mapping_must_cover_labels(self):
        basis = PDI([Ket(v).projector() for v in np.eye(2, dtype=complex)], labels=("up", "dn"))
        with pytest.raises(ValueError):
            sample_pdi(PLUS, basis, RunConfig(shots=10, seed=5), values={"up": 1.0})

    def test_deterministic_across_calls(self):
        cfg = RunConfig(shots=5000, seed=99)
        assert sample_pdi(PLUS, PZ, cfg).counts == sample_pdi(PLUS, PZ, cfg).counts

    def test_normalization_window_enforced(self):
        # a deficient decomposition only reachable when the PDI completeness
        # check itself is loosened; the sampler window stays strict
        saved = TOLERANCES.algebraic
        TOLERANCES.algebraic = 1e-2
        try:
            leaky = PDI(
                [
                    Projector(Operator(np.diag([1 - 5e-4, 0]).astype(complex))),
                    Projector(Operator(np.diag([0, 1 - 5e-4]).astype(complex))),
                ]
            )
            with pytest.raises(ProbabilityNormalizationError):
                sample_pdi(PLUS, leaky, RunConfig(shots=10, seed=3))
        finally:
            TOLERANCES.algebraic = saved

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2000))
    def test_counts_partition_shots(self, seed, shots):
        result = sample_pdi(singlet_state(), PDI_4, RunConfig(shots=shots, seed=seed))
        assert sum(result.counts.values()) == shots


PDI_4 = PDI(
    [Ket(v).projector() for v in np.eye(4, dtype=complex)],
    labels=("00", "01", "10", "11"),
)


class TestEmpiricalCHSH:
    def test_frozen_estimate(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=2000, seed=2020))
        assert est.s_hat == pytest.approx(2.871, abs=1e-12)
        assert est.std_error == pytest.approx(0.0311384569303, abs=1e-10)

    def test_determinism(self):
        setup = neon_setup()
        cfg = RunConfig(shots=1000, seed=77)
        a = empirical_chsh(setup.top_eigenstate, setup.ops, cfg)
        b = empirical_chsh(setup.top_eigenstate, setup.ops, cfg)
        assert a.s_hat == b.s_hat
        assert all(
            ra.counts == rb.counts for ra, rb in zip(a.per_setting.values(), b.per_setting.values())
        )

    def test_per_setting_seeds_distinct(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=100, seed=8))
        assert len(set(est.seeds.values())) == 4
        assert est.seeds[(0, 0)] == 8 ^ 0
        assert est.seeds[(0, 1)] == 8 ^ 1
        assert est.seeds[(1, 0)] == 8 ^ 2
        assert est.seeds[(1, 1)] == 8 ^ 3

    def test_estimate_within_five_sigma(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=50000, seed=31))
        assert abs(est.s_hat - 2 * math.sqrt(2)) < 5 * est.std_error

    def test_error_combines_in_quadrature(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=400, seed=12))
        per = [r.std_error for r in est.per_setting.values()]
        assert est.std_error == pytest.approx(math.sqrt(sum(e * e for e in per)), abs=1e-15)
