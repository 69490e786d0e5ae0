"""Deterministic counter-based sampling and empirical CHSH estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histories_kit import hilbert
from histories_kit.bell import chsh_value, neon_setup, singlet_chsh_operators, singlet_state
from histories_kit.config import override
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
    _CHUNK,
    _COMPARE_MAX,
    MAX_SHOTS,
    RunConfig,
    _mix,
    _tally,
    empirical_chsh,
    sample_pdi,
    uniform_stream,
)

PLUS = Ket(np.array([1, 1], dtype=complex) / math.sqrt(2))
PZ = spectral_decompose(builtin_operator("Z")).pdi

GAMMA, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix64(seed: int, i: int) -> int:
    """Output i of stream `seed`, in Python integers."""
    z = (seed + (i + 1) * GAMMA) % 2**64
    z = ((z ^ (z >> 30)) * MIX1) % 2**64
    z = ((z ^ (z >> 27)) * MIX2) % 2**64
    return z ^ (z >> 31)


def dense_counts(edges, seed: int, shots: int) -> list[int]:
    """Counts by one float draw per shot, inverted on the cumulative weights."""
    edges = np.array(edges, dtype=float)
    edges[-1] = 1.0
    idx = np.searchsorted(edges, uniform_stream(seed, 0, shots), side="right")
    return np.bincount(np.minimum(idx, len(edges) - 1), minlength=len(edges)).tolist()


def edges_of(result) -> np.ndarray:
    return np.cumsum(list(result.probabilities.values()))


class SparseBasis:
    """Computational-basis decomposition with one-hot members.

    Duck-types the parts of a PDI that `sample_pdi` reads; each member is
    stored as its one-hot basis column, so 1024 outcomes need 16 MB.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.labels = tuple(str(k) for k in range(dim))
        self.projectors = [
            Projector.from_basis(np.eye(dim, 1, -k, dtype=complex)) for k in range(dim)
        ]


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

    def test_counter_wraps_at_two_to_the_64(self):
        seed = 2**64 - 1
        start = 3 * _CHUNK - 2
        expected = [(splitmix64(seed, start + i) >> 11) * 2.0**-53 for i in range(4)]
        assert uniform_stream(seed, start, 4).tolist() == expected
        assert uniform_stream(seed, 0, 3 * _CHUNK + 2)[start:].tolist() == expected

    @pytest.mark.parametrize("start, count", [(-1, 3), (0, -1)], ids=["start", "count"])
    def test_negative_start_or_count_rejected(self, start, count):
        with pytest.raises(ValueError, match="start and count must be nonnegative"):
            uniform_stream(1, start, count)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            uniform_stream(2**64, 0, 1)
        with pytest.raises(ValueError):
            uniform_stream(-1, 0, 1)

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

    def test_shots_bounded(self):
        RunConfig(shots=MAX_SHOTS, seed=0)
        with pytest.raises(ValueError):
            RunConfig(shots=MAX_SHOTS + 1, seed=0)


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

    def test_frozen_counts_sixteen_outcomes(self):
        # more outcomes than the comparison tally takes, so these come from the sort
        basis = PDI([Ket(v).projector() for v in np.eye(16, dtype=complex)])
        state = Ket(np.arange(1, 17) * np.exp(0.3j * np.arange(16)))
        result = sample_pdi(state, basis, RunConfig(shots=50000, seed=16))
        assert list(result.counts.values()) == [
            27, 150, 259, 540, 851, 1174, 1651, 2133,
            2736, 3240, 3977, 4906, 5686, 6609, 7533, 8528,
        ]
        assert result.empirical_mean == pytest.approx(11.37428, abs=1e-12)

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, bad):
        # an infinite value used to give mean inf and std error nan
        with pytest.raises(ValueError, match="label '0'"):
            sample_pdi(PLUS, PZ, RunConfig(shots=10, seed=5), values={"0": bad, "1": 0.0})

    def test_non_finite_labels_give_no_statistics(self):
        # labels are values only when all of them parse as finite numbers
        basis = PDI([Ket(v).projector() for v in np.eye(2, dtype=complex)], labels=("inf", "nan"))
        result = sample_pdi(PLUS, basis, RunConfig(shots=100, seed=5))
        assert result.empirical_mean is None
        assert result.std_error is None

    def test_deterministic_across_calls(self):
        cfg = RunConfig(shots=5000, seed=99)
        assert sample_pdi(PLUS, PZ, cfg).counts == sample_pdi(PLUS, PZ, cfg).counts

    def test_normalization_window_enforced(self):
        # a nonorthogonal decomposition only reachable when the PDI checks
        # themselves are loosened; on |+> its Born weights sum to 1 + sin(2 eps) / 2,
        # and the sampler window stays strict
        eps = 5e-4
        with override(algebraic=1e-2):
            leaky = PDI(
                [
                    Ket(np.array([1, 0], dtype=complex)).projector(),
                    Ket(np.array([math.sin(eps), math.cos(eps)], dtype=complex)).projector(),
                ]
            )
            # a `defect < limit` check, whose message names the sum, defect and limit
            message = r"sum to 1\.000499\d*, not 1 \(defect 0\.0005, tolerance 1e-09\)$"
            with pytest.raises(ProbabilityNormalizationError, match=message):
                sample_pdi(PLUS, leaky, RunConfig(shots=10, seed=3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2000))
    def test_counts_partition_shots(self, seed, shots):
        result = sample_pdi(singlet_state(), PDI_4, RunConfig(shots=shots, seed=seed))
        assert sum(result.counts.values()) == shots


PDI_4 = PDI(
    [Ket(v).projector() for v in np.eye(4, dtype=complex)],
    labels=("00", "01", "10", "11"),
)


class TestChunkedTally:
    """Chunked counts equal the dense one-draw-per-shot inversion exactly."""

    STATE = Ket(np.array([0.3, 0.5 - 0.2j, 0.1j, 0.7]))

    @pytest.mark.parametrize("shots", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_chunk_boundaries(self, shots):
        result = sample_pdi(self.STATE, PDI_4, RunConfig(shots=shots, seed=2024))
        expected = dense_counts(edges_of(result), 2024, shots)
        assert list(result.counts.values()) == expected

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - 2, 2**64 - 3 * _CHUNK])
    def test_seed_where_the_counter_wraps(self, seed):
        shots = 3 * _CHUNK + 5
        result = sample_pdi(self.STATE, PDI_4, RunConfig(shots=shots, seed=seed))
        expected = dense_counts(edges_of(result), seed, shots)
        assert list(result.counts.values()) == expected

    def test_inner_edge_equal_to_one(self):
        # trailing zero-weight outcomes: every inner edge from outcome 0 on is 1.0
        state = Ket(np.array([1.0, 0.0, 0.0, 0.0]))
        result = sample_pdi(state, PDI_4, RunConfig(shots=_CHUNK + 3, seed=5))
        assert list(result.counts.values()) == [_CHUNK + 3, 0, 0, 0]
        state = Ket(np.array([0.6, 0.8, 0.0, 0.0]))
        assert edges_of(sample_pdi(state, PDI_4, RunConfig(1, 0)))[1] == 1.0
        result = sample_pdi(state, PDI_4, RunConfig(shots=_CHUNK + 3, seed=5))
        counts = list(result.counts.values())
        assert counts == dense_counts(edges_of(result), 5, _CHUNK + 3)
        assert counts[2:] == [0, 0]

    def test_inner_edge_rounding_above_one(self):
        state = Ket(np.array([0.1, 0.4, 0.2, 0.0]))
        result = sample_pdi(state, PDI_4, RunConfig(shots=2 * _CHUNK + 1, seed=11))
        assert edges_of(result)[2] > 1.0
        counts = list(result.counts.values())
        assert counts == dense_counts(edges_of(result), 11, 2 * _CHUNK + 1)
        assert counts[3] == 0

    @pytest.mark.parametrize("extra", [0, 2 * _COMPARE_MAX], ids=["compare", "sort"])
    def test_draws_exactly_on_an_edge(self, extra):
        # an edge equal to a draw sends that draw up; an edge one ulp above a
        # draw in [1/4, 1/2), finer than the 2^-53 draw grid, keeps it below
        # (one such draw on an even and one on an odd multiple of 2^-53);
        # `extra` more edges in [1/2, 1) take the tally past the comparison path
        seed, shots = 9, 3 * _CHUNK + 5
        draws = uniform_stream(seed, 0, shots)
        on = draws[(draws > 0.1) & (draws < 0.25)][-1]
        grid = draws * 2.0**53
        middle = (draws >= 0.25) & (draws < 0.5)
        even = draws[middle & (grid % 2 == 0)][-1]
        odd = draws[middle & (grid % 2 == 1)][-1]
        upper = draws[draws >= 0.5][:extra]
        edges = np.sort([on, np.nextafter(even, 1.0), np.nextafter(odd, 1.0), *upper, 1.0])
        assert (len(edges) - 1 > _COMPARE_MAX) == bool(extra)
        assert _tally(edges, shots, seed).tolist() == dense_counts(edges, seed, shots)

    @settings(max_examples=40, deadline=None)
    @given(
        # few outcomes take the comparison tally, more than _COMPARE_MAX + 1 the sort
        outcomes=st.integers(1, 16) | st.integers(1, 1024),
        zero_share=st.sampled_from([0.0, 0.5, 0.95]),
        trailing_zeros=st.booleans(),
        shots=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1]) | st.integers(1, 3 * _CHUNK + 7),
        seed=st.integers(0, 2**64 - 1),
        draw=st.integers(0, 2**32 - 1),
    )
    @example(
        outcomes=_COMPARE_MAX + 1, zero_share=0.0, trailing_zeros=False,
        shots=3 * _CHUNK + 7, seed=2**64 - 1, draw=8,
    )
    @example(
        outcomes=_COMPARE_MAX + 2, zero_share=0.0, trailing_zeros=False,
        shots=3 * _CHUNK + 7, seed=2**64 - 1, draw=9,
    )
    def test_matches_dense_inversion(self, outcomes, zero_share, trailing_zeros, shots, seed, draw):
        rng = np.random.default_rng(draw)
        amps = rng.normal(size=outcomes) + 1j * rng.normal(size=outcomes)
        amps[rng.random(outcomes) < zero_share] = 0
        if trailing_zeros:
            amps[outcomes // 2 + 1 :] = 0
        amps[0] += not amps.any()
        result = sample_pdi(Ket(amps), SparseBasis(outcomes), RunConfig(shots=shots, seed=seed))
        expected = dense_counts(edges_of(result), seed, shots)
        assert list(result.counts.values()) == expected

    @pytest.mark.parametrize("outcomes", [2, 16])
    def test_memory_does_not_grow_with_shots(self, outcomes):
        state, pdi = Ket(np.ones(outcomes)), SparseBasis(outcomes)
        tracemalloc.start()
        try:
            result = sample_pdi(state, pdi, RunConfig(shots=10**7, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(result.counts.values()) == 10**7
        assert peak < 8 * 2**20


class TestEmpiricalCHSH:
    def test_frozen_estimate(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=2000, seed=2020))
        assert est.s_hat == pytest.approx(2.806, abs=1e-12)
        assert est.std_error == pytest.approx(0.0318666753835, abs=1e-10)

    def test_determinism(self):
        setup = neon_setup()
        cfg = RunConfig(shots=1000, seed=77)
        a = empirical_chsh(setup.top_eigenstate, setup.ops, cfg)
        b = empirical_chsh(setup.top_eigenstate, setup.ops, cfg)
        assert a.s_hat == b.s_hat
        assert all(
            ra.counts == rb.counts for ra, rb in zip(a.per_setting.values(), b.per_setting.values())
        )

    def test_repeated_calls_decompose_each_product_once(self, monkeypatch):
        # the products live on the setup, so the spectral memo serves the second call
        setup = neon_setup()
        validated = []
        validate = hilbert.pdi_validate

        def counting(projectors):
            validated.append(len(projectors))
            return validate(projectors)

        monkeypatch.setattr(hilbert, "pdi_validate", counting)
        cfg = RunConfig(shots=100, seed=3)
        first, second = (empirical_chsh(setup.top_eigenstate, setup.ops, cfg) for _ in range(2))
        assert len(validated) == 4
        assert first.s_hat == second.s_hat

    def test_each_setting_samples_its_own_product(self):
        # E01 = cos 30 deg and E10 = -cos 60 deg here, so a transposed product order shows
        ops = singlet_chsh_operators((0.0, 90.0), (30.0, 150.0))
        e = chsh_value(singlet_state(), ops).correlations.e
        est = empirical_chsh(singlet_state(), ops, RunConfig(shots=10, seed=5))
        for (a, b), result in est.per_setting.items():
            obs = spectral_decompose(ops.alice(a) @ ops.bob(b))
            born = sum(result.probabilities[l] * v for l, v in zip(obs.pdi.labels, obs.eigenvalues))
            assert born == pytest.approx(e[a, b], abs=1e-12)

    def test_per_setting_seeds_distinct(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=100, seed=8))
        assert len(set(est.seeds.values())) == 4
        assert est.seeds[(0, 0)] == splitmix64(8, 0)
        assert est.seeds[(0, 1)] == splitmix64(8, 1)
        assert est.seeds[(1, 0)] == splitmix64(8, 2)
        assert est.seeds[(1, 1)] == splitmix64(8, 3)

    def test_neighbouring_seeds_share_no_setting_stream(self):
        setup = neon_setup()
        first, second = (
            empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=10, seed=seed))
            for seed in (2020, 2021)
        )
        assert not set(first.seeds.values()) & set(second.seeds.values())

    def test_estimate_within_five_sigma(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=50000, seed=31))
        assert abs(est.s_hat - 2 * math.sqrt(2)) < 5 * est.std_error

    def test_error_combines_in_quadrature(self):
        setup = neon_setup()
        est = empirical_chsh(setup.top_eigenstate, setup.ops, RunConfig(shots=400, seed=12))
        per = [r.std_error for r in est.per_setting.values()]
        assert est.std_error == pytest.approx(math.sqrt(sum(e * e for e in per)), abs=1e-15)
