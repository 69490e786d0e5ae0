"""State, operator, and decomposition layer."""

import dataclasses
import itertools
import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_kit import bell, hilbert, histories, sampler
from histories_kit.config import TOLERANCES, override
from histories_kit.errors import (
    AmbiguousSpectrumError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidPDIError,
    NonCommutingError,
    NonUnitDirectionError,
    NotHermitianError,
    UnknownNameError,
)
from histories_kit.hilbert import (
    PDI,
    GridWavefunction,
    Ket,
    Observable,
    Operator,
    Projector,
    Region,
    _commutator_defects,
    builtin_operator,
    common_refinement,
    commutator_defect,
    partial_trace,
    pdi_compatible,
    pdi_validate,
    possesses,
    region_projector,
    spectral_decompose,
    tensor_product,
    tensor_state,
)

Z = builtin_operator("Z")
X = builtin_operator("X")
Y = builtin_operator("Y")
I2 = builtin_operator("I", 2)


def basis_ket(dim, i):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return Ket(v)


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket(v)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((m + m.conj().T) / 2)


def hermitian_with_spectrum(rng, spectrum):
    """U diag(spectrum) U-dagger for a random unitary U, symmetrized."""
    dim = len(spectrum)
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    m = u @ np.diag(spectrum) @ u.conj().T
    return Operator((m + m.conj().T) / 2)


def chains_past(values, gap, slack=0.01):
    """Whether some run of sorted neighbours, each within gap of the next,
    spans more than gap; the slack absorbs eigh rounding at either edge."""
    values = sorted(values)
    lo = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap * (1 + slack):
            lo = i
        elif values[i] - values[lo] > gap * (1 - slack):
            return True
    return False


class TestKet:
    def test_normalizes(self):
        k = Ket(np.array([3.0, 4.0], dtype=complex))
        assert abs(np.linalg.norm(k.amplitudes) - 1) < TOLERANCES.probability
        assert np.allclose(k.amplitudes, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Ket(np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            Ket(np.full(4, 1e-14, dtype=complex))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [[math.nan, 1], [math.inf, 1], [1e200, 1e200]])
    def test_non_finite_rejected(self, bad):
        # NaN used to give an all-NaN state, inf [nan, 0], an overflowing norm zeros
        with pytest.raises(ValueError, match="finite"):
            Ket(np.array(bad, dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            GridWavefunction(np.array(bad))

    def test_inner_and_projector(self):
        k = Ket(np.array([1.0, 1j]) / math.sqrt(2))
        assert abs(k.inner(k) - 1) < 1e-15
        p = k.projector()
        assert np.allclose(p.entries @ k.amplitudes, k.amplitudes)
        assert p.rank == 1

    def test_amplitudes_read_only(self, assert_frozen):
        # an array that owns its data could be made writeable and the ket unnormalized
        k = Ket([0.6, 0.8])
        assert_frozen(k)
        assert k.amplitudes.tolist() == [0.6, 0.8]


class TestOperator:
    def test_algebra(self):
        s = Z + X
        d = Z - X
        assert np.allclose((s + d).entries, 2 * Z.entries)
        assert np.allclose((Z @ X).entries, np.array([[0, 1], [-1, 0]]))
        assert np.allclose((2 * Z).entries, (Z * 2).entries)
        assert np.allclose((-Z).entries, -Z.entries)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Z + builtin_operator("I", 3)

    def test_copies_its_input_even_when_read_only(self):
        # the owner of a read-only array may make it writeable again
        buf = np.eye(2, dtype=complex)
        buf.setflags(write=False)
        op = Operator(buf)
        buf.setflags(write=True)
        buf[0, 0] = 5.0
        assert op.entries[0, 0] == 1.0 and not op.entries.flags.writeable

    def test_frozen_entries_pass_through(self, monkeypatch):
        p = Ket([0.6, 0.8j]).projector()
        entries = p.entries
        assert np.shares_memory(Operator(entries).entries, entries)
        # Projector.op wraps the matrix that Projector.entries built, without a copy
        monkeypatch.setattr(Projector, "entries", property(lambda self: entries))
        assert np.shares_memory(p.op.entries, entries)

    def test_view_of_frozen_array_is_copied(self, assert_frozen):
        frozen = Operator(np.array([[1.0, 2.0], [3.0, 4.0]])).entries
        op = Operator(frozen.T)
        assert not np.shares_memory(op.entries, frozen)
        assert op.entries.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        assert_frozen(op)

    def test_expectation(self):
        plus = Ket(np.array([1, 1], dtype=complex))
        assert abs(X.expectation(plus) - 1) < 1e-12
        assert abs(Z.expectation(plus)) < 1e-12


class TestProjector:
    def test_validation(self):
        with pytest.raises(ValueError):
            Projector(X + Z)  # hermitian but not idempotent
        with pytest.raises(ValueError):
            Projector(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # a NaN defect compares False against any tolerance, so it must fail,
        # not pass; inf - inf warns as an invalid operation on its way to NaN
        entries = np.array([[bad, 0], [0, 0]], dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="defect nan"):
            Projector(Operator(entries))

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_eigenvalue_tolerance_around_zero_and_one(self, value):
        # an eigenvalue within the algebraic tolerance of {0, 1} is accepted
        # and stored as its nearest projector; one just outside is rejected
        tol = TOLERANCES.algebraic
        inside = Projector(Operator(np.diag([1.0, value + 0.5 * tol]).astype(complex)))
        assert inside.rank == 1 + int(value)
        assert np.array_equal(inside.entries, np.diag([1.0, value]))
        with pytest.raises(ValueError, match="idempotency"):
            Projector(Operator(np.diag([1.0, value - 2 * tol]).astype(complex)))

    @pytest.mark.parametrize("spread, accepted", [(5e-11, True), (5e-10, False)])
    def test_idempotency_is_a_spectral_norm(self, spread, accepted):
        # an eigenvalue `spread` spread evenly over a 10-dim block has max entry
        # spread / 10 but spectral norm spread, which is what is certified
        entries = np.zeros((11, 11), dtype=complex)
        entries[0, 0] = 1.0
        entries[1:, 1:] = spread / 10
        if accepted:
            assert Projector(Operator(entries)).rank == 1
        else:
            with pytest.raises(ValueError, match="idempotency"):
                Projector(Operator(entries))

    def test_rank_and_complement(self):
        p = basis_ket(3, 0).projector()
        assert p.rank == 1
        c = p.complement()
        assert c.rank == 2
        assert np.allclose(p.entries + c.entries, np.eye(3))

    def test_complement_of_full_and_empty_projectors(self):
        # the zero projector's basis has no columns
        zero = region_projector(4, Region([]))
        assert zero.basis.shape == (4, 0) and not zero.entries.any()
        full = zero.complement()
        assert full.rank == 4 and np.abs(full.entries - np.eye(4)).max() < 1e-15
        assert full.complement().rank == 0
        p = Ket(np.array([1, 2j, 0, -1])).projector()
        assert np.abs(p.complement().entries - (np.eye(4) - p.entries)).max() < 1e-15

    def test_disjoint_projector_product_is_zero(self):
        p = basis_ket(4, 1).projector()
        q = basis_ket(4, 2).projector()
        assert np.abs(p.entries @ q.entries).max() == 0.0

    def test_from_basis(self, assert_frozen):
        rng = np.random.default_rng(5)
        vecs = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0][:, :2]
        p = Projector.from_basis(vecs)
        outer = vecs @ vecs.conj().T
        assert np.array_equal(p.entries, (outer + outer.conj().T) / 2.0)
        assert p.rank == 2
        assert_frozen((p.basis, p.entries))
        made = Projector(Operator(p.entries))
        assert made.rank == 2 and made.basis.shape == (5, 2)
        assert np.abs(made.entries - p.entries).max() < 1e-14
        with pytest.raises(ValueError):
            Projector.from_basis(vecs * (1 + 1e-9))  # columns not unit length
        with pytest.raises(ValueError):
            Projector.from_basis(vecs[:, 0])  # not a (d, r) array

    def test_basis_is_the_only_stored_field(self, assert_frozen):
        # no dense matrix is kept: entries and op are built afresh on every read
        rng = np.random.default_rng(6)
        vecs = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0][:, :3]
        for p in (Projector.from_basis(vecs), Projector(Operator(vecs @ vecs.conj().T))):
            assert list(vars(p)) == ["basis"]
            outer = p.basis @ p.basis.conj().T
            first = p.entries
            assert first is not p.entries
            assert np.array_equal(first, (outer + outer.conj().T) / 2.0)
            assert_frozen(first)
            assert np.array_equal(p.op.entries, first)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
        st.integers(0, 2**32 - 1),
    )
    def test_apply_matches_dense_product(self, dim_rank, seed):
        # P v agrees with the dense matrix on vectors and blocks
        dim, rank = dim_rank
        rng = np.random.default_rng(seed)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        p = Projector.from_basis(np.linalg.qr(cplx(dim, dim))[0][:, :rank])
        vec = cplx(dim)
        vec /= np.linalg.norm(vec)
        block = np.linalg.qr(cplx(dim, dim))[0][:, :3]
        for v in (vec, block):
            assert np.abs(p.apply(v) - p.entries @ v).max() <= 1e-14


class TestPDI:
    def test_default_labels(self):
        pdi = PDI([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        assert pdi.labels == ("0", "1")
        assert pdi.by_label("1").rank == 1
        with pytest.raises(KeyError):
            pdi.by_label("nope")
        with pytest.raises(KeyError):
            pdi.by_label(0)  # labels are strings: "0" exists, 0 does not

    def test_duplicate_labels_rejected(self):
        projs = [basis_ket(2, 0).projector(), basis_ket(2, 1).projector()]
        with pytest.raises(ValueError):
            PDI(projs, labels=("a", "a"))

    def test_incomplete_rejected(self):
        with pytest.raises(InvalidPDIError):
            PDI([basis_ket(3, 0).projector(), basis_ket(3, 1).projector()])

    def test_non_orthogonal_rejected(self):
        plus = Ket(np.array([1, 1], dtype=complex))
        with pytest.raises(InvalidPDIError):
            PDI([basis_ket(2, 0).projector(), plus.projector()])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rank_zero_member_validates(self, position):
        members = [basis_ket(2, 0).projector(), basis_ket(2, 1).projector()]
        members.insert(position, Projector(Operator(np.zeros((2, 2), dtype=complex))))
        assert members[position].rank == 0
        report = pdi_validate(members)
        assert report.passes
        assert max(report.orthogonality_defect, report.idempotency_defect) == 0.0
        assert PDI(members).by_label(str(position)).rank == 0

    @pytest.mark.parametrize("overlap, passes", [(4e-11, True), (5e-11, False)])
    def test_completeness_is_a_frobenius_norm(self, overlap, passes):
        # three kets with pairwise overlap e: every pair passes orthogonality, and
        # sum(P) - I = G - I has max entry e but Frobenius norm sqrt(6) e, which is
        # the completeness defect; the boundary sits at e = 1e-10 / sqrt(6)
        gram = np.full((3, 3), overlap) + (1.0 - overlap) * np.eye(3)
        evals, evecs = np.linalg.eigh(gram)
        root = (evecs * np.sqrt(evals)) @ evecs.T  # its columns have inner products G
        report = pdi_validate([Ket(col).projector() for col in root.T])
        assert report.orthogonality_defect < TOLERANCES.algebraic
        assert report.completeness_defect == pytest.approx(math.sqrt(6) * overlap, rel=1e-4)
        assert report.passes == passes

    def test_validation_report(self):
        report = pdi_validate([basis_ket(2, 0).projector()])
        assert not report.passes
        assert report.completeness_defect > 0.9
        good = pdi_validate([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        assert good.passes
        assert good.tolerance == TOLERANCES.algebraic


class TestObservable:
    def test_eigenvalues_strictly_descending(self):
        pdi = PDI([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        with pytest.raises(ValueError):
            Observable(eigenvalues=(1.0, 1.0), pdi=pdi)
        with pytest.raises(ValueError):
            Observable(eigenvalues=(-1.0, 1.0), pdi=pdi)
        with pytest.raises(ValueError):
            Observable(eigenvalues=(math.nan, 0.0), pdi=pdi)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_eigenvalues_rejected(self, bad):
        # operator() used to return a matrix of NaN
        pdi = PDI([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        with pytest.raises(ValueError, match="finite"):
            Observable(eigenvalues=(bad, 0.0) if bad > 0 else (0.0, bad), pdi=pdi)

    @pytest.mark.parametrize("bad", [-1e-12, math.inf, math.nan])
    def test_shift_must_be_finite_and_nonnegative(self, bad):
        pdi = PDI([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        assert Observable(eigenvalues=(1.0, 0.0), pdi=pdi).shift == 0.0
        with pytest.raises(ValueError, match="shift"):
            Observable(eigenvalues=(1.0, 0.0), pdi=pdi, shift=bad)

    def test_operator_reconstruction(self):
        obs = spectral_decompose(Z)
        assert np.allclose(obs.operator().entries, Z.entries)


class TestSpectralDecompose:
    def test_pauli_z(self):
        obs = spectral_decompose(Z)
        assert obs.eigenvalues == (1.0, -1.0)
        assert np.allclose(obs.pdi.projectors[0].entries, np.diag([1, 0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            spectral_decompose(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_degenerate_eigenspace_grouped(self):
        op = tensor_product(Z, I2)  # eigenvalues +1,+1,-1,-1
        obs = spectral_decompose(op)
        assert obs.eigenvalues == (1.0, -1.0)
        assert [p.rank for p in obs.pdi.projectors] == [2, 2]

    def test_jitter_within_grouping_tolerance_merges(self):
        eps = TOLERANCES.eigen_grouping / 10
        op = Operator(np.diag([1.0, 1.0 + eps, -1.0]).astype(complex))
        obs = spectral_decompose(op)
        assert len(obs.eigenvalues) == 2
        assert obs.pdi.projectors[0].rank == 2
        # each merged eigenvalue moves eps/2 onto the mean; the lone one stays put
        assert obs.shift == pytest.approx(eps / 2, rel=1e-6)
        assert spectral_decompose(Z).shift == 0.0

    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_reconstruction_tolerance_scales_with_entries(self, scale):
        h = random_hermitian(np.random.default_rng(0), 8) * scale
        obs = spectral_decompose(h)
        assert len(obs.eigenvalues) == 8
        assert np.abs(obs.operator().entries - h.entries).max() < 1e-9 * scale

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_reconstructs_random_hermitian(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        obs = spectral_decompose(h)
        rebuilt = sum(
            (f * p.op for f, p in zip(obs.eigenvalues, obs.pdi.projectors)),
            Operator(np.zeros((dim, dim), dtype=complex)),
        )
        assert np.abs(rebuilt.entries - h.entries).max() < TOLERANCES.reconstruction
        assert all(a > b for a, b in zip(obs.eigenvalues, obs.eigenvalues[1:]))

    def test_split_of_one_gap_merges_at_mean(self):
        # +-5e-9 lie exactly one grouping gap apart
        obs = spectral_decompose(0.000000005 * Z)
        assert obs.eigenvalues == (0.0,)
        assert obs.pdi.projectors[0].rank == 2

    def test_close_pair_in_random_basis_merges(self):
        h = hermitian_with_spectrum(np.random.default_rng(3), [0.0, 3e-9])
        obs = spectral_decompose(h)
        assert len(obs.eigenvalues) == 1
        assert abs(obs.eigenvalues[0] - 1.5e-9) < 1e-15

    def test_chained_eigenvalues_are_ambiguous(self):
        # each neighbour is within the gap, but the run spans 4.2 gaps
        h = hermitian_with_spectrum(np.random.default_rng(8), [0.6e-8 * k for k in range(8)])
        with pytest.raises(AmbiguousSpectrumError):
            spectral_decompose(h)

    def test_ambiguous_run_names_its_span(self):
        # at 6 significant digits both ends read 1, which hid the span
        op = Operator(np.diag([1.0, 1.000000009, 1.000000018]).astype(complex))
        message = (
            "eigenvalues 1.0..1.000000018 chain within the grouping gap 1e-08 "
            "but span 1.8e-08, more than it"
        )
        with pytest.raises(AmbiguousSpectrumError, match=f"^{re.escape(message)}$"):
            spectral_decompose(op)

    def test_grouping_gap_scales_with_norm(self):
        # at norm 1e4 the gap is 1e-4, so a 5e-5 split is jitter, a 2e-4 split is not
        op = Operator(np.diag([1e4, 1e4 - 5e-5, 1e4 - 2e-4 - 5e-5, -1e4]).astype(complex))
        obs = spectral_decompose(op)
        assert [p.rank for p in obs.pdi.projectors] == [2, 1, 1]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-9, 1.0, 1e4]),
        st.lists(
            st.tuples(st.floats(-1, 1), st.integers(1, 4), st.floats(0, 3)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_clustered_spectra_never_fail_verification(self, seed, magnitude, clusters):
        # each cluster: a center (times magnitude), a size, and a spacing in
        # units of the unscaled grouping tolerance
        spectrum = [
            magnitude * center + k * spacing * TOLERANCES.eigen_grouping
            for center, size, spacing in clusters
            for k in range(size)
        ]
        h = hermitian_with_spectrum(np.random.default_rng(seed), spectrum)
        gap = TOLERANCES.eigen_grouping * max(1.0, max(abs(v) for v in spectrum))
        try:
            obs = spectral_decompose(h)
        except AmbiguousSpectrumError:
            assert chains_past(spectrum, gap)
            return
        assert sum(p.rank for p in obs.pdi.projectors) == len(spectrum)
        scale = max(1.0, float(np.abs(h.entries).max()))
        defect = float(np.abs(obs.operator().entries - h.entries).max())
        assert defect < TOLERANCES.reconstruction * scale + gap


def near_pair():
    """diag(1, 1 + 5e-9, -1): the near pair merges at the default grouping gap
    (1e-8) and splits under a 1e-10 one."""
    return Operator(np.diag([1.0, 1.0 + 5e-9, -1.0]).astype(complex))


class TestSpectralMemo:
    def test_memo_is_keyed_by_the_tolerance_bundle(self):
        op = near_pair()
        first = spectral_decompose(op)
        with override(eigen_grouping=1e-10):
            split = spectral_decompose(op)
            assert spectral_decompose(op) is split
        again = spectral_decompose(op)
        assert [len(o.eigenvalues) for o in (first, split, again)] == [2, 3, 2]
        assert again is first

    def test_basis_cannot_be_overwritten(self, assert_frozen):
        # the memo hands this one PDI to every later decomposition of h
        h = Operator(np.diag([1.0, -1.0]))
        obs = spectral_decompose(h)
        assert_frozen(obs.pdi.projectors[0].basis)
        again = spectral_decompose(h)
        assert again is obs
        assert np.array_equal(again.pdi.projectors[0].basis, [[1.0], [0.0]])

    def test_memo_is_not_a_dataclass_field(self):
        op = near_pair()
        spectral_decompose(op)
        assert [f.name for f in dataclasses.fields(op)] == ["entries"]
        assert dataclasses.asdict(op).keys() == {"entries"}
        assert repr(op).startswith("Operator(entries=array(")
        fresh = dataclasses.replace(op)
        assert spectral_decompose(fresh) is not spectral_decompose(op)

    def test_threads_under_different_bundles_get_their_own_results(self):
        # four threads (more than the cores) miss on each fresh operator at
        # once: two at the default bundle, one splitting the near pair and one
        # under an algebraic override, which groups as the default does but is
        # a bundle of its own
        ops = [near_pair() for _ in range(30)]
        bundles = [{}, {}, {"eigen_grouping": 1e-10}, {"algebraic": 1e-9}]
        barrier = threading.Barrier(len(bundles), timeout=30)
        results = [[] for _ in bundles]

        def worker(fields, seen):
            with override(**fields):
                for op in ops:
                    barrier.wait()
                    seen.append(spectral_decompose(op))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=args) for args in zip(bundles, results)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        default, twin, split, algebraic = results
        assert [len(o.eigenvalues) for o in default] == [2] * len(ops)
        assert [len(o.eigenvalues) for o in split] == [3] * len(ops)
        assert [len(o.eigenvalues) for o in algebraic] == [2] * len(ops)
        for i, op in enumerate(ops):
            # racing threads of one bundle end up with the one stored result
            assert twin[i] is default[i] is spectral_decompose(op)
            assert algebraic[i] is not default[i]
            with override(eigen_grouping=1e-10):
                assert spectral_decompose(op) is split[i]

    def test_failures_raise_on_every_call(self):
        skew = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        for _ in range(3):
            with pytest.raises(NotHermitianError):
                spectral_decompose(skew)
        # neighbours 0.6e-8 apart chain past the default gap, but split under
        # a finer one; the finer bundle's success does not answer for the default
        chained = hermitian_with_spectrum(np.random.default_rng(8), [0.0, 0.6e-8, 1.2e-8])
        with pytest.raises(AmbiguousSpectrumError):
            spectral_decompose(chained)
        with override(eigen_grouping=1e-10):
            assert len(spectral_decompose(chained).eigenvalues) == 3
        with pytest.raises(AmbiguousSpectrumError):
            spectral_decompose(chained)

    def test_hit_equals_a_fresh_decomposition_bit_for_bit(self):
        h = hermitian_with_spectrum(np.random.default_rng(19), [2.0, 2.0, 0.5, -1.0, -1.0])
        cached = spectral_decompose(h)
        assert spectral_decompose(h) is cached
        fresh = spectral_decompose(Operator(h.entries.copy()))
        assert fresh is not cached
        assert cached.eigenvalues == fresh.eigenvalues
        assert cached.shift == fresh.shift
        assert cached.pdi.labels == fresh.pdi.labels
        for p, q in zip(cached.pdi.projectors, fresh.pdi.projectors, strict=True):
            assert p.basis.tobytes() == q.basis.tobytes()

    def test_cached_observable_is_read_only(self, reachable_arrays, assert_frozen):
        h = hermitian_with_spectrum(np.random.default_rng(20), [1.0, 1.0, 0.0, -3.0])
        obs = spectral_decompose(h)
        arrays = reachable_arrays(obs)
        assert len(arrays) == len(obs.pdi) == 3  # each Projector.basis
        assert_frozen(arrays)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Projector.from_basis(np.eye(3, dtype=complex)[:, :2]),
            lambda: Projector(Operator(np.diag([1.0, 0.0, 1.0]).astype(complex))),
            lambda: Ket(np.array([0.6, 0.8j, 0.0])).projector(),
            lambda: Ket(np.array([0.6, 0.8j, 0.0])).projector().complement(),
            lambda: region_projector(3, Region([0, 2])),
        ],
        ids=["from_basis", "from_matrix", "ket", "complement", "region"],
    )
    def test_projector_op_decomposes_and_hits(self, build):
        p = build()
        op = p.op
        first = spectral_decompose(op)
        assert first.eigenvalues == pytest.approx((1.0, 0.0), abs=1e-12)
        assert [q.rank for q in first.pdi.projectors] == [p.rank, p.dim - p.rank]
        assert spectral_decompose(op) is first

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Operator(np.diag([1.0, -1.0])),
            lambda: Ket(np.array([1.0, 0.0])).projector().op,
        ],
        ids=["operator", "projector-op"],
    )
    def test_entries_cannot_be_made_writeable(self, build):
        # an array that owns its data can be made writeable again, and then
        # the memo would answer for a matrix that has since changed
        op = build()
        before = spectral_decompose(op)
        with pytest.raises(ValueError):
            op.entries.setflags(write=True)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 3.0
        assert spectral_decompose(op) is before
        assert op.entries[0, 0] == 1.0


def declared_sum(kets, weights, rest=None):
    """The operator a spec's chain sum_j c_j*proj(k_j) (+ rest) evaluates to."""
    return hilbert._projector_sum([k.amplitudes for k in kets], weights, rest)


def assert_same_spectral_form(obs, ref, scale):
    assert [p.rank for p in obs.pdi.projectors] == [p.rank for p in ref.pdi.projectors]
    shifts = np.subtract(obs.eigenvalues, ref.eigenvalues)
    assert np.abs(shifts).max() <= 1e-12 * max(1.0, scale)
    for p, q in zip(obs.pdi.projectors, ref.pdi.projectors):
        assert np.abs(p.entries - q.entries).max() <= 1e-12


def orthonormal_kets(seed, dim, complex_basis):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    if complex_basis:
        m = m + 1j * rng.standard_normal((dim, dim))
    return [Ket(column) for column in np.linalg.qr(m)[0].T]


class TestDeclaredSpectralForm:
    """A sum of d real-weighted projectors on d kets is decomposed from its
    kets and weights; dataclasses.replace drops the record, so decomposing the
    copy is the eigh reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 16),
        st.booleans(),
        st.data(),
    )
    def test_agrees_with_eigh(self, seed, dim, complex_basis, data):
        # multiples of 0.37 in [-7.4, 7.4]: repeated and negative weights, and
        # distinct ones far outside the grouping gap
        steps = data.draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
        weights = [0.37 * n for n in steps]
        h = declared_sum(orthonormal_kets(seed, dim, complex_basis), weights)
        ref = spectral_decompose(dataclasses.replace(h))
        with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh called")):
            obs = spectral_decompose(h)
            assert spectral_decompose(h) is obs
            with override(eigen_grouping=1e-10):
                again = spectral_decompose(h)
        scale = max(map(abs, weights))
        assert_same_spectral_form(obs, ref, scale)
        assert_same_spectral_form(again, ref, scale)
        # the distinct weights are the eigenvalues, listed descending; a merged
        # group's mean rounds in the last place
        declared = sorted(set(weights), reverse=True)
        assert np.abs(np.subtract(obs.eigenvalues, declared)).max() <= 1e-15 * max(1.0, scale)

    @pytest.mark.parametrize("case", ["fewer-kets", "repeated-ket", "perturbed-ket", "extra-term"])
    def test_falls_back_to_eigh(self, case):
        dim = 2 if case == "extra-term" else 5
        kets = orthonormal_kets(7, dim, True)
        weights = [2.0, -1.0, 0.5, 3.0, 0.5][:dim]
        rest = None
        if case == "fewer-kets":
            kets, weights = kets[:-1], weights[:-1]
        elif case == "repeated-ket":
            kets[1] = kets[0]
        elif case == "perturbed-ket":
            kets[1] = Ket(kets[1].amplitudes + 1e-6 * kets[0].amplitudes)
        else:
            rest = Z.entries
        h = declared_sum(kets, weights, rest)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            obs = spectral_decompose(h)
        assert eigh.call_count == 1
        ref = spectral_decompose(dataclasses.replace(h))
        assert_same_spectral_form(obs, ref, 3.0)

    @pytest.mark.parametrize(
        "weights, error",
        [([2.0, 1j, 0.5], NotHermitianError), ([0.0, 0.6e-8, 1.2e-8], AmbiguousSpectrumError)],
        ids=["complex-weight", "chained-weights"],
    )
    def test_errors_as_from_eigh(self, weights, error):
        h = declared_sum(orthonormal_kets(3, 3, False), weights)
        for op in (h, dataclasses.replace(h)):
            with pytest.raises(error):
                spectral_decompose(op)

    def test_record_is_not_a_dataclass_field(self):
        h = declared_sum(orthonormal_kets(5, 3, False), [1.0, 2.0, 3.0])
        assert dataclasses.asdict(h).keys() == {"entries"}
        assert repr(h).startswith("Operator(entries=array(")


def isometry_blocks(seed, dim, coordinate, angle):
    """Orthonormal bases of a random PDI: a random unitary's columns split into
    at least two blocks (with `coordinate`, each block spans coordinate axes
    mixed by a unitary inside the block). A nonzero angle rotates one column of
    one block toward another block's span, so every block stays an isometry
    while that pair stops being orthogonal."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=int(rng.integers(1, dim)), replace=False))
    bounds = list(zip([0, *cuts.tolist()], [*cuts.tolist(), dim]))

    def unitary(n):
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    if coordinate:
        axes = np.eye(dim)[:, rng.permutation(dim)]
        blocks = [axes[:, lo:hi] @ unitary(hi - lo) for lo, hi in bounds]
    else:
        q = unitary(dim)
        blocks = [q[:, lo:hi].copy() for lo, hi in bounds]
    if angle:
        j, k = rng.choice(len(blocks), size=2, replace=False)
        pk = blocks[k] @ blocks[k].conj().T
        target = pk[:, int(np.argmax(pk.diagonal().real))]  # most axis-aligned direction in block k
        col = int(rng.integers(blocks[j].shape[1]))
        blocks[j][:, col] = math.cos(angle) * blocks[j][:, col] + math.sin(angle) * target / np.linalg.norm(target)
    return blocks


def dense_defects(projs):
    """Max-entry orthogonality and idempotency defects from dense products."""
    mats = [p.entries for p in projs]
    ortho = max(
        (float(np.abs(a @ b).max()) for j, a in enumerate(mats) for b in mats[j + 1 :]),
        default=0.0,
    )
    idem = max(float(np.abs(a @ a - a).max()) for a in mats)
    return ortho, idem


class TestGramCertificate:
    """pdi_validate against dense products and sums of the same matrices."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.booleans(),
        st.sampled_from([0.0, 1e-8, 1e-5, 1e-2]),
        st.booleans(),
        st.integers(0, 2),
    )
    def test_reported_defects_bound_dense_defects(self, seed, dim, coordinate, angle, factored, drop):
        # members built from their bases or factored from their matrices, with up
        # to two dropped so the decomposition may be incomplete
        blocks = isometry_blocks(seed, dim, coordinate, angle)
        kept = blocks[: max(1, len(blocks) - drop)]
        if factored:
            projs = [Projector(Operator(b @ b.conj().T)) for b in kept]
        else:
            projs = [Projector.from_basis(b) for b in kept]
        report = pdi_validate(projs)
        ortho, idem = dense_defects(projs)
        complete = float(np.abs(sum(p.entries for p in projs) - np.eye(dim)).max())
        rounding = 16 * dim * np.finfo(float).eps  # error of the dense products themselves
        assert report.orthogonality_defect + rounding >= ortho
        assert report.idempotency_defect + rounding >= idem
        assert report.completeness_defect + rounding >= complete
        assert report.passes == (angle == 0.0 and len(kept) == len(blocks))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
    def test_rotation_rejected_by_both_paths(self, seed, dim, coordinate):
        for angle in (0.0, 1e-8):
            factored = [Projector.from_basis(b) for b in isometry_blocks(seed, dim, coordinate, angle)]
            dense = [Projector(Operator(p.entries)) for p in factored]
            if angle:
                for projs in (factored, dense):
                    with pytest.raises(InvalidPDIError):
                        PDI(projs)
            else:
                PDI(factored)
                PDI(dense)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.booleans(),
        st.sampled_from([0.0, 1e-8, 1e-5]),
    )
    def test_mixed_members_match_dense_verdict(self, seed, dim, coordinate, angle):
        blocks = isometry_blocks(seed, dim, coordinate, angle)
        mixed = []
        for i, b in enumerate(blocks):
            if b.shape[1] == 1:
                mixed.append(Ket(b[:, 0]).projector())
            elif i % 2:
                mixed.append(Projector(Operator(b @ b.conj().T)))
            else:
                mixed.append(Projector.from_basis(b))
        mixed[-1] = Projector(Operator(mixed[-1].entries))  # one member factored from its matrix
        dense = [Projector(Operator(p.entries)) for p in mixed]
        report, reference = pdi_validate(mixed), pdi_validate(dense)
        assert report.passes == reference.passes == (angle == 0.0)
        # ||sum(P) - I||_F depends on the projectors alone, not on the bases that
        # factor them, so the two agree up to rounding
        rounding = 16 * dim * np.finfo(float).eps
        assert abs(report.completeness_defect - reference.completeness_defect) <= rounding
        assert report.orthogonality_defect + rounding >= reference.orthogonality_defect


class TestRefinementAndCompatibility:
    def test_common_refinement_of_commuting_pdis(self):
        zi = spectral_decompose(tensor_product(Z, I2)).pdi
        iz = spectral_decompose(tensor_product(I2, Z)).pdi
        ref = common_refinement(zi, iz)
        assert len(ref) == 4
        assert set(ref.labels) == {"0&0", "0&1", "1&0", "1&1"}
        assert all(p.rank == 1 for p in ref.projectors)

    def test_rank_zero_products_dropped(self):
        pdi = spectral_decompose(Z).pdi
        ref = common_refinement(pdi, pdi)
        assert len(ref) == 2
        assert set(ref.labels) == {"0&0", "1&1"}

    def test_refinement_members_are_the_dense_products(self):
        # rank-2 intersections of rank-4 members, in a random basis
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        zii = np.kron(Z.entries, np.eye(4))
        izi = np.kron(np.eye(2), np.kron(Z.entries, np.eye(2)))
        p = spectral_decompose(Operator(u @ zii @ u.conj().T)).pdi
        q = spectral_decompose(Operator(u @ izi @ u.conj().T)).pdi
        ref = common_refinement(p, q)
        assert ref.labels == ("0&0", "0&1", "1&0", "1&1")
        for label, member in ref.items():
            lj, lk = label.split("&")
            dense = p.by_label(lj).entries @ q.by_label(lk).entries
            assert member.rank == 2
            assert np.abs(member.entries - dense).max() < 1e-12

    def test_noncommuting_pdis_raise_with_pair(self):
        pz = spectral_decompose(Z).pdi
        px = spectral_decompose(X).pdi
        with pytest.raises(NonCommutingError) as exc:
            common_refinement(pz, px)
        assert exc.value.pair is not None

    def test_pdi_compatible(self):
        pz = spectral_decompose(Z).pdi
        px = spectral_decompose(X).pdi
        assert pdi_compatible(pz, pz)
        assert not pdi_compatible(pz, px)
        assert pdi_compatible(basis_ket(2, 0).projector(), pz)

    def test_noncommuting_pair_past_the_first_member(self):
        # [0] commutes with every member of q; [1] does not commute with [+]
        p = PDI([basis_ket(3, i).projector() for i in range(3)])
        q = PDI(
            [
                basis_ket(3, 0).projector(),
                Ket(np.array([0, 1, 1], dtype=complex)).projector(),
                Ket(np.array([0, 1, -1], dtype=complex)).projector(),
            ]
        )
        assert not pdi_compatible(p, q)
        with pytest.raises(NonCommutingError) as exc:
            common_refinement(p, q)
        assert exc.value.pair == ("1", "1")

    def test_first_clash_is_p_major(self):
        # [0] clashes with [1] and [2] of q, [1] with [0] and [3]: the first pair
        # in p-major order is (0, 1), in q-major order (1, 0)
        p = PDI([basis_ket(4, i).projector() for i in range(4)])
        halves = [[0, 1, 0, 1], [1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, -1]]
        q = PDI([Ket(np.array(v, dtype=complex)).projector() for v in halves])
        with pytest.raises(NonCommutingError) as exc:
            common_refinement(p, q)
        assert exc.value.pair == ("0", "1")

    def test_refinement_labels_do_not_collide(self):
        # P_1 Q_10 and P_11 Q_0 are both nonzero, and "1" + "10" == "11" + "0"
        p = PDI([basis_ket(12, i).projector() for i in range(12)])
        q = PDI([basis_ket(12, i).projector() for i in [11, 10, *range(2, 10), 1, 0]])
        ref = common_refinement(p, q)
        assert len(ref) == 12
        assert {"1&10", "11&0"} <= set(ref.labels)

    @pytest.mark.parametrize("theta, compatible", [(3e-11, True), (9e-11, False)])
    def test_commutation_is_a_frobenius_norm(self, theta, compatible):
        # a rank-1 member rotated by theta: [P, Q] has max entry cos(theta) sin(theta)
        # but Frobenius norm sqrt(2) cos(theta) sin(theta), which is what is
        # certified; the boundary sits at theta = 1e-10 / sqrt(2)
        c, s = math.cos(theta), math.sin(theta)
        p = PDI([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        q = PDI([Ket(np.array(v, dtype=complex)).projector() for v in ([c, s], [-s, c])])
        assert commutator_defect(p.projectors[0].op, q.projectors[0].op) < TOLERANCES.algebraic
        assert pdi_compatible(p, q) == compatible
        assert pdi_compatible(p.projectors[0], q) == compatible
        if not compatible:
            with pytest.raises(NonCommutingError) as exc:
                common_refinement(p, q)
            assert exc.value.pair == ("0", "0")


def pdi_pair_blocks(seed, dim, coordinate, angle):
    """Bases of two PDIs that commute at angle 0: p's blocks from
    isometry_blocks, and q the same columns regrouped by a second partition
    that cuts between p's first two blocks. A nonzero angle rotates q's columns
    in the plane of the last column of p's first block and the first of its
    second, so those members stop commuting. The first member of each side
    holds the rotated column."""
    blocks = isometry_blocks(seed, dim, coordinate, 0.0)
    columns = np.concatenate(blocks, axis=1)
    cut = blocks[0].shape[1]
    c, s = math.cos(angle), math.sin(angle)
    a, b = columns[:, cut - 1].copy(), columns[:, cut].copy()
    columns[:, cut - 1], columns[:, cut] = c * a + s * b, c * b - s * a
    rng = np.random.default_rng([seed, 1])
    extra = rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)), replace=False)
    cuts = sorted({cut, *extra.tolist()})
    regrouped = [columns[:, lo:hi] for lo, hi in zip([0, *cuts], [*cuts, dim])]
    regrouped.insert(0, regrouped.pop(cuts.index(cut)))
    return blocks, regrouped


class TestCommutationScan:
    """The overlap scan behind pdi_compatible and common_refinement against
    dense commutators of the same projectors."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.booleans(),
        st.sampled_from([0.0, 1e-8, 1e-5, 1e-2]),
        st.sampled_from([None, 0, 1]),
        st.sampled_from([None, 0, 1]),
    )
    def test_defects_match_dense_commutators(self, seed, dim, coordinate, angle, lone, zero):
        # `lone` replaces that side by its first nonzero member, as a lone Projector
        # {P, 1 - P}; `zero` inserts a rank-0 member into that side
        bases = pdi_pair_blocks(seed, dim, coordinate, angle)
        sides = [[Projector.from_basis(b) for b in side] for side in bases]
        if zero is not None:
            empty = Projector.from_basis(np.zeros((dim, 0)))
            sides[zero].insert(seed % (len(sides[zero]) + 1), empty)
        args = [PDI(members) for members in sides]
        dense = [[m.entries for m in members] for members in sides]
        if lone is not None:
            args[lone] = sides[lone][0] if sides[lone][0].rank else sides[lone][1]
            dense[lone] = [args[lone].entries, np.eye(dim) - args[lone].entries]

        defects = _commutator_defects(*args)[1]
        assert defects.shape == (len(dense[0]), len(dense[1]))
        rounding = 16 * dim * np.finfo(float).eps
        first = None
        for j, x in enumerate(dense[0]):
            for k, y in enumerate(dense[1]):
                comm = x @ y - y @ x
                assert defects[j, k] + rounding >= np.abs(comm).max()
                assert abs(defects[j, k] - np.linalg.norm(comm)) <= rounding
                if first is None and np.linalg.norm(comm) >= TOLERANCES.algebraic:
                    first = (j, k)
        assert pdi_compatible(*args) == (angle == 0.0) == (first is None)
        if lone is not None:
            return
        p, q = args
        if angle:
            with pytest.raises(NonCommutingError) as exc:
                common_refinement(p, q)
            assert exc.value.pair == (p.labels[first[0]], q.labels[first[1]])
        else:
            assert sum(m.rank for m in common_refinement(p, q).projectors) == dim


# What pdi_validate, Observable.operator and _commutator_defects computed when
# each stacked the member bases anew with np.concatenate; a PDI now reads its
# one stacked basis instead, and must give the same bytes.


def _concat_block_sums(sq, ranks):
    if len(ranks) == sq.shape[0]:
        return sq
    starts = list(itertools.accumulate(ranks[:-1], initial=0))
    return np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)


def _concat_cuts(members):
    return list(itertools.accumulate(m.rank for m in members))[:-1]


def concat_validate(projs):
    dim = projs[0].dim
    ranks = [p.rank for p in projs if p.rank]
    stacked = np.concatenate([p.basis for p in projs], axis=1)
    size = stacked.shape[1]
    gram = stacked.conj().T @ stacked
    diagonal = gram.reshape(-1)[:: size + 1]
    diagonal -= 1.0
    sq = np.square(np.abs(gram))
    complete = math.sqrt(max(0.0, float(sq.sum()) + (dim - size)))
    sq = _concat_block_sums(sq, ranks)
    diagonal = sq.reshape(-1)[:: len(ranks) + 1]
    idem = math.sqrt(float(diagonal.max(initial=0.0)))
    diagonal[:] = 0.0
    ortho = math.sqrt(float(sq.max(initial=0.0)))
    return ortho, idem, complete


def concat_operator(obs):
    projs = obs.pdi.projectors
    stacked = np.concatenate([p.basis for p in projs], axis=1)
    weights = np.repeat(obs.eigenvalues, [p.rank for p in projs])
    return (stacked * weights) @ stacked.conj().T


def concat_commutator_defects(p, q):
    ps, qs = (x.projectors if isinstance(x, PDI) else (x, x.complement()) for x in (p, q))
    overlaps = np.concatenate([pj.basis for pj in ps], axis=1).conj().T
    overlaps = overlaps @ np.concatenate([qk.basis for qk in qs], axis=1)
    live = [j for j, pj in enumerate(ps) if pj.rank]
    ranks = [ps[j].rank for j in live]
    defects = np.zeros((len(ps), len(qs)))
    for k, cols in enumerate(np.split(overlaps, _concat_cuts(qs), axis=1)):
        blocks = _concat_block_sums(np.square(np.abs(cols @ cols.conj().T)), ranks)
        np.fill_diagonal(blocks, 0.0)
        defects[live, k] = np.sqrt(2.0 * blocks.sum(axis=1))
    return overlaps, defects


def random_unitary(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


def degenerate_hermitian(u, spectrum):
    h = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return Operator((h + h.conj().T) / 2)  # Hermitian to the last bit


class TestStackedBasis:
    """A PDI holds one stacked basis W; what reads it matches restacking the
    member bases, byte for byte, on explicit, spectral and refined PDIs."""

    @staticmethod
    def build(kind, seed, dim):
        """An Observable on a PDI of that kind: the spectral one itself, else
        one with eigenvalues n, n - 1, ..., 1 on the n members."""
        rng = np.random.default_rng(seed)
        if kind == "explicit":
            members = [Projector.from_basis(b) for b in isometry_blocks(seed, dim, False, 0.0)]
            for _ in range(int(rng.integers(1, 3))):
                empty = Projector.from_basis(np.zeros((dim, 0)))
                members.insert(int(rng.integers(len(members) + 1)), empty)
            pdi = PDI(members)
            for given, held in zip(members, pdi.projectors):
                assert held.basis.tobytes() == given.basis.tobytes()
        else:
            u = random_unitary(rng, dim)
            obs = spectral_decompose(degenerate_hermitian(u, rng.integers(-2, 3, size=dim)))
            if kind == "spectral":
                return obs
            q = spectral_decompose(degenerate_hermitian(u, rng.integers(-1, 2, size=dim))).pdi
            pdi = common_refinement(obs.pdi, q)
        return Observable(tuple(range(len(pdi), 0, -1)), pdi)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["explicit", "spectral", "refinement"]),
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
    )
    def test_reads_match_restacking(self, kind, seed, dim):
        obs = self.build(kind, seed, dim)
        pdi = obs.pdi
        w = pdi._basis
        assert isinstance(w.base, bytes)
        for member, (lo, hi) in zip(pdi.projectors, zip((0, *pdi._ends), pdi._ends)):
            assert member.basis.base is w
            assert member.basis.shape == (dim, hi - lo)
            assert np.shares_memory(member.basis, w) or hi == lo
            assert not member.basis.flags.writeable
            with pytest.raises(ValueError):
                member.basis.setflags(write=True)

        report = pdi_validate(pdi)
        expected = concat_validate(pdi.projectors)
        got = (report.orthogonality_defect, report.idempotency_defect, report.completeness_defect)
        assert got == expected
        assert pdi_validate(list(pdi.projectors)) == report

        assert obs.operator().entries.tobytes() == concat_operator(obs).tobytes()

        lone = next(m for m in pdi.projectors if m.rank)
        other = self.build("spectral", seed + 1, dim).pdi
        for pair in ((pdi, pdi), (pdi, other), (other, pdi), (pdi, lone), (lone, pdi)):
            for got, expected in zip(_commutator_defects(*pair), concat_commutator_defects(*pair)):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_tiny_override_is_reported_by_the_pdi(self):
        # the eigenvectors' own Gram misses I by rounding, which only the PDI's
        # certificate checks: a tolerance below rounding fails there
        h = degenerate_hermitian(random_unitary(np.random.default_rng(5), 6), [2, 2, 1, 0, 0, 0])
        with override(algebraic=1e-300):
            with pytest.raises(InvalidPDIError, match="not a decomposition of the identity"):
                spectral_decompose(h)
        assert len(spectral_decompose(h).eigenvalues) == 3


class TestPropertyAlgebra:
    def test_possession_is_not_distributive_over_sums(self):
        # chi = (|0> + |1>)/sqrt(2) possesses the span projector [0]+[1]
        # but neither the [0] nor the [1] property alone
        chi = Ket(np.array([1, 1, 0], dtype=complex))
        p0 = basis_ket(3, 0).projector()
        p1 = basis_ket(3, 1).projector()
        span = Projector(p0.op + p1.op)
        assert possesses(chi, span)
        assert not possesses(chi, p0)
        assert not possesses(chi, p1)

    def test_region_projectors(self):
        left = region_projector(6, Region([0, 1, 2]))
        right = region_projector(6, Region([3, 4, 5]))
        assert np.abs(left.entries @ right.entries).max() == 0.0
        assert np.allclose(left.entries + right.entries, np.eye(6))

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region([1, 1])
        with pytest.raises(IndexOutOfRangeError):
            Region([-1])
        with pytest.raises(IndexOutOfRangeError):
            region_projector(3, Region([5]))

    def test_grid_wavefunction(self):
        wf = GridWavefunction(
            np.array([1.0, 1.0, 0.0, 0.0]),
            regions={"left": Region([0, 1]), "right": Region([2, 3])},
        )
        k = wf.as_ket()
        assert possesses(k, region_projector(4, wf.regions["left"]))
        assert not possesses(k, region_projector(4, wf.regions["right"]))
        with pytest.raises(IndexOutOfRangeError):
            GridWavefunction(np.array([1.0, 0.0]), regions={"r": Region([7])})


class TestBuiltinsAndTensors:
    def test_paulis(self):
        assert np.allclose(builtin_operator("Y").entries, [[0, -1j], [1j, 0]])
        assert np.allclose(builtin_operator("I", 3).entries, np.eye(3))

    def test_direction_operator(self):
        assert np.allclose(builtin_operator((0, 0, 1)).entries, Z.entries)
        assert np.allclose(builtin_operator((1, 0, 0)).entries, X.entries)
        w = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        op = builtin_operator(tuple(w))
        assert op.hermiticity_defect() < TOLERANCES.algebraic
        assert np.allclose((op @ op).entries, np.eye(2))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NonUnitDirectionError):
            builtin_operator((1.0, 0.0, 0.1))
        with pytest.raises(NonUnitDirectionError, match="defect nan"):
            builtin_operator((math.nan, 0.0, 0.0))

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            builtin_operator("Q")

    @settings(max_examples=150, deadline=None)
    @given(
        st.tuples(st.integers(1, 8), st.integers(0, 8)),
        st.tuples(st.integers(1, 8), st.integers(0, 8)),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["matrices", "kets", "views"]),
        st.integers(0, 2**32 - 1),
    )
    def test_kron_matches_numpy(self, shape_a, shape_b, complex_a, complex_b, form, seed):
        # a zero second entry makes a (d, 0) basis; "kets" draws 1-D operands, and
        # "views" takes the left matrix as a column block of a wider one, as a
        # PDI member's basis is
        rng = np.random.default_rng(seed)

        def draw(shape, is_complex):
            real = rng.standard_normal(shape)
            return real + 1j * rng.standard_normal(shape) if is_complex else real

        a, b = draw(shape_a, complex_a), draw(shape_b, complex_b)
        if form == "kets":
            a, b = draw(shape_a[0], complex_a), draw(shape_b[0], complex_b)
        elif form == "views":
            a = draw((shape_a[0], shape_a[1] + 2), complex_a)[:, 1 : shape_a[1] + 1]
        got, expected = hilbert._kron(a, b), np.kron(a, b)
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_tensor_product_and_state(self):
        assert np.allclose(
            tensor_product(Z, X).entries, np.kron(Z.entries, X.entries)
        )
        k = tensor_state(basis_ket(2, 0), basis_ket(3, 2))
        assert k.dim == 6
        assert k.amplitudes[2] == 1.0

    def test_partial_trace(self):
        singlet = Ket(np.array([0, 1, -1, 0], dtype=complex))
        rho = Operator(np.outer(singlet.amplitudes, singlet.amplitudes.conj()))
        reduced = partial_trace(rho, (2, 2), keep=0)
        assert np.abs(reduced.entries - np.eye(2) / 2).max() < 1e-12
        reduced_b = partial_trace(rho, (2, 2), keep=1)
        assert np.abs(reduced_b.entries - np.eye(2) / 2).max() < 1e-12


class TestInputGuards:
    @pytest.mark.parametrize(
        "call, error, fragment",
        [
            (lambda: Operator(np.ones((2, 3))), ValueError, "expected a square matrix"),
            (lambda: pdi_validate([]), ValueError, "empty projector list"),
            (
                lambda: PDI(spectral_decompose(Z).pdi.projectors, labels=("up",)),
                ValueError,
                "2 projectors but 1 labels",
            ),
            (
                lambda: Observable((1.0,), spectral_decompose(Z).pdi),
                ValueError,
                "one eigenvalue per projector",
            ),
            (lambda: region_projector(0, Region([])), ValueError, "grid size must be positive"),
            (
                lambda: builtin_operator((1.0, 0.0)),
                UnknownNameError,
                "exactly three components",
            ),
            (
                lambda: partial_trace(tensor_product(Z, Z), (2, 2), keep=2),
                ValueError,
                "keep must be 0 or 1",
            ),
        ],
        ids=[
            "non-square",
            "empty-pdi",
            "label-count",
            "eigenvalue-count",
            "grid-size-0",
            "two-vector-direction",
            "keep-2",
        ],
    )
    def test_rejected_with_reason(self, call, error, fragment):
        with pytest.raises(error, match=fragment):
            call()


def _dimension_guard_sites():
    """(call, message) for every entry point that checks that its operands share
    a space, each called on operands that do not."""
    i3 = builtin_operator("I", 3)
    k2, k3, k4 = basis_ket(2, 0), basis_ket(3, 0), basis_ket(4, 0)
    pz, p3 = spectral_decompose(Z).pdi, spectral_decompose(i3).pdi
    ops4 = bell.singlet_chsh_operators()
    z_eye, eye_z = (spectral_decompose(op).pdi for op in (ops4.a0, tensor_product(I2, Z)))
    grid2 = histories.TimeGrid(("t0", "t1"), (I2,))
    model = histories.build_measurement_model(spectral_decompose(Z), pointer_dim=3)
    singlet = bell.singlet_state()
    sites = [
        ("Ket.inner", lambda: k2.inner(k3), "ket dims differ: 2 vs 3"),
        ("Operator.__add__", lambda: Z + i3, "operator dims differ: 2 vs 3"),
        ("Operator.__sub__", lambda: Z - i3, "operator dims differ: 2 vs 3"),
        ("Operator.__matmul__", lambda: Z @ i3, "operator dims differ: 2 vs 3"),
        ("Operator.expectation", lambda: Z.expectation(k3),
         "state and operator dims differ: 3 vs 2"),
        ("commutator_defect", lambda: commutator_defect(Z, i3),
         "operator dims differ: 2 vs 3"),
        ("pdi_validate", lambda: pdi_validate([pz.projectors[0], p3.projectors[0]]),
         "projector dims differ: 2 vs 3"),
        ("possesses", lambda: possesses(k3, pz.projectors[0]),
         "ket and projector dims differ: 3 vs 2"),
        ("pdi_compatible", lambda: pdi_compatible(pz, p3), "PDI dims differ: 2 vs 3"),
        ("partial_trace", lambda: partial_trace(Z, (2, 2), keep=0),
         "operator and factor product dims differ: 2 vs 4"),
        ("CHSHOperators", lambda: bell.CHSHOperators(ops4.a0, ops4.a1, ops4.b0, Z),
         "A0 and B1 dims differ: 4 vs 2"),
        ("chsh_value", lambda: bell.chsh_value(k2, ops4),
         "state and operator dims differ: 2 vs 4"),
        ("lambda_model_fixed_settings",
         lambda: bell.lambda_model_fixed_settings(k2, ops4, bell.SettingPair(0, 0)),
         "state and operator dims differ: 2 vs 4"),
        ("joint_probabilities", lambda: bell.joint_probabilities(k4, pz, p3),
         "state and factor product dims differ: 4 vs 6"),
        ("collapse_conditional",
         lambda: bell.collapse_conditional(k4, pz.projectors[0], p3.projectors[0]),
         "state and factor product dims differ: 4 vs 6"),
        ("no_signaling_check", lambda: bell.no_signaling_check(k4, [pz], pz, (2, 3)),
         "state and factor product dims differ: 4 vs 6"),
        ("no_signaling_check T_a",
         lambda: bell.no_signaling_check(singlet, [z_eye], eye_z, (2, 2), (i3, I2)),
         "T_a and Alice factor dims differ: 3 vs 2"),
        ("no_signaling_check T_b",
         lambda: bell.no_signaling_check(singlet, [z_eye], eye_z, (2, 2), (I2, i3)),
         "T_b and Bob factor dims differ: 3 vs 2"),
        ("TimeGrid", lambda: histories.TimeGrid(("t0", "t1", "t2"), (I2, i3)),
         "propagator dims differ: 2 vs 3"),
        ("HistoryFamily initial", lambda: histories.HistoryFamily(grid2, k3, (pz,)),
         "initial state and grid dims differ: 3 vs 2"),
        ("HistoryFamily events", lambda: histories.HistoryFamily(grid2, k2, (p3,)),
         "event PDI and grid dims differ: 3 vs 2"),
        ("standard_families", lambda: histories.standard_families(model, k3),
         "state and system dims differ: 3 vs 2"),
        ("sample_pdi", lambda: sampler.sample_pdi(k3, pz, sampler.RunConfig(10, 1)),
         "state and PDI dims differ: 3 vs 2"),
    ]
    return [pytest.param(call, message, id=name) for name, call, message in sites]


class TestDimensionGuard:
    @pytest.mark.parametrize("call, message", _dimension_guard_sites())
    def test_names_both_dimensions(self, call, message):
        with pytest.raises(DimensionMismatchError) as info:
            call()
        assert str(info.value) == message
