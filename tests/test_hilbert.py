"""State, operator, and decomposition layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histories_kit.config import TOLERANCES
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
    builtin_operator,
    common_refinement,
    commutes,
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

    def test_amplitudes_read_only(self):
        k = basis_ket(2, 0)
        with pytest.raises(ValueError):
            k.amplitudes[0] = 5.0


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

    def test_hermitian_unitary_flags(self):
        assert Z.is_hermitian() and Z.is_unitary()
        upper = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not upper.is_hermitian()
        assert not upper.is_unitary()

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

    def test_rank_and_complement(self):
        p = basis_ket(3, 0).projector()
        assert p.rank == 1
        c = p.complement()
        assert c.rank == 2
        assert np.allclose(p.entries + c.entries, np.eye(3))

    def test_disjoint_projector_product_is_zero(self):
        p = basis_ket(4, 1).projector()
        q = basis_ket(4, 2).projector()
        assert np.abs(p.entries @ q.entries).max() == 0.0

    def test_from_basis(self):
        rng = np.random.default_rng(5)
        vecs = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0][:, :2]
        p = Projector.from_basis(vecs)
        outer = vecs @ vecs.conj().T
        assert np.array_equal(p.entries, (outer + outer.conj().T) / 2.0)
        assert p.rank == 2
        assert not p.basis.flags.writeable and not p.entries.flags.writeable
        assert Projector(Operator(p.entries)).basis is None
        with pytest.raises(ValueError):
            Projector.from_basis(vecs * (1 + 1e-9))  # columns not unit length
        with pytest.raises(ValueError):
            Projector.from_basis(vecs[:, 0])  # not a (d, r) array


class TestPDI:
    def test_default_labels(self):
        pdi = PDI([basis_ket(2, 0).projector(), basis_ket(2, 1).projector()])
        assert pdi.labels == ("0", "1")
        assert pdi.by_label("1").rank == 1
        with pytest.raises(KeyError):
            pdi.by_label("nope")

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
        float(np.abs(a @ b).max()) for j, a in enumerate(mats) for b in mats[j + 1 :]
    )
    idem = max(float(np.abs(a @ a - a).max()) for a in mats)
    return ortho, idem


class TestGramCertificate:
    """pdi_validate on basis-built members against dense products of the same matrices."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.booleans(),
        st.sampled_from([0.0, 1e-8, 1e-5, 1e-2]),
    )
    def test_reported_defects_bound_dense_defects(self, seed, dim, coordinate, angle):
        projs = [Projector.from_basis(b) for b in isometry_blocks(seed, dim, coordinate, angle)]
        report = pdi_validate(projs)
        ortho, idem = dense_defects(projs)
        rounding = 16 * dim * np.finfo(float).eps  # error of the dense products themselves
        assert report.orthogonality_defect + rounding >= ortho
        assert report.idempotency_defect + rounding >= idem
        assert report.passes == (angle == 0.0)

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
        if all(p.basis is not None for p in mixed):  # keep one bare member
            mixed[-1] = Projector(Operator(mixed[-1].entries))
        dense = [Projector(Operator(p.entries)) for p in mixed]
        report, reference = pdi_validate(mixed), pdi_validate(dense)
        assert report.passes == reference.passes == (angle == 0.0)
        assert report.completeness_defect == reference.completeness_defect
        rounding = 16 * dim * np.finfo(float).eps
        assert report.orthogonality_defect + rounding >= reference.orthogonality_defect


class TestRefinementAndCompatibility:
    def test_common_refinement_of_commuting_pdis(self):
        zi = spectral_decompose(tensor_product(Z, I2)).pdi
        iz = spectral_decompose(tensor_product(I2, Z)).pdi
        ref = common_refinement(zi, iz)
        assert len(ref) == 4
        assert set(ref.labels) == {"00", "01", "10", "11"}
        assert all(p.rank == 1 for p in ref.projectors)

    def test_rank_zero_products_dropped(self):
        pdi = spectral_decompose(Z).pdi
        ref = common_refinement(pdi, pdi)
        assert len(ref) == 2
        assert set(ref.labels) == {"00", "11"}

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

    def test_commutes(self):
        assert commutes(Z, Z)
        assert not commutes(Z, X)
        assert commutes(tensor_product(Z, I2), tensor_product(I2, X))


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
        assert op.is_hermitian()
        assert np.allclose((op @ op).entries, np.eye(2))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NonUnitDirectionError):
            builtin_operator((1.0, 0.0, 0.1))
        with pytest.raises(NonUnitDirectionError, match="defect nan"):
            builtin_operator((math.nan, 0.0, 0.0))

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            builtin_operator("Q")

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
