"""Experiment-description language: parsing, validation, rendering, fuzzing."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from histories_kit.dsl import (
    BellQuery,
    ConditionalQuery,
    ExperimentSpec,
    KetDecl,
    SampleQuery,
    parse_spec,
    render_spec,
)
from histories_kit.errors import ParseError, ResolutionError
from histories_kit.sampler import MAX_SHOTS

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
CORPUS = sorted(SPEC_DIR.glob("*.spec"))


def first_error(source):
    with pytest.raises(ParseError) as exc_info:
        parse_spec(source)
    return exc_info.value


class TestCorpus:
    def test_corpus_present(self):
        assert len(CORPUS) >= 6

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_round_trip(self, path):
        text = path.read_text()
        once = parse_spec(text)
        rendered = render_spec(once)
        again = parse_spec(rendered)
        assert once == again
        # canonical form is a fixed point
        assert render_spec(again) == rendered

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_every_query_resolved(self, path):
        spec = parse_spec(path.read_text())
        assert spec.queries


class TestDeclarations:
    def test_operator_kron(self):
        spec = parse_spec("op A0 = kron(Z, I(2))\n")
        op = spec.environment["A0"].value
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.abs(op.entries - np.kron(z, np.eye(2))).max() < 1e-12

    def test_ket_with_explicit_complex_entries(self):
        spec = parse_spec("ket psi = [0.7071+0i, 0, 0, 0.7071+0i]\n")
        ket = spec.environment["psi"].value
        assert abs(np.linalg.norm(ket.amplitudes) - 1) < 1e-12

    def test_complex_literal_forms(self):
        spec = parse_spec("ket v = [-1+2i, -2.5i, 1-2i, 3]\n")
        amps = parse_spec(render_spec(spec)).environment["v"].value.amplitudes
        raw = np.array([-1 + 2j, -2.5j, 1 - 2j, 3], dtype=complex)
        assert np.abs(amps - raw / np.linalg.norm(raw)).max() < 1e-12

    def test_pdi_spectral(self):
        spec = parse_spec("op A = Z\npdi P = spectral(A)\n")
        binding = spec.environment["P"]
        assert len(binding.value.projectors) == 2
        assert binding.extra == (1.0, -1.0)

    def test_pdi_explicit_members(self):
        src = "ket a = [1, 0]\nket b = [0, 1]\npdi P = {a, b}\n"
        spec = parse_spec(src)
        assert spec.environment["P"].value.labels == ("a", "b")

    def test_scalar_times_operator(self):
        spec = parse_spec("op A = 2*Z - -1*X\n")
        op = spec.environment["A"].value
        expected = np.array([[2, 1], [1, -2]], dtype=complex)
        assert np.abs(op.entries - expected).max() < 1e-12

    def test_sigma_angle(self):
        spec = parse_spec("op A = sigma(45)\n")
        op = spec.environment["A"].value
        r = 1 / math.sqrt(2)
        assert np.abs(op.entries - np.array([[r, r], [r, -r]])).max() < 1e-12

    def test_family_block(self):
        src = (
            "ket zero = [1, 0]\n"
            "op FZ = Z\n"
            "pdi PZ = spectral(FZ)\n"
            "family F {\n"
            "  initial zero;\n"
            "  events 1 = PZ;\n"
            "}\n"
        )
        spec = parse_spec(src)
        fam = spec.environment["F"].value
        assert fam.n_times == 1

    def test_crlf_and_comments_accepted(self):
        spec = parse_spec("# heading\r\nket a = [1, 0]\r\n\r\n# tail\r\n")
        assert "a" in spec.environment

    def test_spectral_requires_declared_name(self):
        # builtins are not declared names; spectral() wants a prior op decl
        err = first_error("pdi PZ = spectral(Z)\n")
        assert isinstance(err, ResolutionError)


class TestLoadErrors:
    BIG = "1" + "0" * 309  # 1e309, past the largest float (about 1.8e308)

    @pytest.mark.parametrize(
        "source, column",
        [
            (f"op A = {BIG} * Z\npdi P = spectral(A)\n", 8),
            (f"op A = {BIG}i * Z\n", 8),
            (f"op A = sigma(-{BIG})\n", 15),
            (f"ket k = [{BIG}, 0]\n", 10),
            (f"ket k = [1 - {BIG}i, 0]\n", 14),
        ],
        ids=["scalar", "imag-scalar", "sigma-angle", "ket-entry", "ket-imag-part"],
    )
    def test_number_out_of_range_is_located(self, source, column):
        err = first_error(source)
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column) == (1, column)
        assert "number out of range" in err.message

    def test_unknown_name_is_resolution_error(self):
        err = first_error("pdi P = spectral(A9)\n")
        assert isinstance(err, ResolutionError)
        assert err.line == 1

    def test_forward_reference_rejected(self):
        err = first_error("op A = B\nop B = Z\n")
        assert isinstance(err, ResolutionError)
        assert err.line == 1

    def test_duplicate_name(self):
        err = first_error("ket a = [1, 0]\nket a = [0, 1]\n")
        assert err.line == 2

    def test_reserved_names_rejected(self):
        for name in ("I", "X", "Y", "Z", "sigma", "kron", "proj", "spectral"):
            err = first_error(f"op {name} = Z\n")
            assert err.line == 1

    def test_kind_mismatch(self):
        err = first_error("ket a = [1, 0]\nop B = a\n")
        assert isinstance(err, ResolutionError)
        assert err.line == 2

    def test_zero_ket_rejected_at_load(self):
        err = first_error("ket a = [0, 0]\n")
        assert isinstance(err, ResolutionError)

    def test_bare_scalar_operator_rejected(self):
        assert first_error("op A = 2\n").line == 1

    def test_dim_cap_on_identity(self):
        err = first_error("op A = I(9999)\n")
        assert err.line == 1

    def test_dim_cap_on_kron_product(self):
        src = "op A = kron(I(512), I(512))\n"
        assert first_error(src).line == 1

    def test_expression_depth_cap(self):
        expr = "Z"
        for _ in range(80):
            expr = f"kron({expr}, I(1))"
        err = first_error(f"op A = {expr}\n")
        assert err.line == 1

    def test_spectral_of_non_hermitian(self):
        # 2*proj(b)*proj(m)*proj(a) = |b><a| when m is the midpoint state
        src = (
            "ket a = [1, 0]\n"
            "ket b = [0, 1]\n"
            "ket m = [0.7071, 0.7071]\n"
            "op N = 2*proj(b)*proj(m)*proj(a)\n"
            "pdi P = spectral(N)\n"
        )
        err = first_error(src)
        assert isinstance(err, ResolutionError)
        assert err.line == 5

    def test_explicit_pdi_member_not_projector(self):
        err = first_error("op A = X\npdi P = {A}\n")
        assert isinstance(err, ResolutionError)

    def test_incomplete_pdi_rejected(self):
        err = first_error("ket a = [1, 0, 0]\npdi P = {a}\n")
        assert isinstance(err, ResolutionError)

    def test_error_location_points_into_source(self):
        src = "ket ok = [1, 0]\nop bad = kron(Z,\n"
        err = first_error(src)
        lines = src.splitlines()
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1

    def test_recovery_collects_multiple_errors(self):
        src = "op a1 = ?\nket a2 = [1, 0]\nop a3 = !\nop a4 = unknownref\n"
        err = first_error(src)
        assert len(err.all_errors) == 3
        assert [e.line for e in err.all_errors] == [1, 3, 4]
        assert err.line == 1

    def test_error_count_capped_at_twenty(self):
        src = "".join(f"op b{i} = ?\n" for i in range(50))
        err = first_error(src)
        assert len(err.all_errors) == 20

    def test_exponent_notation_rejected(self):
        assert first_error("ket a = [1e-3, 0]\n") is not None


class TestQueryValidation:
    PREFIX = (
        "ket top = [0.70710678, 0, 0, 0.70710678]\n"
        "op A0 = kron(Z, I(2))\n"
        "op A1 = kron(X, I(2))\n"
        "op B0 = kron(I(2), X)\n"
        "op B1 = kron(I(2), Z)\n"
        "pdi PA0 = spectral(A0)\n"
    )

    def test_chsh_query_parses(self):
        spec = parse_spec(self.PREFIX + "query chsh A0 A1 B0 B1 in top\n")
        q = spec.queries[0]
        assert isinstance(q, BellQuery)
        assert (q.kind, q.a0, q.a1, q.b0, q.b1, q.state) == ("chsh", "A0", "A1", "B0", "B1", "top")

    def test_chsh_dim_mismatch(self):
        src = self.PREFIX + "ket small = [1, 0]\nquery chsh A0 A1 B0 B1 in small\n"
        err = first_error(src)
        assert isinstance(err, ResolutionError)
        assert err.line == 8

    def test_chsh_wrong_kind(self):
        err = first_error(self.PREFIX + "query chsh A0 A1 B0 top in top\n")
        assert isinstance(err, ResolutionError)

    def test_conditional_index_range(self):
        src = (
            "ket zero = [1, 0]\n"
            "op FZ = Z\n"
            "pdi PZ = spectral(FZ)\n"
            "family F {\n  initial zero;\n  events 1 = PZ;\n}\n"
            "query conditional F 2:0 | 1:0\n"
        )
        err = first_error(src)
        assert isinstance(err, ResolutionError)
        assert err.line == 8

    def test_conditional_unknown_label(self):
        src = (
            "ket zero = [1, 0]\n"
            "op FZ = Z\n"
            "pdi PZ = spectral(FZ)\n"
            "family F {\n  initial zero;\n  events 1 = PZ;\n}\n"
            "query conditional F 1:nope | 1:0\n"
        )
        assert isinstance(first_error(src), ResolutionError)

    def test_sample_query_parses(self):
        spec = parse_spec(self.PREFIX + "query sample top PA0 shots 100 seed 3\n")
        q = spec.queries[0]
        assert isinstance(q, SampleQuery)
        assert (q.shots, q.seed) == (100, 3)

    def test_sample_shots_positive(self):
        err = first_error(self.PREFIX + "query sample top PA0 shots 0 seed 3\n")
        assert isinstance(err, ResolutionError)

    def test_sample_shots_bounded(self):
        ok = parse_spec(self.PREFIX + f"query sample top PA0 shots {MAX_SHOTS} seed 3\n")
        assert ok.queries[0].shots == MAX_SHOTS
        err = first_error(self.PREFIX + f"query sample top PA0 shots {MAX_SHOTS + 1} seed 3\n")
        assert isinstance(err, ResolutionError)
        # located at the shot count, after "query sample top PA0 shots "
        assert (err.line, err.column) == (7, 28)
        assert str(MAX_SHOTS) in err.message

    def test_tiny_spectral_split_parses(self):
        # +-5e-9 sit one grouping gap apart and merge into one eigenspace
        spec = parse_spec("op H = 0.000000005*Z\npdi P = spectral(H)\n")
        assert spec.environment["P"].extra == (0.0,)

    def test_sample_dim_mismatch(self):
        src = self.PREFIX + "op FZ = Z\npdi PZ = spectral(FZ)\nquery sample top PZ shots 10 seed 3\n"
        assert isinstance(first_error(src), ResolutionError)

    def test_nosignal_dims_must_factor_state(self):
        src = self.PREFIX + "query nosignal top dims 2 3 alice PA0 bob PA0\n"
        assert isinstance(first_error(src), ResolutionError)

    def test_probs_requires_family(self):
        err = first_error(self.PREFIX + "query probs A0\n")
        assert isinstance(err, ResolutionError)


class TestRendering:
    def test_canonical_spacing(self):
        spec = parse_spec("op A = kron( Z ,I(2) )\n")
        assert "op A = kron(Z, I(2))" in render_spec(spec)

    def test_empty_spec_renders_empty(self):
        spec = parse_spec("")
        assert render_spec(spec) == ""
        assert spec == ExperimentSpec(declarations=(), queries=(), environment={})

    def test_comments_are_not_preserved(self):
        spec = parse_spec("# note\nket a = [1, 0]\n")
        assert "#" not in render_spec(spec)

    def test_family_renders_as_block(self):
        src = (
            "ket zero = [1, 0]\n"
            "op FZ = Z\n"
            "pdi PZ = spectral(FZ)\n"
            "family F {\n  initial zero;\n  events 1 = PZ;\n}\n"
        )
        rendered = render_spec(parse_spec(src))
        assert "family F {" in rendered
        assert "  initial zero;" in rendered

    def test_normalized_amplitudes_round_trip(self):
        # rendering writes the stored (normalized) amplitudes
        spec = parse_spec("ket a = [3, 4]\n")
        decl = spec.declarations[0]
        assert isinstance(decl, KetDecl)
        again = parse_spec(render_spec(spec))
        assert np.abs(
            again.environment["a"].value.amplitudes - np.array([0.6, 0.8])
        ).max() < 1e-12


def mutate(data, rng):
    out = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        if not out:
            out.append(rng.randrange(256))
            continue
        pos = rng.randrange(len(out))
        choice = rng.random()
        if choice < 0.5:
            out[pos] = rng.randrange(256)
        elif choice < 0.75:
            del out[pos]
        else:
            out.insert(pos, rng.randrange(256))
    return bytes(out)


class TestFuzz:
    def test_mutated_corpus_never_crashes(self):
        rng = random.Random(0xC0FFEE)
        blobs = [p.read_bytes() for p in CORPUS]
        for _ in range(2500):
            text = mutate(rng.choice(blobs), rng).decode("utf-8", errors="replace")
            try:
                parse_spec(text)
            except ParseError:
                pass

    def test_garbage_lines(self):
        for junk in ("\x00\x01\x02", "}}}}", "query", "ket = =", "[1,2,3]", "op  = Z"):
            with pytest.raises(ParseError):
                parse_spec(junk + "\n")
