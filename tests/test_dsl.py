"""Experiment-description language: parsing, validation, rendering, fuzzing."""

import io
import json
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from histories_kit import cli
from histories_kit.bell import CHSHOperators, chsh_value, no_signaling_check
from histories_kit.dsl import (
    BellQuery,
    ConditionalQuery,
    ExperimentSpec,
    KetDecl,
    SampleQuery,
    _Parser,
    _Token,
    _tokenize,
    parse_spec,
    render_spec,
)
from histories_kit.errors import DimensionMismatchError, ParseError, ResolutionError
from histories_kit.hilbert import Ket, builtin_operator, spectral_decompose
from histories_kit.sampler import MAX_SHOTS, RunConfig, sample_pdi

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
            (f"ket k = [1, 0, {BIG}]\n", 16),
            (f"ket k = [0, 1 - {BIG}i]\n", 17),
        ],
        ids=[
            "scalar",
            "imag-scalar",
            "sigma-angle",
            "ket-entry",
            "ket-imag-part",
            "ket-entry-late",
            "ket-imag-part-late",
        ],
    )
    def test_number_out_of_range_is_located(self, source, column):
        err = first_error(source)
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column) == (1, column)
        assert "number out of range" in err.message

    TOP = "1" + "0" * 308  # 1e308, in range, but twice it is not

    @pytest.mark.parametrize(
        "expr",
        [
            f"{TOP}*X + {TOP}*X",
            f"-{TOP}*X - {TOP}*X",
            f"{TOP}*X * 10",
            f"{TOP}*proj(a) + {TOP}*proj(a)",
            f"kron({TOP}*X, 10*X)",
            f"{TOP}*X*B",
        ],
        ids=["sum", "difference", "scaled", "projector-sum", "kron", "composition"],
    )
    def test_overflowing_operator_is_located(self, expr):
        # every literal is in range; the operator arithmetic is not, and used to
        # bind an operator with inf entries (or raise a RuntimeWarning); A stays
        # unbound, so line 4, which uses it, reports it as unknown
        err = first_error(f"ket a = [1, 0]\nop B = 2*X\nop A = {expr}\npdi P = spectral(A)\n")
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column) == (3, 4)
        assert err.message == "operator entries overflow the float range"
        assert [(e.line, e.column, e.message) for e in err.all_errors[1:]] == [
            (4, 18, "unknown name 'A'")
        ]

    def test_overflowing_spectrum_is_located(self):
        # entries of 1.7e308 are finite, but the eigenvalues +-sqrt(2)*1.7e308 are
        # not; grouping them used to give "eigenvalues must be finite, got (nan,)"
        # after numpy's RuntimeWarning, which the warning filter makes the error
        top = "17" + "0" * 307
        err = first_error(f"op H = {top}*X + {top}*Z\npdi P = spectral(H)\n")
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column) == (2, 18)
        assert err.message == "operator spectrum overflows the float range"

    def test_spectrum_near_the_float_range_decomposes(self):
        top = "12" + "0" * 307  # eigenvalues +-1.7e308, still finite
        spec = parse_spec(f"ket k = [1, 0]\nop H = {top}*X + {top}*Z\npdi P = spectral(H)\n")
        pdi = spec.environment["P"].value
        assert len(pdi) == 2
        result = sample_pdi(spec.environment["k"].value, pdi, RunConfig(shots=1000, seed=1))
        assert sum(result.counts.values()) == 1000

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

    def test_parse_error_count_capped_at_twenty(self):
        # parse errors, unlike lex errors, stop the parse at the twentieth
        src = "".join(f"op A{i} = )\n" for i in range(25))
        err = first_error(src)
        assert [e.line for e in err.all_errors] == list(range(1, 21))

    # a ket, an operator and its spectral PDI on lines 1-3
    PREFIX = "ket a = [1, 0]\nop A = Z\npdi P = spectral(A)\n"
    FAMILY = "family F {\n initial a;\n events 1 = P;\n}\n"

    @pytest.mark.parametrize(
        "source, line, column, message, error_class",
        [
            ("pdi Q = {P}\n", 4, 10, "'P' is a pdi, not a ket or operator", ResolutionError),
            (
                "family F {\n initial a;\n initial a;\n events 1 = P;\n}\n",
                6, 2, "initial state declared twice", ResolutionError,
            ),
            (
                "family F {\n initial a;\n events 0 = P;\n}\n",
                6, 9, "time indices start at 1", ResolutionError,
            ),
            (
                "family F {\n initial a;\n events 1 = P;\n events 1 = P;\n}\n",
                7, 9, "events 1 declared twice", ResolutionError,
            ),
            (
                FAMILY + "query conditional F 1:0 | 1:1.5\n",
                8, 29, "expected an event label (name or integer)", ParseError,
            ),
            (
                "query sample a P shots 10 seed 18446744073709551616\n",
                4, 32, "seed must fit in 64 unsigned bits", ResolutionError,
            ),
            (
                "query nosignal a dims 0 2 alice P bob P\n",
                4, 23, "local dimensions start at 1", ResolutionError,
            ),
            ("op B = spectral + Z\n", 4, 8, "'spectral' cannot be used here", ParseError),
        ],
        ids=[
            "pdi-member-is-pdi",
            "initial-twice",
            "time-index-zero",
            "events-twice",
            "decimal-event-label",
            "seed-past-64-bits",
            "zero-local-dimension",
            "spectral-in-expression",
        ],
    )
    def test_diagnostic_is_located(self, source, line, column, message, error_class):
        err = first_error(self.PREFIX + source)
        assert (err.line, err.column, err.message) == (line, column, message)
        assert type(err) is error_class
        assert len(err.all_errors) == 1

    @pytest.mark.parametrize(
        "body, first",
        [
            (" initial a;\n events 1 = P\n", (6, 14, "expected ';'")),
            (" initial a;\n initial a;\n events 1 = P;\n", (6, 2, "initial state declared twice")),
        ],
        ids=["missing-semicolon", "initial-twice"],
    )
    def test_family_block_error_resumes_after_the_block(self, body, first):
        # no error at the block's "}", and a later statement that uses F
        # still reports F as unknown
        src = self.PREFIX + "family F {\n" + body + "}\nquery probs F\n"
        last = src.count("\n")
        err = first_error(src)
        assert [(e.line, e.column, e.message) for e in err.all_errors] == [
            first,
            (last, 13, "unknown name 'F'"),
        ]

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                "ket a = [1, 0, 0]\npdi P = {a}\nop B = )\n",
                [(2, 5, "not a decomposition of the identity"), (3, 8, "expected an operator")],
            ),
            (
                "op A = Q\nop B = )\nop C = )\n",
                [
                    (1, 4, "unknown name 'Q'"),
                    (2, 8, "expected an operator"),
                    (3, 8, "expected an operator"),
                ],
            ),
            (
                PREFIX + "family X {\n initial a;\n events 1 = P;\n}\nquery probs X\nop B = )\n",
                [
                    (4, 8, "'X' is reserved"),
                    (8, 13, "unknown name 'X'"),
                    (9, 8, "expected an operator"),
                ],
            ),
            (
                "family X\n initial a;\nop B = )\n",
                [
                    (1, 8, "'X' is reserved"),
                    (2, 2, "unknown statement 'initial'"),
                    (3, 8, "expected an operator"),
                ],
            ),
        ],
        ids=["resolution-error", "line-end", "header-opens-a-block", "header-without-block"],
    )
    def test_recovery_keeps_the_next_statement(self, source, expected):
        # a statement that failed after reading its line end leaves the next
        # one to be parsed; a header error skips the block its line opens, and
        # only that line when it opens none
        found = first_error(source).all_errors
        assert [(e.line, e.column) for e in found] == [(line, col) for line, col, _ in expected]
        for err, (*_, start) in zip(found, expected):
            assert err.message.startswith(start)

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
        assert (err.line, err.column, err.message) == (8, 21, "time index 2 outside 1..1")

    def test_conditional_unknown_label(self):
        src = (
            "ket zero = [1, 0]\n"
            "op FZ = Z\n"
            "pdi PZ = spectral(FZ)\n"
            "family F {\n  initial zero;\n  events 1 = PZ;\n}\n"
            "query conditional F 1:nope | GIVEN\n"
        )
        # the target is checked before the given event, each at its time index
        for given in ("1:0", "2:0"):
            err = first_error(src.replace("GIVEN", given))
            assert isinstance(err, ResolutionError)
            message = "no event labeled 'nope' at time 1"
            assert (err.line, err.column, err.message) == (8, 21, message)
        err = first_error(src.replace("1:nope | GIVEN", "1:0 | 1:nope"))
        assert (err.column, err.message) == (27, "no event labeled 'nope' at time 1")

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

    # a one-qubit PDI or operator against a two-qubit state, at the token
    # naming it, with the message of the library call the query makes
    DIM_MISMATCHES = {
        "sample": ("query sample k P shots 10 seed 1", 16, "state and PDI dims differ: 4 vs 2"),
        "nosignal": (
            "query nosignal k dims 2 2 alice P bob P",
            33,
            "operator and factor product dims differ: 2 vs 4",
        ),
        "chsh": ("query chsh A A A A in k", 12, "state and operator dims differ: 4 vs 2"),
    }

    @pytest.mark.parametrize("kind", sorted(DIM_MISMATCHES))
    def test_dimension_mismatch_matches_library(self, kind, tmp_path, capsys):
        query, column, message = self.DIM_MISMATCHES[kind]
        src = "ket k = [1, 0, 0, 0]\nop A = Z\npdi P = spectral(A)\n" + query + "\n"
        err = first_error(src)
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column, err.message) == (4, column, message)

        state = Ket(np.array([1, 0, 0, 0], dtype=complex))
        z = builtin_operator("Z")
        pdi = spectral_decompose(z).pdi
        library = {
            "sample": lambda: sample_pdi(state, pdi, RunConfig(shots=10, seed=1)),
            "nosignal": lambda: no_signaling_check(state, [pdi], pdi, (2, 2)),
            "chsh": lambda: chsh_value(state, CHSHOperators(z, z, z, z)),
        }[kind]
        with pytest.raises(DimensionMismatchError) as exc_info:
            library()
        assert str(exc_info.value) == message

        spec = tmp_path / f"{kind}.spec"
        spec.write_text(src)
        assert cli.execute(["run", str(spec)], out=io.StringIO()) == 1
        assert capsys.readouterr().err == f"line 4, col {column}: {message}\n"


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

    def test_exponent_reprs_render_as_plain_decimals(self):
        # repr gives 1e-05 and 1.2345678901234568e+29; the language has no exponents
        spec = parse_spec("ket a = [0.00001, 123456789012345678901234567890]\n")
        rendered = render_spec(spec)
        assert rendered == "ket a = [0.00001, 123456789012345680000000000000]\n"
        assert "e" not in rendered.split("=", 1)[1]
        assert parse_spec(rendered) == spec

    def test_normalized_amplitudes_round_trip(self):
        # rendering writes the stored (normalized) amplitudes
        spec = parse_spec("ket a = [3, 4]\n")
        decl = spec.declarations[0]
        assert isinstance(decl, KetDecl)
        again = parse_spec(render_spec(spec))
        assert np.abs(
            again.environment["a"].value.amplitudes - np.array([0.6, 0.8])
        ).max() < 1e-12


_WS = st.text(alphabet=" \t", max_size=2)
# ASCII digits plus two non-ASCII decimal digits, which float() also reads
_DIGITS = st.text(alphabet="0123456789٣５", min_size=1, max_size=6)


@st.composite
def _number(draw, digits=_DIGITS):
    whole, frac = draw(digits), draw(digits)
    return draw(st.sampled_from([whole, whole + ".", f"{whole}.{frac}", "." + frac]))


@st.composite
def _entry(draw):
    """One literal entry and its value by the language's sign rules: a
    leading minus negates the first component, the infix sign the second."""
    negate = draw(st.booleans())
    lead = "-" + draw(_WS) if negate else ""
    a = draw(_number())
    form = draw(st.sampled_from(["a", "ai", "a+bi", "a-bi"]))
    first = -float(a) if negate else float(a)
    if form == "a":
        return lead + a, complex(first, 0.0)
    if form == "ai":
        return lead + a + "i", complex(0.0, first)
    b, sign = draw(_number()), form[1]
    text = f"{lead}{a}{draw(_WS)}{sign}{draw(_WS)}{b}i"
    return text, complex(first, float(b) if sign == "+" else -float(b))


@st.composite
def _literal(draw):
    # a trailing 1 keeps the ket nonzero
    entries = draw(st.lists(_entry(), min_size=0, max_size=12)) + [("1", 1 + 0j)]
    body = ",".join(draw(_WS) + text + draw(_WS) for text, _ in entries)
    return f"[{body}]", tuple(value for _, value in entries)


def _same_bits(x: float, y: float) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestLiterals:
    BIG = TestLoadErrors.BIG
    # a second, independent error on line 3 shows that recovery resumes
    # on the line after the literal
    TAIL = "\nket j = [1, 0]\nop A = ?\n"

    @settings(max_examples=300, deadline=None)
    @given(_literal())
    def test_amplitudes_match_the_token_walk(self, literal):
        text, expected = literal
        spec = parse_spec(f"ket k = {text}\n")
        amplitudes = spec.declarations[0].amplitudes
        assert len(amplitudes) == len(expected)
        for got, want in zip(amplitudes, expected):
            assert _same_bits(got.real, want.real), (got, want)
            assert _same_bits(got.imag, want.imag), (got, want)
        assert parse_spec(render_spec(spec)) == spec

    @pytest.mark.parametrize(
        "literal, column, message",
        [
            ("[1, 0", 14, "expected ']'"),
            ("[1 + 2]", 12, "expected ']'"),
            ("[2i + 3i]", 13, "expected ']'"),
            ("[- - 1]", 12, "expected a number"),
            ("[1,, 2]", 12, "expected a number"),
            ("[]", 10, "expected a number"),
            ("[1, 2,]", 15, "expected a number"),
            ("[1e-3, 0]", 11, "expected ']'"),
            ("[1+2i 3]", 15, "expected ']'"),
            ("[1, $, 0]", 13, "unexpected character '$'"),
            ("[1, # 0]", 17, "expected a number"),
            ("[[1, 0]]", 10, "expected a number"),
            ("[1, 0] x", 16, "unexpected trailing input"),
        ],
        ids=[
            "unclosed",
            "real-plus-real",
            "imag-plus-imag",
            "double-minus",
            "double-comma",
            "empty",
            "trailing-comma",
            "exponent",
            "complex-entry-missing-comma",
            "dollar",
            "comment",
            "nested",
            "trailing-input",
        ],
    )
    def test_malformed_literal_diagnostics(self, literal, column, message):
        err = first_error(f"ket k = {literal}{self.TAIL}")
        assert (err.line, err.column, err.message) == (1, column, message)
        assert len(err.all_errors) == 2
        last = err.all_errors[1]
        assert (last.line, last.column, last.message) == (3, 8, "unexpected character '?'")

    def test_literal_outside_a_ket_is_located_at_its_bracket(self):
        err = first_error("op A = [1, 0]\n")
        assert (err.line, err.column, err.message) == (1, 8, "expected an operator expression")

    def test_vector_length_capped(self):
        err = first_error("ket k = [" + ", ".join(["1"] * 1025) + "]\n")
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column, err.message) == (1, 9, "vector longer than 1024")
        assert len(err.all_errors) == 1

    def test_out_of_range_number_outranks_length(self):
        err = first_error("ket k = [" + ", ".join(["1"] * 1025 + [self.BIG]) + "]\n")
        assert (err.column, err.message) == (10 + 3 * 1025, "number out of range")

    @pytest.mark.parametrize("ending", ["", " - 3 ]"], ids=["unclosed", "real-minus-real"])
    def test_malformed_long_literal_fails_in_linear_time(self, ending):
        # two spaces after each comma: a whitespace pattern that can split a
        # run two ways backtracks exponentially on these
        line = "ket k = [" + ",  ".join(["1"] * 4096) + ending
        column = len(line) + 1 if not ending else line.index(ending) + 2
        start = time.perf_counter()
        err = first_error(line + "\n")
        elapsed = time.perf_counter() - start
        assert (err.line, err.column, err.message) == (1, column, "expected ']'")
        assert elapsed < 1.0, f"4096-entry malformed literal took {elapsed:.3f}s >= 1.0s"

    @pytest.mark.parametrize("piece, column", [("[", 10), ("[1 ", 12)], ids=["brackets", "entries"])
    def test_many_opening_brackets_lex_in_linear_time(self, piece, column):
        # every "[" before the one "]" could start a literal; scanning each
        # to the "]" would take time quadratic in the line's length
        line = "ket k = " + piece * 40_000 + "]"
        start = time.perf_counter()
        err = first_error(line + "\n")
        elapsed = time.perf_counter() - start
        assert (err.line, err.column) == (1, column)
        assert elapsed < 1.0, f"{len(line)}-character line took {elapsed:.3f}s >= 1.0s"


# The lexer before ket literals were converted by dsl._literal, kept as the
# oracle for it: one regex whose `vector` alternative matches a whole
# well-formed literal on one line, whose entries complex() then converts.
_ORACLE_NUM = r"(?:\d+\.\d*|\.\d+|\d+)"
_ORACLE_ENTRY = rf"(?:-[ \t]*)?{_ORACLE_NUM}(?:i|[ \t]*[+\-][ \t]*{_ORACLE_NUM}i)?"
_ORACLE_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>[ \t]+)
    | (?P<vector>\[[ \t]*{_ORACLE_ENTRY}(?:[ \t]*,[ \t]*{_ORACLE_ENTRY})*[ \t]*\])
    | (?P<imag>{_ORACLE_NUM}i\b)
    | (?P<number>{_ORACLE_NUM})
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[={{}}\[\](),;:|+\-*])
    """,
    re.VERBOSE,
)
_ORACLE_TO_COMPLEX = str.maketrans("i", "j", "[] \t")


def _oracle_amplitudes(vector_text: str) -> tuple[complex, ...]:
    return tuple(map(complex, vector_text.translate(_ORACLE_TO_COMPLEX).split(",")))


def _oracle_tokenize(source: str) -> tuple[list[_Token], list[ParseError]]:
    tokens, errors = [], []
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r").split("#", 1)[0]
        pos, line_start = 0, len(tokens)
        while pos < len(line):
            m = _ORACLE_TOKEN_RE.match(line, pos)
            if m is None:
                errors.append(
                    ParseError(lineno, pos + 1, f"unexpected character {line[pos]!r}", line[pos])
                )
                del tokens[line_start:]
                break
            kind, text = m.lastgroup.upper(), m.group()
            if kind == "VECTOR":
                value = np.array(_oracle_amplitudes(text), dtype=complex)
                tokens.append(_Token(kind, text, lineno, pos + 1, value))
            elif kind != "WS":
                tokens.append(_Token(kind, text, lineno, pos + 1))
            pos = m.end()
        tokens.append(_Token("NEWLINE", "", lineno, len(raw) + 1))
    tokens.append(_Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return tokens, errors


def _where(err: ParseError) -> tuple[int, int, str]:
    return err.line, err.column, err.message


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


_ASCII_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=20)


@st.composite
def _real_entry(draw):
    return draw(st.sampled_from(["", "-"])) + draw(_number(_ASCII_DIGITS))


# entries just outside the grammar, or inside it but off the real-only path
_NEAR_MISSES = [
    "1e5", "inf", "nan", "1_0", "+1", "- 1", "-\t1", "1 2", "1..2", ".", "-", "",
    "1+i", "i", "1+2i", "-2.5i", "1 - 2", "--1", "2i + 3i", "1ia", "$", "[", "9" * 400,
]


@st.composite
def _literal_text(draw):
    """A ket literal mixing real entries, entries of the whole grammar and
    near misses; it may lack its ']' or have text after it."""
    entry = st.one_of(
        _real_entry(), _real_entry(), _entry().map(lambda e: e[0]), st.sampled_from(_NEAR_MISSES)
    )
    body = ",".join(draw(_WS) + e + draw(_WS) for e in draw(st.lists(entry, max_size=8)))
    return "[" + body + draw(st.sampled_from(["]", "]", "]", "", "] x", "]]", " [1]"]))


class TestLexerAgainstOracle:
    """The literal converter against the whole-literal regex it replaced:
    the same tokens, bit-equal amplitudes, and the same errors."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_literal_text())
    @example("[1e5]")
    @example("[inf]")
    @example("[nan]")
    @example("[1_0]")
    @example("[+1]")
    @example("[- 1]")
    @example("[-\t1]")
    @example("[1 2]")
    @example("[1..2]")
    @example("[.]")
    @example("[-]")
    @example("[]")
    @example("[1,]")
    @example("[,1]")
    @example("[1+i]")
    @example("[i]")
    @example("[1+2i]")
    @example("[-2.5i]")
    @example("[" + "9" * 400 + ", 1]")
    @example("[\t-0.5\t,\t1 ,  .25\t]")
    @example("[1, 0")
    def test_matches_the_whole_literal_regex(self, literal):
        source = f"ket j = [1, 0]\nket k = {literal}\n"
        tokens, errors = _tokenize(source)
        want_tokens, want_errors = _oracle_tokenize(source)
        assert [t[:4] for t in tokens] == [t[:4] for t in want_tokens]
        assert list(map(_where, errors)) == list(map(_where, want_errors))
        for got, want in zip(tokens, want_tokens):
            if got.kind == "VECTOR":
                assert _bits(got.value) == _bits(want.value), got.text
        # the parser run on the oracle's tokens (their amplitudes from complex())
        # stands for the old parse
        try:
            _Parser(want_tokens, want_errors).parse()
        except ParseError as want_err:
            err = first_error(source)
            assert list(map(_where, err.all_errors)) == list(map(_where, want_err.all_errors))
            return
        spec = parse_spec(source)
        vectors = [t.text for t in want_tokens if t.kind == "VECTOR"]
        for decl, text in zip(spec.declarations, vectors, strict=True):
            want = _oracle_amplitudes(text)
            assert repr(decl.amplitudes) == repr(want)
            ket = spec.environment[decl.name].value
            assert _bits(ket.amplitudes) == _bits(Ket(np.array(want, dtype=complex)).amplitudes)


def _spectral_spec(dim: int, seed: int) -> str:
    """spec text of spectral(H), H written as the projector sum over a random
    real orthonormal basis, entries as signed 17-digit decimals"""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0].T  # rows are orthonormal
    lines = [f"ket v{i} = [{', '.join(f'{x: .17f}' for x in row)}]" for i, row in enumerate(basis)]
    lines.append("op H = " + " + ".join(f"{1.0 + 0.05 * i:.6f}*proj(v{i})" for i in range(dim)))
    lines.append("pdi P = spectral(H)")
    return "\n".join(lines) + "\n"


_KET_STATEMENT = re.compile(r"\s*ket\s+(\w+)\s*=\s*(\[[^\]]*\])\s*")


class TestKetLiteralValues:
    SOURCES = {p.stem: p.read_text() for p in CORPUS} | {"d96": _spectral_spec(96, 96)}

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_amplitudes_kets_and_rendering(self, name):
        source = self.SOURCES[name]
        spec = parse_spec(source)
        literals = {}
        for line in source.split("\n"):
            m = _KET_STATEMENT.fullmatch(line.split("#", 1)[0])
            if m:
                literals[m[1]] = m[2]
        decls = [d for d in spec.declarations if isinstance(d, KetDecl)]
        assert [d.name for d in decls] == list(literals)
        for decl in decls:
            want = _oracle_amplitudes(literals[decl.name])
            assert all(type(z) is complex for z in decl.amplitudes)
            assert list(map(repr, decl.amplitudes)) == list(map(repr, want))
            # the ket as built from the complex() tuple, bit for bit
            ket = spec.environment[decl.name].value
            assert _bits(ket.amplitudes) == _bits(Ket(np.array(want, dtype=complex)).amplitudes)
        rendered = render_spec(spec)
        assert render_spec(parse_spec(rendered)) == rendered


def _projector(amplitudes) -> np.ndarray:
    return Ket(np.array(amplitudes, dtype=complex)).projector().entries


def _pauli(name: str) -> np.ndarray:
    return builtin_operator(name).entries


# Hermitian dense terms by dimension, as (text, matrix); N is declared as the last
_DENSE = {
    2: [("X", _pauli("X")), ("I(2)", np.eye(2, dtype=complex))],
    3: [("I(3)", np.eye(3, dtype=complex))],
    4: [("kron(X, Z)", np.kron(_pauli("X"), _pauli("Z"))), ("I(4)", np.eye(4, dtype=complex))],
    8: [("kron(X, kron(Y, Z))", np.kron(_pauli("X"), np.kron(_pauli("Y"), _pauli("Z"))))],
}
_QUARTERS = st.integers(-4, 4).map(lambda n: n / 4)


@st.composite
def _chain_ket(draw, dim):
    parts = draw(st.lists(st.tuples(_QUARTERS, _QUARTERS), min_size=dim, max_size=dim))
    if not any(re or im for re, im in parts):
        parts[0] = (1.0, 0.0)
    text = [f"{re}" if im == 0 else f"{re}{'+' if im > 0 else '-'}{abs(im)}i" for re, im in parts]
    return f"[{', '.join(text)}]", [complex(re, im) for re, im in parts]


@st.composite
def _chain(draw):
    """A +/- chain at a random dimension, as (spec text, terms). Each term is
    (sign, matrix, kind, c): kind "proj" for c*proj(v) in one of its forms,
    "dense" for a Hermitian operator, "product" for proj(u)*proj(w); c is
    the coefficient of a "proj" term, else None."""
    dim = draw(st.sampled_from([2, 3, 4, 8]))
    kets = [draw(_chain_ket(dim)) for _ in range(draw(st.integers(1, 3)))]
    projectors = [_projector(amplitudes) for _, amplitudes in kets]
    named = _DENSE[dim][-1]
    dense = _DENSE[dim] + [("N", named[1])]
    lines = [f"ket k{i} = {text}" for i, (text, _) in enumerate(kets)]
    lines.append(f"op N = {named[0]}")
    body, terms = [], []
    for index in range(draw(st.integers(2, 8))):
        sign = "+" if index == 0 else draw(st.sampled_from("+-"))
        kind = draw(st.sampled_from(["proj", "proj", "dense", "product"]))
        k = draw(st.integers(0, len(kets) - 1))
        if kind == "proj":
            coeff = draw(st.integers(0, 4000)) / 1000
            imaginary = draw(st.booleans())
            c = complex(0.0, coeff) if imaginary else complex(coeff, 0.0)
            c_text = f"{coeff}i" if imaginary else f"{coeff}"
            form = draw(st.sampled_from(["c*p", "p*c", "-c*p", "p", "-p"]))
            text = {"c*p": f"{c_text}*proj(k{k})", "p*c": f"proj(k{k})*{c_text}",
                    "-c*p": f"-{c_text}*proj(k{k})", "p": f"proj(k{k})",
                    "-p": f"-proj(k{k})"}[form]
            value = {"c*p": c, "p*c": c, "-c*p": -c, "p": 1.0 + 0.0j, "-p": -1.0 + 0.0j}[form]
            matrix = projectors[k] * value
        elif kind == "dense":
            text, matrix = draw(st.sampled_from(dense))
        else:
            j = draw(st.integers(0, len(kets) - 1))
            text, matrix = f"proj(k{k})*proj(k{j})", projectors[k] @ projectors[j]
        body.append(text if index == 0 else f"{sign} {text}")
        terms.append((sign, matrix, kind, value if kind == "proj" else None))
    lines.append("op H = " + " ".join(body))
    return "\n".join(lines) + "\n", terms


class TestChains:
    KETS = "ket a = [1, 0]\nket b = [0, 1]\nket c = [1, 0, 0]\nop A = X\n"
    # a second, independent error on line 6 shows that recovery resumes
    TAIL = "\nop B = ?\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("proj(a) + 2*proj(b) + proj(c) + proj(a)", "operator dims differ: 2 vs 3"),
            ("proj(c) + X", "operator dims differ: 3 vs 2"),
            ("X + proj(a) + kron(X, Z)", "operator dims differ: 2 vs 4"),
            ("-proj(a) - -2*proj(c)", "operator dims differ: 2 vs 3"),
            ("X*Z*proj(c)", "operator dims differ: 2 vs 3"),
            ("proj(a) - proj(b) + 0.5*proj(zz) + proj(a)", "unknown name 'zz'"),
            ("proj(a)*2*proj(zz)", "unknown name 'zz'"),
            ("proj(c) + X + proj(zz)", "operator dims differ: 3 vs 2"),
            ("1 + proj(a)", "cannot apply '+' to an operator and a scalar"),
            ("proj(a) + 1", "cannot apply '+' to an operator and a scalar"),
            ("proj(a) - 2", "cannot apply '-' to an operator and a scalar"),
            ("1 + 2 - proj(a)", "cannot apply '-' to an operator and a scalar"),
            ("proj(a) + 1 + proj(zz)", "cannot apply '+' to an operator and a scalar"),
            ("2 + 3", "operator expression evaluates to a bare scalar"),
            ("kron(1 + 2, X)", "kron needs two operators"),
            ("proj(a) + proj(A)", "'A' is a op, expected a ket"),
        ],
        ids=[
            "ket-dim-mid-chain",
            "projector-then-dense",
            "dense-dims",
            "negated-terms",
            "product-dims",
            "unknown-third-term",
            "unknown-in-product",
            "dims-before-unknown",
            "scalar-then-operator",
            "operator-then-scalar",
            "operator-minus-scalar",
            "scalar-chain-then-operator",
            "kind-before-unknown",
            "bare-scalar",
            "kron-of-scalar-sum",
            "proj-of-op",
        ],
    )
    def test_chain_diagnostics(self, body, message):
        # pinned from the term-by-term evaluation: each check fires at the
        # op name, in source order
        err = first_error(f"{self.KETS}op H = {body}{self.TAIL}")
        assert isinstance(err, ResolutionError)
        assert (err.line, err.column, err.message) == (5, 4, message)
        assert len(err.all_errors) == 2
        last = err.all_errors[1]
        assert (last.line, last.column, last.message) == (6, 8, "unexpected character '?'")

    @settings(max_examples=300, deadline=None)
    @given(_chain())
    def test_chain_matches_left_to_right_sum(self, chain):
        text, terms = chain
        spec = parse_spec(text)
        got = spec.environment["H"].value.entries
        want = terms[0][1]
        for sign, matrix, _, _ in terms[1:]:
            want = want + matrix if sign == "+" else want - matrix
        coeffs = [c for _, _, kind, c in terms if kind == "proj"]
        if not coeffs:
            assert got.tobytes() == want.tobytes()
        else:
            scale = sum(float(np.abs(matrix).max()) for _, matrix, _, _ in terms)
            assert np.abs(got - want).max() <= 1e-13 * scale
        if all(c.imag == 0 for c in coeffs) and all(kind != "product" for *_, kind, _ in terms):
            assert np.array_equal(got, got.conj().T)
        assert parse_spec(render_spec(spec)) == spec

    def test_chains_without_projector_terms_sum_bit_for_bit(self):
        # measurement.spec's pointer shift: products of projectors, summed
        spec = parse_spec((SPEC_DIR / "measurement.spec").read_text())
        env = spec.environment
        kets = {d.name: d.amplitudes for d in spec.declarations if isinstance(d, KetDecl)}
        proj = {name: _projector(amplitudes) for name, amplitudes in kets.items()}
        shift = (
            ((proj["p1"] * 2) @ proj["m01"]) @ proj["p0"]
            + ((proj["p2"] * 2) @ proj["m12"]) @ proj["p1"]
            + ((proj["p0"] * 2) @ proj["m20"]) @ proj["p2"]
        )
        t = np.kron(proj["s0"], shift) + np.kron(proj["s1"], shift @ shift)
        assert env["SHIFT"].value.entries.tobytes() == shift.tobytes()
        assert env["T"].value.entries.tobytes() == t.tobytes()

        # a criterion-13-style sum of scaled kron terms at d = 16
        factors, dim = 4, 16
        terms, want = [], None
        for k in range(factors):
            theta = 10.0 + 17.0 * k
            terms.append(
                f"{2**k / dim}*kron(I({2**k}), kron(sigma({theta}), I({2 ** (factors - 1 - k)})))"
            )
            angle = np.radians(theta)
            sigma = builtin_operator((np.sin(angle), 0.0, np.cos(angle))).entries
            eye = np.eye(2 ** (factors - 1 - k), dtype=complex)
            term = np.kron(np.eye(2**k, dtype=complex), np.kron(sigma, eye)) * (2**k / dim)
            want = term if want is None else want + term
        got = parse_spec(f"op H = {' + '.join(terms)}\n").environment["H"].value.entries
        assert got.tobytes() == want.tobytes()

    def test_long_chains_run(self, tmp_path):
        # 2,000 terms and 2,000 factors: H = 500 [a] - 250 [b] and U = -X
        n = 2000
        terms = ["0.5*proj(a)" if k % 2 == 0 else "proj(b)*0.25" for k in range(n)]
        body = " + ".join(" - ".join(terms[k : k + 2]) for k in range(0, n, 2))
        sums = f"op H = {body}\npdi P = spectral(H)\nquery sample a P shots 1000 seed 1\n"
        products = "op U = -1*" + "*".join(["X"] * (n - 1))
        products += "\npdi P = spectral(U)\nquery sample s P shots 1000 seed 1\n"
        cases = [
            (sums, "H", np.diag([500.0, -250.0]), 500.0),
            (products, "U", -_pauli("X"), -1.0),
        ]
        kets = "ket a = [1, 0]\nket b = [0, 1]\nket s = [1, 1]\n"
        for decls, name, closed_form, mean in cases:
            spec = parse_spec(kets + decls)
            assert np.array_equal(spec.environment[name].value.entries, closed_form)
            assert parse_spec(render_spec(spec)) == spec
            path = tmp_path / f"{name}.spec"
            path.write_text(kets + decls)
            out = io.StringIO()
            assert cli.execute(["run", str(path), "--format", "json"], out=out) == 0
            (result,) = json.loads(out.getvalue())["results"]
            assert abs(result["empirical_mean"] - mean) < 1e-9


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
