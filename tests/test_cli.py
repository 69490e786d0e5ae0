"""Command-line interface: golden outputs, exit codes, tolerance plumbing."""

import io
import json
import math
import sys
import threading
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories_kit import cli, hilbert
from histories_kit.config import TOLERANCES, tolerances
from histories_kit.dsl import parse_spec
from histories_kit.hilbert import (
    PDI,
    Ket,
    Operator,
    Projector,
    builtin_operator,
    commutator_defect,
)
from histories_kit.histories import HistoryFamily, TimeGrid
from histories_kit.sampler import MAX_SHOTS, RunConfig, sample_pdi

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

INCONSISTENT_WITH_PROBS = """\
ket zero = [1, 0]
ket one = [0, 1]
ket plus = [0.7071, 0.7071]
ket minus = [0.7071, -0.7071]
pdi PM = {plus, minus}
pdi ZB = {zero, one}
family IF {
  initial zero;
  events 1 = PM;
  events 2 = ZB;
}
query probs IF
"""


def run_cli(argv, monkeypatch=None, pin_version=True):
    if pin_version and monkeypatch is not None:
        monkeypatch.setattr(cli, "TOOL_VERSION", "TEST")
    buf = io.StringIO()
    code = cli.execute(argv, out=buf)
    return code, buf.getvalue()


def human_block(entry: dict) -> list[str]:
    """The human lines of one `run` result, rebuilt from its JSON entry at 6
    significant digits."""
    g = "{:.6g}".format
    lines = [f"== {entry['query']} =="]
    kind = entry["kind"]
    if kind in ("chsh", "lhv"):
        lines += [f"  E({a},{b}) = {g(entry['e'][a][b])}" for a in (0, 1) for b in (0, 1)]
        lines.append(f"  S = {g(entry['s'])}")
    if kind == "chsh":
        lines.append(f"  direct expectation = {g(entry['direct_expectation'])}")
    elif kind == "lhv" and entry["feasible"]:
        lines.append(f"  feasible (max |CHSH combination| = {g(entry['max_combination'])} <= 2)")
        lines.append("  witness mixture:")
        for item in entry["mixture"]:
            values = zip(("a0", "a1", "b0", "b1"), item["strategy"])
            strategy = " ".join(f"{name}={v:+d}" for name, v in values)
            lines.append(f"    weight {g(item['weight'])} on strategy {strategy}")
    elif kind == "lhv":
        lines.append(f"  infeasible (max |CHSH combination| = {g(entry['max_combination'])} > 2)")
        signs = tuple(entry["violated_signs"])
        lines.append(f"    signs {signs} give {g(entry['violated_value'])}, outside [-2, 2]")
    elif kind == "probs":
        lines += [f"  Pr({key}) = {g(p)}" for key, p in entry["probabilities"].items()]
        omitted = "" if entry["exhaustive"] else f" (omitted {g(entry['omitted'])})"
        lines.append(f"  total = {g(entry['total'])}{omitted}")
    elif kind == "consistency":
        verdict = "consistent" if entry["consistent"] else "INCONSISTENT"
        lines.append(
            f"  {verdict}: max off-diagonal {g(entry['max_offdiag'])} "
            f"(tolerance {g(entry['tolerance'])}, {entry['n_histories']} histories)"
        )
    elif kind == "conditional":
        lines.append(f"  Pr({entry['target']} | {entry['given']}) = {g(entry['probability'])}")
    elif kind == "sample":
        lines.append(f"  shots {entry['shots']}, seed {entry['seed']}")
        for label, n in entry["counts"].items():
            lines.append(f"  {label}: {n} (Born {g(entry['probabilities'][label])})")
        if entry["empirical_mean"] is not None:
            lines.append(f"  mean = {g(entry['empirical_mean'])} +- {g(entry['std_error'])}")
    elif kind == "nosignal":
        verdict = "passes" if entry["passes"] else "FAILS"
        lines.append(
            f"  no-signaling {verdict}: max marginal deviation "
            f"{g(entry['max_deviation'])} (tolerance {g(entry['tolerance'])})"
        )
    return lines


class TestGolden:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("neon.json", ["neon", "--format", "json"]),
            ("epr.json", ["epr", "--format", "json"]),
            ("lhv-bound.json", ["lhv-bound", "--format", "json"]),
            (
                "lhv-check-feasible.json",
                ["lhv-check", "0.5", "0.3", "0.2", "-0.1", "--format", "json"],
            ),
            ("lhv-check-infeasible.json", ["lhv-check", "1", "1", "1", "-1", "--format", "json"]),
        ],
    )
    def test_builtin_commands(self, name, argv, monkeypatch):
        code, out = run_cli(argv, monkeypatch)
        assert code == 0
        assert out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize("stem", [path.stem for path in sorted(SPEC_DIR.glob("*.spec"))])
    def test_run_reports(self, stem, monkeypatch):
        code, out = run_cli(
            ["run", str(SPEC_DIR / f"{stem}.spec"), "--format", "json"], monkeypatch
        )
        assert code == 0
        assert out == (GOLDEN_DIR / f"run-{stem}.json").read_text()

    def test_json_is_parseable_and_newline_terminated(self, monkeypatch):
        code, out = run_cli(["neon", "--format", "json"], monkeypatch)
        assert out.endswith("\n")
        payload = json.loads(out)
        assert payload["metadata"]["version"] == "TEST"


class TestExitCodes:
    def test_success(self):
        code, _ = run_cli(["lhv-bound"])
        assert code == 0

    def test_missing_file_is_load_failure(self, capsys):
        code, _ = run_cli(["run", "/nonexistent/x.spec"])
        assert code == 1

    def test_undecodable_file_is_load_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_bytes(b"ket a = [1, 0]\xff\n")
        code, _ = run_cli(["run", str(bad)])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("op A = ?\nket b = [\n")
        code, _ = run_cli(["run", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "line 2" in err

    def test_numeric_contract_violation(self, tmp_path):
        spec = tmp_path / "inconsistent.spec"
        spec.write_text(INCONSISTENT_WITH_PROBS)
        code, _ = run_cli(["run", str(spec)])
        assert code == 2

    def test_rank_zero_member_samples(self, tmp_path):
        spec = tmp_path / "zero.spec"
        spec.write_text(
            "ket plus = [1, 1]\nop O = 0*X\nop ID = I(2)\npdi P = {O, ID}\n"
            "query sample plus P shots 100 seed 3\n"
        )
        code, out = run_cli(["run", str(spec), "--format", "json"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["counts"] == {"O": 0, "ID": 100}
        assert result["probabilities"] == {"O": 0.0, "ID": 1.0}

    def test_merged_eigenvalues_pass_the_chsh_check(self, tmp_path):
        # a's two eigenvalues merge at their mean; the per-setting sum (0) and the
        # direct <S> (-4.32e-10) differ by more than the algebraic tolerance alone
        spec = tmp_path / "merged.spec"
        spec.write_text(
            "ket e0 = [1, 0]\nket e1 = [0, 1]\nop a = proj(e0) + 0.99999999955*proj(e1)\n"
            "op A0 = kron(a, I(2))\nop A1 = -1*A0\nop B0 = kron(I(2), X)\n"
            "op B1 = kron(I(2), Z)\nket s = [0.1, 0.7, 0.7, 0.1]\n"
            "query chsh A0 A1 B0 B1 in s\n"
        )
        code, out = run_cli(["run", str(spec), "--format", "json"])
        assert code == 0
        assert abs(json.loads(out)["results"][0]["s"]) < 1e-12

    def test_usage_error(self, capsys):
        code, _ = run_cli([])
        assert code == 64
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _ = run_cli(["frobnicate"])
        assert code == 64

    def test_bad_flag_value(self, capsys):
        code, _ = run_cli(["lhv-check", "1", "1", "1", "not-a-number"])
        assert code == 64

    def test_help_exits_zero(self, capsys):
        assert cli.execute(["--help"]) == 0

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--shots", "0"),
            ("--shots", "-5"),
            ("--shots", "1.5"),
            ("--seed", "-1"),
            ("--seed", "18446744073709551616"),
            ("--seed", "abc"),
            ("--shots", str(MAX_SHOTS + 1)),
            ("--alice-deg", "nan"),
            ("--alice-deg", "inf"),
            ("--bob-deg", "nan"),
        ],
    )
    def test_bad_shots_or_seed_is_usage_error(self, flag, value, capsys):
        # epr angle flags take two values; the bad one comes first
        argv = ["epr", flag, value, "0"] if flag.endswith("-deg") else ["neon", flag, value]
        code, out = run_cli([*argv, "--format", "json"])
        assert code == 64
        assert out == ""
        err = capsys.readouterr().err
        assert flag in err
        assert repr(value) in err

    def test_extreme_valid_shots_and_seed(self):
        code, out = run_cli(
            ["neon", "--shots", "1", "--seed", "18446744073709551615", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["sampled"]["seed"] == 2**64 - 1

    def test_non_finite_correlator_is_contract_violation(self, capsys):
        code, out = run_cli(["lhv-check", "nan", "0", "0", "0", "--format", "json"])
        assert code == 2
        assert out == ""
        assert "finite" in capsys.readouterr().err

    def test_correlator_above_one_is_a_one_line_violation(self, capsys):
        code, out = run_cli(["lhv-check", "1.5", "0", "0", "0"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.splitlines() == [
            "ValueError: correlator magnitude exceeds 1: [[1.5, 0.0], [0.0, 0.0]]"
        ]


class TestParserReuse:
    # the epr default angle lists go straight into the payload: a command that
    # mutated them would change every later epr report of the process
    SEQUENCE = [
        ["epr", "--alice-deg", "0", "90", "--format", "json"],
        ["epr", "--format", "json"],
        ["run", str(SPEC_DIR / "neon.spec"), "--tol", "1e-6", "--format", "json"],
        ["run", str(SPEC_DIR / "neon.spec"), "--format", "json"],
        ["epr", "--alice-deg", "0"],
        ["lhv-bound", "--format", "json"],
    ]
    GOLDEN = {1: "epr.json", 3: "run-neon.json", 5: "lhv-bound.json"}

    def test_one_parser_serves_a_sequence_of_commands(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TOOL_VERSION", "TEST")

        def outcome(argv):
            code, out = run_cli(argv)
            return code, out, capsys.readouterr().err

        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        cli._build_parser.cache_clear()
        shared = [outcome(argv) for argv in self.SEQUENCE]
        assert cli._build_parser() is cli._build_parser()
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 64, 0]
        assert shared == fresh
        for index, name in self.GOLDEN.items():
            assert shared[index][1] == (GOLDEN_DIR / name).read_text()


class TestToleranceOverrides:
    def test_env_var_loosens_consistency(self, monkeypatch):
        spec = str(SPEC_DIR / "interference.spec")
        code, strict = run_cli(["run", spec, "--format", "json"])
        assert json.loads(strict)["results"][0]["consistent"] is False

        monkeypatch.setenv("HISTORIES_KIT_TOL", "0.3")
        code, loose = run_cli(["run", spec, "--format", "json"])
        assert code == 0
        result = json.loads(loose)["results"][0]
        assert result["consistent"] is True
        assert result["tolerance"] == 0.3

    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("HISTORIES_KIT_TOL", "0.3")
        spec = str(SPEC_DIR / "interference.spec")
        code, out = run_cli(["run", spec, "--format", "json", "--tol", "1e-10"])
        assert code == 0
        assert json.loads(out)["results"][0]["consistent"] is False

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_rejects_non_finite_or_non_positive(self, source, value, monkeypatch, capsys):
        argv = ["epr", "--format", "json"]
        if source == "flag":
            argv += ["--tol", value]
        else:
            monkeypatch.setenv("HISTORIES_KIT_TOL", value)
        code, out = run_cli(argv)
        assert code == 64
        assert out == ""
        err = capsys.readouterr().err
        assert ("--tol" if source == "flag" else "HISTORIES_KIT_TOL") in err
        assert repr(value) in err

    def test_tolerances_restored_after_run(self, monkeypatch):
        before = asdict(tolerances())
        monkeypatch.setenv("HISTORIES_KIT_TOL", "0.5")
        run_cli(["run", str(SPEC_DIR / "interference.spec")])
        assert asdict(tolerances()) == before

    def test_override_does_not_leak_across_threads(self):
        z = builtin_operator("Z")
        a = z + 0.01 * builtin_operator("X")  # [Z, A] has defect 0.02: 0.5 would pass it
        reports = []

        def worker():
            for _ in range(4):
                argv = ["neon", "--tol", "0.5", "--shots", "1000", "--format", "json"]
                reports.append(run_cli(argv))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared override would show
        try:
            thread = threading.Thread(target=worker)
            thread.start()
            seen, leaks = set(), 0
            deadline = time.monotonic() + 60
            while thread.is_alive() and time.monotonic() < deadline:
                seen.add(tolerances().algebraic)
                leaks += commutator_defect(z, a) < tolerances().algebraic
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert seen == {TOLERANCES.algebraic}
        assert leaks == 0
        # the override did apply inside the worker's own runs
        assert [code for code, _ in reports] == [0] * 4
        for _, out in reports:
            assert json.loads(out)["metadata"]["tolerances"]["algebraic"] == 0.5


BELL_SPEC = """\
ket s = [0, 1, -1, 0]
ket t = [0.6, 0, 0, 0.8]
op A0 = kron(sigma(100), I(2))
op A1 = kron(sigma(10), I(2))
op B0 = kron(I(2), sigma(55))
op B1 = kron(I(2), sigma(145))
pdi PA0 = spectral(A0)
pdi PA1 = spectral(A1)
pdi PB0 = spectral(B0)
query chsh A0 A1 B0 B1 in s
query lhv A0 A1 B0 B1 in s
query nosignal s dims 2 2 alice PA0 PA1 bob PB0
"""


class TestDecompositionCounts:
    """Each operator is decomposed once per run, and the chsh and lhv queries
    on one setup share one evaluation."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"pdi_validate": 0, "chsh_value": []}
        validate, evaluate = hilbert.pdi_validate, cli.chsh_value

        def counting_validate(projectors):
            calls["pdi_validate"] += 1
            return validate(projectors)

        def recording_chsh_value(state, ops):
            calls["chsh_value"].append(evaluate(state, ops))
            return calls["chsh_value"][-1]

        monkeypatch.setattr(hilbert, "pdi_validate", counting_validate)
        monkeypatch.setattr(cli, "chsh_value", recording_chsh_value)
        return calls

    def test_bell_spec_decomposes_four_operators_and_evaluates_once(
        self, tmp_path, counted, reachable_arrays, assert_frozen
    ):
        spec = tmp_path / "bell.spec"
        spec.write_text(BELL_SPEC)
        code, out = run_cli(["run", str(spec), "--format", "json"])
        assert code == 0
        assert counted["pdi_validate"] == 4
        (value,) = counted["chsh_value"]
        chsh, lhv, _ = json.loads(out)["results"]
        assert chsh["e"] == lhv["e"] and chsh["s"] == lhv["s"]
        assert abs(abs(chsh["s"]) - 2 * math.sqrt(2)) < 1e-9
        # the shared evaluation exposes no writeable array
        arrays = reachable_arrays(value)
        assert len(arrays) == 1 + 8  # the correlator table and 4 x 2 eigenspace bases
        assert arrays[0] is value.correlations.e
        assert_frozen(arrays)

    def test_distinct_setups_are_evaluated_apart(self, tmp_path, counted):
        spec = tmp_path / "setups.spec"
        spec.write_text(
            BELL_SPEC
            + "query chsh A0 A1 B0 B1 in t\nquery chsh A0 A1 B1 B0 in s\n"
            + "query lhv A0 A1 B0 B1 in t\n"
        )
        code, out = run_cli(["run", str(spec), "--format", "json"])
        assert code == 0
        assert counted["pdi_validate"] == 4
        assert len(counted["chsh_value"]) == 3
        chsh_s, _, _, chsh_t, swapped, lhv_t = json.loads(out)["results"]
        assert lhv_t["e"] == chsh_t["e"] != chsh_s["e"]
        assert swapped["e"] == [row[::-1] for row in chsh_s["e"]]

    def test_neon_decomposes_s_once(self, monkeypatch):
        setups, factored = [], []
        build, eigh = cli.neon_setup, np.linalg.eigh

        def recording_setup():
            setups.append(build())
            return setups[-1]

        def recording_eigh(a, *args, **kwargs):
            factored.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(cli, "neon_setup", recording_setup)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        code, _ = run_cli(["neon", "--shots", "1000", "--format", "json"])
        assert code == 0
        (setup,) = setups
        assert sum(a is setup.s.entries for a in factored) == 1

    def test_neon_forms_each_product_once(self, monkeypatch):
        # CHSHOperators forms A_aB_b once; S, the M_jk and the sampled CHSH share them
        products = []
        matmul = hilbert.Operator.__matmul__

        def counting_matmul(a, b):
            products.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(hilbert.Operator, "__matmul__", counting_matmul)
        code, _ = run_cli(["neon", "--shots", "1000", "--format", "json"])
        assert code == 0
        assert len(products) == 4


class TestHumanOutput:
    def test_neon_prints_tsirelson_eigenvalue(self):
        code, out = run_cli(["neon"])
        assert code == 0
        assert "2.8284271" in out

    def test_lhv_bound_headline(self):
        code, out = run_cli(["lhv-bound"])
        assert code == 0
        assert out.splitlines()[0] == "max |S| = 2 over 16 deterministic strategies"

    def test_lhv_check_infeasible_message(self):
        # the verdict names the largest |combination|, not S: for 1 1 -1 1, S = 0
        for table, s_value in ((["1", "1", "1", "-1"], 4.0), (["1", "1", "-1", "1"], 0.0)):
            code, out = run_cli(["lhv-check", *table])
            assert code == 0
            assert out.splitlines()[0] == "infeasible (max |CHSH combination| = 4 > 2)"
            _, machine = run_cli(["lhv-check", *table, "--format", "json"])
            payload = json.loads(machine)
            assert (payload["s"], payload["max_combination"]) == (s_value, 4.0)

    def test_lhv_check_feasible_prints_mixture(self):
        code, out = run_cli(["lhv-check", "0.5", "0.3", "0.2", "-0.1"])
        assert code == 0
        assert "feasible" in out
        weights = [
            float(line.split("weight", 1)[1].split()[0])
            for line in out.splitlines()
            if "weight" in line
        ]
        assert weights
        assert abs(sum(weights) - 1) < 1e-9

    def test_run_human_blocks_follow_query_order(self):
        code, out = run_cli(["run", str(SPEC_DIR / "measurement.spec")])
        assert code == 0
        blocks = [line for line in out.splitlines() if line.startswith("==")]
        assert len(blocks) == 4
        assert "consistency" in blocks[0]
        assert "probs" in blocks[1]

    @pytest.mark.parametrize("stem", [path.stem for path in sorted(SPEC_DIR.glob("*.spec"))])
    def test_run_human_matches_json_golden(self, stem):
        code, out = run_cli(["run", str(SPEC_DIR / f"{stem}.spec")])
        assert code == 0
        report = json.loads((GOLDEN_DIR / f"run-{stem}.json").read_text())
        expected = [f"{stem}.spec: {len(report['results'])} queries"]
        for entry in report["results"]:
            expected += human_block(entry)
        assert out.splitlines() == expected

    def test_epr_explicit_default_angles_match_golden(self, monkeypatch):
        code, out = run_cli(
            ["epr", "--alice-deg", "90", "0", "--bob-deg", "45", "135", "--format", "json"],
            monkeypatch,
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "epr.json").read_text()

    def test_epr_decomposes_each_observable_once(self, monkeypatch):
        decomposed = []
        real = cli.spectral_decompose

        def counting(op):
            decomposed.append(op)
            return real(op)

        monkeypatch.setattr(cli, "spectral_decompose", counting)
        code, _ = run_cli(["epr"])
        assert code == 0
        # two spin directions for Alice and two for Bob
        assert len(decomposed) == 4

    def test_epr_reports_signed_value_for_other_angles(self):
        # swapping Alice's settings cancels the canonical combination, yet the
        # correlators stay quantum-extremal: another sign variant still hits 2*sqrt(2)
        code, out = run_cli(
            ["epr", "--alice-deg", "0", "90", "--bob-deg", "45", "135", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["s"]) < 1e-9
        assert payload["lhv"]["feasible"] is False
        assert abs(payload["lhv"]["max_combination"] - 2 * math.sqrt(2)) < 1e-9

    def test_human_and_json_agree_on_neon_s(self, monkeypatch):
        _, human = run_cli(["neon"])
        _, machine = run_cli(["neon", "--format", "json"], monkeypatch)
        s_json = json.loads(machine)["chsh"]["s"]
        assert f"{s_json:.6g}"[:6] in human


# strings that need escaping: separators, quotes, backslashes, control
# characters and non-ASCII text (BMP and astral)
_ESCAPED = st.sampled_from(list(',:"\\/\n\t\x00\x1f\x7fé\u2028€\U0001f600'))
_TEXT = st.text(alphabet=st.one_of(_ESCAPED, st.characters()), max_size=6)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e300, -1e300, 1e16]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _TEXT,
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-1000, 1000), max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(_FLOATS, min_size=4, max_size=4).map(lambda xs: np.array(xs).reshape(2, 2)),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


def jsonable(value):
    """The payload as plain JSON types, each float rounded to 12 significant
    digits and each key made a str: the writer's contract, kept apart from it."""
    if isinstance(value, float):
        return float(f"{value:.12g}") + 0.0
    if isinstance(value, (np.floating, np.integer)):
        return jsonable(value.item())
    if isinstance(value, cli._Table):  # a probs table: quoted keys and a weights array
        return {json.loads(k): jsonable(w) for k, w in zip(value.keys, value.weights.tolist())}
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def reference_json(payload) -> str:
    return json.dumps(jsonable(payload), indent=2) + "\n"


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_matches_json_dumps_of_rounded_payload(self, payload):
        out = io.StringIO()
        cli._emit_json(payload, out)
        assert out.getvalue() == reference_json(payload)

    def test_non_string_keys_fold_as_jsonable_does(self):
        payload = {1: "int", "1": "str", 2.5: [], None: {}, "x": {True: 0.1, "True": -0.0}}
        out = io.StringIO()
        cli._emit_json(payload, out)
        assert out.getvalue() == reference_json(payload)

    def test_probs_report_of_4096_histories(self, tmp_path, monkeypatch):
        times = 12
        events = "".join(f"  events {t} = P;\n" for t in range(1, times + 1))
        spec = tmp_path / "h4096.spec"
        spec.write_text(
            "ket psi = [0.6, 0.8]\nop H = Z\npdi P = spectral(H)\n"
            f"family F {{\n  initial psi;\n{events}}}\nquery probs F\n"
        )
        reports = []
        writer = cli._emit_json

        def recording(report, out):
            reports.append(report)
            writer(report, out)

        monkeypatch.setattr(cli, "_emit_json", recording)
        code, out = run_cli(["run", str(spec), "--format", "json"], monkeypatch)
        assert code == 0
        (report,) = reports
        assert len(jsonable(report)["results"][0]["probabilities"]) == 2**times
        assert out == reference_json(report)


def labelled_family(labels: list[list[str]], subset=None) -> HistoryFamily:
    """A family on C^3 with identity propagators and one coordinate PDI per
    list of labels (1 to 3 members, the last taking the rest of the basis)."""
    pdis = [
        PDI(
            [Projector.from_basis(b) for b in np.split(np.eye(3), range(1, len(names)), axis=1)],
            labels=names,
        )
        for names in labels
    ]
    identity = Operator(np.eye(3, dtype=complex))
    grid = TimeGrid(tuple(f"t{i}" for i in range(len(labels) + 1)), (identity,) * len(labels))
    return HistoryFamily(grid, Ket([0.6, 0.0, 0.8]), tuple(pdis), histories=subset)


# weights the table must write as json.dumps does: signed zeros, subnormals,
# large and small magnitudes, and repeats of each
_WEIGHTS = st.one_of(
    _FLOATS, st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e16, 1e-5, 0.36, 0.64, 1 / 3])
)


@st.composite
def probs_tables(draw):
    """A library family with labels that need escaping, an optional subset of its
    histories, and one drawn weight per history."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    labels = [draw(st.lists(_TEXT, min_size=n, max_size=n, unique=True)) for n in sizes]
    fam = labelled_family(labels)
    every = fam.all_histories()
    if draw(st.booleans()):
        picked = draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
        fam = labelled_family(labels, subset=picked)
    n = len(fam.all_histories())
    weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    return fam, np.array(weights, dtype=float)


class TestProbsTable:
    @settings(max_examples=300, deadline=None)
    @given(probs_tables())
    def test_matches_json_dumps_of_rounded_dict(self, drawn):
        fam, weights = drawn
        keys = [",".join(h) for h in fam.all_histories()]
        assume(len(set(keys)) == len(keys))  # labels with commas can join alike
        expected = {k: float(f"{w:.12g}") + 0.0 for k, w in zip(keys, weights.tolist())}
        table = cli._Table(fam, weights)
        out = io.StringIO()
        cli._emit_json({"results": [{"probabilities": table, "total": 1.0}]}, out)
        reference = {"results": [{"probabilities": expected, "total": 1.0}]}
        assert out.getvalue() == json.dumps(reference, indent=2) + "\n"

    @pytest.mark.parametrize(
        "labels",
        [
            [["a"]],
            [["0", "1"], ["x"]],
            [['q"', "b\\"], ["\u00e9", "\t", "\U0001f600"], ["\x00", "z"]],
        ],
    )
    def test_keys_of_exhaustive_and_subset_families(self, labels):
        fam = labelled_family(labels)
        every = fam.all_histories()
        keys = cli._Table(fam, np.zeros(len(every))).keys
        assert keys == [json.dumps(",".join(h)) for h in every]
        subset = labelled_family(labels, subset=every[::-2])
        keys = cli._Table(subset, np.zeros(len(every[::-2]))).keys
        assert keys == [json.dumps(",".join(h)) for h in every[::-2]]


def _no_constant(name):
    raise ValueError(f"JSON constant {name} in a sample report")


class TestSampleStatisticsNearFloatRange:
    # spectral(H) of H = a*proj(u) + b*proj(v) on the standard basis, with the
    # scalars written as plain decimal literals; each overflowed at some step
    # of the mean or the variance: 0 * inf for the never-drawn -10^300 outcome,
    # a squared spread of about 10^400, and a sum of a hundred 10^307 draws
    @pytest.mark.parametrize(
        "a, b, state, shots, seed",
        [
            ("1" + "0" * 300, "-1" + "0" * 300, "[1, 0]", 3, 1),
            ("1" + "0" * 200, "1", "[1, 2]", 1000, 1),
            ("1" + "0" * 307, "-1" + "0" * 307, "[1, 1]", 100, 3),
        ],
        ids=["undrawn-1e300", "spread-1e200", "sum-1e307"],
    )
    def test_mean_and_error_are_exact_and_finite(self, tmp_path, a, b, state, shots, seed):
        source = (
            f"ket u = [1, 0]\nket v = [0, 1]\nket s = {state}\n"
            f"op H = {a}*proj(u) + {b}*proj(v)\npdi P = spectral(H)\n"
            f"query sample s P shots {shots} seed {seed}\n"
        )
        env = parse_spec(source).environment
        pdi = env["P"].value
        values = dict(zip(pdi.labels, env["P"].extra))
        result = sample_pdi(env["s"].value, pdi, RunConfig(shots, seed), values)
        counts = result.counts
        mean = sum(n * Fraction(values[l]) for l, n in counts.items()) / shots
        variance = sum(n * (Fraction(values[l]) - mean) ** 2 for l, n in counts.items()) / shots
        tol = Fraction(1e-12)
        assert abs(Fraction(result.empirical_mean) - mean) <= abs(mean) * tol
        # the square of the error, against variance / shots, to 2e-12
        squared = Fraction(result.std_error) ** 2
        assert abs(squared - variance / shots) <= variance / shots * 2 * tol
        spec = tmp_path / "big.spec"
        spec.write_text(source)
        code, out = run_cli(["run", str(spec), "--format", "json"])
        assert code == 0
        report = json.loads(out, parse_constant=_no_constant)["results"][0]
        assert report["empirical_mean"] == float(f"{result.empirical_mean:.12g}")
        assert report["std_error"] == float(f"{result.std_error:.12g}")
        code, out = run_cli(["run", str(spec)])
        assert code == 0
        assert "nan" not in out and "inf" not in out
