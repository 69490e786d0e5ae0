"""Command-line interface: golden outputs, exit codes, tolerance plumbing."""

import io
import json
import math
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from histories_kit import cli
from histories_kit.config import TOLERANCES, tolerances
from histories_kit.hilbert import builtin_operator, commutes
from histories_kit.sampler import MAX_SHOTS

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

    @pytest.mark.parametrize(
        "stem",
        ["epr", "interference", "measurement", "neon", "product", "sampling"],
    )
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
                leaks += commutes(z, a)
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
        code, out = run_cli(["lhv-check", "1", "1", "1", "-1"])
        assert code == 0
        assert out.splitlines()[0] == "infeasible (S=4 > 2)"

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
