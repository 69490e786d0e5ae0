"""Command-line front end.

Subcommands run spec files and four built-in demonstrations. Every report
carries the tool version and the tolerance bundle in force so numbers are
auditable. json output is stable-keyed, 12 significant digits, newline
terminated; human output prints 6 significant digits.

Exit codes: 0 success, 1 parse/resolution failure, 2 numeric contract
violation (inconsistent family queried for probabilities, non-commuting CHSH
operators, and the like), 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import TOLERANCES
from .errors import ParseError, ToolkitError
from .bell import (
    SINGLET_OPTIMAL_ANGLES_DEG,
    CHSHOperators,
    CorrelationData,
    chsh_value,
    collapse_conditional,
    joint_probabilities,
    lhv_deterministic_bound,
    lhv_feasibility,
    neon_setup,
    no_signaling_check,
    singlet_chsh_operators,
    singlet_state,
    sigma_zx,
)
from .dsl import (
    ChshQuery,
    ConditionalQuery,
    ConsistencyQuery,
    LhvQuery,
    NoSignalQuery,
    ProbsQuery,
    SampleQuery,
    parse_spec,
    render_query,
)
from .hilbert import PDI, Operator, Projector, spectral_decompose
from .histories import (
    conditional_probability,
    consistency_check,
    family_probabilities,
)
from .sampler import RunConfig, empirical_chsh, sample_pdi

__all__ = ["execute", "main", "TOOL_VERSION"]

# stubbed by golden-file tests so reports stay byte-stable across releases
TOOL_VERSION = __version__

_ENV_TOL = "HISTORIES_KIT_TOL"


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _round12(x: float) -> float:
    y = float(f"{float(x):.12g}")
    return y + 0.0  # fold -0.0 into 0.0


def _jsonable(value):
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, complex):
        return {"re": _round12(value.real), "im": _round12(value.imag)}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit_json(payload, out):
    out.write(json.dumps(_jsonable(payload), indent=2) + "\n")


def _metadata(extra: dict | None = None) -> dict:
    meta = {"version": TOOL_VERSION, "tolerances": TOLERANCES.as_dict()}
    if extra:
        meta.update(extra)
    return meta


def _g(x: float) -> str:
    return f"{float(x):.6g}"


# --- spec query execution ------------------------------------------------


def _correlation_from_ops(env, query):
    ops = CHSHOperators(
        a0=env[query.a0].value,
        a1=env[query.a1].value,
        b0=env[query.b0].value,
        b1=env[query.b1].value,
    )
    state = env[query.state].value
    return ops, state


def _lhv_payload(corr: CorrelationData) -> dict:
    report = lhv_feasibility(corr)
    payload = {
        "e": corr.e,
        "s": corr.chsh,
        "feasible": report.feasible,
        "max_combination": report.max_combination,
    }
    if report.feasible:
        payload["mixture"] = [
            {"strategy": [s.a0, s.a1, s.b0, s.b1], "weight": w}
            for s, w in report.mixture
        ]
    else:
        payload["violated_signs"] = list(report.violated_signs)
        payload["violated_value"] = report.violated_value
    return payload


def _run_query(query, env):
    """Execute one query against resolved bindings; returns (kind, payload)."""
    if isinstance(query, ChshQuery):
        ops, state = _correlation_from_ops(env, query)
        value = chsh_value(state, ops)
        return "chsh", {
            "e": value.correlations.e,
            "s": value.correlations.chsh,
            "direct_expectation": value.direct_expectation,
        }
    if isinstance(query, LhvQuery):
        ops, state = _correlation_from_ops(env, query)
        return "lhv", _lhv_payload(chsh_value(state, ops).correlations)
    if isinstance(query, ProbsQuery):
        table = family_probabilities(env[query.family].value)
        return "probs", {
            "probabilities": {",".join(h): p for h, p in table.probabilities.items()},
            "total": table.total,
            "omitted": table.omitted,
            "exhaustive": table.exhaustive,
        }
    if isinstance(query, ConsistencyQuery):
        report = consistency_check(env[query.family].value)
        return "consistency", {
            "consistent": report.consistent,
            "max_offdiag": report.max_offdiag,
            "tolerance": report.tolerance,
            "n_histories": len(report.histories),
        }
    if isinstance(query, ConditionalQuery):
        probability = conditional_probability(
            env[query.family].value, given=query.given, target=query.target
        )
        return "conditional", {
            "target": f"{query.target[0]}:{query.target[1]}",
            "given": f"{query.given[0]}:{query.given[1]}",
            "probability": probability,
        }
    if isinstance(query, SampleQuery):
        binding = env[query.pdi]
        values = None
        if binding.extra is not None:
            values = {
                label: float(ev)
                for label, ev in zip(binding.value.labels, binding.extra)
            }
        result = sample_pdi(
            env[query.state].value,
            binding.value,
            RunConfig(shots=query.shots, seed=query.seed),
            values=values,
        )
        return "sample", {
            "shots": query.shots,
            "seed": query.seed,
            "counts": result.counts,
            "probabilities": result.probabilities,
            "empirical_mean": result.empirical_mean,
            "std_error": result.std_error,
        }
    if isinstance(query, NoSignalQuery):
        report = no_signaling_check(
            env[query.state].value,
            [env[name].value for name in query.alice],
            env[query.bob].value,
            (query.da, query.db),
        )
        return "nosignal", {
            "passes": report.passes,
            "max_deviation": report.max_deviation,
            "tolerance": report.tolerance,
            "bob_marginals": {
                name: report.bob_marginals[i] for i, name in enumerate(query.alice)
            },
        }
    raise AssertionError(f"unhandled query {query!r}")


def _human_query_result(text: str, kind: str, payload: dict, out):
    out.write(f"== {text} ==\n")
    if kind in ("chsh", "lhv"):
        e = payload["e"]
        for a in (0, 1):
            for b in (0, 1):
                out.write(f"  E({a},{b}) = {_g(e[a][b])}\n")
        out.write(f"  S = {_g(payload['s'])}\n")
        if kind == "chsh":
            out.write(f"  direct expectation = {_g(payload['direct_expectation'])}\n")
        else:
            out.write(f"  max |CHSH combination| = {_g(payload['max_combination'])}\n")
            if payload["feasible"]:
                out.write("  feasible; witness mixture:\n")
                for item in payload["mixture"]:
                    s = item["strategy"]
                    out.write(
                        f"    weight {_g(item['weight'])} on strategy "
                        f"(a0={s[0]:+d}, a1={s[1]:+d}, b0={s[2]:+d}, b1={s[3]:+d})\n"
                    )
            else:
                signs = payload["violated_signs"]
                out.write(
                    f"  infeasible: signs {tuple(signs)} give "
                    f"{_g(payload['violated_value'])}, outside [-2, 2]\n"
                )
    elif kind == "probs":
        for key, p in payload["probabilities"].items():
            out.write(f"  Pr({key}) = {_g(p)}\n")
        out.write(f"  total = {_g(payload['total'])}")
        if not payload["exhaustive"]:
            out.write(f" (omitted {_g(payload['omitted'])})")
        out.write("\n")
    elif kind == "consistency":
        verdict = "consistent" if payload["consistent"] else "INCONSISTENT"
        out.write(
            f"  {verdict}: max off-diagonal {_g(payload['max_offdiag'])} "
            f"(tolerance {_g(payload['tolerance'])}, {payload['n_histories']} histories)\n"
        )
    elif kind == "conditional":
        out.write(
            f"  Pr({payload['target']} | {payload['given']}) = {_g(payload['probability'])}\n"
        )
    elif kind == "sample":
        out.write(f"  shots {payload['shots']}, seed {payload['seed']}\n")
        for label, n in payload["counts"].items():
            out.write(f"  {label}: {n} (Born {_g(payload['probabilities'][label])})\n")
        if payload["empirical_mean"] is not None:
            out.write(
                f"  mean = {_g(payload['empirical_mean'])} "
                f"+- {_g(payload['std_error'])}\n"
            )
    elif kind == "nosignal":
        verdict = "passes" if payload["passes"] else "FAILS"
        out.write(
            f"  no-signaling {verdict}: max marginal deviation "
            f"{_g(payload['max_deviation'])} (tolerance {_g(payload['tolerance'])})\n"
        )
    else:
        out.write(f"  {payload}\n")


def _cmd_run(args, out) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as err:
        sys.stderr.write(f"cannot read {args.file}: {err}\n")
        return 1
    spec = parse_spec(source)
    results = []
    for query in spec.queries:
        kind, payload = _run_query(query, spec.environment)
        results.append({"query": render_query(query), "kind": kind, **payload})
    if args.format == "json":
        report = {
            "metadata": _metadata({"source": os.path.basename(args.file)}),
            "results": results,
        }
        _emit_json(report, out)
    else:
        out.write(f"{os.path.basename(args.file)}: {len(results)} queries\n")
        for entry in results:
            payload = {k: v for k, v in entry.items() if k not in ("query", "kind")}
            _human_query_result(entry["query"], entry["kind"], _jsonable(payload), out)
    return 0


def _cmd_neon(args, out) -> int:
    setup = neon_setup()
    obs = spectral_decompose(setup.s)
    eigenvalues = []
    for ev, proj in zip(obs.eigenvalues, obs.pdi.projectors):
        eigenvalues.extend([ev] * proj.rank)
    value = chsh_value(setup.top_eigenstate, setup.ops)
    sampled = empirical_chsh(
        setup.top_eigenstate, setup.ops, RunConfig(shots=args.shots, seed=args.seed)
    )
    if args.format == "json":
        report = {
            "metadata": _metadata(),
            "eigenvalues": eigenvalues,
            "top_eigenstate": {
                "re": [z.real for z in setup.top_eigenstate.amplitudes],
                "im": [z.imag for z in setup.top_eigenstate.amplitudes],
            },
            "chsh": {
                "e": value.correlations.e,
                "s": value.correlations.chsh,
                "direct_expectation": value.direct_expectation,
            },
            "sampled": {
                "shots": args.shots,
                "seed": args.seed,
                "s_hat": sampled.s_hat,
                "std_error": sampled.std_error,
                "counts": {
                    f"{a}{b}": sampled.per_setting[(a, b)].counts
                    for a in (0, 1)
                    for b in (0, 1)
                },
            },
        }
        _emit_json(report, out)
    else:
        spectrum = ", ".join(f"{ev:.12g}" for ev in eigenvalues)
        out.write(f"S eigenvalues: {spectrum}\n")
        amps = ", ".join(_g(z.real) for z in setup.top_eigenstate.amplitudes)
        out.write(f"top eigenstate: [{amps}]\n")
        out.write(f"<top|S|top> = {value.direct_expectation:.12g}\n")
        for a in (0, 1):
            for b in (0, 1):
                out.write(f"E({a},{b}) = {_g(value.correlations.e[a, b])}\n")
        out.write(f"S from settings = {_g(value.correlations.chsh)}\n")
        out.write(
            f"sampled S ({args.shots} shots, seed {args.seed}) = "
            f"{_g(sampled.s_hat)} +- {_g(sampled.std_error)}\n"
        )
    return 0


def _cmd_epr(args, out) -> int:
    alice = tuple(args.alice_deg)
    bob = tuple(args.bob_deg)
    state = singlet_state()
    ops = singlet_chsh_operators(alice, bob)
    value = chsh_value(state, ops)
    feasibility = lhv_feasibility(value.correlations)

    # joint/collapse agreement across the four setting pairs
    eye2 = np.eye(2)
    worst = 0.0
    for ta in alice:
        for tb in bob:
            obs_a = spectral_decompose(sigma_zx(math.radians(ta)))
            obs_b = spectral_decompose(sigma_zx(math.radians(tb)))
            joints = joint_probabilities(state, obs_a.pdi, obs_b.pdi)
            for j, pa in enumerate(obs_a.pdi.projectors):
                for k, pb in enumerate(obs_b.pdi.projectors):
                    res = collapse_conditional(state, pa, pb)
                    product = res.outcome_probability * res.conditional_probability
                    worst = max(worst, abs(product - joints[j, k]))

    # no-signaling: Alice may measure along either of her directions
    def lift(op_proj, side):
        mat = np.kron(op_proj.entries, eye2) if side == 0 else np.kron(eye2, op_proj.entries)
        return Projector(Operator(mat))

    alice_pdis = []
    for ta in alice:
        local = spectral_decompose(sigma_zx(math.radians(ta))).pdi
        alice_pdis.append(PDI([lift(p, 0) for p in local.projectors], labels=local.labels))
    bob_local = spectral_decompose(sigma_zx(math.radians(bob[0]))).pdi
    bob_pdi = PDI([lift(p, 1) for p in bob_local.projectors], labels=bob_local.labels)
    ns_report = no_signaling_check(state, alice_pdis, bob_pdi, (2, 2))

    if args.format == "json":
        report = {
            "metadata": _metadata(),
            "angles_deg": {"alice": list(alice), "bob": list(bob)},
            "correlators": value.correlations.e,
            "s": value.correlations.chsh,
            "direct_expectation": value.direct_expectation,
            "lhv": {
                "feasible": feasibility.feasible,
                "max_combination": feasibility.max_combination,
            },
            "collapse_joint_max_deviation": worst,
            "no_signaling": {
                "passes": ns_report.passes,
                "max_deviation": ns_report.max_deviation,
                "tolerance": ns_report.tolerance,
            },
        }
        _emit_json(report, out)
    else:
        out.write(
            f"singlet, Alice ({_g(alice[0])}, {_g(alice[1])}) deg, "
            f"Bob ({_g(bob[0])}, {_g(bob[1])}) deg\n"
        )
        for a in (0, 1):
            for b in (0, 1):
                out.write(f"E({a},{b}) = {_g(value.correlations.e[a, b])}\n")
        out.write(f"S = {_g(value.correlations.chsh)}\n")
        verdict = "feasible" if feasibility.feasible else "infeasible"
        out.write(
            f"LHV: {verdict} (max |CHSH combination| = {_g(feasibility.max_combination)})\n"
        )
        out.write(f"collapse vs joint: max deviation {_g(worst)}\n")
        ns_verdict = "passes" if ns_report.passes else "FAILS"
        out.write(
            f"no-signaling {ns_verdict}: max marginal deviation "
            f"{_g(ns_report.max_deviation)}\n"
        )
    return 0


def _cmd_lhv_bound(args, out) -> int:
    report = lhv_deterministic_bound()
    if args.format == "json":
        payload = {
            "metadata": _metadata(),
            "max_s": report.max_s,
            "min_s": report.min_s,
            "n_strategies": len(report.strategies),
            "argmax": [[s.a0, s.a1, s.b0, s.b1] for s in report.argmax],
            "note": report.note,
        }
        _emit_json(payload, out)
    else:
        out.write(f"max |S| = {report.max_s:g} over 16 deterministic strategies\n")
        out.write(f"range: [{report.min_s:g}, {report.max_s:g}]\n")
        out.write(f"strategies attaining S = {report.max_s:g}:\n")
        for s in report.argmax:
            out.write(f"  a0={s.a0:+d} a1={s.a1:+d} b0={s.b0:+d} b1={s.b1:+d}\n")
    return 0


def _cmd_lhv_check(args, out) -> int:
    table = np.array([[args.e00, args.e01], [args.e10, args.e11]])
    payload = _lhv_payload(CorrelationData(table))
    if args.format == "json":
        _emit_json({"metadata": _metadata(), **payload}, out)
    elif payload["feasible"]:
        out.write(f"feasible (max |CHSH combination| = {_g(payload['max_combination'])} <= 2)\n")
        out.write("witness mixture:\n")
        for item in payload["mixture"]:
            s = item["strategy"]
            out.write(
                f"  weight {_g(item['weight'])} on strategy "
                f"a0={s[0]:+d} a1={s[1]:+d} b0={s[2]:+d} b1={s[3]:+d}\n"
            )
    else:
        out.write(f"infeasible (S={payload['max_combination']:g} > 2)\n")
    return 0


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="histkit", description="consistent-histories CHSH toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--tol", type=_tolerance, default=None, help="algebraic tolerance override")

    p_run = sub.add_parser("run", help="execute a .spec file")
    p_run.add_argument("file")
    common(p_run)

    p_neon = sub.add_parser("neon", help="spin-3/2 CHSH demonstration")
    p_neon.add_argument("--shots", type=int, default=100000)
    p_neon.add_argument("--seed", type=int, default=2020)
    common(p_neon)

    p_epr = sub.add_parser("epr", help="singlet correlators, collapse, no-signaling")
    p_epr.add_argument(
        "--alice-deg", nargs=2, type=float, default=list(SINGLET_OPTIMAL_ANGLES_DEG[0])
    )
    p_epr.add_argument(
        "--bob-deg", nargs=2, type=float, default=list(SINGLET_OPTIMAL_ANGLES_DEG[1])
    )
    common(p_epr)

    p_bound = sub.add_parser("lhv-bound", help="16-strategy classical bound")
    common(p_bound)

    p_check = sub.add_parser("lhv-check", help="correlator feasibility verdict")
    for name in ("e00", "e01", "e10", "e11"):
        p_check.add_argument(name, type=float)
    common(p_check)

    return parser


_COMMANDS = {
    "run": _cmd_run,
    "neon": _cmd_neon,
    "epr": _cmd_epr,
    "lhv-bound": _cmd_lhv_bound,
    "lhv-check": _cmd_lhv_check,
}


def execute(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        env_tol = os.environ.get(_ENV_TOL)
        if env_tol is not None:
            try:
                env_tol = _tolerance(env_tol)
            except argparse.ArgumentTypeError as err:
                parser.error(f"{_ENV_TOL} {err}")
    except _UsageError as err:
        sys.stderr.write(err.parser.format_usage())
        sys.stderr.write(f"error: {err}\n")
        return 64
    except SystemExit as err:  # --help
        return int(err.code or 0)

    saved = TOLERANCES.as_dict()
    try:
        if env_tol is not None:
            TOLERANCES.algebraic = env_tol
        if args.tol is not None:
            TOLERANCES.algebraic = args.tol
        return _COMMANDS[args.command](args, out)
    except ParseError as err:
        sys.stderr.write(f"{err}\n")
        for extra in err.all_errors[1:]:
            sys.stderr.write(f"{extra}\n")
        return 1
    except (ToolkitError, ValueError) as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 2
    finally:
        for key, val in saved.items():
            setattr(TOLERANCES, key, val)


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
