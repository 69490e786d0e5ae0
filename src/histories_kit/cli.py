"""Command-line front end.

Subcommands run spec files and four built-in demonstrations. Each command
builds one payload, which `_json_text` writes as the JSON report in one
walk that appends every piece of text to one list and joins it once;
`execute` prints that text, or renders the human text from the report
`json.loads` reads back from it, so the two formats cannot disagree. Every
report carries the tool version and the tolerance bundle in force so
numbers are auditable. json output is stable-keyed, 12 significant
digits, newline terminated; human output prints 6 significant digits.
A `probs` table is written from the family's arrays, its keys as about sqrt(H)
heads and sqrt(H) tails of escaped labels, each distinct weight formatted once.

Exit codes: 0 success, 1 unreadable spec file or parse/resolution failure,
2 numeric contract violation (inconsistent family queried for
probabilities, non-commuting CHSH operators, and the like), 64 usage errors
(including non-finite angles or tolerances and shot counts outside
1..MAX_SHOTS).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, astuple
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .config import override, tolerances
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
from .dsl import parse_spec, render_query
from .hilbert import spectral_decompose
from .histories import _probabilities, conditional_probability, consistency_check
from .sampler import MAX_SHOTS, RunConfig, empirical_chsh, sample_pdi

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


class _UnreadableSpec(Exception):
    """The spec file of `run` cannot be read; exits 1 like a load failure."""


def _json_float(value: float) -> str:
    """json.dumps's text of the value rounded to 12 significant digits, -0.0 as 0.0."""
    x = float(f"{value:.12g}") + 0.0
    if x - x == 0.0:  # finite
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


class _Table:
    """A family's probs table for `_json_text`: the weights in history order, and
    the JSON-quoted "label,...,label" key of history h as heads[h // m] + tails[h % m],
    m = len(tails). Escaping maps each character alone, so an exhaustive family's
    heads join its escaped labels over the first times, until there are about
    sqrt(H), and its tails over the rest; an explicit subset's heads are its keys."""

    # a plain class: a dataclass would add about 0.8 ms to every cold import
    __slots__ = ("heads", "tails", "weights")

    def __init__(self, family, weights: np.ndarray):
        self.weights = weights
        if not family.exhaustive:
            self.heads, self.tails = [_json_str(",".join(h)) for h in family.histories], [""]
            return
        levels = [
            [("," if t else "") + _json_str(label)[1:-1] for label in pdi.labels]
            for t, pdi in enumerate(family.event_pdis)
        ]
        self.heads, self.tails, s = ['"'], ['"'], 0
        while len(self.heads) ** 2 < len(weights):
            self.heads = [k + x for k in self.heads for x in levels[s]]
            s += 1
        for level in reversed(levels[s:]):
            self.tails = [x + k for x in level for k in self.tails]


def _json_text(value, newline: str) -> str:
    """The JSON text of one payload value, nested lines starting `newline`: the
    walk appends every piece of text to one list, which is joined once."""
    parts = []
    put = parts.append

    def walk(value, newline):
        if isinstance(value, float):
            put(_json_float(value))
        elif isinstance(value, (np.floating, np.integer, np.ndarray)):
            walk(value.tolist(), newline)
        elif isinstance(value, _Table):
            # history h's key head, key tail and weight text with its separator
            # fill parts[start + 3h : start + 3h + 3], set by strided slices
            values, inverse = np.unique(value.weights, return_inverse=True)
            inner = newline + "  "
            texts = [": " + _json_float(v) + "," + inner for v in values.tolist()]
            put("{" + inner)
            start, m = len(parts), len(value.tails)
            parts.extend([""] * (3 * len(inverse)))
            for j in range(m):
                parts[start + 3 * j :: 3 * m] = value.heads
            parts[start + 1 :: 3] = value.tails * len(value.heads)
            parts[start + 2 :: 3] = map(texts.__getitem__, inverse.tolist())
            parts[-1] = parts[-1][: -len(inner) - 1]  # the last weight takes no separator
            put(newline + "}")
        elif isinstance(value, dict) and value:
            if not all(type(k) is str for k in value):
                value = {str(k): v for k, v in value.items()}  # str(), not json.dumps's key rule
            inner = newline + "  "
            for i, (k, v) in enumerate(value.items()):
                put(("," if i else "{") + inner + _json_str(k) + ": ")
                if type(v) is float:
                    put(_json_float(v))
                else:
                    walk(v, inner)
            put(newline + "}")
        elif isinstance(value, (list, tuple)) and value:
            inner = newline + "  "
            for i, v in enumerate(value):
                put(("," if i else "[") + inner)
                walk(v, inner)
            put(newline + "]")
        else:  # str, int, bool, None, {}, [] or (); anything else raises TypeError
            put(json.dumps(value))

    walk(value, newline)
    return "".join(parts)


def _emit_json(payload, out):
    """Write the report as `json.dumps(payload, indent=2)` would with every float
    rounded to 12 significant digits and every key made a str, byte for byte,
    in one walk (with `indent`, json.dumps runs its pure-Python encoder)."""
    out.write(_json_text(payload, "\n"))
    out.write("\n")


def _g(x: float) -> str:
    return f"{float(x):.6g}"


def _strategy(s) -> str:
    """Human form of a deterministic strategy given as [a0, a1, b0, b1]."""
    return " ".join(f"{name}={v:+d}" for name, v in zip(("a0", "a1", "b0", "b1"), s))


def _chsh_payload(value) -> dict:
    return {
        "e": value.correlations.e,
        "s": value.correlations.chsh,
        "direct_expectation": value.direct_expectation,
    }


def _lhv_payload(corr: CorrelationData) -> dict:
    report = lhv_feasibility(corr)
    payload = {
        "e": corr.e,
        "s": corr.chsh,
        "feasible": report.feasible,
        "max_combination": report.max_combination,
    }
    if report.feasible:
        payload["mixture"] = [{"strategy": astuple(s), "weight": w} for s, w in report.mixture]
    else:
        payload["violated_signs"] = list(report.violated_signs)
        payload["violated_value"] = report.violated_value
    return payload


def _write_e(e, out, indent=""):
    for a in (0, 1):
        for b in (0, 1):
            out.write(f"{indent}E({a},{b}) = {_g(e[a][b])}\n")


def _write_lhv(payload: dict, out, indent=""):
    """The LHV verdict: a witness mixture, or the combination outside [-2, 2]."""
    combination = f"max |CHSH combination| = {_g(payload['max_combination'])}"
    if payload["feasible"]:
        out.write(f"{indent}feasible ({combination} <= 2)\n")
        out.write(f"{indent}witness mixture:\n")
        for item in payload["mixture"]:
            out.write(
                f"{indent}  weight {_g(item['weight'])} on strategy "
                f"{_strategy(item['strategy'])}\n"
            )
    else:
        out.write(f"{indent}infeasible ({combination} > 2)\n")
        out.write(
            f"{indent}  signs {tuple(payload['violated_signs'])} give "
            f"{_g(payload['violated_value'])}, outside [-2, 2]\n"
        )


def _write_query_result(entry: dict, out):
    out.write(f"== {entry['query']} ==\n")
    kind = entry["kind"]
    if kind in ("chsh", "lhv"):
        _write_e(entry["e"], out, "  ")
        out.write(f"  S = {_g(entry['s'])}\n")
        if kind == "chsh":
            out.write(f"  direct expectation = {_g(entry['direct_expectation'])}\n")
        else:
            _write_lhv(entry, out, "  ")
    elif kind == "probs":
        for key, p in entry["probabilities"].items():
            out.write(f"  Pr({key}) = {_g(p)}\n")
        omitted = "" if entry["exhaustive"] else f" (omitted {_g(entry['omitted'])})"
        out.write(f"  total = {_g(entry['total'])}{omitted}\n")
    elif kind == "consistency":
        verdict = "consistent" if entry["consistent"] else "INCONSISTENT"
        out.write(
            f"  {verdict}: max off-diagonal {_g(entry['max_offdiag'])} "
            f"(tolerance {_g(entry['tolerance'])}, {entry['n_histories']} histories)\n"
        )
    elif kind == "conditional":
        out.write(
            f"  Pr({entry['target']} | {entry['given']}) = {_g(entry['probability'])}\n"
        )
    elif kind == "sample":
        out.write(f"  shots {entry['shots']}, seed {entry['seed']}\n")
        for label, n in entry["counts"].items():
            out.write(f"  {label}: {n} (Born {_g(entry['probabilities'][label])})\n")
        if entry["empirical_mean"] is not None:
            out.write(
                f"  mean = {_g(entry['empirical_mean'])} +- {_g(entry['std_error'])}\n"
            )
    elif kind == "nosignal":
        verdict = "passes" if entry["passes"] else "FAILS"
        out.write(
            f"  no-signaling {verdict}: max marginal deviation "
            f"{_g(entry['max_deviation'])} (tolerance {_g(entry['tolerance'])})\n"
        )


def _human_run(report: dict, out):
    out.write(f"{report['metadata']['source']}: {len(report['results'])} queries\n")
    for entry in report["results"]:
        _write_query_result(entry, out)


def _human_neon(report: dict, out):
    spectrum = ", ".join(f"{ev:.12g}" for ev in report["eigenvalues"])
    out.write(f"S eigenvalues: {spectrum}\n")
    amps = ", ".join(_g(x) for x in report["top_eigenstate"]["re"])
    out.write(f"top eigenstate: [{amps}]\n")
    chsh, sampled = report["chsh"], report["sampled"]
    out.write(f"<top|S|top> = {chsh['direct_expectation']:.12g}\n")
    _write_e(chsh["e"], out)
    out.write(f"S from settings = {_g(chsh['s'])}\n")
    out.write(
        f"sampled S ({sampled['shots']} shots, seed {sampled['seed']}) = "
        f"{_g(sampled['s_hat'])} +- {_g(sampled['std_error'])}\n"
    )


def _human_epr(report: dict, out):
    alice, bob = report["angles_deg"]["alice"], report["angles_deg"]["bob"]
    out.write(
        f"singlet, Alice ({_g(alice[0])}, {_g(alice[1])}) deg, "
        f"Bob ({_g(bob[0])}, {_g(bob[1])}) deg\n"
    )
    _write_e(report["correlators"], out)
    out.write(f"S = {_g(report['s'])}\n")
    lhv, ns = report["lhv"], report["no_signaling"]
    verdict = "feasible" if lhv["feasible"] else "infeasible"
    out.write(f"LHV: {verdict} (max |CHSH combination| = {_g(lhv['max_combination'])})\n")
    out.write(f"collapse vs joint: max deviation {_g(report['collapse_joint_max_deviation'])}\n")
    ns_verdict = "passes" if ns["passes"] else "FAILS"
    out.write(f"no-signaling {ns_verdict}: max marginal deviation {_g(ns['max_deviation'])}\n")


def _human_lhv_bound(report: dict, out):
    max_s = report["max_s"]
    out.write(f"max |S| = {max_s:g} over {report['n_strategies']} deterministic strategies\n")
    out.write(f"range: [{report['min_s']:g}, {max_s:g}]\n")
    out.write(f"strategies attaining S = {max_s:g}:\n")
    for s in report["argmax"]:
        out.write(f"  {_strategy(s)}\n")


def _run_query(query, env, chsh_values: dict) -> dict:
    """Execute one query against resolved bindings; chsh_values maps each Bell
    setup's (state, A0, A1, B0, B1) names, fixed for the run, to its CHSHValue."""
    kind = query.kind
    if kind in ("chsh", "lhv"):
        setup = (query.state, query.a0, query.a1, query.b0, query.b1)
        value = chsh_values.get(setup)
        if value is None:
            ops = CHSHOperators(*(env[name].value for name in setup[1:]))
            value = chsh_values[setup] = chsh_value(env[query.state].value, ops)
        if kind == "chsh":
            return _chsh_payload(value)
        return _lhv_payload(value.correlations)
    if kind == "probs":
        family = env[query.family].value
        weights, total, omitted = _probabilities(family)
        return {
            "probabilities": _Table(family, weights),
            "total": total,
            "omitted": omitted,
            "exhaustive": family.exhaustive,
        }
    if kind == "consistency":
        report = consistency_check(env[query.family].value)
        return {
            "consistent": report.consistent,
            "max_offdiag": report.max_offdiag,
            "tolerance": report.tolerance,
            "n_histories": len(report.weights),
        }
    if kind == "conditional":
        probability = conditional_probability(
            env[query.family].value, given=query.given, target=query.target
        )
        return {
            "target": f"{query.target[0]}:{query.target[1]}",
            "given": f"{query.given[0]}:{query.given[1]}",
            "probability": probability,
        }
    if kind == "sample":
        binding = env[query.pdi]
        # spectral PDIs sample their eigenvalues; other PDIs fall back to their labels
        values = None if binding.extra is None else dict(zip(binding.value.labels, binding.extra))
        result = sample_pdi(
            env[query.state].value,
            binding.value,
            RunConfig(shots=query.shots, seed=query.seed),
            values=values,
        )
        return {
            "shots": query.shots,
            "seed": query.seed,
            "counts": result.counts,
            "probabilities": result.probabilities,
            "empirical_mean": result.empirical_mean,
            "std_error": result.std_error,
        }
    if kind == "nosignal":
        report = no_signaling_check(
            env[query.state].value,
            [env[name].value for name in query.alice],
            env[query.bob].value,
            (query.da, query.db),
        )
        return {
            "passes": report.passes,
            "max_deviation": report.max_deviation,
            "tolerance": report.tolerance,
            "bob_marginals": dict(zip(query.alice, report.bob_marginals)),
        }
    raise AssertionError(f"unhandled query {query!r}")


def _cmd_run(args) -> dict:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _UnreadableSpec(f"cannot read {args.file}: {err}") from err
    spec = parse_spec(source)
    env = spec.environment
    chsh_values = {}  # the chsh and lhv queries on one setup evaluate it once
    return {
        "results": [
            {"query": render_query(q), "kind": q.kind, **_run_query(q, env, chsh_values)}
            for q in spec.queries
        ]
    }


def _cmd_neon(args) -> dict:
    setup = neon_setup()
    obs = spectral_decompose(setup.s)
    amplitudes = setup.top_eigenstate.amplitudes
    sampled = empirical_chsh(
        setup.top_eigenstate, setup.ops, RunConfig(shots=args.shots, seed=args.seed)
    )
    return {
        "eigenvalues": [
            ev for ev, proj in zip(obs.eigenvalues, obs.pdi.projectors) for _ in range(proj.rank)
        ],
        "top_eigenstate": {"re": amplitudes.real, "im": amplitudes.imag},
        "chsh": _chsh_payload(chsh_value(setup.top_eigenstate, setup.ops)),
        "sampled": {
            "shots": args.shots,
            "seed": args.seed,
            "s_hat": sampled.s_hat,
            "std_error": sampled.std_error,
            "counts": {
                f"{a}{b}": sampled.per_setting[(a, b)].counts for a in (0, 1) for b in (0, 1)
            },
        },
    }


def _cmd_epr(args) -> dict:
    alice, bob = args.alice_deg, args.bob_deg
    state = singlet_state()
    value = chsh_value(state, singlet_chsh_operators(alice, bob))
    feasibility = lhv_feasibility(value.correlations)

    alice_obs = [spectral_decompose(sigma_zx(math.radians(ta))).pdi for ta in alice]
    bob_obs = [spectral_decompose(sigma_zx(math.radians(tb))).pdi for tb in bob]

    # joint/collapse agreement across the four setting pairs
    worst = 0.0
    for obs_a in alice_obs:
        for obs_b in bob_obs:
            joints = joint_probabilities(state, obs_a, obs_b)
            for j, pa in enumerate(obs_a.projectors):
                for k, pb in enumerate(obs_b.projectors):
                    res = collapse_conditional(state, pa, pb)
                    product = res.outcome_probability * res.conditional_probability
                    worst = max(worst, abs(product - joints[j, k]))

    # no-signaling: Alice may measure along either of her directions; chsh_value
    # has already decomposed A0 x I, A1 x I and I x B0 on the full space
    (obs_a0, obs_a1), (obs_b0, _) = value.observables
    ns_report = no_signaling_check(state, [obs_a0.pdi, obs_a1.pdi], obs_b0.pdi, (2, 2))
    return {
        "angles_deg": {"alice": alice, "bob": bob},
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


def _cmd_lhv_bound(args) -> dict:
    report = lhv_deterministic_bound()
    return {
        "max_s": report.max_s,
        "min_s": report.min_s,
        "n_strategies": len(report.strategies),
        "argmax": [astuple(s) for s in report.argmax],
        "note": report.note,
    }


def _cmd_lhv_check(args) -> dict:
    table = np.array([[args.e00, args.e01], [args.e10, args.e11]])
    return _lhv_payload(CorrelationData(table))


def _checked(convert, accept, expected: str):
    """An argparse type: convert the text, then reject it unless accept(value)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


_tolerance = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")
_shots = _checked(int, lambda v: 1 <= v <= MAX_SHOTS, f"an integer in [1, {MAX_SHOTS}]")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_angle = _checked(float, math.isfinite, "a finite angle in degrees")


@functools.cache  # built on first use, then shared: parsing leaves it unchanged
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
    p_neon.add_argument("--shots", type=_shots, default=100000)
    p_neon.add_argument("--seed", type=_seed, default=2020)
    common(p_neon)

    p_epr = sub.add_parser("epr", help="singlet correlators, collapse, no-signaling")
    p_epr.add_argument(
        "--alice-deg", nargs=2, type=_angle, default=list(SINGLET_OPTIMAL_ANGLES_DEG[0])
    )
    p_epr.add_argument(
        "--bob-deg", nargs=2, type=_angle, default=list(SINGLET_OPTIMAL_ANGLES_DEG[1])
    )
    common(p_epr)

    p_bound = sub.add_parser("lhv-bound", help="16-strategy classical bound")
    common(p_bound)

    p_check = sub.add_parser("lhv-check", help="correlator feasibility verdict")
    for name in ("e00", "e01", "e10", "e11"):
        p_check.add_argument(name, type=float)
    common(p_check)

    return parser


# command name -> (payload builder, human renderer of the parsed JSON report)
_COMMANDS = {
    "run": (_cmd_run, _human_run),
    "neon": (_cmd_neon, _human_neon),
    "epr": (_cmd_epr, _human_epr),
    "lhv-bound": (_cmd_lhv_bound, _human_lhv_bound),
    "lhv-check": (_cmd_lhv_check, _write_lhv),
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

    build, render = _COMMANDS[args.command]
    algebraic = args.tol if args.tol is not None else env_tol  # the flag wins
    try:
        with nullcontext() if algebraic is None else override(algebraic=algebraic):
            payload = build(args)
            metadata = {"version": TOOL_VERSION, "tolerances": asdict(tolerances())}
    except _UnreadableSpec as err:
        sys.stderr.write(f"{err}\n")
        return 1
    except ParseError as err:
        sys.stderr.write(f"{err}\n")
        for extra in err.all_errors[1:]:
            sys.stderr.write(f"{extra}\n")
        return 1
    except (ToolkitError, ValueError) as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 2

    if args.command == "run":
        metadata["source"] = os.path.basename(args.file)
    report = {"metadata": metadata, **payload}
    if args.format == "json":
        _emit_json(report, out)
    else:
        render(json.loads(_json_text(report, "\n")), out)
    return 0


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
