"""Workload generators and their correctness oracles.

Each workload is one round of jobs: a job is one `histkit` command (a spec
run or a built-in demonstration) plus a check of its JSON report. Every
generated input comes from the workload seed alone, and every reference is
computed here with numpy, never with `histories_kit`. The benchmark repeats
the round until its time is up.

Numbers in generated specs are written at a fixed width, so the byte count
of a spec (and every work count derived from it) is the same for any seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np


class Mismatch(Exception):
    """A job's report disagrees with the reference."""


class SetupError(Exception):
    """The inputs a workload needs are missing."""


@dataclass
class Job:
    kind: str                     # job class, the unit of the per-size metrics
    argv: list[str]               # `histkit` arguments
    queries: int                  # spec queries, or 1 for a demonstration
    check: Callable[[dict], None]  # raises Mismatch


@dataclass
class Workload:
    cold: bool                    # jobs run as fresh processes
    jobs: list[Job]               # one round
    tiers: dict[str, str]         # job_ms.p10.<tier> -> job class it reports


def _fail(message: str):
    raise Mismatch(message)


def _close(what: str, got, want, tol: float):
    if got is None or not abs(float(got) - float(want)) <= tol:
        _fail(f"{what}: got {got!r}, want {want!r} (tolerance {tol:g})")


def _equal(what: str, got, want):
    if got != want:
        _fail(f"{what}: got {got!r}, want {want!r}")


def _num(x: float) -> str:
    """Fixed-width signed decimal, in the DSL's exponent-free syntax."""
    return f"{x: .17f}"


def _angle(deg: float) -> str:
    return f"{deg % 360.0:010.6f}"


def _ket_line(name: str, entries: list[str]) -> str:
    return f"ket {name} = [{', '.join(entries)}]"


def _parsed(entries: list[str]) -> np.ndarray:
    return np.array([float(s) for s in entries])


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _sigma(deg: float) -> np.ndarray:
    rad = np.radians(deg)
    return np.array([[np.cos(rad), np.sin(rad)], [np.sin(rad), -np.cos(rad)]])


def _results(report: dict, kinds: list[str]) -> list[dict]:
    results = report.get("results")
    got = [r.get("kind") for r in results] if isinstance(results, list) else results
    _equal("result kinds", got, kinds)
    return results


def _check_sample(result: dict, shots: int, seed: int, probs: list[float], values: list[float]):
    """Sample query: Born weights, counts and the mean the counts imply."""
    _equal("shots", result["shots"], shots)
    _equal("seed", result["seed"], seed)
    labels = [str(i) for i in range(len(probs))]
    _equal("outcome labels", list(result["probabilities"]), labels)
    _equal("count labels", list(result["counts"]), labels)
    counts = [result["counts"][label] for label in labels]
    _equal("count total", sum(counts), shots)
    for label, n, p in zip(labels, counts, probs):
        _close(f"Born weight {label}", result["probabilities"][label], p, 1e-9)
        spread = 6.0 * math.sqrt(shots * p * (1.0 - p)) + 1.0
        if abs(n - shots * p) > spread:
            _fail(f"count {label} = {n} is more than 6 sigma from {shots * p:.1f}")
    mean = sum(n * v for n, v in zip(counts, values)) / shots
    _close("empirical mean", result["empirical_mean"], mean, 1e-9 * max(1.0, max(map(abs, values))))


# --- corpus_cold ---------------------------------------------------------


def _strip_version(report: dict) -> dict:
    out = dict(report)
    out["metadata"] = {k: v for k, v in report.get("metadata", {}).items() if k != "version"}
    return out


def _first_difference(a, b, path="$") -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} vs {list(b)}"
        for key in a:
            found = _first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if a == b and type(a) is type(b) else f"{path}: {a!r} vs {b!r}"


def _golden_check(golden: dict) -> Callable[[dict], None]:
    want = _strip_version(golden)

    def check(report: dict):
        diff = _first_difference(_strip_version(report), want)
        if diff:
            _fail(f"differs from golden at {diff}")

    return check


def corpus_cold(rng: np.random.Generator, root: Path, workdir: Path) -> Workload:
    """Every corpus spec plus `neon` and `epr`, each a fresh CLI process,
    compared with the live golden reports."""
    golden_dir = root / "tests" / "golden"
    specs = sorted((root / "specs").glob("*.spec"))
    if not specs or not golden_dir.is_dir():
        raise SetupError(f"no corpus specs or goldens under {root}")

    def golden(name):
        path = golden_dir / name
        if not path.is_file():
            raise SetupError(f"missing golden {path}")
        return json.loads(path.read_text(encoding="utf-8"))

    jobs = []
    for spec in specs:
        report = golden(f"run-{spec.stem}.json")
        kind = "sampling" if spec.stem == "sampling" else "spec"
        argv = ["run", f"specs/{spec.name}", "--format", "json"]
        jobs.append(Job(kind, argv, len(report["results"]), _golden_check(report)))
    for demo in ("neon", "epr"):
        jobs.append(Job(demo, [demo, "--format", "json"], 1, _golden_check(golden(f"{demo}.json"))))
    return Workload(
        cold=True,
        jobs=jobs,
        tiers={"small": "spec", "mid": "epr", "large": "neon", "large_alt": "sampling"},
    )


# --- spectral_sweep ------------------------------------------------------

SPECTRAL_SHOTS = 4096
# jobs per round for each (d, degenerate). The mix puts the round's median
# inside the d64_deg block and its 90th percentile inside the d96 block, well
# away from any class boundary, so neither flips between classes.
SPECTRAL_MIX = {
    (16, False): 1, (16, True): 1, (32, False): 1, (32, True): 1,
    (64, False): 1, (64, True): 2, (96, False): 2, (96, True): 1,
}


def _spectral_job(rng, workdir: Path, d: int, degenerate: bool, index: int) -> Job:
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0].T  # rows are orthonormal
    vec_text = [[_num(x) for x in row] for row in basis]
    vecs = [_unit(_parsed(row)) for row in vec_text]
    if degenerate:
        high = set(rng.permutation(d)[: d // 2].tolist())
        evals = [2.5 if i in high else 0.5 for i in range(d)]
    else:
        evals = (1.0 + 0.05 * np.arange(d) + rng.uniform(0.0, 0.02, size=d)).tolist()
        evals = [evals[i] for i in rng.permutation(d)]
    eval_text = [f"{lam:.6f}" for lam in evals]
    evals = [float(s) for s in eval_text]
    psi_text = [_num(x) for x in _unit(rng.normal(size=d))]
    psi = _unit(_parsed(psi_text))
    seed = int(rng.integers(0, 2**32))

    lines = [f"# spectral sweep: d={d}, {'two' if degenerate else d} eigenspaces"]
    lines += [_ket_line(f"v{i}", row) for i, row in enumerate(vec_text)]
    lines.append(_ket_line("psi", psi_text))
    lines.append("op H = " + " + ".join(f"{t}*proj(v{i})" for i, t in enumerate(eval_text)))
    lines.append("pdi P = spectral(H)")
    lines.append(f"query sample psi P shots {SPECTRAL_SHOTS} seed {seed:010d}")
    kind = f"d{d}_deg" if degenerate else f"d{d}"
    path = workdir / f"{kind}-{index}.spec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    weight = {}
    for lam, v in zip(evals, vecs):
        weight[lam] = weight.get(lam, 0.0) + float(np.dot(v, psi)) ** 2
    values = sorted(weight, reverse=True)  # spectral PDIs list eigenvalues descending
    probs = [weight[lam] for lam in values]

    def check(report):
        (result,) = _results(report, ["sample"])
        _check_sample(result, SPECTRAL_SHOTS, seed, probs, values)

    return Job(kind, ["run", str(path), "--format", "json"], 1, check)


def spectral_sweep(rng: np.random.Generator, root: Path, workdir: Path) -> Workload:
    """`spectral(H)` over a seeded orthonormal basis, d in 16..96, with d
    distinct eigenvalues or two eigenspaces of rank d/2."""
    jobs = [
        _spectral_job(rng, workdir, d, degenerate, i)
        for (d, degenerate), count in SPECTRAL_MIX.items()
        for i in range(count)
    ]
    return Workload(
        cold=False,
        jobs=jobs,
        tiers={"small": "d32", "mid": "d64", "large": "d96", "large_alt": "d96_deg"},
    )


# --- history_sweep -------------------------------------------------------

CONDITIONALS = 3
# event times -> (consistent, inconsistent) jobs per round. The round's
# median falls inside the h1024 block and its 90th percentile inside the
# h4096_inc block, each well away from a class boundary.
HISTORY_MIX = {8: (3, 3), 10: (6, 3), 12: (1, 4)}

_HISTORY_HEADER = """\
ket k0 = [1, 0]
ket k1 = [0, 1]
op ZA0 = kron(proj(k0), I(2))
op ZA1 = kron(proj(k1), I(2))
op ZB0 = kron(I(2), proj(k0))
op ZB1 = kron(I(2), proj(k1))
pdi ZA = {ZA0, ZA1}
pdi ZB = {ZB0, ZB1}
"""

_Z = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
_EVENT_PROJECTORS = {
    "ZA": [np.kron(p, np.eye(2)) for p in _Z],
    "ZB": [np.kron(np.eye(2), p) for p in _Z],
}
# basis index 2*qA + qB; each flip is an XOR on it
_FLIPS = {"XA": 2, "XB": 1, "XX": 3}


def _event_label(pdi: str, state: int) -> str:
    bit = state >> 1 if pdi == "ZA" else state & 1
    return f"{pdi}{bit}"


def _family_text(name: str, props: list[str], events: list[str]) -> str:
    body = [f"family {name} {{", "  initial psi;"]
    body += [f"  prop {t} = {p};" for t, p in enumerate(props, start=1)]
    body += [f"  events {t} = {e};" for t, e in enumerate(events, start=1)]
    return "\n".join(body + ["}"])


def _psi(rng) -> tuple[list[str], np.ndarray]:
    amps = rng.uniform(0.3, 0.7, size=4) * rng.choice([-1.0, 1.0], size=4)
    text = [_num(x) for x in amps]
    return text, _unit(_parsed(text))


def _consistent_job(rng, workdir: Path, k: int, index: int) -> Job:
    """Z events and X-flip propagators: every basis state follows one
    history, so histories have disjoint support and closed-form weights."""
    events = [str(rng.choice(["ZA", "ZB"])) for _ in range(k)]
    props = [str(rng.choice(list(_FLIPS))) for _ in range(k)]
    psi_text, psi = _psi(rng)
    trajectories = []
    for start in range(4):
        state, labels = start, []
        for prop, pdi in zip(props, events):
            state ^= _FLIPS[prop]
            labels.append(_event_label(pdi, state))
        trajectories.append((labels, float(psi[start]) ** 2))
    weights: dict[str, float] = {}
    for labels, w in trajectories:
        key = ",".join(labels)
        weights[key] = weights.get(key, 0.0) + w

    conditionals = []
    for _ in range(CONDITIONALS):
        given_t, target_t = (int(x) for x in rng.choice(k, size=2, replace=False) + 1)
        given_label = trajectories[int(rng.integers(4))][0][given_t - 1]
        target_label = f"{events[target_t - 1]}{int(rng.integers(2))}"
        pr_given = sum(w for labels, w in trajectories if labels[given_t - 1] == given_label)
        pr_joint = sum(
            w for labels, w in trajectories
            if labels[given_t - 1] == given_label and labels[target_t - 1] == target_label
        )
        conditionals.append((target_t, target_label, given_t, given_label, pr_joint / pr_given))

    lines = [f"# history sweep: consistent family, {k} times", _HISTORY_HEADER]
    lines += ["op XA = kron(X, I(2))", "op XB = kron(I(2), X)", "op XX = kron(X, X)"]
    lines.append(_ket_line("psi", psi_text))
    lines.append(_family_text("C", props, events))
    lines += ["query consistency C", "query probs C"]
    # time indices zero-padded so the spec's byte count does not depend on the seed
    lines += [f"query conditional C {t:02d}:{tl} | {g:02d}:{gl}" for t, tl, g, gl, _ in conditionals]
    kind = f"h{2 ** k}"
    path = workdir / f"{kind}-{index}.spec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def check(report):
        kinds = ["consistency", "probs"] + ["conditional"] * CONDITIONALS
        verdict, table, *conds = _results(report, kinds)
        _equal("consistent", verdict["consistent"], True)
        _equal("n_histories", verdict["n_histories"], 2**k)
        if not verdict["max_offdiag"] < verdict["tolerance"]:
            _fail(f"max_offdiag {verdict['max_offdiag']} not below tolerance")
        probs = table["probabilities"]
        _equal("history count", len(probs), 2**k)
        for key, p in probs.items():
            _close(f"Pr({key})", p, weights.get(key, 0.0), 1e-11)
        _close("total", table["total"], 1.0, 1e-11)
        _equal("exhaustive", table["exhaustive"], True)
        for got, (t, tl, g, gl, want) in zip(conds, conditionals):
            _equal("conditional target", got["target"], f"{t}:{tl}")
            _equal("conditional given", got["given"], f"{g}:{gl}")
            _close(f"Pr({t}:{tl} | {g}:{gl})", got["probability"], want, 1e-10)

    return Job(kind, ["run", str(path), "--format", "json"], 2 + CONDITIONALS, check)


def _max_offdiag(chains: np.ndarray, block: int = 512) -> float:
    """Largest |<K(Y)|K(Z)>| over Y != Z, one block of Gram rows at a time."""
    worst = 0.0
    for start in range(0, chains.shape[0], block):
        rows = chains[start:start + block].conj() @ chains.T
        idx = np.arange(rows.shape[0])
        rows[idx, idx + start] = 0.0
        worst = max(worst, float(np.abs(rows).max()))
    return worst


def _inconsistent_job(rng, workdir: Path, k: int, index: int) -> Job:
    """kron(sigma, sigma) propagators with Z events: generically inconsistent.
    The reference builds every chain vector and the Gram off-diagonal with
    plain numpy."""
    events = [str(rng.choice(["ZA", "ZB"])) for _ in range(k)]
    while True:
        angles = [(_angle(a), _angle(b)) for a, b in rng.uniform(0.0, 360.0, size=(k, 2))]
        psi_text, psi = _psi(rng)
        chains = psi[None, :].astype(complex)
        for (a, b), pdi in zip(angles, events):
            u = np.kron(_sigma(float(a)), _sigma(float(b)))
            moved = chains @ u.T
            chains = np.stack([moved @ p.T for p in _EVENT_PROJECTORS[pdi]], axis=1).reshape(-1, 4)
        worst = _max_offdiag(chains)
        if worst > 1e-6:  # far from the 1e-10 consistency tolerance
            break

    lines = [f"# history sweep: inconsistent family, {k} times", _HISTORY_HEADER]
    lines += [f"op U{t} = kron(sigma({a}), sigma({b}))" for t, (a, b) in enumerate(angles, start=1)]
    lines.append(_ket_line("psi", psi_text))
    lines.append(_family_text("F", [f"U{t}" for t in range(1, k + 1)], events))
    lines.append("query consistency F")
    kind = f"h{2 ** k}_inc"
    path = workdir / f"{kind}-{index}.spec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def check(report):
        (verdict,) = _results(report, ["consistency"])
        _equal("consistent", verdict["consistent"], worst < verdict["tolerance"])
        _equal("n_histories", verdict["n_histories"], 2**k)
        _close("max_offdiag", verdict["max_offdiag"], worst, 1e-9 * worst)

    return Job(kind, ["run", str(path), "--format", "json"], 1, check)


def history_sweep(rng: np.random.Generator, root: Path, workdir: Path) -> Workload:
    """Two-qubit families with 8, 10 and 12 two-outcome times (256 to 4096
    histories): a consistent one with probs and conditionals, and an
    inconsistent one with a consistency query only."""
    jobs = []
    for k, (consistent, inconsistent) in HISTORY_MIX.items():
        jobs += [_consistent_job(rng, workdir, k, i) for i in range(consistent)]
        jobs += [_inconsistent_job(rng, workdir, k, i) for i in range(inconsistent)]
    return Workload(
        cold=False,
        jobs=jobs,
        tiers={"small": "h256", "mid": "h1024", "large": "h4096", "large_alt": "h4096_inc"},
    )


# --- bell_batch ----------------------------------------------------------

# jobs per round, by state and LHV verdict. The 16 small specs hold the
# round's median; the three 10^6-shot samples cover 82-95% of the jobs, so
# the 90th percentile is one of them rather than a blend of a small spec and
# neon. Fixing the verdict counts keeps the lhv work the same for any seed.
BELL_SPECS = {
    ("singlet_opt", False): 4, ("singlet", True): 3, ("singlet", False): 3, ("product", True): 6,
}
SAMPLE_MIX = {"shots1e4": (10_000, 1), "shots1e5": (100_000, 1), "shots1e6": (1_000_000, 3)}
NEON_SHOTS = 1_000_000

_ODD_SIGNS = [s for s in product((1, -1), repeat=4) if s[0] * s[1] * s[2] * s[3] == -1]


def _bell_angles(rng, kind: str, feasible: bool) -> tuple[list[str], np.ndarray]:
    """Alice's and Bob's two angles with the wanted LHV verdict, drawn away
    from the boundary of the LHV polytope."""
    while True:
        if kind == "singlet_opt":  # near the Tsirelson setting: always infeasible
            deg = np.array([90.0, 0.0, 45.0, 135.0]) + rng.uniform(-5.0, 5.0, size=4)
        else:
            deg = rng.uniform(0.0, 360.0, size=4)
        text = [_angle(x) for x in deg]
        a0, a1, b0, b1 = (float(t) for t in text)
        if kind == "product":
            c = np.cos(np.radians([a0, a1, b0, b1]))
            e = np.array([[c[0] * c[2], c[0] * c[3]], [c[1] * c[2], c[1] * c[3]]])
        else:
            e = -np.cos(np.radians(np.array([[a0 - b0, a0 - b1], [a1 - b0, a1 - b1]])))
        worst = max(abs(float(np.dot(s, e.reshape(-1)))) for s in _ODD_SIGNS)
        if abs(worst - 2.0) > 1e-6 and (worst < 2.0) == feasible:
            return text, e


def _bell_job(rng, workdir: Path, kind: str, feasible: bool, index: int) -> Job:
    text, e = _bell_angles(rng, kind, feasible)
    flat = e.reshape(-1)
    sums = [float(np.dot(s, flat)) for s in _ODD_SIGNS]
    max_combination = max(abs(x) for x in sums)
    s_value = float(flat[0] + flat[1] + flat[2] - flat[3])
    b0 = float(text[2])
    bob = (
        [0.5, 0.5] if kind != "product"
        else [math.cos(math.radians(b0) / 2) ** 2, math.sin(math.radians(b0) / 2) ** 2]
    )
    state = "[1, 0, 0, 0]" if kind == "product" else "[0, 1, -1, 0]"
    lines = [
        f"# bell batch: {kind}",
        f"ket s = {state}",
        f"op A0 = kron(sigma({text[0]}), I(2))",
        f"op A1 = kron(sigma({text[1]}), I(2))",
        f"op B0 = kron(I(2), sigma({text[2]}))",
        f"op B1 = kron(I(2), sigma({text[3]}))",
        "pdi PA0 = spectral(A0)",
        "pdi PA1 = spectral(A1)",
        "pdi PB0 = spectral(B0)",
        "query chsh A0 A1 B0 B1 in s",
        "query lhv A0 A1 B0 B1 in s",
        "query nosignal s dims 2 2 alice PA0 PA1 bob PB0",
    ]
    path = workdir / f"{kind}-{'lhv' if feasible else 'nonlocal'}-{index}.spec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def check_table(result):
        for a, b in product((0, 1), repeat=2):
            _close(f"E({a},{b})", result["e"][a][b], e[a, b], 1e-9)
        _close("S", result["s"], s_value, 1e-9)

    def check(report):
        chsh, lhv, nosignal = _results(report, ["chsh", "lhv", "nosignal"])
        check_table(chsh)
        _close("direct expectation", chsh["direct_expectation"], s_value, 1e-9)
        check_table(lhv)
        _equal("lhv verdict", lhv["feasible"], feasible)
        _close("max |CHSH combination|", lhv["max_combination"], max_combination, 1e-9)
        if feasible:
            mix = np.zeros(4)
            weights = [item["weight"] for item in lhv["mixture"]]
            for item in lhv["mixture"]:
                a0, a1, b0_, b1 = item["strategy"]
                if item["weight"] < 0:
                    _fail(f"negative mixture weight {item['weight']}")
                mix += item["weight"] * np.array([a0 * b0_, a0 * b1, a1 * b0_, a1 * b1])
            _close("mixture weight total", sum(weights), 1.0, 1e-9)
            for i in range(4):
                _close(f"mixture correlator {i}", mix[i], flat[i], 1e-9)
        else:
            signs = tuple(lhv["violated_signs"])
            if signs not in _ODD_SIGNS:
                _fail(f"violated signs {signs} are not an odd CHSH pattern")
            _close("violated value", lhv["violated_value"], float(np.dot(signs, flat)), 1e-9)
            _close("|violated value|", abs(lhv["violated_value"]), max_combination, 1e-9)
        _equal("no-signaling verdict", nosignal["passes"], True)
        if not nosignal["max_deviation"] <= nosignal["tolerance"]:
            _fail(f"no-signaling deviation {nosignal['max_deviation']}")
        for name in ("PA0", "PA1"):
            for i in (0, 1):
                _close(f"Bob marginal {name}[{i}]", nosignal["bob_marginals"][name][i], bob[i], 1e-9)

    return Job(kind, ["run", str(path), "--format", "json"], 3, check)


def _sample_job(rng, workdir: Path, kind: str, shots: int, index: int) -> Job:
    basis = np.linalg.qr(rng.normal(size=(4, 4)))[0].T
    vec_text = [[_num(x) for x in row] for row in basis]
    vecs = [_unit(_parsed(row)) for row in vec_text]
    psi_text = [_num(x) for x in _unit(rng.normal(size=4))]
    psi = _unit(_parsed(psi_text))
    values = [1.5, 0.5, -0.5, -1.5]
    seed = int(rng.integers(0, 2**32))
    lines = [f"# bell batch: {shots}-shot sample"]
    lines += [_ket_line(f"e{i}", row) for i, row in enumerate(vec_text)]
    lines.append(_ket_line("psi", psi_text))
    lines.append("op H = 1.5*proj(e0) + 0.5*proj(e1) - 0.5*proj(e2) - 1.5*proj(e3)")
    lines.append("pdi P = spectral(H)")
    lines.append(f"query sample psi P shots {shots} seed {seed:010d}")
    path = workdir / f"{kind}-{index}.spec"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    probs = [float(np.dot(v, psi)) ** 2 for v in vecs]

    def check(report):
        (result,) = _results(report, ["sample"])
        _check_sample(result, shots, seed, probs, values)

    return Job(kind, ["run", str(path), "--format", "json"], 1, check)


def _neon_reference():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    alice = (np.kron(z, eye), np.kron(x, eye))
    bob = (np.kron(eye, x), np.kron(eye, z))
    products = {(a, b): alice[a] @ bob[b] for a, b in product((0, 1), repeat=2)}
    s = products[0, 0] + products[0, 1] + products[1, 0] - products[1, 1]
    return products, s, np.sort(np.linalg.eigvalsh(s))[::-1]


def _neon_job(rng) -> Job:
    seed = int(rng.integers(0, 2**31))
    products, s_op, spectrum = _neon_reference()
    top = float(spectrum[0])

    def check(report):
        _equal("eigenvalue count", len(report["eigenvalues"]), 4)
        for got, want in zip(report["eigenvalues"], spectrum):
            _close("S eigenvalue", got, want, 1e-9)
        amps = np.array(report["top_eigenstate"]["re"]) + 1j * np.array(report["top_eigenstate"]["im"])
        _close("top eigenstate norm", np.linalg.norm(amps), 1.0, 1e-9)
        _close("top eigenstate residual", np.linalg.norm(s_op @ amps - top * amps), 0.0, 1e-9)
        for (a, b), m in products.items():
            want = float(np.vdot(amps, m @ amps).real)
            _close(f"E({a},{b})", report["chsh"]["e"][a][b], want, 1e-9)
        _close("S", report["chsh"]["s"], top, 1e-9)
        _close("direct expectation", report["chsh"]["direct_expectation"], top, 1e-9)
        sampled = report["sampled"]
        _equal("shots", sampled["shots"], NEON_SHOTS)
        _equal("seed", sampled["seed"], seed)
        e_hat, variance = {}, 0.0
        for a, b in product((0, 1), repeat=2):
            counts = sampled["counts"][f"{a}{b}"]
            _equal(f"counts {a}{b} total", counts["0"] + counts["1"], NEON_SHOTS)
            e_hat[a, b] = (counts["0"] - counts["1"]) / NEON_SHOTS
            variance += (1.0 - e_hat[a, b] ** 2) / NEON_SHOTS
        s_hat = e_hat[0, 0] + e_hat[0, 1] + e_hat[1, 0] - e_hat[1, 1]
        _close("s_hat from counts", sampled["s_hat"], s_hat, 1e-9)
        _close("std_error from counts", sampled["std_error"], math.sqrt(variance), 1e-9)
        if abs(s_hat - top) > 6.0 * math.sqrt(variance):
            _fail(f"s_hat {s_hat} is more than 6 sigma from {top}")

    argv = ["neon", "--shots", str(NEON_SHOTS), "--seed", str(seed), "--format", "json"]
    return Job("neon1e6", argv, 1, check)


def bell_batch(rng: np.random.Generator, root: Path, workdir: Path) -> Workload:
    """Small chsh/lhv/nosignal specs on the singlet and on |00>, plus
    sample queries at 10^4..10^6 shots and `neon --shots 1000000`."""
    jobs = []
    for (kind, feasible), count in BELL_SPECS.items():
        jobs += [_bell_job(rng, workdir, kind, feasible, i) for i in range(count)]
    for kind, (shots, count) in SAMPLE_MIX.items():
        jobs += [_sample_job(rng, workdir, kind, shots, i) for i in range(count)]
    jobs.append(_neon_job(rng))
    return Workload(
        cold=False,
        jobs=jobs,
        tiers={"small": "shots1e4", "mid": "shots1e5", "large": "shots1e6", "large_alt": "neon1e6"},
    )


WORKLOADS = {
    "corpus_cold": corpus_cold,
    "spectral_sweep": spectral_sweep,
    "history_sweep": history_sweep,
    "bell_batch": bell_batch,
}
