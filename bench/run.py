#!/usr/bin/env python3
"""histories-kit benchmark: end-to-end and per-layer metrics for `histkit`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it needs `src/`, `specs/` and
`tests/golden/`). Workloads are defined in `workloads.py`; metric names and
units come from `BENCHMARK.json`. The load is a closed loop: one client
runs one job at a time, repeating the workload's round of jobs (reshuffled
each round) until `--seconds` have passed, and always finishing the round.

With `--trace 0` the end-to-end metrics are measured with tracing off:
set-up time in seconds (median of fresh `import histories_kit.cli`
processes spread over the run), job time p50/p90 over all jobs, the 10th
percentile of four job classes per workload (`job_rel.p10.<tier>`, classes
mapped in `workloads.py`), queries completed per unit of reference time,
peak RSS and the share of jobs that passed. Job times and the query rate are
relative to a reference probe, fixed work without histories_kit interleaved
with the jobs, because a shared cloud VM can drift in speed by 10-30%
between runs; the raw milliseconds are printed and recorded as well. With
`--trace 1` each job runs twice, once plain and once traced, in alternating
order; the per-layer metrics are medians over rounds of the traced copies,
and the tracing overhead is traced minus plain job time per round.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full record (environment, per-class timings, failures) goes to
`bench/out/`; the traced run also writes every span there.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, here and in every child process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing
from workloads import WORKLOADS, Mismatch, SetupError, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 5
CHILD_TIMEOUT_S = 120
IMPORT_CLI = "import histories_kit.cli"

# per_layer metric -> (span name, field) read from a round's trace summary
SPAN_METRICS = {
    f"{name}.{field}": (name, field)
    for name in (
        "cli.execute", "dsl.parse_spec", "hilbert.spectral_decompose",
        "hilbert.pdi_validate", "histories.chain_vector",
        "histories.consistency_check", "histories.conditional_probability",
        "bell.chsh_value", "bell.lhv_feasibility", "bell.no_signaling_check",
        "sampler.sample_pdi", "sampler.empirical_chsh",
    )
    for field in ("calls", "self_ms")
}
# per_layer metrics derived from call arguments alone; they repeat exactly
COMPUTED = ("dsl.spec_kb", "hilbert.pdi_validate.pair_products", "histories.chain_steps",
            "histories.prefix_nodes", "histories.gram_entries", "sampler.shots")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_cli():
    """Import `histories_kit.cli` from this checkout's `src/`, nowhere else."""
    package = SRC / "histories_kit"
    if not (package / "cli.py").is_file():
        raise SetupError(f"no histories_kit package under {SRC}")
    sys.path.insert(0, str(SRC))
    from histories_kit import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SetupError(f"histories_kit imported from {cli.__file__}, not {package}")
    return cli


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict form
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def spawn(argv: list[str]) -> tuple[float, int, str, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def setup_sample() -> float:
    """One fresh interpreter importing the CLI."""
    seconds, code, _, err = spawn([sys.executable, "-c", IMPORT_CLI])
    if code != 0:
        raise SetupError(f"importing histories_kit.cli failed:\n{err}")
    return seconds


_PROBE_MATRIX = np.random.default_rng(0).normal(size=(16, 16)) + 0j


def reference_probe(cold: bool) -> float:
    """Seconds for fixed work that does not touch histories_kit: a fresh
    interpreter importing numpy for cold workloads, and about 40 ms of
    small-matrix numpy and Python object work in process for warm ones."""
    if cold:
        return spawn([sys.executable, "-c", "import numpy"])[0]
    start = time.perf_counter()
    m = _PROBE_MATRIX
    for _ in range(1200):
        float(np.abs(m @ m.conj().T - np.eye(16)).max())
    for _ in range(40):  # small batches, so the probe adds little to peak RSS
        items = [(i, str(i)) for i in range(2000)]
        json.dumps(dict(items[:300]))
        sorted(items, key=lambda t: t[1])
    return time.perf_counter() - start


def import_self_ms() -> dict[str, float]:
    """Median self import time per layer from separate `-X importtime` runs."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, code, _, err = spawn([sys.executable, "-X", "importtime", "-c", IMPORT_CLI])
        if code != 0:
            raise SetupError(f"importing histories_kit.cli failed:\n{err}")
        runs.append(tracing.parse_importtime(err))
    return {
        layer: statistics.median(run.get(layer, 0.0) for run in runs)
        for layer in tracing.LAYERS
    }


class Runner:
    """Runs one job, plain or traced, and checks its report."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.cli = None if workload.cold else load_cli()
        self.failures: list[str] = []

    def run(self, job, traced: bool) -> tuple[float, bool, dict | None]:
        """Seconds taken, whether the report checked out, and for a traced
        run its spans and counts."""
        seconds, trace = 0.0, None
        try:
            run = self._run_cold if self.workload.cold else self._run_warm
            seconds, code, stdout, trace = run(job, traced)
            if code != 0:
                raise Mismatch(f"exit code {code}")
            job.check(json.loads(stdout))
        except Exception as err:  # noqa: BLE001 - a failing job is counted, the run goes on
            if not isinstance(err, Mismatch):
                err = "".join(traceback.format_exception_only(type(err), err)).strip()
            self.failures.append(f"{job.kind} {' '.join(job.argv)}: {err}")
            return seconds, False, trace
        return seconds, True, trace

    def _run_warm(self, job, traced):
        out = io.StringIO()
        if not traced:
            start = time.perf_counter()
            code = self.cli.execute(list(job.argv), out=out)
            return time.perf_counter() - start, code, out.getvalue(), None
        tracer = tracing.Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            code = self.cli.execute(list(job.argv), out=out)
            seconds = time.perf_counter() - start
        finally:
            tracer.uninstall()
        return seconds, code, out.getvalue(), tracer.export()

    def _run_cold(self, job, traced):
        if not traced:
            seconds, code, stdout, _ = spawn([sys.executable, "-m", "histories_kit.cli", *job.argv])
            return seconds, code, stdout, None
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "--", *job.argv]
        seconds, code, stdout, _ = spawn(argv)
        return seconds, code, stdout, json.loads(spans_path.read_text(encoding="utf-8"))


class Sample(NamedTuple):
    kind: str
    ms: float
    ok: bool
    queries: int
    round: int


def rounds(workload: Workload, seed: int, seconds: float):
    """Yield the round's jobs, reshuffled each time, until the time is up."""
    order = np.random.default_rng([seed, 1])
    deadline = time.perf_counter() + seconds
    while True:
        yield [workload.jobs[i] for i in order.permutation(len(workload.jobs))]
        if time.perf_counter() >= deadline:
            return


def end_to_end(workload: Workload, runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced jobs, with set-up and reference-probe samples spread over
    the same time span."""
    samples: list[Sample] = []
    setup_sample()  # fills caches; not counted
    setup, probes = [], []
    setup_every = seconds / SETUP_SAMPLES
    probe_every = 2.0 if workload.cold else 0.5
    next_setup = next_probe = time.perf_counter()
    for index, jobs in enumerate(rounds(workload, seed, seconds)):
        for job in jobs:
            taken, ok, _ = runner.run(job, traced=False)
            samples.append(Sample(job.kind, taken * 1e3, ok, job.queries, index))
            now = time.perf_counter()
            if now >= next_setup:
                setup.append(setup_sample())
                next_setup = now + setup_every
            if now >= next_probe:
                probes.append(reference_probe(workload.cold) * 1e3)
                next_probe = now + probe_every
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    usage = resource.RUSAGE_CHILDREN if workload.cold else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    all_ms = [s.ms for s in samples]
    by_class: dict[str, list[float]] = {}
    for s in samples:
        by_class.setdefault(s.kind, []).append(s.ms)
    raw = {
        "job_ms.p50": statistics.median(all_ms),
        "job_ms.p90": statistics.quantiles(all_ms, n=10, method="inclusive")[8],
        "queries_per_s": sum(s.queries for s in samples if s.ok) / (sum(all_ms) / 1e3),
    }
    # A class's 10th percentile, not its median: on a shared 2-vCPU cloud VM
    # (Intel Xeon) speed alternates between two states about 1.4x apart, each
    # lasting tens of ms to seconds, so a short class's median flips between
    # them from run to run.
    for tier, kind in workload.tiers.items():
        ms = by_class[kind]
        raw[f"job_ms.p10.{tier}"] = (
            statistics.quantiles(ms, n=10, method="inclusive")[0] if len(ms) > 1 else ms[0]
        )
    # Job times are reported in units of the reference probe's mean time over
    # the same run. On that VM speed also drifts by 10-30% between runs a
    # minute apart; the probe slows with it, so the ratio keeps only the
    # program's share of the change.
    probe_ms = statistics.fmean(probes)
    values = {
        "setup_s": statistics.median(setup),
        **{name.replace("job_ms.", "job_rel."): ms / probe_ms
           for name, ms in raw.items() if name.startswith("job_ms.")},
        "queries_per_ref": raw["queries_per_s"] * probe_ms / 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": sum(s.ok for s in samples) / len(samples),
    }
    detail = {
        "rounds": samples[-1].round + 1,
        "jobs": len(samples),
        "raw": raw,
        "probe_ms": probe_ms,
        "setup_s_samples": setup,
        "probe_ms_samples": probes,
        "samples": samples,
        "class_ms": {
            kind: {"n": len(ms), "median": statistics.median(ms), "min": min(ms), "max": max(ms)}
            for kind, ms in sorted(by_class.items())
        },
    }
    return values, detail


def per_layer(workload: Workload, runner: Runner, seed: int, seconds: float) -> tuple[dict, dict]:
    """Each job plain and traced, in alternating order; medians over rounds."""
    imports = import_self_ms()
    round_summaries, overhead_ms, overhead_pct, exported = [], [], [], []
    jobs_run = 0
    flip = False
    for index, jobs in enumerate(rounds(workload, seed, seconds)):
        plain_s = traced_s = 0.0
        job_summaries = []
        for job in jobs:
            flip = not flip
            for traced in ((False, True) if flip else (True, False)):
                taken, _, trace = runner.run(job, traced)
                jobs_run += 1
                if not traced:
                    plain_s += taken
                    continue
                traced_s += taken
                if trace is not None:
                    job_summaries.append(tracing.summarize(trace["spans"], trace["counts"]))
                    exported.append({"round": index, "job": job.kind, "argv": job.argv, **trace})
        round_summaries.append(tracing.merge(job_summaries))
        overhead_ms.append((traced_s - plain_s) * 1e3)
        overhead_pct.append(100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0)

    def median_of(pick) -> float:
        return statistics.median(pick(s) for s in round_summaries)

    def span(name, field):
        return lambda s: s["functions"].get(name, {}).get(field, 0.0)

    def computed(key):
        return lambda s: s["computed"].get(key, 0)

    def ratio(num, den):
        return lambda s: num(s) / den(s) if den(s) else 0.0

    values = {f"{layer}.import_ms": ms for layer, ms in imports.items()}
    values.update({metric: median_of(span(*key)) for metric, key in SPAN_METRICS.items()})
    values.update({
        "dsl.spec_kb": median_of(computed("spec_bytes")) / 1024.0,
        "dsl.kb_per_s": median_of(ratio(
            lambda s: computed("spec_bytes")(s) / 1024.0,
            lambda s: span("dsl.parse_spec", "self_ms")(s) / 1e3)),
        "hilbert.pdi_validate.pair_products": median_of(computed("pair_products")),
        "histories.chain_steps": median_of(computed("chain_steps")),
        "histories.prefix_nodes": median_of(computed("prefix_nodes")),
        "histories.gram_entries": median_of(computed("gram_entries")),
        "histories.prefix_reuse": median_of(ratio(computed("prefix_nodes"), computed("chain_steps"))),
        "sampler.shots": median_of(computed("shots")),
        "sampler.mshots_per_s": median_of(ratio(
            lambda s: computed("shots")(s) / 1e6,
            lambda s: span("sampler.sample_pdi", "total_ms")(s) / 1e3)),
        "trace.overhead_ms": statistics.median(overhead_ms),
        "trace.overhead_pct": statistics.median(overhead_pct),
    })
    detail = {"rounds": len(round_summaries), "jobs": jobs_run,
              "round_summaries": round_summaries, "spans": exported}
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    try:
        if not (SRC / "histories_kit").is_dir():
            raise SetupError(f"no histories_kit package under {SRC}")
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), ROOT, workdir)
        runner = Runner(workload, workdir)
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(workload, runner, args.seed, args.seconds)
    except SetupError as err:
        sys.stderr.write(f"benchmark setup failed: {err}\n")
        return 2

    attempted = detail["jobs"]
    failed = len(runner.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment()

    print(f"histories-kit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"jobs: {attempted} attempted in {detail['rounds']} rounds, {failed} failed "
          f"(fail_ratio {failed / attempted:.4g})")
    for kind, stats in detail.get("class_ms", {}).items():
        print(f"  class {kind}: median {stats['median']:.3f} ms over {stats['n']} jobs")
    if "raw" in detail:
        print(f"  reference probe: mean {detail['probe_ms']:.3f} ms over "
              f"{len(detail['probe_ms_samples'])} samples")
        for name, value in detail["raw"].items():
            print(f"  {name} = {value:.6g}  (raw)")
    tiers = {f"job_rel.p10.{t}": k for t, k in workload.tiers.items()}
    for name, m in metrics.items():
        note = f"  [{tiers[name]}]" if name in tiers else ""
        note += "  [computed]" if name in COMPUTED else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    for failure in runner.failures[:20]:
        sys.stderr.write(f"FAILED {failure}\n")

    record = {"args": vars(args), "environment": env, "tiers": workload.tiers,
              "failures": runner.failures, "metrics": metrics, **detail}
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
