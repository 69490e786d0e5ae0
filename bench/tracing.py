"""Layer spans and work counts for the histories-kit benchmark.

`Tracer.install()` wraps every plain function a layer module lists in its
`__all__`, at each place a `histories_kit` module binds it (so a call from
`dsl` to `hilbert.spectral_decompose` is caught through `dsl`'s own name).
Each call records a span (name, start, end, parent span) in memory. Self
time is a span's duration minus the time its direct child spans cover.

Some wrapped calls also feed "computed" work counts, derived from the call
arguments alone, so they repeat exactly for the same inputs: spec bytes,
PDI pair products, chain steps, prefix-tree nodes, Gram entries and shots.

A function that a later version of the package drops simply records no
calls; every reader of a summary treats a missing name as zero.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time
from collections import Counter

LAYERS = ("cli", "dsl", "hilbert", "histories", "bell", "sampler")
PACKAGE = "histories_kit"


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _count_parse(args, kwargs):
    return {"spec_bytes": len(_arg(args, kwargs, 0, "source").encode("utf-8"))}


def _count_pairs(args, kwargs):
    projectors = _arg(args, kwargs, 0, "projectors")
    n = len(getattr(projectors, "projectors", projectors))
    return {"pair_products": n * (n - 1) // 2}


def _count_chain(args, kwargs):
    return {"chain_steps": len(_arg(args, kwargs, 1, "history"))}


def _count_family(args, kwargs):
    fam = _arg(args, kwargs, 0, "fam")
    if fam.histories is not None:
        histories = fam.histories
        prefixes = {h[:t] for h in histories for t in range(1, len(h) + 1)}
        n_hist, nodes = len(histories), len(prefixes)
    else:
        sizes = [len(pdi.labels) for pdi in fam.event_pdis]
        n_hist = math.prod(sizes)
        nodes = sum(math.prod(sizes[: t + 1]) for t in range(len(sizes)))
    return {"gram_entries": n_hist * n_hist, "prefix_nodes": nodes}


def _count_shots(args, kwargs):
    return {"shots": int(_arg(args, kwargs, 2, "config").shots)}


# span name -> counter hook over the call arguments
COUNT_HOOKS = {
    "dsl.parse_spec": _count_parse,
    "hilbert.pdi_validate": _count_pairs,
    "histories.chain_vector": _count_chain,
    "histories.consistency_check": _count_family,
    "sampler.sample_pdi": _count_shots,
}


class Tracer:
    """In-memory spans plus computed counts for the calls it wraps."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_s, end_s, parent_index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    counts.update(hook(args, kwargs))
                except Exception:  # noqa: BLE001 - a changed signature counts nothing
                    pass
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn, traced))
        for m, attr, _, traced in self._patches:
            setattr(m, attr, traced)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)
        self._patches.clear()

    def export(self) -> dict:
        return {"spans": list(self.spans), "counts": dict(self.counts)}


def summarize(spans, counts) -> dict:
    """Per span name: calls, self_ms and total_ms; plus the computed counts."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    per_name: dict[str, dict] = {}
    for (name, start, end, _), inner in zip(spans, child_s):
        entry = per_name.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (end - start) * 1e3
        entry["self_ms"] += (end - start - inner) * 1e3
    return {"functions": per_name, "computed": dict(counts)}


def merge(summaries) -> dict:
    """Add up several summaries (one per job) into one."""
    per_name: dict[str, dict] = {}
    counts: Counter = Counter()
    for summary in summaries:
        counts.update(summary["computed"])
        for name, entry in summary["functions"].items():
            total = per_name.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            for key in total:
                total[key] += entry[key]
    return {"functions": per_name, "computed": dict(counts)}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time in ms for each layer module in `-X importtime` output."""
    wanted = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
    found = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3) in wanted:
            found[wanted[m.group(3)]] = int(m.group(1)) / 1e3
    return found
