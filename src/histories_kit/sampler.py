"""Reproducible Born-rule sampling.

The generator is a counter-based splitmix64: output i of a stream is a pure
function of (seed, i), so shot n of any run is identical no matter how the
preceding shots were batched. That partition property is what makes sampled
CHSH runs exactly reproducible across machines and chunk sizes.

`sample_pdi` relies on it to tally shots chunk by chunk: each chunk of
`_CHUNK` raw outputs is generated into one reused buffer and counted against
integer thresholds on the 53-bit draws, so counts are identical for any chunk
size and memory stays the same for any number of shots. A chunk is counted by
one comparison pass per threshold when there are few (up to `_COMPARE_MAX`,
where the passes cost less than a sort) and by sorting it otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import check
from .errors import ProbabilityNormalizationError
from .hilbert import PDI, Ket, _check_dims, _frozen, _projections, spectral_decompose
from .bell import CHSHOperators, _chsh

__all__ = [
    "MAX_SHOTS",
    "RunConfig",
    "SampleResult",
    "EmpiricalCHSH",
    "uniform_stream",
    "sample_pdi",
    "empirical_chsh",
]

# largest accepted shot count; two outcomes take about 0.5 s at this size on a
# 1-vCPU Xeon host, so every accepted sample finishes in reasonable time
MAX_SHOTS = 10**8

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# shots per tally chunk: two uint64 buffers of this length stay in L2 cache
_CHUNK = 1 << 15
# most inner thresholds counted by one comparison pass each instead of a sort: 7 tie
# a sort at 4096 shots and win at 10^6 (7 vs 11 ms); 8 lose at 4096, 15 tie at 10^6
_COMPARE_MAX = 7
# _STEPS[i] = (i + 1) * gamma mod 2^64, the counter offsets within one chunk
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64)
_STEPS *= np.uint64(_GAMMA)  # in place: import holds two 256 KiB buffers at most, not three
_STEPS = _frozen(_STEPS)

# renormalization window for Born weights before sampling; anything worse is
# a modeling error, not float dust
_NORM_WINDOW = 1e-9


def _mix(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finaliser, applied in place to the uint64 array z; returns z."""
    t = np.empty_like(z) if scratch is None else scratch
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _splitmix64(seed: int, start: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write raw outputs start..start+len(out)-1 of stream `seed` into out.

    Output i mixes the counter seed + (i + 1) * gamma mod 2^64; out and
    scratch are uint64 arrays of equal length, at most `_CHUNK`.
    """
    base = np.uint64((int(seed) + int(start) * _GAMMA) % 2**64)
    np.add(_STEPS[: out.shape[0]], base, out=out)
    return _mix(out, scratch)


def _chunks(count: int):
    return ((lo, min(_CHUNK, count - lo)) for lo in range(0, count, _CHUNK))


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) for shot indices start..start+count-1 of a stream.

    uniform_stream(s, 0, n) == concat(uniform_stream(s, 0, k),
    uniform_stream(s, k, n - k)) for any split; shots are addressed, not
    consumed.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    bits = np.empty(count, dtype=np.uint64)
    scratch = np.empty(min(count, _CHUNK), dtype=np.uint64)
    for lo, n in _chunks(count):
        _splitmix64(seed, start + lo, bits[lo : lo + n], scratch[:n])
    bits >>= np.uint64(11)
    return bits.astype(np.float64) * 2.0**-53


def _tally(edges: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of outcomes 0..len(edges)-1 over shots 0..shots-1 of stream `seed`.

    edges is the nondecreasing cumulative Born weight; draw d falls in the
    first outcome whose edge exceeds d, and the last outcome takes every draw
    at or above the last inner edge. A draw is d = (bits >> 11) * 2^-53, and
    d < e exactly when bits >> 11 < ceil(e * 2^53), so each chunk is counted
    against integer thresholds, directly or after a sort; an inner edge at or
    above 1 has a threshold of at least 2^53 and counts every draw.
    """
    thresholds = np.ceil(edges[:-1] * 2.0**53).astype(np.uint64)
    below = np.zeros(len(thresholds), dtype=np.int64)
    buf = np.empty(min(shots, _CHUNK), dtype=np.uint64)
    scratch = np.empty_like(buf)
    mask = np.empty(buf.shape, dtype=bool)
    for lo, n in _chunks(shots):
        chunk = _splitmix64(seed, lo, buf[:n], scratch[:n])
        chunk >>= np.uint64(11)
        if len(thresholds) <= _COMPARE_MAX:
            for i, t in enumerate(thresholds):
                below[i] += np.count_nonzero(np.less(chunk, t, out=mask[:n]))
        else:
            chunk.sort()
            below += np.searchsorted(chunk, thresholds, side="left")
    return np.diff(below, prepend=0, append=shots)


@dataclass(frozen=True)
class RunConfig:
    shots: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in 1..{MAX_SHOTS}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class SampleResult:
    counts: dict[str, int]
    shots: int
    probabilities: dict[str, float]
    empirical_mean: float | None
    std_error: float | None


@dataclass(frozen=True, eq=False)
class EmpiricalCHSH:
    e_hat: np.ndarray
    s_hat: float
    std_error: float
    per_setting: dict[tuple[int, int], SampleResult] = field(repr=False)
    seeds: dict[tuple[int, int], int] = field(default_factory=dict)


def _finite_value(label: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"value for label {label!r} must be finite, got {value!r}")
    return value


def sample_pdi(
    state: Ket,
    pdi: PDI,
    config: RunConfig,
    values: dict[str, float] | None = None,
) -> SampleResult:
    """Draw outcomes of a decomposition by inversion on the Born weights.

    Every label appears in `counts`, including ones never drawn. The mean
    and its standard error use `values` when given, which must be finite;
    otherwise labels that all parse as finite floats are used as values, and
    if any does not, both statistics are None.
    """
    _check_dims("state and PDI", state.dim, pdi.dim)
    psi = state.amplitudes
    weights = np.maximum((_projections(pdi.projectors, psi) @ psi.conj()).real, 0.0)
    total = float(weights.sum())
    message = f"outcome weights sum to {total!r}, not 1"
    check(abs(total - 1.0), _NORM_WINDOW, ProbabilityNormalizationError, message)
    weights = weights / total
    tallies = _tally(np.cumsum(weights), config.shots, config.seed)

    counts = {label: int(n) for label, n in zip(pdi.labels, tallies)}
    probabilities = {label: float(w) for label, w in zip(pdi.labels, weights)}

    if values is None:
        try:
            values = {label: _finite_value(label, float(label)) for label in pdi.labels}
        except ValueError:
            values = None
    mean = None
    stderr = None
    if values is not None:
        missing = [label for label in pdi.labels if label not in values]
        if missing:
            raise ValueError(f"values missing for labels {missing!r}")
        vals = np.array([_finite_value(label, float(values[label])) for label in pdi.labels])
        # in units of the largest power of two at or below max |value|: the
        # scaling is exact, and with every scaled value in (-2, 2) the sums and
        # squares stay finite near the float range (2^1024 itself overflows)
        unit = math.ldexp(1.0, math.frexp(float(np.abs(vals).max()))[1] - 1)
        vals = vals / unit
        mean = float(np.dot(tallies, vals) / config.shots)
        variance = float(np.dot(tallies, (vals - mean) ** 2) / config.shots)
        stderr = math.sqrt(variance / config.shots) * unit
        mean *= unit
    return SampleResult(
        counts=counts,
        shots=config.shots,
        probabilities=probabilities,
        empirical_mean=mean,
        std_error=stderr,
    )


def empirical_chsh(state: Ket, ops: CHSHOperators, config: RunConfig) -> EmpiricalCHSH:
    """Estimate S by sampling each setting pair's product observable.

    Setting (a, b) samples the decomposition of the product A_a B_b held by
    `ops` with the seed given by raw splitmix64 output 2a+b of stream `seed`, so
    the four sub-experiments, and runs with different seeds, draw independent streams.
    """
    derived = np.empty(4, dtype=np.uint64)
    _splitmix64(config.seed, 0, derived, np.empty_like(derived))
    seeds = {divmod(i, 2): int(seed) for i, seed in enumerate(derived)}
    per_setting: dict[tuple[int, int], SampleResult] = {}
    e_hat = np.zeros((2, 2))
    for (a, b), m in zip(seeds, ops._products):  # both A-major: setting (a, b) is 2a + b
        obs = spectral_decompose(m)
        values = dict(zip(obs.pdi.labels, obs.eigenvalues))
        result = sample_pdi(state, obs.pdi, RunConfig(config.shots, seeds[(a, b)]), values)
        per_setting[(a, b)] = result
        e_hat[a, b] = result.empirical_mean
    s_hat = float(_chsh(*e_hat.flat))
    return EmpiricalCHSH(
        e_hat=_frozen(e_hat),
        s_hat=s_hat,
        std_error=math.sqrt(sum(r.std_error**2 for r in per_setting.values())),
        per_setting=per_setting,
        seeds=seeds,
    )
