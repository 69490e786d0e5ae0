"""Reproducible Born-rule sampling.

The generator is a counter-based splitmix64: output i of a stream is a pure
function of (seed, i), so shot n of any run is identical no matter how the
preceding shots were batched. That partition property is what makes sampled
CHSH runs exactly reproducible across machines and chunk sizes.

`sample_pdi` relies on it to tally shots chunk by chunk: each chunk of
`_CHUNK` raw outputs is generated into one reused buffer, sorted, and counted
against integer thresholds on the 53-bit draws, so counts are identical for
any chunk size and memory stays the same for any number of shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ProbabilityNormalizationError
from .hilbert import PDI, Ket, spectral_decompose
from .bell import CHSHOperators, SettingPair

__all__ = [
    "MAX_SHOTS",
    "RunConfig",
    "SampleResult",
    "EmpiricalCHSH",
    "uniform_stream",
    "sample_pdi",
    "empirical_chsh",
]

# largest accepted shot count; two outcomes take about 1.4 s at this size on a
# 2-vCPU Xeon host, so every accepted sample finishes in reasonable time
MAX_SHOTS = 10**8

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# shots per tally chunk: two uint64 buffers of this length stay in L2 cache
_CHUNK = 1 << 15
# _STEPS[i] = (i + 1) * gamma mod 2^64, the counter offsets within one chunk
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64)
_STEPS *= np.uint64(_GAMMA)
_STEPS.setflags(write=False)

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
    d < e exactly when bits >> 11 < ceil(e * 2^53), so each sorted chunk is
    counted against integer thresholds; an inner edge at or above 1 has a
    threshold of at least 2^53 and counts every draw.
    """
    thresholds = np.ceil(edges[:-1] * 2.0**53).astype(np.uint64)
    below = np.zeros(len(thresholds), dtype=np.int64)
    buf = np.empty(min(shots, _CHUNK), dtype=np.uint64)
    scratch = np.empty_like(buf)
    for lo, n in _chunks(shots):
        chunk = _splitmix64(seed, lo, buf[:n], scratch[:n])
        chunk >>= np.uint64(11)
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


def sample_pdi(
    state: Ket,
    pdi: PDI,
    config: RunConfig,
    values: dict[str, float] | None = None,
) -> SampleResult:
    """Draw outcomes of a decomposition by inversion on the Born weights.

    Every label appears in `counts`, including ones never drawn. The mean
    and its standard error use `values` when given; otherwise labels that all
    parse as floats are used as values, and if any does not, both statistics
    are None.
    """
    if state.dim != pdi.dim:
        raise DimensionMismatchError(f"state dim {state.dim} vs decomposition dim {pdi.dim}")
    psi = state.amplitudes
    weights = np.array(
        [max(0.0, float(np.vdot(psi, p.entries @ psi).real)) for p in pdi.projectors]
    )
    total = float(weights.sum())
    if not (1 - _NORM_WINDOW <= total <= 1 + _NORM_WINDOW):
        raise ProbabilityNormalizationError(
            f"outcome weights sum to {total!r}, outside [1-{_NORM_WINDOW}, 1+{_NORM_WINDOW}]"
        )
    weights = weights / total
    tallies = _tally(np.cumsum(weights), config.shots, config.seed)

    counts = {label: int(n) for label, n in zip(pdi.labels, tallies)}
    probabilities = {label: float(w) for label, w in zip(pdi.labels, weights)}

    if values is None:
        try:
            values = {label: float(label) for label in pdi.labels}
        except ValueError:
            values = None
    mean = None
    stderr = None
    if values is not None:
        missing = [label for label in pdi.labels if label not in values]
        if missing:
            raise ValueError(f"values missing for labels {missing!r}")
        vals = np.array([values[label] for label in pdi.labels])
        mean = float(np.dot(tallies, vals) / config.shots)
        variance = float(np.dot(tallies, (vals - mean) ** 2) / config.shots)
        stderr = math.sqrt(variance / config.shots)
    return SampleResult(
        counts=counts,
        shots=config.shots,
        probabilities=probabilities,
        empirical_mean=mean,
        std_error=stderr,
    )


def empirical_chsh(state: Ket, ops: CHSHOperators, config: RunConfig) -> EmpiricalCHSH:
    """Estimate S by sampling each setting pair's product observable.

    Setting (a, b) samples the spectral decomposition of A_a B_b with the
    derived seed seed XOR (2a+b), so the four sub-experiments draw from
    disjoint deterministic streams.
    """
    per_setting: dict[tuple[int, int], SampleResult] = {}
    seeds: dict[tuple[int, int], int] = {}
    e_hat = np.zeros((2, 2))
    variance_sum = 0.0
    for a in (0, 1):
        for b in (0, 1):
            pair = SettingPair(a, b)
            product_obs = spectral_decompose(ops.alice(pair.a) @ ops.bob(pair.b))
            values = {
                label: float(ev)
                for label, ev in zip(product_obs.pdi.labels, product_obs.eigenvalues)
            }
            seed = config.seed ^ (2 * a + b)
            seeds[(a, b)] = seed
            result = sample_pdi(state, product_obs.pdi, RunConfig(config.shots, seed), values)
            per_setting[(a, b)] = result
            e_hat[a, b] = result.empirical_mean
            variance_sum += result.std_error**2
    s_hat = float(e_hat[0, 0] + e_hat[0, 1] + e_hat[1, 0] - e_hat[1, 1])
    e_hat.setflags(write=False)
    return EmpiricalCHSH(
        e_hat=e_hat,
        s_hat=s_hat,
        std_error=math.sqrt(variance_sum),
        per_setting=per_setting,
        seeds=seeds,
    )
