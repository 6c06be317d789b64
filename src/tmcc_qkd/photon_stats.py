"""Analytic photon-number statistics of TMCC and reference Poisson beams.

A two-mode coherently correlated (TMCC) beam carries identical photon
numbers in both modes; the single-mode counting statistics are

    P_n = |lambda|^(2n) / (I_0(2|lambda|) * n!^2)

which fall off like 1/n!^2 and are strongly sub-Poissonian.  Everything
here is a pure function of the intensity parameter |lambda|, computed from
one table of log n! over the grid n = 0.._MAX_CUTOFF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_LAMBDA = 50.0
# every truncated distribution drops less than this mass beyond its cutoff
TAIL_EPS = 1e-12

_MAX_CUTOFF = int(10 * MAX_LAMBDA + 100)
_N = np.arange(_MAX_CUTOFF + 1)
_LOG_FACTORIAL = np.array([math.lgamma(n + 1) for n in range(_MAX_CUTOFF + 1)])


class PhotonStatsError(ValueError):
    """Invalid argument to a photon-statistics routine."""


class CutoffNotFoundError(PhotonStatsError):
    """Truncation index exceeded the configured hard ceiling."""


@dataclass(frozen=True)
class IntensityParam:
    """Nonnegative intensity parameter |lambda| of the TMCC source.

    The phase of lambda never enters any observable quantity, so only the
    magnitude is stored.
    """

    magnitude: float

    def __post_init__(self) -> None:
        m = float(self.magnitude)
        if not math.isfinite(m) or m < 0.0:
            raise PhotonStatsError(f"intensity magnitude must be finite and >= 0, got {self.magnitude}")
        if m > MAX_LAMBDA:
            raise PhotonStatsError(f"intensity magnitude {m} exceeds ceiling {MAX_LAMBDA}")
        object.__setattr__(self, "magnitude", m)


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution P_0..P_{cutoff} with tracked tail.

    Doubles as the diagonal of a photon-number density matrix.  `probs` is a
    read-only float array; `tail_mass` is the probability mass beyond the
    cutoff, so sum(probs) + tail_mass == 1 up to float rounding.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise PhotonStatsError("probs must be a nonempty 1-d array")
        if np.any(probs < 0.0) or self.tail_mass < 0.0:
            raise PhotonStatsError("probabilities must be nonnegative")
        total = float(probs.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise PhotonStatsError(f"distribution not normalized: sum+tail = {total}")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))

    @property
    def cutoff(self) -> int:
        return self.probs.size - 1

    def prob(self, n: int) -> float:
        if n < 0:
            raise PhotonStatsError("photon number must be >= 0")
        return float(self.probs[n]) if n <= self.cutoff else 0.0

    def mean(self) -> float:
        n = np.arange(self.probs.size)
        return float(np.dot(n, self.probs))

    def second_moment(self) -> float:
        n = np.arange(self.probs.size)
        return float(np.dot(n * n, self.probs))

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def mandel_q(self) -> float:
        m = self.mean()
        return self.variance() / m - 1.0 if m > 0.0 else 0.0


@dataclass(frozen=True)
class MomentSummary:
    """Closed-form counting moments of a TMCC beam.

    `degenerate` marks the vacuum limit, where the Mandel parameter is a 0/0
    expression and is set to 0 by continuity.
    """

    mean: float
    second_moment: float
    variance: float
    mandel_q: float
    degenerate: bool = False


def tmcc_weights(m) -> np.ndarray:
    """P_n proportional to m^(2n) / n!^2 over the whole grid n = 0.._MAX_CUTOFF.

    `m` is a magnitude or an array of them; the result has one row of grid
    weights per magnitude (shape np.shape(m) + (_MAX_CUTOFF + 1,)).  Each row
    is formed and normalised in the log domain, so no term overflows; its
    normaliser is the row's sum, I_0(2m) up to terms that underflow.
    """
    m = np.asarray(m, dtype=float)
    for x in m.flat:
        if not (math.isfinite(x) and x >= 0.0):
            raise PhotonStatsError(f"intensity magnitude must be finite and >= 0, got {x}")
    # math.log per magnitude: np.log may differ from it in the last bit
    log_m = np.array([math.log(x) if x > 0.0 else 0.0 for x in m.flat]).reshape(m.shape)
    log_w = np.multiply.outer(2.0 * log_m, _N)
    log_w -= 2.0 * _LOG_FACTORIAL
    log_w -= log_w.max(axis=-1, keepdims=True)
    w = np.exp(log_w, out=log_w)
    w /= w.sum(axis=-1, keepdims=True)
    zero = m == 0.0
    if zero.any():
        w[zero] = _N == 0
    return w


def _tmcc_means(m: np.ndarray) -> np.ndarray:
    """<N> = sum_n n P_n for each magnitude of the 1-d `m`: one dot product
    per row, so each mean is summed exactly as for a single magnitude."""
    return np.array([_N @ row for row in tmcc_weights(m)])


def _cut(w: np.ndarray, ratio: np.ndarray) -> PhotonDistribution:
    """Truncate the grid weights `w` whose term ratios w_(n+1)/w_n are `ratio`.

    The cutoff is the first index where the ratio is below 1/2 (and falling)
    and the geometric tail bound w_n r_n / (1 - r_n) is below TAIL_EPS.
    """
    small = ratio < 0.5
    bound = w * ratio / np.where(small, 1.0 - ratio, 1.0)
    hits = np.flatnonzero(small & (bound < TAIL_EPS))
    if not hits.size:
        raise CutoffNotFoundError(f"no truncation point found below index {_MAX_CUTOFF}")
    probs = w[: hits[0] + 1]
    return PhotonDistribution(probs, tail_mass=max(0.0, 1.0 - float(probs.sum())))


def _tmcc_distributions(m: np.ndarray) -> list[PhotonDistribution]:
    """Truncated TMCC laws, one per magnitude of the 1-d `m`."""
    return [_cut(w, x * x / (_N + 1.0) ** 2) for x, w in zip(m, tmcc_weights(m))]


def tmcc_distribution(lam: IntensityParam) -> PhotonDistribution:
    """Truncated TMCC counting distribution with tail mass below TAIL_EPS."""
    return _tmcc_distributions(np.array([lam.magnitude]))[0]


def poisson_distribution(mean: float) -> PhotonDistribution:
    """Truncated Poisson distribution; the coherent-beam reference."""
    if not math.isfinite(mean) or mean < 0.0:
        raise PhotonStatsError("mean must be finite and >= 0")
    if mean == 0.0:
        return PhotonDistribution(np.array([1.0]))
    w = np.exp(-mean + math.log(mean) * _N - _LOG_FACTORIAL)
    return _cut(w, mean / (_N + 1.0))


def _tmcc_moment_arrays(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance and Mandel Q for each magnitude > 0 of the 1-d `m`.

    The mean is sum_n n P_n over the whole grid, which is
    |lambda| I_1(2|lambda|) / I_0(2|lambda|); <N^2> = |lambda|^2 exactly.
    """
    mean = _tmcc_means(m)
    variance = m * m - mean * mean
    return mean, variance, variance / mean - 1.0


def tmcc_moments(lam: IntensityParam) -> MomentSummary:
    """Mean, second moment, variance and Mandel Q of a TMCC beam."""
    m = lam.magnitude
    if m == 0.0:
        return MomentSummary(0.0, 0.0, 0.0, 0.0, degenerate=True)
    mean, variance, q = (float(a[0]) for a in _tmcc_moment_arrays(np.array([m])))
    return MomentSummary(mean, m * m, variance, q)
