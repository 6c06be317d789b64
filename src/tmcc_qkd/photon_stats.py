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
_TWO_LOG_FACTORIAL = 2.0 * _LOG_FACTORIAL
_GRID = _N.astype(float)  # n as a float: an int grid is cast at every product
# exp of any float64 at or below this is 0.0 (the smallest subnormal is exp(-744.4))
_EXP_UNDERFLOW = -746.0


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
        tail = float(self.tail_mass)
        # NaN fails every comparison (and is the min of any array holding
        # one), so `not >=` and `not <=` refuse it
        if not (probs.min() >= 0.0 and tail >= 0.0):
            raise PhotonStatsError("probabilities must be finite and nonnegative")
        total = float(probs.sum()) + tail
        if not abs(total - 1.0) <= 1e-9:
            raise PhotonStatsError(f"distribution not normalized: sum+tail = {total}")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", tail)

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

    Only a leading band of the grid is formed; every weight past it is
    exactly 0.0, as exp would give.  Past a row's mode its log weight, less
    the row's maximum, rises with m, so the largest magnitude's row has the
    widest band, and that one row finds its end.
    """
    m = np.asarray(m, dtype=float)
    log_m = []
    for x in m.ravel().tolist():
        if not (math.isfinite(x) and x >= 0.0):
            raise PhotonStatsError(f"intensity magnitude must be finite and >= 0, got {x}")
        # math.log per magnitude: np.log may differ from it in the last bit
        log_m.append(math.log(x) if x > 0.0 else 0.0)
    top = 2.0 * max(log_m, default=0.0) * _GRID - _TWO_LOG_FACTORIAL
    top -= top.max()
    band = np.flatnonzero(top > _EXP_UNDERFLOW)[-1] + 1  # log weights are concave in n: one run of nonzeros
    w = np.empty(m.shape + _GRID.shape)
    w[..., band:] = 0.0
    log_w = np.multiply.outer(2.0 * np.array(log_m).reshape(m.shape), _GRID[:band], out=w[..., :band])
    log_w -= _TWO_LOG_FACTORIAL[:band]
    log_w -= log_w.max(axis=-1, keepdims=True)
    np.exp(log_w, out=log_w)
    # the sum runs over the whole row: pairwise summation over the band alone
    # may round differently
    log_w /= w.sum(axis=-1, keepdims=True)
    zero = m == 0.0
    if zero.any():
        w[zero] = _N == 0
    return w


def _tmcc_means(m: np.ndarray) -> np.ndarray:
    """<N> = sum_n n P_n for each magnitude of the 1-d `m`: one stacked 1xG by
    Gx1 product, equal to the dot of each row with the grid to the bit, so
    each mean is summed exactly as for a single magnitude."""
    return (tmcc_weights(m)[:, None, :] @ _GRID[:, None])[:, 0, 0]


# term-ratio denominators (n + 1)^power over the grid, for Poisson (1) and TMCC (2) rows
_RATIO_DENOMS = {1: _N + 1.0, 2: (_N + 1.0) ** 2}
# past the first n whose term ratio is below 1/2, each weight (at most 1) at
# least halves per step, and so does the tail bound: the first hit comes
# within this many steps, as 2^-45 is far below TAIL_EPS
_HALVINGS = 45


def _width(scale: np.ndarray, power: int) -> int:
    """How many grid weights a stack of rows with term ratios
    w_(n+1)/w_n = scale_i / (n + 1)^power needs for `_law_table` to find
    every cutoff: the geometric bound above, plus one step of slack for the
    rounding of the ratio."""
    start = int(_RATIO_DENOMS[power].searchsorted(2.0 * max(scale.tolist()), side="right"))  # ratios fall with n
    return min(start + _HALVINGS + 2, _MAX_CUTOFF + 1)


def _law_table(w: np.ndarray, scale: np.ndarray, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated laws of a stack of rows, and their cutoffs.

    Row i has the grid weights w[i] over n < w.shape[1] and the term ratios
    scale_i / (n + 1)^power.  Its cutoff is the first n where the ratio is
    below 1/2 (and falling) and the geometric tail bound w_n r_n / (1 - r_n)
    is below TAIL_EPS.  Each row is zeroed past its cutoff, and the table is
    as wide as the largest cutoff needs.
    """
    ratio = scale[:, None] / _RATIO_DENOMS[power][: w.shape[1]]
    small = ratio < 0.5
    bound = w * ratio
    # divided by 1 - r where the ratio is small; elsewhere no n is a hit
    bound /= np.subtract(1.0, ratio, out=ratio, where=small)
    hit = small & (bound < TAIL_EPS)
    if not hit.any(axis=1).all():
        raise CutoffNotFoundError(f"no truncation point found below index {_MAX_CUTOFF}")
    cutoffs = hit.argmax(axis=1)
    size = cutoffs.max() + 1
    table = w[:, :size]
    if len(table) > 1:  # a lone row ends at its cutoff, so only a stack needs zeroing
        table = np.where(_N[:size] <= cutoffs[:, None], table, 0.0)
    # PhotonDistribution's rule, each row's tail mass being what the row misses
    if not (table.min() >= 0.0 and table.sum(axis=1).max() <= 1.0 + 1e-9):
        raise PhotonStatsError("table rows must be finite, nonnegative and sum to at most 1")
    return table, cutoffs


def _folded_cdfs(table: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities of each row of a law stack, with the row's
    tail folded into its last bin: every entry from the cutoff on is exactly 1."""
    cdfs = np.cumsum(table, axis=1)
    cdfs[_N[: cdfs.shape[1]] >= cutoffs[:, None]] = 1.0
    return cdfs


def _law(w: np.ndarray, cutoffs: np.ndarray) -> PhotonDistribution:
    """The law of the first row of `w`: its weights up to its cutoff, the rest as tail."""
    probs = w[0, : cutoffs[0] + 1]
    return PhotonDistribution(probs, tail_mass=max(0.0, 1.0 - float(probs.sum())))


def _tmcc_laws(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncated TMCC laws, one row per magnitude of the 1-d `m`; each row is
    normalised over the whole grid by `tmcc_weights`."""
    scale = m * m
    return _law_table(tmcc_weights(m)[:, : _width(scale, 2)], scale, 2)


def tmcc_distribution(lam: IntensityParam) -> PhotonDistribution:
    """Truncated TMCC counting distribution with tail mass below TAIL_EPS."""
    return _law(*_tmcc_laws(np.array([lam.magnitude])))


def _poisson_laws(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Poisson laws, one row per mean of the 1-d `means`."""
    log_mean = []
    for x in means.tolist():
        if not (math.isfinite(x) and x >= 0.0):
            raise PhotonStatsError("mean must be finite and >= 0")
        # math.log per mean: np.log may differ from it in the last bit
        log_mean.append(math.log(x) if x > 0.0 else 0.0)
    width = _width(means, 1)
    # log P_n = n log(mean) - mean - log n!, rounded as -mean + n log(mean) - log n!
    w = np.multiply.outer(log_mean, _N[:width])
    w -= means[:, None]
    w -= _LOG_FACTORIAL[:width]
    np.exp(w, out=w)
    w[means == 0.0] = _N[:width] == 0
    return _law_table(w, means, 1)


def poisson_distribution(mean: float) -> PhotonDistribution:
    """Truncated Poisson distribution; the coherent-beam reference."""
    return _law(*_poisson_laws(np.array([mean], dtype=float)))


def _tmcc_moment_arrays(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance and Mandel Q for each magnitude of the 1-d `m`.

    The mean is sum_n n P_n over the whole grid, which is
    |lambda| I_1(2|lambda|) / I_0(2|lambda|); <N^2> = |lambda|^2 exactly.
    Where the mean is 0 (m = 0, or so small that <N> underflows) Q is the
    vacuum limit 0: the quotient is left at 1 there.
    """
    mean = _tmcc_means(m)
    variance = m * m - mean * mean
    return mean, variance, np.divide(variance, mean, out=np.ones_like(mean), where=mean > 0.0) - 1.0


def tmcc_moments(lam: IntensityParam) -> MomentSummary:
    """Mean, second moment, variance and Mandel Q of a TMCC beam."""
    m = lam.magnitude
    mean, variance, q = (float(a[0]) for a in _tmcc_moment_arrays(np.array([m])))
    return MomentSummary(mean, m * m, variance, q, degenerate=mean == 0.0)
