"""Bob-side eavesdropping detection from photon-count statistics.

Splitting diverts photons, so it shows up as a mean deficit; cloning
preserves the mean but broadens the counting statistics, so it shows up in
the Mandel parameter and in the matrix distances to the expected state.
Decision thresholds are calibrated empirically from clean Monte Carlo runs
(Bonferroni-split false-alarm budget across the four statistics).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density_ops import hs_distance_sq, weak_distance
from .photon_stats import IntensityParam, PhotonDistribution, tmcc_distribution, tmcc_moments
from .source import derive_rng, folded_cdf

MIN_PULSES = 1000
# union false-alarm budget of the four statistics
ALPHA = 0.01
# hard floor: a mean deficit this large at >= 1e4 pulses is never CLEAN
_HARD_MEAN_RATIO = 0.75
_HARD_MEAN_PULSES = 10_000
# histogram cells drawn per calibration block, bounding its memory
_CALIBRATION_BLOCK_CELLS = 1 << 16


class DetectionVerdict(enum.Enum):
    CLEAN = "clean"
    SUSPECT_SPLIT = "suspect-split"
    SUSPECT_CLONE = "suspect-clone"
    INSUFFICIENT_DATA = "insufficient-data"


@dataclass(frozen=True)
class DetectionThresholds:
    """Calibrated decision thresholds plus their calibration provenance."""

    mean_low: float
    mean_high: float
    mandel_q_dev_max: float
    hs_dist_sq_max: float
    weak_dist_max: float
    min_pulses: int = MIN_PULSES
    alpha: float = ALPHA
    calibration_seed: int = 0
    calibration_trials: int = 0
    calibration_pulses: int = 0


@dataclass(frozen=True)
class DetectionReport:
    empirical_mean: float
    empirical_mandel_q: float
    hs_dist_sq: float
    weak_dist: float
    verdict: DetectionVerdict
    pulse_count: int

    def to_text(self) -> str:
        """Flat key=value serialization, 12 significant digits."""
        lines = [
            f"empirical_mean={self.empirical_mean:.12g}",
            f"empirical_mandel_q={self.empirical_mandel_q:.12g}",
            f"hs_dist_sq={self.hs_dist_sq:.12g}",
            f"weak_dist={self.weak_dist:.12g}",
            f"verdict={self.verdict.value}",
            f"pulse_count={self.pulse_count}",
        ]
        return "\n".join(lines) + "\n"


def empirical_distribution(counts: Sequence[int]) -> PhotonDistribution:
    """Normalized histogram of observed counts (tail mass zero)."""
    arr = np.asarray(counts, dtype=int)
    if arr.size == 0:
        raise ValueError("counts must be nonempty")
    if np.any(arr < 0):
        raise ValueError("counts must be >= 0")
    hist = np.bincount(arr).astype(float)
    return PhotonDistribution(hist / arr.size)


def _run_statistics(counts: np.ndarray, expected: PhotonDistribution, expected_q: float):
    emp = empirical_distribution(counts)
    mean = emp.mean()
    q_dev = abs(emp.mandel_q() - expected_q) if mean > 0 else abs(expected_q)
    return mean, q_dev, hs_distance_sq(emp, expected), weak_distance(emp, expected), emp


def _null_statistics(lam: IntensityParam, pulses: int, trials: int, seed: int) -> np.ndarray:
    """Mean, Mandel-Q deviation, HS^2 and weak distance (rows) of `trials`
    clean runs of `pulses` pulses each (columns).

    The run histograms come from one multinomial draw on sub-stream 10 of
    `seed`, taken in blocks of trials; consecutive blocks continue the same
    stream, so the block size does not change the result.
    """
    analytic = tmcc_distribution(lam)
    expected_q = tmcc_moments(lam).mandel_q
    folded = np.diff(folded_cdf(analytic), prepend=0.0)
    n = np.arange(folded.size)
    rng = derive_rng(seed, 10)
    stats = np.empty((4, trials))
    block = max(1, _CALIBRATION_BLOCK_CELLS // folded.size)
    for start in range(0, trials, block):
        hist = rng.multinomial(pulses, folded, size=min(block, trials - start))
        # integer moment sums are exact, so no row depends on the block shape
        mean = (hist @ n) / pulses
        positive = mean > 0
        q = ((hist @ (n * n)) / pulses - mean**2) / np.where(positive, mean, 1.0) - 1.0
        d = hist / pulses - analytic.probs
        stats[:, start : start + len(hist)] = (
            mean,
            np.where(positive, np.abs(q - expected_q), abs(expected_q)),
            np.einsum("ij,ij->i", d, d),
            np.abs(d).max(axis=1),
        )
    return stats


def check_trials(trials: int) -> None:
    """Refuse a calibration with fewer than 100 clean trials."""
    if trials < 100:
        raise ValueError("need at least 100 calibration trials")


def _quantile(ascending: np.ndarray, q: float) -> float:
    """np.quantile(values, q) read off the sorted values.

    numpy's default 'linear' rule: virtual index (size - 1) q, then its
    two-sided lerp, so the result is the same to the bit.  np.quantile
    itself imports numpy.ma (about 24 ms) on first use.
    """
    virtual = (ascending.size - 1) * q
    below = math.floor(virtual)
    t = virtual - below
    a, b = ascending[below], ascending[min(below + 1, ascending.size - 1)]
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def calibrate_thresholds(
    lam: IntensityParam, pulses: int, trials: int = 10_000, seed: int = 0
) -> DetectionThresholds:
    """Set thresholds from the clean-run Monte Carlo null distribution.

    A clean run of `pulses` iid draws from the TMCC law, with the tail
    folded into the last bin, has a histogram distributed exactly as
    Multinomial(pulses, folded_probs), and the four statistics depend on
    the run only through its histogram. So the trials are drawn as
    histograms, and the cost depends on the cutoff, not on `pulses`.

    The false-alarm budget ALPHA is split Bonferroni-style: ALPHA/4 to each
    of the two-sided mean check, the Mandel deviation, and the two
    distances, so the union false-alarm rate stays at or below ALPHA.
    """
    check_trials(trials)
    if pulses < 1:
        raise ValueError("need at least 1 calibration pulse")
    means, q_devs, hs_vals, weak_vals = np.sort(_null_statistics(lam, pulses, trials, seed), axis=1)
    per_stat = ALPHA / 4.0
    return DetectionThresholds(
        mean_low=_quantile(means, per_stat / 2.0),
        mean_high=_quantile(means, 1.0 - per_stat / 2.0),
        mandel_q_dev_max=_quantile(q_devs, 1.0 - per_stat),
        hs_dist_sq_max=_quantile(hs_vals, 1.0 - per_stat),
        weak_dist_max=_quantile(weak_vals, 1.0 - per_stat),
        min_pulses=MIN_PULSES,
        calibration_seed=seed,
        calibration_trials=trials,
        calibration_pulses=pulses,
    )


def detect(
    counts: Sequence[int],
    expected_lambda: IntensityParam,
    thresholds: DetectionThresholds,
) -> DetectionReport:
    """Classify a stream of Bob-side counts against the declared source."""
    arr = np.asarray(counts, dtype=int)
    expected = tmcc_distribution(expected_lambda)
    moments = tmcc_moments(expected_lambda)
    mean, q_dev, hs_val, weak_val, emp = _run_statistics(arr, expected, moments.mandel_q)
    report_fields = dict(
        empirical_mean=mean,
        empirical_mandel_q=emp.mandel_q(),
        hs_dist_sq=hs_val,
        weak_dist=weak_val,
        pulse_count=int(arr.size),
    )
    if arr.size < thresholds.min_pulses:
        return DetectionReport(verdict=DetectionVerdict.INSUFFICIENT_DATA, **report_fields)
    mean_deficit = mean < thresholds.mean_low or (
        arr.size >= _HARD_MEAN_PULSES and mean < _HARD_MEAN_RATIO * moments.mean
    )
    if mean_deficit:
        return DetectionReport(verdict=DetectionVerdict.SUSPECT_SPLIT, **report_fields)
    shape_deviation = (
        mean > thresholds.mean_high
        or q_dev > thresholds.mandel_q_dev_max
        or hs_val > thresholds.hs_dist_sq_max
        or weak_val > thresholds.weak_dist_max
    )
    if shape_deviation:
        return DetectionReport(verdict=DetectionVerdict.SUSPECT_CLONE, **report_fields)
    return DetectionReport(verdict=DetectionVerdict.CLEAN, **report_fields)
