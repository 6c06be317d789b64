"""Bob-side eavesdropping detection from photon-count statistics.

Splitting diverts photons, so it shows up as a mean deficit; cloning
preserves the mean but broadens the counting statistics, so it shows up in
the Mandel parameter and in the matrix distances to the expected state.
Decision thresholds are calibrated empirically from clean Monte Carlo runs
(Bonferroni-split false-alarm budget across the four statistics).

Calibration's multinomial rows and the one histogram of the counts that
`detect` reads go through one kernel, `_histogram_statistics`; its moments
are exact sums of the integer counts, and its distances come from
`density_ops.difference_norms`, so a run gives the same statistics, bit for
bit, in the null as in `detect`. `detect_histogram` takes that histogram
directly, so a caller can fold it from a pulse log block by block, and
zero-pads the shorter of it and the law: the kernel's rows are the law's width.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density_ops import difference_norms
from .photon_stats import IntensityParam, _folded_cdfs, _tmcc_laws, tmcc_moments
from .source import derive_rng

MIN_PULSES = 1000
# union false-alarm budget of the four statistics
ALPHA = 0.01
# clean runs drawn per calibration: alpha/8 of them, a dozen runs, lie beyond each mean threshold
CALIBRATION_TRIALS = 10_000
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


def _histogram_statistics(hist: np.ndarray, pulses: int, expected: np.ndarray) -> np.ndarray:
    """Mean, Mandel Q (0 at mean 0), HS^2 and weak distance (rows) of count
    histograms `hist` (one run of `pulses` pulses per row) against the
    probabilities `expected`, which are exactly as wide as the rows.

    The moments are sums of integer terms, exact in float64 below 2**53 in
    any order, so no value depends on the row width, the block shape or the
    BLAS build. The distances are `density_ops.difference_norms` of the
    rows' differences to `expected`, formed in the float copy of `hist`.
    """
    counts = hist.astype(float)
    n = np.arange(counts.shape[1], dtype=float)
    mean = (counts @ n) / pulses
    positive = mean > 0
    q = ((counts @ (n * n)) / pulses - mean**2) / np.where(positive, mean, 1.0) - 1.0
    counts /= pulses
    counts -= expected
    hs, weak = difference_norms(counts)
    return np.array((mean, np.where(positive, q, 0.0), hs, weak))


def _clean_law(lam: IntensityParam) -> tuple[np.ndarray, np.ndarray, float]:
    """Bob's clean law at source `lam` (what every run is compared against), that law with
    its tail folded into its last bin (what a clean run draws from), and its Mandel Q."""
    table, cutoffs = _tmcc_laws(np.array([lam.magnitude]))
    folded = np.diff(_folded_cdfs(table, cutoffs)[0], prepend=0.0)
    return table[0], folded, tmcc_moments(lam).mandel_q


def _null_statistics(lam: IntensityParam, pulses: int, trials: int, seed: int) -> np.ndarray:
    """Mean, Mandel-Q deviation, HS^2 and weak distance (rows) of `trials`
    clean runs of `pulses` pulses each (columns).

    The run histograms come from one multinomial draw on sub-stream 10 of
    `seed`, taken in blocks of trials; consecutive blocks continue the same
    stream, so the block size does not change the result.
    """
    expected, folded, expected_q = _clean_law(lam)
    rng = derive_rng(seed, 10)
    stats = np.empty((4, trials))
    block = max(1, _CALIBRATION_BLOCK_CELLS // folded.size)
    for start in range(0, trials, block):
        hist = rng.multinomial(pulses, folded, size=min(block, trials - start))
        stats[:, start : start + len(hist)] = _histogram_statistics(hist, pulses, expected)
    stats[1] -= expected_q
    np.abs(stats[1], out=stats[1])
    return stats


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


def calibrate_thresholds(lam: IntensityParam, pulses: int, seed: int = 0) -> DetectionThresholds:
    """Set thresholds from CALIBRATION_TRIALS clean runs of `pulses` pulses.

    A clean run of `pulses` iid draws from the TMCC law, with the tail
    folded into the last bin, has a histogram distributed exactly as
    Multinomial(pulses, folded_probs), and the four statistics depend on
    the run only through its histogram. So the trials are drawn as
    histograms, and the cost depends on the cutoff, not on `pulses`.

    The false-alarm budget ALPHA is split Bonferroni-style: ALPHA/4 to each
    of the two-sided mean check, the Mandel deviation, and the two
    distances, so the union false-alarm rate stays at or below ALPHA.
    """
    if pulses < 1:
        raise ValueError("need at least 1 calibration pulse")
    stats = _null_statistics(lam, pulses, CALIBRATION_TRIALS, seed)
    stats.sort(axis=1)
    means, q_devs, hs_vals, weak_vals = stats
    per_stat = ALPHA / 4.0
    return DetectionThresholds(
        mean_low=_quantile(means, per_stat / 2.0),
        mean_high=_quantile(means, 1.0 - per_stat / 2.0),
        mandel_q_dev_max=_quantile(q_devs, 1.0 - per_stat),
        hs_dist_sq_max=_quantile(hs_vals, 1.0 - per_stat),
        weak_dist_max=_quantile(weak_vals, 1.0 - per_stat),
        calibration_seed=seed,
        calibration_trials=CALIBRATION_TRIALS,
        calibration_pulses=pulses,
    )


def detect(
    counts: Sequence[int],
    expected_lambda: IntensityParam,
    thresholds: DetectionThresholds,
) -> DetectionReport:
    """Classify a stream of Bob-side counts against the declared source."""
    arr = np.asarray(counts, dtype=int)
    if arr.size == 0:
        raise ValueError("counts must be nonempty")
    if np.any(arr < 0):
        raise ValueError("counts must be >= 0")
    return detect_histogram(np.bincount(arr), expected_lambda, thresholds)


def detect_histogram(
    hist: np.ndarray,
    expected_lambda: IntensityParam,
    thresholds: DetectionThresholds,
) -> DetectionReport:
    """`detect` on the histogram `hist` of the counts (`hist[n]` pulses
    counted n photons), as `np.bincount` of the counts gives it."""
    pulses = int(hist.sum())
    if pulses < 1:
        raise ValueError("the histogram must count at least one pulse")
    expected, _, expected_q = _clean_law(expected_lambda)
    width = max(hist.size, expected.size)
    rows = np.pad(hist, (0, width - hist.size))[None]
    stats = _histogram_statistics(rows, pulses, np.pad(expected, (0, width - expected.size)))
    mean, q, hs_val, weak_val = stats[:, 0].tolist()
    if pulses < MIN_PULSES:
        verdict = DetectionVerdict.INSUFFICIENT_DATA
    elif mean < thresholds.mean_low:
        verdict = DetectionVerdict.SUSPECT_SPLIT
    elif (
        mean > thresholds.mean_high or abs(q - expected_q) > thresholds.mandel_q_dev_max
        or hs_val > thresholds.hs_dist_sq_max or weak_val > thresholds.weak_dist_max
    ):
        verdict = DetectionVerdict.SUSPECT_CLONE
    else:
        verdict = DetectionVerdict.CLEAN
    return DetectionReport(mean, q, hs_val, weak_val, verdict, pulses)
