import dataclasses

import numpy as np
import pytest
from scipy import stats

from tmcc_qkd import detection
from tmcc_qkd.attacks import ClonePulseSampler, CloneStrategy, SplitPulseSampler, SplitRatio
from tmcc_qkd.detection import (
    DetectionThresholds,
    DetectionVerdict,
    _null_statistics,
    calibrate_thresholds,
    detect,
)
from tmcc_qkd.photon_stats import IntensityParam, tmcc_distribution, tmcc_moments
from tmcc_qkd.source import PulseSampler, SourceConfig, derive_rng

from oracles import InverseCdfSampler, empirical_distribution, folded_cdf, run_statistics

LAM2 = IntensityParam(2.0)
# thresholds that no run crosses, for reading the statistics of any stream
LOOSE = DetectionThresholds(
    mean_low=0.0, mean_high=1e300, mandel_q_dev_max=1e300, hs_dist_sq_max=1e300, weak_dist_max=1e300
)


@pytest.fixture(scope="module")
def thresholds():
    return calibrate_thresholds(LAM2, pulses=10_000, seed=2024)


def clean_counts(seed, pulses=10_000):
    return PulseSampler(SourceConfig(LAM2, seed=seed)).sample_batch(pulses).n_b


def per_pulse_null(lam, pulses, trials, seed):
    """Oracle for `_null_statistics`: the per-pulse calibration loop, one
    inverse-CDF run of `pulses` draws per trial on sub-stream (10, t)."""
    analytic = tmcc_distribution(lam)
    expected_q = tmcc_moments(lam).mandel_q
    runs = [
        run_statistics(InverseCdfSampler(analytic, derive_rng(seed, 10, t)).draw(pulses), analytic, expected_q)[:4]
        for t in range(trials)
    ]
    return np.array(runs).T


class TestEmpiricalDistribution:
    def test_large_sample_close_to_analytic(self):
        sampler = InverseCdfSampler(tmcc_distribution(LAM2), derive_rng(17, 0))
        counts = sampler.draw(1_000_000)
        emp = empirical_distribution(counts)
        analytic = tmcc_distribution(LAM2)
        common = min(emp.probs.size, analytic.probs.size)
        tv = 0.5 * (
            np.abs(emp.probs[:common] - analytic.probs[:common]).sum()
            + emp.probs[common:].sum()
            + analytic.probs[common:].sum()
        )
        assert tv < 0.01

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            empirical_distribution([])
        with pytest.raises(ValueError):
            empirical_distribution([1, -1])


class TestCalibration:
    def test_provenance_recorded(self, thresholds):
        assert thresholds.calibration_seed == 2024
        assert thresholds.calibration_trials == detection.CALIBRATION_TRIALS == 10_000
        assert thresholds.calibration_pulses == 10_000
        assert thresholds.alpha == 0.01

    def test_threshold_ordering(self, thresholds):
        assert thresholds.mean_low < thresholds.mean_high
        assert thresholds.mandel_q_dev_max > 0
        assert thresholds.hs_dist_sq_max > 0
        assert thresholds.weak_dist_max > 0

    def test_no_pulses_rejected(self):
        with pytest.raises(ValueError):
            calibrate_thresholds(LAM2, pulses=0)

    def test_default_trials_resolve_the_mean_quantile(self):
        # alpha/8 of the fixed calibration trials is a dozen runs below mean_low, not none
        th = calibrate_thresholds(LAM2, pulses=10_000, seed=5)
        means = _null_statistics(LAM2, 10_000, th.calibration_trials, 5)[0]
        assert th.calibration_trials == 10_000
        assert 5 <= (means < th.mean_low).sum() <= 20
        assert 5 <= (means > th.mean_high).sum() <= 20

    def test_thresholds_equal_numpy_quantiles(self):
        th = calibrate_thresholds(LAM2, pulses=5_000, seed=9)
        means, q_devs, hs_vals, weak_vals = _null_statistics(LAM2, 5_000, th.calibration_trials, 9)
        per_stat = th.alpha / 4.0
        want = [
            np.quantile(means, per_stat / 2.0),
            np.quantile(means, 1.0 - per_stat / 2.0),
            np.quantile(q_devs, 1.0 - per_stat),
            np.quantile(hs_vals, 1.0 - per_stat),
            np.quantile(weak_vals, 1.0 - per_stat),
        ]
        got = [th.mean_low, th.mean_high, th.mandel_q_dev_max, th.hs_dist_sq_max, th.weak_dist_max]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 100, 10_000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_sorted_quantile_is_numpy_linear_rule(self, size, tied):
        rng = np.random.default_rng(size)
        for _ in range(20):
            values = rng.integers(0, 4, size) * 0.1 if tied else rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
            ascending = np.sort(values)
            for q in (0.0, 0.00125, 0.0025, 0.5, 0.9975, 0.99875, 1.0, *rng.random(5)):
                got = detection._quantile(ascending, float(q))
                assert np.float64(got).tobytes() == np.quantile(values, float(q)).tobytes(), (q, values)


class TestNullStatistics:
    @pytest.mark.parametrize("lam, pulses", [(2.0, 1000), (0.05, 3), (8.0, 50)])
    def test_rows_equal_per_run_statistics(self, lam, pulses):
        # each multinomial row, expanded back to counts, gives the same four statistics
        lam = IntensityParam(lam)
        analytic = tmcc_distribution(lam)
        folded = np.diff(folded_cdf(analytic), prepend=0.0)
        hists = derive_rng(8, 10).multinomial(pulses, folded, size=200)
        null = _null_statistics(lam, pulses, 200, 8)
        expected = analytic
        for t, hist in enumerate(hists):
            counts = np.repeat(np.arange(folded.size), hist)
            run = run_statistics(counts, expected, tmcc_moments(lam).mandel_q)[:4]
            np.testing.assert_allclose(null[:, t], run, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("lam, pulses", [(2.0, 1000), (0.05, 3), (8.0, 50), (45.0, 100)])
    def test_rows_equal_detect(self, lam, pulses):
        # the calibration null is `detect`'s statistic, bit for bit
        lam = IntensityParam(lam)
        analytic = tmcc_distribution(lam)
        expected_q = tmcc_moments(lam).mandel_q
        folded = np.diff(folded_cdf(analytic), prepend=0.0)
        hists = derive_rng(8, 10).multinomial(pulses, folded, size=200)
        null = _null_statistics(lam, pulses, 200, 8)
        for t, hist in enumerate(hists):
            report = detect(np.repeat(np.arange(folded.size), hist), lam, LOOSE)
            got = [report.empirical_mean, abs(report.empirical_mandel_q - expected_q), report.hs_dist_sq, report.weak_dist]
            np.testing.assert_array_equal(got, null[:, t])

    def test_block_size_does_not_change_result(self, monkeypatch):
        whole = _null_statistics(LAM2, 5000, 300, 3)
        monkeypatch.setattr(detection, "_CALIBRATION_BLOCK_CELLS", 40)
        np.testing.assert_array_equal(_null_statistics(LAM2, 5000, 300, 3), whole)

    def test_agrees_with_per_pulse_oracle(self):
        oracle = per_pulse_null(LAM2, 2000, 500, seed=31)
        null = _null_statistics(LAM2, 2000, 5000, seed=32)
        for row in (0, 2):  # mean and HS^2
            assert stats.ks_2samp(oracle[row], null[row]).pvalue > 1e-3


class TestDetect:
    def test_clean_runs_mostly_clean(self, thresholds):
        flags = sum(
            detect(clean_counts(seed=3000 + k), LAM2, thresholds).verdict
            is not DetectionVerdict.CLEAN
            for k in range(100)
        )
        assert flags <= 3  # calibrated union false-alarm rate is <= 1%

    def test_held_out_union_false_alarm_at_most_alpha(self):
        # clean runs from the real sampler on seeds the calibration never saw
        runs = 400
        thresholds = calibrate_thresholds(LAM2, pulses=10_000, seed=4040)
        flags = sum(
            detect(clean_counts(seed=70_000 + k), LAM2, thresholds).verdict
            is not DetectionVerdict.CLEAN
            for k in range(runs)
        )
        assert flags <= stats.binom.ppf(1 - 1e-4, runs, thresholds.alpha)

    def test_split_flagged(self, thresholds):
        sampler = SplitPulseSampler(SourceConfig(LAM2, seed=55), SplitRatio.from_p_squared(0.5))
        counts = sampler.sample_batch(10_000).n_b
        report = detect(counts, LAM2, thresholds)
        assert report.verdict is DetectionVerdict.SUSPECT_SPLIT

    @pytest.mark.parametrize("strategy", [CloneStrategy.TMCC_CLONE, CloneStrategy.COHERENT])
    def test_clone_flagged(self, thresholds, strategy):
        sampler = ClonePulseSampler(SourceConfig(LAM2, seed=56), strategy)
        counts = sampler.sample_batch(10_000).n_b
        report = detect(counts, LAM2, thresholds)
        assert report.verdict is DetectionVerdict.SUSPECT_CLONE

    def test_insufficient_data(self, thresholds):
        report = detect(clean_counts(seed=1, pulses=500), LAM2, thresholds)
        assert report.verdict is DetectionVerdict.INSUFFICIENT_DATA

    def test_held_out_union_false_alarm_at_most_alpha_at_small_mean(self):
        # at lambda 0.05 a clean run of 1e4 pulses holds about 25 photons, so
        # its mean often falls far below the source's by chance: a fixed floor
        # on the mean (0.75 of it) would flag about 1 run in 10
        lam, runs = IntensityParam(0.05), 400
        thresholds = calibrate_thresholds(lam, pulses=10_000, seed=4041)
        flags = sum(
            detect(PulseSampler(SourceConfig(lam, seed=80_000 + k)).sample_batch(10_000).n_b, lam, thresholds).verdict
            is not DetectionVerdict.CLEAN
            for k in range(runs)
        )
        assert flags <= stats.binom.ppf(1 - 1e-4, runs, thresholds.alpha)

    def test_deterministic_report(self, thresholds):
        counts = clean_counts(seed=9)
        assert detect(counts, LAM2, thresholds) == detect(counts, LAM2, thresholds)


class TestDetectEdgeInputs:
    def test_empty_and_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            detect([], LAM2, LOOSE)
        with pytest.raises(ValueError, match=">= 0"):
            detect([1, -1], LAM2, LOOSE)

    def test_all_zero_stream(self):
        # Mandel Q is 0 by continuity, so the deviation is |Q0|
        q0 = abs(tmcc_moments(LAM2).mandel_q)
        counts = np.zeros(2000, dtype=int)
        report = detect(counts, LAM2, LOOSE)
        assert report.empirical_mean == 0.0 and report.empirical_mandel_q == 0.0
        at_q0 = dataclasses.replace(LOOSE, mandel_q_dev_max=q0)
        below_q0 = dataclasses.replace(LOOSE, mandel_q_dev_max=np.nextafter(q0, 0.0))
        assert detect(counts, LAM2, at_q0).verdict is DetectionVerdict.CLEAN
        assert detect(counts, LAM2, below_q0).verdict is DetectionVerdict.SUSPECT_CLONE

    def test_counts_past_the_cutoff_equal_oracle(self):
        # the histogram is wider than the law, so the law is zero-padded
        expected = tmcc_distribution(LAM2)
        counts = np.concatenate([clean_counts(seed=21, pulses=3000), [expected.cutoff + 1, expected.cutoff + 7]])
        report = detect(counts, LAM2, LOOSE)
        oracle = run_statistics(counts, expected, tmcc_moments(LAM2).mandel_q)
        assert np.bincount(counts).size > expected.probs.size
        np.testing.assert_allclose(report.empirical_mean, oracle[0], rtol=1e-12)
        np.testing.assert_allclose(report.empirical_mandel_q, oracle[4].mandel_q(), rtol=1e-12)
        np.testing.assert_array_equal([report.hs_dist_sq, report.weak_dist], oracle[2:4])

    def test_large_counts_do_not_wrap(self):
        # 2.2e6 * (2**21)**2 > 2**63: an int64 second-moment sum would wrap around
        report = detect(np.full(2_200_000, 1 << 21), LAM2, LOOSE)
        assert report.empirical_mean == 2.0**21
        assert report.empirical_mandel_q == -1.0


class TestReportSerialization:
    def test_flat_text_fields(self, thresholds):
        report = detect(clean_counts(seed=12), LAM2, thresholds)
        text = report.to_text()
        for field in ("empirical_mean=", "empirical_mandel_q=", "hs_dist_sq=", "weak_dist=", "verdict=", "pulse_count="):
            assert field in text
        assert text.endswith("\n")
