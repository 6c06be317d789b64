import math
import re

import numpy as np
import pytest

from tmcc_qkd.photon_stats import IntensityParam, tmcc_distribution, tmcc_moments
from tmcc_qkd.source import (
    PulseBatch,
    PulseSampler,
    SourceConfig,
    correlation_report,
    read_pulse_log,
    write_pulse_log,
)

LAM2 = IntensityParam(2.0)
FIELDS = ("n_a", "n_b", "n_e", "noise_a", "noise_b")


def sample(cfg, count):
    return PulseSampler(cfg).sample_batch(count)


def counts_only(n_a, n_b):
    """A batch with the given Alice/Bob counts, no Eve and no noise."""
    n_a = np.asarray(n_a)
    zero = np.zeros_like(n_a)
    return PulseBatch(n_a, np.asarray(n_b), zero, zero.astype(bool), zero.astype(bool))


def same_batch(x, y):
    return all(np.array_equal(getattr(x, f), getattr(y, f)) for f in FIELDS)


class TestSourceConfig:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            SourceConfig(LAM2, noise_epsilon=0.6)
        with pytest.raises(ValueError):
            SourceConfig(LAM2, noise_epsilon=-0.1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SourceConfig(LAM2, seed=2**64)


class TestSampling:
    def test_zero_intensity_always_vacuum(self):
        batch = sample(SourceConfig(IntensityParam(0.0), seed=1), 200)
        assert not batch.n_a.any() and not batch.n_b.any()

    def test_determinism_bit_for_bit(self):
        cfg = SourceConfig(LAM2, noise_epsilon=0.1, seed=12345)
        assert same_batch(sample(cfg, 5000), sample(cfg, 5000))

    def test_noiseless_identity_large_sample(self):
        batch = sample(SourceConfig(LAM2, seed=7), 1_000_000)
        assert not batch.noise_a.any() and not batch.noise_b.any()
        assert np.array_equal(batch.n_a, batch.n_b) and not batch.n_e.any()

    def test_noise_marginal_rate(self):
        eps = 0.2
        batch = sample(SourceConfig(LAM2, noise_epsilon=eps, seed=11), 100_000)
        se = math.sqrt(eps * (1 - eps) / 100_000)
        assert abs(batch.noise_a.mean() - eps) < 3 * se
        assert abs(batch.noise_b.mean() - eps) < 3 * se
        assert np.array_equal(batch.n_a - batch.noise_a, batch.n_b - batch.noise_b)

    def test_mean_converges_with_noise(self):
        eps = 0.1
        n_b = sample(SourceConfig(LAM2, noise_epsilon=eps, seed=21), 1_000_000).n_b
        moments = tmcc_moments(LAM2)
        se = math.sqrt((moments.variance + eps * (1 - eps)) / 1_000_000)
        assert abs(n_b.mean() - (moments.mean + eps)) < 3 * se

    def test_empirical_distribution_total_variation(self):
        n = sample(SourceConfig(LAM2, seed=31), 1_000_000).n_a
        analytic = tmcc_distribution(LAM2)
        hist = np.bincount(n, minlength=analytic.probs.size) / n.size
        common = min(hist.size, analytic.probs.size)
        tv = 0.5 * (
            np.abs(hist[:common] - analytic.probs[:common]).sum()
            + hist[common:].sum()
            + analytic.probs[common:].sum()
        )
        assert tv < 0.01


class TestCorrelation:
    def test_noiseless_correlation_exactly_one(self):
        report = correlation_report(sample(SourceConfig(LAM2, seed=41), 20_000))
        assert report.rho_ab == 1.0
        assert not report.degenerate

    def test_independent_streams_decorrelate(self):
        rng = np.random.default_rng(5)
        mean = tmcc_moments(LAM2).mean
        batch = counts_only(rng.poisson(mean, 10_000), rng.poisson(mean, 10_000))
        assert abs(correlation_report(batch).rho_ab) < 0.05

    def test_noise_partially_decorrelates(self):
        report = correlation_report(sample(SourceConfig(LAM2, noise_epsilon=0.2, seed=51), 50_000))
        assert 0.0 < report.rho_ab < 1.0

    def test_degenerate_margin(self):
        report = correlation_report(counts_only([0, 0, 0], [0, 0, 0]))
        assert report.degenerate
        assert math.isnan(report.rho_ab)

    def test_needs_two_pulses(self):
        with pytest.raises(ValueError):
            correlation_report(counts_only([1], [1]))


class TestPulseBatch:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            counts_only([1, -1], [1, 1])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            counts_only([1, 2], [1])


class TestPulseLog:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "pulses.csv"
        write_pulse_log(path, PulseBatch([2], [3], [1], [False], [True]))
        assert path.read_bytes() == b"pulse_index,n_a,n_b,n_e,noise_a,noise_b\r\n0,2,3,1,0,1\r\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pulses.csv"
        batch = sample(SourceConfig(LAM2, noise_epsilon=0.3, seed=61), 1000)
        write_pulse_log(path, batch)
        assert same_batch(read_pulse_log(path), batch)

    @pytest.mark.parametrize(
        "row",
        ["0,1,x,0,0,0", "0,1,2,0,0", "0,1,-2,0,0,0", "0,1,2,0,0,0,7", "", "0,1,2.5,0,0,0"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "pulses.csv"
        path.write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n" + row + "\n1,2,2,0,0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ") + ".*" + re.escape(repr(row))):
            read_pulse_log(path)

    def test_non_ascii_byte_names_file(self, tmp_path):
        path = tmp_path / "pulses.csv"
        path.write_bytes(b"pulse_index,n_a,n_b,n_e,noise_a,noise_b\r\n0,1,\xff,0,0,0\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not ASCII text")):
            read_pulse_log(path)

    def test_missing_column_names_line_one(self, tmp_path):
        path = tmp_path / "pulses.csv"
        path.write_text("pulse_index,n_a\n0,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 1: ")):
            read_pulse_log(path)
