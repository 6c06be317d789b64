import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcc_qkd.photon_stats import (
    MAX_LAMBDA,
    IntensityParam,
    PhotonStatsError,
    _tmcc_distributions,
    _tmcc_moment_arrays,
    poisson_distribution,
    tmcc_distribution,
    tmcc_moments,
    tmcc_weights,
)

import oracles
from oracles import bessel_i, log_bessel_i

# frozen from a 40-digit mpmath power-series oracle
I0_AT_2 = 2.2795853023360672674
INV_I0_AT_2 = 0.4386762798370487394
MEAN_AT_1 = 0.6977746579640079820
MEAN_AT_2 = 1.7270452220491011657


def series_bessel_i(order: int, x: float, terms: int = 200) -> float:
    """Independent oracle: direct power series in exact rational arithmetic."""
    from fractions import Fraction

    half = Fraction(x).limit_denominator(10**12) / 2
    total = Fraction(0)
    for k in range(terms):
        total += half ** (order + 2 * k) / (math.factorial(k) * math.factorial(order + k))
    return float(total)


def series_moment(lam: float, power: int, terms: int = 200) -> float:
    """Independent oracle: n^power moment by direct series summation."""
    from fractions import Fraction

    lam_sq = (Fraction(lam).limit_denominator(10**12)) ** 2
    i0 = Fraction(0)
    total = Fraction(0)
    for n in range(terms):
        term = lam_sq**n / math.factorial(n) ** 2
        i0 += term
        total += n**power * term
    return float(total / i0)


class TestIntensityParam:
    def test_rejects_negative(self):
        with pytest.raises(PhotonStatsError):
            IntensityParam(-0.1)

    def test_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(PhotonStatsError):
                IntensityParam(bad)

    def test_rejects_above_ceiling(self):
        with pytest.raises(PhotonStatsError):
            IntensityParam(MAX_LAMBDA + 1)


def exact_pn(lam: float, n: int) -> float:
    """Independent oracle: TMCC P_n with the exact-rational I_0 series."""
    return lam ** (2 * n) / (series_bessel_i(0, 2.0 * lam) * math.factorial(n) ** 2)


# (0, MAX_LAMBDA]: a fine even grid plus values off it
LAMBDA_GRID = sorted({*np.linspace(0.0, MAX_LAMBDA, 251)[1:].tolist(), 1e-3, 0.0123, 0.7071, math.pi, 31.41, 49.999})


class TestBessel:
    """The power-series oracle against exact rational sums, and the
    normaliser of `tmcc_weights` against the oracle."""

    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(7, 0.0) == 0.0
        np.testing.assert_array_equal(tmcc_weights(0.0)[:3], [1.0, 0.0, 0.0])

    def test_i0_at_2(self):
        assert bessel_i(0, 2.0) == pytest.approx(I0_AT_2, rel=1e-12)
        assert 1.0 / tmcc_weights(1.0)[0] == pytest.approx(I0_AT_2, rel=1e-12)

    def test_negative_argument_raises(self):
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(PhotonStatsError):
            tmcc_weights(-1.0)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 30])
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 17.5, 60.0, 100.0])
    def test_against_series_oracle(self, order, x):
        assert bessel_i(order, x) == pytest.approx(series_bessel_i(order, x), rel=1e-12)
        assert tmcc_weights(x / 2.0)[order] == pytest.approx(exact_pn(x / 2.0, order), rel=1e-12)

    @pytest.mark.parametrize("order,x", [(0, 1.0), (3, 8.0), (25, 60.0), (150, 40.0)])
    def test_log_form_consistent(self, order, x):
        assert math.exp(log_bessel_i(order, x)) == pytest.approx(bessel_i(order, x), rel=1e-12)
        m = x / 2.0
        log_pn = 2 * order * math.log(m) - 2.0 * math.lgamma(order + 1) - log_bessel_i(0, x)
        assert math.log(tmcc_weights(m)[order]) == pytest.approx(log_pn, rel=1e-13, abs=1e-12)

    def test_log_form_below_underflow(self):
        # order high enough that the linear-scale value underflows
        assert bessel_i(400, 10.0) == 0.0
        assert log_bessel_i(400, 10.0) < -700
        assert tmcc_weights(5.0)[400] == 0.0


class TestTmccPn:
    """Single terms of `tmcc_weights` against the oracles."""

    def test_vacuum(self):
        w = tmcc_weights(0.0)
        assert w[0] == 1.0 and w[1] == 0.0 and w.sum() == 1.0
        assert oracles.tmcc_pn(0.0, 0) == 1.0 and oracles.tmcc_pn(0.0, 1) == 0.0

    def test_ground_probability_at_1(self):
        assert tmcc_weights(1.0)[0] == pytest.approx(INV_I0_AT_2, rel=1e-12)

    def test_log_domain_continuity(self):
        # small and large n alike come from the one log-domain formula
        w = tmcc_weights(4.0)
        for n in (0, 1, 18, 19, 20, 21, 22, 40):
            assert w[n] == pytest.approx(exact_pn(4.0, n), rel=1e-11)
            assert w[n] == pytest.approx(oracles.tmcc_pn(4.0, n), rel=1e-12)

    def test_negative_n_raises(self):
        with pytest.raises(PhotonStatsError):
            tmcc_distribution(IntensityParam(1.0)).prob(-1)
        with pytest.raises(ValueError):
            oracles.tmcc_pn(1.0, -1)


class TestTmccDistribution:
    def test_vacuum_is_point_mass(self):
        d = tmcc_distribution(IntensityParam(0.0))
        assert d.cutoff == 0
        assert d.probs[0] == 1.0

    def test_normalization_grid(self):
        for lam in np.linspace(0.0, 10.0, 50):
            d = tmcc_distribution(IntensityParam(float(lam)))
            assert abs(float(d.probs.sum()) + d.tail_mass - 1.0) <= 1e-12

    def test_term_ratio_identity(self):
        d = tmcc_distribution(IntensityParam(2.0))
        for n in range(d.cutoff):
            if d.probs[n] > 1e-300 and d.probs[n + 1] > 1e-300:
                assert d.probs[n + 1] / d.probs[n] == pytest.approx(4.0 / (n + 1) ** 2, rel=1e-9)

    def test_unimodal_then_decreasing(self):
        d = tmcc_distribution(IntensityParam(2.0))
        diffs = np.sign(np.diff(d.probs))
        # once decreasing, stays decreasing
        first_down = np.argmax(diffs < 0)
        assert np.all(diffs[first_down:] <= 0)

    def test_matches_series_oracle_on_grid(self):
        for lam in LAMBDA_GRID:
            got = tmcc_distribution(IntensityParam(lam)).probs
            want = oracles.tmcc_distribution_series(lam)
            assert got.size == want.size, lam
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"lambda {lam}")

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, lam):
        d = tmcc_distribution(IntensityParam(lam))
        assert abs(float(d.probs.sum()) + d.tail_mass - 1.0) <= 1e-12
        assert np.all(d.probs >= 0.0)


class TestMoments:
    def test_vacuum(self):
        m = tmcc_moments(IntensityParam(0.0))
        assert (m.mean, m.second_moment, m.variance, m.mandel_q) == (0.0, 0.0, 0.0, 0.0)
        assert m.degenerate

    def test_second_moment_exact(self):
        assert tmcc_moments(IntensityParam(2.0)).second_moment == 4.0

    def test_mean_at_1(self):
        assert tmcc_moments(IntensityParam(1.0)).mean == pytest.approx(MEAN_AT_1, rel=1e-12)

    def test_mean_matches_bessel_ratio_on_grid(self):
        for lam in LAMBDA_GRID:
            assert tmcc_moments(IntensityParam(lam)).mean == pytest.approx(oracles.tmcc_mean(lam), rel=1e-13), lam

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_closed_form_matches_series_oracle(self, lam):
        # the bare-series moments are the oracle for the closed forms
        m = tmcc_moments(IntensityParam(lam))
        assert m.mean == pytest.approx(series_moment(lam, 1), rel=1e-11)
        assert m.second_moment == pytest.approx(series_moment(lam, 2), rel=1e-11)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_moments_match_truncated_distribution(self, lam):
        m = tmcc_moments(IntensityParam(lam))
        d = tmcc_distribution(IntensityParam(lam))
        assert d.mean() == pytest.approx(m.mean, rel=1e-9)
        assert d.second_moment() == pytest.approx(m.second_moment, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5, 7.0, 10.0])
    def test_variance_identity(self, lam):
        m = tmcc_moments(IntensityParam(lam))
        assert m.variance == pytest.approx(m.second_moment - m.mean**2, rel=1e-12)
        assert m.variance >= 0.0

    def test_sub_poisson_everywhere(self):
        for lam in np.linspace(0.1, 10.0, 100):
            assert tmcc_moments(IntensityParam(float(lam))).mandel_q < 0.0


# magnitudes 0, tiny, figure 2's 100 points, the benchmark grid, a repeat, and
# three whose np.log and math.log differ in the last bit on some numpy builds
BATCH_MAGNITUDES = np.concatenate(
    [
        [0.0, 1e-150, 1e-6],
        np.linspace(0.05, 10.0, 100),
        [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0, 2.0],
        [0.9855621093722899, 16.621469573452845, 30.665646621975622],
    ]
)


class TestBatchedKernels:
    """The array forms against one magnitude at a time, bit for bit."""

    def test_weight_rows_equal_single_magnitude_calls(self):
        rows = tmcc_weights(BATCH_MAGNITUDES)
        assert rows.shape == (BATCH_MAGNITUDES.size, 601)
        for m, row in zip(BATCH_MAGNITUDES, rows):
            np.testing.assert_array_equal(row, tmcc_weights(float(m)))
            np.testing.assert_array_equal(row, oracles.tmcc_weights_row(float(m)))

    def test_weight_shape_follows_the_argument(self):
        assert tmcc_weights(2.0).shape == (601,)
        grid = np.array([[0.5, 2.0], [8.0, 0.0]])
        rows = tmcc_weights(grid)
        assert rows.shape == (2, 2, 601)
        np.testing.assert_array_equal(rows[1, 0], tmcc_weights(8.0))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_magnitude_in_batch_raises(self, bad):
        with pytest.raises(PhotonStatsError, match=f"got {bad}"):
            tmcc_weights(np.array([1.0, bad, 2.0]))

    def test_distributions_equal_single_magnitude_calls(self):
        for m, dist in zip(BATCH_MAGNITUDES, _tmcc_distributions(BATCH_MAGNITUDES)):
            single = tmcc_distribution(IntensityParam(float(m)))
            np.testing.assert_array_equal(dist.probs, single.probs)
            assert dist.tail_mass == single.tail_mass

    def test_moment_arrays_equal_tmcc_moments(self):
        positive = BATCH_MAGNITUDES[BATCH_MAGNITUDES > 0.0]
        for m, mean, variance, q in zip(positive, *_tmcc_moment_arrays(positive)):
            single = tmcc_moments(IntensityParam(float(m)))
            assert (mean, variance, q) == (single.mean, single.variance, single.mandel_q)
            assert single.mean == float(np.arange(601) @ oracles.tmcc_weights_row(float(m)))


class TestPoisson:
    def test_zero_mean(self):
        d = poisson_distribution(0.0)
        assert d.cutoff == 0 and d.probs[0] == 1.0

    def test_ground_probability(self):
        assert poisson_distribution(1.0).prob(0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mandel_q_zero(self):
        assert abs(poisson_distribution(3.0).mandel_q()) <= 1e-9

    def test_dispersion_ordering(self):
        from tmcc_qkd.attacks import lambda_for_mean

        for mean in np.linspace(8.0 / 50.0, 8.0, 50):
            m = tmcc_moments(lambda_for_mean(float(mean)))
            assert m.variance < m.mean  # Poisson variance equals the mean
