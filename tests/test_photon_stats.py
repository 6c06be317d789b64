import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcc_qkd.attacks import _lambdas_for_means
from tmcc_qkd.photon_stats import (
    _LOG_FACTORIAL,
    _N,
    MAX_LAMBDA,
    CutoffNotFoundError,
    IntensityParam,
    PhotonDistribution,
    PhotonStatsError,
    _folded_cdfs,
    _law_table,
    _poisson_laws,
    _tmcc_laws,
    _tmcc_means,
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

    def test_underflowed_mean_is_the_vacuum_limit(self):
        # <N> ~ lambda^2 underflows to 0 here; Q is 0 by continuity, not 0/0
        m = tmcc_moments(IntensityParam(1e-200))
        assert (m.mean, m.mandel_q, m.degenerate) == (0.0, 0.0, True)
        assert _tmcc_moment_arrays(np.array([1e-200, 2.0]))[2][0] == 0.0

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

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(0.0, 50.0, 20001),
            np.geomspace(1e-8, 50.0, 2001),
            np.linspace(0.05, 10.0, 100),  # figure 2
            _lambdas_for_means(np.linspace(8.0 / 50.0, 8.0, 50)),  # figure 3
            np.array([50.0, 1e-8, 0.0, 3.0]),  # the band set by the first row, a vacuum row inside it
        ],
        ids=["linear-0-50", "geometric-1e-8-50", "figure2", "figure3", "mixed"],
    )
    def test_banded_rows_equal_full_grid_oracle(self, grid):
        # weights past each call's band are left 0.0, not computed: they must
        # be exactly what exp gives on the whole grid, and so must every sum
        assert np.array_equal(tmcc_weights(grid), oracles.tmcc_weights_full_grid(grid))
        assert np.array_equal(_tmcc_means(grid), oracles.tmcc_means_full_grid(grid))

    # 1000 is above MAX_LAMBDA, which IntensityParam enforces and this kernel does
    # not: its weights underflow at the start of the grid, not at its end
    @pytest.mark.parametrize("m", [0.0, 5e-324, 1e-8, 0.5, 1.0, 2.0, 5.0, 20.0, 45.0, 50.0, 1000.0])
    def test_banded_scalar_equals_full_grid_oracle(self, m):
        assert np.array_equal(tmcc_weights(m), oracles.tmcc_weights_full_grid(m))
        assert np.array_equal(_tmcc_means(np.array([m])), oracles.tmcc_means_full_grid(np.array([m])))

    def test_stacked_means_equal_per_row_dot(self):
        # the stacked 1xG by Gx1 product sums each row as its own dot does
        rng = np.random.default_rng(20)
        for _ in range(300):
            m = rng.uniform(0.0, 50.0, rng.integers(1, 120))
            want = np.array([_N.astype(float) @ row for row in tmcc_weights(m)])
            assert np.array_equal(_tmcc_means(m), want)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_magnitude_in_batch_raises(self, bad):
        with pytest.raises(PhotonStatsError, match=f"got {bad}"):
            tmcc_weights(np.array([1.0, bad, 2.0]))

    def test_distributions_equal_single_magnitude_calls(self):
        table, cutoffs = _tmcc_laws(BATCH_MAGNITUDES)
        assert table.shape == (BATCH_MAGNITUDES.size, cutoffs.max() + 1)
        for m, row, cutoff in zip(BATCH_MAGNITUDES, table, cutoffs):
            single = tmcc_distribution(IntensityParam(float(m)))
            want = oracles.tmcc_law(float(m))
            np.testing.assert_array_equal(row[: cutoff + 1], single.probs)
            np.testing.assert_array_equal(single.probs, want.probs)
            assert single.tail_mass == want.tail_mass
            assert not row[cutoff + 1 :].any()

    def test_moment_arrays_equal_tmcc_moments(self):
        positive = BATCH_MAGNITUDES[BATCH_MAGNITUDES > 0.0]
        for m, mean, variance, q in zip(positive, *_tmcc_moment_arrays(positive)):
            single = tmcc_moments(IntensityParam(float(m)))
            assert (mean, variance, q) == (single.mean, single.variance, single.mandel_q)
            assert single.mean == float(np.arange(601) @ oracles.tmcc_weights_row(float(m)))


class TestPhotonDistribution:
    @pytest.mark.parametrize(
        "probs, tail",
        [
            ([math.nan, 0.5], 0.5),
            ([0.5, 0.5], math.nan),
            ([math.inf, 0.5], 0.0),
            ([1.0], math.inf),
            ([0.5, -math.inf], 0.0),
        ],
    )
    def test_non_finite_refused(self, probs, tail):
        with pytest.raises(PhotonStatsError):
            PhotonDistribution(np.array(probs), tail_mass=tail)

    def test_negative_and_unnormalised_refused(self):
        with pytest.raises(PhotonStatsError, match="nonnegative"):
            PhotonDistribution(np.array([1.5, -0.5]))
        with pytest.raises(PhotonStatsError, match="nonnegative"):
            PhotonDistribution(np.array([1.0]), tail_mass=-0.5)
        with pytest.raises(PhotonStatsError, match=r"not normalized: sum\+tail = 1\.1"):
            PhotonDistribution(np.array([0.5, 0.6]))


# Poisson means: every integer an inner clone law takes, and a few others
POISSON_MEANS = np.concatenate([np.arange(90.0), [1e-9, 0.5, 2.5, 33.3, 250.0]])


class TestLawTable:
    """The table kernel against laws cut one at a time over the whole grid."""

    def test_poisson_rows_equal_whole_grid_oracle(self):
        table, cutoffs = _poisson_laws(POISSON_MEANS)
        for mean, row, cutoff in zip(POISSON_MEANS, table, cutoffs):
            want = oracles.poisson_law(float(mean))
            single = poisson_distribution(float(mean))
            np.testing.assert_array_equal(row[: cutoff + 1], want.probs)
            assert not row[cutoff + 1 :].any()
            np.testing.assert_array_equal(single.probs, want.probs)
            assert single.tail_mass == want.tail_mass

    def test_table_is_as_wide_as_its_largest_cutoff(self):
        table, cutoffs = _poisson_laws(np.arange(90.0))
        assert table.shape == (90, cutoffs.max() + 1)
        assert table.shape[1] < 601

    def test_width_never_cuts_a_law_short(self):
        # every TMCC law on a dense grid, and every coherent inner law, has the
        # cutoff on the narrowed width that it has on the whole grid
        for m in np.array_split(np.linspace(0.0, MAX_LAMBDA, 20_001), 20):
            want = _law_table(tmcc_weights(m), m * m, 2)
            np.testing.assert_array_equal(_tmcc_laws(m)[1], want[1])
        means = np.arange(90.0)
        log_mean = np.array([0.0] + [math.log(x) for x in means[1:]])
        whole = np.exp(np.multiply.outer(log_mean, _N) - means[:, None] - _LOG_FACTORIAL)
        whole[0] = _N == 0
        np.testing.assert_array_equal(_poisson_laws(means)[1], _law_table(whole, means, 1)[1])

    def test_cutoff_past_the_geometric_width(self):
        # flat weights: the first hit (r/(1-r) below 1e-9) is at n = 100, past
        # the width that the geometric bound gives for a decaying law
        table, cutoffs = _law_table(np.full((1, 601), 1e-3), np.array([1e-7]), 1)
        assert cutoffs.tolist() == [100] and table.shape == (1, 101)

    def test_folded_cdfs_equal_oracle(self):
        for table, cutoffs in (_tmcc_laws(BATCH_MAGNITUDES), _poisson_laws(POISSON_MEANS)):
            for row, cdf, cutoff in zip(table, _folded_cdfs(table, cutoffs), cutoffs):
                law = PhotonDistribution(row[: cutoff + 1], tail_mass=max(0.0, 1.0 - float(row.sum())))
                np.testing.assert_array_equal(cdf[: cutoff + 1], oracles.folded_cdf(law))
                assert (cdf[cutoff:] == 1.0).all()

    def test_no_cutoff_on_the_grid_raises(self):
        with pytest.raises(CutoffNotFoundError):
            poisson_distribution(400.0)
        with pytest.raises(CutoffNotFoundError):
            _poisson_laws(np.array([1.0, 400.0]))

    def test_nan_weight_refused(self):
        w = np.array([[math.exp(-2.0) * 2.0**n / math.factorial(n) for n in range(60)]])
        w[0, 1] = math.nan
        with pytest.raises(PhotonStatsError, match="finite"):
            _law_table(w, np.array([2.0]), 1)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_mean_in_batch_raises(self, bad):
        with pytest.raises(PhotonStatsError, match="mean must be finite"):
            _poisson_laws(np.array([1.0, bad]))


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
