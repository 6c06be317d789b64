import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcc_qkd import attacks
from tmcc_qkd.attacks import (
    ClonePulseSampler,
    CloneStrategy,
    SplitPulseSampler,
    SplitRatio,
    _clone_inner_law,
    _clone_inner_laws,
    _lambdas_for_means,
    _split_marginals,
    cloned_bob_matrix,
    lambda_for_mean,
    split_marginal_bob,
    split_marginal_eve,
)
from tmcc_qkd.density_ops import hs_distance_sq, weak_distance
from tmcc_qkd.photon_stats import (
    MAX_LAMBDA,
    IntensityParam,
    PhotonStatsError,
    _law,
    tmcc_distribution,
    tmcc_moments,
)
from tmcc_qkd.source import SourceConfig

import oracles
from oracles import (
    PerValueClonePulseSampler,
    lambda_for_mean_newton,
    split_marginal_bessel,
    split_marginal_binomial,
    split_marginal_mixture,
)

LAM2 = IntensityParam(2.0)
BENCH_LAMBDAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0)
# figure 5's split ratios, p^2 = 1 down to 0
FIGURE5_RATIOS = [SplitRatio.from_p_squared(float(p_sq)) for p_sq in np.linspace(1.0, 0.0, 21)]

# frozen from the 40-digit mpmath double-sum oracle (lambda = 2, TMCC clone)
CLONE_Q_L2 = 0.170433956684
CLONE_HS_L2 = 0.032806257937
CLONE_WEAK_L2 = 0.121901112300


class TestSplitRatio:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SplitRatio(0.9, 0.9)
        with pytest.raises(ValueError):
            SplitRatio(1.2, 0.0)

    def test_from_p_squared(self):
        r = SplitRatio.from_p_squared(0.3)
        assert r.p**2 == pytest.approx(0.3, rel=1e-12)
        assert r.p**2 + r.q**2 == pytest.approx(1.0, abs=1e-12)


class TestSplitMarginals:
    def test_no_split_reproduces_source(self):
        full = SplitRatio(1.0, 0.0)
        got = split_marginal_bob(LAM2, full)
        want = tmcc_distribution(LAM2)
        np.testing.assert_allclose(got.probs, want.probs, rtol=1e-12)

    def test_full_split_gives_vacuum_at_bob(self):
        got = split_marginal_bob(LAM2, SplitRatio(0.0, 1.0))
        assert got.cutoff == 0 and got.probs[0] == 1.0

    def test_full_split_gives_vacuum_at_eve(self):
        got = split_marginal_eve(LAM2, SplitRatio(1.0, 0.0))
        assert got.cutoff == 0 and got.probs[0] == 1.0

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("p_sq", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_form_matches_binomial_oracle(self, lam, p_sq):
        # adjudicates the closed-form exponent: lambda^m normalizes and
        # matches the mixture; lambda^(2m) would not
        lam_p = IntensityParam(lam)
        r = SplitRatio.from_p_squared(p_sq)
        analytic = split_marginal_bob(lam_p, r)
        oracle = split_marginal_binomial(lam_p, r)
        size = min(analytic.probs.size, oracle.probs.size)
        np.testing.assert_allclose(analytic.probs[:size], oracle.probs[:size], atol=1e-10)
        assert abs(float(analytic.probs.sum()) + analytic.tail_mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("p_sq", [0.1, 0.5, 0.9])
    def test_matches_bessel_and_binomial_oracles_on_grid(self, p_sq):
        r = SplitRatio.from_p_squared(p_sq)
        for lam in [0.01, 0.3, 0.7, *np.linspace(0.0, MAX_LAMBDA, 26)[1:]]:
            lam_p = IntensityParam(float(lam))
            got = split_marginal_bob(lam_p, r)
            assert got.probs.size == tmcc_distribution(lam_p).probs.size
            bessel = split_marginal_bessel(lam_p, r, got.probs.size)
            # below 1e-20 only the P_n < 1e-22 left out of the mixture shows
            np.testing.assert_allclose(got.probs, bessel, rtol=1e-12, atol=1e-20, err_msg=f"lambda {lam}")
            # the binomial oracle mixes over the truncated n only, which drops up to tail_eps
            binomial = split_marginal_binomial(lam_p, r)
            np.testing.assert_allclose(got.probs, binomial.probs, rtol=0.0, atol=1e-12, err_msg=f"lambda {lam}")

    def test_eve_is_bob_with_roles_swapped(self):
        r = SplitRatio.from_p_squared(0.3)
        eve = split_marginal_eve(LAM2, r)
        bob_swapped = split_marginal_bob(LAM2, SplitRatio(r.q, r.p))
        np.testing.assert_array_equal(eve.probs, bob_swapped.probs)

    @pytest.mark.parametrize("p_sq", [0.1, 0.5, 0.9])
    def test_mean_conservation(self, p_sq):
        r = SplitRatio.from_p_squared(p_sq)
        bob = split_marginal_bob(LAM2, r)
        eve = split_marginal_eve(LAM2, r)
        assert bob.mean() + eve.mean() == pytest.approx(tmcc_moments(LAM2).mean, abs=1e-10)

    def test_distance_grows_as_p_drops(self):
        for lam in (1.0, 2.0, 4.0):
            lam_p = IntensityParam(lam)
            original = tmcc_distribution(lam_p)
            distances = [
                hs_distance_sq(
                    split_marginal_bob(lam_p, SplitRatio.from_p_squared(p_sq)),
                    original,
                )
                for p_sq in np.linspace(1.0, 0.0, 20)
            ]
            assert distances[0] <= 1e-14
            assert all(b >= a - 1e-15 for a, b in zip(distances, distances[1:]))


class TestSplitSampling:
    def test_p1_keeps_everything(self):
        sampler = SplitPulseSampler(SourceConfig(LAM2, seed=3), SplitRatio(1.0, 0.0))
        batch = sampler.sample_batch(500)
        assert np.array_equal(batch.n_b, batch.n_a) and not batch.n_e.any()

    def test_p0_gives_bob_nothing(self):
        sampler = SplitPulseSampler(SourceConfig(LAM2, seed=3), SplitRatio(0.0, 1.0))
        assert not sampler.sample_batch(500).n_b.any()

    def test_counts_partition(self):
        sampler = SplitPulseSampler(SourceConfig(LAM2, seed=4), SplitRatio.from_p_squared(0.5))
        batch = sampler.sample_batch(2000)
        assert np.array_equal(batch.n_b + batch.n_e, batch.n_a)

    def test_empirical_matches_analytic_marginal(self):
        sampler = SplitPulseSampler(SourceConfig(LAM2, seed=5), SplitRatio.from_p_squared(0.5))
        n_b = sampler.sample_batch(1_000_000).n_b
        analytic = split_marginal_bob(LAM2, SplitRatio.from_p_squared(0.5))
        hist = np.bincount(n_b, minlength=analytic.probs.size) / n_b.size
        common = min(hist.size, analytic.probs.size)
        tv = 0.5 * (
            np.abs(hist[:common] - analytic.probs[:common]).sum()
            + hist[common:].sum()
            + analytic.probs[common:].sum()
        )
        assert tv < 0.01


class TestLambdaInversion:
    def test_zero(self):
        assert lambda_for_mean(0.0).magnitude == 0.0

    @pytest.mark.parametrize("n", list(range(0, 50, 5)) + [49])
    def test_round_trip(self, n):
        assert tmcc_moments(lambda_for_mean(float(n))).mean == pytest.approx(float(n), abs=1e-8)

    def test_mean_50_needs_lambda_above_ceiling(self):
        # <N>(MAX_LAMBDA) is about 49.75, so 50 is just out of reach
        with pytest.raises(PhotonStatsError):
            lambda_for_mean(50.0)

    def test_monotone(self):
        values = [lambda_for_mean(float(n)).magnitude for n in range(50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_unreachable_target(self):
        with pytest.raises(PhotonStatsError):
            lambda_for_mean(1e6)

    def test_negative_raises(self):
        with pytest.raises(PhotonStatsError):
            lambda_for_mean(-1.0)

    def test_agrees_with_brentq(self):
        from scipy.optimize import brentq

        targets = [1e-9, 1e-3, *range(50), 49.74, *np.linspace(0.0, 49.74, 200)]
        for target in map(float, targets):
            got = lambda_for_mean(target).magnitude
            want = brentq(
                lambda x: tmcc_moments(IntensityParam(x)).mean - target, 0.0, MAX_LAMBDA, xtol=1e-12
            )
            assert abs(got - want) <= 2e-12, target
            residual = tmcc_moments(IntensityParam(got)).mean - target
            assert abs(residual) / max(1.0, target) <= 1e-13, target

    @pytest.mark.parametrize("target", [-1e-9, math.nan, math.inf, 49.75])
    def test_bad_target_raises(self, target):
        with pytest.raises(PhotonStatsError):
            lambda_for_mean(target)


class TestBatchedInversion:
    """The lockstep Newton iteration against the per-target oracle, bit for bit."""

    TARGETS = [0.0, 1e-6, *np.linspace(8.0 / 50.0, 8.0, 50), *range(50)]

    def test_targets_equal_per_target_newton(self):
        got = _lambdas_for_means(np.array(self.TARGETS, dtype=float))
        want = [lambda_for_mean_newton(float(t)) for t in self.TARGETS]
        assert got.tolist() == want
        assert [lambda_for_mean(float(t)).magnitude for t in self.TARGETS] == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 49.74), min_size=1, max_size=12), st.integers(0, 4))
    @example([7.5], 0)
    @example([0.0, 0.0], 2)
    def test_random_batches_equal_per_target_newton(self, targets, repeats):
        targets = targets + targets[:repeats]  # duplicated lanes
        got = _lambdas_for_means(np.array(targets))
        assert got.tolist() == [lambda_for_mean_newton(t) for t in targets]

    def test_unreachable_target_raises_as_per_target(self):
        with pytest.raises(PhotonStatsError) as per_target:
            lambda_for_mean_newton(49.75)
        with pytest.raises(PhotonStatsError) as batched:
            _lambdas_for_means(np.array([1.0, 49.75]))
        assert str(batched.value) == str(per_target.value) == "mean 49.75 not reachable below lambda ceiling 50.0"

    @pytest.mark.parametrize(
        "targets, message",
        [
            ([1.0, 60.0, 50.0, -1.0], "mean 60.0 not reachable"),
            ([1.0, math.nan, 60.0], "target mean must be finite"),
            ([2.0, 55.0, math.inf], "mean 55.0 not reachable"),
        ],
    )
    def test_first_bad_target_names_the_error(self, targets, message):
        with pytest.raises(PhotonStatsError, match=message):
            _lambdas_for_means(np.array(targets))

    def test_clone_inner_laws_equal_per_target_inversion(self):
        values = np.arange(50)
        table, cutoffs = _clone_inner_laws(values, CloneStrategy.TMCC_CLONE)
        for n, row, cutoff in zip(values, table, cutoffs):
            want = tmcc_distribution(IntensityParam(lambda_for_mean_newton(float(n))))
            np.testing.assert_array_equal(row[: cutoff + 1], want.probs)

    def test_clone_matrix_names_first_unreachable_n(self):
        with pytest.raises(PhotonStatsError, match=r"^mean 50\.0 not reachable below lambda ceiling 50\.0$"):
            cloned_bob_matrix(IntensityParam(32.0), CloneStrategy.TMCC_CLONE)


class TestBatchedSplit:
    @staticmethod
    def _assert_rows_equal_oracle(lam, ratios):
        # the kernel's product rounds unlike the oracle's log-domain sum: equal
        # to 1e-13 relative, and entries below 1e-290 (where a power of p^2 or
        # q^2 nears underflow) only in absolute terms
        table, cutoffs = _split_marginals(lam, ratios)
        assert table.shape == (len(ratios), tmcc_distribution(lam).probs.size)
        for r, row, cutoff in zip(ratios, table, cutoffs):
            want = split_marginal_mixture(lam, r)
            assert cutoff == want.cutoff
            np.testing.assert_allclose(row, np.pad(want.probs, (0, row.size - want.probs.size)), rtol=1e-13, atol=1e-290)
            assert _law(row[None], cutoff[None]).tail_mass == pytest.approx(want.tail_mass, rel=0, abs=1e-14)

    @pytest.mark.parametrize("lam", BENCH_LAMBDAS)
    def test_figure5_ratios_equal_per_ratio_mixture(self, lam):
        # figure 5's grid holds the no-split (p^2 = 1) and vacuum (p^2 = 0) rows;
        # the extreme ratios put one of p^2, q^2 near 0
        lam = IntensityParam(lam)
        ratios = FIGURE5_RATIOS + [SplitRatio.from_p_squared(p_sq) for p_sq in (1e-9, 1e-6, 1 - 1e-6, 1 - 1e-12)]
        self._assert_rows_equal_oracle(lam, ratios)
        self._assert_rows_equal_oracle(lam, [SplitRatio(r.q, r.p) for r in ratios])

    def test_vacuum_source_gives_vacuum_for_every_ratio(self):
        table, cutoffs = _split_marginals(IntensityParam(0.0), FIGURE5_RATIOS)
        np.testing.assert_array_equal(table, np.ones((len(FIGURE5_RATIOS), 1)))
        np.testing.assert_array_equal(cutoffs, 0)


class TestCloning:
    def test_single_photon_bank_preserves_statistics(self):
        cloned = cloned_bob_matrix(LAM2, CloneStrategy.SINGLE_PHOTON_BANK)
        original = tmcc_distribution(LAM2)
        size = min(cloned.probs.size, original.probs.size)
        np.testing.assert_allclose(cloned.probs[:size], original.probs[:size], atol=1e-12)

    def test_vacuum_clones_to_vacuum(self):
        cloned = cloned_bob_matrix(IntensityParam(0.0), CloneStrategy.TMCC_CLONE)
        assert cloned.probs[0] == 1.0

    def test_tmcc_clone_against_frozen_oracle(self):
        cloned = cloned_bob_matrix(LAM2, CloneStrategy.TMCC_CLONE)
        original = tmcc_distribution(LAM2)
        assert cloned.mandel_q() == pytest.approx(CLONE_Q_L2, abs=1e-7)
        assert hs_distance_sq(cloned, original) == pytest.approx(CLONE_HS_L2, abs=1e-7)
        assert weak_distance(cloned, original) == pytest.approx(CLONE_WEAK_L2, abs=1e-7)

    def test_clone_mean_preserved(self):
        for strategy in CloneStrategy:
            cloned = cloned_bob_matrix(LAM2, strategy)
            assert cloned.mean() == pytest.approx(tmcc_moments(LAM2).mean, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_tmcc_clone_shifts_mandel_q(self, lam):
        lam_p = IntensityParam(lam)
        cloned = cloned_bob_matrix(lam_p, CloneStrategy.TMCC_CLONE)
        assert abs(cloned.mandel_q() - tmcc_moments(lam_p).mandel_q) > 1e-3

    def test_clone_sampler_matches_mixture(self):
        sampler = ClonePulseSampler(SourceConfig(LAM2, seed=9), CloneStrategy.TMCC_CLONE)
        n_b = sampler.sample_batch(200_000).n_b
        cloned = cloned_bob_matrix(LAM2, CloneStrategy.TMCC_CLONE)
        hist = np.bincount(n_b, minlength=cloned.probs.size) / n_b.size
        common = min(hist.size, cloned.probs.size)
        tv = 0.5 * (
            np.abs(hist[:common] - cloned.probs[:common]).sum()
            + hist[common:].sum()
            + cloned.probs[common:].sum()
        )
        assert tv < 0.02

    @pytest.mark.parametrize("strategy", list(CloneStrategy))
    @pytest.mark.parametrize("lam", [0.05, 0.5, 2.0, 8.0, 25.0])
    def test_clone_sampler_matches_per_value_oracle(self, lam, strategy):
        for seed in (0, 7, 2024):
            for count in (1, 2, 3000):
                cfg = SourceConfig(IntensityParam(lam), noise_epsilon=0.05, seed=seed)
                got = ClonePulseSampler(cfg, strategy).sample_batch(count)
                want = PerValueClonePulseSampler(cfg, strategy).sample_batch(count)
                for name in ("n_a", "n_b", "n_e", "noise_a", "noise_b"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (lam, strategy, seed, count, name)

    def test_clone_sampler_second_batch_matches_oracle(self):
        cfg = SourceConfig(LAM2, seed=5)
        got = ClonePulseSampler(cfg, CloneStrategy.TMCC_CLONE)
        want = PerValueClonePulseSampler(cfg, CloneStrategy.TMCC_CLONE)
        for count in (500, 700):
            assert np.array_equal(got.sample_batch(count).n_b, want.sample_batch(count).n_b)

    def test_tmcc_clone_sampler_raises_on_unreachable_mean(self):
        sampler = ClonePulseSampler(SourceConfig(IntensityParam(45.0), seed=0), CloneStrategy.TMCC_CLONE)
        with pytest.raises(PhotonStatsError, match="mean 50.0 not reachable"):
            sampler.sample_batch(3000)

    def test_tmcc_clone_sampler_builds_laws_for_drawn_counts_only(self):
        # the source cutoff at lambda 32 is 64, past the reachable mean 49.75,
        # but this batch draws no n above 49, so every law it needs exists
        cfg = SourceConfig(IntensityParam(32.0), seed=0)
        assert tmcc_distribution(cfg.lam).cutoff >= 50
        batch = ClonePulseSampler(cfg, CloneStrategy.TMCC_CLONE).sample_batch(3000)
        assert batch.n_a.max() < 50 and np.array_equal(batch.n_e, batch.n_a)

    def test_clone_sampler_alice_unaffected(self):
        sampler = ClonePulseSampler(SourceConfig(LAM2, seed=10), CloneStrategy.COHERENT)
        batch = sampler.sample_batch(5000)
        assert np.array_equal(batch.n_e, batch.n_a)  # Eve measured the true count


def _error_text(fn, *args) -> str:
    with pytest.raises(PhotonStatsError) as info:
        fn(*args)
    return str(info.value)


class TestCloneLawTable:
    """The table of inner clone laws against one `PhotonDistribution` per n,
    mixed one law at a time (tests/oracles.py), bit for bit."""

    @pytest.mark.parametrize("strategy", list(CloneStrategy))
    def test_rows_equal_oracle_laws(self, strategy):
        # the inner TMCC law exists only for n up to the reachable mean 49.75
        values = np.arange(50 if strategy is CloneStrategy.TMCC_CLONE else 90)
        table, cutoffs = _clone_inner_laws(values, strategy)
        assert table.shape == (values.size, cutoffs.max() + 1)
        for n, row, cutoff, want in zip(values, table, cutoffs, oracles.clone_inner_laws(values, strategy)):
            assert cutoff == want.cutoff
            np.testing.assert_array_equal(row[: cutoff + 1], want.probs)
            assert not row[cutoff + 1 :].any()
            one = _clone_inner_law(int(n), strategy)
            np.testing.assert_array_equal(one.probs, want.probs)
            assert one.tail_mass == want.tail_mass

    def test_unreachable_inner_law_raises_as_oracle(self):
        values = np.arange(90)
        got = _error_text(_clone_inner_laws, values, CloneStrategy.TMCC_CLONE)
        assert got == _error_text(oracles.clone_inner_laws, values, CloneStrategy.TMCC_CLONE)
        assert got == "mean 50.0 not reachable below lambda ceiling 50.0"

    @pytest.mark.parametrize(
        "lam, strategy",
        [
            (lam, strategy)
            for lam in BENCH_LAMBDAS
            for strategy in CloneStrategy
            # tmcc-clone raises at 32 and 50 (the test below)
            if not (strategy is CloneStrategy.TMCC_CLONE and lam >= 32.0)
        ],
    )
    def test_matrix_equals_oracle_mixture(self, lam, strategy):
        got = cloned_bob_matrix(IntensityParam(lam), strategy)
        want = oracles.cloned_bob_matrix(IntensityParam(lam), strategy)
        np.testing.assert_array_equal(got.probs, want.probs)

    @pytest.mark.parametrize("lam", [32.0, 50.0])
    def test_unreachable_matrix_raises_before_any_newton_step(self, lam, monkeypatch):
        want = _error_text(oracles.cloned_bob_matrix, IntensityParam(lam), CloneStrategy.TMCC_CLONE)

        def no_newton_step(m):
            raise AssertionError("a Newton step ran")

        monkeypatch.setattr(attacks, "_tmcc_means", no_newton_step)
        got = _error_text(cloned_bob_matrix, IntensityParam(lam), CloneStrategy.TMCC_CLONE)
        assert got == want == "mean 50.0 not reachable below lambda ceiling 50.0"

    # tracemalloc peaks in KiB: the table as wide as its largest cutoff reads
    # 540, 319 and 193; one 601 columns wide (the whole grid) 1 432, 637 and 909
    @pytest.mark.parametrize(
        "lam, strategy, ceiling_kib",
        [
            (50.0, CloneStrategy.COHERENT, 768),
            (16.0, CloneStrategy.TMCC_CLONE, 448),
            (50.0, CloneStrategy.SINGLE_PHOTON_BANK, 320),
        ],
    )
    def test_matrix_peak_memory(self, lam, strategy, ceiling_kib):
        cloned_bob_matrix(IntensityParam(lam), strategy)  # warm
        tracemalloc.start()
        try:
            cloned_bob_matrix(IntensityParam(lam), strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling_kib * 1024
