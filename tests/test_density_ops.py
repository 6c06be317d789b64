import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcc_qkd.attacks import SplitRatio, split_marginal_bob
from tmcc_qkd.density_ops import distances, hs_distance_sq, weak_distance
from tmcc_qkd.photon_stats import IntensityParam, PhotonDistribution, tmcc_distribution

import oracles

# |1 - 1/I_0(2)| from the 40-digit series oracle
WEAK_VACUUM_VS_LAMBDA1 = 0.5613237201629512606


def matrix(probs):
    return PhotonDistribution(np.asarray(probs, dtype=float))


def random_matrix(rnd, size):
    raw = np.array([rnd.random() for _ in range(size)])
    return matrix(raw / raw.sum())


TMCC2 = tmcc_distribution(IntensityParam(2.0))
VACUUM = matrix([1.0])


class TestHsDistance:
    def test_identical_zero(self):
        assert hs_distance_sq(TMCC2, TMCC2) == 0.0

    def test_same_lambda_two_constructions(self):
        other = tmcc_distribution(IntensityParam(2.0))
        assert hs_distance_sq(TMCC2, other) <= 1e-15

    def test_split_marginal_positive(self):
        split = split_marginal_bob(IntensityParam(2.0), SplitRatio.from_p_squared(0.5))
        assert hs_distance_sq(TMCC2, split) > 0.0


class TestWeakDistance:
    def test_identical_zero(self):
        assert weak_distance(TMCC2, TMCC2) == 0.0

    def test_vacuum_vs_lambda1(self):
        lam1 = tmcc_distribution(IntensityParam(1.0))
        assert weak_distance(VACUUM, lam1) == pytest.approx(WEAK_VACUUM_VS_LAMBDA1, rel=1e-12)

    def test_bounded_by_euclidean(self):
        rnd = np.random.default_rng(3)
        for _ in range(50):
            a = random_matrix(rnd, int(rnd.integers(1, 12)))
            b = random_matrix(rnd, int(rnd.integers(1, 12)))
            assert weak_distance(a, b) <= math.sqrt(hs_distance_sq(a, b)) + 1e-15


class TestMetricProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, seed):
        rnd = np.random.default_rng(seed)
        a = random_matrix(rnd, int(rnd.integers(1, 20)))
        b = random_matrix(rnd, int(rnd.integers(1, 20)))
        assert hs_distance_sq(a, b) == hs_distance_sq(b, a)
        assert weak_distance(a, b) == weak_distance(b, a)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_weak_triangle_inequality(self, seed):
        rnd = np.random.default_rng(seed)
        a, b, c = (random_matrix(rnd, int(rnd.integers(1, 20))) for _ in range(3))
        assert weak_distance(a, c) <= weak_distance(a, b) + weak_distance(b, c) + 1e-12

    def test_zero_padding_invariance(self):
        a = matrix([0.25, 0.5, 0.25])
        b = matrix([0.5, 0.5])
        a_padded = matrix([0.25, 0.5, 0.25, 0.0, 0.0])
        b_padded = matrix([0.5, 0.5, 0.0, 0.0, 0.0])
        assert hs_distance_sq(a, b) == hs_distance_sq(a_padded, b_padded)
        assert weak_distance(a, b) == weak_distance(a_padded, b_padded)

    def test_indiscernible_two_sided(self):
        # weak distance below 1e-14 iff the padded diagonals agree within 1e-7
        a = matrix([0.5, 0.5])
        near = matrix([0.5 + 1e-16, 0.5 - 1e-16])  # agrees within 1e-7 -> tiny distance
        far = matrix([0.5 + 1e-6, 0.5 - 1e-6])  # disagrees beyond 1e-7 -> visible distance
        assert weak_distance(a, near) < 1e-14
        assert weak_distance(a, far) >= 1e-14


class TestDistancesKernel:
    """The stacked kernel against the one-pair padded oracle, bit for bit."""

    # 400 rows take the weak distance one column at a time wherever the rows are under 20 wide
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 8, 400]), st.integers(1, 30), st.integers(1, 20),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_padded_oracle(self, seed, rows, short, extra, rows_longer):
        width, expected_width = (short + extra, short) if rows_longer else (short, short + extra)
        rnd = np.random.default_rng(seed)
        raw = rnd.random((rows, width))
        table = raw / raw.sum(axis=1, keepdims=True)
        expected = random_matrix(rnd, expected_width)
        hs, weak = distances(table, expected.probs)
        want = [(oracles.hs_distance_sq(matrix(row), expected), oracles.weak_distance(matrix(row), expected))
                for row in table]
        assert list(zip(hs.tolist(), weak.tolist())) == want

    def test_one_row_forms_equal_padded_oracle(self):
        lam1 = tmcc_distribution(IntensityParam(1.0))
        for a, b in ((VACUUM, lam1), (lam1, VACUUM), (TMCC2, lam1), (lam1, TMCC2)):
            assert hs_distance_sq(a, b) == oracles.hs_distance_sq(a, b)
            assert weak_distance(a, b) == oracles.weak_distance(a, b)
