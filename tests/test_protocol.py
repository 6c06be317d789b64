import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcc_qkd.photon_stats import IntensityParam, tmcc_moments
from tmcc_qkd.protocol import (
    ErrorModel,
    ExchangeVerdict,
    KeyMaterial,
    MismatchReason,
    error_probability,
    expected_disagreement_rate,
    extract_keys,
    reconcile,
)
from tmcc_qkd.source import PulseBatch, PulseSampler, SourceConfig

LAM2 = IntensityParam(2.0)


def shared_counts(counts):
    """A batch in which Alice and Bob both see `counts`."""
    n = np.asarray(counts)
    flags = np.zeros(n.shape, dtype=bool)
    return PulseBatch(n, n, np.zeros_like(n), flags, flags)


def alice_bits(counts, threshold):
    return extract_keys(shared_counts(counts), threshold)[0].bits.tolist()


class TestBitRule:
    def test_boundary_cases(self):
        assert alice_bits([0, 1], 0) == [0, 1]
        assert alice_bits([3, 4], 3) == [0, 1]

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=50), st.integers(0, 100))
    def test_totality(self, counts, threshold):
        bits = alice_bits(counts, threshold)
        assert bits == [int(n > threshold) for n in counts[: len(bits)]]
        assert len(bits) == len(counts) - len(counts) % 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            shared_counts([-1, 0])


class TestKeyMaterial:
    def test_odd_trailing_bit_dropped(self):
        key = KeyMaterial.from_bits([1, 0, 1])
        assert key.bits.tolist() == [1, 0]

    def test_xor_code(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1, 0, 1])
        assert key.half_a.tolist() == [1, 0, 1]
        assert key.half_b.tolist() == [1, 0, 1]
        assert key.xor_code.tolist() == [0, 0, 0]

    def test_bitstring(self):
        key = KeyMaterial.from_bits([1, 0, 1, 0])
        assert key.to_bitstring() == "1010"

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            KeyMaterial.from_bits([0, 2])

    @pytest.mark.parametrize(
        "bits, accepted",
        [
            (np.array([True, False]), True),
            (np.array([], bool), True),
            (np.zeros((2, 2), bool), False),
            (np.array([0, 1], np.uint8), True),
            (np.array([], np.uint8), True),
            (np.array([0, 2], np.uint8), False),
            (np.array([0, 255], np.uint8), False),
            (np.zeros((2, 2), np.uint8), False),
            (np.array([0, 1], np.int64), True),
            (np.array([0, -1], np.int64), False),
            (np.array([0, 2], np.int64), False),
            (np.array([0, 256], np.int64), False),
            (np.array([0.0, 1.0]), True),
            (np.array([0.0, 0.5]), False),
            (np.array([0.0, np.nan]), False),
            (np.array([0.0, np.inf]), False),
        ],
    )
    def test_accepts_exactly_bits_whatever_the_dtype(self, bits, accepted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if accepted:
                assert KeyMaterial(bits).bits.tolist() == bits.astype(np.uint8).tolist()
            else:
                with pytest.raises(ValueError, match="key bits must be 0 or 1"):
                    KeyMaterial(bits)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, float])
    @pytest.mark.parametrize("size", [4, 5])
    def test_bits_are_a_read_only_copy(self, dtype, size):
        caller = np.array([1, 0, 1, 1, 0][:size], dtype)
        key = KeyMaterial.from_bits(caller)
        assert key.bits.dtype == np.uint8 and not key.bits.flags.writeable
        assert caller.flags.writeable
        caller[:] = 0
        assert key.bits.tolist() == [1, 0, 1, 1]

    def test_bits_are_read_only_uint8(self):
        key = KeyMaterial.from_bits([True, False])
        assert key.bits.dtype == np.uint8
        with pytest.raises(ValueError):
            key.bits[0] = 0


class TestExtractKeys:
    def test_noiseless_keys_identical(self):
        batch = PulseSampler(SourceConfig(LAM2, seed=8)).sample_batch(10_000)
        threshold = int(math.floor(tmcc_moments(LAM2).mean))
        alice, bob = extract_keys(batch, threshold)
        assert np.array_equal(alice.bits, bob.bits)

    def test_all_below_threshold_gives_zero_key(self):
        alice, _ = extract_keys(shared_counts([1, 0, 2, 1]), threshold=5)
        assert alice.bits.tolist() == [0, 0, 0, 0]

    def test_needs_two_pulses(self):
        with pytest.raises(ValueError):
            extract_keys(shared_counts([1]), 0)


class TestReconcile:
    def test_identical_keys_match(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        assert reconcile(key, key.xor_code).verdict is ExchangeVerdict.MATCH

    def test_single_flip_detected(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        flipped = KeyMaterial.from_bits([0, 0, 1, 1])
        result = reconcile(flipped, key.xor_code)
        assert result.verdict is ExchangeVerdict.MISMATCH
        assert result.reason is MismatchReason.XOR_CODE

    def test_coincident_double_flip_blind_spot(self):
        # flipping the same position of both halves cancels in the XOR code
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        doubly_flipped = KeyMaterial.from_bits([0, 0, 0, 1])
        assert not np.array_equal(doubly_flipped.bits, key.bits)
        assert reconcile(doubly_flipped, key.xor_code).verdict is ExchangeVerdict.MATCH

    def test_length_mismatch_detail(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        result = reconcile(key, (0, 1, 0))
        assert result.verdict is ExchangeVerdict.MISMATCH
        assert result.reason is MismatchReason.LENGTH
        assert "length" in result.detail

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64))
    @settings(max_examples=200)
    def test_involution(self, bits):
        key = KeyMaterial.from_bits(bits)
        assert reconcile(key, key.xor_code).verdict is ExchangeVerdict.MATCH


class TestErrorModel:
    def test_threshold_is_floor_of_mean(self):
        assert ErrorModel(LAM2, 0.1).threshold == int(math.floor(tmcc_moments(LAM2).mean))

    def test_small_lambda_limit(self):
        model = ErrorModel(IntensityParam(0.05), 0.2)
        report = error_probability(model)
        assert model.threshold == 0
        assert report.error_factor == pytest.approx(1.0)
        assert report.p_err == pytest.approx(0.2)

    def test_zero_noise_zero_error(self):
        assert error_probability(ErrorModel(LAM2, 0.0)).p_err == 0.0

    def test_bounds(self):
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
            report = error_probability(ErrorModel(IntensityParam(lam), 0.3))
            assert 0.0 <= report.error_factor <= 1.0
            assert 0.0 <= report.p_err <= 0.3

    def test_self_correction_nonincreasing(self):
        factors = [
            error_probability(ErrorModel(IntensityParam(lam), 0.1)).error_factor
            for lam in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b <= a for a, b in zip(factors, factors[1:]))
        # strict once the threshold leaves zero
        assert factors[2] > factors[3] > factors[4]

    def test_intense_beam_self_corrects(self):
        ef = lambda lam: error_probability(ErrorModel(IntensityParam(lam), 0.1)).error_factor
        assert ef(4.0) < ef(1.0)


class TestMonteCarloErrorRate:
    def test_disagreement_matches_exact_model(self):
        # exact per-pulse rate under the per-mode single-photon noise model;
        # the paper-style eps*error_factor is its conditional approximation
        model = ErrorModel(LAM2, 0.05)
        batch = PulseSampler(SourceConfig(LAM2, noise_epsilon=0.05, seed=77)).sample_batch(100_000)
        alice, bob = extract_keys(batch, model.threshold)
        rate = float((alice.bits != bob.bits).mean())
        expected = expected_disagreement_rate(model)
        se = math.sqrt(expected * (1.0 - expected) / 100_000)
        assert abs(rate - expected) < 3 * se
