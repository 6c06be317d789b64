"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import math
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from tmcc_qkd import channel, cli, detection, protocol
from tmcc_qkd.attacks import (
    ClonePulseSampler,
    CloneStrategy,
    SplitRatio,
    cloned_bob_matrix,
    lambda_for_mean,
    split_marginal_bob,
    split_marginal_eve,
)
from tmcc_qkd.density_ops import hs_distance_sq, weak_distance
from tmcc_qkd.photon_stats import IntensityParam, tmcc_distribution, tmcc_moments
from tmcc_qkd.protocol import ErrorModel, ExchangeVerdict, KeyMaterial, error_probability, reconcile
from tmcc_qkd.source import PulseSampler, SourceConfig, correlation_report

from oracles import split_marginal_binomial

LAM2 = IntensityParam(2.0)


def _ok(n, text):
    print(f"\nACCEPTANCE PASS: criterion {n} - {text}")


def total_variation(counts, dist):
    hist = np.bincount(counts, minlength=dist.probs.size) / len(counts)
    common = min(hist.size, dist.probs.size)
    return 0.5 * (
        np.abs(hist[:common] - dist.probs[:common]).sum()
        + hist[common:].sum()
        + dist.probs[common:].sum()
    )


def test_criterion_1_second_moment_identity():
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        d = tmcc_distribution(IntensityParam(lam))
        series = float(np.dot(np.arange(d.probs.size) ** 2, d.probs))
        assert series == pytest.approx(lam * lam, rel=1e-10)
        assert tmcc_moments(IntensityParam(lam)).second_moment == pytest.approx(lam * lam, rel=1e-10)
    _ok(1, "second moment equals lambda^2 within 1e-10 relative")


def test_criterion_2_normalization():
    for lam in np.linspace(0.0, 10.0, 50):
        d = tmcc_distribution(IntensityParam(float(lam)))
        assert abs(float(d.probs.sum()) + d.tail_mass - 1.0) <= 1e-12
    _ok(2, "sum of P_n plus tail is 1 within 1e-12 over 50 intensities")


def test_criterion_3_sub_poisson():
    for lam in np.linspace(0.1, 10.0, 100):
        assert tmcc_moments(IntensityParam(float(lam))).mandel_q < 0.0
    assert abs(tmcc_moments(IntensityParam(0.05)).mandel_q) < 0.05
    _ok(3, "Mandel Q negative on (0, 10] and vanishes toward zero intensity")


def test_criterion_4_dispersion_ordering():
    for mean in np.linspace(8.0 / 50.0, 8.0, 50):
        m = tmcc_moments(lambda_for_mean(float(mean)))
        assert m.variance < m.mean  # Poisson variance at equal mean
    _ok(4, "TMCC variance below Poisson variance at equal mean on (0, 8]")


def test_criterion_5_perfect_correlation():
    batch = PulseSampler(SourceConfig(LAM2, seed=20240)).sample_batch(100_000)
    assert np.array_equal(batch.n_a, batch.n_b)
    assert correlation_report(batch).rho_ab == 1.0
    _ok(5, "100k noiseless pulses perfectly correlated, rho exactly 1")


def test_criterion_6_sampling_fidelity():
    n = PulseSampler(SourceConfig(LAM2, seed=20241)).sample_batch(1_000_000).n_a
    assert total_variation(n, tmcc_distribution(LAM2)) < 0.01
    _ok(6, "1M-draw empirical distribution within TV 0.01 of analytic")


def test_criterion_7_beam_split_oracle():
    for lam in (0.5, 1.0, 2.0, 4.0):
        lam_p = IntensityParam(lam)
        mean = tmcc_moments(lam_p).mean
        for p_sq in (0.1, 0.3, 0.5, 0.7, 0.9):
            r = SplitRatio.from_p_squared(p_sq)
            analytic = split_marginal_bob(lam_p, r)
            oracle = split_marginal_binomial(lam_p, r)
            size = min(analytic.probs.size, oracle.probs.size)
            np.testing.assert_allclose(analytic.probs[:size], oracle.probs[:size], atol=1e-10)
            eve = split_marginal_eve(lam_p, r)
            assert analytic.mean() + eve.mean() == pytest.approx(mean, abs=1e-10)
    _ok(7, "closed-form split marginals match the binomial-mixture oracle")


def test_criterion_8_distance_monotonicity():
    for lam in (1.0, 2.0, 4.0):
        lam_p = IntensityParam(lam)
        original = tmcc_distribution(lam_p)
        distances = []
        for p_sq in np.linspace(1.0, 0.0, 20):
            bob = split_marginal_bob(lam_p, SplitRatio.from_p_squared(float(p_sq)))
            distances.append(hs_distance_sq(bob, original))
        assert distances[0] <= 1e-14  # p = 1: no split, zero distance
        assert all(b >= a - 1e-15 for a, b in zip(distances, distances[1:]))
    _ok(8, "Hilbert-Schmidt distance nondecreasing as the split deepens")


def test_criterion_9_cloning_detectability():
    cloned = cloned_bob_matrix(LAM2, CloneStrategy.TMCC_CLONE)
    original = tmcc_distribution(LAM2)
    assert hs_distance_sq(cloned, original) > 1e-4
    assert weak_distance(cloned, original) > 1e-4
    assert abs(cloned.mandel_q() - tmcc_moments(LAM2).mandel_q) > 1e-3

    thresholds = detection.calibrate_thresholds(LAM2, pulses=10_000, seed=424242)
    flagged = 0
    for trial in range(100):
        sampler = ClonePulseSampler(SourceConfig(LAM2, seed=50_000 + trial), CloneStrategy.TMCC_CLONE)
        counts = sampler.sample_batch(10_000).n_b
        report = detection.detect(counts, LAM2, thresholds)
        flagged += report.verdict is detection.DetectionVerdict.SUSPECT_CLONE
    assert flagged >= 99
    _ok(9, f"cloning detected in {flagged}/100 trials at 1%-calibrated thresholds")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "error factor is exactly 1.0 at both lambda=0.5 and lambda=1.0 (the bit "
        "threshold is 0 in both cases, so the factor is P_0/P_0); strict decrease "
        "over the full grid is unattainable. It is nonincreasing on the grid and "
        "strictly decreasing once the threshold leaves zero."
    ),
)
def test_criterion_10a_self_correction_strict():
    factors = [
        error_probability(ErrorModel(IntensityParam(lam), 0.05)).error_factor
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b < a for a, b in zip(factors, factors[1:]))


def test_criterion_10b_error_rate_monte_carlo():
    factors = [
        error_probability(ErrorModel(IntensityParam(lam), 0.05)).error_factor
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b <= a for a, b in zip(factors, factors[1:]))

    model = ErrorModel(LAM2, 0.05)
    batch = PulseSampler(SourceConfig(LAM2, noise_epsilon=0.05, seed=20242)).sample_batch(100_000)
    rate = float(((batch.n_a > model.threshold) != (batch.n_b > model.threshold)).mean())
    expected = protocol.expected_disagreement_rate(model)
    se = math.sqrt(expected * (1 - expected) / 100_000)
    assert abs(rate - expected) < 3 * se
    _ok("10b", "simulated disagreement rate matches the analytic noise model")


def test_criterion_11_reconciliation():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        length = int(rng.integers(1, 33)) * 2
        a = KeyMaterial.from_bits(rng.integers(0, 2, length).tolist())
        b = KeyMaterial.from_bits(rng.integers(0, 2, length).tolist())
        verdict = reconcile(a, b.xor_code).verdict
        assert (verdict is ExchangeVerdict.MATCH) == np.array_equal(a.xor_code, b.xor_code)

    # constructed blind spot: same-position flip in both halves
    key = KeyMaterial.from_bits([1, 0, 1, 1, 0, 1])
    blind = KeyMaterial.from_bits([0, 0, 1, 0, 0, 1])
    assert not np.array_equal(blind.bits, key.bits)
    assert reconcile(blind, key.xor_code).verdict is ExchangeVerdict.MATCH

    # two-process wire exchange over loopback (CLI subprocesses)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "key.txt").write_text("10110010\n")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = subprocess.Popen(
            [sys.executable, "-m", "tmcc_qkd.cli", "reconcile-serve",
             "--key", str(tmp / "key.txt"), "--listen", f"127.0.0.1:{port}",
             "--timeout-secs", "10"]
        )
        client_code = None
        for _ in range(50):
            client = subprocess.run(
                [sys.executable, "-m", "tmcc_qkd.cli", "reconcile-connect",
                 "--key", str(tmp / "key.txt"), "--peer", f"127.0.0.1:{port}",
                 "--timeout-secs", "10"]
            )
            client_code = client.returncode
            if client_code == 0:
                break
        assert client_code == 0
        assert server.wait(timeout=15) == 0

    # transcript shows only the XOR code on the wire
    key = KeyMaterial.from_bits([1, 1, 0, 1, 1, 0, 0, 1])
    transcript = channel.Transcript()
    left, right = socket.socketpair()
    thread = threading.Thread(
        target=channel.run_reconciliation_exchange,
        args=(channel.Role.RESPONDER, key, right),
        kwargs={"timeout": 5.0},
    )
    thread.start()
    verdict = channel.run_reconciliation_exchange(
        channel.Role.INITIATOR, key, left, timeout=5.0, transcript=transcript
    )
    thread.join()
    left.close()
    right.close()
    assert verdict is channel.ExchangeVerdict.MATCH
    wire = b"".join(raw for _, raw in transcript.entries)
    assert channel.pack_bits(key.xor_code) in wire
    assert channel.pack_bits(key.half_a) not in wire
    assert channel.pack_bits(key.half_b) not in wire
    _ok(11, "XOR reconciliation correct, blind spot shown, wire leaks only the code")


def test_criterion_12_determinism(tmp_path):
    args = ["simulate", "--lambda", "2", "--epsilon", "0.05", "--pulses", "5000", "--seed", "314159"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("pulses.csv", "alice.key", "bob.key", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    cli.main(["stats", "--figure", "2", "--out", str(out1)])
    cli.main(["stats", "--figure", "2", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    _ok(12, "fixed seed reproduces pulse logs and CSV outputs byte for byte")
