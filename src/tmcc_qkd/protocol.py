"""Bit extraction, XOR half-code reconciliation and the analytic channel
error model.

Each pulse yields one bit: 0 if the count is at or below the integer part
of the expected mean, 1 above it.  Both parties split their bit string in
half and compare the XOR of the halves over a public channel; equal XOR
codes mean (up to the documented coincident-double-flip blind spot) equal
keys.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .photon_stats import IntensityParam, tmcc_distribution, tmcc_moments
from .source import PulseBatch

logger = logging.getLogger(__name__)


class ExchangeVerdict(enum.Enum):
    """Outcome of a reconciliation; only the wire exchange can ABORT."""

    MATCH = "match"
    MISMATCH = "mismatch"
    ABORT = "abort"


class MismatchReason(enum.Enum):
    LENGTH = "length"
    XOR_CODE = "xor-code"


class ReconcileResult(NamedTuple):
    verdict: ExchangeVerdict
    detail: str = ""
    reason: Optional[MismatchReason] = None


@dataclass(frozen=True, eq=False)
class KeyMaterial:
    """A generated key with its half-code decomposition.

    bits is a read-only uint8 array of 0/1 of even length (an odd trailing
    bit is dropped by from_bits).
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        # bool holds only bits, uint8 takes one reduction; any other dtype (-1, 256, 0.5, NaN) each element
        if bits.dtype == np.uint8:
            bad = bits.max(initial=0) > 1
        else:
            bad = bits.dtype != bool and ((bits != 0) & (bits != 1)).any()
        if bits.ndim != 1 or bad:
            raise ValueError("key bits must be 0 or 1")
        if bits.size % 2 != 0:
            raise ValueError("key length must be even; build via from_bits")
        bits = bits.astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bits(cls, bits) -> "KeyMaterial":
        bits = np.asarray(bits)
        if bits.size % 2 != 0:
            logger.info("dropping odd trailing key bit (length %d)", bits.size)
            bits = bits[:-1]
        return cls(bits)

    @property
    def half_a(self) -> np.ndarray:
        return self.bits[: self.bits.size // 2]

    @property
    def half_b(self) -> np.ndarray:
        return self.bits[self.bits.size // 2 :]

    @property
    def xor_code(self) -> np.ndarray:
        return self.half_a ^ self.half_b

    def to_bitstring(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")


@dataclass(frozen=True)
class ErrorModel:
    """Analytic error model: intensity, noise factor and the bit threshold
    (integer part of the expected mean)."""

    lam: IntensityParam
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 0.5:
            raise ValueError("epsilon must be in [0, 0.5]")

    @property
    def threshold(self) -> int:
        return int(math.floor(tmcc_moments(self.lam).mean))


class ErrorReport(NamedTuple):
    p0: float
    error_factor: float
    p_err: float


def extract_keys(batch: PulseBatch, threshold: int) -> tuple[KeyMaterial, KeyMaterial]:
    """Alice's and Bob's keys from a shared pulse batch."""
    if len(batch) < 2:
        raise ValueError("need at least 2 pulses")
    return KeyMaterial.from_bits(batch.n_a > threshold), KeyMaterial.from_bits(batch.n_b > threshold)


def reconcile(local: KeyMaterial, remote_xor_code) -> ReconcileResult:
    """Compare the local XOR half-code against the remote one.

    Equivalent to decoding the remote half-code with one local half and
    comparing with the other (XOR is an involution).  Coincident flips at
    the same position of both halves cancel and go undetected; that is a
    protocol property, not an implementation defect.
    """
    remote = np.asarray(remote_xor_code)
    local_code = local.xor_code
    if remote.size != local_code.size:
        return ReconcileResult(
            ExchangeVerdict.MISMATCH,
            f"length mismatch: local {local_code.size}, remote {remote.size}",
            MismatchReason.LENGTH,
        )
    if np.array_equal(local_code, remote):
        return ReconcileResult(ExchangeVerdict.MATCH)
    return ReconcileResult(ExchangeVerdict.MISMATCH, "xor codes differ", MismatchReason.XOR_CODE)


def error_probability(model: ErrorModel) -> ErrorReport:
    """Paper-style channel error quantities.

    p0: probability of registering a "0" bit; error_factor: probability,
    within the "0" outcomes, of sitting exactly at the threshold (one noise
    photon away from flipping); p_err = epsilon * error_factor.
    """
    t = model.threshold
    probs = tmcc_distribution(model.lam).probs
    p0 = float(probs[: t + 1].sum())
    error_factor = float(probs[t]) / p0
    return ErrorReport(p0, error_factor, model.epsilon * error_factor)


def expected_disagreement_rate(model: ErrorModel) -> float:
    """Exact per-pulse probability that Alice's and Bob's bits differ.

    Bits differ only when the shared count sits exactly at the threshold and
    exactly one mode gains a noise photon: 2 eps (1-eps) P_threshold.  This
    is the exact consequence of the per-mode single-photon noise model; the
    product eps * error_factor is its conditional-on-"0" approximation.
    """
    eps = model.epsilon
    return 2.0 * eps * (1.0 - eps) * tmcc_distribution(model.lam).prob(model.threshold)
