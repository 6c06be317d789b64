"""Simulator and analysis toolkit for QKD over two-mode coherently
correlated (TMCC) laser beams."""

from .photon_stats import (
    MAX_LAMBDA, TAIL_EPS, IntensityParam, MomentSummary, PhotonDistribution,
    PhotonStatsError, poisson_distribution, tmcc_distribution, tmcc_moments, tmcc_weights,
)
from .density_ops import hs_distance_sq, weak_distance
from .source import (
    CorrelationReport, PulseBatch, PulseSampler, SourceConfig, correlation_report,
    read_pulse_log, write_pulse_log,
)
from .attacks import (
    ClonePulseSampler, CloneStrategy, SplitPulseSampler, SplitRatio, cloned_bob_matrix,
    lambda_for_mean, split_marginal_bob, split_marginal_eve,
)
from .protocol import (
    ErrorModel, ErrorReport, KeyMaterial, MismatchReason, ReconcileResult,
    error_probability, expected_disagreement_rate, extract_keys, reconcile,
)
from .channel import (
    ExchangeVerdict, Frame, FrameError, MsgType, Role, Transcript, decode_frame,
    encode_frame, run_reconciliation_exchange,
)
from .detection import (
    DetectionReport, DetectionThresholds, DetectionVerdict, calibrate_thresholds, detect,
)

__all__ = [
    "MAX_LAMBDA", "TAIL_EPS", "IntensityParam", "MomentSummary", "PhotonDistribution",
    "PhotonStatsError", "poisson_distribution", "tmcc_distribution", "tmcc_moments",
    "tmcc_weights",
    "hs_distance_sq", "weak_distance",
    "CorrelationReport", "PulseBatch", "PulseSampler", "SourceConfig", "correlation_report",
    "read_pulse_log", "write_pulse_log",
    "ClonePulseSampler", "CloneStrategy", "SplitPulseSampler", "SplitRatio",
    "cloned_bob_matrix", "lambda_for_mean", "split_marginal_bob", "split_marginal_eve",
    "ErrorModel", "ErrorReport", "KeyMaterial", "MismatchReason", "ReconcileResult",
    "error_probability", "expected_disagreement_rate", "extract_keys", "reconcile",
    "ExchangeVerdict", "Frame", "FrameError", "MsgType", "Role", "Transcript", "decode_frame",
    "encode_frame", "run_reconciliation_exchange",
    "DetectionReport", "DetectionThresholds", "DetectionVerdict", "calibrate_thresholds",
    "detect",
]
__version__ = "0.1.0"
