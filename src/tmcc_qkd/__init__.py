"""Simulator and analysis toolkit for QKD over two-mode coherently
correlated (TMCC) laser beams.

The names in `__all__` are loaded from their modules on first use (PEP 562),
so `import tmcc_qkd` alone imports neither a submodule nor numpy.
"""

import importlib

_HOMES = {
    "photon_stats": (
        "MAX_LAMBDA", "TAIL_EPS", "IntensityParam", "MomentSummary", "PhotonDistribution",
        "PhotonStatsError", "poisson_distribution", "tmcc_distribution", "tmcc_moments",
        "tmcc_weights",
    ),
    "density_ops": ("hs_distance_sq", "weak_distance"),
    "source": (
        "CorrelationReport", "PulseBatch", "PulseSampler", "SourceConfig", "correlation_report",
        "read_pulse_log", "write_pulse_log",
    ),
    "attacks": (
        "ClonePulseSampler", "CloneStrategy", "SplitPulseSampler", "SplitRatio",
        "cloned_bob_matrix", "lambda_for_mean", "split_marginal_bob", "split_marginal_eve",
    ),
    "protocol": (
        "ErrorModel", "ErrorReport", "KeyMaterial", "MismatchReason", "ReconcileResult",
        "error_probability", "expected_disagreement_rate", "extract_keys", "reconcile",
    ),
    "channel": (
        "ExchangeVerdict", "Frame", "FrameError", "MsgType", "Role", "Transcript", "decode_frame",
        "encode_frame", "run_reconciliation_exchange",
    ),
    "detection": (
        "DetectionReport", "DetectionThresholds", "DetectionVerdict", "calibrate_thresholds",
        "detect",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines `name` and keep the value here, so the
    next lookup does not come back to this function."""
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
