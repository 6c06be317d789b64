"""The two distance metrics used for eavesdrop detection.

Every state compared in this toolkit is diagonal in the photon-number
basis (Alice's measurement kills off-diagonal terms), so a density matrix
is just a photon-number distribution (a `PhotonDistribution`), and the
Hilbert-Schmidt and weak norms reduce to vector norms of the probability
difference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .photon_stats import PhotonDistribution


class DistanceReport(NamedTuple):
    hs_distance_sq: float
    weak_distance: float
    tail_error_bound: float


def _padded(a: PhotonDistribution, b: PhotonDistribution):
    pa, pb = a.probs, b.probs
    n = max(pa.size, pb.size)
    if pa.size < n:
        pa = np.pad(pa, (0, n - pa.size))
    if pb.size < n:
        pb = np.pad(pb, (0, n - pb.size))
    return pa, pb


def hs_distance_sq(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Squared Hilbert-Schmidt distance: sum_n (P_n - Q_n)^2 over the
    zero-padded common range."""
    pa, pb = _padded(a, b)
    d = pa - pb
    return float(np.dot(d, d))


def weak_distance(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Weak-norm distance: max_n |P_n - Q_n| over the padded common range."""
    pa, pb = _padded(a, b)
    return float(np.max(np.abs(pa - pb)))


def tail_error_bound(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Upper bound on the truncation error of either distance.

    Each operand's untracked tail can contribute at most tail_mass to any
    single entry, so at most tail_mass**2 to the Hilbert-Schmidt sum and
    tail_mass to the weak norm; the combined worst case is reported.
    """
    return a.tail_mass**2 + b.tail_mass**2 + a.tail_mass + b.tail_mass


def distance_report(a: PhotonDistribution, b: PhotonDistribution) -> DistanceReport:
    """Both distances plus the truncation-tail error bound."""
    return DistanceReport(hs_distance_sq(a, b), weak_distance(a, b), tail_error_bound(a, b))
