"""The two distance metrics between photon-number states (figure 5).

Every state compared in this toolkit is diagonal in the photon-number
basis (Alice's measurement kills off-diagonal terms), so a density matrix
is just a photon-number distribution (a `PhotonDistribution`), and the
Hilbert-Schmidt and weak norms reduce to vector norms of the probability
difference. `detection` computes the same two norms on count histograms.
"""

from __future__ import annotations

import numpy as np

from .photon_stats import PhotonDistribution


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

