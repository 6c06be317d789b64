"""The two distance metrics between photon-number states (figure 5).

Every state compared in this toolkit is diagonal in the photon-number
basis (Alice's measurement kills off-diagonal terms), so a density matrix
is just a photon-number distribution, and the Hilbert-Schmidt and weak
norms reduce to vector norms of the probability difference. One kernel,
`distances`, computes both for a stack of rows: figure 5's split laws and
`detection`'s count histograms.
"""

from __future__ import annotations

import numpy as np

from .photon_stats import PhotonDistribution


def distances(rows: np.ndarray, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Hilbert-Schmidt distance sum_n (P_n - Q_n)^2 and weak distance
    max_n |P_n - Q_n| of each row P of the 2-d `rows` to the probabilities Q
    of `expected`, over the common range with the shorter one zero-padded.

    Each HS^2 is one 1xK by Kx1 product, equal to np.dot(d, d) to the bit.
    """
    d = np.zeros((len(rows), max(rows.shape[1], expected.size)))
    d[:, : rows.shape[1]] = rows
    d[:, : expected.size] -= expected
    return (d[:, None, :] @ d[:, :, None])[:, 0, 0], np.abs(d).max(axis=1)


def hs_distance_sq(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Squared Hilbert-Schmidt distance of two laws (see `distances`)."""
    return float(distances(a.probs[None], b.probs)[0][0])


def weak_distance(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Weak-norm distance of two laws (see `distances`)."""
    return float(distances(a.probs[None], b.probs)[1][0])
