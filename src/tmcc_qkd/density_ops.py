"""The two distance metrics between photon-number states (figure 5).

Every state compared in this toolkit is diagonal in the photon-number
basis (Alice's measurement kills off-diagonal terms), so a density matrix
is just a photon-number distribution, and the Hilbert-Schmidt and weak
norms reduce to vector norms of the probability difference. One kernel,
`distances`, computes both for a stack of rows: figure 5's split laws and
`detection`'s count histograms. It zero-pads the shorter of the rows and
the expected law and hands the difference matrix to `difference_norms`,
which `detection` also calls on the differences it forms in its own buffer.
"""

from __future__ import annotations

import numpy as np

from .photon_stats import PhotonDistribution


def difference_norms(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Hilbert-Schmidt distance sum_n d_n^2 and weak distance
    max_n |d_n| of each row of the difference matrix `d`, which is left
    holding |d|.

    Each HS^2 is one 1xK by Kx1 product, equal to np.dot(d, d) to the bit.
    numpy reduces each short row on its own, so a stack of more rows than
    the square of its columns (a λ 2 calibration block is 5041 × 13) takes
    its maximum one strided column at a time, which measured faster there
    and slower on wider stacks (figure 5's 42 rows of 8 to 90 columns).
    """
    hs = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    np.abs(d, out=d)
    if d.shape[0] <= d.shape[1] ** 2:
        return hs, d.max(axis=1)
    weak = d[:, 0].copy()
    for column in d.T[1:]:
        np.maximum(weak, column, out=weak)
    return hs, weak


def distances(rows: np.ndarray, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HS^2 and weak distance (see `difference_norms`) of each row P of the
    2-d `rows` to the probabilities Q of `expected`: the norms of P - Q over
    the common range, the shorter one zero-padded."""
    d = np.zeros((len(rows), max(rows.shape[1], expected.size)))
    d[:, : rows.shape[1]] = rows
    d[:, : expected.size] -= expected
    return difference_norms(d)


def hs_distance_sq(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Squared Hilbert-Schmidt distance of two laws (see `distances`)."""
    return float(distances(a.probs[None], b.probs)[0][0])


def weak_distance(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Weak-norm distance of two laws (see `distances`)."""
    return float(distances(a.probs[None], b.probs)[1][0])
