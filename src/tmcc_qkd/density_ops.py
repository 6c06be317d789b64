"""The two distance metrics between photon-number states (figure 5).

Every state compared in this toolkit is diagonal in the photon-number
basis (Alice's measurement kills off-diagonal terms), so a density matrix
is just a photon-number distribution, and the Hilbert-Schmidt and weak
norms reduce to vector norms of the probability difference. One kernel,
`distances`, computes both for a stack of rows: figure 5's split laws and
`detection`'s count histograms. It is a padding front end, `differences`,
and a reduction over the difference matrix, `difference_norms`, so that
`detection` can form the differences in its own buffer.
"""

from __future__ import annotations

import numpy as np

from .photon_stats import PhotonDistribution


def differences(rows: np.ndarray, expected: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The difference P - Q of each row P of the 2-d float `rows` and the
    probabilities Q of `expected`, over the common range with the shorter one
    zero-padded.  With `overwrite`, rows at least as wide as Q are turned
    into the differences in place."""
    if overwrite and rows.shape[1] >= expected.size:
        d = rows
    else:
        d = np.zeros((len(rows), max(rows.shape[1], expected.size)))
        d[:, : rows.shape[1]] = rows
    d[:, : expected.size] -= expected
    return d


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
    """HS^2 and weak distance (see `difference_norms`) of each row of the
    2-d `rows` to the probabilities of `expected` (see `differences`)."""
    return difference_norms(differences(rows, expected))


def hs_distance_sq(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Squared Hilbert-Schmidt distance of two laws (see `distances`)."""
    return float(distances(a.probs[None], b.probs)[0][0])


def weak_distance(a: PhotonDistribution, b: PhotonDistribution) -> float:
    """Weak-norm distance of two laws (see `distances`)."""
    return float(distances(a.probs[None], b.probs)[1][0])
