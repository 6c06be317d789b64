"""Reference implementations that the test suite checks the package against."""

import numpy as np
from scipy.stats import binom

from tmcc_qkd.attacks import SplitRatio
from tmcc_qkd.photon_stats import TAIL_EPS, IntensityParam, PhotonDistribution, tmcc_distribution


def split_marginal_binomial(lam: IntensityParam, r: SplitRatio, tail_eps: float = TAIL_EPS) -> PhotonDistribution:
    """Brute-force oracle for Bob's split marginal.

    Mixes Binomial(n, p^2) over the TMCC law for n directly; slower than the
    closed form but an independent consequence of the amplitude split.
    """
    base = tmcc_distribution(lam, tail_eps)
    size = base.probs.size
    p_sq = r.p**2
    probs = np.zeros(size)
    ks = np.arange(size)
    for n in range(size):
        probs += base.probs[n] * binom.pmf(ks, n, p_sq)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return PhotonDistribution(probs, tail_mass=tail)
