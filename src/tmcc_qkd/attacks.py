"""Eavesdropper models: beam splitting and state cloning.

Beam splitting diverts amplitude fraction q of Bob's mode to Eve; given a
total count n the photons partition binomially with per-photon probability
p^2 toward Bob, so Bob's marginal is that binomial mixed over the TMCC law.
The test suite checks it against the closed form
lambda^m p^(2m) I_m(2 q lambda) / (q^m m! I_0(2 lambda)) (tests/oracles.py).

State cloning re-emits toward Bob a fresh state whose mean photon number
matches what Eve measured; three re-emission strategies are modeled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .photon_stats import (
    MAX_LAMBDA,
    IntensityParam,
    PhotonDistribution,
    PhotonStatsError,
    _LOG_FACTORIAL,
    _N,
    poisson_distribution,
    tmcc_distribution,
    tmcc_weights,
)
from .source import PulseSampler, SourceConfig, derive_rng, folded_cdf

# the split mixture runs over every n with P_n at or above this
_MIX_FLOOR = 1e-22


@dataclass(frozen=True)
class SplitRatio:
    """Amplitude split (p toward Bob, q toward Eve), p^2 + q^2 = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("amplitudes must lie in [0, 1]")
        if abs(self.p**2 + self.q**2 - 1.0) > 1e-12:
            raise ValueError(f"p^2 + q^2 must equal 1, got {self.p**2 + self.q**2}")

    @classmethod
    def from_p_squared(cls, p_sq: float) -> "SplitRatio":
        if not 0.0 <= p_sq <= 1.0:
            raise ValueError("p^2 must lie in [0, 1]")
        return cls(math.sqrt(p_sq), math.sqrt(1.0 - p_sq))

    @classmethod
    def from_angle(cls, psi: float) -> "SplitRatio":
        """p = cos(psi), q = sin(psi) for psi in [0, pi/2]."""
        if not 0.0 <= psi <= math.pi / 2:
            raise ValueError("psi must lie in [0, pi/2]")
        return cls(math.cos(psi), math.sin(psi))


class CloneStrategy(enum.Enum):
    SINGLE_PHOTON_BANK = "single-photon-bank"
    COHERENT = "coherent"
    TMCC_CLONE = "tmcc-clone"


def split_marginal_bob(lam: IntensityParam, r: SplitRatio) -> PhotonDistribution:
    """Bob's photon-number marginal after an amplitude split (p toward Bob).

    The TMCC law mixed over Binomial(n, p^2), P @ B, with B built in the log
    domain; n runs until P_n is negligible, not just to the source cutoff,
    and Bob's k to the source cutoff.  Limits p=1 (no split) and p=0 (vacuum
    at Bob) are handled exactly.
    """
    m = lam.magnitude
    if r.q == 0.0 or m == 0.0:
        return tmcc_distribution(lam)
    if r.p == 0.0:
        return PhotonDistribution(np.array([1.0]))
    k = np.arange(tmcc_distribution(lam).probs.size)
    w = tmcc_weights(m)
    n = np.arange(np.flatnonzero(w >= _MIX_FLOOR)[-1] + 1)[:, None]
    j = n - k  # photons toward Eve
    log_b = np.where(
        j >= 0,
        _LOG_FACTORIAL[n] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[abs(j)]
        + k * math.log(r.p**2) + j * math.log(r.q**2),
        -np.inf,
    )
    probs = w[: n.size] @ np.exp(log_b)
    return PhotonDistribution(probs, tail_mass=max(0.0, 1.0 - float(probs.sum())))


def split_marginal_eve(lam: IntensityParam, r: SplitRatio) -> PhotonDistribution:
    """Eve's marginal: Bob's with the roles of p and q exchanged."""
    return split_marginal_bob(lam, SplitRatio(r.q, r.p))


class SplitPulseSampler(PulseSampler):
    """Samples pulses through Eve's beam splitter: n_a = n, n_b + n_e = n."""

    def __init__(self, cfg: SourceConfig, r: SplitRatio):
        super().__init__(cfg)
        self.ratio = r
        self._split_rng = derive_rng(cfg.seed, 2)

    def _attack(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = self._split_rng.binomial(n, self.ratio.p**2)
        return k, n - k


def _mean_of_lambda(x: float) -> float:
    return float(_N @ tmcc_weights(x))


def lambda_for_mean(target: float) -> IntensityParam:
    """Invert the mean photon number: the unique lambda with <N>(lambda) = target.

    Safeguarded Newton iteration on [0, MAX_LAMBDA] with the closed-form
    slope d<N>/dlambda = 2 Var(N) / lambda = 2 (lambda^2 - <N>^2) / lambda
    (since <N^2> = lambda^2); a step that leaves the bracket on the root is
    replaced by bisection.
    """
    if not math.isfinite(target) or target < 0.0:
        raise PhotonStatsError("target mean must be finite and >= 0")
    if target == 0.0:
        return IntensityParam(0.0)
    if target > _mean_of_lambda(MAX_LAMBDA):
        raise PhotonStatsError(f"mean {target} not reachable below lambda ceiling {MAX_LAMBDA}")
    # <N> ~ lambda^2 for small lambda and lambda - 1/4 for large lambda
    x = math.sqrt(target) if target < 1.0 else target + 0.25
    lo, hi = 0.0, MAX_LAMBDA
    for _ in range(100):
        mean = _mean_of_lambda(x)
        if mean > target:
            hi = x
        else:
            lo = x
        new = x - (mean - target) * x / (2.0 * (x * x - mean * mean))
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        # after a Newton step this small only the rounding of <N> is left
        done = abs(new - x) <= 1e-10 * x
        x = new
        if done:
            break
    return IntensityParam(x)


@lru_cache(maxsize=4096)
def lambda_of_n(n: int) -> IntensityParam:
    """Eve's optimal TMCC clone setting for a measured photon number n."""
    if n < 0:
        raise PhotonStatsError("photon number must be >= 0")
    return lambda_for_mean(float(n))


def _clone_inner_law(n: int, strategy: CloneStrategy) -> PhotonDistribution:
    """Eve's re-emitted state for a measured photon number n."""
    if strategy is CloneStrategy.SINGLE_PHOTON_BANK:
        probs = np.zeros(n + 1)
        probs[n] = 1.0
        return PhotonDistribution(probs)
    if strategy is CloneStrategy.COHERENT:
        return poisson_distribution(float(n))
    return tmcc_distribution(lambda_of_n(n))


def cloned_bob_matrix(lam: IntensityParam, strategy: CloneStrategy) -> PhotonDistribution:
    """Density matrix (its diagonal) Bob measures when Eve intercepts and re-emits clones.

    Mixture over Eve's measured n (TMCC-weighted) of the strategy's
    re-emission law with mean n; truncation remainders are folded back by
    renormalization.
    """
    outer = tmcc_distribution(lam)
    inners = [_clone_inner_law(n, strategy) for n in range(outer.probs.size)]
    size = max(d.probs.size for d in inners)
    probs = np.zeros(size)
    for w, inner in zip(outer.probs, inners):
        probs[: inner.probs.size] += w * inner.probs
    probs /= probs.sum()
    return PhotonDistribution(probs)


class ClonePulseSampler(PulseSampler):
    """Samples pulses under a cloning attack: Alice keeps the true n, Bob
    receives a draw from Eve's re-emitted state, Eve knows n exactly."""

    def __init__(self, cfg: SourceConfig, strategy: CloneStrategy):
        super().__init__(cfg)
        self.strategy = strategy
        self._clone_rng = derive_rng(cfg.seed, 3)

    def _attack(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one uniform per pulse from sub-stream 3, handed out in stable ascending
        # order of n: this order fixes the outputs for a seed.  n never exceeds
        # the grid's 600, and a uint16 key makes the stable sort a radix sort
        u = self._clone_rng.random(n.size)
        order = np.argsort(n.astype(np.uint16), kind="stable")
        counts = np.bincount(n)  # np.unique would import numpy.ma
        k = np.empty_like(n)
        lo = 0
        for value in np.flatnonzero(counts):  # a law only for each drawn value
            row = folded_cdf(_clone_inner_law(int(value), self.strategy))
            hi = lo + counts[value]
            k[order[lo:hi]] = np.searchsorted(row, u[lo:hi])
            lo = hi
        return k, n
