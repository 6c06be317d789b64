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
    _tmcc_distributions,
    _tmcc_means,
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


def _split_marginals(lam: IntensityParam, ratios: list[SplitRatio]) -> list[PhotonDistribution]:
    """Bob's photon-number marginal after each amplitude split in `ratios`.

    The TMCC law mixed over Binomial(n, p^2), P @ B, with B built in the log
    domain; n runs until P_n is negligible, not just to the source cutoff,
    and Bob's k to the source cutoff.  The weights, the (n, k) grid and
    log C(n, k) are built once and shared by every split.  Limits p=1 (no
    split) and p=0 (vacuum at Bob) are handled exactly.
    """
    m = lam.magnitude
    source = tmcc_distribution(lam)
    vacuum = PhotonDistribution(np.array([1.0]))
    w = tmcc_weights(m)
    k = np.arange(source.probs.size)
    n = np.arange(np.flatnonzero(w >= _MIX_FLOOR)[-1] + 1)[:, None]
    j = n - k  # photons toward Eve
    log_c = _LOG_FACTORIAL[n] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[abs(j)]
    laws = []
    for r in ratios:
        if r.q == 0.0 or m == 0.0:
            laws.append(source)
        elif r.p == 0.0:
            laws.append(vacuum)
        else:
            # log B = log C(n, k) + k log p^2 + j log q^2, summed in that order
            log_b = log_c + k * math.log(r.p**2)
            log_b += j * math.log(r.q**2)
            log_b[j < 0] = -np.inf
            probs = w[: n.size] @ np.exp(log_b, out=log_b)
            laws.append(PhotonDistribution(probs, tail_mass=max(0.0, 1.0 - float(probs.sum()))))
    return laws


def split_marginal_bob(lam: IntensityParam, r: SplitRatio) -> PhotonDistribution:
    """Bob's photon-number marginal after an amplitude split (p toward Bob)."""
    return _split_marginals(lam, [r])[0]


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


# <N>(MAX_LAMBDA), about 49.75: no target mean above it is reachable
_MEAN_CEILING = _tmcc_means(np.array([MAX_LAMBDA]))[0]


def _lambdas_for_means(targets: np.ndarray) -> np.ndarray:
    """Invert the mean photon number for each target of the 1-d `targets`: the
    unique lambda with <N>(lambda) = target.

    Safeguarded Newton iteration on [0, MAX_LAMBDA] with the closed-form
    slope d<N>/dlambda = 2 Var(N) / lambda = 2 (lambda^2 - <N>^2) / lambda
    (since <N^2> = lambda^2); a step that leaves the bracket on the root is
    replaced by bisection.  The targets run in lockstep, each with its own
    bracket and stop test, and leave the batch as they converge.  A bad
    target raises for the first one in order.
    """
    targets = np.asarray(targets, dtype=float)
    bad = ~(np.isfinite(targets) & (targets >= 0.0))
    over = targets > _MEAN_CEILING
    first = np.flatnonzero(bad | over)[:1]
    if bad[first].any():
        raise PhotonStatsError("target mean must be finite and >= 0")
    if first.size:
        unreachable = float(targets[first[0]])
        raise PhotonStatsError(f"mean {unreachable} not reachable below lambda ceiling {MAX_LAMBDA}")
    # <N> ~ lambda^2 for small lambda and lambda - 1/4 for large lambda
    x = np.where(targets < 1.0, np.sqrt(targets), targets + 0.25)
    lo = np.zeros_like(x)
    hi = np.full_like(x, MAX_LAMBDA)
    live = np.flatnonzero(targets > 0.0)
    for _ in range(100):
        if not live.size:
            break
        xs, target = x[live], targets[live]
        mean = _tmcc_means(xs)
        above = mean > target
        hi[live[above]] = xs[above]
        lo[live[~above]] = xs[~above]
        new = xs - (mean - target) * xs / (2.0 * (xs * xs - mean * mean))
        low, high = lo[live], hi[live]
        new = np.where((low <= new) & (new <= high), new, 0.5 * (low + high))
        # after a Newton step this small only the rounding of <N> is left
        done = np.abs(new - xs) <= 1e-10 * xs
        x[live] = new
        live = live[~done]
    return x


def lambda_for_mean(target: float) -> IntensityParam:
    """Invert the mean photon number: the unique lambda with <N>(lambda) = target."""
    return IntensityParam(float(_lambdas_for_means(np.array([target]))[0]))


@lru_cache(maxsize=4096)
def lambda_of_n(n: int) -> IntensityParam:
    """Eve's optimal TMCC clone setting for a measured photon number n."""
    if n < 0:
        raise PhotonStatsError("photon number must be >= 0")
    return lambda_for_mean(float(n))


def _clone_inner_laws(values: np.ndarray, strategy: CloneStrategy) -> list[PhotonDistribution]:
    """Eve's re-emitted state for each measured photon number of the 1-d `values`."""
    if strategy is CloneStrategy.SINGLE_PHOTON_BANK:
        return [PhotonDistribution(np.arange(n + 1) == n) for n in values]
    if strategy is CloneStrategy.COHERENT:
        return [poisson_distribution(float(n)) for n in values]
    return _tmcc_distributions(_lambdas_for_means(values))


def _clone_inner_law(n: int, strategy: CloneStrategy) -> PhotonDistribution:
    """Eve's re-emitted state for a measured photon number n."""
    return _clone_inner_laws(np.array([n]), strategy)[0]


def cloned_bob_matrix(lam: IntensityParam, strategy: CloneStrategy) -> PhotonDistribution:
    """Density matrix (its diagonal) Bob measures when Eve intercepts and re-emits clones.

    Mixture over Eve's measured n (TMCC-weighted) of the strategy's
    re-emission law with mean n; truncation remainders are folded back by
    renormalization.
    """
    outer = tmcc_distribution(lam)
    inners = _clone_inner_laws(np.arange(outer.probs.size), strategy)
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
        values = np.flatnonzero(counts)  # a law only for each drawn value
        for value, law in zip(values, _clone_inner_laws(values, self.strategy)):
            hi = lo + counts[value]
            k[order[lo:hi]] = np.searchsorted(folded_cdf(law), u[lo:hi])
            lo = hi
        return k, n
