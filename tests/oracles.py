"""Reference implementations that the test suite checks the package against."""

import math
import re

import numpy as np
from scipy.stats import binom

from tmcc_qkd.attacks import _MIX_FLOOR, ClonePulseSampler, SplitRatio, _clone_inner_law
from tmcc_qkd.photon_stats import (
    _LOG_FACTORIAL,
    _N,
    MAX_LAMBDA,
    TAIL_EPS,
    IntensityParam,
    PhotonDistribution,
    PhotonStatsError,
    tmcc_distribution,
)
from tmcc_qkd.source import LOG_HEADER, PulseBatch, folded_cdf

# largest n for the series cutoff search, as in the package
MAX_CUTOFF = 600


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function I_order(x), x >= 0, by its power series
    sum_k (x/2)^(order+2k) / (k! (order+k)!) (Abramowitz & Stegun 9.6.10),
    summed on the linear scale until a term no longer moves the total."""
    if order < 0 or x < 0.0:
        raise ValueError("order and argument must be >= 0")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    half = 0.5 * x
    # first term, scaled through lgamma; it underflows cleanly to 0 for high orders
    term = math.exp(order * math.log(half) - math.lgamma(order + 1))
    total = term
    k = 1
    while term > total * 1e-17:
        term *= half * half / (k * (order + k))
        total += term
        k += 1
    return total


def log_bessel_i(order: int, x: float) -> float:
    """log I_order(x): the leading term (x/2)^order / order! in the log
    domain times the series factor sum_k (x/2)^(2k) order! / (k! (order+k)!)."""
    if order < 0 or x < 0.0:
        raise ValueError("order and argument must be >= 0")
    if x == 0.0:
        return 0.0 if order == 0 else -math.inf
    half = 0.5 * x
    term = total = 1.0
    k = 1
    while term > total * 1e-17:
        term *= half * half / (k * (order + k))
        total += term
        k += 1
    return order * math.log(half) - math.lgamma(order + 1) + math.log(total)


def tmcc_pn(m: float, n: int) -> float:
    """TMCC P_n = m^(2n) / (n!^2 I_0(2m)), one term at a time."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    if m == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(2 * n * math.log(m) - 2.0 * math.lgamma(n + 1) - log_bessel_i(0, 2.0 * m))


def tmcc_distribution_series(m: float, tail_eps: float = TAIL_EPS) -> np.ndarray:
    """P_0..P_cutoff from `tmcc_pn`, stopping at the first n where the term
    ratio r = m^2/(n+1)^2 is below 1/2 and the tail bound P_n r/(1-r) below
    tail_eps."""
    if m == 0.0:
        return np.array([1.0])
    probs = []
    for n in range(MAX_CUTOFF + 1):
        probs.append(tmcc_pn(m, n))
        r = m * m / ((n + 1) * (n + 1))
        if r < 0.5 and probs[-1] * r / (1.0 - r) < tail_eps:
            return np.array(probs)
    raise ValueError(f"no truncation point found below index {MAX_CUTOFF}")


def tmcc_mean(m: float) -> float:
    """<N> = m I_1(2m) / I_0(2m)."""
    if m == 0.0:
        return 0.0
    return m * math.exp(log_bessel_i(1, 2.0 * m) - log_bessel_i(0, 2.0 * m))


def split_marginal_bessel(lam: IntensityParam, r: SplitRatio, size: int) -> np.ndarray:
    """Bob's split marginal P_k, k < size, in closed form:
    lambda^k p^(2k) I_k(2 q lambda) / (q^k k! I_0(2 lambda)), for 0 < p, q < 1."""
    m = lam.magnitude
    log_coef = math.log(m) + 2.0 * math.log(r.p) - math.log(r.q)
    log_i0 = log_bessel_i(0, 2.0 * m)
    return np.array(
        [
            math.exp(k * log_coef - math.lgamma(k + 1) + log_bessel_i(k, 2.0 * r.q * m) - log_i0)
            for k in range(size)
        ]
    )


def split_marginal_binomial(lam: IntensityParam, r: SplitRatio) -> PhotonDistribution:
    """Brute-force oracle for Bob's split marginal.

    Mixes scipy's Binomial(n, p^2) pmf over the truncated TMCC law one n at a
    time, so it drops the mass beyond the cutoff (below TAIL_EPS).
    """
    base = tmcc_distribution(lam)
    size = base.probs.size
    p_sq = r.p**2
    probs = np.zeros(size)
    ks = np.arange(size)
    for n in range(size):
        probs += base.probs[n] * binom.pmf(ks, n, p_sq)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return PhotonDistribution(probs, tail_mass=tail)


def tmcc_weights_row(m: float) -> np.ndarray:
    """TMCC grid weights for one magnitude: m^(2n) / n!^2 over n = 0..600,
    normalised in the log domain."""
    if m == 0.0:
        return (_N == 0).astype(float)
    log_w = 2.0 * math.log(m) * _N - 2.0 * _LOG_FACTORIAL
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def _mean_of_lambda(x: float) -> float:
    return float(_N @ tmcc_weights_row(x))


def lambda_for_mean_newton(target: float) -> float:
    """The per-target safeguarded Newton inversion of <N>(lambda) = target:
    slope 2 (lambda^2 - <N>^2) / lambda, bisection when a step leaves the
    bracket, stop when a step moves lambda by at most 1e-10 relative."""
    if not math.isfinite(target) or target < 0.0:
        raise PhotonStatsError("target mean must be finite and >= 0")
    if target == 0.0:
        return 0.0
    if target > _mean_of_lambda(MAX_LAMBDA):
        raise PhotonStatsError(f"mean {target} not reachable below lambda ceiling {MAX_LAMBDA}")
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
        done = abs(new - x) <= 1e-10 * x
        x = new
        if done:
            break
    return x


def split_marginal_mixture(lam: IntensityParam, r: SplitRatio) -> PhotonDistribution:
    """Bob's split marginal for one ratio: the binomial mixture P @ B on a
    grid of its own, n while P_n >= 1e-22 and k to the source cutoff."""
    m = lam.magnitude
    if r.q == 0.0 or m == 0.0:
        return tmcc_distribution(lam)
    if r.p == 0.0:
        return PhotonDistribution(np.array([1.0]))
    k = np.arange(tmcc_distribution(lam).probs.size)
    w = tmcc_weights_row(m)
    n = np.arange(np.flatnonzero(w >= _MIX_FLOOR)[-1] + 1)[:, None]
    j = n - k
    log_b = np.where(
        j >= 0,
        _LOG_FACTORIAL[n] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[abs(j)]
        + k * math.log(r.p**2) + j * math.log(r.q**2),
        -np.inf,
    )
    probs = w[: n.size] @ np.exp(log_b)
    return PhotonDistribution(probs, tail_mass=max(0.0, 1.0 - float(probs.sum())))


class InverseCdfSampler:
    """Inverse-CDF draws from a truncated photon-number law, the tail folded
    into the last bin, on a stream that the caller owns."""

    def __init__(self, dist: PhotonDistribution, rng: np.random.Generator):
        self._cdf = folded_cdf(dist)
        self._rng = rng

    def draw(self, size: int) -> np.ndarray:
        return np.searchsorted(self._cdf, self._rng.random(size), side="left")


class PerValueClonePulseSampler(ClonePulseSampler):
    """Oracle clone sampler: one `InverseCdfSampler` per distinct measured n,
    all on sub-stream 3, drawn for the ascending values in turn and written
    back through a mask."""

    def _attack(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = np.empty_like(n)
        for value in np.flatnonzero(np.bincount(n)):
            sampler = InverseCdfSampler(_clone_inner_law(int(value), self.strategy), self._clone_rng)
            mask = n == value
            k[mask] = sampler.draw(int(mask.sum()))
        return k, n


_LOG_ROW = ",".join(["%d"] * 6) + "\r\n"
_LOG_BAD_LINE = re.compile(r"^(?![0-9]{1,18}(?:,[0-9]{1,18}){5}\r?$)", re.MULTILINE)
_LOG_BLOCK = 1 << 14


def write_pulse_log(path, batch: PulseBatch) -> None:
    """Oracle pulse-log writer: `%d` formatting, one row at a time."""
    rows = np.column_stack(
        (np.arange(len(batch)), batch.n_a, batch.n_b, batch.n_e, batch.noise_a, batch.noise_b)
    )
    with open(path, "w", newline="") as fh:
        fh.write(LOG_HEADER + "\r\n")
        for start in range(0, len(rows), _LOG_BLOCK):
            block = rows[start : start + _LOG_BLOCK]
            fh.write((_LOG_ROW * len(block)) % tuple(block.ravel().tolist()))


def read_pulse_log(path) -> PulseBatch:
    """Oracle pulse-log reader: one regular expression finds the first bad
    line, `np.fromstring` parses the rest."""
    try:
        with open(path, newline="", encoding="ascii") as fh:
            header = fh.readline().rstrip("\r\n")
            body = fh.read().rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text: {exc}") from exc
    if header != LOG_HEADER:
        raise ValueError(f"{path}, line 1: expected header {LOG_HEADER!r}, got {header!r}")
    bad = _LOG_BAD_LINE.search(body)
    if bad is not None:
        line = body[bad.start() :].split("\n", 1)[0].rstrip("\r")
        lineno = body.count("\n", 0, bad.start()) + 2
        raise ValueError(f"{path}, line {lineno}: expected 6 comma-separated counts >= 0, got {line!r}")
    flat = body.replace("\r", "").replace("\n", ",")
    _, n_a, n_b, n_e, noise_a, noise_b = np.fromstring(flat, dtype=np.int64, sep=",").reshape(-1, 6).T
    return PulseBatch(n_a, n_b, n_e, noise_a.astype(bool), noise_b.astype(bool))
