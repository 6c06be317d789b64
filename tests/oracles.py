"""Reference implementations that the test suite checks the package against."""

import re

import numpy as np
from scipy.stats import binom

from tmcc_qkd.attacks import SplitRatio
from tmcc_qkd.photon_stats import TAIL_EPS, IntensityParam, PhotonDistribution, tmcc_distribution
from tmcc_qkd.source import LOG_HEADER, PulseBatch


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
