"""Monte Carlo model of the TMCC source, the two-party channel and
thermal noise.

One pulse draws a single photon number n from the TMCC law; both parties
see exactly that n (the channel is lossless), so without noise the
Alice/Bob correlation is exactly 1.  Thermal noise independently adds at
most one extra photon per mode per pulse, with probability `noise_epsilon`
each.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .photon_stats import IntensityParam, _folded_cdfs, _tmcc_laws


@dataclass(frozen=True)
class SourceConfig:
    """Source intensity, per-mode noise probability and RNG seed."""

    lam: IntensityParam
    noise_epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_epsilon <= 0.5:
            raise ValueError(f"noise_epsilon must be in [0, 0.5], got {self.noise_epsilon}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True, eq=False)
class PulseBatch:
    """Pulse outcomes as parallel arrays: integer counts seen by Alice, Bob
    and Eve plus the per-mode noise flags, one entry per pulse."""

    n_a: np.ndarray
    n_b: np.ndarray
    n_e: np.ndarray
    noise_a: np.ndarray
    noise_b: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(getattr(self, f.name)) for f in fields(self)]
        if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("pulse arrays must be 1-D and of equal length")
        if any(not np.issubdtype(a.dtype, np.integer) for a in arrays[:3]):
            raise ValueError("photon counts must have an integer dtype")
        if any((a < 0).any() for a in arrays[:3]):
            raise ValueError("photon counts must be >= 0")
        if any(a.dtype != bool and ((a != 0) & (a != 1)).any() for a in arrays[3:]):
            raise ValueError("noise flags must be 0 or 1")
        for f, a in zip(fields(self), arrays):
            object.__setattr__(self, f.name, a)

    def __len__(self) -> int:
        return len(self.n_a)


class CorrelationReport(NamedTuple):
    g_ab: float
    rho_ab: float
    degenerate: bool


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Reproducible PCG64 stream; extra path integers split independent
    sub-streams off one master seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))


_BUCKETS = 4096  # buckets of u for the count lookup; a power of 2, so u * _BUCKETS is exact
_DRAW_ROWS = 8192  # uniforms per step; the steps draw what one rng.random(count) would


def _uniform_blocks(rng: np.random.Generator, count: int):
    """Yield (start, u) for `count` uniforms from `rng`, `_DRAW_ROWS` at a
    time into one buffer, so `u` is overwritten by the next step."""
    u = np.empty(min(count, _DRAW_ROWS))
    for start in range(0, count, _DRAW_ROWS):
        yield start, rng.random(out=u[: min(_DRAW_ROWS, count - start)])


def _bucket_counts(cdf: np.ndarray) -> np.ndarray:
    """For each bucket [b, b + 1) / _BUCKETS of u: `np.searchsorted(cdf, u)`,
    the same for every u in the bucket, where no entry of `cdf` lies in it;
    else -1."""
    below = np.searchsorted(cdf, np.arange(_BUCKETS + 1) / _BUCKETS)
    return np.where(below[:-1] == below[1:], below[:-1], -1)


class PulseSampler:
    """Samples correlated TMCC pulses for one (lambda, epsilon, seed) setup.

    Sub-stream 0 draws the shared photon number by inverse CDF, with the
    tail folded into the last bin; sub-stream 1 draws the noise flags.
    Attack samplers override `_attack` only.  Not thread-safe.
    """

    def __init__(self, cfg: SourceConfig):
        self.cfg = cfg
        self._cdf = _folded_cdfs(*_tmcc_laws(np.array([cfg.lam.magnitude])))[0]
        self._bucket_counts = _bucket_counts(self._cdf)
        self._rng = derive_rng(cfg.seed, 0)
        self._noise_rng = derive_rng(cfg.seed, 1)

    def _attack(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bob's and Eve's counts given the shared count n; no eavesdropper."""
        return n, np.zeros_like(n)

    def _draw_counts(self, count: int) -> np.ndarray:
        """`count` photon numbers from sub-stream 0, each exactly
        `np.searchsorted(cdf, u)` of its uniform u: only the uniforms in the
        few buckets that `_bucket_counts` leaves at -1 are searched."""
        n = np.empty(count, np.intp)
        bucket = np.empty(min(count, _DRAW_ROWS), np.intp)
        for start, u in _uniform_blocks(self._rng, count):
            u *= _BUCKETS
            np.copyto(bucket[: u.size], u, casting="unsafe")  # the floor, as u >= 0
            out = n[start : start + u.size]
            self._bucket_counts.take(bucket[: u.size], out=out, mode="clip")
            search = np.flatnonzero(out < 0)
            out[search] = np.searchsorted(self._cdf, u[search] / _BUCKETS)
        return n

    def sample_batch(self, count: int) -> PulseBatch:
        if count < 1:
            raise ValueError("count must be >= 1")
        n = self._draw_counts(count)
        k, n_e = self._attack(n)
        # at eps = 0 every flag is False, so the draws change no output
        noise_a, noise_b = flags = np.empty((2, count), bool)
        for row in flags:
            for start, u in _uniform_blocks(self._noise_rng, count):
                np.less(u, self.cfg.noise_epsilon, out=row[start : start + u.size])
        return PulseBatch(n + noise_a, k + noise_b, n_e, noise_a, noise_b)


def correlation_report(batch: PulseBatch) -> CorrelationReport:
    """Sample covariance g_AB and Pearson correlation rho_AB of (n_a, n_b).

    Returns degenerate=True (with rho_ab = nan) when either margin is
    constant, e.g. at zero intensity.
    """
    if len(batch) < 2:
        raise ValueError("need at least 2 pulses")
    (var_a, g_ab), (_, var_b) = np.cov(batch.n_a, batch.n_b)
    if var_a == 0.0 or var_b == 0.0:
        return CorrelationReport(g_ab, math.nan, True)
    if np.array_equal(batch.n_a, batch.n_b):
        # identical margins correlate exactly; skip the lossy sqrt round trip
        return CorrelationReport(g_ab, 1.0, False)
    return CorrelationReport(g_ab, g_ab / math.sqrt(var_a * var_b), False)


LOG_HEADER = "pulse_index,n_a,n_b,n_e,noise_a,noise_b"
# CRLF line ends, as csv.writer wrote them, keep existing logs byte-identical;
# a row is six counts >= 0 of at most 18 digits, which fit int64
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # up to the largest below the int64 maximum
_LOG_BLOCK_ROWS = 4096  # rows formatted per write, bounding the memory of the text
_LOG_READ_BYTES = 1 << 16  # text checked and parsed per step, in whole lines
_LOG_CHUNK_BYTES = 1 << 18  # bytes taken per read of a log file
_ROW_SEPARATORS = b",,,,,\n"
# the row grammar as one regex, which matches at the start of each line that is not a row
_BAD_ROW = re.compile(rb"^(?![0-9]{1,18}(?:,[0-9]{1,18}){3}(?:,0{0,17}[01]){2}\r?$)", re.MULTILINE)
QUOTE_CHARS = 80  # an error quotes at most this much of a refused line, then "..."


def _quote(text: str) -> str:
    return repr(text[:QUOTE_CHARS]) + ("..." if len(text) > QUOTE_CHARS else "")


def _digit_groups() -> np.ndarray:
    """Entry v is the 4 ASCII digits of v < 10**4, zero-padded, as one word."""
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        table[..., i] = (np.arange(10, dtype=np.uint8) + ord("0")).reshape((10,) + (1,) * (3 - i))
    return table.reshape(10_000, 4).view(np.uint32)[:, 0]


def write_pulse_log(path, batch: PulseBatch) -> None:
    """CSV pulse log: pulse_index,n_a,n_b,n_e,noise_a,noise_b.

    Each block of rows is one fixed-width byte array: every field gets the
    width of its column's largest value, at least 4 for the index, filled
    with decimal digits, and the leading zeros are dropped by one boolean
    compress before the write.  The index rises by one a row, so its last 4
    digits are one slice of a table of every 4-digit group, and the rows
    where one of its digits is a leading zero are one slice.  An empty batch
    or a count of over 18 digits is refused before the file is opened, as the
    reader refuses a log of no rows or such a count.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("cannot write a pulse log of 0 pulses")
    columns = (batch.n_a, batch.n_b, batch.n_e, batch.noise_a, batch.noise_b)
    tops = [int(c.max()) for c in columns]
    for name, top in zip(LOG_HEADER.split(",")[1:], tops):
        if top >= 10**18:
            raise ValueError(f"cannot write {name} = {top} to a pulse log: a count has at most 18 digits")
    widths = [max(len(str(n - 1)), 4)] + [len(str(top)) for top in tops]
    ends = np.cumsum(np.add(widths, 1))  # one past each field's separator
    text = np.empty((min(n, _LOG_BLOCK_ROWS), ends[-1] + 1), np.uint8)
    text[:, ends - 1] = ord(",")
    text[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    keep = np.ones(text.shape, bool)
    high = widths[0] - 4  # the index digits before its last 4
    low, groups = text[:, high : widths[0]].view(np.uint32)[:, 0], _digit_groups()
    with open(path, "wb") as fh:
        fh.write(LOG_HEADER.encode() + b"\r\n")
        for start in range(0, n, _LOG_BLOCK_ROWS):
            stop = min(start + _LOG_BLOCK_ROWS, n)
            rows = stop - start
            # the i-th index digit is a leading zero in the rows before index 10**(width-1-i);
            # only a block that holds such a row, or follows one, rewrites the digit's keep column
            for i in range(widths[0] - 1):
                power = 10 ** (widths[0] - 1 - i)
                if start < power + _LOG_BLOCK_ROWS:
                    keep[:rows, i] = True
                    keep[: max(power - start, 0), i] = False
            # a block is shorter than 10**4 rows, so it spans at most two runs of the digits before the last 4
            cross = min(stop, start - start % 10_000 + 10_000)
            for lo, hi in ((start, cross), (cross, stop)):
                low[lo - start : hi - start] = groups[lo % 10_000 : lo % 10_000 + hi - lo]
                for i in range(high):
                    text[lo - start : hi - start, i] = ord("0") + lo // 10 ** (widths[0] - 1 - i) % 10
            for column, width, end in zip(columns, widths[1:], ends[1:]):
                x = column[start:stop]
                for pos in range(end - 2, end - 1 - width, -1):  # every digit but the first, right to left
                    quotient = x // 10
                    text[:rows, pos] = x - 10 * quotient + ord("0")
                    x = quotient
                    np.greater(x, 0, out=keep[:rows, pos - 1])  # the digit before is a leading zero where x is 0
                np.add(x, ord("0"), out=text[:rows, end - 1 - width], casting="unsafe")
            fh.write(text[:rows][keep[:rows]])


def _read_rows(text: bytes, out: np.ndarray) -> int:
    """Parse LF-terminated lines of six counts into the five count columns of
    `out`; pulse_index is checked but not parsed.

    Returns the number of rows, or -1 if any line is not a row (six tokens of
    1-18 digits, the noise flags 0 or 1).
    """
    a = np.frombuffer(text, np.uint8)
    a = a[np.append((a[:-1] != ord("\r")) | (a[1:] != ord("\n")), True)]  # CRLF to LF; a lone CR fails below
    sep = np.flatnonzero(a < ord("0"))  # a row's separators are ",,,,,\n"
    gaps = np.diff(sep)  # one more than the length of each token after the first
    rows = sep.size // 6
    if not (
        a[sep].tobytes() == _ROW_SEPARATORS * rows  # so rows >= 1 and gaps is not empty
        and 1 <= sep[0] <= 18
        and gaps.min() >= 2
        and gaps.max() <= 19
        and a.max() <= ord("9")
    ):
        return -1
    ends = sep.reshape(rows, 6)
    for k in range(1, 6):
        end = ends[:, k]
        width = end - ends[:, k - 1]  # the token and the separator before it
        value = a[end - 1].astype(np.int64) - ord("0")
        for j in range(2, width.max()):  # the j-th digit from the right, where there is one
            value += np.where(width > j, a.take(end - j, mode="clip") - ord("0"), 0) * _POW10[j - 1]
        out[:rows, k - 1] = value
    return -1 if out[:rows, 3:].max() > 1 else rows


def _ascii_chunks(path, fh):
    """The bytes of the open log `fh`, `_LOG_CHUNK_BYTES` at a time; a byte
    above 127 is refused with its file offset, as decoding the whole file as
    ASCII names it."""
    offset = 0
    while chunk := fh.read(_LOG_CHUNK_BYTES):
        if not chunk.isascii():
            try:
                chunk.decode("ascii")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: not ASCII text: '{exc.encoding}' codec can't decode byte 0x{chunk[exc.start]:02x}"
                    f" in position {offset + exc.start}: {exc.reason}"
                ) from None
        offset += len(chunk)
        yield chunk


def _refuse(chunks, message: str):
    """Raise ValueError(message) once the rest of `chunks` has been read, so
    that a non-ASCII byte anywhere in the file is named first."""
    for _ in chunks:
        pass
    raise ValueError(message)


def pulse_log_blocks(path):
    """Yield (line, rows) for each block of about `_LOG_READ_BYTES` of whole
    lines of a log written by `write_pulse_log`: `line` is the file line
    number of the block's first row, and `rows` an int64 array with one row
    (n_a, n_b, n_e, noise_a, noise_b) per line; LF line ends are accepted too.

    The file is read `_LOG_CHUNK_BYTES` at a time, so the memory held does
    not grow with the number of rows.  A partial last line, with any line
    ends after it, is carried into the next chunk, and the line ends at the
    end of the file are dropped.  Raises ValueError as `read_pulse_log`
    does, after the blocks before the refused line have been yielded.
    """
    with open(path, "rb") as fh:
        chunks = _ascii_chunks(path, fh)
        pending: list[bytes] = []  # the bytes read but not yet cut into lines
        line = 1  # the line number of pending's first line; 1 is the header
        for chunk in itertools.chain(chunks, [b""]):
            pending.append(chunk)
            # cut lines once a chunk holds an LF before a byte that is not a line end: the line
            # ends after the last such byte may end the file, where they are dropped
            if chunk and chunk.rfind(b"\n", 0, len(chunk.rstrip(b"\r\n"))) < 0:
                continue
            data = b"".join(pending)
            if line == 1:  # the header line ends at the first CR, LF or CRLF
                eol = min(i for i in (data.find(b"\r"), data.find(b"\n"), len(data)) if i >= 0)
                header = data[:eol].decode()
                if header != LOG_HEADER:
                    _refuse(chunks, f"{path}, line 1: expected header {LOG_HEADER!r}, got {_quote(header)}")
                data = data[eol + (2 if data.startswith(b"\r\n", eol) else 1) :]
                line = 2
            stop = len(data.rstrip(b"\r\n"))
            if chunk:  # the lines up to the last LF before the last byte that is not a line end
                stop = data.rfind(b"\n", 0, stop) + 1
            elif stop or line == 2:  # the end of the file; a log holds at least one row
                data = data[:stop] + b"\n"
                stop += 1
            else:
                return
            start = 0
            while start < stop:
                end = data.find(b"\n", start + _LOG_READ_BYTES, stop) + 1 or stop
                block = data[start:end]
                rows = np.empty((block.count(b"\n"), 5), np.int64)
                if _read_rows(block, rows) < 0:  # the row grammar names the first bad line
                    at = _BAD_ROW.search(block, 0, len(block) - 1).start()
                    line += block.count(b"\n", 0, at)
                    bad = block[at:].split(b"\n", 1)[0].rstrip(b"\r").decode()
                    _refuse(chunks, f"{path}, line {line}: expected 6 comma-separated counts >= 0, got {_quote(bad)}")
                yield line, rows
                line, start = line + len(rows), end
            pending = [data[stop:]]


def read_pulse_log(path) -> PulseBatch:
    """Read a log written by `write_pulse_log`; LF line ends are accepted too.

    Raises ValueError naming the file and line of the first line that is not
    the header or a row of six counts >= 0 with noise flags 0 or 1, or naming
    the file and offset of the first byte that is not ASCII, which comes first.
    """
    counts, flags = [], []
    for _, rows in pulse_log_blocks(path):  # each block kept at 26 bytes a row, not 40
        counts.append(rows[:, :3].copy())
        flags.append(rows[:, 3:].astype(bool))
    n_a, n_b, n_e = np.concatenate(counts).T
    noise_a, noise_b = np.concatenate(flags).T
    return PulseBatch(n_a, n_b, n_e, noise_a, noise_b)
