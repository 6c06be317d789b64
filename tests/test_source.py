import math
import re

import numpy as np
import oracles
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmcc_qkd import cli, source
from tmcc_qkd.photon_stats import IntensityParam, tmcc_distribution, tmcc_moments
from tmcc_qkd.source import (
    _LOG_READ_BYTES,
    QUOTE_CHARS,
    PulseBatch,
    PulseSampler,
    SourceConfig,
    correlation_report,
    read_pulse_log,
    write_pulse_log,
)

LAM2 = IntensityParam(2.0)
HEADER = b"pulse_index,n_a,n_b,n_e,noise_a,noise_b\r\n"
FIELDS = ("n_a", "n_b", "n_e", "noise_a", "noise_b")


def sample(cfg, count):
    return PulseSampler(cfg).sample_batch(count)


def counts_only(n_a, n_b):
    """A batch with the given Alice/Bob counts, no Eve and no noise."""
    n_a = np.asarray(n_a)
    zero = np.zeros_like(n_a)
    return PulseBatch(n_a, np.asarray(n_b), zero, zero.astype(bool), zero.astype(bool))


def same_batch(x, y):
    return all(np.array_equal(getattr(x, f), getattr(y, f)) for f in FIELDS)


class TestSourceConfig:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            SourceConfig(LAM2, noise_epsilon=0.6)
        with pytest.raises(ValueError):
            SourceConfig(LAM2, noise_epsilon=-0.1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SourceConfig(LAM2, seed=2**64)


class TestSampling:
    def test_zero_intensity_always_vacuum(self):
        batch = sample(SourceConfig(IntensityParam(0.0), seed=1), 200)
        assert not batch.n_a.any() and not batch.n_b.any()

    def test_determinism_bit_for_bit(self):
        cfg = SourceConfig(LAM2, noise_epsilon=0.1, seed=12345)
        assert same_batch(sample(cfg, 5000), sample(cfg, 5000))

    @pytest.mark.parametrize("count", [1, source._DRAW_ROWS, 2 * source._DRAW_ROWS + 5])
    def test_block_draws_equal_whole_batch_draws(self, count):
        # the sampler draws its uniforms a block at a time; the outputs are those of one
        # searchsorted over one draw of all the counts' uniforms, then one draw per noise flag
        cfg = SourceConfig(LAM2, noise_epsilon=0.3, seed=17)
        sampler = PulseSampler(cfg)
        n = np.searchsorted(sampler._cdf, source.derive_rng(17, 0).random(count))
        noise = source.derive_rng(17, 1).random((2, count)) < 0.3
        assert same_batch(sampler.sample_batch(count), PulseBatch(n + noise[0], n + noise[1], 0 * n, *noise))

    def test_noiseless_identity_large_sample(self):
        batch = sample(SourceConfig(LAM2, seed=7), 1_000_000)
        assert not batch.noise_a.any() and not batch.noise_b.any()
        assert np.array_equal(batch.n_a, batch.n_b) and not batch.n_e.any()

    def test_noise_marginal_rate(self):
        eps = 0.2
        batch = sample(SourceConfig(LAM2, noise_epsilon=eps, seed=11), 100_000)
        se = math.sqrt(eps * (1 - eps) / 100_000)
        assert abs(batch.noise_a.mean() - eps) < 3 * se
        assert abs(batch.noise_b.mean() - eps) < 3 * se
        assert np.array_equal(batch.n_a - batch.noise_a, batch.n_b - batch.noise_b)

    def test_mean_converges_with_noise(self):
        eps = 0.1
        n_b = sample(SourceConfig(LAM2, noise_epsilon=eps, seed=21), 1_000_000).n_b
        moments = tmcc_moments(LAM2)
        se = math.sqrt((moments.variance + eps * (1 - eps)) / 1_000_000)
        assert abs(n_b.mean() - (moments.mean + eps)) < 3 * se

    def test_empirical_distribution_total_variation(self):
        n = sample(SourceConfig(LAM2, seed=31), 1_000_000).n_a
        analytic = tmcc_distribution(LAM2)
        hist = np.bincount(n, minlength=analytic.probs.size) / n.size
        common = min(hist.size, analytic.probs.size)
        tv = 0.5 * (
            np.abs(hist[:common] - analytic.probs[:common]).sum()
            + hist[common:].sum()
            + analytic.probs[common:].sum()
        )
        assert tv < 0.01


class FixedUniforms:
    """Stands in for a sampler's Generator: `random(out=...)` fills `out`
    with the next of the given uniforms."""

    def __init__(self, u):
        self.u, self.taken = u, 0

    def random(self, out):
        out[:] = self.u[self.taken : self.taken + out.size]
        self.taken += out.size
        return out


def adversarial_uniforms(cdf):
    """0, the largest double below 1, every bucket edge, every entry of `cdf`
    and the doubles either side of it, all in [0, 1), then enough random
    uniforms for the lookup to take more than one step."""
    edges = np.arange(source._BUCKETS) / source._BUCKETS
    u = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            edges,
            cdf,
            np.nextafter(cdf, -np.inf),
            np.nextafter(cdf, np.inf),
            np.random.default_rng(cdf.size).random(2 * source._DRAW_ROWS),
        ]
    )
    return u[(u >= 0.0) & (u < 1.0)]


def bucket_lookup(cdf, u):
    """The sampler's photon numbers for the uniforms `u` under the law of `cdf`."""
    sampler = PulseSampler(SourceConfig(IntensityParam(0.0)))
    sampler._cdf, sampler._bucket_counts = cdf, source._bucket_counts(cdf)
    sampler._rng = FixedUniforms(u)
    return sampler._draw_counts(u.size)


EDGE = 1 / source._BUCKETS


class TestBucketLookup:
    """The bucketed inverse-CDF draw equals `np.searchsorted(cdf, u)` bit for bit."""

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5, 2.0, 16.0, 45.0, 50.0])
    def test_tmcc_law_equals_searchsorted(self, lam):
        cdf = PulseSampler(SourceConfig(IntensityParam(lam)))._cdf
        u = adversarial_uniforms(cdf)
        got = bucket_lookup(cdf, u)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(cdf, u, side="left"))

    @pytest.mark.parametrize(
        "cdf",
        [
            np.arange(1, source._BUCKETS + 1) * EDGE,  # an entry on every bucket edge
            np.array([0.0, 0.0, EDGE, EDGE, 0.5, 0.5 + EDGE, 1.0 - EDGE, 1.0, 1.0]),  # repeats
            np.sort(np.concatenate([np.arange(1, 4096, 7) * EDGE, np.nextafter(np.arange(1, 4096, 7) * EDGE, 0.0), [1.0]])),
        ],
        ids=["every-edge", "repeated-edges", "edges-and-doubles-below"],
    )
    def test_entries_on_bucket_edges_equal_searchsorted(self, cdf):
        u = adversarial_uniforms(cdf)
        assert np.array_equal(bucket_lookup(cdf, u), np.searchsorted(cdf, u, side="left"))


class TestCorrelation:
    def test_noiseless_correlation_exactly_one(self):
        report = correlation_report(sample(SourceConfig(LAM2, seed=41), 20_000))
        assert report.rho_ab == 1.0
        assert not report.degenerate

    def test_independent_streams_decorrelate(self):
        rng = np.random.default_rng(5)
        mean = tmcc_moments(LAM2).mean
        batch = counts_only(rng.poisson(mean, 10_000), rng.poisson(mean, 10_000))
        assert abs(correlation_report(batch).rho_ab) < 0.05

    def test_noise_partially_decorrelates(self):
        report = correlation_report(sample(SourceConfig(LAM2, noise_epsilon=0.2, seed=51), 50_000))
        assert 0.0 < report.rho_ab < 1.0

    def test_degenerate_margin(self):
        report = correlation_report(counts_only([0, 0, 0], [0, 0, 0]))
        assert report.degenerate
        assert math.isnan(report.rho_ab)

    def test_needs_two_pulses(self):
        with pytest.raises(ValueError):
            correlation_report(counts_only([1], [1]))


class TestPulseBatch:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            counts_only([1, -1], [1, 1])

    @pytest.mark.parametrize("n_a, n_b", [([1.5, 2.7], [1, 3]), ([2.0, 1.0], [1, 3]), ([1, 2], [1.0, 3.0])])
    def test_non_integer_counts_rejected(self, n_a, n_b):
        # the writer would log 1.5 as 1, so even integral floats are refused by dtype
        with pytest.raises(ValueError, match="integer dtype"):
            PulseBatch(n_a, n_b, [0, 0], [0, 1], [1, 1])
        with pytest.raises(ValueError, match="integer dtype"):
            PulseBatch([1, 2], [1, 3], np.asarray(n_a) + np.asarray(n_b), [False, True], [True, True])

    def test_integer_counts_with_bool_flags_accepted(self):
        batch = PulseBatch(np.array([1, 2], np.uint16), [1, 3], [0, 0], [False, True], [True, True])
        assert batch.noise_a.dtype == bool and batch.n_a.dtype == np.uint16

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            counts_only([1, 2], [1])

    @pytest.mark.parametrize("noise_a, noise_b", [([2], [-1]), ([0], [2]), ([-1], [1]), ([1], [0.5])])
    def test_noise_flag_other_than_0_or_1_rejected(self, noise_a, noise_b):
        with pytest.raises(ValueError, match="noise flags must be 0 or 1"):
            PulseBatch([1], [1], [0], noise_a, noise_b)

    def test_integer_noise_flags_round_trip(self, tmp_path):
        batch = PulseBatch([1, 2], [1, 3], [0, 0], [0, 1], [1, 1])
        write_pulse_log(tmp_path / "pulses.csv", batch)
        assert same_batch(read_pulse_log(tmp_path / "pulses.csv"), batch)


class TestPulseLog:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "pulses.csv"
        write_pulse_log(path, PulseBatch([2], [3], [1], [False], [True]))
        assert path.read_bytes() == b"pulse_index,n_a,n_b,n_e,noise_a,noise_b\r\n0,2,3,1,0,1\r\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pulses.csv"
        batch = sample(SourceConfig(LAM2, noise_epsilon=0.3, seed=61), 1000)
        write_pulse_log(path, batch)
        assert same_batch(read_pulse_log(path), batch)

    @pytest.mark.parametrize(
        "row",
        [
            "0,1,x,0,0,0", "0,1,2,0,0", "0,1,-2,0,0,0", "0,1,2,0,0,0,7", "", "0,1,2.5,0,0,0",
            "0,1,2,0,2,0", "0,1,2,0,0,7",  # a noise flag is 0 or 1
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "pulses.csv"
        path.write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n" + row + "\n1,2,2,0,0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ") + ".*" + re.escape(repr(row))):
            read_pulse_log(path)

    def test_non_ascii_byte_names_file(self, tmp_path):
        path = tmp_path / "pulses.csv"
        path.write_bytes(b"pulse_index,n_a,n_b,n_e,noise_a,noise_b\r\n0,1,\xff,0,0,0\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not ASCII text")):
            read_pulse_log(path)

    def test_missing_column_names_line_one(self, tmp_path):
        path = tmp_path / "pulses.csv"
        path.write_text("pulse_index,n_a\n0,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 1: ")):
            read_pulse_log(path)


# one write block is 4096 rows; 20 000 rows of small counts span several read blocks
LOG_SIZES = st.sampled_from([1, 2, 4095, 4096, 4097, 20_000])
CODEC_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


COUNT_DTYPES = [np.dtype(f"{kind}{size}") for kind in "iu" for size in (1, 2, 4, 8)]


@st.composite
def pulse_batches(draw, sizes=LOG_SIZES, max_digits=18):
    """Batches of one count dtype, of any integer width, whose counts have 1 to `digits`
    digits (at most `max_digits`) per entry, capped at the dtype's maximum."""
    n = draw(sizes)
    dtype = draw(st.sampled_from(COUNT_DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = min(10**18, int(np.iinfo(dtype).max) + 1)
    counts = [
        rng.integers(0, np.minimum(10 ** rng.integers(1, draw(st.integers(1, max_digits)) + 1, n), top)).astype(dtype)
        for _ in range(3)
    ]
    flags = rng.random((2, n)) < draw(st.floats(0.0, 1.0))
    return PulseBatch(*counts, *flags)


def read_outcome(read, path):
    """The batch `read` returns, as lists and dtypes, or its ValueError text."""
    try:
        batch = read(path)
    except ValueError as exc:
        return str(exc)
    return [(getattr(batch, f).tolist(), getattr(batch, f).dtype) for f in FIELDS]


def oracle_log(path, batch) -> bytes:
    oracles.write_pulse_log(path, batch)
    return path.read_bytes()


def assert_reads_like_oracle(path, data: bytes):
    path.write_bytes(data)
    assert read_outcome(read_pulse_log, path) == read_outcome(oracles.read_pulse_log, path)


def replace_line(data: bytes, index: int, line: bytes) -> bytes:
    """Replace line `index` (0 is the header) of the CRLF-separated lines, modulo their count."""
    lines = data.split(b"\r\n")
    lines[index % len(lines)] = line
    return b"\r\n".join(lines)


def read_block_line(data: bytes, block: int, last: bool = False) -> int:
    """Index (0 is the header) of the first line, or with `last` the last line,
    of the reader's read block `block` (0 is the first)."""
    end = data.index(b"\n") + 1
    for _ in range(block + last):
        end = data.index(b"\n", end + _LOG_READ_BYTES) + 1
    return data.count(b"\n", 0, end) - last


class TestPulseLogCodec:
    """The block codec against the `%d` writer and the regex reader it replaced."""

    @CODEC_SETTINGS
    @given(batch=pulse_batches())
    def test_writer_bytes_match_oracle(self, tmp_path, batch):
        path = tmp_path / "pulses.csv"
        write_pulse_log(path, batch)
        assert path.read_bytes() == oracle_log(tmp_path / "oracle.csv", batch)
        assert same_batch(read_pulse_log(path), batch)

    def test_writer_index_widens_inside_a_block(self, tmp_path):
        # 10**5 lies inside the write block of rows 98 304 to 102 399, so within that block
        # the 6-digit index field drops its first digit as a leading zero, then keeps it
        rng = np.random.default_rng(102_400)
        n = 102_400 + 17
        counts = [rng.integers(0, 10 ** rng.integers(1, 4, n)) for _ in range(3)]
        batch = PulseBatch(*counts, *(rng.random((2, n)) < 0.5))
        write_pulse_log(tmp_path / "pulses.csv", batch)
        assert (tmp_path / "pulses.csv").read_bytes() == oracle_log(tmp_path / "oracle.csv", batch)

    def test_writer_vacuum_batch_matches_oracle(self, tmp_path):
        batch = sample(SourceConfig(IntensityParam(0.0), noise_epsilon=0.05, seed=9), 20_000)
        assert all(getattr(batch, f).max() < 10 for f in FIELDS)  # every count column is 1 digit wide
        write_pulse_log(tmp_path / "pulses.csv", batch)
        assert (tmp_path / "pulses.csv").read_bytes() == oracle_log(tmp_path / "oracle.csv", batch)

    def test_writer_refuses_empty_batch_and_writes_nothing(self, tmp_path):
        # the reader refuses a header-only log, so the writer makes none
        empty = np.zeros(0, np.int64)
        batch = PulseBatch(empty, empty, empty, empty.astype(bool), empty.astype(bool))
        with pytest.raises(ValueError, match="0 pulses"):
            write_pulse_log(tmp_path / "pulses.csv", batch)
        assert not (tmp_path / "pulses.csv").exists()

    @pytest.mark.parametrize("column", FIELDS[:3])
    @pytest.mark.parametrize("count", [np.int64(10**18), np.uint64(10**19)], ids=["int64", "uint64"])
    def test_writer_refuses_a_count_the_reader_refuses(self, tmp_path, column, count):
        # the reader takes at most 18 digits a count, so the writer writes no 19-digit count
        counts = {f: np.zeros(2, count.dtype) for f in FIELDS[:3]}
        counts[column][1] = count
        batch = PulseBatch(**counts, noise_a=[0, 1], noise_b=[1, 0])
        with pytest.raises(ValueError, match=f"cannot write {column} = {count} to a pulse log"):
            write_pulse_log(tmp_path / "pulses.csv", batch)
        assert not (tmp_path / "pulses.csv").exists()

    def test_one_pulse_round_trip(self, tmp_path):
        batch = PulseBatch([12], [0], [7], [True], [False])
        write_pulse_log(tmp_path / "pulses.csv", batch)
        assert same_batch(read_pulse_log(tmp_path / "pulses.csv"), batch)

    @CODEC_SETTINGS
    @given(
        batch=pulse_batches(sizes=st.sampled_from([1, 3, 40, 20_000])),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "lf", "empty-line", "long-token"]),
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(b"0123456789,\r\n -+.x\x00"),
            ),
            max_size=3,
        ),
    )
    def test_reader_matches_oracle(self, tmp_path, batch, edits):
        data = oracle_log(tmp_path / "oracle.csv", batch)
        for kind, where, byte in edits:
            at = int(where * len(data))
            if kind == "insert":
                data = data[:at] + bytes([byte]) + data[at:]
            elif kind == "delete":
                data = data[:at] + data[at + 1 :]
            elif kind == "lf":  # LF-only line ends from here on
                data = data[:at] + data[at:].replace(b"\r\n", b"\n")
            else:
                data = replace_line(data, at, b"" if kind == "empty-line" else b"0," + b"7" * 19 + b",1,1,0,0")
        assert_reads_like_oracle(tmp_path / "pulses.csv", data)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: d[:60] + b"5" + d[60:], id="inserted-byte"),
            pytest.param(lambda d: d[:60] + d[61:], id="deleted-byte"),
            pytest.param(lambda d: replace_line(d, 3, b"2,1\r,1,0,0,0"), id="lone-cr"),
            pytest.param(lambda d: replace_line(d, 3, b"2,1,1,0,0,0\r"), id="cr-cr-lf"),
            pytest.param(lambda d: d.replace(b"\r\n", b"\n", 7), id="mixed-lf-crlf"),
            pytest.param(lambda d: replace_line(d, 5, b""), id="empty-line"),
            pytest.param(lambda d: replace_line(d, 5, b"4," + b"1" * 19 + b",1,1,0,0"), id="19-digit-token"),
            pytest.param(lambda d: replace_line(d, 1, b"1" * 19 + b",1,1,0,0,0"), id="19-digit-first-token"),
            pytest.param(lambda d: replace_line(d, 19_000, b"18999,2,2,0,x,0"), id="later-read-block"),
            pytest.param(lambda d: replace_line(replace_line(d, 3, b"2,1,1,0,0,10"), 6, b"x"), id="flag-first"),
            # a noise flag above 1 on the line directly before a structural fault
            pytest.param(lambda d: replace_line(replace_line(d, 8, b"7,1,1,0,2,0"), 9, b"8,1"), id="flag-then-fault"),
            pytest.param(lambda d: replace_line(d, 4, b"3,1,1,0,00000000000000001,0"), id="flag-zeros"),
            pytest.param(lambda d: replace_line(d, read_block_line(d, 1), b"x"), id="second-block-first-line"),
            # a line at least as long as the one it replaces stays the block's last
            pytest.param(
                lambda d: replace_line(d, read_block_line(d, 1, last=True), b"9" * 19 + b",1,1,0,0,0"),
                id="second-block-last-line",
            ),
            pytest.param(lambda d: d + b"\r\n\r\n", id="trailing-blank-lines"),
            pytest.param(lambda d: d[: d.index(b"\n") + 1], id="header-only"),
            # one line to the reader, whose quote is cut
            pytest.param(lambda d: d.replace(b"\r\n", b"\r"), id="cr-only-line-ends"),
            pytest.param(lambda d: replace_line(d, 7, b"1" * 5000), id="long-bad-line"),
            pytest.param(lambda d: replace_line(d, 7, b"x" * (QUOTE_CHARS + 1) + b"\r"), id="bad-line-one-over"),
            pytest.param(lambda d: b"h" * 3000, id="long-header-no-line-end"),
        ],
    )
    def test_reader_matches_oracle_on_named_edits(self, tmp_path, edit):
        batch = sample(SourceConfig(LAM2, noise_epsilon=0.3, seed=71), 20_000)
        assert_reads_like_oracle(tmp_path / "pulses.csv", edit(oracle_log(tmp_path / "oracle.csv", batch)))

    def test_bad_line_in_later_read_block_is_numbered(self, tmp_path):
        batch = sample(SourceConfig(LAM2, seed=73), 20_000)
        path = tmp_path / "pulses.csv"
        path.write_bytes(replace_line(oracle_log(tmp_path / "oracle.csv", batch), 19_000, b"18999,2,2"))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 19001: ") + ".*'18999,2,2'"):
            read_pulse_log(path)

    @pytest.mark.parametrize(
        "data, line, quoted",
        [
            (HEADER + b"1" * 5000 + b"\r\n", 2, repr("1" * QUOTE_CHARS) + "..."),
            # CR-only line ends: the whole body is one line
            (HEADER + b"0,1,1,0,0,0\r" * 20, 2, repr(("0,1,1,0,0,0\r" * 7)[:QUOTE_CHARS]) + "..."),
            (HEADER + b"x" * QUOTE_CHARS, 2, repr("x" * QUOTE_CHARS)),  # at the limit, quoted whole
            (b"h" * 3000, 1, repr("h" * QUOTE_CHARS) + "..."),  # a header with no line end
        ],
        ids=["long-line", "cr-only-line-ends", "at-the-limit", "long-header"],
    )
    def test_refused_line_quote_is_cut(self, tmp_path, data, line, quoted):
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as excinfo:
            read_pulse_log(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}, line {line}: ") and message.endswith(f", got {quoted}")


class Refusal(Exception):
    pass


class RaisingParser:
    """Stands in for a command parser: a usage error raises `Refusal` with its message."""

    def error(self, message):
        raise Refusal(message)


def streamed_outcome(path):
    """`detect`'s streamed n_b histogram of the log, as a list, or the text of its usage error."""
    try:
        return cli._n_b_histogram(str(path), RaisingParser()).tolist()
    except Refusal as exc:
        return str(exc)


def whole_file_outcome(path):
    """What `detect` made of the log when it read the whole file at once: the
    non-ASCII check of all its bytes, the regex reader, then the n_b ceiling."""
    try:
        path.read_bytes().decode("ascii")
        n_b = oracles.read_pulse_log(path).n_b
    except UnicodeDecodeError as exc:
        return f"cannot read pulse log: {path}: not ASCII text: {exc}"
    except ValueError as exc:
        return f"cannot read pulse log: {exc}"
    over = np.flatnonzero(n_b > cli.MAX_COUNT)
    if over.size:
        return f"{path}, line {over[0] + 2}: n_b {n_b[over[0]]} exceeds the ceiling {cli.MAX_COUNT}"
    return np.bincount(n_b).tolist()


@pytest.fixture
def small_chunks(monkeypatch):
    """Sets the reader's chunk and block sizes in bytes, so that a log of a few KB crosses many boundaries."""

    def set_sizes(chunk, block=_LOG_READ_BYTES):
        monkeypatch.setattr(source, "_LOG_CHUNK_BYTES", chunk)
        monkeypatch.setattr(source, "_LOG_READ_BYTES", block)

    return set_sizes


CHUNKS = [1, 2, 3, 7, 64, 1000]


class TestStreamedPulseLog:
    """The chunked reader, with chunks of a few bytes, against the whole-file readers."""

    @pytest.fixture
    def log(self, tmp_path):
        batch = sample(SourceConfig(LAM2, noise_epsilon=0.3, seed=81), 300)
        return batch, oracle_log(tmp_path / "oracle.csv", batch)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("block", [1, 40, _LOG_READ_BYTES])
    def test_blocks_concatenate_to_the_batch(self, tmp_path, small_chunks, log, chunk, block):
        batch, data = log
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        small_chunks(chunk, block)
        blocks = list(source.pulse_log_blocks(path))
        assert [line for line, _ in blocks] == list(np.cumsum([2] + [len(rows) for _, rows in blocks[:-1]]))
        assert same_batch(read_pulse_log(path), batch)
        assert streamed_outcome(path) == np.bincount(batch.n_b).tolist()

    def test_bad_line_across_a_chunk_boundary(self, tmp_path, small_chunks, log):
        _, data = log
        data = replace_line(data, 40, b"39,1,1,0,0x,0")
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        small_chunks(data.index(b"0x") + 1)  # the chunk ends inside the bad token
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 41: ") + ".*'39,1,1,0,0x,0'"):
            read_pulse_log(path)
        assert streamed_outcome(path) == whole_file_outcome(path)

    @pytest.mark.parametrize("line", [0, 1, 150, 300], ids=["header", "first-row", "middle-row", "last-row"])
    def test_crlf_split_by_a_chunk_boundary(self, tmp_path, small_chunks, log, line):
        batch, data = log
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        at = sum(len(row) + 2 for row in data.split(b"\r\n")[:line]) + len(data.split(b"\r\n")[line])
        assert data[at : at + 2] == b"\r\n"
        small_chunks(at + 1)  # the first chunk ends with the CR, the next starts with the LF
        assert same_batch(read_pulse_log(path), batch)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: replace_line(d, 20, b"19,1\r,1,0,0,0"), id="lone-cr-in-a-row"),
            pytest.param(lambda d: replace_line(d, 20, b"19,1,1,0,0,0\r"), id="cr-before-crlf"),
            pytest.param(lambda d: d + b"\r", id="trailing-cr"),
            pytest.param(lambda d: d + b"\r\r\n\n\r", id="trailing-line-ends"),
            pytest.param(lambda d: d.replace(b"\r\n", b"\r"), id="cr-only-line-ends"),
            pytest.param(lambda d: d.replace(b"\r\n", b"\r", 1), id="header-ends-with-lone-cr"),
        ],
    )
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_cr_as_a_chunks_last_byte(self, tmp_path, small_chunks, log, edit, chunk):
        data = edit(log[1])
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        small_chunks(chunk)
        # every chunk size but 1000 ends some chunk with a CR
        assert chunk == 1000 or any(data[end - 1 : end] == b"\r" for end in range(chunk, len(data) + 1, chunk))
        assert read_outcome(read_pulse_log, path) == read_outcome(oracles.read_pulse_log, path)
        assert streamed_outcome(path) == whole_file_outcome(path)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("fault", [b"x", b"pulse_index"], ids=["bad-line", "bad-header"])
    def test_non_ascii_in_a_later_chunk_than_a_bad_line(self, tmp_path, small_chunks, log, chunk, fault):
        data = replace_line(replace_line(log[1], 0 if fault == b"pulse_index" else 3, fault), 250, b"249,1,\xff,0,0,0")
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        small_chunks(chunk)
        offset = data.index(b"\xff")
        with pytest.raises(ValueError) as excinfo:
            read_pulse_log(path)
        assert str(excinfo.value) == (
            f"{path}: not ASCII text: 'ascii' codec can't decode byte 0xff in position {offset}: "
            "ordinal not in range(128)"
        )
        assert streamed_outcome(path) == whole_file_outcome(path)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_count_above_the_ceiling_before_a_malformed_line(self, tmp_path, small_chunks, log, chunk, capsys):
        data = replace_line(replace_line(log[1], 5, b"4,1,%d,0,0,0" % (cli.MAX_COUNT + 1)), 200, b"199,1,1,0,0")
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        small_chunks(chunk)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["detect", "--lambda", "2", "--pulse-log", str(path)])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert f"{path}, line 201: expected 6 comma-separated counts >= 0, got '199,1,1,0,0'" in capsys.readouterr().err

    def test_count_above_the_ceiling_skips_the_histogram(self, tmp_path, small_chunks, log, monkeypatch):
        data = replace_line(log[1], 5, b"4,1,%d,0,0,0" % (1 << 40))
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        small_chunks(64)
        calls = []
        monkeypatch.setattr(cli.np, "bincount", lambda x: calls.append(x.max()) or np.zeros(1, np.int64))
        assert streamed_outcome(path) == f"{path}, line 6: n_b {1 << 40} exceeds the ceiling {cli.MAX_COUNT}"
        assert calls and max(calls) <= cli.MAX_COUNT  # blocks before the count's; none after it

    @settings(CODEC_SETTINGS, max_examples=60, derandomize=True)
    @given(
        batch=pulse_batches(sizes=st.sampled_from([1, 3, 40, 300]), max_digits=8),
        chunk=st.sampled_from(CHUNKS),
        block=st.sampled_from([1, 40, _LOG_READ_BYTES]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "lf", "empty-line"]),
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(b"0123456789,\r\n x\xff"),
            ),
            max_size=3,
        ),
    )
    def test_streamed_histogram_matches_whole_file_read(self, tmp_path, batch, chunk, block, edits):
        data = oracle_log(tmp_path / "oracle.csv", batch)
        for kind, where, byte in edits:
            at = int(where * len(data))
            if kind == "insert":
                data = data[:at] + bytes([byte]) + data[at:]
            elif kind == "delete":
                data = data[:at] + data[at + 1 :]
            elif kind == "lf":
                data = data[:at] + data[at:].replace(b"\r\n", b"\n")
            else:
                data = replace_line(data, at, b"")
        path = tmp_path / "pulses.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(source, "_LOG_CHUNK_BYTES", chunk)
            patch.setattr(source, "_LOG_READ_BYTES", block)
            assert streamed_outcome(path) == whole_file_outcome(path)
