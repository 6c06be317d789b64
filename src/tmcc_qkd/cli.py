"""Command-line front end: analytic sweeps, Monte Carlo scenarios, figure
data export, and two-process reconciliation.

Exit codes: 0 success/MATCH, 1 usage error, 2 reconciliation MISMATCH,
3 channel ABORT, 4 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import attacks, channel, detection, protocol
from .density_ops import distances
from .photon_stats import (
    IntensityParam,
    PhotonStatsError,
    _tmcc_moment_arrays,
    poisson_distribution,
    tmcc_distribution,
    tmcc_moments,
)
from .source import PulseSampler, SourceConfig, pulse_log_blocks, write_pulse_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_ABORT = 3
EXIT_INTERNAL = 4

CONFIG_ENV = "TMCC_QKD_CONFIG"
# one key bit per pulse, so every key file a scenario writes fits the XOR
# code's one frame; at its peak a scenario holds about 35 bytes per pulse, so
# this many pulses need about 600 MB, while `detect` reads its log in chunks
# of bounded size; larger counts are refused at parse time
MAX_PULSES = channel.MAX_KEY_BITS
# the largest n_b `detect` accepts from a pulse log: the count histogram has
# one bin per value up to the largest count, so this bounds it at 8 MiB
MAX_COUNT = 1 << 20
MAX_TIMEOUT = 1e9  # --timeout-secs ceiling: a socket refuses 2**63 ns (about 9.2e9 s) or more
_KEY_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"  # the ASCII bytes str.strip() removes; bytes.strip() keeps \x1c-\x1f
# flag defaults applied after the config file is merged, so that the file can set them;
# a command's `required` flags have none, so `lam` reaches only stats and figures
LATE_DEFAULTS = {"lam": 2.0, "epsilon": 0.0, "seed": 0, "figure": 1, "clone_strategy": "tmcc-clone",
                 "timeout_secs": channel.DEFAULT_TIMEOUT}


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """One CSV line per row, through one %-format built from the first row's
    types: 12 significant digits for a float column, str() for any other."""
    line = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n" if rows else ""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(line % row for row in rows))


def _value(args, flag: str):
    """The value of the command's flag `flag`, found through its parser's own flag table."""
    return getattr(args, args.parser._option_string_actions[flag].dest)


def _load_config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill in unset flags from a JSON config file (flags always win).

    A key is spelled as the flag of any command without its dashes; it applies
    to the commands that have the flag, converted and checked like the flag
    itself.  A switch such as --sweep takes true or false, any other flag a
    string or a number.  The file is read as UTF-8, the JSON encoding.
    """
    path = args.config or os.environ.get(CONFIG_ENV)
    if not path:
        return
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # a UTF-8 or JSON decode error, or nesting too deep
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path} must hold a JSON object")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for key, value in data.items():
        flag = f"--{key}"
        if flag == "--help" or not any(flag in p._option_string_actions for p in commands.choices.values()):
            parser.error(f"config file {path}: unknown key {key!r}")
        action = args.parser._option_string_actions.get(flag)
        if action is None or getattr(args, action.dest) is not None:
            continue
        if action.nargs == 0:  # a switch such as --sweep
            if not isinstance(value, bool):
                parser.error(f"config file {path}: {key!r} must be true or false, got {value!r}")
        else:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                parser.error(f"config file {path}: {key!r} must be a string or a number, got {value!r}")
            try:
                value = (action.type or str)(str(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                parser.error(f"config file {path}: invalid value {value!r} for {key!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"config file {path}: {key!r} must be one of {list(action.choices)}")
        setattr(args, action.dest, value)


def _checked(convert, check):
    """An argparse type: `convert` the text, then hand the value to `check`,
    whose ValueError becomes a usage error naming the flag (or config key)."""

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_VACUUM = IntensityParam(0.0)
_LAMBDA = _checked(float, IntensityParam)
_EPSILON = _checked(float, lambda eps: SourceConfig(_VACUUM, noise_epsilon=eps))
_SEED = _checked(int, lambda seed: SourceConfig(_VACUUM, seed=seed))
_SPLIT_P2 = _checked(float, attacks.SplitRatio.from_p_squared)


def _check_pulses(count: int) -> None:
    if not 2 <= count <= MAX_PULSES:
        raise ValueError(f"pulse count must be in [2, {MAX_PULSES}], got {count}")


def _check_timeout(seconds: float) -> None:
    if not 0 < seconds <= MAX_TIMEOUT:  # NaN fails it too
        raise ValueError(f"timeout must be in (0, {MAX_TIMEOUT:g}] seconds, got {seconds}")


def _host_port(text: str) -> tuple[str, int]:
    """argparse type for --listen and --peer."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected host:port with a port in [0, 65535], got {text!r}")
    return host, int(port)


_PULSES = _checked(int, _check_pulses)
_TIMEOUT = _checked(float, _check_timeout)


def _made_path(parser, flag: str, text: str, directory: bool = False) -> Path:
    """The path `text` of `flag`, with the directory it needs made: the path
    itself if `directory`, else the parent of the file it names.  A directory
    that cannot be made, or a file path that names a directory, is a usage
    error naming the flag."""
    path = Path(text)
    try:
        (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"{flag} {text}: cannot create the directory: {exc}")
    if not directory and path.is_dir():
        parser.error(f"{flag} {text}: is a directory, expected a file")
    return path


def _figure_rows(figure: int, lam: IntensityParam):
    if figure == 1:
        tmcc = tmcc_distribution(lam)
        pois = poisson_distribution(tmcc_moments(lam).mean)
        size = max(tmcc.probs.size, pois.probs.size)
        return (
            ["n", "p_tmcc", "p_poisson"],
            [(n, tmcc.prob(n), pois.prob(n)) for n in range(size)],
        )
    if figure == 2:
        mean, _, mandel_q = _tmcc_moment_arrays(np.linspace(0.05, 10.0, 100))
        return ["mean_n", "mandel_q"], list(zip(mean.tolist(), mandel_q.tolist()))
    if figure == 3:
        mean, variance, _ = _tmcc_moment_arrays(attacks._lambdas_for_means(np.linspace(8.0 / 50.0, 8.0, 50)))
        rows = zip(mean.tolist(), variance.tolist(), mean.tolist())  # Poisson variance = mean
        return ["mean_n", "sigma2_tmcc", "sigma2_poisson"], list(rows)
    if figure in (5, 6):
        ratios = [attacks.SplitRatio.from_p_squared(float(p_sq)) for p_sq in np.linspace(1.0, 0.0, 21)]
        # Bob's 21 laws, then Eve's; Bob's first (p = 1, no split) is the source law, the reference
        laws, _ = attacks._split_marginals(lam, ratios + [attacks.SplitRatio(r.q, r.p) for r in ratios])
        (hs_bob, hs_eve), (weak_bob, _) = (d.reshape(2, -1).tolist() for d in distances(laws, laws[0]))
        rows = list(zip([r.p for r in ratios], hs_bob, hs_eve, weak_bob))
        return _figure6(rows) if figure == 6 else (["p", "hs_dist_bob", "hs_dist_eve", "weak_dist"], rows)
    raise ValueError(f"unknown figure {figure}")


def _figure6(figure5_rows):
    """Figure 6 is figure 5's weak-distance column."""
    return ["p", "weak_dist"], [(p, w) for p, _, _, w in figure5_rows]


def cmd_stats(args, parser) -> int:
    _write_csv(_made_path(parser, "--out", args.out), *_figure_rows(args.figure, IntensityParam(args.lam)))
    return EXIT_OK


def cmd_figures(args, parser) -> int:
    out = _made_path(parser, "--out", args.out, directory=True)
    lam = IntensityParam(args.lam)
    for figure in (1, 2, 3, 5):
        header, rows = _figure_rows(figure, lam)
        _write_csv(out / f"figure{figure}.csv", header, rows)
    _write_csv(out / "figure6.csv", *_figure6(rows))  # rows: figure 5's, the last written
    return EXIT_OK


def _run_scenario(args, parser, sampler_type, *attack) -> int:
    """A `sampler_type` run on the source flags (with `attack`'s parameters,
    if any): pulse log, key files and detection report in the --out directory."""
    cfg = SourceConfig(IntensityParam(args.lam), noise_epsilon=args.epsilon, seed=args.seed)
    outdir = _made_path(parser, "--out", args.out, directory=True)
    batch = sampler_type(cfg, *attack).sample_batch(args.pulses)
    write_pulse_log(outdir / "pulses.csv", batch)
    threshold = protocol.ErrorModel(cfg.lam, cfg.noise_epsilon).threshold
    alice, bob = protocol.extract_keys(batch, threshold)
    (outdir / "alice.key").write_text(alice.to_bitstring() + "\n")
    (outdir / "bob.key").write_text(bob.to_bitstring() + "\n")
    return _report(args, cfg.lam, np.bincount(batch.n_b), outdir / "report.txt")


def _report(args, lam: IntensityParam, hist: np.ndarray, out: Path | None) -> int:
    """Detection report on the histogram of Bob's counts, to stdout and to `out` if given."""
    thresholds = detection.calibrate_thresholds(lam, int(hist.sum()), seed=args.seed + 1)
    text = detection.detect_histogram(hist, lam, thresholds).to_text()
    if out is not None:
        out.write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_simulate(args, parser) -> int:
    return _run_scenario(args, parser, PulseSampler)


def cmd_attack_split(args, parser) -> int:
    if args.sweep:  # figure 5's CSV, as stats --figure 5 writes it
        _write_csv(_made_path(parser, "--out", args.out), *_figure_rows(5, IntensityParam(args.lam)))
        return EXIT_OK
    for flag in ("--split-p2", "--pulses"):
        if _value(args, flag) is None:
            parser.error(f"{flag} is required without --sweep")
    return _run_scenario(args, parser, attacks.SplitPulseSampler, attacks.SplitRatio.from_p_squared(args.split_p2))


def cmd_attack_clone(args, parser) -> int:
    return _run_scenario(args, parser, attacks.ClonePulseSampler, attacks.CloneStrategy(args.clone_strategy))


def _n_b_histogram(path: str, parser) -> np.ndarray:
    """The histogram of the log's n_b column, folded block by block.  A line
    that is not a row is named before an n_b above MAX_COUNT, which is named
    only once the whole log has been read."""
    hist = np.zeros(0, np.int64)
    over = None  # the line and n_b of the first count above the ceiling
    try:
        for line, rows in pulse_log_blocks(path):
            n_b = rows[:, 1]
            if over is None and n_b.max() > MAX_COUNT:
                row = int(np.argmax(n_b > MAX_COUNT))
                over = (line + row, n_b[row])
            if over is None:
                block = np.bincount(n_b)
                if block.size > hist.size:
                    hist, block = block, hist
                hist[: block.size] += block
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read pulse log: {exc}")
    if over is not None:
        parser.error(f"{path}, line {over[0]}: n_b {over[1]} exceeds the ceiling {MAX_COUNT}")
    return hist


def cmd_detect(args, parser) -> int:
    hist = _n_b_histogram(args.pulse_log, parser)
    out = None if args.out is None else _made_path(parser, "--out", args.out)
    return _report(args, IntensityParam(args.lam), hist, out)


def _load_key(path: str, parser) -> protocol.KeyMaterial:
    try:
        data = Path(path).read_bytes()  # not np.fromfile, which refuses a pipe
    except OSError as exc:
        parser.error(f"cannot read key file {path}: {exc}")
    # the bits lie between the bytes strip() would remove, found by index so the file is not copied
    start, end = 0, len(data)
    while start < end and data[start] in _KEY_SPACE:
        start += 1
    while end > start and data[end - 1] in _KEY_SPACE:
        end -= 1
    bits = np.frombuffer(data, np.uint8, end - start, start) - ord("0")
    # any byte other than "0" or "1" wraps to a value above 1
    if bits.max(initial=0) > 1:
        try:  # a non-ASCII byte is named as decoding the file as text names it
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            parser.error(f"cannot read key file {path}: {exc}")
        parser.error(f"key file {path} must contain only 0/1 characters")
    # a key of 0 bits (1, once its odd bit goes) would reconcile as a MATCH
    if bits.size < 2:
        parser.error(f"key file {path} holds {bits.size} bits, need at least 2")
    return protocol.KeyMaterial.from_bits(bits)


_VERDICT_EXIT = {channel.ExchangeVerdict.MATCH: EXIT_OK, channel.ExchangeVerdict.MISMATCH: EXIT_MISMATCH,
                 channel.ExchangeVerdict.ABORT: EXIT_ABORT}


def _reconcile(args, parser, exchange, flag: str, role: str) -> int:
    """One reconciliation `exchange` on the --key file with the host:port of
    the address `flag`; the --transcript file's directory is made before any
    socket opens."""
    key = _load_key(args.key, parser)
    path = None if args.transcript is None else _made_path(parser, "--transcript", args.transcript)
    transcript = None if path is None else channel.Transcript()
    host, port = _value(args, flag)
    try:
        verdict = exchange(host, port, key, args.timeout_secs, transcript)
    except channel.KeySizeError as exc:  # raised for the initiator's key only
        parser.error(f"key file {args.key}: {exc}")
    except OSError as exc:  # serve's bind or either end's address lookup; other socket errors are ABORT
        parser.error(f"{flag} {host}:{port}: cannot {role}: {exc}")
    if path is not None:
        transcript.dump_hex(path)
    print(f"verdict={verdict.value}")
    return _VERDICT_EXIT[verdict]


class _Parser(argparse.ArgumentParser):
    """argparse parser with the documented usage-error exit code (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing keeps no state on it,
    and the config merge writes only to the parsed namespace."""
    parser = _Parser(prog="tmcc-qkd", description=__doc__)
    parser.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run=False, pulses=False):
        """--lambda and --out; with `run` the flags of a detection report, with `pulses` --pulses."""
        p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=None)
        p.add_argument("--out", default=None)
        if run:
            p.add_argument("--epsilon", type=_EPSILON, default=None)
            p.add_argument("--seed", type=_SEED, default=None)
        if pulses:
            p.add_argument("--pulses", type=_PULSES, default=None)

    p = sub.add_parser("stats", help="analytic figure data (figures 1, 2, 3, 5, 6) as CSV")
    common(p)
    p.add_argument("--figure", type=int, choices=(1, 2, 3, 5, 6), default=None)
    p.set_defaults(func=cmd_stats, parser=p, required=("--out",))

    p = sub.add_parser("figures", help="emit all figure CSVs into a directory")
    common(p)
    p.set_defaults(func=cmd_figures, parser=p, required=("--out",))

    p = sub.add_parser("simulate", help="clean end-to-end run: pulses, keys, detection report")
    common(p, run=True, pulses=True)
    p.set_defaults(func=cmd_simulate, parser=p, required=("--lambda", "--pulses", "--out"))

    p = sub.add_parser("attack-split", help="beam-splitting attack scenario or --sweep data")
    common(p, run=True, pulses=True)
    p.add_argument("--split-p2", type=_SPLIT_P2, default=None, help="fraction p^2 kept by Bob")
    p.add_argument("--sweep", action="store_true", default=None)
    p.set_defaults(func=cmd_attack_split, parser=p, required=("--lambda", "--out"))

    p = sub.add_parser("attack-clone", help="state-cloning attack scenario")
    common(p, run=True, pulses=True)
    p.add_argument("--clone-strategy", choices=[s.value for s in attacks.CloneStrategy], default=None)
    p.set_defaults(func=cmd_attack_clone, parser=p, required=("--lambda", "--pulses", "--out"))

    p = sub.add_parser("detect", help="detection report from an existing pulse log")
    common(p, run=True)
    p.add_argument("--pulse-log", default=None)
    p.set_defaults(func=cmd_detect, parser=p, required=("--lambda", "--pulse-log"))

    for name, exchange, address, role in (
        ("reconcile-serve", channel.serve_reconciliation, "--listen", "bind"),
        ("reconcile-connect", channel.connect_reconciliation, "--peer", "connect to"),
    ):
        p = sub.add_parser(name, help="two-process XOR-code reconciliation")
        p.add_argument("--key", default=None, help="key file of 0/1 characters")
        p.add_argument(address, type=_host_port, default=None, help=f"host:port to {role}")
        p.add_argument("--timeout-secs", type=_TIMEOUT, default=None)
        p.add_argument("--transcript", default=None, help="write hex frame transcript here")
        func = functools.partial(_reconcile, exchange=exchange, flag=address, role=role)
        p.set_defaults(func=func, parser=p, required=("--key", address))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _load_config_defaults(args, parser)
    for flag in args.required:
        if _value(args, flag) is None:
            args.parser.error(f"{flag} is required for this command")
    for attr, default in LATE_DEFAULTS.items():
        if getattr(args, attr, default) is None:
            setattr(args, attr, default)
    try:
        # a handler's late usage errors go through its own command's parser,
        # so they print that command's usage line
        return args.func(args, args.parser)
    except (PhotonStatsError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
