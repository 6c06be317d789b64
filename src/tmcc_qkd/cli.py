"""Command-line front end: analytic sweeps, Monte Carlo scenarios, figure
data export, and two-process reconciliation.

Exit codes: 0 success/MATCH, 1 usage error, 2 reconciliation MISMATCH,
3 channel ABORT, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import attacks, channel, detection, protocol
from .density_ops import hs_distance_sq, weak_distance
from .photon_stats import (
    IntensityParam,
    PhotonStatsError,
    _tmcc_moment_arrays,
    poisson_distribution,
    tmcc_distribution,
    tmcc_moments,
)
from .source import PulseSampler, SourceConfig, read_pulse_log, write_pulse_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_ABORT = 3
EXIT_INTERNAL = 4

CONFIG_ENV = "TMCC_QKD_CONFIG"
# at their peaks a scenario holds about 35 bytes per pulse and `detect` about
# 60, so 1e8 pulses need about 6 GB; larger counts are refused at parse time
MAX_PULSES = 100_000_000
# the largest n_b `detect` accepts from a pulse log: the count histogram has
# one bin per value up to the largest count, so this bounds it at 8 MiB
MAX_COUNT = 1 << 20
# flag defaults applied after the config file is merged, so that the file can set them
LATE_DEFAULTS = {"seed": 0, "calibration_trials": 10_000, "timeout_secs": channel.DEFAULT_TIMEOUT}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _load_config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill in unset flags from a JSON config file (flags always win).

    A key may name a flag of any command; it applies to the commands that
    have the flag, converted and checked like the flag itself; a switch
    such as --sweep takes true or false.
    """
    path = args.config or os.environ.get(CONFIG_ENV)
    if not path:
        return
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path} must hold a JSON object")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {a.dest: a for a in sub._actions} for name, sub in commands.choices.items()}
    for key, value in data.items():
        attr = "lam" if key == "lambda" else key.replace("-", "_")
        if attr == "help" or not any(attr in f for f in flags.values()):
            parser.error(f"config file {path}: unknown key {key!r}")
        action = flags[args.command].get(attr)
        if action is None or getattr(args, attr) is not None:
            continue
        if action.nargs == 0:  # a switch such as --sweep
            if not isinstance(value, bool):
                parser.error(f"config file {path}: {key!r} must be true or false, got {value!r}")
        else:
            try:
                value = (action.type or str)(str(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                parser.error(f"config file {path}: invalid value {value!r} for {key!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"config file {path}: {key!r} must be one of {list(action.choices)}")
        setattr(args, attr, value)


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
_TRIALS = _checked(int, detection.check_trials)


def _check_pulses(count: int) -> None:
    if not 2 <= count <= MAX_PULSES:
        raise ValueError(f"pulse count must be in [2, {MAX_PULSES}], got {count}")


def _check_timeout(seconds: float) -> None:
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"timeout must be a finite number of seconds > 0, got {seconds}")


def _host_port(text: str) -> tuple[str, int]:
    """argparse type for --listen and --peer."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected host:port with a port in [0, 65535], got {text!r}")
    return host, int(port)


_PULSES = _checked(int, _check_pulses)
_TIMEOUT = _checked(float, _check_timeout)


def _intensity(args, parser, default: float | None = None) -> IntensityParam:
    if args.lam is None and default is None:
        parser.error("--lambda is required for this command")
    return IntensityParam(default if args.lam is None else args.lam)


def _out_path(args, parser, directory: bool = False) -> Path:
    """--out, with the directory it needs made: --out itself if `directory`,
    else the parent of the file it names.  A directory that cannot be made,
    or a file path that names a directory, is a usage error naming --out."""
    if args.out is None:
        parser.error("--out is required for this command")
    out = Path(args.out)
    try:
        (out if directory else out.parent).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {args.out}: cannot create the directory: {exc}")
    if not directory and out.is_dir():
        parser.error(f"--out {args.out}: is a directory, expected a file")
    return out


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
        original = tmcc_distribution(lam)
        ratios = [attacks.SplitRatio.from_p_squared(float(p_sq)) for p_sq in np.linspace(1.0, 0.0, 21)]
        bobs = attacks._split_marginals(lam, ratios)
        eves = attacks._split_marginals(lam, [attacks.SplitRatio(r.q, r.p) for r in ratios])
        rows = [
            (r.p, hs_distance_sq(bob, original), hs_distance_sq(eve, original), weak_distance(bob, original))
            for r, bob, eve in zip(ratios, bobs, eves)
        ]
        return _figure6(rows) if figure == 6 else (["p", "hs_dist_bob", "hs_dist_eve", "weak_dist"], rows)
    raise ValueError(f"unknown figure {figure}")


def _figure6(figure5_rows):
    """Figure 6 is figure 5's weak-distance column."""
    return ["p", "weak_dist"], [(p, w) for p, _, _, w in figure5_rows]


def cmd_stats(args, parser) -> int:
    figure = args.figure if args.figure is not None else 1
    lam = _intensity(args, parser, default=2.0)
    out = _out_path(args, parser)
    _write_csv(out, *_figure_rows(figure, lam))
    return EXIT_OK


def cmd_figures(args, parser) -> int:
    out = _out_path(args, parser, directory=True)
    lam = _intensity(args, parser, default=2.0)
    for figure in (1, 2, 3, 5):
        header, rows = _figure_rows(figure, lam)
        _write_csv(out / f"figure{figure}.csv", header, rows)
    _write_csv(out / "figure6.csv", *_figure6(rows))  # rows: figure 5's, the last written
    return EXIT_OK


def _run_scenario(args, parser, sampler, outdir: Path, lam: IntensityParam) -> int:
    batch = sampler.sample_batch(args.pulses)
    write_pulse_log(outdir / "pulses.csv", batch)
    threshold = protocol.ErrorModel(lam, sampler.cfg.noise_epsilon).threshold
    alice, bob = protocol.extract_keys(batch, threshold)
    (outdir / "alice.key").write_text(alice.to_bitstring() + "\n")
    (outdir / "bob.key").write_text(bob.to_bitstring() + "\n")
    return _report(args, lam, batch.n_b, outdir / "report.txt")


def _report(args, lam: IntensityParam, counts: np.ndarray, out: Path | None) -> int:
    """Detection report on Bob's counts, to stdout and to `out` if given.

    Calibration uses at least MIN_PULSES pulses: below that the verdict is
    INSUFFICIENT_DATA whatever the thresholds.
    """
    thresholds = detection.calibrate_thresholds(
        lam, pulses=max(len(counts), detection.MIN_PULSES),
        trials=args.calibration_trials, seed=args.seed + 1,
    )
    text = detection.detect(counts, lam, thresholds).to_text()
    if out is not None:
        out.write_text(text)
    print(text, end="")
    return EXIT_OK


def _scenario_args(args, parser):
    lam = _intensity(args, parser)
    if args.pulses is None:
        parser.error("--pulses is required for this command")
    cfg = SourceConfig(lam, noise_epsilon=args.epsilon or 0.0, seed=args.seed)
    return lam, cfg, _out_path(args, parser, directory=True)


def cmd_simulate(args, parser) -> int:
    lam, cfg, outdir = _scenario_args(args, parser)
    return _run_scenario(args, parser, PulseSampler(cfg), outdir, lam)


def cmd_attack_split(args, parser) -> int:
    lam = _intensity(args, parser)
    if args.sweep:
        if Path(args.out or "").suffix:  # a path with a suffix names the file, any other a directory
            path = _out_path(args, parser)
        else:
            path = _out_path(args, parser, directory=True) / "split_sweep.csv"
        _write_csv(path, *_figure_rows(5, lam))
        return EXIT_OK
    if args.split_p2 is None:
        parser.error("--split-p2 is required without --sweep")
    lam, cfg, outdir = _scenario_args(args, parser)
    r = attacks.SplitRatio.from_p_squared(args.split_p2)
    return _run_scenario(args, parser, attacks.SplitPulseSampler(cfg, r), outdir, lam)


def cmd_attack_clone(args, parser) -> int:
    lam, cfg, outdir = _scenario_args(args, parser)
    strategy = attacks.CloneStrategy(args.clone_strategy or "tmcc-clone")
    return _run_scenario(args, parser, attacks.ClonePulseSampler(cfg, strategy), outdir, lam)


def cmd_detect(args, parser) -> int:
    lam = _intensity(args, parser)
    if args.pulse_log is None:
        parser.error("--pulse-log is required for detect")
    try:
        counts = read_pulse_log(args.pulse_log).n_b
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read pulse log: {exc}")
    too_big = counts > MAX_COUNT
    if too_big.any():
        row = int(np.argmax(too_big))  # the first; line 1 is the header
        parser.error(f"{args.pulse_log}, line {row + 2}: n_b {counts[row]} exceeds the ceiling {MAX_COUNT}")
    return _report(args, lam, counts, None if args.out is None else _out_path(args, parser))


def _load_key(path: str, parser) -> protocol.KeyMaterial:
    try:
        text = Path(path).read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read key file {path}: {exc}")
    bits = np.frombuffer(text.encode(), np.uint8) - ord("0")
    # any byte other than "0" or "1" wraps to a value above 1
    if (bits > 1).any():
        parser.error(f"key file {path} must contain only 0/1 characters")
    return protocol.KeyMaterial.from_bits(bits)


def _exchange_exit(verdict: channel.ExchangeVerdict) -> int:
    if verdict is channel.ExchangeVerdict.MATCH:
        return EXIT_OK
    if verdict is channel.ExchangeVerdict.MISMATCH:
        return EXIT_MISMATCH
    return EXIT_ABORT


def cmd_reconcile_serve(args, parser) -> int:
    if args.listen is None or args.key is None:
        parser.error("reconcile-serve requires --listen and --key")
    key = _load_key(args.key, parser)
    transcript = channel.Transcript() if args.transcript else None
    verdict = channel.serve_reconciliation(*args.listen, key, args.timeout_secs, transcript)
    if transcript is not None:
        transcript.dump_hex(args.transcript)
    print(f"verdict={verdict.value}")
    return _exchange_exit(verdict)


def cmd_reconcile_connect(args, parser) -> int:
    if args.peer is None or args.key is None:
        parser.error("reconcile-connect requires --peer and --key")
    key = _load_key(args.key, parser)
    transcript = channel.Transcript() if args.transcript else None
    try:
        verdict = channel.connect_reconciliation(*args.peer, key, args.timeout_secs, transcript)
    except channel.KeySizeError as exc:
        parser.error(f"key file {args.key}: {exc}")
    if transcript is not None:
        transcript.dump_hex(args.transcript)
    print(f"verdict={verdict.value}")
    return _exchange_exit(verdict)


class _Parser(argparse.ArgumentParser):
    """argparse parser with the documented usage-error exit code (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tmcc-qkd", description=__doc__)
    parser.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pulses=False):
        p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=None)
        p.add_argument("--epsilon", type=_EPSILON, default=None)
        p.add_argument("--seed", type=_SEED, default=None)
        p.add_argument("--out", default=None)
        if pulses:
            p.add_argument("--pulses", type=_PULSES, default=None)
            p.add_argument("--calibration-trials", type=_TRIALS, default=None)

    p = sub.add_parser("stats", help="analytic figure data (figures 1, 2, 3, 5, 6) as CSV")
    common(p)
    p.add_argument("--figure", type=int, choices=(1, 2, 3, 5, 6), default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("figures", help="emit all figure CSVs into a directory")
    common(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("simulate", help="clean end-to-end run: pulses, keys, detection report")
    common(p, pulses=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack-split", help="beam-splitting attack scenario or --sweep data")
    common(p, pulses=True)
    p.add_argument("--split-p2", type=_SPLIT_P2, default=None, help="fraction p^2 kept by Bob")
    p.add_argument("--sweep", action="store_true", default=None)
    p.set_defaults(func=cmd_attack_split)

    p = sub.add_parser("attack-clone", help="state-cloning attack scenario")
    common(p, pulses=True)
    p.add_argument(
        "--clone-strategy",
        choices=[s.value for s in attacks.CloneStrategy],
        default=None,
    )
    p.set_defaults(func=cmd_attack_clone)

    p = sub.add_parser("detect", help="detection report from an existing pulse log")
    common(p)
    p.add_argument("--pulse-log", default=None)
    p.add_argument("--calibration-trials", type=_TRIALS, default=None)
    p.set_defaults(func=cmd_detect)

    for name, fn in (("reconcile-serve", cmd_reconcile_serve), ("reconcile-connect", cmd_reconcile_connect)):
        p = sub.add_parser(name, help="two-process XOR-code reconciliation")
        p.add_argument("--key", default=None, help="key file of 0/1 characters")
        p.add_argument("--listen", type=_host_port, default=None, help="host:port to bind (serve)")
        p.add_argument("--peer", type=_host_port, default=None, help="host:port to connect (connect)")
        p.add_argument("--timeout-secs", type=_TIMEOUT, default=None)
        p.add_argument("--transcript", default=None, help="write hex frame transcript here")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _load_config_defaults(args, parser)
    for attr, default in LATE_DEFAULTS.items():
        if getattr(args, attr, default) is None:
            setattr(args, attr, default)
    try:
        return args.func(args, parser)
    except (PhotonStatsError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
