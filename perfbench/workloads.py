"""The benchmark's three closed-loop workloads.

Each workload is a fixed pass of operations that is repeated until the run's
time is up; one client issues the next operation only after the previous one
has completed.  An operation is a `call` (timed: the program's work only),
its `outputs` (the files and bytes it produced, for the digest) and a `check`
(untimed: reads the outputs, raises `CheckFailed` if they are wrong, and
returns the detection verdict).  All constants the checks need are computed
in `prepare`, before any tracing, so that checks never show up in the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import math
import queue
import shutil
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from tmcc_qkd import attacks, channel, cli, protocol
from tmcc_qkd.photon_stats import IntensityParam, tmcc_moments

CLEAN, SPLIT, CLONE = "clean", "suspect-split", "suspect-clone"


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


class ProgramFailed(Exception):
    """The program raised or exited nonzero; the run continues."""


class Op(NamedTuple):
    label: str  # unique within a pass; names the operation in digests and failures
    kind: str  # timings are grouped by kind
    call: Callable[[], object]
    outputs: Callable[[object], list]  # call's value -> paths or bytes to digest
    check: Callable[[object], Optional[str]]  # call's value -> detection verdict or None
    expected: Optional[str] = None  # expected detection verdict, if the op has one


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _clear_lambda_cache() -> None:
    """Every CLI process starts with an empty `lambda_of_n` cache."""
    cache_clear = getattr(getattr(attacks, "lambda_of_n", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def _probs(matrix) -> np.ndarray:
    """Diagonal of a density matrix, or the probabilities of a distribution."""
    return np.asarray(getattr(matrix, "diag", matrix).probs, dtype=float)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.tracer = tracer

    def params(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Make the inputs from the seed and compute the check constants."""

    def start_pass(self) -> None:
        """Untimed work before each pass: an empty output directory."""
        _fresh_dir(self.out)

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def summary(self, results) -> dict:
        """The workload's own end-to-end timings, {name: (value, unit)}."""
        return {}

    def layer_values(self) -> dict:
        """Per-layer values the benchmark computes itself, {name: value}."""
        return {}

    def _cli_call(self, argv: list[str]) -> Callable[[], str]:
        """A call of `cli.main(argv)` that returns its stdout; a nonzero exit
        raises `ProgramFailed`."""

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), self.tracer.span("cli"):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != 0:
                message = err.getvalue().strip().splitlines()
                raise ProgramFailed(f"exit {code}: {message[-1] if message else ''}")
            return out.getvalue()

        return call


# ---------------------------------------------------------------- mc-pipeline


class McPipeline(Workload):
    """`cli.main` runs simulate, attack-split, attack-clone and detect at
    lambda 2, epsilon 0.05 and 5e4 pulses, plus a high-lambda attack-clone
    probe.  At the ROADMAP's 2e5 pulses only three or four passes fit in a
    run and the run-to-run spread of the pass time was three times larger;
    every per-pulse cost scales with the pulse count, so the layer shares
    stay the same."""

    name = "mc-pipeline"
    LAM = 2.0
    EPS = 0.05
    PULSES = 50_000
    SPLIT_P2 = 0.5
    HI_LAM = 45.0
    HI_PULSES = 10_000
    WARMUP_PULSES = 2_000
    LOG_HEADER = "pulse_index,n_a,n_b,n_e,noise_a,noise_b"

    def params(self) -> dict:
        return {
            "lambda": self.LAM, "epsilon": self.EPS, "pulses": self.PULSES,
            "split_p2": self.SPLIT_P2, "clone_strategy": "tmcc-clone",
            "calibration_trials": "cli default", "cli_seed": self.cli_seed,
            "hi_probe": {"lambda": self.HI_LAM, "pulses": self.HI_PULSES},
        }

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.cli_seed = seed % 2**62
        self.disagreement_ratios: list[float] = []
        self._base = None
        self._sim_report = None

    def prepare(self) -> None:
        self.threshold = {
            lam: int(math.floor(tmcc_moments(IntensityParam(lam)).mean))
            for lam in (self.LAM, self.HI_LAM)
        }
        model = protocol.ErrorModel(IntensityParam(self.LAM), self.EPS)
        self.expected_disagreement = protocol.expected_disagreement_rate(model)
        # one small untimed pass so first-call costs stay out of the timings
        self.start_pass()
        for op in self.pass_ops(self.WARMUP_PULSES, self.WARMUP_PULSES):
            with contextlib.suppress(Exception):
                op.check(op.call())
        self.disagreement_ratios.clear()

    def start_pass(self) -> None:
        super().start_pass()
        (self.out / "detect").mkdir()
        self._base = None
        self._sim_report = None

    def _cli_call(self, argv: list[str]) -> Callable[[], str]:
        call = super()._cli_call(argv)

        def cold_call():
            _clear_lambda_cache()
            return call()

        return cold_call

    def _scenario(self, command: str, out: Path, lam: float, pulses: int, *extra: str) -> Callable:
        return self._cli_call([
            command, "--lambda", repr(lam), "--epsilon", repr(self.EPS),
            "--pulses", str(pulses), "--seed", str(self.cli_seed), "--out", str(out), *extra,
        ])

    def pass_ops(self, n: int = PULSES, hi_n: int = HI_PULSES) -> list[Op]:
        w = self.out
        sim, split, clone, det, hi = (w / "simulate", w / "split", w / "clone", w / "detect", w / "clone-hi")
        lam = self.LAM
        detect = self._cli_call([
            "detect", "--lambda", repr(lam), "--pulse-log", str(sim / "pulses.csv"),
            "--seed", str(self.cli_seed), "--out", str(det / "report.txt"),
        ])

        def files(out: Path, names=("pulses.csv", "alice.key", "bob.key", "report.txt")):
            return lambda stdout: [stdout.encode(), *(out / name for name in names)]

        return [
            Op("simulate", "simulate", self._scenario("simulate", sim, lam, n), files(sim),
               lambda stdout: self._check_scenario(sim, stdout, lam, n, "clean"), CLEAN),
            Op("attack-split", "attack_split",
               self._scenario("attack-split", split, lam, n, "--split-p2", repr(self.SPLIT_P2)), files(split),
               lambda stdout: self._check_scenario(split, stdout, lam, n, "split"), SPLIT),
            Op("attack-clone", "attack_clone",
               self._scenario("attack-clone", clone, lam, n, "--clone-strategy", "tmcc-clone"), files(clone),
               lambda stdout: self._check_scenario(clone, stdout, lam, n, "clone"), CLONE),
            Op("detect", "detect", detect, files(det, ("report.txt",)),
               lambda stdout: self._check_detect(det, stdout, n), CLEAN),
            Op("attack-clone-hi", "attack_clone_hi",
               self._scenario("attack-clone", hi, self.HI_LAM, hi_n, "--clone-strategy", "tmcc-clone"), files(hi),
               lambda stdout: self._check_scenario(hi, stdout, self.HI_LAM, hi_n, "clone"), CLONE),
        ]

    @staticmethod
    def _report(text: str) -> dict:
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        _require("verdict" in fields and "pulse_count" in fields, "report lacks verdict or pulse_count")
        return fields

    def _check_scenario(self, out: Path, stdout: str, lam: float, pulses: int, relation: str):
        log = out / "pulses.csv"
        with open(log, newline="") as fh:
            _require(fh.readline().rstrip("\r\n") == self.LOG_HEADER, f"{log}: bad header")
            rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        _require(rows.shape == (pulses, 6), f"{log}: {rows.shape[0] + 1} rows, expected {pulses + 1}")
        index, n_a, n_b, n_e, noise_a, noise_b = rows.T
        _require(np.array_equal(index, np.arange(pulses)), f"{log}: pulse_index is not 0..N-1")
        _require(np.isin(noise_a, (0, 1)).all() and np.isin(noise_b, (0, 1)).all(), f"{log}: noise flag not 0/1")
        base = n_a - noise_a
        _require((base >= 0).all() and (n_e >= 0).all() and (n_b - noise_b >= 0).all(), f"{log}: negative count")
        if relation == "clean":
            _require(np.array_equal(n_b - noise_b, base) and not n_e.any(), f"{log}: Bob's base count differs from Alice's")
        elif relation == "split":
            _require(np.array_equal(n_b - noise_b + n_e, base), f"{log}: Bob and Eve do not share the split count")
        else:
            _require(np.array_equal(n_e, base), f"{log}: Eve's count differs from the base count")
        if lam == self.LAM:
            if relation == "clean":
                self._base = base
            elif self._base is not None:
                _require(np.array_equal(base, self._base), f"{log}: base counts differ from simulate's")

        threshold = self.threshold[lam]
        keys = []
        for party, counts in (("alice", n_a), ("bob", n_b)):
            text = (out / f"{party}.key").read_text()
            expected = ((counts > threshold).astype(np.uint8) + ord("0")).tobytes().decode()
            _require(text == expected + "\n", f"{out}/{party}.key does not hold the {pulses} threshold bits")
            keys.append(counts > threshold)
        if relation == "clean":
            observed = float(np.mean(keys[0] != keys[1]))
            self.disagreement_ratios.append(observed / self.expected_disagreement)

        report_text = (out / "report.txt").read_text()
        _require(stdout == report_text, f"{out}: stdout differs from report.txt")
        report = self._report(report_text)
        _require(int(report["pulse_count"]) == pulses, f"{out}: report pulse_count is wrong")
        mean_b = float(n_b.mean())
        _require(math.isclose(float(report["empirical_mean"]), mean_b, rel_tol=1e-9, abs_tol=1e-12),
                 f"{out}: report empirical_mean is not the mean of n_b")
        if relation == "clean":
            self._sim_report = report_text
        return report["verdict"]

    def _check_detect(self, det: Path, stdout: str, pulses: int):
        report_text = (det / "report.txt").read_text()
        _require(stdout == report_text, "detect: stdout differs from its report file")
        if self._sim_report is not None:
            _require(report_text == self._sim_report, "detect: report differs from simulate's report")
        report = self._report(report_text)
        _require(int(report["pulse_count"]) == pulses, "detect: report pulse_count is wrong")
        return report["verdict"]

    def summary(self, results) -> dict:
        med = {
            kind: _median([r.seconds for r in results if r.kind == kind])
            for kind in ("simulate", "attack_split", "attack_clone", "detect", "attack_clone_hi")
        }
        scenario_s = med["simulate"] + med["attack_split"] + med["attack_clone"]
        return {
            "simulate_s": (med["simulate"], "s"),
            "attack_split_s": (med["attack_split"], "s"),
            "attack_clone_s": (med["attack_clone"], "s"),
            "detect_s": (med["detect"], "s"),
            "attack_clone_hi_s": (med["attack_clone_hi"], "s"),
            "pulses_per_s": (3 * self.PULSES / scenario_s if scenario_s else 0.0, "1/s"),
        }

    def layer_values(self) -> dict:
        ratios = self.disagreement_ratios
        return {"protocol.disagreement_ratio": sum(ratios) / len(ratios) if ratios else 0.0}


# --------------------------------------------------------- reconcile-loopback


class ReconcileLoopback(Workload):
    """Loopback XOR-code exchanges: a responder thread serves, the main thread
    connects; keys are loaded from 0/1 key files as `reconcile-*` loads them."""

    name = "reconcile-loopback"
    HOST = "127.0.0.1"
    SIZES = {"small": 10_000, "large": 200_000}
    # most pairs match; one has a flipped bit, one a length mismatch
    PAIRS = ("match", "match", "match", "match", "flip", "length")
    ROUNDS = {"small": 4, "large": 1}

    def params(self) -> dict:
        return {"host": self.HOST, "bits": self.SIZES, "pairs": self.PAIRS, "rounds_per_pass": self.ROUNDS,
                "timeout_s": channel.DEFAULT_TIMEOUT}

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.pairs = {size: [] for size in self.SIZES}
        keydir = _fresh_dir(self.workdir / "keys")
        for size, bits in self.SIZES.items():
            for i, kind in enumerate(self.PAIRS):
                alice = rng.integers(0, 2, bits, dtype=np.uint8)
                bob = alice.copy()
                if kind == "flip":
                    bob[rng.integers(bits)] ^= 1
                elif kind == "length":
                    bob = bob[:-2]
                paths = (keydir / f"{size}-{i}-alice.key", keydir / f"{size}-{i}-bob.key")
                for path, key in zip(paths, (alice, bob)):
                    path.write_text((key + ord("0")).tobytes().decode() + "\n")
                expected = channel.ExchangeVerdict.MATCH if kind == "match" else channel.ExchangeVerdict.MISMATCH
                self.pairs[size].append((i, kind, paths, expected))
        self._parser = cli.build_parser()

    def _load(self, path: Path):
        with self.tracer.span("protocol.key_load_s"):
            try:
                return cli._load_key(str(path), self._parser)
            except SystemExit as exc:
                raise ProgramFailed(f"loading {path} exited {exc.code}") from None

    def _exchange(self, alice_path: Path, bob_path: Path):
        timeout = channel.DEFAULT_TIMEOUT
        ready: queue.Queue = queue.Queue()
        box: dict = {}

        def responder():
            try:
                key = self._load(bob_path)
                box["verdict"] = channel.serve_reconciliation(
                    self.HOST, 0, key, timeout, ready_callback=ready.put
                )
            except Exception as exc:
                box["error"] = exc
                ready.put(None)

        thread = threading.Thread(target=responder, name="responder")
        thread.start()
        try:
            # Load only once the responder listens: in one interpreter two
            # concurrent loads just contend for the GIL, and that made the
            # exchange times unsteady.
            port = ready.get(timeout=timeout)
            if port is None:
                raise ProgramFailed(f"responder failed: {box.get('error')!r}")
            key = self._load(alice_path)
            initiator = channel.connect_reconciliation(self.HOST, port, key, timeout)
        finally:
            thread.join(timeout + 5.0)
        if thread.is_alive():
            raise ProgramFailed("responder did not finish")
        if "error" in box:
            raise ProgramFailed(f"responder failed: {box['error']!r}")
        verdicts = (initiator, box["verdict"])
        self.tracer.add("channel.aborts", sum(v is channel.ExchangeVerdict.ABORT for v in verdicts))
        return verdicts

    def pass_ops(self) -> list[Op]:
        ops = []
        for size in self.SIZES:
            for rnd in range(self.ROUNDS[size]):
                for i, kind, (alice, bob), expected in self.pairs[size]:

                    def check(verdicts, expected=expected, label=f"{size}-{i}"):
                        _require(all(v is expected for v in verdicts),
                                 f"exchange {label}: verdicts {[v.value for v in verdicts]}, expected {expected.value}")

                    ops.append(Op(f"{size}-{i}-{kind}-r{rnd}", f"reconcile_{size}",
                                  lambda alice=alice, bob=bob: self._exchange(alice, bob),
                                  lambda verdicts, alice=alice, bob=bob: [
                                      alice, bob, ",".join(v.value for v in verdicts).encode()],
                                  check))
        return ops

    def summary(self, results) -> dict:
        return {
            f"reconcile_{size}_s": (_median([r.seconds for r in results if r.kind == f"reconcile_{size}"]), "s")
            for size in self.SIZES
        }


# ------------------------------------------------------------------- analytic


class Analytic(Workload):
    """Figure data, split sweeps and clone density matrices over a lambda grid."""

    name = "analytic"
    LAMBDAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0)
    FIGURES = {  # header, rows (None: one row per photon number up to the cutoff)
        1: ("n,p_tmcc,p_poisson", None),
        2: ("mean_n,mandel_q", 100),
        3: ("mean_n,sigma2_tmcc,sigma2_poisson", 50),
        5: ("p,hs_dist_bob,hs_dist_eve,weak_dist", 21),
        6: ("p,weak_dist", 21),
    }

    def params(self) -> dict:
        return {"lambdas": self.LAMBDAS, "order": self.order, "strategies": [s.value for s in attacks.CloneStrategy],
                "lambda_of_n_cache": "cleared at the start of each pass"}

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.order = [self.LAMBDAS[i] for i in rng.permutation(len(self.LAMBDAS))]
        self.expected_mean = {lam: tmcc_moments(IntensityParam(lam)).mean for lam in self.LAMBDAS}

    def start_pass(self) -> None:
        super().start_pass()
        _clear_lambda_cache()

    def pass_ops(self) -> list[Op]:
        ops = []
        for lam in self.order:
            figdir = self.out / f"figures-{lam:g}"
            sweep = self.out / f"sweep-{lam:g}.csv"
            ops.append(Op(f"figures@{lam:g}", "figures",
                          self._cli_call(["figures", "--lambda", repr(lam), "--out", str(figdir)]),
                          lambda _, figdir=figdir: [figdir / f"figure{k}.csv" for k in self.FIGURES],
                          lambda _, figdir=figdir: self._check_figures(figdir)))
            ops.append(Op(f"split-sweep@{lam:g}", "split_sweep",
                          self._cli_call(["attack-split", "--lambda", repr(lam), "--sweep", "--out", str(sweep)]),
                          lambda _, sweep=sweep: [sweep],
                          lambda _, sweep=sweep, figdir=figdir: self._check_sweep(sweep, figdir)))
            for strategy in attacks.CloneStrategy:
                ops.append(Op(f"clone-matrix@{lam:g}:{strategy.value}", "clone_matrix",
                              lambda lam=lam, strategy=strategy: attacks.cloned_bob_matrix(IntensityParam(lam), strategy),
                              lambda matrix: [",".join(f"{p:.12g}" for p in _probs(matrix)).encode()],
                              lambda matrix, lam=lam: self._check_matrix(matrix, lam)))
        return ops

    def _check_figures(self, figdir: Path):
        tables = {}
        for figure, (header, rows) in self.FIGURES.items():
            path = figdir / f"figure{figure}.csv"
            with open(path) as fh:
                _require(fh.readline().rstrip("\n") == header, f"{path}: bad header")
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            _require(table.shape[1] == header.count(",") + 1 and np.isfinite(table).all(), f"{path}: bad values")
            if rows is None:
                _require(np.array_equal(table[:, 0], np.arange(table.shape[0])), f"{path}: n is not 0..cutoff")
                _require(abs(table[:, 1].sum() - 1.0) < 1e-9, f"{path}: TMCC probabilities do not sum to 1")
            else:
                _require(table.shape[0] == rows, f"{path}: {table.shape[0]} rows, expected {rows}")
            tables[figure] = table
        _require(np.array_equal(tables[6], tables[5][:, [0, 3]]), f"{figdir}: figure 6 is not figure 5's weak column")

    def _check_sweep(self, sweep: Path, figdir: Path):
        figure5 = figdir / "figure5.csv"
        if figure5.exists():
            _require(sweep.read_bytes() == figure5.read_bytes(), f"{sweep}: differs from {figure5}")
        else:
            _require(sweep.read_text().startswith(self.FIGURES[5][0] + "\n"), f"{sweep}: bad header")

    def _check_matrix(self, matrix, lam: float):
        probs = _probs(matrix)
        _require(probs.ndim == 1 and (probs >= 0).all(), f"clone matrix at {lam:g}: not a distribution")
        _require(abs(probs.sum() - 1.0) < 1e-9, f"clone matrix at {lam:g}: trace is not 1")
        mean = float(np.dot(np.arange(probs.size), probs))
        _require(math.isclose(mean, self.expected_mean[lam], rel_tol=1e-6),
                 f"clone matrix at {lam:g}: mean {mean} is not the source mean {self.expected_mean[lam]}")

    def summary(self, results) -> dict:
        passes: dict[int, float] = defaultdict(float)
        for r in results:
            passes[r.pass_no] += r.seconds
        return {"analytic_s": (_median(list(passes.values())), "s")}


WORKLOADS = {cls.name: cls for cls in (McPipeline, ReconcileLoopback, Analytic)}
