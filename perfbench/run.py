"""tmcc-qkd benchmark.

    python3 perfbench/run.py --workload mc-pipeline --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It imports `tmcc_qkd` from the
checkout's `src/`, works in `.perfbench-run/` there and removes that on exit.
Workloads and metrics are described in perfbench/README.md.

The last line of standard output is the result JSON.  With `--trace 0` its
metrics are the end-to-end metrics.  With `--trace 1` they are the per-layer
metrics: traced and untraced passes alternate, and the difference between
them is reported as the tracing overhead.  The line before the result is the
run record: the manifest, the per-operation timings, the output digest, the
verdict table and every failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

from reference import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_IMPORTS = 5

PER_LAYER = {
    "source.sample_s": "s",
    "source.write_log_s": "s",
    "source.pulses": "count",
    "source.log_bytes": "bytes",
    "attacks.split_sample_s": "s",
    "attacks.clone_sample_s": "s",
    "attacks.clone_inner_laws": "count",
    "attacks.split_marginal_s": "s",
    "attacks.clone_matrix_s": "s",
    "attacks.lambda_for_mean_calls": "count",
    "protocol.extract_keys_s": "s",
    "protocol.to_bitstring_s": "s",
    "protocol.bit_from_count_calls": "count",
    "protocol.disagreement_ratio": "ratio",
    "protocol.key_load_s": "s",
    "protocol.xor_code_s": "s",
    "protocol.reconcile_s": "s",
    "detection.calibrate_s": "s",
    "detection.calibration_draws": "count",
    "detection.detect_s": "s",
    "channel.pack_s": "s",
    "channel.unpack_s": "s",
    "channel.frames": "count",
    "channel.wire_bytes": "bytes",
    "channel.reply_wait_s": "s",
    "channel.aborts": "count",
    "photon_stats.distribution_s": "s",
    "photon_stats.distribution_calls": "count",
    "photon_stats.moments_s": "s",
    "photon_stats.bessel_calls": "count",
    "photon_stats.pn_calls": "count",
    "density_ops.distance_s": "s",
    "density_ops.distance_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_targets": "count",
    "failed_share": "share",
    "false_alarm_share": "share",
    "miss_share": "share",
}


class Result(NamedTuple):
    pass_no: int
    traced: bool
    label: str
    kind: str
    seconds: float  # wall time
    cpu_seconds: float  # CPU time of the whole process, every thread
    ref_cpu_seconds: float  # CPU time of the reference computation run just before
    ref_checksum: float  # the same in every result, or the reference did other work
    error: Optional[str]
    check_failed: bool
    verdict: Optional[str]
    expected: Optional[str]


def _digest(outputs) -> bytes:
    digest = hashlib.sha256()
    for item in outputs:
        digest.update(item if isinstance(item, bytes) else Path(item).read_bytes())
    return digest.digest()


def run_pass(workload, pass_no: int, traced: bool, checked: dict) -> tuple[list[Result], str]:
    """One pass of the workload's operations; returns results and output digest.

    `checked` maps an operation's label to the digest and verdict of the first
    output of it that passed its check; the same output is not checked again.
    The reference computation runs just before each operation.
    """
    workload.start_pass()
    gc.collect()
    results, digest = [], hashlib.sha256()
    for op in workload.pass_ops():
        ref_cpu_seconds, ref_checksum = reference()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            value = op.call()
            error = None
        except Exception as exc:  # a failed operation is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        cpu_seconds = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
        verdict, check_failed = None, False
        digest.update(op.label.encode() + b"\0")
        if error is None:
            try:
                output = _digest(op.outputs(value))
                if op.label in checked and checked[op.label][0] == output:
                    verdict = checked[op.label][1]
                else:
                    verdict = op.check(value)
                    checked.setdefault(op.label, (output, verdict))
                digest.update(output)
            except Exception as exc:
                error, check_failed = f"check: {type(exc).__name__}: {exc}", True
        if error is not None:
            error = error.replace(f"{workload.workdir}{os.sep}", "")
            digest.update(b"failed\0" + error.encode())
        results.append(Result(pass_no, traced, op.label, op.kind, seconds, cpu_seconds, ref_cpu_seconds,
                              ref_checksum, error, check_failed, verdict, op.expected))
    return results, digest.hexdigest()


def measure(workload, seconds: float, tracer, null) -> tuple[list[Result], list[str], list[float]]:
    """Repeat passes until the next one would end after `seconds`.

    With a tracer, untraced and traced passes alternate, starting untraced,
    and at least one of each is run; without one, at least one pass is run.
    Returns the results, each pass's output digest and each pass's wall time.
    """
    results, digests, wall, checked = [], [], [], {}
    deadline = time.perf_counter() + seconds
    min_passes = 1 if tracer is None else 2
    while True:
        pass_no = len(wall)
        traced = tracer is not None and pass_no % 2 == 1
        pass_start = time.perf_counter()
        if traced:
            workload.tracer = tracer
            tracer.install()
        try:
            pass_results, digest = run_pass(workload, pass_no, traced, checked)
        finally:
            if traced:
                tracer.uninstall()
                workload.tracer = null
        results += pass_results
        digests.append(digest)
        now = time.perf_counter()
        wall.append(now - pass_start)
        if len(wall) >= min_passes and now + statistics.median(wall) > deadline:
            return results, digests, wall


def layer_metrics(tracer, workload, results: list[Result], quality: dict) -> dict:
    """Per-layer values per traced pass, 0 for layers that did no work."""
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]
    n_traced = len({r.pass_no for r in traced})
    values = dict.fromkeys(PER_LAYER, 0.0)
    for totals in (tracer.span_s, tracer.counts):
        for name, total in totals.items():
            if name in values:
                values[name] = total / n_traced
    values["cli.self_s"] = tracer.self_s.get("cli", 0.0) / n_traced
    values.update(workload.layer_values())
    values["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
    values["trace.absent_targets"] = len(tracer.absent)
    for name, entry in quality.items():
        values[name] = entry["value"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def pass_seconds(results: list[Result], field: str = "seconds") -> float:
    """Median over passes of a pass's summed `field`: by default the wall
    time the pass spent in the program's calls."""
    totals: dict[int, float] = defaultdict(float)
    for r in results:
        totals[r.pass_no] += getattr(r, field)
    return statistics.median(totals.values())


def pass_per_ref(results: list[Result]) -> float:
    """Median over passes of the program's CPU time in the pass divided by
    the CPU time of the reference runs interleaved with it."""
    program: dict[int, float] = defaultdict(float)
    ref: dict[int, float] = defaultdict(float)
    for r in results:
        program[r.pass_no] += r.cpu_seconds
        ref[r.pass_no] += r.ref_cpu_seconds
    return statistics.median(program[n] / ref[n] for n in program)


def verdict_quality(results: list[Result], clean: str) -> dict:
    """failed, false-alarm and miss shares, each with its base."""
    judged = [r for r in results if r.expected is not None and r.verdict is not None]
    clean_ops = [r for r in judged if r.expected == clean]
    attacked = [r for r in judged if r.expected != clean]
    failed = sum(r.error is not None for r in results)

    def share(hits, base):
        return {"value": hits / base if base else 0.0, "unit": "share", "hits": hits, "base": base}

    return {
        "failed_share": share(failed, len(results)),
        "false_alarm_share": share(sum(r.verdict != clean for r in clean_ops), len(clean_ops)),
        "miss_share": share(sum(r.verdict == clean for r in attacked), len(attacked)),
    }


def timing_table(results: list[Result]) -> dict:
    """Per-kind sample count, median and the highest percentile that has at
    least ten samples beyond it."""
    by_kind = defaultdict(list)
    for r in results:
        by_kind[r.kind].append(r.seconds)
    table = {}
    for kind, values in by_kind.items():
        values.sort()
        row = {"n": len(values), "min_s": values[0], "median_s": statistics.median(values)}
        if len(values) >= 20:
            pct = 100 * (1 - 10 / len(values))
            row[f"p{pct:.0f}_s"] = values[int(len(values) * pct / 100) - 1]
        table[kind] = row
    return table


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(count: int) -> tuple[list[float], list[float]]:
    """CPU and wall times of `import tmcc_qkd.cli` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, tmcc_qkd.cli; sys.exit(tmcc_qkd.cli.__file__ != sys.argv[1])"
    expected = str(SRC / "tmcc_qkd" / "cli.py")
    cpu, wall = [], []
    for _ in range(count):
        start, cpu_start = time.perf_counter(), _children_cpu()
        subprocess.run([sys.executable, "-c", probe, expected], cwd=ROOT, env=env, check=True, timeout=120)
        cpu.append(_children_cpu() - cpu_start)
        wall.append(time.perf_counter() - start)
    return cpu, wall


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from its own .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "tmcc_qkd" / "__init__.py").is_file():
        print(f"perfbench: no tmcc_qkd package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tmcc_qkd

    if Path(tmcc_qkd.__file__).resolve().parent != (SRC / "tmcc_qkd").resolve():
        print(f"perfbench: imported tmcc_qkd from {tmcc_qkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer
    from workloads import CLEAN, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    setup_cpu, setup_wall = ([], []) if args.trace else measure_setup(SETUP_IMPORTS)
    workdir = ROOT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    null = NullTracer()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir, null)
    try:
        workdir.mkdir(parents=True)
        workload.prepare()
        start = time.perf_counter()
        results, digests, wall = measure(workload, args.seconds, tracer, null)
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        runs = workdir.parent
        if runs.is_dir() and not any(runs.iterdir()):
            runs.rmdir()

    attempted = len(results)
    failed = sum(r.error is not None for r in results)
    deterministic = len(set(digests)) == 1
    ref_checksums = sorted({r.ref_checksum for r in results})
    correct = deterministic and len(ref_checksums) == 1 and not any(r.check_failed for r in results)
    untraced = [r for r in results if not r.traced]
    quality = verdict_quality(results, CLEAN)

    if tracer is not None:
        metrics = layer_metrics(tracer, workload, results, quality)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_cpu), "unit": "s"},
            "pass_per_ref": {"value": pass_per_ref(results), "unit": "ratio"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }

    workload_metrics = {name: {"value": v, "unit": u} for name, (v, u) in workload.summary(untraced).items()}
    workload_metrics.update(quality)
    record = {
        "record": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "manifest": manifest(),
        "params": workload.params(),
        "setup_import_cpu_s": setup_cpu,
        "setup_import_wall_s": setup_wall,
        "pass_wall_median_s": pass_seconds(untraced),
        "pass_cpu_median_s": pass_seconds(untraced, "cpu_seconds"),
        "ref_cpu_median_s": statistics.median(r.ref_cpu_seconds for r in untraced),
        "ref_checksums": ref_checksums,
        "measured_s": measured_s,
        "passes": {"untraced": len({r.pass_no for r in untraced}),
                   "traced": len({r.pass_no for r in results if r.traced})},
        "pass_wall_s": wall,
        "timings": timing_table(untraced),
        "workload_metrics": workload_metrics,
        "output_digest": digests[0],
        "deterministic": deterministic,
        "verdicts": dict(Counter(f"{r.expected}->{r.verdict}" for r in results if r.expected)),
        "failures": dict(Counter(f"{r.label}: {r.error}" for r in results if r.error)),
        "absent_targets": tracer.absent if tracer is not None else [],
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
