"""Per-layer tracing for the benchmark.

The tracer wraps `tmcc_qkd` functions where their callers look them up: a
module-level function is replaced in every loaded `tmcc_qkd` module that
holds it (``cli`` imports ``tmcc_distribution`` by name, ``channel`` imports
``reconcile``, and so on), and a method or property is replaced on its class.
Patching only the defining module would silently record zero for every
caller that imported the name.

Spans record inclusive time per metric name; a call nested inside a span of
the same name is folded into the outer one, so recursive or delegating
functions are not counted twice.  Hot scalar functions get count-only
wrappers.  A target that no longer exists is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple, Optional


def _one(args, kwargs, result) -> int:
    return 1


def _count_arg(args, kwargs, result) -> int:
    # sample_batch(self, count)
    return int(kwargs.get("count", args[1] if len(args) > 1 else 0))


def _file_size(args, kwargs, result) -> int:
    # write_pulse_log(path, pulses)
    try:
        return os.path.getsize(kwargs.get("path", args[0] if args else ""))
    except OSError:
        return 0


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _calibration_draws(args, kwargs, result) -> int:
    # calibrate_thresholds(lam, pulses, trials, ...) echoes both in its result
    return getattr(result, "calibration_trials", 0) * getattr(result, "calibration_pulses", 0)


class Target(NamedTuple):
    """One wrapped callable: `path` is `name` or `Class.name` in `module`."""

    module: str
    path: str
    span: Optional[str] = None
    counts: tuple = ()  # (metric, amount(args, kwargs, result)) pairs
    main_thread_only: bool = False


# The layer boundaries the benchmark measures, by module.
TARGETS = (
    Target("tmcc_qkd.source", "PulseSampler.sample_batch", "source.sample_s",
           (("source.pulses", _count_arg),)),
    Target("tmcc_qkd.source", "write_pulse_log", "source.write_log_s",
           (("source.log_bytes", _file_size),)),
    Target("tmcc_qkd.attacks", "SplitPulseSampler.sample_batch", "attacks.split_sample_s",
           (("source.pulses", _count_arg),)),
    Target("tmcc_qkd.attacks", "ClonePulseSampler.sample_batch", "attacks.clone_sample_s",
           (("source.pulses", _count_arg),)),
    Target("tmcc_qkd.attacks", "_clone_inner_law", None, (("attacks.clone_inner_laws", _one),)),
    Target("tmcc_qkd.attacks", "split_marginal_bob", "attacks.split_marginal_s"),
    Target("tmcc_qkd.attacks", "split_marginal_eve", "attacks.split_marginal_s"),
    Target("tmcc_qkd.attacks", "cloned_bob_matrix", "attacks.clone_matrix_s"),
    Target("tmcc_qkd.attacks", "lambda_for_mean", None, (("attacks.lambda_for_mean_calls", _one),)),
    Target("tmcc_qkd.protocol", "extract_keys", "protocol.extract_keys_s"),
    Target("tmcc_qkd.protocol", "bit_from_count", None, (("protocol.bit_from_count_calls", _one),)),
    Target("tmcc_qkd.protocol", "KeyMaterial.to_bitstring", "protocol.to_bitstring_s"),
    Target("tmcc_qkd.protocol", "KeyMaterial.xor_code", "protocol.xor_code_s"),
    Target("tmcc_qkd.protocol", "reconcile", "protocol.reconcile_s"),
    Target("tmcc_qkd.detection", "calibrate_thresholds", "detection.calibrate_s",
           (("detection.calibration_draws", _calibration_draws),)),
    Target("tmcc_qkd.detection", "detect", "detection.detect_s"),
    Target("tmcc_qkd.channel", "pack_bits", "channel.pack_s"),
    Target("tmcc_qkd.channel", "unpack_bits", "channel.unpack_s"),
    Target("tmcc_qkd.channel", "encode_frame", None,
           (("channel.frames", _one), ("channel.wire_bytes", _result_len))),
    # the benchmark runs the initiator on the main thread, the responder on another
    Target("tmcc_qkd.channel", "read_frame", "channel.reply_wait_s", main_thread_only=True),
    Target("tmcc_qkd.photon_stats", "tmcc_distribution", "photon_stats.distribution_s",
           (("photon_stats.distribution_calls", _one),)),
    Target("tmcc_qkd.photon_stats", "poisson_distribution", "photon_stats.distribution_s",
           (("photon_stats.distribution_calls", _one),)),
    Target("tmcc_qkd.photon_stats", "tmcc_moments", "photon_stats.moments_s"),
    Target("tmcc_qkd.photon_stats", "bessel_i", None, (("photon_stats.bessel_calls", _one),)),
    Target("tmcc_qkd.photon_stats", "log_bessel_i", None, (("photon_stats.bessel_calls", _one),)),
    Target("tmcc_qkd.photon_stats", "tmcc_pn", None, (("photon_stats.pn_calls", _one),)),
    Target("tmcc_qkd.density_ops", "hs_distance_sq", "density_ops.distance_s",
           (("density_ops.distance_calls", _one),)),
    Target("tmcc_qkd.density_ops", "weak_distance", "density_ops.distance_s",
           (("density_ops.distance_calls", _one),)),
)


class Tracer:
    """Span and count accumulator; `install` wraps TARGETS, `uninstall` restores."""

    def __init__(self):
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the block as `name`; its self time excludes nested spans."""
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            yield
            return
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.span_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        counts = target.counts
        add = self.add
        if target.span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                for name, amount in counts:
                    add(name, amount(args, kwargs, result))
                return result

            return counted

        span = self.span
        name = target.span
        main_only = target.main_thread_only

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if main_only and threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            with span(name):
                result = fn(*args, **kwargs)
            for metric, amount in counts:
                add(metric, amount(args, kwargs, result))
            return result

        return spanned

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for target in TARGETS:
            owner_name, _, attr = target.path.rpartition(".")
            try:
                module = importlib.import_module(target.module)
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                if f"{target.module}:{target.path}" not in self.absent:
                    self.absent.append(f"{target.module}:{target.path}")
                continue
            if owner_name:
                if isinstance(raw, property):
                    new = property(self._wrap(raw.fget, target))
                else:
                    new = self._wrap(raw, target)
                self._patch(owner, attr, new)
                continue
            wrapped = self._wrap(raw, target)
            for name, mod in list(sys.modules.items()):
                if name != "tmcc_qkd" and not name.startswith("tmcc_qkd."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class NullTracer:
    """Stands in for `Tracer` in untraced passes."""

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, amount: float = 1) -> None:
        pass
