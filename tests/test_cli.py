import argparse
import json
import math
import os
import re
import socket
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tmcc_qkd import channel, cli, detection, protocol, source
from tmcc_qkd.photon_stats import IntensityParam


def run(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def no_sockets(monkeypatch):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    for name in ("socket", "create_server", "create_connection"):
        monkeypatch.setattr(socket, name, no_socket)


class TestStats:
    def test_figure1_vacuum_single_row(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["stats", "--figure", "1", "--lambda", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "p_tmcc", "p_poisson"]
        assert len(rows) == 1
        assert rows[0][0] == "0" and float(rows[0][1]) == 1.0

    def test_figure2_all_sub_poisson(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["stats", "--figure", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) < 0.0 for r in rows)

    def test_figure3_dispersion_ordering(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run(["stats", "--figure", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) < float(r[2]) for r in rows)

    @pytest.mark.parametrize("command", ["stats", "figures"])
    @pytest.mark.parametrize("flag", ["--seed", "--epsilon"])
    def test_analytic_commands_refuse_run_flags(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            run([command, flag, "1", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "figures"])
    def test_analytic_commands_skip_run_config_keys(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 7, "epsilon": 0.05}')
        assert run(["--config", str(cfg), command, "--out", str(tmp_path / "cfg")]) == 0
        assert run([command, "--out", str(tmp_path / "flag")]) == 0
        files = [p.relative_to(tmp_path / "cfg") for p in sorted((tmp_path / "cfg").rglob("*"))]
        assert [(tmp_path / "cfg" / f).read_bytes() for f in files] == [
            (tmp_path / "flag" / f).read_bytes() for f in files
        ]

    def test_figures_command_writes_all(self, tmp_path):
        assert run(["figures", "--lambda", "2", "--out", str(tmp_path / "figs")]) == 0
        for n in (1, 2, 3, 5, 6):
            assert (tmp_path / "figs" / f"figure{n}.csv").exists()


class TestScenarios:
    def test_simulate_noiseless_keys_identical(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["simulate", "--lambda", "2", "--epsilon", "0", "--pulses", "4000",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert (out / "alice.key").read_bytes() == (out / "bob.key").read_bytes()
        assert "verdict=" in (out / "report.txt").read_text()

    def test_attack_split_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["attack-split", "--sweep", "--lambda", "2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["p", "hs_dist_bob", "hs_dist_eve", "weak_dist"]
        hs = [float(r[1]) for r in rows]  # rows go from p=1 down to p=0
        assert all(b >= a - 1e-15 for a, b in zip(hs, hs[1:]))

    def test_attack_clone_flags_suspect(self, tmp_path):
        out = tmp_path / "clone"
        code = run(
            ["attack-clone", "--lambda", "2", "--pulses", "10000", "--seed", "3",
             "--clone-strategy", "tmcc-clone", "--out", str(out)]
        )
        assert code == 0
        assert "verdict=suspect-clone" in (out / "report.txt").read_text()

    def test_detect_from_pulse_log(self, tmp_path):
        out = tmp_path / "run"
        run(["simulate", "--lambda", "2", "--pulses", "4000", "--seed", "7", "--out", str(out)])
        report = tmp_path / "detect.txt"
        code = run(["detect", "--lambda", "2", "--pulse-log", str(out / "pulses.csv"), "--out", str(report)])
        assert code == 0
        assert "verdict=clean" in report.read_text()

    @pytest.mark.parametrize("scenario", [
        ["simulate"], ["attack-split", "--split-p2", "0.5"], ["attack-clone", "--clone-strategy", "tmcc-clone"],
        ["attack-clone", "--clone-strategy", "coherent"], ["attack-clone", "--clone-strategy", "single-photon-bank"],
    ], ids=["simulate", "split", "tmcc-clone", "coherent", "single-photon-bank"])
    def test_detect_reproduces_the_scenario_report(self, tmp_path, scenario):
        # detect reads Bob's counts back from the log and calibrates on the same seed, so it
        # must write the scenario's own report, byte for byte
        out = tmp_path / "run"
        common = ["--lambda", "2", "--seed", "5"]
        assert run(scenario + common + ["--epsilon", "0.05", "--pulses", "3000", "--out", str(out)]) == 0
        report = tmp_path / "detect.txt"
        assert run(["detect"] + common + ["--pulse-log", str(out / "pulses.csv"), "--out", str(report)]) == 0
        assert report.read_bytes() == (out / "report.txt").read_bytes()

    def test_determinism_byte_identical(self, tmp_path):
        args = ["simulate", "--lambda", "2", "--epsilon", "0.05", "--pulses", "3000", "--seed", "99"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("pulses.csv", "alice.key", "bob.key", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "row", ["0,1,x,0,0,0", "0,1,2", "0,1,-2,0,0,0"], ids=["non-integer", "short", "negative"]
    )
    def test_detect_bad_pulse_log_row(self, tmp_path, capsys, row):
        log = tmp_path / "pulses.csv"
        log.write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n" + row + "\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["detect", "--lambda", "2", "--pulse-log", str(log)])
        assert excinfo.value.code == 1
        assert f"{log}, line 3" in capsys.readouterr().err

    def test_detect_pulse_log_without_n_b(self, tmp_path, capsys):
        log = tmp_path / "pulses.csv"
        log.write_text("pulse_index,n_a\n0,1\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["detect", "--lambda", "2", "--pulse-log", str(log)])
        assert excinfo.value.code == 1
        assert f"{log}, line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [10**17, cli.MAX_COUNT + 1], ids=["1e17", "ceiling+1"])
    def test_detect_refuses_count_above_ceiling(self, tmp_path, capsys, count):
        log = tmp_path / "pulses.csv"
        log.write_text(f"pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n1,1,{count},0,0,0\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["detect", "--lambda", "2", "--pulse-log", str(log)])
        assert excinfo.value.code == 1
        assert f"{log}, line 3: n_b {count} exceeds the ceiling {cli.MAX_COUNT}" in capsys.readouterr().err

    def test_detect_cr_only_log_message_is_bounded(self, tmp_path, capsys):
        # CR-only line ends make the whole body one refused line; its quote is cut
        log = tmp_path / "pulses.csv"
        rows = b"".join(b"%d,1,1,0,0,0\r" % i for i in range(50_000))
        log.write_bytes(b"pulse_index,n_a,n_b,n_e,noise_a,noise_b\r" + rows)
        with pytest.raises(SystemExit) as excinfo:
            run(["detect", "--lambda", "2", "--pulse-log", str(log)])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert f"{log}, line 2: " in err and err.rstrip().endswith("...")

    def test_sweep_creates_out_directory(self, tmp_path):
        # with --sweep, --out always names figure 5's CSV, a suffix-less path too; its directory is made
        out = tmp_path / "nodir" / "sub"
        assert run(["attack-split", "--lambda", "2", "--sweep", "--out", str(out)]) == 0
        assert run(["stats", "--figure", "5", "--lambda", "2", "--out", str(tmp_path / "fig5.csv")]) == 0
        assert (tmp_path / "nodir").is_dir() and out.is_file()
        assert out.read_bytes() == (tmp_path / "fig5.csv").read_bytes()

    @staticmethod
    def _file_out_argv(tmp_path, command):
        if command == "detect":
            log = tmp_path / "pulses.csv"
            log.write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n1,2,2,0,0,0\n")
            return ["detect", "--lambda", "2", "--pulse-log", str(log)]
        if command == "stats":
            return ["stats", "--lambda", "2"]
        return ["attack-split", "--lambda", "2", "--sweep"]

    @pytest.mark.parametrize("command", ["stats", "sweep", "detect"])
    def test_file_out_creates_its_directory(self, tmp_path, capsys, command):
        out = tmp_path / "nodir" / "sub" / "x.csv"
        assert run(self._file_out_argv(tmp_path, command) + ["--out", str(out)]) == 0
        assert out.read_text()

    @pytest.mark.parametrize("command", ["stats", "sweep", "detect"])
    def test_file_out_under_a_file_is_usage_error(self, tmp_path, capsys, command):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            run(self._file_out_argv(tmp_path, command) + ["--out", str(out)])
        assert excinfo.value.code == 1
        assert f"--out {out}: cannot create the directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "sweep", "detect"])
    def test_file_out_naming_a_directory_is_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run(self._file_out_argv(tmp_path, command) + ["--out", str(tmp_path)])
        assert excinfo.value.code == 1
        assert f"--out {tmp_path}: is a directory, expected a file" in capsys.readouterr().err

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            run(["figures", "--lambda", "2", "--out", str(out)])
        assert excinfo.value.code == 1
        assert f"--out {out}: cannot create the directory" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["simulate", "--out", "/tmp/x"])  # missing --lambda
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["stats", "--lambda", "60"], "--lambda"),
            (["figures", "--lambda", "-1"], "--lambda"),
            (["simulate", "--lambda", "2", "--pulses", "100", "--epsilon", "0.7"], "--epsilon"),
            (["simulate", "--lambda", "2", "--pulses", "100", "--seed", "-1"], "--seed"),
            (["attack-split", "--lambda", "2", "--pulses", "100", "--split-p2", "1.5"], "--split-p2"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--out", str(tmp_path / "out")])
        assert excinfo.value.code == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_calibration_trials_refused(self, tmp_path, capsys, via_config):
        # calibration always draws detection.CALIBRATION_TRIALS clean runs; no flag or key sets it
        argv = ["simulate", "--lambda", "2", "--pulses", "100", "--out", str(tmp_path / "out")]
        if via_config:
            (tmp_path / "cfg.json").write_text('{"calibration-trials": 100}')
            argv = ["--config", str(tmp_path / "cfg.json")] + argv
        else:
            argv += ["--calibration-trials", "100"]
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert ("unknown key 'calibration-trials'" if via_config
                else "unrecognized arguments: --calibration-trials 100") in err
        assert not (tmp_path / "out").exists()

    # 100000001 lies between the key frame limit and 1e8: counts whose keys no peer could reconcile
    @pytest.mark.parametrize("pulses", ["100000000000", "100000001", str(cli.MAX_PULSES + 1), "1"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_pulse_count_out_of_range_refused_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                              pulses, via_config):
        def no_sampler(*_):
            raise AssertionError("sampler built for an out-of-range pulse count")

        monkeypatch.setattr(cli, "PulseSampler", no_sampler)
        argv = ["simulate", "--lambda", "2", "--out", str(tmp_path / "out")]
        if via_config:
            (tmp_path / "cfg.json").write_text('{"pulses": %s}' % pulses)
            argv = ["--config", str(tmp_path / "cfg.json")] + argv
        else:
            argv += ["--pulses", pulses]
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert ("'pulses'" if via_config else "argument --pulses:") in err
        assert f"[2, {cli.MAX_PULSES}]" in err
        assert not (tmp_path / "out").exists()

    def test_pulse_cap_is_the_key_frame_limit(self, tmp_path, capsys, monkeypatch):
        # one key bit per pulse: every key file a scenario writes can be reconciled
        assert cli.MAX_PULSES == channel.MAX_KEY_BITS

        class Sampled(Exception):
            pass

        def sampler(*_):
            raise Sampled

        monkeypatch.setattr(cli, "PulseSampler", sampler)
        argv = ["simulate", "--lambda", "2", "--out", str(tmp_path / "out"), "--pulses"]
        with pytest.raises(Sampled):  # the limit itself parses
            run([*argv, str(channel.MAX_KEY_BITS)])
        with pytest.raises(SystemExit) as excinfo:
            run([*argv, str(channel.MAX_KEY_BITS + 1)])
        assert excinfo.value.code == 1
        assert f"[2, {channel.MAX_KEY_BITS}], got {channel.MAX_KEY_BITS + 1}" in capsys.readouterr().err


# each command's flags for a run that works ({tmp} is the test's directory;
# nothing listens on port 1) and the flags among them it cannot run without
REQUIRED_FLAGS = {
    "stats": ({"--out": "{tmp}/out/fig.csv"}, ["--out"]),
    "figures": ({"--out": "{tmp}/out"}, ["--out"]),
    "simulate": ({"--lambda": "2", "--pulses": "200", "--out": "{tmp}/out"}, ["--lambda", "--pulses", "--out"]),
    "attack-split": (
        {"--lambda": "2", "--split-p2": "0.5", "--pulses": "200", "--out": "{tmp}/out"},
        ["--lambda", "--split-p2", "--pulses", "--out"],
    ),
    "attack-clone": ({"--lambda": "2", "--pulses": "200", "--out": "{tmp}/out"}, ["--lambda", "--pulses", "--out"]),
    "detect": (
        {"--lambda": "2", "--pulse-log": "{tmp}/pulses.csv", "--out": "{tmp}/out/report.txt"},
        ["--lambda", "--pulse-log"],
    ),
    "reconcile-serve": (
        {"--key": "{tmp}/a.key", "--listen": "127.0.0.1:0", "--timeout-secs": "0.1", "--transcript": "{tmp}/out/t"},
        ["--key", "--listen"],
    ),
    "reconcile-connect": (
        {"--key": "{tmp}/a.key", "--peer": "127.0.0.1:1", "--timeout-secs": "1", "--transcript": "{tmp}/out/t"},
        ["--key", "--peer"],
    ),
}


class TestRequiredFlags:
    """A command run without a flag it cannot run without exits 1, names the
    flag and writes nothing; the same flag given by a config file runs."""

    CASES = [(command, flag) for command, (_, required) in REQUIRED_FLAGS.items() for flag in required]
    SCENARIO_FORK = {("attack-split", "--split-p2"), ("attack-split", "--pulses")}

    @staticmethod
    def _argv(tmp_path, command, flag):
        """The command line less `flag`, and `flag`'s value."""
        (tmp_path / "a.key").write_text("1010\n")
        (tmp_path / "pulses.csv").write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n1,2,2,0,0,0\n")
        flags = {name: value.format(tmp=tmp_path) for name, value in REQUIRED_FLAGS[command][0].items()}
        value = flags.pop(flag)
        return [command, *(text for item in flags.items() for text in item)], value

    @pytest.mark.parametrize("command, flag", CASES)
    def test_missing_flag_is_usage_error(self, tmp_path, capsys, no_sockets, command, flag):
        argv, _ = self._argv(tmp_path, command, flag)
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 1
        # attack-split needs these two only without --sweep, which its handler checks
        rule = "without --sweep" if (command, flag) in self.SCENARIO_FORK else "for this command"
        assert capsys.readouterr().err.splitlines()[-1] == f"tmcc-qkd {command}: error: {flag} is required {rule}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", CASES)
    def test_flag_from_config_runs(self, tmp_path, capsys, command, flag):
        argv, value = self._argv(tmp_path, command, flag)
        (tmp_path / "cfg.json").write_text(json.dumps({flag[2:]: value}))
        code = run(["--config", str(tmp_path / "cfg.json"), *argv])
        # a reconcile command with no peer aborts
        assert code == (cli.EXIT_ABORT if command.startswith("reconcile-") else cli.EXIT_OK)
        assert (tmp_path / "out").exists()


class TestCommandUsageLine:
    """A usage error that a command's handler finds after parsing prints
    that command's usage line, not the root one."""

    @staticmethod
    def _usage_error(capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 1
        return capsys.readouterr().err

    def test_bad_pulse_log(self, tmp_path, capsys):
        log = tmp_path / "pulses.csv"
        log.write_text("pulse_index,n_a\n0,1\n")
        err = self._usage_error(capsys, ["detect", "--lambda", "2", "--pulse-log", str(log)])
        assert err.startswith("usage: tmcc-qkd detect ")
        assert f"tmcc-qkd detect: error: cannot read pulse log: {log}, line 1" in err

    def test_out_that_cannot_be_made(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "run"
        err = self._usage_error(capsys, ["simulate", "--lambda", "2", "--pulses", "100", "--out", str(out)])
        assert err.startswith("usage: tmcc-qkd simulate ")
        assert f"tmcc-qkd simulate: error: --out {out}: cannot create the directory" in err

    def test_unbindable_listen(self, tmp_path, capsys):
        (tmp_path / "b.key").write_text("1010\n")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = f"127.0.0.1:{listener.getsockname()[1]}"
            err = self._usage_error(capsys, ["reconcile-serve", "--key", str(tmp_path / "b.key"),
                                             "--listen", address, "--timeout-secs", "1"])
        assert err.startswith("usage: tmcc-qkd reconcile-serve ")
        assert f"tmcc-qkd reconcile-serve: error: --listen {address}: cannot bind: [Errno" in err

    def test_config_errors_keep_the_root_usage(self, tmp_path, capsys):
        # --config belongs to the root command, so its errors print the root usage
        (tmp_path / "cfg.json").write_text("[]")
        err = self._usage_error(capsys, ["--config", str(tmp_path / "cfg.json"), "stats", "--lambda", "2"])
        assert err.startswith("usage: tmcc-qkd [-h]")


class TestWriteCsv:
    """`_write_csv` prints what the per-value formatter it replaced printed:
    f"{v:.12g}" for a float, str(v) for anything else."""

    @staticmethod
    def _per_value(header, rows):
        lines = [",".join(header)]
        lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    def test_header_only_table(self, tmp_path):
        cli._write_csv(tmp_path / "t.csv", ["n", "p"], [])
        assert (tmp_path / "t.csv").read_bytes() == self._per_value(["n", "p"], []) == b"n,p\n"

    def test_mixed_int_and_float_table(self, tmp_path):
        values = [0.0, -0.0, 1.0, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308, 123456789012.5,
                  0.1 + 0.2, -2.5e-7, math.inf, -math.inf, math.nan]
        rows = [(n, v, np.float64(v) / 3, 10**n) for n, v in enumerate(values)]  # numpy floats are floats too
        header = ["n", "x", "y", "big"]
        cli._write_csv(tmp_path / "t.csv", header, rows)
        assert (tmp_path / "t.csv").read_bytes() == self._per_value(header, rows)


class TestReconcileCli:
    def _exchange(self, tmp_path, key_a: str, key_b: str):
        (tmp_path / "a.key").write_text(key_a + "\n")
        (tmp_path / "b.key").write_text(key_b + "\n")
        port = free_port()
        results = {}

        def serve():
            results["serve"] = run(
                ["reconcile-serve", "--key", str(tmp_path / "b.key"),
                 "--listen", f"127.0.0.1:{port}", "--timeout-secs", "5"]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        time.sleep(0.2)
        results["connect"] = run(
            ["reconcile-connect", "--key", str(tmp_path / "a.key"),
             "--peer", f"127.0.0.1:{port}", "--timeout-secs", "5"]
        )
        thread.join()
        return results["connect"], results["serve"]

    def test_same_key_both_exit_zero(self, tmp_path):
        assert self._exchange(tmp_path, "10110010", "10110010") == (0, 0)

    def test_flipped_bit_both_exit_two(self, tmp_path):
        assert self._exchange(tmp_path, "10110010", "00110010") == (2, 2)

    def test_absent_responder_times_out(self, tmp_path):
        (tmp_path / "a.key").write_text("1010\n")
        code = run(["reconcile-connect", "--key", str(tmp_path / "a.key"),
                    "--peer", f"127.0.0.1:{free_port()}", "--timeout-secs", "0.5"])
        assert code == 3

    def test_unresolvable_peer_is_usage_error(self, tmp_path, capsys, monkeypatch):
        lookup = socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        def create_connection(*args, **kwargs):
            raise lookup

        monkeypatch.setattr(socket, "create_connection", create_connection)
        (tmp_path / "a.key").write_text("1010\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(tmp_path / "a.key"), "--peer", "nonexistent.invalid:9000"])
        assert excinfo.value.code == 1
        out, err = capsys.readouterr()
        assert err.splitlines()[-1] == (
            f"tmcc-qkd reconcile-connect: error: --peer nonexistent.invalid:9000: cannot connect to: {lookup}"
        )
        assert "verdict=" not in out

    def test_key_file_with_bad_odd_trailing_char(self, tmp_path, capsys):
        key = tmp_path / "a.key"
        key.write_text("1010x\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(key), "--peer", "127.0.0.1:1"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"tmcc-qkd reconcile-connect: error: key file {key} must contain only 0/1 characters"
        )

    def test_key_file_with_non_ascii_byte(self, tmp_path, capsys):
        # the message names the byte and its offset, as decoding the file as ASCII text does
        key = tmp_path / "a.key"
        key.write_bytes(b"10\xff1\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(key), "--peer", "127.0.0.1:1"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"tmcc-qkd reconcile-connect: error: cannot read key file {key}: "
            "'ascii' codec can't decode byte 0xff in position 2: ordinal not in range(128)"
        )

    @pytest.mark.parametrize("command", ["reconcile-serve", "reconcile-connect"])
    @pytest.mark.parametrize("text, bits", [("", 0), ("\n", 0), ("1\n", 1)])
    def test_key_file_under_two_bits_refused_before_any_socket(self, tmp_path, capsys, no_sockets,
                                                               command, text, bits):
        key = tmp_path / "a.key"
        key.write_text(text)
        address = ["--listen", "127.0.0.1:0"] if command == "reconcile-serve" else ["--peer", "127.0.0.1:1"]
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--key", str(key), *address])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"tmcc-qkd {command}: error: key file {key} holds {bits} bits, need at least 2"
        )

    def test_key_over_frame_limit_refused_before_connecting(self, tmp_path, capsys, monkeypatch):
        # the real limit needs a 16.7M-bit key file; a lowered one takes the same path
        monkeypatch.setattr(channel, "MAX_KEY_BITS", 4)
        key = tmp_path / "a.key"
        key.write_text("101100\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(key), "--peer", f"127.0.0.1:{free_port()}"])
        assert excinfo.value.code == 1
        assert f"key file {key}: key of 6 bits exceeds the 4-bit limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["reconcile-connect", "--peer", "127.0.0.1:99999", "--timeout-secs", "1"], "--peer"),
            (["reconcile-connect", "--peer", "127.0.0.1:", "--timeout-secs", "1"], "--peer"),
            (["reconcile-serve", "--listen", "127.0.0.1:70000", "--timeout-secs", "1"], "--listen"),
            (["reconcile-connect", "--peer", "127.0.0.1:1", "--timeout-secs", "-1"], "--timeout-secs"),
            (["reconcile-connect", "--peer", "127.0.0.1:1", "--timeout-secs", "0"], "--timeout-secs"),
            (["reconcile-connect", "--peer", "127.0.0.1:1", "--timeout-secs", "nan"], "--timeout-secs"),
            (["reconcile-serve", "--listen", "127.0.0.1:0", "--timeout-secs", "inf"], "--timeout-secs"),
            (["reconcile-serve", "--listen", "127.0.0.1:0", "--timeout-secs", "1e10"], "--timeout-secs"),
            (["reconcile-connect", "--peer", "127.0.0.1:1", "--timeout-secs", "1e300"], "--timeout-secs"),
        ],
    )
    def test_bad_address_or_timeout_is_usage_error(self, tmp_path, capsys, argv, flag):
        (tmp_path / "a.key").write_text("1010\n")
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--key", str(tmp_path / "a.key")])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "key file" not in err

    @pytest.mark.parametrize(
        "command, own, other",
        [("reconcile-serve", "--listen", "--peer"), ("reconcile-connect", "--peer", "--listen")],
    )
    def test_other_address_flag_refused(self, tmp_path, capsys, no_sockets, command, own, other):
        (tmp_path / "a.key").write_text("1010\n")
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--key", str(tmp_path / "a.key"), own, "127.0.0.1:1", other, "127.0.0.1:5"])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {other} 127.0.0.1:5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, address, other",
        [
            ("reconcile-serve", ["--listen", "127.0.0.1:0"], "peer"),
            ("reconcile-connect", ["--peer", "127.0.0.1:1"], "listen"),
        ],
    )
    def test_other_address_config_key_skipped(self, tmp_path, command, address, other):
        # a key for the other command's flag is skipped, like any key the command lacks; no peer, so ABORT
        (tmp_path / "a.key").write_text("1010\n")
        (tmp_path / "cfg.json").write_text(json.dumps({other: "not an address"}))
        argv = [command, "--key", str(tmp_path / "a.key"), *address, "--timeout-secs", "0.1"]
        assert run(["--config", str(tmp_path / "cfg.json"), *argv]) == cli.EXIT_ABORT

    def test_listen_address_in_use_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "b.key").write_text("1010\n")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = f"127.0.0.1:{listener.getsockname()[1]}"
            with pytest.raises(SystemExit) as excinfo:
                run(["reconcile-serve", "--key", str(tmp_path / "b.key"), "--listen", address,
                     "--timeout-secs", "1"])
        assert excinfo.value.code == 1
        out, err = capsys.readouterr()
        assert f"--listen {address}: cannot bind: [Errno" in err
        assert "verdict=" not in out

    def test_transcript_written(self, tmp_path):
        (tmp_path / "a.key").write_text("1011\n")
        (tmp_path / "b.key").write_text("1011\n")
        port = free_port()
        transcript = tmp_path / "wire.log"

        def serve():
            run(["reconcile-serve", "--key", str(tmp_path / "b.key"),
                 "--listen", f"127.0.0.1:{port}", "--timeout-secs", "5"])

        thread = threading.Thread(target=serve)
        thread.start()
        time.sleep(0.2)
        run(["reconcile-connect", "--key", str(tmp_path / "a.key"),
             "--peer", f"127.0.0.1:{port}", "--timeout-secs", "5",
             "--transcript", str(transcript)])
        thread.join()
        lines = transcript.read_text().splitlines()
        assert lines and all(line[0] in "<>" for line in lines)

    def test_transcript_directories_made(self, tmp_path):
        (tmp_path / "a.key").write_text("1011\n")
        (tmp_path / "b.key").write_text("1011\n")
        port = free_port()
        results = {}

        def serve():
            results["serve"] = run(
                ["reconcile-serve", "--key", str(tmp_path / "b.key"), "--listen", f"127.0.0.1:{port}",
                 "--timeout-secs", "5", "--transcript", str(tmp_path / "serve" / "t.hex")]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        time.sleep(0.2)
        results["connect"] = run(
            ["reconcile-connect", "--key", str(tmp_path / "a.key"), "--peer", f"127.0.0.1:{port}",
             "--timeout-secs", "5", "--transcript", str(tmp_path / "connect" / "deep" / "t.hex")]
        )
        thread.join()
        assert results == {"serve": 0, "connect": 0}
        sent = (tmp_path / "connect" / "deep" / "t.hex").read_text().splitlines()
        received = (tmp_path / "serve" / "t.hex").read_text().splitlines()
        # each end logs the other's frames with the direction flipped
        assert sent and [line.translate(str.maketrans("<>", "><")) for line in sent] == received

    @pytest.mark.parametrize("command", ["reconcile-serve", "reconcile-connect"])
    def test_transcript_naming_a_directory_refused_before_any_socket(self, tmp_path, capsys, no_sockets,
                                                                     command):
        (tmp_path / "a.key").write_text("1010\n")
        address = ["--listen", "127.0.0.1:0"] if command == "reconcile-serve" else ["--peer", "127.0.0.1:1"]
        with pytest.raises(SystemExit) as excinfo:
            run([command, "--key", str(tmp_path / "a.key"), *address, "--transcript", str(tmp_path)])
        assert excinfo.value.code == 1
        assert f"--transcript {tmp_path}: is a directory, expected a file" in capsys.readouterr().err


class TestKeyFile:
    """What a key file may hold around and between its bits, and how a refusal is named (with the
    non-ASCII, odd-trailing-character and under-two-bits tests of TestReconcileCli)."""

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda key: key.mkdir(), "cannot read key file {key}: [Errno 21] Is a directory: {key!r}"),
            (lambda key: None, "cannot read key file {key}: [Errno 2] No such file or directory: {key!r}"),
            (lambda key: key.write_bytes(b"10 10\n"), "key file {key} must contain only 0/1 characters"),
            (lambda key: key.write_bytes(b"1021\n"), "key file {key} must contain only 0/1 characters"),
        ],
        ids=["directory", "missing", "inner-space", "digit-2"],
    )
    def test_refusal_is_one_usage_line(self, tmp_path, capsys, no_sockets, make, reason):
        key = tmp_path / "a.key"
        make(key)
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(key), "--peer", "127.0.0.1:1"])
        assert excinfo.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "tmcc-qkd reconcile-connect: error: " + reason.format(key=str(key))

    @pytest.mark.parametrize(
        "content",
        [b"0110\r\n", b"\r\n \t0110", b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f0110 \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"],
        ids=["crlf", "leading", "all-ten-both-sides"],
    )
    def test_runs_of_ascii_whitespace_around_bits_ignored(self, tmp_path, content):
        key = tmp_path / "a.key"
        key.write_bytes(content)
        assert cli._load_key(str(key), cli.build_parser()).bits.tolist() == [0, 1, 1, 0]

    def test_every_ascii_byte_around_bits_stripped_as_str_strip_would(self, tmp_path, capsys):
        key, parser = tmp_path / "a.key", cli.build_parser()
        for byte in range(128):
            key.write_bytes(bytes([byte]) + b"0110" + bytes([byte]))
            text = (chr(byte) + "0110" + chr(byte)).strip()
            if set(text) <= {"0", "1"}:
                assert cli._load_key(str(key), parser).bits.tolist() == [int(c) for c in text], byte
            else:
                with pytest.raises(SystemExit):
                    cli._load_key(str(key), parser)
                assert capsys.readouterr().err.endswith(f"key file {key} must contain only 0/1 characters\n"), byte

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_key_read_through_a_pipe(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"0110\n")
            os.close(write_end)
            key = cli._load_key(f"/dev/fd/{read_end}", cli.build_parser())
        finally:
            os.close(read_end)
        assert key.bits.tolist() == [0, 1, 1, 0]


def traced_peak_bytes(call) -> int:
    """Peak bytes traced by tracemalloc while `call()` runs, above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestKeyLoadMemory:
    """A key load holds the file's bytes, their 0/1 values and the key's own copy, and no more."""

    @pytest.mark.parametrize("size", [20_000, 200_000])
    def test_load_key_peaks_near_three_bytes_per_bit(self, tmp_path, size):
        key = tmp_path / "a.key"
        key.write_bytes(np.random.default_rng(size).integers(ord("0"), ord("2"), size, np.uint8).tobytes() + b"\n")
        parser = cli.build_parser()
        assert traced_peak_bytes(lambda: cli._load_key(str(key), parser)) <= 3.5 * size

    @pytest.mark.parametrize("size", [20_000, 200_000])
    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_from_bits_peaks_near_one_byte_per_bit(self, size, dtype):
        bits = np.random.default_rng(size).integers(0, 2, size).astype(dtype)
        assert traced_peak_bytes(lambda: protocol.KeyMaterial.from_bits(bits)) <= 1.5 * size


class TestDetectionMemory:
    """`detect` folds its log into a histogram one chunk at a time, and
    calibration holds one multinomial block and its float copy."""

    def test_detect_peak_does_not_grow_with_the_log(self, tmp_path, capsys):
        sampler = source.PulseSampler(source.SourceConfig(IntensityParam(2.0), noise_epsilon=0.05, seed=3))
        argv = {}
        for pulses in (20_000, 400_000):
            source.write_pulse_log(tmp_path / f"{pulses}.csv", sampler.sample_batch(pulses))
            argv[pulses] = ["detect", "--lambda", "2", "--pulse-log", str(tmp_path / f"{pulses}.csv")]
        run(argv[20_000])  # builds the parser and the law tables once, outside the traced calls
        small, large = (traced_peak_bytes(lambda: run(argv[pulses])) for pulses in argv)
        assert abs(large - small) < source._LOG_CHUNK_BYTES
        # the 400 000-pulse log is 7 MB; reading it whole held about 23 MiB
        assert large < 2 * source._LOG_CHUNK_BYTES + 3 * 2**20

    def test_calibration_peak_is_pinned(self):
        lam = IntensityParam(2.0)
        detection.calibrate_thresholds(lam, 1000)
        # 1.66 MiB measured: 0.3 MiB of statistics, the 0.5 MiB block and its float copy, and the
        # block's per-row vectors; a padded copy of the block and its |d| took it to 2.51 MiB
        assert traced_peak_bytes(lambda: detection.calibrate_thresholds(lam, 50_000)) < 1.8 * 2**20



class TestPulseMemory:
    """The sampler draws its photon numbers a block of uniforms at a time, and
    the log writer formats one block of rows at a time."""

    PULSES = 400_000

    def test_sample_batch_peak_is_pinned(self):
        sampler = source.PulseSampler(source.SourceConfig(IntensityParam(2.0), noise_epsilon=0.05, seed=3))
        # 13.35 MiB measured when one searchsorted took all the uniforms and they were freed
        # before the noise draws: the peak is the batch's arrays at the end; uniforms kept alive
        # to the end add about 3 MiB
        assert traced_peak_bytes(lambda: sampler.sample_batch(self.PULSES)) <= (13.35 + 0.5) * 2**20

    def test_write_pulse_log_peak_is_pinned(self, tmp_path):
        sampler = source.PulseSampler(source.SourceConfig(IntensityParam(2.0), noise_epsilon=0.05, seed=3))
        batch = sampler.sample_batch(self.PULSES)
        # 0.36 MiB measured for a writer that compared each block's fields with powers of 10;
        # the text and keep arrays of one 4096-row block are 0.16 MiB of that
        assert traced_peak_bytes(lambda: source.write_pulse_log(tmp_path / "pulses.csv", batch)) <= 0.36 * 2**20


class TestConfigFile:
    def test_config_file_fills_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": 2.0, "figure": 2}')
        out = tmp_path / "fig.csv"
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        assert run(["stats", "--out", str(out)]) == 0
        assert out.exists()

    # a flag with a late default, the command line it runs in, the file it writes,
    # and two values other than the default
    LATE_DEFAULT_RUNS = [
        ("figure", ["stats", "--lambda", "2"], "fig.csv", "2", "3"),
        ("clone-strategy", ["attack-clone", "--lambda", "2", "--pulses", "300"], "pulses.csv", "coherent",
         "single-photon-bank"),
        ("epsilon", ["simulate", "--lambda", "2", "--pulses", "300"], "pulses.csv", "0.05", "0.3"),
    ]

    @pytest.mark.parametrize("key, argv, name, value, other", LATE_DEFAULT_RUNS,
                             ids=[case[0] for case in LATE_DEFAULT_RUNS])
    def test_config_late_default_matches_flag(self, tmp_path, capsys, key, argv, name, value, other):
        """A config value gives the flag's output bytes, and an explicit flag beats it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value) if key == "epsilon" else value}))

        def output(tag, config, flag):
            out = tmp_path / tag
            argv_out = [*argv, *(() if flag is None else (f"--{key}", flag)), "--out", str(out / name)]
            if name == "pulses.csv":  # a scenario's --out is its directory
                argv_out[-1] = str(out)
            assert run([*(("--config", str(cfg)) if config else ()), *argv_out]) == 0
            return (out / name).read_bytes()

        assert output("config", True, None) == output("flag", False, value) != output("default", False, None)
        assert output("both", True, other) == output("other", False, other) != output("flag", False, value)

    def test_config_seed_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 7}')
        args = ["simulate", "--lambda", "2", "--epsilon", "0.05", "--pulses", "2000"]
        assert run(["--config", str(cfg), *args, "--out", str(tmp_path / "cfg")]) == 0
        assert run([*args, "--seed", "7", "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "cfg" / "pulses.csv").read_bytes() == (tmp_path / "flag" / "pulses.csv").read_bytes()

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": "abc"}')
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg), "stats", "--out", str(tmp_path / "fig.csv")])
        assert excinfo.value.code == 1
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["null", "true", "false", '["a.csv"]', '{"path": "a.csv"}'])
    def test_config_value_not_string_or_number(self, tmp_path, capsys, monkeypatch, value):
        # a non-switch flag's key takes a string or a number; str() of any other value is no path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"out": %s}' % value)
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", "cfg.json", "stats", "--lambda", "2"])
        assert excinfo.value.code == 1
        assert "config file cfg.json: 'out' must be a string or a number, got " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_switch_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep": true}')
        out = tmp_path / "sw.csv"
        assert run(["--config", str(cfg), "attack-split", "--lambda", "2", "--out", str(out)]) == 0
        assert run(["attack-split", "--lambda", "2", "--sweep", "--out", str(tmp_path / "flag.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_config_switch_not_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sweep": "yes"}')
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg), "attack-split", "--lambda", "2", "--out", str(tmp_path / "sw.csv")])
        assert excinfo.value.code == 1
        assert "'sweep' must be true or false" in capsys.readouterr().err

    def test_config_timeout_above_ceiling(self, tmp_path, capsys):
        # a socket refuses a timeout of 2**63 ns or more; the file's value meets the flag's ceiling first
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"timeout-secs": 1e300}')
        (tmp_path / "a.key").write_text("1010\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg), "reconcile-connect", "--key", str(tmp_path / "a.key"),
                 "--peer", "127.0.0.1:1"])
        assert excinfo.value.code == 1
        assert "invalid value 1e+300 for 'timeout-secs'" in capsys.readouterr().err

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lamda": 2}')
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg), "stats", "--lambda", "2", "--out", str(tmp_path / "fig.csv")])
        assert excinfo.value.code == 1
        assert "lamda" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["required", "func", "parser"])
    def test_config_cannot_reach_command_declarations(self, tmp_path, capsys, monkeypatch, key):
        # each command's set_defaults puts these in the namespace; no flag has them
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: "x"}))
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", "cfg.json", "stats", "--lambda", "2", "--out", "fig.csv"])
        assert excinfo.value.code == 1
        assert f"config file cfg.json: unknown key {key!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_bytes(b'{"lambda": "\xff"}')
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", "bad.json", "stats", "--out", "x.csv"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "tmcc-qkd: error: cannot read config file bad.json: "
            "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_config_nested_too_deep_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", "deep.json", "stats", "--out", "x.csv"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("tmcc-qkd: error: cannot read config file deep.json: ")
        assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]

    # each namespace spelling of a flag whose config key differs from it, a value,
    # and a command line of a command that has the flag
    DEST_SPELLED = [
        ("lam", 2, ["simulate", "--pulses", "100", "--out", "out"]),
        ("split_p2", 0.5, ["attack-split", "--lambda", "2", "--pulses", "100", "--out", "out"]),
        ("clone_strategy", "coherent", ["attack-clone", "--lambda", "2", "--pulses", "100", "--out", "out"]),
        ("pulse_log", "pulses.csv", ["detect", "--lambda", "2", "--out", "report.txt"]),
        ("timeout_secs", 1, ["reconcile-connect", "--key", "a.key", "--peer", "127.0.0.1:1", "--transcript", "t"]),
    ]

    @pytest.mark.parametrize("key, value, argv", DEST_SPELLED, ids=[case[0] for case in DEST_SPELLED])
    def test_config_key_spelled_as_namespace_name_refused(self, tmp_path, capsys, monkeypatch, no_sockets,
                                                          key, value, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.key").write_text("1010\n")
        (tmp_path / "pulses.csv").write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n1,2,2,0,0,0\n")
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", "cfg.json", *argv])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"tmcc-qkd: error: config file cfg.json: unknown key {key!r}"
        assert sorted(tmp_path.iterdir()) == before


# a valid command-line value of each flag that takes one
FLAG_VALUES = {
    "--lambda": "2.5", "--out": "x", "--epsilon": "0.1", "--seed": "7", "--pulses": "100", "--figure": "3",
    "--split-p2": "0.25", "--clone-strategy": "coherent", "--pulse-log": "p.csv", "--key": "a.key",
    "--listen": "127.0.0.1:9000", "--peer": "127.0.0.1:9000", "--timeout-secs": "2.5", "--transcript": "t.hex",
}


(_COMMANDS,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
# (command, flag, whether the flag is a switch) for every long option but --help
LONG_OPTIONS = [(name, flag, action.nargs == 0) for name, p in _COMMANDS.choices.items()
                for flag, action in p._option_string_actions.items() if flag.startswith("--") and flag != "--help"]


@pytest.mark.parametrize("command, flag, switch", LONG_OPTIONS, ids=[f"{c}{f}" for c, f, _ in LONG_OPTIONS])
def test_config_key_spelled_as_flag_sets_what_the_flag_sets(tmp_path, command, flag, switch):
    """The config key `flag` less its dashes sets the same attribute to the
    same value as `flag` does, and nothing else."""
    parser = cli.build_parser()
    by_flag = parser.parse_args([command, flag] if switch else [command, flag, FLAG_VALUES[flag]])
    (tmp_path / "cfg.json").write_text(json.dumps({flag[2:]: True if switch else FLAG_VALUES[flag]}))
    by_config = parser.parse_args(["--config", str(tmp_path / "cfg.json"), command])
    cli._load_config_defaults(by_config, parser)
    assert {**vars(by_config), "config": None} == vars(by_flag)
    assert vars(by_flag) != vars(parser.parse_args([command]))


class TestParserReuse:
    """`build_parser` is cached; consecutive in-process runs on the one parser
    must write what runs on fresh parsers write."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @staticmethod
    def _outputs(tmp_path, runs, fresh):
        digests = []
        for i, argv in enumerate(runs):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / ("fresh" if fresh else "reused") / str(i)
            assert run([*argv, "--out", str(out)]) == 0
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            digests.append([(f.name, f.read_bytes()) for f in files])
        return digests

    @pytest.mark.parametrize("kind", ["seed", "sweep"])
    def test_consecutive_runs_match_fresh_parsers(self, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "seed":  # a run with a config file, then one without
            cfg.write_text('{"seed": 7}')
            args = ["simulate", "--lambda", "2", "--pulses", "500"]
            runs = [["--config", str(cfg), *args], args]
        else:  # a config-file --sweep, then a scenario run
            cfg.write_text('{"sweep": true}')
            runs = [
                ["--config", str(cfg), "attack-split", "--lambda", "2"],
                ["attack-split", "--lambda", "2", "--split-p2", "0.5", "--pulses", "500"],
            ]
        reused = self._outputs(tmp_path, runs, fresh=False)
        assert reused == self._outputs(tmp_path, runs, fresh=True)
        first, second = reused
        assert first != second


def test_readme_cli_flags_exist():
    # every --flag the README names from its CLI section on is an option of tmcc-qkd or a subcommand
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme[readme.index("\n## CLI\n"):]))
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        flag for p in (parser, *commands.choices.values()) for a in p._actions for flag in a.option_strings
    }
    assert named and named <= options, sorted(named - options)
