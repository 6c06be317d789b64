import socket
import threading
import time

import numpy as np
import pytest

from tmcc_qkd import channel, cli


def run(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


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

    def test_figures_command_writes_all(self, tmp_path):
        assert run(["figures", "--lambda", "2", "--out", str(tmp_path / "figs")]) == 0
        for n in (1, 2, 3, 5, 6):
            assert (tmp_path / "figs" / f"figure{n}.csv").exists()


class TestScenarios:
    def test_simulate_noiseless_keys_identical(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["simulate", "--lambda", "2", "--epsilon", "0", "--pulses", "4000",
             "--seed", "7", "--out", str(out), "--calibration-trials", "100"]
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
             "--clone-strategy", "tmcc-clone", "--out", str(out), "--calibration-trials", "200"]
        )
        assert code == 0
        assert "verdict=suspect-clone" in (out / "report.txt").read_text()

    def test_detect_from_pulse_log(self, tmp_path):
        out = tmp_path / "run"
        run(["simulate", "--lambda", "2", "--pulses", "4000", "--seed", "7",
             "--out", str(out), "--calibration-trials", "100"])
        report = tmp_path / "detect.txt"
        code = run(["detect", "--lambda", "2", "--pulse-log", str(out / "pulses.csv"),
                    "--out", str(report), "--calibration-trials", "100"])
        assert code == 0
        assert "verdict=clean" in report.read_text()

    def test_determinism_byte_identical(self, tmp_path):
        args = ["simulate", "--lambda", "2", "--epsilon", "0.05", "--pulses", "3000",
                "--seed", "99", "--calibration-trials", "100"]
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
            run(["detect", "--lambda", "2", "--pulse-log", str(log), "--calibration-trials", "100"])
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
            run(["detect", "--lambda", "2", "--pulse-log", str(log), "--calibration-trials", "100"])
        assert excinfo.value.code == 1
        assert f"{log}, line 3: n_b {count} exceeds the ceiling {cli.MAX_COUNT}" in capsys.readouterr().err

    def test_sweep_creates_out_directory(self, tmp_path):
        out = tmp_path / "nodir" / "sub"
        assert run(["attack-split", "--lambda", "2", "--sweep", "--out", str(out)]) == 0
        header, rows = read_csv(out / "split_sweep.csv")
        assert header[0] == "p" and len(rows) == 21

    @staticmethod
    def _file_out_argv(tmp_path, command):
        if command == "detect":
            log = tmp_path / "pulses.csv"
            log.write_text("pulse_index,n_a,n_b,n_e,noise_a,noise_b\n0,1,1,0,0,0\n1,2,2,0,0,0\n")
            return ["detect", "--lambda", "2", "--pulse-log", str(log), "--calibration-trials", "100"]
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

    @pytest.mark.parametrize("command", ["stats", "detect"])
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
            (["simulate", "--lambda", "2", "--pulses", "100", "--calibration-trials", "0"],
             "--calibration-trials"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--out", str(tmp_path / "out")])
        assert excinfo.value.code == 1
        assert f"argument {flag}:" in capsys.readouterr().err


    @pytest.mark.parametrize("pulses", ["100000000000", str(cli.MAX_PULSES + 1), "1"])
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

    def test_key_file_with_bad_odd_trailing_char(self, tmp_path, capsys):
        (tmp_path / "a.key").write_text("1010x\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(tmp_path / "a.key"), "--peer", "127.0.0.1:1"])
        assert excinfo.value.code == 1
        assert "0/1 characters" in capsys.readouterr().err

    def test_key_file_with_non_ascii_byte(self, tmp_path, capsys):
        key = tmp_path / "a.key"
        key.write_bytes(b"10\xff1\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["reconcile-connect", "--key", str(key), "--peer", "127.0.0.1:1"])
        assert excinfo.value.code == 1
        assert f"cannot read key file {key}" in capsys.readouterr().err

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


class TestConfigFile:
    def test_config_file_fills_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda": 2.0, "figure": 2}')
        out = tmp_path / "fig.csv"
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        assert run(["stats", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_seed_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 7}')
        args = ["simulate", "--lambda", "2", "--epsilon", "0.05", "--pulses", "2000",
                "--calibration-trials", "100"]
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

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lamda": 2}')
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg), "stats", "--lambda", "2", "--out", str(tmp_path / "fig.csv")])
        assert excinfo.value.code == 1
        assert "lamda" in capsys.readouterr().err
