"""Fixed-seed CLI outputs and a reconcile transcript, checked against saved
SHA-256 digests.

Criterion 12 only shows that two runs of the same code agree; these digests
pin the bytes themselves, so a refactor of the pulse, key or frame path that
changes a single byte of `pulses.csv`, a key file, a report or the wire
transcript fails here.
"""

import hashlib
import socket
import threading

import pytest

from tmcc_qkd import attacks, channel, cli
from tmcc_qkd.photon_stats import IntensityParam, PhotonStatsError

COMMON = ["--lambda", "2", "--epsilon", "0.05", "--pulses", "3000", "--seed", "2718"]
SCENARIOS = {
    "simulate": ["simulate"],
    "split": ["attack-split", "--split-p2", "0.5"],
    "clone-single-photon-bank": ["attack-clone", "--clone-strategy", "single-photon-bank"],
    "clone-coherent": ["attack-clone", "--clone-strategy", "coherent"],
    "clone-tmcc-clone": ["attack-clone", "--clone-strategy", "tmcc-clone"],
}
FILES = ("pulses.csv", "alice.key", "bob.key", "report.txt")

# recorded from the per-pulse PulseRecord implementation, before PulseBatch
GOLDEN = {
    "simulate/pulses.csv": "9b0191925015bec08637eeac3bcaf2d0d9f93d45331d449f4a9d754b39cdf891",
    "simulate/alice.key": "e76522ec4fe2a1be46b2ad9bf1aef107946ad1486e6abba69bc24b5bf6ce822f",
    "simulate/bob.key": "0f60b92e9051e4082be5ed52e5e7e8b1d8aa4f67d3e70a647ce055dc6bf06361",
    "simulate/report.txt": "91fd72f233a403e0480628ec7b3b208f29d58530e3728924f09145ff008a07d6",
    "split/pulses.csv": "e96f710505818d32bac9d4bfdf07cc38dc6b8fa4488740ee8d5fa92cd83c6ff6",
    "split/alice.key": "e76522ec4fe2a1be46b2ad9bf1aef107946ad1486e6abba69bc24b5bf6ce822f",
    "split/bob.key": "5b06ef3f58a9dcb8913eb4b527ff7d7bc783a3c28f74dc48aaad71a57dc34b01",
    "split/report.txt": "7c01fa560083f075ac96c64a2e3de64bc4d157d2af06cac7914cf5a4dccdb625",
    "clone-single-photon-bank/pulses.csv": "6116ccf10cbe76b8c8e3a43d9f86fea496710b399760fe86671c7908c98f43ab",
    "clone-single-photon-bank/alice.key": "e76522ec4fe2a1be46b2ad9bf1aef107946ad1486e6abba69bc24b5bf6ce822f",
    "clone-single-photon-bank/bob.key": "0f60b92e9051e4082be5ed52e5e7e8b1d8aa4f67d3e70a647ce055dc6bf06361",
    "clone-single-photon-bank/report.txt": "91fd72f233a403e0480628ec7b3b208f29d58530e3728924f09145ff008a07d6",
    "clone-coherent/pulses.csv": "22508c8fb7f404af03acfdf7e45eba83ac608d3ba846fc7375359b3a15eee803",
    "clone-coherent/alice.key": "e76522ec4fe2a1be46b2ad9bf1aef107946ad1486e6abba69bc24b5bf6ce822f",
    "clone-coherent/bob.key": "a0ecd6532ee91a79c2ddd81507e731e73b6deadf7bb5fd39c83ac70196256d7a",
    "clone-coherent/report.txt": "b8c37ac46ac4590ab3393b23a4607f1b17c96fcb072e8289150d17fae38bd289",
    "clone-tmcc-clone/pulses.csv": "04fcbf98b724fc02d7d94d67a844eeb09ae3c26905fcdfe84821cefc5403e545",
    "clone-tmcc-clone/alice.key": "e76522ec4fe2a1be46b2ad9bf1aef107946ad1486e6abba69bc24b5bf6ce822f",
    "clone-tmcc-clone/bob.key": "e550fb51be0ac88392ce2e958a75285178a3cf7bfecec084ebde3d1e0ffd7030",
    "clone-tmcc-clone/report.txt": "0bfe3a98cfe67318ebfdc2cd0cbf55895f2b7186e6eeb3623ff0f4c7983a73dd",
    "detect/report.txt": "91fd72f233a403e0480628ec7b3b208f29d58530e3728924f09145ff008a07d6",
    "reconcile/transcript": "c4fb9b59e6846b8e36deced76f5cf55c97537d0a26792b283481fc46f2a2eba4",
    "reconcile/transcript-length": "bf632850d276c53fc69671c35b9a134823658bdb190e713135a77366e9cc991a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _transcript_hex(alice_key, bob_key, tmp_path) -> bytes:
    """Both sides' hex transcripts of one in-process exchange, Alice initiating."""
    parser = cli.build_parser()
    alice = cli._load_key(str(alice_key), parser)
    bob = cli._load_key(str(bob_key), parser)
    transcripts = (channel.Transcript(), channel.Transcript())
    left, right = socket.socketpair()
    box = {}

    def responder():
        box["verdict"] = channel.run_reconciliation_exchange(
            channel.Role.RESPONDER, bob, right, timeout=5.0, transcript=transcripts[1]
        )

    thread = threading.Thread(target=responder)
    thread.start()
    verdict = channel.run_reconciliation_exchange(
        channel.Role.INITIATOR, alice, left, timeout=5.0, transcript=transcripts[0]
    )
    thread.join(10.0)
    left.close()
    right.close()
    assert not thread.is_alive()
    out = b""
    for side, transcript in zip(("initiator", "responder"), transcripts):
        path = tmp_path / f"{side}.hex"
        transcript.dump_hex(path)
        out += path.read_bytes()
    return out + f"{verdict.value},{box['verdict'].value}\n".encode()


def golden_digests(tmp_path) -> dict:
    digests = {}
    for name, argv in SCENARIOS.items():
        out = tmp_path / name
        assert cli.main([*argv, *COMMON, "--out", str(out)]) == 0
        for fname in FILES:
            digests[f"{name}/{fname}"] = _sha((out / fname).read_bytes())
    report = tmp_path / "detect.txt"
    assert cli.main(["detect", "--lambda", "2", "--seed", "2718", "--out", str(report),
                     "--pulse-log", str(tmp_path / "simulate" / "pulses.csv")]) == 0
    digests["detect/report.txt"] = _sha(report.read_bytes())
    sim = tmp_path / "simulate"
    digests["reconcile/transcript"] = _sha(
        _transcript_hex(sim / "alice.key", sim / "bob.key", tmp_path)
    )
    # a shorter responder key: the verdict frame carries the length-mismatch byte
    short = tmp_path / "short.key"
    short.write_text((sim / "bob.key").read_text()[:1001] + "\n")
    digests["reconcile/transcript-length"] = _sha(
        _transcript_hex(sim / "alice.key", short, tmp_path)
    )
    return digests


def test_fixed_seed_outputs_match_saved_digests(tmp_path, capsys):
    assert golden_digests(tmp_path) == GOLDEN


# a run below detection.MIN_PULSES reads insufficient-data and prints only its own statistics;
# recorded when calibration was still floored at MIN_PULSES pulses, not at the run's own count
BELOW_FLOOR_REPORT = "16e2ef3aa4c58948e21223a61c133376cacdea7fbf213638bb9f92a6dff3c928"


def test_below_floor_reports_match_saved_digest(tmp_path, capsys):
    sim = tmp_path / "simulate"
    assert cli.main(["simulate", "--lambda", "2", "--epsilon", "0.05", "--pulses", "500", "--seed", "2718",
                     "--out", str(sim)]) == 0
    report = tmp_path / "detect.txt"
    assert cli.main(["detect", "--lambda", "2", "--seed", "2718", "--out", str(report),
                     "--pulse-log", str(sim / "pulses.csv")]) == 0
    assert [_sha(path.read_bytes()) for path in (sim / "report.txt", report)] == [BELOW_FLOOR_REPORT] * 2


# figure CSVs, split sweeps, clone matrices and the clone-ceiling error text,
# recorded before the analytic sweeps were batched over their grids
ANALYTIC_GOLDEN = {
    "figures@0.5/figure1.csv": "e430448cfc4b12f30fe036497cc4ac3c71e369f1a6832d7b2f955eda2356a163",
    "figures@0.5/figure2.csv": "c90553561453b09f53a621369721e53bb6477c15787e9b715bfa3b6f897ea988",
    "figures@0.5/figure3.csv": "6482bb5f02f8716f809b191a89a247225df87a138d79092e6043fe7af2075c1c",
    "figures@0.5/figure5.csv": "0472e335533a0369edb5d27432375acecf6cd1185437d2912ca01c23694a9a01",
    "figures@0.5/figure6.csv": "4dd82dfd08a13236849acba452d4f33ceff6e2ed8b121b0ef76a0e516a15de45",
    "figures@2/figure1.csv": "0bac662399a9beb428e80161e68c9c9e4c32b921f6303a54299eaa27bf2ff494",
    "figures@2/figure2.csv": "c90553561453b09f53a621369721e53bb6477c15787e9b715bfa3b6f897ea988",
    "figures@2/figure3.csv": "6482bb5f02f8716f809b191a89a247225df87a138d79092e6043fe7af2075c1c",
    "figures@2/figure5.csv": "4666b42452aab34d7e0fa88b66f90e02e60f426a980e61012995182cb312955f",
    "figures@2/figure6.csv": "d1d767d6c64405d1e66986a2b38720946c74aa956328fccb4ffaf48f73432549",
    "figures@16/figure1.csv": "05066bfbc385d9cd6bad3c8fe4656472a7281c3ec25e97b24246b20c10dc17ca",
    "figures@16/figure2.csv": "c90553561453b09f53a621369721e53bb6477c15787e9b715bfa3b6f897ea988",
    "figures@16/figure3.csv": "6482bb5f02f8716f809b191a89a247225df87a138d79092e6043fe7af2075c1c",
    "figures@16/figure5.csv": "42cb1bd3cafe72befd0de747c0f3e6292060fcd7cd213122e61cd077d6b9f7df",
    "figures@16/figure6.csv": "53d19dbbfdb6d8d06b50ad7ba8a974f37244a2c203f6fc95dff9a67d1e55797a",
    "figures@50/figure1.csv": "beb62b449973f2225d0bafb2d16d5e2f634f507d40b8ee280114f5d75a8dd177",
    "figures@50/figure2.csv": "c90553561453b09f53a621369721e53bb6477c15787e9b715bfa3b6f897ea988",
    "figures@50/figure3.csv": "6482bb5f02f8716f809b191a89a247225df87a138d79092e6043fe7af2075c1c",
    "figures@50/figure5.csv": "3f4cc75636d0c4cab45debe92ea49d7400b5876fb62b7db1fcc10a2959e724cb",
    "figures@50/figure6.csv": "271017a9898c9e4fe2ef480a108af765540cb47e9d7e7ff4933d16664461c37f",
    "sweep@2": "4666b42452aab34d7e0fa88b66f90e02e60f426a980e61012995182cb312955f",
    "sweep@50": "3f4cc75636d0c4cab45debe92ea49d7400b5876fb62b7db1fcc10a2959e724cb",
    # figure 5 and its sweep at more lambdas, recorded before the split laws
    # were formed from one (k, j) kernel
    "figures@1/figure5.csv": "a240378b562ffcb15e228b773ed0a681a0a839c5f690269e3bd1726489ea0c86",
    "sweep@1": "a240378b562ffcb15e228b773ed0a681a0a839c5f690269e3bd1726489ea0c86",
    "figures@4/figure5.csv": "c0cfd08473f89dc1e4a4828d009f65a9c10683dab29e364e7af4e2562a098e35",
    "sweep@4": "c0cfd08473f89dc1e4a4828d009f65a9c10683dab29e364e7af4e2562a098e35",
    "figures@8/figure5.csv": "6b42df80613adf29afa89e83ce7a7e467ba142ee8d32890f36294517ef69a78c",
    "sweep@8": "6b42df80613adf29afa89e83ce7a7e467ba142ee8d32890f36294517ef69a78c",
    "figures@32/figure5.csv": "c6ef19d52194e4ade51fe6c0f2ce5210e2bbd66591ef6606b7137a047c7eba1f",
    "sweep@32": "c6ef19d52194e4ade51fe6c0f2ce5210e2bbd66591ef6606b7137a047c7eba1f",
    "figures@45/figure5.csv": "f8951b7afeab1c69e760c70918f31a48cf7e66a0b94e3226f94d7c8d36d7256a",
    "sweep@45": "f8951b7afeab1c69e760c70918f31a48cf7e66a0b94e3226f94d7c8d36d7256a",
    "stats/figure2.csv": "c90553561453b09f53a621369721e53bb6477c15787e9b715bfa3b6f897ea988",
    "stats/figure3.csv": "6482bb5f02f8716f809b191a89a247225df87a138d79092e6043fe7af2075c1c",
    "clone@0.5/single-photon-bank": "df71319f9159ff2ee50a9a830016af285514d1c9572fa35b5f9508a237e745ff",
    "clone@0.5/coherent": "5b8f4c3814135195277513f2e521c5cb370811ba22faf9cee883d5944718e290",
    "clone@0.5/tmcc-clone": "85a50d9f20d8af3bad6db58416b1d43834fb748da08d112045a5145a84d8c02d",
    "clone@2/single-photon-bank": "2e20063ef91f3e3ed63174125e3f7fefda7a6c29f1947989efee7b037232b347",
    "clone@2/coherent": "bada16bfd9ae05200f674b1d201f6dfd4f753a4feea1990319ef73b953d43e4b",
    "clone@2/tmcc-clone": "584f61e50fdd2bb7d842fab2ae9456c827cda69a10300dd423a584ea8e6c6d5f",
    "clone@8/single-photon-bank": "bff9c92150cd9823ad35f2d95f0ffbe6c99d4c9b9c7c64d7e818ea57e78915d6",
    "clone@8/coherent": "5dfa4b61ada138fea03189ad62ce68e2add4b5fdab981d49da9b9d6a8c0afd23",
    "clone@8/tmcc-clone": "67d8c50bb48feed226a7d6fe5077bc0bffa94146ccc2d2638ef20733276153e6",
    "clone@16/single-photon-bank": "dec3713856b179c820b6780cc21f46db532cd6253fe1ba375470b2398d44b565",
    "clone@16/coherent": "b534621d1f9759708cf89b6fce3b791c659c7b303a103f755cf677f3f311c6c6",
    "clone@16/tmcc-clone": "52e6690af59d007ed466627da3b48fd081b195b1aa246ea21e6773c02cf3aaf9",
    "clone@32/tmcc-clone-error": "e426b448f75146eb1acde6867e631f61db1958c4e836baa4523836e3f78cd54c",
    "clone@50/tmcc-clone-error": "e426b448f75146eb1acde6867e631f61db1958c4e836baa4523836e3f78cd54c",
}


def analytic_digests(tmp_path) -> dict:
    digests = {}
    for lam in ("0.5", "1", "2", "4", "8", "16", "32", "45", "50"):
        out = tmp_path / f"figures-{lam}"
        assert cli.main(["figures", "--lambda", lam, "--out", str(out)]) == 0
        for figure in (1, 2, 3, 5, 6) if lam in ("0.5", "2", "16", "50") else (5,):
            digests[f"figures@{lam}/figure{figure}.csv"] = _sha((out / f"figure{figure}.csv").read_bytes())
    for lam in ("1", "2", "4", "8", "32", "45", "50"):
        out = tmp_path / f"sweep-{lam}.csv"
        assert cli.main(["attack-split", "--lambda", lam, "--sweep", "--out", str(out)]) == 0
        digests[f"sweep@{lam}"] = _sha(out.read_bytes())
    for figure in ("2", "3"):
        out = tmp_path / f"stats-{figure}.csv"
        assert cli.main(["stats", "--figure", figure, "--out", str(out)]) == 0
        digests[f"stats/figure{figure}.csv"] = _sha(out.read_bytes())
    for lam in (0.5, 2.0, 8.0, 16.0):
        for strategy in attacks.CloneStrategy:
            probs = attacks.cloned_bob_matrix(IntensityParam(lam), strategy).probs
            digests[f"clone@{lam:g}/{strategy.value}"] = _sha(",".join(f"{p:.12g}" for p in probs).encode())
    for lam in (32.0, 50.0):
        with pytest.raises(PhotonStatsError) as info:
            attacks.cloned_bob_matrix(IntensityParam(lam), attacks.CloneStrategy.TMCC_CLONE)
        digests[f"clone@{lam:g}/tmcc-clone-error"] = _sha(str(info.value).encode())
    return digests


def test_analytic_outputs_match_saved_digests(tmp_path):
    assert analytic_digests(tmp_path) == ANALYTIC_GOLDEN
