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

from tmcc_qkd import channel, cli

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
