import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcc_qkd.channel import (
    MAX_KEY_BITS,
    MAX_PAYLOAD,
    ExchangeVerdict,
    Frame,
    FrameError,
    MsgType,
    Role,
    Transcript,
    connect_reconciliation,
    decode_frame,
    encode_frame,
    pack_bits,
    read_frame,
    run_reconciliation_exchange,
    send_frame,
    unpack_bits,
)
from tmcc_qkd.protocol import KeyMaterial


def exchange_pair(initiator_key, responder_key, transcripts=(None, None)):
    """Run both roles over a socketpair; returns (initiator, responder) verdicts."""
    left, right = socket.socketpair()
    results = {}

    def responder():
        results["responder"] = run_reconciliation_exchange(
            Role.RESPONDER, responder_key, right, timeout=5.0, transcript=transcripts[1]
        )

    thread = threading.Thread(target=responder)
    thread.start()
    results["initiator"] = run_reconciliation_exchange(
        Role.INITIATOR, initiator_key, left, timeout=5.0, transcript=transcripts[0]
    )
    thread.join()
    left.close()
    right.close()
    return results["initiator"], results["responder"]


class TestFraming:
    def test_hello_layout(self):
        raw = encode_frame(Frame(MsgType.HELLO))
        assert raw == bytes.fromhex("544d4343010100000000")
        assert len(raw) == 10

    def test_length_field(self):
        raw = encode_frame(Frame(MsgType.XOR_CODE, b"abc"))
        assert raw[6:10] == bytes.fromhex("00000003")

    def test_payload_too_large(self):
        with pytest.raises(FrameError):
            Frame(MsgType.XOR_CODE, b"x" * (2**20 + 1))

    def test_bad_magic_rejected(self):
        raw = bytearray(encode_frame(Frame(MsgType.HELLO)))
        raw[0] = 0x00
        with pytest.raises(FrameError):
            decode_frame(bytes(raw))

    def test_truncated_frame_rejected(self):
        raw = encode_frame(Frame(MsgType.XOR_CODE, b"abc"))
        with pytest.raises(FrameError):
            decode_frame(raw[:-1])

    @given(st.sampled_from(list(MsgType)), st.binary(max_size=256))
    @settings(max_examples=100)
    def test_round_trip(self, msg_type, payload):
        frame = Frame(msg_type, payload)
        assert decode_frame(encode_frame(frame)) == frame


class ChunkedTransport:
    """Byte-stream stand-in whose recv returns the stream in preset chunks."""

    def __init__(self, data: bytes, cuts):
        bounds = sorted({c % (len(data) + 1) for c in cuts} | {0, len(data)})
        self._chunks = [data[i:j] for i, j in zip(bounds, bounds[1:])]
        self.consumed = 0

    def recv(self, n: int) -> bytes:
        if not self._chunks:
            return b""
        chunk = self._chunks[0][:n]
        self._chunks[0] = self._chunks[0][n:]
        if not self._chunks[0]:
            self._chunks.pop(0)
        self.consumed += len(chunk)
        return chunk


@st.composite
def stream_bytes(draw):
    """A valid frame or arbitrary bytes, then maybe one byte flipped, the
    end cut off, or bytes appended."""
    raw = draw(st.one_of(
        st.builds(lambda t, p: encode_frame(Frame(t, p)), st.integers(0, 255), st.binary(max_size=64)),
        st.binary(max_size=80),
    ))
    kind = draw(st.sampled_from(["keep", "flip", "truncate", "extend"]))
    if kind == "flip" and raw:
        i = draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1 :]
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw)))]
    if kind == "extend":
        return raw + draw(st.binary(min_size=1, max_size=16))
    return raw


class TestReadFrame:
    @given(stream_bytes(), st.lists(st.integers(0, 200), max_size=8))
    @settings(max_examples=300)
    def test_agrees_with_decode_frame(self, raw, cuts):
        transport = ChunkedTransport(raw, cuts)
        try:
            frame = read_frame(transport)
        except FrameError:
            with pytest.raises(FrameError):
                decode_frame(raw)
            return
        # bytes past the frame belong to the next one and stay unread
        assert frame == decode_frame(raw[: transport.consumed])


class TestBitPacking:
    @given(st.lists(st.integers(0, 1), max_size=200))
    @settings(max_examples=100)
    def test_round_trip(self, bits):
        assert np.array_equal(unpack_bits(pack_bits(bits)), bits)

    def test_msb_first(self):
        assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x00\x00\x00\x08\x80"

    def test_trailing_pad_disambiguated(self):
        assert unpack_bits(pack_bits([1])).tolist() == [1]
        assert unpack_bits(pack_bits([1, 0])).tolist() == [1, 0]


class TestExchange:
    def test_same_key_matches_both_ends(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1, 0, 0])
        assert exchange_pair(key, key) == (ExchangeVerdict.MATCH, ExchangeVerdict.MATCH)

    def test_single_flip_mismatch(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1, 0, 0])
        other = KeyMaterial.from_bits([0, 0, 1, 1, 0, 0])
        assert exchange_pair(key, other) == (ExchangeVerdict.MISMATCH, ExchangeVerdict.MISMATCH)

    def test_length_mismatch_is_mismatch(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        other = KeyMaterial.from_bits([1, 0])
        assert exchange_pair(key, other) == (ExchangeVerdict.MISMATCH, ExchangeVerdict.MISMATCH)

    def test_transcript_carries_only_xor_code(self):
        # pick a key whose halves differ from their XOR so leakage is visible
        key = KeyMaterial.from_bits([1, 1, 0, 1, 1, 0, 0, 1])
        transcript = Transcript()
        exchange_pair(key, key, transcripts=(transcript, None))
        wire = b"".join(raw for _, raw in transcript.entries)
        assert pack_bits(key.xor_code) in wire
        assert pack_bits(key.half_a) not in wire
        assert pack_bits(key.half_b) not in wire
        assert pack_bits(key.bits) not in wire

    def test_unknown_msg_type_aborts(self):
        left, right = socket.socketpair()
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        results = {}

        def responder():
            results["responder"] = run_reconciliation_exchange(
                Role.RESPONDER, key, right, timeout=5.0
            )

        thread = threading.Thread(target=responder)
        thread.start()
        send_frame(left, Frame(99, b""))
        thread.join()
        left.close()
        right.close()
        assert results["responder"] is ExchangeVerdict.ABORT

    @pytest.mark.parametrize("cut_at", [0, 3, 9, 10, 12])
    def test_truncated_stream_aborts(self, cut_at):
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        left, right = socket.socketpair()
        results = {}

        def responder():
            results["responder"] = run_reconciliation_exchange(
                Role.RESPONDER, key, right, timeout=2.0
            )

        thread = threading.Thread(target=responder)
        thread.start()
        stream = encode_frame(Frame(MsgType.HELLO)) + encode_frame(
            Frame(MsgType.XOR_CODE, pack_bits(key.xor_code))
        )
        left.sendall(stream[:cut_at])
        left.close()
        thread.join()
        right.close()
        assert results["responder"] is ExchangeVerdict.ABORT

    def test_timeout_aborts(self):
        key = KeyMaterial.from_bits([1, 0, 1, 1])
        left, right = socket.socketpair()
        verdict = run_reconciliation_exchange(Role.RESPONDER, key, right, timeout=0.2)
        left.close()
        right.close()
        assert verdict is ExchangeVerdict.ABORT


class RecordingTransport:
    """Collects what is sent and replies with prepared bytes; no socket."""

    def __init__(self, reply: bytes = b""):
        self.sent = b""
        self._reply = reply

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def recv(self, n: int) -> bytes:
        chunk, self._reply = self._reply[:n], self._reply[n:]
        return chunk


class TestInitiatorVerdict:
    """The initiator accepts exactly the VERDICT payloads a responder sends;
    any other gets an ABORT frame back and yields ABORT."""

    KEY = KeyMaterial.from_bits([1, 0, 1, 1])
    REQUEST = encode_frame(Frame(MsgType.HELLO)) + encode_frame(Frame(MsgType.XOR_CODE, pack_bits(KEY.xor_code)))

    @pytest.mark.parametrize(
        "payload, verdict",
        [
            (b"\x01", ExchangeVerdict.MATCH),
            (b"\x00", ExchangeVerdict.MISMATCH),
            (b"\x00\x01", ExchangeVerdict.MISMATCH),  # with the length-detail byte
        ],
    )
    def test_responder_payloads(self, payload, verdict):
        transport = RecordingTransport(encode_frame(Frame(MsgType.VERDICT, payload)))
        assert run_reconciliation_exchange(Role.INITIATOR, self.KEY, transport) is verdict
        assert transport.sent == self.REQUEST

    @pytest.mark.parametrize("payload", [b"", b"\x07", b"\x02", b"\x01\x01", b"\x00\x00", b"\x00\x01\x00"])
    def test_other_payloads_abort(self, payload):
        transport = RecordingTransport(encode_frame(Frame(MsgType.VERDICT, payload)))
        assert run_reconciliation_exchange(Role.INITIATOR, self.KEY, transport) is ExchangeVerdict.ABORT
        assert transport.sent == self.REQUEST + encode_frame(Frame(MsgType.ABORT))


class TestKeyBitLimit:
    def test_longest_key_fills_one_frame(self):
        key = KeyMaterial(np.zeros(MAX_KEY_BITS, np.uint8))
        payload = pack_bits(key.xor_code)
        assert len(payload) == MAX_PAYLOAD
        transport = RecordingTransport(encode_frame(Frame(MsgType.VERDICT, b"\x01")))
        assert run_reconciliation_exchange(Role.INITIATOR, key, transport) is ExchangeVerdict.MATCH
        assert transport.sent == encode_frame(Frame(MsgType.HELLO)) + encode_frame(
            Frame(MsgType.XOR_CODE, payload)
        )

    def test_longer_key_refused_before_any_frame(self):
        key = KeyMaterial(np.zeros(MAX_KEY_BITS + 2, np.uint8))
        with pytest.raises(FrameError):
            Frame(MsgType.XOR_CODE, pack_bits(key.xor_code))
        transport = RecordingTransport()
        limit = f"{MAX_KEY_BITS + 2} bits exceeds the {MAX_KEY_BITS}-bit limit"
        with pytest.raises(ValueError, match=limit):
            run_reconciliation_exchange(Role.INITIATOR, key, transport)
        assert transport.sent == b""
        # refused before connecting: port 1 would otherwise give ABORT
        with pytest.raises(ValueError, match=limit):
            connect_reconciliation("127.0.0.1", 1, key)


class TestConnectErrors:
    """A host that does not resolve is an address error the caller reports;
    any other failure to connect is ABORT."""

    KEY = KeyMaterial(np.array([1, 0, 1, 1], np.uint8))

    @staticmethod
    def _refuse_with(monkeypatch, exc):
        def create_connection(*args, **kwargs):
            raise exc

        monkeypatch.setattr(socket, "create_connection", create_connection)

    def test_lookup_failure_raised(self, monkeypatch):
        self._refuse_with(monkeypatch, socket.gaierror(socket.EAI_NONAME, "Name or service not known"))
        with pytest.raises(socket.gaierror):
            connect_reconciliation("nonexistent.invalid", 9000, self.KEY)

    @pytest.mark.parametrize("exc", [ConnectionRefusedError(111, "Connection refused"), TimeoutError("timed out")])
    def test_other_connect_failure_aborts(self, monkeypatch, exc):
        self._refuse_with(monkeypatch, exc)
        assert connect_reconciliation("127.0.0.1", 9000, self.KEY) is ExchangeVerdict.ABORT
