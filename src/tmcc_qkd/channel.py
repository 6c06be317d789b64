"""Public-channel exchange of the reconciliation XOR code.

Wire format: fixed frames `magic("TMCC") | version(1) | msg_type(1) |
length(4, big-endian) | payload`.  The XOR_CODE payload is a 4-byte
big-endian bit count followed by the bits packed MSB-first.  Only the XOR
code ever crosses the wire; the half-codes themselves stay local.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .protocol import ExchangeVerdict, KeyMaterial, MismatchReason, reconcile

MAGIC = b"TMCC"
VERSION = 1
HEADER = struct.Struct(">4sBBI")
MAX_PAYLOAD = 2**20
# longest key whose XOR code (half its bits, after the 4-byte count) fits one frame
MAX_KEY_BITS = 2 * 8 * (MAX_PAYLOAD - 4)
DEFAULT_TIMEOUT = 10.0
# the VERDICT payloads a responder sends: MATCH, MISMATCH, and MISMATCH with the length-detail byte
_VERDICTS = {
    b"\x01": ExchangeVerdict.MATCH,
    b"\x00": ExchangeVerdict.MISMATCH,
    b"\x00\x01": ExchangeVerdict.MISMATCH,
}


class MsgType(enum.IntEnum):
    HELLO = 1
    XOR_CODE = 2
    VERDICT = 3
    ABORT = 4


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class FrameError(ValueError):
    """Malformed or oversized frame."""


class KeySizeError(ValueError):
    """Initiator key whose XOR code would not fit one frame."""


@dataclass(frozen=True)
class Frame:
    msg_type: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError(f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD}")


@dataclass
class Transcript:
    """Raw frames seen on the wire, tagged by direction ('>' sent, '<' received)."""

    entries: list[tuple[str, bytes]] = field(default_factory=list)

    def record(self, direction: str, raw: bytes) -> None:
        self.entries.append((direction, raw))

    def dump_hex(self, path) -> None:
        with open(path, "w") as fh:
            for direction, raw in self.entries:
                fh.write(f"{direction} {raw.hex()}\n")


def encode_frame(frame: Frame) -> bytes:
    return HEADER.pack(MAGIC, VERSION, frame.msg_type, len(frame.payload)) + frame.payload


def _parse_header(raw: bytes) -> tuple[int, int]:
    """msg_type and declared payload length of a frame starting at raw[0]."""
    if len(raw) < HEADER.size:
        raise FrameError("short frame header")
    magic, version, msg_type, length = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError(f"unsupported version {version}")
    if length > MAX_PAYLOAD:
        raise FrameError("declared payload too large")
    return msg_type, length


def decode_frame(raw: bytes) -> Frame:
    msg_type, length = _parse_header(raw)
    if len(raw) != HEADER.size + length:
        raise FrameError("frame length does not match declared payload length")
    return Frame(msg_type, raw[HEADER.size :])


def pack_bits(bits) -> bytes:
    """XOR_CODE payload: 4-byte bit count then the bits packed MSB-first."""
    bits = np.asarray(bits, dtype=np.uint8)
    return struct.pack(">I", bits.size) + np.packbits(bits).tobytes()


def unpack_bits(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise FrameError("xor-code payload shorter than its bit-count prefix")
    (count,) = struct.unpack_from(">I", payload)
    data = np.frombuffer(payload, dtype=np.uint8, offset=4)
    if data.size != (count + 7) // 8:
        raise FrameError("xor-code payload length inconsistent with bit count")
    return np.unpackbits(data, count=count)


def _recv_exact(transport, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = transport.recv(n - len(buf))
        if not chunk:
            raise FrameError("transport closed mid-frame")
        buf += chunk
    return buf


def read_frame(transport, transcript: Optional[Transcript] = None) -> Frame:
    header = _recv_exact(transport, HEADER.size)
    # validate before reading, so a bad or oversized header reads no payload
    msg_type, length = _parse_header(header)
    raw = header + _recv_exact(transport, length)
    if transcript is not None:
        transcript.record("<", raw)
    return Frame(msg_type, raw[HEADER.size :])


def send_frame(transport, frame: Frame, transcript: Optional[Transcript] = None) -> None:
    raw = encode_frame(frame)
    transport.sendall(raw)
    if transcript is not None:
        transcript.record(">", raw)


def _abort(transport, transcript: Optional[Transcript]) -> ExchangeVerdict:
    try:
        send_frame(transport, Frame(MsgType.ABORT), transcript)
    except OSError:
        pass
    return ExchangeVerdict.ABORT


def _check_key_fits(key: KeyMaterial) -> None:
    if key.bits.size > MAX_KEY_BITS:
        raise KeySizeError(
            f"key of {key.bits.size} bits exceeds the {MAX_KEY_BITS}-bit limit: "
            "its XOR code would not fit one frame"
        )


def run_reconciliation_exchange(
    role: Role,
    key: KeyMaterial,
    transport,
    timeout: float = DEFAULT_TIMEOUT,
    transcript: Optional[Transcript] = None,
) -> ExchangeVerdict:
    """One blocking request/response reconciliation over a byte stream.

    The initiator sends HELLO then its XOR code; the responder reconciles
    and replies with the verdict.  Any timeout, malformed frame, VERDICT
    payload that no responder sends, or closed stream yields ABORT (after a
    best-effort ABORT frame to the peer).
    An initiator key longer than MAX_KEY_BITS raises KeySizeError before any
    frame is sent.
    """
    if role is Role.INITIATOR:
        _check_key_fits(key)
    if hasattr(transport, "settimeout"):
        transport.settimeout(timeout)
    try:
        if role is Role.INITIATOR:
            send_frame(transport, Frame(MsgType.HELLO), transcript)
            send_frame(transport, Frame(MsgType.XOR_CODE, pack_bits(key.xor_code)), transcript)
            reply = read_frame(transport, transcript)
            verdict = _VERDICTS.get(reply.payload) if reply.msg_type == MsgType.VERDICT else None
            return _abort(transport, transcript) if verdict is None else verdict

        hello = read_frame(transport, transcript)
        if hello.msg_type != MsgType.HELLO:
            return _abort(transport, transcript)
        code = read_frame(transport, transcript)
        if code.msg_type != MsgType.XOR_CODE:
            return _abort(transport, transcript)
        result = reconcile(key, unpack_bits(code.payload))
        payload = bytes([result.verdict is ExchangeVerdict.MATCH])
        if result.reason is MismatchReason.LENGTH:
            payload += b"\x01"  # detail byte: length mismatch
        send_frame(transport, Frame(MsgType.VERDICT, payload), transcript)
        return result.verdict
    except (FrameError, OSError):
        return _abort(transport, transcript)


def serve_reconciliation(
    host: str,
    port: int,
    key: KeyMaterial,
    timeout: float = DEFAULT_TIMEOUT,
    transcript: Optional[Transcript] = None,
    ready_callback=None,
) -> ExchangeVerdict:
    """Accept one TCP connection and run the responder side."""
    with socket.create_server((host, port)) as server:
        server.settimeout(timeout)
        if ready_callback is not None:
            ready_callback(server.getsockname()[1])
        try:
            conn, _ = server.accept()
        except (OSError, TimeoutError):
            return ExchangeVerdict.ABORT
        with conn:
            return run_reconciliation_exchange(Role.RESPONDER, key, conn, timeout, transcript)


def connect_reconciliation(
    host: str,
    port: int,
    key: KeyMaterial,
    timeout: float = DEFAULT_TIMEOUT,
    transcript: Optional[Transcript] = None,
) -> ExchangeVerdict:
    """Connect to a responder over TCP and run the initiator side.

    A key longer than MAX_KEY_BITS raises KeySizeError before connecting.
    A host that does not resolve raises socket.gaierror; any other socket
    error, a refused or timed-out connection among them, yields ABORT.
    """
    _check_key_fits(key)
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            return run_reconciliation_exchange(Role.INITIATOR, key, conn, timeout, transcript)
    except socket.gaierror:
        raise
    except OSError:
        return ExchangeVerdict.ABORT
