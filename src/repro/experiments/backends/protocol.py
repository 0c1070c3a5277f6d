"""Length-prefixed, checksummed framing for the remote worker protocol.

Every message on the wire is one frame::

    +-------+------+----------+-------------+----------------+
    | magic | kind |  length  |  checksum   |    payload     |
    | 2B Rp |  1B  | 4B (BE)  | 8B sha256   | length bytes   |
    +-------+------+----------+-------------+----------------+

``checksum`` is the first 8 bytes of SHA-256 over the payload, verified
on receipt — a truncated or bit-flipped frame raises
:class:`ProtocolError` instead of deserializing garbage, and the
engine's reconnect ladder treats that connection as lost.  Payloads are
pickled Python objects (:class:`~repro.core.packing.PackedJobs`, cell
requests, :class:`~repro.experiments.runner.CellResult`).

.. warning::
   Pickle is not safe against a *malicious* peer — the checksum guards
   against corruption, not attackers.  Run workers only on machines and
   networks you trust (the same trust boundary as a shared filesystem
   cache).
"""

from __future__ import annotations

import enum
import hashlib
import pickle
import socket
import struct

__all__ = [
    "Frame",
    "Kind",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "parse_address",
    "recv_frame",
    "send_frame",
]

#: Bump on wire-format changes; exchanged in HELLO/WELCOME so skewed
#: driver/worker versions fail the handshake loudly.  v2: the TASK
#: payload is a named :class:`~repro.experiments.backends.base.CellRequest`
#: instead of an 11-slot positional tuple.
PROTOCOL_VERSION = 2

MAGIC = b"Rp"
HEADER = struct.Struct(">2sBI8s")

#: Upper bound on one frame's payload; a length beyond it means a torn
#: or hostile stream, not a real message (the largest legitimate frame
#: is a SEED carrying one packed workload).
MAX_FRAME = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The byte stream is not a valid frame (torn, corrupt, or skewed)."""


class Kind(enum.IntEnum):
    """Frame kinds; the comment is the payload each carries."""

    HELLO = 1  # {"version": int, "heartbeat_interval": float | None}
    WELCOME = 2  # {"version": int, "pid": int}
    SEED = 3  # (digest, PackedJobs) — workload shipped once per worker
    SEEDED = 4  # digest
    TASK = 5  # CellRequest, the argument of _run_cell_task
    RESULT = 6  # (key, CellResult, wall_seconds)
    TASK_ERROR = 7  # repr of the exception the cell raised
    PING = 8  # {"pid": int} — worker heartbeat, also sent mid-cell
    CACHE_GET = 9  # fingerprint
    CACHE_VALUE = 10  # (fingerprint, raw JSON text)
    CACHE_MISS = 11  # fingerprint
    CACHE_PUT = 12  # (fingerprint, raw JSON text)
    CACHE_OK = 13  # fingerprint
    BYE = 14  # None


class Frame(tuple):
    """(kind, payload) pair returned by :func:`recv_frame`."""

    __slots__ = ()

    def __new__(cls, kind: Kind, payload: object) -> "Frame":
        return super().__new__(cls, (kind, payload))

    @property
    def kind(self) -> Kind:
        return self[0]

    @property
    def payload(self) -> object:
        return self[1]


def _checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:8]


def send_frame(sock: socket.socket, kind: Kind, payload: object) -> None:
    """Serialize and send one frame (blocking, whole frame or raise)."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame payload of {len(body)} bytes exceeds MAX_FRAME")
    sock.sendall(HEADER.pack(MAGIC, int(kind), len(body), _checksum(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Frame:
    """Receive one frame (blocking); verify framing and checksum.

    Raises :class:`ProtocolError` for malformed bytes and
    :class:`ConnectionError` when the peer hung up cleanly between
    frames or mid-frame.
    """
    header = _recv_exact(sock, HEADER.size)
    magic, kind, length, digest = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    try:
        kind = Kind(kind)
    except ValueError:
        raise ProtocolError(f"unknown frame kind {kind}") from None
    body = _recv_exact(sock, length)
    if _checksum(body) != digest:
        raise ProtocolError(f"frame checksum mismatch on a {kind.name} frame")
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"undecodable {kind.name} payload: {exc!r}") from exc
    return Frame(kind, payload)


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` / ``"port"`` / ``(host, port)`` -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = str(address).strip()
    if ":" in text:
        host, _, port = text.rpartition(":")
    else:
        host, port = "127.0.0.1", text
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise ValueError(f"bad worker address {address!r}; expected HOST:PORT") from None
