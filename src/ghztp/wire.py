"""Framing for the network harness: one JSON object per UTF-8 line.

Every message carries a per-sender, per-connection strictly increasing
``seq``, the coordinator's ``session_id`` (empty until granted), a ``kind``
and a kind-specific ``body``. Lines are capped at 64 KiB; anything that does
not parse to exactly this shape is a framing violation and the connection is
closed after an Error message.
"""

from __future__ import annotations

import json
from collections import namedtuple
from enum import Enum

MAX_LINE_BYTES = 64 * 1024

ERR_LOCALITY = "ERR_LOCALITY"
ERR_PHASE = "ERR_PHASE"
ERR_FRAME = "ERR_FRAME"
ERR_ROLE_TAKEN = "ERR_ROLE_TAKEN"


class FrameError(ValueError):
    """The byte stream violates the framing contract."""


class Kind(Enum):
    HELLO = "Hello"
    GRANT = "Grant"
    OP_REQUEST = "OpRequest"
    OP_RESULT = "OpResult"
    CLASSICAL = "Classical"
    FINISH = "Finish"
    ERROR = "Error"


# seq: int, session_id: str, kind: Kind, body: dict. A namedtuple, not a
# dataclass: a party process then never imports dataclasses and inspect.
WireMessage = namedtuple("WireMessage", "seq session_id kind body")


def encode(message: WireMessage) -> bytes:
    line = json.dumps(
        {
            "seq": message.seq,
            "session_id": message.session_id,
            "kind": message.kind.value,
            "body": message.body,
        },
        separators=(",", ":"),
    )
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise FrameError(f"encoded message is {len(data)} bytes, cap is {MAX_LINE_BYTES}")
    return data


def decode(line: bytes) -> WireMessage:
    try:
        obj = json.loads(line.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and an integer past int's digit limit.
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"not a JSON line: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"seq", "session_id", "kind", "body"}:
        raise FrameError("message must be an object with seq, session_id, kind, body")
    seq, session_id, kind, body = obj["seq"], obj["session_id"], obj["kind"], obj["body"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise FrameError(f"seq must be a positive integer, got {seq!r}")
    if not isinstance(session_id, str):
        raise FrameError("session_id must be a string")
    if not isinstance(body, dict):
        raise FrameError("body must be an object")
    try:
        parsed_kind = Kind(kind)
    except ValueError as exc:
        raise FrameError(f"unknown message kind {kind!r}") from exc
    return WireMessage(seq=seq, session_id=session_id, kind=parsed_kind, body=body)


def complete_line(line: bytes) -> bytes:
    """``line``, read as ``readline(MAX_LINE_BYTES + 1)`` reads it, if it is
    one whole line within the cap."""
    if len(line) > MAX_LINE_BYTES:
        raise FrameError(f"line exceeds {MAX_LINE_BYTES} byte cap")
    if not line.endswith(b"\n"):
        raise FrameError("stream ended mid-line")
    return line


class MessageStream:
    """Sequenced message I/O over one connection.

    Numbers outgoing messages 1, 2, ... and enforces that incoming seq values
    are strictly increasing and that incoming session ids match, treating an
    empty session id (pre-Grant) as a wildcard.
    """

    def __init__(self, rfile, wfile, session_id: str = ""):
        self.rfile = rfile
        self.wfile = wfile
        self.session_id = session_id
        self._next_out = 1
        self._last_in = 0

    def send(self, kind: Kind, body: dict) -> WireMessage:
        message = WireMessage(self._next_out, self.session_id, kind, body)
        self._next_out += 1
        self.wfile.write(encode(message))
        self.wfile.flush()
        return message

    def recv(self) -> WireMessage | None:
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        return self.accept(line) if line else None

    def accept(self, line: bytes) -> WireMessage:
        """The message on ``line``, read from this connection by the caller,
        checked as :meth:`recv` checks what it reads."""
        message = decode(complete_line(line))
        if message.seq <= self._last_in:
            raise FrameError(
                f"seq must increase per connection: got {message.seq} after {self._last_in}"
            )
        if message.session_id and self.session_id and message.session_id != self.session_id:
            raise FrameError(f"session id mismatch: {message.session_id!r}")
        self._last_in = message.seq
        return message
