"""Framing tests: encode/decode, the line cap, and per-connection sequencing."""

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghztp.wire import (
    MAX_LINE_BYTES,
    FrameError,
    Kind,
    MessageStream,
    WireMessage,
    decode,
    encode,
)


def test_encode_decode_round_trip_every_kind():
    for kind in Kind:
        message = WireMessage(3, "abc123", kind, {"op": "x", "n": 1})
        assert decode(encode(message).rstrip(b"\n")) == message


def test_encode_is_one_compact_json_line():
    data = encode(WireMessage(1, "s", Kind.HELLO, {"role": "alice"}))
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1
    assert b" " not in data
    obj = json.loads(data)
    assert list(obj) == ["seq", "session_id", "kind", "body"]


@pytest.mark.parametrize("message, expected", [
    pytest.param(WireMessage(1, "", Kind.HELLO, {"role": "alice"}),
                 b'{"seq":1,"session_id":"","kind":"Hello","body":{"role":"alice"}}\n', id="hello"),
    pytest.param(WireMessage(4, "0123abcd4567", Kind.OP_RESULT,
                             {"op": "basis_measure", "outcome": "Plus",
                              "probability": 0.49999999999999994}),
                 b'{"seq":4,"session_id":"0123abcd4567","kind":"OpResult",'
                 b'"body":{"op":"basis_measure","outcome":"Plus",'
                 b'"probability":0.49999999999999994}}\n',
                 id="op-result"),
    pytest.param(WireMessage(2, "s", Kind.ERROR,
                             {"code": "ERR_FRAME", "message": "r\u00f4le \u2192 \U0001d400"}),
                 b'{"seq":2,"session_id":"s","kind":"Error",'
                 b'"body":{"code":"ERR_FRAME","message":"r\\u00f4le \\u2192 \\ud835\\udc00"}}\n',
                 id="non-ascii"),
])
def test_encode_gives_exactly_the_bytes_of_compact_json_dumps(message, expected):
    obj = {"seq": message.seq, "session_id": message.session_id,
           "kind": message.kind.value, "body": message.body}
    assert encode(message) == expected == json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def test_encode_rejects_oversize_message():
    big = {"blob": "x" * MAX_LINE_BYTES}
    with pytest.raises(FrameError):
        encode(WireMessage(1, "s", Kind.CLASSICAL, big))


@pytest.mark.parametrize(
    "line",
    [
        b"not json",
        b"\xff\xfe",
        b"[1,2,3]",
        b'"just a string"',
        b'{"seq":1,"session_id":"s","kind":"Hello"}',
        b'{"seq":1,"session_id":"s","kind":"Hello","body":{},"extra":0}',
        b'{"seq":0,"session_id":"s","kind":"Hello","body":{}}',
        b'{"seq":-4,"session_id":"s","kind":"Hello","body":{}}',
        b'{"seq":true,"session_id":"s","kind":"Hello","body":{}}',
        b'{"seq":1.5,"session_id":"s","kind":"Hello","body":{}}',
        b'{"seq":"1","session_id":"s","kind":"Hello","body":{}}',
        b'{"seq":1,"session_id":7,"kind":"Hello","body":{}}',
        b'{"seq":1,"session_id":"s","kind":"Hello","body":[]}',
        b'{"seq":1,"session_id":"s","kind":"Hi","body":{}}',
        pytest.param(b"[" * 50_000 + b"]" * 50_000, id="nested-past-the-recursion-limit"),
        pytest.param(b'{"seq":' + b"9" * 5000 + b',"session_id":"s","kind":"Hello","body":{}}',
                     id="integer-past-the-digit-limit"),
    ],
)
def test_decode_rejects_malformed_lines(line):
    with pytest.raises(FrameError):
        decode(line)


def reader(data: bytes) -> MessageStream:
    return MessageStream(io.BytesIO(data), None)


def test_read_message_returns_none_at_clean_eof():
    assert reader(b"").recv() is None


def test_read_message_reads_consecutive_lines():
    stream = reader(
        encode(WireMessage(1, "s", Kind.HELLO, {"role": "bob"}))
        + encode(WireMessage(2, "s", Kind.FINISH, {}))
    )
    first = stream.recv()
    second = stream.recv()
    assert first.kind is Kind.HELLO
    assert second.kind is Kind.FINISH
    assert stream.recv() is None


def test_read_message_rejects_oversize_line():
    stream = reader(b"x" * (MAX_LINE_BYTES + 10) + b"\n")
    with pytest.raises(FrameError, match="cap"):
        stream.recv()


def test_read_message_rejects_stream_cut_mid_line():
    stream = reader(b'{"seq":1,"session_id":"s"')
    with pytest.raises(FrameError, match="mid-line"):
        stream.recv()


def test_stream_numbers_outgoing_messages_from_one():
    out = io.BytesIO()
    stream = MessageStream(io.BytesIO(), out, session_id="sess")
    stream.send(Kind.HELLO, {"role": "alice"})
    stream.send(Kind.FINISH, {})
    sent = reader(out.getvalue())
    assert sent.recv().seq == 1
    assert sent.recv().seq == 2


def test_stream_rejects_stale_incoming_seq():
    lines = (
        encode(WireMessage(1, "sess", Kind.OP_RESULT, {}))
        + encode(WireMessage(3, "sess", Kind.OP_RESULT, {}))
        + encode(WireMessage(3, "sess", Kind.OP_RESULT, {}))
    )
    stream = MessageStream(io.BytesIO(lines), io.BytesIO(), session_id="sess")
    assert stream.recv().seq == 1
    assert stream.recv().seq == 3  # gaps allowed, regressions not
    with pytest.raises(FrameError, match="seq"):
        stream.recv()


def test_stream_rejects_foreign_session_id():
    lines = encode(WireMessage(1, "other", Kind.OP_RESULT, {}))
    stream = MessageStream(io.BytesIO(lines), io.BytesIO(), session_id="sess")
    with pytest.raises(FrameError, match="session"):
        stream.recv()


def test_stream_empty_session_id_is_wildcard():
    # Pre-Grant traffic carries "" on both sides; either side blank matches.
    lines = encode(WireMessage(1, "", Kind.GRANT, {"role": "bob"}))
    stream = MessageStream(io.BytesIO(lines), io.BytesIO(), session_id="sess")
    assert stream.recv().body == {"role": "bob"}

    lines = encode(WireMessage(1, "sess", Kind.OP_RESULT, {}))
    stream = MessageStream(io.BytesIO(lines), io.BytesIO(), session_id="")
    assert stream.recv().seq == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


@given(
    seq=st.integers(1, 10**9),
    session_id=st.text(max_size=16),
    kind=st.sampled_from(list(Kind)),
    body=st.dictionaries(st.text(max_size=8), json_values, max_size=4),
)
def test_round_trip_is_identity_on_valid_messages(seq, session_id, kind, body):
    message = WireMessage(seq, session_id, kind, body)
    try:
        data = encode(message)
    except FrameError:
        return  # oversize by construction, cap behaviour tested elsewhere
    assert decode(data.rstrip(b"\n")) == message


@given(st.binary(max_size=200))
def test_decode_never_raises_anything_but_frame_error(data):
    try:
        decode(data)
    except FrameError:
        pass
