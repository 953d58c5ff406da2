"""Gateway robustness on the raw byte stream: framing, disconnects, Expect.

Regression tests for production bugs:

* a client that disconnected mid-NDJSON-stream crashed the handler — the
  ``except`` block wrote the terminal *error line* into the broken pipe it
  was handling, raising a second exception with no handler;
* a request whose body the gateway cannot frame (bad ``Content-Length``,
  ``Transfer-Encoding``, an unparseable request line) left unread bytes on a
  kept-alive connection, which the next request-line parse then misread —
  or got no answer at all;
* ``Expect: 100-continue`` went unanswered, so clients such as curl stalled
  on their expect timeout before sending a large body.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import time

import pytest

from repro.query.params import make_topl_query
from repro.service.agateway import MAX_BODY_BYTES, AsyncServiceGateway
from repro.service.facade import CommunityService
from repro.service.schema import BatchRequest, ToplRequest

TOPL = make_topl_query({"movies", "books"}, k=3, radius=2, theta=0.2, top_l=3)


@pytest.fixture(scope="module")
def gateway(built_engine):
    service = CommunityService()
    service.adopt(built_engine, session="hosted")
    with AsyncServiceGateway(service, port=0) as running:
        yield running


def read_head(raw: socket.socket, data: bytes = b"") -> tuple[str, bytes]:
    """Read one response head; returns (head text, bytes already past it)."""
    while b"\r\n\r\n" not in data:
        chunk = raw.recv(4096)
        if not chunk:
            break
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    return head.decode("latin-1"), rest


def read_json_body(raw: socket.socket, head: str, rest: bytes) -> dict:
    (length,) = [
        line.split(":", 1)[1]
        for line in head.splitlines()
        if line.lower().startswith("content-length:")
    ]
    while len(rest) < int(length):
        chunk = raw.recv(4096)
        if not chunk:
            break
        rest += chunk
    return json.loads(rest[: int(length)])


def drain_to_eof(raw: socket.socket) -> None:
    """Read until the server closes (an RST after unread bytes counts too)."""
    try:
        while raw.recv(4096):
            pass
    except ConnectionResetError:
        pass


def test_disconnect_mid_stream_does_not_crash_the_handler(gateway):
    """Hang up mid-NDJSON-stream; the gateway must stay serviceable."""
    before = gateway.statistics()["streamed"]
    document = BatchRequest(session="hosted", queries=tuple([TOPL] * 8)).to_json()
    body = json.dumps(document).encode("utf-8")
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/batch?stream=1 HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        # Wait for the stream to start (status line + first result line),
        # then vanish abruptly (RST via SO_LINGER 0, the rudest way a
        # client can leave).
        raw.settimeout(10)
        data = b""
        while data.count(b"\n") < 2:
            chunk = raw.recv(4096)
            if not chunk:
                break
            data += chunk
        assert data.startswith(b"HTTP/1.1 200")
        raw.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    time.sleep(0.2)  # let the handler hit the broken pipe
    assert gateway.statistics()["streamed"] == before + 1
    # The gateway answers follow-up requests: the handler died quietly.
    probe = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
    try:
        probe.request("GET", "/v1/health")
        assert probe.getresponse().status == 200
    finally:
        probe.close()


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"POST /v1/topl HTTP/1.1\r\nHost: x\r\nContent-Length: nonsense\r\n\r\n",
        b"POST /v1/topl HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n{}{}{",
        b"POST /v1/topl HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
        b"GARBAGE\r\n\r\n",
    ],
    ids=["nonsense", "negative", "chunked", "request-line"],
)
def test_invalid_content_length_closes_the_connection(gateway, request_bytes):
    """An unconsumed body must not poison the keep-alive byte stream."""
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(request_bytes)
        raw.settimeout(10)
        head, rest = read_head(raw)
        assert " 400 " in head.splitlines()[0]
        assert "connection: close" in head.lower()
        document = read_json_body(raw, head, rest)
        assert document["error"]["code"] == "MALFORMED_REQUEST"
        # The server closes: recv drains to EOF instead of waiting for a
        # next request that would misparse leftover bytes.
        drain_to_eof(raw)


def test_oversized_content_length_closes_the_connection(gateway):
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/topl HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode() + b"\r\n"
            b"\r\n"
        )
        raw.settimeout(10)
        head, _ = read_head(raw)
        assert " 400 " in head.splitlines()[0]
        assert "connection: close" in head.lower()


def test_expect_100_continue_is_answered_before_the_body(gateway):
    body = json.dumps(ToplRequest(query=TOPL, session="hosted").to_json()).encode()
    with socket.create_connection((gateway.host, gateway.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/topl HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n"
        )
        # The interim response must come before the client sends the body.
        raw.settimeout(1)
        interim, rest = read_head(raw)
        assert interim.startswith("HTTP/1.1 100 ")
        raw.settimeout(30)
        raw.sendall(body)
        head, rest = read_head(raw, rest)
        assert " 200 " in head.splitlines()[0]
        document = read_json_body(raw, head, rest)
        assert document["session"] == "hosted"
