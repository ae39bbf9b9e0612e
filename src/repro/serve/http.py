"""Minimal HTTP/1.1 over asyncio streams — just enough for serving.

The server speaks a deliberately small dialect (stdlib only, no new
dependencies): request line + headers + ``Content-Length`` bodies,
keep-alive by default on HTTP/1.1 (on HTTP/1.0 only when asked),
``Connection: close`` honored, no multipart.  A request framed by
``Transfer-Encoding`` is refused with 501 and the connection closed:
its body cannot be found without the decoding this dialect lacks.
Both sides of the conversation live here —
:func:`read_request`/:func:`response_bytes` for the server,
:func:`request_bytes` with :func:`read_response` (asyncio streams: the
async client, the load generator) or :func:`read_response_blocking` (a
buffered socket file: the blocking client) for its callers — so the
wire format is defined exactly once: the two response readers differ
only in how they wait for bytes, and share one sans-IO parse of the
status line, the header block and ``Content-Length``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import BinaryIO
from urllib.parse import unquote, urlsplit

from repro.errors import ServeError

#: Reason phrases for every status the server emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on header block and body sizes (1 MiB is generous for
#: JSON experiment specs; anything larger is a client bug).
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024


class HttpProtocolError(ServeError):
    """The peer sent bytes this dialect cannot parse."""

    #: The reply the server owes the peer before it closes.
    status = 400


class HttpNotImplemented(HttpProtocolError):
    """The peer framed its request in a way this dialect lacks."""

    status = 501


@dataclass(slots=True)
class HttpRequest:
    """One parsed request."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: The request line's protocol version.
    version: str = "HTTP/1.1"
    _path: str | None = field(default=None, repr=False, compare=False)

    @property
    def path(self) -> str:
        """The decoded path component of the target (split once)."""
        if self._path is None:
            self._path = unquote(urlsplit(self.target).path)
        return self._path

    @property
    def keep_alive(self) -> bool:
        """Persistent unless ``close`` is asked, or, on HTTP/1.0, unless
        ``keep-alive`` is (RFC 9112 9.3)."""
        options = {option.strip() for option in
                   self.headers.get("connection", "").lower().split(",")}
        if self.version == "HTTP/1.0":
            return "keep-alive" in options
        return "close" not in options

    def json(self) -> dict:
        """The body parsed as a JSON object (400-level on failure)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpProtocolError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise HttpProtocolError("request body must be a JSON object")
        return payload


@dataclass(slots=True)
class HttpResponse:
    """One parsed response (client side)."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def _read_head(reader: asyncio.StreamReader) -> list[str] | None:
    """Read request/status line + headers; ``None`` on clean EOF."""
    total = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise HttpProtocolError("header block too large")
        except asyncio.IncompleteReadError as exc:
            if exc.partial.strip(b"\r\n"):
                raise HttpProtocolError("connection closed mid-header")
            return None
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise HttpProtocolError("header block too large")
        # Tolerate leading blank lines (RFC 9112 2.2); all-blank: reread.
        lines = raw.lstrip(b"\r\n").decode("latin-1").split("\n")[:-2]
        if lines:
            return [line.rstrip("\r") for line in lines]


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def _body_length(headers: dict[str, str]) -> int:
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpProtocolError(f"bad Content-Length {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpProtocolError(f"unacceptable Content-Length {length}")
    return length


async def _read_body(reader: asyncio.StreamReader,
                     headers: dict[str, str]) -> bytes:
    length = _body_length(headers)
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise HttpProtocolError("connection closed mid-body")


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; ``None`` when the peer closed cleanly."""
    head = await _read_head(reader)
    if head is None:
        return None
    parts = head[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpProtocolError(f"malformed request line {head[0]!r}")
    headers = _parse_headers(head[1:])
    if "transfer-encoding" in headers:
        raise HttpNotImplemented(
            f"Transfer-Encoding {headers['transfer-encoding']!r} is not "
            "implemented: send a Content-Length body")
    body = await _read_body(reader, headers)
    return HttpRequest(method=parts[0].upper(), target=parts[1],
                       headers=headers, body=body, version=parts[2])


def _parse_response_head(head: list[str] | None
                         ) -> tuple[int, dict[str, str]]:
    """Status line + header lines -> ``(status, headers)``, sans IO."""
    if head is None:
        raise HttpProtocolError("connection closed before response")
    parts = head[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpProtocolError(f"malformed status line {head[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpProtocolError(f"malformed status code {parts[1]!r}")
    return status, _parse_headers(head[1:])


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Parse one response (client side, asyncio streams)."""
    status, headers = _parse_response_head(await _read_head(reader))
    body = await _read_body(reader, headers)
    return HttpResponse(status=status, headers=headers, body=body)


def read_response_blocking(reader: BinaryIO) -> HttpResponse:
    """Parse one response (client side, a buffered socket file)."""
    head: list[str] = []
    while True:
        raw = reader.readline(MAX_HEADER_BYTES)
        if not raw:
            if head:
                raise HttpProtocolError("connection closed mid-header")
            break
        line = raw.rstrip(b"\r\n")
        if line:
            head.append(line.decode("latin-1"))
        elif head:
            break
    status, headers = _parse_response_head(head or None)
    length = _body_length(headers)
    body = reader.read(length)
    if len(body) < length:
        raise HttpProtocolError("connection closed mid-body")
    return HttpResponse(status=status, headers=headers, body=body)


def response_bytes(status: int, body: bytes,
                   content_type: str = "application/json",
                   extra_headers: dict[str, str] | None = None,
                   keep_alive: bool = True) -> bytes:
    """Serialize one response."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def request_bytes(method: str, target: str, host: str,
                  body: bytes = b"",
                  content_type: str = "application/json",
                  keep_alive: bool = True) -> bytes:
    """Serialize one request (client side)."""
    lines = [f"{method} {target} HTTP/1.1",
             f"Host: {host}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: dict) -> bytes:
    """Canonical JSON response body (compact, sorted, UTF-8)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")
