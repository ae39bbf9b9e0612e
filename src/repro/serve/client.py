"""Clients for the experiment server: blocking and asyncio flavors.

:class:`ServeClient` is the ergonomic blocking client for scripts and
examples: one keep-alive socket (``TCP_NODELAY``, one ``sendall`` per
request) read through a buffered file.  :class:`AsyncServeClient` works
over asyncio streams (one connection per request, so thousands of
concurrent open-loop requests never serialize on a shared socket) and
is what the load generator drives.  Both write
:func:`~repro.serve.http.request_bytes` and parse what comes back with
:mod:`repro.serve.http`'s one response parser, so neither can drift
from the dialect the server speaks.

``request`` returns the HTTP status with the decoded body, so a caller
tells shed (429) from timeout (504) itself, and raises
:class:`~repro.errors.ServeClientError` only when the transport fails;
:meth:`ServeClient.run` and :meth:`ServeClient.healthz` raise it on a
non-2xx reply too.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, BinaryIO

from repro.errors import ServeClientError
from repro.serve.config import CLIENT_HOST, CLIENT_PORT, CLIENT_TIMEOUT
from repro.serve.http import (
    HttpProtocolError,
    HttpResponse,
    read_response,
    read_response_blocking,
    request_bytes,
)


def _decode_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return {"raw": body.decode("utf-8", "replace")}
    return payload if isinstance(payload, dict) else {"raw": payload}


def _check(status: int, payload: dict) -> dict:
    if 200 <= status < 300:
        return payload
    raise ServeClientError(
        f"server answered {status}: {payload.get('error', payload)}",
        status=status, body=payload)


class ServeClient:
    """Blocking client over one keep-alive connection."""

    def __init__(self, host: str = CLIENT_HOST, port: int = CLIENT_PORT,
                 timeout: float = CLIENT_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._reader: BinaryIO | None = None

    # -- plumbing -----------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _exchange(self, method: str, path: str,
                  body: bytes = b"") -> HttpResponse:
        """Send one request on the kept connection (opened on demand)
        and read its response.  Any transport or protocol failure closes
        the connection, so the next call starts on a fresh socket."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
                self._sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                self._reader = self._sock.makefile("rb")
            self._sock.sendall(request_bytes(
                method, path, host=f"{self.host}:{self.port}", body=body))
            response = read_response_blocking(self._reader)
        except (OSError, HttpProtocolError) as exc:
            self.close()
            raise ServeClientError(
                f"request to {self.host}:{self.port} failed: {exc}")
        if response.headers.get("connection", "").lower() == "close":
            self.close()
        return response

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple[int, dict]:
        """One request; returns ``(status, decoded body)``, never raises
        on HTTP errors (only on transport failures)."""
        body = b"" if payload is None else json.dumps(payload).encode()
        response = self._exchange(method, path, body)
        return response.status, _decode_body(response.body)

    def run(self, workload: str | None = None, **fields: Any) -> dict:
        """``POST /v1/run``; see :mod:`repro.serve.schema` for fields."""
        payload = dict(fields)
        if workload is not None:
            payload["workload"] = workload
        return _check(*self.request("POST", "/v1/run", payload))

    def healthz(self) -> dict:
        """``GET /healthz``, the liveness probe."""
        return _check(*self.request("GET", "/healthz"))


class AsyncServeClient:
    """Asyncio client: one short-lived connection per request."""

    def __init__(self, host: str = CLIENT_HOST, port: int = CLIENT_PORT,
                 timeout: float = CLIENT_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    async def request(self, method: str, path: str,
                      payload: dict | None = None) -> tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServeClientError(
                f"cannot connect to {self.host}:{self.port}: {exc}")
        try:
            writer.write(request_bytes(
                method, path, host=f"{self.host}:{self.port}", body=body,
                keep_alive=False))
            await writer.drain()
            response = await asyncio.wait_for(read_response(reader),
                                              timeout=self.timeout)
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError) as exc:
            raise ServeClientError(f"request {method} {path} failed: {exc}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return response.status, _decode_body(response.body)
