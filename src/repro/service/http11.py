"""Minimal asyncio HTTP/1.1 plumbing for the campaign service.

The service speaks plain HTTP/1.1 with JSON bodies and newline-delimited
JSON streams, using nothing beyond the standard library: requests are
parsed straight off the :class:`asyncio.StreamReader`, responses are
written with an explicit ``Content-Length`` or as ``Transfer-Encoding:
chunked`` (the live event stream).  Connections are one-request:
``Connection: close`` on every response keeps the state machine trivial
and costs nothing at campaign-shaped request rates.

This is deliberately not a framework — just the three pieces the server
needs: :func:`read_request`, :func:`send_json` and :class:`ChunkedWriter`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, unquote

#: Request bodies larger than this are rejected with 413.  Campaign and
#: fuzz requests are a few hundred bytes; nothing legitimate comes close.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: A single header section larger than this aborts the connection.
MAX_HEADER_LINES = 100

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Route-level failure that maps to one JSON error response."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra

    def body(self) -> dict[str, Any]:
        return {"error": self.message, "status": self.status, **self.extra}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict[str, Any]:
        """The JSON object body ({} for an empty body)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except ValueError:
            raise HttpError(400, "request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be a JSON object")
        return data


async def read_request(reader) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a clean EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many header lines")
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(400, "chunked request bodies are not supported")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "bad Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string))
    return Request(
        method=method,
        path=unquote(path),
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, extra: str = "") -> bytes:
    reason = REASONS.get(status, "Unknown")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Connection: close\r\n{extra}"
    ).encode("latin-1")


async def send_json(
    writer, status: int, obj: Any, *, headers: dict[str, str] | None = None
) -> None:
    """One complete JSON response (sorted keys: stable bytes for tests)."""
    body = (json.dumps(obj, sort_keys=True) + "\n").encode()
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    writer.write(
        _head(status, "application/json",
              f"Content-Length: {len(body)}\r\n{extra}\r\n")
        + body
    )
    await writer.drain()


class ChunkedWriter:
    """``Transfer-Encoding: chunked`` response — the live event stream.

    One :meth:`write` call per event keeps each JSON line its own chunk,
    so clients reading line-by-line see events as they happen.
    """

    def __init__(self, writer) -> None:
        self._writer = writer
        self._started = False

    async def start(
        self, status: int = 200, content_type: str = "application/x-ndjson"
    ) -> None:
        self._writer.write(
            _head(status, content_type, "Transfer-Encoding: chunked\r\n\r\n")
        )
        await self._writer.drain()
        self._started = True

    async def write(self, data: bytes) -> None:
        if not data:
            return
        self._writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        await self._writer.drain()

    async def write_json_line(self, obj: Any) -> None:
        await self.write((json.dumps(obj, sort_keys=True) + "\n").encode())

    async def close(self) -> None:
        if self._started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
