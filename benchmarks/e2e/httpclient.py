"""The benchmark's frozen keep-alive HTTP/1.1 client.

Deliberately not ``repro.service.client.HTTPSession``: that class is a
measured layer (``client.session_us``), and a load generator that changed
with the code under test would move every end-to-end number with it.  One
blocking socket, pre-encoded requests, ``Content-Length`` responses only.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Tuple


def encode_post(path: str, payload: Dict[str, object]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def encode_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


class Connection:
    """One keep-alive connection; ``roundtrip`` sends bytes, returns the reply."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def roundtrip(self, request: bytes) -> Tuple[int, bytes]:
        """(status, body); raises ``OSError`` on any transport failure."""
        self._sock.sendall(request)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = bytes(buffer[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        while len(buffer) < total:
            self._fill()
        body = bytes(buffer[end + 4:total])
        del buffer[:total]
        return status, body

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    # Untimed conveniences (setup, verification, scrapes).
    def post(self, path: str, payload: Dict[str, object]) -> Tuple[int, Dict]:
        status, body = self.roundtrip(encode_post(path, payload))
        return status, json.loads(body)

    def get_text(self, path: str) -> Tuple[int, str]:
        status, body = self.roundtrip(encode_get(path))
        return status, body.decode("utf-8")


def is_ok(status: int, body: bytes) -> bool:
    """The cheap in-window success check: 200 and an ``"ok": true`` envelope."""
    return status == 200 and body[:16].replace(b" ", b"").startswith(b'{"ok":true')
