"""Closed-loop HTTP/1.1 load over one thread and a few keep-alive sockets.

Each connection sends its next request only after the previous answer
has arrived in full, as a query optimizer waiting for each estimate
would.  One thread multiplexes the connections with :mod:`selectors`,
so the load generator needs no more than one core of its own.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from typing import List, Optional, Sequence, Tuple


def post_bytes(host: str, path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = b""
        self.sent_at = 0.0
        self.index = -1

    def take_response(self) -> Optional[Tuple[int, bytes]]:
        """(status, body) once a whole response is buffered."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body = self.buffer[head_end + 4:end]
        self.buffer = self.buffer[end:]
        return int(head[0].split()[1]), body


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    connections: int,
    seconds: float,
    start: int = 0,
) -> Tuple[List[Tuple[int, float, int, bytes, float]], float, tuple]:
    """Send *requests* in order from index *start*, cycling, for *seconds*.

    Returns ``[(request index, latency s, status, body, answered at s)]``
    (the last field counted from the first send), the wall time from
    the first send to the last answer, and the wall-clock (``time.time``)
    span of the phase.
    """
    selector = selectors.DefaultSelector()
    conns = [_Connection(host, port) for _ in range(connections)]
    results: List[Tuple[int, float, int, bytes, float]] = []
    next_index = start

    def send(conn: _Connection) -> None:
        nonlocal next_index
        conn.index = next_index % len(requests)
        next_index += 1
        conn.sent_at = time.perf_counter()
        conn.sock.sendall(requests[conn.index])

    wall_start = time.time()
    started = time.perf_counter()
    stop = started + seconds
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        send(conn)
    busy = len(conns)
    try:
        while busy:
            events = selector.select(timeout=30)
            if not events:
                raise TimeoutError("no answer within 30 s")
            for key, _ in events:
                conn = key.data
                chunk = conn.sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                conn.buffer += chunk
                response = conn.take_response()
                if response is None:
                    continue
                done = time.perf_counter()
                results.append(
                    (
                        conn.index,
                        done - conn.sent_at,
                        response[0],
                        response[1],
                        done - started,
                    )
                )
                if done < stop:
                    send(conn)
                else:
                    busy -= 1
    finally:
        for conn in conns:
            selector.unregister(conn.sock)
            conn.sock.close()
        selector.close()
    return results, time.perf_counter() - started, (wall_start, time.time())


def get_json(host: str, port: int, path: str, timeout: float = 5.0) -> dict:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split()[1])
    if status != 200:
        raise ConnectionError(f"GET {path} answered {status}")
    return json.loads(body)
