"""Open-loop socket load generator for ``repro serve``.

One thread drives every connection (at most two here) through one
``selectors`` loop.  Between requests it blocks in ``select`` until a
reply arrives, a socket can take more bytes, or :data:`SPIN_S` before
the next request is due; only that last stretch is polled.  A sleeping
thread on a virtual machine can wake milliseconds late, and the spin
keeps that lateness out of the send times, while blocking leaves the
CPU to the server the rest of the time.  Each connection has a fixed schedule of
pre-encoded, length-framed requests; a request is queued for sending as
soon as it is due, whether or not earlier replies have arrived, so a
stalled server builds a queue instead of slowing the generator down
(open loop).  Replies come back in request order on each connection.

Three times are kept per request, all on the shared monotonic clock:

* ``lag``: when the generator noticed the request was due, minus when
  it was due -- the generator's own lateness;
* ``latency``: when the whole reply had arrived, minus when the request
  was due -- what a user who sent on schedule would wait, including any
  queueing behind earlier work;
* ``sent``: when the last request byte left, so time blocked on a full
  socket (the server not reading) is kept apart from generator lag.

Nothing is decoded during the run; replies are kept raw and checked
after the measured window.
"""

from __future__ import annotations

import gc
import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

_U32 = struct.Struct(">I")

#: Reply status bytes (``repro.server.protocol``): 0 ok, 1 error, 2 busy.
STATUS_OK = 0

_SEND_CHUNK = 1 << 18

#: How long before a request is due the generator stops blocking and polls.
SPIN_S = 0.001


def frame(body: bytes) -> bytes:
    """A request body with its 4-byte big-endian length prefix."""
    return _U32.pack(len(body)) + body


@dataclass
class Schedule:
    """One connection's requests: due offsets (s), verbs, framed bytes."""

    offsets: np.ndarray
    verbs: list[str]
    frames: list[bytes]

    def __post_init__(self) -> None:
        if not (len(self.offsets) == len(self.verbs) == len(self.frames)):
            raise ValueError("schedule arrays differ in length")


@dataclass
class ConnResult:
    """Per-request outcome of one connection, indexed like its schedule."""

    verbs: list[str]
    due: np.ndarray
    noticed: np.ndarray
    sent: np.ndarray
    received: np.ndarray
    replies: list[bytes | None]
    error: str | None = None

    @property
    def ok(self) -> np.ndarray:
        return np.array(
            [r is not None and len(r) > 0 and r[0] == STATUS_OK for r in self.replies],
            dtype=bool,
        )

    def latencies(self, miss_s: float) -> np.ndarray:
        """Reply time minus due time; a failed request counts as ``miss_s``."""
        lat = self.received - self.due
        return np.where(self.ok, lat, miss_s)

    @property
    def lag(self) -> np.ndarray:
        return self.noticed - self.due


@dataclass
class _Conn:
    sock: socket.socket
    sched: Schedule
    n: int = 0
    next: int = 0
    out: bytearray = field(default_factory=bytearray)
    queued_bytes: int = 0
    sent_bytes: int = 0
    unsent: deque = field(default_factory=deque)  # (index, end offset)
    inflight: deque = field(default_factory=deque)
    inbuf: bytearray = field(default_factory=bytearray)
    result: ConnResult | None = None
    events: int = selectors.EVENT_READ


def connect(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def call(sock: socket.socket, body: bytes) -> bytes:
    """One blocking round trip on a connected socket; returns the reply body."""
    sock.sendall(frame(body))
    (length,) = _U32.unpack(_recv_exact(sock, 4))
    return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def run_open_loop(
    host: str,
    port: int,
    schedules: list[Schedule],
    *,
    lead_s: float = 0.2,
    drain_s: float = 30.0,
) -> tuple[list[ConnResult], float]:
    """Drive every schedule on its own connection; returns results and t0.

    Offsets count from ``t0 = now + lead_s``.  After the last request is
    due, replies still in flight get ``drain_s`` seconds; any reply not
    back by then is a failure (its ``received`` stays NaN).
    """
    conns = []
    for sched in schedules:
        sock = connect(host, port)
        sock.setblocking(False)
        n = len(sched.offsets)
        conn = _Conn(sock=sock, sched=sched, n=n)
        conn.result = ConnResult(
            verbs=list(sched.verbs),
            due=np.full(n, np.nan),
            noticed=np.full(n, np.nan),
            sent=np.full(n, np.nan),
            received=np.full(n, np.nan),
            replies=[None] * n,
        )
        conns.append(conn)
    # Collections of this process's heap would show up as generator lag.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.monotonic() + lead_s
    for conn in conns:
        conn.result.due[:] = t0 + conn.sched.offsets
    last_due = max((float(c.result.due[-1]) for c in conns if c.n), default=t0)
    deadline = last_due + drain_s
    sel = selectors.DefaultSelector()
    try:
        for conn in conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        active = list(conns)
        while active:
            now = time.monotonic()
            for conn in active:
                _enqueue_due(conn, now)
                if conn.out:
                    _flush(conn)
            if now > deadline:
                for conn in active:
                    if conn.inflight:
                        _fail(conn, f"{len(conn.inflight)} replies missing at drain deadline")
            wake = deadline
            for conn in active:
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
                if events != conn.events:
                    sel.modify(conn.sock, events, conn)
                    conn.events = events
                if conn.next < conn.n:
                    wake = min(wake, float(conn.result.due[conn.next]) - SPIN_S)
            for key, events in sel.select(max(0.0, wake - time.monotonic())):
                if events & selectors.EVENT_READ:
                    _receive(key.data)
            for conn in [c for c in active if c.result.error is not None
                         or (c.next == c.n and not c.inflight)]:
                sel.unregister(conn.sock)
                active.remove(conn)
    finally:
        if gc_was_enabled:
            gc.enable()
        sel.close()
        for conn in conns:
            conn.sock.close()
    return [c.result for c in conns], t0


def _enqueue_due(conn: _Conn, now: float) -> None:
    res = conn.result
    while conn.next < conn.n and res.due[conn.next] <= now:
        i = conn.next
        res.noticed[i] = now
        data = conn.sched.frames[i]
        conn.out += data
        conn.queued_bytes += len(data)
        conn.unsent.append((i, conn.queued_bytes))
        conn.inflight.append(i)
        conn.next += 1


def _flush(conn: _Conn) -> None:
    if conn.result.error is not None:
        conn.out.clear()
        return
    try:
        sent = conn.sock.send(memoryview(conn.out)[:_SEND_CHUNK])
    except BlockingIOError:
        return
    except OSError as exc:
        _fail(conn, f"send failed: {exc}")
        return
    del conn.out[:sent]
    conn.sent_bytes += sent
    now = time.monotonic()
    while conn.unsent and conn.unsent[0][1] <= conn.sent_bytes:
        conn.result.sent[conn.unsent.popleft()[0]] = now


def _receive(conn: _Conn) -> None:
    try:
        chunk = conn.sock.recv(1 << 20)
    except BlockingIOError:
        return
    except OSError as exc:
        _fail(conn, f"recv failed: {exc}")
        return
    if not chunk:
        _fail(conn, "server closed the connection")
        return
    now = time.monotonic()
    buf = conn.inbuf
    buf += chunk
    while len(buf) >= 4:
        (length,) = _U32.unpack_from(buf)
        if len(buf) < 4 + length:
            break
        body = bytes(buf[4 : 4 + length])
        del buf[: 4 + length]
        if not conn.inflight:
            _fail(conn, "reply with no request in flight")
            return
        i = conn.inflight.popleft()
        conn.result.received[i] = now
        conn.result.replies[i] = body


def _fail(conn: _Conn, why: str) -> None:
    conn.result.error = why
    conn.inflight.clear()
    conn.next = conn.n
    conn.out.clear()
