"""The sketch-server wire protocol: length-framed messages over sockets.

One message grammar serves both directions (see :mod:`repro.server` for
the full frame grammar).  Every message is a 4-byte big-endian length
followed by exactly that many body bytes; bodies are built from the same
primitives as the wire-v3 sketch frames (:func:`~repro.db.serialize.
encode_uvarint` varints, length-prefixed ASCII names, IEEE f64s), and
the ``LOAD`` body embeds a complete IFSK frame verbatim -- the file
format *is* the socket payload, one codec path end to end.

This module is pure bytes-in/bytes-out: :func:`encode_request` /
:func:`parse_request` and the per-op response builders/parsers are
shared by the asyncio server and the blocking client, so the two sides
cannot drift.  Parsing is strict -- truncated fields, unknown opcodes,
trailing bytes, and out-of-range values all raise
:class:`~repro.errors.ProtocolError` -- and bounded: itemset and entry
counts are capped so a hostile body cannot demand an enormous
allocation before validation.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from ..db.itemset import Itemset
from ..db.serialize import encode_uvarint, read_uvarint
from ..errors import ProtocolError, ReproError, ServerBusyError, ServerError
from ..params import SketchParams

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_PORT",
    "MAX_BATCH_ITEMSETS",
    "MAX_INGEST_ITEMS",
    "OP_LOAD",
    "OP_ESTIMATE",
    "OP_INDICATE",
    "OP_STAT",
    "OP_LIST",
    "OP_DROP",
    "OP_PING",
    "OP_INGEST",
    "OP_LOAD_MANY",
    "MAX_LOAD_MANY_FRAMES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_BUSY",
    "Request",
    "StatInfo",
    "EntryInfo",
    "frame_message",
    "read_message",
    "encode_request",
    "parse_request",
    "encode_error",
    "encode_busy",
    "encode_load_ok",
    "parse_load_ok",
    "encode_estimates",
    "parse_estimates",
    "encode_indicators",
    "parse_indicators",
    "encode_stat",
    "parse_stat",
    "encode_entries",
    "parse_entries",
    "encode_empty_ok",
    "parse_empty_ok",
    "encode_ingest_ok",
    "parse_ingest_ok",
    "encode_load_many_ok",
    "parse_load_many_ok",
]

#: Default TCP port for ``repro serve``.
DEFAULT_PORT = 7337

#: Default cap on one message body (request or response), bytes.  Big
#: enough for a chunky RELEASE-DB frame, small enough that one hostile
#: connection cannot demand gigabytes before validation.
DEFAULT_MAX_FRAME_BYTES = 1 << 26

#: Hard cap on itemsets per batched query and entries per LIST reply.
MAX_BATCH_ITEMSETS = 1 << 20

#: Hard cap on items per INGEST batch (32 MiB of u64 payload); streamed
#: ingestion sends many batches, never one huge one.
MAX_INGEST_ITEMS = 1 << 22

OP_LOAD = 1
OP_ESTIMATE = 2
OP_INDICATE = 3
OP_STAT = 4
OP_LIST = 5
OP_DROP = 6
OP_PING = 7
OP_INGEST = 8
OP_LOAD_MANY = 9

#: Hard cap on the declared shard count of one LOAD-many session.
MAX_LOAD_MANY_FRAMES = 1 << 20

_QUERY_OPS = (OP_ESTIMATE, OP_INDICATE)
_NAMED_OPS = (
    OP_LOAD, OP_ESTIMATE, OP_INDICATE, OP_STAT, OP_DROP, OP_INGEST, OP_LOAD_MANY
)
_KNOWN_OPS = _NAMED_OPS + (OP_LIST, OP_PING)

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_BUSY = 2

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _read_exact(stream: IO[bytes], n: int) -> bytes:
    data = stream.read(n)
    if data is None or len(data) != n:
        got = 0 if data is None else len(data)
        raise ProtocolError(f"truncated message: wanted {n} bytes, got {got}")
    return data


def _read_uvarint(stream: IO[bytes]) -> int:
    try:
        return read_uvarint(stream)
    except ReproError as exc:
        raise ProtocolError(f"invalid varint in message: {exc}") from exc


def _encode_name(name: str) -> bytes:
    try:
        raw = name.encode("ascii")
    except (UnicodeEncodeError, AttributeError):
        raise ProtocolError(f"sketch name {name!r} must be ASCII") from None
    if not 1 <= len(raw) <= 255:
        raise ProtocolError(f"sketch name {name!r} must be 1..255 ASCII bytes")
    return bytes([len(raw)]) + raw


def _read_name(stream: IO[bytes]) -> str:
    length = _read_exact(stream, 1)[0]
    _require(length >= 1, "empty sketch name")
    try:
        return _read_exact(stream, length).decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProtocolError("sketch name is not ASCII") from exc


def _encode_itemsets(itemsets: Sequence[Itemset]) -> bytes:
    _require(
        len(itemsets) <= MAX_BATCH_ITEMSETS,
        f"batch of {len(itemsets)} itemsets exceeds {MAX_BATCH_ITEMSETS}",
    )
    parts = [encode_uvarint(len(itemsets))]
    for itemset in itemsets:
        parts.append(encode_uvarint(len(itemset.items)))
        parts.extend(encode_uvarint(item) for item in itemset.items)
    return b"".join(parts)


def _read_itemsets(stream: IO[bytes]) -> tuple[Itemset, ...]:
    count = _read_uvarint(stream)
    _require(
        count <= MAX_BATCH_ITEMSETS,
        f"batch of {count} itemsets exceeds {MAX_BATCH_ITEMSETS}",
    )
    itemsets = []
    for _ in range(count):
        k = _read_uvarint(stream)
        _require(k <= 4096, f"itemset of {k} items is implausibly large")
        items = [_read_uvarint(stream) for _ in range(k)]
        try:
            itemsets.append(Itemset(items))
        except ReproError as exc:
            raise ProtocolError(f"invalid itemset {items}: {exc}") from exc
    return tuple(itemsets)


def _expect_end(stream: IO[bytes], what: str) -> None:
    if stream.read(1):
        raise ProtocolError(f"trailing bytes after {what}")


def _encode_items(items) -> bytes:
    """INGEST item block: ``uvarint(count)`` + ``count`` big-endian u64s.

    Fixed-width ids (not varints) so both sides move the batch with one
    vectorized ``astype``/``frombuffer`` -- this is the hot ingest path.
    """
    arr = np.asarray(items)
    _require(arr.ndim == 1, f"INGEST items must be a 1-D batch, got shape {arr.shape}")
    _require(
        arr.dtype.kind in "iub",
        f"INGEST items must be integers, got dtype {arr.dtype}",
    )
    _require(1 <= arr.size <= MAX_INGEST_ITEMS,
             f"INGEST batch of {arr.size} items outside [1, {MAX_INGEST_ITEMS}]")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > np.iinfo(np.int64).max):
        raise ProtocolError("INGEST item ids must lie in [0, 2**63)")
    return encode_uvarint(arr.size) + arr.astype(">u8").tobytes()


def _read_items(stream: IO[bytes]) -> np.ndarray:
    count = _read_uvarint(stream)
    _require(
        1 <= count <= MAX_INGEST_ITEMS,
        f"INGEST batch of {count} items outside [1, {MAX_INGEST_ITEMS}]",
    )
    raw = _read_exact(stream, count * 8)
    arr = np.frombuffer(raw, dtype=">u8")
    if int(arr.max()) > np.iinfo(np.int64).max:
        raise ProtocolError("INGEST item ids must lie in [0, 2**63)")
    return arr.astype(np.int64)


# ----------------------------------------------------------------------
# Transport framing.
# ----------------------------------------------------------------------
def frame_message(body: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Wrap one message body in its 4-byte length prefix."""
    if not 1 <= len(body) <= max_frame_bytes:
        raise ProtocolError(
            f"message body of {len(body)} bytes outside [1, {max_frame_bytes}]"
        )
    return _U32.pack(len(body)) + body


def read_message(
    stream: IO[bytes], max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Read one length-framed message body from a blocking binary stream.

    The length prefix is validated *before* the body is read, so an
    oversized declaration costs nothing.  Raises :class:`ProtocolError`
    on truncation or a length outside ``[1, max_frame_bytes]``.
    """
    (length,) = _U32.unpack(_read_exact(stream, 4))
    if not 1 <= length <= max_frame_bytes:
        raise ProtocolError(
            f"message of {length} bytes outside [1, {max_frame_bytes}]"
        )
    return _read_exact(stream, length)


# ----------------------------------------------------------------------
# Requests.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One parsed request: opcode plus the fields its op carries."""

    op: int
    name: str | None = None
    itemsets: tuple[Itemset, ...] = ()
    frame: bytes = b""
    items: np.ndarray | None = None
    index: int = 0
    count: int = 0


def encode_request(
    op: int,
    *,
    name: str | None = None,
    itemsets: Sequence[Itemset] = (),
    frame: bytes = b"",
    items=None,
    index: int = 0,
    count: int = 0,
) -> bytes:
    """Build one request body (unframed; wrap with :func:`frame_message`)."""
    _require(op in _KNOWN_OPS, f"unknown request op {op}")
    parts = [bytes([op])]
    if op in _NAMED_OPS:
        _require(name is not None, f"op {op} requires a sketch name")
        parts.append(_encode_name(name))
    if op in _QUERY_OPS:
        parts.append(_encode_itemsets(itemsets))
    if op == OP_LOAD_MANY:
        _require(
            1 <= count <= MAX_LOAD_MANY_FRAMES,
            f"LOAD-many batch of {count} shards outside [1, {MAX_LOAD_MANY_FRAMES}]",
        )
        _require(0 <= index < count, f"LOAD-many index {index} outside [0, {count})")
        parts.append(encode_uvarint(index))
        parts.append(encode_uvarint(count))
    if op in (OP_LOAD, OP_LOAD_MANY):
        _require(len(frame) > 0, "LOAD requires frame bytes")
        parts.append(frame)
    if op == OP_INGEST:
        _require(items is not None, "INGEST requires an item batch")
        parts.append(_encode_items(items))
    return b"".join(parts)


def parse_request(body: bytes) -> Request:
    """Parse and validate one request body.

    Raises
    ------
    ProtocolError
        On an unknown opcode, malformed fields, or trailing bytes.
    """
    _require(len(body) >= 1, "empty request body")
    stream = io.BytesIO(body)
    op = _read_exact(stream, 1)[0]
    _require(op in _KNOWN_OPS, f"unknown request op {op}")
    name = _read_name(stream) if op in _NAMED_OPS else None
    itemsets: tuple[Itemset, ...] = ()
    frame = b""
    items = None
    index = count = 0
    if op in _QUERY_OPS:
        itemsets = _read_itemsets(stream)
    if op == OP_LOAD_MANY:
        index = _read_uvarint(stream)
        count = _read_uvarint(stream)
        _require(
            1 <= count <= MAX_LOAD_MANY_FRAMES,
            f"LOAD-many batch of {count} shards outside [1, {MAX_LOAD_MANY_FRAMES}]",
        )
        _require(index < count, f"LOAD-many index {index} outside [0, {count})")
    if op in (OP_LOAD, OP_LOAD_MANY):
        # The rest of the body is one IFSK frame, verbatim; the registry
        # decodes (and so validates) it through the codec path.
        frame = stream.read()
        _require(len(frame) > 0, "LOAD carries no frame bytes")
    else:
        if op == OP_INGEST:
            items = _read_items(stream)
        _expect_end(stream, "request")
    return Request(
        op=op, name=name, itemsets=itemsets, frame=frame, items=items,
        index=index, count=count,
    )


# ----------------------------------------------------------------------
# Responses.  Each builder returns a full response body (status byte
# included); each parser checks the status byte, raising ServerError
# with the server's message on an error response.
# ----------------------------------------------------------------------
def encode_error(message: str) -> bytes:
    """An error response carrying one UTF-8 message line."""
    data = message.encode("utf-8")
    return bytes([STATUS_ERROR]) + encode_uvarint(len(data)) + data


def encode_busy(message: str) -> bytes:
    """A BUSY response: the server shed this connection under load.

    Same shape as an error response (status byte + one UTF-8 line) but a
    distinct status, because the semantics differ: the request was never
    evaluated, so even a mutating op is safe to retry elsewhere/later.
    """
    data = message.encode("utf-8")
    return bytes([STATUS_BUSY]) + encode_uvarint(len(data)) + data


def _read_message_line(stream: io.BytesIO) -> str:
    length = _read_uvarint(stream)
    try:
        return _read_exact(stream, length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("error message is not UTF-8") from exc


def _open_ok(body: bytes) -> io.BytesIO:
    _require(len(body) >= 1, "empty response body")
    stream = io.BytesIO(body)
    status = _read_exact(stream, 1)[0]
    if status == STATUS_ERROR:
        raise ServerError(_read_message_line(stream))
    if status == STATUS_BUSY:
        raise ServerBusyError(_read_message_line(stream))
    _require(status == STATUS_OK, f"unknown response status {status}")
    return stream


def encode_load_ok(codec: str, size_in_bits: int, merged: bool) -> bytes:
    """LOAD succeeded: resident codec, resident size, merged-vs-fresh."""
    return (
        bytes([STATUS_OK, 1 if merged else 0])
        + _encode_name(codec)
        + encode_uvarint(size_in_bits)
    )


def parse_load_ok(body: bytes) -> tuple[str, int, bool]:
    """``(codec, size_in_bits, merged)`` from a LOAD response."""
    stream = _open_ok(body)
    merged = _read_exact(stream, 1)[0]
    _require(merged <= 1, f"merged flag must be 0 or 1, got {merged}")
    codec = _read_name(stream)
    size = _read_uvarint(stream)
    _expect_end(stream, "LOAD response")
    return codec, size, bool(merged)


def encode_estimates(values: Sequence[float]) -> bytes:
    """ESTIMATE succeeded: one IEEE f64 per queried itemset, in order."""
    parts = [bytes([STATUS_OK]), encode_uvarint(len(values))]
    parts.extend(_F64.pack(float(v)) for v in values)
    return b"".join(parts)


def parse_estimates(body: bytes) -> list[float]:
    """The estimate vector, bit-exact (f64 round-trips losslessly)."""
    stream = _open_ok(body)
    count = _read_uvarint(stream)
    _require(count <= MAX_BATCH_ITEMSETS, f"estimate batch of {count} answers")
    values = [_F64.unpack(_read_exact(stream, 8))[0] for _ in range(count)]
    _expect_end(stream, "ESTIMATE response")
    return values


def encode_indicators(values: Sequence[bool]) -> bytes:
    """INDICATE succeeded: one 0/1 byte per queried itemset, in order."""
    payload = bytes(1 if v else 0 for v in values)
    return bytes([STATUS_OK]) + encode_uvarint(len(payload)) + payload


def parse_indicators(body: bytes) -> list[bool]:
    """The indicator vector from an INDICATE response."""
    stream = _open_ok(body)
    count = _read_uvarint(stream)
    _require(count <= MAX_BATCH_ITEMSETS, f"indicator batch of {count} answers")
    raw = _read_exact(stream, count)
    _require(all(b <= 1 for b in raw), "indicator bytes must be 0 or 1")
    _expect_end(stream, "INDICATE response")
    return [bool(b) for b in raw]


@dataclass(frozen=True)
class StatInfo:
    """What STAT reports about one resident sketch."""

    name: str
    codec: str
    size_in_bits: int
    params: SketchParams | None


@dataclass(frozen=True)
class EntryInfo:
    """One LIST row: a resident sketch's name, codec, and size."""

    name: str
    codec: str
    size_in_bits: int


def _encode_params(params: SketchParams | None) -> bytes:
    if params is None:
        return b"\x00"
    return (
        b"\x01"
        + encode_uvarint(params.n)
        + encode_uvarint(params.d)
        + encode_uvarint(params.k)
        + _F64.pack(params.epsilon)
        + _F64.pack(params.delta)
    )


def _read_params(stream: IO[bytes]) -> SketchParams | None:
    flag = _read_exact(stream, 1)[0]
    if flag == 0:
        return None
    _require(flag == 1, f"params flag must be 0 or 1, got {flag}")
    n = _read_uvarint(stream)
    d = _read_uvarint(stream)
    k = _read_uvarint(stream)
    (epsilon,) = _F64.unpack(_read_exact(stream, 8))
    (delta,) = _F64.unpack(_read_exact(stream, 8))
    try:
        return SketchParams(n=n, d=d, k=k, epsilon=epsilon, delta=delta)
    except ReproError as exc:
        raise ProtocolError(f"invalid params block: {exc}") from exc


def encode_stat(info: StatInfo) -> bytes:
    """STAT succeeded: name, codec, charged size, optional params block."""
    return (
        bytes([STATUS_OK])
        + _encode_name(info.name)
        + _encode_name(info.codec)
        + encode_uvarint(info.size_in_bits)
        + _encode_params(info.params)
    )


def parse_stat(body: bytes) -> StatInfo:
    """The :class:`StatInfo` from a STAT response."""
    stream = _open_ok(body)
    name = _read_name(stream)
    codec = _read_name(stream)
    size = _read_uvarint(stream)
    params = _read_params(stream)
    _expect_end(stream, "STAT response")
    return StatInfo(name=name, codec=codec, size_in_bits=size, params=params)


def encode_entries(entries: Sequence[EntryInfo]) -> bytes:
    """LIST succeeded: every resident entry, sorted by name."""
    _require(
        len(entries) <= MAX_BATCH_ITEMSETS,
        f"registry of {len(entries)} entries exceeds the LIST cap",
    )
    parts = [bytes([STATUS_OK]), encode_uvarint(len(entries))]
    for entry in entries:
        parts.append(_encode_name(entry.name))
        parts.append(_encode_name(entry.codec))
        parts.append(encode_uvarint(entry.size_in_bits))
    return b"".join(parts)


def parse_entries(body: bytes) -> list[EntryInfo]:
    """The LIST rows."""
    stream = _open_ok(body)
    count = _read_uvarint(stream)
    _require(count <= MAX_BATCH_ITEMSETS, f"LIST reply of {count} entries")
    entries = []
    for _ in range(count):
        name = _read_name(stream)
        codec = _read_name(stream)
        size = _read_uvarint(stream)
        entries.append(EntryInfo(name=name, codec=codec, size_in_bits=size))
    _expect_end(stream, "LIST response")
    return entries


def encode_ingest_ok(stream_length: int, size_in_bits: int) -> bytes:
    """INGEST succeeded: the entry's total stream length and charged size.

    ``stream_length`` covers every item the resident summary has absorbed
    (this batch included), so a client streaming batches can verify the
    monotone prefix-fold guarantee: each response's length is the sum of
    everything acknowledged so far.
    """
    return (
        bytes([STATUS_OK])
        + encode_uvarint(stream_length)
        + encode_uvarint(size_in_bits)
    )


def parse_ingest_ok(body: bytes) -> tuple[int, int]:
    """``(stream_length, size_in_bits)`` from an INGEST response."""
    stream = _open_ok(body)
    length = _read_uvarint(stream)
    size = _read_uvarint(stream)
    _expect_end(stream, "INGEST response")
    return length, size


def encode_load_many_ok(
    index: int, codec: str, size_in_bits: int, merged: bool
) -> bytes:
    """One LOAD-many chunk acknowledged: the shard's index echoes back.

    The per-chunk ack is the fleet path's backpressure: the client sends
    chunk ``i + 1`` only after chunk ``i``'s ack, so the server never
    holds more than one in-flight frame per session (each already capped
    at ``max_frame_bytes`` by the transport framing).
    """
    return (
        bytes([STATUS_OK])
        + encode_uvarint(index)
        + bytes([1 if merged else 0])
        + _encode_name(codec)
        + encode_uvarint(size_in_bits)
    )


def parse_load_many_ok(body: bytes) -> tuple[int, str, int, bool]:
    """``(index, codec, size_in_bits, merged)`` from a LOAD-many ack."""
    stream = _open_ok(body)
    index = _read_uvarint(stream)
    merged = _read_exact(stream, 1)[0]
    _require(merged <= 1, f"merged flag must be 0 or 1, got {merged}")
    codec = _read_name(stream)
    size = _read_uvarint(stream)
    _expect_end(stream, "LOAD-many response")
    return index, codec, size, bool(merged)


def encode_empty_ok() -> bytes:
    """DROP / PING succeeded: a bare status byte."""
    return bytes([STATUS_OK])


def parse_empty_ok(body: bytes) -> None:
    """Validate a bare-OK response (DROP / PING)."""
    stream = _open_ok(body)
    _expect_end(stream, "response")
