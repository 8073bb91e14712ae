"""The resident sketch server: the paper's ``(S, Q)`` split over sockets.

The sketching party ``S`` pushes serialized sketches to a long-lived
daemon; many query parties ``Q`` then answer itemset-frequency queries
against the resident copy, paying the sketch's space cost once.  The
transport reuses the IFSK wire format end to end -- a ``LOAD`` body *is*
a frame file's bytes, so file and socket share one codec path.

Frame grammar
-------------
Every message (both directions) is length-framed::

    message   := u32_be(len(body)) body          # 1 <= len <= max_frame_bytes

Request bodies open with an opcode byte; ``name`` is a length-prefixed
ASCII string (``u8(len) bytes``), ``uvarint`` is canonical LEB128 (the
wire frames' primitive), ``f64`` is big-endian IEEE 754::

    request   := op:u8 fields
    LOAD(1)   := name frame_bytes                # frame_bytes = one IFSK frame
    ESTIMATE(2) := name itemsets
    INDICATE(3) := name itemsets
    STAT(4)   := name
    LIST(5)   :=                                 # no fields
    DROP(6)   := name
    PING(7)   :=                                 # no fields
    INGEST(8) := name uvarint(count) u64_be*count  # 1 <= count <= MAX_INGEST_ITEMS
    LOAD_MANY(9) := name uvarint(index) uvarint(count) frame_bytes
    itemsets  := uvarint(count) { uvarint(k) uvarint(item)*k }*count

``INGEST`` streams raw item ids into a resident *streaming summary*
(fixed-width big-endian u64s, not varints, so both sides move a batch
with one vectorized pass); ids must lie in ``[0, 2**63)`` and within the
summary's universe.

``LOAD_MANY`` seeds a whole fleet from one wire-v3 container in one
socket session: the client walks the container's manifest and sends one
``LOAD_MANY`` request per shard, each carrying that shard extracted as a
standalone single-frame container, its manifest ``name``, its position
``index`` (0-based), and the fleet's total ``count`` (``1 <= count <=
MAX_LOAD_MANY_FRAMES``, ``index < count``).  Each chunk is acknowledged
before the next is sent -- per-chunk backpressure under the same
``max_frame_bytes`` budget as ``LOAD``, so a fleet push never needs the
whole container in one message.  Server-side each chunk takes the exact
``LOAD`` path (decode, merge-on-collision, journal), so a container push
is bit-identical to pushing its shards as separate files.

Response bodies open with a status byte; an error carries one UTF-8
message and leaves the connection usable.  ``BUSY`` has the same shape
as an error but means the request was *never evaluated* -- the server
sends it unsolicited when a new connection arrives over the
``--max-connections`` cap, then hangs up; retry policies treat it as
retryable even for mutating verbs::

    response  := 0x00 payload | 0x01 uvarint(len) utf8_message
               | 0x02 uvarint(len) utf8_message   # BUSY: shed, not answered
    LOAD      := merged:u8 codec_name uvarint(size_in_bits)
    ESTIMATE  := uvarint(count) f64*count        # bit-exact estimates
    INDICATE  := uvarint(count) u8*count         # 0/1 indicators
    STAT      := name codec_name uvarint(size_in_bits) params
    params    := 0x00 | 0x01 uvarint(n) uvarint(d) uvarint(k) f64(eps) f64(delta)
    LIST      := uvarint(count) { name codec_name uvarint(size_in_bits) }*count
    DROP/PING := (empty)
    INGEST    := uvarint(stream_length) uvarint(size_in_bits)
    LOAD_MANY := uvarint(index) merged:u8 codec_name uvarint(size_in_bits)

An ``INGEST`` acknowledgement reports the resident summary's *total*
stream length after the batch -- the atomic prefix-fold guarantee: the
batch was applied to a clone and swapped in whole, so concurrent
``ESTIMATE``\\ s observe either all of an acknowledged batch or none of
a pending one, never a partial batch.

Failure isolation: a request that parses but cannot be served (unknown
name, unmergeable shard, summary asked for indicators) gets an error
response and the connection continues.  A length prefix outside bounds
or a mid-frame disconnect closes *that* connection only -- the registry
and every other client are untouched.  With ``--idle-timeout`` a
connection that stays silent (between requests or mid-frame) past the
budget is closed the same way.  On shutdown the server *drains*: the
listener closes first, in-flight requests are answered, then connection
tasks end -- so a SIGTERM never cuts an acknowledgement in half.

Durability (``--data-dir``): every acknowledged ``LOAD`` / ``INGEST`` /
``DROP`` is appended to a write-ahead log -- each record's body is a
*request body* in the encoding above, prefixed with a ``uvarint``
sequence number and framed as ``u32_be(len) u32_be(crc32) body`` -- and
``fsync``'d before the new state is published or the acknowledgement
sent, so a failed append leaves the live registry exactly as
unacknowledged as the client.  Ops that consumed randomness (a
collision LOAD's sampling merge, an INGEST into a sampling summary)
are logged as LOAD records carrying the resident *post-op* frame, and
recovery installs LOAD records with replace semantics -- replay is
rng-free and bit-identical.  Periodic compaction folds the log into an
atomically-replaced snapshot of LOAD records, off the event loop so a
large snapshot never stalls other connections.  Recovery replays
snapshot + log, tolerating exactly a torn final record (a crash
mid-append) and refusing any in-place corruption.  The full grammar
and failure model live in :mod:`repro.server.persistence`.

Entry points: :class:`SketchServer` (asyncio daemon),
:func:`serve_in_thread` (daemon-thread harness for blocking callers),
:class:`Client` (blocking socket client, optionally retrying via
:class:`RetryPolicy`), :class:`SketchRegistry` (the transport-free verb
implementation), and :class:`~repro.server.persistence.PersistentStore`
(the WAL + snapshot layer behind ``--data-dir``).
"""

from .client import Client, RetryPolicy
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DEFAULT_PORT,
    EntryInfo,
    StatInfo,
)
from .registry import RegistryEntry, SketchRegistry
from .server import ServerHandle, SketchServer, preload_files, serve_in_thread

__all__ = [
    "Client",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_PORT",
    "EntryInfo",
    "RegistryEntry",
    "RetryPolicy",
    "ServerHandle",
    "SketchRegistry",
    "SketchServer",
    "StatInfo",
    "preload_files",
    "serve_in_thread",
]
