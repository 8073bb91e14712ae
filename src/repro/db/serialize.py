"""Bit-exact serialization for sketch payloads.

Lower bounds are statements about *bits*, so every sketch in this library
reports its size from a canonical serialized payload rather than from Python
object sizes.  :class:`BitWriter` / :class:`BitReader` provide a tiny,
dependency-free bit stream with the primitives the sketches need:

* raw bit arrays (database rows),
* fixed-width unsigned integers (row counts, indices), single or batched,
* quantized frequencies to precision ``epsilon`` -- the paper charges
  ``log(1/epsilon)`` bits per stored frequency (Definition 7's accounting),
  which is exactly what :meth:`BitWriter.write_quantized` uses.

The payload is the packed MSB-first bit string, and both ends keep it
packed.  Counter arrays -- a batched field whose width is a whole number
of bytes, starting at a byte boundary -- take a *byte-aligned fast path*:
:meth:`BitWriter.write_uints` appends the values' big-endian byte view and
:meth:`BitReader.read_uints` decodes a big-endian view of the payload
bytes, so no per-bit array is built.  Every other field (raw bit arrays,
sub-byte widths, fields starting mid-byte) goes through the bool reference
encoding: the writer packs each run of boolean chunks with one
:func:`numpy.packbits` call at :meth:`BitWriter.getvalue` time, and the
reader unpacks only the bytes a read covers.  The reader is *strict*: the
payload's byte length must match the declared bit count exactly and the
zero padding in the final byte must actually be zero, so a frame whose
accounting lies about its payload is rejected instead of silently
accepted.

The reader is also *stream-first*: :meth:`BitReader.windowed` reads
sequentially from an iterator of byte chunks holding only the packed
windows a read needs, so a chunked or zlib payload read from a file
decodes without materializing the full byte string.

The module additionally provides the byte-level varint primitives the
wire frame headers are built from: unsigned LEB128 (:func:`encode_uvarint` /
:func:`read_uvarint`) and zigzag-mapped signed LEB128
(:func:`encode_svarint` / :func:`read_svarint`).  Encodings are canonical
(no padded continuation groups) and decoding rejects non-canonical or
oversized inputs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ..errors import SketchSizeError
from .bitmatrix import int_to_bits

__all__ = [
    "BitWriter",
    "BitReader",
    "quantize_frequency",
    "dequantize_frequency",
    "frequency_bits",
    "encode_uvarint",
    "encode_uvarints",
    "encode_svarint",
    "read_uvarint",
    "read_svarint",
    "decode_uvarints",
    "zigzag_encode",
    "zigzag_decode",
]

#: Default window size (bytes) for streaming payload drains and reads.
DEFAULT_CHUNK_BYTES = 1 << 16

#: LEB128 decode cap: 10 groups cover every 64-bit value with headroom.
_MAX_VARINT_BYTES = 10


# ----------------------------------------------------------------------
# Varint primitives (LEB128 + zigzag): the wire frame headers' integers.
# ----------------------------------------------------------------------
def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as canonical unsigned LEB128."""
    if value < 0:
        raise SketchSizeError(f"uvarint requires a non-negative value, got {value}")
    out = bytearray()
    while True:
        group = value & 0x7F
        value >>= 7
        out.append(group | (0x80 if value else 0))
        if not value:
            return bytes(out)


def zigzag_encode(value: int) -> int:
    """Map a signed integer to the unsigned zigzag code (0, -1, 1, -2, ...)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(code: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if code < 0:
        raise SketchSizeError(f"zigzag code must be non-negative, got {code}")
    return (code >> 1) ^ -(code & 1)


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer as zigzag LEB128."""
    return encode_uvarint(zigzag_encode(value))


def read_uvarint(stream: IO[bytes]) -> int:
    """Read one canonical unsigned LEB128 value from a binary stream.

    Raises
    ------
    SketchSizeError
        On truncation, a value wider than :data:`_MAX_VARINT_BYTES`
        groups, or a non-canonical encoding (padded zero group).
    """
    value = 0
    for index in range(_MAX_VARINT_BYTES):
        data = stream.read(1)
        if len(data) != 1:
            raise SketchSizeError("truncated varint")
        group = data[0]
        value |= (group & 0x7F) << (7 * index)
        if not group & 0x80:
            if group == 0 and index > 0:
                raise SketchSizeError("non-canonical varint (padded zero group)")
            return value
    raise SketchSizeError(f"varint exceeds {_MAX_VARINT_BYTES} bytes")


def read_svarint(stream: IO[bytes]) -> int:
    """Read one zigzag LEB128 value from a binary stream."""
    return zigzag_decode(read_uvarint(stream))


def uvarint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value under canonical unsigned LEB128.

    Vectorized: lets callers price a varint run (the wire v3 delta
    payload) before paying for the encode.
    """
    vals = np.asarray(values, dtype=np.uint64).reshape(-1)
    lengths = np.ones(vals.size, dtype=np.int64)
    rest = vals >> np.uint64(7)
    while rest.any():
        lengths += rest != 0
        rest >>= np.uint64(7)
    return lengths


def encode_uvarints(values: np.ndarray) -> bytes:
    """Encode a batch of non-negative integers as back-to-back LEB128.

    Byte-identical to ``b"".join(encode_uvarint(v) for v in values)`` but
    vectorized: one pass per varint *byte position* (at most ten for
    64-bit values) instead of one per value.
    """
    vals = np.asarray(values, dtype=np.uint64).reshape(-1)
    if not vals.size:
        return b""
    lengths = uvarint_lengths(vals)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for group in range(int(lengths.max())):
        mask = lengths > group
        groups = (vals[mask] >> np.uint64(7 * group)) & np.uint64(0x7F)
        cont = ((lengths[mask] > group + 1).astype(np.uint8)) << 7
        out[starts[mask] + group] = groups.astype(np.uint8) | cont
    return out.tobytes()


def decode_uvarints(buf: bytes, count: int) -> np.ndarray:
    """Decode exactly ``count`` back-to-back canonical LEB128 values.

    The whole buffer must be consumed: trailing bytes, truncated values,
    oversized values, and non-canonical encodings (padded zero groups)
    all raise :class:`~repro.errors.SketchSizeError`.  Vectorized like
    :func:`encode_uvarints`.
    """
    if count < 0:
        raise SketchSizeError(f"cannot decode {count} varints")
    data = np.frombuffer(buf, dtype=np.uint8)
    terminals = np.flatnonzero((data & 0x80) == 0)
    if terminals.size != count:
        raise SketchSizeError(
            f"varint run holds {terminals.size} values, expected {count}"
        )
    if count == 0:
        if data.size:
            raise SketchSizeError("trailing bytes after varint run")
        return np.zeros(0, dtype=np.uint64)
    if int(terminals[-1]) != data.size - 1:
        raise SketchSizeError("trailing bytes after varint run")
    starts = np.concatenate(([0], terminals[:-1] + 1))
    lengths = terminals - starts + 1
    max_len = int(lengths.max())
    if max_len > _MAX_VARINT_BYTES:
        raise SketchSizeError(f"varint exceeds {_MAX_VARINT_BYTES} bytes")
    padded = (lengths > 1) & (data[terminals] == 0)
    if padded.any():
        raise SketchSizeError("non-canonical varint (padded zero group)")
    # A 10-group varint's final group may only carry bit 63 (value <= 1).
    if max_len == _MAX_VARINT_BYTES:
        overflow = (lengths == _MAX_VARINT_BYTES) & (data[terminals] > 1)
        if overflow.any():
            raise SketchSizeError("varint value exceeds 64 bits")
    values = np.zeros(count, dtype=np.uint64)
    for group in range(max_len):
        mask = lengths > group
        values[mask] |= (
            (data[starts[mask] + group] & 0x7F).astype(np.uint64)
            << np.uint64(7 * group)
        )
    return values


def frequency_bits(epsilon: float) -> int:
    """Bits needed to store a frequency in ``[0, 1]`` to precision ``epsilon``.

    The paper's RELEASE-ANSWERS accounting charges ``log(1/epsilon)`` bits
    per answer; we use ``ceil(log2(1/epsilon)) + 1`` so that the quantizer's
    grid ``{0, eps, 2 eps, ...}`` (at most ``1/eps + 1`` points) always fits.
    """
    if not 0.0 < epsilon < 1.0:
        raise SketchSizeError(f"epsilon must lie in (0, 1), got {epsilon}")
    return max(1, math.ceil(math.log2(1.0 / epsilon)) + 1)


def quantize_frequency(value: float, epsilon: float) -> int:
    """Quantize ``value`` in ``[0, 1]`` to the nearest multiple of ``epsilon``."""
    if not 0.0 <= value <= 1.0 + 1e-12:
        raise SketchSizeError(f"frequency must lie in [0, 1], got {value}")
    return int(round(min(value, 1.0) / epsilon))


def dequantize_frequency(code: int, epsilon: float) -> float:
    """Inverse of :func:`quantize_frequency` (clamped to ``[0, 1]``)."""
    return min(1.0, code * epsilon)


def _check_uints(values: Sequence[int] | np.ndarray, width: int) -> np.ndarray:
    """``values`` as a 1-D ``uint64`` array, each checked to fit ``width`` bits.

    Batched fields are 1..64 bits wide (wider single values go through
    :meth:`BitWriter.write_uint`, which is arbitrary precision).
    """
    if not 1 <= width <= 64:
        raise SketchSizeError(f"batched uints need 1 <= width <= 64, got {width}")
    vals = np.asarray(values, dtype=np.uint64)
    if vals.ndim != 1:
        raise SketchSizeError(f"expected a 1-D value array, got shape {vals.shape}")
    if width < 64 and vals.size and int(vals.max()) >> width:
        bad = int(vals.max())
        raise SketchSizeError(f"value {bad} does not fit in {width} bits")
    return vals


def _uints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """``(len(values) * width,)`` boolean array, MSB first per value.

    The reference encoding, and the path for fields that are not whole
    bytes at a byte boundary: one broadcasted shift-and-mask for the
    whole batch.
    """
    vals = _check_uints(values, width)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((vals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool).reshape(-1)


def _bits_to_uints(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_uints_to_bits`: decode consecutive ``width``-bit fields."""
    if not 1 <= width <= 64:
        raise SketchSizeError(f"batched uints need 1 <= width <= 64, got {width}")
    arr = np.asarray(bits, dtype=bool)
    if arr.size % width:
        raise SketchSizeError(
            f"bit run of {arr.size} does not divide into {width}-bit fields"
        )
    fields = arr.reshape(-1, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (fields << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def _uints_to_bytes(vals: np.ndarray, width: int) -> bytes:
    """Checked values as ``width // 8`` big-endian bytes each.

    Equal to ``packbits(_uints_to_bits(vals, width))`` when ``width`` is
    a multiple of 8, without the per-bit array.
    """
    big = vals.astype(">u8")
    if width == 64:
        return big.tobytes()
    return big.view(np.uint8).reshape(-1, 8)[:, 8 - width // 8 :].tobytes()


def _bytes_to_uints(data: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_uints_to_bytes` over a ``uint8`` array."""
    if width == 64:
        return data.view(">u8").astype(np.uint64)
    wide = np.zeros((data.size * 8 // width, 8), dtype=np.uint8)
    wide[:, 8 - width // 8 :] = data.reshape(-1, width // 8)
    return wide.view(">u8").reshape(-1).astype(np.uint64)


def _check_padding(last_byte: int, n_bits: int) -> None:
    """The spare low bits of the final payload byte must be zero."""
    if int(last_byte) & ((1 << (-n_bits % 8)) - 1):
        raise SketchSizeError(
            f"nonzero padding bits after declared bit {n_bits}: "
            "payload corrupt or misdeclared"
        )


class BitWriter:
    """Append-only bit stream backed by packed byte blocks and bool chunks.

    A batched field of whole bytes written at a byte boundary
    (``width % 8 == 0`` in :meth:`write_uints` and :meth:`write_uint`) is
    appended as its big-endian byte view, with no per-bit array.  Every
    other write appends a boolean chunk; :meth:`getvalue` packs each run
    of chunks with one :func:`numpy.packbits` call and joins the runs
    with the byte blocks.  A run always starts at a byte boundary, so the
    output is exactly the packed MSB-first bit string, zero padded to a
    byte boundary.
    """

    def __init__(self) -> None:
        self._blocks: list[bytes] = []
        self._tail: list[np.ndarray] = []
        self._n_bits = 0

    def _pack_tail(self) -> None:
        """Pack the pending bool chunks: a run that starts on a byte boundary."""
        if self._tail:
            self._blocks.append(np.packbits(np.concatenate(self._tail)).tobytes())
            self._tail = []

    def _aligned_block(self, block: bytes) -> None:
        """Append whole bytes at the (byte-aligned) cursor."""
        self._pack_tail()
        self._blocks.append(block)
        self._n_bits += 8 * len(block)

    def write_bit(self, bit: bool | int) -> None:
        """Append a single bit."""
        self._tail.append(np.array([bool(bit)]))
        self._n_bits += 1

    def write_bits(self, bits: np.ndarray) -> None:
        """Append a 1-D boolean array as one chunk.

        The chunk is copied, so callers may reuse or mutate scratch
        buffers after writing without corrupting the payload.
        """
        arr = np.array(bits, dtype=bool, copy=True).reshape(-1)
        self._tail.append(arr)
        self._n_bits += arr.size

    def write_uint(self, value: int, width: int) -> None:
        """Append a ``width``-bit unsigned integer, MSB first."""
        if width < 0 or width % 8 or self._n_bits % 8:
            self._tail.append(int_to_bits(value, width))
            self._n_bits += width
            return
        try:
            block = int(value).to_bytes(width // 8, "big")
        except OverflowError:
            raise SketchSizeError(f"value {value} does not fit in {width} bits") from None
        self._aligned_block(block)

    def write_uints(self, values: Sequence[int] | np.ndarray, width: int) -> None:
        """Append many ``width``-bit unsigned integers in one vectorized pass.

        Whole-byte widths at a byte boundary take the byte-view path;
        other fields go through the bool reference encoding.
        """
        vals = _check_uints(values, width)
        if width % 8 or self._n_bits % 8:
            self._tail.append(_uints_to_bits(vals, width))
            self._n_bits += vals.size * width
        else:
            self._aligned_block(_uints_to_bytes(vals, width))

    def write_quantized(self, value: float, epsilon: float) -> None:
        """Append a frequency quantized to precision ``epsilon``."""
        self.write_uint(quantize_frequency(value, epsilon), frequency_bits(epsilon))

    def write_quantized_batch(
        self, values: Sequence[float] | np.ndarray, epsilon: float
    ) -> None:
        """Append many quantized frequencies in one vectorized pass.

        Codes match :func:`quantize_frequency` exactly (round-half-to-even,
        numpy's and Python's shared convention), so batch and per-value
        writes produce identical payloads.
        """
        vals = np.asarray(values, dtype=float)
        if vals.size and (vals.min() < 0.0 or vals.max() > 1.0 + 1e-12):
            bad = vals.min() if vals.min() < 0.0 else vals.max()
            raise SketchSizeError(f"frequency must lie in [0, 1], got {bad}")
        codes = np.rint(np.minimum(vals, 1.0) / epsilon).astype(np.uint64)
        self.write_uints(codes, frequency_bits(epsilon))

    def __len__(self) -> int:
        return self._n_bits

    @property
    def n_bits(self) -> int:
        """Number of bits written so far: the sketch's exact size."""
        return self._n_bits

    def getvalue(self) -> bytes:
        """Packed payload (zero padded to a byte boundary)."""
        self._pack_tail()
        payload = b"".join(self._blocks)
        # Coalesce so repeated getvalue calls stay cheap; a partial final
        # byte stays a bool chunk so later writes continue after it.
        self._blocks = [payload]
        spare = self._n_bits % 8
        if spare:
            last = np.frombuffer(payload[-1:], dtype=np.uint8)
            self._blocks = [payload[:-1]]
            self._tail = [np.unpackbits(last, count=spare).view(bool)]
        return payload


class BitReader:
    """Strict sequential reader over a payload produced by :class:`BitWriter`.

    The payload stays packed: a read of a whole-byte field at a byte
    boundary (:meth:`read_uints` with ``width % 8 == 0``) is a big-endian
    view of its bytes, and every other read unpacks only the bytes it
    covers.  The constructor validates the frame-level invariants the
    accounting rests on:

    * ``len(buf)`` must be exactly ``ceil(n_bits / 8)`` -- a payload that is
      too short cannot hold the declared bits, and one that is too long is
      smuggling uncounted bits past :meth:`size_in_bits` accounting;
    * the zero padding after bit ``n_bits`` in the final byte must actually
      be zero -- nonzero trailing bits mean the payload was corrupted or
      written by a different convention.
    """

    def __init__(self, buf: bytes, n_bits: int) -> None:
        if n_bits < 0:
            raise SketchSizeError(f"n_bits must be non-negative, got {n_bits}")
        need = (n_bits + 7) // 8
        if len(buf) != need:
            raise SketchSizeError(
                f"payload of {len(buf)} bytes disagrees with declared "
                f"{n_bits} bits ({need} bytes expected)"
            )
        self._buf = np.frombuffer(buf, dtype=np.uint8)
        if need:
            _check_padding(self._buf[-1], n_bits)
        self._total = n_bits
        self._pos = 0

    @classmethod
    def windowed(cls, chunks: Iterable[bytes], n_bits: int) -> "BitReader":
        """A reader over an *iterator of byte chunks* with bounded memory.

        The chunked/zlib decode path: payload windows arrive from a file
        (or a decompressor) one at a time, and only the currently
        buffered windows are held (packed).  The same frame invariants as
        the eager constructor are enforced, just lazily: the chunks must
        together hold exactly ``ceil(n_bits / 8)`` bytes (a short source
        raises on read, an oversized one as soon as the excess chunk
        arrives), and the zero padding in the final byte must be zero.
        Pulling the final window also exhausts the source, so a producer
        that frames its end (checksum trailers, chunk sentinels) gets its
        finalization code run before the last read returns.
        """
        return _WindowedBitReader(chunks, n_bits)

    def _check_read(self, count: int) -> None:
        if count < 0:
            raise SketchSizeError(f"cannot read {count} bits")
        if self._pos + count > self._total:
            raise SketchSizeError(
                f"bit stream exhausted: wanted {count} bits at offset {self._pos} "
                f"of {self._total}"
            )

    def _advance(self, count: int) -> tuple[np.ndarray, int]:
        """The packed bytes covering the next ``count`` bits, and the bit
        offset of the first one in them; moves the cursor past the bits."""
        self._check_read(count)
        start = self._pos
        self._pos += count
        return self._buf[start >> 3 : (self._pos + 7) >> 3], start & 7

    def read_bit(self) -> bool:
        """Read a single bit."""
        return bool(self.read_uint(1))

    def read_bits(self, count: int) -> np.ndarray:
        """Read ``count`` bits as a boolean array."""
        data, offset = self._advance(count)
        return np.unpackbits(data, count=offset + count)[offset:].view(bool)

    def read_uint(self, width: int) -> int:
        """Read a ``width``-bit unsigned integer, MSB first."""
        data, offset = self._advance(width)
        if not width:
            return 0
        value = int.from_bytes(data.tobytes(), "big")
        return (value >> (8 * data.size - offset - width)) & ((1 << width) - 1)

    def read_uints(self, count: int, width: int) -> np.ndarray:
        """Read ``count`` consecutive ``width``-bit integers in one pass.

        Whole-byte widths at a byte boundary decode as a big-endian view
        of the packed bytes; other fields go through the bool reference
        decoding of just the bits they cover.
        """
        if width % 8 or self._pos % 8 or not 0 < width <= 64:
            return _bits_to_uints(self.read_bits(count * width), width)
        data, _ = self._advance(count * width)
        return _bytes_to_uints(data, width)

    def read_quantized(self, epsilon: float) -> float:
        """Read a frequency quantized to precision ``epsilon``."""
        return dequantize_frequency(self.read_uint(frequency_bits(epsilon)), epsilon)

    def read_quantized_batch(self, count: int, epsilon: float) -> np.ndarray:
        """Read ``count`` quantized frequencies as one float vector."""
        codes = self.read_uints(count, frequency_bits(epsilon))
        return np.minimum(1.0, codes.astype(float) * epsilon)

    @property
    def remaining(self) -> int:
        """Bits left unread."""
        return self._total - self._pos


class _WindowedBitReader(BitReader):
    """Sequential reads over a chunk iterator, one window buffered at a time.

    Constructed via :meth:`BitReader.windowed`.  Shares every ``read_*``
    method with the eager reader through the single :meth:`_advance`
    primitive; only buffering differs.  Windows are held packed; a
    byte that a read ends inside stays at the head of the buffer.
    """

    _SENTINEL = object()

    def __init__(self, chunks: Iterable[bytes], n_bits: int) -> None:
        if n_bits < 0:
            raise SketchSizeError(f"n_bits must be non-negative, got {n_bits}")
        self._total = n_bits
        self._pos = 0
        self._need_bytes = (n_bits + 7) // 8
        self._source: Iterator[bytes] | None = iter(chunks)
        self._pending: deque[np.ndarray] = deque()
        self._held = 0
        self._bytes_seen = 0
        if self._need_bytes == 0:
            self._exhaust_source()

    def _exhaust_source(self) -> None:
        """The declared bytes are all in: the source must end here too."""
        extra = next(self._source, self._SENTINEL)  # type: ignore[arg-type]
        if extra is not self._SENTINEL:
            raise SketchSizeError(
                f"payload continues past the declared {self._total} bits"
            )
        self._source = None

    def _pull(self) -> None:
        if self._source is None:
            raise SketchSizeError(
                f"bit stream exhausted: wanted more bits at offset "
                f"{self._pos} of {self._total}"
            )
        chunk = next(self._source, self._SENTINEL)
        if chunk is self._SENTINEL:
            raise SketchSizeError(
                f"payload of {self._bytes_seen} bytes disagrees with declared "
                f"{self._total} bits ({self._need_bytes} bytes expected)"
            )
        if not chunk:
            return
        self._bytes_seen += len(chunk)
        if self._bytes_seen > self._need_bytes:
            raise SketchSizeError(
                f"payload of >= {self._bytes_seen} bytes disagrees with "
                f"declared {self._total} bits ({self._need_bytes} bytes expected)"
            )
        data = np.frombuffer(chunk, dtype=np.uint8)
        if self._bytes_seen == self._need_bytes:
            _check_padding(data[-1], self._total)
            self._exhaust_source()
        self._pending.append(data)
        self._held += data.size

    def _advance(self, count: int) -> tuple[np.ndarray, int]:
        self._check_read(count)
        offset = self._pos & 7
        need = (offset + count + 7) >> 3
        while self._held < need:
            self._pull()
        if not need:
            return np.zeros(0, dtype=np.uint8), offset
        if self._pending[0].size < need:
            parts, got = [], 0
            while got < need:
                parts.append(self._pending.popleft())
                got += parts[-1].size
            self._pending.appendleft(np.concatenate(parts))
        head = self._pending[0]
        self._pos += count
        done = (offset + count) >> 3
        if done == head.size:
            self._pending.popleft()
        else:
            self._pending[0] = head[done:]
        self._held -= done
        return head[:need], offset

    @property
    def buffered_bits(self) -> int:
        """Unread bits currently buffered (the window-memory bound under test)."""
        return min(8 * self._held - (self._pos & 7), self.remaining)
