"""Wire-format serialization: legacy-vs-vectorized throughput bench.

Measures the serializer's vectorized ``BitWriter`` against the original
per-bit Python list writer (``extend(bool(b) for b in array)`` per
write, one ``bool`` object per payload bit), plus the wire-v3 writer's
end-to-end costs.  Cases:

* ``bitwriter_payload`` -- build a ~10^6-bit RELEASE-DB-shaped payload
  (packed boolean matrix plus a fixed-width uint section) with the legacy
  list-based writer vs the vectorized writer.  The acceptance floor is
  :data:`MIN_SPEEDUP` (5x); in practice the gap is orders of magnitude.
* ``quantized_answers`` -- RELEASE-ANSWERS' answer-table serialization:
  one ``write_quantized`` call per frequency vs one
  ``write_quantized_batch`` call for the whole table (both on the new
  writer, so this isolates the batch-field win).
* ``sketch_file_round_trip`` -- end-to-end ``dump``/``load`` latency of
  framed sketch files (SUBSAMPLE, RELEASE-DB, Count-Min): the cost of
  actually crossing the (S, Q) process boundary.
* ``sparse_delta`` -- sparse counter summaries dumped as v3 records,
  which store the cheapest of raw / varint-delta / zlib per payload,
  against their raw packed payload.  The gate is *strict in the weak
  direction*: the stored bytes never exceed the raw payload on any case,
  while the charged ``n_bits`` stays exactly ``size_in_bits()``.  The
  ``count-min-partial`` case is a streaming pipeline partial (count-min
  4 x 65536 after one 131072-item Zipf batch), where pricing the delta
  layout dominates the cost of a dump.
* ``counter_payload`` -- codec encode (``BitWriter`` fill + ``getvalue``)
  and decode (``BitReader`` + field rebuild) MB/s of counter-array
  payloads -- count-min, SpaceSaving and Misra-Gries at three sizes --
  on the byte-aligned fast path, beside the same codecs with every field
  routed through the per-bit reference (``_uints_to_bits`` /
  ``_bits_to_uints``, the writer and reader before the fast path).
  Frames must be byte-identical on both paths.
* ``container_ops`` -- pack a 64-shard fleet with ``ContainerWriter``,
  then measure a full sequential decode against one manifest-driven lazy
  load.  Asserts the partial load touches far less than the whole
  container (open cost is header + manifest only, load cost is one
  record).

Writes ``BENCH_serialize.json`` (repo root).  Run directly::

    PYTHONPATH=src python benchmarks/bench_serialize.py [--quick]

or through pytest (``pytest benchmarks/bench_serialize.py -s``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import wire  # noqa: E402
from repro.core import SubsampleSketcher, ReleaseDbSketcher, Task  # noqa: E402
from repro.db import BitWriter, random_database  # noqa: E402
from repro.db.bitmatrix import int_to_bits, pack_bits  # noqa: E402
from repro.db.serialize import BitReader, _bits_to_uints, _uints_to_bits  # noqa: E402
from repro.params import SketchParams  # noqa: E402
from repro.streaming import CountMinSketch  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_serialize.json"

#: Acceptance floor: vectorized writer vs the seed list-based path on a
#: ~10^6-bit payload.
MIN_SPEEDUP = 5.0


# ----------------------------------------------------------------------
# Faithful reimplementation of the seed (pre-PR3) per-bit writer.
# ----------------------------------------------------------------------
class _LegacyBitWriter:
    """The seed BitWriter, preserved verbatim as the baseline.

    Every write walks its input bit by bit in Python and appends one
    ``bool`` object per bit; ``getvalue`` re-materializes the list as an
    array before packing.
    """

    def __init__(self) -> None:
        self._bits: list[bool] = []

    def write_bit(self, bit) -> None:
        self._bits.append(bool(bit))

    def write_bits(self, bits) -> None:
        self._bits.extend(bool(b) for b in np.asarray(bits, dtype=bool))

    def write_uint(self, value: int, width: int) -> None:
        self.write_bits(int_to_bits(value, width))

    @property
    def n_bits(self) -> int:
        return len(self._bits)

    def getvalue(self) -> bytes:
        return pack_bits(np.array(self._bits, dtype=bool)) if self._bits else b""


def _time(fn, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_bitwriter_payload(n_rows: int, d: int, n_uints: int, repeats: int) -> dict:
    """The tentpole comparison on a RELEASE-DB-shaped payload."""
    rng = np.random.default_rng(0)
    rows = rng.random((n_rows, d)) < 0.3
    uints = rng.integers(0, 2**32, size=n_uints)
    total_bits = n_rows * d + 64 * n_uints

    def build(writer_cls):
        writer = writer_cls()
        writer.write_bits(rows.reshape(-1))
        for value in uints.tolist():
            writer.write_uint(int(value), 64)
        return writer.getvalue()

    legacy_time, legacy_payload = _time(lambda: build(_LegacyBitWriter), repeats)
    vector_time, vector_payload = _time(lambda: build(BitWriter), repeats)
    assert legacy_payload == vector_payload, "vectorized writer changed the payload"
    return {
        "config": {"n_rows": n_rows, "d": d, "n_uints": n_uints, "bits": total_bits},
        "legacy": {"seconds": legacy_time, "bits_per_sec": total_bits / legacy_time},
        "vectorized": {"seconds": vector_time, "bits_per_sec": total_bits / vector_time},
        "speedup": legacy_time / vector_time,
    }


def bench_quantized_answers(n_answers: int, epsilon: float, repeats: int) -> dict:
    """RELEASE-ANSWERS' table: per-answer writes vs one batched write."""
    rng = np.random.default_rng(1)
    freqs = rng.random(n_answers)

    def itemwise():
        writer = BitWriter()
        for f in freqs.tolist():
            writer.write_quantized(f, epsilon)
        return writer.getvalue()

    def batched():
        writer = BitWriter()
        writer.write_quantized_batch(freqs, epsilon)
        return writer.getvalue()

    item_time, a = _time(itemwise, repeats)
    batch_time, b = _time(batched, repeats)
    assert a == b, "batched quantization changed the payload"
    return {
        "config": {"n_answers": n_answers, "epsilon": epsilon},
        "itemwise": {"seconds": item_time, "answers_per_sec": n_answers / item_time},
        "batched": {"seconds": batch_time, "answers_per_sec": n_answers / batch_time},
        "speedup": item_time / batch_time,
    }


def bench_round_trip(n: int, d: int, repeats: int) -> dict:
    """dump + load latency for framed sketch files."""
    db = random_database(n, d, density=0.3, rng=2)
    p = SketchParams(n=n, d=d, k=2, epsilon=0.05, delta=0.1)
    cms = CountMinSketch(10_000, 2048, 5, rng=0)
    cms.update_many(np.random.default_rng(3).integers(0, 10_000, 50_000))
    subjects = {
        "subsample": SubsampleSketcher(Task.FORALL_ESTIMATOR).sketch(db, p, rng=0),
        "release-db": ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p, rng=0),
        "count-min": cms,
    }
    cases = {}
    for name, obj in subjects.items():
        dump_time, buf = _time(lambda o=obj: wire.dump(o), repeats)
        load_time, clone = _time(lambda b=buf: wire.load(b), repeats)
        assert clone.size_in_bits() == obj.size_in_bits()
        cases[name] = {
            "frame_bytes": len(buf),
            "payload_bits": obj.size_in_bits(),
            "dump_seconds": dump_time,
            "load_seconds": load_time,
            "round_trips_per_sec": 1.0 / (dump_time + load_time),
        }
    return {"config": {"n": n, "d": d}, "cases": cases}


def _pipeline_partial():
    """A stream-pipeline partial: count-min 4 x 65536, one Zipf batch."""
    from repro.streaming.traffic import zipf_traffic

    cms = CountMinSketch(1 << 20, 65_536, 4, rng=1)
    batch = next(
        zipf_traffic(1 << 20, batch_items=131_072, total_items=131_072, rng=2)
    )
    cms.update_many(batch)
    return cms


def bench_sparse_delta(universe: int, k: int, n_items: int, repeats: int) -> dict:
    """v3 stored payload bytes vs the raw payload on sparse summaries."""
    import io

    from repro.streaming import MisraGries, SpaceSaving, StickySampling

    rng = np.random.default_rng(7)
    stream = rng.integers(0, universe, size=n_items, dtype=np.int64)
    subjects = {
        "misra-gries": MisraGries(universe, k),
        "space-saving": SpaceSaving(universe, k),
        "sticky-sampling": StickySampling(universe, 0.02, 0.1, rng=0),
    }
    for summary in subjects.values():
        summary.update_many(stream)
    subjects["count-min-partial"] = _pipeline_partial()
    cases = {}
    for name, summary in subjects.items():
        dump_time, frame = _time(lambda s=summary: wire.dump(s), repeats)
        load_time, clone = _time(lambda f=frame: wire.load(f), repeats)
        info = wire.inspect_frame(io.BytesIO(frame))
        raw_bytes = (info.n_bits + 7) // 8
        assert info.stored_payload_bytes <= raw_bytes, (
            f"{name}: v3 stored {info.stored_payload_bytes} B exceeds the "
            f"raw payload's {raw_bytes} B"
        )
        assert info.n_bits == summary.size_in_bits(), f"{name}: charged bits drifted"
        assert wire.dump(clone) == frame, f"{name}: round trip is not bit-identical"
        cases[name] = {
            "payload_bits": info.n_bits,
            "raw_payload_bytes": raw_bytes,
            "v3_stored_bytes": info.stored_payload_bytes,
            "v3_delta_encoded": info.delta,
            "stored_ratio": info.stored_payload_bytes / max(1, raw_bytes),
            "dump_seconds": dump_time,
            "load_seconds": load_time,
        }
    return {
        "config": {
            "universe": universe,
            "k": k,
            "stream": n_items,
            "count_min_partial": "4 x 65536, one 131072-item Zipf(1.2) batch",
        },
        "cases": cases,
    }


class _ReferenceBitWriter(BitWriter):
    """Every batched field through the per-bit reference encoding."""

    def write_uints(self, values, width):
        self.write_bits(_uints_to_bits(np.asarray(values, dtype=np.uint64), width))


class _ReferenceBitReader(BitReader):
    """Every batched field through the per-bit reference decoding."""

    def read_uints(self, count, width):
        return _bits_to_uints(self.read_bits(count * width), width)


@contextlib.contextmanager
def reference_codec_path():
    """Run the wire codecs on the per-bit reference writer and reader."""
    saved = wire.BitWriter, wire.BitReader
    wire.BitWriter, wire.BitReader = _ReferenceBitWriter, _ReferenceBitReader
    try:
        yield
    finally:
        wire.BitWriter, wire.BitReader = saved


def _codec_times(obj, repeats: int) -> tuple[float, float, bytes]:
    """Best-of encode and decode seconds of ``obj``'s codec payload."""
    codec = wire.codec_for(obj)

    def encode():
        payload = codec.encode(obj, wire.Header())
        return payload.getvalue()

    encode_time, payload = _time(encode, repeats)
    frame = wire.decode_frame(wire.dump(obj))
    decode_time, clone = _time(lambda: codec.decode(frame), repeats)
    assert wire.dump(clone) == wire.dump(obj), f"{codec.name}: decode drifted"
    return encode_time, decode_time, payload


def bench_counter_payload(sizes: dict, n_items: int, repeats: int) -> dict:
    """Counter-array payload MB/s: byte-aligned fast path vs the reference."""
    from repro.streaming import MisraGries, SpaceSaving
    from repro.streaming.traffic import zipf_traffic

    universe = 1 << 20
    stream = next(zipf_traffic(universe, batch_items=n_items, total_items=n_items, rng=4))
    cases = {}
    for kind, shapes in sizes.items():
        for shape in shapes:
            if kind == "count-min":
                depth, width = shape
                obj = CountMinSketch(universe, width, depth, rng=1)
                label = f"count-min-{depth}x{width}"
            else:
                obj = (MisraGries if kind == "misra-gries" else SpaceSaving)(universe, shape)
                label = f"{kind}-k{shape}"
            obj.update_many(stream)
            fast_enc, fast_dec, payload = _codec_times(obj, repeats)
            with reference_codec_path():
                ref_enc, ref_dec, ref_payload = _codec_times(obj, repeats)
            assert payload == ref_payload, f"{label}: fast path changed the payload"
            mb = obj.size_in_bits() / 8 / 1e6
            cases[label] = {
                "payload_bytes": (obj.size_in_bits() + 7) // 8,
                "encode_seconds": fast_enc,
                "decode_seconds": fast_dec,
                "encode_mb_per_s": mb / fast_enc,
                "decode_mb_per_s": mb / fast_dec,
                "reference_encode_seconds": ref_enc,
                "reference_decode_seconds": ref_dec,
                "reference_encode_mb_per_s": mb / ref_enc,
                "reference_decode_mb_per_s": mb / ref_dec,
                "encode_speedup": ref_enc / fast_enc,
                "decode_speedup": ref_dec / fast_dec,
            }
    return {
        "config": {
            "universe": universe,
            "stream": f"{n_items} Zipf(1.2) items",
            "ids": "20-bit ids, 64-bit counters: every field whole bytes at a byte boundary",
        },
        "cases": cases,
    }


def bench_container_ops(n_shards: int, universe: int, k: int, repeats: int) -> dict:
    """Pack / sequential decode / manifest-driven lazy load on a fleet."""
    import io

    from repro.streaming import MisraGries

    class SpyFile(io.BytesIO):
        def __init__(self, data):
            super().__init__(data)
            self.bytes_read = 0

        def read(self, size=-1):
            data = super().read(size)
            self.bytes_read += len(data)
            return data

    shards = []
    for i in range(n_shards):
        mg = MisraGries(universe, k)
        mg.update_many(
            np.random.default_rng(200 + i).integers(0, universe, 5000)
        )
        shards.append((f"shard{i}", mg))

    def pack():
        sink = io.BytesIO()
        wire.write_container(sink, shards)
        return sink.getvalue()

    pack_time, data = _time(pack, repeats)

    def full_decode():
        return sum(1 for _ in wire.iter_container_objects(io.BytesIO(data)))

    full_time, decoded = _time(full_decode, repeats)
    assert decoded == n_shards

    target = f"shard{n_shards // 2}"

    def lazy_load():
        spy = SpyFile(data)
        reader = wire.ContainerReader.open(spy)
        obj = reader.load(reader.entries[n_shards // 2])
        return spy, obj

    lazy_time, (spy, obj) = _time(lazy_load, repeats)
    assert obj.size_in_bits() == dict(shards)[target].size_in_bits()
    # The lazy-load evidence: one shard costs header + manifest + one
    # record, a small fraction of the container.
    assert spy.bytes_read < len(data) / 4, (
        f"lazy load read {spy.bytes_read} of {len(data)} container bytes"
    )
    return {
        "config": {"n_shards": n_shards, "universe": universe, "k": k},
        "container_bytes": len(data),
        "pack_seconds": pack_time,
        "full_decode_seconds": full_time,
        "lazy_load_seconds": lazy_time,
        "lazy_load_bytes_read": spy.bytes_read,
        "lazy_read_fraction": spy.bytes_read / len(data),
        "shards_per_sec_packed": n_shards / pack_time,
        "shards_per_sec_decoded": n_shards / full_time,
    }


def run(quick: bool = False, out_path: Path = DEFAULT_OUT) -> dict:
    """Run the full suite and write the JSON trajectory record."""
    repeats = 1 if quick else 3
    if quick:
        results = {
            # The payload config is pinned at ~10^6 bits even in quick
            # mode: the >= 5x acceptance floor is defined at that size.
            "bitwriter_payload": bench_bitwriter_payload(15_360, 64, 400, repeats),
            "quantized_answers": bench_quantized_answers(20_000, 0.01, repeats),
            "sketch_file_round_trip": bench_round_trip(1024, 16, repeats),
            "sparse_delta": bench_sparse_delta(1 << 16, 16, 20_000, repeats),
            "counter_payload": bench_counter_payload(
                {
                    "count-min": [(4, 4096), (4, 16_384)],
                    "space-saving": [256, 2048],
                    "misra-gries": [256, 2048],
                },
                50_000,
                repeats,
            ),
            "container_ops": bench_container_ops(64, 4096, 64, repeats),
        }
    else:
        results = {
            "bitwriter_payload": bench_bitwriter_payload(15_360, 64, 400, repeats),
            "quantized_answers": bench_quantized_answers(100_000, 0.01, repeats),
            "sketch_file_round_trip": bench_round_trip(4096, 24, repeats),
            "sparse_delta": bench_sparse_delta(1 << 20, 32, 200_000, repeats),
            "counter_payload": bench_counter_payload(
                {
                    "count-min": [(4, 4096), (4, 16_384), (4, 65_536)],
                    "space-saving": [256, 4096, 32_768],
                    "misra-gries": [256, 4096, 32_768],
                },
                262_144,
                repeats,
            ),
            "container_ops": bench_container_ops(64, 65_536, 256, repeats),
        }
    tentpole = results["bitwriter_payload"]
    assert tentpole["config"]["bits"] >= 1_000_000, "payload case shrank below 10^6 bits"
    assert tentpole["speedup"] >= MIN_SPEEDUP, (
        f"vectorized BitWriter only {tentpole['speedup']:.1f}x faster than the "
        f"legacy list path (floor {MIN_SPEEDUP}x)"
    )
    record = {
        "benchmark": "serialize",
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "results": results,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: bench_* files are opt-in).
# ----------------------------------------------------------------------
def test_serializer_speedup_quick():
    record = run(quick=True)
    tentpole = record["results"]["bitwriter_payload"]
    print(
        f"\nbitwriter_payload ({tentpole['config']['bits']} bits): "
        f"legacy {tentpole['legacy']['bits_per_sec']:.3g} bits/s -> "
        f"vectorized {tentpole['vectorized']['bits_per_sec']:.3g} bits/s "
        f"({tentpole['speedup']:.0f}x)"
    )
    assert tentpole["speedup"] >= MIN_SPEEDUP
    assert record["results"]["quantized_answers"]["speedup"] > 1.0
    for name, case in record["results"]["sparse_delta"]["cases"].items():
        print(
            f"sparse_delta {name}: raw {case['raw_payload_bytes']} B -> "
            f"v3 {case['v3_stored_bytes']} B stored "
            f"({'delta' if case['v3_delta_encoded'] else 'raw/zlib'})"
        )
        assert case["v3_stored_bytes"] <= case["raw_payload_bytes"]
    for name, case in record["results"]["counter_payload"]["cases"].items():
        print(
            f"counter_payload {name}: encode {case['encode_mb_per_s']:.0f} MB/s "
            f"(reference {case['reference_encode_mb_per_s']:.1f}), decode "
            f"{case['decode_mb_per_s']:.0f} MB/s "
            f"(reference {case['reference_decode_mb_per_s']:.1f})"
        )
    ops = record["results"]["container_ops"]
    print(
        f"container_ops: {ops['config']['n_shards']} shards in "
        f"{ops['container_bytes']} B; lazy load read "
        f"{ops['lazy_load_bytes_read']} B ({ops['lazy_read_fraction']:.1%})"
    )
    assert ops["lazy_read_fraction"] < 0.25


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration (CI)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick, out_path=args.out)
    for name, res in record["results"].items():
        if "speedup" in res:
            print(f"{name}: speedup {res['speedup']:.1f}x")
    trips = record["results"]["sketch_file_round_trip"]["cases"]
    for name, case in trips.items():
        print(
            f"round_trip {name}: {case['frame_bytes']} bytes, "
            f"{case['round_trips_per_sec']:.0f} round-trips/sec"
        )
    for name, case in record["results"]["sparse_delta"]["cases"].items():
        print(
            f"sparse_delta {name}: stored ratio "
            f"{case['stored_ratio']:.2f} (v3 stored / raw payload), dump "
            f"{case['dump_seconds'] * 1e3:.1f} ms"
        )
    for name, case in record["results"]["counter_payload"]["cases"].items():
        print(
            f"counter_payload {name} ({case['payload_bytes']} B): encode "
            f"{case['encode_mb_per_s']:.0f} MB/s vs reference "
            f"{case['reference_encode_mb_per_s']:.1f}, decode "
            f"{case['decode_mb_per_s']:.0f} MB/s vs reference "
            f"{case['reference_decode_mb_per_s']:.1f}"
        )
    ops = record["results"]["container_ops"]
    print(
        f"container_ops: lazy load touched {ops['lazy_read_fraction']:.1%} "
        f"of the container"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
