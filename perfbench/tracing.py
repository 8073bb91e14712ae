"""Span tracing installed from outside the program.

:func:`install` replaces public functions and methods of each layer of
:mod:`repro` with wrappers that record a span per call: name, start,
end, the enclosing span, the outermost span (the request it belongs
to), and a size (bytes, items, or a flag) where the layer has one.
Spans stay in memory and are written out once, by :meth:`Recorder.dump`.
Nothing under ``src/`` changes; a traced process is started through
``perfbench/launcher.py``, which calls :func:`install` before
``repro.cli.main``.

:func:`layer_metrics` turns the spans of every traced process of one
run into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Span tuple fields.
SID, PARENT, ROOT, NAME, T0, T1, SIZE, TAG = range(8)


class Recorder:
    """In-memory spans of one process, one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None, pre=None):
        """``fn`` recording one ``name`` span per call.

        ``pre(args)`` runs before the call; ``info(args, result, pre)``
        after it returns ``(size, tag)`` for the span.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent, root = stack[-1] if stack else (0, sid)
            stack.append((sid, root))
            state = pre(args) if pre is not None else None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.spans.append((sid, parent, root, name, t0, time.monotonic(), 0, "error"))
                raise
            finally:
                stack.pop()
            t1 = time.monotonic()
            size, tag = info(args, result, state) if info is not None else (0, None)
            recorder.spans.append((sid, parent, root, name, t0, t1, size, tag))
            return result

        return traced

    def dump(self, path: Path, role: str) -> None:
        """Write every span recorded so far (atomically replacing ``path``)."""
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"role": role, "spans": list(self.spans)}))
        tmp.replace(path)


def _rebind(old, new) -> None:
    """Point every ``repro`` module-level binding of ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _len_arg(index: int):
    return lambda args, result, state: (len(args[index]), None)


def _stream_pos(args):
    stream = args[0]
    return stream.tell() if stream.seekable() else None


def _stream_read(args, result, state):
    stream = args[0]
    return ((stream.tell() - state) if state is not None else 0), None


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every traced layer of ``repro``."""
    import repro.cli  # noqa: F401  (loads the modules whose bindings change)
    import repro.core.subsample as subsample
    import repro.db.serialize as serialize
    import repro.server.persistence as persistence
    import repro.server.protocol as protocol
    import repro.server.registry as registry
    import repro.server.server as server
    import repro.streaming.base as sbase
    import repro.streaming.merge as smerge
    import repro.streaming.pipeline as pipeline
    import repro.wire as wire

    def function(module, attr, name, info=None, pre=None):
        old = getattr(module, attr)
        _rebind(old, rec.wrap(name, old, info, pre))

    def method(cls, attr, name, info=None, pre=None):
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), info, pre))

    # Server: one dispatch span per request; its size is the request
    # body and its tag the opcode, so spans can be matched to requests.
    method(server.SketchServer, "_dispatch", "server.dispatch",
           info=lambda args, result, state: (len(args[1]), args[1][0] if args[1] else None))
    function(protocol, "parse_request", "protocol.parse_request")
    for attr in ("encode_estimates", "encode_indicators", "encode_ingest_ok",
                 "encode_load_ok", "encode_load_many_ok", "encode_error"):
        function(protocol, attr, "protocol.encode")

    # Registry verbs.
    for attr in ("estimate", "indicate", "ingest", "load", "restore"):
        method(registry.SketchRegistry, attr, f"registry.{attr}")

    # Query kernels and sketching.
    method(subsample.SubsampleSketch, "estimate_batch", "core.estimate_batch")
    method(subsample.SubsampleSketch, "indicate_batch", "core.indicate_batch")
    method(subsample.SubsampleSketcher, "sketch", "core.sketch")

    # Wire codec.
    function(wire, "payload_size_bits", "wire.payload_size_bits")
    function(wire, "dump", "wire.dump", info=lambda args, result, state: (len(result), None))
    function(wire, "dump_to", "wire.dump", info=lambda args, result, state: (int(result), None))
    function(wire, "load", "wire.load", info=_len_arg(0))
    function(wire, "load_as", "wire.load", info=_len_arg(1))
    function(wire, "load_from", "wire.load", pre=_stream_pos, info=_stream_read)
    method(wire.ContainerReader, "extract", "wire.container_extract",
           info=lambda args, result, state: (len(result), None))
    method(serialize.BitWriter, "write_uints", "serialize.write_uints")
    method(serialize.BitReader, "read_uints", "serialize.read_uints")

    # Durability.
    def wal_pre(args):
        path = args[0].path
        return path.stat().st_size if path.exists() else 0

    method(persistence.WriteAheadLog, "append", "persistence.wal_append", pre=wal_pre,
           info=lambda args, result, state: (args[0].path.stat().st_size - state, None))
    method(persistence.PersistentStore, "maybe_compact", "persistence.maybe_compact")
    method(persistence.PersistentStore, "recover", "persistence.recover",
           info=lambda args, result, state: (result.snapshot_entries + result.replayed_ops, None))

    # Streaming summaries and the pipeline's fold.
    method(sbase.StreamSummary, "update_many", "streaming.update_many", info=_len_arg(1))
    function(smerge, "merge_summaries", "streaming.merge")
    pipeline.merge_summaries = rec.wrap("pipeline.fold", pipeline.merge_summaries)


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------
class Spans:
    """The spans of one traced process, indexed for the aggregations."""

    def __init__(self, role: str, spans: list) -> None:
        self.role = role
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[SID]: s for s in self.spans}

    @classmethod
    def read(cls, path: Path) -> "Spans":
        data = json.loads(path.read_text())
        return cls(data["role"], data["spans"])

    def parent_name(self, span) -> str | None:
        parent = self.by_id.get(span[PARENT])
        return None if parent is None else parent[NAME]

    def root_name(self, span) -> str | None:
        root = self.by_id.get(span[ROOT])
        return None if root is None else root[NAME]

    def outermost(self, name: str) -> list[tuple]:
        """``name`` spans with no ``name`` span around them."""
        out = []
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = self.by_id.get(span[PARENT])
            nested = False
            while parent is not None:
                if parent[NAME] == name:
                    nested = True
                    break
                parent = self.by_id.get(parent[PARENT])
            if not nested:
                out.append(span)
        return out


class Pool:
    """Spans of several processes, pooled per metric."""

    def __init__(self, processes: list[Spans]) -> None:
        self.processes = processes

    def select(self, name: str, where=None, roles=None) -> list[tuple]:
        out = []
        for proc in self.processes:
            if roles is not None and proc.role not in roles:
                continue
            for span in proc.outermost(name):
                if where is None or where(proc, span):
                    out.append(span)
        return out

    def mean_s(self, name: str, **kw) -> float:
        spans = self.select(name, **kw)
        return float(np.mean([s[T1] - s[T0] for s in spans])) if spans else 0.0

    def count(self, name: str, **kw) -> int:
        return len(self.select(name, **kw))

    def total(self, name: str, **kw) -> tuple[float, float]:
        """``(seconds, size)`` summed over the selected spans."""
        spans = self.select(name, **kw)
        return sum(s[T1] - s[T0] for s in spans), sum(s[SIZE] for s in spans)

    def rate(self, name: str, scale: float = 1.0, **kw) -> float:
        seconds, size = self.total(name, **kw)
        return size / seconds / scale if seconds > 0 else 0.0


#: Request opcodes that mutate the registry (LOAD, DROP, INGEST, LOAD_MANY).
MUTATING_OPS = {1, 6, 8, 9}

#: Read opcodes (ESTIMATE, INDICATE).
READ_OPS = {2, 3}


def layer_metrics(pool: Pool) -> dict[str, float]:
    """Per-layer metrics from the spans of one run (0 where a layer is idle)."""
    in_request = lambda proc, span: proc.root_name(span) == "server.dispatch"  # noqa: E731
    not_in_indicate = lambda proc, span: proc.parent_name(span) != "core.indicate_batch"  # noqa: E731
    ingest_attempt = lambda proc, span: proc.parent_name(span) == "registry.ingest"  # noqa: E731

    out: dict[str, float] = {}
    out["protocol.parse_request_s"] = pool.mean_s("protocol.parse_request", where=in_request)
    out["protocol.encode_s"] = pool.mean_s("protocol.encode", where=in_request)
    for verb in ("estimate", "indicate", "ingest", "load", "restore"):
        out[f"registry.{verb}_s"] = pool.mean_s(f"registry.{verb}")
    out["core.estimate_batch_s"] = pool.mean_s("core.estimate_batch", where=not_in_indicate)
    out["core.indicate_batch_s"] = pool.mean_s("core.indicate_batch")
    ingests = pool.count("registry.ingest")
    attempts = pool.count("streaming.update_many", where=ingest_attempt)
    out["registry.ingest_attempts_per_op"] = attempts / ingests if ingests else 0.0
    out["core.sketch_s"] = pool.mean_s("core.sketch")

    out["wire.payload_size_bits_s"] = pool.mean_s("wire.payload_size_bits")
    out["wire.payload_size_bits_calls"] = float(pool.count("wire.payload_size_bits"))
    out["wire.dump_s"] = pool.mean_s("wire.dump")
    out["wire.dump_mb_per_s"] = pool.rate("wire.dump", scale=1e6)
    out["wire.load_s"] = pool.mean_s("wire.load")
    out["wire.load_mb_per_s"] = pool.rate("wire.load", scale=1e6)
    out["wire.container_extract_s"] = pool.mean_s("wire.container_extract")
    out["serialize.write_uints_s"] = pool.mean_s("serialize.write_uints")
    out["serialize.read_uints_s"] = pool.mean_s("serialize.read_uints")

    out["persistence.wal_append_s"] = pool.mean_s("persistence.wal_append")
    out["persistence.wal_appends"] = float(pool.count("persistence.wal_append"))
    _, wal_bytes = pool.total("persistence.wal_append")
    _, user_bytes = pool.total(
        "server.dispatch", where=lambda proc, span: span[TAG] in MUTATING_OPS
    )
    out["persistence.wal_bytes_per_user_byte"] = wal_bytes / user_bytes if user_bytes else 0.0
    # No workload reaches a compaction (every 256 mutating requests), so
    # only the per-request check is measured.
    out["persistence.maybe_compact_calls"] = float(pool.count("persistence.maybe_compact"))
    # Only recoveries that replayed something: an empty data directory
    # recovers in microseconds and belongs to set-up, not to recovery.
    out["persistence.recover_s"] = pool.mean_s(
        "persistence.recover", where=lambda proc, span: span[SIZE] > 0
    )

    out["streaming.update_many_s"] = pool.mean_s("streaming.update_many")
    out["streaming.update_many_items_per_s"] = pool.rate("streaming.update_many")
    out["streaming.merge_s"] = pool.mean_s("streaming.merge")
    return out


def span_counts(pool: Pool) -> dict[str, dict[str, int]]:
    """Outermost spans per name, per process role, so a pooled metric can be split."""
    out: dict[str, dict[str, int]] = {}
    for proc in pool.processes:
        counts = out.setdefault(proc.role, {})
        for name in sorted({s[NAME] for s in proc.spans}):
            counts[name] = counts.get(name, 0) + len(proc.outermost(name))
    return out


def read_dispatch_spans(pool: Pool) -> list[tuple]:
    """ESTIMATE/INDICATE request spans of the daemon, in arrival order."""
    spans = pool.select(
        "server.dispatch", roles={"daemon"}, where=lambda proc, span: span[TAG] in READ_OPS
    )
    return sorted(spans, key=lambda s: s[T0])


def request_split_ms(pool: Pool, role: str, op: int) -> dict[str, float]:
    """Mean milliseconds per request of opcode ``op``, per span name inside it.

    Spans nested in a same-name span are not counted twice.
    """
    totals: dict[str, float] = defaultdict(float)
    requests = 0
    for proc in pool.processes:
        if proc.role != role:
            continue
        roots = {
            s[SID] for s in proc.spans if s[NAME] == "server.dispatch" and s[TAG] == op
        }
        requests += len(roots)
        for name in {s[NAME] for s in proc.spans}:
            for span in proc.outermost(name):
                if span[ROOT] in roots:
                    totals[name] += span[T1] - span[T0]
    return {name: t / requests * 1e3 for name, t in totals.items()} if requests else {}
