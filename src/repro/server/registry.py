"""The resident sketch registry behind ``repro serve``.

A :class:`SketchRegistry` maps names to decoded sketches/summaries and
implements the server's verbs as plain (transport-free) methods, so the
same object can be unit-tested without a socket in sight.

Concurrency model
-----------------
Every merge rule in :mod:`repro.streaming.merge` returns a *new* object;
the registry exploits that for lock-light reads.  ``load`` decodes and
merges outside the lock and only swaps the entry reference while holding
it, so a query that grabbed the old entry keeps answering from the old,
fully-consistent summary while the swap happens -- answers always come
from a complete pre- or post-merge state, never a half-merged one.  If
decoding or merging fails, the registry is untouched.

Durability
----------
When a :class:`~repro.server.persistence.PersistentStore` is attached as
``registry.journal``, every mutation (``load`` / ``ingest`` / ``drop``)
is appended to the write-ahead log *inside* the swap lock and *before*
the new state is published, write-ahead in the strict sense: the log
order is exactly the application order, and if the append fails (disk
full, injected fault) the error propagates with the live registry
untouched -- the op is neither acknowledged, nor logged, nor applied.
The append fsyncs before returning, i.e. before the server can
acknowledge: an acknowledged mutation is a durable mutation.

Replay must be rng-free, but merge-on-collision and sampling summaries
consume rng draws the log cannot reproduce (wire codecs do not carry
rng state).  The journal therefore records *state* wherever randomness
was consumed: a collision ``load`` logs the post-merge frame and an
``ingest`` into a summary without
:attr:`~repro.streaming.base.StreamSummary.deterministic_updates` logs
the post-batch frame, both as ordinary LOAD records.  Recovery replays
LOAD records through :meth:`SketchRegistry.restore` (replace, never
merge), so recovery is deterministic and bit-identical at every prefix
-- snapshots included.
"""

from __future__ import annotations

import copy
import io
import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.base import FrequencySketch
from ..db.itemset import Itemset
from ..errors import ProtocolError
from ..params import SketchParams
from ..streaming.base import StreamSummary
from ..streaming.merge import merge_summaries
from ..db.generators import as_rng
from ..wire import codec_for, dump, load_from
from .protocol import DEFAULT_MAX_FRAME_BYTES, EntryInfo, StatInfo

__all__ = ["RegistryEntry", "SketchRegistry"]


@dataclass(frozen=True)
class RegistryEntry:
    """One resident sketch: the decoded object plus its frame metadata.

    Entries are immutable; ``load`` replaces the whole entry under the
    registry lock rather than mutating in place.
    """

    name: str
    obj: Any
    codec: str
    size_in_bits: int

    @property
    def params(self) -> SketchParams | None:
        if isinstance(self.obj, FrequencySketch):
            return self.obj.params
        return None


class SketchRegistry:
    """Thread-safe name -> sketch map implementing the server verbs.

    Parameters
    ----------
    rng:
        Randomness for merge rules that need it (reservoir merges);
        any :func:`~repro.utils.as_rng` input.
    max_frame_bytes:
        Budget handed to :func:`~repro.wire.load_from` when decoding a
        pushed frame, so a hostile LOAD cannot expand past the same cap
        the transport enforces.
    """

    def __init__(
        self,
        rng: np.random.Generator | int | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self._lock = threading.Lock()
        self._rng = as_rng(rng)
        self._max_frame_bytes = max_frame_bytes
        #: Optional durability hook (a PersistentStore); when set, every
        #: successful mutation is journaled under the swap lock.
        self.journal: Any | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def _get(self, name: str) -> RegistryEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ProtocolError(f"no sketch named {name!r} is loaded")
        return entry

    @staticmethod
    def _make_entry(name: str, obj: Any) -> RegistryEntry:
        # The charged size in closed form: size_in_bits() equals the
        # encoded payload's n_bits for every codec (the wire suite
        # asserts it), so no payload encode runs to learn it.
        return RegistryEntry(
            name=name,
            obj=obj,
            codec=codec_for(obj).name,
            size_in_bits=obj.size_in_bits(),
        )

    # -- verbs ----------------------------------------------------------
    def load(self, name: str, frame: bytes) -> tuple[str, int, bool]:
        """Decode ``frame`` and install it under ``name``.

        On a name collision the incoming object is folded into the
        resident one via :func:`~repro.streaming.merge.merge_summaries`
        and the merged result replaces the entry atomically.  Returns
        ``(codec, size_in_bits, merged)`` for the resident entry.

        Raises
        ------
        WireFormatError
            If the frame is malformed; the registry is unchanged.
        StreamError
            If the resident and incoming objects cannot merge; the
            resident entry is unchanged.
        """
        incoming = load_from(io.BytesIO(frame), max_bytes=self._max_frame_bytes)
        while True:
            with self._lock:
                existing = self._entries.get(name)
                if existing is None:
                    entry = self._make_entry(name, incoming)
                    if self.journal is not None:
                        # Write-ahead: a failed append propagates with
                        # the entry still unpublished, so live state
                        # always matches what was acknowledged.
                        self.journal.record_load(name, frame)
                    self._entries[name] = entry
                    return entry.codec, entry.size_in_bits, False
            # Merge outside the lock: merges allocate fresh objects, so
            # concurrent queries keep answering from `existing`.
            merged_obj = merge_summaries(existing.obj, incoming, rng=self._rng)
            entry = self._make_entry(name, merged_obj)
            # Journal the post-merge state, not the incoming shard: merge
            # rules may consume rng draws replay cannot reproduce, so the
            # log carries the result and recovery restores it verbatim.
            merged_frame = dump(merged_obj) if self.journal is not None else b""
            with self._lock:
                if self._entries.get(name) is existing:
                    if self.journal is not None:
                        self.journal.record_load(name, merged_frame)
                    self._entries[name] = entry
                    return entry.codec, entry.size_in_bits, True
                # Another LOAD swapped the entry mid-merge; redo the fold
                # against the new resident object.

    def ingest(self, name: str, items: np.ndarray) -> tuple[int, int]:
        """Absorb a batch of stream items into the resident summary.

        The streaming sibling of :meth:`load`'s collision fold, with the
        same consistency guarantee: the batch is applied to a *clone* of
        the resident summary outside the lock (concurrent ESTIMATEs keep
        answering from the old object) and the updated clone replaces the
        entry atomically.  A query therefore always observes a complete
        prefix-fold -- every acknowledged batch fully applied, no batch
        partially applied.  Returns ``(stream_length, size_in_bits)`` of
        the resident entry after the batch.

        Raises
        ------
        ProtocolError
            If no entry is resident under ``name`` or the entry is not a
            :class:`~repro.streaming.base.StreamSummary`.
        StreamError
            If an item falls outside the summary's universe; the batch is
            all-or-nothing and the resident entry is unchanged.
        """
        while True:
            entry = self._get(name)
            if not isinstance(entry.obj, StreamSummary):
                raise ProtocolError(
                    f"sketch {name!r} ({entry.codec}) does not ingest "
                    "stream items; INGEST needs a streaming summary"
                )
            updated = copy.deepcopy(entry.obj)
            updated.update_many(items)
            new_entry = self._make_entry(name, updated)
            # Sampling summaries consume rng state the wire format does
            # not carry, so an item-level replay could not reproduce this
            # batch; journal their post-batch state instead.
            state_frame = (
                dump(updated)
                if self.journal is not None and not updated.deterministic_updates
                else None
            )
            with self._lock:
                if self._entries.get(name) is entry:
                    if self.journal is not None:
                        if state_frame is not None:
                            self.journal.record_load(name, state_frame)
                        else:
                            self.journal.record_ingest(name, items)
                    self._entries[name] = new_entry
                    return updated.stream_length, new_entry.size_in_bits
                # A concurrent LOAD or INGEST swapped the entry mid-update;
                # reapply the batch to the new resident object.

    def estimate(self, name: str, itemsets: Sequence[Itemset]) -> list[float]:
        """Batched frequency estimates from the resident sketch.

        :class:`~repro.core.base.FrequencySketch` entries answer through
        :meth:`~repro.core.base.FrequencySketch.estimate_batch`;
        streaming summaries answer singleton itemsets through
        :meth:`~repro.streaming.base.StreamSummary.estimate_frequency`.
        """
        entry = self._get(name)
        obj = entry.obj
        if isinstance(obj, FrequencySketch):
            return [float(v) for v in obj.estimate_batch(list(itemsets))]
        if isinstance(obj, StreamSummary):
            items = self._singleton_items(itemsets)
            return [obj.estimate_frequency(item) for item in items]
        raise ProtocolError(
            f"sketch {name!r} ({entry.codec}) does not answer estimates"
        )

    def indicate(self, name: str, itemsets: Sequence[Itemset]) -> list[bool]:
        """Batched frequency indicators; FrequencySketch entries only."""
        entry = self._get(name)
        obj = entry.obj
        if isinstance(obj, FrequencySketch):
            return [bool(v) for v in obj.indicate_batch(list(itemsets))]
        raise ProtocolError(
            f"sketch {name!r} ({entry.codec}) has no indicator threshold; "
            "use ESTIMATE"
        )

    @staticmethod
    def _singleton_items(itemsets: Sequence[Itemset]) -> list[int]:
        items = []
        for itemset in itemsets:
            if len(itemset.items) != 1:
                raise ProtocolError(
                    f"streaming summaries answer singleton itemsets only, "
                    f"got {itemset!r}"
                )
            items.append(itemset.items[0])
        return items

    def stat(self, name: str) -> StatInfo:
        """Codec, charged size, and params for one resident sketch."""
        entry = self._get(name)
        return StatInfo(
            name=entry.name,
            codec=entry.codec,
            size_in_bits=entry.size_in_bits,
            params=entry.params,
        )

    def entries(self) -> list[EntryInfo]:
        """All resident entries, sorted by name."""
        with self._lock:
            snapshot = sorted(self._entries.values(), key=lambda e: e.name)
        return [
            EntryInfo(name=e.name, codec=e.codec, size_in_bits=e.size_in_bits)
            for e in snapshot
        ]

    def drop(self, name: str) -> None:
        """Remove one entry; :class:`ProtocolError` if absent."""
        with self._lock:
            if name not in self._entries:
                raise ProtocolError(f"no sketch named {name!r} is loaded")
            if self.journal is not None:
                # Write-ahead: if the append fails the entry stays
                # resident, matching the error the client receives.
                self.journal.record_drop(name)
            del self._entries[name]

    def restore(self, name: str, frame: bytes) -> None:
        """Install ``frame`` under ``name``, replacing any resident entry.

        The recovery path: snapshot entries and WAL LOAD records replay
        through here.  Never merged and never journaled -- the journal
        records the resident post-op frame for every randomness-consuming
        mutation, so replacing reproduces the live fold exactly without
        re-drawing any rng.
        """
        obj = load_from(io.BytesIO(frame), max_bytes=self._max_frame_bytes)
        entry = self._make_entry(name, obj)
        with self._lock:
            self._entries[name] = entry

    def dump_for_snapshot(self) -> tuple[list[tuple[str, Any]], int]:
        """``(name, summary)`` pairs plus the journal watermark, as one cut.

        The entry references and the journal's last sequence number are
        captured under the same lock that orders journal appends, so the
        snapshot describes *exactly* the state after op ``last_seq`` --
        no logged op is missing from it, none is double-counted.  The
        (slow) container encoding happens in the persistence layer,
        outside this lock; entries are immutable once resident (``load``
        and ``ingest`` swap whole entries, never mutate), so handing out
        the object references is safe.
        """
        with self._lock:
            snapshot = sorted(self._entries.values(), key=lambda e: e.name)
            last_seq = 0 if self.journal is None else self.journal.last_seq
        return [(e.name, e.obj) for e in snapshot], last_seq
