"""``serve_read`` and ``serve_mixed``: a durable ``repro serve`` daemon
under an open-loop socket load.

The daemon is a subprocess (``python -m repro serve --data-dir``, or
``perfbench/launcher.py`` when traced).  Set-up -- spawn, recovery of
an empty data directory, and the preload by LOAD of a SUBSAMPLE sketch
and a 4x65536 count-min summary -- is timed from the spawn to the
second LOAD acknowledgement, three times per run.  The third daemon
then serves the measured window:

* one reader connection on a Poisson schedule (:data:`READ_RATE`,
  with a dead time of :data:`READ_DEAD_TIME`),
  cycling ESTIMATE of 64 3-itemsets, INDICATE of the same 64, and
  ESTIMATE of 64 singletons on the count-min summary;
* ``serve_mixed`` only: one writer connection on its own Poisson
  schedule at :data:`INGEST_RATE`, each request an INGEST of a
  131072-item Zipf batch into the count-min summary (WAL fsync on),
  at least :data:`INGEST_DEAD_TIME` apart.

Correctness gate: every reply on the sketch is bit-identical to the same
frame answered in this process; every count-min reply equals the
reference after some prefix of the acknowledged batches that the
request could have seen; and the count-min state that the program's
own recovery rebuilds from the daemon's data directory after the drain
serializes to exactly the frame of a local reference built from every
acknowledged batch in acknowledgement order.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import harness
import loadgen
import tracing

#: Reader arrivals per second.  serve_read runs the daemon ~45% busy:
#: at 100/s its CPU idles between reads, and on a virtual machine the
#: wake-up from idle then sets the latency (median spread 0.27 over ten
#: seeds, against ~0.1 at 400/s).  serve_mixed keeps 100/s so that the
#: daemon stays about half busy with the writer on.
READ_RATE = {"serve_read": 400.0, "serve_mixed": 100.0}

#: Minimum gap between two reads, nearly twice one seed read (~1.1 ms
#: of daemon time), so reads do not queue behind reads: without it, at
#: 400/s the read median carried Poisson queueing, which magnified every
#: slow spell of the host (spread 0.45 over five seeds).
READ_DEAD_TIME = 0.002

#: Writer INGEST arrivals per second (serve_mixed).  At the seed commit
#: one INGEST costs ~118 ms of daemon time, so together with the reads
#: the daemon is ~40% busy: low enough that the read tail is the stall
#: of one write, not a queue of them, and steady from run to run.  The
#: detail record's INGEST tail is p80, the highest percentile with 10
#: samples beyond it once a window holds 50 INGESTs (20 s).
INGEST_RATE = 2.5

#: Minimum gap between two INGESTs, more than twice one seed INGEST, so
#: writes cannot queue behind writes even while the host runs slow.
INGEST_DEAD_TIME = 0.3

#: Items per INGEST batch.
INGEST_ITEMS = 131072

#: Daemon set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Untimed requests of each kind sent before the measured window.
WARM_UP_REPEATS = 2

#: Query shape.
DB_ROWS, DB_ATTRS, QUERY_K, EPSILON, DELTA = 20000, 64, 3, 0.05, 0.1
QUERY_ITEMSETS = 64
CMS_UNIVERSE, CMS_WIDTH, CMS_DEPTH = 1 << 20, 65536, 4
CMS_PREFILL = 1 << 20

SUB, CMS = "sub", "cms"


class Inputs:
    """Everything generated from the seed, before any timing."""

    def __init__(self, seed: int, seconds: float, workload: str) -> None:
        from repro.db import Itemset
        from repro.db.generators import market_basket_database
        from repro.params import SketchParams
        from repro.server import protocol
        from repro.streaming.count_min import CountMinSketch
        from repro.wire import dump

        self.seed = seed
        self.db = market_basket_database(
            DB_ROWS, DB_ATTRS, n_patterns=20, rng=harness.child_rng(seed, 1)
        )
        self.params = SketchParams(
            n=self.db.n, d=self.db.d, k=QUERY_K, epsilon=EPSILON, delta=DELTA
        )
        rng = harness.child_rng(seed, 2)
        self.itemsets = [
            Itemset(sorted(rng.choice(DB_ATTRS, QUERY_K, replace=False).tolist()))
            for _ in range(QUERY_ITEMSETS)
        ]
        cms = CountMinSketch(
            CMS_UNIVERSE, CMS_WIDTH, CMS_DEPTH, rng=int(harness.child_rng(seed, 3).integers(1 << 31))
        )
        cms.update_many(harness.zipf_items(harness.child_rng(seed, 4), CMS_UNIVERSE, CMS_PREFILL))
        self.cms_frame = dump(cms)
        singles = harness.zipf_items(harness.child_rng(seed, 5), CMS_UNIVERSE, QUERY_ITEMSETS)
        self.singles = [int(i) for i in singles]

        read_bodies = {
            "estimate": protocol.encode_request(protocol.OP_ESTIMATE, name=SUB, itemsets=self.itemsets),
            "indicate": protocol.encode_request(protocol.OP_INDICATE, name=SUB, itemsets=self.itemsets),
            "estimate_cms": protocol.encode_request(
                protocol.OP_ESTIMATE, name=CMS, itemsets=[Itemset([i]) for i in self.singles]
            ),
        }
        cycle = ("estimate", "indicate", "estimate_cms")
        offsets = harness.poisson_schedule(
            harness.child_rng(seed, 10), READ_RATE[workload], seconds, READ_DEAD_TIME
        )
        verbs = [cycle[i % 3] for i in range(len(offsets))]
        self.reads = loadgen.Schedule(
            offsets, verbs, [loadgen.frame(read_bodies[v]) for v in verbs]
        )
        self.warm_bodies = [read_bodies[v] for v in cycle for _ in range(WARM_UP_REPEATS)]
        self.warm_batches: list[np.ndarray] = []
        self.batches: list[np.ndarray] = []
        self.writes = None
        if workload == "serve_mixed":
            offsets = harness.poisson_schedule(
                harness.child_rng(seed, 11), INGEST_RATE, seconds, INGEST_DEAD_TIME
            )
            count = WARM_UP_REPEATS + len(offsets)
            items = harness.zipf_items(harness.child_rng(seed, 12), CMS_UNIVERSE, INGEST_ITEMS * count)
            batches = [items[i * INGEST_ITEMS:(i + 1) * INGEST_ITEMS] for i in range(count)]
            self.warm_batches = batches[:WARM_UP_REPEATS]
            self.batches = batches[WARM_UP_REPEATS:]
            self.warm_bodies += [
                protocol.encode_request(protocol.OP_INGEST, name=CMS, items=b)
                for b in self.warm_batches
            ]
            self.writes = loadgen.Schedule(
                offsets,
                ["ingest"] * len(offsets),
                [loadgen.frame(protocol.encode_request(protocol.OP_INGEST, name=CMS, items=b))
                 for b in self.batches],
            )

    def sketch_frame(self) -> bytes:
        """The S party: sketch the database and serialize the sketch."""
        from repro.core import SubsampleSketcher, Task
        from repro.wire import dump

        sketcher = SubsampleSketcher(Task.FORALL_ESTIMATOR)
        return dump(sketcher.sketch(self.db, self.params, rng=self.seed))


@dataclass
class Daemon:
    proc: subprocess.Popen
    host: str
    port: int
    data_dir: Path
    setup_s: float


def start_daemon(procs: harness.Processes, work: Path, tag: str, inputs: Inputs,
                 spans: Path | None) -> Daemon:
    """Spawn, recover (empty dir), preload; timed until the last LOAD ack."""
    from repro.server import protocol

    data_dir = work / f"data-{tag}"
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--data-dir", str(data_dir)]
    if spans is None:
        argv = [sys.executable, "-m", "repro", *serve]
    else:
        argv = [sys.executable, "perfbench/launcher.py", "--spans", str(spans),
                "--role", "daemon", "--", *serve]
    began = time.monotonic()
    proc = procs.spawn(argv, stdout=subprocess.PIPE, log=work / "daemon.log")
    host, port = harness.serving_address(harness.wait_for_line(proc, "serving on"))
    sub_frame = inputs.sketch_frame()
    with loadgen.connect(host, port) as sock:
        for name, frame in ((SUB, sub_frame), (CMS, inputs.cms_frame)):
            reply = loadgen.call(sock, protocol.encode_request(protocol.OP_LOAD, name=name, frame=frame))
            protocol.parse_load_ok(reply)
    return Daemon(proc, host, port, data_dir, time.monotonic() - began)


def warm_up(daemon: Daemon, inputs: Inputs) -> float:
    """Untimed requests of every kind, so no first-call cost lands in the window.

    Returns the time the warm-up ended.
    """
    with loadgen.connect(daemon.host, daemon.port) as sock:
        for body in inputs.warm_bodies:
            reply = loadgen.call(sock, body)
            if reply[:1] != bytes([loadgen.STATUS_OK]):
                raise harness.ChildFailed(f"warm-up request failed: {reply[:80]!r}")
    return time.monotonic()


def stop_daemon(procs: harness.Processes, daemon: Daemon) -> None:
    """Graceful drain (SIGTERM); a daemon that does not exit is a failure."""
    code = procs.kill(daemon.proc, signal.SIGTERM, timeout=60)
    if code != 0:
        raise harness.ChildFailed(f"daemon exited {code} on SIGTERM")


def _estimates(reply: bytes) -> np.ndarray:
    from repro.server import protocol

    return np.array(protocol.parse_estimates(reply), dtype=np.float64)


def _indicators(reply: bytes) -> np.ndarray:
    from repro.server import protocol

    return np.array(protocol.parse_indicators(reply), dtype=bool)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


def durable_state(data_dir: Path, name: str):
    """``name`` as the daemon's snapshot and write-ahead log recover it."""
    from repro.server.persistence import PersistentStore
    from repro.server.registry import SketchRegistry

    registry = SketchRegistry()
    store = PersistentStore(data_dir, sync=False)
    try:
        store.recover(registry)
        entries, _ = registry.dump_for_snapshot()
    finally:
        store.close()
    return dict(entries).get(name)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from repro.wire import dump, load

    writer = workload == "serve_mixed"
    work = harness.run_dir(workload, seed)
    inputs = Inputs(seed, seconds, workload)
    procs = harness.Processes(harness.prepare_environment())
    recorder = None
    if trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    spans_path = work / "daemon-spans.json" if trace else None
    checks: list[str] = []
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            daemon = start_daemon(procs, work, str(i), inputs, spans_path)
            setups.append(daemon.setup_s)
            if i < SETUP_REPEATS - 1:
                stop_daemon(procs, daemon)
        warm_end = warm_up(daemon, inputs)
        schedules = [inputs.reads] + ([inputs.writes] if writer else [])
        cpu_before = harness.cpu_seconds(daemon.proc.pid)
        results, _ = loadgen.run_open_loop(daemon.host, daemon.port, schedules)
        daemon_cpu_s = harness.cpu_seconds(daemon.proc.pid) - cpu_before
        peak_mb = harness.hwm_mb(daemon.proc.pid)
        stop_daemon(procs, daemon)
        state = durable_state(daemon.data_dir, CMS) if writer else None
    finally:
        procs.stop_all()

    np.savez(
        work / "samples.npz",
        **{f"{label}_{field}": getattr(res, field)
           for label, res in zip(("reader", "writer"), results)
           for field in ("due", "noticed", "sent", "received")},
    )
    reads = results[0]
    miss_s = float(seconds)
    read_lat_ms = reads.latencies(miss_s) * 1e3
    out = {
        "metrics": {
            "setup_s": harness.median(setups),
            "peak_rss_mb": peak_mb,
        },
        "detail": {
            "reads": {
                "count": len(read_lat_ms),
                "p50_ms": harness.percentile(read_lat_ms, 50),
                "p90_ms": harness.percentile(read_lat_ms, 90),
                "p99_ms": harness.tail(read_lat_ms, 99),
            },
            "setup_samples_s": setups,
            "daemon_cpu_share": daemon_cpu_s / seconds,
            "verbs": {},
            "generator": {},
        },
    }
    all_results = [("reader", reads)] + ([("writer", results[1])] if writer else [])
    attempted = failed = 0
    for label, res in all_results:
        ok = res.ok
        attempted += len(ok)
        failed += int((~ok).sum())
        for verb in sorted(set(res.verbs)):
            mask = np.array([v == verb for v in res.verbs])
            out["detail"]["verbs"][verb] = {
                "attempted": int(mask.sum()),
                "succeeded": int((ok & mask).sum()),
                "failed": int((~ok & mask).sum()),
            }
        lag_ms = res.lag * 1e3
        block_ms = (res.sent - res.noticed) * 1e3
        out["detail"]["generator"][label] = {
            "lag_p50_ms": float(np.nanpercentile(lag_ms, 50)),
            "lag_p99_ms": float(np.nanpercentile(lag_ms, 99)),
            "lag_max_ms": float(np.nanmax(lag_ms)),
            "send_blocked_p99_ms": float(np.nanpercentile(block_ms, 99)),
            "connection_error": res.error,
        }
    out["attempted"], out["failed"] = attempted, failed
    out["detail"]["error_rate"] = failed / attempted

    # -- correctness ------------------------------------------------------
    sub_obj = load(inputs.sketch_frame())
    want_est = np.asarray(sub_obj.estimate_batch(inputs.itemsets), dtype=np.float64)
    want_ind = np.asarray(sub_obj.indicate_batch(inputs.itemsets), dtype=bool)
    cms_ref = load(inputs.cms_frame)
    for batch in inputs.warm_batches:
        cms_ref.update_many(batch)
    singles = inputs.singles

    def cms_answers(obj) -> np.ndarray:
        return np.array([obj.estimate_frequency(i) for i in singles], dtype=np.float64)

    prefix_rows = [cms_answers(cms_ref)]
    acked = []
    if not writer:
        out["metrics"]["op_ms"] = out["detail"]["reads"]["p50_ms"]
    if writer:
        # The operation is the INGEST.  The read tail is the write stall,
        # but it spreads more than its bound between runs, and the read
        # median sits at the stall's edge (1.4 ms to 15 ms between runs
        # minutes apart); both are in the detail record (see README.md).
        writes = results[1]
        wok = writes.ok
        ingest_lat_ms = writes.latencies(miss_s) * 1e3
        out["metrics"]["op_ms"] = harness.percentile(ingest_lat_ms, 50)
        out["detail"]["ingests"] = {
            "count": len(ingest_lat_ms),
            "p50_ms": out["metrics"]["op_ms"],
            "p80_ms": harness.tail(ingest_lat_ms, 80),
        }
        acked = [i for i in range(len(wok)) if wok[i]]
        for i in acked:
            cms_ref.update_many(inputs.batches[i])
            prefix_rows.append(cms_answers(cms_ref))
        ack_times = np.sort(writes.received[wok])
        sent_times = np.sort(writes.noticed[wok])
        if state is None or dump(state) != dump(cms_ref):
            checks.append("durable count-min frame differs from the acknowledged-batch reference")
    bad = 0
    for j, verb in enumerate(reads.verbs):
        reply = reads.replies[j]
        if reply is None or reply[0] != loadgen.STATUS_OK:
            continue
        if verb == "estimate":
            good = _same_bits(_estimates(reply), want_est)
        elif verb == "indicate":
            good = bool(np.array_equal(_indicators(reply), want_ind))
        else:
            got = _estimates(reply)
            if writer:
                lo = int(np.searchsorted(ack_times, reads.noticed[j], side="left"))
                hi = int(np.searchsorted(sent_times, reads.received[j], side="left"))
                good = any(_same_bits(got, prefix_rows[k]) for k in range(lo, hi + 1))
            else:
                good = _same_bits(got, prefix_rows[0])
        bad += not good
    if bad:
        checks.append(f"{bad} read replies differ from the in-process answers")
    out["correct"] = not checks
    out["detail"]["checks"] = checks or ["all replies bit-identical to in-process answers"]

    if trace:
        # The S party runs in this process; every other layer metric is
        # the daemon's alone, not the reference answers and replay above.
        pool = tracing.Pool([
            tracing.Spans.read(spans_path),
            tracing.Spans("bench", [s for s in recorder.spans if s[tracing.NAME] == "core.sketch"]),
        ])
        layers = tracing.layer_metrics(pool)
        out["detail"]["span_counts"] = tracing.span_counts(pool)
        dispatch = [s for s in tracing.read_dispatch_spans(pool) if s[tracing.T0] > warm_end]
        lat_s = reads.received - reads.due
        if len(dispatch) == len(lat_s):
            wait_ms = (lat_s - np.array([s[tracing.T1] - s[tracing.T0] for s in dispatch])) * 1e3
            layers["server.loop_wait_ms"] = harness.percentile(wait_ms, 99)
            layers["server.loop_wait_p50_ms"] = harness.percentile(wait_ms, 50)
        else:
            out["detail"]["trace_note"] = f"{len(dispatch)} read spans for {len(lat_s)} reads"
        lag = np.concatenate([r.lag for _, r in all_results]) * 1e3
        layers["loadgen.lag_p99_ms"] = float(np.nanpercentile(lag, 99))
        out["per_layer"] = layers
        if writer:
            split = tracing.request_split_ms(pool, "daemon", op=8)
            out["detail"]["ingest_split_ms"] = split
            if split.get("registry.ingest"):
                out["detail"]["payload_size_bits_share_of_ingest"] = (
                    split.get("wire.payload_size_bits", 0.0) / split["registry.ingest"]
                )
    return out
