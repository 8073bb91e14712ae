"""``stream_pipeline``: ``repro stream --out`` over a seeded Zipf u64 file.

Each repetition starts one ``repro stream`` process (through
``perfbench/launcher.py``, which marks the entry and exit of
``StreamPipeline.run`` and keeps the pipeline's own ``PipelineStats``):
count-min 4x65536, 131072-item micro-batches, 2 workers on the
``process`` backend, read through ``batches_from_binary``.  Per
repetition:

* set-up: from the spawn to ``StreamPipeline.run`` -- interpreter,
  imports and pipeline construction; the worker pool forks on the first
  batch, inside the measured phase;
* time per micro-batch (``op_ms``): the time inside
  ``StreamPipeline.run`` over the number of batches; the detail record
  also gives it as items per second;
* memory: the peak of the process tree (driver plus pool workers).

Repetitions fill the run length (at least :data:`MIN_REPEATS`); each
metric is the median over repetitions.
Correctness gate: every output file is byte-identical to the frame of a
one-shot ``update_many`` over the whole stream (count-min folds are
exact).  A traced run adds one single-worker pass of the same stream,
the single-threaded baseline.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
import tracing

STREAM_ITEMS = 1 << 20
UNIVERSE = 1 << 20
WIDTH, DEPTH = 65536, 4
BATCH_ITEMS = 131072
WORKERS = 2
MIN_REPEATS = 3


def stream_input(seed: int, count: int = STREAM_ITEMS) -> bytes:
    """The seeded Zipf item stream as raw little-endian u64."""
    items = harness.zipf_items(harness.child_rng(seed, 20), UNIVERSE, count)
    return items.astype("<u8").tobytes()


def summary_seed(seed: int) -> int:
    return int(harness.child_rng(seed, 21).integers(1 << 31))


def reference_frame(data: bytes, cms_seed: int) -> bytes:
    """The frame ``repro stream --out`` must write: one-shot ``update_many``."""
    from repro.streaming.count_min import CountMinSketch
    from repro.wire import dump_to

    ref = CountMinSketch(UNIVERSE, WIDTH, DEPTH, rng=cms_seed)
    ref.update_many(np.frombuffer(data, dtype="<u8").astype(np.int64))
    out = io.BytesIO()
    dump_to(ref, out)
    return out.getvalue()


def _one_pass(procs: harness.Processes, work: Path, tag: str, input_path: Path,
              cms_seed: int, workers: int, spans: Path | None) -> dict:
    out_path = work / f"out-{tag}.bin"
    marks_path = work / f"marks-{tag}.json"
    for path in (out_path, marks_path):
        path.unlink(missing_ok=True)
    argv = [sys.executable, "perfbench/launcher.py", "--marks", str(marks_path)]
    if spans is not None:
        argv += ["--spans", str(spans), "--role", "stream" if workers > 1 else "stream-1w"]
    argv += [
        "--", "stream", str(input_path), "--format", "u64", "--summary", "count-min",
        "--universe", str(UNIVERSE), "--width", str(WIDTH), "--depth", str(DEPTH),
        "--seed", str(cms_seed), "--max-batch-items", str(BATCH_ITEMS),
        "--workers", str(workers), "--backend", "process", "--out", str(out_path),
    ]
    spawned = time.monotonic()
    proc = procs.spawn(argv, stdout=subprocess.DEVNULL, log=work / "stream.log")
    peak = harness.TreePeak(proc.pid)
    deadline = spawned + 150
    while proc.poll() is None:
        peak.sample()
        if time.monotonic() > deadline:
            procs.kill(proc)
            raise harness.ChildFailed("repro stream did not finish in 150 s")
        time.sleep(0.02)
    procs.kill(proc)
    if proc.returncode != 0:
        raise harness.ChildFailed(f"repro stream exited {proc.returncode}")
    marks = json.loads(marks_path.read_text())
    run_s = marks["run_exit"] - marks["run_entry"]
    return {
        "setup_s": marks["run_entry"] - spawned,
        "run_s": run_s,
        "items_per_s": marks["stats"]["items"] / run_s,
        "batch_ms": run_s / marks["stats"]["batches"] * 1e3,
        "peak_rss_mb": peak.total_mb,
        "stats": marks["stats"],
        "workers": marks["workers"],
        "backend": marks["backend"],
        "output": out_path.read_bytes(),
    }


def run(seed: int, seconds: int, trace: bool) -> dict:
    work = harness.run_dir("stream_pipeline", seed)
    data = stream_input(seed)
    input_path = work / "input.u64"
    input_path.write_bytes(data)
    cms_seed = summary_seed(seed)
    want = reference_frame(data, cms_seed)
    procs = harness.Processes(harness.prepare_environment())
    reps: list[dict] = []
    baseline = None
    try:
        for i in harness.repetitions(seconds, MIN_REPEATS):
            spans = work / f"spans-{i}.json" if trace else None
            reps.append(_one_pass(procs, work, str(i), input_path, cms_seed, WORKERS, spans))
        if trace:
            baseline = _one_pass(procs, work, "1w", input_path, cms_seed, 1,
                                 work / "spans-1w.json")
    finally:
        procs.stop_all()

    mismatched = [i for i, r in enumerate(reps) if r["output"] != want]
    if baseline is not None and baseline["output"] != want:
        mismatched.append("single-worker")
    checks = (
        [f"output frames of passes {mismatched} differ from the one-shot update_many frame"]
        if mismatched else ["every output frame byte-identical to the one-shot frame"]
    )
    if any(r["workers"] != WORKERS or r["backend"] != "process" for r in reps):
        checks.append("pipeline did not run with 2 process workers")
    correct = not mismatched and len(checks) == 1
    out = {
        "correct": correct,
        "attempted": len(reps) + (baseline is not None),
        "failed": len(mismatched),
        "metrics": {
            "setup_s": harness.median([r["setup_s"] for r in reps]),
            "op_ms": harness.median([r["batch_ms"] for r in reps]),
            "peak_rss_mb": harness.median([r["peak_rss_mb"] for r in reps]),
        },
        "detail": {
            "checks": checks,
            "error_rate": len(mismatched) / (len(reps) + (baseline is not None)),
            "input_sha256": hashlib.sha256(data).hexdigest()[:16],
            "stream_items_per_s": harness.median([r["items_per_s"] for r in reps]),
            "passes": [{k: v for k, v in r.items() if k != "output"} for r in reps],
        },
    }
    if trace:
        out["per_layer"], out["detail"]["pipeline_split"] = _layers(work, reps, baseline)
        out["detail"]["single_worker_pass"] = {
            k: v for k, v in baseline.items() if k != "output"
        }
    return out


def _layers(work: Path, reps: list[dict], baseline: dict) -> tuple[dict, dict]:
    procs = [tracing.Spans.read(work / f"spans-{i}.json") for i in range(len(reps))]
    procs.append(tracing.Spans.read(work / "spans-1w.json"))
    pool = tracing.Pool(procs)
    layers = tracing.layer_metrics(pool)
    multi = {"stream"}
    batches = sum(r["stats"]["batches"] for r in reps)
    sketch_total = sum(r["stats"]["sketch_s"] for r in reps)
    decode_total, _ = pool.total("wire.load", roles=multi)
    fold_total, _ = pool.total("pipeline.fold", roles=multi)
    layers.update({
        "pipeline.feed_wait_s": sum(r["stats"]["feed_wait_s"] for r in reps) / batches,
        "pipeline.sketch_s": sketch_total / batches,
        "pipeline.partial_decode_s": pool.mean_s("wire.load", roles=multi),
        "pipeline.fold_s": pool.mean_s("pipeline.fold", roles=multi),
        "pipeline.worker_side_s": (sketch_total - decode_total - fold_total) / batches,
        "pipeline.max_queue_depth": float(max(r["stats"]["max_queue_depth"] for r in reps)),
        "pipeline.folds": float(reps[0]["stats"]["folds"]),
        "pipeline.single_worker_items_per_s": baseline["items_per_s"],
    })
    split = {
        "span_counts": tracing.span_counts(pool),
        "batches": batches,
        "sketch_s_per_batch": sketch_total / batches,
        "partial_decode_share_of_sketch": decode_total / sketch_total,
        "fold_share_of_sketch": fold_total / sketch_total,
        "worker_side_share_of_sketch": (sketch_total - decode_total - fold_total) / sketch_total,
    }
    return layers, split
