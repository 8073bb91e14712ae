"""``fleet_cli``: the operator path, every step a ``repro`` CLI process.

Once per run (timed, reported as detail only): ``repro sketch`` of a
seeded basket file, and ``repro pack`` of 64 named shard files --
count-min, Misra-Gries and SpaceSaving in turn, generated here from the
seed -- plus that sketch (shard ``sub``) into one wire-v3 container.
Then:

1. ``repro serve --data-dir`` on an empty directory, :data:`SETUP_REPEATS`
   times: ``setup_s`` is the median time from the spawn to the "serving
   on" line;
2. ``repro push`` of the container to the last of these daemons (one
   LOAD_MANY session): ``push_s``, reported in the detail record only --
   its 65 acknowledged round trips make it swing with the host's
   wake-up latency;
3. answers of every resident entry are read over a socket; then, until
   the run length is filled (at least :data:`MIN_RESTARTS` times), the
   daemon is SIGKILLed and restarted on the same directory, so it
   replays the same write-ahead log: ``op_ms`` is the median time from
   the restart spawn to the first correct answer;
4. ``repro query sub --connect`` on the last recovered daemon and
   ``repro query FILE`` on the sketch file; ``query_cli_s`` (detail
   record) is the median wall time of these processes.

``peak_rss_mb`` is the median VmHWM of the daemons that held the fleet.
Correctness gate: after every recovery each entry answers exactly as before
the kill, and the two ``repro query`` lines report the same answer.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness
import loadgen
import tracing

#: Shard shape.  The count-min shards are large enough (0.5 MB frames)
#: that decoding and sizing them -- the daemon's work per LOAD_MANY
#: chunk and per replayed record -- outweighs the per-chunk round trip,
#: whose wake-up latency on a virtual machine varies with the host.
SHARDS = 64
SHARD_ITEMS = 1 << 14
SHARD_UNIVERSE = 1 << 16
CMS_WIDTH, CMS_DEPTH, COUNTERS = 16384, 4, 256
BASKET_ROWS, BASKET_ATTRS = 5000, 64
QUERY_ITEMS = 8
SETUP_REPEATS = 3
MIN_RESTARTS = 4
IMPORT_PROBES = 3


def shard_frames(seed: int, shards: int = SHARDS, items: int = SHARD_ITEMS) -> list[tuple[str, bytes]]:
    """``(name, frame)`` for each shard: count-min, Misra-Gries, SpaceSaving in turn."""
    from repro.streaming.count_min import CountMinSketch
    from repro.streaming.misra_gries import MisraGries
    from repro.streaming.space_saving import SpaceSaving
    from repro.wire import dump

    cms_seed = int(harness.child_rng(seed, 30).integers(1 << 31))
    frames = []
    for i in range(shards):
        kind = i % 3
        if kind == 0:
            summary = CountMinSketch(SHARD_UNIVERSE, CMS_WIDTH, CMS_DEPTH, rng=cms_seed)
        elif kind == 1:
            summary = MisraGries(SHARD_UNIVERSE, COUNTERS)
        else:
            summary = SpaceSaving(SHARD_UNIVERSE, COUNTERS)
        summary.update_many(harness.zipf_items(harness.child_rng(seed, 31, i), SHARD_UNIVERSE, items))
        frames.append((f"shard-{i:02d}", dump(summary)))
    return frames


def basket_text(seed: int, rows: int = BASKET_ROWS) -> str:
    """A seeded market-basket transaction file, one basket per line."""
    import numpy as np

    from repro.db.generators import market_basket_database

    db = market_basket_database(rows, BASKET_ATTRS, n_patterns=20, rng=harness.child_rng(seed, 32))
    return "".join(" ".join(map(str, np.flatnonzero(row))) + "\n" for row in db.rows)


class Cli:
    """Runs ``repro`` commands, through the launcher when traced."""

    def __init__(self, procs: harness.Processes, work: Path, trace: bool) -> None:
        self.procs, self.work, self.trace = procs, work, trace
        self.span_files: list[Path] = []

    def argv(self, role: str, args: list[str]) -> tuple[list[str], Path | None]:
        if not self.trace:
            return [sys.executable, "-m", "repro", *args], None
        spans = self.work / f"spans-{len(self.span_files)}-{role}.json"
        self.span_files.append(spans)
        return [sys.executable, "perfbench/launcher.py", "--spans", str(spans),
                "--role", role, "--", *args], spans

    def run(self, role: str, args: list[str]) -> tuple[float, str]:
        return self.procs.run(self.argv(role, args)[0])

    def spawn_daemon(self, data_dir: Path):
        """Spawn ``repro serve``: process, host, port, spawn time, span file."""
        argv, spans = self.argv("daemon", ["serve", "--host", "127.0.0.1", "--port", "0",
                                           "--data-dir", str(data_dir)])
        spawned = time.monotonic()
        proc = self.procs.spawn(argv, stdout=subprocess.PIPE, log=self.work / "daemon.log")
        host, port = harness.serving_address(harness.wait_for_line(proc, "serving on"))
        return proc, host, port, spawned, spans


def _answers(host: str, port: int, names: list[str], bodies: dict[str, list[bytes]]) -> dict[str, list[bytes]]:
    with loadgen.connect(host, port) as sock:
        return {name: [loadgen.call(sock, body) for body in bodies[name]] for name in names}


def _answer_text(line: str) -> str | None:
    """Bits and answers of a ``repro query`` line (its sketch label differs by source)."""
    match = re.search(r"(\d+) bits\): (estimate\[.*)", line)
    return None if match is None else f"{match[1]} bits: {match[2]}"


def _flush_spans(proc: subprocess.Popen, path: Path) -> None:
    """Ask a traced daemon to write its spans before it is killed."""
    before = path.stat().st_mtime_ns if path.exists() else None
    os.kill(proc.pid, signal.SIGUSR1)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if path.exists() and path.stat().st_mtime_ns != before:
            return
        time.sleep(0.01)
    raise harness.ChildFailed("daemon did not write its spans on SIGUSR1")


def run(seed: int, seconds: int, trace: bool) -> dict:
    from repro.db import Itemset
    from repro.server import protocol

    work = harness.run_dir("fleet_cli", seed)
    shard_dir = work / "shards"
    shard_dir.mkdir()
    frames = shard_frames(seed)
    digest = hashlib.sha256()
    for name, frame in frames:
        (shard_dir / f"{name}.bin").write_bytes(frame)
        digest.update(frame)
    baskets = work / "baskets.txt"
    baskets.write_text(basket_text(seed))
    digest.update(baskets.read_bytes())
    rng = harness.child_rng(seed, 33)
    probe_items = [int(i) for i in rng.choice(SHARD_UNIVERSE, QUERY_ITEMS, replace=False)]
    query_itemset = sorted(int(i) for i in rng.choice(BASKET_ATTRS, 3, replace=False))
    names = [name for name, _ in frames] + ["sub"]
    bodies = {
        name: [protocol.encode_request(
            protocol.OP_ESTIMATE, name=name, itemsets=[Itemset([i]) for i in probe_items])]
        for name, _ in frames
    }
    bodies["sub"] = [
        protocol.encode_request(op, name="sub", itemsets=[Itemset(query_itemset)])
        for op in (protocol.OP_ESTIMATE, protocol.OP_INDICATE)
    ]

    procs = harness.Processes(harness.prepare_environment())
    cli = Cli(procs, work, trace)
    container = work / "fleet.ifsk"
    sub_file = work / "sub.bin"
    detail: dict = {"input_sha256": digest.hexdigest()[:16]}
    checks: list[str] = []
    attempted = failed = 0
    import_s: list[float] = []
    try:
        detail["sketch_cli_s"], _ = cli.run("sketch", [
            "sketch", str(baskets), "--out", str(sub_file), "--sketcher", "subsample",
            "--task", "for-all-estimator", "--k", "3", "--eps", "0.05", "--seed", str(seed)])
        detail["pack_s"], packed = cli.run("pack", [
            "pack", *[str(shard_dir / f"{name}.bin") for name, _ in frames], str(sub_file),
            "--out", str(container)])
        if f"container of {len(names)} shards" not in packed:
            checks.append("repro pack did not report the whole fleet")
        fleet, problems = _fleet(cli, work, seconds, container, sub_file,
                                 names, bodies, query_itemset)
        detail.update(fleet)
        attempted += fleet["operations"]
        failed += len(problems)
        checks.extend(problems)
        if trace:
            for _ in range(IMPORT_PROBES):
                _, out = procs.run([sys.executable, "-c",
                                    "import time; t = time.monotonic(); import repro.cli; "
                                    "print(time.monotonic() - t)"])
                import_s.append(float(out))
    finally:
        procs.stop_all()

    out = {
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": harness.median(detail["setup_samples_s"]),
            "op_ms": harness.median(detail["recover_samples_s"]) * 1e3,
            "peak_rss_mb": harness.median(detail["peak_rss_samples_mb"]),
        },
        "detail": detail,
    }
    detail["query_cli_s"] = harness.median(detail["query_cli_samples_s"])
    detail["checks"] = checks or ["recovered answers equal pre-kill answers; query lines agree"]
    detail["error_rate"] = failed / attempted if attempted else 0.0
    if trace:
        pool = tracing.Pool([tracing.Spans.read(p) for p in cli.span_files if p.exists()])
        layers = tracing.layer_metrics(pool)
        detail["span_counts"] = tracing.span_counts(pool)
        layers["cli.import_s"] = harness.median(import_s)
        out["per_layer"] = layers
        detail["cli_import_samples_s"] = import_s
    return out


def _fleet(cli: Cli, work: Path, seconds: int, container: Path, sub_file: Path,
           names: list[str], bodies: dict, query_itemset: list[int]) -> tuple[dict, list[str]]:
    """Set-ups, one push, then SIGKILL and restart until the run length is filled."""
    problems: list[str] = []
    requests = sum(len(b) for b in bodies.values())
    setups = []
    for i in range(SETUP_REPEATS):
        data_dir = work / f"data-{i}"
        proc, host, port, spawned, spans = cli.spawn_daemon(data_dir)
        setups.append(time.monotonic() - spawned)
        if i < SETUP_REPEATS - 1:
            cli.procs.kill(proc, signal.SIGTERM, timeout=60)
            shutil.rmtree(data_dir)
    push_s, pushed = cli.run("push", ["push", str(container), "--connect", f"{host}:{port}"])
    if f"{len(names)} shards" not in pushed:
        problems.append("repro push did not load the whole fleet")
    before = _answers(host, port, names, bodies)
    rss = [harness.hwm_mb(proc.pid)]
    recoveries = []
    probe = names[SHARDS - 1]
    for _ in harness.repetitions(seconds, MIN_RESTARTS):
        if cli.trace:
            _flush_spans(proc, spans)
        cli.procs.kill(proc, signal.SIGKILL)
        proc, host, port, spawned, spans = cli.spawn_daemon(data_dir)
        deadline = spawned + 60
        with loadgen.connect(host, port) as sock:
            while loadgen.call(sock, bodies[probe][0]) != before[probe][0]:
                if time.monotonic() > deadline:
                    problems.append("recovered daemon never answered like the killed one")
                    break
        recoveries.append(time.monotonic() - spawned)
        after = _answers(host, port, names, bodies)
        differing = [name for name in names if after[name] != before[name]]
        if differing:
            problems.append(f"{len(differing)} entries answer differently after recovery")
        rss.append(harness.hwm_mb(proc.pid))
    label = [str(i) for i in query_itemset]
    q_connect_s, line_connect = cli.run("query", ["query", "sub", *label, "--connect", f"{host}:{port}"])
    q_file_s, line_file = cli.run("query", ["query", str(sub_file), *label])
    if _answer_text(line_connect) is None or _answer_text(line_connect) != _answer_text(line_file):
        problems.append(f"query lines differ: {line_connect.strip()!r} vs {line_file.strip()!r}")
    code = cli.procs.kill(proc, signal.SIGTERM, timeout=60)
    if code != 0:
        problems.append(f"restarted daemon exited {code} on SIGTERM")
    return {
        "setup_samples_s": setups,
        "push_s": push_s,
        "recover_samples_s": recoveries,
        "query_cli_samples_s": [q_connect_s, q_file_s],
        "peak_rss_samples_mb": [r for r in rss if r is not None],
        "operations": SETUP_REPEATS + 1 + requests + len(recoveries) * (2 + requests) + 2,
    }, problems
