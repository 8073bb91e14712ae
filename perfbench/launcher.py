"""Run one ``repro`` CLI command with the benchmark's probes installed.

    python perfbench/launcher.py [--spans FILE --role ROLE] [--marks FILE] -- ARGS...

``--spans`` installs :func:`tracing.install` before ``repro.cli.main``
and writes the spans to FILE when the command returns (for ``serve``:
after the graceful drain that SIGTERM starts) and whenever the process
receives SIGUSR1, so spans survive a later SIGKILL.  ``--marks`` records
only the entry and exit time of ``StreamPipeline.run`` and the
pipeline's own ``PipelineStats`` -- two clock reads per run, cheap
enough for untraced runs.  The times are ``time.monotonic()``, the
clock the benchmark process reads too.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def _install_marks(marks: dict) -> None:
    from repro.streaming.pipeline import StreamPipeline

    original = StreamPipeline.run

    def run(self, batches):
        marks["run_entry"] = time.monotonic()
        summary = original(self, batches)
        marks["run_exit"] = time.monotonic()
        stats = self.stats
        marks["stats"] = {
            "items": stats.items,
            "batches": stats.batches,
            "folds": stats.folds,
            "max_queue_depth": stats.max_queue_depth,
            "feed_wait_s": stats.feed_wait_s,
            "sketch_s": stats.sketch_s,
            "worker_restarts": stats.worker_restarts,
        }
        marks["workers"] = self.workers
        marks["backend"] = self.backend.name
        return summary

    StreamPipeline.run = run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--role", default="cli")
    parser.add_argument("--marks", type=Path, default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import repro.cli

    recorder = None
    if args.spans is not None:
        recorder = tracing.Recorder()
        tracing.install(recorder)
        signal.signal(
            signal.SIGUSR1,
            lambda signum, frame: recorder.dump(args.spans, args.role),
        )
    marks: dict = {}
    if args.marks is not None:
        _install_marks(marks)
    try:
        return repro.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.dump(args.spans, args.role)
        if args.marks is not None:
            args.marks.write_text(json.dumps(marks))


if __name__ == "__main__":
    sys.exit(main())
