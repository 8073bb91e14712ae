"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``), or
every per-layer metric (``--trace 1``, zero where the workload leaves a
layer idle).  A fuller record (environment, per-verb accounting,
generator lateness, samples) goes to standard error and to
``.perfbench_work/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("serve_read", "serve_mixed", "stream_pipeline", "fleet_cli")


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if name in ("serve_read", "serve_mixed"):
        import serve

        return serve.run(name, seed, seconds, trace)
    if name == "stream_pipeline":
        import stream

        return stream.run(seed, seconds, trace)
    import fleet

    return fleet.run(seed, seconds, trace)


def _overhead(workload: str, traced: dict, results: Path) -> dict:
    """Traced minus untraced end-to-end medians, from this checkout's results."""
    untraced: dict[str, list[float]] = {}
    for path in results.glob(f"{workload}-seed*-trace0.json"):
        for name, value in json.loads(path.read_text())["metrics"].items():
            untraced.setdefault(name, []).append(value["value"])
    out = {}
    for name, value in traced.items():
        if untraced.get(name):
            base = harness.median(untraced[name])
            out[name] = {
                "traced": value,
                "untraced_median": base,
                "untraced_runs": len(untraced[name]),
                "overhead_share": (value - base) / base if base else None,
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = harness.checkout_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {root / 'src' / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    end_to_end_names = [m["name"] for m in spec["end_to_end"]]

    began = time.monotonic()
    harness.prepare_environment()
    env = harness.environment_record(args.workload, args.seed, args.seconds, bool(args.trace))
    import selftest

    selftest.run_all()
    try:
        result = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        harness.clean_run_dir(harness.work_dir() / f"{args.workload}-{args.seed}")

    results = harness.work_dir() / "results"
    results.mkdir(exist_ok=True)
    if args.trace:
        layers = result["per_layer"]
        metrics = {name: harness.metric(layers.get(name, 0.0), units[name]) for name in layer_names}
        extra_layers = sorted(set(layers) - set(layer_names))
        if extra_layers:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {extra_layers}")
        result["detail"]["tracing_overhead"] = _overhead(
            args.workload, result["metrics"], results
        )
    else:
        if set(result["metrics"]) != set(end_to_end_names):
            raise KeyError(f"{args.workload} measured {sorted(result['metrics'])}, "
                           f"BENCHMARK.json lists {end_to_end_names}")
        metrics = {name: harness.metric(result["metrics"][name], units[name])
                   for name in end_to_end_names}
    record = {
        "environment": env,
        "wall_s": time.monotonic() - began,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": result["metrics"],
        "metrics": metrics,
        "detail": result["detail"],
    }
    harness.write_json(
        results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record
    )
    print(json.dumps(record, default=str, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
