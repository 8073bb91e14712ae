"""Golden wire-format v1 fixtures: one frozen frame per codec.

Wire v1 is a compatibility promise -- every frame a v1 build committed
must decode bit-identically forever.  ``tests/fixtures/v1/`` pins that
promise to bytes on disk: one frame per registered codec, built from a
deterministic summary (fixed seeds, fixed parameters), plus a manifest.
The v1 *encoder* is retired -- this package writes wire v3 only -- so
the committed bytes can never be regenerated and are never rewritten.

Run it from the repo root:

* ``python tests/fixtures/generate_v1_fixtures.py --check`` -- the CI
  decode gate.  Every committed frame must match its manifest hash and
  decode to the seeded summary: same payload bits, header fields and
  params, and its v3 re-encode must equal the seeded summary's v3 frame.
  A failure means a v1 reader or a codec's canonical payload changed --
  a compatibility break, not a fixture refresh.

:func:`build_fixture_objects` is shared: the v2 and v3 fixture sets and
several test suites use the same seeded summaries.  ``tests/
test_wire_fixtures.py`` runs the same gate inside the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

FIXTURE_DIR = Path(__file__).resolve().parent / "v1"


def build_fixture_objects() -> dict[str, object]:
    """One deterministic summary per codec, keyed by codec name.

    Everything is seeded: the database, every sketcher draw, every
    stream, every summary's internal rng.  Parameters are chosen so the
    frames stay small (a few hundred bytes) but exercise non-trivial
    state (tracked counters, partial reservoirs, quantized answers).
    """
    from repro.core import (
        ImportanceSampleSketcher,
        ReleaseAnswersSketcher,
        ReleaseDbSketcher,
        SubsampleSketcher,
        Task,
    )
    from repro.db import random_database
    from repro.params import SketchParams
    from repro.streaming import (
        CountMinSketch,
        LossyCounting,
        MisraGries,
        ReservoirSample,
        RowReservoir,
        SpaceSaving,
        StickySampling,
        StreamingItemsetMiner,
    )

    db = random_database(48, 10, 0.35, rng=1234)
    params = SketchParams(n=48, d=10, k=2, epsilon=0.125, delta=0.1)
    stream = np.random.default_rng(99).integers(0, 60, size=400, dtype=np.int64)

    objects: dict[str, object] = {
        "release-db": ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(
            db, params, rng=1
        ),
        "release-answers": ReleaseAnswersSketcher(Task.FORALL_INDICATOR).sketch(
            db, params, rng=2
        ),
        "subsample": SubsampleSketcher(Task.FORALL_ESTIMATOR, sample_count=16).sketch(
            db, params, rng=3
        ),
        "importance-sample": ImportanceSampleSketcher(
            Task.FORALL_ESTIMATOR, sample_count=16
        ).sketch(db, params, rng=4),
    }

    cms = CountMinSketch(60, 16, 3, rng=5)
    cms.update_many(stream)
    objects["count-min"] = cms

    mg = MisraGries(60, 6)
    mg.update_many(stream)
    objects["misra-gries"] = mg

    ss = SpaceSaving(60, 6)
    ss.update_many(stream)
    objects["space-saving"] = ss

    lc = LossyCounting(60, 0.05)
    lc.update_many(stream)
    objects["lossy-counting"] = lc

    st = StickySampling(60, 0.05, 0.125, rng=6)
    st.update_many(stream)
    objects["sticky-sampling"] = st

    rs = ReservoirSample(60, 10, rng=7)
    rs.update_many(stream)
    objects["reservoir"] = rs

    rr = RowReservoir(10, 12, rng=8)
    rr.extend(db)
    objects["row-reservoir"] = rr

    miner = StreamingItemsetMiner(10, 0.05, 2)
    miner.extend(db)
    objects["itemset-miner"] = miner

    return objects


def decode_failures(committed: bytes, seeded: object) -> list[str]:
    """Why ``committed`` does not carry ``seeded`` (empty: it does).

    The frame must decode to exactly the seeded summary's payload bits,
    header fields and params, and re-encoding the decoded summary (as
    wire v3, the one writer) must equal the seeded summary's v3 frame.
    """
    from repro import wire

    frame = wire.decode_frame(committed)
    reference = wire.decode_frame(wire.dump(seeded))
    failures = []
    if frame.codec != reference.codec:
        failures.append(f"codec {frame.codec!r} != {reference.codec!r}")
    if (frame.n_bits, frame.payload) != (reference.n_bits, reference.payload):
        failures.append("payload bits differ from the seeded summary's")
    if frame.extras != reference.extras:
        failures.append(f"header fields {frame.extras} != {reference.extras}")
    if frame.params != reference.params:
        failures.append(f"params {frame.params} != {reference.params}")
    if wire.dump(wire.load(committed)) != wire.dump(seeded):
        failures.append("v3 re-encode differs from the seeded summary's")
    return failures


def check_committed(
    fixture_dir: Path, objects: dict[str, object], label: str
) -> int:
    """The decode gate over one read-only fixture set; exit status."""
    manifest_path = fixture_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"missing manifest {manifest_path}")
        return 1
    manifest = json.loads(manifest_path.read_text())
    failures = []
    if set(manifest) != set(objects):
        failures.append(
            f"fixture set drifted: manifest {sorted(manifest)} vs seeded "
            f"{sorted(objects)}"
        )
    for name, entry in sorted(manifest.items()):
        committed = (fixture_dir / entry["file"]).read_bytes()
        if hashlib.sha256(committed).hexdigest() != entry["sha256"]:
            failures.append(f"{name}: committed file disagrees with manifest hash")
            continue
        if name in objects:
            failures.extend(
                f"{name}: {reason}"
                for reason in decode_failures(committed, objects[name])
            )
    for failure in failures:
        print(f"FIXTURE DRIFT: {failure}")
    if not failures:
        print(f"{len(manifest)} {label} fixtures decode to their seeded summaries")
    return 1 if failures else 0


def check_fixtures() -> int:
    """Exit nonzero unless every committed v1 frame passes the gate."""
    return check_committed(FIXTURE_DIR, build_fixture_objects(), "v1")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed fixtures (the only mode: the v1 encoder "
             "is retired, so they are never rewritten)",
    )
    parser.parse_args(argv)
    return check_fixtures()


if __name__ == "__main__":
    raise SystemExit(main())
