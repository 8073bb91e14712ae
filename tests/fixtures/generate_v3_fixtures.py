"""Golden wire-format v3 fixtures: the one writer, pinned byte for byte.

Wire v3 is the only layout this package writes.  A v3 record stores its
payload in whichever of three forms is smallest -- raw packed bytes, a
varint delta list of set-bit positions, or (with ``compress=True``) a
zlib stream -- so the writer's choice, and the pricing behind it, is part
of the format.  This script pins it to bytes on disk:

* ``<codec>.raw.ifsk``   -- a dense summary whose record stores raw bytes;
* ``<codec>.delta.ifsk`` -- a sparse summary whose record is delta-coded;
* ``<codec>.zlib.ifsk``  -- a redundant summary dumped with
  ``compress=True`` whose record is a zlib stream;
* ``release-db.delta-edge.ifsk`` / ``release-db.raw-tie.ifsk`` -- the
  pricing boundary: a 64-byte payload whose delta form is one byte
  shorter than raw (delta wins), and one where the two tie (raw wins);
* ``fleet.ifsk``         -- one multi-shard container holding every
  codec's v1 golden summary under a shard name, with container meta.

Every summary is seeded, and each single frame is asserted to land in the
form its name promises, so the set covers every (codec, form) pair.

Run it from the repo root:

* ``python tests/fixtures/generate_v3_fixtures.py`` -- (re)write fixtures;
  only ever needed when *adding* a codec, never for existing ones.
* ``python tests/fixtures/generate_v3_fixtures.py --check`` -- the CI
  drift gate: rebuild everything in memory and fail (exit 1) if any byte
  differs from the committed files.  A failure means the v3 encoder, its
  stored-form choice, or a codec's canonical payload changed -- a
  compatibility break, not a fixture refresh.

``tests/test_wire_fixtures.py`` asserts the committed frames decode and
re-encode bit-identically through the current code path.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

FIXTURE_DIR = Path(__file__).resolve().parent / "v3"
MANIFEST = FIXTURE_DIR / "manifest.json"

FORMS = ("raw", "delta", "zlib")
CONTAINER = "fleet"
CONTAINER_META = {"last_seq": 7, "source": "golden"}


def _v1_generator():
    path = Path(__file__).resolve().parent / "generate_v1_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_v1_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summaries(db, stream, universe, *, width, k, size, miner_db, miner_size):
    """One seeded summary per codec over the given inputs."""
    from repro.core import (
        ImportanceSampleSketcher,
        ReleaseAnswersSketcher,
        ReleaseDbSketcher,
        SubsampleSketcher,
        Task,
    )
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

    params = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.125, delta=0.1)
    task = Task.FORALL_ESTIMATOR
    objects: dict[str, object] = {
        "release-db": ReleaseDbSketcher(task).sketch(db, params, rng=1),
        "release-answers": ReleaseAnswersSketcher(task).sketch(db, params, rng=2),
        "subsample": SubsampleSketcher(task, sample_count=16).sketch(
            db, params, rng=3
        ),
        "importance-sample": ImportanceSampleSketcher(task, sample_count=16).sketch(
            db, params, rng=4
        ),
    }
    for name, summary in (
        ("count-min", CountMinSketch(universe, width, 3, rng=5)),
        ("misra-gries", MisraGries(universe, k)),
        ("space-saving", SpaceSaving(universe, k)),
        ("lossy-counting", LossyCounting(universe, 0.05)),
        ("sticky-sampling", StickySampling(universe, 0.05, 0.125, rng=6)),
        ("reservoir", ReservoirSample(universe, size, rng=7)),
    ):
        summary.update_many(stream)
        objects[name] = summary
    rows = RowReservoir(db.d, 12, rng=8)
    rows.extend(db)
    objects["row-reservoir"] = rows
    miner = StreamingItemsetMiner(miner_db.d, 0.05, miner_size)
    miner.extend(miner_db)
    objects["itemset-miner"] = miner
    return objects


def build_form_objects() -> dict[str, dict[str, object]]:
    """``{form: {codec: summary}}``: inputs shaped to hit each stored form.

    * raw -- dense random rows, 40-bit random item ids (set bits too
      many for a delta list to win), and a 4-wide count-min whose
      counters fill up;
    * delta -- 1%-dense rows and a handful of small item ids;
    * zlib -- one row repeated 48 times and a periodic item stream, so
      the payload is redundant but far from sparse.
    """
    from repro.db import BinaryDatabase, random_database

    rng = np.random.default_rng(7)
    heavy = rng.integers(0, 2**40, size=6)
    raw_stream = np.concatenate([np.repeat(heavy, 40), rng.integers(0, 2**40, 40)])
    rng.shuffle(raw_stream)
    pairs = np.zeros((12, 1000), dtype=bool)
    pick = np.random.default_rng(15)
    for row in pairs:
        row[pick.choice(1000, 2, replace=False)] = True
    sparse_db = random_database(48, 256, 0.01, rng=12)
    tiled_db = BinaryDatabase(
        np.tile(random_database(1, 64, 0.5, rng=14).rows, (48, 1))
    )
    return {
        "raw": _summaries(
            random_database(48, 10, 0.5, rng=11), raw_stream, 2**40,
            width=4, k=6, size=10,
            miner_db=BinaryDatabase(pairs), miner_size=10,
        ),
        "delta": _summaries(
            sparse_db, np.random.default_rng(13).integers(0, 8, 400), 2**16,
            width=16, k=6, size=10, miner_db=sparse_db, miner_size=2,
        ),
        "zlib": _summaries(
            tiled_db, np.tile(np.arange(6), 50), 64,
            width=16, k=6, size=200, miner_db=tiled_db, miner_size=2,
        ),
    }


def _sparse_rows(bits: int, per_row: int):
    """RELEASE-DB of 64 one-byte rows holding ``bits`` set bits in total,
    ``per_row`` to a row from the first row on.

    Every gap is < 128, so its delta form stores ``1 + bits`` bytes
    against 64 raw bytes, while only ``ceil(bits / per_row)`` bytes are
    nonzero -- with ``per_row=2`` the pricing runs to the full count
    instead of stopping at the nonzero-byte bound.
    """
    from repro.core.release_db import ReleaseDbSketch
    from repro.db import BinaryDatabase
    from repro.params import SketchParams

    rows = np.zeros((64, 8), dtype=bool)
    positions = np.arange(bits)
    rows[positions // per_row, (positions % per_row) * 3] = True
    params = SketchParams(n=64, d=8, k=2, epsilon=0.125, delta=0.1)
    return ReleaseDbSketch(params, BinaryDatabase(rows))


def fixture_objects() -> dict[str, object]:
    """``{fixture name: seeded summary}`` for every single-frame fixture."""
    objects = {
        f"{codec}+{form}": obj
        for form, objects in build_form_objects().items()
        for codec, obj in objects.items()
    }
    objects["release-db+delta-edge"] = _sparse_rows(62, per_row=1)
    objects["release-db+raw-tie"] = _sparse_rows(63, per_row=2)
    return objects


def fixture_form(name: str) -> str:
    """The stored form a single-frame fixture's name promises."""
    return name.split("+")[1].split("-")[0]


def _stored_form(frame: bytes) -> str:
    from repro import wire

    info = wire.inspect_frame(io.BytesIO(frame))
    return "zlib" if info.compressed else "delta" if info.delta else "raw"


def build_fixture_frames() -> dict[str, bytes]:
    """The golden byte strings: 3 forms per codec, the pricing edges,
    and one container."""
    from repro import wire

    frames: dict[str, bytes] = {}
    for name, obj in fixture_objects().items():
        form = fixture_form(name)
        frame = wire.dump(obj, compress=form == "zlib")
        if frame[4] != wire.WIRE_V3 or _stored_form(frame) != form:
            raise AssertionError(f"{name} was not written as a v3 {form} record")
        frames[name] = frame
    missing = {
        f"{codec}+{form}" for codec in wire.codec_names() for form in FORMS
    } - set(frames)
    if missing:
        raise AssertionError(f"no fixture built for: {sorted(missing)}")
    out = io.BytesIO()
    wire.write_container(
        out,
        sorted(_v1_generator().build_fixture_objects().items()),
        meta=CONTAINER_META,
    )
    frames[CONTAINER] = out.getvalue()
    return frames


def fixture_file(name: str) -> str:
    return name.replace("+", ".") + ".ifsk"


def write_fixtures() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, frame in sorted(build_fixture_frames().items()):
        path = FIXTURE_DIR / fixture_file(name)
        path.write_bytes(frame)
        manifest[name] = {
            "file": path.name,
            "bytes": len(frame),
            "sha256": hashlib.sha256(frame).hexdigest(),
        }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} fixtures to {FIXTURE_DIR}")


def check_fixtures() -> int:
    """Exit nonzero if regeneration drifts from the committed bytes."""
    if not MANIFEST.exists():
        print(f"missing manifest {MANIFEST}; run without --check first")
        return 1
    manifest = json.loads(MANIFEST.read_text())
    frames = build_fixture_frames()
    failures = []
    if set(manifest) != set(frames):
        failures.append(
            f"fixture set drifted: manifest {sorted(manifest)} vs built {sorted(frames)}"
        )
    for name, entry in sorted(manifest.items()):
        committed = (FIXTURE_DIR / entry["file"]).read_bytes()
        if hashlib.sha256(committed).hexdigest() != entry["sha256"]:
            failures.append(f"{name}: committed file disagrees with manifest hash")
        if name in frames and frames[name] != committed:
            failures.append(
                f"{name}: regenerated frame differs from committed bytes "
                f"({len(frames[name])} vs {len(committed)} bytes) -- "
                "the v3 encoder or canonical payload changed"
            )
    for failure in failures:
        print(f"FIXTURE DRIFT: {failure}")
    if not failures:
        print(f"{len(manifest)} v3 fixtures match (no drift)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify committed fixtures instead of writing them",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_fixtures()
    write_fixtures()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
