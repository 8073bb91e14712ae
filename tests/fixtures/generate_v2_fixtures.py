"""Golden wire-format v2 fixtures: frozen frames for every codec and layout.

Wire v2 froze when v3 became the one writer: every v2 frame already
written (files, WAL records, snapshots) must decode bit-identically
forever.  ``tests/fixtures/v2/`` pins that promise to bytes on disk, for
the v1 generator's deterministic summaries (same seeds, same
parameters), each frozen under all three v2 payload layouts:

* ``<codec>.ifsk``    -- plain frame (varint stored length, no flags);
* ``<codec>.z.ifsk``  -- zlib payload;
* ``<codec>.c.ifsk``  -- chunked + zlib stream layout.

The v2 *encoder* is retired, so these bytes are never rewritten.  Run it
from the repo root:

* ``python tests/fixtures/generate_v2_fixtures.py --check`` -- the CI
  decode gate, the same one ``generate_v1_fixtures.py`` applies to v1:
  every committed frame must match its manifest hash, decode to its
  seeded summary's payload bits, header fields and params, and re-encode
  (as v3) to the seeded summary's v3 frame.

``tests/test_wire_fixtures.py`` runs the same gate inside the test suite.
"""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent / "v2"

#: Name suffix of each frozen layout (``""`` is the plain frame).
LAYOUTS = ("", "+zlib", "+chunked")


def _v1_generator():
    path = Path(__file__).resolve().parent / "generate_v1_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_v1_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_objects() -> dict[str, object]:
    """``{fixture name: seeded summary}``: three layouts per codec."""
    objects = _v1_generator().build_fixture_objects()
    return {
        f"{codec}{layout}": obj
        for codec, obj in objects.items()
        for layout in LAYOUTS
    }


def check_fixtures() -> int:
    """Exit nonzero unless every committed v2 frame passes the gate."""
    return _v1_generator().check_committed(FIXTURE_DIR, fixture_objects(), "v2")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed fixtures (the only mode: the v2 encoder "
             "is retired, so they are never rewritten)",
    )
    parser.parse_args(argv)
    return check_fixtures()


if __name__ == "__main__":
    raise SystemExit(main())
