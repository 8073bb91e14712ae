"""Golden fixture compatibility: committed frames decode forever.

``tests/fixtures/v1/`` holds one frozen wire-v1 frame per codec and
``tests/fixtures/v2/`` three frozen v2 frames per codec -- plain, zlib,
and chunked+zlib layouts.  Both encoders are retired, so these are
*decode* gates for every frame a v1 or v2 build ever wrote:

* the committed bytes match their manifest hash and decode through the
  current code path (``load`` dispatches by version byte);
* each frame carries exactly its seeded summary: the same payload bits,
  header fields and params, and its v3 re-encode equals the seeded
  summary's v3 frame;
* the versions agree: the v1 and v2 frames of a codec decode to the
  same summary.

``tests/fixtures/v3/`` pins the one writer byte for byte: a raw, a
delta-coded and a zlib single frame per codec plus one multi-shard
container, and today's encoder must reproduce every byte (see the three
``generate_v*_fixtures.py`` scripts).
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro import wire

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "v1"
MANIFEST = json.loads((FIXTURE_DIR / "manifest.json").read_text())

V2_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "v2"
V2_MANIFEST = json.loads((V2_FIXTURE_DIR / "manifest.json").read_text())

V3_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "v3"
V3_MANIFEST = json.loads((V3_FIXTURE_DIR / "manifest.json").read_text())


def _load_generator_module(name: str = "generate_v1_fixtures"):
    path = FIXTURE_DIR.parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return _load_generator_module()


@pytest.fixture(scope="module")
def v2_generator():
    return _load_generator_module("generate_v2_fixtures")


@pytest.fixture(scope="module")
def v3_generator():
    return _load_generator_module("generate_v3_fixtures")


@pytest.fixture(scope="module")
def v3_objects(v3_generator):
    """The seeded summary behind every v3 single-frame fixture, by name."""
    return v3_generator.fixture_objects()


@pytest.fixture(scope="module")
def seeded(generator):
    """The seeded summary behind every v1/v2 fixture, by codec."""
    return generator.build_fixture_objects()


def _v1(codec: str) -> bytes:
    return (FIXTURE_DIR / MANIFEST[codec]["file"]).read_bytes()


def _v2(name: str) -> bytes:
    return (V2_FIXTURE_DIR / V2_MANIFEST[name]["file"]).read_bytes()


def _v3(name: str) -> bytes:
    return (V3_FIXTURE_DIR / V3_MANIFEST[name]["file"]).read_bytes()


class TestGoldenV1Frames:
    def test_one_fixture_per_codec(self):
        assert set(MANIFEST) == set(wire.codec_names())

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    def test_committed_bytes_match_manifest(self, codec):
        frame = _v1(codec)
        assert len(frame) == MANIFEST[codec]["bytes"]
        assert hashlib.sha256(frame).hexdigest() == MANIFEST[codec]["sha256"]
        assert frame[:4] == wire.MAGIC and frame[4] == wire.WIRE_V1

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    def test_decodes_and_reencodes_bit_identically(self, codec, generator, seeded):
        """load() dispatches by version; the frame is the seeded summary."""
        committed = _v1(codec)
        frame = wire.decode_frame(committed)
        assert frame.version == wire.WIRE_V1 and frame.codec == codec
        obj = wire.load(committed)
        assert obj.size_in_bits() == frame.n_bits
        assert generator.decode_failures(committed, seeded[codec]) == []
        assert wire.dump(obj) == wire.dump(seeded[codec])

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    @pytest.mark.parametrize("compress", [False, True])
    def test_v2_path_carries_the_same_object(self, codec, compress):
        """The v1 frame and the v2 (plain or zlib) frame of a codec carry
        the same payload bits and decode to the same summary."""
        v1 = wire.decode_frame(_v1(codec))
        v2_bytes = _v2(f"{codec}+zlib" if compress else codec)
        v2 = wire.decode_frame(v2_bytes)
        assert v2.version == wire.WIRE_V2 and v2.compressed is compress
        assert (v2.n_bits, v2.payload) == (v1.n_bits, v1.payload)
        assert (v2.params, v2.extras) == (v1.params, v1.extras)
        clone = wire.load(v2_bytes)
        assert type(clone) is type(wire.load(_v1(codec)))
        assert wire.dump(clone) == wire.dump(wire.load(_v1(codec)))

    def test_regeneration_matches_committed(self, generator, seeded):
        """Fixed seeds still build the summaries the frames carry."""
        for codec in MANIFEST:
            assert generator.decode_failures(_v1(codec), seeded[codec]) == [], codec

    def test_check_mode_passes(self, generator):
        assert generator.check_fixtures() == 0


class TestGoldenV2Frames:
    def test_three_fixtures_per_codec(self):
        plain = {name for name in V2_MANIFEST if "+" not in name}
        assert plain == set(wire.codec_names())
        assert set(V2_MANIFEST) == (
            plain | {f"{n}+zlib" for n in plain} | {f"{n}+chunked" for n in plain}
        )

    @pytest.mark.parametrize("name", sorted(V2_MANIFEST))
    def test_committed_bytes_match_manifest(self, name):
        frame = _v2(name)
        assert len(frame) == V2_MANIFEST[name]["bytes"]
        assert hashlib.sha256(frame).hexdigest() == V2_MANIFEST[name]["sha256"]
        assert frame[:4] == wire.MAGIC and frame[4] == wire.WIRE_V2

    @pytest.mark.parametrize("name", sorted(V2_MANIFEST))
    def test_decodes_and_reencodes_bit_identically(self, name, generator, seeded):
        """load() dispatches by version; the frame is the seeded summary."""
        committed = _v2(name)
        codec = name.split("+")[0]
        frame = wire.decode_frame(committed)
        assert frame.version == wire.WIRE_V2 and frame.codec == codec
        assert frame.chunked is name.endswith("+chunked")
        obj = wire.load(committed)
        assert obj.size_in_bits() == frame.n_bits
        assert generator.decode_failures(committed, seeded[codec]) == []
        assert wire.dump(obj) == wire.dump(seeded[codec])

    @pytest.mark.parametrize("codec", sorted(MANIFEST))
    def test_v1_path_carries_the_same_object(self, codec):
        """Every v2 layout of a codec decodes to the v1 fixture's summary."""
        v1_obj = wire.load(_v1(codec))
        for layout in ("", "+zlib", "+chunked"):
            assert wire.dump(wire.load(_v2(codec + layout))) == wire.dump(v1_obj)

    def test_regeneration_matches_committed(self, generator, v2_generator):
        for name, obj in v2_generator.fixture_objects().items():
            assert generator.decode_failures(_v2(name), obj) == [], name

    def test_check_mode_passes(self, v2_generator):
        assert v2_generator.check_fixtures() == 0


class TestGoldenV3Frames:
    def test_three_forms_per_codec_plus_a_container(self, v3_generator):
        expected = {
            f"{codec}+{form}"
            for codec in wire.codec_names()
            for form in v3_generator.FORMS
        }
        edges = {"release-db+delta-edge", "release-db+raw-tie"}
        assert set(V3_MANIFEST) == expected | edges | {v3_generator.CONTAINER}

    @pytest.mark.parametrize("name", sorted(V3_MANIFEST))
    def test_committed_bytes_match_manifest(self, name):
        frame = _v3(name)
        assert len(frame) == V3_MANIFEST[name]["bytes"]
        assert hashlib.sha256(frame).hexdigest() == V3_MANIFEST[name]["sha256"]
        assert frame[:4] == wire.MAGIC and frame[4] == wire.WIRE_V3

    @pytest.mark.parametrize(
        "name", sorted(n for n in V3_MANIFEST if "+" in n)
    )
    def test_single_frames_reencode_byte_for_byte(
        self, name, v3_objects, v3_generator
    ):
        """Decode, check the stored form, and pin the writer's bytes."""
        committed = _v3(name)
        codec, form = name.split("+")[0], v3_generator.fixture_form(name)
        info = wire.inspect_frame(io.BytesIO(committed))
        assert info.codec == codec and info.crc_ok
        assert (info.compressed, info.delta) == (form == "zlib", form == "delta")
        obj = v3_objects[name]
        assert wire.decode_frame(committed).n_bits == obj.size_in_bits()
        assert wire.dump(obj, compress=form == "zlib") == committed
        assert wire.dump(wire.load(committed), compress=form == "zlib") == committed

    def test_container_shards_decode_to_the_seeded_zoo(self, v3_generator, seeded):
        committed = _v3(v3_generator.CONTAINER)
        reader = wire.ContainerReader.open(io.BytesIO(committed))
        assert reader.meta == v3_generator.CONTAINER_META
        assert reader.names() == tuple(sorted(seeded))
        for name, obj in reader.iter_objects():
            assert wire.dump(obj) == wire.dump(seeded[name]), name
        out = io.BytesIO()
        wire.write_container(
            out, sorted(seeded.items()), meta=v3_generator.CONTAINER_META
        )
        assert out.getvalue() == committed

    def test_check_mode_passes(self, v3_generator):
        assert v3_generator.check_fixtures() == 0
