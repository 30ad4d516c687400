import json
import os
import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oms import EVENT_DTYPE, OmsError, SensorGeometry, ValidationError
from oms.dataset_io import (
    MAGIC,
    DatasetManifest,
    ParseError,
    _event_chunks,
    _write_file,
    import_evimo,
    import_mod,
    mask_filename,
    read_events,
    read_mask,
    write_dataset,
    write_events,
    write_mask,
)

GEOM = SensorGeometry(64, 48)


def random_events(rng, n, geom=GEOM):
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    ev["t"] = np.sort(rng.integers(0, 10**6, n))
    ev["x"] = rng.integers(0, geom.width, n)
    ev["y"] = rng.integers(0, geom.height, n)
    ev["p"] = rng.choice([-1, 1], n)
    return ev


def read_dataset(manifest_path):
    """(manifest, events, masks) of a dataset on disk, by the public readers."""
    manifest = DatasetManifest.load(manifest_path)
    event_path, mask_dir = manifest.resolve(manifest_path.parent)
    masks = [read_mask(mask_dir / mask_filename(i), manifest.geometry)
             for i in range(len(manifest.mask_timestamps))]
    return manifest, read_events(event_path), masks


class TestEventFiles:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.evt"
        write_events(np.empty(0, dtype=EVENT_DTYPE), GEOM, path)
        assert path.stat().st_size == 16
        assert len(read_events(path)) == 0

    def test_one_event_file_size(self, tmp_path):
        path = tmp_path / "one.evt"
        write_events(np.array([(1, 2, 3, 1)], EVENT_DTYPE), GEOM, path)
        assert path.stat().st_size == 29  # 16 + 13

    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "events.evt"
        ev = random_events(rng, 10_000)
        write_events(ev, GEOM, path)
        assert np.array_equal(read_events(path), ev)
        assert next(_event_chunks(path, 1)) == GEOM

    @pytest.mark.parametrize("records", [0, 1])
    def test_zero_width_header_read(self, tmp_path, records):
        # The header's geometry is checked before any record: a width of 0
        # is refused with or without records.
        path = tmp_path / "zero.evt"
        record = struct.pack("<QHHb", 1, 0, 3, 1)
        path.write_bytes(b"EVT1" + struct.pack("<HH", 0, 10) + b"\x00" * 8 + record * records)
        message = r"zero.evt: width must be an integer in \[1, 65535\], got 0$"
        with pytest.raises(ParseError, match=message):
            read_events(path)

    def test_hand_built_record(self, tmp_path):
        header = b"EVT1" + struct.pack("<HH", 10, 10) + b"\x00" * 8
        record = struct.pack("<QHHb", 1, 2, 3, 1)
        path = tmp_path / "hand.evt"
        path.write_bytes(header + record)
        ev = read_events(path)
        assert tuple(ev[0]) == (1, 2, 3, 1)

    def test_truncated_record(self, tmp_path):
        header = b"EVT1" + struct.pack("<HH", 10, 10) + b"\x00" * 8
        path = tmp_path / "trunc.evt"
        path.write_bytes(header + b"\x00" * 20)  # 1 full record + 7 stray bytes
        with pytest.raises(ParseError, match="byte offset 29"):
            read_events(path)

    def test_file_cut_after_its_size_was_taken(self, tmp_path, rng):
        # The record count comes from the size at the header check. A file cut
        # after that, past what the header's read buffered, comes up short on
        # a read, which names the first record it did not get.
        path = tmp_path / "cut.evt"
        k = 50_000  # 650 KB of records: far past a read buffer
        write_events(random_events(rng, 2 * k), GEOM, path)
        chunks = _event_chunks(path, k)
        assert next(chunks) == GEOM
        os.truncate(path, 16 + 13 * k)
        assert len(next(chunks)) == k
        with pytest.raises(ParseError, match=f"truncated record at byte offset {16 + 13 * k}$"):
            next(chunks)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.evt"
        path.write_bytes(b"\x89PNGxxxxxxxxxxxxxxx")
        with pytest.raises(ParseError, match="offset 0"):
            read_events(path)

    def test_bad_polarity_offset(self, tmp_path):
        header = b"EVT1" + struct.pack("<HH", 10, 10) + b"\x00" * 8
        good = struct.pack("<QHHb", 1, 2, 3, 1)
        bad = struct.pack("<QHHb", 2, 2, 3, 5)
        path = tmp_path / "badp.evt"
        path.write_bytes(header + good + bad)
        with pytest.raises(ParseError, match="byte offset 29"):
            read_events(path)

    def test_lowest_polarity_byte_rejected(self, tmp_path):
        header = b"EVT1" + struct.pack("<HH", 10, 10) + b"\x00" * 8
        path = tmp_path / "p128.evt"
        records = struct.pack("<QHHb", 1, 2, 3, 1) + struct.pack("<QHHb", 2, 2, 3, -128)
        path.write_bytes(header + records)
        with pytest.raises(ParseError, match="byte offset 29"):
            read_events(path)

    @pytest.mark.parametrize("record, message", [
        ((2, 2, 3, 5), "invalid polarity p=5 at byte offset 29"),
        ((2, 10, 3, 1), r"\(x=10, y=3\) outside 10x10 sensor at byte offset 29"),
    ])
    def test_native_record_check_names_offset(self, tmp_path, record, message):
        path = tmp_path / "bad.evt"
        path.write_bytes(b"EVT1" + struct.pack("<HH", 10, 10) + b"\x00" * 8
                         + struct.pack("<QHHb", 1, 2, 3, 1) + struct.pack("<QHHb", *record))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
            read_events(path)


class TestMaskFiles:
    def test_all_zero(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_mask(np.zeros((8, 12), np.uint8), path)
        assert not read_mask(path).any()

    def test_round_trip(self, tmp_path, rng):
        mask = (rng.random((48, 64)) < 0.3).astype(np.uint8)
        path = tmp_path / "m.pgm"
        write_mask(mask, path)
        assert np.array_equal(read_mask(path), mask)

    def test_strict_write_values(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_mask(np.eye(4, dtype=np.uint8), path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert set(body) <= {0, 255}

    def test_tolerant_read_of_gray_levels(self, tmp_path):
        # dataset masks encode object ids as gray levels; any nonzero -> 1
        path = tmp_path / "gray.pgm"
        body = bytes([0, 128, 255, 7])
        path.write_bytes(b"P5\n2 2\n255\n" + body)
        assert np.array_equal(read_mask(path), [[0, 1], [1, 1]])

    @pytest.mark.parametrize("shape", [(8,), (2, 4, 4)])
    def test_write_rejects_non_2d(self, tmp_path, shape):
        with pytest.raises(ValidationError, match=re.escape(f"mask must be 2D, got shape {shape}")):
            write_mask(np.zeros(shape, np.uint8), tmp_path / "m.pgm")
        assert not (tmp_path / "m.pgm").exists()

    def test_geometry_mismatch(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_mask(np.zeros((8, 8), np.uint8), path)
        with pytest.raises(ParseError, match="8x8"):
            read_mask(path, SensorGeometry(16, 16))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ParseError):
            read_mask(path)

    def test_comments_between_every_token(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5#magic\n 2# width\n#alone\n\t2 # height\n255\n" + bytes([0, 9, 255, 0]))
        assert np.array_equal(read_mask(path), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("data, match", [
        (b"P6\n2 2\n255\n" + bytes(4), "not a binary PGM"),
        (b"P5\n2 2", "truncated PGM header"),
        (b"P5\n2 x\n255\n" + bytes(4), "malformed"),
        (b"P5\n2 #no newline", "truncated PGM header"),
        (b"P5\n0 2\n255\n", "not at least 1x1"),
        (b"P5\n2 2\n256\n" + bytes(8), "maxval 256"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated pixel data"),
    ])
    def test_bad_header_or_pixels(self, tmp_path, data, match):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=match):
            read_mask(path)

    @pytest.mark.parametrize("data", [
        b"P5" + b"#" * 100_000, b"P5 2" + b" #" * 50_000, b"P5\n" + b"#\n" * 50_000,
    ])
    def test_long_comment_fails_promptly(self, tmp_path, data):
        path = tmp_path / "long.pgm"
        path.write_bytes(data)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="truncated PGM header"):
            read_mask(path)
        assert time.perf_counter() - start < 1.0


class TestWriteEvents:
    """write_events writes the header and then the records' own buffer."""

    @given(st.integers(0, 3000), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bytes_are_header_and_records(self, tmp_path_factory, n, step, seed):
        ev = random_events(np.random.default_rng(seed), n)[::step]  # strided when step > 1
        path = tmp_path_factory.mktemp("events") / "events.evt"
        write_events(ev, GEOM, path)
        assert path.read_bytes() == MAGIC + struct.pack("<HH", 64, 48) + bytes(8) + ev.tobytes()

    def test_peak_memory_below_the_records(self, tmp_path, rng):
        ev = random_events(rng, 100_000)
        tracemalloc.start()
        try:
            write_events(ev, GEOM, tmp_path / "events.evt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ev.nbytes, (peak, ev.nbytes)


class TestWriteFile:
    """Output files are overwritten in place; the result must equal what an
    O_TRUNC write of the same bytes leaves behind."""

    @pytest.mark.parametrize("old", [None, b"x" * 100, b"ab"], ids=["absent", "longer", "shorter"])
    def test_result_is_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "f.bin"
        if old is not None:
            path.write_bytes(old)
        new = b"0123456789"
        _write_file(path, new)
        assert path.read_bytes() == new
        assert path.stat().st_size == len(new)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_created_mode_matches_open_wb(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "wb"):
                pass
            _write_file(tmp_path / "written", b"data")
        finally:
            os.umask(old)
        assert (tmp_path / "written").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_existing_file_is_overwritten_in_place(self, tmp_path):
        # Same inode and mode, so hard links see the new bytes, as with O_TRUNC.
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 50)
        path.chmod(0o600)
        os.link(path, tmp_path / "link.bin")
        before = path.stat()
        _write_file(path, b"new")
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert (tmp_path / "link.bin").read_bytes() == b"new"

    def test_symlink_is_followed(self, tmp_path):
        target = tmp_path / "target.bin"
        target.write_bytes(b"x" * 50)
        (tmp_path / "sym.bin").symlink_to(target)
        _write_file(tmp_path / "sym.bin", b"new")
        assert (tmp_path / "sym.bin").is_symlink()
        assert target.read_bytes() == b"new"

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            _write_file(tmp_path, b"data")

    def test_mask_round_trip_after_overwrite(self, tmp_path, rng):
        path, fresh = tmp_path / "m.pgm", tmp_path / "fresh.pgm"
        write_mask(np.ones((40, 50), np.uint8), path)
        for shape in [(48, 64), (8, 12), (48, 64)]:
            mask = (rng.random(shape) < 0.3).astype(np.uint8)
            write_mask(mask, path)
            write_mask(mask, fresh)
            assert path.read_bytes() == fresh.read_bytes()
            assert np.array_equal(read_mask(path), mask)

    def test_every_writer_overwrites(self, tmp_path, rng):
        # Events, masks and the manifest written over longer files read back
        # as exactly what a write into a fresh directory gives.
        ev = random_events(rng, 100)
        masks = [np.zeros((48, 64), np.uint8)] * 2
        fresh = write_dataset(tmp_path / "fresh", ev, GEOM, masks, [1, 2])
        again = tmp_path / "again"
        write_dataset(again, random_events(rng, 500), GEOM, [np.ones((48, 64), np.uint8)] * 2,
                      [10**12, 2 * 10**12])
        write_dataset(again, ev, GEOM, masks, [1, 2])
        for name in ("events.evt", "manifest.json", "masks/mask_00000.pgm", "masks/mask_00001.pgm"):
            assert (again / name).read_bytes() == (fresh.parent / name).read_bytes(), name


class TestUnreadableFiles:
    @pytest.mark.parametrize("read, what", [(read_mask, "mask file"), (read_events, "event file")])
    def test_directory_is_a_parse_error(self, tmp_path, read, what):
        with pytest.raises(ParseError, match=f"^{re.escape(str(tmp_path))}: cannot read {what}: "):
            read(tmp_path)

    @pytest.mark.parametrize("read", [read_mask, read_events])
    def test_missing_file_stays_file_not_found(self, tmp_path, read):
        with pytest.raises(FileNotFoundError):
            read(tmp_path / "absent")


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(GEOM, "events.evt", "masks", (10, 20, 30), "native")
        path = tmp_path / "manifest.json"
        manifest.save(path)
        assert DatasetManifest.load(path) == manifest

    @pytest.mark.parametrize("fields", [
        {"event_file": 5}, {"mask_dir": None}, {"source": ("native",)},
    ], ids=["event_file", "mask_dir", "source"])
    def test_string_fields_checked_on_construction(self, fields):
        with pytest.raises(ValidationError, match="must be a string"):
            DatasetManifest(**{"geometry": (64, 48), "event_file": "e.evt", "mask_dir": "m",
                               "mask_timestamps": (1, 2), **fields})

    def test_nonincreasing_timestamps_rejected(self):
        with pytest.raises(Exception):
            DatasetManifest(GEOM, "e", "m", (10, 10), "native")

    @pytest.mark.parametrize("change", [
        {"geometry": [1, 2]},
        {"geometry": {"width": "346", "height": 260}},
        {"geometry": {"width": True, "height": 260}},
        {"geometry": {"width": 64.0, "height": 48}},
        {"geometry": {"width": 0, "height": 48}},
        {"geometry": {"width": 70000, "height": 48}},
        {"mask_timestamps": 5},
        {"mask_timestamps": [1.5, "x"]},
        {"mask_timestamps": [2**63]},
        {"event_file": 5},
        {"source": ["native"]},
        {"mask_dir": None},
    ], ids=lambda change: json.dumps(change))
    def test_malformed_field(self, tmp_path, change):
        doc = {"geometry": {"width": 64, "height": 48}, "event_file": "events.evt",
               "mask_dir": "masks", "mask_timestamps": [10, 20], "source": "native"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**doc, **change}))
        with pytest.raises(ParseError):
            DatasetManifest.load(path)

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[]", b"5", b"{", b'{"geometry": {}}'])
    def test_malformed_document(self, tmp_path, data):
        path = tmp_path / "manifest.json"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            DatasetManifest.load(path)

    def test_write_then_load_dataset(self, tmp_path, rng):
        ev = random_events(rng, 500)
        masks = [(rng.random((48, 64)) < 0.2).astype(np.uint8) for _ in range(3)]
        manifest_path = write_dataset(tmp_path / "ds", ev, GEOM, masks, [10, 20, 30])
        manifest, events, loaded = read_dataset(manifest_path)
        assert manifest.mask_timestamps == (10, 20, 30)
        assert np.array_equal(events, ev)
        assert all(np.array_equal(a, b) for a, b in zip(masks, loaded))

    def test_numpy_int_geometry_round_trip(self, tmp_path):
        # json.dumps refused the numpy ints after the events and masks were written.
        geometry = SensorGeometry(np.int64(8), np.int32(6))
        manifest_path = write_dataset(tmp_path / "ds", np.empty(0, EVENT_DTYPE), geometry, [np.zeros((6, 8))], [1])
        manifest, events, masks = read_dataset(manifest_path)
        assert manifest.geometry == (8, 6) and len(events) == 0 and masks[0].shape == (6, 8)
        assert json.loads(manifest_path.read_text())["geometry"] == {"width": 8, "height": 6}

    def test_dataset_length_mismatch(self, tmp_path):
        with pytest.raises(ValidationError, match="^2 masks but 1 timestamps$"):
            write_dataset(tmp_path / "ds", np.empty(0, EVENT_DTYPE), GEOM, [np.zeros((48, 64))] * 2, [1])
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("events, geometry, masks, timestamps, message", [
        ([(1, 2, 3, 1)], GEOM, [np.zeros((48, 64))], [1],
         "^events must be a 1-D array of EVENT_DTYPE records, got list$"),
        (np.array([(1, 64, 3, 1)], EVENT_DTYPE), GEOM, [np.zeros((48, 64))], [1],
         r"^\(x=64, y=3\) outside 64x48 sensor at event 0$"),
        (np.array([(2, 1, 1, 1), (1, 1, 1, 1)], EVENT_DTYPE), GEOM, [np.zeros((48, 64))], [1],
         "^event stream unsorted: t decreases at index 1$"),
        (np.empty(0, EVENT_DTYPE), (8, 8), [np.zeros((5, 7))], [1],
         r"^mask 0 has shape \(5, 7\), expected \(8, 8\)$"),
        (np.empty(0, EVENT_DTYPE), GEOM, [np.zeros((48, 64)), np.zeros(64)], [1, 2],
         r"^mask 1 has shape \(64,\), expected \(48, 64\)$"),
        (np.empty(0, EVENT_DTYPE), GEOM, [np.zeros((48, 64))] * 2, [2, 1],
         "^mask timestamps must be strictly increasing$"),
        (np.empty(0, EVENT_DTYPE), (0, 48), [np.zeros((48, 0))], [1],
         r"^width must be an integer in \[1, 65535\], got 0$"),
    ], ids=["tuples", "event outside", "unsorted", "mask shape", "mask not 2-D",
            "timestamps", "geometry"])
    def test_refused_dataset_makes_nothing(self, tmp_path, events, geometry, masks, timestamps,
                                           message):
        # Every input is checked before the first directory is made.
        with pytest.raises(ValidationError, match=message):
            write_dataset(tmp_path / "ds", events, geometry, masks, timestamps)
        assert not (tmp_path / "ds").exists()


def build_evimo_fixture(root, rng):
    """Miniature directory in the documented EV-IMO adapter layout."""
    root.mkdir()
    geom = SensorGeometry(32, 24)
    (root / "meta.json").write_text(json.dumps({"width": 32, "height": 24}))
    t = np.sort(rng.random(200)) * 0.3
    x = rng.integers(0, 32, 200)
    y = rng.integers(0, 24, 200)
    p = rng.integers(0, 2, 200)
    lines = [f"{ti:.9f} {xi} {yi} {pi}" for ti, xi, yi, pi in zip(t, x, y, p)]
    (root / "events.txt").write_text("\n".join(lines) + "\n")
    (root / "timestamps.txt").write_text("0.1\n0.2\n0.3\n")
    mask_dir = root / "masks"
    mask_dir.mkdir()
    for i in range(3):
        write_mask((rng.random((24, 32)) < 0.2).astype(np.uint8), mask_dir / mask_filename(i))
    return geom


class TestImporters:
    def test_import_evimo_fixture(self, tmp_path, rng):
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        manifest = import_evimo(src, tmp_path / "native")
        assert manifest.source == "evimo"
        assert len(manifest.mask_timestamps) == 3
        assert manifest.mask_timestamps == (100_000, 200_000, 300_000)
        _, events, masks = read_dataset(tmp_path / "native" / "manifest.json")
        assert len(events) == 200 and len(masks) == 3
        assert (np.diff(events["t"].astype(np.int64)) >= 0).all()

    def test_import_empty_directory(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        with pytest.raises(ParseError, match="missing required entries"):
            import_evimo(src, tmp_path / "native")
        with pytest.raises(ParseError, match="missing required entries"):
            import_mod(src, tmp_path / "native")

    def test_reimport_is_deterministic(self, tmp_path, rng):
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        import_evimo(src, tmp_path / "a")
        import_evimo(src, tmp_path / "b")
        assert (tmp_path / "a" / "events.evt").read_bytes() == (
            tmp_path / "b" / "events.evt"
        ).read_bytes()
        for i in range(3):
            assert (tmp_path / "a" / "masks" / mask_filename(i)).read_bytes() == (
                tmp_path / "b" / "masks" / mask_filename(i)
            ).read_bytes()

    @pytest.mark.parametrize("value", ["65546", "-65530", "1.9", "32", "nan"])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_import_evimo_rejects_bad_coordinate(self, tmp_path, rng, field, value):
        # Each value would reach the u16 field as a valid-looking coordinate
        # (65546 -> 10, -65530 -> 6, 1.9 -> 1) if it were cast unchecked.
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        lines = (src / "events.txt").read_text().splitlines()
        t, x, y, p = lines[7].split()
        lines[7] = " ".join((t, value, y, p) if field == "x" else (t, x, value, p))
        (src / "events.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"event 7: {field}="):
            import_evimo(src, tmp_path / "native")
        assert not (tmp_path / "native").exists()

    def test_import_mod_rejects_bad_coordinate(self, tmp_path):
        src = tmp_path / "mod"
        src.mkdir()
        np.save(src / "events.npy", np.array([[0.1, 3.0, 2.0, 1.0], [0.2, 346.5, 2.0, -1.0]]))
        np.save(src / "timestamps.npy", np.array([0.1]))
        (src / "masks").mkdir()
        with pytest.raises(ParseError, match="event 1: x="):
            import_mod(src, tmp_path / "native")

    @pytest.mark.parametrize("row, match", [
        ("0.1 1 2 x", "event 3: .* is not numeric"),
        ("-0.1 1 2 1", r"event 3: t=-0.1 s is not in \[0, 2\^63\) us"),
        ("nan 1 2 1", r"event 3: t=nan s is not in \[0, 2\^63\) us"),
        ("1e13 1 2 1", r"event 3: t=10000000000000.0 s is not in \[0, 2\^63\) us"),
    ])
    @pytest.mark.parametrize("layout", ["evimo", "mod"])
    def test_import_rejects_bad_event_row(self, tmp_path, rng, layout, row, match):
        # A non-numeric row used to escape as numpy's ValueError, and a
        # negative or NaN t was wrapped by the int64 -> u64 cast.
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        lines = (src / "events.txt").read_text().split("\n")[:-1]
        lines[3] = row
        if layout == "evimo":
            (src / "events.txt").write_text("\n".join(lines) + "\n")
        else:
            np.save(src / "events.npy", np.array([line.split() for line in lines]))
            np.save(src / "timestamps.npy", np.loadtxt(src / "timestamps.txt"))
        importer = import_evimo if layout == "evimo" else import_mod
        with pytest.raises(ParseError, match=f"events.{'txt' if layout == 'evimo' else 'npy'}: "
                                             + match):
            importer(src, tmp_path / "native")
        assert not (tmp_path / "native").exists()

    def test_import_evimo_ragged_row(self, tmp_path, rng):
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        lines = (src / "events.txt").read_text().split("\n")[:-1]
        lines[3] = "0.1 1 2"
        (src / "events.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"events\.txt: "):
            import_evimo(src, tmp_path / "native")

    @pytest.mark.parametrize("layout", ["evimo", "mod"])
    @pytest.mark.parametrize("value, match", [("x", "is not numeric"), ("-0.2", "is not in")])
    def test_import_rejects_bad_timestamp(self, tmp_path, rng, layout, value, match):
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        if layout == "evimo":
            (src / "timestamps.txt").write_text(f"0.1\n{value}\n0.3\n")
        else:
            np.save(src / "events.npy", np.loadtxt(src / "events.txt"))
            np.save(src / "timestamps.npy", np.array(["0.1", value, "0.3"]))
        importer = import_evimo if layout == "evimo" else import_mod
        with pytest.raises(ParseError, match=f"timestamps.* timestamp 1: .*{match}"):
            importer(src, tmp_path / "native")

    @pytest.mark.parametrize("layout, timestamps", [
        ("mod", np.float64(0.1)),
        ("mod", np.array([[0.1, 0.15], [0.2, 0.25], [0.3, 0.35]])),
        ("evimo", "0.1 0.15\n0.2 0.25\n0.3 0.35\n"),
    ], ids=["mod-0d", "mod-2d", "evimo-2d"])
    def test_import_rejects_non_1d_timestamps(self, tmp_path, rng, layout, timestamps):
        # Each used to escape as TypeError: from len(), or from int() of a row.
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        if layout == "evimo":
            (src / "timestamps.txt").write_text(timestamps)
        else:
            np.save(src / "events.npy", np.loadtxt(src / "events.txt"))
            np.save(src / "timestamps.npy", timestamps)
        importer = import_evimo if layout == "evimo" else import_mod
        with pytest.raises(ParseError, match="expected a 1-D array of timestamps"):
            importer(src, tmp_path / "native")
        assert not (tmp_path / "native").exists()

    @pytest.mark.parametrize("meta, match", [
        ("[1, 2]", "meta file must be a JSON object"),
        ('{"width": "a", "height": 24}', r"width must be an integer in \[1, 65535\], got 'a'"),
        ('{"width": 32, "height": 3.5}', r"height must be an integer in \[1, 65535\], got 3.5"),
        ('{"width": 0, "height": 24}', r"width must be an integer in \[1, 65535\], got 0"),
        ('{"width": 32, "height": 65536}', r"height must be an integer in \[1, 65535\]"),
        ('{"width": true, "height": 24}', r"width must be an integer in \[1, 65535\]"),
        ('{"width": 32}', "malformed meta file"),
        ("{", "malformed meta file"),
    ])
    @pytest.mark.parametrize("layout", ["evimo", "mod"])
    def test_import_rejects_bad_meta(self, tmp_path, rng, layout, meta, match):
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        (src / "meta.json").write_text(meta)
        if layout == "mod":
            np.save(src / "events.npy", np.loadtxt(src / "events.txt"))
            np.save(src / "timestamps.npy", np.loadtxt(src / "timestamps.txt"))
        importer = import_evimo if layout == "evimo" else import_mod
        with pytest.raises(ParseError, match=r"meta\.json: " + match):
            importer(src, tmp_path / "native")

    @pytest.mark.parametrize("layout", ["evimo", "mod"])
    def test_import_empty_event_file(self, tmp_path, rng, layout):
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        if layout == "evimo":
            (src / "events.txt").write_text("")
        else:
            np.save(src / "events.npy", np.empty((0, 4)))
            np.save(src / "timestamps.npy", np.array([0.1, 0.2, 0.3]))
        importer = import_evimo if layout == "evimo" else import_mod
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt: "input contained no data"
            manifest = importer(src, tmp_path / "native")
        _, events, masks = read_dataset(tmp_path / "native" / "manifest.json")
        assert len(events) == 0 and len(masks) == 3 and manifest.source == layout

    def test_import_evimo_empty_files_warn_nothing(self, tmp_path, rng):
        # np.loadtxt warns "input contained no data" on an empty file; the
        # importer reads it as no rows, which is not worth a warning.
        src = tmp_path / "evimo"
        build_evimo_fixture(src, rng)
        (src / "events.txt").write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            import_evimo(src, tmp_path / "native")
            (src / "timestamps.txt").write_text("")
            with pytest.raises(ParseError, match="3 masks but 0 timestamps"):
                import_evimo(src, tmp_path / "native2")

    @pytest.mark.parametrize("change, match", [
        ("not_n_by_4", r"events\.npy: expected shape \(N, 4\), got \(200, 3\)$"),
        ("bad_polarity", r"events\.npy: polarity column must be 0/1 or -1/1$"),
        ("no_masks", r"^no \.pgm masks found in .*masks$"),
        ("mask_count", r"^2 masks but 3 timestamps$"),
    ])
    def test_import_mod_rejects(self, tmp_path, rng, change, match):
        src = tmp_path / "mod"
        build_evimo_fixture(src, rng)
        raw = np.loadtxt(src / "events.txt")
        if change == "not_n_by_4":
            raw = raw[:, :3]
        elif change == "bad_polarity":
            raw[5, 3] = 2.0
        for i in {"no_masks": range(3), "mask_count": [2]}.get(change, []):
            (src / "masks" / mask_filename(i)).unlink()
        np.save(src / "events.npy", raw)
        np.save(src / "timestamps.npy", np.loadtxt(src / "timestamps.txt"))
        with pytest.raises(ParseError, match=match) as info:
            import_mod(src, tmp_path / "native")
        if change != "mask_count":  # the one message without a path
            assert str(src) in str(info.value)
        assert not (tmp_path / "native").exists()

    def test_import_mod_fixture(self, tmp_path, rng):
        src = tmp_path / "mod"
        src.mkdir()
        (src / "meta.json").write_text(json.dumps({"width": 32, "height": 24}))
        raw = np.zeros((100, 4))
        raw[:, 0] = np.sort(rng.random(100)) * 0.2
        raw[:, 1] = rng.integers(0, 32, 100)
        raw[:, 2] = rng.integers(0, 24, 100)
        raw[:, 3] = rng.choice([-1, 1], 100)
        np.save(src / "events.npy", raw)
        np.save(src / "timestamps.npy", np.array([0.1, 0.2]))
        mask_dir = src / "masks"
        mask_dir.mkdir()
        for i in range(2):
            write_mask((rng.random((24, 32)) < 0.2).astype(np.uint8), mask_dir / mask_filename(i))
        manifest = import_mod(src, tmp_path / "native")
        assert manifest.source == "mod"
        assert manifest.mask_timestamps == (100_000, 200_000)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=10,
)
MANIFEST_DOCS = st.fixed_dictionaries(
    {"geometry": st.fixed_dictionaries({"width": JSON_VALUES, "height": JSON_VALUES})
     | JSON_VALUES},
    optional={k: JSON_VALUES for k in ("event_file", "mask_dir", "mask_timestamps", "source")},
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestFuzz:
    """Arbitrary bytes never raise anything but OmsError from the readers."""

    @staticmethod
    def only_oms_errors(read, path, data):
        path.write_bytes(data)
        try:
            read(path)
        except OmsError:
            pass

    @given(data=st.binary(max_size=200)
           | st.binary(max_size=120).map(lambda b: b"EVT1" + b)
           | st.binary(max_size=60).map(lambda b: b"P5" + b)
           | st.text("0123456789,-+ _\nte", max_size=80).map(lambda t: ("t,x,y,p\n" + t).encode())
           | st.lists(st.lists(st.integers(-2**65, 2**65), min_size=4, max_size=4), max_size=3)
             .map(lambda rows: "\n".join(["t,x,y,p"] + [",".join(map(str, r)) for r in rows])
                  .encode()))
    @settings(max_examples=300, deadline=None)
    def test_read_events(self, fuzz_path, data):
        self.only_oms_errors(read_events, fuzz_path, data)

    @given(data=st.binary(max_size=200)
           | st.binary(max_size=60).map(lambda b: b"P5" + b)
           | st.tuples(st.integers(-3, 12), st.integers(-3, 12), st.integers(-1, 300),
                       st.binary(max_size=100))
             .map(lambda a: b"P5\n%d %d\n%d\n" % a[:3] + a[3]),
           geometry=st.none() | st.just(SensorGeometry(4, 3)))
    @settings(max_examples=300, deadline=None)
    def test_read_mask(self, fuzz_path, data, geometry):
        self.only_oms_errors(lambda p: read_mask(p, geometry), fuzz_path, data)

    @given(data=st.binary(max_size=200)
           | JSON_VALUES.map(lambda v: json.dumps(v).encode())
           | MANIFEST_DOCS.map(lambda v: json.dumps(v).encode()))
    @settings(max_examples=300, deadline=None)
    def test_manifest_load(self, fuzz_path, data):
        self.only_oms_errors(DatasetManifest.load, fuzz_path, data)
