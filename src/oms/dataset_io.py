"""On-disk formats: native event files, PGM masks, dataset manifests, and
importers for EV-IMO- and MOD-style directory layouts.

Native event file (".evt"):
    16-byte header: magic "EVT1", width (u16 LE), height (u16 LE),
    8 reserved zero bytes; then 13-byte packed records
    t (u64 LE, microseconds), x (u16 LE), y (u16 LE), p (i8, -1 or +1).
    It is the one event file the package reads: EV-IMO and MOD recordings
    come in through import_evimo and import_mod. The reader and write_events
    check records by oms.events' one rule; read_events raises its
    ValidationError as a ParseError naming the file and the record's byte
    offset. Order is checked on write and when a stream is binned, not on
    read. `oms run` and `oms eval` read the body _CHUNK records at a time
    (_event_chunks).

Masks are binary PGM (P5, maxval 255): 0 background, 255 moving object.
Reads are tolerant (any nonzero byte decodes to 1, since public dataset
masks encode object ids as gray levels); writes are strict 0/255.

Output files are overwritten in place, then cut to length: a truncate to 0 makes
ext4 flush the file on close, and the next overwrite waits. Nothing is fsynced.
`oms run` writes run.json last, so an output directory without one holds an incomplete run.

The manifest is JSON with fields geometry {width, height}, event_file,
mask_dir, mask_timestamps (integers, microseconds), source.
"""

from __future__ import annotations

import functools
import json
import os
import re
import struct
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import OmsError, ParseError, ValidationError, _array, _json
from .events import EVENT_DTYPE, SensorGeometry, _as_geometry, _check_order, _check_records
from .events import _as_events, _check_timestamps, _decode_geometry, _from_columns

MAGIC = b"EVT1"
HEADER_SIZE = 16
RECORD_SIZE = EVENT_DTYPE.itemsize  # 13
FORMAT_VERSION = 1


def write_events(events: np.ndarray, geometry: SensorGeometry, path) -> None:
    """Write the native binary event format (checks order and records first)."""
    geometry = _as_geometry(geometry)
    ev = _checked_events(events, geometry)
    header = MAGIC + struct.pack("<HH", geometry.width, geometry.height) + b"\x00" * 8
    _write_file(path, header, np.ascontiguousarray(ev))  # no copy of the records


def _checked_events(events, geometry: SensorGeometry) -> np.ndarray:
    """events, once they are EVENT_DTYPE records in time order inside geometry."""
    ev = _as_events(events)
    _check_order(ev)
    _check_records(ev, geometry)
    return ev


def _write_file(path, *data) -> None:
    """Make the buffers data, in turn, the whole content of the file at path, in place:
    one writev, repeated after a short write, and a cut only if the file was longer."""
    parts = [memoryview(part).cast("B") for part in data]
    size = sum(map(len, parts))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        while parts:
            done = os.writev(fd, parts)
            while parts and done >= len(parts[0]):
                done -= len(parts.pop(0))
            if parts:
                parts[0] = parts[0][done:]
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _open(path, what: str):
    """open(path, "rb"), raising any OSError but FileNotFoundError as a ParseError."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"{path}: cannot read {what}: {exc.strerror}") from exc


_CHUNK = 16384  # records per read of a streamed event file: a 213 KB buffer


def read_events(path) -> np.ndarray:
    """Read a native binary event file into EVENT_DTYPE."""
    chunks = _event_chunks(Path(path), sys.maxsize)
    next(chunks)
    return next(chunks, np.empty(0, EVENT_DTYPE))


def _event_chunks(path: Path, size: int):
    """The records of a native event file as EVENT_DTYPE chunks of at most
    size records, after the header's geometry once the header is checked.
    Each chunk is read into one reused buffer, valid until the next read,
    and checked by the record check with that geometry. A ValidationError
    is raised as a ParseError naming the file."""
    try:
        with _open(path, "event file") as f:
            head = f.read(HEADER_SIZE)
            if head[:4] != MAGIC:
                raise ValidationError(f"bad magic at byte offset 0 (not {MAGIC!r})")
            if len(head) < HEADER_SIZE:
                raise ValidationError(f"truncated header at byte offset {len(head)}")
            geometry = SensorGeometry(*struct.unpack("<HH", head[4:8])).validate()
            n, tail = divmod(os.fstat(f.fileno()).st_size - HEADER_SIZE, RECORD_SIZE)
            at = lambda i: f"byte offset {HEADER_SIZE + i * RECORD_SIZE}"
            if tail:
                raise ValidationError(f"truncated record at {at(n)}")
            yield geometry
            buf = np.empty(min(size, n), dtype=EVENT_DTYPE)
            for start in range(0, n, size):
                chunk = buf[: n - start]
                got = f.readinto(chunk.view(np.uint8)) // RECORD_SIZE
                if got != len(chunk):  # the file was cut since its size was taken
                    raise ValidationError(f"truncated record at {at(start + got)}")
                _check_records(chunk, geometry, lambda i: at(start + i))
                yield chunk
    except ValidationError as exc:  # the checks name the record or byte, this the file
        raise ParseError(f"{path}: {exc}") from exc


# --- PGM masks -------------------------------------------------------------


def write_mask(mask: np.ndarray, path) -> None:
    """Write a {0,1} mask as binary PGM with values 0/255."""
    pixels = (_array(ValidationError, "mask", mask, 2) > 0).view(np.uint8)
    pixels *= 255  # in place: 0/255
    _write_pgm(pixels, path)


def _write_pgm(pixels: np.ndarray, path) -> None:
    """Write a C-contiguous 2D uint8 array as binary PGM (P5, maxval 255), without a copy."""
    h, w = pixels.shape
    _write_file(path, f"P5\n{w} {h}\n255\n".encode("ascii"), pixels)


# Magic, width, height and maxval, separated by whitespace and by comments
# that run from "#" through their newline, then one whitespace byte. Each
# byte can be read only one way, so a match takes linear time.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def read_mask(path, geometry: SensorGeometry | None = None) -> np.ndarray:
    """Read a binary PGM into a {0,1} uint8 mask (any nonzero byte -> 1)."""
    return (_read_pgm(Path(path), geometry) > 0).astype(np.uint8)


def _read_pgm(path, geometry: SensorGeometry | None = None) -> np.ndarray:
    """read_mask's checked pixel bytes, undecoded: a read-only (h, w) uint8
    view. Messages name path as given (read_mask gives a Path)."""
    with _open(path, "mask file") as f:
        data = f.read()
    if data[:2] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: malformed or truncated PGM header")
    w, h, maxval = (int(t) for t in header.groups())
    if w < 1 or h < 1:
        raise ParseError(f"{path}: PGM size {w}x{h} is not at least 1x1")
    if maxval > 255:
        raise ParseError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if len(data) - header.end() < w * h:
        raise ParseError(f"{path}: truncated pixel data at byte offset {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=header.end(), count=w * h).reshape(h, w)
    if geometry is not None and (w, h) != (geometry.width, geometry.height):
        raise ParseError(f"{path}: mask is {w}x{h}, manifest geometry is "
                         f"{geometry.width}x{geometry.height}")
    return pixels


# --- manifests and whole datasets -------------------------------------------


def _read_json(path, what: str, decode=dict):
    """decode(doc) for the JSON object doc in a UTF-8 file. ParseError names
    the path when the file is missing, cannot be read, is not UTF-8 JSON or
    not an object, and when decode raises KeyError or an OmsError."""
    path = Path(path)
    try:
        with _open(path, what) as f:
            doc = json.loads(f.read().decode("utf-8"))
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: {what} not found") from exc
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ParseError(f"{path}: malformed {what}: {exc}") from exc
    try:
        return decode(_json(what, doc))
    except KeyError as exc:
        raise ParseError(f"{path}: malformed {what}: missing field {exc}") from exc
    except OmsError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def mask_filename(index: int) -> str:
    return f"mask_{index:05d}.pgm"


@dataclass(frozen=True)
class DatasetManifest:
    geometry: SensorGeometry
    event_file: str
    mask_dir: str
    mask_timestamps: tuple[int, ...]
    source: str = "native"

    def __post_init__(self):
        object.__setattr__(self, "geometry", _as_geometry(self.geometry))
        for name in ("event_file", "mask_dir", "source"):
            _json(name, getattr(self, name), str, ValidationError)
        object.__setattr__(self, "mask_timestamps",
                           tuple(_check_timestamps(self.mask_timestamps).tolist()))

    def save(self, path) -> None:
        doc = {**asdict(self), "geometry": self.geometry._asdict()}
        _write_file(path, (json.dumps(doc, indent=2) + "\n").encode())

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        return _read_json(path, "manifest", lambda doc: cls(
            _decode_geometry(doc["geometry"]), doc["event_file"], doc["mask_dir"],
            _json("mask_timestamps", doc["mask_timestamps"], list),
            doc.get("source", "native")))

    def resolve(self, base) -> tuple[Path, Path]:
        """Event file and mask dir paths, relative to the manifest location."""
        base = Path(base)
        return base / self.event_file, base / self.mask_dir


def write_dataset(
    out_dir,
    events: np.ndarray,
    geometry: SensorGeometry,
    masks: Sequence[np.ndarray],
    timestamps: Sequence[int],
    source: str = "native",
) -> Path:
    """Check every input, then write events + masks + manifest into out_dir;
    returns the manifest path."""
    if len(masks) != len(timestamps):
        raise ValidationError(f"{len(masks)} masks but {len(timestamps)} timestamps")
    manifest = DatasetManifest(geometry=geometry, event_file="events.evt", mask_dir="masks",
                               mask_timestamps=tuple(timestamps), source=source)
    _checked_events(events, manifest.geometry)
    for i, mask in enumerate(masks):
        shape = _array(ValidationError, f"mask {i}", mask).shape
        if shape != manifest.geometry.shape:
            raise ValidationError(f"mask {i} has shape {shape}, expected {manifest.geometry.shape}")
    mask_dir = Path(out_dir) / "masks"
    mask_dir.mkdir(parents=True, exist_ok=True)  # and out_dir
    write_events(events, geometry, mask_dir.parent / "events.evt")
    for i, mask in enumerate(masks):
        write_mask(mask, mask_dir / mask_filename(i))
    manifest_path = mask_dir.parent / "manifest.json"
    manifest.save(manifest_path)
    return manifest_path


def _path_prefix(directory) -> str:
    """The text before a file name in str(Path(directory) / name): the paths
    of a directory's masks are built as strings, without a Path each."""
    return str(Path(directory) / "_")[:-1]


def _read_masks(manifest: DatasetManifest, manifest_path, read=read_mask):
    """The dataset's ground-truth masks, one per mask timestamp, each read by read when asked."""
    mask_dir = _path_prefix(manifest.resolve(Path(manifest_path).parent)[1])
    return (read(mask_dir + mask_filename(i), manifest.geometry)
            for i in range(len(manifest.mask_timestamps)))


# --- external dataset importers ---------------------------------------------


def _loadtxt(ndmin: int, path) -> np.ndarray:
    """The whitespace-separated fields of a text file as strings; an empty
    file gives no rows and no "input contained no data" warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, dtype=str, ndmin=ndmin)


# source tag: (event file, timestamp file, event loader, timestamp loader,
#              accepted polarity encodings as (off, on) pairs)
_LAYOUTS = {
    "evimo": ("events.txt", "timestamps.txt", functools.partial(_loadtxt, 2),
              functools.partial(_loadtxt, 1), ((0, 1),)),
    "mod": ("events.npy", "timestamps.npy", np.load, np.load, ((0, 1), (-1, 1))),
}


def _numbers(load, path: Path, what: str) -> np.ndarray:
    """load(path) as float64; ParseError names the first row that is not numeric."""
    raw = np.empty(0)  # stays empty when the load itself fails
    try:
        raw = load(path)
        return raw.astype(np.float64)
    except (TypeError, ValueError) as exc:  # a non-numeric row, or ragged rows
        for i, row in enumerate(np.atleast_1d(raw)):
            try:
                np.asarray(row, np.float64)
            except (TypeError, ValueError):
                raise ParseError(f"{path}: {what} {i}: {row.tolist()!r} is not numeric") from exc
        raise ParseError(f"{path}: {exc}") from exc


def _microseconds(seconds: np.ndarray, path: Path, what: str) -> np.ndarray:
    """Seconds as int64 us; ParseError names a value outside [0, 2^63) us."""
    us = np.round(seconds * 1e6)
    bad = np.flatnonzero(~((us >= 0) & (us < 2.0 ** 63)))  # checked before the cast wraps
    if bad.size:
        raise ParseError(f"{path}: {what} {bad[0]}: t={seconds[bad[0]]} s is not in [0, 2^63) us")
    return us.astype(np.int64)


def _import(source: str, src_dir, out_dir) -> DatasetManifest:
    """Convert one external layout to the native one. Event rows are t [s],
    x, y, p; x and y must be integers inside the sensor before the u16 cast."""
    event_file, timestamp_file, load_events, load_timestamps, polarities = _LAYOUTS[source]
    src = Path(src_dir)
    missing = [n for n in (event_file, timestamp_file, "masks") if not (src / n).exists()]
    if missing:
        raise ParseError(f"{src}: missing required entries: {', '.join(missing)}")
    geometry = _read_meta_geometry(src)
    path = src / event_file
    raw = _numbers(load_events, path, "event")
    if raw.size == 0:
        raw = raw.reshape(0, 4)
    if raw.ndim != 2 or raw.shape[1] != 4:
        raise ParseError(f"{path}: expected shape (N, 4), got {raw.shape}")
    t, x, y, p = raw.T
    for name, col, size in (("x", x, geometry.width), ("y", y, geometry.height)):
        bad = ~((col >= 0) & (col < size) & (col == np.floor(col)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ParseError(f"{path}: event {i}: {name}={col[i]!r} is not an integer "
                             f"in [0, {size})")
    on = next((on for off, on in polarities if np.isin(p, (off, on)).all()), None)
    if on is None:
        codes = " or ".join(f"{off}/{on}" for off, on in polarities)
        raise ParseError(f"{path}: polarity column must be {codes}")
    mask_files = sorted((src / "masks").glob("*.pgm"))
    if not mask_files:
        raise ParseError(f"no .pgm masks found in {src / 'masks'}")
    masks = [read_mask(f, geometry) for f in mask_files]
    ts_path = src / timestamp_file
    ts = _microseconds(_numbers(load_timestamps, ts_path, "timestamp"), ts_path, "timestamp")
    if ts.ndim != 1:
        raise ParseError(f"{ts_path}: expected a 1-D array of timestamps, got shape {ts.shape}")
    if len(ts) != len(masks):
        raise ParseError(f"{len(masks)} masks but {len(ts)} timestamps")
    t_us = _microseconds(t, path, "event")
    order = np.argsort(t_us, kind="stable")
    events = _from_columns(t_us[order], x[order], y[order], np.where(p[order] == on, 1, -1))
    manifest_path = write_dataset(out_dir, events, geometry, masks, ts, source=source)
    return DatasetManifest.load(manifest_path)


def import_evimo(src_dir, out_dir) -> DatasetManifest:
    """Convert an EV-IMO-style directory to the native layout.

    Expected layout (documented in the README):
      events.txt      whitespace-separated "t x y p" rows, t in seconds
                      (float), p in {0, 1}
      timestamps.txt  one mask timestamp in seconds per line
      masks/*.pgm     one mask per timestamp, sorted by filename
      meta.json       optional {"width": W, "height": H}; default 346x260
    """
    return _import("evimo", src_dir, out_dir)


def import_mod(src_dir, out_dir) -> DatasetManifest:
    """Convert a MOD-style directory to the native layout.

    Expected layout (documented in the README):
      events.npy      float array of shape (N, 4): t [s], x, y, p with
                      p in {-1, +1} (0/1 also accepted)
      timestamps.npy  float array of mask timestamps in seconds
      masks/*.pgm     one mask per timestamp, sorted by filename
      meta.json       optional {"width": W, "height": H}; default 346x260
    """
    return _import("mod", src_dir, out_dir)


def _read_meta_geometry(src: Path) -> SensorGeometry:
    """The geometry in src/meta.json, or 346x260 when there is none."""
    meta = src / "meta.json"
    if not meta.exists():
        return SensorGeometry(346, 260)
    return _read_json(meta, "meta file", _decode_geometry)
