"""File formats: CHF1 binary snapshots, PGM grayscale export, energy CSV, and
``create_file``, through which the package writes every output.

CHF1 is a one-line ASCII header followed by the raw payload:

    CHF1 <mx> <my> <L> <t>\\n

then mx*my little-endian float64 values in row-major (x-major) order.  The
header floats are written with ``repr`` so the round trip is exact and the
bytes are platform-independent; rewriting the same field must produce an
identical file.
"""

from __future__ import annotations

import dataclasses
import math
import os
from pathlib import Path
from typing import IO

import numpy as np

from .diagnostics import EnergyRecord
from .grid import Field, GridSpec

__all__ = [
    "SnapshotFormatError",
    "fmt17",
    "csv_line",
    "create_file",
    "write_snapshot",
    "read_snapshot",
    "ENERGY_CSV_HEADER",
    "EnergyCsvWriter",
]

_MAGIC = "CHF1"
_MAX_HEADER = 256  # bytes in the header line, before its newline


class SnapshotFormatError(ValueError):
    """Malformed snapshot header, or a payload of the wrong size or with non-finite values."""


def fmt17(x: float) -> str:
    """Float to text with 17 significant digits (round-trips in IEEE double)."""
    return f"{x:.17g}"


def csv_line(values) -> str:
    """One CSV line with its newline: a string as is, None as an empty cell, and
    any other value with ``fmt17``, which prints an integer as is."""
    return ",".join(
        v if isinstance(v, str) else "" if v is None else fmt17(v) for v in values
    ) + "\n"


def create_file(path: str | os.PathLike, mode: str = "x", **kwargs) -> IO:
    """Open a new file at ``path`` to write (``mode`` "x" or "xb"), after removing
    the file that had the name, if any; ``kwargs`` go to ``open``.

    A new file, not the old one truncated: on ext4 (``auto_da_alloc``) a
    truncation or a rename over a file forces its writeback, and the next
    truncation of the file waits for it: tens of ms per file from the third
    rewrite on, where unlink and create cost about 0.1 ms.  So a hard link or
    symlink to an earlier output keeps the old file, and the output is a new
    regular file with default permissions.  A directory at ``path`` raises
    IsADirectoryError (an OSError).
    """
    Path(path).unlink(missing_ok=True)
    return open(path, mode, **kwargs)


def write_snapshot(field: Field, path: str | os.PathLike, t: float, format: str = "chf") -> None:
    """Write a field as a CHF1 snapshot or an 8-bit PGM image."""
    if format == "chf":
        _write_chf(field, path, t)
    elif format == "pgm":
        _write_pgm(field, path)
    else:
        raise ValueError(f"unknown snapshot format {format!r}")


def _write_chf(field: Field, path: str | os.PathLike, t: float) -> None:
    mx, my = field.values.shape
    header = f"{_MAGIC} {mx} {my} {field.grid.L!r} {t!r}\n"
    with create_file(path, "xb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def _read_header_line(fh: IO[bytes]) -> str:
    line = fh.readline(_MAX_HEADER + 1)
    raw = line.removesuffix(b"\n")
    if len(raw) > _MAX_HEADER:
        raise SnapshotFormatError("header line too long")
    if raw == line:
        raise SnapshotFormatError("unexpected end of file in header")
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"header is not ASCII: {exc}") from exc


def read_snapshot(path: str | os.PathLike) -> tuple[Field, float]:
    """Read a CHF1 snapshot; returns the field and the time stored with it."""
    with open(path, "rb") as fh:
        parts = _read_header_line(fh).split()
        if len(parts) != 5 or parts[0] != _MAGIC:
            raise SnapshotFormatError(f"not a {_MAGIC} snapshot: {path}")
        try:
            mx, my = int(parts[1]), int(parts[2])
            L, t = float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise SnapshotFormatError(f"bad header fields in {path}: {parts[1:]}") from exc
        if mx != my:
            raise SnapshotFormatError(f"non-square snapshot {mx}x{my} not supported")
        if mx < 2 or not (math.isfinite(L) and L > 0) or not math.isfinite(t):
            raise SnapshotFormatError(
                f"bad header values in {path}: need m >= 2, finite L > 0 and finite t, "
                f"got m={mx}, L={L!r}, t={t!r}"
            )
        size = mx * my * 8
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining != size:  # checked before reading, so a huge header allocates nothing
            raise SnapshotFormatError(
                f"payload of {path} is {remaining} bytes, but a {mx}x{my} grid needs {size}"
            )
        values = np.frombuffer(fh.read(size), dtype="<f8").reshape(mx, my)
    if not np.all(np.isfinite(values)):
        raise SnapshotFormatError(f"non-finite values in the payload of {path}")
    grid = GridSpec(L=L, m=mx)
    return Field(grid, values.copy()), t


def _write_pgm(field: Field, path: str | os.PathLike) -> None:
    """8-bit grayscale: phi in [-1, 1] mapped linearly to [0, 255], clamped.

    Image rows run top to bottom, so the y axis is flipped to keep y pointing
    up; x indexes columns.
    """
    clipped = np.clip(field.values, -1.0, 1.0)
    img = np.rint(255.0 * (clipped + 1.0) / 2.0).astype(np.uint8)
    img = img.T[::-1]
    h, w = img.shape
    with create_file(path, "xb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


_ENERGY_FIELDS = tuple(f.name for f in dataclasses.fields(EnergyRecord))
ENERGY_CSV_HEADER = csv_line(_ENERGY_FIELDS).rstrip("\n")


class EnergyCsvWriter:
    """Streams energy records to CSV, one flushed line per record.

    Flushing per row keeps the file usable for monitoring long runs and means
    an aborted run still leaves a valid prefix on disk.
    """

    def __init__(self, path: str | os.PathLike):
        self._fh = create_file(path, encoding="ascii", newline="\n")
        self._fh.write(csv_line(_ENERGY_FIELDS))
        self._fh.flush()

    def write(self, record: EnergyRecord) -> None:
        self._fh.write(csv_line(getattr(record, f) for f in _ENERGY_FIELDS))
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
