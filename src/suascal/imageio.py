"""Raster I/O: 16-bit binary PGM frames and float32 radiance planes.

Raw camera frames travel as binary PGM (P5) with a 16-bit maxval and
big-endian sample order, per the netpbm convention.  Derived planes travel
as headerless little-endian float32, row-major, with a small JSON sidecar
(`<name>.json`) recording width, height, band and units so the planes stay
self-describing without inventing a container format.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import ImageFormatError, ManifestError
from .jsonread import json_field, read_json, write_json

# magic, width, height, maxval -- comments (# ...) allowed between tokens.
_PGM_HEADER = re.compile(
    rb"^(P5)\s(?:\s*#.*[\r\n])*"
    rb"\s*(\d+)\s(?:\s*#.*[\r\n])*"
    rb"\s*(\d+)\s(?:\s*#.*[\r\n])*"
    rb"\s*(\d+)\s")


def read_pgm16(path) -> np.ndarray:
    """Read a binary 16-bit PGM into a ``uint16`` array of shape (h, w).

    The file is read into one buffer and the samples are converted to
    native byte order in place, so the array is a view of that buffer.

    Raises
    ------
    ImageFormatError
        On an unreadable file, a bad magic number, an 8-bit maxval, or
        truncated pixel data.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            buffer = np.empty(os.fstat(handle.fileno()).st_size, np.uint8)
            buffer = buffer[:handle.readinto(buffer)]
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ImageFormatError(f"{path}: cannot read: {reason}") from exc
    match = _PGM_HEADER.match(buffer)
    if not match:
        magic = bytes(buffer[:2])
        if magic == b"P5":
            raise ImageFormatError(f"{path}: incomplete PGM header")
        raise ImageFormatError(
            f"{path}: not a binary PGM (magic {magic!r}, expected b'P5')")
    try:
        width, height, maxval = (int(match.group(i)) for i in (2, 3, 4))
    except ValueError:  # more digits than int() converts
        raise ImageFormatError(f"{path}: header number too long") from None
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 256 <= maxval <= 65535:
        raise ImageFormatError(
            f"{path}: maxval {maxval} is not 16-bit (expected 256..65535)")
    offset = match.end()
    expected = width * height
    available = (len(buffer) - offset) // 2
    if available < expected:
        raise ImageFormatError(
            f"{path}: truncated pixel data ({available} of {expected} "
            "samples)")
    samples = buffer[offset:offset + 2 * expected]
    pixels = samples.view(np.uint16)
    # Big-endian to native in place: numpy assigns overlapping arrays as
    # if from a copy, and on one flat run it needs none.  This cast is
    # several times faster than ndarray.byteswap.
    pixels[...] = samples.view(">u2")
    return pixels.reshape((height, width))


def pgm16_header(width: int, height: int) -> bytes:
    """The header of a binary 16-bit PGM of ``width`` x ``height``."""
    return f"P5\n{width} {height}\n65535\n".encode("ascii")


def rows_writer(handle, dtype):
    """A sink that appends each 2-D block of rows it is called with to
    ``handle``, cast to ``dtype``.

    The cast goes through one buffer, sized by the first block, so every
    later block must be no taller and as wide.
    """
    buffer = None

    def write(rows: np.ndarray) -> None:
        nonlocal buffer
        if buffer is None:
            buffer = np.empty(rows.shape, dtype=dtype)
        view = buffer[:len(rows)]
        view[...] = rows
        handle.write(view)

    return write


def sidecar_path(path) -> Path:
    """Where the JSON sidecar of the plane at ``path`` lives."""
    return Path(str(path) + ".json")


def write_sidecar(path, shape: tuple[int, int], band_index: int,
                  units: str) -> None:
    """Write the JSON sidecar describing a float32 plane of ``shape``."""
    height, width = shape
    sidecar = {
        "width": int(width),
        "height": int(height),
        "band_index": int(band_index),
        "units": units,
        "dtype": "float32",
        "byte_order": "little-endian",
        "layout": "row-major",
    }
    write_json(sidecar_path(path), sidecar)


def write_plane(path, pixels: np.ndarray, band_index: int, units: str) -> None:
    """Write a float32 little-endian plane plus its JSON sidecar."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ImageFormatError("plane output requires a 2-D array")
    with Path(path).open("wb") as handle:
        rows_writer(handle, "<f4")(pixels)
    write_sidecar(path, pixels.shape, band_index, units)


def read_plane(path) -> tuple[np.ndarray, dict]:
    """Read a float32 plane; returns ``(float64 array, sidecar dict)``.

    Raises
    ------
    ImageFormatError
        If the sidecar is missing or the plane's size disagrees with it.
    ManifestError
        If the sidecar is not a JSON object whose ``width`` and ``height``
        are positive integers.
    """
    path = Path(path)
    sidecar_file = sidecar_path(path)
    if not sidecar_file.exists():
        raise ImageFormatError(f"{path}: missing sidecar {sidecar_file.name}")
    sidecar = read_json(sidecar_file)
    width, height = (json_field(sidecar, key, int, str(sidecar_file))
                     for key in ("width", "height"))
    if width <= 0 or height <= 0:
        raise ManifestError(
            f"{sidecar_file}: 'width' and 'height' must be positive, got "
            f"{width}x{height}")
    buffer = path.read_bytes()
    if len(buffer) != width * height * 4:
        raise ImageFormatError(
            f"{path}: {len(buffer)} bytes, sidecar declares {width}x{height} "
            "float32 samples")
    data = np.frombuffer(buffer, dtype="<f4")
    return data.reshape((height, width)).astype(np.float64), sidecar
