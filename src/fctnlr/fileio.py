"""Binary tensor/mask containers, mask sampling, CSV reports, frame import.

Container layout (all little-endian): magic ``FCTN``, format version (u32),
element code (u32; 1 = float64, 2 = mask byte), order (u32), one u64 extent
per mode, then the payload linearized first-index-fastest.  Mask payloads use
one byte per entry, strictly 0 or 1.  Writes go through a tempfile in the
target directory followed by an atomic rename, so readers never observe a
partial file.
"""
from __future__ import annotations

import csv
import io
import math
import os
import struct
import tempfile

import numpy as np

__all__ = [
    "MAGIC",
    "import_frames",
    "read_mask",
    "read_pnm",
    "read_tensor",
    "sample_mask",
    "write_mask",
    "write_report_csv",
    "write_tensor",
]

MAGIC = b"FCTN"
FORMAT_VERSION = 1
ELEM_F64 = 1
ELEM_MASK = 2
_HEADER = struct.Struct("<4sIII")
# file extensions of the netpbm frames import_frames stacks
FRAME_EXTS = (".pgm", ".ppm")


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".fctn-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pack(arr: np.ndarray, elem: int, payload: bytes) -> bytes:
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, elem, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return head + extents + payload


def _unpack_header(blob: bytes, path: str):
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, elem, order = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if order < 1:
        raise ValueError(f"{path}: order must be >= 1")
    need = _HEADER.size + 8 * order
    if len(blob) < need:
        raise ValueError(f"{path}: truncated extent list")
    extents = struct.unpack_from(f"<{order}Q", blob, _HEADER.size)
    if any(e < 1 for e in extents):
        raise ValueError(f"{path}: zero extent")
    return elem, extents, blob[need:]


def write_tensor(path: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    payload = np.asfortranarray(arr).astype("<f8", copy=False).tobytes(order="F")
    _atomic_write(path, _pack(arr, ELEM_F64, payload))


def read_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    elem, extents, payload = _unpack_header(blob, path)
    if elem != ELEM_F64:
        raise ValueError(f"{path}: element code {elem} is not a float64 tensor")
    count = math.prod(extents)  # Python ints: u64 extents must not wrap
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {8 * count}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return flat.reshape(extents, order="F")


def write_mask(path: str, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    payload = np.asfortranarray(mask).astype(np.uint8).tobytes(order="F")
    _atomic_write(path, _pack(mask, ELEM_MASK, payload))


def read_mask(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    elem, extents, payload = _unpack_header(blob, path)
    if elem != ELEM_MASK:
        raise ValueError(f"{path}: element code {elem} is not a mask")
    count = math.prod(extents)  # Python ints: u64 extents must not wrap
    if len(payload) != count:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {count}")
    flat = np.frombuffer(payload, dtype=np.uint8)
    if not np.all((flat == 0) | (flat == 1)):
        raise ValueError(f"{path}: mask bytes must be strictly 0 or 1")
    return flat.astype(bool).reshape(extents, order="F")


def sample_mask(shape, sample_rate: float, seed: int) -> np.ndarray:
    """Uniform observation mask with exactly round(sample_rate * total)
    entries set, drawn without replacement from the seeded generator."""
    shape = tuple(int(s) for s in shape)
    total = int(np.prod(shape, dtype=np.int64))
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError("sample_rate must lie in (0, 1]")
    count = int(round(sample_rate * total))
    if count < 1:
        raise ValueError(f"sample_rate {sample_rate} keeps no entry of {shape}")
    rng = np.random.default_rng(seed)
    flat = np.zeros(total, dtype=bool)
    flat[rng.permutation(total)[:count]] = True
    return flat.reshape(shape, order="F")


def write_report_csv(path: str, rows, fieldnames) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


# ---------- netpbm frame import ---------- #


def _pnm_tokens(blob: bytes):
    """Yield header tokens, skipping whitespace and # comments."""
    i = 0
    n = len(blob)
    while i < n:
        c = blob[i : i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            while i < n and blob[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < n and not blob[j : j + 1].isspace():
            j += 1
        yield blob[i:j], j
        i = j


def _unsigned(tok: bytes, path: str) -> int:
    """A header or ASCII raster token, which must be an unsigned decimal."""
    if not tok.isdigit():
        raise ValueError(f"{path}: token {tok!r} is not an unsigned decimal")
    return int(tok)


def read_pnm(path: str) -> np.ndarray:
    """Read one P2/P3 (ASCII) or P5/P6 (binary) image as float64 in [0, 1],
    shape (rows, cols, channels)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    toks = _pnm_tokens(blob)
    try:
        magic, _ = next(toks)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported netpbm type {magic!r}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    binary = magic in (b"P5", b"P6")
    try:
        (w_tok, _), (h_tok, _), (m_tok, end) = next(toks), next(toks), next(toks)
    except StopIteration:
        raise ValueError(f"{path}: truncated header") from None
    width, height, maxval = (_unsigned(t, path) for t in (w_tok, h_tok, m_tok))
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad maxval {maxval}")
    count = width * height * channels
    if binary:
        # exactly one whitespace byte separates maxval from the raster
        data = blob[end + 1 :]
        if maxval < 256:
            raw = np.frombuffer(data[:count], dtype=np.uint8)
        else:
            raw = np.frombuffer(data[: 2 * count], dtype=">u2")
        if raw.size != count:
            raise ValueError(f"{path}: truncated raster")
    else:
        rest = [_unsigned(t, path) for t, _ in toks]
        if len(rest) < count:
            raise ValueError(f"{path}: truncated raster")
        raw = np.asarray(rest[:count], dtype=np.int64)
    if raw.max(initial=0) > maxval:
        raise ValueError(f"{path}: sample exceeds maxval")
    img = raw.astype(np.float64).reshape((height, width, channels)) / float(maxval)
    return img


def import_frames(directory: str) -> np.ndarray:
    """Stack every netpbm frame (:data:`FRAME_EXTS`) in a directory, sorted by
    filename, into an order-4 tensor (rows, cols, channels, frames)."""
    names = sorted(
        f
        for f in os.listdir(directory)
        if os.path.splitext(f)[1].lower() in FRAME_EXTS
    )
    if not names:
        raise ValueError(f"{directory}: no netpbm frames found")
    frames = [read_pnm(os.path.join(directory, f)) for f in names]
    shape = frames[0].shape
    for name, fr in zip(names, frames):
        if fr.shape != shape:
            raise ValueError(f"{name}: frame shape {fr.shape} differs from {shape}")
    return np.asfortranarray(np.stack(frames, axis=-1))
