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
import re
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
    """Write ``data`` to ``path`` through a tempfile renamed over it.  The
    file gets the mode ``open(path, "wb")`` would leave: the replaced file's
    permission bits, else ``0o666`` less the umask (the tempfile is made
    0600)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".fctn-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            mode = os.stat(path).st_mode & 0o777
        except FileNotFoundError:
            umask = os.umask(0o077)  # read by setting it, so set a strict one meanwhile
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# element code -> (payload dtype, what it holds, array dtype)
_ELEMS = {
    ELEM_F64: ("<f8", "a float64 tensor", np.float64),
    ELEM_MASK: (np.uint8, "a mask", bool),
}


def _write(path: str, arr: np.ndarray, elem: int) -> None:
    arr = arr.reshape(arr.shape or (1,))  # a 0-d array as order 1, extent 1
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, elem, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype(_ELEMS[elem][0], copy=False).tobytes(order="F")
    _atomic_write(path, head + extents + payload)


def _read(path: str, elem: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, code, order = _HEADER.unpack_from(blob, 0)
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
    stored, holds, dtype = _ELEMS[elem]
    if code != elem:
        raise ValueError(f"{path}: element code {code} is not {holds}")
    # Python ints: u64 extents must not wrap
    size = np.dtype(stored).itemsize * math.prod(extents)
    if len(blob) - need != size:
        raise ValueError(f"{path}: payload has {len(blob) - need} bytes, expected {size}")
    flat = np.frombuffer(blob, dtype=stored, offset=need)
    if elem == ELEM_MASK and not np.all((flat == 0) | (flat == 1)):
        raise ValueError(f"{path}: mask bytes must be strictly 0 or 1")
    return flat.astype(dtype).reshape(extents, order="F")


def write_tensor(path: str, arr: np.ndarray) -> None:
    _write(path, np.asarray(arr, dtype=np.float64), ELEM_F64)


def read_tensor(path: str) -> np.ndarray:
    return _read(path, ELEM_F64)


def write_mask(path: str, mask: np.ndarray) -> None:
    _write(path, np.asarray(mask, dtype=bool), ELEM_MASK)


def read_mask(path: str) -> np.ndarray:
    return _read(path, ELEM_MASK)


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


_PNM_TOKEN = re.compile(rb"#[^\r\n]*|\S+")


def _pnm_tokens(blob: bytes):
    """The tokens of a netpbm file with their end offsets, skipping
    whitespace and # comments."""
    return ((m[0], m.end()) for m in _PNM_TOKEN.finditer(blob) if m[0][:1] != b"#")


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
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        data = blob[end + 1 : end + 1 + dtype.itemsize * count]
        # counted in bytes, so a raster cut inside a 16-bit sample is caught
        if len(data) != dtype.itemsize * count:
            raise ValueError(f"{path}: truncated raster")
        raw = np.frombuffer(data, dtype=dtype)
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
