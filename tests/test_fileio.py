"""Tests for the binary containers, mask sampling, CSV reports, and the
netpbm frame importer."""
import csv
import math
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fctnlr import fileio
from oracles import pnm_tokens
from fctnlr.fileio import (
    import_frames,
    read_mask,
    read_pnm,
    read_tensor,
    sample_mask,
    write_mask,
    write_report_csv,
    write_tensor,
)


def test_tensor_roundtrip_bit_exact(tmp_path):
    for seed, shape in enumerate([(5,), (3, 4), (2, 3, 4), (2, 3, 2, 2)]):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        path = str(tmp_path / f"t{seed}.fctn")
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.shape == x.shape
        assert np.array_equal(back, x)
        assert back.dtype == np.float64


def test_tensor_roundtrip_handles_views(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 5, 6)).transpose(2, 0, 1)
    path = str(tmp_path / "view.fctn")
    write_tensor(path, x)
    assert np.array_equal(read_tensor(path), x)


def test_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    mask = rng.random((4, 3, 5)) < 0.4
    path = str(tmp_path / "m.fctn")
    write_mask(path, mask)
    back = read_mask(path)
    assert back.dtype == bool
    assert np.array_equal(back, mask)


# format-version-1 containers, byte for byte: magic, version, element code,
# order, the u64 extents, then the payload first-index-fastest; a 0-d tensor
# or mask is stored as order 1, extent 1
GOLDEN = [
    ("2x3", write_tensor, read_tensor, np.array([[0.5, -1.0, 2.0], [3.25, 0.0, -0.125]]),
     "4643544e 01000000 01000000 02000000 0200000000000000 0300000000000000"
     " 000000000000e03f 0000000000000a40 000000000000f0bf"
     " 0000000000000000 0000000000000040 000000000000c0bf"),
    ("scalar", write_tensor, read_tensor, np.float64(-2.5),
     "4643544e 01000000 01000000 01000000 0100000000000000 00000000000004c0"),
    ("mask", write_mask, read_mask, np.array([[True, False, True], [False, True, True]]),
     "4643544e 01000000 02000000 02000000 0200000000000000 0300000000000000"
     " 010000010101"),
    ("scalar-mask", write_mask, read_mask, np.bool_(True),
     "4643544e 01000000 02000000 01000000 0100000000000000 01"),
]


@pytest.mark.parametrize("writer, reader, arr, hexed", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_containers_match_the_format_bytes(tmp_path, writer, reader, arr, hexed):
    """The writers emit these bytes and the readers take them back, so a
    change to both sides of the codec cannot pass by agreeing with itself."""
    path = str(tmp_path / "golden.fctn")
    writer(path, arr)
    assert open(path, "rb").read() == bytes.fromhex(hexed)
    back = reader(path)
    assert back.dtype == arr.dtype and back.shape == (np.shape(arr) or (1,))
    assert np.array_equal(back.ravel(), np.ravel(arr))


def test_header_validation(tmp_path):
    good = str(tmp_path / "good.fctn")
    write_tensor(good, np.ones((2, 2)))
    blob = open(good, "rb").read()

    def corrupted(data, name):
        p = str(tmp_path / name)
        with open(p, "wb") as fh:
            fh.write(data)
        return p

    with pytest.raises(ValueError):
        read_tensor(corrupted(b"XXXX" + blob[4:], "magic.fctn"))
    with pytest.raises(ValueError):
        bad_version = blob[:4] + struct.pack("<I", 99) + blob[8:]
        read_tensor(corrupted(bad_version, "version.fctn"))
    with pytest.raises(ValueError):
        read_tensor(corrupted(blob[:6], "trunc.fctn"))
    with pytest.raises(ValueError):
        read_tensor(corrupted(blob[:-8], "payload.fctn"))
    with pytest.raises(ValueError):
        zero_extent = blob[:16] + struct.pack("<QQ", 0, 2) + blob[32:]
        read_tensor(corrupted(zero_extent, "extent.fctn"))
    with pytest.raises(ValueError, match="order must be >= 1"):
        zero_order = blob[:12] + struct.pack("<I", 0) + blob[16:]
        read_tensor(corrupted(zero_order, "order.fctn"))


def test_element_code_cross_reads_rejected(tmp_path):
    tpath = str(tmp_path / "t.fctn")
    mpath = str(tmp_path / "m.fctn")
    write_tensor(tpath, np.ones((2, 2)))
    write_mask(mpath, np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        read_mask(tpath)
    with pytest.raises(ValueError):
        read_tensor(mpath)


@pytest.mark.parametrize("extents", [(2**63,), (2**32, 2**32)], ids=["2^63", "2^32x2^32"])
@pytest.mark.parametrize(
    "reader, elem, width", [(read_tensor, 1, 8), (read_mask, 2, 1)], ids=["tensor", "mask"]
)
def test_huge_extents_report_the_true_payload_size(tmp_path, extents, reader, elem, width):
    """The u64 extents of a header are multiplied without wrapping, so a
    crafted header is refused by the payload-size check with the size it
    really asks for."""
    n = len(extents)
    path = str(tmp_path / "huge.fctn")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sIII{n}Q", b"FCTN", 1, elem, n, *extents) + bytes(8))
    want = width * math.prod(extents)
    with pytest.raises(ValueError, match=re.escape(f"payload has 8 bytes, expected {want}")):
        reader(path)


@st.composite
def containers(draw):
    """A tensor drawn as raw float64 bit patterns (so -0.0, NaN payloads and
    +-inf occur) and a random mask, of order 1-4 and extents 1-5."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    size = int(np.prod(shape))
    # -0.0, +inf, -inf, a quiet and a signalling NaN with payloads
    special = st.sampled_from(
        [1 << 63, 0x7FF << 52, 0xFFF << 52, 0x7FF8_0000_0000_0001, 0xFFF4_0000_0000_0000]
    )
    word = st.one_of(st.integers(0, 2**64 - 1), special)
    words = draw(st.lists(word, min_size=size, max_size=size))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    x = np.array(words, dtype=np.uint64).view(np.float64).reshape(shape)
    return x, np.array(flags).reshape(shape)


def _write_read(path: str, data: bytes, reader):
    with open(path, "wb") as fh:
        fh.write(data)
    return reader(path)


@settings(max_examples=30, deadline=None)
@given(containers(), st.data())
def test_containers_round_trip_and_reject_damage(case, data):
    """Tensors and masks round-trip bit for bit; every strict prefix of a
    container, and a changed magic, version or element-code byte, is
    refused with ValueError."""
    x, mask = case
    with tempfile.TemporaryDirectory() as tmp:
        tpath, mpath = os.path.join(tmp, "t.fctn"), os.path.join(tmp, "m.fctn")
        write_tensor(tpath, x)
        write_mask(mpath, mask)
        back, mback = read_tensor(tpath), read_mask(mpath)
        assert back.shape == x.shape and back.dtype == np.float64
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))
        assert mback.dtype == bool and np.array_equal(mback, mask)
        for reader, path in ((read_tensor, tpath), (read_mask, mpath)):
            blob = open(path, "rb").read()
            for end in range(len(blob)):
                with pytest.raises(ValueError):
                    _write_read(path, blob[:end], reader)
            at = data.draw(st.integers(0, 11), label="header byte")  # magic, version, element code
            damaged = bytearray(blob)
            damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
            with pytest.raises(ValueError):
                _write_read(path, bytes(damaged), reader)


def test_mask_bytes_must_be_binary(tmp_path):
    path = str(tmp_path / "m.fctn")
    write_mask(path, np.ones((2, 2), dtype=bool))
    blob = bytearray(open(path, "rb").read())
    blob[-1] = 2
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(ValueError):
        read_mask(path)


def test_failed_replace_leaves_original_intact(tmp_path, monkeypatch):
    path = str(tmp_path / "keep.fctn")
    first = np.arange(6.0).reshape(2, 3)
    write_tensor(path, first)

    def boom(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(fileio.os, "replace", boom)
    with pytest.raises(OSError):
        write_tensor(path, first * 2.0)
    monkeypatch.undo()
    assert np.array_equal(read_tensor(path), first)
    stray = [f for f in os.listdir(tmp_path) if f.startswith(".fctn-")]
    assert stray == []


def test_sample_mask_exact_count():
    mask = sample_mask((10, 10), 0.2, 0)
    assert mask.shape == (10, 10)
    assert int(mask.sum()) == 20
    odd = sample_mask((3, 3), 0.5, 1)
    assert int(odd.sum()) == int(round(0.5 * 9))


def test_sample_mask_full_rate_is_all_ones():
    mask = sample_mask((4, 5), 1.0, 3)
    assert mask.all()


def test_sample_mask_determinism_and_variation():
    a = sample_mask((6, 7), 0.3, 42)
    b = sample_mask((6, 7), 0.3, 42)
    assert np.array_equal(a, b)
    differing = 0
    for i in range(100):
        u = sample_mask((6, 7), 0.3, i)
        v = sample_mask((6, 7), 0.3, i + 1000)
        if not np.array_equal(u, v):
            differing += 1
    assert differing == 100


def test_sample_mask_range_errors():
    with pytest.raises(ValueError):
        sample_mask((4, 4), 0.0, 0)
    with pytest.raises(ValueError):
        sample_mask((4, 4), 1.5, 0)
    with pytest.raises(ValueError):
        sample_mask((4, 4), -0.2, 0)
    with pytest.raises(ValueError):
        sample_mask((100, 100), 1e-6, 0)  # keeps no entry


def test_write_report_csv(tmp_path):
    path = str(tmp_path / "report.csv")
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    write_report_csv(path, rows, ["a", "b"])
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert got == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    return str(path)


# the netpbm header alphabet: the six ASCII whitespace bytes, the comment
# mark, digits, letters, and bytes that str.isspace but not bytes.isspace
# takes for whitespace (\x1c) or that are not ASCII at all
_PNM_BYTES = b" \t\n\r\x0b\x0c#0123456789PpxZ\x00\x1c\xff"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(list(_PNM_BYTES)), max_size=60).map(bytes))
def test_pnm_tokens_match_the_reference_scanner(blob):
    assert list(fileio._pnm_tokens(blob)) == list(pnm_tokens(blob))


def test_read_pnm_ascii_gray(tmp_path):
    body = b"P2\n# a comment line\n3 2\n255\n0 128 255\n64 32 16\n"
    img = read_pnm(_write(tmp_path / "a.pgm", body))
    assert img.shape == (2, 3, 1)
    assert img[0, 1, 0] == pytest.approx(128 / 255)
    assert img[1, 2, 0] == pytest.approx(16 / 255)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_read_pnm_binary_gray(tmp_path):
    raster = bytes([0, 100, 200, 255, 50, 25])
    body = b"P5\n3 2\n255\n" + raster
    img = read_pnm(_write(tmp_path / "b.pgm", body))
    assert img.shape == (2, 3, 1)
    assert img[0, 0, 0] == 0.0
    assert img[1, 0, 0] == pytest.approx(255 / 255)


def test_read_pnm_binary_color_and_16bit(tmp_path):
    rgb = bytes([255, 0, 0, 0, 255, 0])
    img = read_pnm(_write(tmp_path / "c.ppm", b"P6\n2 1\n255\n" + rgb))
    assert img.shape == (1, 2, 3)
    assert img[0, 0, 0] == 1.0 and img[0, 1, 1] == 1.0

    wide = struct.pack(">4H", 0, 1000, 65535, 500)
    img16 = read_pnm(_write(tmp_path / "d.pgm", b"P5\n2 2\n65535\n" + wide))
    assert img16.shape == (2, 2, 1)
    assert img16[1, 0, 0] == 1.0
    assert img16[0, 1, 0] == pytest.approx(1000 / 65535)


def test_read_pnm_ascii_color(tmp_path):
    body = b"P3\n1 1\n10\n10 5 0\n"
    img = read_pnm(_write(tmp_path / "e.ppm", body))
    assert img.shape == (1, 1, 3)
    assert np.allclose(img[0, 0], [1.0, 0.5, 0.0])


def test_read_pnm_validation(tmp_path):
    with pytest.raises(ValueError):
        read_pnm(_write(tmp_path / "bad1.pgm", b"P9\n1 1\n255\n\x00"))
    with pytest.raises(ValueError):
        read_pnm(_write(tmp_path / "bad2.pgm", b"P5\n3 2\n255\n\x00\x01"))
    with pytest.raises(ValueError):
        read_pnm(_write(tmp_path / "bad3.pgm", b"P5\n2 2\n0\n\x00\x00\x00\x00"))
    with pytest.raises(ValueError):
        read_pnm(_write(tmp_path / "bad4.pgm", b"P2\n1 1\n10\n11\n"))
    with pytest.raises(ValueError):
        read_pnm(_write(tmp_path / "bad5.pgm", b""))
    with pytest.raises(ValueError, match="bad6.pgm: truncated header"):
        read_pnm(_write(tmp_path / "bad6.pgm", b"P2\n2 2\n"))
    for name, size in (("bad7.pgm", b"0 2"), ("bad8.pgm", b"2 0")):
        with pytest.raises(ValueError, match=f"{name}: bad dimensions"):
            read_pnm(_write(tmp_path / name, b"P2\n" + size + b"\n255\n"))
    with pytest.raises(ValueError, match="bad9.pgm: truncated raster"):
        read_pnm(_write(tmp_path / "bad9.pgm", b"P2\n2 2\n255\n0 5 10\n"))


@pytest.mark.parametrize("name, body, token", [
    ("neg.pgm", b"P2\n2 2\n255\n0 -5 10 255\n", "-5"),
    ("word.pgm", b"P2\n2 2\n255\n0 x 10 255\n", "x"),
    ("width.pgm", b"P2\n2x 2\n255\n0 5 10 255\n", "2x"),
    ("bin.pgm", b"P5\n2 -2\n255\n" + bytes(4), "-2"),
])
def test_read_pnm_takes_only_unsigned_decimals(tmp_path, name, body, token):
    """A header or ASCII raster token that is not an unsigned decimal is an
    error naming the file and the token, not a sample outside [0, 1]."""
    path = _write(tmp_path / name, body)
    with pytest.raises(ValueError, match=f"{name}: token b'{token}'"):
        read_pnm(path)


def test_import_frames_stacks_sorted(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    _write(d / "f1.pgm", b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]))
    _write(d / "f0.pgm", b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    vol = import_frames(str(d))
    assert vol.shape == (2, 2, 1, 2)
    # f0 sorts before f1, so it provides the first frame
    assert vol[0, 0, 0, 0] == pytest.approx(1 / 255)
    assert vol[0, 0, 0, 1] == pytest.approx(10 / 255)


def test_import_frames_validation(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError):
        import_frames(str(empty))
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    _write(mixed / "a.pgm", b"P5\n2 2\n255\n" + bytes(4))
    _write(mixed / "b.pgm", b"P5\n1 2\n255\n" + bytes(2))
    with pytest.raises(ValueError):
        import_frames(str(mixed))
