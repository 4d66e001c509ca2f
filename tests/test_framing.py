import hashlib
import random
import struct

import pytest

from dlfvault.errors import BadLength, MalformedFrame, SignatureMismatch
from dlfvault.framing import (
    DIGEST_LEN,
    HEADER_LEN,
    deframe,
    frame,
    md5,
    reassemble,
    segment,
)

# RFC 1321 appendix vectors
MD5_VECTORS = {
    b"": "d41d8cd98f00b204e9800998ecf8427e",
    b"a": "0cc175b9c0f1b6a831c399e269772661",
    b"abc": "900150983cd24fb0d6963f7d28e17f72",
    b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
    b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
        "d174ab98d277d9f5a5611c2c9f419d9f",
    b"1234567890123456789012345678901234567890123456789012345678901234"
    b"5678901234567890": "57edf4a22be3c955ac49da2e2107b67a",
}


def test_md5_vectors():
    for message, hexdigest in MD5_VECTORS.items():
        assert md5(message).hex() == hexdigest


def test_frame_empty_message_layout():
    framed = frame(b"", seg_bits=256)
    assert len(framed) == 32
    assert framed[:8] == b"\x00" * 8
    assert framed[8:24] == hashlib.md5(b"").digest()
    assert framed[24:] == b"\x00" * 8


def test_frame_layout_fields():
    m = b"hello world"
    framed = frame(m, seg_bits=64)
    (length,) = struct.unpack(">Q", framed[:8])
    assert length == len(m)
    assert framed[8:8 + len(m)] == m
    assert framed[8 + len(m):24 + len(m)] == hashlib.md5(m).digest()
    assert len(framed) % 8 == 0


def test_frame_deframe_roundtrip_random_lengths():
    rng = random.Random(20)
    for _ in range(300):
        m = rng.randbytes(rng.randrange(0, 2000))
        seg_bits = rng.choice([8, 16, 64, 256])
        assert deframe(frame(m, seg_bits)) == m


def test_deframe_rejects_short_input():
    with pytest.raises(MalformedFrame):
        deframe(b"\x00" * (HEADER_LEN + DIGEST_LEN - 1))


def test_deframe_rejects_overlong_header():
    framed = bytearray(frame(b"abc", 64))
    framed[0:8] = struct.pack(">Q", 10_000)
    with pytest.raises(MalformedFrame):
        deframe(bytes(framed))


def test_deframe_detects_single_bit_corruption():
    # any flip in header, message, or digest must not deframe cleanly;
    # the zero padding is outside the protected region
    rng = random.Random(21)
    m = rng.randbytes(100)
    framed = frame(m, 64)
    protected_bits = (HEADER_LEN + len(m) + DIGEST_LEN) * 8
    for _ in range(100):
        bit = rng.randrange(protected_bits)
        corrupted = bytearray(framed)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((MalformedFrame, SignatureMismatch)):
            deframe(bytes(corrupted))


def test_segment_worked_example():
    framed = bytes([0x01, 0x02, 0x03, 0x04])
    assert segment(framed, 16) == [0x0102, 0x0304]
    assert segment(framed, 8) == [1, 2, 3, 4]
    assert segment(framed, 32) == [0x01020304]


def test_segment_reassemble_roundtrip():
    rng = random.Random(22)
    for _ in range(200):
        seg_bits = rng.choice([8, 16, 24, 64])
        count = rng.randrange(1, 20)
        framed = rng.randbytes(count * seg_bits // 8)
        assert reassemble(segment(framed, seg_bits), seg_bits) == framed


def test_segment_validates_length():
    with pytest.raises(BadLength):
        segment(b"", 16)
    with pytest.raises(BadLength):
        segment(b"\x00" * 3, 16)
    with pytest.raises(BadLength):
        segment(b"\x00" * 4, 12)  # not a byte multiple
    with pytest.raises(BadLength):
        segment(b"\x00" * 4, 0)


def test_reassemble_rejects_overflow():
    with pytest.raises(BadLength):
        reassemble([0x10000], 16)
    with pytest.raises(BadLength):
        reassemble([-1], 16)
