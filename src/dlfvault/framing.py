"""Message framing: length header, MD5 trailer, zero padding, and the
packing of framed bytes into fixed-width integer segments.

Framed layout, all big-endian:

    u64 byte-length of m | m | MD5(m) | zero padding

Padding rounds the total up to a whole number of segments. The digest is
a decode-success detector for the vault's subset search, not a security
boundary; the length header makes deframing unambiguous regardless of
trailing zero bytes.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import BadLength, MalformedFrame, SignatureMismatch

HEADER_LEN = 8
DIGEST_LEN = 16
MIN_FRAME_LEN = HEADER_LEN + DIGEST_LEN
DEFAULT_SEG_BITS = 256


def md5(data: bytes) -> bytes:
    """The 16-byte digest appended to every framed message."""
    return hashlib.md5(data).digest()


def _seg_bytes(seg_bits: int) -> int:
    if seg_bits <= 0 or seg_bits % 8:
        raise BadLength("segment width must be a positive multiple of 8 bits")
    return seg_bits // 8


def frame(m: bytes, seg_bits: int) -> bytes:
    """Wrap message bytes in the header/digest layout, padded to the segment width."""
    seg = _seg_bytes(seg_bits)
    body = struct.pack(">Q", len(m)) + m + md5(m)
    return body + b"\x00" * (-len(body) % seg)


def deframe(framed: bytes) -> bytes:
    """Recover the message, verifying the stored digest.

    Raises MalformedFrame when the layout cannot hold together and
    SignatureMismatch when it parses but the digest disagrees.
    """
    if len(framed) < MIN_FRAME_LEN:
        raise MalformedFrame("too short for a header and a digest")
    (length,) = struct.unpack(">Q", framed[:HEADER_LEN])
    end = HEADER_LEN + length
    if end + DIGEST_LEN > len(framed):
        raise MalformedFrame("header length runs past the framed data")
    m = framed[HEADER_LEN:end]
    stored = framed[end:end + DIGEST_LEN]
    if md5(m) != stored:
        raise SignatureMismatch("stored digest does not match the message")
    return m


def segment(framed: bytes, seg_bits: int) -> list[int]:
    """Split framed bytes into big-endian integers of seg_bits each."""
    seg = _seg_bytes(seg_bits)
    if not framed or len(framed) % seg:
        raise BadLength(f"framed length {len(framed)} is not a positive multiple of {seg} bytes")
    return [int.from_bytes(framed[i:i + seg], "big") for i in range(0, len(framed), seg)]


def reassemble(segments: list[int], seg_bits: int) -> bytes:
    """Inverse of segment(); rejects values that overflow the segment width."""
    seg = _seg_bytes(seg_bits)
    limit = 1 << seg_bits
    out = bytearray()
    for s in segments:
        if not 0 <= s < limit:
            raise BadLength(f"segment value does not fit in {seg_bits} bits")
        out += s.to_bytes(seg, "big")
    return bytes(out)
