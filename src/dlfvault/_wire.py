"""Helpers shared by the file formats: the magic-and-version header, the
end-of-data check, and length-prefixed big-endian integers."""

import struct

from .errors import MalformedFile


def pack_lpint(value: int) -> bytes:
    """u16 byte count followed by the big-endian bytes; zero packs to an empty body."""
    if value < 0:
        raise ValueError("only non-negative integers are serializable")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if len(raw) > 0xFFFF:
        raise ValueError("integer too wide for a u16 length prefix")
    return struct.pack(">H", len(raw)) + raw


def unpack_lpint(data: bytes, offset: int) -> tuple[int, int]:
    """Read one length-prefixed integer, returning (value, next offset)."""
    if offset + 2 > len(data):
        raise MalformedFile("truncated length prefix")
    (n,) = struct.unpack_from(">H", data, offset)
    offset += 2
    if offset + n > len(data):
        raise MalformedFile("length prefix runs past the end of the data")
    return int.from_bytes(data[offset:offset + n], "big"), offset + n


def take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    """Read exactly count raw bytes, returning (bytes, next offset)."""
    if offset + count > len(data):
        raise MalformedFile("truncated field")
    return data[offset:offset + count], offset + count


def read_header(data: bytes, header: bytes) -> int:
    """Check the 4-byte magic and 1-byte version every format opens with;
    returns the offset just past them."""
    magic, offset = take(data, 0, 4)
    if magic != header[:4]:
        raise MalformedFile(f"not a {header[:4].decode()} file")
    version, offset = take(data, offset, 1)
    if version != header[4:]:
        raise MalformedFile(f"unsupported {header[:4].decode()} version {version[0]}")
    return offset


def check_end(data: bytes, offset: int, what: str) -> None:
    """Reject anything left over once the record is fully parsed."""
    if offset != len(data):
        raise MalformedFile(f"trailing bytes after the {what}")
