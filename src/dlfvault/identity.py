"""Identity binding: pack a 128-bit secret exponent and a 64-bit identity,
protected by a CRC-16, into 13 GF(2^16) polynomial coefficients.

Layout of the 208-bit record, most significant first:

    kappa (128) | id (64) | crc (16)

where crc is the CRC-16 of the id alone and the decoder checks that the
80-bit id-plus-crc tail divides cleanly by CRC16_GENERATOR. Chunked into
16-bit words, the most significant word becomes coefficient c_12 and the
least significant (the crc itself) becomes c_0. Any corruption of the
tail region is caught by the division check; corruption confined to the
kappa region decodes to a wrong exponent but still reports Accept, which
is exactly the binding the scheme promises: the identity, not the
secret, is what cannot be swapped.

The vault roundtrip runs on the same vault core as the prime-field
schemes, over GF(2^16) with delta = 0, so matching is exact and the
checksum is the accept test of the subset search.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._wire import check_end, read_header, take
from .errors import MalformedFile, SignatureMismatch, WrongCount
from .field import GF16_REDUCTION_POLY, binary_field
from .polynomial import crc16_remainder
from .vault import DEFAULT_MAX_SUBSETS, nearest_points, place_points, subset_search

COEFF_COUNT = 13
KAPPA_BITS = 128
ID_BITS = 64
CRC_BITS = 16
IDC_BITS = ID_BITS + CRC_BITS          # the checked tail

_HEADER = b"DLFI\x01"
_REDUCTION_BYTES = GF16_REDUCTION_POLY.to_bytes(4, "big")


@dataclass(frozen=True)
class IdentityRecord:
    """One kappa/id pair, kappa below 2^128 and id below 2^64; encode_identity adds the crc."""

    kappa128: int
    id64: int

    def __post_init__(self):
        if not 0 <= self.kappa128 < 1 << KAPPA_BITS:
            raise ValueError("kappa must fit in 128 bits")
        if not 0 <= self.id64 < 1 << ID_BITS:
            raise ValueError("id must fit in 64 bits")


make_identity_record = IdentityRecord


def encode_identity(kappa128: int, id64: int) -> list[int]:
    """The 13 coefficients carrying kappa || id || crc; coeffs[i] is c_i."""
    IdentityRecord(kappa128, id64)  # the range checks
    crc = crc16_remainder(id64, ID_BITS)
    record = (kappa128 << ID_BITS | id64) << CRC_BITS | crc
    return [(record >> (16 * i)) & 0xFFFF for i in range(COEFF_COUNT)]


def _check_coeffs(coeffs: list[int]) -> None:
    if len(coeffs) != COEFF_COUNT:
        raise WrongCount(f"need exactly {COEFF_COUNT} coefficients, got {len(coeffs)}")
    for i, c in enumerate(coeffs):
        if not 0 <= c < 1 << 16:
            raise ValueError(f"coefficient {i} does not fit in 16 bits")


def decode_identity(coeffs: list[int]) -> tuple[int, int] | None:
    """Recover (kappa128, id64) from coefficients, or None on checksum failure.

    Rejection is a value, not an exception: a vault unlocked with wrong
    points routinely lands here, and the caller decides what that means.
    """
    _check_coeffs(coeffs)
    record = 0
    for i, c in enumerate(coeffs):
        record |= c << (16 * i)
    idc = record & ((1 << IDC_BITS) - 1)
    if crc16_remainder(idc, IDC_BITS) != 0:
        return None
    return record >> IDC_BITS, idc >> CRC_BITS


def identity_to_bytes(coeffs: list[int]) -> bytes:
    """Identity coefficient file: magic, version, the GF(2^16) reduction
    polynomial as a u32, then 13 u16."""
    _check_coeffs(coeffs)
    out = bytearray(_HEADER + _REDUCTION_BYTES)
    for c in coeffs:
        out += c.to_bytes(2, "big")
    return bytes(out)


def identity_from_bytes(data: bytes) -> tuple[list[int], int]:
    """Parse an identity file, returning (coefficients, reduction polynomial).

    The field is fixed, so a file naming any reduction polynomial other
    than GF16_REDUCTION_POLY is rejected.
    """
    raw, offset = take(data, read_header(data, _HEADER), 4)
    if raw != _REDUCTION_BYTES:
        raise MalformedFile(f"reduction polynomial {int.from_bytes(raw, 'big'):#x} "
                            f"is not GF(2^16)'s {GF16_REDUCTION_POLY:#x}")
    raw, offset = take(data, offset, 2 * COEFF_COUNT)
    coeffs = [int.from_bytes(raw[i:i + 2], "big") for i in range(0, len(raw), 2)]
    check_end(data, offset, "coefficients")
    return coeffs, GF16_REDUCTION_POLY


def _accept(coeffs: list[int]) -> tuple[int, int]:
    decoded = decode_identity(coeffs)
    if decoded is None:
        raise SignatureMismatch("identity checksum does not divide")
    return decoded


def identity_vault_roundtrip(record: IdentityRecord, locking_set, chaff_count: int,
                             seed: int, unlocking_set=None) -> bool:
    """Embed the record in a GF(2^16) vault and decode it back.

    The vault core places genuine points and chaff at delta = 0: matching
    is exact, since biometric-style noise does not apply to the 16-bit
    identity field. Subsets of the matches are searched until the
    checksum accepts one; fewer than 13 matches raise NotEnoughMatches.
    True only when that record carries the original kappa and id.
    """
    gf = binary_field()
    coeffs = encode_identity(record.kappa128, record.id64)
    points, _ = place_points(gf, coeffs, locking_set, chaff_count, 0, seed)
    probes = locking_set if unlocking_set is None else unlocking_set
    decoded, _ = subset_search(gf, nearest_points(points, 0, probes), COEFF_COUNT, _accept,
                               DEFAULT_MAX_SUBSETS)
    return decoded == (record.kappa128, record.id64)
