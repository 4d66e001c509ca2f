import random

import pytest

from dlfvault.errors import (
    LockingSetTooSmall,
    MalformedFile,
    NotEnoughMatches,
    WrongCount,
)
from dlfvault.field import GF16_REDUCTION_POLY, binary_field
from dlfvault.identity import (
    COEFF_COUNT,
    CRC_BITS,
    ID_BITS,
    IDC_BITS,
    KAPPA_BITS,
    IdentityRecord,
    decode_identity,
    encode_identity,
    identity_from_bytes,
    identity_to_bytes,
    identity_vault_roundtrip,
    make_identity_record,
)
from dlfvault.polynomial import CRC16_GENERATOR, crc16_remainder, eval_poly, lagrange_interpolate


def test_generator_constant():
    assert CRC16_GENERATOR == 0x18005


def test_record_layout_frozen_example():
    assert encode_identity(0, 1) == [0x8005, 1] + [0] * 11


def test_chunking_matches_independent_bit_packing():
    rng = random.Random(60)
    for _ in range(100):
        kappa = rng.randrange(1 << KAPPA_BITS)
        ident = rng.randrange(1 << ID_BITS)
        crc = crc16_remainder(ident, ID_BITS)
        coeffs = encode_identity(kappa, ident)
        assert len(coeffs) == COEFF_COUNT
        # independent route: serialize kappa || id || crc to 26 bytes and
        # read 16-bit words most significant first
        blob = (kappa.to_bytes(16, "big") + ident.to_bytes(8, "big")
                + crc.to_bytes(2, "big"))
        words = [int.from_bytes(blob[i:i + 2], "big") for i in range(0, 26, 2)]
        assert coeffs == words[::-1]
        assert coeffs[0] == crc
        assert coeffs[12] == kappa >> (KAPPA_BITS - 16)


def test_encode_decode_roundtrip_random():
    rng = random.Random(61)
    for _ in range(300):
        kappa = rng.randrange(1 << KAPPA_BITS)
        ident = rng.randrange(1 << ID_BITS)
        assert decode_identity(encode_identity(kappa, ident)) == (kappa, ident)


def test_encode_validates_ranges():
    with pytest.raises(ValueError):
        encode_identity(1 << KAPPA_BITS, 0)
    with pytest.raises(ValueError):
        encode_identity(0, 1 << ID_BITS)
    with pytest.raises(ValueError):
        encode_identity(-1, 0)


def test_identity_record_checks_its_own_ranges():
    # bench/workloads.py still calls the alias
    assert make_identity_record is IdentityRecord
    with pytest.raises(ValueError, match="^kappa must fit in 128 bits$"):
        IdentityRecord(1 << KAPPA_BITS, 0)
    with pytest.raises(ValueError, match="^id must fit in 64 bits$"):
        IdentityRecord(0, -1)
    IdentityRecord((1 << KAPPA_BITS) - 1, (1 << ID_BITS) - 1)


def test_decode_validates_shape():
    with pytest.raises(WrongCount):
        decode_identity([0] * 12)
    with pytest.raises(ValueError):
        decode_identity([0] * 12 + [1 << 16])


def test_single_bit_flips_in_checked_region_rejected():
    coeffs = encode_identity(0xFEEDFACEDEADBEEF0123456789ABCDEF,
                             0xA5A5A5A55A5A5A5A)
    for bit in range(IDC_BITS):
        corrupted = list(coeffs)
        corrupted[bit // 16] ^= 1 << (bit % 16)
        assert decode_identity(corrupted) is None, f"bit {bit} escaped"


def test_kappa_region_flip_accepts_with_wrong_kappa():
    # the checksum covers only the id tail; a kappa flip decodes but
    # yields a different exponent, which is the designed behavior
    kappa = 0x0123456789ABCDEF_0123456789ABCDEF
    ident = 0x1122334455667788
    coeffs = encode_identity(kappa, ident)
    corrupted = list(coeffs)
    corrupted[7] ^= 0x0400  # inside the kappa region
    decoded = decode_identity(corrupted)
    assert decoded is not None
    wrong_kappa, same_id = decoded
    assert same_id == ident
    assert wrong_kappa != kappa


def test_identity_file_roundtrip():
    coeffs = encode_identity(123456789, 987654321)
    data = identity_to_bytes(coeffs)
    back, reduction = identity_from_bytes(data)
    assert back == coeffs
    assert reduction == GF16_REDUCTION_POLY


def test_identity_file_malformed():
    good = identity_to_bytes(encode_identity(1, 2))
    with pytest.raises(MalformedFile):
        identity_from_bytes(b"JUNK" + good[4:])
    with pytest.raises(MalformedFile):
        identity_from_bytes(good[:4] + b"\x03" + good[5:])
    with pytest.raises(MalformedFile):
        identity_from_bytes(good[:-2])
    with pytest.raises(MalformedFile):
        identity_from_bytes(good + b"\x00")
    for reduction in (0, 0x1002D, 0xFFFFFFFF):  # GF(2^16) is fixed at 0x1002B
        with pytest.raises(MalformedFile):
            identity_from_bytes(good[:5] + reduction.to_bytes(4, "big") + good[9:])
    with pytest.raises(WrongCount):
        identity_to_bytes([1, 2, 3])


def test_identity_file_refuses_a_coefficient_decode_refuses():
    for coeffs in ([70000] + [0] * 12, [-1] + [0] * 12, [0] * 12 + [1 << 16]):
        for check in (decode_identity, identity_to_bytes):
            with pytest.raises(ValueError, match="does not fit in 16 bits"):
                check(coeffs)


def test_vault_roundtrip_exact_match():
    rng = random.Random(62)
    rec = IdentityRecord(rng.randrange(1 << 128), rng.randrange(1 << 64))
    A = rng.sample(range(1 << 16), 13)
    assert identity_vault_roundtrip(rec, A, chaff_count=40, seed=63)
    # extra genuine elements are fine too
    A17 = rng.sample(range(1 << 16), 17)
    assert identity_vault_roundtrip(rec, A17, chaff_count=25, seed=64)


def test_vault_roundtrip_searches_past_chaff_hits():
    # probing every field element matches both chaff points too; the
    # subset search must reject the subsets holding them, not just
    # interpolate the first 13 matches
    rng = random.Random(68)
    rec = IdentityRecord(rng.randrange(1 << 128), rng.randrange(1 << 64))
    A = rng.sample(range(1 << 16), 13)
    for seed in range(20):
        assert identity_vault_roundtrip(rec, A, chaff_count=2, seed=seed,
                                        unlocking_set=range(1 << 16))


def test_vault_roundtrip_partial_overlap_fails():
    rng = random.Random(65)
    rec = IdentityRecord(rng.randrange(1 << 128), rng.randrange(1 << 64))
    A = rng.sample(range(1000, 60000), 13)
    B = A[:9] + [3, 7, 11, 15]
    with pytest.raises(NotEnoughMatches):
        identity_vault_roundtrip(rec, A, chaff_count=10, seed=66, unlocking_set=B)


def test_vault_roundtrip_validates_input():
    rec = IdentityRecord(5, 6)
    with pytest.raises(LockingSetTooSmall):
        identity_vault_roundtrip(rec, list(range(12)), chaff_count=0, seed=0)
    with pytest.raises(ValueError):
        identity_vault_roundtrip(rec, [1 << 16] + list(range(12)), chaff_count=0, seed=0)
    with pytest.raises(ValueError):
        identity_vault_roundtrip(rec, [5] * 2 + list(range(11)), chaff_count=0, seed=0)


def test_vault_roundtrip_rejects_a_negative_chaff_count():
    rec = IdentityRecord(5, 6)
    with pytest.raises(ValueError, match="chaff_count"):
        identity_vault_roundtrip(rec, list(range(0, 260, 20)), chaff_count=-1, seed=0)


def test_corrupted_point_rejected_through_interpolation():
    # a wrong y on one genuine point perturbs every recovered
    # coefficient, and the checksum catches it
    gf = binary_field()
    rng = random.Random(67)
    rejected = 0
    for _ in range(50):
        rec = IdentityRecord(rng.randrange(1 << 128), rng.randrange(1 << 64))
        coeffs = encode_identity(rec.kappa128, rec.id64)
        xs = rng.sample(range(1 << 16), COEFF_COUNT)
        points = [(x, eval_poly(gf, coeffs, x)) for x in xs]
        victim = rng.randrange(COEFF_COUNT)
        x, y = points[victim]
        points[victim] = (x, y ^ rng.randrange(1, 1 << 16))
        recovered = lagrange_interpolate(gf, points)
        if decode_identity(recovered) is None:
            rejected += 1
    assert rejected == 50
