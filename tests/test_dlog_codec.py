import random

import pytest

from dlfvault.dlog_codec import (
    KIND_NONE,
    KIND_PARITY,
    KIND_SINGLE,
    EphemeralKey,
    KeyFile,
    decode_segment,
    decode_whole,
    encode_segment,
    encode_whole,
    gen_key,
    key_exponent,
)
from dlfvault.errors import BadLength, MalformedFile, MessageTooLarge
from dlfvault.field import PrimeField
from dlfvault.framing import frame
from helpers import with_framed_len


F23 = PrimeField(23, 5)


def test_encode_segment_worked_example():
    # alpha^4 = 4 in F_23, so segment 3 encodes to 12
    key = EphemeralKey(KIND_SINGLE, kappa=4)
    assert encode_segment(F23, 3, key, 1) == 12
    assert decode_segment(F23, 12, key, 1) == 3


def test_parity_key_dispatches_on_index():
    key = EphemeralKey(KIND_PARITY, kappa_even=2, kappa_odd=3)
    assert key_exponent(key, 1) == 3
    assert key_exponent(key, 2) == 2
    assert key_exponent(key, 3) == 3
    # 5^2 = 2 and 5^3 = 10 mod 23
    assert encode_segment(F23, 3, key, 2) == 6
    assert encode_segment(F23, 3, key, 1) == (3 * 10) % 23
    assert decode_segment(F23, 6, key, 2) == 3


def test_none_key_has_no_exponent():
    key = EphemeralKey(KIND_NONE)
    with pytest.raises(ValueError):
        key_exponent(key, 1)


def test_gen_key_ranges_and_parity(params64):
    for seed in range(300):
        single = gen_key(params64, KIND_SINGLE, seed)
        assert 1 <= single.kappa <= params64.p - 2
        parity = gen_key(params64, KIND_PARITY, seed)
        assert 1 <= parity.kappa_even <= params64.p - 2
        assert 1 <= parity.kappa_odd <= params64.p - 2
        assert parity.kappa_even % 2 == 0
        assert parity.kappa_odd % 2 == 1


def test_gen_key_smallest_field():
    f5 = PrimeField(5, 2)
    for seed in range(20):
        parity = gen_key(f5, KIND_PARITY, seed)
        assert parity.kappa_even == 2
        assert parity.kappa_odd in (1, 3)


def test_gen_key_deterministic(params64):
    assert gen_key(params64, KIND_SINGLE, 7) == gen_key(params64, KIND_SINGLE, 7)
    assert gen_key(params64, KIND_SINGLE, 7) != gen_key(params64, KIND_SINGLE, 8)
    with pytest.raises(ValueError):
        gen_key(params64, "half", 7)


def test_segment_roundtrip_random(params64):
    rng = random.Random(30)
    for _ in range(200):
        kind = rng.choice([KIND_SINGLE, KIND_PARITY])
        key = gen_key(params64, kind, rng.randrange(1 << 30))
        index = rng.randrange(1, 40)
        m = rng.randrange(params64.p)
        beta = encode_segment(params64, m, key, index)
        assert decode_segment(params64, beta, key, index) == m


def test_parity_wrong_index_class_decodes_wrong(params64):
    key = gen_key(params64, KIND_PARITY, 99)
    m = 123456
    beta = encode_segment(params64, m, key, 2)
    assert decode_segment(params64, beta, key, 3) != m


def test_whole_roundtrip(params256):
    rng = random.Random(31)
    for _ in range(100):
        m = rng.randbytes(rng.randrange(0, 6))
        framed = frame(m, seg_bits=16)
        key = gen_key(params256, KIND_SINGLE, rng.randrange(1 << 30))
        beta = encode_whole(params256, framed, key)
        assert decode_whole(params256, beta, key, len(framed)) == framed


def test_whole_message_too_large(params64):
    key = gen_key(params64, KIND_SINGLE, 1)
    framed = frame(b"", seg_bits=16)  # 24 bytes, far over a 64-bit p
    with pytest.raises(MessageTooLarge):
        encode_whole(params64, framed, key)
    # boundary: the field size itself is already too large
    with pytest.raises(MessageTooLarge):
        encode_whole(params64, params64.p.to_bytes(8, "big"), key)


def test_decode_whole_rejects_short_frame_length(params256):
    key = gen_key(params256, KIND_SINGLE, 2)
    framed = frame(b"abcde", seg_bits=16)
    beta = encode_whole(params256, framed, key)
    with pytest.raises(BadLength):
        decode_whole(params256, beta, key, 4)


def test_key_file_roundtrip_all_kinds(params64):
    for key, framed_len in [
        (gen_key(params64, KIND_SINGLE, 5), 0),
        (gen_key(params64, KIND_PARITY, 6), 0),
        (gen_key(params64, KIND_SINGLE, 7), 30),
        (EphemeralKey(KIND_NONE), 0),
    ]:
        kf = KeyFile(key=key, framed_len=framed_len)
        assert KeyFile.from_bytes(kf.to_bytes()) == kf


def test_key_file_malformed(params64):
    good = KeyFile(key=gen_key(params64, KIND_SINGLE, 8)).to_bytes()
    with pytest.raises(MalformedFile):
        KeyFile.from_bytes(b"NOPE" + good[4:])
    with pytest.raises(MalformedFile):
        KeyFile.from_bytes(good[:4] + b"\x07" + good[5:])  # bad version
    with pytest.raises(MalformedFile):
        KeyFile.from_bytes(good[:5] + b"\x09" + good[6:])  # bad kind code
    with pytest.raises(MalformedFile):
        KeyFile.from_bytes(good[:-1])
    with pytest.raises(MalformedFile):
        KeyFile.from_bytes(good + b"\x00")


def test_key_file_rejects_a_frame_length_lock_never_writes(params64):
    single = KeyFile(key=gen_key(params64, KIND_SINGLE, 9)).to_bytes()
    parity = KeyFile(key=gen_key(params64, KIND_PARITY, 9)).to_bytes()
    none = KeyFile(key=EphemeralKey(KIND_NONE)).to_bytes()
    for blob, framed_len in [(parity, 24), (parity, 1), (none, 24), (none, 1),
                             (single, 1), (single, 3), (single, 23)]:
        with pytest.raises(MalformedFile):
            KeyFile.from_bytes(with_framed_len(blob, framed_len))
    # whether a whole frame fits is up to the vault, not the key file
    for framed_len in (0, 24, 0xFFFF):
        assert KeyFile.from_bytes(with_framed_len(single, framed_len)).framed_len == framed_len
