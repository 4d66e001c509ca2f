import dataclasses
import random
from types import SimpleNamespace

import pytest

from dlfvault import dlog_codec, field as field_module
from dlfvault.dlog_codec import (
    KIND_NONE,
    KIND_PARITY,
    KIND_SINGLE,
    EphemeralKey,
    KeyFile,
    Scheme,
    encode_message,
    gen_key,
    key_exponent,
    message_decoder,
)
from dlfvault.errors import (
    BadLength,
    MalformedFile,
    MalformedFrame,
    MessageTooLarge,
    SignatureMismatch,
)
from dlfvault.field import PrimeField
from dlfvault.framing import frame, segment
from dlfvault.vault import lock, unlock
from helpers import (
    PowCounter,
    feasible_whole_message_lengths,
    spaced_set,
    with_framed_len,
)

def decoder(params, scheme, seg_bits, coeffs, key_file):
    """message_decoder for a vault that holds exactly these coefficients."""
    vault = SimpleNamespace(params=params, scheme=scheme, seg_bits=seg_bits,
                            coeff_count=len(coeffs))
    return message_decoder(vault, key_file)


def masked_segments(params, message, seg_bits, exponent_at):
    """Oracle: each segment s_i of the framed message times alpha^e_i mod p,
    e_i = exponent_at(i) for the 1-based index i, by the builtin pow."""
    p = params.p
    return [s * pow(params.alpha, exponent_at(i), p) % p
            for i, s in enumerate(segment(frame(message, seg_bits), seg_bits), start=1)]


def test_per_segment_coeffs_are_segments_times_alpha_kappa(params64):
    message = b"worked example"
    coeffs, key_file = encode_message(params64, Scheme.PER_SEGMENT, message, 16, seed=3)
    kappa = key_file.key.kappa
    assert len(coeffs) == 19  # 8 header + 14 message + 16 digest bytes
    assert coeffs == masked_segments(params64, message, 16, lambda i: kappa)
    assert decoder(params64, Scheme.PER_SEGMENT, 16, coeffs, key_file)(coeffs) == message


def test_parity_key_dispatches_on_index(params64):
    key = EphemeralKey(KIND_PARITY, kappa_even=2, kappa_odd=3)
    assert key_exponent(key, 1) == 3
    assert key_exponent(key, 2) == 2
    assert key_exponent(key, 3) == 3
    message = b"even and odd"
    coeffs, key_file = encode_message(params64, Scheme.PARITY, message, 16, seed=4)
    even, odd = key_file.key.kappa_even, key_file.key.kappa_odd
    assert coeffs == masked_segments(params64, message, 16,
                                     lambda i: even if i % 2 == 0 else odd)
    assert decoder(params64, Scheme.PARITY, 16, coeffs, key_file)(coeffs) == message


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
        scheme = rng.choice([Scheme.PER_SEGMENT, Scheme.PARITY])
        message = rng.randbytes(rng.randrange(0, 40))
        seg_bits = rng.choice([8, 16, 32])
        coeffs, key_file = encode_message(params64, scheme, message, seg_bits,
                                          rng.randrange(1 << 30))
        assert decoder(params64, scheme, seg_bits, coeffs, key_file)(coeffs) == message


def test_parity_wrong_index_class_decodes_wrong(params64):
    message = b"parity class"
    coeffs, key_file = encode_message(params64, Scheme.PARITY, message, 16, seed=99)
    even, odd = key_file.key.kappa_even, key_file.key.kappa_odd
    # every segment masked with the other index class's exponent
    swapped = masked_segments(params64, message, 16, lambda i: odd if i % 2 == 0 else even)
    decode = decoder(params64, Scheme.PARITY, 16, coeffs, key_file)
    assert decode(coeffs) == message
    with pytest.raises((BadLength, MalformedFrame, SignatureMismatch)):
        decode(swapped)


def whole_coeffs(params, message, seg_bits, kappa):
    """Oracle: the framed integer times alpha^kappa mod p, split into
    seg_bits chunks spanning p's width."""
    width = -(-params.p_bits // seg_bits) * seg_bits // 8
    value = int.from_bytes(frame(message, seg_bits), "big")
    masked = value * pow(params.alpha, kappa, params.p) % params.p
    return segment(masked.to_bytes(width, "big"), seg_bits)


def test_whole_roundtrip(params256):
    rng = random.Random(31)
    lengths = feasible_whole_message_lengths(params256, 16)
    for _ in range(100):
        message = rng.randbytes(rng.choice(lengths))
        coeffs, key_file = encode_message(params256, Scheme.WHOLE_MESSAGE, message, 16,
                                          rng.randrange(1 << 30))
        assert key_file.framed_len == len(frame(message, 16))
        assert coeffs == whole_coeffs(params256, message, 16, key_file.key.kappa)
        decode = decoder(params256, Scheme.WHOLE_MESSAGE, 16, coeffs, key_file)
        assert decode(coeffs) == message


def test_whole_message_too_large(params64, params256, monkeypatch):
    # an empty message frames to 24 bytes, far over a 64-bit p
    with pytest.raises(MessageTooLarge):
        encode_message(params64, Scheme.WHOLE_MESSAGE, b"", 16, seed=1)
    for length in range(48):
        message = bytes(range(length))
        fits = int.from_bytes(frame(message, 8), "big") < params256.p
        if fits:
            encode_message(params256, Scheme.WHOLE_MESSAGE, message, 8, seed=1)
        else:
            with pytest.raises(MessageTooLarge):
                encode_message(params256, Scheme.WHOLE_MESSAGE, message, 8, seed=1)
    # boundary: a framed integer of p - 1 fits, the field size itself does not
    for value, fits in [(params64.p - 1, True), (params64.p, False)]:
        monkeypatch.setattr(dlog_codec.framing, "frame",
                            lambda message, seg_bits, value=value: value.to_bytes(8, "big"))
        if fits:
            encode_message(params64, Scheme.WHOLE_MESSAGE, b"", 16, seed=1)
        else:
            with pytest.raises(MessageTooLarge):
                encode_message(params64, Scheme.WHOLE_MESSAGE, b"", 16, seed=1)


def test_whole_unmask_rejects_short_frame_length(params256):
    message = b"abcdefghij"
    coeffs, key_file = encode_message(params256, Scheme.WHOLE_MESSAGE, message, 16, seed=2)
    assert key_file.framed_len == 34
    # the unmasked value spans 27 bytes; a 24-byte frame cannot hold it
    short = dataclasses.replace(key_file, framed_len=24)
    with pytest.raises(BadLength):
        decoder(params256, Scheme.WHOLE_MESSAGE, 16, coeffs, short)(coeffs)


@pytest.mark.parametrize("scheme, powers, message", [
    (Scheme.CLASSICAL, 0, b"four"),
    (Scheme.PER_SEGMENT, 1, b"four"),
    (Scheme.PER_SEGMENT, 1, bytes(80)),
    (Scheme.PARITY, 2, b"four"),
    (Scheme.PARITY, 2, bytes(80)),
    (Scheme.WHOLE_MESSAGE, 1, b"four"),
], ids=["classical", "per-segment-7-coeffs", "per-segment-26-coeffs", "parity-7-coeffs",
        "parity-26-coeffs", "whole-message"])
def test_lock_and_unlock_compute_one_power_per_exponent(params256, monkeypatch, scheme,
                                                        powers, message):
    A = spaced_set(random.Random(40), params256.p, 32, delta=0)
    counter = PowCounter()
    monkeypatch.setattr(field_module, "pow", counter, raising=False)
    monkeypatch.setattr(dlog_codec, "pow", counter, raising=False)
    vault, key_file = lock(message, A, scheme, params256, chaff_count=6, seed=41, seg_bits=32)
    assert scheme is Scheme.WHOLE_MESSAGE or vault.coeff_count >= 7
    assert counter.powers == powers
    counter.powers = 0
    assert unlock(vault, A, key_file) == message
    assert counter.powers == powers


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
