import dataclasses
import random
from types import SimpleNamespace

import pytest

from dlfvault import dlog_codec, field as field_module
from dlfvault._wire import pack_lpint, unpack_lpint
from dlfvault.dlog_codec import KeyFile, Scheme, encode_message, gen_key, message_decoder
from dlfvault.errors import (
    BadLength,
    MalformedFile,
    MalformedFrame,
    MessageTooLarge,
    SignatureMismatch,
)
from dlfvault.field import PrimeField, gen_params
from dlfvault.framing import frame, segment
from dlfvault.vault import lock, unlock
from helpers import (
    OAKLEY_1024,
    PowCounter,
    feasible_whole_message_lengths,
    spaced_set,
    with_framed_len,
)

def decoder(params, scheme, seg_bits, coeffs, key_file):
    """message_decoder's decode for a vault that holds exactly these
    coefficients."""
    vault = SimpleNamespace(params=params, scheme=scheme, seg_bits=seg_bits,
                            coeff_count=len(coeffs))
    return message_decoder(vault, key_file)[0]


def masked_segments(params, message, seg_bits, exponent_at):
    """Oracle: each segment s_i of the framed message times alpha^e_i mod p,
    e_i = exponent_at(i) for the 1-based index i, by the builtin pow."""
    p = params.p
    return [s * pow(params.alpha, exponent_at(i), p) % p
            for i, s in enumerate(segment(frame(message, seg_bits), seg_bits), start=1)]


def test_per_segment_coeffs_are_segments_times_alpha_kappa(params64):
    message = b"worked example"
    coeffs, key_file = encode_message(params64, Scheme.PER_SEGMENT, message, 16, seed=3)
    (kappa,) = key_file.exponents
    assert len(coeffs) == 19  # 8 header + 14 message + 16 digest bytes
    assert coeffs == masked_segments(params64, message, 16, lambda i: kappa)
    assert decoder(params64, Scheme.PER_SEGMENT, 16, coeffs, key_file)(coeffs) == message


def test_parity_key_dispatches_on_index(params64):
    message = b"even and odd"
    coeffs, key_file = encode_message(params64, Scheme.PARITY, message, 16, seed=4)
    even, odd = key_file.exponents
    assert coeffs == masked_segments(params64, message, 16,
                                     lambda i: even if i % 2 == 0 else odd)
    assert decoder(params64, Scheme.PARITY, 16, coeffs, key_file)(coeffs) == message


def test_gen_key_ranges_and_parity(params64):
    for seed in range(300):
        (kappa,) = gen_key(params64, Scheme.PER_SEGMENT, seed)
        assert 1 <= kappa <= params64.p - 2
        even, odd = gen_key(params64, Scheme.PARITY, seed)
        assert 1 <= even <= params64.p - 2
        assert 1 <= odd <= params64.p - 2
        assert even % 2 == 0
        assert odd % 2 == 1


def test_gen_key_smallest_field():
    f5 = PrimeField(5, 2)
    for seed in range(20):
        even, odd = gen_key(f5, Scheme.PARITY, seed)
        assert even == 2
        assert odd in (1, 3)


def test_gen_key_deterministic(params64):
    assert gen_key(params64, Scheme.PER_SEGMENT, 7) == gen_key(params64, Scheme.PER_SEGMENT, 7)
    assert gen_key(params64, Scheme.PER_SEGMENT, 7) != gen_key(params64, Scheme.PER_SEGMENT, 8)
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
    even, odd = key_file.exponents
    # every segment masked with the other index class's exponent
    swapped = masked_segments(params64, message, 16, lambda i: odd if i % 2 == 0 else even)
    decode = decoder(params64, Scheme.PARITY, 16, coeffs, key_file)
    assert decode(coeffs) == message
    with pytest.raises((BadLength, MalformedFrame, SignatureMismatch)):
        decode(swapped)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name.lower())
def test_a_failing_screen_means_decode_raises_bad_length(params256, scheme):
    rng = random.Random(37 + scheme)
    p, seg_bits = params256.p, 16
    coeffs, key_file = encode_message(params256, scheme, b"screen", seg_bits, seed=38)
    vault = SimpleNamespace(params=params256, scheme=scheme, seg_bits=seg_bits,
                            coeff_count=len(coeffs))
    decode, screen = message_decoder(vault, key_file)
    assert screen(coeffs[0]) and decode(coeffs) == b"screen"
    # segment 1's mask, by the builtin pow: a random c0 or a masked segment
    key = key_file.exponents
    mask = pow(params256.alpha, key[1 % len(key)], p) if scheme in (Scheme.PER_SEGMENT,
                                                                     Scheme.PARITY) else 1
    assert screen(mask * ((1 << seg_bits) - 1) % p) and not screen((mask << seg_bits) % p)
    failed = 0
    for _ in range(200):
        c = [rng.randrange(p) if rng.randrange(2) else mask * rng.randrange(2 << seg_bits) % p
             for _ in coeffs]
        # exactly decode's first check, which reassemble makes on c0 unmasked
        assert screen(c[0]) == (c[0] * pow(mask, -1, p) % p < 1 << seg_bits)
        if not screen(c[0]):
            failed += 1
            with pytest.raises(BadLength):
                decode(c)
    assert 100 < failed < 200


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
        assert coeffs == whole_coeffs(params256, message, 16, *key_file.exponents)
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
    table_powers = []
    table_power = dlog_codec._alpha_power

    def counting(params, e):
        table_powers.append(e)
        return table_power(params, e)

    monkeypatch.setattr(dlog_codec, "_alpha_power", counting)
    builtin = PowCounter()
    monkeypatch.setattr(field_module, "pow", builtin, raising=False)
    monkeypatch.setattr(dlog_codec, "pow", builtin, raising=False)
    vault, key_file = lock(message, A, scheme, params256, chaff_count=6, seed=41, seg_bits=32)
    assert scheme is Scheme.WHOLE_MESSAGE or vault.coeff_count >= 7
    assert len(table_powers) == powers
    table_powers.clear()
    assert unlock(vault, A, key_file) == message
    assert len(table_powers) == powers
    # every mask came from the table; the builtin pow computed none
    assert builtin.powers == 0


@pytest.mark.parametrize("bits", [5, 9, 17, 31, 47, 64, 70, 128, 256, 1024])
def test_table_power_equals_the_builtin_pow(bits, params64, params128, params256):
    fixed = {64: params64, 128: params128, 256: params256, 1024: PrimeField(OAKLEY_1024, 5)}
    f = fixed[bits] if bits in fixed else gen_params(bits, seed=bits)
    p = f.p
    rng = random.Random(bits)
    # the comb reads 8 blocks of ceil(p_bits / 8) bits, rounded up to 16
    all_ones = (1 << 8 * -(-f.p_bits // 128) * 16) - 1
    exponents = [0, 1, 2, p - 2, p - 1, p, 3 * (p - 1) + 5, all_ones]
    exponents += [rng.randrange(4 * p) for _ in range(100)]
    for e in exponents:
        assert dlog_codec._alpha_power(f, e) == pow(f.alpha, e, p), e
    # one set bit lands in one block and one column: a mix-up of either shows
    power = f.alpha
    for q in range(f.p_bits):
        assert dlog_codec._alpha_power(f, 1 << q) == power, q
        power = power * power % p


class CountingModulus(int):
    """A modulus that counts the reductions mod itself, one per multiply
    mod p in the codec."""

    def __rmod__(self, other):
        self.reductions += 1
        return other % int(self)


def test_a_1024_bit_power_takes_at_most_144_multiplies_from_2048_entries():
    dlog_codec._power_table.cache_clear()
    f = SimpleNamespace(p=CountingModulus(OAKLEY_1024), alpha=5)
    f.p.reductions = 0
    table = dlog_codec._power_table(f.p, f.alpha)
    # 8 * 128 - 16 squarings, then 247 multiplies per sub-table of 256
    assert f.p.reductions == 8 * 128 - 16 + 8 * 247
    assert sum(map(len, table)) <= 2048
    rng = random.Random(62)
    for e in [OAKLEY_1024 - 2] + [rng.randrange(OAKLEY_1024) for _ in range(20)]:
        f.p.reductions = 0
        assert dlog_codec._alpha_power(f, e) == pow(5, e, OAKLEY_1024)
        # 16 squarings, and one multiply per nonzero column of 128
        assert f.p.reductions <= 16 + 128
    dlog_codec._power_table.cache_clear()


def test_key_file_roundtrip_all_kinds(params64):
    for key, framed_len in [
        (gen_key(params64, Scheme.PER_SEGMENT, 5), 0),
        (gen_key(params64, Scheme.PARITY, 6), 0),
        (gen_key(params64, Scheme.WHOLE_MESSAGE, 7), 30),
        ((), 0),
    ]:
        kf = KeyFile(key, framed_len)
        assert KeyFile.from_bytes(kf.to_bytes()) == kf


def test_key_file_holds_at_most_two_exponents():
    for exponents in [(1, 2, 3), (5, 7, 9, 11)]:
        with pytest.raises(ValueError, match=f"not {len(exponents)}"):
            KeyFile(exponents)


def test_key_file_malformed(params64):
    good = KeyFile(gen_key(params64, Scheme.PER_SEGMENT, 8)).to_bytes()
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


def locked_key_bytes(params, scheme, message, seed):
    """The DLFK bytes lock writes for message under scheme."""
    A = spaced_set(random.Random(seed), params.p, 30, delta=0)
    _, key_file = lock(message, A, scheme, params, chaff_count=2, seed=seed, seg_bits=16)
    return key_file.to_bytes()


def test_key_file_bytes_pin_the_kind_byte_and_the_exponent_order(params256):
    # kind byte 0: one exponent; the whole-message scheme adds its frame length
    for scheme, framed_len in [(Scheme.PER_SEGMENT, 0), (Scheme.WHOLE_MESSAGE, 30)]:
        blob = locked_key_bytes(params256, scheme, b"pinned", 80)
        assert blob[:6] == b"DLFK\x01\x00"
        kappa, offset = unpack_lpint(blob, 6)
        assert 1 <= kappa <= params256.p - 2
        assert blob[offset:] == framed_len.to_bytes(2, "big")
    # kind byte 1: two exponents, the even one first
    blob = locked_key_bytes(params256, Scheme.PARITY, b"pinned", 81)
    assert blob[:6] == b"DLFK\x01\x01"
    even, offset = unpack_lpint(blob, 6)
    odd, offset = unpack_lpint(blob, offset)
    assert (even % 2, odd % 2) == (0, 1)
    assert blob[offset:] == b"\x00\x00"
    # kind byte 2: no exponent, 8 bytes in all
    assert locked_key_bytes(params256, Scheme.CLASSICAL, b"pinned", 82) == b"DLFK\x01\x02\x00\x00"
    # the first byte past the table
    for blob in (b"DLFK\x01\x03\x00\x00", b"DLFK\x01\x03" + blob[6:]):
        with pytest.raises(MalformedFile, match="kind code 3"):
            KeyFile.from_bytes(blob)


def test_key_file_rejects_a_frame_length_lock_never_writes(params64):
    single = KeyFile(gen_key(params64, Scheme.PER_SEGMENT, 9)).to_bytes()
    parity = KeyFile(gen_key(params64, Scheme.PARITY, 9)).to_bytes()
    none = KeyFile(()).to_bytes()
    for blob, framed_len in [(parity, 24), (parity, 1), (none, 24), (none, 1),
                             (single, 1), (single, 3), (single, 23)]:
        with pytest.raises(MalformedFile):
            KeyFile.from_bytes(with_framed_len(blob, framed_len))
    # whether a whole frame fits is up to the vault, not the key file
    for framed_len in (0, 24, 0xFFFF):
        assert KeyFile.from_bytes(with_framed_len(single, framed_len)).framed_len == framed_len


def test_pack_lpint_rejects_negative_and_too_wide_integers():
    with pytest.raises(ValueError):
        pack_lpint(-1)
    # 65536 bytes, one more than a u16 length prefix can count
    with pytest.raises(ValueError):
        pack_lpint(1 << 8 * 0xFFFF)
