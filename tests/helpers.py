"""Shared construction helpers for the test suite."""

import builtins
import dataclasses
import struct

from dlfvault._wire import pack_lpint
from dlfvault.dlog_codec import KIND_PARITY

# 65,535 bytes, the widest integer a DLFK length prefix carries; even
WIDE_EXPONENT = 1 << 8 * 0xFFFF - 1


def spaced_set(rng, p, count, delta, jitter=64):
    """count ascending elements with pairwise gaps above 2*delta, kept at
    least delta away from both field edges so fuzzed probes stay valid."""
    gap = 2 * delta + 1
    x = delta + 1 + rng.randrange(jitter)
    out = []
    for _ in range(count):
        out.append(x)
        x += gap + rng.randrange(jitter)
    assert out[-1] < p - delta, "field too small for this spacing"
    return out


def feasible_whole_message_lengths(params, seg_bits):
    """Message byte lengths whose framed form fits below p for the
    whole-message scheme."""
    seg_bytes = seg_bits // 8
    lengths = []
    for length in range(0, 64):
        framed_len = 24 + length
        framed_len += -framed_len % seg_bytes
        if framed_len * 8 <= params.p_bits - 1:
            lengths.append(length)
    return lengths


def with_framed_len(key_bytes, framed_len):
    """DLFK bytes with the closing u16 frame length replaced."""
    return key_bytes[:-2] + struct.pack(">H", framed_len)


def vault_file(p, alpha, points):
    """DLFV bytes of a classical vault (8-bit segments, one coefficient,
    delta 0) written field by field, so the field block can hold a
    (p, alpha) that no PrimeField accepts."""
    width = (p.bit_length() + 7) // 8
    out = b"DLFV\x01\x00" + struct.pack(">HH", 8, 1) + pack_lpint(0)
    out += pack_lpint(p) + pack_lpint(alpha) + struct.pack(">I", len(points))
    for x, y in points:
        out += x.to_bytes(width, "big") + y.to_bytes(width, "big")
    return out


def no_pow(*args):
    """Stand-in for the builtin pow in a module under test, to show that a
    rejection computes no modular exponentiation."""
    raise AssertionError("modular exponentiation computed")


class PowCounter:
    """Stand-in for the builtin pow in a module under test that counts the
    modular powers computed; inversions (exponent -1) are not counted."""

    def __init__(self):
        self.powers = 0

    def __call__(self, base, exponent, mod=None):
        if exponent >= 0:
            self.powers += 1
        return builtins.pow(base, exponent, mod)


def keys_gen_key_never_draws(key_file, p):
    """Copies of a single or parity key file with one exponent at 0, p - 1
    or WIDE_EXPONENT; for a parity key also the two exponents swapped."""
    key = key_file.key
    slot = "kappa_even" if key.kind == KIND_PARITY else "kappa"
    keys = [dataclasses.replace(key, **{slot: k}) for k in (0, p - 1, WIDE_EXPONENT)]
    if key.kind == KIND_PARITY:
        keys.append(dataclasses.replace(key, kappa_even=key.kappa_odd, kappa_odd=key.kappa_even))
    return [dataclasses.replace(key_file, key=k) for k in keys]
