"""Shared construction helpers for the test suite."""

import builtins
import dataclasses
import struct
from types import SimpleNamespace

from dlfvault._wire import pack_lpint
from dlfvault.attacks import _MASK64, _splitmix64
from dlfvault.errors import ZeroInverse
from dlfvault.field import GF16_REDUCTION_POLY, binary_field

# 65,535 bytes, the widest integer a DLFK length prefix carries; even
WIDE_EXPONENT = 1 << 8 * 0xFFFF - 1

# the 1024-bit MODP prime of RFC 2409 (Oakley group 2), a safe prime whose
# smallest primitive root is 5
OAKLEY_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF", 16)


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


def gf16_clmul(a, b):
    """Carry-less shift-and-xor product reduced mod GF16_REDUCTION_POLY;
    the reference the GF(2^16) table arithmetic is tested against."""
    a &= 0xFFFF
    b &= 0xFFFF
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x10000:
            a ^= GF16_REDUCTION_POLY
    return r


def crc16_bitwise(value, bit_len):
    """value * X^16 mod X^16 + X^15 + X^2 + 1 by MSB-first long division,
    one bit of value per step; the reference crc16_remainder is tested
    against."""
    acc = value << 16
    for i in range(bit_len + 15, 15, -1):
        if acc >> i & 1:
            acc ^= 0x18005 << (i - 16)
    return acc


class GF16Methods:
    """GF(2^16) as an object with add/sub/mul/inv methods on the tables of
    binary_field(): the method path polynomial's GF(2^16) kernels replaced,
    kept as their reference."""

    size = 1 << 16

    def __init__(self):
        gf = binary_field()
        self._exp, self._log = gf.exp, gf.log

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, x):
        if x == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self._exp[65535 - self._log[x]]


def method_field(field):
    """F_p as an object with add/sub/mul/inv methods built from builtin
    `% p` and `pow(x, -1, p)`: the reference for the plain-int kernels."""
    p = field.p
    return SimpleNamespace(add=lambda a, b: (a + b) % p, sub=lambda a, b: (a - b) % p,
                           mul=lambda a, b: a * b % p, inv=lambda x: pow(x, -1, p), size=p)


def method_eval_poly(field, coeffs, x):
    """Horner evaluation through the field's methods."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def method_interpolate(field, points):
    """Newton's form through the field's methods, one inverse per point:
    P += M * (y - P(x)) / M(x) and M *= (X - x)."""
    result, master = [0] * len(points), [1]
    for x, y in points:
        scale = field.mul(field.sub(y, method_eval_poly(field, result, x)),
                          field.inv(method_eval_poly(field, master, x)))
        for k, c in enumerate(master):
            result[k] = field.add(result[k], field.mul(c, scale))
        master = [field.sub(lo, field.mul(x, hi)) for lo, hi in zip([0] + master, master + [0])]
    return result


def sample_distinct(seed, trial, n, r):
    """Floyd's uniform n-subset of range(r), one element per draw of
    attacks' seeded stream, at most 2^16 draws per trial; the reference
    monte_carlo_rate's trials are tested against."""
    z0 = (seed & _MASK64) * 0xD1342543DE82EF95 + 1
    taken = set()
    for step, j in enumerate(range(r - n, r)):
        x = _splitmix64((z0 + (trial << 16) + step) & _MASK64) % (j + 1)
        if x in taken:
            x = j
        taken.add(x)
        yield x


def no_pow(*args):
    """Stand-in for the builtin pow, or for the codec's table power or its
    table builder, in a module under test, to show that a rejection
    computes no modular exponentiation."""
    raise AssertionError("modular exponentiation computed")


class PowCounter:
    """Stand-in for the builtin pow in a module under test that counts the
    modular powers (exponent >= 0) and the inversions (exponent -1)
    computed, each in its own counter."""

    def __init__(self):
        self.powers = 0
        self.inverses = 0

    def __call__(self, base, exponent, mod=None):
        if exponent >= 0:
            self.powers += 1
        else:
            self.inverses += 1
        return builtins.pow(base, exponent, mod)


def keys_gen_key_never_draws(key_file, p):
    """Copies of a single or parity key file with one exponent at 0, p - 1
    or WIDE_EXPONENT; for a parity key also the two exponents swapped."""
    first, *rest = key_file.exponents
    keys = [(k, *rest) for k in (0, p - 1, WIDE_EXPONENT)]
    if rest:
        keys.append(key_file.exponents[::-1])
    return [dataclasses.replace(key_file, exponents=k) for k in keys]
