"""Ephemeral keys and the discrete-log coefficient maps.

Every scheme that encrypts polynomial coefficients does it the same way:
multiply by alpha**kappa in F_p, where kappa is a per-message secret
exponent. Variants differ in how many exponents exist and what selects
them:

  single  one kappa for everything
  parity  kappa_even for even 1-based segment indices, kappa_odd for odd
  none    no encryption layer (classical vaults)

Decoding multiplies by the inverse of the same power, so the maps are
exact inverses point by point.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from ._wire import check_end, pack_lpint, read_header, take, unpack_lpint
from .errors import BadLength, MalformedFile, MessageTooLarge
from .field import PrimeField

KIND_SINGLE = "single"
KIND_PARITY = "parity"
KIND_NONE = "none"

_KIND_CODES = {KIND_SINGLE: 0, KIND_PARITY: 1, KIND_NONE: 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

_HEADER = b"DLFK\x01"


@dataclass(frozen=True)
class EphemeralKey:
    """Secret exponent(s) for one locked message."""

    kind: str
    kappa: int = 0
    kappa_even: int = 0
    kappa_odd: int = 0


def gen_key(params: PrimeField, kind: str, seed: int) -> EphemeralKey:
    """Draw fresh exponent(s) in [1, p - 2] from a seeded rng.

    Parity keys additionally pin kappa_even to an even value and
    kappa_odd to an odd one, so the two segment classes never share a
    multiplier.
    """
    if params.p < 5:
        raise ValueError("p must be at least 5 to leave room for distinct exponents")
    rng = random.Random(seed)
    if kind == KIND_SINGLE:
        return EphemeralKey(KIND_SINGLE, kappa=rng.randrange(1, params.p - 1))
    if kind == KIND_PARITY:
        half = (params.p - 1) // 2
        even = 2 * rng.randrange(1, half)
        odd = 2 * rng.randrange(0, half) + 1
        return EphemeralKey(KIND_PARITY, kappa_even=even, kappa_odd=odd)
    if kind == KIND_NONE:
        return EphemeralKey(KIND_NONE)
    raise ValueError(f"unknown key kind {kind!r}")


def key_exponent(key: EphemeralKey, index: int) -> int:
    """The exponent a 1-based segment index uses under this key."""
    if key.kind == KIND_SINGLE:
        return key.kappa
    if key.kind == KIND_PARITY:
        return key.kappa_even if index % 2 == 0 else key.kappa_odd
    raise ValueError("key carries no exponent")


def encode_segment(params: PrimeField, m_i: int, key: EphemeralKey, index: int) -> int:
    """m_i * alpha^kappa in F_p for the segment at the given 1-based index."""
    mult = params.pow(params.alpha, key_exponent(key, index))
    return params.mul(m_i % params.p, mult)


def inverse_power(params: PrimeField, exponent: int) -> int:
    """(alpha^exponent)^-1, the multiplier every decoding map applies."""
    return params.inv(params.pow(params.alpha, exponent))


def decode_segment(params: PrimeField, beta_i: int, key: EphemeralKey, index: int) -> int:
    """Exact inverse of encode_segment at the same index."""
    return params.mul(beta_i % params.p, inverse_power(params, key_exponent(key, index)))


def encode_whole(params: PrimeField, framed: bytes, key: EphemeralKey) -> int:
    """Treat the whole framed message as one integer and encrypt it.

    The integer must fit strictly below p; otherwise the decoding map
    would not be injective, so MessageTooLarge is raised instead.
    """
    value = int.from_bytes(framed, "big")
    if value >= params.p:
        raise MessageTooLarge(
            f"framed message spans {value.bit_length()} bits, field holds only {params.p_bits - 1}")
    return params.mul(value, params.pow(params.alpha, key.kappa))


def decode_whole(params: PrimeField, beta: int, key: EphemeralKey, framed_len: int) -> bytes:
    """Invert encode_whole and re-serialize to the recorded framed length."""
    return unmask_whole(params, beta, inverse_power(params, key.kappa), framed_len)


def unmask_whole(params: PrimeField, beta: int, inverse: int, framed_len: int) -> bytes:
    """decode_whole with the inverse power already computed, so a caller
    trying many candidate betas under one key pays the inversion once."""
    value = params.mul(beta % params.p, inverse)
    try:
        return value.to_bytes(framed_len, "big")
    except OverflowError:
        raise BadLength("decoded value is wider than the recorded frame length") from None


@dataclass(frozen=True)
class KeyFile:
    """Ephemeral key material, stored separately from the vault it opens.

    framed_len is only meaningful for whole-message keys, where the
    decoder must know how many bytes the framed integer serializes to;
    every other kind stores zero.
    """

    key: EphemeralKey
    framed_len: int = 0

    def to_bytes(self) -> bytes:
        out = bytearray(_HEADER)
        out.append(_KIND_CODES[self.key.kind])
        if self.key.kind == KIND_SINGLE:
            out += pack_lpint(self.key.kappa)
        elif self.key.kind == KIND_PARITY:
            out += pack_lpint(self.key.kappa_even)
            out += pack_lpint(self.key.kappa_odd)
        out += struct.pack(">H", self.framed_len)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "KeyFile":
        code, offset = take(data, read_header(data, _HEADER), 1)
        kind = _KIND_NAMES.get(code[0])
        if kind is None:
            raise MalformedFile(f"unknown key kind code {code[0]}")
        if kind == KIND_SINGLE:
            kappa, offset = unpack_lpint(data, offset)
            key = EphemeralKey(KIND_SINGLE, kappa=kappa)
        elif kind == KIND_PARITY:
            even, offset = unpack_lpint(data, offset)
            odd, offset = unpack_lpint(data, offset)
            key = EphemeralKey(KIND_PARITY, kappa_even=even, kappa_odd=odd)
        else:
            key = EphemeralKey(KIND_NONE)
        raw, offset = take(data, offset, 2)
        check_end(data, offset, "key record")
        (framed_len,) = struct.unpack(">H", raw)
        return cls(key=key, framed_len=framed_len)
