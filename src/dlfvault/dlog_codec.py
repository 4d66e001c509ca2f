"""The four schemes' coefficient maps, both ways.

One pipeline maps a message to coefficients, with two optional masks:

    frame -> whole-message mask -> segment -> per-segment masks

A mask multiplies by alpha**kappa in F_p, kappa a per-message secret
exponent: one kappa under a single key, kappa_even or kappa_odd by the
1-based segment index under a parity key, no mask under a none key.
The whole-message scheme masks before the split, per-segment and parity
after it, and classical only splits. message_decoder runs the pipeline
backwards with the inverse powers, so the maps are exact inverses.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass

from . import framing
from ._wire import check_end, pack_lpint, read_header, take, unpack_lpint
from .errors import BadLength, KeyKindMismatch, MalformedFile, MessageTooLarge
from .field import PrimeField

KIND_SINGLE = "single"
KIND_PARITY = "parity"
KIND_NONE = "none"

_KIND_CODES = {KIND_SINGLE: 0, KIND_PARITY: 1, KIND_NONE: 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

_HEADER = b"DLFK\x01"


class Scheme(enum.IntEnum):
    """How polynomial coefficients relate to the framed message."""

    CLASSICAL = 0        # segments are the coefficients, no encryption
    PER_SEGMENT = 1      # each segment multiplied by alpha^kappa
    WHOLE_MESSAGE = 2    # one multiplication of the whole framed integer, then split
    PARITY = 3           # separate exponents for even- and odd-indexed segments


_SCHEME_KEY_KIND = {
    Scheme.CLASSICAL: KIND_NONE,
    Scheme.PER_SEGMENT: KIND_SINGLE,
    Scheme.WHOLE_MESSAGE: KIND_SINGLE,
    Scheme.PARITY: KIND_PARITY,
}

_SEGMENT_MASKED = (Scheme.PER_SEGMENT, Scheme.PARITY)


@dataclass(frozen=True)
class EphemeralKey:
    """Secret exponent(s) for one locked message."""

    kind: str
    kappa: int = 0
    kappa_even: int = 0
    kappa_odd: int = 0


def _exponent_ranges(params: PrimeField, kind: str) -> dict[str, range]:
    """Each exponent a key of this kind carries -> the range gen_key draws it from."""
    top = params.p - 1
    ranges = {KIND_SINGLE: {"kappa": range(1, top)},
              KIND_PARITY: {"kappa_even": range(2, top, 2), "kappa_odd": range(1, top, 2)},
              KIND_NONE: {}}
    if kind not in ranges:
        raise ValueError(f"unknown key kind {kind!r}")
    return ranges[kind]


def gen_key(params: PrimeField, kind: str, seed: int) -> EphemeralKey:
    """Draw fresh exponent(s) in [1, p - 2] from a seeded rng.

    Parity keys additionally pin kappa_even to an even value and
    kappa_odd to an odd one, so the two segment classes never share a
    multiplier.
    """
    rng = random.Random(seed)
    return EphemeralKey(kind, **{name: rng.randrange(r.start, r.stop, r.step)
                                 for name, r in _exponent_ranges(params, kind).items()})


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
    """(alpha^exponent)^-1, the multiplier every decoding map applies. alpha
    has order p - 1 in every PrimeField, so that is alpha^(p - 1 - exponent)."""
    return pow(params.alpha, params.p - 1 - exponent, params.p)


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
    every other kind stores zero. Whether a key fits a vault is checked
    where the two meet, in message_decoder.
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
        if framed_len and (kind != KIND_SINGLE or framed_len < framing.MIN_FRAME_LEN):
            raise MalformedFile(f"a {kind} key never records a {framed_len}-byte frame")
        return cls(key=key, framed_len=framed_len)


def whole_chunks(params: PrimeField, seg_bits: int) -> int:
    """Coefficients of a whole-message vault: p_bits split into seg_bits chunks."""
    return -(-params.p_bits // seg_bits)


def check_key_kind(scheme: Scheme, key_file: KeyFile | None) -> None:
    """A key file must be of the scheme's kind; no key file counts as kind none."""
    expected = _SCHEME_KEY_KIND[scheme]
    actual = key_file.key.kind if key_file is not None else KIND_NONE
    if actual != expected:
        raise KeyKindMismatch(f"scheme {scheme.name} needs a {expected!r} key, got {actual!r}")


def encode_message(params: PrimeField, scheme: Scheme, message: bytes, seg_bits: int,
                   seed: int) -> tuple[list[int], KeyFile]:
    """Frame, whole-message mask, segment, per-segment masks, under a
    fresh key drawn from seed; returns (coeffs, key file). seg_bits above
    p_bits - 1 raises BadLength."""
    if seg_bits > params.p_bits - 1:
        raise BadLength(f"{seg_bits}-bit segments do not embed into a {params.p_bits}-bit field")
    key = gen_key(params, _SCHEME_KEY_KIND[scheme], seed)
    framed = framing.frame(message, seg_bits)
    framed_len = 0
    if scheme is Scheme.WHOLE_MESSAGE:
        framed_len = len(framed)
        width = whole_chunks(params, seg_bits) * seg_bits // 8
        framed = encode_whole(params, framed, key).to_bytes(width, "big")
    coeffs = framing.segment(framed, seg_bits)
    if scheme in _SEGMENT_MASKED:
        coeffs = [encode_segment(params, s, key, i) for i, s in enumerate(coeffs, start=1)]
    return coeffs, KeyFile(key=key, framed_len=framed_len)


def message_decoder(vault, key_file: KeyFile | None):
    """Build coeffs -> message bytes for a vault (read for scheme, params,
    seg_bits and coeff_count): per-segment unmask, reassemble, whole
    unmask, deframe. Before any power, a given key must be of the vault's
    kind, with exponents gen_key draws and a frame length the vault can
    hold; with no key nothing is unmasked.
    The decoder raises BadLength, MalformedFrame or SignatureMismatch on
    a wrong candidate. Inverse powers are computed once here.
    """
    params, seg_bits = vault.params, vault.seg_bits
    segment_inverses, whole_inverse, framed_len = [], None, 0
    if key_file is not None:
        check_key_kind(vault.scheme, key_file)
        key, framed_len = key_file.key, key_file.framed_len
        if not all(getattr(key, name) in r
                   for name, r in _exponent_ranges(params, key.kind).items()):
            raise MalformedFile(f"a {key.kind} key has an exponent gen_key never draws")
        # the framed integer is below p; only its u64 length header adds leading zero bytes
        top = -(-params.p_bits // 8) + framing.HEADER_LEN
        fits = framed_len == 0
        if vault.scheme is Scheme.WHOLE_MESSAGE:
            fits = framing.MIN_FRAME_LEN <= framed_len <= top and not framed_len % (seg_bits // 8)
        if not fits:
            raise MalformedFile(f"a {vault.scheme.name} vault never has a {framed_len}-byte frame")
        if vault.scheme in _SEGMENT_MASKED:
            segment_inverses = [inverse_power(params, key_exponent(key, i))
                                for i in range(1, vault.coeff_count + 1)]
        elif vault.scheme is Scheme.WHOLE_MESSAGE:
            whole_inverse = inverse_power(params, key.kappa)

    def decode(coeffs):
        if segment_inverses:
            coeffs = [params.mul(c, m) for c, m in zip(coeffs, segment_inverses)]
        framed = framing.reassemble(coeffs, seg_bits)
        if whole_inverse is not None:
            framed = unmask_whole(params, int.from_bytes(framed, "big"), whole_inverse,
                                  framed_len)
        return framing.deframe(framed)
    return decode
