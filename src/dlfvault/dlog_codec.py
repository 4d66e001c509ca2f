"""The four schemes' coefficient maps, both ways.

One pipeline maps a message to coefficients, with two optional masks:

    frame -> whole-message mask -> segment -> per-segment masks

A mask multiplies by alpha**kappa in F_p, kappa a per-message secret
exponent: one kappa under a single key, kappa_even or kappa_odd by the
1-based segment index under a parity key, no mask under a none key.
The whole-message scheme masks before the split, per-segment and parity
after it, and classical only splits. message_decoder runs the pipeline
backwards with the inverse masks, so the maps are exact inverses. Each
map computes one power per exponent, so a message's masks cost one
power under a single key and two under a parity key, whatever its
segment count.
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


def _masks(params: PrimeField, key: EphemeralKey, count: int, inverse: bool) -> list[int]:
    """The multiplier of each 1-based segment index 1..count: alpha^e for
    the index's exponent e, or with inverse its inverse alpha^(p - 1 - e)
    (alpha has order p - 1). One power per distinct exponent."""
    p = params.p
    exponents = [key_exponent(key, i) for i in range(1, count + 1)]
    powers = {e: pow(params.alpha, p - 1 - e if inverse else e, p) for e in set(exponents)}
    return [powers[e] for e in exponents]


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
    p, framed_len = params.p, 0
    if scheme is Scheme.WHOLE_MESSAGE:
        # the framed integer must lie below p, or unmasking could not recover it
        framed_len, value = len(framed), int.from_bytes(framed, "big")
        if value >= p:
            raise MessageTooLarge(f"framed message spans {value.bit_length()} bits, "
                                  f"field holds only {params.p_bits - 1}")
        width = whole_chunks(params, seg_bits) * seg_bits // 8
        (mask,) = _masks(params, key, 1, inverse=False)
        framed = (value * mask % p).to_bytes(width, "big")
    coeffs = framing.segment(framed, seg_bits)
    if scheme in _SEGMENT_MASKED:
        masks = _masks(params, key, len(coeffs), inverse=False)
        coeffs = [s * m % p for s, m in zip(coeffs, masks)]
    return coeffs, KeyFile(key=key, framed_len=framed_len)


def message_decoder(vault, key_file: KeyFile | None):
    """Build coeffs -> message bytes for a vault (read for scheme, params,
    seg_bits and coeff_count): per-segment unmask, reassemble, whole
    unmask, deframe. Before any power, a given key must be of the vault's
    kind, with exponents gen_key draws and a frame length the vault can
    hold; with no key nothing is unmasked.
    The decoder raises BadLength, MalformedFrame or SignatureMismatch on
    a wrong candidate. The inverse masks are computed once here.
    """
    params, seg_bits, p = vault.params, vault.seg_bits, vault.params.p
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
            segment_inverses = _masks(params, key, vault.coeff_count, inverse=True)
        elif vault.scheme is Scheme.WHOLE_MESSAGE:
            (whole_inverse,) = _masks(params, key, 1, inverse=True)

    def decode(coeffs):
        if segment_inverses:
            coeffs = [c * m % p for c, m in zip(coeffs, segment_inverses)]
        framed = framing.reassemble(coeffs, seg_bits)
        if whole_inverse is not None:
            value = int.from_bytes(framed, "big") * whole_inverse % p
            try:
                framed = value.to_bytes(framed_len, "big")
            except OverflowError:
                raise BadLength("decoded value is wider than the recorded frame length") from None
        return framing.deframe(framed)
    return decode
