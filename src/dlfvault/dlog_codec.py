"""The four schemes' coefficient maps, both ways.

One pipeline maps a message to coefficients, with two optional masks:

    frame -> whole-message mask -> segment -> per-segment masks

A message's key is its tuple of secret exponents: none for classical,
(kappa,) for per-segment and whole-message, (kappa_even, kappa_odd) for
parity. A mask multiplies by alpha**e in F_p, where the 1-based segment
index i takes e = exponents[i % len(exponents)]. The whole-message
scheme masks before the split, per-segment and parity after it, and
classical only splits. message_decoder runs the pipeline backwards with
the inverse masks, so the maps are exact inverses. Each map computes
one power per exponent, so a message's masks cost one power under a
single key and two under a parity key, whatever its segment count.

alpha is fixed within a field, so every power comes from a fixed-base
comb (Lim and Lee, CRYPTO '94), not from the builtin pow. e is first
reduced mod p - 1, which is exact because alpha has order p - 1 in every
certified field, and read as 8 blocks of a bits, a = ceil(p_bits / 8)
rounded up to a multiple of 16. Column j's 8-bit index holds bit j of
each block. Sub-table s holds, for each subset of the 8 blocks, the
product of alpha^(2^(a*k + 16*s)) over its blocks k, and serves columns
16*s to 16*s + 15. alpha^e is then 16 squarings and one multiply mod p
per nonzero column: about 143 at 1024 bits, from 2,048 entries, where
pow squares 1,024 times.
A field's table is built at its first mask power, never at import or
load, and is shared by every PrimeField of the same (p, alpha), so a
vault loaded from bytes reuses the table lock built.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass
from functools import lru_cache

from . import framing
from ._wire import check_end, pack_lpint, read_header, take, unpack_lpint
from .errors import BadLength, KeyKindMismatch, MalformedFile, MessageTooLarge
from .field import PrimeField

_HEADER = b"DLFK\x01"


class Scheme(enum.IntEnum):
    """How polynomial coefficients relate to the framed message."""

    CLASSICAL = 0        # segments are the coefficients, no encryption
    PER_SEGMENT = 1      # each segment multiplied by alpha^kappa
    WHOLE_MESSAGE = 2    # one multiplication of the whole framed integer, then split
    PARITY = 3           # separate exponents for even- and odd-indexed segments


# how many exponents a key of each scheme holds
_KEY_SIZE = {Scheme.CLASSICAL: 0, Scheme.PER_SEGMENT: 1, Scheme.WHOLE_MESSAGE: 1,
             Scheme.PARITY: 2}
# a key's name in messages, by exponent count
_KIND_NAMES = ("none", "single", "parity")
# DLFK kind byte -> exponent count
_CODE_SIZES = (1, 2, 0)

_SEGMENT_MASKED = (Scheme.PER_SEGMENT, Scheme.PARITY)

# squarings per comb power, one per row; each sub-table serves one
# column of every row
_COMB_ROWS = 16
# '0'/'1' -> byte 0/1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# distinct (p, alpha) pairs whose power table is kept per process; a
# 1024-bit table takes about 0.35 MB, a MAX_P_BITS one about 4.7 MB
_TABLE_FIELDS = 4


def _exponent_ranges(params: PrimeField, size: int) -> list[range]:
    """The range gen_key draws each exponent of a size-exponent key from:
    exponent j lies in [1, p - 2] and is -j mod size, so under a parity
    key kappa_even is even, kappa_odd odd, and the two segment classes
    never share a multiplier."""
    return [range(size - j, params.p - 1, size) for j in range(size)]


def gen_key(params: PrimeField, scheme: Scheme, seed: int) -> tuple[int, ...]:
    """Draw the scheme's exponents from a seeded rng, in tuple order; a
    value that names no Scheme raises ValueError."""
    rng = random.Random(seed)
    return tuple(rng.randrange(r.start, r.stop, r.step)
                 for r in _exponent_ranges(params, _KEY_SIZE[Scheme(scheme)]))


@lru_cache(maxsize=_TABLE_FIELDS)
def _power_table(p: int, alpha: int) -> tuple[tuple[int, ...], ...]:
    """Sub-table s holds, at each 8-bit index I, the product over I's set
    bits k of alpha^(2^(a*k + _COMB_ROWS*s)) mod p, where a, the bits per
    block, is ceil(p_bits / 8) rounded up to a multiple of _COMB_ROWS:
    one chain of squarings, then one multiply per index with two or more
    set bits. Keyed on the exact pair, because every vault load builds a
    new PrimeField."""
    a = -(-p.bit_length() // (8 * _COMB_ROWS)) * _COMB_ROWS
    chain = [alpha]
    for _ in range(8 * a - _COMB_ROWS):
        chain.append(chain[-1] * chain[-1] % p)
    tables = []
    for column in range(0, a, _COMB_ROWS):
        table = [1]
        for k in range(8):
            base = chain[a * k + column]
            table += [base] + [t * base % p for t in table[1:]]
        tables.append(tuple(table))
    return tuple(tables)


def _alpha_power(params: PrimeField, e: int) -> int:
    """alpha^e mod p, equal to pow(alpha, e, p) for every e >= 0: e mod
    p - 1 gives the same power, because alpha has order p - 1, and it
    fits the comb's 8 blocks of a bits, because p - 1 < 2^p_bits. Column
    j's index holds bit j of each block. Row t multiplies in, from each
    sub-table s, the entry at column _COMB_ROWS*s + t's index, and
    Horner's rule over the rows, from the last down, squares once per
    row."""
    p = params.p
    tables = _power_table(p, params.alpha)
    a = _COMB_ROWS * len(tables)
    bits = format(e % (p - 1), f"0{8 * a}b").encode().translate(_BIT_BYTES)
    # block k is bits[a*(7-k):a*(8-k)], most significant bit first, so
    # read big-endian it holds bit j of block k in byte j
    z = 0
    for k in range(8):
        z |= int.from_bytes(bits[a * (7 - k):a * (8 - k)], "big") << k
    columns = z.to_bytes(a, "little")
    acc = 1
    for t in reversed(range(_COMB_ROWS)):
        acc = acc * acc % p
        for table, i in zip(tables, columns[t::_COMB_ROWS]):
            if i:
                acc = acc * table[i] % p
    return acc


def _masks(params: PrimeField, exponents: tuple[int, ...], count: int) -> list[int]:
    """The multiplier alpha^e of each 1-based segment index 1..count, where
    e is the index's exponent; message_decoder passes each e as p - 1 - e
    for the inverse masks. One table power per distinct exponent, never
    the builtin pow."""
    used = [exponents[i % len(exponents)] for i in range(1, count + 1)]
    powers = {e: _alpha_power(params, e) for e in set(used)}
    return [powers[e] for e in used]


@dataclass(frozen=True)
class KeyFile:
    """A message's key, its tuple of exponents, stored separately from
    the vault it opens.

    framed_len is only meaningful for whole-message keys, where the
    decoder must know how many bytes the framed integer serializes to;
    every other key stores zero. Whether a key fits a vault is checked
    where the two meet, in message_decoder.
    """

    exponents: tuple[int, ...] = ()
    framed_len: int = 0

    def __post_init__(self):
        if len(self.exponents) >= len(_KIND_NAMES):
            raise ValueError(f"a key holds at most {len(_KIND_NAMES) - 1} exponents, "
                             f"not {len(self.exponents)}")

    def to_bytes(self) -> bytes:
        out = bytearray(_HEADER)
        out.append(_CODE_SIZES.index(len(self.exponents)))
        for e in self.exponents:
            out += pack_lpint(e)
        out += struct.pack(">H", self.framed_len)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "KeyFile":
        code, offset = take(data, read_header(data, _HEADER), 1)
        if code[0] >= len(_CODE_SIZES):
            raise MalformedFile(f"unknown key kind code {code[0]}")
        exponents = []
        for _ in range(_CODE_SIZES[code[0]]):
            e, offset = unpack_lpint(data, offset)
            exponents.append(e)
        raw, offset = take(data, offset, 2)
        check_end(data, offset, "key record")
        (framed_len,) = struct.unpack(">H", raw)
        if framed_len and (len(exponents) != 1 or framed_len < framing.MIN_FRAME_LEN):
            raise MalformedFile(f"a {_KIND_NAMES[len(exponents)]} key never records "
                                f"a {framed_len}-byte frame")
        return cls(tuple(exponents), framed_len)


def whole_chunks(params: PrimeField, seg_bits: int) -> int:
    """Coefficients of a whole-message vault: p_bits split into seg_bits chunks."""
    return -(-params.p_bits // seg_bits)


def encode_message(params: PrimeField, scheme: Scheme, message: bytes, seg_bits: int,
                   seed: int) -> tuple[list[int], KeyFile]:
    """Frame, whole-message mask, segment, per-segment masks, under a
    fresh key drawn from seed; returns (coeffs, key file). seg_bits above
    p_bits - 1 raises BadLength."""
    if seg_bits > params.p_bits - 1:
        raise BadLength(f"{seg_bits}-bit segments do not embed into a {params.p_bits}-bit field")
    key = gen_key(params, scheme, seed)
    framed = framing.frame(message, seg_bits)
    p, framed_len = params.p, 0
    if scheme is Scheme.WHOLE_MESSAGE:
        # the framed integer must lie below p, or unmasking could not recover it
        framed_len, value = len(framed), int.from_bytes(framed, "big")
        if value >= p:
            raise MessageTooLarge(f"framed message spans {value.bit_length()} bits, "
                                  f"field holds only {params.p_bits - 1}")
        width = whole_chunks(params, seg_bits) * seg_bits // 8
        (mask,) = _masks(params, key, 1)
        framed = (value * mask % p).to_bytes(width, "big")
    coeffs = framing.segment(framed, seg_bits)
    if scheme in _SEGMENT_MASKED:
        masks = _masks(params, key, len(coeffs))
        coeffs = [s * m % p for s, m in zip(coeffs, masks)]
    return coeffs, KeyFile(key, framed_len)


def message_decoder(vault, key_file: KeyFile):
    """Build (decode, screen) for a vault (read for scheme, params,
    seg_bits and coeff_count). decode maps coeffs -> message bytes:
    per-segment unmask, reassemble, whole unmask, deframe. Before any
    power, the key must hold as many exponents as the vault's scheme
    takes (KeyFile() for classical), each one gen_key draws, and a frame
    length the vault can hold.
    decode raises BadLength, MalformedFrame or SignatureMismatch on a
    wrong candidate. screen(c0) is decode's first check on its own: it
    is false exactly when coefficient 0, unmasked by segment 1's inverse
    mask under per-segment and parity, is no seg_bits-bit segment, so a
    coeffs whose c0 fails it is one decode rejects with BadLength. The
    inverse masks are computed once here.
    """
    params, seg_bits, p = vault.params, vault.seg_bits, vault.params.p
    key, framed_len = key_file.exponents, key_file.framed_len
    size, kind = _KEY_SIZE[vault.scheme], _KIND_NAMES[len(key)]
    if len(key) != size:
        raise KeyKindMismatch(f"scheme {vault.scheme.name} needs a "
                              f"{_KIND_NAMES[size]!r} key, got {kind!r}")
    if not all(e in r for e, r in zip(key, _exponent_ranges(params, size))):
        raise MalformedFile(f"a {kind} key has an exponent gen_key never draws")
    # the framed integer is below p; only its u64 length header adds leading zero bytes
    top = -(-params.p_bits // 8) + framing.HEADER_LEN
    fits = framed_len == 0
    if vault.scheme is Scheme.WHOLE_MESSAGE:
        fits = framing.MIN_FRAME_LEN <= framed_len <= top and not framed_len % (seg_bits // 8)
    if not fits:
        raise MalformedFile(f"a {vault.scheme.name} vault never has a {framed_len}-byte frame")
    # alpha has order p - 1, so alpha^(p - 1 - e) undoes alpha^e
    inverse_key = tuple(p - 1 - e for e in key)
    segment_inverses, whole_inverse = [], None
    if vault.scheme in _SEGMENT_MASKED:
        segment_inverses = _masks(params, inverse_key, vault.coeff_count)
    elif vault.scheme is Scheme.WHOLE_MESSAGE:
        (whole_inverse,) = _masks(params, inverse_key, 1)

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

    unmask0, limit = segment_inverses[0] if segment_inverses else 1, 1 << seg_bits

    def screen(c0):
        return c0 * unmask0 % p < limit
    return decode, screen
