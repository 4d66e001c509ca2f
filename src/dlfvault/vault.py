"""Fuzzy vault core: points, search, file. Point placement, tolerance
matching, subset search, lock/unlock and the DLFV format; dlog_codec
maps messages to coefficients and back. Unlock decodes the matches as a
Reed-Solomon codeword and walks subsets only when that finds nothing,
in itertools.combinations order (polynomial.subset_interpolants).

A vault is r points over a field: F_p for the four schemes here,
GF(2^16) for identity binding, which reuses place_points, nearest_points
and subset_search. The t genuine ones sit on the locking
polynomial whose coefficients carry the (optionally encrypted) framed
message; the rest are chaff placed off the polynomial. All x coordinates
keep a pairwise integer distance greater than 2*delta so that a probe
value can never sit within delta of two vault points at once.
"""

from __future__ import annotations

import hashlib
import random
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass, field as dc_field

from . import _draw, framing
from ._wire import check_end, pack_lpint, read_header, take, unpack_lpint
from .dlog_codec import (
    KeyFile,
    Scheme,
    encode_message,
    message_decoder,
    whole_chunks,
)
from .errors import (
    BadLength,
    ChaffSpaceExhausted,
    DecodeFailed,
    InvalidLockingSet,
    LockingSetTooSmall,
    MalformedFile,
    MalformedFrame,
    NotEnoughMatches,
    SignatureMismatch,
)
from .field import PrimeField
from .polynomial import eval_poly, rs_decode, subset_interpolants

# subsets the brute-force attack may try, and unlock when its single
# Reed-Solomon decoder pass finds no polynomial; that pass is not counted
DEFAULT_MAX_SUBSETS = 100_000

# what a decode callable raises to reject a candidate polynomial
_REJECTED = (BadLength, MalformedFrame, SignatureMismatch)

# consecutive placement failures tolerated before chaff generation gives up
_CHAFF_ATTEMPTS = 1000

_HEADER = b"DLFV\x01"


@dataclass
class Vault:
    """A locked vault: parameters, dimensions, and the point cloud.

    genuine_mask marks which points lie on the locking polynomial. It is
    ground truth for tests and the attack harness and is never written
    by to_bytes, so a serialized vault leaks nothing beyond the points.
    """

    params: PrimeField
    scheme: Scheme
    coeff_count: int
    seg_bits: int
    delta: int
    points: list[tuple[int, int]]
    genuine_mask: list[bool] | None = dc_field(default=None, repr=False, compare=False)

    def to_bytes(self) -> bytes:
        out = bytearray(_HEADER)
        out.append(int(self.scheme))
        out += struct.pack(">HH", self.seg_bits, self.coeff_count)
        out += pack_lpint(self.delta)
        out += self.params.to_bytes()
        out += struct.pack(">I", len(self.points))
        width = (self.params.p_bits + 7) // 8
        for x, y in self.points:
            out += x.to_bytes(width, "big")
            out += y.to_bytes(width, "big")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Vault":
        """Parse a vault file. The header must be one lock can write, and
        the points must keep what place_points guarantees: every
        coordinate in [0, p) and x values more than 2*delta apart."""
        code, offset = take(data, read_header(data, _HEADER), 1)
        try:
            scheme = Scheme(code[0])
        except ValueError:
            raise MalformedFile(f"unknown scheme code {code[0]}") from None
        raw, offset = take(data, offset, 4)
        seg_bits, coeff_count = struct.unpack(">HH", raw)
        delta, offset = unpack_lpint(data, offset)
        params, offset = PrimeField.read_from(data, offset)
        raw, offset = take(data, offset, 4)
        (count,) = struct.unpack(">I", raw)
        width = (params.p_bits + 7) // 8
        raw, offset = take(data, offset, 2 * width * count)
        coords = [int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width)]
        points = list(zip(coords[::2], coords[1::2]))
        check_end(data, offset, "point list")
        if seg_bits <= 0 or seg_bits % 8 or seg_bits > params.p_bits - 1:
            raise MalformedFile(f"{seg_bits}-bit segments do not fit a {params.p_bits}-bit field")
        if not 0 < coeff_count <= count:
            raise MalformedFile(f"coefficient count {coeff_count} is not in [1, {count}]")
        if scheme is Scheme.WHOLE_MESSAGE and coeff_count != whole_chunks(params, seg_bits):
            raise MalformedFile(f"a whole-message vault has {whole_chunks(params, seg_bits)} "
                                f"coefficients, not {coeff_count}")
        if any(x >= params.p or y >= params.p for x, y in points):
            raise MalformedFile("a vault point has a coordinate outside [0, p)")
        _check_gaps([x for x, _ in points], delta, MalformedFile, "vault x values")
        return cls(params=params, scheme=scheme, coeff_count=coeff_count,
                   seg_bits=seg_bits, delta=delta, points=points)


def _subseed(seed: int, label: str) -> int:
    # independent rng streams per purpose, so the point layout for a given
    # (seed, locking set) is identical across schemes
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _validate_locking_set(locking_set, size, delta):
    for a in locking_set:
        if not isinstance(a, int):
            raise InvalidLockingSet(f"locking set element {a!r} is not an integer")
        if not 0 <= a < size:
            raise InvalidLockingSet(f"locking set element {a} is outside [0, {size})")
    _check_gaps(locking_set, delta, InvalidLockingSet, "locking set elements")


def _check_gaps(xs, delta, error, what):
    ordered = sorted(xs)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur - prev <= 2 * delta:
            raise error(f"{what} {prev} and {cur} are within 2*delta = {2 * delta}")


def place_points(field, coeffs, locking_set, chaff_count, delta, seed):
    """The vault of Juels and Sudan over a PrimeField or over the GF(2^16)
    of identity binding; polynomial.eval_poly evaluates on either.

    Checks chaff_count and delta are non-negative and the locking set is
    valid and no smaller than coeffs, evaluates the coefficient polynomial
    on it, adds chaff_count off-polynomial points, and scrambles the order
    by a Fisher-Yates shuffle. Chaff and scramble each draw from their
    own seeded getrandbits stream (see _draw), and from nothing else.
    Returns (points, genuine_mask).
    """
    if chaff_count < 0:
        raise ValueError("chaff_count must be non-negative")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    _validate_locking_set(locking_set, field.size, delta)
    if len(locking_set) < len(coeffs):
        raise LockingSetTooSmall(
            f"{len(coeffs)} coefficients need at least that many locking elements, "
            f"got {len(locking_set)}")
    genuine = [(a, eval_poly(field, coeffs, a)) for a in locking_set]
    chaff = _generate_chaff(field, coeffs, sorted(locking_set), chaff_count,
                            delta, random.Random(_subseed(seed, "chaff")).getrandbits)
    tagged = [(point, True) for point in genuine] + [(point, False) for point in chaff]
    _draw.fisher_yates(random.Random(_subseed(seed, "scramble")).getrandbits, tagged)
    return [point for point, _ in tagged], [is_genuine for _, is_genuine in tagged]


def lock(message: bytes, locking_set, scheme: Scheme, params: PrimeField,
         chaff_count: int = 0, delta: int = 0, *, seed: int,
         seg_bits: int = framing.DEFAULT_SEG_BITS) -> tuple[Vault, KeyFile]:
    """Lock message bytes under the locking set: encode_message maps them
    to the scheme's coefficients, and place_points places those. Each
    checks its own inputs, the codec first. Key and chaff flow from seed,
    which has no default: each message needs a fresh seed for a fresh key.
    Returns the vault and the key file that unlocking will need.
    """
    coeffs, key_file = encode_message(params, scheme, message, seg_bits, _subseed(seed, "key"))
    points, mask = place_points(params, coeffs, locking_set, chaff_count, delta, seed)
    return Vault(params=params, scheme=scheme, coeff_count=len(coeffs), seg_bits=seg_bits,
                 delta=delta, points=points, genuine_mask=mask), key_file


def _generate_chaff(field, coeffs, taken_xs, count, delta, getrandbits):
    """count points (u, v) with v != P(u), every x gap above 2*delta."""
    gap, size = 2 * delta, field.size
    xs = list(taken_xs)
    chaff = []
    for _ in range(count):
        for _ in range(_CHAFF_ATTEMPTS):
            u = _draw.below(getrandbits, size)
            # an x within gap of u would be the first one at or above u - gap
            i = bisect_left(xs, u - gap)
            if i == len(xs) or xs[i] - u > gap:
                break
        else:
            raise ChaffSpaceExhausted(
                f"no room for chaff point {len(chaff) + 1} of {count} at gap > {gap}")
        insort(xs, u)
        on_poly = eval_poly(field, coeffs, u)
        # one draw from a (size - 1)-element range, shifted around P(u):
        # uniform over the field minus the polynomial value
        v = _draw.below(getrandbits, size - 1)
        if v >= on_poly:
            v += 1
        chaff.append((u, v))
    return chaff


def nearest_points(points, delta, unlocking_set) -> list[tuple[int, int]]:
    """Points within delta of any probe, deduplicated, ordered by x.

    Distance is plain integer distance, no wraparound; delta = 0 is exact
    matching. place_points and Vault.from_bytes keep x values more than
    2*delta apart, so at most one point lies in [b - delta, b + delta]:
    the first x at or above b - delta, when it is at most b + delta.
    """
    ordered = sorted(points)
    xs = [x for x, _ in ordered]
    chosen = {}
    for b in unlocking_set:
        i = bisect_left(xs, b - delta)
        if i < len(xs) and xs[i] <= b + delta:
            chosen[xs[i]] = ordered[i]
    return [chosen[x] for x in sorted(chosen)]


def match_points(vault: Vault, unlocking_set) -> list[tuple[int, int]]:
    """Vault points within vault.delta of any probe; see nearest_points."""
    return nearest_points(vault.points, vault.delta, unlocking_set)


def subset_search(field, candidates, coeff_count, decode, max_subsets, screen=None):
    """Interpolate at most max_subsets candidate subsets in
    itertools.combinations order, lexicographic in x, until decode
    accepts one; returns (decoded value or None, subsets tried).
    polynomial.subset_interpolants walks them, and may step up to 32
    subsets ahead of those decode sees. A subset whose constant
    coefficient fails screen counts as a rejected subset.

    This is the paper's attack model and identity binding's search, and
    unlock's fallback beyond the Reed-Solomon decoding radius; max_subsets
    bounds this search only. Fewer than coeff_count candidates raise
    NotEnoughMatches, and a negative max_subsets raises ValueError.
    decode raises BadLength, MalformedFrame or SignatureMismatch to
    reject a candidate polynomial; screen must reject only constant
    coefficients on which decode would raise.
    """
    if len(candidates) < coeff_count:
        raise NotEnoughMatches(
            f"{len(candidates)} matched points cannot determine {coeff_count} coefficients")
    if max_subsets < 0:
        raise ValueError(f"max_subsets must be non-negative, not {max_subsets}")
    tried = 0
    for tried, coeffs in zip(range(1, max_subsets + 1),
                             subset_interpolants(field, candidates, coeff_count, screen)):
        if coeffs is None:
            continue
        try:
            return decode(coeffs), tried
        except _REJECTED:
            continue
    return None, tried


def unlock(vault: Vault, unlocking_set, key_file: KeyFile | None = None,
           max_subsets: int = DEFAULT_MAX_SUBSETS) -> bytes:
    """Recover the message from a vault given an unlocking set and the key.

    Probes are matched against vault points within delta. One
    Reed-Solomon decoder pass over the m matches finds the polynomial
    when at most floor((m - n) / 2) of them are chaff, n being the
    coefficient count. Within that radius the decoded polynomial is
    final: the message it decodes to is returned, and a rejection raises
    DecodeFailed. Only when the pass finds no polynomial does
    subset_search try at most max_subsets subsets of the matches; the
    decoder pass is not counted against max_subsets. key_file may be
    omitted for classical vaults only.
    """
    decode, screen = message_decoder(vault, key_file or KeyFile())
    candidates = match_points(vault, unlocking_set)
    # a negative budget is subset_search's error to raise, decodable or not
    coeffs = rs_decode(vault.params, candidates, vault.coeff_count) if max_subsets >= 0 else None
    if coeffs is not None:
        try:
            return decode(coeffs)
        except _REJECTED as exc:
            raise DecodeFailed(f"the decoded polynomial is rejected: {exc}") from None
    message, tried = subset_search(vault.params, candidates, vault.coeff_count, decode,
                                   max_subsets, screen)
    if message is None:
        raise DecodeFailed(f"no subset of {tried} tried produced a valid digest")
    return message
