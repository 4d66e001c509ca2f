"""Fuzzy vault core: points, search, file. Point placement, tolerance
matching, subset search, lock/unlock and the DLFV format; dlog_codec
maps messages to coefficients and back.

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
import itertools
import random
import struct
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass, field as dc_field

from . import framing
from ._wire import check_end, pack_lpint, read_header, take, unpack_lpint
from .dlog_codec import (
    KeyFile,
    Scheme,
    check_key_kind,
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
    WrongCount,
)
from .field import PrimeField
from .polynomial import eval_poly, lagrange_interpolate

DEFAULT_MAX_SUBSETS = 100_000

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
        points = []
        for _ in range(count):
            xb, offset = take(data, offset, width)
            yb, offset = take(data, offset, width)
            points.append((int.from_bytes(xb, "big"), int.from_bytes(yb, "big")))
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
    """The vault of Juels and Sudan over any field with add/sub/mul/inv/size.

    Checks chaff_count and delta are non-negative and the locking set is
    valid and no smaller than coeffs, evaluates the coefficient polynomial
    on it, adds chaff_count off-polynomial points, and scrambles the order.
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
                            delta, random.Random(_subseed(seed, "chaff")))
    points = genuine + chaff
    mask = [True] * len(genuine) + [False] * len(chaff)
    order = list(range(len(points)))
    random.Random(_subseed(seed, "scramble")).shuffle(order)
    return [points[i] for i in order], [mask[i] for i in order]


def lock(message: bytes, locking_set, scheme: Scheme, params: PrimeField,
         chaff_count: int = 0, delta: int = 0, seed: int = 0,
         seg_bits: int = framing.DEFAULT_SEG_BITS) -> tuple[Vault, KeyFile]:
    """Lock message bytes under the locking set: encode_message maps them
    to the scheme's coefficients, and place_points places those. Each
    checks its own inputs, the codec first. All randomness flows from
    seed. Returns the vault and the key file that unlocking will need.
    """
    coeffs, key_file = encode_message(params, scheme, message, seg_bits, _subseed(seed, "key"))
    points, mask = place_points(params, coeffs, locking_set, chaff_count, delta, seed)
    return Vault(params=params, scheme=scheme, coeff_count=len(coeffs), seg_bits=seg_bits,
                 delta=delta, points=points, genuine_mask=mask), key_file


def _generate_chaff(field, coeffs, taken_xs, count, delta, rng):
    """count points (u, v) with v != P(u), every x gap above 2*delta."""
    gap = 2 * delta
    xs = list(taken_xs)
    chaff = []
    for _ in range(count):
        for _ in range(_CHAFF_ATTEMPTS):
            u = rng.randrange(field.size)
            i = bisect_left(xs, u)
            if i < len(xs) and xs[i] - u <= gap:
                continue
            if i > 0 and u - xs[i - 1] <= gap:
                continue
            break
        else:
            raise ChaffSpaceExhausted(
                f"no room for chaff point {len(chaff) + 1} of {count} at gap > {gap}")
        insort(xs, u)
        on_poly = eval_poly(field, coeffs, u)
        # one draw from a (size - 1)-element range, shifted around P(u):
        # uniform over the field minus the polynomial value
        v = rng.randrange(field.size - 1)
        if v >= on_poly:
            v += 1
        chaff.append((u, v))
    return chaff


def nearest_points(points, delta, unlocking_set) -> list[tuple[int, int]]:
    """Points within delta of any probe, deduplicated, ordered by x.

    Distance is plain integer distance, no wraparound. place_points keeps
    x coordinates more than 2*delta apart, so each probe can match at
    most one point and nearest-point selection is unambiguous; delta = 0
    is exact matching.
    """
    ordered = sorted(points)
    xs = [x for x, _ in ordered]
    chosen = {}
    for b in unlocking_set:
        i = bisect_left(xs, b)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(xs):
                d = abs(xs[j] - b)
                if best is None or d < best[0]:
                    best = (d, j)
        if best is not None and best[0] <= delta:
            chosen[xs[best[1]]] = ordered[best[1]]
    return [chosen[x] for x in sorted(chosen)]


def match_points(vault: Vault, unlocking_set) -> list[tuple[int, int]]:
    """Vault points within vault.delta of any probe; see nearest_points."""
    return nearest_points(vault.points, vault.delta, unlocking_set)


def subset_search(field, candidates, coeff_count, decode, max_subsets):
    """Interpolate at most max_subsets candidate subsets in lexicographic
    x order until decode accepts one; returns (decoded value or None,
    subsets tried).

    Fewer than coeff_count candidates raise NotEnoughMatches, and a
    negative max_subsets raises ValueError. decode raises BadLength,
    MalformedFrame or SignatureMismatch to reject a candidate polynomial.
    """
    if len(candidates) < coeff_count:
        raise NotEnoughMatches(
            f"{len(candidates)} matched points cannot determine {coeff_count} coefficients")
    if max_subsets < 0:
        raise ValueError(f"max_subsets must be non-negative, not {max_subsets}")
    tried = 0
    # islice takes no stop above sys.maxsize, and no run gets that far
    subsets = itertools.islice(itertools.combinations(candidates, coeff_count),
                               min(max_subsets, sys.maxsize))
    for tried, subset in enumerate(subsets, start=1):
        coeffs = lagrange_interpolate(field, list(subset), coeff_count)
        try:
            return decode(coeffs), tried
        except (BadLength, MalformedFrame, SignatureMismatch):
            continue
    return None, tried


def unlock(vault: Vault, unlocking_set, key_file: KeyFile | None = None,
           max_subsets: int = DEFAULT_MAX_SUBSETS) -> bytes:
    """Recover the message from a vault given an unlocking set and the key.

    Probes are matched against vault points within delta, then subsets
    of the matches are interpolated until the framed digest verifies.
    key_file may be omitted for classical vaults only.
    """
    if key_file is None:
        check_key_kind(vault.scheme, None)
    decode = message_decoder(vault, key_file)
    message, tried = subset_search(vault.params, match_points(vault, unlocking_set),
                                   vault.coeff_count, decode, max_subsets)
    if message is None:
        raise DecodeFailed(f"no subset of {tried} tried produced a valid digest")
    return message


def verify_coefficients(recovered: list[int], expected: list[int]) -> bool:
    """Exact equality; field interpolation leaves no tolerance to apply."""
    if len(recovered) != len(expected):
        raise WrongCount(f"coefficient lists differ in length: "
                         f"{len(recovered)} vs {len(expected)}")
    return recovered == expected


def classical_coeff_check(l: int, params: PrimeField) -> int:
    """Coefficients a classical vault needs for an l-bit payload in this field."""
    return framing.required_coeff_count(l, params.p)
