"""Attack analysis: the published success-probability formulas, an exact
combinatorial oracle, a Monte Carlo estimator, a brute-force unlock
harness, and a baby-step giant-step discrete-log solver for desk-scale
parameters. The Monte Carlo draws and the solver's baby steps both run
lane-wise: many 64-bit values packed into one int, stepped by a few
whole-int operations.

The published formulas are reproduced exactly as printed, including the
regime where they exceed 1 and stop being probabilities; reports flag
that in their notes next to the exact value.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import lru_cache

from .dlog_codec import KeyFile, Scheme, message_decoder
from .errors import BadArguments, NotInGroup
from .field import PrimeField
from .vault import DEFAULT_MAX_SUBSETS, Vault, subset_search

_MASK64 = (1 << 64) - 1
# Monte Carlo trials per block whose first two draws take one lane-wise
# pass, and the most baby steps one lane-wise pass of the solver takes
_LANES = 512
# the low word of each 128-bit lane, in lane order, among the 64-bit words
# of its native-order bytes
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)

CSV_HEADER = "r,t,n,paper_eq30,exact,empirical,stderr,trials"


def published_point_ratio(r: int, t: int) -> float:
    """The printed per-point ratio r / (r - t); above 1 whenever chaff exists."""
    if r == t:
        raise ZeroDivisionError("published ratio is undefined at r = t")
    return r / (r - t)


def published_poly_prob(r: int, t: int, n: int) -> float:
    """The printed polynomial-recovery figure (r / (r - t)) ** n.

    Not a probability: it grows past 1 as soon as chaff is scarce.
    Compare against exact_success_prob for the real chance. A figure
    too large for a float is math.inf.
    """
    try:
        return published_point_ratio(r, t) ** n
    except OverflowError:
        return math.inf


def exact_success_prob(r: int, t: int, n: int) -> Fraction:
    """Probability that n points drawn uniformly without replacement from
    r vault points are all among the t genuine ones: C(t,n) / C(r,n)."""
    if not 0 <= n <= t <= r:
        raise BadArguments(f"need 0 <= n <= t <= r, got r={r} t={t} n={n}")
    return Fraction(math.comb(t, n), math.comb(r, n))


def _splitmix64(z: int) -> int:
    # splitmix64's output function of a 64-bit state: with the state a
    # pure function of (seed, index), trials are independent of iteration
    # order and can be recomputed or partitioned
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=None)
def _lane_constants() -> tuple[int, int, int]:
    """(ONES, LANES, RAMP) for _LANES lanes of 128 bits: 1, 2^64 - 1 and
    i << 16 in lane i. Built on the first Monte Carlo call, so importing
    the package does not pay for them."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\0") * _LANES, "little")
    ramp = b"".join((i << 16).to_bytes(16, "little") for i in range(_LANES))
    return ones, ones * _MASK64, int.from_bytes(ramp, "little")


def _splitmix64_lanes(z: int, count: int) -> list[int]:
    """[_splitmix64((z + (i << 16)) & _MASK64) for i in range(count)],
    count <= _LANES, computed on one int that holds state i in its
    128-bit lane i. A 64-bit lane times a 64-bit constant fits in 128
    bits, so no carry crosses lanes; every step masks each lane back to
    64 bits, which also drops the bits a right shift pulls in from the
    lane above."""
    ones, lanes, ramp = _lane_constants()
    if count < _LANES:
        low = (1 << 128 * count) - 1
        ones, lanes, ramp = ones & low, lanes & low, ramp & low
    z = (z * ones + ramp) & lanes
    z = (z ^ (z >> 30)) & lanes
    z = z * 0xBF58476D1CE4E5B9 & lanes
    z = (z ^ (z >> 27)) & lanes
    z = z * 0x94D049BB133111EB & lanes
    z ^= z >> 31
    return memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()


def monte_carlo_rate(r: int, t: int, n: int, trials: int, seed: int) -> tuple[float, float]:
    """Estimate exact_success_prob empirically; returns (rate, standard error).

    Treats the genuine points as indices 0..t-1, which costs no
    generality under uniform sampling. Each trial draws a uniform
    n-subset of range(r) by Floyd's algorithm: step s draws x from
    range(r - n + s + 1), at draw index i = (trial << 16) + s, and takes
    r - n + s instead when x is already taken. Draw i is splitmix64's
    output at state z0 + i mod 2^64, with z0 = (seed mod 2^64) *
    0xD1342543DE82EF95 + 1 computed once per call. A trial fails at its
    first chaff draw (an index at or above t): Floyd's sampler only adds
    elements, so later draws cannot change the verdict. Trials run in
    blocks of _LANES: the draws of steps 0 and 1 for a whole block come
    from one lane-wise pass each, and only trials still genuine after
    step 1 draw further steps one at a time. The stream is the same
    whatever the block size, and each trial is a pure function of
    (seed, trial index).
    """
    if not 0 <= n <= t <= r:
        raise BadArguments(f"need 0 <= n <= t <= r, got r={r} t={t} n={n}")
    if trials <= 0:
        raise BadArguments("trials must be positive")
    if n.bit_length() > 16:
        raise BadArguments("subset size does not fit the per-trial draw budget")
    if n == 0:
        # no draw at all: the empty subset is all genuine
        return 1.0, 0.0
    first = r - n + 1
    z0 = ((seed & _MASK64) * 0xD1342543DE82EF95 + 1) & _MASK64
    successes = 0
    for block in range(0, trials, _LANES):
        count = min(_LANES, trials - block)
        zb = (z0 + (block << 16)) & _MASK64
        draws0 = _splitmix64_lanes(zb, count)
        if n == 1:
            successes += sum(d % first < t for d in draws0)
            continue
        draws1 = _splitmix64_lanes((zb + 1) & _MASK64, count)
        # z is each trial's step-0 state, not yet reduced mod 2^64
        for z, d0, d1 in zip(range(zb, zb + (count << 16), 1 << 16), draws0, draws1):
            x = d0 % first
            if x >= t:
                continue
            # step 0 cannot collide; step 1 collides only with it
            y = d1 % (first + 1)
            if y == x:
                y = first
            if y >= t:
                continue
            # a set, not an int bitmask: a bitmask's updates cost O(t) each
            taken = {x, y}
            for step in range(2, n):
                x = _splitmix64((z + step) & _MASK64) % (first + step)
                if x in taken:
                    x = first + step - 1
                if x >= t:
                    break
                taken.add(x)
            else:
                successes += 1
    rate = successes / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return rate, stderr


@dataclass
class AttackReport:
    """One (r, t, n) analysis: published figures, exact oracle, empirical rate."""

    r: int
    t: int
    n: int
    published_point_ratio: float
    published_poly_prob: float
    exact_prob: Fraction
    empirical_rate: float
    empirical_stderr: float
    trials: int
    notes: list[str] = dc_field(default_factory=list)

    def _figures(self) -> dict[str, str]:
        # one text per figure, in to_text order; to_csv_row picks CSV_HEADER's columns
        return {
            "r": str(self.r),
            "t": str(self.t),
            "n": str(self.n),
            "point_ratio": repr(self.published_point_ratio),
            "paper_eq30": repr(self.published_poly_prob),
            "exact": str(self.exact_prob),
            "empirical": repr(self.empirical_rate),
            "stderr": repr(self.empirical_stderr),
            "trials": str(self.trials),
        }

    def to_text(self) -> str:
        lines = [f"{name}={text}" for name, text in self._figures().items()]
        lines.extend(f"note={note}" for note in self.notes)
        return "\n".join(lines) + "\n"

    def to_csv_row(self) -> str:
        figures = self._figures()
        return ",".join(figures[name] for name in CSV_HEADER.split(","))


def attack_report(r: int, t: int, n: int, trials: int, seed: int) -> AttackReport:
    """Run every analysis route at one parameter point."""
    if not 0 <= n <= t < r:
        raise BadArguments(f"need 0 <= n <= t < r, got r={r} t={t} n={n}")
    ratio = published_point_ratio(r, t)
    poly = published_poly_prob(r, t, n)
    exact = exact_success_prob(r, t, n)
    rate, stderr = monte_carlo_rate(r, t, n, trials, seed)
    notes = []
    if ratio > 1.0:
        notes.append(f"point ratio {ratio!r} exceeds 1; reported as printed, not a probability")
    if poly > 1.0:
        notes.append(f"paper_eq30 {poly!r} exceeds 1; the exact probability is {float(exact)!r}")
    if rate == 0.0:
        # rule of three: no success in N trials puts the rate below 3/N at 95%
        notes.append(f"empirical rate 0 is no success in {trials} trials; "
                     f"95% upper bound {3 / trials!r} (rule of three)")
    return AttackReport(r=r, t=t, n=n, published_point_ratio=ratio,
                        published_poly_prob=poly, exact_prob=exact,
                        empirical_rate=rate, empirical_stderr=stderr,
                        trials=trials, notes=notes)


def sweep_csv(reports: list[AttackReport]) -> str:
    """The pinned CSV layout, one row per report."""
    return "\n".join([CSV_HEADER] + [rep.to_csv_row() for rep in reports]) + "\n"


@dataclass
class BruteForceResult:
    succeeded: bool
    subsets_tried: int
    message: bytes | None = None


def brute_force_unlock_attack(vault: Vault, key_file: KeyFile | None = None,
                              max_subsets: int = DEFAULT_MAX_SUBSETS) -> BruteForceResult:
    """Attempt to open a vault with no unlocking set at all.

    Every vault point is a candidate, so this walks subsets in
    lexicographic x order until the framing digest verifies or the
    budget runs out. Without the key file, every vault is read as
    classical, which can only open a classical one; with it, this
    measures how little the chaff alone protects, and a key of the wrong
    kind for the scheme raises KeyKindMismatch as unlock does. The
    decoder's screen rejects most subsets from their constant
    coefficient alone, before the walk builds the rest.
    """
    if key_file is None:
        vault, key_file = replace(vault, scheme=Scheme.CLASSICAL), KeyFile()
    decode, screen = message_decoder(vault, key_file)
    message, tried = subset_search(vault.params, sorted(vault.points), vault.coeff_count,
                                   decode, max_subsets, screen)
    return BruteForceResult(succeeded=message is not None, subsets_tried=tried,
                            message=message)


class _Lanes:
    """count residues mod p packed into the 64-bit lanes of one int, lane
    i in the int's i-th native-order word, so that one lane-wise pass
    multiplies every residue by 4. pack and unpack are exact inverses on
    either byte order."""

    def __init__(self, count: int, p: int):
        k = p.bit_length()
        # times4 forms 4v + 2^(k+2) - p < 2^(k+3) in each lane, and no
        # carry may cross into the lane above
        assert k + 3 <= 64
        self.count, self.p, self.shift = count, p, k + 2
        self.ones = self.pack([1] * count)
        # adding 2^(k+2) - 2p (or - p) to a lane below 4p sets the lane's
        # bit k + 2 exactly when the lane is at least 2p (or p)
        self.less2p = self.ones * ((1 << k + 2) - 2 * p)
        self.lessp = self.ones * ((1 << k + 2) - p)

    def pack(self, values: list[int]) -> int:
        return int.from_bytes(array("Q", values).tobytes(), sys.byteorder)

    def unpack(self, x: int) -> memoryview:
        return memoryview(x.to_bytes(8 * self.count, sys.byteorder)).cast("Q")

    def times4(self, x: int) -> int:
        """Every lane v < p of x replaced by 4v mod p: a shift, then 2p
        and then p subtracted from each lane whose carry bit says it is at
        least that."""
        x <<= 2
        x -= ((x + self.less2p) >> self.shift & self.ones) * (2 * self.p)
        return x - ((x + self.lessp) >> self.shift & self.ones) * self.p


class _GiantSteps:
    """Shanks' table for the order-q subgroup of squares of F_p (p = 2q + 1),
    generated by 4: a square other than 1, so its order is the prime q.

    table maps 4^(m*i) to i for i <= m, with m = isqrt(q - 1) + 1, so that
    every x < q is m*i - j for some i <= m and j < m. The baby steps
    j run in _LANES lanes or fewer at once, `blocks` steps each: lane i
    starts at 4^(i*blocks). c_inv is 1 / log_4(alpha^2) mod q, found by
    one walk at build time, which turns a log to base 4 into one to base
    alpha^2.
    """

    def __init__(self, p: int, alpha: int):
        q = p // 2
        self.q = q
        self.m = m = math.isqrt(q - 1) + 1
        stride = pow(4, m, p)
        self.table = {}
        acc = 1
        for i in range(m + 1):
            self.table[acc] = i
            acc = acc * stride % p
        self.blocks = -(-m // _LANES)
        self.starts = [pow(4, i * self.blocks, p) for i in range(-(-m // self.blocks))]
        self.lanes = _Lanes(len(self.starts), p)
        self.c_inv = pow(self.log4(alpha * alpha % p), -1, q)

    def log4(self, gamma: int) -> int:
        """log_4(gamma) mod q for gamma a nonzero square mod p. Lane i of
        block b holds gamma * 4^j, j = i*blocks + b; a lane that is some
        4^(m*idx) gives m*idx - j."""
        lanes, table, p = self.lanes, self.table, self.lanes.p
        x = lanes.pack([gamma * start % p for start in self.starts])
        keys = table.keys()
        for b in range(self.blocks):
            values = lanes.unpack(x)
            if not keys.isdisjoint(values):
                i, idx = next((i, table[v]) for i, v in enumerate(values) if v in table)
                return (self.m * idx - (i * self.blocks + b)) % self.q
            x = lanes.times4(x)
        raise RuntimeError(f"no giant step of the F_{p} table matches {gamma}")


# the table depends on the field alone; keyed on the exact pair, because
# every params load builds a new PrimeField. Only the last field's table
# is kept, and every caller shares it read-only.
_giant_steps = lru_cache(maxsize=1)(_GiantSteps)


def solve_dlog_bsgs(target: int, params: PrimeField) -> int:
    """Smallest k with alpha^k = target in F_p, by Pohlig-Hellman over
    p - 1 = 2q and baby-step giant-step in the subgroup of order q.

    Euler's criterion gives k's parity b: target^q is 1 for even k and
    -1 for odd. gamma = target / alpha^b = alpha^(2e) for one e < q, and
    k = 2e + b. BSGS finds log_4(gamma) = c*e mod q, c = log_4(alpha^2),
    with 4 as the subgroup's generator: a baby step multiplies by 4,
    which _LANES packed 64-bit lanes of one int take at once as a shift
    and two conditional subtractions of p. The first solve in a field
    takes O(sqrt(q)) time and memory to build the table of giant steps;
    later solves in the same field reuse it and pay only the baby steps,
    O(sqrt(q)) at most. Refuses p above 2^40, where the table stops
    being a desk-scale object. NotInGroup means target = 0 mod p.
    """
    p = params.p
    if p > 1 << 40:
        raise BadArguments("p above 2^40 is out of range for the table-based solver")
    if target % p == 0:
        raise NotInGroup("0 is outside the multiplicative group")
    target %= p
    steps = _giant_steps(p, params.alpha)
    b = int(pow(target, p // 2, p) != 1)
    gamma = target * pow(params.alpha, -b, p) % p
    return 2 * (steps.log4(gamma) * steps.c_inv % steps.q) + b
