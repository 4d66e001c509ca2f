"""Polynomial evaluation and interpolation over a field, Reed-Solomon
decoding over F_p, plus the bit-exact CRC remainder used by the identity
binding.

Coefficient lists are low-to-high: coeffs[i] multiplies X^i. Length is the
scheme parameter, not degree, so leading zeros are legitimate.

Every interpolation adds the points one at a time in Newton's form,
P += M * (y - P(x)) / M(x) and M *= (X - x), with M the master
prod (X - x) of the points added so far: O(n) per point. Over a
PrimeField the arithmetic is on plain ints modulo p, and an
interpolation inverts every M(x) together with one modular inverse
(Montgomery's batch inversion). subset_interpolants walks the n-subsets
of some m points in itertools.combinations order by one of two
depth-first walks, by dividing points out of one interpolant of all m
or by adding the kept points. rs_decode tries the first n points'
interpolant, then solves Gao's key equation on its m - n residuals,
fraction-free: three inverses in all.
Any other field, in practice the GF(2^16) of the identity binding, goes
through its add/sub/mul/inv methods, one inverse per point, walks every
subset by an outright interpolation and has no decoder.
"""

from __future__ import annotations

from itertools import combinations, zip_longest

from .errors import ZeroInverse
from .field import PrimeField

# the identity binding's CRC-16: X^16 + X^15 + X^2 + 1
CRC16_GENERATOR = 0x18005

# the longest run of subsets whose added points _adding_walk inverts
# together; a longer run saved no time and held more masters
_RUN_CAP = 32

# the most points a subset may leave out for _dividing_walk to walk it,
# which bounds its stack to this many levels
_DIVIDE_CAP = 8


def eval_poly(field, coeffs: list[int], x: int) -> int:
    """Horner evaluation of the polynomial at x."""
    acc = 0
    if isinstance(field, PrimeField):
        p = field.p
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def lagrange_interpolate(field, points: list[tuple[int, int]]) -> list[int]:
    """The unique coefficient list of length len(points) through the points.

    x values equal in the field raise ZeroInverse. Runs in O(n^2) for n
    points, adding them one at a time in Newton's form, P += M * (y -
    P(x)) / M(x) and M *= (X - x) with M the master of the points added
    so far, so an equal x makes M(x) 0. Over a PrimeField the arithmetic
    is on plain ints (_newton_mod_p), with one modular inverse for every
    M(x); other fields use their methods and one inverse per point.
    """
    if isinstance(field, PrimeField):
        return _newton_mod_p(field.p, points)[0]
    result, master = [0] * len(points), [1]
    for x, y in points:
        scale = field.mul(field.sub(y, eval_poly(field, result, x)),
                          field.inv(eval_poly(field, master, x)))
        for k, c in enumerate(master):
            result[k] = field.add(result[k], field.mul(c, scale))
        master = [field.sub(lo, field.mul(x, hi)) for lo, hi in zip([0] + master, master + [0])]
    return result


def _product_mod_p(p: int, xs: list[int], product: tuple[int, ...] | list[int] = (1,)) -> list[int]:
    """product * prod_j (X - x_j) mod p, length len(product) + len(xs);
    each step multiplies by (X - x)."""
    product = list(product)
    for x in xs:
        product = [(lo - x * hi) % p for lo, hi in zip([0] + product, product + [0])]
    return product


def _newton_mod_p(p: int, points: list[tuple[int, int]],
                  divisors: list[int] | None = None) -> tuple[list[int], list[int]]:
    """(P, M) on plain ints mod p, low to high: P the interpolant of the
    points, each y divided by its divisor if given, and M their master.

    Each point's M(x_i) = prod_{j < i} (x_i - x_j), times its divisor,
    comes first, and one _inverses_mod_p inverts them all, so x values
    equal mod p raise ZeroInverse before any add. Then the points are
    added in turn, P += M * (y / d - P(x)) / M(x) and M *= (X - x).
    """
    divisors = divisors or [1] * len(points)
    values = []
    for i, ((x, _), d) in enumerate(zip(points, divisors)):
        for xj, _ in points[:i]:
            d = d * (x - xj) % p
        values.append(d)
    poly, master = [], [1]
    for (x, y), d, inverse in zip(points, divisors, _inverses_mod_p(values, p)):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        scale = (y - d * acc) * inverse % p
        poly = [(c + scale * q) % p for c, q in zip(poly + [0], master)]
        master = [(lo - x * hi) % p for lo, hi in zip([0] + master, master + [0])]
    return poly, master


def _inverses_mod_p(values: list[int], p: int) -> list[int]:
    """The inverse mod p of each value, by Montgomery's batch inversion:
    one modular inverse of their product, then each inverse peeled off it
    with the prefix products, three multiplies per value. A value 0 mod
    p raises ZeroInverse."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    if acc == 0:
        raise ZeroInverse("two interpolation x values are equal mod p")
    acc = pow(acc, -1, p)
    inverses = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        inverses[i] = acc * prefix[i] % p
        acc = acc * values[i] % p
    return inverses


def subset_interpolants(field, points, n, screen=None):
    """Yield lagrange_interpolate(field, subset) for each subset in
    itertools.combinations(points, n), in that order.

    Over a PrimeField the shape alone picks the walk. When each subset
    leaves out k = m - n of the m points with 1 <= k <= min(2n - 2,
    _DIVIDE_CAP), and no two x values are equal mod p, _dividing_walk
    divides the left-out points out of one interpolant of all m; any
    other F_p walk, k = 0 included, is _adding_walk. On the first 2,000
    subsets of each shape of n <= 16, k <= 10 at 64 and 256 bits
    (CPython 3.11, 2-core Xeon), the division walk ran a median
    2.7-3.1x as fast as the adding walk inside the rule at 1 <= k <= 5,
    1.3-1.8x at k = 6 or 7 and 0.8-1.0x at k = 8, and outside the rule
    at most 1.0x. Under a screen that almost every subset fails, it ran
    1.0-3.5x as fast at k = 6 to 8 (medians 3.1-3.2x, 2.1x and 1.4-1.5x),
    and at k = 0 the adding walk took 0.66-0.90 of its time. Other
    fields interpolate every subset outright.

    screen, if given, is a test on a subset's constant coefficient that
    the division walk applies before it builds the rest: where it fails,
    None stands in that subset's place. The other walks ignore it.
    """
    if not isinstance(field, PrimeField):
        for subset in combinations(points, n):
            yield lagrange_interpolate(field, subset)
        return
    points = list(points)
    k, p = len(points) - n, field.p
    if 1 <= k <= min(2 * n - 2, _DIVIDE_CAP) and len({x % p for x, _ in points}) == len(points):
        yield from _dividing_walk(field, points, n, screen)
    else:
        yield from _adding_walk(field, points, n)


def _dividing_walk(field, points, n, screen=None):
    """subset_interpolants over F_p by division, for m points whose x
    values are distinct mod p.

    The interpolant of a subset S is F mod M_S, with F the interpolant of
    all m points and M_S the master prod_{x in S} (X - x). The walk
    interpolates F outright and takes the left-out k-sets depth first,
    each in ascending order and the sets in reverse lexicographic order,
    so that the subsets come out in combinations order. A level holds
    D = M_S of the points still in and R = F mod D; one more point a out
    gives D' = D / (X - a) by synthetic division and R' = R - top(R) * D',
    one coefficient shorter: about 2n multiplies per subset and no
    inverse. The stack holds one (R, D) per level, k at most.

    With a screen, a subset's constant coefficient R'_0 = R_0 - top(R) *
    D'_0 comes first, in O(1): D_0 = -a * D'_0 gives D'_0, or D_1 = D'_0
    when a is 0 mod p, from one more batch inverse of every x. A subset
    whose R'_0 fails the screen yields None, with no division.
    """
    p = field.p
    xs = [x for x, _ in points]
    root = lagrange_interpolate(field, points)
    k = len(points) - n
    if screen:
        # 1 stands in for an x that is 0 mod p, whose inverse is never read
        inverses = _inverses_mod_p([x % p or 1 for x in xs], p)
    # per level: R, D high to low, and the points left to divide out next,
    # from the highest that leaves room for the levels below
    stack = [(root, _product_mod_p(p, xs)[::-1], iter(range(n, -1, -1)))]
    while stack:
        poly, master, left = stack[-1]
        j = next(left, None)
        if j is None:
            stack.pop()
            continue
        a = xs[j]
        if screen and len(stack) == k:
            low = (p - master[-1]) * inverses[j] if a % p else master[-2]
            if not screen((poly[0] - poly[-1] * low) % p):
                yield None
                continue
        carry, quotient = 0, []
        for c in master[:-1]:
            carry = (carry * a + c) % p
            quotient.append(carry)
        # R - top(R) * D' less its top coefficient, which is 0; quotient
        # is D' high to low, its leading 1 first
        neg = p - poly[-1]
        poly = [(c + neg * q) % p for c, q in zip(poly, quotient[-1:0:-1])]
        if len(stack) == k:
            yield poly
        else:
            stack.append((poly, quotient, iter(range(n + len(stack), j, -1))))


def _adding_walk(field, points, n):
    """subset_interpolants over F_p by adding points, for any n and any
    x values.

    The walk takes the kept points depth first, the mirror of
    _dividing_walk. Level i holds the interpolant P of a subset's first i
    points and their master M = prod (X - x), and the next point (x, y)
    is added in Newton's form, P += M * (y - P(x)) / M(x) and
    M *= (X - x): O(i) each. The masters need no inverse, so the walk
    takes the subsets in runs of 1, 2, 4, ... and at most _RUN_CAP: it
    first steps the masters alone through the whole run, keeping each
    M(x), then inverts them all with one modular inverse, then replays
    the adds on a stack of the levels' interpolants. M(x) is 0 exactly
    when the points so far repeat an x mod p, and the first subset that
    holds them is the next one due, so the walk yields the subsets
    before it and raises ZeroInverse, as one interpolation per subset
    would.
    """
    p, m = field.p, len(points)
    if n <= 0:
        # [[]] at n = 0, and combinations' ValueError at n < 0
        yield from ([] for _ in combinations(points, n))
        return
    # per level: M, low to high, and the points left to add next, up to the
    # highest that leaves room for the levels after it
    stack = [([1], iter(range(m - n + 1)))]
    # per level: P, the interpolant of the points added before it
    polys = [[]]
    run = 1
    while stack:
        # the masters alone: each add as (level, x, y, M at that level)
        adds, values, done, repeats = [], [], 0, False
        while stack and done < run:
            master, left = stack[-1]
            j = next(left, None)
            if j is None:
                stack.pop()
                continue
            x, y = points[j]
            mx = eval_poly(field, master, x)
            if not mx:
                repeats = True
                break
            adds.append((len(stack) - 1, x, y, master))
            values.append(mx)
            if len(stack) == n:
                done += 1
            else:
                stack.append(([(lo - x * hi) % p for lo, hi in zip([0] + master, master + [0])],
                              iter(range(j + 1, m - n + len(stack) + 1))))
        # a run that found the walk's end, or a repeat, at once needs no inverse
        if values:
            for (level, x, y, master), inverse in zip(adds, _inverses_mod_p(values, p)):
                poly = polys[level]
                scale = (y - eval_poly(field, poly, x)) * inverse % p
                poly = [(c + scale * q) % p for c, q in zip(poly + [0], master)]
                if level + 1 == n:
                    yield poly
                else:
                    polys[level + 1:] = [poly]
        if repeats:
            raise ZeroInverse("two interpolation x values are equal mod p")
        run = min(2 * run, _RUN_CAP)


def rs_decode(field: PrimeField, points: list[tuple[int, int]],
              coeff_count: int) -> list[int] | None:
    """The coefficient list of length coeff_count whose polynomial agrees
    with at least ceil((m + coeff_count) / 2) of the m points, or None.

    Such a polynomial is unique, since two of them would share
    coeff_count points, and Gao's decoder ("A new algorithm for decoding
    Reed-Solomon codes", 2003) finds it in O(m^2) on plain ints mod p.
    The interpolant of the first coeff_count points is the answer when it
    agrees with enough points. Otherwise the key equation is solved on
    its m - coeff_count residuals, fraction-free, with three modular
    inverses in all: the guess's, one batch for the residuals and one to
    divide by the error locator. Fewer than coeff_count points, or two x
    values equal mod p, give None.
    """
    m, n, p = len(points), coeff_count, field.p
    xs = [x for x, _ in points]
    if m < n or len({x % p for x in xs}) < m:
        return None
    need = m - (m - n) // 2
    guess, master = _newton_mod_p(p, points[:n])
    agree, residuals = n, []
    for x, y in points[n:]:
        # stop once the count is reached, or out of reach of the points left
        if agree >= need or agree + m - n - len(residuals) < need:
            break
        residuals.append((y - eval_poly(field, guess, x)) % p)
        agree += not residuals[-1]
    if agree >= need:
        return guess
    # With A the first n points and B the k = m - n others, H interpolates
    # (y - guess(x)) / M_A(x) over B, so guess + M_A * H interpolates all
    # m points. Euclid on (M_B, H) stops at the first remainder r below
    # degree k / 2, and f = guess + M_A * r / v when r's cofactor v divides
    # exactly. A step takes r0 to lc(r1) * r0 - lc(r0) * X^d * r1, and v0
    # alike: a nonzero multiple of the usual row, taken with no inverse.
    k, later = m - n, xs[n:]
    residuals += [(y - eval_poly(field, guess, x)) % p for x, y in points[n + len(residuals):]]
    r1, r0 = _newton_mod_p(p, list(zip(later, residuals)),
                           [eval_poly(field, master, x) for x in later])
    r1 = _trim(r1)
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= k:
        while len(r0) >= len(r1):
            a, b, shift = r1[-1], r0[-1], [0] * (len(r0) - len(r1))
            r0 = _trim([(a * c - b * e) % p for c, e in zip(r0, shift + r1)])
            v0 = _trim([(a * c - b * e) % p for c, e in zip_longest(v0, shift + v1, fillvalue=0)])
        r0, r1, v0, v1 = r1, r0, v1, v0
    if len(r1) >= len(v1):
        return None
    # M_A * r / v by long division in place: quotient[top:] is the quotient
    quotient = _product_mod_p(p, xs[:n], r1)
    top, scale = len(v1) - 1, pow(v1[-1], -1, p)
    for i in range(len(quotient) - 1, top - 1, -1):
        c = quotient[i] * scale % p
        quotient[i - top:i] = [(u - c * w) % p for u, w in zip(quotient[i - top:i], v1)]
        quotient[i] = c
    if any(quotient[:top]):
        return None
    return [(g + c) % p for g, c in zip_longest(guess, quotient[top:], fillvalue=0)]


def _trim(poly: list[int]) -> list[int]:
    """poly without its zero top coefficients; [] is the zero polynomial."""
    while poly and not poly[-1]:
        poly.pop()
    return poly


def crc16_remainder(value: int, bit_len: int) -> int:
    """Remainder of value * X^16 modulo CRC16_GENERATOR over GF(2).

    MSB-first long division with zero initial register; value is treated
    as a bit_len-bit string. A message with its remainder appended
    divides cleanly, which is the check the identity decoder relies on.
    """
    if bit_len < 0 or value < 0 or value.bit_length() > bit_len:
        raise ValueError(f"value does not fit in {bit_len} bits")
    acc = value << 16
    for i in range(bit_len + 15, 15, -1):
        if acc >> i & 1:
            acc ^= CRC16_GENERATOR << (i - 16)
    return acc
