"""Polynomial evaluation and interpolation over a field, plus the bit-exact
CRC remainder used by the identity binding.

Coefficient lists are low-to-high: coeffs[i] multiplies X^i. Length is the
scheme parameter, not degree, so leading zeros are legitimate.

Over a PrimeField both kernels run on plain ints modulo p, and an
interpolation inverts its n denominators together with one modular
inverse (Montgomery's batch inversion). Any other field, in practice the
GF(2^16) of the identity binding, goes through its add/sub/mul/inv methods.
"""

from __future__ import annotations

from operator import mul

from .errors import DuplicateX, WrongCount, ZeroInverse
from .field import PrimeField


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


def lagrange_interpolate(field, points: list[tuple[int, int]], coeff_count: int) -> list[int]:
    """The unique coefficient list of length coeff_count through the points.

    Exactly coeff_count points with pairwise distinct x are required, and
    x values equal in the field raise ZeroInverse. Runs in O(coeff_count^2):
    one master product over all x, then a synthetic division and a scaled
    accumulation per point. Over a PrimeField the arithmetic is on plain
    ints with one modular inverse for all the denominators; other fields
    use their methods and one inverse per point.
    """
    if len(points) != coeff_count:
        raise WrongCount(f"need exactly {coeff_count} points, got {len(points)}")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateX("interpolation points share an x coordinate")
    if isinstance(field, PrimeField):
        return _interpolate_mod_p(field, points, coeff_count)

    n = coeff_count
    # master(X) = prod_j (X - x_j), length n + 1
    master = [0] * (n + 1)
    master[0] = 1
    degree = 0
    for x in xs:
        neg_x = field.sub(0, x)
        degree += 1
        for i in range(degree, 0, -1):
            master[i] = field.add(master[i - 1], field.mul(master[i], neg_x))
        master[0] = field.mul(master[0], neg_x)

    result = [0] * n
    for x, y in points:
        # synthetic division: q = master / (X - x), degree n - 1
        q = [0] * n
        carry = master[n]
        for k in range(n - 1, -1, -1):
            q[k] = carry
            carry = field.add(field.mul(carry, x), master[k])
        # q(x) = prod_{j != i} (x_i - x_j)
        denom = eval_poly(field, q, x)
        scale = field.mul(y, field.inv(denom))
        for k in range(n):
            result[k] = field.add(result[k], field.mul(q[k], scale))
    return result


def _interpolate_mod_p(field: PrimeField, points: list[tuple[int, int]], n: int) -> list[int]:
    """lagrange_interpolate on plain ints mod p, once its checks passed."""
    p = field.p
    # master(X) = prod_j (X - x_j), length n + 1; each step multiplies by (X - x)
    master = [1]
    for x, _ in points:
        master = [(lo - x * hi) % p for lo, hi in zip([0] + master, master + [0])]
    quotients, denoms = [], []
    for x, _ in points:
        # synthetic division: q = master / (X - x), degree n - 1
        q = [0] * n
        carry = 1
        for k in range(n - 1, -1, -1):
            q[k] = carry
            carry = (carry * x + master[k]) % p
        quotients.append(q)
        # q(x) = prod_{j != i} (x_i - x_j)
        denoms.append(eval_poly(field, q, x))
    # Montgomery: invert the product of all denominators once, then peel
    # each inverse off it with the prefix products
    prefix = []
    acc = 1
    for d in denoms:
        prefix.append(acc)
        acc = acc * d % p
    if acc == 0:
        raise ZeroInverse("two interpolation x values are equal mod p")
    acc = pow(acc, -1, p)
    scales = [0] * n
    for i in range(n - 1, -1, -1):
        scales[i] = points[i][1] * acc * prefix[i] % p
        acc = acc * denoms[i] % p
    return [sum(map(mul, column, scales)) % p for column in zip(*quotients)]


def crc16_remainder(value: int, bit_len: int, generator: int) -> int:
    """Remainder of value * X^16 modulo the generator polynomial over GF(2).

    MSB-first long division with zero initial register; value is treated
    as a bit_len-bit string. A message with its remainder appended
    divides cleanly, which is the check the decoder relies on.
    """
    if generator.bit_length() != 17:
        raise ValueError("generator must have degree exactly 16")
    if bit_len < 0 or value < 0 or value.bit_length() > bit_len:
        raise ValueError(f"value does not fit in {bit_len} bits")
    acc = value << 16
    for i in range(bit_len + 15, 15, -1):
        if acc >> i & 1:
            acc ^= generator << (i - 16)
    return acc
