"""Field arithmetic: the prime field F_p the vaults live in, safe-prime
parameter generation, and the one GF(2^16) used by the identity binding.

Prime-field elements are plain ints in [0, p); the field itself is the
frozen pair of p and a fixed primitive root alpha. Every field, in
memory or read from bytes, is a safe prime p = 2q + 1 of at most
MAX_P_BITS bits with alpha a primitive root; that is proven from the
structure of p once per process, and later uses of the same (p, alpha)
reuse it. The certificate is Pocklington's criterion for p with a
Baillie-PSW test on q. Baillie-PSW has no proven error bound, but no
composite is known to pass it and none below 2^64 does (see
_is_safe_field, and Albrecht et al., "Prime and Prejudice", CCS 2018).
gen_params finds q by a staged sieve on q and 2q + 1, cheapest stage
first: a residue wheel modulo 3*5*7*11*13, one gcd of q(2q + 1) with
the product of the primes below 1100, and one with the product of the
primes from 1100 to 2^14. Then come strong
probable-prime rounds to base 2 on q and 2q + 1, then that certificate.
The sieve changes no output: see gen_params. GF(2^16) elements are ints
in [0, 65536) interpreted as polynomials over GF(2), reduced mod the
fixed polynomial x^16+x^5+x^3+x+1; there is no other choice of
reduction.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from ._wire import check_end, pack_lpint, read_header, unpack_lpint
from .errors import BadFactorization, MalformedFile, ZeroInverse

# distinct (p, alpha) pairs whose safety verdict is remembered per process
_PROVEN_FIELDS = 64
# widest p: its certificate takes ~0.8 s at 4096 bits on CPython 3.11 (Baillie-PSW
# on q 0.6 s, one pow 0.16 s), ~6-8x per doubling
MAX_P_BITS = 4096


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit) if flags[i]]


# is_prime's trial divisors, and gen_params' first gcd stage
_SMALL_PRIMES = frozenset(_sieve(1100))
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)

# gen_params sieves q and 2q + 1 by every prime below this bound, and
# only for q above it, where neither can be one of those primes
_SIEVE_BOUND = 1 << 14
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = prod(_WHEEL_PRIMES)


def _wheel_table() -> bytes:
    # 1 at each residue r mod _WHEEL where neither r nor 2r + 1 shares a
    # factor with _WHEEL; f divides 2r + 1 exactly when r = (f - 1) / 2 mod f
    allowed = bytearray([1]) * _WHEEL
    for f in _WHEEL_PRIMES:
        for r in (0, (f - 1) // 2):
            allowed[r::f] = bytearray(len(allowed[r::f]))
    return bytes(allowed)


_WHEEL_ALLOWED = _wheel_table()


@lru_cache(maxsize=None)
def _wide_primorial() -> int:
    """Product of the primes in [1100, _SIEVE_BOUND), about 22,000 bits:
    built on the first gen_params call, so importing the package does
    not pay for it."""
    return prod(_sieve(_SIEVE_BOUND)[len(_SMALL_PRIMES):])


def _strong_base2(n: int) -> bool:
    """One strong probable-prime (Miller-Rabin) round to base 2 on odd n > 2."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test on odd n > 2, with Selfridge's
    method A: P = 1 and Q = (1 - D)/4 for the first D in 5, -7, 9, -11,
    ... with Jacobi symbol (D/n) = -1. No such D exists when n is a
    perfect square, so squares are rejected before the search."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    # n + 1 = d * 2^s with d odd; U_k, V_k and Q^k are built along the
    # bits of d from k = 1, where U_1 = 1 and V_1 = P = 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_{k+1} = (U_k + V_k)/2 and V_{k+1} = (D U_k + V_k)/2 mod odd n
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: trial division by every prime below 1100 as one gcd
    with their product, then the Baillie-PSW test, a strong probable-prime
    round to base 2 and then a strong Lucas test. Baillie-PSW accepts every
    prime and, below 2^64, rejects every composite."""
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    return _strong_base2(n) and _strong_lucas(n)


def is_primitive_root(candidate: int, p: int, factors: list[int]) -> bool:
    """Whether candidate generates the full multiplicative group of F_p.

    factors must be the distinct primes dividing p - 1; anything that is
    not a complete factorization raises BadFactorization.
    """
    distinct = set(factors)
    m = p - 1
    for f in distinct:
        if f < 2 or m % f != 0 or not is_prime(f):
            raise BadFactorization(f"{f} is not a prime factor of {m}")
    rest = m
    for f in distinct:
        while rest % f == 0:
            rest //= f
    if rest != 1:
        raise BadFactorization("factor list does not cover p - 1")
    c = candidate % p
    if c == 0:
        # 0 never generates anything, and the power test below would
        # wrongly pass it (0^e != 1 for every e)
        return False
    return all(pow(c, m // f, p) != 1 for f in distinct)


@lru_cache(maxsize=_PROVEN_FIELDS)
def _is_safe_field(p: int, alpha: int) -> bool:
    """Whether p = 2q + 1, at most MAX_P_BITS wide, has q prime and alpha primitive.

    Pocklington's criterion for p - 1 = 2q: q prime, alpha^(p-1) = 1 and
    gcd(alpha^2 - 1, p) = 1 prove p prime, because q > sqrt(p) - 1. So the
    only probable-prime test is the one on q, and it is is_prime's
    Baillie-PSW: a strong round to base 2, then a strong Lucas test.
    alpha^q = p - 1 gives alpha^(p-1) = 1 and, once p is prime, excludes
    every order of alpha below 2q. Memoised per (p, alpha), so a field is
    proven once per process however often it is loaded.

    Baillie-PSW has no proven error bound. No composite that passes it is
    known, and none exists below 2^64 (Gilchrist's check of Feitsma's list
    of base-2 pseudoprimes). Albrecht, Massimo, Paterson & Somorovsky,
    "Prime and Prejudice" (CCS 2018), build composites that pass
    Miller-Rabin with fixed or predictable bases, and promote Baillie-PSW
    for numbers an adversary may choose.
    """
    if p.bit_length() > MAX_P_BITS or p % 2 == 0 or not 2 <= alpha <= p - 2:
        return False
    q = p // 2
    return pow(alpha, q, p) == p - 1 and gcd(alpha * alpha - 1, p) == 1 and is_prime(q)


@dataclass(frozen=True, slots=True)
class PrimeField:
    """F_p together with a fixed primitive root alpha: a frozen, certified
    (p, alpha) pair.

    The constructor accepts exactly the certified fields: a safe prime p
    of at most MAX_P_BITS bits and a primitive root alpha. read_from
    reports any other field in untrusted bytes as MalformedFile.
    """

    p: int
    alpha: int

    def __post_init__(self):
        if not _is_safe_field(self.p, self.alpha):
            raise ValueError("p is not a safe prime with primitive root alpha")

    @property
    def p_bits(self) -> int:
        return self.p.bit_length()

    @property
    def size(self) -> int:
        return self.p

    def to_bytes(self) -> bytes:
        """Parameter block: length-prefixed p then length-prefixed alpha."""
        return pack_lpint(self.p) + pack_lpint(self.alpha)

    @classmethod
    def read_from(cls, data: bytes, offset: int) -> tuple["PrimeField", int]:
        p, offset = unpack_lpint(data, offset)
        alpha, offset = unpack_lpint(data, offset)
        if not _is_safe_field(p, alpha):
            raise MalformedFile("parameter block is not a safe prime p with a primitive root alpha")
        return cls(p, alpha), offset


def gen_params(bits: int, seed: int) -> PrimeField:
    """Deterministically generate a safe prime p of exactly `bits` bits
    and its smallest primitive root.

    p = 2q + 1 with q prime; candidates for q are drawn from a seeded rng,
    passed through a joint sieve that drops q when q or 2q + 1 has a
    prime factor below _SIEVE_BOUND = 2^14 (Wiener's combined sieve),
    filtered with a strong probable-prime round to base 2 on q and then on
    2q + 1, then proven with the same certificate every loaded field
    gets. The sieve runs in three stages, cheapest first:

    1. a table lookup of q mod 3*5*7*11*13, which drops about 90% of
       draws;
    2. one gcd of q(2q + 1) with the product of the primes below 1100;
    3. one gcd of q(2q + 1) with the product of the primes in
       [1100, 2^14).

    The sieve acts only above q = 2^14, where q and 2q + 1 cannot be one
    of its primes, so each candidate it drops is composite in q or in
    2q + 1. Neither the sieve nor the base-2 rounds drop a safe prime,
    and neither draws from the rng, so they leave the draws of q
    unchanged; the certificate alone decides which candidate is
    accepted. Pocklington's criterion in it rejects every composite p
    whose q is prime, and is_prime(q) rejects by trial division every q
    that stages 1-2 drop for q's sake. A candidate that stage 3 drops
    could have been accepted without it only if its composite q passed
    Baillie-PSW. For prime p, alpha^q is 1 or p - 1, so the smallest
    alpha with alpha^q != 1 is the smallest primitive root; safe primes
    have abundant ones.
    """
    if not 5 <= bits <= MAX_P_BITS:
        raise ValueError(f"bits must lie in [5, {MAX_P_BITS}], not {bits}")
    getrandbits = random.Random(seed).getrandbits
    top = 1 << (bits - 2)
    while True:
        # randrange(top, 2 * top) inlined: it redraws getrandbits(bits - 1)
        # while the value is top or more, then adds top
        q = getrandbits(bits - 1)
        if q >= top:
            continue
        q |= top | 1
        if q > _SIEVE_BOUND:
            if not _WHEEL_ALLOWED[q % _WHEEL]:
                continue
            both = q * (2 * q + 1)
            if gcd(both, _SMALL_PRIMORIAL) != 1 or gcd(both, _wide_primorial()) != 1:
                continue
        if not _strong_base2(q):
            continue
        p = 2 * q + 1
        if not _strong_base2(p):
            continue
        alpha = 2
        while pow(alpha, q, p) == 1:
            alpha += 1
        if _is_safe_field(p, alpha):
            return PrimeField(p, alpha)


_PARAMS_HEADER = b"DLFP\x01"


def params_to_file(field: PrimeField) -> bytes:
    """Standalone field-parameters file: magic, version, parameter block."""
    return _PARAMS_HEADER + field.to_bytes()


def params_from_file(data: bytes) -> PrimeField:
    field, offset = PrimeField.read_from(data, read_header(data, _PARAMS_HEADER))
    check_end(data, offset, "parameter block")
    return field


# ---------------------------------------------------------------------------
# GF(2^16)

# smallest irreducible degree-16 polynomial over GF(2): x^16+x^5+x^3+x+1
GF16_REDUCTION_POLY = 0x1002B


class BinaryField16:
    """GF(2^16) modulo GF16_REDUCTION_POLY, with log/exp tables over the
    generator x + 1.

    Addition is xor. Multiplication and inversion go through the tables,
    two array("H")s of 2 bytes per entry, about 0.4 MB together. _log
    has 65536 entries; _exp holds the 65535-element orbit of x + 1 twice
    over, so a product is _exp[log a + log b] and an inverse
    _exp[65535 - log x], with no reduction mod 65535. Building them walks
    the orbit once, so share the instance from binary_field() instead of
    constructing ad hoc.
    """

    size = 1 << 16

    def __init__(self):
        order = self.size - 1
        exp = array("H", [0]) * order
        log = array("H", [0]) * self.size
        # memoryview stores and a step without a branch were the cheapest
        # fill measured; bit 15 of acc is the bit x * acc carries out, and
        # GF16_REDUCTION_POLY clears it
        carry = (0, GF16_REDUCTION_POLY)
        acc = 1
        with memoryview(exp) as exp_view, memoryview(log) as log_view:
            for i in range(order):
                exp_view[i] = acc
                log_view[acc] = i
                acc ^= (acc << 1) ^ carry[acc >> 15]
        # x + 1 generates the multiplicative group exactly when its orbit
        # first returns to 1 at step 65535; otherwise the tables are wrong.
        # log[1] is the last step that stood on 1, so log[1] == 0 says 1
        # appears once in the orbit, twice in the doubled _exp, without a
        # scan of it
        if acc != 1 or log[1] != 0:
            raise RuntimeError("x + 1 does not generate GF(2^16)*")
        exp *= 2
        self._exp = exp
        self._log = log

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self._exp[65535 - self._log[x]]


@lru_cache(maxsize=None)
def binary_field() -> BinaryField16:
    """The shared BinaryField16 instance; its tables are built once."""
    return BinaryField16()
