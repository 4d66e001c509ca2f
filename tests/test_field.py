import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from math import gcd, prod

import pytest

from helpers import GF16Methods, gf16_clmul, no_pow
from dlfvault import field as field_module
from dlfvault.errors import BadFactorization, MalformedFile, ZeroInverse
from dlfvault.field import (
    GF16_REDUCTION_POLY,
    BinaryField16,
    PrimeField,
    binary_field,
    gen_params,
    is_prime,
    is_primitive_root,
    params_from_file,
    params_to_file,
)
from dlfvault.identity import encode_identity
from dlfvault.polynomial import lagrange_interpolate
from dlfvault.vault import place_points


def test_gen_params_five_bits_gives_the_only_safe_prime():
    # 23 is the single 5-bit safe prime, whatever the seed
    for seed in range(6):
        f = gen_params(5, seed=seed)
        assert f.p == 23
        assert f.alpha == 5


def _trial_division_oracle(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_oracle():
    for n in range(0, 4000):
        assert is_prime(n) == _trial_division_oracle(n), n


def test_is_prime_at_the_trial_division_bound():
    # below 2^20 a number with no prime factor under 1100 is prime, and
    # Baillie-PSW must accept it; above, it must reject the composites
    for n in range(2 ** 20 - 3000, 2 ** 20 + 3001):
        assert is_prime(n) == _trial_division_oracle(n), n
    assert is_prime(1048573)  # the largest prime below 2^20
    # the smallest composites with no prime factor up to 1097, so only
    # Baillie-PSW can reject them
    assert not is_prime(1103 * 1103)
    assert not is_prime(1103 * 1109)


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))
    assert not is_prime(2 ** 64)
    # both factors lie above the trial-division primes, so only
    # Baillie-PSW can expose the product
    assert not is_prime(1000003 * 1000033)


def test_strong_base2_pseudoprimes_fail_the_lucas_half():
    # OEIS A001262: the smallest strong pseudoprimes to base 2
    for n in (2047, 3277, 4033, 4681, 8321):
        assert field_module._strong_base2(n), n
        assert not field_module._strong_lucas(n), n


def test_strong_lucas_pseudoprimes_fail_the_base2_half():
    # OEIS A217255: the smallest strong Lucas pseudoprimes under
    # Selfridge's method A
    for n in (5459, 5777, 10877, 16109, 18971):
        assert field_module._strong_lucas(n), n
        assert not field_module._strong_base2(n), n


def test_bpsw_matches_a_sieve_on_every_odd_n_below_2_20():
    limit = 1 << 20
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, 1 << 10):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    bpsw = [n for n in range(3, limit, 2)
            if field_module._strong_base2(n) and field_module._strong_lucas(n)]
    assert bpsw == [n for n in range(3, limit, 2) if flags[n]]


def test_bpsw_rejects_perfect_squares():
    # 1093^2 and 3511^2 pass the base-2 round (1093 and 3511 are the
    # Wieferich primes), so the Lucas half must catch them
    for n in (1093 ** 2, 3511 ** 2):
        assert field_module._strong_base2(n), n
        assert not field_module._strong_lucas(n), n
    # a square has no D with Jacobi symbol -1, so without the square check
    # the D search would run until |D| met a factor of n: about 2^126
    # steps for the last
    for n in (9, 25, 1103 ** 2, (2 ** 61 - 1) ** 2, (2 ** 127 - 1) ** 2):
        assert not field_module._strong_lucas(n), n
        assert not is_prime(n), n


def test_is_prime_accepts_mersenne_primes():
    for e in (521, 607, 1279):
        assert is_prime(2 ** e - 1), e
    assert not is_prime(2 ** 523 - 1)


def test_primitive_root_worked_example():
    # 2, 3, 4 all have short orders mod 23; 5 is the smallest generator
    assert not is_primitive_root(2, 23, [2, 11])
    assert not is_primitive_root(3, 23, [2, 11])
    assert not is_primitive_root(4, 23, [2, 11])
    assert is_primitive_root(5, 23, [2, 11])


def test_primitive_root_rejects_trivial_candidates():
    assert not is_primitive_root(0, 23, [2, 11])
    assert not is_primitive_root(23, 23, [2, 11])  # 0 mod p
    assert not is_primitive_root(1, 23, [2, 11])
    assert not is_primitive_root(22, 23, [2, 11])  # order 2


def test_bad_factorization_detected():
    with pytest.raises(BadFactorization):
        is_primitive_root(5, 23, [2])  # 11 missing
    with pytest.raises(BadFactorization):
        is_primitive_root(5, 23, [2, 3])  # 3 does not divide 22
    with pytest.raises(BadFactorization):
        is_primitive_root(5, 23, [2, 11, 7])
    with pytest.raises(BadFactorization):
        is_primitive_root(5, 23, [4, 11])  # 4 is not prime
    # repeats of the right primes are harmless
    assert is_primitive_root(5, 23, [2, 2, 11])


def test_generated_alpha_spans_the_whole_group():
    for bits, seed in ((8, 1), (10, 2), (12, 3)):
        f = gen_params(bits, seed=seed)
        orbit = set()
        acc = 1
        for _ in range(f.p - 1):
            orbit.add(acc)
            acc = acc * f.alpha % f.p
        assert len(orbit) == f.p - 1


def test_gen_params_structure():
    for bits, seed in ((16, 4), (24, 5), (64, 6)):
        f = gen_params(bits, seed=seed)
        assert f.p.bit_length() == bits
        q = (f.p - 1) // 2
        assert is_prime(q)
        assert is_primitive_root(f.alpha, f.p, [2, q])


def test_gen_params_deterministic():
    assert gen_params(32, seed=9) == gen_params(32, seed=9)
    with pytest.raises(ValueError):
        gen_params(4, seed=0)


def test_gen_params_output_is_pinned():
    # the fields generated before the joint sieve, byte for byte; from 5
    # bits up, where q or 2q + 1 is itself one of the small primes
    h = hashlib.sha256()
    for bits, seed in [(b, s) for b in range(5, 70) for s in range(2)] + [
        (b, s) for b in (128, 192, 256) for s in range(2)
    ]:
        h.update(params_to_file(gen_params(bits, seed)))
    assert h.hexdigest() == "a94953aa3297e61493bba3211faceb927735416e9f09345c7b8dbfdc44f2921e"


def test_gen_params_sieves_q_and_2q_plus_1_before_miller_rabin(monkeypatch):
    # every base-2 round on a 255-bit q (the 256-bit p = 2q + 1 is
    # tested the same way once q passes) comes after the joint gcd sieve
    calls = []
    base2 = field_module._strong_base2

    def recording(n):
        calls.append(n)
        return base2(n)

    monkeypatch.setattr(field_module, "_strong_base2", recording)
    gen_params(256, 1)
    qs = [n for n in calls if n.bit_length() == 255]
    assert qs
    assert all(gcd(q * (2 * q + 1), field_module._SMALL_PRIMORIAL) == 1 for q in qs)


def test_gen_params_sieves_below_2_14_before_miller_rabin(monkeypatch):
    # no q or p = 2q + 1 reaches a base-2 round with a prime factor
    # below 2^14, the sieve's bound
    primorial = prod(n for n in range(2, 1 << 14) if is_prime(n))
    tested = []
    base2 = field_module._strong_base2

    def recording(n):
        tested.append(n)
        return base2(n)

    monkeypatch.setattr(field_module, "_strong_base2", recording)
    f = gen_params(256, 1)
    assert f.p // 2 in tested and f.p in tested
    assert all(gcd(n, primorial) == 1 for n in tested)


def test_gen_params_keygen_fields_are_pinned():
    # the 384- and 512-bit fields, byte for byte as generated before the
    # staged sieve
    h = hashlib.sha256()
    for bits, seed in [(384, 1), (384, 2), (384, 3), (384, 4), (512, 0)]:
        h.update(params_to_file(gen_params(bits, seed)))
    assert h.hexdigest() == "5932fa94448d1e0efe625a00cd9ca78b7646e2db261208504b390cded35b09d1"


def test_sieve_wheel_allows_exactly_the_residues_coprime_in_r_and_2r_plus_1():
    wheel = 3 * 5 * 7 * 11 * 13
    table = field_module._WHEEL_ALLOWED
    assert len(table) == wheel
    assert all(table[r] == (gcd(r * (2 * r + 1), wheel) == 1) for r in range(wheel))
    assert sum(table) == 1485


def test_prime_field_validates_inputs():
    with pytest.raises(ValueError):
        PrimeField(24, 5)
    with pytest.raises(ValueError):
        PrimeField(23, 1)
    with pytest.raises(ValueError):
        PrimeField(23, 22)


def test_prime_field_is_a_frozen_record():
    f = PrimeField(23, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.p = 24
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.alpha = 7
    assert (f.p, f.alpha) == (23, 5)
    assert repr(f) == "PrimeField(p=23, alpha=5)"
    assert f == PrimeField(23, 5)
    assert hash(f) == hash(PrimeField(23, 5))
    assert f != (23, 5)
    assert (f.p_bits, f.size) == (5, 23)


def test_params_block_roundtrip(params64):
    blob = params64.to_bytes()
    back, offset = PrimeField.read_from(blob, 0)
    assert offset == len(blob)
    assert back == params64


def test_params_file_roundtrip(params128):
    data = params_to_file(params128)
    assert params_from_file(data) == params128


def test_params_file_malformed(params64):
    from dlfvault._wire import pack_lpint
    good = params_to_file(params64)
    with pytest.raises(MalformedFile):
        params_from_file(b"XXXX" + good[4:])
    with pytest.raises(MalformedFile):
        params_from_file(good[:4] + b"\x09" + good[5:])
    with pytest.raises(MalformedFile):
        params_from_file(good[:-1])
    with pytest.raises(MalformedFile):
        params_from_file(good + b"\x00")
    with pytest.raises(MalformedFile):
        # p = 24 parses but fails the primality re-check
        params_from_file(b"DLFP\x01" + pack_lpint(24) + pack_lpint(5))


def _params_file(p, alpha):
    from dlfvault._wire import pack_lpint
    return b"DLFP\x01" + pack_lpint(p) + pack_lpint(alpha)


# primes that are not safe, and alphas of order q = 11 in F_23
UNSAFE_FIELDS = [(29, 2), (37, 2), (23, 4), (23, 2)]


@pytest.mark.parametrize("p, alpha", UNSAFE_FIELDS)
def test_params_file_demands_a_safe_prime_and_a_primitive_root(p, alpha):
    with pytest.raises(MalformedFile, match="safe prime"):
        params_from_file(_params_file(p, alpha))
    with pytest.raises(ValueError):
        PrimeField(p, alpha)


# one bit past the bound, and the widest p a length prefix can carry
@pytest.mark.parametrize("bits", [field_module.MAX_P_BITS + 1, 8 * 0xFFFF])
def test_params_file_with_a_too_wide_p_is_rejected_before_any_power(bits, monkeypatch):
    monkeypatch.setattr(field_module, "pow", no_pow, raising=False)
    with pytest.raises(MalformedFile, match="safe prime"):
        params_from_file(_params_file((1 << bits) - 1, 2))


def test_gen_params_refuses_a_field_wider_than_the_bound():
    with pytest.raises(ValueError):
        gen_params(field_module.MAX_P_BITS + 1, 0)


def test_cached_proof_is_keyed_on_the_exact_pair(params256):
    assert params_from_file(params_to_file(params256)) == params256
    composite = next(n for n in itertools.count(params256.p + 2, 2) if not is_prime(n))
    with pytest.raises(MalformedFile):
        params_from_file(_params_file(composite, params256.alpha))
    with pytest.raises(ValueError):
        PrimeField(composite, params256.alpha)


def test_proven_field_equals_a_freshly_constructed_one(params128):
    proven = params_from_file(params_to_file(params128))
    field_module._is_safe_field.cache_clear()
    fresh = PrimeField(params128.p, params128.alpha)
    assert proven is not fresh
    assert proven == fresh
    assert hash(proven) == hash(fresh)


# GF(2^16)

def _gf2_divides(d, poly):
    # long division of poly by d over GF(2), in-test oracle
    while poly.bit_length() >= d.bit_length():
        poly ^= d << (poly.bit_length() - d.bit_length())
    return poly == 0


def test_reduction_poly_is_the_smallest_irreducible():
    # no divisor of degree 1..8 means irreducible for a degree-16 polynomial
    for d in range(2, 1 << 9):
        assert not _gf2_divides(d, GF16_REDUCTION_POLY), f"{d:#x} divides"


def test_gf16_mul_matches_shift_xor_oracle_and_commutes():
    gf = GF16Methods()
    rng = random.Random(3)
    for _ in range(2000):
        a = rng.randrange(1 << 16)
        b = rng.randrange(1 << 16)
        expected = gf16_clmul(a, b)
        assert gf.mul(a, b) == expected
        assert gf.mul(b, a) == expected


def test_gf16_every_nonzero_element_has_an_inverse():
    gf = GF16Methods()
    for x in range(1, 1 << 16):
        assert gf.mul(x, gf.inv(x)) == 1


def test_gf16_add_and_identity():
    gf = GF16Methods()
    assert gf.add(0x1234, 0x1234) == 0
    assert gf.sub(0xABCD, 0) == 0xABCD
    assert gf.mul(1, 0x4321) == 0x4321
    assert gf.mul(0, 0x4321) == 0
    with pytest.raises(ZeroInverse):
        gf.inv(0)


def test_gf16_distributive_random():
    gf = GF16Methods()
    rng = random.Random(4)
    for _ in range(500):
        a, b, c = (rng.randrange(1 << 16) for _ in range(3))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


def test_gf16_tables_are_two_byte_arrays_with_exp_stored_twice():
    gf = binary_field()
    exp, log = gf.exp, gf.log
    # the tables are the whole of the field: polynomial's kernels read them
    assert not {"add", "sub", "mul", "inv"} & set(dir(gf))
    assert exp.itemsize == 2 and log.itemsize == 2
    assert len(exp) == 2 * 65535 and len(log) == 65536
    assert exp[65535:] == exp[:65535]
    for i in range(65535):
        assert log[exp[i]] == i
    assert exp.count(1) == 2


@pytest.mark.parametrize("poly", [0x10003, 0x10001])
def test_gf16_tables_refuse_a_polynomial_where_x_plus_1_does_not_generate(monkeypatch, poly):
    # modulo x^16+x+1 the orbit of x + 1 returns to 1 after 255 steps, so
    # it stands on 1 again at step 65535; modulo (x+1)^16 it never returns
    monkeypatch.setattr(field_module, "GF16_REDUCTION_POLY", poly)
    with pytest.raises(RuntimeError, match="does not generate"):
        BinaryField16()


def test_gf16_tables_peak_under_one_megabyte():
    # lists of ints held about 5.2 MB; no such list may be built on the way
    tracemalloc.start()
    try:
        BinaryField16()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gf16_outputs_are_pinned():
    # identity vaults placed and points interpolated over GF(2^16), byte
    # for byte as computed with the tables held in Python lists
    gf = binary_field()
    h = hashlib.sha256()
    for seed in range(4):
        rng = random.Random(seed)
        coeffs = encode_identity(rng.getrandbits(128), rng.getrandbits(64))
        locking = rng.sample(range(1 << 16), 20)
        points, _ = place_points(gf, coeffs, locking, 60, 0, seed)
        for x, y in points:
            h.update(x.to_bytes(2, "big") + y.to_bytes(2, "big"))
    for n in (1, 2, 6, 13, 40):
        rng = random.Random(100 + n)
        xs = rng.sample(range(1 << 16), n)
        for c in lagrange_interpolate(gf, [(x, rng.randrange(1 << 16)) for x in xs]):
            h.update(c.to_bytes(2, "big"))
    assert h.hexdigest() == "ac30633b911761c72a87f1db34dcde8d50a4f35e8a622d9b6c32029356a54296"
