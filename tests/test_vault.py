import dataclasses
import hashlib
import math
import random
import sys

import pytest

from helpers import keys_gen_key_never_draws, no_pow, spaced_set, vault_file, with_framed_len
from dlfvault import dlog_codec, field as field_module
from dlfvault.attacks import brute_force_unlock_attack
from dlfvault.dlog_codec import KIND_SINGLE, KeyFile, gen_key, message_decoder
from dlfvault.errors import (
    BadLength,
    ChaffSpaceExhausted,
    DecodeFailed,
    InvalidLockingSet,
    KeyKindMismatch,
    LockingSetTooSmall,
    MalformedFile,
    NotEnoughMatches,
    WrongCount,
)
from dlfvault.field import PrimeField, params_to_file
from dlfvault.framing import frame, segment
from dlfvault.polynomial import eval_poly
from dlfvault.vault import (
    Scheme,
    Vault,
    classical_coeff_check,
    lock,
    match_points,
    unlock,
    verify_coefficients,
)


def test_roundtrip_each_scheme(params64, params256):
    rng = random.Random(40)
    msg = b"vault test message"
    for scheme in Scheme:
        params = params256 if scheme is Scheme.WHOLE_MESSAGE else params64
        msg_here = b"tiny" if scheme is Scheme.WHOLE_MESSAGE else msg
        n = (-(-params.p_bits // 16) if scheme is Scheme.WHOLE_MESSAGE
             else len(frame(msg_here, 16)) // 2)
        A = spaced_set(rng, params.p, n + 4, delta=2)
        vault, key_file = lock(msg_here, A, scheme, params, chaff_count=40,
                               delta=2, seed=77, seg_bits=16)
        assert vault.coeff_count == n
        assert unlock(vault, A, key_file) == msg_here


def test_vault_invariants_after_lock(params64):
    rng = random.Random(41)
    msg = b"invariant check"
    delta = 3
    A = spaced_set(rng, params64.p, 30, delta)
    vault, _ = lock(msg, A, Scheme.CLASSICAL, params64, chaff_count=120,
                    delta=delta, seed=5, seg_bits=16)
    assert len(vault.points) == 30 + 120
    assert sum(vault.genuine_mask) == 30

    # classical coefficients are the raw segments, so the polynomial is known
    coeffs = segment(frame(msg, 16), 16)
    for (x, y), genuine in zip(vault.points, vault.genuine_mask):
        assert (y == eval_poly(params64, coeffs, x)) == genuine

    xs = sorted(x for x, _ in vault.points)
    for a, b in zip(xs, xs[1:]):
        assert b - a > 2 * delta

    genuine_points = {(x, y) for (x, y), g in zip(vault.points, vault.genuine_mask) if g}
    assert genuine_points == {(a, eval_poly(params64, coeffs, a)) for a in A}


def test_unlock_with_fuzzed_probes(params64):
    rng = random.Random(42)
    msg = b"noise tolerant"
    delta = 4
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n + 3, delta)
    vault, key_file = lock(msg, A, Scheme.PER_SEGMENT, params64,
                           chaff_count=50, delta=delta, seed=6, seg_bits=16)
    B = [a + rng.randint(-delta, delta) for a in A]
    assert unlock(vault, B, key_file) == msg


def test_unlock_beyond_tolerance_fails(params64):
    rng = random.Random(43)
    msg = b"x" * 10
    delta = 2
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n, delta, jitter=200)
    vault, key_file = lock(msg, A, Scheme.CLASSICAL, params64,
                           chaff_count=20, delta=delta, seed=7, seg_bits=16)
    B = [a + delta + 1 for a in A]
    with pytest.raises(NotEnoughMatches):
        unlock(vault, B, key_file)


def test_unlock_survives_one_bad_element(params64):
    rng = random.Random(44)
    msg = b"redundant"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n + 1, delta=0)
    vault, key_file = lock(msg, A, Scheme.PARITY, params64, chaff_count=10,
                           delta=0, seed=8, seg_bits=16)
    B = list(A)
    B[0] = params64.p - 17  # far from everything
    assert unlock(vault, B, key_file) == msg


def test_match_points_nearest_within_delta(params64):
    vault, _ = lock(b"", [1000, 2000, 3000] + list(range(4000, 4000 + 21 * 60, 60)),
                    Scheme.CLASSICAL, params64, chaff_count=0, delta=5,
                    seed=9, seg_bits=8)
    assert vault.coeff_count == 24
    matched = match_points(vault, [1003, 1995, 3006, 500_000])
    xs = [x for x, _ in matched]
    assert xs == [1000, 2000]
    # duplicates collapse to one candidate
    matched = match_points(vault, [1001, 999, 1000])
    assert len(matched) == 1 and matched[0][0] == 1000


def test_locking_set_too_small(params64):
    msg = b"m" * 20  # framed to 44 bytes -> 22 segments
    with pytest.raises(LockingSetTooSmall):
        lock(msg, list(range(0, 210, 10)), Scheme.CLASSICAL, params64, seg_bits=16)


def test_invalid_locking_sets(params64):
    with pytest.raises(InvalidLockingSet):
        lock(b"", [5, 5] + list(range(100, 3100, 100)), Scheme.CLASSICAL,
             params64, seg_bits=16)
    with pytest.raises(InvalidLockingSet):
        lock(b"", [-1] + list(range(100, 3200, 100)), Scheme.CLASSICAL,
             params64, seg_bits=16)
    with pytest.raises(InvalidLockingSet):
        lock(b"", [params64.p] + list(range(100, 3200, 100)), Scheme.CLASSICAL,
             params64, seg_bits=16)
    with pytest.raises(InvalidLockingSet):
        lock(b"", [1.5] + list(range(100, 3200, 100)), Scheme.CLASSICAL,
             params64, seg_bits=16)
    with pytest.raises(InvalidLockingSet):
        # gap of exactly 2*delta is one short
        lock(b"", [100, 104] + list(range(200, 2400, 100)), Scheme.CLASSICAL,
             params64, delta=2, seg_bits=16)


def test_lock_argument_validation(params64):
    A = list(range(100, 2500, 100))
    with pytest.raises(BadLength):
        lock(b"", A, Scheme.CLASSICAL, params64, seg_bits=64)  # 64 > 63
    with pytest.raises(BadLength):
        lock(b"", A, Scheme.CLASSICAL, params64, seg_bits=12)
    with pytest.raises(ValueError):
        lock(b"", A, Scheme.CLASSICAL, params64, chaff_count=-1, seg_bits=16)
    with pytest.raises(ValueError):
        lock(b"", A, Scheme.CLASSICAL, params64, delta=-1, seg_bits=16)


def test_chaff_space_exhausted():
    from dlfvault.field import gen_params
    small = gen_params(16, seed=50)
    A = spaced_set(random.Random(51), small.p, 24, delta=3, jitter=8)
    with pytest.raises(ChaffSpaceExhausted):
        lock(b"", A, Scheme.CLASSICAL, small, chaff_count=small.p, delta=3,
             seed=52, seg_bits=8)


def test_key_kind_checks(params64):
    rng = random.Random(45)
    A = spaced_set(rng, params64.p, 26, delta=0)
    vault, key_file = lock(b"", A, Scheme.PARITY, params64, chaff_count=5,
                           seed=10, seg_bits=16)
    single = KeyFile(key=gen_key(params64, KIND_SINGLE, 3))
    with pytest.raises(KeyKindMismatch):
        unlock(vault, A, single)
    with pytest.raises(KeyKindMismatch):
        unlock(vault, A, None)

    classical, classical_key = lock(b"", A, Scheme.CLASSICAL, params64,
                                    chaff_count=5, seed=11, seg_bits=16)
    # classical vaults open with their key file or with none at all
    assert unlock(classical, A, classical_key) == b""
    assert unlock(classical, A, None) == b""
    with pytest.raises(KeyKindMismatch):
        unlock(classical, A, single)


def test_wrong_key_fails_to_decode(params64):
    rng = random.Random(46)
    msg = b"secret"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n, delta=0)
    vault, _ = lock(msg, A, Scheme.PER_SEGMENT, params64, chaff_count=0,
                    seed=12, seg_bits=16)
    wrong = KeyFile(key=gen_key(params64, KIND_SINGLE, 999))
    with pytest.raises(DecodeFailed):
        unlock(vault, A, wrong)


def test_max_subsets_cap(params64):
    rng = random.Random(47)
    msg = b"capped"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n + 4, delta=0)
    vault, _ = lock(msg, A, Scheme.PER_SEGMENT, params64, chaff_count=0,
                    seed=13, seg_bits=16)
    wrong = KeyFile(key=gen_key(params64, KIND_SINGLE, 1000))
    with pytest.raises(DecodeFailed) as exc_info:
        unlock(vault, A, wrong, max_subsets=5)
    assert "5" in str(exc_info.value)


def test_not_enough_matches_when_b_small(params64):
    rng = random.Random(48)
    msg = b"need more"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n + 2, delta=0)
    vault, key_file = lock(msg, A, Scheme.CLASSICAL, params64, chaff_count=8,
                           seed=14, seg_bits=16)
    with pytest.raises(NotEnoughMatches):
        unlock(vault, A[:n - 1], key_file)


def test_lock_is_deterministic(params64):
    rng = random.Random(49)
    A = spaced_set(rng, params64.p, 26, delta=1)
    one = lock(b"stable", A, Scheme.PARITY, params64, chaff_count=30,
               delta=1, seed=500, seg_bits=16)
    two = lock(b"stable", A, Scheme.PARITY, params64, chaff_count=30,
               delta=1, seed=500, seg_bits=16)
    assert one[0].to_bytes() == two[0].to_bytes()
    assert one[1].to_bytes() == two[1].to_bytes()
    three = lock(b"stable", A, Scheme.PARITY, params64, chaff_count=30,
                 delta=1, seed=501, seg_bits=16)
    assert one[0].to_bytes() != three[0].to_bytes()


def test_same_seed_gives_same_layout_across_schemes(params64):
    rng = random.Random(53)
    A = spaced_set(rng, params64.p, 28, delta=1)
    classical, _ = lock(b"pq", A, Scheme.CLASSICAL, params64, chaff_count=40,
                        delta=1, seed=600, seg_bits=16)
    encrypted, _ = lock(b"pq", A, Scheme.PER_SEGMENT, params64, chaff_count=40,
                        delta=1, seed=600, seg_bits=16)
    assert [x for x, _ in classical.points] == [x for x, _ in encrypted.points]
    assert classical.genuine_mask == encrypted.genuine_mask


def test_vault_serialization_roundtrip(params64):
    rng = random.Random(54)
    A = spaced_set(rng, params64.p, 26, delta=2)
    vault, key_file = lock(b"disk", A, Scheme.PER_SEGMENT, params64,
                           chaff_count=25, delta=2, seed=15, seg_bits=16)
    back = Vault.from_bytes(vault.to_bytes())
    assert back.params == vault.params
    assert back.scheme == vault.scheme
    assert back.coeff_count == vault.coeff_count
    assert back.seg_bits == vault.seg_bits
    assert back.delta == vault.delta
    assert back.points == vault.points
    # ground truth never crosses the serialization boundary
    assert back.genuine_mask is None
    assert unlock(back, A, key_file) == b"disk"


def test_vault_bytes_leak_no_key_material(params64):
    rng = random.Random(55)
    A = spaced_set(rng, params64.p, 26, delta=0)
    vault, key_file = lock(b"leakcheck", A, Scheme.PER_SEGMENT, params64,
                           chaff_count=10, seed=16, seg_bits=16)
    kappa = key_file.key.kappa
    blob = vault.to_bytes()
    assert kappa.to_bytes(8, "big") not in blob


def test_vault_malformed_files(params64):
    rng = random.Random(56)
    A = spaced_set(rng, params64.p, 26, delta=0)
    vault, _ = lock(b"", A, Scheme.CLASSICAL, params64, chaff_count=3,
                    seed=17, seg_bits=16)
    good = vault.to_bytes()
    with pytest.raises(MalformedFile):
        Vault.from_bytes(b"WHAT" + good[4:])
    with pytest.raises(MalformedFile):
        Vault.from_bytes(good[:4] + b"\x05" + good[5:])  # version
    with pytest.raises(MalformedFile):
        Vault.from_bytes(good[:5] + b"\x09" + good[6:])  # scheme code
    with pytest.raises(MalformedFile):
        Vault.from_bytes(good[:-3])
    with pytest.raises(MalformedFile):
        Vault.from_bytes(good + b"\x00\x00")


def test_vault_file_rejects_points_lock_never_places(params64):
    # each tampered file loaded before from_bytes checked its points; the
    # repeated x then made the brute-force attack raise DuplicateX partway
    # through its subset search
    delta = 2
    A = spaced_set(random.Random(58), params64.p, 26, delta=delta)
    vault, _ = lock(b"", A, Scheme.CLASSICAL, params64, chaff_count=3,
                    delta=delta, seed=19, seg_bits=16)
    assert Vault.from_bytes(vault.to_bytes()).points == vault.points
    g0, g1 = [i for i, genuine in enumerate(vault.genuine_mask) if genuine][:2]
    (x0, y0), (_, y1) = vault.points[g0], vault.points[g1]
    p = params64.p
    for index, point, reason in [
        (g1, (x0, y1), "within 2\\*delta"),                  # repeated x
        (g1, (x0 + 2 * delta, y1), "within 2\\*delta"),      # gap not above 2*delta
        (g0, (x0 + p, y0), r"outside \[0, p\)"),             # x aliasing x0 mod p
        (g0, (x0, p), r"outside \[0, p\)"),                  # y aliasing 0 mod p
    ]:
        points = list(vault.points)
        points[index] = point
        tampered = dataclasses.replace(vault, points=points).to_bytes()
        with pytest.raises(MalformedFile, match=reason):
            Vault.from_bytes(tampered)


def test_vault_file_rejects_headers_lock_never_writes(params64):
    # each of these loaded before, and unlock then spent its whole subset
    # budget before raising DecodeFailed
    A = spaced_set(random.Random(59), params64.p, 26, delta=0)
    vault, _ = lock(b"", A, Scheme.CLASSICAL, params64, chaff_count=3,
                    seed=20, seg_bits=16)
    # 64 bits in 16-bit chunks: the one count a whole-message vault may have
    whole = dataclasses.replace(vault, scheme=Scheme.WHOLE_MESSAGE, coeff_count=4)
    assert Vault.from_bytes(whole.to_bytes()) == whole
    for bad, reason in [
        (dataclasses.replace(vault, seg_bits=0), "segments"),
        (dataclasses.replace(vault, seg_bits=7), "segments"),
        (dataclasses.replace(vault, seg_bits=64), "segments"),   # above p_bits - 1
        (dataclasses.replace(vault, seg_bits=200), "segments"),
        (dataclasses.replace(vault, coeff_count=0), "coefficient count"),
        (dataclasses.replace(vault, coeff_count=len(vault.points) + 1), "coefficient count"),
        (dataclasses.replace(whole, coeff_count=3), "whole-message"),
        (dataclasses.replace(whole, coeff_count=5), "whole-message"),
    ]:
        with pytest.raises(MalformedFile, match=reason):
            Vault.from_bytes(bad.to_bytes())


@pytest.mark.parametrize("p, alpha", [(29, 2), (37, 2), (23, 4), (23, 2)])
def test_vault_file_demands_a_safe_prime_and_a_primitive_root(p, alpha):
    with pytest.raises(MalformedFile, match="safe prime"):
        Vault.from_bytes(vault_file(p, alpha, [(1, 2), (5, 7)]))


@pytest.mark.parametrize("bits", [field_module.MAX_P_BITS + 1, 8 * 0xFFFF])
def test_vault_file_with_a_too_wide_p_is_rejected_before_any_power(bits, monkeypatch):
    monkeypatch.setattr(field_module, "pow", no_pow, raising=False)
    with pytest.raises(MalformedFile, match="safe prime"):
        Vault.from_bytes(vault_file((1 << bits) - 1, 2, []))


@pytest.mark.parametrize("scheme", [Scheme.PER_SEGMENT, Scheme.WHOLE_MESSAGE, Scheme.PARITY],
                         ids=lambda scheme: scheme.name.lower())
def test_key_exponents_gen_key_never_draws_are_rejected_before_any_power(params256, scheme,
                                                                          monkeypatch):
    A = spaced_set(random.Random(70), params256.p, 10, delta=0)
    vault, key_file = lock(b"key", A, scheme, params256, chaff_count=3, seed=71, seg_bits=32)
    assert unlock(vault, A, key_file) == b"key"

    monkeypatch.setattr(field_module, "pow", no_pow, raising=False)
    monkeypatch.setattr(dlog_codec, "pow", no_pow, raising=False)
    for bad in keys_gen_key_never_draws(key_file, params256.p):
        with pytest.raises(MalformedFile, match="exponent"):
            unlock(vault, A, bad)
        with pytest.raises(MalformedFile, match="exponent"):
            brute_force_unlock_attack(vault, bad, max_subsets=10)


def test_a_loaded_field_is_proven_once(params256, monkeypatch):
    A = spaced_set(random.Random(60), params256.p, 12, delta=0)
    vault, _ = lock(b"cache", A, Scheme.CLASSICAL, params256, chaff_count=5,
                    seed=21, seg_bits=32)
    blob = vault.to_bytes()
    full_strength = []
    real = field_module.is_prime

    def counting(n, rounds=field_module._MILLER_RABIN_ROUNDS):
        if rounds == field_module._MILLER_RABIN_ROUNDS:
            full_strength.append(n)
        return real(n, rounds)

    monkeypatch.setattr(field_module, "is_prime", counting)
    field_module._is_safe_field.cache_clear()
    for _ in range(5):
        assert Vault.from_bytes(blob) == vault
    assert full_strength == [(params256.p - 1) // 2]


def test_verify_coefficients():
    assert verify_coefficients([1, 2, 3], [1, 2, 3])
    assert not verify_coefficients([1, 2, 4], [1, 2, 3])
    with pytest.raises(WrongCount):
        verify_coefficients([1, 2], [1, 2, 3])


def test_classical_coeff_check(params64):
    f23 = PrimeField(23, 5)
    assert classical_coeff_check(128, f23) == 32
    per = params64.p_bits - 1
    assert classical_coeff_check(per * 3, params64) == 3
    assert classical_coeff_check(per * 3 + 1, params64) == 4


def test_whole_message_chunk_count(params256):
    rng = random.Random(57)
    n = -(-params256.p_bits // 16)
    A = spaced_set(rng, params256.p, n, delta=0)
    vault, key_file = lock(b"", A, Scheme.WHOLE_MESSAGE, params256,
                           chaff_count=0, seed=18, seg_bits=16)
    assert vault.coeff_count == n
    assert key_file.framed_len == len(frame(b"", 16))
    assert unlock(vault, A, key_file) == b""


# sha256 of params file + vault file + key file, recorded from the
# original implementation; any change to point placement, chaff,
# scrambling, coefficient mapping or serialization shows up here
_GOLDEN = {
    Scheme.CLASSICAL: "c415fbcfd73aad9dab8a74bd7e35088d1486d270382d8f289f3e779387f17bdd",
    Scheme.PER_SEGMENT: "97d7265a4aa8545c817bee98d94fd5ce8ec1cf1260e89d4046d54aa7569ffc37",
    Scheme.WHOLE_MESSAGE: "9b202aac64c8857efa1a9ef9edf0fc8e1a3c6f4c0c6575fb7b7b7367787126fe",
    Scheme.PARITY: "2bb1f55bc4091cf41585021c28f9c604f4386370d733ef378b7ab0969f882b7e",
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.name)
def test_golden_bytes_for_fixed_seeds(params256, scheme):
    rng = random.Random(90 + scheme)
    A = spaced_set(rng, params256.p, 12, delta=3)
    msg = rng.randbytes(6)
    vault, key_file = lock(msg, A, scheme, params256, chaff_count=30, delta=3,
                           seed=91 + scheme, seg_bits=32)
    blob = params_to_file(params256) + vault.to_bytes() + key_file.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN[scheme]
    assert unlock(vault, A, key_file) == msg


def _whole_message_vault(params, msg, seg_bits, seed, chaff_count=0):
    rng = random.Random(seed)
    A = spaced_set(rng, params.p, -(-params.p_bits // seg_bits) + 2, delta=0)
    vault, key_file = lock(msg, A, Scheme.WHOLE_MESSAGE, params, chaff_count=chaff_count,
                           seed=seed, seg_bits=seg_bits)
    return A, vault, key_file


@pytest.mark.parametrize("framed_len", [0, 3, 60000])
def test_whole_message_key_with_a_frame_length_lock_never_writes(params256, framed_len):
    # each of these used to spend the whole subset budget, then raise DecodeFailed
    A, vault, key_file = _whole_message_vault(params256, b"hi", 16, 59, chaff_count=4)
    blob = with_framed_len(key_file.to_bytes(), framed_len)
    with pytest.raises(MalformedFile):
        unlock(vault, A, KeyFile.from_bytes(blob), max_subsets=2000)


def test_frame_length_must_fit_the_vault(params64, params128, params256):
    # the u64 length header is the framed integer's only source of leading
    # zero bytes, so an empty message reaches ceil(p_bits / 8) + 8 exactly
    A, vault, key_file = _whole_message_vault(params128, b"", 64, 60)
    assert key_file.framed_len == 24 == -(-params128.p_bits // 8) + 8
    assert unlock(vault, A, key_file) == b""
    A, vault, key_file = _whole_message_vault(params128, b"", 8, 61)
    for framed_len in (25, 32, 23):
        with pytest.raises(MalformedFile):
            message_decoder(vault, dataclasses.replace(key_file, framed_len=framed_len))
    A, vault, key_file = _whole_message_vault(params256, b"odd", 32, 62)
    assert key_file.framed_len == 28
    with pytest.raises(MalformedFile):
        message_decoder(vault, dataclasses.replace(key_file, framed_len=30))
    # every other scheme records no frame length
    rng = random.Random(63)
    A = spaced_set(rng, params64.p, 12, delta=0)
    vault, key_file = lock(b"", A, Scheme.PER_SEGMENT, params64, seed=64, seg_bits=16)
    assert key_file.framed_len == 0
    with pytest.raises(MalformedFile):
        unlock(vault, A, dataclasses.replace(key_file, framed_len=24))


def test_negative_max_subsets_is_rejected(params64):
    # a budget of -1 used to lift the cap and enumerate every subset
    rng = random.Random(65)
    msg = b"budget"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n + 4, delta=0)
    vault, _ = lock(msg, A, Scheme.PER_SEGMENT, params64, seed=66, seg_bits=16)
    wrong = KeyFile(key=gen_key(params64, KIND_SINGLE, 1001))
    with pytest.raises(ValueError) as exc_info:
        unlock(vault, A, wrong, max_subsets=-1)
    assert type(exc_info.value) is ValueError


def test_max_subsets_above_sys_maxsize_still_opens_the_vault(params64):
    # islice rejects a stop above sys.maxsize; the budget is capped there instead
    rng = random.Random(67)
    msg = b"no limit"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n + 4, delta=0)
    vault, key_file = lock(msg, A, Scheme.PER_SEGMENT, params64, chaff_count=4, seed=68,
                           seg_bits=16)
    assert unlock(vault, A, key_file, max_subsets=sys.maxsize + 1) == msg
    result = brute_force_unlock_attack(vault, key_file, max_subsets=sys.maxsize + 1)
    assert result.succeeded and result.message == msg
