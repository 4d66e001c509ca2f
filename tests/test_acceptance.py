"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line. Tolerances and seeds are pinned; every expected
value is either a frozen independent computation or an exact oracle."""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import feasible_whole_message_lengths, spaced_set
from dlfvault.attacks import (
    attack_report,
    brute_force_unlock_attack,
    exact_success_prob,
    solve_dlog_bsgs,
)
from dlfvault.errors import FuzzyVaultError
from dlfvault.field import PrimeField, gen_params
from dlfvault.framing import frame, md5
from dlfvault.identity import IdentityRecord, decode_identity, encode_identity, identity_vault_roundtrip
from dlfvault.polynomial import crc16_remainder, eval_poly, lagrange_interpolate
from dlfvault.vault import Scheme, lock, unlock


@pytest.fixture(scope="module")
def pool():
    return {
        64: gen_params(64, seed=2101),
        128: gen_params(128, seed=2102),
        256: gen_params(256, seed=2103),
    }


@pytest.fixture()
def report(capsys):
    def _report(num, name, ok):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
        assert ok, f"criterion {num}: {name}"
    return _report


def _segment_scheme_cycle(rng, params, scheme, seg_bits):
    msg = rng.randbytes(rng.randrange(0, 41))
    framed_len = len(frame(msg, seg_bits))
    n = framed_len * 8 // seg_bits
    return msg, n


def test_criterion_1_scheme_roundtrips(pool, report):
    rng = random.Random(20260816)
    ok = True
    for scheme in (Scheme.CLASSICAL, Scheme.PER_SEGMENT,
                   Scheme.WHOLE_MESSAGE, Scheme.PARITY):
        for _ in range(200):
            if scheme is Scheme.WHOLE_MESSAGE:
                # the framed integer must fit below p, which pins the
                # field to the wide end of the profile
                params = pool[256]
                seg_bits = rng.choice([16, 32, 64])
                lengths = feasible_whole_message_lengths(params, seg_bits)
                msg = rng.randbytes(rng.choice(lengths))
                n = -(-params.p_bits // seg_bits)
            else:
                params = pool[rng.choice([64, 128, 256])]
                choices = [s for s in (16, 32, 64) if s < params.p_bits]
                seg_bits = rng.choice(choices)
                msg, n = _segment_scheme_cycle(rng, params, scheme, seg_bits)
            delta = rng.choice([0, 1, 2, 3])
            t = n + rng.randrange(9)
            chaff = rng.randrange(201)
            A = spaced_set(rng, params.p, t, delta)
            vault, key_file = lock(msg, A, scheme, params, chaff_count=chaff,
                                   delta=delta, seed=rng.randrange(1 << 32),
                                   seg_bits=seg_bits)
            if unlock(vault, A, key_file) != msg:
                ok = False
    report(1, "scheme round-trips recover exact bytes (4 x 200 cycles)", ok)


def test_criterion_2_fuzzy_tolerance(pool, report):
    rng = random.Random(20260817)
    params = pool[64]
    ok = True

    for _ in range(100):
        delta = rng.randrange(1, 5)
        msg = rng.randbytes(rng.randrange(0, 30))
        n = len(frame(msg, 16)) // 2
        t = n + rng.randrange(0, 4)
        A = spaced_set(rng, params.p, t, delta)
        vault, key_file = lock(msg, A, Scheme.PARITY, params,
                               chaff_count=rng.randrange(80), delta=delta,
                               seed=rng.randrange(1 << 32), seg_bits=16)
        B = [a + rng.randint(-delta, delta) for a in A]
        if unlock(vault, B, key_file) != msg:
            ok = False

    params32 = gen_params(32, seed=2104)
    delta = 2
    A = spaced_set(rng, params32.p, 10, delta)
    vault, key_file = lock(b"", A, Scheme.CLASSICAL, params32, chaff_count=30,
                           delta=delta, seed=7, seg_bits=24)
    assert vault.coeff_count == 8 and len(vault.points) == 40
    failures = 0
    for _ in range(1000):
        B = [rng.randrange(params32.p) for _ in range(10)]
        try:
            unlock(vault, B, key_file)
        except FuzzyVaultError:
            failures += 1
    if failures < 999:
        ok = False
    report(2, "fuzzy tolerance: 100/100 within delta, random probes fail "
              f"({failures}/1000)", ok)


def test_criterion_3_interpolation_oracle(pool, report):
    rng = random.Random(20260818)
    params = pool[64]
    ok = True
    for _ in range(1000):
        n = rng.randrange(1, 13)
        coeffs = [rng.randrange(params.p) for _ in range(n)]
        xs = rng.sample(range(1 << 40), n)
        points = [(x, eval_poly(params, coeffs, x)) for x in xs]
        if lagrange_interpolate(params, points) != coeffs:
            ok = False
    report(3, "1000 random polynomials interpolate back exactly", ok)


def test_criterion_4_md5_vectors(report):
    vectors = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789":
            "d174ab98d277d9f5a5611c2c9f419d9f",
        b"1234567890123456789012345678901234567890123456789012345678901234"
        b"5678901234567890": "57edf4a22be3c955ac49da2e2107b67a",
    }
    ok = all(md5(m).hex() == h for m, h in vectors.items())
    report(4, "MD5 matches all published appendix vectors", ok)


def test_criterion_5_crc(report):
    rng = random.Random(20260819)
    ok = crc16_remainder(1, 64) == 0x8005

    for _ in range(300):
        bit_len = rng.randrange(1, 128)
        value = rng.randrange(1 << bit_len)
        rem = crc16_remainder(value, bit_len)
        if crc16_remainder(value << 16 | rem, bit_len + 16) != 0:
            ok = False

    coeffs = encode_identity(rng.randrange(1 << 128), rng.randrange(1 << 64))
    for bit in range(80):  # the whole checked id-plus-crc region
        corrupted = list(coeffs)
        corrupted[bit // 16] ^= 1 << (bit % 16)
        if decode_identity(corrupted) is not None:
            ok = False

    from dlfvault.polynomial import CRC16_GENERATOR
    ok = ok and CRC16_GENERATOR == 0x18005
    report(5, "CRC self-check zero, 80/80 single-bit flips caught, generator pinned", ok)


def test_criterion_6_security_analysis_agreement(report):
    start = time.monotonic()
    rep = attack_report(10, 5, 3, trials=200_000, seed=1)
    elapsed = time.monotonic() - start
    exact = Fraction(1, 12)
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / 200_000)
    ok = abs(rep.empirical_rate - float(exact)) <= 3 * sigma
    ok = ok and rep.exact_prob == exact
    ok = ok and rep.published_poly_prob == 8.0
    text = rep.to_text()
    ok = ok and "paper_eq30=8.0" in text
    ok = ok and any("exceeds 1" in note for note in rep.notes)
    ok = ok and elapsed < 10
    report(6, f"monte carlo within 3 sigma of 1/12 (rate={rep.empirical_rate:.5f}, "
              f"{elapsed:.1f}s) and the >1 figure is flagged", ok)


def test_criterion_7_dlog_layer(pool, report):
    rng = random.Random(20260820)
    ok = True
    schemes = [Scheme.PER_SEGMENT, Scheme.PARITY, Scheme.WHOLE_MESSAGE]
    for i in range(100):
        scheme = schemes[i % 3]
        if scheme is Scheme.WHOLE_MESSAGE:
            params = pool[256]
            n = -(-params.p_bits // 16)
        else:
            params = pool[64]
            n = 12  # empty message at 16-bit segments
        A = spaced_set(rng, params.p, n, delta=0)
        vault, key_file = lock(b"", A, scheme, params,
                               chaff_count=rng.randrange(2, 4), delta=0,
                               seed=rng.randrange(1 << 32), seg_bits=16)
        blind = brute_force_unlock_attack(vault, max_subsets=100_000)
        keyed = brute_force_unlock_attack(vault, key_file, max_subsets=100_000)
        if blind.succeeded or not keyed.succeeded or keyed.message != b"":
            ok = False

    f23 = PrimeField(23, 5)
    for k in range(22):
        if solve_dlog_bsgs(pow(5, k, 23), f23) != k:
            ok = False

    params32 = gen_params(32, seed=2105)
    start = time.monotonic()
    for _ in range(20):
        k = rng.randrange(params32.p - 1)
        if solve_dlog_bsgs(pow(params32.alpha, k, params32.p), params32) != k:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5
    report(7, "dlog vaults resist keyless brute force 100/100; bsgs exact "
              f"(32-bit batch {elapsed:.1f}s)", ok)


def test_criterion_8_identity_binding(report):
    rng = random.Random(20260821)
    ok = True
    for _ in range(1000):
        kappa = rng.randrange(1 << 128)
        ident = rng.randrange(1 << 64)
        if decode_identity(encode_identity(kappa, ident)) != (kappa, ident):
            ok = False

    rec = IdentityRecord(rng.randrange(1 << 128), rng.randrange(1 << 64))
    A = rng.sample(range(1 << 16), 13)
    ok = ok and identity_vault_roundtrip(rec, A, chaff_count=30, seed=2106)

    coeffs = encode_identity(rec.kappa128, rec.id64)
    rejected = 0
    for _ in range(100):
        corrupted = list(coeffs)
        # corruption sampled across the checksum-covered coefficients
        corrupted[rng.randrange(5)] ^= rng.randrange(1, 1 << 16)
        if decode_identity(corrupted) is None:
            rejected += 1
    ok = ok and rejected == 100
    report(8, f"identity: 1000 round-trips, vault embed ok, {rejected}/100 "
              "corruptions rejected", ok)


def test_criterion_9_format_stability(pool, tmp_path, report):
    ok = True

    # library level: identical bytes from identical seeds
    params_a = gen_params(64, seed=2107)
    params_b = gen_params(64, seed=2107)
    ok = ok and params_a.to_bytes() == params_b.to_bytes()

    rng = random.Random(20260822)
    A = spaced_set(rng, pool[64].p, 26, delta=1)
    lock_args = dict(chaff_count=35, delta=1, seed=2108, seg_bits=16)
    va, ka = lock(b"stable bytes", A, Scheme.PARITY, pool[64], **lock_args)
    vb, kb = lock(b"stable bytes", A, Scheme.PARITY, pool[64], **lock_args)
    ok = ok and va.to_bytes() == vb.to_bytes() and ka.to_bytes() == kb.to_bytes()

    ra = attack_report(12, 6, 3, trials=4000, seed=2109)
    rb = attack_report(12, 6, 3, trials=4000, seed=2109)
    ok = ok and ra.to_text() == rb.to_text()

    # process level: a fresh interpreter (fresh hash randomization) must
    # produce the same files the in-process run wrote
    msg_path = tmp_path / "m.bin"
    msg_path.write_bytes(b"stable bytes")
    set_path = tmp_path / "set.txt"
    set_path.write_text("\n".join(str(a) for a in A) + "\n")
    outputs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        cmd = [sys.executable, "-m", "dlfvault.cli"]
        steps = [
            cmd + ["params", "--bits", "32", "--seed", "2110",
                   "--out", str(d / "f.dlfp")],
            cmd + ["attack", "--r", "10", "--t", "5", "--n", "3",
                   "--trials", "3000", "--seed", "2111",
                   "--report-out", str(d / "rep.txt")],
        ]
        for step in steps:
            proc = subprocess.run(step, capture_output=True, text=True)
            ok = ok and proc.returncode == 0
        outputs[tag] = [(d / "f.dlfp").read_bytes(), (d / "rep.txt").read_bytes()]
    ok = ok and outputs["one"] == outputs["two"]
    report(9, "fixed seeds give byte-identical params, vault, key, and reports "
              "across runs and processes", ok)
