"""A seeded output corpus: the results a speed-up must leave unchanged.

Each case runs one seeded input through a public or private entry point
and keeps a short digest of what came back, or of the exception raised;
corpus.json beside this file holds the digests, function by function and
call by call. A change that means to keep every result leaves that file
unedited. A mismatch names the function and its first differing call.

    python -m pytest -q tests/test_corpus.py
    python tests/test_corpus.py            # the same check, without pytest
    python tests/test_corpus.py --write    # regenerate corpus.json

Regenerate only for a change that means to alter a result, and name the
functions whose digests moved, and why, in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from dlfvault import attacks, identity, polynomial, vault  # noqa: E402
from dlfvault.dlog_codec import KeyFile, Scheme, gen_key, message_decoder  # noqa: E402
from dlfvault.field import (PrimeField, binary_field, gen_params, params_from_file,  # noqa: E402
                            params_to_file)
from helpers import OAKLEY_1024  # noqa: E402

CORPUS = HERE / "corpus.json"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:10]


def _call(thunk):
    """thunk's value, a generator's yields and the exception that ended
    them, or the name of the exception thunk raised."""
    try:
        value = thunk()
        if hasattr(value, "__next__"):
            out = []
            try:
                out.extend(value)
            except Exception as exc:  # the walk's own error, after its yields
                return out, type(exc).__name__
            return out, None
        return value
    except Exception as exc:
        return "raise " + type(exc).__name__


def _distinct(rng, bound, n):
    """n distinct values in [0, bound), in the order drawn."""
    out = {}
    while len(out) < n:
        out[rng.randrange(bound)] = None
    return list(out)


def _locks(field, bits_label, rng, count, chaff, delta, seg_bits):
    """lock, file bytes and unlock for every scheme over field."""
    for scheme in Scheme:
        for i in range(count):
            set_size = (field.p_bits + seg_bits - 1) // seg_bits + 6
            spots = range(0, min(field.p - 1, 1 << 20), 2 * delta + 5)
            xs = sorted(rng.sample(spots, set_size))
            message = rng.randbytes(rng.randrange(8))
            seed = rng.randrange(1 << 32)
            label = f"{bits_label} {scheme.name} #{i}"
            locked = _call(lambda: vault.lock(message, xs, scheme, field, chaff_count=chaff,
                                              delta=delta, seed=seed, seg_bits=seg_bits))
            if isinstance(locked, str):
                yield "lock", label, locked
                continue
            v, key = locked
            yield "lock", label, (v.to_bytes(), key.to_bytes(), v.genuine_mask)
            blob = v.to_bytes()
            yield "Vault.from_bytes", label, vault.Vault.from_bytes(blob).to_bytes() == blob
            yield "KeyFile.from_bytes", label, KeyFile.from_bytes(key.to_bytes()).to_bytes()
            probes = [x + rng.randrange(-delta, delta + 1) for x in rng.sample(xs, set_size - 2)]
            yield "unlock", label, _call(lambda: vault.unlock(v, probes, key))


def _lock_cases():
    rng = random.Random(1)
    params256 = gen_params(256, 1003)
    oakley = PrimeField(OAKLEY_1024, 5)
    yield from _locks(params256, "256-bit", rng, 2, 30, 3, 32)
    yield from _locks(oakley, "1024-bit", rng, 1, 40, 3, 256)
    # a 20-bit field where most chaff draws land within 2*delta of a
    # taken x, and one where the chaff space runs out
    small = gen_params(20, 7)
    for chaff, delta in ((120, 1500), (400, 1500)):
        xs = sorted(rng.sample(range(0, small.p, 3001), 40))
        yield "lock", f"20-bit dense {chaff}", _call(lambda: vault.lock(
            b"", xs, Scheme.CLASSICAL, small, chaff_count=chaff, delta=delta, seed=5,
            seg_bits=8)[0].to_bytes())
    # p = 23: a chaff draw lands on P(u) often enough to need its shift
    tiny = PrimeField(23, 5)
    for seed in range(10):
        yield "place_points", f"p=23 seed {seed}", vault.place_points(
            tiny, [seed, 1, 2], [3, 11, 19], 20, 0, seed)
    for scheme in Scheme:
        for field, label in ((params256, "256"), (oakley, "1024")):
            for seed in range(12):
                yield "gen_key", f"{label} {scheme.name} seed {seed}", gen_key(field, scheme, seed)
    for field in (params256, oakley, small):
        yield "params_from_file", f"{field.p_bits}-bit", params_from_file(params_to_file(field))


def _decoder_cases():
    """Each scheme's decoder and screen on a vault's own coefficients and
    on random ones."""
    rng = random.Random(9)
    field = gen_params(256, 1003)
    for scheme in Scheme:
        xs = sorted(rng.sample(range(1 << 20), 12))
        v, key = vault.lock(rng.randbytes(5), xs, scheme, field, seed=rng.randrange(1 << 32),
                            seg_bits=32)
        decode, screen = message_decoder(v, key)
        genuine = polynomial.lagrange_interpolate(field, v.points[:v.coeff_count])
        # every genuine coefficient is a masked segment: under one mask its
        # unmasked value is below 2^seg_bits too
        values = genuine + [0, 1, (1 << 32) - 1, 1 << 32, field.p - 1]
        values += [rng.randrange(field.p) for _ in range(20)]
        yield "message_decoder screen", scheme.name, [screen(c) for c in values]
        yield "message_decoder decode", scheme.name, _call(lambda: decode(genuine))
        wrong = [c + 1 for c in genuine]
        yield "message_decoder decode", scheme.name + " off by one", _call(lambda: decode(wrong))


def _brute_force_cases():
    rng = random.Random(2)
    field = gen_params(64, 1001)
    for scheme in (Scheme.CLASSICAL, Scheme.PER_SEGMENT, Scheme.PARITY):
        for chaff in (3, 6):
            xs = sorted(rng.sample(range(1 << 20), 16))
            # 28 framed bytes: no zero padding, so coefficient 0 is not 0,
            # which every mask keeps 0
            v, key = vault.lock(rng.randbytes(4), xs, scheme, field, chaff_count=chaff,
                                seed=chaff, seg_bits=16)
            for key_file in (None, key):
                label = f"{scheme.name} chaff {chaff} key {key_file is not None}"
                result = attacks.brute_force_unlock_attack(v, key_file, max_subsets=500)
                yield "brute_force_unlock_attack", label, (result.succeeded,
                                                           result.subsets_tried, result.message)


def _gf16_cases():
    gf = binary_field()
    rng = random.Random(3)
    for n in (0, 1, 2, 5, 13, 30):
        for i in range(6):
            coeffs = [rng.randrange(1 << 16) for _ in range(n)]
            # zero coefficients, and zero at the top
            for j in rng.sample(range(n), min(n, i)):
                coeffs[j] = 0
            for x in (0, 1, 0xFFFF, rng.randrange(1 << 16)):
                yield "eval_poly gf16", f"n={n} #{i} x={x}", polynomial.eval_poly(gf, coeffs, x)
    for n in (1, 2, 3, 13, 24):
        for i in range(6):
            xs = rng.sample(range(1 << 16), n)
            if i % 2:
                xs[rng.randrange(n)] = 0
            ys = [rng.randrange(1 << 16) if i != 4 else 0 for _ in range(n)]
            points = list(zip(xs, ys))
            yield "lagrange_interpolate gf16", f"n={n} #{i}", _call(
                lambda: polynomial.lagrange_interpolate(gf, points))
    for points in ([(5, 1), (5, 2)], [(0, 1), (7, 2), (0, 3)], [(9, 9), (3, 0), (9, 9)]):
        yield "lagrange_interpolate gf16", f"repeat {points}", _call(
            lambda: polynomial.lagrange_interpolate(gf, points))
    points = [(x, rng.randrange(1 << 16)) for x in [0] + rng.sample(range(1, 1 << 16), 7)]
    for n in (0, 3, 8, 9):
        yield "subset_interpolants gf16", f"n={n}", _call(
            lambda: polynomial.subset_interpolants(gf, points, n))
    for seed in range(5):
        coeffs = identity.encode_identity(rng.getrandbits(128), rng.getrandbits(64))
        for chaff, delta in ((0, 0), (40, 0), (1500, 9)):
            locking = sorted(rng.sample(range(0, 1 << 16, 2 * delta + 1), 16))
            yield "place_points gf16", f"seed {seed} chaff {chaff} delta {delta}", _call(
                lambda: vault.place_points(gf, coeffs, locking, chaff, delta, seed))


def _identity_cases():
    gf = binary_field()
    rng = random.Random(4)
    for i in range(6):
        kappa, ident = rng.getrandbits(128), rng.getrandbits(64)
        coeffs = identity.encode_identity(kappa, ident)
        yield "identity_to_bytes", f"#{i}", identity.identity_to_bytes(coeffs)
        bad = list(coeffs)
        bad[rng.randrange(5)] ^= rng.randrange(1, 1 << 16)
        yield "decode_identity", f"#{i}", (identity.decode_identity(coeffs),
                                           identity.decode_identity(bad))
        locking = rng.sample(range(1 << 16), 18)
        seed = rng.randrange(1 << 32)
        record = identity.IdentityRecord(kappa, ident)
        yield "identity_vault_roundtrip", f"#{i}", identity.identity_vault_roundtrip(
            record, locking, chaff_count=30, seed=seed, unlocking_set=rng.sample(locking, 14))
        # probes that also hit chaff, so the search walks several subsets
        points, mask = vault.place_points(gf, coeffs, locking, 30, 0, seed)
        chaff_xs = [x for (x, _), genuine in zip(points, mask) if not genuine]
        probes = rng.sample(locking, 13 + i % 3) + rng.sample(chaff_xs, 1 + i % 2)
        yield "subset_search gf16", f"#{i}", vault.subset_search(
            gf, vault.nearest_points(points, 0, probes), identity.COEFF_COUNT,
            identity._accept, 200)


def _prime_kernel_cases():
    rng = random.Random(5)
    for field in (PrimeField(23, 5), gen_params(64, 1001), PrimeField(OAKLEY_1024, 5)):
        p = field.p
        for n in (0, 1, 2, 7, 20):
            coeffs = [rng.randrange(p) for _ in range(n)]
            for j, x in enumerate((0, 1, p - 1, p + 3, rng.randrange(3 * p))):
                yield "eval_poly", f"{p.bit_length()}-bit n={n} x #{j}", polynomial.eval_poly(
                    field, coeffs, x)
            points = [(rng.randrange(3 * p), rng.randrange(3 * p)) for _ in range(n)]
            yield "lagrange_interpolate", f"{p.bit_length()}-bit n={n}", _call(
                lambda: polynomial.lagrange_interpolate(field, points))


# subsets a walk case takes: enough to pass a division walk's deepest
# level and an adding walk's longest run more than once
_WALKED = 150


def _walked(walk, *args):
    return _call(lambda: islice(walk(*args), _WALKED))


def _screened(walk, f, points, n, screen):
    """A screened walk's yields, each subset the screen rejects as None
    whether or not the walk screened it: only some walks apply a screen."""
    def normalized():
        for c in walk(f, points, n, screen):
            yield None if c is None or not screen(c[0] if c else 0) else c
    return _walked(normalized)


def _walk_cases():
    rng = random.Random(6)
    tiny = PrimeField(23, 5)
    field = gen_params(64, 1001)
    for f, label in ((tiny, "p=23"), (field, "64-bit")):
        p = f.p
        for m in (0, 1, 3, 6, 9, 12):
            # on p = 23, x values below 3p repeat mod p in most draws
            points = [(rng.randrange(3 * p), rng.randrange(p)) for _ in range(m)]
            for n in sorted({0, 1, 2, m // 2, m, m + 1, max(m - 1, 0)}):
                tag = f"{label} m={m} n={n}"
                yield "subset_interpolants", tag, _walked(polynomial.subset_interpolants, f,
                                                          points, n)
                yield "subset_interpolants screened", tag, _screened(
                    polynomial.subset_interpolants, f, points, n, lambda c0: c0 % 3)
                yield "_adding_walk", tag, _walked(polynomial._adding_walk, f, points, n)
    # the division walk's rule at its edges: k = m - n from 1 to 2n - 2 and
    # _DIVIDE_CAP, x values distinct mod p
    for n in (1, 2, 3, 5, 9):
        for k in sorted({1, 2 * n - 2, 2 * n - 1, 8, 9}):
            if k < 1:
                continue
            xs = _distinct(rng, field.p, n + k)
            points = [(x, rng.randrange(field.p)) for x in xs]
            tag = f"64-bit n={n} k={k}"
            yield "subset_interpolants", tag, _walked(polynomial.subset_interpolants, field,
                                                      points, n)
            yield "subset_interpolants screened", tag, _screened(
                polynomial.subset_interpolants, field, points, n, lambda c0: c0 % 5 == 0)
            if k <= 2 * n - 2:
                yield "_dividing_walk", tag, _walked(polynomial._dividing_walk, field, points, n)
                yield "_dividing_walk screened", tag, _screened(
                    polynomial._dividing_walk, field, points, n, lambda c0: c0 % 2)


def _rs_decode_cases():
    rng = random.Random(7)
    for field in (gen_params(64, 1001), PrimeField(OAKLEY_1024, 5)):
        p = field.p
        for n, m in ((1, 1), (2, 7), (5, 15), (13, 40)):
            coeffs = [rng.randrange(p) for _ in range(n)]
            xs = _distinct(rng, p, m)
            radius = (m - n) // 2
            for errors in sorted({0, radius, radius + 1, m - n}):
                points = [(x, polynomial.eval_poly(field, coeffs, x)) for x in xs]
                for i in rng.sample(range(m), min(errors, m)):
                    points[i] = (points[i][0], (points[i][1] + 1 + rng.randrange(p - 1)) % p)
                yield "rs_decode", f"{p.bit_length()}-bit n={n} m={m} e={errors}", \
                    polynomial.rs_decode(field, points, n)
        # fewer points than coefficients, and x values equal mod p
        yield "rs_decode", f"{p.bit_length()}-bit short", polynomial.rs_decode(field, [(1, 1)], 2)
        yield "rs_decode", f"{p.bit_length()}-bit repeat", polynomial.rs_decode(
            field, [(1, 1), (1 + p, 2), (3, 3)], 1)


def _attack_cases():
    for bits, seed in ((8, 1), (10, 2), (12, 3)):
        f = gen_params(bits, seed)
        yield "solve_dlog_bsgs", f"{bits}-bit exhaustive", _call(
            lambda: [attacks.solve_dlog_bsgs(t, f) for t in range(1, f.p)])
    f32 = gen_params(32, 1004)
    rng = random.Random(8)
    for k in [0, 1, f32.p - 2] + [rng.randrange(f32.p - 1) for _ in range(5)]:
        yield "solve_dlog_bsgs", f"32-bit k={k}", _call(
            lambda: attacks.solve_dlog_bsgs(pow(f32.alpha, k, f32.p), f32))
    for r, t, n, trials, seed in ((10, 5, 2, 2000, 1), (100, 40, 3, 3000, 2), (30, 30, 7, 500, 3),
                                  (2000, 100, 1, 1500, 4), (64, 20, 5, 4000, 5), (5, 3, 0, 10, 6)):
        yield "monte_carlo_rate", f"{r},{t},{n},{trials},{seed}", attacks.monte_carlo_rate(
            r, t, n, trials, seed)
    for bits in (5, 6, 8, 13, 16, 24, 40):
        for seed in range(3):
            f = gen_params(bits, seed)
            yield "gen_params", f"{bits}-bit seed {seed}", (f.p, f.alpha)


def corpus():
    """(function, call label, result) for every case, in a fixed order."""
    for cases in (_lock_cases, _decoder_cases, _brute_force_cases, _gf16_cases, _identity_cases,
                  _prime_kernel_cases, _walk_cases, _rs_decode_cases, _attack_cases):
        for name, label, value in cases():
            yield name, label, _digest(value)


def _collect():
    digests, labels = {}, {}
    for name, label, digest in corpus():
        digests.setdefault(name, []).append(digest)
        labels.setdefault(name, []).append(label)
    return digests, labels


def _mismatches(expected, digests, labels):
    """One line per function whose digests differ, at its first differing call."""
    lines = []
    for name in sorted(set(expected) | set(digests)):
        want, got = expected.get(name, []), digests.get(name, [])
        if want == got:
            continue
        i = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
        where = labels[name][i] if i < len(got) else "past the end"
        lines.append(f"{name}: call {i} ({where}) differs; {len(want)} calls expected, "
                     f"{len(got)} made")
    return lines


def test_the_seeded_corpus_is_unchanged():
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    mismatches = _mismatches(expected, *_collect())
    assert not mismatches, "\n".join(mismatches)


def test_a_mismatch_names_the_function_and_its_first_differing_call():
    expected = {"f": ["a", "b", "c"], "g": ["d"], "h": ["e"]}
    digests = {"f": ["a", "x", "y"], "g": ["d"], "h": []}
    labels = {"f": ["one", "two", "three"], "g": ["four"], "h": []}
    assert _mismatches(expected, digests, labels) == [
        "f: call 1 (two) differs; 3 calls expected, 3 made",
        "h: call 0 (past the end) differs; 1 calls expected, 0 made"]


if __name__ == "__main__":
    found, found_labels = _collect()
    if sys.argv[1:] == ["--write"]:
        CORPUS.write_text(json.dumps(found, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, found.values()))} digests to {CORPUS}")
    else:
        problems = _mismatches(json.loads(CORPUS.read_text(encoding="utf-8")), found, found_labels)
        print("\n".join(problems) or "corpus unchanged")
        sys.exit(1 if problems else 0)
