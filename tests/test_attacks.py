import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import sample_distinct, spaced_set, with_framed_len
from dlfvault import attacks
from dlfvault.attacks import (
    CSV_HEADER,
    attack_report,
    brute_force_unlock_attack,
    exact_success_prob,
    monte_carlo_rate,
    published_point_ratio,
    published_poly_prob,
    solve_dlog_bsgs,
    sweep_csv,
    _giant_steps,
    _Lanes,
)
from dlfvault.dlog_codec import KeyFile, encode_message, message_decoder
from dlfvault.errors import BadArguments, KeyKindMismatch, MalformedFile, NotInGroup
from dlfvault.field import PrimeField, gen_params
from dlfvault.framing import frame
from dlfvault.polynomial import eval_poly, lagrange_interpolate
from dlfvault.vault import Scheme, Vault, lock, subset_search


def test_published_formulas_worked_values():
    assert published_point_ratio(10, 5) == 2.0
    assert published_poly_prob(10, 5, 3) == 8.0
    assert published_poly_prob(10, 5, 0) == 1.0
    assert published_point_ratio(100, 1) == 100 / 99
    with pytest.raises(ZeroDivisionError):
        published_point_ratio(10, 10)
    with pytest.raises(ZeroDivisionError):
        published_poly_prob(10, 10, 2)


def test_exact_prob_worked_value():
    assert exact_success_prob(10, 5, 3) == Fraction(1, 12)
    assert exact_success_prob(10, 5, 0) == 1
    assert exact_success_prob(10, 10, 4) == 1


def test_exact_prob_matches_enumeration_oracle():
    # independent route: literally count all-genuine subsets
    rng = random.Random(70)
    for _ in range(25):
        r = rng.randrange(2, 12)
        t = rng.randrange(0, r + 1)
        n = rng.randrange(0, t + 1)
        hits = sum(1 for combo in itertools.combinations(range(r), n)
                   if all(i < t for i in combo))
        assert exact_success_prob(r, t, n) == Fraction(hits, math.comb(r, n))


def test_exact_prob_validates():
    with pytest.raises(BadArguments):
        exact_success_prob(10, 5, 6)
    with pytest.raises(BadArguments):
        exact_success_prob(10, 11, 2)
    with pytest.raises(BadArguments):
        exact_success_prob(10, 5, -1)


def test_sample_distinct_is_uniform_shaped_and_pure():
    for trial in range(50):
        sample = list(sample_distinct(seed=9, trial=trial, n=4, r=12))
        assert len(set(sample)) == 4
        assert all(0 <= x < 12 for x in sample)
        assert sample == list(sample_distinct(seed=9, trial=trial, n=4, r=12))
    assert (list(sample_distinct(seed=9, trial=0, n=4, r=12))
            != list(sample_distinct(seed=10, trial=0, n=4, r=12))
            or list(sample_distinct(seed=9, trial=1, n=4, r=12))
            != list(sample_distinct(seed=10, trial=1, n=4, r=12)))


def test_splitmix64_lanes_equals_the_scalar_draws():
    # the lane kernel against scalar splitmix64, lane by lane: the last two
    # states wrap past 2^64 partway through a block, and the counts cover
    # one lane, a partial block and a full one
    mask = (1 << 64) - 1
    for z in (0, 12345, 0x0123456789ABCDEF, mask - (100 << 16), mask):
        for count in (1, attacks._LANES - 1, attacks._LANES):
            assert attacks._splitmix64_lanes(z, count) == [
                attacks._splitmix64((z + (i << 16)) & mask) for i in range(count)]


def test_monte_carlo_agrees_with_exact():
    exact = float(exact_success_prob(10, 5, 3))
    rate, stderr = monte_carlo_rate(10, 5, 3, trials=50_000, seed=1)
    assert stderr > 0
    assert abs(rate - exact) <= 3 * stderr


def test_monte_carlo_deterministic():
    a = monte_carlo_rate(12, 6, 3, trials=5000, seed=42)
    b = monte_carlo_rate(12, 6, 3, trials=5000, seed=42)
    assert a == b
    c = monte_carlo_rate(12, 6, 3, trials=5000, seed=43)
    assert a != c


def test_monte_carlo_stream_is_pinned():
    # exact success counts of the seeded draw stream; a change to the
    # draws, their order or the verdict moves at least one of them
    pinned = [
        ((12, 6, 3, 5000, 42), 471),
        ((10, 5, 3, 50000, 1), 4165),
        ((20, 10, 4, 20000, 5), 913),
        ((100, 60, 2, 20000, 9), 7018),
        ((7, 7, 7, 100, 1), 100),
        ((9, 4, 0, 10, 2), 10),
        # r - n < t: a collision's fallback x = j can still be genuine
        ((10, 8, 5, 20000, 3), 4419),
        # attack-analysis's shapes, where most trials end at their first
        # draw; at this trial count they succeed in none
        ((30, 10, 8, 10000, 11), 0),
        ((40, 10, 8, 10000, 11), 0),
        ((50, 10, 8, 10000, 11), 0),
        # most trials end at the first draw here too, but not all fail
        ((30, 10, 2, 10000, 11), 1051),
        ((40, 10, 3, 10000, 11), 109),
        # trial counts off a block boundary, n at the edges of the two
        # block-drawn steps, and seeds of 2^64 and above
        ((40, 10, 3, 200001, 2**64 - 1), 2437),
        ((30, 10, 2, 200001, 2**64 - 1), 20471),
        ((12, 10, 8, 513, 2**80 - 1), 45),
        ((30, 10, 1, 1000, 2**64), 305),
    ]
    for (r, t, n, trials, seed), successes in pinned:
        rate, _ = monte_carlo_rate(r, t, n, trials, seed)
        assert rate == successes / trials


def test_monte_carlo_counts_what_the_reference_sampler_counts():
    # monte_carlo_rate's flat trial loop against Floyd's sampler in full:
    # r - n < t makes the collision fallback x = j genuine, n = 0 and
    # n = t = r are the edges, n = 1 and 2 end within the block-drawn
    # steps, and the stream masks seeds of 2^64 and up
    grid = [(10, 8, 5), (6, 5, 4), (12, 11, 9), (9, 4, 0), (7, 7, 7), (12, 6, 3),
            (30, 10, 8), (5, 0, 0), (1, 1, 1), (8, 4, 1), (9, 5, 2)]
    # two full blocks of trials and a partial one
    trials = 2 * attacks._LANES + 1
    for r, t, n in grid:
        for seed in (0, 3, (1 << 64) + 3, (1 << 80) - 1):
            expected = sum(all(x < t for x in sample_distinct(seed, trial, n, r))
                           for trial in range(trials))
            assert monte_carlo_rate(r, t, n, trials, seed)[0] == expected / trials


def test_monte_carlo_certain_cases():
    rate, _ = monte_carlo_rate(10, 10, 3, trials=1000, seed=2)
    assert rate == 1.0
    rate, _ = monte_carlo_rate(10, 5, 0, trials=1000, seed=3)
    assert rate == 1.0


def test_monte_carlo_validates():
    with pytest.raises(BadArguments):
        monte_carlo_rate(10, 5, 6, trials=10, seed=0)
    with pytest.raises(BadArguments):
        monte_carlo_rate(10, 5, 3, trials=0, seed=0)


def test_monte_carlo_rejects_a_subset_size_beyond_the_draw_budget(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(attacks, "_splitmix64", no_trial)
    monkeypatch.setattr(attacks, "_splitmix64_lanes", no_trial)
    with pytest.raises(BadArguments):
        monte_carlo_rate(1 << 16, 1 << 16, 1 << 16, 1, 0)


def test_attack_report_fields_and_notes():
    rep = attack_report(10, 5, 3, trials=2000, seed=1)
    assert rep.published_poly_prob == 8.0
    assert rep.exact_prob == Fraction(1, 12)
    assert any("exceeds 1" in note for note in rep.notes)
    text = rep.to_text()
    assert "paper_eq30=8.0" in text
    assert "exact=1/12" in text
    assert "trials=2000" in text

    quiet = attack_report(5, 0, 0, trials=100, seed=1)
    assert quiet.notes == []

    # no success is reported with the rule-of-three bound, not as 0 +- 0
    rare = attack_report(50, 10, 8, trials=10000, seed=1)
    assert rare.empirical_rate == 0.0 and rare.empirical_stderr == 0.0
    assert ("empirical rate 0 is no success in 10000 trials; 95% upper bound 0.0003 "
            "(rule of three)") in rare.notes
    assert "note=empirical rate 0 is no success in 10000 trials" in rare.to_text()
    assert rare.to_csv_row().endswith(f",{rare.exact_prob},0.0,0.0,10000")
    with pytest.raises(BadArguments):
        attack_report(10, 10, 3, trials=100, seed=1)


def test_paper_eq30_too_large_for_a_float_reads_inf():
    # (1001 / 1) ** 1000 overflows a float; the report still runs every route
    assert published_poly_prob(1001, 1000, 1000) == math.inf
    rep = attack_report(1001, 1000, 1000, trials=1, seed=1)
    assert rep.published_poly_prob == math.inf
    assert rep.exact_prob == Fraction(1, 1001)
    assert rep.empirical_rate == 0.0
    assert any(note.startswith("paper_eq30 inf exceeds 1") for note in rep.notes)
    assert "paper_eq30=inf\n" in rep.to_text()
    assert rep.to_csv_row() == "1001,1000,1000,inf,1/1001,0.0,0.0,1"


def test_csv_layout():
    reports = [attack_report(r, 5, 3, trials=500, seed=4) for r in (10, 12)]
    text = sweep_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "r,t,n,paper_eq30,exact,empirical,stderr,trials"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 8
    assert text.endswith("\n")


def test_brute_force_classical_vault_opens_without_key(params64):
    rng = random.Random(71)
    msg = b"weak"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n, delta=0)
    vault, _ = lock(msg, A, Scheme.CLASSICAL, params64, chaff_count=2,
                    seed=72, seg_bits=16)
    result = brute_force_unlock_attack(vault)
    assert result.succeeded
    assert result.message == msg
    assert result.subsets_tried <= math.comb(n + 2, n)


def test_brute_force_dlog_vault_needs_key(params64):
    rng = random.Random(73)
    msg = b"strong"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n, delta=0)
    vault, key_file = lock(msg, A, Scheme.PER_SEGMENT, params64, chaff_count=2,
                           seed=74, seg_bits=16)
    blind = brute_force_unlock_attack(vault)
    assert not blind.succeeded
    assert blind.subsets_tried == math.comb(n + 2, n)  # exhausted
    keyed = brute_force_unlock_attack(vault, key_file)
    assert keyed.succeeded and keyed.message == msg
    # another lock's key rejects this vault's polynomial, so the walk
    # runs its whole budget
    _, other_key = lock(msg, A, Scheme.PER_SEGMENT, params64, chaff_count=2,
                        seed=85, seg_bits=16)
    wrong = brute_force_unlock_attack(vault, other_key, max_subsets=100)
    assert (wrong.succeeded, wrong.subsets_tried) == (False, 100)


@pytest.mark.parametrize("scheme", [Scheme.PER_SEGMENT, Scheme.PARITY])
def test_a_screened_brute_force_opens_at_the_unscreened_subset(params64, scheme):
    # three chaff x values below the twelve genuine ones, so the genuine
    # subset is the last of C(15, 12) = 455
    rng = random.Random(83)
    coeffs, key_file = encode_message(params64, scheme, b"", 16, seed=84)
    genuine = [(x, eval_poly(params64, coeffs, x)) for x in range(100, 100 + len(coeffs))]
    chaff = [(x, rng.randrange(params64.p)) for x in (1, 2, 3)]
    low = (Vault(params64, scheme, len(coeffs), 16, 0, chaff + genuine), key_file, coeffs, 455)
    # twelve set values over the top of the benchmark's 64-bit field, among
    # which lock places the chaff so that the genuine subset is the 378th
    # and each one before it holds chaff; the screen rejects those from
    # their constant coefficient, unmasked by segment 1's inverse mask,
    # which under parity is kappa_odd's
    f = gen_params(64, seed=42)
    vault, key_file = lock(b"", [f.p - 1 - i * (f.p // 40) for i in range(12)], scheme, f,
                           chaff_count=3, seed=3, seg_bits=16)
    genuine = [pt for pt, is_genuine in zip(vault.points, vault.genuine_mask) if is_genuine]
    top = (vault, key_file, lagrange_interpolate(f, genuine), 378)
    for vault, key_file, coeffs, genuine_at in (low, top):
        result = brute_force_unlock_attack(vault, key_file)
        assert (result.succeeded, result.message, result.subsets_tried) == (True, b"", genuine_at)
        # keyless, the walk fails on all 455 subsets, or on as many as its cap allows
        blind, capped = brute_force_unlock_attack(vault), brute_force_unlock_attack(vault, max_subsets=100)
        assert (blind.succeeded, blind.subsets_tried, capped.subsets_tried) == (False, 455, 100)
        decode, screen = message_decoder(vault, key_file)
        decoded = []

        def counted(c):
            decoded.append(c)
            return decode(c)

        points = sorted(vault.points)
        assert subset_search(vault.params, points, len(coeffs), decode, 1000) == (b"", genuine_at)
        # the screen leaves decode only the genuine subset
        assert subset_search(vault.params, points, len(coeffs), counted, 1000, screen) == (b"", genuine_at)
        assert decoded == [coeffs]


def test_brute_force_rejects_a_key_of_the_wrong_kind(params64):
    # a parity key against a per-segment vault used to spend the whole
    # budget and report failure, as if the vault had resisted the attack
    rng = random.Random(77)
    n = len(frame(b"kind", 16)) // 2
    A = spaced_set(rng, params64.p, n, delta=0)
    vault, _ = lock(b"kind", A, Scheme.PER_SEGMENT, params64, chaff_count=4,
                    seed=78, seg_bits=16)
    _, parity_key = lock(b"kind", A, Scheme.PARITY, params64, seed=79, seg_bits=16)
    with pytest.raises(KeyKindMismatch):
        brute_force_unlock_attack(vault, parity_key, max_subsets=200)


def test_brute_force_rejects_a_frame_length_lock_never_writes(params256):
    rng = random.Random(79)
    A = spaced_set(rng, params256.p, 18, delta=0)
    vault, key_file = lock(b"len", A, Scheme.WHOLE_MESSAGE, params256, chaff_count=2,
                           seed=80, seg_bits=16)
    for framed_len in (0, 60000):
        blob = with_framed_len(key_file.to_bytes(), framed_len)
        with pytest.raises(MalformedFile):
            brute_force_unlock_attack(vault, KeyFile.from_bytes(blob), max_subsets=2000)


def test_brute_force_rejects_a_negative_budget(params64):
    rng = random.Random(81)
    A = spaced_set(rng, params64.p, 14, delta=0)
    vault, key_file = lock(b"", A, Scheme.PARITY, params64, chaff_count=2,
                           seed=82, seg_bits=16)
    for key in (None, key_file):
        with pytest.raises(ValueError) as exc_info:
            brute_force_unlock_attack(vault, key, max_subsets=-1)
        assert type(exc_info.value) is ValueError


def test_brute_force_respects_cap(params64):
    rng = random.Random(75)
    msg = b"capped"
    n = len(frame(msg, 16)) // 2
    A = spaced_set(rng, params64.p, n, delta=0)
    vault, _ = lock(msg, A, Scheme.PARITY, params64, chaff_count=6,
                    seed=76, seg_bits=16)
    result = brute_force_unlock_attack(vault, max_subsets=10)
    assert not result.succeeded
    assert result.subsets_tried == 10


def test_bsgs_exhaustive_tiny_field():
    # every k in [0, p - 1): both parities, k = q (target p - 1), and
    # targets given as target + p; p = 5 has an even q
    fields = [PrimeField(5, 2), PrimeField(7, 3), PrimeField(23, 5), PrimeField(47, 5)]
    fields += [gen_params(bits, seed=81) for bits in (8, 11, 14)]
    for f in fields:
        assert solve_dlog_bsgs(f.p - 1, f) == f.p // 2
        for k in range(f.p - 1):
            target = pow(f.alpha, k, f.p)
            assert solve_dlog_bsgs(target, f) == k
            assert solve_dlog_bsgs(target + f.p, f) == k


def test_bsgs_table_spans_the_subgroup_of_squares(params32):
    # m + 1 giant steps 4^(m*i), m = isqrt(q - 1) + 1, all distinct since
    # m < q; at most _LANES lanes, none of them wholly past j = m - 1;
    # 4^c = alpha^2 for c = 1 / c_inv
    p, alpha = params32.p, params32.alpha
    q = p // 2
    steps = _giant_steps(p, alpha)
    m = steps.m
    assert m == math.isqrt(q - 1) + 1 and m * m >= q
    assert len(steps.table) == m + 1
    assert steps.table[1] == 0 and steps.table[pow(4, m, p)] == 1
    assert steps.table[pow(4, m * m, p)] == m
    count = steps.lanes.count
    assert count <= attacks._LANES
    assert (count - 1) * steps.blocks < m <= count * steps.blocks
    assert steps.starts == [pow(4, i * steps.blocks, p) for i in range(count)]
    assert pow(4, pow(steps.c_inv, -1, q), p) == alpha * alpha % p


def test_bsgs_random_exponents_medium_field():
    f = gen_params(24, seed=77)
    rng = random.Random(78)
    for _ in range(20):
        k = rng.randrange(f.p - 1)
        assert solve_dlog_bsgs(pow(f.alpha, k, f.p), f) == k
    # at 36 bits the lanes hold values of up to 39 bits
    f = gen_params(36, seed=36)
    k = 123456789012 % (f.p - 1)
    assert solve_dlog_bsgs(pow(f.alpha, k, f.p), f) == k


def test_lane_step_multiplies_every_lane_by_4(params32):
    # (1 << 40) - 437 is the largest safe prime below 2^40, the solver's bound
    for p in (5, params32.p, (1 << 40) - 437):
        lanes = _Lanes(4, p)
        values = [0, 1, p - 1, p // 4]
        x = lanes.pack(values)
        assert lanes.unpack(x).tolist() == values
        for _ in range(3):
            values = [4 * v % p for v in values]
            x = lanes.times4(x)
            assert lanes.unpack(x).tolist() == values


def _lane_edge_ks(f):
    """Both k, one of each parity, whose walk first meets a giant step at
    each lane edge: baby step j = i*blocks + b in lane 0 of block 0 and
    of the last block, in the last lane of block 0, and at j = m - 1,
    which lies in the last lane. The last lane's last block, j =
    count*blocks - 1, is j = m - 1 or past it; past it, every gamma*4^j
    that is a giant step has a match at j - m, one block or more before
    it, so no walk ends there."""
    steps = _giant_steps(f.p, f.alpha)
    m, q, blocks, count = steps.m, f.p // 2, steps.blocks, steps.lanes.count
    giants = {m * i % q for i in range(m + 1)}

    def first_hit(x):
        # the walk's order: blocks in turn, lanes in turn within a block
        return next(i * blocks + b for b in range(blocks) for i in range(count)
                    if (x + i * blocks + b) % q in giants)

    ks = []
    for j in (0, blocks - 1, (count - 1) * blocks, m - 1):
        x = next(x for x in ((m * idx - j) % q for idx in range(m // 2, m + 1))
                 if first_hit(x) == j)
        e = x * steps.c_inv % q
        assert pow(f.alpha, 2 * e, f.p) == pow(4, x, f.p)
        ks += [2 * e, 2 * e + 1]
    return ks


def test_bsgs_hits_at_the_lane_edges(params32):
    # m is 44,932 over 88 blocks at 32 bits, 40,581 over 80 blocks in the
    # benchmark's 32-bit field and 2,840 over 6 blocks at 24, none a
    # multiple of _LANES; at 14 bits m = 88 lanes of one block. Each field
    # also solves k = 0, 1, q and q + 1 (the order-q subgroup's edges in both
    # parities), p - 2 and one k inside
    for f in (params32, gen_params(32, seed=42), gen_params(24, seed=77), gen_params(14, seed=81)):
        steps = _giant_steps(f.p, f.alpha)
        assert steps.m < attacks._LANES or steps.m % attacks._LANES
        q = f.p // 2
        for k in _lane_edge_ks(f) + [0, 1, q, q + 1, f.p - 2, 123456789 % (f.p - 1)]:
            assert solve_dlog_bsgs(pow(f.alpha, k, f.p), f) == k


def test_bsgs_reuses_one_table_per_field(params32):
    # alternating fields rebuilds the table each time, so a stale table
    # would answer some solve with a wrong k
    fields = [PrimeField(23, 5), gen_params(24, seed=77), params32]
    rng = random.Random(80)
    for f in fields * 2:
        k = rng.randrange(f.p - 1)
        assert solve_dlog_bsgs(pow(f.alpha, k, f.p), f) == k
    misses = _giant_steps.cache_info().misses
    k = rng.randrange(params32.p - 1)
    assert solve_dlog_bsgs(pow(params32.alpha, k, params32.p), params32) == k
    # a field equal to the cached one, built anew as a params load does
    same = PrimeField(params32.p, params32.alpha)
    assert solve_dlog_bsgs(params32.alpha, same) == 1
    assert _giant_steps.cache_info().misses == misses


def test_bsgs_not_in_group():
    _giant_steps.cache_clear()
    with pytest.raises(NotInGroup):
        solve_dlog_bsgs(0, PrimeField(23, 5))
    assert _giant_steps.cache_info().misses == 0


def test_bsgs_reports_a_table_without_a_match_as_a_fault():
    # unreachable in a certified field: NotInGroup stays for target 0 alone
    steps = attacks._GiantSteps(23, 5)
    steps.table = {}
    with pytest.raises(RuntimeError):
        steps.log4(1)


def test_bsgs_rejects_huge_p():
    f = gen_params(41, seed=79)
    _giant_steps.cache_clear()
    with pytest.raises(BadArguments):
        solve_dlog_bsgs(1, f)
    assert _giant_steps.cache_info().misses == 0
