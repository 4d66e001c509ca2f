import math
import random
from itertools import combinations, islice

import pytest

from dlfvault import field as field_module, polynomial
from dlfvault.errors import BadLength, ZeroInverse
from dlfvault.field import PrimeField, binary_field, gen_params
from dlfvault.polynomial import (
    CRC16_GENERATOR,
    crc16_remainder,
    eval_poly,
    lagrange_interpolate,
    rs_decode,
    subset_interpolants,
)
from dlfvault.vault import subset_search
from helpers import (OAKLEY_1024, GF16Methods, PowCounter, crc16_bitwise, method_eval_poly,
                     method_field, method_interpolate)


def test_eval_worked_example():
    f = PrimeField(23, 5)
    # 3 + x + 4x^2 at x = 2: 3 + 2 + 16 = 21
    assert eval_poly(f, [3, 1, 4], 2) == 21
    assert eval_poly(f, [3, 1, 4], 0) == 3
    assert eval_poly(f, [], 7) == 0
    assert eval_poly(f, [9], 7) == 9


def test_interpolate_worked_example():
    f = PrimeField(23, 5)
    coeffs = [3, 1, 4]
    points = [(x, eval_poly(f, coeffs, x)) for x in (0, 1, 2)]
    assert lagrange_interpolate(f, points) == coeffs


def test_interpolate_roundtrip_prime_field(params64):
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(1, 13)
        coeffs = [rng.randrange(params64.p) for _ in range(n)]
        xs = rng.sample(range(1, 10_000_000), n)
        points = [(x, eval_poly(params64, coeffs, x)) for x in xs]
        assert lagrange_interpolate(params64, points) == coeffs


def test_interpolate_roundtrip_gf16():
    gf = binary_field()
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 14)
        coeffs = [rng.randrange(1 << 16) for _ in range(n)]
        xs = rng.sample(range(1 << 16), n)
        points = [(x, eval_poly(gf, coeffs, x)) for x in xs]
        assert lagrange_interpolate(gf, points) == coeffs


def test_interpolate_predicts_fresh_evaluations(params64):
    # independent route: the recovered polynomial must agree with the
    # original at points that never entered the interpolation
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(1, 10)
        coeffs = [rng.randrange(params64.p) for _ in range(n)]
        xs = list({rng.randrange(params64.p) for _ in range(40)})[:n + 5]
        points = [(x, eval_poly(params64, coeffs, x)) for x in xs]
        recovered = lagrange_interpolate(params64, points[:n])
        for x, y in points[n:]:
            assert eval_poly(params64, recovered, x) == y


def test_interpolate_leading_zero_coeffs(params64):
    # length is the contract, not degree
    coeffs = [5, 0, 0]
    points = [(x, eval_poly(params64, coeffs, x)) for x in (1, 2, 3)]
    assert lagrange_interpolate(params64, points) == coeffs


def test_interpolate_duplicate_x(params64):
    with pytest.raises(ZeroInverse):
        lagrange_interpolate(params64, [(1, 1), (1, 5), (2, 2)])


def test_interpolate_duplicate_x_over_gf16_raise_zero_inverse():
    # points are added in Newton's form: once x = 5 is in, the master of the
    # points so far has the factor X + 5, which vanishes at the second x = 5,
    # whether that comes next or past another point
    for points in ([(5, 1), (5, 2)], [(5, 1), (7, 2), (5, 3)]):
        with pytest.raises(ZeroInverse):
            lagrange_interpolate(binary_field(), points)


def test_eval_is_linear_in_coefficients(params64):
    rng = random.Random(13)
    f = params64
    for _ in range(100):
        n = rng.randrange(1, 8)
        a = [rng.randrange(f.p) for _ in range(n)]
        b = [rng.randrange(f.p) for _ in range(n)]
        s = [(x + y) % f.p for x, y in zip(a, b)]
        x = rng.randrange(f.p)
        assert eval_poly(f, s, x) == (eval_poly(f, a, x) + eval_poly(f, b, x)) % f.p


def distinct_residues(rng, p, n):
    """n distinct values in [0, p), in the order drawn."""
    xs = {}
    while len(xs) < n:
        xs[rng.randrange(p)] = None
    return list(xs)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_prime_field_kernels_equal_the_field_method_path(bits, params64, params256):
    f = {64: params64, 256: params256, 1024: PrimeField(OAKLEY_1024, 5)}[bits]
    reference = method_field(f)
    rng = random.Random(bits)
    for n in range(1, 41):
        # leading zeros: the top coefficients of some lists are 0
        zeros = rng.randrange(min(n, 3))
        coeffs = [rng.randrange(f.p) for _ in range(n - zeros)] + [0] * zeros
        # x values distinct mod p, some lifted to p or above
        xs = [x + f.p * rng.randrange(3) for x in distinct_residues(rng, f.p, n)]
        # y values below p, and up to 3p
        for bound in (f.p, 3 * f.p):
            points = [(x, rng.randrange(bound)) for x in xs]
            assert lagrange_interpolate(f, points) == method_interpolate(reference, points)
        on_poly = [(x, eval_poly(f, coeffs, x)) for x in xs]
        assert on_poly == [(x, method_eval_poly(reference, coeffs, x)) for x in xs]
        assert lagrange_interpolate(f, on_poly) == coeffs


def test_gf16_kernels_equal_the_field_method_path():
    gf, reference = binary_field(), GF16Methods()
    rng = random.Random(18)
    for n in range(0, 41):
        # zero coefficients anywhere, the top ones included
        coeffs = [rng.randrange(1 << 16) if rng.randrange(4) else 0 for _ in range(n)]
        for x in (0, 1, 0xFFFF, rng.randrange(1 << 16)):
            assert eval_poly(gf, coeffs, x) == method_eval_poly(reference, coeffs, x)
        # x = 0 among the points, and y values that are 0
        xs = rng.sample(range(1 << 16), n)
        if n and rng.randrange(2):
            xs[rng.randrange(n)] = 0
        points = [(x, rng.randrange(1 << 16) if rng.randrange(3) else 0) for x in xs]
        assert lagrange_interpolate(gf, points) == method_interpolate(reference, points)
        on_poly = [(x, eval_poly(gf, coeffs, x)) for x in xs]
        assert lagrange_interpolate(gf, on_poly) == coeffs
    for points in ([(5, 1), (5, 2)], [(0, 1), (7, 2), (0, 3)]):
        with pytest.raises(ZeroInverse):
            lagrange_interpolate(gf, points)
        with pytest.raises(ZeroInverse):
            method_interpolate(reference, points)


@pytest.mark.parametrize("x", [-1, 1 << 16, -(1 << 16), 1 << 80])
def test_gf16_kernels_refuse_an_x_outside_the_field(x):
    # the tables would read log[-1] = log[65535], or past their end
    gf = binary_field()
    with pytest.raises(ValueError, match=r"GF\(2\^16\) element"):
        eval_poly(gf, [0, 1], x)
    with pytest.raises(ValueError, match=r"GF\(2\^16\) element"):
        lagrange_interpolate(gf, [(3, 4), (x, 1)])
    with pytest.raises(ValueError, match=r"GF\(2\^16\) element"):
        lagrange_interpolate(gf, [(3, 4), (1, x)])


def test_prime_field_kernels_reduce_any_int_x(params64):
    p = params64.p
    coeffs = [3, 1, 4, 1, 5]
    for x in (-1, -p - 2, p, 5 * p + 7, 1 << 200):
        assert eval_poly(params64, coeffs, x) == eval_poly(params64, coeffs, x % p)


def test_prime_field_interpolation_computes_one_inverse(params256, monkeypatch):
    counter = PowCounter()
    monkeypatch.setattr(polynomial, "pow", counter, raising=False)
    monkeypatch.setattr(field_module, "pow", counter, raising=False)
    rng = random.Random(17)
    inverses = []
    for n in (1, 2, 12, 40):
        points = [(x, rng.randrange(params256.p)) for x in distinct_residues(rng, params256.p, n)]
        before = counter.inverses
        lagrange_interpolate(params256, points)
        inverses.append(counter.inverses - before)
    assert inverses == [1, 1, 1, 1]
    assert counter.powers == 0


def test_interpolate_x_values_equal_mod_p_raise_zero_inverse():
    with pytest.raises(ZeroInverse):
        lagrange_interpolate(PrimeField(23, 5), [(1, 1), (24, 2)])


def _with_errors(rng, p, points, positions):
    """points with the y value at each position moved off its polynomial."""
    out = list(points)
    for i in positions:
        x, y = out[i]
        out[i] = (x, (y + 1 + rng.randrange(p - 1)) % p)
    return out


@pytest.mark.parametrize("bits", [64, 256])
def test_rs_decode_corrects_errors_up_to_the_radius(bits, params64, params256):
    f = {64: params64, 256: params256}[bits]
    rng = random.Random(18 + bits)
    for n in range(1, 13):
        for m in range(n, n + 21):
            coeffs = [rng.randrange(f.p) for _ in range(n)]
            points = [(x, eval_poly(f, coeffs, x)) for x in sorted(distinct_residues(rng, f.p, m))]
            radius = (m - n) // 2
            assert rs_decode(f, points, n) == lagrange_interpolate(f, points[:n]) == coeffs
            if radius:
                # radius errors past the first n sorted x values, then radius
                # errors one of which is among them
                late = rng.sample(range(n, m), radius)
                first = rng.randrange(n)
                anywhere = [first] + rng.sample([i for i in range(m) if i != first], radius - 1)
                for errors in (late, anywhere):
                    decoded = rs_decode(f, _with_errors(rng, f.p, points, errors), n)
                    assert decoded == coeffs, (n, m, sorted(errors))
            # one error past the radius: None, or a polynomial that still
            # agrees with at least ceil((m + n) / 2) points
            beyond = _with_errors(rng, f.p, points, rng.sample(range(m), radius + 1))
            decoded = rs_decode(f, beyond, n)
            if decoded is not None:
                assert len(decoded) == n
                assert sum(eval_poly(f, decoded, x) == y for x, y in beyond) >= -(-(m + n) // 2)


def test_rs_decode_refuses_too_few_points_and_x_values_equal_mod_p():
    f = PrimeField(23, 5)
    assert rs_decode(f, [(1, 1), (2, 2)], 3) is None
    assert rs_decode(f, [(1, 1), (24, 2), (3, 3)], 1) is None


def _decode_by_every_subset(f, points, n):
    """The reference decoder: the first n-subset interpolant, in
    itertools.combinations order, that agrees with at least
    ceil((m + n) / 2) of the m points, or None."""
    need = -(-(len(points) + n) // 2)
    for subset in combinations(points, n):
        coeffs = lagrange_interpolate(f, list(subset))
        if sum(eval_poly(f, coeffs, x) == y % f.p for x, y in points) >= need:
            return coeffs
    return None


@pytest.mark.parametrize("bits", [5, 6, 8, 12])
def test_rs_decode_equals_an_exhaustive_search_of_every_n_subset(bits):
    # at these sizes errors past the radius often leave some other
    # polynomial within reach, which the decoder must return too
    f = gen_params(bits, seed=2000 + bits)
    rng = random.Random(40 + bits)
    outcomes = set()
    for n in range(5):
        for m in range(n, n + 9):
            for _ in range(2):
                coeffs = [rng.randrange(f.p) for _ in range(n)]
                # x values distinct mod p, some lifted by multiples of p,
                # and y values up to 2p
                xs = [x + f.p * rng.randrange(3) for x in distinct_residues(rng, f.p, m)]
                points = [(x, eval_poly(f, coeffs, x) + f.p * rng.randrange(2)) for x in xs]
                radius = (m - n) // 2
                placements = [
                    rng.sample(range(n), min(radius, n)),  # among the first n
                    rng.sample(range(n, m), radius),  # after them
                    rng.sample(range(m), radius),  # anywhere
                    rng.sample(range(m), min(radius + 1, m)),  # past the radius
                    rng.sample(range(m), min(radius + 2, m)),
                ]
                for errors in placements:
                    probe = _with_errors(rng, f.p, points, errors)
                    expected = _decode_by_every_subset(f, probe, n)
                    assert rs_decode(f, probe, n) == expected, (n, m, sorted(errors))
                    outcomes.add((len(errors) > radius, expected == coeffs, expected is None))
    # within the radius the codeword's own polynomial always comes back;
    # past it the search finds None or, at times, another polynomial
    assert outcomes == {(False, True, False), (True, False, True), (True, False, False)}


@pytest.mark.parametrize("bits", [256, 1024])
def test_rs_decode_computes_one_inverse_for_a_guess_and_three_for_a_decode(
        bits, params256, monkeypatch):
    f = {256: params256, 1024: PrimeField(OAKLEY_1024, 5)}[bits]
    rng = random.Random(19 + bits)
    n, m = 6, 17
    coeffs = [rng.randrange(f.p) for _ in range(n)]
    points = [(x, eval_poly(f, coeffs, x)) for x in sorted(distinct_residues(rng, f.p, m))]
    # five errors, the radius: all after the first n, which the guess
    # settles, or one among them, which the decode corrects
    probes = [points, _with_errors(rng, f.p, points, rng.sample(range(n, m), 5)),
              _with_errors(rng, f.p, points, [0] + rng.sample(range(1, m), 4))]
    counter = PowCounter()
    monkeypatch.setattr(polynomial, "pow", counter, raising=False)
    monkeypatch.setattr(field_module, "pow", counter, raising=False)
    inverses = []
    for probe in probes:
        before = counter.inverses
        assert rs_decode(f, probe, n) == coeffs
        inverses.append(counter.inverses - before)
    assert inverses == [1, 1, 3]
    assert counter.powers == 0
    # six errors, one past the radius: the codeword's polynomial keeps 11
    # of the 17 points, one short of the 12 a decode needs
    assert rs_decode(f, _with_errors(rng, f.p, points, [0] + rng.sample(range(1, m), 5)), n) is None


# subset walks

def _walk(interpolants, limit=None):
    """The lists a walk yields, up to limit, and whether it then raised
    ZeroInverse."""
    out = []
    try:
        for coeffs in islice(interpolants, limit):
            out.append(coeffs)
    except ZeroInverse:
        return out, True
    return out, False


def _outright(field, points, n, limit=None):
    """The reference walk: lagrange_interpolate on each subset."""
    return _walk((lagrange_interpolate(field, s) for s in combinations(points, n)), limit)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_subset_interpolants_equal_one_interpolation_per_subset(bits, params64, params256):
    f = {64: params64, 256: params256, 1024: PrimeField(OAKLEY_1024, 5)}[bits]
    rng = random.Random(30 + bits)
    # (23, 11) has 1,352,078 subsets, so only the first are compared, and
    # at 1024 bits, where one interpolation takes about a millisecond, of
    # (12, 6) too; (15, 12) is walked whole, back to its first position
    cap = 1000 if bits < 1024 else 200
    for m, n, limit in ((15, 12, None), (12, 6, None if bits < 1024 else cap), (23, 11, cap),
                        (9, 1, None), (9, 9, None), (9, 0, None), (9, 10, None)):
        # unsorted x values distinct mod p, some lifted to p or above, and
        # y values up to 3p
        xs = [x + f.p * rng.randrange(3) for x in distinct_residues(rng, f.p, m)]
        points = [(x, rng.randrange(3 * f.p)) for x in xs]
        expected = _outright(f, points, n, limit)
        assert expected[1] is False and len(expected[0]) == min(math.comb(m, n), limit or math.inf)
        assert _walk(subset_interpolants(f, points, n), limit) == expected
    # combinations' own error
    with pytest.raises(ValueError):
        next(subset_interpolants(f, points, -1))


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("walk", ["_dividing_walk", "_adding_walk"])
def test_a_walk_equals_one_interpolation_per_subset(walk, bits, params64, params256):
    f = params64 if bits == 64 else params256
    rng = random.Random(40 + bits)
    for n in range(15):
        # the division walk takes at least one and no more than _DIVIDE_CAP
        # points out
        dividing = walk == "_dividing_walk"
        for k in range(dividing, (polynomial._DIVIDE_CAP if dividing else 10) + 1):
            m = n + k
            # whole walks up to 300 subsets, and the first 60 of longer ones
            limit = None if math.comb(m, n) <= 300 else 60
            xs = [x + f.p * rng.randrange(3) for x in distinct_residues(rng, f.p, m)]
            points = [(x, rng.randrange(3 * f.p)) for x in xs]
            expected = _outright(f, points, n, limit)
            assert _walk(getattr(polynomial, walk)(f, points, n), limit) == expected
            assert _walk(subset_interpolants(f, points, n), limit) == expected


@pytest.mark.parametrize("bits", [64, 256])
def test_a_screened_division_walk_yields_none_exactly_where_the_constant_fails(
        bits, params64, params256):
    f = params64 if bits == 64 else params256
    rng = random.Random(50 + bits)

    def screen(c0):
        return c0 < f.p // 2

    screened = 0
    for n in range(1, 15):
        for k in range(1, polynomial._DIVIDE_CAP + 1):
            m = n + k
            limit = None if math.comb(m, n) <= 300 else 60
            xs = [x + f.p * rng.randrange(3) for x in distinct_residues(rng, f.p, m)]
            # an x that is 0 mod p, divided out at a leaf within the first
            # k + 2 subsets
            xs[m - 1 - rng.randrange(2)] = rng.choice((0, f.p))
            points = [(x, rng.randrange(3 * f.p)) for x in xs]
            expected, raised = _walk(polynomial._dividing_walk(f, points, n), limit)
            walked = _walk(polynomial._dividing_walk(f, points, n, screen), limit)
            assert walked == ([c if screen(c[0]) else None for c in expected], raised)
            screened += walked[0].count(None)
    assert screened > 2000


@pytest.mark.parametrize("m, n, repeat, walk", [
    (14, 12, False, "_dividing_walk"), (15, 12, False, "_dividing_walk"),
    (9, 6, False, "_dividing_walk"), (10, 6, False, "_dividing_walk"),
    (11, 6, False, "_dividing_walk"), (12, 6, False, "_dividing_walk"),
    (10, 4, False, "_dividing_walk"), (160, 2, False, "_adding_walk"),
    (9, 1, False, "_adding_walk"), (15, 12, True, "_adding_walk"),
    (12, 12, False, "_adding_walk")])
def test_subset_interpolants_pick_the_walk_by_shape(m, n, repeat, walk, params64, monkeypatch):
    picked = []
    for name in ("_dividing_walk", "_adding_walk"):
        monkeypatch.setattr(polynomial, name, lambda field, points, n, screen=None, name=name:
                            iter(picked.append(name) or ()))
    points = [(x, 0) for x in range(1, m + 1)]
    if repeat:
        points[3] = (points[2][0] + params64.p, 0)
    assert list(subset_interpolants(params64, points, n)) == []
    assert picked == [walk]


def test_subset_interpolants_raise_where_a_subset_repeats_an_x_mod_p():
    # x = 24 is 1 mod 23, so {1, 24}, the fifth subset, is the first to
    # repeat an x: the walk yields the four before it and raises there
    f = PrimeField(23, 5)
    points = [(0, 3), (1, 4), (2, 9), (24, 7)]
    walked = _walk(subset_interpolants(f, points, 2))
    assert walked == _outright(f, points, 2)
    assert len(walked[0]) == 4 and walked[1] is True


@pytest.mark.parametrize("p", [23, 47])
def test_subset_interpolants_on_small_fields_stop_where_one_interpolation_per_subset_does(p):
    f = PrimeField(p, 5)
    rng = random.Random(p)
    raised = 0
    for _ in range(1500):
        m = rng.randrange(9)
        n = rng.randrange(m + 2)
        # x values below 3p repeat mod p often at this size
        points = [(rng.randrange(3 * p), rng.randrange(3 * p)) for _ in range(m)]
        expected = _outright(f, points, n)
        raised += expected[1]
        assert _walk(subset_interpolants(f, points, n)) == expected
        assert _walk(polynomial._adding_walk(f, points, n)) == expected
    assert raised > 100


@pytest.mark.parametrize("field_name", ["prime", "gf16", "prime-repeat", "prime-add"])
def test_a_subset_walk_interpolates_outright_once_over_f_p_and_each_subset_otherwise(
        field_name, params64, monkeypatch):
    calls = []

    def counted(field, points):
        calls.append(len(points))
        return lagrange_interpolate(field, points)

    monkeypatch.setattr(polynomial, "lagrange_interpolate", counted)
    if field_name == "prime-repeat":
        # x = 24 is 1 mod 23, so the fifth subset {1, 24} repeats an x; the
        # adding walk gets there with no outright interpolation
        f, n = PrimeField(23, 5), 2
        points = [(0, 3), (1, 4), (2, 9), (24, 7)]
    else:
        # 4-subsets of 10 points over F_p go to the division walk, which
        # interpolates all 10 outright; 3-subsets go to the adding walk,
        # which interpolates none
        f = params64 if field_name.startswith("prime") else binary_field()
        n = 3 if field_name == "prime-add" else 4
        rng = random.Random(32)
        points = [(x, rng.randrange(1 << 16)) for x in rng.sample(range(1 << 16), 10)]
    walked = _walk(subset_interpolants(f, points, n))
    assert calls == {"prime": [10], "gf16": [4] * math.comb(10, 4)}.get(field_name, [])
    assert walked == _outright(f, points, n)
    assert len(walked[0]) == (4 if field_name == "prime-repeat" else math.comb(10, n))
    assert walked[1] is (field_name == "prime-repeat")


def test_a_walk_computes_one_inverse_per_run(params256, monkeypatch):
    counter = PowCounter()
    monkeypatch.setattr(polynomial, "pow", counter, raising=False)
    rng = random.Random(33)
    points = [(x, rng.randrange(params256.p)) for x in distinct_residues(rng, params256.p, 6)]
    # the 20 3-subsets of 6 points go in runs of 1, 2, 4, 8 and 5, and the
    # 15 2-subsets in runs of 1, 2, 4 and 8, each run with one inverse
    # however many points its subsets add
    assert len(list(polynomial._adding_walk(params256, points, 3))) == 20
    assert counter.inverses == 5
    assert len(list(polynomial._adding_walk(params256, points, 2))) == 15
    assert counter.inverses == 5 + 4


def test_a_division_walk_computes_one_inverse(params256, monkeypatch):
    counter = PowCounter()
    monkeypatch.setattr(polynomial, "pow", counter, raising=False)
    rng = random.Random(36)
    points = [(x, rng.randrange(params256.p)) for x in distinct_residues(rng, params256.p, 15)]
    # the interpolant of all 15 points; every 12-subset divides 3 out of it
    assert len(list(subset_interpolants(params256, points, 12))) == math.comb(15, 12)
    assert counter.inverses == 1
    # and a screen adds one batch inverse of the 15 x values
    walked = list(subset_interpolants(params256, points, 12, lambda c0: c0 % 2))
    assert len(walked) == math.comb(15, 12) and None in walked
    assert counter.inverses == 1 + 2


def _repeat_at_fortieth(f, rng):
    """Eleven points whose 3-subsets first repeat an x mod p at the 40th,
    {0, 7, 8}: the 9th of the run of 32 that starts at the 32nd. The walk
    gets there from {0, 6, 10} by two adds, and only the second repeats."""
    xs = distinct_residues(rng, f.p, 10)
    xs.insert(8, xs[7] + f.p)
    assert next(k for k, s in enumerate(combinations(range(11), 3), 1) if {7, 8} <= set(s)) == 40
    return [(x, rng.randrange(f.p)) for x in xs]


def test_a_walk_yields_every_subset_before_a_repeat_deep_in_a_run(params256):
    points = _repeat_at_fortieth(params256, random.Random(34))
    walked = _walk(subset_interpolants(params256, points, 3))
    assert walked == _outright(params256, points, 3)
    assert len(walked[0]) == 39 and walked[1] is True


def test_a_search_that_accepts_a_subset_before_a_repeat_in_its_run_returns(params256):
    points = _repeat_at_fortieth(params256, random.Random(35))
    tried = []

    def decode(coeffs):
        tried.append(coeffs)
        if len(tried) < 39:
            raise BadLength("rejected")
        return coeffs

    expected = lagrange_interpolate(params256, list(combinations(points, 3))[38])
    assert subset_search(params256, points, 3, decode, 100) == (expected, 39)


# CRC-16

def test_crc_frozen_value():
    assert CRC16_GENERATOR == 0x18005
    assert crc16_remainder(1, 64) == 0x8005
    assert crc16_remainder(0, 64) == 0
    assert crc16_remainder(0, 0) == 0


def test_crc_matches_long_division_oracle():
    rng = random.Random(14)
    for _ in range(300):
        bit_len = rng.randrange(1, 130)
        value = rng.randrange(1 << bit_len)
        assert crc16_remainder(value, bit_len) == crc16_bitwise(value, bit_len)


def test_crc_self_check_is_zero():
    rng = random.Random(15)
    for _ in range(300):
        bit_len = rng.randrange(1, 100)
        value = rng.randrange(1 << bit_len)
        rem = crc16_remainder(value, bit_len)
        assert crc16_remainder(value << 16 | rem, bit_len + 16) == 0


def test_crc_is_linear():
    rng = random.Random(16)
    for _ in range(200):
        bit_len = rng.randrange(1, 96)
        a = rng.randrange(1 << bit_len)
        b = rng.randrange(1 << bit_len)
        ra = crc16_remainder(a, bit_len)
        rb = crc16_remainder(b, bit_len)
        assert crc16_remainder(a ^ b, bit_len) == ra ^ rb


def test_crc_validates_arguments():
    with pytest.raises(ValueError):
        crc16_remainder(256, 8)  # value wider than bit_len
    with pytest.raises(ValueError):
        crc16_remainder(1, -1)
