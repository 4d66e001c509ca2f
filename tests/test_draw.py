"""The seeded draws vault layouts and keys are defined on equal CPython's
randrange and shuffle, draw for draw, on the same getrandbits stream."""

import random

import pytest

from dlfvault._draw import below, fisher_yates
from helpers import OAKLEY_1024

# p of gen_params(256, 1003), the suite's 256-bit field
P256 = 0xEC6BEF0CAEE802F30F13500271D6862F75230AB576DB9D4B7358B2D070E9AD83

SIZES = sorted({1, 2, 3, 65535, 65536, P256, P256 - 1, OAKLEY_1024, OAKLEY_1024 - 1}
               | {(1 << k) + d for k in range(1, 70, 7) for d in (-1, 0, 1)})
SEEDS = range(40)


def _pair(seed):
    """Two generators at the same state: one for CPython's functions, one
    whose getrandbits feeds the helpers."""
    return random.Random(seed), random.Random(seed)


def _same_state(a, b):
    return a.getrandbits(64) == b.getrandbits(64)


@pytest.mark.parametrize("n", SIZES)
def test_below_draws_what_randrange_draws(n):
    for seed in SEEDS:
        reference, rng = _pair(seed)
        for _ in range(3):
            assert below(rng.getrandbits, n) == reference.randrange(n)
        assert _same_state(reference, rng)


@pytest.mark.parametrize("n", SIZES)
def test_below_on_a_stepped_range_draws_what_randrange_draws(n):
    # gen_key's exponent ranges: [size - j, p - 1) in steps of size
    for start, step in ((1, 1), (2, 2), (1, 2), (3, 7)):
        stop = start + n * step - step // 2
        r = range(start, stop, step)
        for seed in SEEDS:
            reference, rng = _pair(seed)
            drawn = r[below(rng.getrandbits, (stop - start + step - 1) // step)]
            assert drawn == reference.randrange(start, stop, step)
            assert _same_state(reference, rng)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 17, 64, 65, 180, 1000])
def test_shuffle_permutes_as_random_shuffle_does(length):
    for seed in SEEDS:
        reference, rng = _pair(seed)
        expected, items = list(range(length)), list(range(length))
        reference.shuffle(expected)
        fisher_yates(rng.getrandbits, items)
        assert items == expected
        assert _same_state(reference, rng)


@pytest.mark.parametrize("n", [0, -1])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError, match="empty range"):
        below(random.Random(0).getrandbits, n)
