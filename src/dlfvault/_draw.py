"""Seeded draws on Random.getrandbits alone.

random.Random's randrange and shuffle reach getrandbits through
internals that the random module's documentation does not promise to
keep. Vault layouts, keys and field parameters are defined on the two
functions here instead, on one seeded getrandbits stream each. Both
follow the rule CPython's randrange and shuffle use (_randbelow), so
they draw exactly what those did.
"""

from __future__ import annotations


def below(getrandbits, n: int) -> int:
    """A uniform draw from [0, n): getrandbits(k) with k = n.bit_length(),
    drawn again while it is n or more."""
    if n <= 0:
        raise ValueError(f"cannot draw from an empty range [0, {n})")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def fisher_yates(getrandbits, items: list) -> None:
    """Fisher-Yates in place, from the last position down: position i
    swaps with position below(getrandbits, i + 1)."""
    for i in range(len(items) - 1, 0, -1):
        j = below(getrandbits, i + 1)
        items[i], items[j] = items[j], items[i]
