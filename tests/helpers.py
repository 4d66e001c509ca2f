"""Shared construction helpers for the test suite."""

import struct


def spaced_set(rng, p, count, delta, jitter=64):
    """count ascending elements with pairwise gaps above 2*delta, kept at
    least delta away from both field edges so fuzzed probes stay valid."""
    gap = 2 * delta + 1
    x = delta + 1 + rng.randrange(jitter)
    out = []
    for _ in range(count):
        out.append(x)
        x += gap + rng.randrange(jitter)
    assert out[-1] < p - delta, "field too small for this spacing"
    return out


def feasible_whole_message_lengths(params, seg_bits):
    """Message byte lengths whose framed form fits below p for the
    whole-message scheme."""
    seg_bytes = seg_bits // 8
    lengths = []
    for length in range(0, 64):
        framed_len = 24 + length
        framed_len += -framed_len % seg_bytes
        if framed_len * 8 <= params.p_bits - 1:
            lengths.append(length)
    return lengths


def with_framed_len(key_bytes, framed_len):
    """DLFK bytes with the closing u16 frame length replaced."""
    return key_bytes[:-2] + struct.pack(">H", framed_len)
