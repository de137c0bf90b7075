"""Bit-string helpers.

A bit string is a tuple of 0/1 ints read left to right.  The public API is
documented with 1-based positions (bit 1 is the first bit read); internally
everything is 0-based.  When a bit string is packed into an integer, the
first bit read sits at the least significant position, so seed number ``s``
has first bit ``s & 1``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

BitString = Tuple[int, ...]


def int_to_bits(value: int, length: int) -> BitString:
    """Unpack ``value`` into ``length`` bits, first bit = LSB."""
    if value < 0 or value >> length:
        raise ValueError(f"value {value} does not fit in {length} bits")
    return tuple((value >> i) & 1 for i in range(length))


def bits_to_int(bits: Iterable[int]) -> int:
    value = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
        value |= b << i
    return value


def parity(x: int) -> int:
    return x.bit_count() & 1

