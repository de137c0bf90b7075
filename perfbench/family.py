"""Independent model of the canonical window-t program family.

The CLI's ``family`` descriptor {"n", "t", "budget_bits"} names the
accepting-set labelings of the canonical de Bruijn program: after layer i
the state is the window of the last min(i, t) bits read, packed MSB-first
(oldest bit highest); the labeling positions are the (layer, state) pairs
listed last layer first, states ascending; program number M rejects the
states at the positions of M's set bits (bit j <-> position j) and accepts
everywhere else.  So program M accepts input x iff the set v(x) of toggled
positions that x visits does not meet M.

Everything here is rebuilt from that description with numpy, without
calling the package's evaluators, so it can check what the package reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np


def label_positions(n: int, t: int, k: int) -> List[Tuple[int, int]]:
    """The first ``k`` (layer, state) labeling positions, layers 1-based."""
    positions = [
        (layer, state)
        for layer in range(n, 0, -1)
        for state in range(1 << min(layer, t))
    ]
    if k > len(positions):
        raise ValueError(f"budget of {k} bits exceeds the {len(positions)} positions")
    return positions[:k]


def visited(inputs: np.ndarray, n: int, t: int, k: int) -> np.ndarray:
    """v(x) for each packed input (bit i-1 of x is the bit read at layer i)."""
    inputs = np.asarray(inputs, dtype=np.uint64)
    positions = label_positions(n, t, k)
    wanted = {layer for layer, _ in positions}
    window_mask = np.uint64((1 << t) - 1)
    state = np.zeros(len(inputs), dtype=np.uint64)
    states = {}
    for layer in range(1, n + 1):
        bit = (inputs >> np.uint64(layer - 1)) & np.uint64(1)
        state = ((state << np.uint64(1)) | bit) & window_mask
        if layer in wanted:
            states[layer] = state.copy()
    v = np.zeros(len(inputs), dtype=np.int64)
    for j, (layer, s) in enumerate(positions):
        v |= (states[layer] == np.uint64(s)).astype(np.int64) << j
    return v


def accept_counts(v: np.ndarray, k: int) -> np.ndarray:
    """For every program M in 0..2**k-1, how many entries of ``v`` it accepts."""
    hist = np.bincount(v, minlength=1 << k).astype(np.int64)
    masks = np.arange(1 << k, dtype=np.int64)
    present = np.flatnonzero(hist)
    disjoint = (masks[:, None] & present[None, :]) == 0
    return disjoint.astype(np.int64) @ hist[present]


def fooling_errors(
    outputs: np.ndarray, seed_bits: int, n: int, t: int, k: int
) -> List[Fraction]:
    """Exact |Pr[M(G(U_d))] - Pr[M(U_n)]| for every program M of the family.

    ``outputs`` holds the generator output of every seed, in seed order.
    """
    if len(outputs) != 1 << seed_bits:
        raise ValueError("need one output per seed")
    gen = accept_counts(visited(outputs, n, t, k), k)
    uni = accept_counts(visited(np.arange(1 << n, dtype=np.uint64), n, t, k), k)
    return [
        abs(Fraction(int(a), 1 << seed_bits) - Fraction(int(b), 1 << n))
        for a, b in zip(gen, uni)
    ]


def nonzero_programs(n: int, t: int, k: int) -> np.ndarray:
    """Program numbers M that accept at least one input, by input enumeration."""
    uni = accept_counts(visited(np.arange(1 << n, dtype=np.uint64), n, t, k), k)
    return np.flatnonzero(uni)


def interleave_outputs(
    low: Sequence[int], high: Sequence[int], blocks: int, block_bits: int
) -> np.ndarray:
    """All outputs of interleave(g1, g2) from the outputs of its halves.

    ``low[s1]`` and ``high[s2]`` are the flat outputs of g1 and g2 (each
    ``blocks`` blocks of ``block_bits`` bits, block 0 lowest); the seed is
    s1 in the low bits and s2 above it; the output alternates blocks
    g1[0] g2[0] g1[1] g2[1] ...
    """
    low = np.asarray(low, dtype=np.uint64)
    high = np.asarray(high, dtype=np.uint64)
    o1 = np.tile(low, len(high))
    o2 = np.repeat(high, len(low))
    mask = np.uint64((1 << block_bits) - 1)
    out = np.zeros(len(o1), dtype=np.uint64)
    for i in range(blocks):
        src = np.uint64(i * block_bits)
        out |= ((o1 >> src) & mask) << np.uint64(2 * i * block_bits)
        out |= ((o2 >> src) & mask) << np.uint64((2 * i + 1) * block_bits)
    return out


def canonical_tables(n: int, t: int, mask: int, k: int):
    """(trans, acc) of program ``mask``, for building a LayeredProgram."""
    w = 1 << t
    table = tuple((((q << 1) & (w - 1), ((q << 1) | 1) & (w - 1)) for q in range(w)))
    acc = [set(range(1 << min(layer, t))) for layer in range(1, n + 1)]
    for j, (layer, s) in enumerate(label_positions(n, t, k)):
        if (mask >> j) & 1:
            acc[layer - 1].discard(s)
    return tuple(table for _ in range(n)), tuple(frozenset(a) for a in acc)
