"""Inputs for the benchmark's PACAs and an independent exact simulator.

The random PACAs themselves are ``paca.sample_paca`` in ``paca_to_json`` form.

A PACA here is the JSON object the package's ``paca_from_json`` reads:
states 0..q-1, boundary q, dense tables delta_b[left][center][right] for
coins b = 0, 1, an accepting set and a time bound T.  One step moves every
cell at once, with the boundary symbol outside the input; the move from
step s to step s + 1 (step 0 being the input) uses coin row s.  Acceptance
means some configuration at a step in 0..T-1 is all accepting.

The simulator enumerates every coin matrix with numpy and shares no code
with the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence

import numpy as np


def random_rejected_input(rng: random.Random, spec: dict, n: int) -> List[int]:
    """An input of length n whose step-0 configuration is not all accepting."""
    accepting = set(spec["accepting"])
    while True:
        x = [rng.choice(spec["sigma"]) for _ in range(n)]
        if not all(s in accepting for s in x):
            return x


def run_coins(spec: dict, x: Sequence[int], coins: np.ndarray) -> np.ndarray:
    """For each coin matrix ``coins[k]`` (rows = steps 1..T-1, one coin per
    cell), the bitmask of steps 1..T-1 whose configuration is all accepting
    (bit s for step s)."""
    q = spec["states"]
    delta = np.array([spec["delta0"], spec["delta1"]], dtype=np.int64)
    accepting = np.zeros(q + 1, dtype=bool)
    accepting[list(spec["accepting"])] = True
    config = np.tile(np.asarray(x, dtype=np.int64), (len(coins), 1))
    border = np.full((len(coins), 1), q, dtype=np.int64)
    vec = np.zeros(len(coins), dtype=np.int64)
    for s in range(1, spec["time_bound"]):
        padded = np.hstack([border, config, border])
        config = delta[coins[:, s - 1], padded[:, :-2], padded[:, 1:-1], padded[:, 2:]]
        vec |= accepting[config].all(axis=1).astype(np.int64) << s
    return vec


def all_coins(time_bound: int, n: int) -> np.ndarray:
    """Every coin matrix for steps 1..T-1 on n cells."""
    bits = (time_bound - 1) * n
    if bits > 24:
        raise ValueError(f"2**{bits} coin matrices is too many to enumerate")
    matrices = np.arange(1 << bits, dtype=np.int64)
    shifts = np.arange(bits).reshape(time_bound - 1, n)
    return (matrices[:, None, None] >> shifts[None, :, :]) & 1


def stream_coins(streams: np.ndarray, time_bound: int, n: int) -> np.ndarray:
    """The coins a sliding-window sweep feeds the automaton from each coin
    stream r: with R(i, j) = r bit (i + j*T), the cell j coin of step i+1 is
    R(i, i + j + 1)."""
    T = time_bound
    positions = np.array(
        [[i + (i + j + 1) * T for j in range(n)] for i in range(T - 1)], dtype=np.uint64
    )
    streams = np.asarray(streams, dtype=np.uint64)
    return ((streams[:, None, None] >> positions[None, :, :]) & np.uint64(1)).astype(np.int64)


def terms_of(vec: np.ndarray, time_bound: int) -> Dict[FrozenSet[int], Fraction]:
    """Pr[every step in S is all accepting] over ``vec``, for each non-empty S of 1..T-1."""
    terms = {}
    for sub in range(1, 1 << (time_bound - 1)):
        members = frozenset(s for s in range(1, time_bound) if (sub >> (s - 1)) & 1)
        want = sum(1 << s for s in members)
        terms[members] = Fraction(int(np.count_nonzero((vec & want) == want)), len(vec))
    return terms


def accept_probability(spec: dict, x: Sequence[int]) -> Fraction:
    """Pr over coin matrices that some step in 0..T-1 is all accepting."""
    accepting = set(spec["accepting"])
    if all(s in accepting for s in x):
        return Fraction(1)
    vec = run_coins(spec, x, all_coins(spec["time_bound"], len(x)))
    return Fraction(int(np.count_nonzero(vec)), len(vec))


def step_terms(spec: dict, x: Sequence[int]) -> Dict[FrozenSet[int], Fraction]:
    """Exact Pr[every step in S is all accepting] for each non-empty S of 1..T-1."""
    return terms_of(run_coins(spec, x, all_coins(spec["time_bound"], len(x))), spec["time_bound"])


def inclusion_exclusion(terms: Dict[FrozenSet[int], Fraction]) -> Fraction:
    return sum(
        (p if len(s) % 2 == 1 else -p for s, p in terms.items()), Fraction(0)
    )


def term_key(steps) -> str:
    """JSON key of a step subset: its steps, ascending, comma separated."""
    return ",".join(str(s) for s in sorted(steps))


def parse_terms(data: Dict[str, str]) -> Dict[FrozenSet[int], Fraction]:
    return {
        frozenset(int(s) for s in key.split(",")): Fraction(value)
        for key, value in data.items()
    }


def fixture_input(rng: random.Random, n: int) -> List[int]:
    """An input for the C1/C2 fixtures: symbols 0 and 1 are their two inputs."""
    return [rng.randrange(2) for _ in range(n)]
