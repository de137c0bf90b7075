"""Exhaustive verification: exact fooling errors, hitting checks, and the
window-program family enumerators the budgets are tested against.

Everything here enumerates; nothing samples for the verdicts themselves.
Enumeration costs are guarded by explicit caps and the harness refuses
(:class:`CapExceeded`) rather than silently truncating.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bp import (
    LayeredProgram,
    acceptance_probability,
    canonical_debruijn_swbp,
    all_accepting_labeler,
    program_to_json,
    quotient_swbp,
    relabel,
)
from .errors import DEFAULT_CAP_BITS, CapExceeded, ShapeError


def program_tables(p: LayeredProgram) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (n, w, 2) transition and (n, w) acceptance arrays."""
    trans = np.array(p.trans, dtype=np.int64)
    acc = np.zeros((p.n, p.w), dtype=bool)
    for i, a in enumerate(p.acc):
        for q in a:
            acc[i, q] = True
    return trans, acc


def batch_evaluate(p: LayeredProgram, inputs: np.ndarray) -> np.ndarray:
    """Acceptance of ``p`` on an array of packed inputs (LSB = first bit)."""
    trans, acc = program_tables(p)
    luts = trans.reshape(p.n, -1)  # flat per-layer lookup on state*2 + bit
    state = np.full(len(inputs), p.q0, dtype=np.intp)
    alive = np.ones(len(inputs), dtype=bool)
    inputs = inputs.astype(np.uint64, copy=False)
    for i in range(p.n):
        bit = ((inputs >> np.uint64(i)) & np.uint64(1)).astype(np.intp)
        state = luts[i][(state << 1) | bit]
        alive &= acc[i][state]
    return alive


def acceptance_probability_bruteforce(
    p: LayeredProgram, cap_inputs: int = DEFAULT_CAP_BITS
) -> Fraction:
    """Second oracle: enumerate every input instead of running the DP."""
    if p.n > cap_inputs:
        raise CapExceeded(
            f"input enumeration needs 2**{p.n} evaluations (cap {cap_inputs})", p.n
        )
    inputs = np.arange(1 << p.n, dtype=np.uint64)
    return Fraction(int(batch_evaluate(p, inputs).sum()), 1 << p.n)


# --- fooling ---------------------------------------------------------------------


def generator_acceptance(g, p: LayeredProgram, cap_seeds: int = DEFAULT_CAP_BITS) -> Fraction:
    """Pr over seeds that ``p`` accepts the generator output.  Exact."""
    if g.flat_bits != p.n:
        raise ShapeError(f"generator emits {g.flat_bits} bits, program reads {p.n}")
    outs = g.expand_all(cap_seeds)
    return Fraction(int(batch_evaluate(p, outs).sum()), 1 << g.d)


def fooling_error(g, p: LayeredProgram, cap_seeds: int = DEFAULT_CAP_BITS) -> Fraction:
    """|Pr[p(G(U_d))=1] - Pr[p(U_n)=1]|, exact by full seed enumeration.

    For a tuple of programs, one per block, pass ``bp.concat(programs)``.
    """
    return abs(generator_acceptance(g, p, cap_seeds) - acceptance_probability(p))


# --- hitting ---------------------------------------------------------------------


def hitting_check(h, p: LayeredProgram, cap_seeds: int = DEFAULT_CAP_BITS) -> Optional[int]:
    """First seed (in seed order) whose expansion ``p`` accepts, or None."""
    if h.flat_bits != p.n:
        raise ShapeError(f"generator emits {h.flat_bits} bits, program reads {p.n}")
    accepted = batch_evaluate(p, h.expand_all(cap_seeds))
    idx = np.flatnonzero(accepted)
    return int(idx[0]) if len(idx) else None


# --- SWBP families ----------------------------------------------------------------


def _label_positions(n: int, t: int) -> List[Tuple[int, int]]:
    """(layer, state) pairs in labeling order: last layer first, states
    ascending; only positions reachable in the canonical program."""
    positions = []
    for layer in range(n, 0, -1):
        for state in range(1 << min(layer, t)):
            positions.append((layer, state))
    return positions


def family_size_bits(n: int, t: int) -> int:
    """log2 of the full labeling count of the canonical window-t program."""
    return len(_label_positions(n, t))


def enumerate_swbp_family(
    n: int, t: int, budget_bits: Optional[int] = None
) -> Iterator[LayeredProgram]:
    """All accepting-set labelings of the canonical de Bruijn program.

    Labelings toggle the first 2**budget_bits positions in
    :func:`_label_positions` order; positions beyond the budget stay
    accepting.  With no budget the full family is enumerated.  Either way
    it refuses via CapExceeded when the family exceeds the default cap.
    Mask 0 is always the all-accepting program.  Every emitted program is a
    window-t program (the property depends only on the transitions).
    """
    positions = _label_positions(n, t)
    k = len(positions) if budget_bits is None else min(budget_bits, len(positions))
    if k > DEFAULT_CAP_BITS:
        raise CapExceeded(f"family has 2**{k} labelings (cap {DEFAULT_CAP_BITS} bits)", k)
    canonical, _ = canonical_debruijn_swbp(n, t, all_accepting_labeler)
    base_acc = [set(a) for a in canonical.acc]
    for mask in range(1 << k):
        acc = [set(a) for a in base_acc]
        for idx in range(k):
            if (mask >> idx) & 1:
                layer, state = positions[idx]
                acc[layer - 1].discard(state)
        yield LayeredProgram(
            canonical.n, canonical.w, canonical.q0, canonical.trans,
            tuple(frozenset(a) for a in acc),
        )


def sample_swbp(rng: random.Random, n: int, t: int) -> LayeredProgram:
    """A seeded random quotient of the canonical program with a random
    accepting labeling.  Deterministic given the rng state."""
    canonical, _ = canonical_debruijn_swbp(n, t, all_accepting_labeler)
    merge: List[List[List[int]]] = []
    for layer in range(n + 1):
        k = min(layer, t)
        groups = []
        if k >= 1 and rng.random() < 0.7:
            states = list(range(1 << k))
            rng.shuffle(states)
            cut = rng.randint(2, max(2, len(states)))
            groups.append(states[:cut])
        merge.append(groups)
    q = quotient_swbp(canonical, merge)
    labeled = relabel(q, lambda layer, state: rng.random() < 0.8)
    return labeled


# --- reports ----------------------------------------------------------------------


@dataclass
class FoolingReport:
    """Worst-case exact fooling error of a generator over a program family."""

    generator_id: str
    family: str
    eps_budget: Fraction
    worst_error: Fraction = Fraction(0)
    worst_program: Optional[dict] = None
    programs_checked: int = 0
    seeds_enumerated: int = 0
    passed: bool = True
    wall_seconds: float = 0.0
    rows: List[Tuple[int, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": "fooling-report/1",
            "generator": self.generator_id,
            "family": self.family,
            "eps_budget": str(self.eps_budget),
            "worst_error": str(self.worst_error),
            "worst_program": self.worst_program,
            "programs_checked": self.programs_checked,
            "seeds_enumerated": self.seeds_enumerated,
            "passed": self.passed,
            "metadata": {"wall_seconds": self.wall_seconds},
        }

    def to_csv(self) -> str:
        lines = ["program_index,error"]
        lines += [f"{i},{err}" for i, err in self.rows]
        return "\n".join(lines) + "\n"


def run_fooling_report(
    g,
    programs: Sequence[LayeredProgram],
    eps_budget: Fraction,
    generator_id: str = "generator",
    family: str = "family",
    cap_seeds: int = DEFAULT_CAP_BITS,
    jobs: int = 1,
) -> FoolingReport:
    """Exact fooling error of every program, on ``jobs`` threads.

    The generator is expanded once, before the threads start; they all read
    its cached table.
    """
    start = time.monotonic()
    report = FoolingReport(generator_id, family, eps_budget)
    g.expand_all(cap_seeds)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        errors = list(pool.map(lambda p: fooling_error(g, p, cap_seeds), programs))
    for i, err in enumerate(errors):
        report.rows.append((i, str(err)))
        if err > report.worst_error or report.worst_program is None:
            report.worst_error = err
            report.worst_program = program_to_json(programs[i])
    report.programs_checked = len(errors)
    report.seeds_enumerated = 1 << g.d
    report.passed = report.worst_error <= eps_budget
    report.wall_seconds = time.monotonic() - start
    return report


@dataclass
class HittingReport:
    generator_id: str
    family: str
    threshold: Fraction
    programs_checked: int = 0
    required: int = 0
    missed: List[int] = field(default_factory=list)
    passed: bool = True
    wall_seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "schema": "hitting-report/1",
            "generator": self.generator_id,
            "family": self.family,
            "threshold": str(self.threshold),
            "programs_checked": self.programs_checked,
            "witness_required": self.required,
            "missed_program_indices": self.missed,
            "passed": self.passed,
            "metadata": {"wall_seconds": self.wall_seconds},
        }


def run_hitting_report(
    h,
    programs: Sequence[LayeredProgram],
    generator_id: str = "hsg",
    family: str = "family",
    cap_seeds: int = DEFAULT_CAP_BITS,
) -> HittingReport:
    """Check the hitting contract family-wide: every program whose exact
    acceptance probability reaches the threshold (and is nonzero) must have
    a witness seed."""
    start = time.monotonic()
    report = HittingReport(generator_id, family, h.eps_budget)
    for i, p in enumerate(programs):
        report.programs_checked += 1
        p_acc = acceptance_probability(p)
        if p_acc >= h.eps_budget and p_acc > 0:
            report.required += 1
            if hitting_check(h, p, cap_seeds) is None:
                report.missed.append(i)
    report.passed = not report.missed
    report.wall_seconds = time.monotonic() - start
    return report
