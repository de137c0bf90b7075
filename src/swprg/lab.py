"""Exhaustive verification: exact fooling errors, hitting checks, and the
window-program families the budgets are tested against, each family
counted in one pass (:class:`MaskFamily`).

Everything here enumerates; nothing samples for the verdicts themselves.
Enumeration costs are guarded by explicit caps and the harness refuses
(:class:`CapExceeded`) rather than silently truncating.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bp import (
    LayeredProgram,
    WindowViolation,
    acceptance_probability,
    canonical_debruijn_swbp,
    check_window,
    concat,
    program_to_json,
    quotient_swbp,
    relabel,
)
from .errors import DEFAULT_CAP_BITS, CapExceeded, ConfigurationError, ParameterError, ShapeError
from .generators import Interleave
from .hsg import HsgSpec


def program_tables(p: LayeredProgram) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (n, w, 2) transition and (n, w) acceptance arrays."""
    trans = np.array(p.trans, dtype=np.int64)
    acc = np.zeros((p.n, p.w), dtype=bool)
    for i, a in enumerate(p.acc):
        for q in a:
            acc[i, q] = True
    return trans, acc


def _states(
    p: LayeredProgram, trans: np.ndarray, inputs: np.ndarray
) -> Iterator[Tuple[int, np.ndarray]]:
    """Layer index i and the state after layer i + 1, for every packed input
    (LSB = first bit), one layer at a time; ``trans`` is ``p``'s dense table."""
    luts = trans.reshape(p.n, -1)  # flat per-layer lookup on state*2 + bit
    state = np.full(len(inputs), p.q0, dtype=np.intp)
    inputs = inputs.astype(np.uint64, copy=False)
    for i in range(p.n):
        bit = ((inputs >> np.uint64(i)) & np.uint64(1)).astype(np.intp)
        state = luts[i][(state << 1) | bit]
        yield i, state


def batch_evaluate(p: LayeredProgram, inputs: np.ndarray) -> np.ndarray:
    """Acceptance of ``p`` on an array of packed inputs (LSB = first bit)."""
    trans, acc = program_tables(p)
    alive = np.ones(len(inputs), dtype=bool)
    for i, state in _states(p, trans, inputs):
        alive &= acc[i][state]
    return alive


def acceptance_probability_bruteforce(p: LayeredProgram) -> Fraction:
    """Second oracle: enumerate every input instead of running the DP."""
    if p.n > DEFAULT_CAP_BITS:
        raise CapExceeded(
            f"input enumeration needs 2**{p.n} evaluations (cap {DEFAULT_CAP_BITS})", p.n
        )
    inputs = np.arange(1 << p.n, dtype=np.uint64)
    return Fraction(int(batch_evaluate(p, inputs).sum()), 1 << p.n)


def _check_width(g, p: LayeredProgram) -> None:
    """Refuse a generator whose outputs are not as long as ``p``'s inputs."""
    if g.flat_bits != p.n:
        raise ShapeError(f"generator emits {g.flat_bits} bits, program reads {p.n}")


def _check_class(g, p: LayeredProgram) -> None:
    """Refuse a program outside the class where ``g``'s budget is argued: an
    interleave, alone or as an HSG's carrier, pays 2*max only for windows of
    at most its ``block_bits``.  The window depends only on the transitions,
    which a family's members share with its base, so the base decides."""
    node = g.carrier if isinstance(g, HsgSpec) else g
    if not isinstance(node, Interleave):
        return
    result = check_window(p, min(node.block_bits, p.n))
    if isinstance(result, WindowViolation):
        raise ConfigurationError(
            f"interleave budget holds for window <= block_bits={node.block_bits}; the "
            f"programs are not: states {result.q} and {result.q_prime} of layer "
            f"{result.layer} disagree after {list(result.word)}"
        )


# --- fooling ---------------------------------------------------------------------


def fooling_error(g, p: LayeredProgram, cap_seeds: int = DEFAULT_CAP_BITS) -> Fraction:
    """|Pr[p(G(U_d))=1] - Pr[p(U_n)=1]|, exact by full seed enumeration.

    For a tuple of programs, one per block, pass ``bp.concat(programs)``.
    """
    _check_width(g, p)
    accepted = int(batch_evaluate(p, g.expand_all(cap_seeds)).sum())
    return abs(Fraction(accepted, 1 << g.d) - acceptance_probability(p))


# --- hitting ---------------------------------------------------------------------


def hitting_check(h, p: LayeredProgram) -> Optional[int]:
    """First seed (in seed order) whose expansion ``p`` accepts, or None."""
    _check_width(h, p)
    accepted = batch_evaluate(p, h.expand_all(DEFAULT_CAP_BITS))
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


def _subset_sums_by_mask(hist: np.ndarray) -> np.ndarray:
    """Entry M: the total of ``hist`` over the visit sets that miss M.

    One in-place subset-sum (zeta) transform over the 2**k entries, after
    Yates (1937), read at the complement of M, which reverses the array.
    """
    for i in range(len(hist).bit_length() - 1):
        pairs = hist.reshape(-1, 2, 1 << i)
        pairs[:, 1] += pairs[:, 0]
    return hist[::-1]


@dataclass(frozen=True)
class MaskFamily:
    """The 2**k programs one base program spans with k toggle positions.

    ``positions[j]`` is a (layer, state) pair, layers 1-based.  Program M is
    ``base`` with the state of every position j in M's set bits taken out of
    that layer's accepting set, so program 0 is the base.  Program M accepts
    x iff the base accepts x and the set v(x) of toggle positions x visits
    misses M; so one run of the base, a histogram of v and one subset-sum
    transform count every program at once.  A single program is the family
    with no positions.  Seed counts depend only on the distribution of the
    outputs, so the base runs once per distinct output, weighted by how
    many seeds produce it.  Refuses a family of more than
    2**DEFAULT_CAP_BITS programs with CapExceeded.
    """

    base: LayeredProgram
    positions: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        for layer, state in self.positions:
            if not (1 <= layer <= self.base.n and 0 <= state < self.base.w):
                raise ParameterError(f"toggle position {(layer, state)} outside the program")
        if self.k > DEFAULT_CAP_BITS:
            raise CapExceeded(
                f"family has 2**{self.k} labelings (cap {DEFAULT_CAP_BITS} bits)", self.k
            )

    @property
    def k(self) -> int:
        return len(self.positions)

    def __len__(self) -> int:
        return 1 << self.k

    def program(self, mask: int) -> LayeredProgram:
        """Program ``mask``, built on its own."""
        acc = [set(a) for a in self.base.acc]
        for j, (layer, state) in enumerate(self.positions):
            if (mask >> j) & 1:
                acc[layer - 1].discard(state)
        p = self.base
        return LayeredProgram(p.n, p.w, p.q0, p.trans, tuple(frozenset(a) for a in acc))

    def _visit_bits(self) -> List[List[int]]:
        """``[i][q]``: the bits of the toggle positions at layer i + 1, state q."""
        bits = [[0] * self.base.w for _ in range(self.base.n)]
        for j, (layer, state) in enumerate(self.positions):
            bits[layer - 1][state] |= 1 << j
        return bits

    def accept_counts(self, outputs: np.ndarray) -> np.ndarray:
        """How many of the packed ``outputs`` each program accepts, by mask,
        as int64 counts; repeated outputs count once per occurrence."""
        return self._weighted_counts(*np.unique(outputs, return_counts=True))

    def _weighted_counts(self, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """:meth:`accept_counts` of the outputs ``values[i]``, each repeated
        ``mult[i]`` times; ``values`` holds no repeats."""
        trans, acc = program_tables(self.base)
        bits = np.array(self._visit_bits(), dtype=np.int64)
        alive = np.ones(len(values), dtype=bool)
        visits = np.zeros(len(values), dtype=np.int64)
        for i, state in _states(self.base, trans, values):
            alive &= acc[i][state]
            if bits[i].any():
                visits |= bits[i][state]
        hist = np.zeros(len(self), dtype=np.int64)
        np.add.at(hist, visits[alive], mult[alive])
        return _subset_sums_by_mask(hist)

    def uniform_counts(self) -> np.ndarray:
        """How many of the 2**n inputs each program accepts, by mask.

        The layer DP of :func:`bp.acceptance_probability`, run over (state,
        visit set) pairs, so its cost grows with the pairs that occur, not
        with 2**n.  Counts that may not fit int64 (n >= 63) are Python ints.
        """
        p, bits = self.base, self._visit_bits()
        counts = {(p.q0, 0): 1}
        for i in range(p.n):
            nxt: Dict[Tuple[int, int], int] = {}
            for (q, v), count in counts.items():
                for q2 in p.trans[i][q]:
                    if q2 in p.acc[i]:
                        key = (q2, v | bits[i][q2])
                        nxt[key] = nxt.get(key, 0) + count
            counts = nxt
        hist = np.zeros(len(self), dtype=np.int64 if p.n < 63 else object)
        for (_, v), count in counts.items():
            hist[v] += count
        return _subset_sums_by_mask(hist)


def swbp_family(n: int, t: int, budget_bits: Optional[int] = None) -> MaskFamily:
    """Accepting-set labelings of the canonical de Bruijn program.

    The first ``budget_bits`` positions in :func:`_label_positions` order
    (all of them by default) are toggled; positions beyond the budget stay
    accepting, and program 0 is the all-accepting program.  Every member is
    a window-t program (the property depends only on the transitions).
    Refuses a budget outside 0..family_size_bits(n, t) with ParameterError,
    and one over the cap with CapExceeded.
    """
    positions = _label_positions(n, t)
    k = len(positions) if budget_bits is None else budget_bits
    if not isinstance(k, int) or not 0 <= k <= len(positions):
        raise ParameterError(
            f"budget_bits {budget_bits!r} outside 0..{len(positions)} for n={n} t={t}"
        )
    canonical, _ = canonical_debruijn_swbp(n, t)
    return MaskFamily(canonical, tuple(positions[:k]))


def concat_families(families: Sequence[MaskFamily]) -> MaskFamily:
    """The family of :func:`bp.concat` tuples, one member of each family.

    Its base is the concat of the bases and its positions are theirs, moved
    to their block; so the bits of family i's mask follow those of family
    i - 1, the first family's lowest.
    """
    positions: List[Tuple[int, int]] = []
    offset = 0
    for fam in families:
        positions += [(offset + layer, state) for layer, state in fam.positions]
        offset += fam.base.n
    return MaskFamily(concat([fam.base for fam in families]), tuple(positions))


def enumerate_swbp_family(
    n: int, t: int, budget_bits: Optional[int] = None
) -> Iterator[LayeredProgram]:
    """Every program of :func:`swbp_family` in mask order, each built on
    its own."""
    family = swbp_family(n, t, budget_bits)
    for mask in range(len(family)):
        yield family.program(mask)


def sample_swbp(rng: random.Random, n: int, t: int) -> LayeredProgram:
    """A seeded random quotient of the canonical program with a random
    accepting labeling.  Deterministic given the rng state."""
    canonical, _ = canonical_debruijn_swbp(n, t)
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

Programs = Union[MaskFamily, Sequence[Union[MaskFamily, LayeredProgram]]]


@dataclass
class _Counts:
    """Seed and uniform acceptance counts of every program, in program order."""

    families: List[MaskFamily]
    seed: List[int]
    uniform: List[int]
    work: Dict[str, int]

    def program(self, index: int) -> LayeredProgram:
        for family in self.families:
            if index < len(family):
                return family.program(index)
            index -= len(family)
        raise IndexError(index)


def _seeds_expanded(g) -> int:
    """The seeds ``g.output_counts`` expands: an interleave, alone or as an
    HSG's carrier, expands each half on its own seeds."""
    node = g.carrier if isinstance(g, HsgSpec) else g
    if isinstance(node, Interleave):
        return _seeds_expanded(node.g1) + _seeds_expanded(node.g2)
    return 1 << node.d


def _count(g, programs: Programs, cap_seeds: int) -> _Counts:
    """Count ``g``'s distinct outputs once (``g.output_counts``) and, for
    every program, the seeds and the uniform inputs it accepts, one family
    at a time; each family walks the distinct outputs once.  Refuses, before
    expanding, programs of the wrong length (ShapeError) or outside ``g``'s
    class (ConfigurationError).

    ``programs`` is a family, or a sequence of families and single programs
    whose programs are numbered one after another.
    """
    if isinstance(programs, MaskFamily):
        programs = [programs]
    families = [f if isinstance(f, MaskFamily) else MaskFamily(f) for f in programs]
    for family in families:
        _check_width(g, family.base)
        _check_class(g, family.base)
    values, mult = g.output_counts(cap_seeds)
    seed: List[int] = []
    uniform: List[int] = []
    for family in families:
        seed += family._weighted_counts(values, mult).tolist()
        uniform += family.uniform_counts().tolist()
    work = {
        "seeds_expanded": _seeds_expanded(g),
        "distinct_outputs": len(values),
        "seed_layer_evals": len(values) * g.flat_bits * len(families),
        "programs_counted": len(seed),
    }
    return _Counts(families, seed, uniform, work)


@dataclass
class FoolingReport:
    """Worst-case exact fooling error of a generator over a program family."""

    generator: dict
    family: str
    eps_budget: Fraction
    worst_error: Fraction = Fraction(0)
    worst_program: Optional[dict] = None
    programs_checked: int = 0
    seeds_enumerated: int = 0
    passed: bool = True
    wall_seconds: float = 0.0
    rows: List[Tuple[int, str]] = field(default_factory=list)
    work: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": "fooling-report/1",
            "generator": self.generator,
            "family": self.family,
            "eps_budget": str(self.eps_budget),
            "worst_error": str(self.worst_error),
            "worst_program": self.worst_program,
            "programs_checked": self.programs_checked,
            "seeds_enumerated": self.seeds_enumerated,
            "passed": self.passed,
            "metadata": {"wall_seconds": self.wall_seconds, **self.work},
        }

    def to_csv(self) -> str:
        lines = ["program_index,error"]
        lines += [f"{i},{err}" for i, err in self.rows]
        return "\n".join(lines) + "\n"


def run_fooling_report(
    g,
    programs: Programs,
    eps_budget: Fraction,
    family: str = "family",
    cap_seeds: int = DEFAULT_CAP_BITS,
) -> FoolingReport:
    """Exact fooling error of every program; the worst is the first program
    with the largest error."""
    start = time.monotonic()
    report = FoolingReport(g.to_json(), family, eps_budget)
    counts = _count(g, programs, cap_seeds)
    n, d = g.flat_bits, g.d
    # |a / 2**d - b / 2**n| over the common denominator 2**(n + d)
    diffs = [abs((a << n) - (b << d)) for a, b in zip(counts.seed, counts.uniform)]
    report.rows = [(i, str(Fraction(diff, 1 << (n + d)))) for i, diff in enumerate(diffs)]
    if diffs:
        worst = diffs.index(max(diffs))
        report.worst_error = Fraction(diffs[worst], 1 << (n + d))
        report.worst_program = program_to_json(counts.program(worst))
    report.programs_checked = len(diffs)
    report.seeds_enumerated = 1 << g.d
    report.passed = report.worst_error <= eps_budget
    report.work = counts.work
    report.wall_seconds = time.monotonic() - start
    return report


@dataclass
class HittingReport:
    generator: dict
    family: str
    threshold: Fraction
    programs_checked: int = 0
    required: int = 0
    missed: List[int] = field(default_factory=list)
    passed: bool = True
    wall_seconds: float = 0.0
    work: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": "hitting-report/1",
            "generator": self.generator,
            "family": self.family,
            "threshold": str(self.threshold),
            "programs_checked": self.programs_checked,
            "witness_required": self.required,
            "missed_program_indices": self.missed,
            "passed": self.passed,
            "metadata": {"wall_seconds": self.wall_seconds, **self.work},
        }


def run_hitting_report(
    h,
    programs: Programs,
    family: str = "family",
    cap_seeds: int = DEFAULT_CAP_BITS,
) -> HittingReport:
    """Check the hitting contract family-wide: every program whose exact
    acceptance probability reaches the threshold (and is nonzero) must have
    a witness seed."""
    start = time.monotonic()
    report = HittingReport(h.to_json(), family, h.eps_budget)
    counts = _count(h, programs, cap_seeds)
    threshold, n = h.eps_budget, h.flat_bits
    for i, (hits, accepted) in enumerate(zip(counts.seed, counts.uniform)):
        # accepted / 2**n >= threshold, in integers
        if accepted > 0 and accepted * threshold.denominator >= threshold.numerator << n:
            report.required += 1
            if hits == 0:
                report.missed.append(i)
    report.programs_checked = len(counts.seed)
    report.passed = not report.missed
    report.work = counts.work
    report.wall_seconds = time.monotonic() - start
    return report
