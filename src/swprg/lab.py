"""Exhaustive verification: exact fooling errors, hitting checks, and the
window-program families the budgets are tested against, each family
counted in one pass (:class:`MaskFamily`).

Everything here enumerates; nothing samples for the verdicts themselves.
Every enumeration is bounded by the one cap, ``DEFAULT_CAP_BITS``, and the
harness refuses (:class:`CapExceeded`) rather than silently truncating.
"""

from __future__ import annotations

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
from .errors import (
    DEFAULT_CAP_BITS, CapExceeded, ConfigurationError, ParameterError, ShapeError, read_fraction,
)


def program_tables(p: LayeredProgram) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (n, w, 2) transition and (n, w) acceptance arrays."""
    acc = np.zeros((p.n, p.w), dtype=bool)
    for i, a in enumerate(p.acc):
        acc[i, list(a)] = True
    return np.array(p.trans, dtype=np.int64), acc


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


def _check_width(g, p: LayeredProgram) -> None:
    """Refuse a generator whose outputs are not as long as ``p``'s inputs."""
    if g.flat_bits != p.n:
        raise ShapeError(f"generator emits {g.flat_bits} bits, program reads {p.n}")


def _check_class(g, p: LayeredProgram) -> None:
    """Refuse a program outside the class where ``g``'s budget is argued: a
    window above ``g.window`` (``None``, or no such attribute, for any).  An
    interleave pays 2*max only for windows of at most its ``block_bits``,
    and a node built on one, a nested interleave too, keeps its window.
    The window depends only on the transitions, which a family's members
    share with its base, so the base decides."""
    window = getattr(g, "window", None)
    if window is None:
        return
    result = check_window(p, min(window, p.n))
    if isinstance(result, WindowViolation):
        raise ConfigurationError(
            f"interleave budget holds for window <= block_bits={window}; the "
            f"programs are not: states {result.q} and {result.q_prime} of layer "
            f"{result.layer} disagree after {list(result.word)}"
        )


# --- fooling ---------------------------------------------------------------------


def fooling_error(g, p: LayeredProgram) -> Fraction:
    """|Pr[p(G(U_d))=1] - Pr[p(U_n)=1]|, exact by full seed enumeration.

    For a tuple of programs, one per block, pass ``bp.concat(programs)``.
    """
    _check_width(g, p)
    accepted = int(batch_evaluate(p, g.expand_all()).sum())
    return abs(Fraction(accepted, 1 << g.d) - acceptance_probability(p))


# --- hitting ---------------------------------------------------------------------


def hitting_check(h, p: LayeredProgram) -> Optional[int]:
    """First seed (in seed order) whose expansion ``p`` accepts, or None."""
    _check_width(h, p)
    accepted = batch_evaluate(p, h.expand_all())
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
        if not isinstance(self.base, LayeredProgram):
            raise ParameterError("a family's base must be a LayeredProgram")
        # [i][q]: the bits of the toggle positions at layer i + 1, state q
        visits = [[0] * self.base.w for _ in range(self.base.n)]
        for j, (layer, state) in enumerate(self.positions):
            if not (type(layer) is type(state) is int
                    and 1 <= layer <= self.base.n and 0 <= state < self.base.w):
                raise ParameterError(f"toggle position {(layer, state)} outside the program")
            visits[layer - 1][state] |= 1 << j
        if self.k > DEFAULT_CAP_BITS:
            raise CapExceeded(
                f"family has 2**{self.k} labelings (cap {DEFAULT_CAP_BITS} bits)", self.k
            )
        # (layer index, mask bits of its positions, sets built so far by those bits) per
        # layer with toggle positions, see program(); a row's sum is the OR of its bits
        layer_sets = [(i, sum(row), {}) for i, row in enumerate(visits) if any(row)]
        tables = (*program_tables(self.base), np.array(visits, dtype=np.int64))
        vars(self).update(_visits=visits, _layer_sets=layer_sets, _tables=tables)

    @property
    def k(self) -> int:
        return len(self.positions)

    def __len__(self) -> int:
        return 1 << self.k

    def program(self, mask: int) -> LayeredProgram:
        """Program ``mask``: the base's accepting sets, but at each layer
        with toggle positions the set for that layer's bits of ``mask``,
        built the first time those bits are asked for.  Refuses a mask that
        is not an int (a bool is not) in 0..len(self) - 1 with IndexError."""
        if type(mask) is not int or not 0 <= mask < len(self):
            raise IndexError(mask)
        acc = list(self.base.acc)
        for i, bits, sets in self._layer_sets:
            sub = mask & bits
            if sub not in sets:
                sets[sub] = acc[i] - {s for j, (_, s) in enumerate(self.positions) if sub >> j & 1}
            acc[i] = sets[sub]
        # Built without LayeredProgram's part checks, which the base passed:
        # the member shares the base's fields but for its accepting sets,
        # each the base's set or a frozenset of some of its states.
        member = object.__new__(LayeredProgram)
        vars(member).update(vars(self.base), acc=tuple(acc))
        return member

    def _add_visits(self, hist: np.ndarray, values: np.ndarray, mult: np.ndarray) -> None:
        """Add ``mult[i]`` to ``hist[v]`` for each output ``values[i]``
        (packed) that the base accepts, v the set of toggle positions it
        visits; ``hist`` is an int64 array of ``len(self)`` entries."""
        trans, acc, bits = self._tables
        alive = np.ones(len(values), dtype=bool)
        visits = np.zeros(len(values), dtype=np.int64)
        for i, state in _states(self.base, trans, values):
            alive &= acc[i][state]
            if bits[i].any():
                visits |= bits[i][state]
        np.add.at(hist, visits[alive], mult[alive])

    def uniform_counts(self) -> np.ndarray:
        """How many of the 2**n inputs each program accepts, by mask.

        The layer DP of :func:`bp.acceptance_probability`, run over (state,
        visit set) pairs, so its cost grows with the pairs that occur, not
        with 2**n.  Counts that may not fit int64 (n >= 63) are Python ints.
        """
        p, bits = self.base, self._visits
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
    Refuses a budget that is not an int (a bool is not) or lies outside
    0..family_size_bits(n, t) with ParameterError, and one over the cap
    with CapExceeded.
    """
    canonical, _ = canonical_debruijn_swbp(n, t)  # refuses a bad window size first
    positions = _label_positions(n, t)
    k = len(positions) if budget_bits is None else budget_bits
    if type(k) is not int or not 0 <= k <= len(positions):
        raise ParameterError(
            f"budget_bits {budget_bits!r} is not an int in 0..{len(positions)} for n={n} t={t}"
        )
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
    """Every program of :func:`swbp_family` in mask order, one at a time
    (:meth:`MaskFamily.program`)."""
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
    return relabel(quotient_swbp(canonical, merge), lambda layer, state: rng.random() < 0.8)


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


def _count(g, programs: Programs) -> _Counts:
    """Walk ``g``'s distinct outputs once, a slice at a time
    (``g.output_runs``), and count, for every program, the seeds and the
    uniform inputs it accepts.  Each slice adds to every family's histogram
    of visit sets (:meth:`MaskFamily._add_visits`); then one subset-sum
    transform per family gives its seed counts.  Refuses, before
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
    hists = [np.zeros(len(family), dtype=np.int64) for family in families]
    distinct = 0
    for values, mult in g.output_runs():
        distinct += len(values)
        for family, hist in zip(families, hists):
            family._add_visits(hist, values, mult)
    seed: List[int] = []
    uniform: List[int] = []
    for family, hist in zip(families, hists):
        seed += _subset_sums_by_mask(hist).tolist()
        uniform += family.uniform_counts().tolist()
    work = {
        "seeds_expanded": g.seeds_expanded,
        "distinct_outputs": distinct,
        "seed_layer_evals": distinct * g.flat_bits * len(families),
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
            "vacuous": self.eps_budget >= 1,
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
) -> FoolingReport:
    """Exact fooling error of every program; the worst is the first program
    with the largest error.  An ``eps_budget`` below 0 or not read by
    :func:`read_fraction` (a bool or a float) is refused before expanding;
    one of 1 or more is reported ``vacuous``."""
    start = time.monotonic()
    eps = read_fraction(eps_budget, "eps_budget", "a number >= 0 (an int or a fraction string)")
    if eps < 0:
        raise ParameterError(f"eps_budget must be a number >= 0: {eps_budget!r}")
    report = FoolingReport(g.to_json(), family, eps)
    counts = _count(g, programs)
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
    report.passed = report.worst_error <= eps
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
            "vacuous": self.threshold >= 1,
            "metadata": {"wall_seconds": self.wall_seconds, **self.work},
        }


def run_hitting_report(
    h,
    programs: Programs,
    family: str = "family",
) -> HittingReport:
    """Check the hitting contract family-wide: every program whose exact
    acceptance probability is above the threshold must have a witness seed."""
    start = time.monotonic()
    report = HittingReport(h.to_json(), family, h.eps_budget)
    counts = _count(h, programs)
    threshold, n = h.eps_budget, h.flat_bits
    for i, (hits, accepted) in enumerate(zip(counts.seed, counts.uniform)):
        # accepted / 2**n > threshold, in integers
        if accepted * threshold.denominator > threshold.numerator << n:
            report.required += 1
            if hits == 0:
                report.missed.append(i)
    report.programs_checked = len(counts.seed)
    report.passed = not report.missed
    report.work = counts.work
    report.wall_seconds = time.monotonic() - start
    return report
