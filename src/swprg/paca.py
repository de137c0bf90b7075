"""Probabilistic cellular automata with unanimous acceptance, their exact
acceptance probabilities, the sliding-window stream simulation, and the
seed-enumeration derandomizers built on top of it.

A PACA has cells over a state set Q with a boundary symbol $ (represented
here as the index ``q == |Q|``).  Each step, every cell tosses a fair coin
``b`` and moves to ``delta_b(left, self, right)``.  The automaton accepts
an input x iff some configuration within the first T steps (step 0, the
input itself, included) consists of accepting states only.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bp import LayeredProgram
from .errors import DEFAULT_CAP_BITS, CapExceeded, ParameterError, ShapeError
from .generators import Exhaustive
from .hsg import HsgSpec

Configuration = Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Paca:
    """q states 0..q-1, boundary index q; delta tables are dense
    (q+1, q, q+1) int arrays indexed [left][center][right] (treat as
    read-only).  ``time_bound`` is the constant T."""

    q: int
    sigma: Tuple[int, ...]
    accepting: FrozenSet[int]
    delta0: np.ndarray
    delta1: np.ndarray
    time_bound: int

    def __post_init__(self):
        shape = (self.q + 1, self.q, self.q + 1)
        for name, table in (("delta0", self.delta0), ("delta1", self.delta1)):
            if table.shape != shape:
                raise ShapeError(f"{name} has shape {table.shape}, expected {shape}")
            if table.min() < 0 or table.max() >= self.q:
                raise ParameterError(f"{name} maps outside the state set")
        if not set(self.sigma) <= set(range(self.q)):
            raise ParameterError("input alphabet must be a subset of the states")
        if not self.accepting <= frozenset(range(self.q)):
            raise ParameterError("accepting set must be a subset of the states")
        if self.time_bound < 1:
            raise ParameterError("time bound must be positive")

    @cached_property
    def _rules(self) -> List[list]:
        """delta0/delta1 as nested lists [bit][left][center][right], far faster
        to index than numpy; equal planes are stored once (the fixtures repeat theirs)."""
        planes = {p.tobytes(): p for t in (self.delta0, self.delta1) for p in t}
        lists = {key: p.tolist() for key, p in planes.items()}
        return [[lists[p.tobytes()] for p in t] for t in (self.delta0, self.delta1)]

    @cached_property
    def _alphabet(self) -> FrozenSet[int]:
        """The input alphabet as a set, built once for :func:`_check_input`."""
        return frozenset(self.sigma)

    @cached_property
    def _rejecting(self) -> List[bool]:
        """Indexed by state or boundary: is it a state outside the accepting set?"""
        return [s not in self.accepting for s in range(self.q)] + [False]

    @property
    def boundary(self) -> int:
        return self.q

    def delta(self, bit: int, left: int, center: int, right: int) -> int:
        """Extended local rule: out-of-bounds cells stay at the boundary."""
        if center == self.q:
            return self.q
        return self._rules[bit][left][center][right]

    def config_accepting(self, config: Configuration) -> bool:
        return all(s in self.accepting for s in config)


def step(c: Paca, config: Configuration, row: Sequence[int]) -> Configuration:
    """One synchronous step with coin row ``row``; borders padded with $."""
    n = len(config)
    if len(row) != n:
        raise ShapeError(f"row length {len(row)} != configuration length {n}")
    padded = (c.boundary, *config, c.boundary)
    return tuple(
        c.delta(row[i], padded[i], padded[i + 1], padded[i + 2]) for i in range(n)
    )


def successors(c: Paca, config: Configuration) -> Dict[Configuration, int]:
    """Every configuration one step after ``config``, with the number of the
    2**n coin rows leading to it, built cell by cell (cells toss independent
    coins): each cell has two outcomes, merged when they are equal."""
    padded = (c.boundary, *config, c.boundary)
    prefixes: Dict[Configuration, int] = {(): 1}
    for i in range(len(config)):
        cell = [c.delta(bit, *padded[i : i + 3]) for bit in (0, 1)]
        outcomes = {s: cell.count(s) for s in cell}
        prefixes = {
            prefix + (s,): count * mult
            for prefix, count in prefixes.items()
            for s, mult in outcomes.items()
        }
    return prefixes


def _check_input(c: Paca, x: Sequence[int]) -> Tuple[int, ...]:
    x = tuple(x)
    if not x:
        raise ParameterError("empty input")
    if not c._alphabet.issuperset(x):
        raise ParameterError("input symbol outside the alphabet")
    return x


class AcceptResult(NamedTuple):
    accept: bool
    first_step: Optional[int]


def accepts(c: Paca, x: Sequence[int], matrix: Sequence[Sequence[int]]) -> AcceptResult:
    """C(x, R): scan configurations at steps 0..T-1 for an all-accepting one."""
    x = _check_input(c, x)
    T = c.time_bound
    if len(matrix) != T or any(len(row) != len(x) for row in matrix):
        raise ShapeError(f"coin matrix must be {T} x {len(x)}")
    config = x
    for t in range(T):
        if c.config_accepting(config):
            return AcceptResult(True, t)
        if t < T - 1:
            config = step(c, config, matrix[t])
    return AcceptResult(False, None)


def exact_accept_probability(c: Paca, x: Sequence[int]) -> Fraction:
    """Pr over uniform coin matrices that C accepts x: 1 if step 0 accepts,
    otherwise the share of coin matrices whose step mask over steps 1..T-1
    (:func:`_step_vector_distribution`) is non-empty."""
    x = _check_input(c, x)
    if c.config_accepting(x):
        return Fraction(1)
    counts, bits = _step_vector_distribution(c, x)
    return 1 - Fraction(counts.get(0, 0), 1 << bits)


def accept_probability_bruteforce(c: Paca, x: Sequence[int]) -> Fraction:
    """Second oracle: enumerate all 2**(T*n) coin matrices, at most 2**22."""
    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    total_bits = T * n
    if total_bits > 22:
        raise CapExceeded(
            f"matrix enumeration needs 2**{total_bits} runs (cap 22)",
            total_bits,
        )
    count = 0
    for r in range(1 << total_bits):
        matrix = [[(r >> (t * n + j)) & 1 for j in range(n)] for t in range(T)]
        if accepts(c, x, matrix).accept:
            count += 1
    return Fraction(count, 1 << total_bits)


# --- sliding-window simulation ------------------------------------------------------


def stream_to_matrix(r: int, n: int, T: int) -> List[List[int]]:
    """R(i, j) = r(i + j*T): column j holds the bits of outer iteration j."""
    return [[(r >> (i + j * T)) & 1 for j in range(n + T)] for i in range(T)]


def derived_matrix(R: Sequence[Sequence[int]], n: int, T: int) -> List[List[int]]:
    """R'(i, j) = R(i, i + j + 1): the coins actually fed to the automaton."""
    return [[R[i][i + j + 1] for j in range(n)] for i in range(T)]


def sliding_sim(c: Paca, x: Sequence[int], t_set) -> LayeredProgram:
    """The stream program S_{t_set} over m = (n+T)*T random bits.

    It simulates the automaton on input x (hardcoded) by sweeping a window
    over the time-space diagram, and accepts a stream iff the configuration
    at every step in ``t_set`` is all-accepting.  States are
    (state_left[T], state_center[T], state_right) over Q + boundary; the
    per-step checks live in the layer accepting sets (a sticky flag would
    destroy the sliding-window property), so the program is a window-size
    O(T^2) program.
    """
    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    t_set = frozenset(t_set)
    if not t_set or not t_set <= set(range(1, T + 1)):
        raise ParameterError(f"t_set must be a non-empty subset of 1..{T}")
    m = (n + T) * T
    b = c.boundary
    start = ((b,) * T, (b,) * T, b)
    layer_states: List[Tuple] = [start]
    index = {start: 0}
    trans: List[List[Tuple[int, int]]] = []
    acc: List[set] = []
    for layer in range(m):
        j, tau = divmod(layer, T)
        nxt_index: Dict[Tuple, int] = {}
        nxt_states: List[Tuple] = []
        nxt_acc = set()
        check = (tau + 1) in t_set
        table: List[Tuple[int, int]] = []
        for state in layer_states:
            row = []
            left, center, right = state
            if tau == 0:
                right = x[j] if j < n else b
            for bit in (0, 1):
                new = c.delta(bit, left[tau], center[tau], right)
                nstate = (
                    left[:tau] + (center[tau],) + left[tau + 1 :],
                    center[:tau] + (right,) + center[tau + 1 :],
                    new,
                )
                if nstate not in nxt_index:
                    nxt_index[nstate] = len(nxt_states)
                    nxt_states.append(nstate)
                    if not check or new == b or new in c.accepting:
                        nxt_acc.add(nxt_index[nstate])
                row.append(nxt_index[nstate])
            table.append((row[0], row[1]))
        trans.append(table)
        acc.append(nxt_acc)
        layer_states = nxt_states
        index = nxt_index
    w = max(max(len(tbl) for tbl in trans), len(layer_states), 1)
    padded = tuple(tuple(tbl) + ((0, 0),) * (w - len(tbl)) for tbl in trans)
    return LayeredProgram(m, w, 0, padded, tuple(frozenset(a) for a in acc))


def accepting_steps_of_stream(c: Paca, x: Sequence[int], r: int) -> int:
    """Bitmask over steps 1..T of the steps whose configuration is
    all-accepting, running the window sweep directly on the stream ``r``
    (bit L of r is the coin of sweep layer L = j*T + tau).  Equivalent to
    evaluating every S_{{s}} on r in one pass."""
    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    b = c.boundary
    rules, rejecting = c._rules, c._rejecting
    left = [b] * T
    center = [b] * T
    mask = (1 << (T + 1)) - 2  # steps 1..T assumed accepting until refuted
    for j in range(n + T):
        right = x[j] if j < n else b
        for tau in range(T):
            cell = center[tau]
            # the boundary rule of Paca.delta, inlined: $ stays $
            new = b if cell == b else rules[r & 1][left[tau]][cell][right]
            r >>= 1
            left[tau] = cell
            center[tau] = right
            right = new
            if rejecting[new]:
                mask &= ~(2 << tau)
    return mask


# --- derandomizers --------------------------------------------------------------------


# (stream bits m, error or threshold) -> generator or HSG emitting m bits
Builder = Callable[[int, Fraction], object]


def derandomize_one_sided(
    c: Paca, x: Sequence[int], eps: Fraction, hsg_builder: Builder,
    cap_seeds: int = DEFAULT_CAP_BITS,
) -> bool:
    """Deterministic decision for a one-sided eps-error PACA.

    Accepts iff step 0 accepts directly or some (t, seed) makes S_{{t}}
    accept the HSG output, with hitting threshold eps/T: that is, iff some
    seed's stream has a non-empty step mask.  eps is the floor on the
    acceptance probability of inputs in the language.
    """
    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    if c.config_accepting(x):
        return True
    h = hsg_builder((n + T) * T, Fraction(eps) / T)
    counts, _ = step_vector_counts(c, x, h, cap_seeds)
    return any(counts)


class TwoSidedResult(NamedTuple):
    accept: bool
    eta: Fraction
    eta_terms: Dict[FrozenSet[int], Fraction]


def derandomize_two_sided(
    c: Paca, x: Sequence[int], eps: Fraction, prg_builder: Builder,
    cap_seeds: int = DEFAULT_CAP_BITS,
) -> TwoSidedResult:
    """Inclusion-exclusion estimate of the acceptance probability.

    eta = sum over non-empty step subsets t of (-1)^(|t|+1) * eta_t, where
    eta_t estimates Pr[all steps in t accepting] through the PRG (error
    parameter eps / 2**T); accept iff eta > 1/2.  Step 0 is deterministic
    and handled directly.  Every eta_t is a count of the step masks that
    contain t, over the generator's seeds.
    """
    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    if c.config_accepting(x):
        return TwoSidedResult(True, Fraction(1), {})
    g = prg_builder((n + T) * T, Fraction(eps) / (1 << T))
    counts, bits = step_vector_counts(c, x, g, cap_seeds)
    steps = range(1, T)
    eta_count = 0
    eta_terms: Dict[FrozenSet[int], Fraction] = {}
    for sub in range(1, 1 << len(steps)):
        members = [s for idx, s in enumerate(steps) if (sub >> idx) & 1]
        t_mask = sum(1 << s for s in members)
        count = sum(cnt for v, cnt in counts.items() if v & t_mask == t_mask)
        eta_terms[frozenset(members)] = Fraction(count, 1 << bits)
        eta_count += count if len(members) % 2 == 1 else -count
    eta = Fraction(eta_count, 1 << bits)
    return TwoSidedResult(eta > Fraction(1, 2), eta, eta_terms)


def step_vector_counts(
    c: Paca, x: Tuple[int, ...], g, cap_seeds: int = DEFAULT_CAP_BITS
) -> Tuple[Dict[int, int], int]:
    """Counts of each step mask (the steps 1..T-1 whose configuration is
    all-accepting) over 2**bits equally likely outcomes, and ``bits``.

    ``g`` emits the (n+T)*T-bit coin stream.  An exhaustive generator (or an
    HSG over one) emits every stream once, so the outcomes are the coin
    matrices of the configuration chain that :func:`exact_accept_probability`
    reads too, in the same proportions; for any other generator they are
    its seeds: each distinct stream is swept once and weighted by how many
    seeds emit it.
    """
    n, T = len(x), c.time_bound
    m = (n + T) * T
    if g.flat_bits != m:
        raise ShapeError(f"generator emits {g.flat_bits} bits, stream needs {m}")
    if isinstance(g.carrier if isinstance(g, HsgSpec) else g, Exhaustive):
        return _step_vector_distribution(c, x)
    steps_mask = (1 << T) - 2
    counts: Dict[int, int] = {}
    streams, mult = g.output_counts(cap_seeds)
    for r, k in zip(streams.tolist(), mult.tolist()):
        v = accepting_steps_of_stream(c, x, r) & steps_mask
        counts[v] = counts.get(v, 0) + k
    return counts, g.d


def _step_vector_distribution(c: Paca, x: Tuple[int, ...]) -> Tuple[Dict[int, int], int]:
    """Joint distribution of the acceptance indicators of steps 1..T-1 (as
    bit masks), via the configuration Markov chain: how many coin matrices
    of T-1 rows give each mask, and the log2 of their total.  Each step
    walks :func:`successors`."""
    n, T = len(x), c.time_bound
    counts: Dict[Tuple[Configuration, int], int] = {(x, 0): 1}
    for s in range(1, T):
        nxt: Dict[Tuple[Configuration, int], int] = {}
        for (config, v), count in counts.items():
            for nc, mult in successors(c, config).items():
                key = (nc, v | (1 << s) if c.config_accepting(nc) else v)
                nxt[key] = nxt.get(key, 0) + count * mult
        counts = nxt
    out: Dict[int, int] = {}
    for (_, v), count in counts.items():
        out[v] = out.get(v, 0) + count
    return out, (T - 1) * n


# --- fixtures -------------------------------------------------------------------------


def _leftmost_cell_paca(
    cell_states: Sequence,
    cell_next: Callable[[object, int], object],
    cell_accepting: Sequence,
    time_bound: int,
) -> Paca:
    """A PACA where every cell except the leftmost is unconditionally in an
    accepting idle state from step 1 on; the leftmost (recognized by a $
    left neighbor) runs the given machine seeded by the input symbols 0/1.

    ``cell_next(label, coin)`` must be total on {"in0", "in1"} plus the
    machine labels.  The right neighbor is never consulted.
    """
    labels = ["in0", "in1", "idle"] + list(cell_states)
    idx = {lab: i for i, lab in enumerate(labels)}
    q = len(labels)
    delta = np.zeros((2, q + 1, q, q + 1), dtype=np.int16)
    for center_lab in labels:
        ci = idx[center_lab]
        for bit in (0, 1):
            if center_lab == "idle":
                cell_target = idx["idle"]
            else:
                cell_target = idx[cell_next(center_lab, bit)]
            for left in range(q + 1):
                target = cell_target if left == q else idx["idle"]
                delta[bit, left, ci, :] = target
    accepting = frozenset({idx["idle"]} | {idx[lab] for lab in cell_accepting})
    return Paca(
        q=q,
        sigma=(idx["in0"], idx["in1"]),
        accepting=accepting,
        delta0=delta[0],
        delta1=delta[1],
        time_bound=time_bound,
    )


@lru_cache(maxsize=None)
def build_c1() -> Paca:
    """Leftmost cell collects 8 coins r_1..r_8; it becomes accepting for
    steps 9..12 iff r_1 = r_2 = 0, then dies.  Accepts any input with
    probability exactly 1/4.  T = 10."""
    states = [("collect", k, ok) for k in range(1, 9) for ok in (False, True)]
    states += [("show", j) for j in range(1, 5)] + ["dead"]

    def nxt(label, coin):
        if label in ("in0", "in1"):
            return ("collect", 1, coin == 0)
        if label[0] == "collect":
            _, k, ok = label
            if k < 8:
                return ("collect", k + 1, ok and coin == 0 if k + 1 == 2 else ok)
            return ("show", 1) if ok else "dead"
        if label[0] == "show":
            j = label[1]
            return ("show", j + 1) if j < 4 else "dead"
        return "dead"

    return _leftmost_cell_paca(states, nxt, [("show", j) for j in range(1, 5)], 10)


@lru_cache(maxsize=None)
def build_c2() -> Paca:
    """Leftmost cell collects 8 coins pairwise (z_j = [r_{2j-1} = r_{2j} = 0]);
    it is accepting at step 8+j iff z_j, then dies.  Accepts any input with
    probability exactly 1 - (3/4)**4 = 175/256.  T = 13."""
    states: List = []
    for k in range(1, 9):
        npairs = k // 2
        for flags in product((False, True), repeat=npairs):
            if k % 2 == 1:
                states += [("collect", k, flags, False), ("collect", k, flags, True)]
            else:
                states.append(("collect", k, flags, None))
    for j in range(1, 5):
        for flags in product((False, True), repeat=5 - j):
            states.append(("show", j, flags))
    states.append("dead")

    def nxt(label, coin):
        if label in ("in0", "in1"):
            return ("collect", 1, (), coin == 0)
        if label[0] == "collect":
            _, k, flags, pending = label
            if k % 2 == 1:
                return ("collect", k + 1, flags + (pending and coin == 0,), None)
            if k < 8:
                return ("collect", k + 1, flags, coin == 0)
            return ("show", 1, flags)
        if label[0] == "show":
            _, j, flags = label
            return ("show", j + 1, flags[1:]) if j < 4 else "dead"
        return "dead"

    accepting = [
        ("show", j, flags)
        for j in range(1, 5)
        for flags in product((False, True), repeat=5 - j)
        if flags[0]
    ]
    return _leftmost_cell_paca(states, nxt, accepting, 13)


def sample_paca(rng: random.Random, q: int, time_bound: int) -> Paca:
    """Seeded random PACA: dense random local rules, a random non-trivial
    accepting set, full input alphabet."""
    if q < 2:
        raise ParameterError("need at least two states")
    delta = np.zeros((2, q + 1, q, q + 1), dtype=np.int16)
    for bit in (0, 1):
        for left in range(q + 1):
            for center in range(q):
                for right in range(q + 1):
                    delta[bit, left, center, right] = rng.randrange(q)
    size = rng.randint(1, q - 1)
    accepting = frozenset(rng.sample(range(q), size))
    return Paca(
        q=q,
        sigma=tuple(range(q)),
        accepting=accepting,
        delta0=delta[0],
        delta1=delta[1],
        time_bound=time_bound,
    )


# --- diagnostics and serialization ----------------------------------------------------


def check_time_bound(c: Paca, n: int) -> bool:
    """Does every accepting computation at length n first reach an
    all-accepting configuration strictly before step T?  Follows for T steps
    the configurations reachable without an accepting visit; the bound fails
    iff an accepting configuration is reachable from the step-T frontier
    through non-accepting configurations."""
    def reach(configs) -> set:
        return {nc for cf in configs for nc in successors(c, cf)}

    for x in product(c.sigma, repeat=n):
        frontier = {x}
        for _ in range(c.time_bound):
            frontier = reach(cf for cf in frontier if not c.config_accepting(cf))
        seen = set()
        while frontier:
            if any(c.config_accepting(cf) for cf in frontier):
                return False
            seen |= frontier
            frontier = reach(frontier) - seen
    return True


def spacetime_diagram(c: Paca, x: Sequence[int], matrix: Sequence[Sequence[int]]) -> str:
    """Plain-text grid of configurations for steps 0..T-1 ($ never shown:
    only in-bounds cells are printed)."""
    x = _check_input(c, x)
    config = x
    lines = []
    for t in range(c.time_bound):
        mark = "*" if c.config_accepting(config) else " "
        lines.append(f"t={t:3d} {mark} " + " ".join(str(s) for s in config))
        if t < c.time_bound - 1:
            config = step(c, config, matrix[t])
    return "\n".join(lines)


def paca_to_json(c: Paca) -> dict:
    return {
        "states": c.q,
        "sigma": list(c.sigma),
        "accepting": sorted(c.accepting),
        "boundary": c.boundary,
        "delta0": c.delta0.tolist(),
        "delta1": c.delta1.tolist(),
        "time_bound": c.time_bound,
    }


def paca_from_json(data: dict) -> Paca:
    return Paca(
        q=data["states"],
        sigma=tuple(data["sigma"]),
        accepting=frozenset(data["accepting"]),
        delta0=np.array(data["delta0"], dtype=np.int16),
        delta1=np.array(data["delta1"], dtype=np.int16),
        time_bound=data["time_bound"],
    )


def load_paca(path: str) -> Paca:
    with open(path) as fh:
        return paca_from_json(json.load(fh))
