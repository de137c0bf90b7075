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
import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from .errors import DEFAULT_CAP_BITS, CapExceeded, ParameterError, ShapeError, read_fraction

if TYPE_CHECKING:
    import random

    from .bp import LayeredProgram

Configuration = Tuple[int, ...]
# a local rule delta_b as [left][center][right] -> next state
Table = Tuple[Tuple[Tuple[int, ...], ...], ...]


def _freeze_tables(q: int, **tables) -> Dict[str, Table]:
    """Each of ``tables`` (any nested sequences, numpy arrays included) as
    nested tuples of ints [left][center][right], every distinct row and plane
    stored once across all of them.  Refuses a shape other than (q+1, q, q+1)
    with ShapeError, and an entry that is not an int in 0..q-1 with
    ParameterError; both are checked on the distinct rows only."""
    rows: Dict[tuple, tuple] = {}
    planes: Dict[tuple, tuple] = {}
    # id of an input row or plane -> (it, its frozen form); holding it keeps
    # the id from being reused by another object while the tables are frozen
    seen: Dict[int, tuple] = {}

    def freeze(seq, item, distinct):
        hit = seen.get(id(seq))
        if hit is None:
            frozen = tuple(map(item, seq))
            hit = seen[id(seq)] = (seq, distinct.setdefault(frozen, frozen))
        return hit[1]

    def row(seq):
        return freeze(seq, operator.index, rows)

    def plane(seq):
        return freeze(seq, row, planes)

    out = {}
    for name, table in tables.items():
        try:
            out[name] = tuple(map(plane, table))
        except TypeError as exc:
            raise ParameterError(f"{name} is not a table of ints: {exc}") from exc
        if len(out[name]) != q + 1:
            raise ShapeError(f"{name} has {len(out[name])} planes, expected {q + 1}")
    if any(len(p) != q for p in planes):
        raise ShapeError(f"a delta table plane does not have {q} rows")
    if any(len(r) != q + 1 for r in rows):
        raise ShapeError(f"a delta table row does not have {q + 1} entries")
    if any(min(r) < 0 or max(r) >= q for r in rows):
        raise ParameterError("a delta table maps outside the state set")
    return out


def _states_of(symbols, q: int) -> bool:
    """Is every one of ``symbols`` an int (a bool is not) in 0..q-1?"""
    return all(type(s) is int and 0 <= s < q for s in symbols)


class Paca:
    """q states 0..q-1, boundary index q; delta tables are nested tuples of
    ints indexed [left][center][right], of shape (q+1, q, q+1), with equal
    rows and planes shared.  Any nested sequence of ints (a numpy array
    too) is accepted and frozen into that form.  ``time_bound`` is the
    constant T.  Read-only once built; equal only to itself."""

    q: int
    sigma: Tuple[int, ...]
    accepting: FrozenSet[int]
    delta0: Table
    delta1: Table
    time_bound: int

    def __init__(self, q: int, sigma: Tuple[int, ...], accepting: FrozenSet[int],
                 delta0, delta1, time_bound: int):
        for name, value in (("states", q), ("time bound", time_bound)):
            if type(value) is not int or value < 1:
                raise ParameterError(f"{name} must be an int >= 1: {value!r}")
        tables = _freeze_tables(q, delta0=delta0, delta1=delta1)
        if not sigma or not _states_of(sigma, q):
            raise ParameterError("input alphabet must be a non-empty subset of the states")
        if not _states_of(accepting, q):
            raise ParameterError("accepting set must be a subset of the states")
        # written past __setattr__, as the cached properties below are
        vars(self).update(q=q, sigma=tuple(sigma), accepting=frozenset(accepting),
                          time_bound=time_bound, **tables)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Paca is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Paca is read-only: cannot delete {name!r}")

    @cached_property
    def _alphabet(self) -> FrozenSet[int]:
        """The input alphabet as a set, built once for :func:`_check_input`."""
        return frozenset(self.sigma)

    @cached_property
    def _rejecting(self) -> List[bool]:
        """Indexed by state, $ included: is it outside the accepting set?"""
        return [s not in self.accepting for s in range(self.q)] + [False]

    @cached_property
    def _row_step(self) -> Callable[[Configuration, int], Tuple[Configuration, bool]]:
        """(configuration, coins) -> (next configuration, is it all-accepting?)
        for one step of the in-bounds cells, cell k (counted from 1) reading
        bit (k-1)*T of ``coins``; memoized for the last 4,096 pairs, the
        ``generators.CHUNK`` streams a sweep holds at once."""
        b, T = self.boundary, self.time_bound
        rules, rejecting = (self.delta0, self.delta1), self._rejecting

        @lru_cache(maxsize=1 << 12)
        def row_step(cells: Configuration, coins: int) -> Tuple[Configuration, bool]:
            config = [b, *cells, b]  # in-bounds cells never leave Q, so the $ ends stay
            left = b  # cell k-1 before this step
            accepting = True
            for k in range(1, len(config) - 1):
                center = config[k]
                new = config[k] = rules[coins & 1][left][center][config[k + 1]]
                coins >>= T
                left = center
                if rejecting[new]:
                    accepting = False
            return tuple(config[1:-1]), accepting

        return row_step

    @cached_property
    def _sweeper(self) -> Callable[[Configuration], Tuple[int, int, Callable[[int], int]]]:
        """checked input -> (2**m, the mask of the stream bits its in-bounds
        cells read, read coins -> step mask), m = (n+T)*T, for the last 16
        inputs.  Each input's step masks are memoized for the last 4,096
        read patterns, a miss making T lookups of :attr:`_row_step`."""
        T, row_step = self.time_bound, self._row_step

        @lru_cache(maxsize=16)
        def sweeper(x: Configuration) -> Tuple[int, int, Callable[[int], int]]:
            n = len(x)
            row = ((1 << n * T) - 1) // ((1 << T) - 1)  # bit (k-1)*T for cells k = 1..n
            # bit i + (i+k)*T, for steps i+1 = 1..T and cells k = 1..n
            read = (row * ((1 << (T + 1) * T) - 1) // ((1 << T + 1) - 1)) << T

            @lru_cache(maxsize=1 << 12)
            def steps(coins: int) -> int:
                config, mask = x, 0
                for i in range(T):
                    config, accepting = row_step(config, coins >> (i + (i + 1) * T) & row)
                    if accepting:
                        mask |= 2 << i
                return mask

            return 1 << (n + T) * T, read, steps

        return sweeper

    @cached_property
    def _recent_sweep(self) -> list:
        """One slot: the input tuple of the latest call of
        :func:`accepting_steps_of_stream`, checked, with its :attr:`_sweeper`
        entry, swapped whole so threads sharing the Paca read one entry; it
        starts with an input no caller can pass."""
        return [(object(), 0, 0, None)]

    @property
    def boundary(self) -> int:
        return self.q

    def delta(self, bit: int, left: int, center: int, right: int) -> int:
        """Extended local rule: out-of-bounds cells stay at the boundary."""
        if center == self.q:
            return self.q
        return (self.delta1 if bit else self.delta0)[left][center][right]

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


def _check_input(c: Paca, x: Sequence[int]) -> Tuple[int, ...]:
    """``x`` as a tuple; refuses it with ParameterError if it is not
    iterable, is empty or has a symbol that is not an int (a bool is not)
    of the alphabet."""
    try:
        x = tuple(x)
    except TypeError:
        raise ParameterError(f"input {x!r} is not a sequence of symbols") from None
    if not x:
        raise ParameterError("empty input")
    if not all(type(s) is int for s in x) or not c._alphabet.issuperset(x):
        raise ParameterError("input symbol outside the alphabet")
    return x


def _configurations(
    c: Paca, x: Sequence[int], matrix: Sequence[Sequence[int]]
) -> Iterator[Configuration]:
    """The configurations at steps 0..T-1 on ``x``, row t of the T x n coin
    ``matrix`` making step t+1; checks both up front, then steps lazily."""
    config, T = _check_input(c, x), c.time_bound
    if len(matrix) != T or any(len(row) != len(config) for row in matrix):
        raise ShapeError(f"coin matrix must be {T} x {len(config)}")
    yield config
    for row in matrix[: T - 1]:
        config = step(c, config, row)
        yield config


class AcceptResult(NamedTuple):
    accept: bool
    first_step: Optional[int]


def accepts(c: Paca, x: Sequence[int], matrix: Sequence[Sequence[int]]) -> AcceptResult:
    """C(x, R): scan configurations at steps 0..T-1 for an all-accepting one."""
    for t, config in enumerate(_configurations(c, x, matrix)):
        if c.config_accepting(config):
            return AcceptResult(True, t)
    return AcceptResult(False, None)


def exact_accept_probability(c: Paca, x: Sequence[int]) -> Fraction:
    """Pr over uniform coin matrices that C accepts x: 1 if step 0 accepts,
    otherwise the share of coin matrices whose step mask over steps 1..T-1
    is non-empty, as the window sweep counts them (:func:`_step_vector_distribution`)."""
    x = _check_input(c, x)
    if c.config_accepting(x):
        return Fraction(1)
    counts, bits = _step_vector_distribution(c, x)
    return 1 - Fraction(counts.get(0, 0), 1 << bits)


def accept_probability_bruteforce(c: Paca, x: Sequence[int]) -> Fraction:
    """Second oracle: enumerate all 2**(T*n) coin matrices, up to the cap."""
    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    total_bits = T * n
    if total_bits > DEFAULT_CAP_BITS:
        raise CapExceeded(
            f"matrix enumeration needs 2**{total_bits} runs (cap {DEFAULT_CAP_BITS} bits)",
            total_bits,
        )
    count = 0
    for r in range(1 << total_bits):
        matrix = [[(r >> (t * n + j)) & 1 for j in range(n)] for t in range(T)]
        if accepts(c, x, matrix).accept:
            count += 1
    return Fraction(count, 1 << total_bits)


# --- sliding-window simulation ------------------------------------------------------


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
    from .bp import LayeredProgram

    x = _check_input(c, x)
    n, T = len(x), c.time_bound
    t_set = frozenset(t_set)
    if not t_set or not t_set <= set(range(1, T + 1)):
        raise ParameterError(f"t_set must be a non-empty subset of 1..{T}")
    m = (n + T) * T
    b = c.boundary
    start = ((b,) * T, (b,) * T, b)
    layer_states: List[Tuple] = [start]
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
    w = max(max(len(tbl) for tbl in trans), len(layer_states), 1)
    padded = tuple(tuple(tbl) + ((0, 0),) * (w - len(tbl)) for tbl in trans)
    return LayeredProgram(m, w, 0, padded, tuple(frozenset(a) for a in acc))


def accepting_steps_of_stream(c: Paca, x: Sequence[int], r: int) -> int:
    """Bitmask over steps 1..T of the steps whose configuration is
    all-accepting, for the coins the stream ``r`` feeds the automaton: at
    step i+1, cell k (counted from 1) reads bit i + (i+k)*T of r, the coin
    that layer (i+k)*T + i of the window sweep of :func:`sliding_sim` uses.
    No other bit is read, so it equals evaluating every S_{s} on r, in one
    pass, and is one lookup of the read bits of r in the input's memo
    (:attr:`Paca._sweeper`).  The input is checked unless it is the very
    tuple of the latest call, checked then: a tuple cannot change, nor can
    the Paca.  Refuses a stream that is not an int in 0..2**m - 1,
    m = (n+T)*T, with ShapeError."""
    checked, end, read, steps = c._recent_sweep[0]
    if checked is not x:
        checked = _check_input(c, x)
        end, read, steps = c._sweeper(checked)
        c._recent_sweep[0] = checked, end, read, steps
    if type(r) is not int or not 0 <= r < end:
        m = (len(checked) + c.time_bound) * c.time_bound
        raise ShapeError(f"stream {r!r} is outside the ints 0..2**{m} - 1")
    return steps(r & read)


# --- derandomizers --------------------------------------------------------------------


# (stream bits m, error or threshold) -> generator emitting m bits; the one-sided
# derandomizer reads it as an HSG, its budget the hitting threshold
Builder = Callable[[int, Fraction], object]


def _check_eps(eps) -> Fraction:
    """``eps`` as a Fraction (:func:`read_fraction`); refuses it with
    ParameterError unless it is a number strictly between 0 and 1."""
    eps = read_fraction(eps, "eps")
    if not 0 < eps < 1:
        raise ParameterError(f"eps must lie strictly between 0 and 1: {eps}")
    return eps


def derandomize_one_sided(
    c: Paca, x: Sequence[int], eps: Fraction, hsg_builder: Optional[Builder]
) -> bool:
    """Deterministic decision for a one-sided eps-error PACA.

    Accepts iff step 0 accepts directly or some (t, seed) makes S_{t}
    accept the HSG output, with hitting threshold eps/T: that is, iff some
    seed's stream has a non-empty step mask.  eps is a strict floor: every
    input in the language is accepted with probability above eps.  A ``None`` builder
    takes every coin matrix once, as an exhaustive generator would.
    Refuses an eps outside (0, 1) with ParameterError.
    """
    x, eps = _check_input(c, x), _check_eps(eps)
    n, T = len(x), c.time_bound
    if c.config_accepting(x):
        return True
    h = None if hsg_builder is None else hsg_builder((n + T) * T, eps / T)
    counts, _ = step_vector_counts(c, x, h)
    return any(counts)


class EtaTerms(Mapping):
    """The terms eta_t of a two-sided run, each a ``Fraction`` keyed by the
    frozenset of steps t, built from the step-mask counts the first time
    they are read (:func:`_two_sided_terms`); a caller that reads only eta
    never builds them."""

    def __init__(self, counts: Dict[int, int], bits: int, T: int):
        self._source = (counts, bits, T)

    @cached_property
    def _terms(self) -> Dict[FrozenSet[int], Fraction]:
        return _two_sided_terms(*self._source)

    def __getitem__(self, steps: FrozenSet[int]) -> Fraction:
        return self._terms[steps]

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return repr(self._terms)


class TwoSidedResult(NamedTuple):
    accept: bool
    eta: Fraction
    eta_terms: Mapping[FrozenSet[int], Fraction]


def derandomize_two_sided(
    c: Paca, x: Sequence[int], eps: Fraction, prg_builder: Optional[Builder]
) -> TwoSidedResult:
    """Inclusion-exclusion estimate of the acceptance probability.

    eta = sum over non-empty step subsets t of (-1)^(|t|+1) * eta_t, where
    eta_t estimates Pr[all steps in t accepting] through the PRG (error
    parameter eps / 2**T); accept iff eta > 1/2.  Step 0 is deterministic
    and handled directly.  Every eta_t is a count of the step masks that
    contain t, over the generator's seeds.  As every term counts the same
    outcomes, the signed sum counts each outcome once per non-empty step
    mask (its subsets' signs sum to 1), so eta is the share of outcomes
    whose mask is not empty, and the terms (:class:`EtaTerms`) are built
    only when read.  A ``None`` builder takes every coin matrix once, as an
    exhaustive generator would.  Refuses an eps outside (0, 1) with
    ParameterError.
    """
    x, eps = _check_input(c, x), _check_eps(eps)
    n, T = len(x), c.time_bound
    if c.config_accepting(x):
        return TwoSidedResult(True, Fraction(1), {})
    g = None if prg_builder is None else prg_builder((n + T) * T, eps / (1 << T))
    counts, bits = step_vector_counts(c, x, g)
    eta = 1 - Fraction(counts.get(0, 0), 1 << bits)
    return TwoSidedResult(eta > Fraction(1, 2), eta, EtaTerms(counts, bits, T))


def _two_sided_terms(
    counts: Dict[int, int], bits: int, T: int
) -> Dict[FrozenSet[int], Fraction]:
    """eta_t for every non-empty subset t of the steps 1..T-1, in the order
    of t's bit mask, from the step-mask counts over 2**bits outcomes: one
    superset-sum transform over the 2**(T-1) step subsets gives them all."""
    # contains[sub]: the outcomes whose step mask contains the steps s with
    # bit s-1 of sub set, by one superset-sum (Yates) transform
    size = 1 << (T - 1)
    contains = [0] * size
    for v, cnt in counts.items():
        contains[v >> 1] += cnt
    bit = 1
    while bit < size:
        for sub in range(size):
            if not sub & bit:
                contains[sub] += contains[sub | bit]
        bit <<= 1
    eta_terms: Dict[FrozenSet[int], Fraction] = {}
    steps_of: List[Tuple[int, ...]] = [()] * size  # the steps of each sub
    for sub in range(1, size):
        low = sub & -sub
        steps = steps_of[sub] = steps_of[sub ^ low] + (low.bit_length(),)
        eta_terms[frozenset(steps)] = Fraction(contains[sub], 1 << bits)
    return eta_terms


def step_vector_counts(c: Paca, x: Tuple[int, ...], g) -> Tuple[Dict[int, int], int]:
    """Counts of each step mask (the steps 1..T-1 whose configuration is
    all-accepting) over 2**bits equally likely outcomes, and ``bits``.

    ``g`` emits the (n+T)*T-bit coin stream.  ``None`` or an exhaustive
    generator stands for every stream once, so the outcomes are the coin
    matrices that the window sweep counts for :func:`exact_accept_probability`
    too (:func:`_step_vector_distribution`), in the same proportions;
    for any other generator they are its seeds: each distinct stream is
    swept once and weighted by how many seeds emit it.  The sweep walks
    the generator's slices of distinct streams and their weights
    (:meth:`generators.GeneratorSpec.output_runs`), so it holds at most
    ``CHUNK`` of them at once, as Python ints or in numpy arrays.
    """
    if g is None:
        return _step_vector_distribution(c, x)
    from .generators import Exhaustive  # loaded already by whoever built g

    n, T = len(x), c.time_bound
    m = (n + T) * T
    if g.flat_bits != m:
        raise ShapeError(f"generator emits {g.flat_bits} bits, stream needs {m}")
    if isinstance(g, Exhaustive):
        return _step_vector_distribution(c, x)
    steps_mask = (1 << T) - 2
    counts: Dict[int, int] = {}
    sweep = partial(accepting_steps_of_stream, c, x)
    for streams, mult in g.output_runs():
        # map makes the per-stream calls from C
        for v, k in zip(map(sweep, streams.tolist()), mult.tolist()):
            v &= steps_mask
            counts[v] = counts.get(v, 0) + k
    return counts, g.d


def _step_vector_distribution(c: Paca, x: Tuple[int, ...]) -> Tuple[Dict[int, int], int]:
    """How many coin matrices of T-1 rows give each mask of all-accepting
    steps 1..T-1, and the log2 of their total: the window sweep of
    :func:`sliding_sim` over those rows, as a DP whose entries are the sweep
    state (left[T-1], center[T-1], right) and the mask of steps that met a
    rejecting cell.  Only in-bounds cells toss coins, so each of the
    (T-1)*n coins is counted once, and no layer has more than
    (q+1)**(2T-1) * 2**(T-1) entries, whatever n."""
    n, T = len(x), c.time_bound
    b = c.boundary
    rules, rejecting = (c.delta0, c.delta1), c._rejecting
    border = (b,) * (T - 1)
    layer: Dict[tuple, int] = {(border, border, b, 0): 1}
    for j in range(n + T - 1):
        for tau in range(T - 1):
            nxt: Dict[tuple, int] = {}
            for (left, center, right, failed), count in layer.items():
                if tau == 0:
                    right = x[j] if j < n else b
                lt, mid = left[tau], center[tau]
                left = left[:tau] + (mid,) + left[tau + 1 :]
                center = center[:tau] + (right,) + center[tau + 1 :]
                # an out-of-bounds cell stays at $ and tosses no coin
                for new in (b,) if mid == b else (rule[lt][mid][right] for rule in rules):
                    key = (left, center, new, failed | (2 << tau) if rejecting[new] else failed)
                    nxt[key] = nxt.get(key, 0) + count
            layer = nxt
    steps = (1 << T) - 2
    out: Dict[int, int] = {}
    for (_, _, _, failed), count in layer.items():
        out[steps & ~failed] = out.get(steps & ~failed, 0) + count
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
    idle = idx["idle"]
    idle_plane = ((idle,) * (q + 1),) * q  # every cell with a left neighbor
    tables = []
    for bit in (0, 1):
        leftmost = tuple(
            (idle if lab == "idle" else idx[cell_next(lab, bit)],) * (q + 1)
            for lab in labels
        )
        tables.append((idle_plane,) * q + (leftmost,))
    accepting = frozenset({idle} | {idx[lab] for lab in cell_accepting})
    return Paca(
        q=q,
        sigma=(idx["in0"], idx["in1"]),
        accepting=accepting,
        delta0=tables[0],
        delta1=tables[1],
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
    accepting set, full input alphabet.  Refuses a q that is not an int
    (a bool is not) of at least 2 with ParameterError."""
    if type(q) is not int or q < 2:
        raise ParameterError(f"need an int of at least two states: {q!r}")
    delta0, delta1 = (
        [[[rng.randrange(q) for _ in range(q + 1)] for _ in range(q)] for _ in range(q + 1)]
        for _ in (0, 1)
    )
    size = rng.randint(1, q - 1)
    accepting = frozenset(rng.sample(range(q), size))
    return Paca(
        q=q,
        sigma=tuple(range(q)),
        accepting=accepting,
        delta0=delta0,
        delta1=delta1,
        time_bound=time_bound,
    )


# --- diagnostics and serialization ----------------------------------------------------


def check_time_bound(c: Paca, n: int) -> bool:
    """Does every accepting computation at length n first reach an
    all-accepting configuration strictly before step T?  Follows for T steps
    the configurations reachable without an accepting visit, by every coin
    row; the bound fails iff an accepting configuration is reachable from
    the step-T frontier through non-accepting configurations.  Refuses an
    n that is not an int (a bool is not) of at least 1 with ParameterError."""
    if type(n) is not int or n < 1:
        raise ParameterError(f"input length must be an int >= 1: {n!r}")

    def reach(configs) -> set:
        return {step(c, cf, row) for cf in configs for row in product((0, 1), repeat=n)}

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
    only in-bounds cells are printed).  ``matrix`` is T x n, as in
    :func:`accepts`."""
    return "\n".join(
        f"t={t:3d} {'*' if c.config_accepting(config) else ' '} " + " ".join(map(str, config))
        for t, config in enumerate(_configurations(c, x, matrix))
    )


def paca_to_json(c: Paca) -> dict:
    def lists(table: Table) -> list:
        return [[list(row) for row in plane] for plane in table]

    return {
        "states": c.q,
        "sigma": list(c.sigma),
        "accepting": sorted(c.accepting),
        "boundary": c.boundary,
        "delta0": lists(c.delta0),
        "delta1": lists(c.delta1),
        "time_bound": c.time_bound,
    }


def paca_from_json(data: dict) -> Paca:
    """The inverse of :func:`paca_to_json`.  Refuses a ``boundary`` other
    than ``states``, and table entries that are not ints in range, with
    ParameterError."""
    q = data["states"]
    if data.get("boundary", q) != q:
        raise ParameterError(f"boundary {data['boundary']!r} is not the state count {q!r}")
    return Paca(
        q=q,
        sigma=tuple(data["sigma"]),
        accepting=frozenset(data["accepting"]),
        delta0=data["delta0"],
        delta1=data["delta1"],
        time_bound=data["time_bound"],
    )


def load_paca(path: str) -> Paca:
    with open(path) as fh:
        return paca_from_json(json.load(fh))
