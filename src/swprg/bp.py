"""Layered programs with unanimity acceptance and the sliding-window check.

A layered program of length ``n`` and width ``w`` has states ``0..w-1``, an
initial state, one transition table per layer, and one accepting set per
layer.  It accepts an input iff the state reached after every non-empty
prefix lies in that layer's accepting set.  A plain (accept-at-the-end)
program is the special case where every accepting set but the last equals
the full state set.

Probabilities are integer counts of accepted inputs, returned as exact
``Fraction`` values over ``2**n``.  :func:`concat` runs programs on
consecutive blocks as one program, so block tuples need no separate path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .bits import BitString
from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class LayeredProgram:
    n: int
    w: int
    q0: int
    # trans[i][q] = (next state on 0, next state on 1) for layer i+1
    trans: Tuple[Tuple[Tuple[int, int], ...], ...]
    # acc[i] = accepting set after reading i+1 bits
    acc: Tuple[frozenset, ...]

    def __post_init__(self):
        if not (type(self.n) is type(self.w) is int and self.n >= 1 and self.w >= 1):
            raise ParameterError("length and width must be positive ints")
        if type(self.q0) is not int or not 0 <= self.q0 < self.w:
            raise ParameterError("initial state out of range")
        if not (isinstance(self.acc, tuple) and len(self.trans) == len(self.acc) == self.n):
            raise ParameterError("need tuples of one transition table and accepting set per layer")
        for i, part in enumerate((self.trans, *self.acc)):
            if _CHECKED.get((self.w, i, id(part))) is not part:
                _check_part(self.w, i, part)

    def run_word(self, layer: int, q: int, word: Sequence[int]) -> int:
        """Extended transition: feed ``word`` starting at layer ``layer + 1``,
        from state ``q`` in layer ``layer``."""
        for j, b in enumerate(word):
            q = self.trans[layer + j][q][b]
        return q

    def reachable(self) -> Tuple[frozenset, ...]:
        """States reachable from the initial state, per layer 0..n."""
        sets: List[frozenset] = [frozenset([self.q0])]
        for i in range(self.n):
            nxt = set()
            for q in sets[-1]:
                nxt.add(self.trans[i][q][0])
                nxt.add(self.trans[i][q][1])
            sets.append(frozenset(nxt))
        return tuple(sets)


# Parts that passed _check_part, by (width, part index, id): the object, not
# its value, as an equal part may hold 1.0 or True for 1.  Held parts cannot
# change and their ids are not reused; family members, which share most parts
# with their base, pay a lookup per part.  Emptied once 256 are held.
_CHECKED: Dict[Tuple[int, int, int], object] = {}


def _check_part(w: int, i: int, part) -> None:
    """Refuse part ``i`` of a width-``w`` program, the transition tables
    (``i == 0``) or layer i's accepting set, unless it holds only int
    states below ``w``; hold it in ``_CHECKED`` if it passes."""
    if i == 0:
        if not isinstance(part, tuple):
            raise ParameterError("transition tables must be a tuple")
        for layer, table in enumerate(part, 1):
            if len(table) != w:
                raise ParameterError(f"layer {layer} table has wrong size")
            try:
                hash(table)
                for on0, on1 in table:
                    if not (type(on0) is type(on1) is int and 0 <= on0 < w and 0 <= on1 < w):
                        raise ParameterError(f"layer {layer} transition leaves the state set")
            except (TypeError, ValueError):
                raise ParameterError(f"layer {layer} transition is not a pair of states") from None
    elif not (isinstance(part, frozenset) and all(type(q) is int and 0 <= q < w for q in part)):
        raise ParameterError(f"layer {i} accepting set leaves the state set")
    if len(_CHECKED) >= 256:
        _CHECKED.clear()
    _CHECKED[w, i, id(part)] = part


def evaluate(p: LayeredProgram, x: Sequence[int]) -> bool:
    """Run ``p`` on ``x``; accept iff every visited state (after each
    non-empty prefix) is accepting in its layer."""
    if len(x) != p.n:
        raise ShapeError(f"input has length {len(x)}, program expects {p.n}")
    q = p.q0
    for i, b in enumerate(x):
        q = p.trans[i][q][b]
        if q not in p.acc[i]:
            return False
    return True


def evaluate_int(p: LayeredProgram, x: int) -> bool:
    """Like :func:`evaluate` on a packed input, acceptance only."""
    q = p.q0
    for i in range(p.n):
        q = p.trans[i][q][(x >> i) & 1]
        if q not in p.acc[i]:
            return False
    return True


def acceptance_probability(p: LayeredProgram) -> Fraction:
    """Pr over uniform inputs that ``p`` accepts, by layer DP.

    Counts the accepted input prefixes that reach each state, dropping those
    that leave an accepting set.  Exact: the final count over 2**n.
    """
    counts = {p.q0: 1}
    for i in range(p.n):
        nxt: dict = {}
        for q, count in counts.items():
            for q2 in p.trans[i][q]:
                if q2 in p.acc[i]:
                    nxt[q2] = nxt.get(q2, 0) + count
        counts = nxt
    return Fraction(sum(counts.values()), 1 << p.n)


def concat(programs: Sequence[LayeredProgram]) -> LayeredProgram:
    """One program that runs ``programs[i]`` on block i of its input.

    Blocks are consecutive, each as long as its program; at every block
    boundary the state resets to the next program's initial state.  The
    width is the largest width (narrower tables get unused rows), and the
    result accepts iff every program accepts its block, so its uniform
    acceptance probability is the product of the parts'.
    """
    if not programs:
        raise ParameterError("need at least one program")
    w = max(p.w for p in programs)
    trans: List[Tuple[Tuple[int, int], ...]] = []
    acc: List[frozenset] = []
    for k, p in enumerate(programs):
        for i, table in enumerate(p.trans):
            if i == 0 and k > 0:
                table = (table[p.q0],) * w  # reset: every state acts as q0
            trans.append(tuple(table) + ((0, 0),) * (w - len(table)))
        acc.extend(p.acc)
    return LayeredProgram(len(trans), w, programs[0].q0, tuple(trans), tuple(acc))


# --- sliding-window property ------------------------------------------------


@dataclass(frozen=True)
class WindowCertificate:
    """Synchronization tables witnessing the sliding-window property.

    ``alphas[i]`` maps each window word (packed MSB-first, length
    ``min(i, t)``) to the state reached in layer ``i`` under any input
    ending in that word.
    """

    t: int
    alphas: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class WindowViolation:
    layer: int          # layer index i holding the disagreeing states
    q: int
    q_prime: int
    word: BitString     # window word of length t, in reading order


WindowCheckResult = Union[WindowCertificate, WindowViolation]


def _word_from_msb_index(value: int, length: int) -> BitString:
    """Window words are packed MSB-first: the oldest bit is the top bit."""
    return tuple((value >> (length - 1 - j)) & 1 for j in range(length))


def check_window(p: LayeredProgram, t: int) -> WindowCheckResult:
    """Decide whether ``p`` has window size ``t``.

    Returns a certificate, or a concrete (layer, q, q', word) witness where
    two reachable states disagree after reading the same ``t`` bits.  Only
    states reachable from the initial state are compared; disagreements
    among unreachable states are ignored.
    """
    if t < 1 or t > p.n:
        raise ParameterError(f"window size {t} out of range 1..{p.n}")
    reach = p.reachable()
    for i in range(p.n - t + 1):
        states = sorted(reach[i])
        if len(states) < 2:
            continue
        for yv in range(1 << t):
            word = _word_from_msb_index(yv, t)
            ref = p.run_word(i, states[0], word)
            for q in states[1:]:
                if p.run_word(i, q, word) != ref:
                    return WindowViolation(i, states[0], q, word)
    cert = build_certificate(p, t)
    assert cert is not None, "direct scan passed but certificate construction failed"
    return cert


def build_certificate(p: LayeredProgram, t: int) -> Optional[WindowCertificate]:
    """Forward recursive construction of the synchronization tables.

    ``alpha_0`` maps the empty word to the initial state; each next table is
    induced by single-step transitions, dropping the oldest window bit once
    the window is full.  Returns None if the two candidate predecessors of
    some window word disagree, i.e. the program is not a window-``t``
    program.  Independent of :func:`check_window`'s direct scan (single-step
    lookups only)."""
    if t < 1 or t > p.n:
        raise ParameterError(f"window size {t} out of range 1..{p.n}")
    alphas: List[Tuple[int, ...]] = [(p.q0,)]
    for i in range(p.n):
        k = min(i, t)
        k_next = min(i + 1, t)
        cur = alphas[i]
        nxt: List[Optional[int]] = [None] * (1 << k_next)
        if k < t:
            # prefix-tree regime: word wy extends word w
            for wv in range(1 << k):
                for y in (0, 1):
                    nxt[(wv << 1) | y] = p.trans[i][cur[wv]][y]
        else:
            # full window: both xw-predecessors must map to the same state
            for wv in range(1 << (t - 1)):
                for y in (0, 1):
                    tgt = ((wv << 1) | y) & ((1 << t) - 1)
                    c0 = p.trans[i][cur[wv]][y]
                    c1 = p.trans[i][cur[wv | (1 << (t - 1))]][y]
                    if c0 != c1:
                        return None
                    nxt[tgt] = c0
        alphas.append(tuple(nxt))  # type: ignore[arg-type]
    return WindowCertificate(t, tuple(alphas))


# --- canonical de Bruijn construction ----------------------------------------


def canonical_debruijn_swbp(n: int, t: int) -> Tuple[LayeredProgram, WindowCertificate]:
    """The prototypical window-``t`` program, every reachable state accepting.

    Layer ``i`` states are the words of length ``min(i, t)``, packed
    MSB-first into ints (the prefix tree for i < t, then the de Bruijn shift
    ``xw -> wy``).  One shared transition table ``q -> (2q + y) mod 2**t``
    realizes both regimes.  Labelings come from :func:`relabel` or
    ``lab.MaskFamily``.
    """
    if t < 1 or t > n:
        raise ParameterError(f"window size {t} out of range 1..{n}")
    w = 1 << t
    table = tuple((((q << 1) & (w - 1), ((q << 1) | 1) & (w - 1)) for q in range(w)))
    trans = tuple(table for _ in range(n))
    acc = tuple(frozenset(range(1 << min(i, t))) for i in range(1, n + 1))
    prog = LayeredProgram(n, w, 0, trans, acc)
    cert = build_certificate(prog, t)
    assert cert is not None
    return prog, cert


# --- quotients ----------------------------------------------------------------


def _root(parent: List[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def quotient_swbp(
    canonical: LayeredProgram, merge: Sequence[Sequence[Sequence[int]]]
) -> LayeredProgram:
    """Merge states per layer, and the successors of merged states, until
    transitions are well-defined on blocks.

    ``merge[i]`` is a list of state groups to merge in layer ``i`` (0..n).
    Transitions only go forward, so layer i's blocks are final once its own
    groups and the merges forced by layer i-1 are in, and they force merges
    in layer i+1 only: one pass over the layers in order, with a union-find
    per layer, reaches the coarsest well-defined partition.  A block accepts
    iff all its reachable member states accept.
    """
    n, w = canonical.n, canonical.w
    if len(merge) > n + 1:
        raise ParameterError(f"{len(merge)} merge layers for a program of {n + 1} layers")
    reach = canonical.reachable()
    blocks: List[dict] = []  # per layer: reachable state -> dense block id
    forced: List[Tuple[int, int]] = []  # pairs layer i-1 merges in layer i
    for i in range(n + 1):
        parent = list(range(w))
        groups = merge[i] if i < len(merge) else ()
        for a, b in [(g[0], q) for g in groups for q in g[1:]] + forced:
            parent[_root(parent, b)] = _root(parent, a)
        roots: dict = {}
        blocks.append({q: roots.setdefault(_root(parent, q), len(roots)) for q in sorted(reach[i])})
        if i < n:
            # each block's states step to the same blocks as its first state
            first: dict = {}
            forced = [
                (first.setdefault((blocks[i][q], b), nxt), nxt)
                for q in reach[i]
                for b, nxt in enumerate(canonical.trans[i][q])
            ]
    width = max(len(set(ids.values())) for ids in blocks)
    trans = []
    acc = []
    for i in range(n):
        table = [(0, 0)] * width
        for q in reach[i]:
            table[blocks[i][q]] = tuple(blocks[i + 1][nxt] for nxt in canonical.trans[i][q])
        trans.append(tuple(table))
        ids = blocks[i + 1]
        acc.append(frozenset(ids.values()) - {ids[q] for q in ids if q not in canonical.acc[i]})
    return LayeredProgram(n, width, blocks[0][canonical.q0], tuple(trans), tuple(acc))


def relabel(p: LayeredProgram, labeler: Callable[[int, int], bool]) -> LayeredProgram:
    """Replace accepting sets; ``labeler(layer, state)`` over reachable states."""
    reach = p.reachable()
    acc = tuple(
        frozenset(q for q in reach[i + 1] if labeler(i + 1, q)) for i in range(p.n)
    )
    return LayeredProgram(p.n, p.w, p.q0, p.trans, acc)


def pad_program(p: LayeredProgram, n_target: int) -> LayeredProgram:
    """Extend with always-accepting identity layers that ignore their bits."""
    if n_target < p.n:
        raise ParameterError("target length shorter than program")
    ident = tuple((q, q) for q in range(p.w))
    extra = n_target - p.n
    trans = p.trans + tuple(ident for _ in range(extra))
    full = frozenset(range(p.w))
    acc = p.acc + tuple(full for _ in range(extra))
    return LayeredProgram(n_target, p.w, p.q0, trans, acc)


# --- JSON ---------------------------------------------------------------------


def program_to_json(p: LayeredProgram) -> dict:
    return {
        "n": p.n,
        "w": p.w,
        "q0": p.q0,
        "layers": [
            {"trans": [list(pair) for pair in p.trans[i]], "acc": sorted(p.acc[i])}
            for i in range(p.n)
        ],
    }


def program_from_json(data: dict) -> LayeredProgram:
    layers = data["layers"]
    return LayeredProgram(
        data["n"],
        data["w"],
        data["q0"],
        tuple(tuple(tuple(pair) for pair in layer["trans"]) for layer in layers),
        tuple(frozenset(layer["acc"]) for layer in layers),
    )


def load_program(path: str) -> LayeredProgram:
    with open(path) as f:
        return program_from_json(json.load(f))
