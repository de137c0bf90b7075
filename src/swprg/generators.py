"""The generator algebra: base PRGs, extractor-based stretching, rectangle
composition, and interleaving, each carrying an exact error budget.

A generator has seed length ``d`` and outputs ``blocks`` blocks of
``block_bits`` bits; the flat output concatenates the blocks (block 0
lowest).  ``eps_budget`` is the exact rational error the construction
promises against the program class it was built for; budgets compose per
combinator and are recomputable from the construction tree.  Rectangle
generators are ordinary nodes whose budget is their rectangle error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from .bits import BitString, bits_to_int, int_to_bits
from .errors import (
    DEFAULT_CAP_BITS, CapExceeded, ParameterError, ShapeError, read_fraction, refuse_unknown_keys,
)
from .primitives import Extractor, HashFamily, extractor_from_json, perfect_extractor

if TYPE_CHECKING:
    import numpy as np

# The seeds an expansion table is filled with at a time, so the most seeds one
# ``expand_seeds`` call is handed, and the most outputs in one ``output_runs`` slice.
CHUNK = 1 << 12


class GeneratorSpec:
    """Base class; concrete nodes are frozen dataclasses below.

    A node declares its JSON ``kind`` and one expansion method,
    :meth:`expand_seeds`; every other expansion is derived from it.  The
    cached table of :meth:`expand_all` is filled ``CHUNK`` seeds at a time,
    so an expansion's numpy temporaries are O(``CHUNK``) whatever ``d``.
    :meth:`output_runs` walks the distinct outputs ``CHUNK`` seeds' worth at
    a time, and :meth:`output_counts` is their concatenation; a node that can
    count its outputs without expanding every seed overrides
    :meth:`output_runs`.  Its ``__post_init__`` checks its fields and
    derives, once, its shape (``d``, ``blocks``, ``block_bits``), its
    ``eps_budget`` and its ``window``: the largest program window the budget
    is argued for, ``None`` for any.  The derived values are plain instance
    values, not fields, so they are not written, compared or hashed.  Its
    JSON is its kind and its dataclass fields (:meth:`to_json`), read back
    through the :data:`NODES` registry.  numpy is imported by the methods
    that build arrays, so building and describing a node loads none of it.
    """

    kind: str
    d: int
    blocks: int
    block_bits: int
    eps_budget: Fraction
    window: Optional[int] = None

    def _derive(self, **values) -> None:
        """Store derived values on the frozen node (its ``__post_init__``)."""
        vars(self).update(values)

    @property
    def flat_bits(self) -> int:
        return self.blocks * self.block_bits

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        """Flat outputs, packed into uint64, of a uint64 array of seeds.

        Callers hand it at most ``CHUNK`` seeds (:func:`_expand_all_cached`,
        :func:`_expand_part`), so a node may loop over them as Python ints.
        """
        raise NotImplementedError

    def _refuse(self, message: str, required_bits: int) -> CapExceeded:
        """A refusal that names this node by its JSON kind."""
        return CapExceeded(f"{self.kind}: {message}", required_bits)

    def _check_packs(self) -> None:
        if self.flat_bits > 63:
            raise self._refuse(
                f"flat output of {self.flat_bits} bits does not pack into uint64",
                self.flat_bits,
            )

    def expand_int(self, seed: int) -> int:
        import numpy as np

        if type(seed) is not int or not 0 <= seed < 1 << self.d:
            raise ShapeError(f"seed {seed!r} is outside the ints 0..2**{self.d} - 1")
        self._check_packs()
        return int(self.expand_seeds(np.array([seed], dtype=np.uint64))[0])

    def expand(self, seed: BitString) -> BitString:
        if len(seed) != self.d:
            raise ShapeError(f"seed has {len(seed)} bits, generator expects {self.d}")
        return int_to_bits(self.expand_int(bits_to_int(seed)), self.flat_bits)

    def _check_enumerable(self) -> None:
        if self.d > DEFAULT_CAP_BITS:
            raise self._refuse(
                f"seed enumeration needs 2**{self.d} expansions (cap {DEFAULT_CAP_BITS} bits)",
                self.d,
            )
        self._check_packs()

    def expand_all(self) -> np.ndarray:
        """Outputs for every seed, as packed uint64, seed order.

        Cached per spec and read-only; refused above ``DEFAULT_CAP_BITS`` seed bits.
        """
        self._check_enumerable()
        return _expand_all_cached(self)

    def output_runs(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The distinct outputs, packed uint64 in ascending order, and how
        many of the 2**d seeds produce each one, as int64, in slices: each
        slice covers the runs of at least ``CHUNK`` seeds of one sorted copy
        of :meth:`expand_all` (fewer in the last), cut at a run boundary, so
        it holds at most ``CHUNK`` outputs and no output is in two slices.
        Refuses as :meth:`expand_all` does, when called."""
        import numpy as np

        ordered = np.sort(self.expand_all())

        def runs():
            start = 0
            while start < len(ordered):
                window = ordered[start : start + CHUNK]
                values = window[np.concatenate(([True], window[1:] != window[:-1]))]
                # the last run may go on past the window
                ends = np.searchsorted(ordered, values, side="right")
                yield values, np.diff(ends, prepend=start)
                start = int(ends[-1])

        return runs()

    def output_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """The slices of :meth:`output_runs`, concatenated."""
        import numpy as np

        values, counts = zip(*self.output_runs())
        return np.concatenate(values), np.concatenate(counts)

    @property
    def seeds_expanded(self) -> int:
        """The seeds :meth:`output_runs` expands: each seed once."""
        return 1 << self.d

    def to_json(self) -> dict:
        """The node's ``kind``, then every field by name: nodes and
        extractors as their own JSON, ``Fraction``s as strings, ``None``
        fields left out."""
        data = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (GeneratorSpec, Extractor)):
                data[f.name] = value.to_json()
            elif value is not None:
                data[f.name] = str(value) if isinstance(value, Fraction) else value
        return data

    @classmethod
    def from_json(cls, data: dict) -> GeneratorSpec:
        """The node whose :meth:`to_json` is ``data``: each field read by its
        declared type; a field left out takes its default, and a key that is
        not a field is refused (:class:`ParameterError`)."""
        read = {f.name: _FIELD_READERS.get(f.type, lambda value, name: value) for f in fields(cls)}
        refuse_unknown_keys(data, {"kind", *read}, f"a {cls.kind} node")
        return cls(**{name: read[name](data[name], name) for name in read if name in data})


@lru_cache(maxsize=128)
def _expand_all_cached(spec: "GeneratorSpec") -> np.ndarray:
    """The table of every seed's output, filled ``CHUNK`` seeds at a time."""
    import numpy as np

    size = 1 << spec.d
    out = np.empty(size, dtype=np.uint64)
    for start in range(0, size, CHUNK):
        stop = min(start + CHUNK, size)
        out[start:stop] = spec.expand_seeds(np.arange(start, stop, dtype=np.uint64))
    out.setflags(write=False)
    return out


def _expand_part(child: GeneratorSpec, part: np.ndarray) -> np.ndarray:
    """Outputs of ``child`` on its part of a parent's seeds.

    The child's cached table is gathered from when the seed array is a full
    slice of :func:`_expand_all_cached` or covers the table, so every child
    seed is expanded once per enumeration however many parent seeds share
    it; a few seeds are expanded directly.
    """
    if len(part) >= min(CHUNK, 1 << child.d):
        return child.expand_all()[part]
    return child.expand_seeds(part)


# --- base and rectangle generators ---------------------------------------------------


def _check_ints(node, names: str = "blocks block_bits", least: int = 1) -> None:
    """Refuse any of the fields ``names`` of ``node`` that is not an int (a
    bool is not) of at least ``least``, naming the field; by default the
    ``__post_init__`` of the nodes whose shape is their two fields."""
    for name in names.split():
        value = getattr(node, name)
        if type(value) is not int or value < least:
            raise ParameterError(f"{name} must be an int >= {least}: {value!r}")


def _check_budgets(node, names: str) -> None:
    """Refuse any of the budget fields ``names`` of ``node`` that is set and
    outside [0, 1], naming the field."""
    for name in names.split():
        value = getattr(node, name)
        if value is not None and not 0 <= value <= 1:
            raise ParameterError(f"{name} must lie in [0, 1]: {value}")


@dataclass(frozen=True)
class Exhaustive(GeneratorSpec):
    """Identity generator: the seed is the output, cut into ``blocks``
    blocks of ``block_bits`` bits.  Zero error, both as a one-block base
    generator and as a rectangle generator."""

    kind = "exhaustive_rect"  # a one-block one writes {"kind": "exhaustive", "t"}
    blocks: int
    block_bits: int
    eps_budget = Fraction(0)

    def __post_init__(self):
        _check_ints(self)
        self._derive(d=self.blocks * self.block_bits)

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        return seeds

    def to_json(self) -> dict:
        if self.blocks == 1:
            return {"kind": "exhaustive", "t": self.block_bits}
        return super().to_json()


ExhaustiveRectangle = Exhaustive


def base_exhaustive(t: int) -> Exhaustive:
    return Exhaustive(1, t)


@dataclass(frozen=True)
class NisanBase(GeneratorSpec):
    """Recursive hash-doubling base generator.

    Output of 2**levels words of ``word`` bits each, t = word << levels:
    level 0 outputs the seed word; level k outputs
    level_{k-1}(s) || level_{k-1}(h_k(s)) with one affine hash per level.
    Seed = word, then the per-level hash descriptions; ``levels`` defaults
    to ceil(log2 t).  ``eps_target`` is a configured goal; once the true
    error has been measured exhaustively, attach it with
    :func:`with_measured_error` so downstream budgets use the measured value.
    """

    kind = "nisan"
    t: int
    w: int
    eps_target: Fraction
    levels: Optional[int] = None
    measured_eps: Optional[Fraction] = None

    def __post_init__(self):
        _check_ints(self, "t w")
        _check_budgets(self, "eps_target measured_eps")
        if self.levels is None:
            object.__setattr__(self, "levels", (self.t - 1).bit_length())
        _check_ints(self, "levels", least=0)
        word = self.t >> self.levels
        if word < 1:
            raise ParameterError("more levels than output bits")
        if (word << self.levels) != self.t:
            raise ParameterError(
                f"t={self.t} is not word * 2**levels; pad t to a power of two"
            )
        fam = HashFamily(word, word)
        self._derive(
            word=word, hash_family=fam, d=word + self.levels * fam.seed_bits, block_bits=self.t,
            eps_budget=self.eps_target if self.measured_eps is None else self.measured_eps,
        )

    blocks = 1

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        import numpy as np

        word, fam = self.word, self.hash_family
        hbits, h_eval = fam.seed_bits, fam.eval
        levels = range(self.levels, 0, -1)

        def flats():
            for seed in seeds.tolist():
                # unrolled from the top level down: level k puts h_k(v) right
                # after each word v of the level above
                words = [seed & ((1 << word) - 1)]
                for k in levels:
                    h = (seed >> (word + (k - 1) * hbits)) & ((1 << hbits) - 1)
                    words = [y for v in words for y in (v, h_eval(h, v))]
                flat = 0
                for v in reversed(words):
                    flat = flat << word | v
                yield flat

        return np.fromiter(flats(), dtype=np.uint64, count=len(seeds))


def base_nisan(t: int, w: int, eps_base: Fraction, levels: Optional[int] = None) -> NisanBase:
    return NisanBase(t, w, Fraction(eps_base), levels)


def with_measured_error(g: NisanBase, eps: Fraction) -> NisanBase:
    return replace(g, measured_eps=Fraction(eps))


@dataclass(frozen=True)
class PairwiseRectangle(GeneratorSpec):
    """Block i = h(i) for a pairwise-independent hash given by the seed.

    ``eps_cr``, the budget, must come from measurement at desk scale; the
    default 1 is the trivial bound, never an assumption of quality.
    """

    kind = "pairwise_rect"
    blocks: int
    block_bits: int
    eps_cr: Fraction = Fraction(1)

    def __post_init__(self):
        _check_ints(self)
        _check_budgets(self, "eps_cr")
        fam = HashFamily(max(1, (self.blocks - 1).bit_length()), self.block_bits)
        self._derive(hash_family=fam, d=fam.seed_bits, eps_budget=self.eps_cr)

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        import numpy as np

        h_eval, b = self.hash_family.eval, self.block_bits
        ints = seeds.tolist()
        out = np.zeros(len(ints), dtype=np.uint64)
        for i in range(self.blocks):
            # map makes the per-seed eval calls from C, one block at a time
            block = np.fromiter(map(h_eval, ints, repeat(i)), np.uint64, count=len(ints))
            out |= block << np.uint64(i * b)
        return out


# --- combinators ------------------------------------------------------------------


@dataclass(frozen=True)
class InwStretch(GeneratorSpec):
    """Double the block count: output G(s) followed by G(Ext(s, s')).

    Seed = inner seed (low bits) then extractor seed.  Budget
    3 * max(inner error, extractor error): the lemma's single epsilon taken
    as a conservative max over the two roles; it holds where the inner
    budget does, so the window is the inner one.
    """

    kind = "inw"
    inner: GeneratorSpec
    extractor: Extractor

    def __post_init__(self):
        if self.extractor.n != self.inner.d:
            raise ShapeError(
                f"extractor works on {self.extractor.n} bits, inner seed has {self.inner.d}"
            )
        inner = self.inner
        self._derive(
            d=inner.d + self.extractor.d, blocks=2 * inner.blocks, block_bits=inner.block_bits,
            eps_budget=3 * max(inner.eps_budget, self.extractor.eps), window=inner.window,
        )

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        import numpy as np

        s_g = seeds & np.uint64((1 << self.inner.d) - 1)
        s_e = seeds >> np.uint64(self.inner.d)
        if self.extractor.kind == "perfect":
            s2 = s_e
        else:  # cayley: Ext(x, s) = x XOR g_s
            s2 = s_g ^ np.asarray(self.extractor.generators, dtype=np.uint64)[s_e]
        return _expand_part(self.inner, s_g) | (
            _expand_part(self.inner, s2) << np.uint64(self.inner.flat_bits)
        )


def inw_stretch(g: GeneratorSpec, ext: Extractor) -> InwStretch:
    return InwStretch(g, ext)


@dataclass(frozen=True)
class RectCompose(GeneratorSpec):
    """Feed rectangle-generated seeds into independent copies of a base.

    The rectangle is any generator whose blocks are base seeds.  Budget
    r * eps_base + eps_cr: the telescoping product bound plus the
    rectangle generator's own error.  The expansion cuts each block's base
    seeds into one reused array and ORs each block's outputs into the
    result in place, so it holds four arrays the length of its seeds.
    """

    kind = "rect_compose"
    base: GeneratorSpec
    rect: GeneratorSpec

    def __post_init__(self):
        if self.base.blocks != 1:
            raise ShapeError("rectangle composition needs a single-block base")
        if self.rect.block_bits != self.base.d:
            raise ShapeError(
                f"rectangle blocks carry {self.rect.block_bits} bits, "
                f"base seed needs {self.base.d}"
            )
        rect = self.rect
        self._derive(
            d=rect.d, blocks=rect.blocks, block_bits=self.base.block_bits,
            eps_budget=rect.blocks * self.base.eps_budget + rect.eps_budget,
        )

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        import numpy as np

        self.rect._check_packs()
        rect_out = self.rect.expand_seeds(seeds)
        m, t = self.rect.block_bits, self.base.block_bits
        mask = np.uint64((1 << m) - 1)
        out = np.zeros(len(seeds), dtype=np.uint64)
        block = np.empty_like(out)  # the base seeds of one block, reused
        for i in range(self.blocks):
            np.right_shift(rect_out, np.uint64(i * m), out=block)
            block &= mask
            # a fresh gather, or ``block`` itself, which the next block rewrites
            part = _expand_part(self.base, block)
            part <<= np.uint64(i * t)
            out |= part
        return out


def rect_compose(base: GeneratorSpec, rect: GeneratorSpec) -> RectCompose:
    return RectCompose(base, rect)


@dataclass(frozen=True)
class Interleave(GeneratorSpec):
    """Alternate the blocks of two same-shape generators: x1 y1 x2 y2 ...

    Independent seed halves (g1 low, g2 high).  Budget twice the larger
    component budget, valid against window-size <= block_bits programs:
    its ``window`` is its ``block_bits``.
    """

    kind = "interleave"
    g1: GeneratorSpec
    g2: GeneratorSpec

    def __post_init__(self):
        if (self.g1.blocks, self.g1.block_bits) != (self.g2.blocks, self.g2.block_bits):
            raise ShapeError("interleaved generators must have matching shapes")
        g1, g2 = self.g1, self.g2
        self._derive(
            d=g1.d + g2.d, blocks=2 * g1.blocks, block_bits=g1.block_bits,
            eps_budget=2 * max(g1.eps_budget, g2.eps_budget), window=g1.block_bits,
        )

    def _merge(self, o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
        """Packed outputs whose blocks alternate those of ``o1`` and ``o2``."""
        import numpy as np

        t = self.block_bits
        mask = np.uint64((1 << t) - 1)
        out = np.zeros(len(o1), dtype=np.uint64)
        for i in range(self.g1.blocks):
            out |= ((o1 >> np.uint64(i * t)) & mask) << np.uint64(2 * i * t)
            out |= ((o2 >> np.uint64(i * t)) & mask) << np.uint64((2 * i + 1) * t)
        return out

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        import numpy as np

        o1 = _expand_part(self.g1, seeds & np.uint64((1 << self.g1.d) - 1))
        o2 = _expand_part(self.g2, seeds >> np.uint64(self.g1.d))
        return self._merge(o1, o2)

    def output_runs(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The product of the halves' counts, built from their distinct
        outputs alone, ``CHUNK`` pairs a slice, g1's output the major index.
        The merge is a bit permutation of (o1, o2), so distinct pairs give
        distinct outputs; they are not in ascending order."""
        import numpy as np

        self._check_enumerable()
        v1, c1 = self.g1.output_counts()
        v2, c2 = self.g2.output_counts()

        def runs():
            size = len(v1) * len(v2)
            for start in range(0, size, CHUNK):
                i1, i2 = np.divmod(np.arange(start, min(start + CHUNK, size)), len(v2))
                yield self._merge(v1[i1], v2[i2]), c1[i1] * c2[i2]

        return runs()

    @property
    def seeds_expanded(self) -> int:
        """Each half's seeds, expanded on their own (:meth:`output_runs`)."""
        return self.g1.seeds_expanded + self.g2.seeds_expanded


def interleave(g1: GeneratorSpec, g2: GeneratorSpec) -> Interleave:
    return Interleave(g1, g2)


def build_swbp_prg(
    n: int,
    t: int,
    w: int,
    base: GeneratorSpec,
    strategy: str,
    rect: Optional[GeneratorSpec] = None,
) -> Interleave:
    """Full pipeline: stretch the base to n/2 bits twice, then interleave.

    ``strategy`` "inw" doubles block counts with extractor stretching
    (requires n/2t a power of two); "rect" uses one rectangle composition.
    The base must be a single-block generator of t bits fooling the width-w,
    length-t class.  n must be a multiple of 2t; pad the target program with
    identity layers otherwise (see bp.pad_program).
    """
    if base.blocks != 1 or base.block_bits != t:
        raise ShapeError("base must output a single block of t bits")
    if n % (2 * t) != 0:
        raise ParameterError(f"n={n} is not a multiple of 2t={2 * t}; pad the program")
    m_half = n // (2 * t)
    if strategy == "inw":
        if m_half & (m_half - 1):
            raise ParameterError("inw strategy needs n/2t to be a power of two")
        g = base
        while g.blocks < m_half:
            g = inw_stretch(g, perfect_extractor(g.d))
        return interleave(g, g)
    if strategy == "rect":
        if rect is None:
            rect = Exhaustive(m_half, base.d)
        if rect.blocks != m_half or rect.block_bits != base.d:
            raise ShapeError(
                f"rectangle must emit {m_half} blocks of {base.d} bits"
            )
        g = rect_compose(base, rect)
        return interleave(g, g)
    raise ParameterError(f"unknown strategy {strategy!r}")


# --- JSON ------------------------------------------------------------------------

# Every node kind but the one-block exhaustive form, to the class that reads it.
NODES = {
    cls.kind: cls
    for cls in (Exhaustive, NisanBase, PairwiseRectangle, InwStretch, RectCompose, Interleave)
}


def generator_from_json(data: dict) -> GeneratorSpec:
    """The node of ``data``'s ``kind`` (:meth:`GeneratorSpec.from_json`);
    ``{"kind": "exhaustive", "t": t}`` is the one-block :class:`Exhaustive`."""
    kind = data["kind"]
    if kind == "exhaustive":
        refuse_unknown_keys(data, ("kind", "t"), "an exhaustive node")
        return Exhaustive(1, data["t"])
    if kind not in NODES:
        raise ParameterError(f"unknown generator kind {kind!r}")
    return NODES[kind].from_json(data)


# A field's JSON reader, called with its value and name, by its declared type, the annotation's
# text (strings here, see ``from __future__``); a field of any other type is read as it is.
_FIELD_READERS = {
    "Fraction": read_fraction,
    "Optional[Fraction]": read_fraction,
    "GeneratorSpec": lambda data, name: generator_from_json(data),
    "Extractor": lambda data, name: extractor_from_json(data),
}
