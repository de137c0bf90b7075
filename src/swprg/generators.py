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

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .bits import BitString, bits_to_int, int_to_bits
from .errors import DEFAULT_CAP_BITS, CapExceeded, ParameterError, ShapeError
from .primitives import Extractor, HashFamily, extractor_from_json, perfect_extractor


class GeneratorSpec:
    """Base class; concrete nodes are frozen dataclasses below.

    A node defines its shape (``d``, ``blocks``, ``block_bits``),
    ``eps_budget``, ``to_json`` and one expansion method,
    :meth:`expand_seeds`; every other expansion is derived from it, and so
    is :meth:`output_counts` unless a node can count its outputs without
    expanding every seed.
    """

    d: int
    blocks: int
    block_bits: int

    @property
    def flat_bits(self) -> int:
        return self.blocks * self.block_bits

    @property
    def eps_budget(self) -> Fraction:
        raise NotImplementedError

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        """Flat outputs, packed into uint64, of a uint64 array of seeds."""
        raise NotImplementedError

    def _check_packs(self) -> None:
        if self.flat_bits > 63:
            raise CapExceeded(
                f"flat output of {self.flat_bits} bits does not pack into uint64",
                self.flat_bits,
            )

    def expand_int(self, seed: int) -> int:
        self._check_packs()
        return int(self.expand_seeds(np.array([seed], dtype=np.uint64))[0])

    def expand(self, seed: BitString) -> BitString:
        if len(seed) != self.d:
            raise ShapeError(f"seed has {len(seed)} bits, generator expects {self.d}")
        return int_to_bits(self.expand_int(bits_to_int(seed)), self.flat_bits)

    def _check_enumerable(self, cap: int) -> None:
        if self.d > cap:
            raise CapExceeded(
                f"seed enumeration needs 2**{self.d} expansions (cap {cap} bits)",
                self.d,
            )
        self._check_packs()

    def expand_all(self, cap: int = DEFAULT_CAP_BITS) -> np.ndarray:
        """Outputs for every seed, as packed uint64, seed order.

        Cached per spec and read-only.
        """
        self._check_enumerable(cap)
        return _expand_all_cached(self)

    def output_counts(self, cap: int = DEFAULT_CAP_BITS) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct outputs, packed uint64 in no fixed order, and how many
        of the 2**d seeds produce each one, as int64.  Refuses as
        :meth:`expand_all` does."""
        return np.unique(self.expand_all(cap), return_counts=True)

    def to_json(self) -> dict:
        raise NotImplementedError


@lru_cache(maxsize=128)
def _expand_all_cached(spec: "GeneratorSpec") -> np.ndarray:
    out = spec.expand_seeds(np.arange(1 << spec.d, dtype=np.uint64))
    out.setflags(write=False)
    return out


def _expand_part(child: GeneratorSpec, part: np.ndarray) -> np.ndarray:
    """Outputs of ``child`` on its part of a parent's seeds.

    The child's cached table is gathered from when it is no larger than the
    seed array (so every seed is expanded once per child however many
    parent seeds share it); a few seeds are expanded directly.
    """
    if len(part) >= 1 << child.d:
        return child.expand_all(cap=child.d)[part]
    return child.expand_seeds(part)


# --- base and rectangle generators ---------------------------------------------------


def _check_block_fields(node) -> None:
    """``__post_init__`` of the nodes whose shape is their two fields."""
    for value in (node.blocks, node.block_bits):
        if type(value) is not int or value < 1:
            raise ParameterError(f"blocks and block_bits must be positive ints: {value!r}")


@dataclass(frozen=True)
class Exhaustive(GeneratorSpec):
    """Identity generator: the seed is the output, cut into ``blocks``
    blocks of ``block_bits`` bits.  Zero error, both as a one-block base
    generator and as a rectangle generator."""

    blocks: int
    block_bits: int

    __post_init__ = _check_block_fields

    @property
    def d(self) -> int:
        return self.blocks * self.block_bits

    @property
    def eps_budget(self) -> Fraction:
        return Fraction(0)

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        return seeds

    def to_json(self) -> dict:
        if self.blocks == 1:
            return {"kind": "exhaustive", "t": self.block_bits}
        return {
            "kind": "exhaustive_rect",
            "blocks": self.blocks,
            "block_bits": self.block_bits,
        }


ExhaustiveRectangle = Exhaustive


def base_exhaustive(t: int) -> Exhaustive:
    return Exhaustive(1, t)


@dataclass(frozen=True)
class NisanBase(GeneratorSpec):
    """Recursive hash-doubling base generator.

    Output of 2**levels words of ``word`` bits each, t = word << levels:
    level 0 outputs the seed word; level k outputs
    level_{k-1}(s) || level_{k-1}(h_k(s)) with one affine hash per level.
    Seed = word, then the per-level hash descriptions.  ``eps_target`` is a
    configured goal; once the true error has been measured exhaustively,
    attach it with :func:`with_measured_error` so downstream budgets use the
    measured value.
    """

    t: int
    w: int
    eps_target: Fraction
    levels: int
    measured_eps: Optional[Fraction] = None

    def __post_init__(self):
        if self.levels < 0 or self.t <= 0:
            raise ParameterError("bad shape")
        if (self.word << self.levels) != self.t:
            raise ParameterError(
                f"t={self.t} is not word * 2**levels; pad t to a power of two"
            )

    @property
    def word(self) -> int:
        word = self.t >> self.levels
        if word < 1:
            raise ParameterError("more levels than output bits")
        return word

    @property
    def hash_family(self) -> HashFamily:
        return HashFamily(self.word, self.word)

    @property
    def d(self) -> int:
        return self.word + self.levels * self.hash_family.seed_bits

    blocks = 1

    @property
    def block_bits(self) -> int:
        return self.t

    @property
    def eps_budget(self) -> Fraction:
        return self.measured_eps if self.measured_eps is not None else self.eps_target

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        word, fam = self.word, self.hash_family
        hbits, h_eval = fam.seed_bits, fam.eval
        levels = range(self.levels, 0, -1)
        out = np.empty(len(seeds), dtype=np.uint64)
        for idx, seed in enumerate(map(int, seeds)):
            # unrolled from the top level down: level k puts h_k(v) right
            # after each word v of the level above
            words = [seed & ((1 << word) - 1)]
            for k in levels:
                h = (seed >> (word + (k - 1) * hbits)) & ((1 << hbits) - 1)
                words = [y for v in words for y in (v, h_eval(h, v))]
            flat = 0
            for v in reversed(words):
                flat = flat << word | v
            out[idx] = flat
        return out

    def to_json(self) -> dict:
        data = {
            "kind": "nisan",
            "t": self.t,
            "w": self.w,
            "eps_target": str(self.eps_target),
            "levels": self.levels,
        }
        if self.measured_eps is not None:
            data["measured_eps"] = str(self.measured_eps)
        return data


def base_nisan(
    t: int, w: int, eps_base: Fraction, levels: Optional[int] = None
) -> NisanBase:
    if levels is None:
        levels = max(0, math.ceil(math.log2(t)))
    return NisanBase(t, w, Fraction(eps_base), levels)


def with_measured_error(g: NisanBase, eps: Fraction) -> NisanBase:
    return replace(g, measured_eps=Fraction(eps))


@dataclass(frozen=True)
class PairwiseRectangle(GeneratorSpec):
    """Block i = h(i) for a pairwise-independent hash given by the seed.

    ``eps_cr``, the budget, must come from measurement at desk scale; the
    default 1 is the trivial bound, never an assumption of quality.
    """

    blocks: int
    block_bits: int
    eps_cr: Fraction = Fraction(1)

    __post_init__ = _check_block_fields

    @property
    def hash_family(self) -> HashFamily:
        a = max(1, (self.blocks - 1).bit_length())
        return HashFamily(a, self.block_bits)

    @property
    def d(self) -> int:
        return self.hash_family.seed_bits

    @property
    def eps_budget(self) -> Fraction:
        return self.eps_cr

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        h_eval, b = self.hash_family.eval, self.block_bits
        blocks = range(self.blocks - 1, -1, -1)
        out = np.empty(len(seeds), dtype=np.uint64)
        for idx, s in enumerate(map(int, seeds)):
            flat = 0
            for i in blocks:
                flat = flat << b | h_eval(s, i)
            out[idx] = flat
        return out

    def to_json(self) -> dict:
        return {
            "kind": "pairwise_rect",
            "blocks": self.blocks,
            "block_bits": self.block_bits,
            "eps_cr": str(self.eps_cr),
        }


# --- combinators ------------------------------------------------------------------


@dataclass(frozen=True)
class InwStretch(GeneratorSpec):
    """Double the block count: output G(s) followed by G(Ext(s, s')).

    Seed = inner seed (low bits) then extractor seed.  Budget
    3 * max(inner error, extractor error): the lemma's single epsilon taken
    as a conservative max over the two roles.
    """

    inner: GeneratorSpec
    ext: Extractor

    def __post_init__(self):
        if self.ext.n != self.inner.d:
            raise ShapeError(
                f"extractor works on {self.ext.n} bits, inner seed has {self.inner.d}"
            )

    @property
    def d(self) -> int:
        return self.inner.d + self.ext.d

    @property
    def blocks(self) -> int:
        return 2 * self.inner.blocks

    @property
    def block_bits(self) -> int:
        return self.inner.block_bits

    @property
    def eps_budget(self) -> Fraction:
        return 3 * max(self.inner.eps_budget, self.ext.eps)

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        s_g = seeds & np.uint64((1 << self.inner.d) - 1)
        s_e = seeds >> np.uint64(self.inner.d)
        if self.ext.kind == "perfect":
            s2 = s_e
        else:  # cayley: Ext(x, s) = x XOR g_s
            s2 = s_g ^ np.asarray(self.ext.generators, dtype=np.uint64)[s_e]
        return _expand_part(self.inner, s_g) | (
            _expand_part(self.inner, s2) << np.uint64(self.inner.flat_bits)
        )

    def to_json(self) -> dict:
        return {
            "kind": "inw",
            "inner": self.inner.to_json(),
            "extractor": self.ext.to_json(),
        }


def inw_stretch(g: GeneratorSpec, ext: Extractor) -> InwStretch:
    return InwStretch(g, ext)


@dataclass(frozen=True)
class RectCompose(GeneratorSpec):
    """Feed rectangle-generated seeds into independent copies of a base.

    The rectangle is any generator whose blocks are base seeds.  Budget
    r * eps_base + eps_cr: the telescoping product bound plus the
    rectangle generator's own error.
    """

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

    @property
    def d(self) -> int:
        return self.rect.d

    @property
    def blocks(self) -> int:
        return self.rect.blocks

    @property
    def block_bits(self) -> int:
        return self.base.block_bits

    @property
    def eps_budget(self) -> Fraction:
        return self.blocks * self.base.eps_budget + self.rect.eps_budget

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        self.rect._check_packs()
        rect_out = self.rect.expand_seeds(seeds)
        m, t = self.rect.block_bits, self.base.block_bits
        mask = np.uint64((1 << m) - 1)
        out = np.zeros(len(seeds), dtype=np.uint64)
        for i in range(self.blocks):
            block_seeds = (rect_out >> np.uint64(i * m)) & mask
            out |= _expand_part(self.base, block_seeds) << np.uint64(i * t)
        return out

    def to_json(self) -> dict:
        return {
            "kind": "rect_compose",
            "base": self.base.to_json(),
            "rect": self.rect.to_json(),
        }


def rect_compose(base: GeneratorSpec, rect: GeneratorSpec) -> RectCompose:
    return RectCompose(base, rect)


@dataclass(frozen=True)
class Interleave(GeneratorSpec):
    """Alternate the blocks of two same-shape generators: x1 y1 x2 y2 ...

    Independent seed halves (g1 low, g2 high).  Budget twice the larger
    component budget, valid against window-size <= block_bits programs.
    """

    g1: GeneratorSpec
    g2: GeneratorSpec

    def __post_init__(self):
        if (self.g1.blocks, self.g1.block_bits) != (self.g2.blocks, self.g2.block_bits):
            raise ShapeError("interleaved generators must have matching shapes")

    @property
    def d(self) -> int:
        return self.g1.d + self.g2.d

    @property
    def blocks(self) -> int:
        return 2 * self.g1.blocks

    @property
    def block_bits(self) -> int:
        return self.g1.block_bits

    @property
    def eps_budget(self) -> Fraction:
        return 2 * max(self.g1.eps_budget, self.g2.eps_budget)

    def _merge(self, o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
        """Packed outputs whose blocks alternate those of ``o1`` and ``o2``."""
        t = self.block_bits
        mask = np.uint64((1 << t) - 1)
        out = np.zeros(len(o1), dtype=np.uint64)
        for i in range(self.g1.blocks):
            out |= ((o1 >> np.uint64(i * t)) & mask) << np.uint64(2 * i * t)
            out |= ((o2 >> np.uint64(i * t)) & mask) << np.uint64((2 * i + 1) * t)
        return out

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        o1 = _expand_part(self.g1, seeds & np.uint64((1 << self.g1.d) - 1))
        o2 = _expand_part(self.g2, seeds >> np.uint64(self.g1.d))
        return self._merge(o1, o2)

    def output_counts(self, cap: int = DEFAULT_CAP_BITS) -> Tuple[np.ndarray, np.ndarray]:
        """The product of the halves' counts, built from their distinct
        outputs alone.  The merge is a bit permutation of (o1, o2), so
        distinct pairs give distinct outputs."""
        self._check_enumerable(cap)
        v1, c1 = self.g1.output_counts(cap)
        v2, c2 = self.g2.output_counts(cap)
        values = self._merge(np.repeat(v1, len(v2)), np.tile(v2, len(v1)))
        return values, np.outer(c1, c2).ravel()

    def to_json(self) -> dict:
        return {"kind": "interleave", "g1": self.g1.to_json(), "g2": self.g2.to_json()}


def interleave(g1: GeneratorSpec, g2: GeneratorSpec) -> Interleave:
    return Interleave(g1, g2)


ExtractorFactory = Callable[[int, Fraction], Extractor]


def _perfect_factory(n_bits: int, eps_hint: Fraction) -> Extractor:
    return perfect_extractor(n_bits)


def build_swbp_prg(
    n: int,
    t: int,
    w: int,
    base: GeneratorSpec,
    strategy: str,
    rect: Optional[GeneratorSpec] = None,
    ext_factory: ExtractorFactory = _perfect_factory,
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
            g = inw_stretch(g, ext_factory(g.d, g.eps_budget))
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


def generator_from_json(data: dict) -> GeneratorSpec:
    kind = data["kind"]
    if kind == "exhaustive":
        return Exhaustive(1, data["t"])
    if kind == "exhaustive_rect":
        return Exhaustive(data["blocks"], data["block_bits"])
    if kind == "pairwise_rect":
        return PairwiseRectangle(
            data["blocks"], data["block_bits"], Fraction(data["eps_cr"])
        )
    if kind == "nisan":
        g = base_nisan(
            data["t"], data["w"], Fraction(data["eps_target"]), data.get("levels")
        )
        if "measured_eps" in data:
            g = with_measured_error(g, Fraction(data["measured_eps"]))
        return g
    if kind == "inw":
        return InwStretch(
            generator_from_json(data["inner"]), extractor_from_json(data["extractor"])
        )
    if kind == "rect_compose":
        return RectCompose(
            generator_from_json(data["base"]), generator_from_json(data["rect"])
        )
    if kind == "interleave":
        return Interleave(generator_from_json(data["g1"]), generator_from_json(data["g2"]))
    raise ParameterError(f"unknown generator kind {kind!r}")
