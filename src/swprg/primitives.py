"""Seedable building blocks: pairwise-independent hashes, small-bias sets,
and extractors."""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .bits import parity
from .errors import (
    ConfigurationError, ParameterError, ShapeError, read_fraction, refuse_unknown_keys,
)

# --- pairwise-independent hashing --------------------------------------------


@dataclass(frozen=True)
class HashFamily:
    """Affine maps h(x) = Ax + c over GF(2), domain 2**a -> range 2**b.

    A member is described by a*b + b seed bits: the b x a matrix A in
    row-major order, then the offset c.  Uniform (A, c) gives exact pairwise
    independence: h(x1) is uniform via c, and h(x1) + h(x2) = A(x1 + x2) is
    uniform and independent for x1 != x2.
    """

    a: int
    b: int

    def __post_init__(self):
        for name in ("a", "b"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ParameterError(f"hash family {name} must be an int >= 1: {value!r}")
        # the kernel of eval, as plain instance values: set one at a time, the
        # instance keeps the compact attribute layout that makes each read cheap
        for name, value in zip(_KERNEL, _hash_kernel(self.a, self.b)):
            object.__setattr__(self, name, value)

    @property
    def seed_bits(self) -> int:
        return self.a * self.b + self.b

    def eval(self, member_seed: int, x: int) -> int:
        # one call per seed and block on the generator path: row field i of
        # z is row i of A masked by x, and the table reads the parities of
        # a chunk of rows at once; a shift that leaves bits refuses a value
        # out of range, a negative one included
        if x >> self.a:
            raise ShapeError(f"hash input {x} outside domain [0, {1 << self.a})")
        if member_seed >> self._seed_bits:
            raise ShapeError("hash member seed outside description length")
        z = member_seed & (x * self._rep)
        mask = self._mask
        y = member_seed >> self._ab ^ self._table[z & mask]
        shift = 0
        while z > mask:  # row fields left beyond this read
            z >>= self._width
            shift += self._rows
            y ^= self._table[z & mask] << shift
        return y


# the names of the values of _hash_kernel, as HashFamily holds them
_KERNEL = ("_seed_bits", "_ab", "_rep", "_table", "_rows", "_width", "_mask")


@lru_cache(maxsize=None)
def _hash_kernel(a: int, b: int) -> Tuple[int, int, int, List[int], int, int, int]:
    """What :meth:`HashFamily.eval` needs for shape (a, b), built once and
    shared by every family of that shape: a*b + b, the seed length; a*b,
    where the offset starts; the multiplier that repeats an input into each
    of the b row fields; a table whose entry z has as bit i the parity of
    the i-th a-bit field of z, for the k = max(1, min(b, 12 // a)) fields of
    one table read; and k, the k*a bits of one read and their mask.  The
    table has 2**(k*a) entries, 2**a once a > 12; the generators keep
    a <= 7, as their seeds pack into 64 bits."""
    rows = max(1, min(b, 12 // a))
    row_mask = (1 << a) - 1
    table = [0] * (1 << (rows * a))
    for z in range(1, len(table)):
        table[z] = table[z >> a] << 1 | ((z & row_mask).bit_count() & 1)
    rep = 0
    for i in range(b):
        rep |= 1 << (i * a)
    width = rows * a
    return a * b + b, a * b, rep, table, rows, width, (1 << width) - 1


# --- small-bias sets ----------------------------------------------------------

# irreducible polynomials over GF(2), degree 1..12 (top bit = degree)
_IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


def _gf_mul(a: int, b: int, ell: int) -> int:
    poly = _IRREDUCIBLE[ell]
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> ell:
            a ^= poly
    return res


@dataclass(frozen=True)
class SmallBiasSet:
    """An explicit multiset of n-bit strings with measured bias.

    ``bias`` is max over nonzero linear tests alpha of
    |avg over members of (-1)^<alpha, g>|, an exact rational.
    """

    n: int
    members: Tuple[int, ...]
    bias: Fraction

    @property
    def log_size(self) -> int:
        size = len(self.members)
        k = size.bit_length() - 1
        if 1 << k != size:
            raise ParameterError("set size must be a power of two")
        return k


def measure_bias(n: int, members: Tuple[int, ...]) -> Fraction:
    # the largest |sum over members of (-1)**<alpha, g>| over nonzero tests alpha
    sums = (abs(sum(1 - 2 * parity(alpha & g) for g in members)) for alpha in range(1, 1 << n))
    return Fraction(max(sums, default=0), len(members))


def aghp_set(n: int, ell: int) -> SmallBiasSet:
    """Polynomial-evaluation construction over GF(2**ell).

    Member (x, y) has i-th bit <x**i, y>; a nonzero test alpha reduces to a
    degree <= n-1 polynomial in x, so the bias is at most (n-1)/2**ell.
    Size 2**(2*ell); the bias stored is measured exactly, not the bound.
    """
    if ell not in _IRREDUCIBLE:
        raise ConfigurationError(f"field degree {ell} unsupported (1..12)")
    members = []
    for x in range(1 << ell):
        powers = []
        p = 1
        for _ in range(n):
            powers.append(p)
            p = _gf_mul(p, x, ell)
        for y in range(1 << ell):
            g = 0
            for i in range(n):
                g |= parity(powers[i] & y) << i
            members.append(g)
    return SmallBiasSet(n, tuple(members), measure_bias(n, tuple(members)))


# --- extractors ----------------------------------------------------------------


@dataclass(frozen=True)
class Extractor:
    """Seeded extractor with input length = output length = ``n``.

    ``kind`` is "perfect" (Ext(x, s) = s, zero error for every source) or
    "cayley" (Ext(x, s) = x XOR g_s over a small-bias generating set).  The
    ``eps`` field is an exact rational upper bound on the statistical
    distance from uniform over all sources of min-entropy >= ``k``; for the
    Cayley kind it is derived from the measured bias, never assumed.
    """

    kind: str
    n: int
    d: int
    k: int
    eps: Fraction
    generators: Optional[Tuple[int, ...]] = None
    bias: Optional[Fraction] = None

    def apply(self, x: int, s: int) -> int:
        if not 0 <= x < (1 << self.n):
            raise ShapeError("extractor input out of range")
        if not 0 <= s < (1 << self.d):
            raise ShapeError("extractor seed out of range")
        if self.kind == "perfect":
            return s
        return x ^ self.generators[s]

    def to_json(self) -> dict:
        data = {"kind": self.kind, "n": self.n, "d": self.d, "k": self.k,
                "eps": str(self.eps)}
        if self.kind == "cayley":
            data["generators"] = list(self.generators)
            data["bias"] = str(self.bias)
        return data


def extractor_from_json(data: dict) -> Extractor:
    """The inverse of ``Extractor.to_json``; refuses unknown kinds and bad
    generator lists.  An extractor is rebuilt from its ``n`` (perfect) or
    its generators with their bias measured again (Cayley), and a stated
    ``d``, ``k``, ``eps`` or ``bias`` that differs from the rebuilt one's is
    refused (``ConfigurationError``); so is a key that is no field (``ParameterError``)."""
    kind, n = data["kind"], data["n"]
    refuse_unknown_keys(data, {f.name for f in fields(Extractor)}, f"a {kind} extractor")
    if kind == "perfect":
        ext = perfect_extractor(n)
    elif kind == "cayley":
        d, gens = data["d"], tuple(data["generators"])
        if len(gens) != 1 << d or not all(0 <= v < 1 << n for v in gens):
            raise ShapeError(f"a Cayley extractor needs 2**{d} generators in [0, 2**{n})")
        bias = measure_bias(n, gens)
        ext = cayley_extractor_from_set(n, n - data["k"], SmallBiasSet(n, gens, bias))
    else:
        raise ParameterError(f"unknown extractor kind {kind!r}")
    for key in ("d", "k", "eps", "bias"):
        if key in data and read_fraction(data[key], key) != getattr(ext, key):
            raise ConfigurationError(
                f"{kind} extractor {key} {data[key]} is not its rebuilt {getattr(ext, key)}"
            )
    return ext


def perfect_extractor(n: int) -> Extractor:
    """Ext(x, s) = s: seed length n, exactly uniform for every source."""
    return Extractor("perfect", n, n, 0, Fraction(0))


def cayley_extractor_from_set(n: int, deficiency: int, gens: SmallBiasSet) -> Extractor:
    """XOR with a small-bias set; extractor error from the mixing bound.

    For a flat source of min-entropy k = n - deficiency, walking one step on
    the Cayley graph with generator bias beta leaves l2 distance at most
    beta * sqrt(2**-k), hence statistical distance at most
    beta * sqrt(2**(n-k)) / 2.  The stored eps rounds the half-power up to
    keep the bound rational.
    """
    if gens.n != n:
        raise ShapeError("generating set has wrong dimension")
    if deficiency < 0 or deficiency > n:
        raise ParameterError("deficiency out of range")
    k = n - deficiency
    eps = gens.bias * (1 << ((deficiency + 1) // 2)) / 2
    return Extractor("cayley", n, gens.log_size, k, eps, gens.members, gens.bias)


def cayley_extractor(
    n: int, deficiency: int, target_eps: Fraction, max_seed_bits: int = 20
) -> Extractor:
    """Pick the smallest polynomial-evaluation set meeting ``target_eps``.

    Raises ``ConfigurationError`` (reporting the required set size) if the
    needed set exceeds ``max_seed_bits`` seed bits.
    """
    if target_eps <= 0:
        raise ParameterError("target_eps must be positive")
    # eps = beta * 2**ceil(deficiency/2) / 2 and the construction guarantees
    # beta <= (n-1)/2**ell
    beta_target = 2 * target_eps / (1 << ((deficiency + 1) // 2))
    ell = 1
    while Fraction(max(n - 1, 1), 1 << ell) > beta_target:
        ell += 1
    if 2 * ell > max_seed_bits:
        raise ConfigurationError(
            f"needs a bias-{float(beta_target):.3g} set of size 2**{2 * ell} "
            f"(> {max_seed_bits} seed bits)"
        )
    return cayley_extractor_from_set(n, deficiency, aghp_set(n, ell))
