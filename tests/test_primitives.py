import itertools
import math
from fractions import Fraction
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swprg.errors import ConfigurationError, ParameterError, ShapeError
from swprg.primitives import (
    Extractor,
    HashFamily,
    SmallBiasSet,
    _IRREDUCIBLE,
    _gf_mul,
    aghp_set,
    cayley_extractor,
    cayley_extractor_from_set,
    extractor_from_json,
    measure_bias,
    perfect_extractor,
)


def full_group_set(n: int) -> SmallBiasSet:
    return SmallBiasSet(n, tuple(range(1 << n)), Fraction(0))


def singleton_zero_set(n: int) -> SmallBiasSet:
    return SmallBiasSet(n, (0,), Fraction(1))


# --- distribution diagnostics ---------------------------------------------------

Distribution = Dict[object, Fraction]


def statistical_distance(x: Distribution, y: Distribution, universe=None) -> Fraction:
    """Half the l1 distance between two finite distributions."""
    if universe is not None:
        bad = (set(x) | set(y)) - set(universe)
        if bad:
            raise ShapeError(f"outcomes outside the declared universe: {sorted(bad)[:5]}")
    keys = set(x) | set(y)
    total = sum(abs(x.get(k, Fraction(0)) - y.get(k, Fraction(0))) for k in keys)
    return total / 2


def min_entropy(x: Distribution) -> float:
    """log2 of 1 / max probability."""
    top = max(p for p in x.values() if p > 0)
    return float(-math.log2(top))


def uniform_distribution(n: int) -> Distribution:
    p = Fraction(1, 1 << n)
    return {v: p for v in range(1 << n)}


def flat_source(points) -> Distribution:
    points = list(points)
    p = Fraction(1, len(points))
    return {v: p for v in points}


def extractor_output_distribution(ext: Extractor, source: Distribution) -> Distribution:
    """Exact output distribution of Ext(X, U_d).

    For each distinct source probability, the (x, seed) pairs reaching each
    output are counted as integers; each output's probability is one
    ``Fraction`` over the common denominator, made at return.
    """
    hists: Dict[Fraction, Dict[object, int]] = {}
    for x, px in source.items():
        hist = hists.setdefault(Fraction(px), {})
        for s in range(1 << ext.d):
            y = ext.apply(x, s)
            hist[y] = hist.get(y, 0) + 1
    denom = math.lcm(*(p.denominator for p in hists))
    weights: Dict[object, int] = {}
    for p, hist in hists.items():
        scale = p.numerator * (denom // p.denominator)
        for y, count in hist.items():
            weights[y] = weights.get(y, 0) + scale * count
    return {y: Fraction(wt, denom << ext.d) for y, wt in weights.items()}


def test_hash_family_exactly_pairwise_independent():
    fam = HashFamily(2, 2)
    seeds = 1 << fam.seed_bits
    for x1, x2 in itertools.combinations(range(4), 2):
        counts = {}
        for s in range(seeds):
            pair = (fam.eval(s, x1), fam.eval(s, x2))
            counts[pair] = counts.get(pair, 0) + 1
        # every (y1, y2) pair equally likely
        assert set(counts) == set(itertools.product(range(4), repeat=2))
        assert len(set(counts.values())) == 1


def test_hash_family_marginal_uniform():
    fam = HashFamily(3, 2)
    for x in range(8):
        counts = [0] * 4
        for s in range(1 << fam.seed_bits):
            counts[fam.eval(s, x)] += 1
        assert len(set(counts)) == 1


def hash_by_rows(a, b, member_seed, x):
    """h(x) one row at a time: bit i is the parity of row i of A masked by x
    (x < 2**a, so the bits of the later rows drop out)."""
    y = member_seed >> (a * b)
    row = member_seed
    for i in range(b):
        y ^= ((row & x).bit_count() & 1) << i
        row >>= a
    return y


def test_hash_eval_matches_matrix_product():
    # y = A x + c over GF(2), with A read row-major from the seed's low a*b
    # bits and c from the rest, computed as a numpy matrix product and row by
    # row.  (5, 4) and (7, 3) take several table reads of 2 and 4 rows,
    # (13, 2) reads one row at a time.  Seeds and inputs are all of them up
    # to 2**16 and 2**7, else sampled with both ends.
    rng = np.random.default_rng(15)

    def grid(bits, limit, size):
        if bits <= limit:
            return np.arange(1 << bits, dtype=np.int64)
        sample = rng.integers(0, 1 << bits, size=size, dtype=np.int64)
        return np.concatenate(([0, (1 << bits) - 1], sample))

    for a, b in ((1, 1), (2, 3), (3, 4), (4, 2), (5, 4), (7, 3), (13, 2)):
        fam = HashFamily(a, b)
        seeds, xs = grid(fam.seed_bits, 16, 1024), grid(a, 7, 64)
        A = ((seeds[:, None] >> np.arange(a * b)) & 1).reshape(-1, b, a)
        x_bits = (xs[:, None] >> np.arange(a)) & 1
        ys = (A @ x_bits.T) % 2 ^ ((seeds[:, None] >> (a * b + np.arange(b))) & 1)[:, :, None]
        want = (ys << np.arange(b)[None, :, None]).sum(axis=1)
        pairs = [(s, x) for s in seeds.tolist() for x in xs.tolist()]
        got = [fam.eval(s, x) for s, x in pairs]
        assert np.array_equal(np.array(got).reshape(want.shape), want), (a, b)
        assert got == [hash_by_rows(a, b, s, x) for s, x in pairs], (a, b)


def test_hash_eval_refuses_out_of_range():
    fam = HashFamily(3, 2)
    for seed, x in ((0, -1), (0, 1 << 3), (-1, 0), (1 << fam.seed_bits, 0)):
        with pytest.raises(ShapeError):
            fam.eval(seed, x)


def test_hash_family_refuses_a_shape_that_is_not_a_positive_int():
    # HashFamily(0, 4) once built and raised ZeroDivisionError on its first eval
    for a, b in ((0, 4), (3, 0), (-1, 2), (True, 2), (2, False), (2.0, 2), (2, "2")):
        with pytest.raises(ParameterError, match="hash family"):
            HashFamily(a, b)
    assert HashFamily(1, 1).eval(0b11, 1) == 0


def test_gf_mul_field_axioms():
    for ell in (2, 3, 4):
        size = 1 << ell
        # every nonzero element has an inverse (multiplication is a bijection)
        for a in range(1, size):
            images = {_gf_mul(a, b, ell) for b in range(size)}
            assert images == set(range(size))
        # associativity on a sample
        for a, b, c in itertools.product(range(size), repeat=3):
            assert _gf_mul(_gf_mul(a, b, ell), c, ell) == _gf_mul(a, _gf_mul(b, c, ell), ell)


def test_irreducible_polys_have_no_roots_in_subfields():
    # a polynomial with a nontrivial factor of degree k <= d/2 would make
    # multiplication degenerate; bijectivity above covers 2..4, here we
    # sanity-check the table degrees
    for deg, poly in _IRREDUCIBLE.items():
        assert poly.bit_length() == deg + 1


def test_full_group_set_bias_zero():
    s = full_group_set(4)
    assert measure_bias(4, s.members) == 0


def test_singleton_zero_bias_one():
    s = singleton_zero_set(4)
    assert measure_bias(4, s.members) == 1


def test_aghp_bias_within_bound():
    for n, ell in ((4, 3), (6, 4), (8, 4)):
        s = aghp_set(n, ell)
        assert len(s.members) == 1 << (2 * ell)
        assert s.bias == measure_bias(n, tuple(s.members))
        assert s.bias <= Fraction(n - 1, 1 << ell)


def test_perfect_extractor_is_exact():
    ext = perfect_extractor(4)
    src = flat_source([3, 7, 9])
    out = extractor_output_distribution(ext, src)
    assert statistical_distance(out, uniform_distribution(4)) == 0


def test_output_distribution_of_a_non_flat_source():
    # three distinct source probabilities against Fraction-weighted sums
    ext = cayley_extractor_from_set(4, 1, aghp_set(4, 2))
    source = {0: Fraction(1, 2), 5: Fraction(1, 3), 9: Fraction(1, 12), 14: Fraction(1, 12)}
    want = {}
    for x, px in source.items():
        for s in range(1 << ext.d):
            y = ext.apply(x, s)
            want[y] = want.get(y, Fraction(0)) + px / (1 << ext.d)
    got = extractor_output_distribution(ext, source)
    assert got == want and sum(got.values()) == 1
    assert extractor_output_distribution(ext, {}) == {}


def test_cayley_extractor_bound_over_all_affine_sources():
    # exhaustive over every affine coset of dimension k = n - 1 at n = 6
    n, deficiency = 6, 1
    ext = cayley_extractor(n, deficiency, Fraction(1, 2))
    uniform = uniform_distribution(n)
    worst = Fraction(0)
    for basis in itertools.combinations(range(n), n - deficiency):
        span = [0]
        for b in basis:
            span += [v ^ (1 << b) for v in span]
        for shift in range(1 << n):
            coset = [v ^ shift for v in span]
            out = extractor_output_distribution(ext, flat_source(coset))
            worst = max(worst, statistical_distance(out, uniform))
    assert worst <= ext.eps


def test_cayley_extractor_bound_over_all_flat_sources_small():
    # truly exhaustive: every flat source of min-entropy 3 at n = 4;
    # distances computed on integer counts (denominator 8 * 2**d throughout)
    import numpy as np

    n, k = 4, 3
    ext = cayley_extractor_from_set(n, n - k, aghp_set(n, 4))
    per_x = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for x in range(1 << n):
        for s in range(1 << ext.d):
            per_x[x, ext.apply(x, s)] += 1
    total = (1 << k) * (1 << ext.d)
    worst_l1 = 0
    for points in itertools.combinations(range(1 << n), 1 << k):
        counts = per_x[list(points)].sum(axis=0)
        worst_l1 = max(worst_l1, int(np.abs(counts * (1 << n) - total).sum()))
    worst = Fraction(worst_l1, 2 * total * (1 << n))
    assert worst <= ext.eps
    # spot-check the integer-count shortcut against the exact reference
    pts = tuple(range(1 << k))
    ref = statistical_distance(
        extractor_output_distribution(ext, flat_source(pts)),
        uniform_distribution(n),
    )
    fast = Fraction(
        int(np.abs(per_x[list(pts)].sum(axis=0) * (1 << n) - total).sum()),
        2 * total * (1 << n),
    )
    assert ref == fast


def test_cayley_extractor_refuses_infeasible():
    with pytest.raises(ConfigurationError):
        cayley_extractor(8, 4, Fraction(1, 10**6), max_seed_bits=10)


def test_extractor_json_roundtrip():
    ext = cayley_extractor(6, 2, Fraction(1, 2))
    back = extractor_from_json(ext.to_json())
    assert back == ext
    p = perfect_extractor(5)
    assert extractor_from_json(p.to_json()) == p


def test_extractor_from_json_refuses_a_stated_eps_or_bias():
    # the Cayley extractor is rebuilt from its generators, so an edited eps
    # cannot shrink the budget of a stretch built on it
    ext = cayley_extractor(6, 2, Fraction(1, 2))
    data = ext.to_json()
    assert extractor_from_json(data) == ext
    for name in ("eps", "bias"):
        with pytest.raises(ConfigurationError):
            extractor_from_json({**data, name: "0"})
    with pytest.raises(ConfigurationError):
        extractor_from_json({**data, "eps": str(ext.eps * 2)})


def test_extractor_from_json_refuses_stated_perfect_fields():
    # a perfect extractor is rebuilt from its n; a differing d, k or eps was
    # silently rewritten, and is refused now
    data = perfect_extractor(3).to_json()
    assert extractor_from_json(data) == extractor_from_json({"kind": "perfect", "n": 3})
    with pytest.raises(ConfigurationError):
        extractor_from_json({"kind": "perfect", "n": 3, "d": 9, "k": 2, "eps": "1/2"})
    for name, value in (("d", 9), ("k", 2), ("eps", "1/2"), ("bias", "0")):
        with pytest.raises(ConfigurationError, match=name):
            extractor_from_json({**data, name: value})


@pytest.mark.parametrize("ext", [perfect_extractor(3), cayley_extractor(6, 2, Fraction(1, 2))],
                         ids=["perfect", "cayley"])
def test_extractor_from_json_refuses_a_key_that_is_no_field(ext):
    # a stray key was dropped, as a misspelt "eps" would be
    data = ext.to_json()
    assert extractor_from_json(data) == ext
    for key in ("bogus", "epsilon"):
        with pytest.raises(ParameterError, match=repr(key)):
            extractor_from_json({**data, key: "0"})


def test_min_entropy_flat():
    assert min_entropy(flat_source(range(8))) == 3.0


def test_statistical_distance_basic():
    x = {0: Fraction(1)}
    y = uniform_distribution(1)
    assert statistical_distance(x, y) == Fraction(1, 2)
    with pytest.raises(ShapeError):
        statistical_distance(x, y, universe=[1])


@given(st.integers(0, 63), st.integers(0, 63))
def test_gf_mul_commutative(a, b):
    assert _gf_mul(a, b, 6) == _gf_mul(b, a, 6)
