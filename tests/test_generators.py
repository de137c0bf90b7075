import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from swprg.bits import bits_to_int
from swprg.errors import CapExceeded, ParameterError, ShapeError
from swprg.generators import (
    CHUNK,
    _expand_all_cached,
    NODES,
    Exhaustive,
    ExhaustiveRectangle,
    PairwiseRectangle,
    base_exhaustive,
    base_nisan,
    build_swbp_prg,
    generator_from_json,
    interleave,
    inw_stretch,
    rect_compose,
    with_measured_error,
)
from swprg.hsg import hsg_from_json
from swprg.primitives import (
    HashFamily, aghp_set, cayley_extractor, cayley_extractor_from_set, perfect_extractor,
)


# --- pure-Python reference expander ------------------------------------------
# Works from a node's JSON form alone, with its own parity and hashing, so it
# shares no expansion code with the package.


def ref_parity(x):
    p = 0
    while x:
        p ^= x & 1
        x >>= 1
    return p


def ref_hash(a, b, member, x):
    """Affine GF(2) map: b rows of a bits (row-major), then the offset."""
    y = 0
    for i in range(b):
        y |= ref_parity((member >> (i * a)) & ((1 << a) - 1) & x) << i
    return y ^ (member >> (a * b))


def ref_shape(node):
    """(seed bits, blocks, block bits) of a JSON node."""
    kind = node["kind"]
    if kind == "exhaustive":
        return node["t"], 1, node["t"]
    if kind == "exhaustive_rect":
        return node["blocks"] * node["block_bits"], node["blocks"], node["block_bits"]
    if kind == "pairwise_rect":
        a, b = max(1, (node["blocks"] - 1).bit_length()), node["block_bits"]
        return a * b + b, node["blocks"], b
    if kind == "nisan":
        word = node["t"] >> node["levels"]
        return word + node["levels"] * (word * word + word), 1, node["t"]
    if kind == "inw":
        d, blocks, bits = ref_shape(node["inner"])
        return d + node["extractor"]["d"], 2 * blocks, bits
    if kind == "rect_compose":
        d, blocks, _ = ref_shape(node["rect"])
        return d, blocks, ref_shape(node["base"])[2]
    assert kind == "interleave", kind
    d1, blocks, bits = ref_shape(node["g1"])
    return d1 + ref_shape(node["g2"])[0], 2 * blocks, bits


def ref_expand(node, seed):
    """Flat output of a JSON node on one seed, as a Python int."""
    kind = node["kind"]
    if kind in ("exhaustive", "exhaustive_rect"):
        return seed
    if kind == "pairwise_rect":
        a, b = max(1, (node["blocks"] - 1).bit_length()), node["block_bits"]
        return sum(ref_hash(a, b, seed, i) << (i * b) for i in range(node["blocks"]))
    if kind == "nisan":
        word = node["t"] >> node["levels"]
        hbits = word * word + word

        def level(k, s):
            if k == 0:
                return s
            h = (seed >> (word + (k - 1) * hbits)) & ((1 << hbits) - 1)
            upper = level(k - 1, ref_hash(word, word, h, s))
            return level(k - 1, s) | (upper << (word << (k - 1)))

        return level(node["levels"], seed & ((1 << word) - 1))
    if kind == "inw":
        d, blocks, bits = ref_shape(node["inner"])
        s_g, s_e = seed & ((1 << d) - 1), seed >> d
        ext = node["extractor"]
        s2 = s_e if ext["kind"] == "perfect" else s_g ^ ext["generators"][s_e]
        return ref_expand(node["inner"], s_g) | (
            ref_expand(node["inner"], s2) << (blocks * bits)
        )
    if kind == "rect_compose":
        _, blocks, m = ref_shape(node["rect"])
        t = ref_shape(node["base"])[2]
        rv = ref_expand(node["rect"], seed)
        return sum(
            ref_expand(node["base"], (rv >> (i * m)) & ((1 << m) - 1)) << (i * t)
            for i in range(blocks)
        )
    assert kind == "interleave", kind
    d1, blocks, t = ref_shape(node["g1"])
    o1 = ref_expand(node["g1"], seed & ((1 << d1) - 1))
    o2 = ref_expand(node["g2"], seed >> d1)
    out = 0
    for i in range(blocks):
        out |= ((o1 >> (i * t)) & ((1 << t) - 1)) << (2 * i * t)
        out |= ((o2 >> (i * t)) & ((1 << t) - 1)) << ((2 * i + 1) * t)
    return out


def every_node_kind():
    nisan = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    half = rect_compose(base_exhaustive(2), ExhaustiveRectangle(2, 2))
    return [
        base_exhaustive(3),
        ExhaustiveRectangle(3, 2),
        nisan,
        base_nisan(4, 4, Fraction(1, 4)),
        PairwiseRectangle(3, 2, Fraction(1, 4)),
        inw_stretch(base_exhaustive(3), perfect_extractor(3)),
        inw_stretch(nisan, cayley_extractor(nisan.d, 2, Fraction(1, 2))),
        rect_compose(base_exhaustive(2), PairwiseRectangle(3, 2)),
        rect_compose(nisan, ExhaustiveRectangle(2, nisan.d)),
        interleave(base_exhaustive(3), base_exhaustive(3)),
        interleave(half, half),
    ]


def test_exhaustive_base_identity():
    g = base_exhaustive(3)
    assert g.d == 3 and g.blocks == 1 and g.block_bits == 3
    assert g.eps_budget == 0
    for s in range(8):
        assert g.expand_int(s) == s
    assert list(g.expand_all()) == list(range(8))


def test_expand_bitstring_interface():
    g = base_exhaustive(4)
    seed = (1, 0, 1, 1)
    assert g.expand(seed) == seed
    with pytest.raises(ShapeError):
        g.expand((1, 0))


def test_nisan_base_shape_and_seed_budget():
    g = base_nisan(4, 2, Fraction(1, 4))
    # word 1, two levels, each hash over 1 bit costs 2 seed bits
    assert g.word == 1 and g.levels == 2 and g.d == 5
    outs = g.expand_all()
    assert len(outs) == 32
    assert all(0 <= int(v) < 16 for v in outs)


def test_nisan_recursion_structure():
    # with both hashes fixed to the identity (A=1, c=0), the output is the
    # seed word repeated
    g = base_nisan(4, 2, Fraction(1, 4))
    # seed layout: word bit, then hash level 1 (2 bits), hash level 2 (2 bits)
    ident = 0b01  # A=1, c=0 packed per HashFamily(1, 1)
    seed = bits_to_int((1,)) | (ident << 1) | (ident << 3)
    assert g.expand_int(seed) == 0b1111


def test_nisan_measured_error_overrides_target():
    g = base_nisan(4, 2, Fraction(1, 4))
    assert g.eps_budget == Fraction(1, 4)
    g2 = with_measured_error(g, Fraction(1, 8))
    assert g2.eps_budget == Fraction(1, 8)
    assert g.eps_budget == Fraction(1, 4)  # original untouched


def test_nisan_rejects_bad_shape():
    with pytest.raises(ParameterError):
        base_nisan(6, 2, Fraction(1, 4), levels=2)  # 6 != word << 2


@pytest.mark.parametrize("field, value", [
    ("t", 0), ("t", -4), ("t", True), ("t", 4.0), ("t", "4"),
    ("w", 0), ("w", True), ("w", 4.0),
    ("levels", -1), ("levels", True), ("levels", 2.0),
])
def test_nisan_refuses_bad_fields(field, value):
    # a bool is refused as an int, so "t": true no longer loads as a 1-bit base
    data = {"kind": "nisan", "t": 4, "w": 4, "eps_target": "1/4", field: value}
    with pytest.raises(ParameterError, match=field):
        generator_from_json(data)


BUDGET_FIELDS = {
    # field: its node's JSON, and the node built directly with the field at a value
    "eps_cr": ({"kind": "pairwise_rect", "blocks": 3, "block_bits": 2, "eps_cr": "1/4"},
               lambda v: PairwiseRectangle(3, 2, v)),
    "eps_target": ({"kind": "nisan", "t": 4, "w": 4, "eps_target": "1/4"},
                   lambda v: base_nisan(4, 4, v)),
    "measured_eps": ({"kind": "nisan", "t": 4, "w": 4, "eps_target": "1/4", "measured_eps": "1/8"},
                     lambda v: with_measured_error(base_nisan(4, 4, Fraction(1, 4)), v)),
}


@pytest.mark.parametrize("value", ["-1/2", "3/2"])
@pytest.mark.parametrize("field", BUDGET_FIELDS)
def test_budget_fields_refuse_values_outside_the_unit_interval(field, value):
    # a budget is also a hitting threshold: below 0 it would demand a witness
    # for programs of probability 0
    data, build = BUDGET_FIELDS[field]
    with pytest.raises(ParameterError, match=field):
        generator_from_json({**data, field: value})
    with pytest.raises(ParameterError, match=field):
        build(Fraction(value))
    for edge in (0, 1):
        assert generator_from_json({**data, field: str(edge)}).eps_budget == edge
        assert build(Fraction(edge)).eps_budget == edge


def test_inw_stretch_perfect_extractor_concatenates():
    g = base_exhaustive(2)
    st = inw_stretch(g, perfect_extractor(2))
    assert st.blocks == 2 and st.d == 4 and st.eps_budget == 0
    # seed = (s, s'): output is s then s'
    for s in range(4):
        for s2 in range(4):
            assert st.expand_int(s | (s2 << 2)) == s | (s2 << 2)


def test_inw_stretch_cayley_extractor_expand_all_matches_scalar():
    ext = cayley_extractor(4, 2, Fraction(1, 2))
    st = inw_stretch(base_exhaustive(4), ext)
    outs = st.expand_all()
    for seed in range(0, 1 << st.d, 7):
        assert int(outs[seed]) == st.expand_int(seed)


def test_inw_budget_constant():
    g = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    ext = cayley_extractor(g.d, 2, Fraction(1, 2))
    st = inw_stretch(g, ext)
    assert st.eps_budget == 3 * max(Fraction(1, 8), ext.eps)


def test_rect_compose_exhaustive_rectangle():
    base = base_exhaustive(2)
    g = rect_compose(base, ExhaustiveRectangle(3, 2))
    assert g.blocks == 3 and g.block_bits == 2 and g.d == 6
    for s in range(64):
        assert g.expand_int(s) == s  # identity base, identity rectangle


def test_rect_compose_budget():
    base = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    rect = PairwiseRectangle(4, base.d, eps_cr=Fraction(1, 16))
    g = rect_compose(base, rect)
    assert g.eps_budget == 4 * Fraction(1, 8) + Fraction(1, 16)


def test_pairwise_rectangle_blocks_are_hash_values():
    rect = PairwiseRectangle(4, 3)
    fam = rect.hash_family
    for seed in range(0, 1 << rect.d, 11):
        v = rect.expand_int(seed)
        for i in range(4):
            assert (v >> (3 * i)) & 7 == fam.eval(seed, i)


def test_rectangles_refuse_non_positive_blocks():
    for blocks, block_bits in ((0, 4), (-3, 4), (4, 0), (2.0, 4)):
        for make in (PairwiseRectangle, ExhaustiveRectangle):
            with pytest.raises(ParameterError):
                make(blocks, block_bits)
    with pytest.raises(ParameterError):
        generator_from_json({"kind": "pairwise_rect", "blocks": 0, "block_bits": 4, "eps_cr": "1"})


def test_interleave_order():
    g1 = base_exhaustive(2)
    g2 = base_exhaustive(2)
    st = interleave(inw_stretch(g1, perfect_extractor(2)),
                    inw_stretch(g2, perfect_extractor(2)))
    # blocks x1 y1 x2 y2, 2 bits each
    seed = 0b0011_0110  # g1 seed = 0110 (x1=10b, x2=01b), g2 seed = 0011
    out = st.expand_int(seed)
    x1, x2 = 0b10, 0b01
    y1, y2 = 0b11, 0b00
    assert out == x1 | (y1 << 2) | (x2 << 4) | (y2 << 6)


def test_interleave_budget_and_shape_check():
    a = inw_stretch(base_exhaustive(2), perfect_extractor(2))
    with pytest.raises(ShapeError):
        interleave(a, base_exhaustive(2))
    g = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    st = interleave(g, g)
    assert st.eps_budget == 2 * Fraction(1, 8)


def test_expand_all_matches_expand_int_everywhere():
    kinds = set()
    for g in every_node_kind():
        node = g.to_json()
        kinds.add(node["kind"])
        assert ref_shape(node) == (g.d, g.blocks, g.block_bits), node
        outs = g.expand_all()
        assert len(outs) == 1 << g.d
        for s in range(1 << g.d):
            want = ref_expand(node, s)
            assert int(outs[s]) == want, (node["kind"], s)
            assert g.expand_int(s) == want, (node["kind"], s)
    # every node kind is registered, and every registered kind is covered
    assert kinds == {
        "exhaustive", "exhaustive_rect", "nisan", "pairwise_rect", "inw",
        "rect_compose", "interleave",
    } == {"exhaustive", *NODES}


def expand_by_eval(g, seed):
    """Per-seed reference of a pairwise rectangle or a Nisan base: its output
    on one seed from ``hash_family.eval`` calls, one per hash value."""
    fam = g.hash_family
    if isinstance(g, PairwiseRectangle):
        return sum(fam.eval(seed, i) << (i * g.block_bits) for i in range(g.blocks))
    word, hbits = g.word, fam.seed_bits

    def words(k, v):  # the words of level k started from word v
        if k == 0:
            return [v]
        h = (seed >> (word + (k - 1) * hbits)) & ((1 << hbits) - 1)
        return words(k - 1, v) + words(k - 1, fam.eval(h, v))

    start = seed & ((1 << word) - 1)
    return sum(v << (i * word) for i, v in enumerate(words(g.levels, start)))


def test_expand_seeds_across_chunk_boundaries():
    # the per-seed loops convert seeds CHUNK at a time; arrays of every
    # length around a chunk boundary, in no order, give each seed's output
    rng = np.random.default_rng(67)
    gens = [PairwiseRectangle(8, 4), PairwiseRectangle(3, 5),
            base_nisan(8, 8, Fraction(1, 4), levels=2), base_nisan(4, 2, Fraction(1, 4))]
    for g in gens:
        for length in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
            seeds = rng.integers(0, 1 << g.d, size=length, dtype=np.uint64)
            got = g.expand_seeds(seeds)
            assert got.dtype == np.uint64 and len(got) == length
            assert got.tolist() == [expand_by_eval(g, s) for s in seeds.tolist()], (g, length)


def test_pairwise_rectangle_evaluates_each_seed_and_block_once(monkeypatch):
    # the rectangle evaluates one block of a CHUNK of seeds at a time; past a
    # chunk boundary, at a length that is no multiple of CHUNK, it still
    # makes one hash evaluation per (seed, block) and gives ref_expand's outputs
    g = PairwiseRectangle(5, 3)
    seeds = np.random.default_rng(73).integers(0, 1 << g.d, size=2 * CHUNK + 77, dtype=np.uint64)
    evaluate, blocks_read = HashFamily.eval, []

    def counted(fam, member_seed, x):
        blocks_read.append(x)
        return evaluate(fam, member_seed, x)

    monkeypatch.setattr(HashFamily, "eval", counted)
    got = g.expand_seeds(seeds)
    assert len(blocks_read) == g.blocks * len(seeds)
    assert Counter(blocks_read) == {i: len(seeds) for i in range(g.blocks)}
    assert got.tolist() == [ref_expand(g.to_json(), s) for s in seeds.tolist()]


def _count_pairs(values, counts):
    assert len(np.unique(values)) == len(values)
    assert counts.dtype == np.int64
    return sorted(zip(values.tolist(), counts.tolist()))


def test_output_counts_match_unique_of_expand_all():
    nisan2 = base_nisan(2, 2, Fraction(1, 4))  # d = 3, 2-bit outputs, some repeated
    unequal = interleave(nisan2, base_exhaustive(2))
    nested = interleave(unequal, interleave(base_exhaustive(2), nisan2))
    kinds = set()
    for g in every_node_kind() + [unequal, nested]:
        kinds.add(g.to_json()["kind"])
        want = np.unique(g.expand_all(), return_counts=True)
        assert _count_pairs(*g.output_counts()) == _count_pairs(*want), g.to_json()
    assert max(base_nisan(4, 4, Fraction(1, 4)).output_counts()[1]) > 1
    assert max(nested.output_counts()[1]) > 1
    assert kinds == {
        "exhaustive", "exhaustive_rect", "nisan", "pairwise_rect", "inw",
        "rect_compose", "interleave",
    }


def test_output_counts_refuse_as_expand_all_does():
    half = PairwiseRectangle(16, 2)  # d = 10; two halves emit 64 bits, too many to pack
    product = interleave(base_exhaustive(5), base_exhaustive(5))
    for g, caps in (
        (base_exhaustive(10), (8,)),
        (product, (8,)),  # each half fits the cap, the product does not
        (interleave(half, half), (8, 24)),
    ):
        for cap in caps:
            with pytest.raises(CapExceeded) as want:
                g.expand_all(cap=cap)
            with pytest.raises(CapExceeded) as got:
                g.output_counts(cap=cap)
            with pytest.raises(CapExceeded) as runs:
                g.output_runs(cap=cap)  # when called, before a slice is asked for
            for refusal in (got, runs):
                assert (str(refusal.value), refusal.value.required_bits) == (
                    str(want.value), want.value.required_bits
                )


@dataclass(frozen=True)
class Thirds(Exhaustive):
    """Output seed // 3: runs of three seeds, so CHUNK-seed windows of the
    sorted outputs (CHUNK = 3 * 1365 + 1) end inside runs."""

    def expand_seeds(self, seeds):
        return seeds // np.uint64(3)


def test_output_runs_are_the_distinct_outputs_in_slices():
    # a Nisan base maps its 8 seeds onto 4 outputs, so the 2**15 seeds of this
    # rectangle repeat their outputs, in runs that end on every window; the
    # runs of Thirds cross the windows
    nisan2 = base_nisan(2, 2, Fraction(1, 4))
    repeated = rect_compose(nisan2, PairwiseRectangle(16, nisan2.d))
    thirds = Thirds(1, 14)
    nested = interleave(interleave(nisan2, base_exhaustive(2)), interleave(nisan2, nisan2))
    # 256 x 256 distinct pairs, 16 slices
    product = interleave(rect_compose(nisan2, ExhaustiveRectangle(4, nisan2.d)),
                         ExhaustiveRectangle(4, 2))
    crossed = False
    for g in every_node_kind() + [repeated, thirds, nested, product]:
        slices = list(g.output_runs())
        values = np.concatenate([v for v, _ in slices])
        counts = np.concatenate([c for _, c in slices])
        assert all(0 < len(v) == len(c) <= CHUNK for v, c in slices), g.to_json()
        assert len(np.unique(values)) == len(values) and counts.dtype == np.int64
        want_values, want_counts = np.unique(g.expand_all(), return_counts=True)
        if g.to_json()["kind"] == "interleave":  # product order, not ascending
            order = np.argsort(values)
            values, counts = values[order], counts[order]
        else:
            assert all(np.all(v[1:] > v[:-1]) for v, _ in slices)
            assert all(a[0][-1] < b[0][0] for a, b in zip(slices, slices[1:]))
        assert values.tolist() == want_values.tolist(), g.to_json()
        assert counts.tolist() == want_counts.tolist(), g.to_json()
        # a slice covering more than CHUNK seeds took in a run past its window
        crossed |= g is thirds and any(c.sum() > CHUNK for _, c in slices[:-1])
    assert crossed and len(list(thirds.output_runs())) == 4
    assert len(list(product.output_runs())) == 16


def test_expand_all_of_the_paca_generator_fills_its_table_by_slices():
    # the d = 16 generator of perfbench's PACA job: with its base's table
    # cached by an earlier spec of the same shape, a fresh expansion holds its
    # 512 KiB table and CHUNK-seed temporaries; seed-sized ones peak at 3 MiB
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "paca-gen.json"
    g = generator_from_json(json.loads(config.read_text()))
    other = rect_compose(base_exhaustive(4), PairwiseRectangle(8, 4, Fraction(1, 2)))
    _expand_all_cached.cache_clear()
    other.expand_all()
    outputs, peak = traced_peak(g.expand_all)
    assert g.d == 16 and len(outputs) == 1 << 16
    assert outputs.tolist() == other.expand_all().tolist()
    assert peak < 1 << 20, peak


def test_child_seeds_are_expanded_once_per_enumeration():
    # an inner generator of 2**13 seeds, more than a CHUNK-seed slice of its
    # parent's 2**15: each parent slice gathers from the inner table, so the
    # inner generator expands each of its seeds once, not once per parent seed
    expanded = []

    @dataclass(frozen=True)
    class CountedExhaustive(Exhaustive):
        def expand_seeds(self, seeds):
            expanded.append(len(seeds))
            return super().expand_seeds(seeds)

    inner = CountedExhaustive(1, 13)
    g = inw_stretch(inner, cayley_extractor_from_set(13, 1, aghp_set(13, 1)))
    assert g.d == 15
    outputs = g.expand_all()
    assert sum(expanded) == 1 << 13
    assert outputs.tolist() == [
        s_g | (s_g ^ g.extractor.generators[s >> 13]) << 13
        for s in range(1 << 15) for s_g in [s & ((1 << 13) - 1)]
    ]


def test_expand_all_cache_is_read_only():
    outs = interleave(base_exhaustive(3), base_exhaustive(3)).expand_all()
    with pytest.raises(ValueError):
        outs[0] = 1
    assert int(outs[0]) == 0


def test_expand_all_cap_refusal():
    g = base_exhaustive(10)
    with pytest.raises(CapExceeded) as exc:
        g.expand_all(cap=8)
    assert exc.value.required_bits == 10


def test_build_swbp_prg_shapes():
    base = base_exhaustive(2)
    for strategy in ("inw", "rect"):
        g = build_swbp_prg(8, 2, 4, base, strategy)
        assert g.blocks * g.block_bits == 8
        assert g.eps_budget == 0
    with pytest.raises(ParameterError):
        build_swbp_prg(10, 2, 4, base, "inw")  # 10 not a multiple of 4... of 2t
    with pytest.raises(ParameterError):
        build_swbp_prg(12, 2, 4, base, "inw")  # n/2t = 3 not a power of two
    g = build_swbp_prg(12, 2, 4, base, "rect")
    assert g.blocks == 6


def test_build_swbp_prg_budget_closed_forms():
    base = with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16))
    # inw with perfect extractors: 2 * 3**r * eps with r = log2(n / 2t)
    g = build_swbp_prg(16, 2, 4, base, "inw")
    assert g.eps_budget == 2 * 9 * Fraction(1, 16)
    # rect with exhaustive rectangle: 2 * (r * eps + 0) with r = n / 2t
    g2 = build_swbp_prg(16, 2, 4, base, "rect")
    assert g2.eps_budget == 2 * 4 * Fraction(1, 16)


def test_generator_json_roundtrip():
    base = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    specs = every_node_kind() + [
        inw_stretch(base, cayley_extractor(base.d, 2, Fraction(1, 2))),
        rect_compose(base, PairwiseRectangle(3, base.d, Fraction(1, 32))),
        interleave(base, base),
        build_swbp_prg(8, 2, 4, base_exhaustive(2), "rect"),
    ]
    for g in specs:
        data = json.loads(json.dumps(g.to_json()))
        back = generator_from_json(data)
        assert back == g
        assert back.eps_budget == g.eps_budget


GOLDEN = Path(__file__).with_name("golden_node_json.txt")
CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def test_node_json_matches_the_golden_text():
    # the exact JSON text of every node kind and of the benchmark's specs
    configs = [json.loads((CONFIGS / name).read_text()) for name in (
        "fool-family.json", "hit-family.json", "paca-gen.json")]
    specs = every_node_kind() + [
        generator_from_json(configs[0]["generator"]),
        hsg_from_json(configs[1]["hsg"]),
        generator_from_json(configs[2]),
    ]
    texts = [json.dumps(g.to_json()) for g in specs]
    assert texts == GOLDEN.read_text().splitlines()


def test_nisan_json_levels_default():
    data = {"kind": "nisan", "t": 4, "w": 4, "eps_target": "1/4"}
    assert generator_from_json(data) == base_nisan(4, 4, Fraction(1, 4))


def golden_nodes():
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def shape_of(g):
    """(d, blocks, block_bits, eps_budget, window) of a node by the rules its
    shape properties applied on every read, from its fields and its
    children's alone."""
    kind = g.kind
    if kind == "exhaustive_rect":
        return g.blocks * g.block_bits, g.blocks, g.block_bits, Fraction(0), None
    if kind == "nisan":
        word = g.t >> g.levels
        eps = g.measured_eps if g.measured_eps is not None else g.eps_target
        return word + g.levels * (word * word + word), 1, g.t, eps, None
    if kind == "pairwise_rect":
        a = max(1, (g.blocks - 1).bit_length())
        return a * g.block_bits + g.block_bits, g.blocks, g.block_bits, g.eps_cr, None
    if kind == "inw":
        d, blocks, bits, eps, window = shape_of(g.inner)
        return d + g.extractor.d, 2 * blocks, bits, 3 * max(eps, g.extractor.eps), window
    if kind == "rect_compose":
        d, blocks, _, eps_cr, _ = shape_of(g.rect)
        bits, eps = shape_of(g.base)[2:4]
        return d, blocks, bits, blocks * eps + eps_cr, None
    assert kind == "interleave", kind
    d1, blocks, bits, eps1, _ = shape_of(g.g1)
    d2, _, _, eps2, _ = shape_of(g.g2)
    return d1 + d2, 2 * blocks, bits, 2 * max(eps1, eps2), bits


def test_derived_shapes_match_the_per_read_rules():
    base = base_nisan(2, 2, Fraction(1, 4))
    measured = with_measured_error(base, Fraction(1, 16))
    specs = [generator_from_json(node) for node in golden_nodes()] + [
        build_swbp_prg(16, 2, 4, b, strategy)
        for b in (base_exhaustive(2), measured) for strategy in ("inw", "rect")
    ] + [measured, rect_compose(measured, ExhaustiveRectangle(2, measured.d))]
    for g in specs:
        assert (g.d, g.blocks, g.block_bits, g.eps_budget, g.window) == shape_of(g), g
    # the copy re-derives its budget; the original keeps its own
    assert (base.eps_budget, measured.eps_budget) == (Fraction(1, 4), Fraction(1, 16))
    assert build_swbp_prg(16, 2, 4, measured, "inw").window == 2


def test_equal_specs_share_one_expansion():
    # derived values are not fields: two separately built equal specs compare,
    # hash and cache as one
    first, second = (build_swbp_prg(8, 2, 4, with_measured_error(
        base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16)), "inw") for _ in range(2))
    assert first is not second and first.g1.inner.hash_family is not second.g1.inner.hash_family
    assert first == second and hash(first) == hash(second) and repr(first) == repr(second)
    _expand_all_cached.cache_clear()
    table = first.expand_all()
    misses = _expand_all_cached.cache_info().misses
    assert second.expand_all() is table
    assert _expand_all_cached.cache_info().misses == misses


def test_expand_int_refuses_seeds_outside_the_seed_space():
    first_of_kind = {}
    for node in golden_nodes():
        first_of_kind.setdefault(node["kind"], node)
    assert set(first_of_kind) == {"exhaustive", *NODES}
    for node in first_of_kind.values():
        g = generator_from_json(node)
        # a seed that is not an int is refused too, a bool and a numpy int
        # included, where the uint64 array would truncate or convert it
        for seed in (-1, 1 << g.d, 1.5, 7.9, True, np.int64(0)):
            with pytest.raises(ShapeError, match="outside"):
                g.expand_int(seed)
        for seed in (0, (1 << g.d) - 1):
            assert g.expand_int(seed) == ref_expand(node, seed), (node["kind"], seed)
    # the seed is refused before the output's packing is checked
    with pytest.raises(ShapeError):
        ExhaustiveRectangle(2, 40).expand_int(1 << 80)
    with pytest.raises(CapExceeded):
        ExhaustiveRectangle(2, 40).expand_int(0)
