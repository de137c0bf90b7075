import json
from fractions import Fraction

import numpy as np
import pytest

from swprg.bits import bits_to_int
from swprg.errors import CapExceeded, ParameterError, ShapeError
from swprg.generators import (
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
from swprg.hsg import (
    build_swbp_hsg,
    from_prg,
    hsg_exhaustive,
    hsg_from_json,
    hsg_rect_compose,
)
from swprg.primitives import cayley_extractor, perfect_extractor


# --- pure-Python reference expander ------------------------------------------
# Works from a node's JSON form alone, with its own parity and hashing, so it
# shares no expansion code with the package.

HSG_KINDS = ("prg_as_hsg", "hsg_rect", "hsg_interleave")


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
    if kind == "interleave":
        d1, blocks, bits = ref_shape(node["g1"])
        return d1 + ref_shape(node["g2"])[0], 2 * blocks, bits
    assert kind in HSG_KINDS, kind
    return ref_shape(node["carrier"])


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
    if kind == "interleave":
        d1, blocks, t = ref_shape(node["g1"])
        o1 = ref_expand(node["g1"], seed & ((1 << d1) - 1))
        o2 = ref_expand(node["g2"], seed >> d1)
        out = 0
        for i in range(blocks):
            out |= ((o1 >> (i * t)) & ((1 << t) - 1)) << (2 * i * t)
            out |= ((o2 >> (i * t)) & ((1 << t) - 1)) << ((2 * i + 1) * t)
        return out
    assert kind in HSG_KINDS, kind
    return ref_expand(node["carrier"], seed)


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
        from_prg(nisan),
        build_swbp_hsg(8, 2, 4, hsg_exhaustive(2)),
        hsg_rect_compose(hsg_exhaustive(2), PairwiseRectangle(4, 2, Fraction(1, 8))),
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
    assert kinds == {
        "exhaustive", "exhaustive_rect", "nisan", "pairwise_rect", "inw",
        "rect_compose", "interleave", *HSG_KINDS,
    }


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
        "rect_compose", "interleave", *HSG_KINDS,
    }


def test_output_counts_refuse_as_expand_all_does():
    half = PairwiseRectangle(16, 2)  # d = 10; two halves emit 64 bits, too many to pack
    product = interleave(base_exhaustive(5), base_exhaustive(5))
    for g, caps in (
        (base_exhaustive(10), (8,)),
        (product, (8,)),  # each half fits the cap, the product does not
        (from_prg(product), (8,)),
        (interleave(half, half), (8, 24)),
        (from_prg(interleave(half, half)), (8, 24)),
    ):
        for cap in caps:
            with pytest.raises(CapExceeded) as want:
                g.expand_all(cap=cap)
            with pytest.raises(CapExceeded) as got:
                g.output_counts(cap=cap)
            assert (str(got.value), got.value.required_bits) == (
                str(want.value), want.value.required_bits
            )


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
        back = hsg_from_json(data) if data["kind"] in HSG_KINDS else generator_from_json(data)
        assert back == g
        assert back.eps_budget == g.eps_budget


def test_nisan_json_levels_default():
    data = {"kind": "nisan", "t": 4, "w": 4, "eps_target": "1/4"}
    assert generator_from_json(data) == base_nisan(4, 4, Fraction(1, 4))
