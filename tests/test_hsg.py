import json
import time
from fractions import Fraction

import pytest

from swprg.bp import LayeredProgram, acceptance_probability
from swprg.errors import ConfigurationError, ParameterError, ShapeError
from swprg.generators import (
    ExhaustiveRectangle,
    PairwiseRectangle,
    base_exhaustive,
    base_nisan,
    build_swbp_prg,
    interleave,
    rect_compose,
    with_measured_error,
)
from swprg.hsg import (
    build_swbp_hsg,
    from_prg,
    hsg_exhaustive,
    hsg_from_json,
    hsg_interleave,
    hsg_rect_compose,
)
from swprg.lab import enumerate_swbp_family, hitting_check


def test_from_prg_threshold_is_prg_budget():
    g = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    h = from_prg(g)
    assert h.eps_budget == Fraction(1, 8)
    assert h.d == g.d and h.flat_bits == g.flat_bits


def test_hsg_rect_threshold():
    base = from_prg(with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8)))
    rect = ExhaustiveRectangle(4, base.d)
    h = hsg_rect_compose(base, rect)
    assert h.eps_budget == 2 * max(4 * Fraction(1, 8), Fraction(0))
    assert h.blocks == 4


def test_hsg_interleave_threshold():
    a = hsg_exhaustive(2)
    b = hsg_exhaustive(2)
    h = hsg_interleave(a, b)
    assert h.eps_budget == 0
    assert h.blocks == 2


def test_build_swbp_hsg_shapes():
    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    assert h.flat_bits == 8
    assert h.eps_budget == 0
    assert h.carrier == build_swbp_prg(8, 2, 4, base_exhaustive(2), "rect")
    with pytest.raises(ParameterError):
        build_swbp_hsg(10, 2, 4, hsg_exhaustive(2))
    with pytest.raises(ShapeError):
        build_swbp_hsg(8, 2, 4, from_prg(base_exhaustive(4)))
    with pytest.raises(ShapeError, match="rectangle must emit 2 blocks of 2 bits"):
        build_swbp_hsg(8, 2, 4, hsg_exhaustive(2), ExhaustiveRectangle(2, 3))


def test_exhaustive_hsg_hits_iff_nonzero():
    h = hsg_exhaustive(2)
    # AND program accepts only 11
    trans = (((0, 0), (0, 1)), ((0, 0), (0, 1)))
    and_p = LayeredProgram(2, 2, 1, trans, (frozenset({1}), frozenset({1})))
    witness = hitting_check(h, and_p)
    assert witness is not None
    assert h.expand_int(witness) == 0b11
    never = LayeredProgram(2, 2, 1, trans, (frozenset(), frozenset()))
    assert hitting_check(h, never) is None


def test_hitting_contract_family_wide():
    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    for p in enumerate_swbp_family(8, 2, budget_bits=8):
        p_acc = acceptance_probability(p)
        found = hitting_check(h, p)
        if p_acc >= h.eps_budget and p_acc > 0:
            assert found is not None
        if p_acc == 0:
            assert found is None


def test_hsg_json_roundtrip():
    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    back = hsg_from_json(json.loads(json.dumps(h.to_json())))
    assert back.carrier == h.carrier
    assert back.threshold == h.threshold
    assert back.kind == h.kind


def test_hsg_from_json_derives_the_threshold():
    nisan = from_prg(with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16)))
    found = rect_compose(base_exhaustive(2), PairwiseRectangle(2, 2, Fraction(1, 8)))
    rect = hsg_rect_compose(nisan, PairwiseRectangle(4, nisan.d, Fraction(1, 8)))
    cases = {
        nisan: Fraction(1, 16),
        rect: 2 * max(4 * Fraction(1, 16), Fraction(1, 8)),
        hsg_interleave(nisan, nisan): Fraction(1, 8),
        hsg_interleave(rect, rect): 1,
        build_swbp_hsg(16, 2, 4, nisan): 2 * 2 * (4 * Fraction(1, 16)),
        build_swbp_hsg(8, 2, 4, hsg_exhaustive(2)): 0,
        # the halves are PRGs as HSGs over a rectangle composition
        hsg_interleave(from_prg(found), from_prg(found)): Fraction(1, 4),
    }
    for h, threshold in cases.items():
        data = json.loads(json.dumps(h.to_json()))
        assert hsg_from_json(data) == h and h.threshold == threshold
        for wrong in (threshold - Fraction(1, 64), threshold + Fraction(1, 64)):
            with pytest.raises(ConfigurationError, match="rule derives"):
                hsg_from_json({**data, "threshold": str(wrong)})
    # a kind whose rule does not fit its carrier
    for kind in ("hsg_rect", "hsg_interleave"):
        with pytest.raises(ParameterError, match="cannot be carried"):
            hsg_from_json({**hsg_exhaustive(2).to_json(), "kind": kind})


def combinator_readings(base, rect):
    """Every HSG the combinators build over ``rect_compose(base, rect)`` and
    over the interleave of two of them."""
    rc = rect_compose(base, rect)
    halves = [from_prg(rc), hsg_rect_compose(from_prg(base), rect)]
    whole = [from_prg(interleave(rc, rc))] + [hsg_interleave(a, b) for a in halves for b in halves]
    return halves + whole


def test_hsg_from_json_reads_every_combinator_reading():
    nisan = with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16))
    for base in (base_exhaustive(2), nisan):
        for rect in (ExhaustiveRectangle(2, base.d), PairwiseRectangle(2, base.d, Fraction(1, 8))):
            readings = combinator_readings(base, rect)
            for h in readings:
                data = json.loads(json.dumps(h.to_json()))
                assert hsg_from_json(data) == h
                derived = {r.threshold for r in readings if (r.carrier, r.kind) == (h.carrier, h.kind)}
                for wrong in (h.threshold - Fraction(1, 64), h.threshold + Fraction(1, 64)):
                    assert wrong not in derived
                    with pytest.raises(ConfigurationError, match="rule derives"):
                        hsg_from_json({**data, "threshold": str(wrong)})


def test_hsg_from_json_reads_deep_interleaves_quickly():
    pairwise = PairwiseRectangle(2, 2, Fraction(1, 8))
    leaves = (
        hsg_exhaustive(1),  # depth 6 makes 64 bits
        from_prg(rect_compose(base_exhaustive(2), pairwise)),
        hsg_rect_compose(hsg_exhaustive(2), pairwise),
    )
    for h in leaves:
        for _ in range(6):
            h = hsg_interleave(h, h)
        data = json.loads(json.dumps(h.to_json()))
        start = time.perf_counter()
        assert hsg_from_json(data) == h
        assert time.perf_counter() - start < 1
