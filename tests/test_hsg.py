import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from swprg.bp import LayeredProgram, acceptance_probability
from swprg.errors import ConfigurationError, ParameterError, ShapeError
from swprg.generators import (
    ExhaustiveRectangle,
    Interleave,
    PairwiseRectangle,
    RectCompose,
    base_exhaustive,
    base_nisan,
    build_swbp_prg,
    interleave,
    rect_compose,
    with_measured_error,
)
from swprg.hsg import CARRIERS, build_swbp_hsg, hsg_exhaustive, hsg_from_json
from swprg.lab import enumerate_swbp_family, hitting_check

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def hsg_json(g, kind="prg_as_hsg", threshold=None):
    """An HSG config over the carrier ``g``, written by hand: the wrapper of
    ``kind`` at ``threshold``, by default ``g``'s budget."""
    threshold = g.eps_budget if threshold is None else threshold
    data = {"kind": kind, "carrier": g.to_json(), "threshold": str(threshold)}
    return json.loads(json.dumps(data))


def old_thresholds(g):
    """Every threshold the HSG rules of earlier versions derived over the
    carrier ``g``: its budget; 2 * max(r * thr, eps_cr) over each threshold
    of a rectangle composition's base; 2 * max over each pair of thresholds
    of an interleave's halves."""
    found = {g.eps_budget}
    if isinstance(g, RectCompose):
        found |= {2 * max(g.blocks * thr, g.rect.eps_budget) for thr in old_thresholds(g.base)}
    elif isinstance(g, Interleave):
        found |= {2 * max(a, b) for a in old_thresholds(g.g1) for b in old_thresholds(g.g2)}
    return found


def test_prg_as_hsg_threshold_is_prg_budget():
    g = with_measured_error(base_nisan(4, 2, Fraction(1, 4)), Fraction(1, 8))
    h = hsg_from_json(hsg_json(g))
    assert h == g and h.eps_budget == Fraction(1, 8)
    # the configured target is not the budget once an error is measured
    with pytest.raises(ConfigurationError, match="1/8, the budget of its nisan carrier"):
        hsg_from_json(hsg_json(g, threshold=Fraction(1, 4)))


def test_hsg_rect_threshold():
    # the carrier's budget 4 * 0 + 1/8, not the old rule's 2 * max(4 * 0, 1/8)
    g = rect_compose(base_exhaustive(2), PairwiseRectangle(4, 2, Fraction(1, 8)))
    assert hsg_from_json(hsg_json(g, "hsg_rect")) == g
    assert g.eps_budget == Fraction(1, 8) and g.blocks == 4
    with pytest.raises(ConfigurationError, match="not 1/8"):
        hsg_from_json(hsg_json(g, "hsg_rect", Fraction(1, 4)))


def test_hsg_interleave_threshold():
    g = interleave(hsg_exhaustive(2), hsg_exhaustive(2))
    assert hsg_from_json(hsg_json(g, "hsg_interleave")).eps_budget == 0
    assert g.blocks == 2
    # twice the larger half's budget; the old rule read each half as an HSG first
    nisan = with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16))
    half = rect_compose(nisan, PairwiseRectangle(4, nisan.d, Fraction(1, 8)))
    g = interleave(half, half)
    assert hsg_from_json(hsg_json(g, "hsg_interleave")).eps_budget == Fraction(3, 4)
    with pytest.raises(ConfigurationError):
        hsg_from_json(hsg_json(g, "hsg_interleave", 1))


def test_build_swbp_hsg_shapes():
    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    assert h.flat_bits == 8
    assert h.eps_budget == 0
    assert h == build_swbp_prg(8, 2, 4, base_exhaustive(2), "rect")
    # the PRG pipeline's budget 2 * (4 * 1/16), where the old HSG rules gave 1
    nisan = with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16))
    assert build_swbp_hsg(16, 2, 4, nisan).eps_budget == Fraction(1, 2)
    with pytest.raises(ParameterError):
        build_swbp_hsg(10, 2, 4, hsg_exhaustive(2))
    with pytest.raises(ShapeError):
        build_swbp_hsg(8, 2, 4, base_exhaustive(4))
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
    for kind in ("prg_as_hsg", "hsg_interleave"):
        back = hsg_from_json(hsg_json(h, kind))
        assert back == h and back.eps_budget == h.eps_budget


def test_hsg_from_json_derives_the_threshold():
    nisan = with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16))
    found = rect_compose(base_exhaustive(2), PairwiseRectangle(2, 2, Fraction(1, 8)))
    rect = rect_compose(nisan, PairwiseRectangle(4, nisan.d, Fraction(1, 8)))
    # carrier, kind, threshold: each the PRG budget, at or below the old rule's
    cases = [
        (nisan, "prg_as_hsg", Fraction(1, 16)),
        (rect, "hsg_rect", 4 * Fraction(1, 16) + Fraction(1, 8)),  # was 1/2
        (interleave(nisan, nisan), "hsg_interleave", Fraction(1, 8)),
        (interleave(rect, rect), "hsg_interleave", Fraction(3, 4)),  # was 1
        (build_swbp_hsg(16, 2, 4, nisan), "hsg_interleave", Fraction(1, 2)),  # was 1
        (build_swbp_hsg(8, 2, 4, hsg_exhaustive(2)), "hsg_interleave", 0),
        (interleave(found, found), "hsg_interleave", Fraction(1, 4)),
    ]
    for g, kind, threshold in cases:
        assert hsg_from_json(hsg_json(g, kind)) == g and g.eps_budget == threshold
        wrongs = {threshold - Fraction(1, 64), threshold + Fraction(1, 64)}
        for wrong in wrongs | old_thresholds(g) - {threshold}:
            with pytest.raises(ConfigurationError, match="the budget of its"):
                hsg_from_json(hsg_json(g, kind, wrong))
    # a kind whose carrier does not fit, and a kind no carrier has
    for kind in ("hsg_rect", "hsg_interleave", "hsg_nisan"):
        with pytest.raises(ParameterError, match="cannot be carried"):
            hsg_from_json(hsg_json(hsg_exhaustive(2), kind))


def test_hsg_from_json_reads_every_combinator_reading():
    # every kind that fits loads each carrier at its budget, the lowest
    # threshold any old rule derived over it; the old rules' higher ones
    # and the kinds that do not fit are refused
    nisan = with_measured_error(base_nisan(2, 2, Fraction(1, 4)), Fraction(1, 16))
    for base in (base_exhaustive(2), nisan):
        for rect in (ExhaustiveRectangle(2, base.d), PairwiseRectangle(2, base.d, Fraction(1, 8))):
            rc = rect_compose(base, rect)
            for g in (base, rc, interleave(rc, rc)):
                assert min(old_thresholds(g)) == g.eps_budget
                for kind, carrier in CARRIERS.items():
                    if not isinstance(g, carrier):
                        with pytest.raises(ParameterError):
                            hsg_from_json(hsg_json(g, kind))
                        continue
                    assert hsg_from_json(hsg_json(g, kind)) == g
                    for old in old_thresholds(g) - {g.eps_budget}:
                        with pytest.raises(ConfigurationError):
                            hsg_from_json(hsg_json(g, kind, old))


def test_hsg_from_json_reads_deep_interleaves_quickly():
    pairwise = PairwiseRectangle(2, 2, Fraction(1, 8))
    for g in (hsg_exhaustive(1), rect_compose(base_exhaustive(2), pairwise)):
        for _ in range(6):  # depth 6 makes 64 bits of exhaustive(1)
            g = interleave(g, g)
        data = hsg_json(g, "hsg_interleave")
        start = time.perf_counter()
        assert hsg_from_json(data) == g
        assert time.perf_counter() - start < 1


def test_hsg_from_json_reads_the_benchmark_config():
    data = json.loads((CONFIGS / "hit-family.json").read_text())["hsg"]
    h = hsg_from_json(data)
    assert data["kind"] == "hsg_interleave" and data["threshold"] == "0/1"
    assert h.to_json() == data["carrier"] and h.eps_budget == 0
    with pytest.raises(ConfigurationError):
        hsg_from_json({**data, "threshold": "1/4"})
