import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from swprg.bp import (
    LayeredProgram,
    WindowCertificate,
    acceptance_probability,
    check_window,
    concat,
    evaluate_int,
)
from swprg.errors import CapExceeded, ShapeError
from swprg.generators import Exhaustive, base_exhaustive, base_nisan, interleave
from swprg.lab import (
    acceptance_probability_bruteforce,
    batch_evaluate,
    enumerate_swbp_family,
    family_size_bits,
    fooling_error,
    hitting_check,
    run_fooling_report,
    run_hitting_report,
    sample_swbp,
)


class ConstantGen:
    """Outputs one fixed string regardless of the seed (d = 0)."""

    def __init__(self, value, n):
        self.value, self.n = value, n
        self.d, self.blocks, self.block_bits = 0, 1, n
        self.flat_bits = n

    def expand_all(self, cap=24):
        return np.array([self.value], dtype=np.uint64)

    def expand_int(self, seed):
        return self.value


def and_program():
    trans = (((0, 0), (0, 1)), ((0, 0), (0, 1)))
    return LayeredProgram(2, 2, 1, trans, (frozenset({1}), frozenset({1})))


def bit_is_one_program():
    # n = 1, accepts iff the bit is 1
    return LayeredProgram(1, 2, 0, ((((0, 1), (0, 1))),), (frozenset({1}),))


def test_batch_evaluate_matches_scalar():
    rng = random.Random(3)
    for _ in range(10):
        n, w = rng.randint(1, 10), rng.randint(1, 4)
        trans = tuple(
            tuple((rng.randrange(w), rng.randrange(w)) for _ in range(w))
            for _ in range(n)
        )
        acc = tuple(
            frozenset(q for q in range(w) if rng.random() < 0.6) for _ in range(n)
        )
        p = LayeredProgram(n, w, rng.randrange(w), trans, acc)
        inputs = np.arange(1 << n, dtype=np.uint64)
        got = batch_evaluate(p, inputs)
        for x in range(1 << n):
            assert bool(got[x]) == evaluate_int(p, x)


def test_exhaustive_generator_fools_perfectly():
    g = base_exhaustive(2)
    assert fooling_error(g, and_program()) == 0


def test_constant_generator_two_cases():
    # |[accept(c)] - 1/4| is 3/4 when c = 11, else 1/4
    assert fooling_error(ConstantGen(0b11, 2), and_program()) == Fraction(3, 4)
    for c in (0b00, 0b01, 0b10):
        assert fooling_error(ConstantGen(c, 2), and_program()) == Fraction(1, 4)


def test_fooling_error_shape_check():
    with pytest.raises(ShapeError):
        fooling_error(base_exhaustive(3), and_program())


def test_fooling_error_second_oracle_nisan():
    # DP-based probability vs. full input enumeration, program by program
    g = base_nisan(4, 2, Fraction(1, 4))
    outs = g.expand_all()
    for p in enumerate_swbp_family(4, 2, budget_bits=8):
        via_dp = fooling_error(g, p)
        gen_acc = Fraction(int(batch_evaluate(p, outs).sum()), 1 << g.d)
        via_enum = abs(gen_acc - acceptance_probability_bruteforce(p))
        assert via_dp == via_enum


def test_simultaneous_independent_blocks_zero():
    g = interleave(base_exhaustive(1), base_exhaustive(1))
    p = bit_is_one_program()
    assert fooling_error(g, concat([p, p])) == 0


def test_simultaneous_duplicated_block():
    class DupGen:
        d, blocks, block_bits, flat_bits = 1, 2, 1, 2

        def expand_all(self, cap=24):
            return np.array([0b00, 0b11], dtype=np.uint64)

        def expand_int(self, seed):
            return 0b11 * seed

    p = bit_is_one_program()
    # joint = 1/2, product = 1/4
    assert fooling_error(DupGen(), concat([p, p])) == Fraction(1, 4)


def test_simultaneous_never_accepting_is_zero():
    g = interleave(base_exhaustive(1), base_exhaustive(1))
    never = LayeredProgram(1, 2, 0, ((((0, 1), (0, 1))),), (frozenset(),))
    assert fooling_error(g, concat([bit_is_one_program(), never])) == 0


def test_hitting_check_trivial_cases():
    h = base_exhaustive(2)  # duck-typed as hitting generator
    all_acc = LayeredProgram(2, 1, 0, (((0, 0),), ((0, 0),)), (frozenset({0}),) * 2)
    assert hitting_check(h, all_acc) == 0
    assert hitting_check(h, and_program()) == 0b11


def test_simultaneous_hitting():
    g = interleave(base_exhaustive(1), base_exhaustive(1))
    p = bit_is_one_program()
    seed = hitting_check(g, concat([p, p]))
    assert seed is not None
    assert g.expand_int(seed) == 0b11


def test_family_counts_and_all_accepting_member():
    assert family_size_bits(2, 1) == 4
    fam = list(enumerate_swbp_family(2, 1))
    assert len(fam) == 16
    # mask 0 is the all-accepting program
    assert acceptance_probability(fam[0]) == 1
    # all programs share transitions, differ in accepting sets
    assert len({p.acc for p in fam}) == 16


def test_family_budget_and_refusal():
    fam = list(enumerate_swbp_family(8, 2, budget_bits=5))
    assert len(fam) == 32
    with pytest.raises(CapExceeded) as exc:
        list(enumerate_swbp_family(8, 2))
    assert exc.value.required_bits == family_size_bits(8, 2)


def test_family_budget_over_cap_refused():
    # a budget does not lift the cap: 2**40 labelings of a 2**62 family
    with pytest.raises(CapExceeded) as exc:
        next(enumerate_swbp_family(16, 2, 40))
    assert exc.value.required_bits == 40


def test_family_members_are_window_t():
    for p in enumerate_swbp_family(6, 2, budget_bits=6):
        assert isinstance(check_window(p, 2), WindowCertificate)


def test_sample_swbp_deterministic_and_window():
    a = sample_swbp(random.Random(42), 6, 2)
    b = sample_swbp(random.Random(42), 6, 2)
    assert a == b
    assert isinstance(check_window(a, 2), WindowCertificate)


def test_fooling_report_and_csv():
    g = base_exhaustive(2)
    fam = list(enumerate_swbp_family(2, 2))
    report = run_fooling_report(g, fam, Fraction(0), "exh", "n2t2")
    assert report.passed and report.worst_error == 0
    assert report.programs_checked == len(fam)
    csv = report.to_csv()
    assert csv.splitlines()[0] == "program_index,error"
    assert len(csv.splitlines()) == len(fam) + 1
    payload = report.to_json()
    assert payload["passed"] is True


def test_fooling_report_expands_once_on_many_threads():
    expansions = []

    @dataclass(frozen=True)
    class SlowExhaustive(Exhaustive):
        def expand_seeds(self, seeds):
            expansions.append(len(seeds))
            time.sleep(0.2)  # long enough for a second thread to start its own
            return super().expand_seeds(seeds)

    g = SlowExhaustive(1, 4)
    fam = list(enumerate_swbp_family(4, 2, budget_bits=4))
    report = run_fooling_report(g, fam, Fraction(0), jobs=2)
    assert report.passed and report.programs_checked == len(fam)
    assert expansions == [1 << g.d]


def test_hitting_report():
    from swprg.hsg import build_swbp_hsg, hsg_exhaustive

    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    fam = list(enumerate_swbp_family(8, 2, budget_bits=6))
    report = run_hitting_report(h, fam)
    assert report.passed
    assert report.required > 0
