import random
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import traced_peak

from swprg.bits import int_to_bits
from swprg.bp import (
    LayeredProgram,
    WindowCertificate,
    acceptance_probability,
    canonical_debruijn_swbp,
    check_window,
    concat,
    evaluate,
    evaluate_int,
    program_to_json,
)
from swprg.errors import (
    DEFAULT_CAP_BITS, CapExceeded, ConfigurationError, ParameterError, ShapeError,
)
from swprg import generators
from swprg.generators import (
    Exhaustive,
    ExhaustiveRectangle,
    PairwiseRectangle,
    base_exhaustive,
    base_nisan,
    interleave,
    inw_stretch,
    rect_compose,
    with_measured_error,
)
from swprg.hsg import hsg_exhaustive
from swprg.primitives import perfect_extractor
from swprg.lab import (
    MaskFamily,
    _count,
    _subset_sums_by_mask,
    batch_evaluate,
    concat_families,
    enumerate_swbp_family,
    family_size_bits,
    fooling_error,
    hitting_check,
    run_fooling_report,
    run_hitting_report,
    sample_swbp,
    swbp_family,
)


def acceptance_probability_bruteforce(p):
    """Second oracle for bp.acceptance_probability: enumerate every input
    instead of running the DP."""
    if p.n > DEFAULT_CAP_BITS:
        raise CapExceeded(
            f"input enumeration needs 2**{p.n} evaluations (cap {DEFAULT_CAP_BITS})", p.n
        )
    inputs = np.arange(1 << p.n, dtype=np.uint64)
    return Fraction(int(batch_evaluate(p, inputs).sum()), 1 << p.n)


def program_reference(family, mask):
    """Program ``mask`` of ``family``, built on its own: copy every
    accepting set, discard the toggled states, freeze them again."""
    acc = [set(a) for a in family.base.acc]
    for j, (layer, state) in enumerate(family.positions):
        if (mask >> j) & 1:
            acc[layer - 1].discard(state)
    p = family.base
    return LayeredProgram(p.n, p.w, p.q0, p.trans, tuple(frozenset(a) for a in acc))


class ConstantGen:
    """Outputs one fixed string regardless of the seed (d = 0)."""

    def __init__(self, value, n):
        self.value, self.n = value, n
        self.d, self.blocks, self.block_bits = 0, 1, n
        self.flat_bits, self.seeds_expanded = n, 1

    def expand_all(self):
        return np.array([self.value], dtype=np.uint64)

    def output_counts(self):
        return np.unique(self.expand_all(), return_counts=True)

    def output_runs(self):
        yield self.output_counts()

    def expand_int(self, seed):
        return self.value

    def to_json(self):
        return {"kind": "constant", "value": self.value}


class TableGen:
    """Outputs a fixed table of packed strings, one per seed (d = log2 of its length)."""

    def __init__(self, outputs, n, threshold=Fraction(0)):
        self.outputs = np.asarray(outputs, dtype=np.uint64)
        self.d, self.flat_bits = len(outputs).bit_length() - 1, n
        self.seeds_expanded, self.eps_budget = len(outputs), threshold

    def expand_all(self):
        return self.outputs

    def output_counts(self):
        return np.unique(self.expand_all(), return_counts=True)

    def output_runs(self):
        yield self.output_counts()

    def to_json(self):
        return {"kind": "table", "outputs": self.outputs.tolist()}


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
            assert bool(got[x]) == evaluate_int(p, x) == evaluate(p, int_to_bits(x, n))


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

        def expand_all(self):
            return np.array([0b00, 0b11], dtype=np.uint64)

        def output_counts(self):
            return np.unique(self.expand_all(), return_counts=True)

        def output_runs(self):
            yield self.output_counts()

        def expand_int(self, seed):
            return 0b11 * seed

        def to_json(self):
            return {"kind": "dup"}

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


def test_family_budget_out_of_range_refused():
    # n = 4, t = 2 has 14 labeling positions; 20 used to be clamped to 14
    assert family_size_bits(4, 2) == 14
    for budget in (20, 15, -1):
        with pytest.raises(ParameterError):
            swbp_family(4, 2, budget)
        with pytest.raises(ParameterError):
            next(enumerate_swbp_family(4, 2, budget_bits=budget))
    assert len(swbp_family(4, 2, 14)) == 1 << 14
    # a bool is not a budget: True used to build the k = 1 family
    with pytest.raises(ParameterError):
        swbp_family(4, 2, True)


def test_family_refuses_a_window_size_that_is_not_an_int():
    for t in (True, 2.0, 0, 5):
        with pytest.raises(ParameterError, match="window size"):
            swbp_family(4, t, 2)


def test_fooling_report_refuses_a_bool_or_negative_budget():
    # refused before expanding: this generator is over the cap
    over = base_exhaustive(DEFAULT_CAP_BITS + 1)
    fam = swbp_family(over.flat_bits, 1, 2)
    for eps in (Fraction(-1, 2), -1, "-1/2", True, False):
        with pytest.raises(ParameterError, match="eps_budget"):
            run_fooling_report(over, fam, eps)
    with pytest.raises(CapExceeded):
        run_fooling_report(over, fam, Fraction(0))
    # a budget of 1 or more is legal, and vacuous
    g = base_nisan(4, 4, Fraction(1, 4))
    for eps in (1, "3/2", Fraction(1)):
        report = run_fooling_report(g, swbp_family(4, 2, 3), eps).to_json()
        assert (report["eps_budget"], report["passed"], report["vacuous"]) == (
            str(Fraction(eps)), True, True
        )


def test_family_refuses_a_mask_outside_it():
    # 8 used to give program 0, -1 program 7 and True program 1
    fam = swbp_family(4, 2, 3)
    assert fam.program(7) == program_reference(fam, 7)
    for mask in (8, -1, 1 << 20, True, False, 1.0, "1"):
        with pytest.raises(IndexError):
            fam.program(mask)
    canon, _ = canonical_debruijn_swbp(4, 2)
    for position in ((2.0, 1), (2, 1.0), (True, 1), (5, 0), (2, 4)):
        with pytest.raises(ParameterError):
            MaskFamily(canon, ((1, 0), position))
    # members skip the program checks, so the base must have passed them
    with pytest.raises(ParameterError):
        MaskFamily(SimpleNamespace(**vars(canon)))


def test_members_are_built_from_their_checked_base_without_checking_again(monkeypatch):
    # each member equals, and hashes as, the checked construction from its
    # base's tables and the copy-and-discard sets, and shares those tables;
    # LayeredProgram's checks, which the base passed, do not run for it
    families = [
        swbp_family(5, 2, 10),
        concat_families([swbp_family(3, 2, 3), swbp_family(4, 2, 4)]),
    ]

    def refuse(*args):
        raise AssertionError("a family member ran LayeredProgram's checks")

    with monkeypatch.context() as patch:
        patch.setattr(LayeredProgram, "__post_init__", refuse)
        members = [[fam.program(mask) for mask in range(len(fam))] for fam in families]
    for fam, programs in zip(families, members):
        b = fam.base
        for mask, p in enumerate(programs):
            acc = program_reference(fam, mask).acc
            checked = LayeredProgram(b.n, b.w, b.q0, b.trans, acc)
            assert p == checked and hash(p) == hash(checked), mask
            assert p.trans is b.trans


def test_members_match_the_copy_and_discard_reference():
    blocks = [swbp_family(3, 2, 3), swbp_family(4, 2, 5)]
    canon, _ = canonical_debruijn_swbp(3, 2)
    families = [
        swbp_family(8, 2, 13),
        swbp_family(4, 2),  # the full class, 2**14 members
        concat_families(blocks),
        # positions interleave layers, and (2, 0) is toggled by two bits
        MaskFamily(canon, ((2, 0), (1, 1), (2, 1), (2, 0))),
    ]
    for fam in families:
        for mask in range(len(fam)):
            p, ref = fam.program(mask), program_reference(fam, mask)
            assert (p.trans, p.acc) == (ref.trans, ref.acc), mask
            assert p == ref
    hand = families[-1]
    assert hand.program(0b1000).acc[1] == hand.program(0b0001).acc[1] == frozenset({1, 2, 3})
    assert hand.program(0b0010).acc[0] == frozenset({0})
    # asking again gives the same sets, and the base's untoggled sets are shared
    assert families[0].program(5).acc == families[0].program(5).acc
    assert families[0].program(5).acc[0] is families[0].base.acc[0]


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
    fam = swbp_family(2, 2)
    report = run_fooling_report(g, fam, Fraction(0), "n2t2")
    assert report.passed and report.worst_error == 0
    assert report.programs_checked == len(fam)
    csv = report.to_csv()
    assert csv.splitlines()[0] == "program_index,error"
    assert len(csv.splitlines()) == len(fam) + 1
    payload = report.to_json()
    assert payload["passed"] is True
    assert (payload["generator"], payload["family"]) == (g.to_json(), "n2t2")


def test_reports_refuse_interleave_outside_its_window_class():
    g = interleave(base_exhaustive(2), base_exhaustive(2))
    h = interleave(hsg_exhaustive(2), hsg_exhaustive(2))
    fam = swbp_family(4, 4, budget_bits=4)  # window 4 > block_bits 2
    with pytest.raises(ConfigurationError, match="block_bits=2") as fooling:
        run_fooling_report(g, fam, g.eps_budget)
    with pytest.raises(ConfigurationError) as hitting:
        run_hitting_report(h, fam)
    assert str(hitting.value) == str(fooling.value)
    # the per-program oracle stays class-agnostic; g emits every 4-bit string once
    assert [fooling_error(g, fam.program(m)) for m in range(len(fam))] == [0] * len(fam)


def test_reports_refuse_a_nested_interleave_outside_its_window_class():
    # a node built on an interleave keeps its 2*max rule, and so its window
    top = interleave(base_exhaustive(2), base_exhaustive(2))
    nested = inw_stretch(top, perfect_extractor(4))
    assert (top.window, nested.window) == (2, 2)
    with pytest.raises(ConfigurationError, match="block_bits=2") as refused:
        run_fooling_report(top, swbp_family(4, 3), top.eps_budget)
    for t in (3, 4):
        fam = swbp_family(8, t, 16)
        with pytest.raises(ConfigurationError) as fooling:
            run_fooling_report(nested, fam, nested.eps_budget)
        with pytest.raises(ConfigurationError) as hitting:
            run_hitting_report(nested, fam)
        assert str(fooling.value) == str(hitting.value) == str(refused.value)
    fam = swbp_family(8, 2, 16)
    assert run_fooling_report(nested, fam, nested.eps_budget).passed
    assert run_hitting_report(nested, fam).passed
    # a rectangle feeds base seeds, not program input: no window passes up
    assert rect_compose(base_exhaustive(4), ExhaustiveRectangle(2, 4)).window is None


def test_fooling_report_expands_once_on_many_threads():
    expansions = []

    @dataclass(frozen=True)
    class SlowExhaustive(Exhaustive):
        def expand_seeds(self, seeds):
            expansions.append(len(seeds))
            time.sleep(0.2)  # long enough for a second thread to start its own
            return super().expand_seeds(seeds)

    g = SlowExhaustive(1, 4)
    fam = swbp_family(4, 2, budget_bits=4)
    report = run_fooling_report(g, fam, Fraction(0))
    assert report.passed and report.programs_checked == len(fam)
    assert expansions == [1 << g.d]


def test_interleave_report_builds_no_seed_sized_array():
    # criterion 5(d)'s generator: 2**20 seeds, 20,736 distinct outputs
    nisan = with_measured_error(base_nisan(4, 4, Fraction(1, 4), 2), Fraction(1, 8))
    half = rect_compose(nisan, ExhaustiveRectangle(2, nisan.d))
    g = interleave(half, half)
    fam = swbp_family(16, 2, 5)
    generators._expand_all_cached.cache_clear()  # an earlier test's cached table would hide one
    report, peak = traced_peak(lambda: run_fooling_report(g, fam, g.eps_budget))
    assert g.d == 20 and report.work["distinct_outputs"] == 144 * 144
    assert report.work["seeds_expanded"] == g.seeds_expanded == 2 << 10
    assert peak < 8 << 20  # one uint64 array of 2**20 outputs
    per_seed = [fooling_error(g, fam.program(m)) for m in (0, len(fam) - 1)]
    assert [report.rows[0][1], report.rows[-1][1]] == [str(e) for e in per_seed]


def test_members_built_on_many_threads_match_the_reference():
    # the family's set memo is shared; a lost or torn update would hand a
    # thread a wrong set
    import sys
    import threading

    fams = [swbp_family(4, 2), swbp_family(5, 2, 12)]
    want = [[program_reference(f, m) for m in range(0, len(f), 7)] for f in fams]
    got, errors = {}, []

    def build(w):
        try:
            for k, f in enumerate(fams):
                masks = range(0, len(f), 7)
                got[w, k] = [f.program(m) for m in (masks if w % 2 else reversed(masks))]
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(w,)) for w in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not errors
    for (w, k), programs in got.items():
        assert programs == (want[k] if w % 2 else want[k][::-1])
    assert len(got) == 12


def test_reports_say_when_their_check_is_vacuous():
    # a budget of 1 or more fails no program: rect_compose over the trivial
    # eps_cr = 1 has budget 1, and its interleave 2 (2 * max)
    g = rect_compose(base_exhaustive(2), PairwiseRectangle(4, 2))
    for h, fam in ((g, swbp_family(8, 2, 8)), (interleave(g, g), swbp_family(16, 2, 8))):
        report = run_hitting_report(h, fam).to_json()
        assert Fraction(report["threshold"]) == h.eps_budget >= 1
        assert report["witness_required"] == 0 and report["passed"]
        assert report["vacuous"] is True
        fooling = run_fooling_report(h, fam, h.eps_budget).to_json()
        assert fooling["passed"] and fooling["vacuous"] is True
    h = with_measured_error(base_nisan(4, 4, Fraction(1, 4)), Fraction(1, 2))
    fam = swbp_family(4, 2, 8)
    report = run_hitting_report(h, fam).to_json()
    assert report["threshold"] == "1/2" and report["vacuous"] is False
    assert report["witness_required"] > 0
    fooling = run_fooling_report(h, fam, h.eps_budget).to_json()
    assert fooling["eps_budget"] == "1/2" and fooling["vacuous"] is False


def test_hitting_report():
    from swprg.hsg import build_swbp_hsg, hsg_exhaustive

    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    fam = swbp_family(8, 2, budget_bits=6)
    report = run_hitting_report(h, fam)
    assert report.passed
    assert report.required > 0


def _shift_start_family(q0, k):
    """The n=4, t=2 de Bruijn shift program started in ``q0``, all states
    accepting, toggling its last ``k`` positions (layer 4 down)."""
    canon, _ = canonical_debruijn_swbp(4, 2)
    positions = [(layer, s) for layer in range(4, 1, -1) for s in range(4)][:k]
    full = tuple(frozenset(range(4)) for _ in range(4))
    return MaskFamily(LayeredProgram(4, 4, q0, canon.trans, full), tuple(positions))


def test_family_counts_match_per_program_oracles():
    rng = random.Random(61)
    sampled = sample_swbp(rng, 6, 2)
    reachable = sampled.reachable()
    random_positions = tuple(
        (layer, rng.choice(sorted(reachable[layer]))) for layer in rng.sample(range(1, 7), 6)
    )
    canonical = swbp_family(6, 2, 8)
    assert [canonical.program(i) for i in range(len(canonical))] == list(
        enumerate_swbp_family(6, 2, 8)
    )
    blocks = [swbp_family(3, 2, 3), swbp_family(3, 2, 2)]
    pair = concat_families(blocks)
    for mask in range(len(pair)):
        members = [blocks[0].program(mask & 7), blocks[1].program(mask >> 3)]
        assert pair.program(mask) == concat(members)
    families = [
        canonical,
        *(_shift_start_family(q0, 8) for q0 in range(4)),
        pair,
        MaskFamily(sampled, random_positions),
        MaskFamily(sampled),
    ]
    verdicts = set()
    for fam in families:
        n = fam.base.n
        g = TableGen([rng.randrange(1 << n) for _ in range(4)], n, Fraction(1, 4))
        outputs = g.expand_all()
        seed, uniform = _count(g, fam).seed, fam.uniform_counts()
        programs = [fam.program(i) for i in range(len(fam))]
        required, missed = 0, []
        for i, p in enumerate(programs):
            assert seed[i] == batch_evaluate(p, outputs).sum()
            p_acc = acceptance_probability(p)
            assert Fraction(int(uniform[i]), 1 << n) == p_acc
            if p_acc > g.eps_budget:
                required += 1
                hit = hitting_check(g, p) is not None
                verdicts.add(hit)
                if not hit:
                    missed.append(i)
        hits = run_hitting_report(g, fam)
        assert (hits.required, hits.missed) == (required, missed)
        fooling = run_fooling_report(g, fam, Fraction(0))
        errors = [fooling_error(g, p) for p in programs]
        assert fooling.rows == [(i, str(err)) for i, err in enumerate(errors)]
        worst = errors.index(max(errors))  # the first program with the largest error
        assert fooling.worst_program == program_to_json(programs[worst])
        # a list of programs is counted as one family per program
        as_list = run_hitting_report(g, programs).to_json()
        assert {**as_list, "metadata": 0} == {**hits.to_json(), "metadata": 0}
    assert verdicts == {True, False}


def test_prg_hsg_needs_no_witness_at_its_threshold():
    # this family's worst fooling error is exactly the base's measured 1/8, so
    # programs accepted with probability exactly 1/8 may miss every output;
    # a PRG read as an HSG promises to hit only those accepted above it
    h = with_measured_error(base_nisan(4, 4, Fraction(1, 4)), Fraction(1, 8))
    fam = swbp_family(4, 2)
    assert run_fooling_report(h, fam, h.eps_budget).worst_error == h.eps_budget
    report = run_hitting_report(h, fam)
    assert report.passed and report.required > 0
    for i in (1641, 2454):
        assert acceptance_probability(fam.program(i)) == h.eps_budget
        assert hitting_check(h, fam.program(i)) is None


def test_uniform_counts_without_input_enumeration():
    fam = swbp_family(40, 2, 4)
    uniform = fam.uniform_counts()
    for i in range(len(fam)):
        assert Fraction(int(uniform[i]), 1 << 40) == acceptance_probability(fam.program(i))
    rng = random.Random(40)
    g = TableGen([rng.randrange(1 << 40) for _ in range(8)], 40)
    report = run_fooling_report(g, fam, Fraction(0))
    assert report.rows == [(i, str(fooling_error(g, fam.program(i)))) for i in range(len(fam))]


def accept_counts(fam, values, mult):
    """Each program's count of the outputs it accepts, ``values[i]`` counted
    ``mult[i]`` times: the visit histogram and transform that ``_count``
    makes per slice and per family."""
    hist = np.zeros(len(fam), dtype=np.int64)
    fam._add_visits(hist, values, mult)
    return _subset_sums_by_mask(hist)


def test_accept_counts_weigh_repeated_outputs():
    rng = random.Random(64)
    blocks = [swbp_family(3, 2, 3), swbp_family(3, 2, 2)]
    for fam in (swbp_family(6, 2, 8), concat_families(blocks)):
        values = rng.sample(range(1 << 6), 5)
        outputs = np.array([rng.choice(values) for _ in range(64)], dtype=np.uint64)
        distinct, mult = np.unique(outputs, return_counts=True)
        assert len(set(mult.tolist())) > 1
        counts = accept_counts(fam, distinct, mult)
        assert np.issubdtype(counts.dtype, np.integer)
        assert counts[0] == batch_evaluate(fam.base, outputs).sum() > len(values)
        for mask in range(len(fam)):
            assert counts[mask] == batch_evaluate(fam.program(mask), outputs).sum()
        for _ in range(3):
            order = rng.sample(range(len(distinct)), len(distinct))
            assert accept_counts(fam, distinct[order], mult[order]).tolist() == counts.tolist()
        g = TableGen(outputs, 6)
        report = run_fooling_report(g, fam, Fraction(0))
        errors = [fooling_error(g, fam.program(mask)) for mask in range(len(fam))]
        assert report.rows == [(i, str(err)) for i, err in enumerate(errors)]
        assert report.work["distinct_outputs"] == len(np.unique(outputs))
