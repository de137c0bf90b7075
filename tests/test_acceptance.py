"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Expected constants marked [frozen] were produced by the independent oracles
in this repository (input/matrix enumeration, forward certificate
construction) and pinned; probability fixtures (1/4, 175/256) are exact
closed forms of the shipped automata.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from swprg.bp import (
    LayeredProgram,
    WindowCertificate,
    WindowViolation,
    acceptance_probability,
    build_certificate,
    canonical_debruijn_swbp,
    check_window,
    concat,
)
from swprg.generators import (
    ExhaustiveRectangle,
    PairwiseRectangle,
    base_exhaustive,
    base_nisan,
    build_swbp_prg,
    interleave,
    inw_stretch,
    rect_compose,
)
from swprg.hsg import build_swbp_hsg, hsg_exhaustive
from swprg.lab import (
    MaskFamily,
    batch_evaluate,
    concat_families,
    fooling_error,
    run_fooling_report,
    run_hitting_report,
    sample_swbp,
    swbp_family,
)
from swprg.paca import (
    build_c1,
    build_c2,
    derandomize_two_sided,
    exact_accept_probability,
    sample_paca,
    sliding_sim,
    step,
)
from swprg.primitives import perfect_extractor
from test_bp import certificate_is_valid
from test_lab import acceptance_probability_bruteforce


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_paca_fixture_probabilities():
    start = time.monotonic()
    c1, c2 = build_c1(), build_c2()
    checked = 0
    ok = True
    for n in range(1, 5):
        for xv in range(1 << n):
            x1 = tuple(c1.sigma[(xv >> i) & 1] for i in range(n))
            x2 = tuple(c2.sigma[(xv >> i) & 1] for i in range(n))
            ok &= exact_accept_probability(c1, x1) == Fraction(1, 4)
            ok &= exact_accept_probability(c2, x2) == Fraction(175, 256)
            checked += 2
    elapsed = time.monotonic() - start
    report(
        1, ok and elapsed < 60,
        f"C1 = 1/4 and C2 = 175/256 on all {checked} inputs of lengths 1..4 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_sliding_sim_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    mismatches = 0
    flip_failures = 0
    scanned = 0
    for q, T, n in itertools.product((2, 3), (1, 2, 3), (1, 2, 3)):
        for _ in range(2):
            c = sample_paca(rng, q, T)
            m = (n + T) * T
            streams = np.arange(1 << m, dtype=np.uint64)
            # positions of R'(i, j) inside the stream, and the leftovers
            rp_pos = {(i, j): i + (i + j + 1) * T for i in range(T) for j in range(n)}
            irrelevant = sorted(set(range(m)) - set(rp_pos.values()))
            rp_index = np.zeros(len(streams), dtype=np.int64)
            for (i, j), pos in rp_pos.items():
                rp_index |= (
                    ((streams >> np.uint64(pos)) & np.uint64(1)).astype(np.int64)
                    << (i * n + j)
                )
            for xv in range(len(c.sigma) ** n):
                x, v = [], xv
                for _ in range(n):
                    x.append(c.sigma[v % len(c.sigma)])
                    v //= len(c.sigma)
                x = tuple(x)
                S = sliding_sim(c, x, {T})
                got = batch_evaluate(S, streams)
                want_table = np.zeros(1 << (T * n), dtype=bool)
                for rp in range(1 << (T * n)):
                    config = x
                    for i in range(T):
                        row = [(rp >> (i * n + j)) & 1 for j in range(n)]
                        config = step(c, config, row)
                    want_table[rp] = c.config_accepting(config)
                mismatches += int((got != want_table[rp_index]).sum())
                idx = np.arange(len(streams))
                for pos in irrelevant:
                    flip_failures += int((got[idx ^ (1 << pos)] != got).sum())
                scanned += len(streams)
    elapsed = time.monotonic() - start
    report(
        2,
        mismatches == 0 and flip_failures == 0 and elapsed < 600,
        f"S_T == step-T acceptance on {scanned} (stream, input) pairs, "
        f"0 mismatches, irrelevant-bit flips clean ({elapsed:.1f}s)",
    )


def test_criterion_3_window_roundtrip_and_mutants():
    start = time.monotonic()
    rng = random.Random(1337)
    sampled_ok = 0
    for n, t in ((6, 2), (6, 3)):
        for _ in range(500):
            p = sample_swbp(rng, n, t)
            if isinstance(check_window(p, t), WindowCertificate):
                sampled_ok += 1
    # single transition-entry mutants of the canonical program
    canon, _ = canonical_debruijn_swbp(6, 2)
    mutants = violating = caught = agree = validated = 0
    for layer in range(6):
        for q in range(4):
            for b in (0, 1):
                old = canon.trans[layer][q][b]
                for new in range(4):
                    if new == old:
                        continue
                    tables = [list(map(list, lay)) for lay in canon.trans]
                    tables[layer][q][b] = new
                    mut = LayeredProgram(
                        canon.n, canon.w, canon.q0,
                        tuple(tuple(tuple(e) for e in lay) for lay in tables),
                        canon.acc,
                    )
                    mutants += 1
                    direct = check_window(mut, 2)
                    forward = build_certificate(mut, 2)
                    is_violation = isinstance(direct, WindowViolation)
                    agree += (is_violation == (forward is None))
                    if is_violation:
                        violating += 1
                        caught += 1
                        # semantic ground truth for the witness
                        validated += (
                            mut.run_word(direct.layer, direct.q, direct.word)
                            != mut.run_word(direct.layer, direct.q_prime, direct.word)
                        )
                    else:
                        validated += certificate_is_valid(mut, direct)
    elapsed = time.monotonic() - start
    ok = (
        sampled_ok == 1000
        and agree == mutants
        and validated == mutants
        and caught == violating
    )
    report(
        3, ok,
        f"1000/1000 quotient samples pass check_window; {violating}/{mutants} "
        f"mutants violate clause 2, all caught, both routes agree, all results "
        f"semantically validated ({elapsed:.1f}s)",
    )


def test_criterion_4_zero_error_closure():
    start = time.monotonic()
    base = base_exhaustive(2)
    family = swbp_family(8, 2, budget_bits=12)
    worst = Fraction(0)
    for strategy in ("inw", "rect"):
        g = build_swbp_prg(8, 2, 4, base, strategy)
        assert g.eps_budget == 0
        worst = max(worst, run_fooling_report(g, family, g.eps_budget).worst_error)
    elapsed = time.monotonic() - start
    report(
        4, worst == 0,
        f"exhaustive-base inw and rect pipelines: worst fooling error {worst} "
        f"over {len(family)} programs x 2 strategies ({elapsed:.1f}s)",
    )


def _shift_start_families(budget_bits):
    """De Bruijn shift programs (n=4, t=2) from every initial state, one
    family each, toggling the last `budget_bits` positions (layer 4 down)."""
    canon, _ = canonical_debruijn_swbp(4, 2)
    positions = [(layer, s) for layer in range(4, 1, -1) for s in range(4)]
    full = tuple(frozenset(range(4)) for _ in range(4))
    return [
        MaskFamily(LayeredProgram(4, 4, q0, canon.trans, full), tuple(positions[:budget_bits]))
        for q0 in range(4)
    ]


def _worst_error(g, programs):
    return run_fooling_report(g, programs, Fraction(0)).worst_error


def test_criterion_5_lemma_constants():
    start = time.monotonic()
    nb = base_nisan(4, 4, Fraction(1, 4))  # word 1, 2 levels, d = 5

    # measured base error over the full n=4 t=2 labeling family plus the
    # shift family from every initial state (covers the cross-sections of
    # the longer programs below)
    base_families = [swbp_family(4, 2)] + _shift_start_families(12)
    eps_hat = _worst_error(nb, base_families)
    assert eps_hat == Fraction(1, 8)  # [frozen] full-seed/full-family measurement
    base_programs = sum(len(f) for f in base_families)

    lines = [f"eps_hat = {eps_hat} over {base_programs} base programs"]
    ok = True

    # (a) one inw level, perfect extractor: simultaneous <= 3 * max(eps_hat, 0)
    st1 = inw_stretch(nb, perfect_extractor(nb.d))
    pair_family = swbp_family(4, 2, budget_bits=6)
    worst_pair = _worst_error(st1, concat_families([pair_family] * 2))
    ok &= worst_pair <= 3 * eps_hat
    lines.append(f"inw r=1 simultaneous {worst_pair} <= {3 * eps_hat}")

    # (b) two inw levels (d = 20): 4-tuples <= 3**2 * eps_hat
    st2 = inw_stretch(st1, perfect_extractor(st1.d))
    quad_family = swbp_family(4, 2, budget_bits=3)
    quads = run_fooling_report(st2, concat_families([quad_family] * 4), 9 * eps_hat)
    worst_quad = quads.worst_error
    ok &= worst_quad <= 9 * eps_hat
    lines.append(f"inw r=2 simultaneous {worst_quad} <= {9 * eps_hat}")
    # spot-check the family count against the library oracle: member 1 of
    # every block is program 0b001001001001 of the tuple family
    spot = fooling_error(st2, concat([quad_family.program(1)] * 4))
    assert quads.rows[0b001001001001] == (0b001001001001, str(spot))

    # (c) rect_compose at r in {2, 4}: <= r * eps_hat + eps_cr
    for r, n, budget in ((2, 8, 12), (4, 16, 8)):
        g = rect_compose(nb, ExhaustiveRectangle(r, nb.d))
        worst = _worst_error(g, swbp_family(n, 2, budget_bits=budget))
        ok &= worst <= r * eps_hat
        lines.append(f"rect r={r} fooling {worst} <= {r * eps_hat}")

    # (d) interleave: <= 2 * component budget
    half = rect_compose(nb, ExhaustiveRectangle(2, nb.d))
    gi = interleave(half, half)
    worst_i = _worst_error(gi, swbp_family(16, 2, budget_bits=8))
    ok &= worst_i <= 2 * (2 * eps_hat)
    lines.append(f"interleave fooling {worst_i} <= {2 * 2 * eps_hat}")

    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 1800, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_6_hitting_soundness():
    start = time.monotonic()
    h = build_swbp_hsg(8, 2, 4, hsg_exhaustive(2))
    rep = run_hitting_report(h, swbp_family(8, 2, budget_bits=12))
    elapsed = time.monotonic() - start
    report(
        6, rep.passed,
        f"witnesses found for all {rep.required} programs above the threshold "
        f"out of {rep.programs_checked}, 0 misses ({elapsed:.1f}s)",
    )


def test_criterion_7_two_sided_derandomizer():
    start = time.monotonic()
    exhaustive = lambda m, thr: base_exhaustive(m)
    ok = True
    lines = []

    c1, c2 = build_c1(), build_c2()
    r1 = derandomize_two_sided(c1, (c1.sigma[0],) * 2, Fraction(1, 8), exhaustive)
    r2 = derandomize_two_sided(c2, (c2.sigma[1],) * 2, Fraction(1, 8), exhaustive)
    ok &= r1.eta == Fraction(1, 4) and not r1.accept
    ok &= r2.eta == Fraction(175, 256) and r2.accept
    lines.append(f"C1 eta {r1.eta} -> reject, C2 eta {r2.eta} -> accept")

    rng = random.Random(404)
    exact_matches = 0
    for _ in range(50):
        c = sample_paca(rng, 2, rng.randint(2, 3))
        n = rng.randint(1, 2)
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        res = derandomize_two_sided(c, x, Fraction(1, 8), exhaustive)
        exact_matches += res.eta == exact_accept_probability(c, x)
    ok &= exact_matches == 50
    lines.append(f"eta == exact on {exact_matches}/50 random tiny PACAs")

    # nonzero-error generator: |eta - exact| <= eps_G * (2**T - 1) with
    # eps_G = the max measured per-term deviation
    worst_ratio_ok = True
    checked = 0
    for _ in range(10):
        c = sample_paca(rng, 2, 3)
        x = tuple(rng.choice(c.sigma) for _ in range(2))
        m = (2 + c.time_bound) * c.time_bound
        noisy = lambda mm, thr: rect_compose(
            base_exhaustive(5), PairwiseRectangle(mm // 5, 5)
        )
        res_noisy = derandomize_two_sided(c, x, Fraction(1, 8), noisy)
        res_exact = derandomize_two_sided(c, x, Fraction(1, 8), exhaustive)
        if not res_noisy.eta_terms:
            continue  # accepted at step 0: estimate is exact
        eps_g = max(
            abs(res_noisy.eta_terms[t] - res_exact.eta_terms[t])
            for t in res_exact.eta_terms
        )
        bound = eps_g * ((1 << c.time_bound) - 1)
        exact_p = exact_accept_probability(c, x)
        worst_ratio_ok &= abs(res_noisy.eta - exact_p) <= bound
        worst_ratio_ok &= abs(res_noisy.eta - exact_p) <= eps_g * (1 << c.time_bound)
        checked += 1
    ok &= worst_ratio_ok and checked > 0
    lines.append(f"noisy-PRG error bound held on {checked} runs")

    elapsed = time.monotonic() - start
    report(7, ok, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_8_oracle_agreement():
    start = time.monotonic()
    rng = random.Random(808)
    agreements = 0
    for _ in range(200):
        n, w = rng.randint(1, 12), rng.randint(1, 5)
        trans = tuple(
            tuple((rng.randrange(w), rng.randrange(w)) for _ in range(w))
            for _ in range(n)
        )
        acc = tuple(
            frozenset(q for q in range(w) if rng.random() < 0.75) for _ in range(n)
        )
        p = LayeredProgram(n, w, rng.randrange(w), trans, acc)
        agreements += (
            acceptance_probability(p) == acceptance_probability_bruteforce(p)
        )
    elapsed = time.monotonic() - start
    report(
        8, agreements == 200,
        f"DP == input enumeration on {agreements}/200 random programs ({elapsed:.1f}s)",
    )
