import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from swprg import cli, paca
from swprg.bp import acceptance_probability, check_window, evaluate_int, WindowCertificate
from swprg.errors import ParameterError, ShapeError
from swprg.generators import (
    CHUNK,
    ExhaustiveRectangle,
    PairwiseRectangle,
    base_exhaustive,
    base_nisan,
    generator_from_json,
    interleave,
    rect_compose,
)
from swprg.hsg import hsg_exhaustive
from swprg.lab import batch_evaluate
from swprg.paca import (
    Paca,
    accept_probability_bruteforce,
    accepting_steps_of_stream,
    accepts,
    build_c1,
    build_c2,
    check_time_bound,
    derandomize_one_sided,
    derandomize_two_sided,
    exact_accept_probability,
    load_paca,
    paca_from_json,
    paca_to_json,
    sample_paca,
    sliding_sim,
    spacetime_diagram,
    step,
    step_vector_counts,
)


def identity_paca(q=2, T=2):
    """delta_0 = delta_1 = keep the center state."""
    delta = np.zeros((q + 1, q, q + 1), dtype=np.int16)
    for center in range(q):
        delta[:, center, :] = center
    return Paca(q, tuple(range(q)), frozenset({1}), delta, delta.copy(), T)


def test_step_identity_rule():
    c = identity_paca()
    assert step(c, (0, 1, 1), (1, 0, 1)) == (0, 1, 1)


def test_step_n1_uses_boundaries():
    rng = random.Random(0)
    c = sample_paca(rng, 3, 2)
    for s in range(3):
        for b in (0, 1):
            expected = int((c.delta1 if b else c.delta0)[c.boundary][s][c.boundary])
            assert step(c, (s,), (b,)) == (expected,)


def test_step_shape_error():
    with pytest.raises(ShapeError):
        step(identity_paca(), (0, 1), (0,))


def test_accepts_at_step_zero():
    c = identity_paca()
    matrix = [[0, 0], [0, 0]]
    assert accepts(c, (1, 1), matrix) == (True, 0)
    assert accepts(c, (0, 1), matrix) == (False, None)


def test_c1_cells_beyond_first_become_accepting():
    c = build_c1()
    x = (c.sigma[0], c.sigma[1], c.sigma[0])
    rng = random.Random(5)
    config = x
    for t in range(1, c.time_bound):
        config = step(c, config, [rng.randrange(2) for _ in x])
        assert all(s in c.accepting for s in config[1:])


def test_c1_accepts_iff_first_two_coins_zero():
    c = build_c1()
    x = (c.sigma[0],) * 2
    rng = random.Random(9)
    for _ in range(50):
        matrix = [[rng.randrange(2) for _ in x] for _ in range(c.time_bound)]
        want = matrix[0][0] == 0 and matrix[1][0] == 0
        assert accepts(c, x, matrix).accept == want


def test_c2_accepts_iff_some_pair_zero():
    c = build_c2()
    x = (c.sigma[0],) * 2
    rng = random.Random(13)
    for _ in range(50):
        matrix = [[rng.randrange(2) for _ in x] for _ in range(c.time_bound)]
        coins = [matrix[t][0] for t in range(8)]
        want = any(coins[2 * j] == 0 and coins[2 * j + 1] == 0 for j in range(4))
        assert accepts(c, x, matrix).accept == want


def chain_step_vector_distribution(c, x):
    """Reference for paca._step_vector_distribution: the Markov chain over
    whole configurations, each step weighing every next configuration by
    the number of the 2**n coin rows that lead to it; the counts of each
    mask of all-accepting steps 1..T-1, and the (T-1)*n coins counted."""
    n, T = len(x), c.time_bound
    rows = list(product((0, 1), repeat=n))
    counts = Counter({(tuple(x), 0): 1})
    for s in range(1, T):
        nxt = Counter()
        for (config, v), count in counts.items():
            successors = Counter(step(c, config, row) for row in rows)
            for nc, mult in successors.items():
                nxt[nc, v | (1 << s) if c.config_accepting(nc) else v] += count * mult
        counts = nxt
    out = Counter()
    for (_, v), count in counts.items():
        out[v] += count
    return dict(out), (T - 1) * n


def test_sweep_distribution_equals_the_configuration_chain():
    rng = random.Random(41)
    cases = [
        (c, x) for c in (build_c1(), build_c2()) for n in (1, 2, 3)
        for x in product(c.sigma, repeat=n)
    ]
    for _ in range(80):
        c = sample_paca(rng, rng.randint(2, 3), rng.randint(1, 4))
        cases.append((c, tuple(rng.choice(c.sigma) for _ in range(rng.randint(1, 5)))))
    spread = 0
    for c, x in cases:
        got = paca._step_vector_distribution(c, x)
        assert got == chain_step_vector_distribution(c, x), (paca_to_json(c), x)
        assert sum(got[0].values()) == 1 << got[1]
        spread += len(got[0]) > 1
    assert spread > 20  # most cases split the coin matrices over several masks


def test_exact_probability_fixtures():
    c1, c2 = build_c1(), build_c2()
    for n in (1, 2, 3, 10):
        for xv in range(1 << n) if n < 10 else (0, 0b0101010101, (1 << n) - 1):
            x1 = tuple(c1.sigma[(xv >> i) & 1] for i in range(n))
            assert exact_accept_probability(c1, x1) == Fraction(1, 4)
            x2 = tuple(c2.sigma[(xv >> i) & 1] for i in range(n))
            assert exact_accept_probability(c2, x2) == Fraction(175, 256)


def test_exact_probability_all_accepting():
    c = identity_paca()
    assert exact_accept_probability(c, (1, 1)) == 1


def test_exact_probability_oracle_agreement():
    rng = random.Random(21)
    for _ in range(10):
        c = sample_paca(rng, rng.randint(2, 3), rng.randint(1, 3))
        n = rng.randint(1, 2)
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        assert exact_accept_probability(c, x) == accept_probability_bruteforce(c, x)


def test_sliding_sim_t1_n1_hand_trace():
    rng = random.Random(2)
    c = sample_paca(rng, 2, 1)
    x = (1,)
    S = sliding_sim(c, x, {1})
    # m = (1+1)*1 = 2; outer j=0 consumes bit 0 with the loaded x, j=1 pads $
    for r in range(4):
        b = r & 1
        new = c.delta(b, c.boundary, x[0], c.boundary)
        want = new in c.accepting
        assert evaluate_int(S, r) == want


def test_sliding_sim_all_accepting_paca():
    c = identity_paca()
    x = (1, 1)
    S = sliding_sim(c, x, {1, 2})
    m = (2 + 2) * 2
    assert all(evaluate_int(S, r) for r in range(1 << m))


def test_sliding_sim_rejects_bad_t_set():
    c = identity_paca()
    with pytest.raises(ParameterError):
        sliding_sim(c, (1, 1), set())
    with pytest.raises(ParameterError):
        sliding_sim(c, (1, 1), {5})


def stream_to_matrix(r, n, T):
    """R(i, j) = r(i + j*T): column j holds the bits of outer iteration j."""
    return [[(r >> (i + j * T)) & 1 for j in range(n + T)] for i in range(T)]


def derived_matrix(R, n, T):
    """R'(i, j) = R(i, i + j + 1): the coins actually fed to the automaton."""
    return [[R[i][i + j + 1] for j in range(n)] for i in range(T)]


def test_sliding_sim_equivalence_exhaustive_small():
    # evaluate(S_T, r) == [step-T configuration accepting] under the R/R'
    # index maps, for every stream
    rng = random.Random(31)
    for q, T, n in ((2, 2, 2), (3, 2, 1), (2, 3, 1)):
        c = sample_paca(rng, q, T)
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        S = sliding_sim(c, x, {T})
        m = (n + T) * T
        for r in range(1 << m):
            R = stream_to_matrix(r, n, T)
            Rp = derived_matrix(R, n, T)
            config = x
            for t in range(T):
                config = step(c, config, Rp[t])
            assert evaluate_int(S, r) == c.config_accepting(config)


def test_sliding_sim_window_bound():
    # window <= 2T^2 + 2T on an instance long enough for the check to bite
    rng = random.Random(8)
    c = sample_paca(rng, 2, 2)
    T = c.time_bound
    x = tuple(rng.choice(c.sigma) for _ in range(6))
    S = sliding_sim(c, x, {T})
    window = 2 * T * T + 2 * T
    assert window < S.n
    assert isinstance(check_window(S, window), WindowCertificate)


def test_probability_transport():
    # Pr[S_t(U_m) = 1] equals Pr[step-t configuration accepting], exactly
    rng = random.Random(17)
    for _ in range(5):
        c = sample_paca(rng, 2, rng.randint(1, 3))
        T = c.time_bound
        n = rng.randint(1, 2)
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        for t in range(1, T + 1):
            S = sliding_sim(c, x, {t})
            lhs = acceptance_probability(S)
            dist = {x: Fraction(1)}
            from itertools import product as iproduct

            rows = list(iproduct((0, 1), repeat=n))
            for _step in range(t):
                nxt = {}
                for cfg, mass in dist.items():
                    for row in rows:
                        nc = step(c, cfg, row)
                        nxt[nc] = nxt.get(nc, Fraction(0)) + mass / len(rows)
                dist = nxt
            rhs = sum(
                (m for cfg, m in dist.items() if c.config_accepting(cfg)),
                Fraction(0),
            )
            assert lhs == rhs, (t, lhs, rhs)


def test_accepting_steps_of_stream_matches_subset_programs():
    rng = random.Random(23)
    c = sample_paca(rng, 2, 2)
    T = c.time_bound
    x = (0, 1)
    m = (2 + T) * T
    subsets = [{1}, {2}, {1, 2}]
    programs = {frozenset(s): sliding_sim(c, x, s) for s in subsets}
    for r in range(1 << m):
        mask = accepting_steps_of_stream(c, x, r)
        for s, S in programs.items():
            want = all((mask >> i) & 1 for i in s)
            assert evaluate_int(S, r) == want


def steps_by_stepping(c, x, r):
    """Reference: the step mask of stream r by paca.step.  Stream bit
    i + (i+j+1)*T is the coin of cell j at step i+1; bit s of the mask
    (s = 1..T) says whether the step-s configuration accepts."""
    n, T = len(x), c.time_bound
    config, mask = x, 0
    for i in range(T):
        config = step(c, config, [(r >> (i + (i + j + 1) * T)) & 1 for j in range(n)])
        if c.config_accepting(config):
            mask |= 1 << (i + 1)
    return mask


def test_accepting_steps_of_stream_matches_stepping():
    rng = random.Random(47)
    for q, T, n in product((2, 3), range(1, 5), range(1, 4)):
        m = (n + T) * T
        for _ in range(3):
            c = sample_paca(rng, q, T)
            x = tuple(rng.choice(c.sigma) for _ in range(n))
            streams = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(20)]
            for r in streams:
                assert accepting_steps_of_stream(c, x, r) == steps_by_stepping(c, x, r), (
                    q, T, x, r,
                )
            with pytest.raises(ParameterError):
                accepting_steps_of_stream(c, x[:-1] + (q,), 0)
            with pytest.raises(ParameterError):
                accepting_steps_of_stream(c, (), 0)


def test_accepting_steps_of_stream_refuses_malformed_streams():
    # C1 at n = 1 reads m = 110-bit streams; a stream off by 2**m, negative,
    # a bool or not an int was once read as the in-range int it resembles
    c, x = build_c1(), (0,)
    m = (len(x) + c.time_bound) * c.time_bound
    assert [accepting_steps_of_stream(c, x, r) for r in (0, 1, 1536)] == [1536, 1536, 0]
    for r in ((1 << m) + 1536, 1536 - (1 << m), -1, 1 << m, True, False, 0.0, np.uint64(0)):
        with pytest.raises(ShapeError, match="stream"):
            accepting_steps_of_stream(c, x, r)


def test_row_step_memo_stays_bounded_and_exact_past_eviction():
    # q = 3, T = 2, n = 6 over every 16-bit stream of four inputs: more
    # distinct (configuration, coin row) pairs than the memo's 4,096 entries,
    # so it evicts; every mask still equals stepping by paca.step
    rng = random.Random(71)
    c = sample_paca(rng, 3, 2)
    n, T = 6, c.time_bound
    rows = list(product((0, 1), repeat=n))
    streams = np.arange(1 << ((n + T) * T))
    # the index in rows of the coin row stream r feeds step i+1: cell k reads
    # bit i + (i+k)*T, and rows[idx] has cell k's coin at bit n-k of idx
    row_of = [
        sum(((streams >> (i + (i + k) * T)) & 1) << (n - k) for k in range(1, n + 1))
        for i in range(T)
    ]
    pairs = set()
    for _ in range(4):
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        want = np.zeros((len(rows), len(rows)), dtype=np.int64)
        for a, row1 in enumerate(rows):
            config1 = step(c, x, row1)
            pairs.add((x, row1))
            for b, row2 in enumerate(rows):
                config2 = step(c, config1, row2)
                pairs.add((config1, row2))
                want[a, b] = 2 * c.config_accepting(config1) | 4 * c.config_accepting(config2)
        got = [accepting_steps_of_stream(c, x, r) for r in range(len(streams))]
        assert got == want[row_of[0], row_of[1]].tolist(), x
        assert c._row_step.cache_info().currsize <= 1 << 12
    assert len(pairs) > 1 << 12


def test_row_step_memo_is_built_on_first_sweep_only():
    for build in (build_c1, build_c2):
        c = build.__wrapped__()
        assert "_row_step" not in vars(c)
        accepting_steps_of_stream(c, (0,), 0)
        assert c._row_step.cache_info().currsize == c.time_bound


def test_unread_stream_bits_leave_the_mask_unchanged():
    # only bits i + (i+k)*T (steps i+1 = 1..T, cells k = 1..n) are coins of
    # in-bounds cells; the sweeper's read mask is exactly those bits, and
    # flipping any other bit changes neither the mask nor the stepping
    rng = random.Random(59)
    for q, T, n in product((2, 3), range(1, 5), range(1, 4)):
        m = (n + T) * T
        read = {i + (i + k) * T for i in range(T) for k in range(1, n + 1)}
        c = sample_paca(rng, q, T)
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        assert c._sweeper(x)[1] == sum(1 << bit for bit in read), (T, n)
        for r in [rng.getrandbits(m) for _ in range(4)]:
            want = steps_by_stepping(c, x, r)
            for bit in set(range(m)) - read:
                flipped = r ^ (1 << bit)
                assert steps_by_stepping(c, x, flipped) == want, (q, T, x, r, bit)
                assert accepting_steps_of_stream(c, x, flipped) == want, (q, T, x, r, bit)


def test_sweeper_memo_stays_bounded_and_exact_past_eviction():
    # q = 3, T = 3, n = 5 reads 15 bits of each stream: 6,000 random streams
    # carry more read patterns than the memo's 4,096 entries, so it evicts,
    # and the first 2,000 come back after eviction; every mask still equals
    # stepping by paca.step
    rng = random.Random(73)
    c = sample_paca(rng, 3, 3)
    n, T = 5, c.time_bound
    x = tuple(rng.choice(c.sigma) for _ in range(n))
    streams = [rng.getrandbits((n + T) * T) for _ in range(6000)]
    streams += streams[:2000]
    got = [accepting_steps_of_stream(c, x, r) for r in streams]
    assert got == [steps_by_stepping(c, x, r) for r in streams]
    info = c._sweeper(x)[2].cache_info()
    assert info.misses > 1 << 12 and info.currsize <= 1 << 12, info


def test_inputs_are_checked_unless_they_are_the_latest_tuple():
    c = sample_paca(random.Random(5), 3, 2)
    x = (1, 0, 2)
    want = [accepting_steps_of_stream(c, x, r) for r in range(64)]
    assert want == [steps_by_stepping(c, x, r) for r in range(64)]
    # a list is checked on every call, so a change between calls is seen
    xs = list(x)
    assert [accepting_steps_of_stream(c, xs, r) for r in range(64)] == want
    for bad in (c.q, -1, True, 1.0, "1"):
        xs[0] = bad
        with pytest.raises(ParameterError):
            accepting_steps_of_stream(c, xs, 0)
    xs[0] = 1
    assert accepting_steps_of_stream(c, xs, 5) == want[5]
    # tuples equal to the memoized (1, 0, 2) are checked as well, straight
    # after it and between calls on other inputs
    for bad in ((True, 0, 2), (1.0, 0, 2), (1, False, 2)):
        assert accepting_steps_of_stream(c, x, 5) == want[5]
        with pytest.raises(ParameterError):
            accepting_steps_of_stream(c, bad, 0)
    y = (2, 2, 1)
    for r in range(64):
        assert accepting_steps_of_stream(c, x, r) == want[r]
        assert accepting_steps_of_stream(c, y, r) == steps_by_stepping(c, y, r)


def window_sweep_steps(c, x, r):
    """Reference: the window sweep of sliding_sim run directly on the stream
    r (bit L of r is the coin of sweep layer L = j*T + tau), one layer
    update per stream bit; the step mask over steps 1..T."""
    n, T = len(x), c.time_bound
    b = c.boundary
    left = [b] * T
    center = [b] * T
    mask = (1 << (T + 1)) - 2  # steps 1..T assumed accepting until refuted
    for j in range(n + T):
        right = x[j] if j < n else b
        for tau in range(T):
            new = c.delta(r & 1, left[tau], center[tau], right)
            r >>= 1
            left[tau] = center[tau]
            center[tau] = right
            right = new
            if new != b and new not in c.accepting:
                mask &= ~(2 << tau)
    return mask


def test_accepting_steps_of_stream_matches_window_sweep():
    # up to the 63-bit streams a generator packs, where sliding_sim is
    # far too large to build
    rng = random.Random(53)
    for q, T in product((2, 3, 5, 8, 16), range(1, 8)):
        longest = 63 // T - T
        for n in sorted({1, rng.randint(1, longest), longest}):
            m = (n + T) * T
            c = sample_paca(rng, q, T)
            x = tuple(rng.choice(c.sigma) for _ in range(n))
            streams = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(30)]
            for r in streams:
                assert accepting_steps_of_stream(c, x, r) == window_sweep_steps(c, x, r), (
                    q, T, x, r,
                )


def test_derandomize_one_sided_exhaustive_cross_check():
    rng = random.Random(29)
    builder = lambda m, thr: hsg_exhaustive(m)
    for _ in range(8):
        c = sample_paca(rng, 2, rng.randint(1, 3))
        n = rng.randint(1, 2)
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        decision = derandomize_one_sided(c, x, Fraction(1, 4), builder)
        assert decision == (exact_accept_probability(c, x) > 0)


def test_derandomize_one_sided_through_pairwise_hsg():
    # decide through a non-exhaustive HSG; the oracle runs the automaton on
    # the derived coin matrix of every output stream
    rng = random.Random(31)
    decisions = []
    for _ in range(20):
        c = sample_paca(rng, 2, rng.randint(2, 3))
        n, T = rng.randint(1, 2), c.time_bound
        x = tuple(rng.choice(c.sigma) for _ in range(n))
        m = (n + T) * T
        k = next(k for k in (3, 2, 5) if m % k == 0)
        h = rect_compose(base_exhaustive(k), PairwiseRectangle(m // k, k))
        decision = derandomize_one_sided(c, x, Fraction(1, 4), lambda m, thr: h)
        matrices = (derived_matrix(stream_to_matrix(int(r), n, T), n, T) for r in h.expand_all())
        assert decision == any(accepts(c, x, R).accept for R in matrices)
        decisions.append(decision)
    assert set(decisions) == {True, False}


def test_step_vector_counts_weigh_repeated_streams():
    # Nisan-based generators emit each 8-bit stream several times; sweeping
    # each distinct stream once, weighted, must match a sweep of every seed
    nisan = base_nisan(2, 2, Fraction(1, 4))
    half = rect_compose(nisan, ExhaustiveRectangle(2, nisan.d))
    gens = [interleave(half, half), rect_compose(nisan, ExhaustiveRectangle(4, nisan.d))]
    rng = random.Random(43)
    masks = set()
    for _ in range(6):
        c = sample_paca(rng, 2, 2)
        x = tuple(rng.choice(c.sigma) for _ in range(2))  # (n + T) * T = 8 coin bits
        for g in gens:
            assert len(np.unique(g.expand_all())) < 1 << g.d
            counts, bits = step_vector_counts(c, x, g)
            per_seed = Counter(
                accepting_steps_of_stream(c, x, int(r)) & 0b10 for r in g.expand_all()
            )
            assert (counts, bits) == (dict(per_seed), g.d)
            masks.update(counts)
    assert masks == {0, 0b10}


def step_vector_counts_by_lists(c, x, g):
    """Reference: the generator path of step_vector_counts with every
    distinct stream and its weight listed as Python ints at once."""
    steps_mask = (1 << c.time_bound) - 2
    counts = {}
    streams, mult = g.output_counts()
    for r, k in zip(streams.tolist(), mult.tolist()):
        v = accepting_steps_of_stream(c, x, r) & steps_mask
        counts[v] = counts.get(v, 0) + k
    return counts, g.d


def test_step_vector_counts_across_chunk_boundaries():
    # a Nisan base maps its 8 seeds onto 4 outputs, so the 7,744 distinct
    # 32-bit streams (n = 4, T = 4) carry unequal weights across two chunks
    nisan = base_nisan(2, 2, Fraction(1, 4))
    g = rect_compose(nisan, PairwiseRectangle(16, nisan.d))
    streams, mult = g.output_counts()
    assert CHUNK < len(streams) < 2 * CHUNK and len(set(mult.tolist())) > 1
    rng = random.Random(71)
    masks = set()
    for _ in range(3):
        c = sample_paca(rng, 3, 4)
        x = tuple(rng.choice(sorted(set(c.sigma) - c.accepting) or c.sigma) for _ in range(4))
        counts, bits = step_vector_counts(c, x, g)
        assert (counts, bits) == step_vector_counts_by_lists(c, x, g)
        assert sum(counts.values()) == 1 << g.d
        masks.update(counts)
    assert len(masks) > 1


def test_step_vector_counts_memory_is_bounded_by_the_chunk():
    # perfbench's d = 16 generator: 2**16 distinct streams, swept with at
    # most CHUNK of them as Python ints at once; listing them all at once
    # peaks at about 4 MiB
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "paca-gen.json"
    g = generator_from_json(json.loads(config.read_text()))
    c = sample_paca(random.Random(7), 3, 4)
    x = (min(set(c.sigma) - c.accepting),) * 4  # (4 + 4) * 4 = 32 stream bits
    g.expand_all()  # cached, as the derandomizer's later calls find it
    (counts, bits), peak = traced_peak(lambda: step_vector_counts(c, x, g))
    assert g.d == 16 and sum(counts.values()) == 1 << 16
    assert peak < 3 << 20, peak


def test_inputs_that_are_not_iterable_are_refused():
    # they once escaped tuple() as a raw TypeError
    c = build_c1()
    calls = (
        lambda x: exact_accept_probability(c, x),
        lambda x: accepting_steps_of_stream(c, x, 0),
        lambda x: sliding_sim(c, x, {1}),
        lambda x: derandomize_one_sided(c, x, Fraction(1, 4), None),
        lambda x: derandomize_two_sided(c, x, Fraction(1, 4), None),
    )
    for x in (5, None, 1.5):
        for call in calls:
            with pytest.raises(ParameterError, match="not a sequence"):
                call(x)


@pytest.mark.parametrize("eps", [-1, 0, 1, 2, Fraction(3, 2), "abc", None])
def test_derandomizers_refuse_eps_outside_the_unit_interval(eps):
    # eps = -1 and 0 once ran derand2, and eps = 2 ran derand1, to a verdict
    c, x = build_c1(), (0,)
    exhaustive = lambda m, thr: base_exhaustive(m)  # noqa: E731
    for builder in (None, exhaustive):
        with pytest.raises(ParameterError, match="eps"):
            derandomize_one_sided(c, x, eps, builder)
        with pytest.raises(ParameterError, match="eps"):
            derandomize_two_sided(c, x, eps, builder)
    # an input accepted at step 0 is refused too, before the shortcut
    c = identity_paca()
    with pytest.raises(ParameterError):
        derandomize_two_sided(c, (1,), eps, None)


def test_derandomize_two_sided_exhaustive_equals_exact():
    rng = random.Random(37)
    builder = lambda m, thr: base_exhaustive(m)
    for _ in range(8):
        c = sample_paca(rng, 2, rng.randint(2, 3))
        x = tuple(rng.choice(c.sigma) for _ in range(2))
        result = derandomize_two_sided(c, x, Fraction(1, 8), builder)
        # both read the window sweep DP; matrix enumeration is independent
        assert result.eta == exact_accept_probability(c, x)
        assert result.eta == accept_probability_bruteforce(c, x)  # T*n <= 6 bits


def test_derandomize_two_sided_fixtures():
    builder = lambda m, thr: base_exhaustive(m)
    c1, c2 = build_c1(), build_c2()
    r1 = derandomize_two_sided(c1, (c1.sigma[0],) * 2, Fraction(1, 8), builder)
    assert r1.eta == Fraction(1, 4) and not r1.accept
    r2 = derandomize_two_sided(c2, (c2.sigma[0],) * 2, Fraction(1, 8), builder)
    assert r2.eta == Fraction(175, 256) and r2.accept


def test_derandomizers_without_builder_match_exhaustive_ones():
    # None means every coin matrix once, as an exhaustive generator does
    rng = random.Random(59)
    cases = [(build_c1(), (0, 1)), (build_c2(), (1, 1))]
    for _ in range(8):
        c = sample_paca(rng, rng.randint(2, 3), rng.randint(1, 3))
        cases.append((c, tuple(rng.choice(c.sigma) for _ in range(rng.randint(1, 2)))))
    for q, T, n in ((2, 2, 4), (3, 2, 6), (2, 3, 2), (3, 3, 2)):  # 12 to 16 coin bits
        c = sample_paca(rng, q, T)
        cases.append((c, tuple(rng.choice(c.sigma) for _ in range(n))))
    swept, masks = 0, set()
    for c, x in cases:
        assert derandomize_one_sided(c, x, Fraction(1, 4), None) == derandomize_one_sided(
            c, x, Fraction(1, 4), lambda m, thr: hsg_exhaustive(m)
        )
        assert derandomize_two_sided(c, x, Fraction(1, 8), None) == derandomize_two_sided(
            c, x, Fraction(1, 8), lambda m, thr: base_exhaustive(m)
        )
        # both take the sweep DP; the stream path over every coin stream
        # must give its counts, each stream bit it does not read doubling them
        n, T = len(x), c.time_bound
        m = (n + T) * T
        if m <= 16:
            counts, bits = step_vector_counts(c, x, None)
            per_stream = Counter(
                accepting_steps_of_stream(c, x, r) & ((1 << T) - 2) for r in range(1 << m)
            )
            assert dict(per_stream) == {v: k << (m - bits) for v, k in counts.items()}
            swept += 1
            masks.update(counts)
    assert swept == 12  # every sampled case; the fixtures' streams are too long
    assert masks == {0, 0b10, 0b100, 0b110}


def test_two_sided_terms_match_sliding_sim_at_n32():
    # every eta_t, t a non-empty subset of steps 1..3, against the layer DP
    # of the stream program S_t at n = 32, where no coin matrix enumeration
    # and no configuration chain runs
    for seed in (11, 46):
        c = sample_paca(random.Random(seed), 3, 4)
        rng = random.Random(1)
        x = tuple(rng.choice(c.sigma) for _ in range(32))
        result = derandomize_two_sided(c, x, Fraction(1, 8), None)
        assert len(result.eta_terms) == 7 and sum(map(bool, result.eta_terms.values())) >= 3
        for steps, term in result.eta_terms.items():
            assert term == acceptance_probability(sliding_sim(c, x, steps)), (seed, steps)


def two_sided_by_rescan(counts, bits, T):
    """The terms and eta of the two-sided derandomizer from its step-mask
    counts, each subset of steps rescanning every mask: the reference for
    the superset-sum transform."""
    steps = range(1, T)
    eta_count = 0
    eta_terms = {}
    for sub in range(1, 1 << len(steps)):
        members = [s for idx, s in enumerate(steps) if (sub >> idx) & 1]
        t_mask = sum(1 << s for s in members)
        count = sum(cnt for v, cnt in counts.items() if v & t_mask == t_mask)
        eta_terms[frozenset(members)] = Fraction(count, 1 << bits)
        eta_count += count if len(members) % 2 == 1 else -count
    return eta_terms, Fraction(eta_count, 1 << bits)


def test_two_sided_terms_match_subset_rescan(monkeypatch):
    builds = []

    def counted(*source):
        builds.append(source)
        return two_sided_terms(*source)

    two_sided_terms = paca._two_sided_terms
    monkeypatch.setattr(paca, "_two_sided_terms", counted)
    rng = random.Random(61)
    cases = [(build_c1(), (0, 1), None), (build_c2(), (1, 1), None)]
    for _ in range(8):
        c = sample_paca(rng, rng.randint(2, 3), rng.randint(1, 4))
        cases.append((c, tuple(rng.choice(c.sigma) for _ in range(rng.randint(1, 2))), None))
    # a generator path, on a rejecting input symbol so that step 0 does not
    # decide: (1 + 3) * 3 = 12 stream bits from 3 + 9 seed bits
    c = sample_paca(rng, 3, 3)
    g = rect_compose(base_exhaustive(3), PairwiseRectangle(4, 3))
    cases.append((c, (min(set(c.sigma) - c.accepting),), g))
    # Nisan interleaves, whose outputs repeat: the 8-bit one of
    # test_step_vector_counts_weigh_repeated_streams (n = 2, T = 2) and a
    # 12-bit one of three blocks per half (n = 1, T = 3)
    nisan = base_nisan(2, 2, Fraction(1, 4))
    for blocks, n, T in ((2, 2, 2), (3, 1, 3)):
        half = rect_compose(nisan, ExhaustiveRectangle(blocks, nisan.d))
        g = interleave(half, half)
        assert len(np.unique(g.expand_all())) < 1 << g.d
        c = sample_paca(rng, 3, T)
        x = (min(set(c.sigma) - c.accepting),) * n
        cases.append((c, x, g))
    checked = 0
    for c, x, g in cases:
        result = derandomize_two_sided(c, x, Fraction(1, 8), g and (lambda m, thr: g))
        if c.config_accepting(x):
            assert result == (True, Fraction(1), {})
            continue
        terms, eta = two_sided_by_rescan(*step_vector_counts(c, x, g), c.time_bound)
        assert result.eta == eta and result.accept == (eta > Fraction(1, 2))
        assert builds == []  # eta and the verdict need no term
        # equal terms in the same order, so reports list them alike
        assert list(result.eta_terms.items()) == list(terms.items())
        assert len(result.eta_terms) == len(terms) and result.eta_terms == terms
        assert len(builds) == 1  # read three times, built once
        builds.clear()
        checked += 1
    assert checked == 11  # both fixtures, 6 of the 8 samples and the generator cases


def test_cli_derand2_builds_no_term(tmp_path, monkeypatch):
    def refuse(*source):
        raise AssertionError("derand2 writes eta only")

    monkeypatch.setattr(paca, "_two_sided_terms", refuse)
    config = tmp_path / "c2.json"
    config.write_text(json.dumps({"paca": "c2", "mode": "derand2", "input": [1, 1]}))
    out = tmp_path / "out"
    assert cli.main(["paca", "--config", str(config), "--out", str(out)]) == cli.EXIT_PASS
    payload = json.loads((out / "paca.json").read_text())
    assert (payload["accept"], payload["eta"]) == (True, "175/256")


def test_time_bound_fixtures():
    assert check_time_bound(build_c1(), 1)
    assert check_time_bound(build_c2(), 1)
    # shrinking T below the first accepting step must fail the bound
    c1 = build_c1()
    tight = Paca(c1.q, c1.sigma, c1.accepting, c1.delta0, c1.delta1, 9)
    assert not check_time_bound(tight, 1)


def test_time_bound_refuses_a_length_that_is_not_a_positive_int():
    # n = 0 once passed vacuously, and n = 1.5 raised a raw TypeError
    for n in (0, -1, 1.5, True, "1"):
        with pytest.raises(ParameterError):
            check_time_bound(build_c1(), n)


def test_time_bound_sees_late_acceptance_after_a_cycle():
    # one cell over A, B, C: A -> B; B -> A on coin 0, B -> C on coin 1;
    # C accepting.  First acceptance can come at any even step.
    A, B, C = range(3)
    delta0 = np.zeros((4, 3, 4), dtype=np.int16)
    delta1 = np.zeros((4, 3, 4), dtype=np.int16)
    delta0[:, A, :] = delta1[:, A, :] = B
    delta0[:, B, :], delta1[:, B, :] = A, C
    delta0[:, C, :] = delta1[:, C, :] = C
    for T in (3, 5):
        c = Paca(3, (A,), frozenset({C}), delta0, delta1, T)
        assert not check_time_bound(c, 1)


def test_spacetime_diagram_runs():
    c = build_c1()
    x = (c.sigma[0],) * 2
    matrix = [[0] * 2 for _ in range(c.time_bound)]
    text = spacetime_diagram(c, x, matrix)
    assert len(text.splitlines()) == c.time_bound


def test_spacetime_diagram_and_accepts_refuse_a_matrix_not_t_by_n():
    c = build_c1()
    x = (c.sigma[0],) * 2
    T = c.time_bound
    short = [[0, 0]] * (T - 2)
    long = [[0, 0]] * (T + 1)
    ragged = [[0, 0]] * (T - 1) + [[0]]  # only the unread last row is off
    for matrix in (short, long, ragged):
        with pytest.raises(ShapeError, match=f"coin matrix must be {T} x 2"):
            spacetime_diagram(c, x, matrix)
        with pytest.raises(ShapeError, match=f"coin matrix must be {T} x 2"):
            accepts(c, x, matrix)


def accepts_by_loop(c, x, matrix):
    """Reference for :func:`accepts`: step row by row, scanning steps
    0..T-1 for an all-accepting configuration."""
    T = c.time_bound
    config = tuple(x)
    for t in range(T):
        if c.config_accepting(config):
            return (True, t)
        if t < T - 1:
            config = step(c, config, matrix[t])
    return (False, None)


def spacetime_diagram_by_loop(c, x, matrix):
    """Reference for :func:`spacetime_diagram`: one line per step, stepped
    row by row."""
    config = tuple(x)
    lines = []
    for t in range(c.time_bound):
        mark = "*" if c.config_accepting(config) else " "
        lines.append(f"t={t:3d} {mark} " + " ".join(str(s) for s in config))
        if t < c.time_bound - 1:
            config = step(c, config, matrix[t])
    return "\n".join(lines)


def test_accepts_and_diagram_match_the_reference_loops():
    rng = random.Random(18)
    pacas = [build_c1(), build_c2()] + [sample_paca(rng, q, T) for q, T in ((2, 3), (3, 4)) * 4]
    first_steps = set()
    for c in pacas:
        for _ in range(40):
            x = [rng.choice(c.sigma) for _ in range(rng.randint(1, 4))]
            matrix = [[rng.randrange(2) for _ in x] for _ in range(c.time_bound)]
            got = accepts(c, x, matrix)
            assert got == accepts_by_loop(c, x, matrix), (paca_to_json(c), x, matrix)
            assert spacetime_diagram(c, x, matrix) == spacetime_diagram_by_loop(c, x, matrix)
            first_steps.add(got.first_step)
    # rejections occur, and acceptances that come only after stepping
    assert None in first_steps and first_steps - {None, 0}


def test_paca_json_roundtrip(tmp_path):
    c = build_c1()
    blob = json.dumps(paca_to_json(c))
    back = paca_from_json(json.loads(blob))
    assert back.q == c.q and back.sigma == c.sigma
    assert back.accepting == c.accepting
    assert np.array_equal(back.delta0, c.delta0)
    assert back.time_bound == c.time_bound
    path = tmp_path / "c1.json"
    path.write_text(blob)
    assert load_paca(str(path)).q == c.q


def test_sample_paca_deterministic():
    a = sample_paca(random.Random(4), 3, 2)
    b = sample_paca(random.Random(4), 3, 2)
    assert np.array_equal(a.delta0, b.delta0) and a.accepting == b.accepting


def test_sample_paca_refuses_a_state_count_that_is_not_an_int():
    for q in (2.5, 1, True, "3"):
        with pytest.raises(ParameterError):
            sample_paca(random.Random(4), q, 2)


def test_tables_from_arrays_lists_and_tuples_are_equal():
    rng = random.Random(9)
    c = sample_paca(rng, 3, 2)
    arrays = [np.array(t, dtype=np.int16) for t in (c.delta0, c.delta1)]
    lists = [[[list(row) for row in plane] for plane in t] for t in (c.delta0, c.delta1)]
    for tables in (arrays, lists, [c.delta0, c.delta1]):
        d = Paca(c.q, c.sigma, c.accepting, *tables, c.time_bound)
        assert (d.delta0, d.delta1) == (c.delta0, c.delta1)
        assert all(type(v) is int for t in (d.delta0, d.delta1) for p in t for r in p for v in r)
        for x in product(c.sigma, repeat=2):
            assert exact_accept_probability(d, x) == exact_accept_probability(c, x)
    # equal rows and planes are stored once, across both tables
    c2 = build_c2()
    planes = {id(p) for t in (c2.delta0, c2.delta1) for p in t}
    rows = {id(r) for t in (c2.delta0, c2.delta1) for p in t for r in p}
    assert len(planes) == 3 and len(rows) < 2 * c2.q
    e = identity_paca()  # one plane, repeated in both tables
    assert len({id(p) for p in e.delta0 + e.delta1}) == 1


def test_tables_refuse_bad_shapes_and_entries():
    q = 2
    good = [[[0] * (q + 1) for _ in range(q)] for _ in range(q + 1)]

    def with_table(table):
        return Paca(q, (0,), frozenset({1}), table, good, 2)

    with_table(good)
    with pytest.raises(ShapeError):
        with_table(good[:q])  # wrong plane count
    with pytest.raises(ShapeError):
        with_table([plane + [[0] * (q + 1)] for plane in good])  # wrong row count
    with pytest.raises(ShapeError):
        with_table([[row[:q] for row in plane] for plane in good])  # wrong row length
    for entry in (-1, q, 1.5, "1"):
        bad = json.loads(json.dumps(good))
        bad[q][1][0] = entry
        with pytest.raises(ParameterError):
            with_table(bad)
    with pytest.raises(ShapeError):
        with_table(np.zeros((q + 1, q, q), dtype=np.int16))
    with pytest.raises(ParameterError):
        with_table(np.full((q + 1, q, q + 1), q, dtype=np.int16))


def test_paca_refuses_data_that_is_not_int():
    c = sample_paca(random.Random(6), 3, 2)
    fields = dict(q=c.q, sigma=c.sigma, accepting=c.accepting, delta0=c.delta0,
                  delta1=c.delta1, time_bound=c.time_bound)
    bad = [
        ("time_bound", True), ("time_bound", 2.0), ("time_bound", 2.5), ("time_bound", 0),
        ("q", 3.0), ("q", True), ("accepting", frozenset({True})),
        ("accepting", frozenset({3})), ("sigma", ()), ("sigma", (0, 1.0)), ("sigma", (False,)),
    ]
    for name, value in bad:
        with pytest.raises(ParameterError):
            Paca(**dict(fields, **{name: value}))
    spec = paca_to_json(c)
    for name, value in (("time_bound", True), ("time_bound", 2.0), ("accepting", [True]),
                        ("sigma", [])):
        with pytest.raises(ParameterError):
            paca_from_json(dict(spec, **{name: value}))
    for x in ((True, 0), (1.0, 0), (0, "1")):
        with pytest.raises(ParameterError):
            exact_accept_probability(c, x)


def test_paca_to_json_roundtrips():
    rng = random.Random(12)
    for c in (build_c1(), build_c2(), *(sample_paca(rng, q, 3) for q in (2, 3, 5))):
        spec = paca_to_json(c)
        back = paca_from_json(json.loads(json.dumps(spec)))
        assert paca_to_json(back) == spec
        assert (back.delta0, back.delta1) == (c.delta0, c.delta1)

