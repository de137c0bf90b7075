import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from swprg.bp import acceptance_probability, check_window, evaluate_int, WindowCertificate
from swprg.errors import ParameterError, ShapeError
from swprg.generators import (
    ExhaustiveRectangle,
    PairwiseRectangle,
    base_exhaustive,
    base_nisan,
    interleave,
    rect_compose,
)
from swprg.hsg import from_prg, hsg_exhaustive
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
    derived_matrix,
    exact_accept_probability,
    load_paca,
    paca_from_json,
    paca_to_json,
    sample_paca,
    sliding_sim,
    spacetime_diagram,
    step,
    step_vector_counts,
    stream_to_matrix,
    successors,
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
            expected = int((c.delta1 if b else c.delta0)[c.boundary, s, c.boundary])
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


def test_successors_count_every_coin_row():
    # the cell-by-cell kernel against stepping every one of the 2**n rows
    rng = random.Random(41)
    for _ in range(30):
        c = sample_paca(rng, rng.randint(2, 4), 2)
        n = rng.randint(1, 6)
        config = tuple(rng.randrange(c.q) for _ in range(n))
        got = successors(c, config)
        assert got == Counter(step(c, config, row) for row in product((0, 1), repeat=n))
        assert sum(got.values()) == 1 << n


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


def test_accepting_steps_of_stream_matches_stepping():
    # stream bit i + (i+j+1)*T is the coin of cell j at step i+1; bit s of
    # the mask (s = 1..T) says whether the step-s configuration accepts
    rng = random.Random(47)
    for q, T, n in product((2, 3), range(1, 5), range(1, 4)):
        m = (n + T) * T
        for _ in range(3):
            c = sample_paca(rng, q, T)
            x = tuple(rng.choice(c.sigma) for _ in range(n))
            streams = [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(20)]
            for r in streams:
                config, want = x, 0
                for i in range(T):
                    row = [(r >> (i + (i + j + 1) * T)) & 1 for j in range(n)]
                    config = step(c, config, row)
                    if c.config_accepting(config):
                        want |= 1 << (i + 1)
                assert accepting_steps_of_stream(c, x, r) == want, (q, T, x, r)
            with pytest.raises(ParameterError):
                accepting_steps_of_stream(c, x[:-1] + (q,), 0)
            with pytest.raises(ParameterError):
                accepting_steps_of_stream(c, (), 0)


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
        h = from_prg(rect_compose(base_exhaustive(k), PairwiseRectangle(m // k, k)))
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


def test_derandomize_two_sided_exhaustive_equals_exact():
    rng = random.Random(37)
    builder = lambda m, thr: base_exhaustive(m)
    for _ in range(8):
        c = sample_paca(rng, 2, rng.randint(2, 3))
        x = tuple(rng.choice(c.sigma) for _ in range(2))
        result = derandomize_two_sided(c, x, Fraction(1, 8), builder)
        # both read the configuration chain; matrix enumeration is independent
        assert result.eta == exact_accept_probability(c, x)
        assert result.eta == accept_probability_bruteforce(c, x)  # T*n <= 6 bits


def test_derandomize_two_sided_fixtures():
    builder = lambda m, thr: base_exhaustive(m)
    c1, c2 = build_c1(), build_c2()
    r1 = derandomize_two_sided(c1, (c1.sigma[0],) * 2, Fraction(1, 8), builder)
    assert r1.eta == Fraction(1, 4) and not r1.accept
    r2 = derandomize_two_sided(c2, (c2.sigma[0],) * 2, Fraction(1, 8), builder)
    assert r2.eta == Fraction(175, 256) and r2.accept


def test_time_bound_fixtures():
    assert check_time_bound(build_c1(), 1)
    assert check_time_bound(build_c2(), 1)
    # shrinking T below the first accepting step must fail the bound
    c1 = build_c1()
    tight = Paca(c1.q, c1.sigma, c1.accepting, c1.delta0, c1.delta1, 9)
    assert not check_time_bound(tight, 1)


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
