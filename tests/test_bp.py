import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from swprg import bits
from swprg.bp import (
    LayeredProgram,
    WindowCertificate,
    WindowViolation,
    acceptance_probability,
    build_certificate,
    canonical_debruijn_swbp,
    check_window,
    concat,
    evaluate,
    evaluate_int,
    pad_program,
    program_from_json,
    program_to_json,
    quotient_swbp,
    relabel,
)
from swprg.errors import ParameterError, ShapeError


def certificate_is_valid(p: LayeredProgram, cert: WindowCertificate) -> bool:
    """Check both certificate clauses by table lookup."""
    t = cert.t
    if len(cert.alphas) != p.n + 1 or cert.alphas[0][0] != p.q0:
        return False
    for i in range(p.n):
        k = min(i, t)
        cur = cert.alphas[i]
        nxt = cert.alphas[i + 1]
        if i < t:
            for wv in range(1 << k):
                for y in (0, 1):
                    if p.trans[i][cur[wv]][y] != nxt[(wv << 1) | y]:
                        return False
        else:
            for xv in range(2):
                for wv in range(1 << (t - 1)):
                    for y in (0, 1):
                        src = (xv << (t - 1)) | wv
                        tgt = ((wv << 1) | y) & ((1 << t) - 1)
                        if p.trans[i][cur[src]][y] != nxt[tgt]:
                            return False
    return True


def and_program():
    # accepts only 11: state 1 = "all ones so far", dies to rejecting state 0
    trans = (((0, 0), (0, 1)), ((0, 0), (0, 1)))
    return LayeredProgram(2, 2, 1, trans, (frozenset({1}), frozenset({1})))


def test_bits_roundtrip():
    assert bits.int_to_bits(6, 4) == (0, 1, 1, 0)  # LSB first
    assert bits.bits_to_int((0, 1, 1, 0)) == 6


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_bits_inverse(v):
    assert bits.bits_to_int(bits.int_to_bits(v, 16)) == v


def test_evaluate_and_program():
    p = and_program()
    assert evaluate(p, (1, 1)) is True
    for x in ((0, 0), (0, 1), (1, 0)):
        assert evaluate(p, x) is False
    assert evaluate_int(p, 0b11)
    assert acceptance_probability(p) == Fraction(1, 4)


def test_evaluate_shape_error():
    with pytest.raises(ShapeError):
        evaluate(and_program(), (1, 1, 1))


def test_unanimity_vs_final_layer():
    # same transitions, intermediate accepting set shrunk: acceptance differs
    trans = (((0, 1), (1, 0)), ((0, 0), (1, 1)))
    full = LayeredProgram(2, 2, 0, trans, (frozenset({0, 1}), frozenset({1})))
    strict = LayeredProgram(2, 2, 0, trans, (frozenset({0}), frozenset({1})))
    accepted_full = {x for x in range(4) if evaluate_int(full, x)}
    accepted_strict = {x for x in range(4) if evaluate_int(strict, x)}
    assert accepted_strict < accepted_full


def random_program(rng, max_n=8):
    n, w = rng.randint(1, max_n), rng.randint(1, 4)
    trans = tuple(
        tuple((rng.randrange(w), rng.randrange(w)) for _ in range(w))
        for _ in range(n)
    )
    acc = tuple(
        frozenset(q for q in range(w) if rng.random() < 0.7) for _ in range(n)
    )
    return LayeredProgram(n, w, rng.randrange(w), trans, acc)


def test_acceptance_probability_matches_enumeration():
    rng = random.Random(11)
    for _ in range(25):
        p = random_program(rng)
        direct = Fraction(
            sum(evaluate_int(p, x) for x in range(1 << p.n)), 1 << p.n
        )
        assert acceptance_probability(p) == direct


def test_concat_accepts_iff_every_block_accepted():
    rng = random.Random(13)
    for _ in range(20):
        parts = [random_program(rng, max_n=4) for _ in range(rng.randint(1, 3))]
        cat = concat(parts)
        assert cat.n == sum(p.n for p in parts)
        assert cat.w == max(p.w for p in parts)
        for x in range(1 << cat.n):
            want, shift = True, 0
            for p in parts:
                want &= evaluate_int(p, (x >> shift) & ((1 << p.n) - 1))
                shift += p.n
            assert evaluate_int(cat, x) == want
        product = Fraction(1)
        for p in parts:
            product *= acceptance_probability(p)
        assert acceptance_probability(cat) == product
    with pytest.raises(ParameterError):
        concat([])


def test_canonical_debruijn_is_window_t():
    for n, t in ((4, 1), (4, 2), (6, 2), (6, 3)):
        p, cert = canonical_debruijn_swbp(n, t)
        assert p.w == 1 << t
        assert isinstance(check_window(p, t), WindowCertificate)
        assert certificate_is_valid(p, cert)
        assert p.acc == p.reachable()[1:]
        assert acceptance_probability(p) == 1


def test_canonical_debruijn_reachable_prefix_tree():
    p, _ = canonical_debruijn_swbp(5, 3)
    reach = p.reachable()
    for i in range(6):
        assert reach[i] == frozenset(range(1 << min(i, 3)))


def test_window_violation_reported_with_witness():
    p, _ = canonical_debruijn_swbp(6, 2)
    # break the shift structure in the middle of the program
    tables = [list(map(list, layer)) for layer in p.trans]
    tables[3][0][0] = 3  # was (2*0+0) % 4 = 0
    bad = LayeredProgram(p.n, p.w, p.q0, tuple(
        tuple(tuple(e) for e in layer) for layer in tables
    ), p.acc)
    result = check_window(bad, 2)
    assert isinstance(result, WindowViolation)
    # the two routes agree
    assert build_certificate(bad, 2) is None
    # the witness is a real disagreement
    q, qp, word = result.q, result.q_prime, result.word
    assert bad.run_word(result.layer, q, word) != bad.run_word(result.layer, qp, word)


def test_window_size_is_not_smaller_than_true_window():
    p, _ = canonical_debruijn_swbp(6, 3)
    assert isinstance(check_window(p, 3), WindowCertificate)
    assert isinstance(check_window(p, 2), WindowViolation)


def test_certificate_rejects_tampering():
    p, cert = canonical_debruijn_swbp(5, 2)
    alphas = [list(a) for a in cert.alphas]
    alphas[3][0] ^= 1
    bad = WindowCertificate(cert.t, tuple(tuple(a) for a in alphas))
    assert not certificate_is_valid(p, bad)


def test_quotient_preserves_window_and_coarsens():
    canon, _ = canonical_debruijn_swbp(6, 2)
    merge = [[] for _ in range(7)]
    merge[3] = [[0, 1]]
    q = quotient_swbp(canon, merge)
    assert q.w <= canon.w
    assert isinstance(check_window(q, 2), WindowCertificate)


def test_quotient_trivial_merge_is_isomorphic():
    canon, _ = canonical_debruijn_swbp(4, 2)
    q = quotient_swbp(canon, [[] for _ in range(5)])
    assert acceptance_probability(q) == acceptance_probability(canon)
    assert q.w == canon.w


class _Dsu:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def quotient_by_fixpoint(canonical, merge):
    """The reference for quotient_swbp: propagate merges over every layer,
    again and again, until a whole round forces none."""
    n, w = canonical.n, canonical.w
    dsus = [_Dsu(w) for _ in range(n + 1)]
    for i, groups in enumerate(merge):
        for group in groups:
            group = list(group)
            for q in group[1:]:
                dsus[i].union(group[0], q)
    reach = canonical.reachable()
    changed = True
    while changed:
        changed = False
        for i in range(n):
            by_block = {}
            for q in reach[i]:
                by_block.setdefault(dsus[i].find(q), []).append(q)
            for members in by_block.values():
                rep = members[0]
                for q in members[1:]:
                    for b in (0, 1):
                        u = canonical.trans[i][rep][b]
                        v = canonical.trans[i][q][b]
                        if dsus[i + 1].union(u, v):
                            changed = True
    ids = []
    for i in range(n + 1):
        layer_ids = {}
        for q in sorted(reach[i]):
            r = dsus[i].find(q)
            if r not in layer_ids:
                layer_ids[r] = len(layer_ids)
        ids.append(layer_ids)
    width = max(len(m) for m in ids)
    trans = []
    acc = []
    for i in range(n):
        table = [(0, 0)] * width
        for q in reach[i]:
            src = ids[i][dsus[i].find(q)]
            table[src] = tuple(
                ids[i + 1][dsus[i + 1].find(canonical.trans[i][q][b])] for b in (0, 1)
            )
        trans.append(tuple(table))
        block_members = {}
        for q in reach[i + 1]:
            block_members.setdefault(ids[i + 1][dsus[i + 1].find(q)], []).append(q)
        acc.append(
            frozenset(
                blk
                for blk, members in block_members.items()
                if all(q in canonical.acc[i] for q in members)
            )
        )
    return LayeredProgram(n, width, ids[0][dsus[0].find(canonical.q0)], tuple(trans), tuple(acc))


def random_merge_spec(rng, p):
    """Up to three groups per layer 0..n, of one to three states drawn from
    all w states (so groups overlap, stand alone, or hold unreachable
    states); now and then the spec stops short of layer n."""
    spec = [
        [rng.sample(range(p.w), rng.randint(1, min(p.w, 3))) for _ in range(rng.randint(0, 3))]
        for _ in range(p.n + 1)
    ]
    return spec[: rng.randint(0, p.n)] if rng.random() < 0.1 else spec


def test_quotient_one_pass_matches_fixpoint_reference():
    rng = random.Random(71)
    seen = {"unreachable": 0, "overlap": 0, "singleton": 0, "coarsened": 0}
    for k in range(1200):
        if k % 2:
            p = random_program(rng)
        else:
            n = rng.randint(1, 8)
            p, _ = canonical_debruijn_swbp(n, rng.randint(1, min(n, 4)))
            p = relabel(p, lambda layer, state: rng.random() < 0.8)
        spec = random_merge_spec(rng, p)
        assert quotient_swbp(p, spec) == quotient_by_fixpoint(p, spec)
        reach = p.reachable()
        for i, groups in enumerate(spec):
            members = [q for g in groups for q in g]
            seen["unreachable"] += any(q not in reach[i] for q in members)
            seen["overlap"] += len(members) > len(set(members))
            seen["singleton"] += any(len(g) == 1 for g in groups)
        seen["coarsened"] += quotient_swbp(p, spec).w < quotient_swbp(p, []).w
    assert min(seen.values()) > 100, seen
    with pytest.raises(ParameterError):
        quotient_swbp(p, [[]] * (p.n + 2))


def test_sample_swbp_programs_match_fixpoint_reference(monkeypatch):
    from swprg import lab

    def samples():
        rng = random.Random(73)
        return [lab.sample_swbp(rng, rng.randint(2, 8), rng.randint(1, 2)) for _ in range(40)]

    one_pass = samples()
    monkeypatch.setattr(lab, "quotient_swbp", quotient_by_fixpoint)
    assert one_pass == samples()


def test_pad_program_keeps_probability():
    p = and_program()
    padded = pad_program(p, 5)
    assert padded.n == 5
    assert acceptance_probability(padded) == acceptance_probability(p)


def test_json_roundtrip():
    p, _ = canonical_debruijn_swbp(5, 2)
    blob = json.dumps(program_to_json(p))
    q = program_from_json(json.loads(blob))
    assert q == p


def test_bad_parameters():
    with pytest.raises(ParameterError):
        canonical_debruijn_swbp(3, 4)
    with pytest.raises(ParameterError):
        LayeredProgram(1, 1, 0, (((0, 1),),), (frozenset({0}),))


def test_states_must_be_ints():
    # a 1.5 used to load: batch_evaluate's int64 table read it as 1 while
    # the uniform DP read it as a rejecting state, so fooling errors were wrong
    table = ((0, 1), (1, 0))
    full = frozenset({0, 1})
    assert LayeredProgram(2, 2, 0, (table, table), (full, full)).w == 2
    bad = [
        (2, 2, 0, (table, ((0, 1.5), (1, 0))), (full, full)),
        (2, 2, 0, (table, ((0, True), (1, 0))), (full, full)),
        (2, 2, 0, (table, ((0, 1.0), (1, 0))), (full, full)),  # equal to a checked table
        (2, 2, 1.0, (table, table), (full, full)),
        (2, 2, True, (table, table), (full, full)),
        (2, 2, 0, (table, table), (full, frozenset({0, 1.0}))),
        (2, 2, 0, (table, table), (full, frozenset({0, True}))),
        (2, 2, 0, (table, table), (full, {0, 1})),  # a mutable set
        (2, 2, 0, (table, table), [full, full]),  # a list of sets
        (2, 2.0, 0, (table, table), (full, full)),
        (2.0, 2, 0, (table, table), (full, full)),
    ]
    for args in bad:
        with pytest.raises(ParameterError):
            LayeredProgram(*args)


def test_transition_tables_are_checked_once_and_refused_every_time():
    good = tuple(((q + 1) % 4, q) for q in range(4))
    full = frozenset(range(4))
    assert LayeredProgram(3, 4, 0, (good,) * 3, (full,) * 3).n == 3
    malformed = ((0, 1), (1, 4))
    unhashable = [[(0, 1), (1, 0)]]
    for _ in range(3):
        with pytest.raises(ParameterError):
            LayeredProgram(1, 2, 0, (malformed,), (frozenset({0}),))
        with pytest.raises(ParameterError):
            LayeredProgram(1, 2, 0, unhashable, (frozenset({0}),))
        with pytest.raises(ParameterError):
            LayeredProgram(1, 2, 0, ([(0, 1), (1, 0)],), (frozenset({0}),))
    # the table object that passed at w = 4 has too many rows for w = 2
    trans = (good,) * 3
    assert LayeredProgram(3, 4, 0, trans, (full,) * 3).w == 4
    with pytest.raises(ParameterError):
        LayeredProgram(3, 2, 0, trans, (frozenset({0}),) * 3)
    # at the same width, a checked table is no accepting set, nor a set a table
    with pytest.raises(ParameterError):
        LayeredProgram(3, 4, 0, trans, (trans, full, full))
    with pytest.raises(ParameterError):
        LayeredProgram(4, 4, 0, full, (full,) * 4)
