import tracemalloc

import pytest
from hypothesis import given, strategies as st

from exlift import matrices as M, rings as R
from exlift.errors import (DimensionMismatch, PreconditionFailed,
                           RingMismatch)

import table_oracles as O
from ring_checks import (decode_matrix, encode_matrix, mat_add,
                         verify_ideal, word, zero_matrix)


def z(n):
    return R.build_ring(R.ZmodSpec(n))


def test_mat_arithmetic_examples():
    z4 = z(4)
    one2 = M.identity(z4, 2)
    assert M.mat_mul(one2, one2) == one2
    A = M.matrix(z4, [[1, 2], [0, 1]])
    assert M.mat_mul(A, A) == one2
    x = M.matrix(z4, [[3]])
    y = M.matrix(z4, [[2]])
    assert M.direct_sum(x, y) == M.matrix(z4, [[3, 0], [0, 2]])


def test_dimension_and_ring_mismatch():
    z4, z6 = z(4), z(6)
    with pytest.raises(DimensionMismatch):
        M.mat_mul(M.identity(z4, 2), M.identity(z4, 3))
    with pytest.raises(RingMismatch):
        mat_add(M.identity(z4, 2), M.identity(z6, 2))


def test_try_inverse_examples():
    z4 = z(4)
    A = M.matrix(z4, [[1, 2], [0, 1]])
    inv = M.try_inverse(A)
    assert inv == A
    assert M.try_inverse(zero_matrix(z4, 2)) is None
    assert M.try_inverse(M.matrix(z4, [[3]])) == M.matrix(z4, [[3]])


def test_try_inverse_two_sided(corpus_rings):
    import random
    rng = random.Random(11)
    for entry, ring in corpus_rings:
        if ring.size > 16:
            continue
        hits = 0
        codes = ([encode_matrix(M.identity(ring, 2))]
                 + [rng.randrange(ring.size ** 4) for _ in range(300)])
        for code in codes:
            A = decode_matrix(ring, 2, code)
            X = M.try_inverse(A)
            if X is not None:
                hits += 1
                assert M.mat_mul(A, X) == M.identity(ring, 2)
                assert M.mat_mul(X, A) == M.identity(ring, 2)
        assert hits > 0


def test_apply_elem_word_examples():
    z2 = z(2)
    A = M.identity(z2, 2)
    assert M.apply_elem_word(A, word(2, [])) == A
    w = word(2, [M.right_op(1, 2, 1)])
    assert M.apply_elem_word(A, w) == M.matrix(z2, [[1, 1], [0, 1]])


def test_word_replay_refuses_an_op_outside_the_matrix():
    # the in-place replay checks every op, not only the first
    z4 = z(4)
    A = M.matrix(z4, [[1, 2], [0, 1]])
    ops = [M.left_op(1, 2, 1), M.right_op(2, 1, 3), M.left_op(1, 3, 1)]
    with pytest.raises(DimensionMismatch):
        M.apply_elem_word(A, word(2, ops))
    with pytest.raises(DimensionMismatch):
        M.apply_elem_word(A, word(2, ops[:2] + [M.right_op(0, 2, 1)]))
    with pytest.raises(DimensionMismatch):
        M.apply_elem_word(A, word(2, ops[2:]))


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["left", "right"]),
              st.sampled_from([(1, 2), (2, 1)]),
              st.integers(0, 5)),
    min_size=0, max_size=8)


@given(st.integers(2, 6), ops_strategy, st.integers(0, 10 ** 6))
def test_word_inverse_is_identity_action(n, raw_ops, seed):
    ring = z(n)
    ops = [M.ElemOp(side, ij[0], ij[1], r % n) for side, ij, r in raw_ops]
    w = word(2, ops)
    A = decode_matrix(ring, 2, seed % (n ** 4))
    out = M.apply_elem_word(M.apply_elem_word(A, w), w.inverse(ring))
    assert out == A


def test_word_in_ideal():
    z4 = z(4)
    ideal = R.ideal_closure(z4, [2])
    assert M.word_in_ideal(word(2, []), ideal)
    assert M.word_in_ideal(word(2, [M.right_op(1, 2, 2)]), ideal)
    assert not M.word_in_ideal(word(2, [M.right_op(1, 2, 1)]), ideal)


def test_ideal_words_preserve_quotient_image(corpus_pairs):
    # pi(A * w) == pi(A) whenever all word parameters lie in I
    import random
    rng = random.Random(7)
    for name, ring, ideal, tags in corpus_pairs:
        if ring.size > 32:
            continue
        qmap = R.quotient_by(ring, ideal)
        members = ideal.sorted_members
        for _ in range(5):
            A = decode_matrix(ring, 2, rng.randrange(ring.size ** 4))
            ops = [M.ElemOp(rng.choice(["left", "right"]),
                            *rng.choice([(1, 2), (2, 1)]),
                            rng.choice(members)) for _ in range(4)]
            B = M.apply_elem_word(A, word(2, ops))
            assert M.map_entries(B, qmap) == M.map_entries(A, qmap)


_E_GROUPS: dict = {}


def _table_key(ring):
    return (ring.size, ring.npadd.tobytes(), ring.npmul.tobytes(),
            ring.zero, ring.one)


def _elementary_group(ring, n):
    """Oracle: encodings of E_n(ring), by breadth-first search of its Cayley
    graph under all transvections.  Cached per operation table and n."""
    key = (_table_key(ring), n)
    got = _E_GROUPS.get(key)
    if got is not None:
        return got
    gens = [(i, j, r) for i in range(n) for j in range(n) if i != j
            for r in range(ring.size) if r != ring.zero]
    start = M.identity(ring, n).entries
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for rows in frontier:
            for i, j, r in gens:
                row = tuple(ring.add(a, ring.mul(r, b))
                            for a, b in zip(rows[i], rows[j]))
                nxt = rows[:i] + (row,) + rows[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    got = _E_GROUPS[key] = {encode_matrix(M.RMatrix(ring, n, rows))
                            for rows in seen}
    return got


def _diag(ring, n, d):
    return M.direct_sum(M.matrix(ring, [[d]]), M.identity(ring, n - 1))


def test_e_orbit_factor_examples():
    z2 = z(2)
    w = M.e_orbit_factor(z2, 2, M.matrix(z2, [[1, 1], [0, 1]]),
                         M.identity(z2, 2))
    assert w is not None and len(w.ops) == 1
    assert w.ops[0] == M.left_op(1, 2, 1)
    # same matrix: empty word
    A = M.matrix(z2, [[1, 1], [0, 1]])
    assert M.e_orbit_factor(z2, 2, A, A) == M.ElemWord(2, ())
    # determinant obstruction over a field
    z3 = z(3)
    assert M.e_orbit_factor(z3, 2, M.matrix(z3, [[2, 0], [0, 1]]),
                            M.identity(z3, 2)) is None
    # a singular target is outside the orbit; a singular base is refused
    z4 = z(4)
    sing = M.matrix(z4, [[2, 0], [0, 1]])
    assert M.e_orbit_factor(z4, 2, sing, M.identity(z4, 2)) is None
    with pytest.raises(PreconditionFailed):
        M.e_orbit_factor(z4, 2, M.identity(z4, 2), sing)
    # W(M_2(Z/2)) holds every unit, but E_1 is trivial
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    u = next(v for v in m2.units() if v != m2.one)
    assert M.e_orbit_factor(m2, 1, M.matrix(m2, [[u]]),
                            M.identity(m2, 1)) is None
    # column (2, 2, 1): rows 3 and 2 fold before the pivot can be a unit
    A = M.matrix(z4, [[2, 1, 0], [2, 0, 1], [1, 0, 0]])
    B = M.identity(z4, 3)
    w = M.e_orbit_factor(z4, 3, A, B)
    assert M.left_op(2, 3, z4.neg(1)) in w.ops    # the fold, inverted
    assert M.apply_elem_word(B, w) == A


def test_e_orbit_factor_replays():
    import random
    rng = random.Random(3)
    for n in (2, 3, 4, 6):
        ring = z(n)
        codes = sorted(_elementary_group(ring, 2))
        for _ in range(10):
            A = decode_matrix(ring, 2, rng.choice(codes))
            B = decode_matrix(ring, 2, rng.choice(codes))
            w = M.e_orbit_factor(ring, 2, A, B)
            assert w is not None
            assert M.apply_elem_word(B, w) == A


def test_w_group_is_diagonal_of_e2(corpus_pairs_full):
    # W(S) = {u : diag(u, 1) in E_2(S)} on every corpus quotient
    quotients = {}
    for name, ring, ideal, tags in corpus_pairs_full:
        S = R.quotient_by(ring, ideal).target
        quotients.setdefault(_table_key(S), S)
    assert len(quotients) == 11
    for S in quotients.values():
        group = _elementary_group(S, 2)
        words = M.w_group(S)
        assert set(words) == {u for u in S.units()
                              if encode_matrix(_diag(S, 2, u)) in group}
        for u, ops in words.items():
            assert M.evaluate_word(S, word(2, ops)) == _diag(S, 2, u)


@pytest.mark.parametrize("block", ["2**16 pairs", "one row"])
def test_w_group_matches_the_per_row_loop(corpus_pairs_full, monkeypatch,
                                          block):
    # the blocked build keeps each generator's least pair, so W(S), its
    # words and their insertion order are those of the per-row loop; one-row
    # blocks run each quotient over |S| blocks
    if block == "one row":
        monkeypatch.setattr(M, "_W_BLOCK", 1)
    quotients = {}
    for name, ring, ideal, tags in corpus_pairs_full:
        S = R.quotient_by(ring, ideal).target
        quotients.setdefault(_table_key(S), S)
    assert len(quotients) == 11
    sizes = []
    for S in quotients.values():
        monkeypatch.delitem(S._cache, "w_group", raising=False)
        got = list(M.w_group(S).items())
        assert got == list(O.w_group_per_row(S).items()), S.describe()
        sizes.append(len(got))
    assert sorted(sizes) == [1] * 10 + [6]       # W(M_2(Z/2)) has 6 members


def test_w_group_temporaries_are_bounded(monkeypatch):
    # with the tables of Z/1024 formed, the build's arrays hold at most one
    # block of 2**16 pairs: nothing of |R|^2 = 2**20 entries
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    ring = z(1024)
    ring.npadd, ring.npmul, ring.units()
    tracemalloc.start()
    try:
        words = M.w_group(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == {ring.one: ()}   # W is trivial on a commutative ring
    assert peak < 4 * 2**20, peak


def test_e_orbit_factor_agrees_with_oracle():
    import random
    rng = random.Random(5)
    cases = [(R.ZmodSpec(4), 2), (R.ZmodSpec(6), 2), (R.ZmodSpec(9), 2),
             (R.TriangularSpec(R.ZmodSpec(2), 2), 2),
             (R.MatrixSpec(R.ZmodSpec(2), 2), 2),
             (R.ZmodSpec(2), 3), (R.ZmodSpec(3), 3), (R.ZmodSpec(2), 4)]
    outcomes = set()
    for spec, n in cases:
        ring = R.build_ring(spec)
        group = _elementary_group(ring, n)
        pairs = 0
        while pairs < 25:
            A, B = (decode_matrix(ring, n, rng.randrange(ring.size ** (n * n)))
                    for _ in range(2))
            Ainv, Binv = M.try_inverse(A), M.try_inverse(B)
            if Ainv is None or Binv is None:
                continue
            pairs += 1
            w = M.e_orbit_factor(ring, n, A, B)
            member = encode_matrix(M.mat_mul(A, Binv)) in group
            assert (w is not None) == member, (spec, n, A, B)
            if member:
                assert M.apply_elem_word(B, w) == A
            outcomes.add(member)
    assert outcomes == {True, False}


def test_sigma_words():
    z5 = z(5)
    sig = M.evaluate_word(z5, word(2, M.whitehead_word(z5, 1, side=M.RIGHT)))
    assert sig == M.matrix(z5, [[0, 1], [4, 0]])
    siginv = M.evaluate_word(z5, word(2, M.whitehead_word(z5, 4)))
    assert M.mat_mul(sig, siginv) == M.identity(z5, 2)


def test_whitehead_words_evaluate_to_their_matrices(scan_rings):
    # w(v) = (0 v; -v^-1 0) as left and as right ops, and
    # diag(v, v^-1) = w(v) w(-1), for every unit v of every ring the 2x2
    # step runs on (with and without list mirrors, and opposites) and of
    # the z/5 of test_sigma_words
    units = 0
    for ring in scan_rings + [z(5), z(5).op()]:
        zero = ring.zero
        for v in ring.units():
            vinv = ring.inverse(v)
            w = M.matrix(ring, [[zero, v], [ring.neg(vinv), zero]])
            for side in (M.LEFT, M.RIGHT):
                ops = M.whitehead_word(ring, v, side=side)
                assert {op.side for op in ops} == {side}
                assert M.evaluate_word(ring, word(2, ops)) == w, \
                    (ring.describe(), v, side)
            ops = M.whitehead_ops(ring, v, 1, 2)
            assert M.evaluate_word(ring, word(2, ops)) == M.matrix(
                ring, [[v, zero], [zero, vinv]]), (ring.describe(), v)
            units += 1
    assert units > 5000


def test_block_roundtrip():
    z2 = z(2)
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    big = M.matrix(z2, [[1, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0], [0, 0, 0, 1]])
    assert M.unblock_matrix(M.block_matrix(big, m2, 2), z2, 2) == big
    # k = 2 over Z/3: each block is the M_2(R) element its descriptor names;
    # k = 1: the block ring is R, and blocking returns its argument
    z3 = z(3)
    m3 = R.build_ring(R.MatrixSpec(R.ZmodSpec(3), 2))
    for seed in range(20):
        rows = [[(seed * 7 + 5 * i + 3 * j * j) % 3 for j in range(4)]
                for i in range(4)]
        A = M.matrix(z3, rows)
        blocked = M.block_matrix(A, m3, 2)
        for bi in range(2):
            for bj in range(2):
                block = [row[2 * bj:2 * bj + 2]
                         for row in rows[2 * bi:2 * bi + 2]]
                assert blocked[bi, bj] == R.element_from_descriptor(m3, block)
        assert M.unblock_matrix(blocked, z3, 2) == A
        for n in (1, 2, 4):
            B = M.matrix(z3, [row[:n] for row in rows[:n]])
            assert M.block_matrix(B, z3, 1) is B
            assert M.unblock_matrix(B, z3, 1) is B


def test_matrix_ideal():
    z2 = z(2)
    m2 = R.build_ring(R.MatrixSpec(R.ZmodSpec(2), 2))
    mi = M.matrix_ideal(m2, z2, 2, R.zero_ideal(z2))
    assert mi.sorted_members == (0,)
    mi_full = M.matrix_ideal(m2, z2, 2, R.full_ideal(z2))
    assert len(mi_full.members) == 16
    verify_ideal(mi_full)


def test_stage_ring_keeps_one_matrix_ideal_per_ideal(monkeypatch):
    # M_2(I) is memoized on the stage ring M_2(R) per ideal I: each ideal
    # of Z/6 and Z/8 gets its own, equal to a fresh build (members, mask,
    # ascending members, generators), and the same object when asked again
    monkeypatch.setattr(R, "_BUILD_CACHE", {})
    for n in (6, 8):
        ring = z(n)
        ideals = R.all_ideals(ring)
        got = []
        for ideal in ideals:
            sring, sideal = M.stage_ring(ring, ideal, 2)
            fresh = M.matrix_ideal(sring, ring, 2, ideal)
            assert M.stage_ring(ring, ideal, 2) == (sring, sideal)
            assert M.stage_ring(ring, ideal, 2)[1] is sideal
            assert sideal.members == fresh.members
            assert sideal.generators == fresh.generators
            assert sideal.sorted_members == tuple(sorted(fresh.members))
            assert sideal.mask.tolist() == [x in fresh.members
                                            for x in range(sring.size)]
            got.append(sideal)
        assert len({s.members for s in got}) == len(ideals) == 4
    assert M.stage_ring(ring, ideals[1], 1) == (ring, ideals[1])


def test_value_types_are_immutable_values():
    z4 = z(4)
    A, B = M.matrix(z4, [[1, 2], [3, 0]]), M.matrix(z4, [[1, 2], [3, 0]])
    op, op2 = M.ElemOp("left", 1, 2, 3), M.left_op(1, 2, 3)
    w, w2 = M.ElemWord(2, (op,)), word(2, [op2])
    for x, y, fields in ((A, B, ("ring", "n", "entries")),
                         (op, op2, ("side", "i", "j", "r")),
                         (w, w2, ("n", "ops"))):
        assert x == y and hash(x) == hash(y) and x is not y
        assert {x: "found"}[y] == "found" and len({x, y}) == 1
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == y                      # nothing was changed
    assert A != M.matrix(z4, [[1, 2], [3, 1]])
    assert A != M.RMatrix(z4.op(), 2, A.entries)   # rings compare by identity
    assert op != M.right_op(1, 2, 3) and w != M.ElemWord(3, (op,))
    assert A[1, 0] == 3 and A.n == 2 and repr(A) == "RMatrix(((1, 2), (3, 0)))"
    assert len(w) == 1 and len(M.ElemWord(2, ())) == 0
    assert w.inverse(z4) == M.ElemWord(2, (M.left_op(1, 2, 1),))
    assert w.op() == M.ElemWord(2, (M.right_op(2, 1, 3),))


def test_value_type_constructor_errors():
    z4 = z(4)
    for side, i, j in (("up", 1, 2), ("left", 2, 2), ("right", 1, 1)):
        with pytest.raises(ValueError):
            M.ElemOp(side, i, j, 0)
    for n, rows in ((2, ((1, 2), (3,))), (2, ((1, 2),)), (1, ((1, 2),)),
                    (2, ((1, 2), (3, 0), (0, 0)))):
        with pytest.raises(DimensionMismatch):
            M.RMatrix(z4, n, rows)
